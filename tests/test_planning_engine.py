"""Tests for the query-engine layer (repro.planning.engine)."""

import numpy as np
import pytest

from repro.accel.invariants import check_sas_result
from repro.accel.sas import SASSimulator
from repro.accel.telemetry import MetricsRegistry
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import ENGINE_KINDS, EngineConfig
from repro.env.octree import Octree
from repro.env.scene import Scene
from repro.geometry.aabb import AABB
from repro.planning.engine import (
    BatchedEngine,
    PhaseAnswer,
    SequentialEngine,
    SimulatedEngine,
    make_engine,
)
from repro.planning.motion import CDPhase, FunctionMode, MotionRecord
from repro.planning.recorder import CDTraceRecorder
from repro.robot.presets import planar_arm


@pytest.fixture(scope="module")
def world():
    scene = Scene(extent=4.0)
    scene.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
    octree = Octree.from_scene(scene, resolution=32)
    robot = planar_arm(2)
    return robot, octree


def make_checker(world, backend: str) -> RobotEnvironmentChecker:
    robot, octree = world
    return RobotEnvironmentChecker(
        robot, octree, motion_step=0.05, collect_stats=True, backend=backend
    )


FREE_A = np.array([np.pi, 0.0])  # pointing -x, away from the wall
FREE_B = np.array([np.pi - 0.4, 0.0])
BLOCKED = np.array([0.0, 0.0])  # straight through the wall


def run_script(recorder: CDTraceRecorder) -> list:
    """A fixed query script covering all four recorder entry points."""
    return [
        recorder.steer(FREE_A, FREE_B),
        recorder.steer(FREE_A, BLOCKED),
        recorder.feasibility([FREE_A, FREE_B, BLOCKED, FREE_A]),
        recorder.connectivity(FREE_A, [BLOCKED, FREE_B, FREE_A]),
        recorder.complete([(FREE_A, FREE_B), (FREE_A, BLOCKED)]),
    ]


class TestPhaseAnswer:
    def test_first_colliding_and_free(self):
        answer = PhaseAnswer(outcomes=[False, True, None])
        assert answer.first_colliding() == 1
        assert answer.first_free() == 0
        assert not answer.all_free

    def test_all_free(self):
        assert PhaseAnswer(outcomes=[False, False]).all_free
        assert PhaseAnswer(outcomes=[]).all_free

    def test_flags_requires_complete_answer(self):
        assert PhaseAnswer(outcomes=[False, True]).flags() == [False, True]
        with pytest.raises(ValueError):
            PhaseAnswer(outcomes=[False, None]).flags()


class TestMakeEngine:
    def test_kinds_and_aliases(self, world):
        scalar = make_checker(world, "scalar")
        batch = make_checker(world, "batch")
        kinds = {
            "sequential": (scalar, SequentialEngine),
            "batch": (batch, BatchedEngine),
            "simulated": (scalar, SimulatedEngine),
        }
        for kind, (checker, engine_cls) in kinds.items():
            engine = make_engine(EngineConfig(kind=kind), checker)
            assert isinstance(engine, engine_cls)
        assert set(ENGINE_KINDS) == set(kinds)

    def test_unknown_kind_raises(self, world):
        with pytest.raises(ValueError, match="unknown engine kind"):
            EngineConfig(kind="warp")
        # Bare kind strings are refused: EngineConfig is the one spelling.
        with pytest.raises(TypeError, match="EngineConfig"):
            make_engine("sequential", make_checker(world, "scalar"))

    def test_batched_rejects_scalar_checker(self, world):
        with pytest.raises(ValueError, match="backend='batch'"):
            BatchedEngine(make_checker(world, "scalar"))


class TestRecorderEngineIntegration:
    def test_answers_parallel_to_phases(self, world):
        checker = make_checker(world, "scalar")
        recorder = CDTraceRecorder(checker)
        run_script(recorder)
        assert len(recorder.answers) == len(recorder.phases) == 5
        assert all(a.engine == "sequential" for a in recorder.answers)

    def test_engine_without_checker_argument(self, world):
        checker = make_checker(world, "batch")
        recorder = CDTraceRecorder(engine=BatchedEngine(checker))
        assert recorder.checker is checker
        assert recorder.steer(FREE_A, FREE_B)

    def test_requires_checker_or_engine(self):
        with pytest.raises(ValueError):
            CDTraceRecorder()


class TestEngineEquivalence:
    """The semantics contract: identical answers AND identical stats."""

    def _run(self, world, engine_kind, backend, **engine_kwargs):
        checker = make_checker(world, backend)
        engine = make_engine(
            EngineConfig(kind=engine_kind), checker, **engine_kwargs
        )
        recorder = CDTraceRecorder(checker, engine=engine)
        answers = run_script(recorder)
        return answers, checker.stats.as_dict(), recorder

    def test_batched_matches_sequential(self, world):
        seq_answers, seq_stats, _ = self._run(world, "sequential", "scalar")
        bat_answers, bat_stats, _ = self._run(world, "batch", "batch")
        assert bat_answers == seq_answers
        assert bat_stats == seq_stats

    def test_simulated_scalar_matches_sequential(self, world):
        seq_answers, seq_stats, _ = self._run(world, "sequential", "scalar")
        sim_answers, sim_stats, recorder = self._run(
            world, "simulated", "scalar", seed=3
        )
        assert sim_answers == seq_answers
        # Planner-visible stats are sequential-identical; the extra ground
        # truth the simulator needed went to shadow_stats instead.
        assert sim_stats == seq_stats
        assert recorder.engine.shadow_stats.pose_checks > 0

    def test_simulated_batch_matches_sequential(self, world):
        seq_answers, seq_stats, _ = self._run(world, "sequential", "scalar")
        sim_answers, sim_stats, _ = self._run(world, "simulated", "batch", seed=3)
        assert sim_answers == seq_answers
        assert sim_stats == seq_stats


class TestSimulatedEngine:
    def test_one_audited_result_per_phase(self, world):
        checker = make_checker(world, "scalar")
        engine = SimulatedEngine(checker, n_cdus=4, seed=11)
        recorder = CDTraceRecorder(checker, engine=engine)
        run_script(recorder)
        assert len(engine.results) == len(recorder.phases)
        for phase, result in zip(recorder.phases, engine.results):
            assert check_sas_result(result, phases=[phase]) == []
        assert engine.total_cycles > 0
        assert engine.total_tests > 0
        assert engine.total_energy_pj > 0.0

    def test_inline_equals_posthoc_replay(self, world):
        """Inline SAS pricing equals a post-hoc run_phases replay of the
        recorded trace when seed/policy/config match (mcsp is
        deterministic, so pose orderings coincide)."""
        checker = make_checker(world, "scalar")
        engine = SimulatedEngine(checker, n_cdus=8, policy="mcsp", seed=5)
        recorder = CDTraceRecorder(checker, engine=engine)
        run_script(recorder)
        replay = SASSimulator(n_cdus=8, policy="mcsp", seed=5).run_phases(
            recorder.phases
        )
        assert replay.cycles == engine.total_cycles
        assert replay.tests == engine.total_tests
        assert replay.energy_pj == pytest.approx(engine.total_energy_pj)
        assert replay.motion_outcomes == [
            outcome for result in engine.results
            for outcome in result.motion_outcomes
        ]

    def test_clear(self, world):
        checker = make_checker(world, "scalar")
        engine = SimulatedEngine(checker, n_cdus=4)
        recorder = CDTraceRecorder(checker, engine=engine)
        recorder.steer(FREE_A, FREE_B)
        assert engine.results
        engine.clear()
        assert not engine.results
        assert engine.shadow_stats.pose_checks == 0

    def test_precomputed_trace_needs_no_checker(self):
        poses = np.linspace([0.0, 0.0], [1.0, 0.0], 5)
        motion = MotionRecord.from_precomputed(poses, [False] * 5)
        engine = SimulatedEngine(checker=None, n_cdus=2)
        answer = engine.answer(CDPhase(FunctionMode.FEASIBILITY, [motion]))
        assert answer.outcomes == [False]
        assert len(engine.results) == 1


class TestEngineTelemetry:
    def test_scopes_and_counters(self, world):
        telemetry = MetricsRegistry()
        checker = make_checker(world, "scalar")
        engine = SequentialEngine(checker, telemetry=telemetry)
        recorder = CDTraceRecorder(checker, engine=engine)
        run_script(recorder)
        scopes = telemetry.scopes_of("engine.phase")
        assert len(scopes) == 5
        assert scopes[0].label == "sequential:steer"
        assert telemetry.counter_value("engine.sequential.phases") == 5
        assert telemetry.counter_value("engine.mode.feasibility") == 3
        assert telemetry.counter_value("engine.mode.connectivity") == 1
        assert telemetry.counter_value("engine.mode.complete") == 1
        assert telemetry.counter_value("engine.motions") == sum(
            len(p.motions) for p in recorder.phases
        )
        assert telemetry.counter_value("engine.poses") == sum(
            p.total_poses for p in recorder.phases
        )

    def test_disabled_registry_is_noop(self, world):
        telemetry = MetricsRegistry(enabled=False)
        checker = make_checker(world, "scalar")
        recorder = CDTraceRecorder(
            checker, engine=SequentialEngine(checker, telemetry=telemetry)
        )
        assert recorder.steer(FREE_A, FREE_B)
        assert telemetry.scopes == []
