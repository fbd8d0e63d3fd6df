"""Tests for the CD trace recorder."""

import numpy as np
import pytest

from repro.collision.checker import RobotEnvironmentChecker
from repro.env.octree import Octree
from repro.env.scene import Scene
from repro.geometry.aabb import AABB
from repro.planning.motion import FunctionMode
from repro.planning.recorder import CDTraceRecorder
from repro.robot.presets import planar_arm


@pytest.fixture(scope="module")
def world():
    scene = Scene(extent=4.0)
    scene.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
    octree = Octree.from_scene(scene, resolution=32)
    robot = planar_arm(2)
    checker = RobotEnvironmentChecker(robot, octree, motion_step=0.05)
    return robot, checker


FREE_A = np.array([np.pi, 0.0])  # pointing -x, away from the wall
FREE_B = np.array([np.pi - 0.4, 0.0])
BLOCKED = np.array([0.0, 0.0])  # straight through the wall


class TestSteer:
    def test_free_steer(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        assert recorder.steer(FREE_A, FREE_B)
        assert recorder.num_phases == 1
        phase = recorder.phases[0]
        assert phase.mode is FunctionMode.FEASIBILITY
        assert len(phase.motions) == 1

    def test_blocked_steer(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        assert not recorder.steer(FREE_A, BLOCKED)

    def test_label_recorded(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        recorder.steer(FREE_A, FREE_B, label="xyz")
        assert recorder.phases_by_label("xyz")


class TestFeasibility:
    def test_free_path(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        assert recorder.feasibility([FREE_A, FREE_B, FREE_A]) is None
        assert recorder.phases[0].mode is FunctionMode.FEASIBILITY
        assert len(recorder.phases[0].motions) == 2

    def test_reports_first_bad_segment(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        index = recorder.feasibility([FREE_A, FREE_B, BLOCKED, FREE_A])
        assert index == 1  # segment FREE_B -> BLOCKED collides first

    def test_short_path_trivially_feasible(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        assert recorder.feasibility([FREE_A]) is None
        assert recorder.num_phases == 0


class TestConnectivity:
    def test_first_free_target(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        found = recorder.connectivity(FREE_A, [BLOCKED, FREE_B, FREE_A])
        assert found == 1
        assert recorder.phases[0].mode is FunctionMode.CONNECTIVITY

    def test_none_when_all_blocked(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        assert recorder.connectivity(FREE_A, [BLOCKED]) is None

    def test_empty_targets(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        assert recorder.connectivity(FREE_A, []) is None
        assert recorder.num_phases == 0


class TestComplete:
    def test_per_motion_flags(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        flags = recorder.complete([(FREE_A, FREE_B), (FREE_A, BLOCKED)])
        assert flags == [False, True]
        assert recorder.phases[0].mode is FunctionMode.COMPLETE


class _ExplodingEngine:
    """Engine stub that fails the test if the recorder consults it."""

    name = "exploding"
    checker = None

    def answer(self, phase):
        raise AssertionError("degenerate input must not reach the engine")


class TestDegenerateInputs:
    """The documented contract: no work in -> trivial answer out, no phase
    recorded, engine and checker never consulted."""

    def _recorder(self, world):
        _, checker = world
        return CDTraceRecorder(checker, engine=_ExplodingEngine())

    def test_feasibility_short_path(self, world):
        recorder = self._recorder(world)
        assert recorder.feasibility([]) is None
        assert recorder.feasibility([FREE_A]) is None
        assert recorder.num_phases == 0
        assert recorder.answers == []

    def test_connectivity_no_targets(self, world):
        recorder = self._recorder(world)
        assert recorder.connectivity(FREE_A, []) is None
        assert recorder.num_phases == 0
        assert recorder.answers == []

    def test_complete_no_segments(self, world):
        recorder = self._recorder(world)
        assert recorder.complete([]) == []
        assert recorder.num_phases == 0
        assert recorder.answers == []

    def test_steer_always_records(self, world):
        # steer has no degenerate form: even a zero-length motion is a
        # real single-motion phase (two identical poses).
        _, checker = world
        recorder = CDTraceRecorder(checker)
        assert recorder.steer(FREE_A, FREE_A)
        assert recorder.num_phases == 1
        assert recorder.phases[0].motions[0].num_poses == 2

    @pytest.mark.parametrize("backend,engine_kind", [
        ("scalar", "sequential"),
        ("batch", "batch"),
        ("scalar", "simulated"),
    ])
    def test_contract_holds_across_engines(self, world, backend, engine_kind):
        from repro.config import EngineConfig
        from repro.planning.engine import make_engine

        robot, base_checker = world
        checker = RobotEnvironmentChecker(
            base_checker.robot, base_checker.octree, motion_step=0.05,
            backend=backend,
        )
        recorder = CDTraceRecorder(
            checker, engine=make_engine(EngineConfig(kind=engine_kind), checker)
        )
        assert recorder.feasibility([FREE_A]) is None
        assert recorder.connectivity(FREE_A, []) is None
        assert recorder.complete([]) == []
        assert recorder.num_phases == 0
        assert checker.stats.pose_checks == 0


class TestBookkeeping:
    def test_totals_and_clear(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker)
        recorder.steer(FREE_A, FREE_B)
        recorder.steer(FREE_A, FREE_B)
        assert recorder.total_motions == 2
        assert recorder.total_poses > 0
        recorder.clear()
        assert recorder.num_phases == 0

    def test_record_false_answers_without_recording(self, world):
        _, checker = world
        recorder = CDTraceRecorder(checker, record=False)
        assert recorder.steer(FREE_A, FREE_B)
        assert not recorder.steer(FREE_A, BLOCKED)
        assert recorder.num_phases == 0
