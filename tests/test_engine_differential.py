"""Differential harness: all three query engines are interchangeable.

For fixed seeds, every planner workload (RRT, RRT-Connect, PRM, greedy
shortcut) must produce the *identical* run under SequentialEngine,
BatchedEngine, and SimulatedEngine:

- the same planner path (same waypoints, to float precision),
- the same per-phase engine answers (per-motion verdicts),
- the same per-pose ground-truth verdicts for every recorded motion,
- the same planner-visible ``CollisionStats`` operation counts,

and every SimulatedEngine phase result must pass the SAS invariant audit.
This is the acceptance gate for the engine refactor: planners cannot tell
the engines apart except by wall clock and by the side products
(cycle/energy numbers) the simulated engine accumulates.
"""

import numpy as np
import pytest

from repro.accel.invariants import check_sas_result
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import EngineConfig
from repro.env.octree import Octree
from repro.env.scene import Scene
from repro.geometry.aabb import AABB
from repro.planning.engine import make_engine
from repro.planning.prm import PRMPlanner
from repro.planning.recorder import CDTraceRecorder
from repro.planning.rrt import RRTPlanner
from repro.planning.rrt_connect import RRTConnectPlanner
from repro.planning.shortcut import greedy_shortcut
from repro.robot.presets import planar_arm

pytestmark = pytest.mark.engine_differential

SEED = 2023
START = np.array([np.pi * 0.9, 0.0])
GOAL = np.array([-np.pi * 0.9, 0.0])

#: (engine kind, checker backend) triples under differential test.  The
#: "batch+prefilter" variant runs the swept-motion prefilter in front of
#: the exact cascade; with ``collect_stats=True`` (this harness) nothing
#: may be skipped, so its stats must stay bit-identical too.
ENGINES = [
    ("sequential", "scalar"),
    ("batch", "batch"),
    ("batch+prefilter", "batch"),
    ("simulated", "scalar"),
]


@pytest.fixture(scope="module")
def world():
    scene = Scene(extent=4.0)
    scene.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
    octree = Octree.from_scene(scene, resolution=32)
    robot = planar_arm(2)
    return robot, octree


def build_stack(world, engine_kind, backend):
    robot, octree = world
    checker = RobotEnvironmentChecker(
        robot, octree, motion_step=0.05, collect_stats=True, backend=backend
    )
    if engine_kind == "simulated":
        config = EngineConfig(kind="simulated", seed=SEED)
    elif engine_kind == "batch+prefilter":
        config = EngineConfig(kind="batch", prefilter=True)
    else:
        config = EngineConfig(kind=engine_kind)
    engine = make_engine(config, checker)
    return checker, CDTraceRecorder(checker, engine=engine)


def run_workload(world, workload, engine_kind, backend):
    """Run one planner workload and snapshot everything comparable."""
    checker, recorder = build_stack(world, engine_kind, backend)
    path = workload(recorder, np.random.default_rng(SEED))
    # Stats snapshot FIRST: forcing full ground truth below would charge
    # the scalar checker for poses the engines never needed.
    stats = checker.stats.as_dict()
    verdicts = [
        [motion.evaluate_all() for motion in phase.motions]
        for phase in recorder.phases
    ]
    return {
        "path": path,
        "answers": [list(a.outcomes) for a in recorder.answers],
        "labels": [(p.label, p.mode) for p in recorder.phases],
        "verdicts": verdicts,
        "stats": stats,
        "recorder": recorder,
    }


def assert_identical_runs(runs):
    reference = runs[0]
    for run in runs[1:]:
        if reference["path"] is None:
            assert run["path"] is None
        else:
            assert run["path"] is not None
            assert len(run["path"]) == len(reference["path"])
            for q_ref, q_run in zip(reference["path"], run["path"]):
                assert np.allclose(q_ref, q_run)
        assert run["answers"] == reference["answers"]
        assert run["labels"] == reference["labels"]
        assert run["verdicts"] == reference["verdicts"]
        assert run["stats"] == reference["stats"]


def assert_simulated_audited(run):
    engine = run["recorder"].engine
    assert engine.name == "simulated"
    assert len(engine.results) == len(run["recorder"].phases)
    for phase, result in zip(run["recorder"].phases, engine.results):
        assert check_sas_result(result, phases=[phase]) == []


def differential(world, workload):
    runs = [
        run_workload(world, workload, kind, backend) for kind, backend in ENGINES
    ]
    assert_identical_runs(runs)
    assert_simulated_audited(runs[-1])
    return runs


def rrt_workload(recorder, rng):
    planner = RRTPlanner(recorder, max_iterations=3000, max_step=0.4, goal_bias=0.2)
    return planner.plan(START, GOAL, rng)


def rrt_connect_workload(recorder, rng):
    planner = RRTConnectPlanner(recorder, max_iterations=800, max_step=0.4)
    return planner.plan(START, GOAL, rng)


def rrt_connect_multi_extend_workload(recorder, rng):
    planner = RRTConnectPlanner(
        recorder, max_iterations=800, max_step=0.4, batch_extends=4
    )
    return planner.plan(START, GOAL, rng)


def prm_workload(recorder, rng):
    planner = PRMPlanner(recorder, n_samples=40, k_neighbors=5)
    planner.build_roadmap(rng)
    return planner.plan(START, GOAL, rng)


def shortcut_workload(recorder, rng):
    path = RRTConnectPlanner(recorder, max_iterations=800, max_step=0.4).plan(
        START, GOAL, rng
    )
    assert path is not None
    return greedy_shortcut(path, recorder)


class TestEngineDifferential:
    def test_rrt(self, world):
        runs = differential(world, rrt_workload)
        assert runs[0]["path"] is not None

    def test_rrt_connect(self, world):
        runs = differential(world, rrt_connect_workload)
        assert runs[0]["path"] is not None

    def test_rrt_connect_multi_extend(self, world):
        """pRRTC-style multi-extend batches are engine-agnostic too: the
        COMPLETE phases it issues answer identically everywhere."""
        runs = differential(world, rrt_connect_multi_extend_workload)
        assert runs[0]["path"] is not None
        labels = {label for label, _ in runs[0]["labels"]}
        assert "rrtc_multi_extend" in labels

    def test_prm(self, world):
        runs = differential(world, prm_workload)
        assert runs[0]["path"] is not None
        # PRM issues batch-shaped COMPLETE phases for edges and attachments.
        labels = {label for label, _ in runs[0]["labels"]}
        assert "prm_edge" in labels and "prm_attach" in labels

    def test_shortcut(self, world):
        runs = differential(world, shortcut_workload)
        assert runs[0]["path"] is not None

    def test_simulated_batch_variant_matches_too(self, world):
        """The fourth combination — simulated engine over a batch checker —
        is also differential-identical on the heaviest workload."""
        reference = run_workload(world, prm_workload, "sequential", "scalar")
        simulated = run_workload(world, prm_workload, "simulated", "batch")
        assert_identical_runs([reference, simulated])
        assert_simulated_audited(simulated)


# ----------------------------------------------------------------------
# Pre-refactor golden leg (the SoA planner-core acceptance gate)
# ----------------------------------------------------------------------
#
# The fixture was captured at the pre-NodeStore reference commit: float-hex
# path digests, sorted stats dicts, phase/motion/pose totals, and a sha256
# over every phase answer, for five fixed-seed planar workloads under the
# sequential engine plus the bench-shaped jaco2 PRM workload under the
# batched engine.  The SoA planner cores must reproduce every byte.


def _path_hex(path):
    if path is None:
        return None
    return [
        [float(v).hex() for v in np.asarray(q, dtype=float)] for q in path
    ]


def _stats_digest(stats_dict):
    return {
        k: (
            dict(sorted((str(kk), vv) for kk, vv in v.items()))
            if isinstance(v, dict)
            else v
        )
        for k, v in sorted(stats_dict.items())
    }


def _answers_sha256(recorder):
    import hashlib

    h = hashlib.sha256()
    for answer in recorder.answers:
        h.update(
            repr(
                [None if o is None else bool(o) for o in answer.outcomes]
            ).encode()
        )
    return h.hexdigest()


def _golden_snapshot(checker, recorder, path):
    return {
        "path": _path_hex(path),
        "stats": _stats_digest(checker.stats.as_dict()),
        "num_phases": recorder.num_phases,
        "total_motions": recorder.total_motions,
        "total_poses": recorder.total_poses,
        "answers_sha256": _answers_sha256(recorder),
    }


@pytest.fixture(scope="module")
def golden():
    import json
    import os

    fixture = os.path.join(
        os.path.dirname(__file__), "fixtures", "planner_refactor_golden.json"
    )
    with open(fixture) as fh:
        return json.load(fh)


class TestPreRefactorGolden:
    """Bit-exact equality with the pre-refactor planner reference."""

    @pytest.mark.parametrize(
        "name, workload",
        [
            ("rrt", rrt_workload),
            ("rrt_connect", rrt_connect_workload),
            ("rrt_connect_multi_extend", rrt_connect_multi_extend_workload),
            ("prm", prm_workload),
            ("shortcut", shortcut_workload),
        ],
    )
    def test_planar_workloads_sequential(self, world, golden, name, workload):
        checker, recorder = build_stack(world, "sequential", "scalar")
        path = workload(recorder, np.random.default_rng(SEED))
        assert _golden_snapshot(checker, recorder, path) == (
            golden["workloads"][name]
        )

    def test_jaco2_prm_batch(self, golden):
        from repro.env.generator import random_scene
        from repro.robot.presets import jaco2

        robot = jaco2()
        octree = Octree.from_scene(random_scene(seed=3), resolution=16)
        checker = RobotEnvironmentChecker(
            robot, octree, collect_stats=True, backend="batch"
        )
        recorder = CDTraceRecorder(
            checker, engine=make_engine(EngineConfig(kind="batch"), checker)
        )
        planner = PRMPlanner(recorder, n_samples=24, k_neighbors=5)
        rng = np.random.default_rng(7)
        planner.build_roadmap(rng)
        q_start = checker.sample_free_configuration(rng)
        q_goal = checker.sample_free_configuration(rng)
        path = planner.plan(q_start, q_goal, rng)
        if path is not None:
            path = greedy_shortcut(path, recorder)
        assert _golden_snapshot(checker, recorder, path) == (
            golden["workloads"]["jaco2_prm_batch"]
        )
