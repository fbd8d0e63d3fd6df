"""Planner wall-clock under the three query engines: the batching payoff.

Run standalone for a report::

    PYTHONPATH=src python benchmarks/bench_planner_engines.py

or as the tier-2 perf guard (skipped in tier-1, which only collects
``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_planner_engines.py -m perf

The workload is the batch-shaped planner path: PRM roadmap construction
(per-node COMPLETE edge batches) followed by greedy shortcutting of a
roadmap query (CONNECTIVITY fan-outs).  Every engine sees the *identical*
phase stream — a fresh rng with the same seed per engine, and the engine
contract guarantees identical planner decisions — so the timing difference
is purely the execution backend.  The guard asserts the batched engine
beats the sequential engine by at least 3x; the simulated engine is
reported (it prices every phase through SAS inline) but not guarded, since
its cost is dominated by the simulation, not the collision substrate.

The ``batch_swept`` configuration is the batched engine with the
swept-motion prefilter (ISSUE 7): spans of poses certified collision-free
against the octree skip the exact per-pose dispatch.  Its hit-rate and
certified-pose counters land in the BENCH artifact, and its advantage
over the plain batched engine is enforced at the measured floor
(:data:`SWEPT_SPEEDUP_FLOOR`; the perf CI job stays non-blocking via
``continue-on-error``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.collision.checker import RobotEnvironmentChecker
from repro.config import EngineConfig
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.planning.engine import make_engine
from repro.planning.prm import PRMPlanner
from repro.planning.recorder import CDTraceRecorder
from repro.planning.shortcut import greedy_shortcut
from repro.robot.presets import jaco2

SEED = 7
N_SAMPLES = 24
K_NEIGHBORS = 5
SPEEDUP_FLOOR = 3.0
#: Enforced floor for the swept-prefilter engine over the plain batched
#: engine, set with margin under the measured ~2.2x (ISSUE 8).  The ratio's
#: denominator moved this cycle: the hits-only traversal mode sped the
#: *plain* batched engine ~1.3x too, so the ratio understates the swept
#: engine's absolute gain (see ROADMAP item 2 for the absolute trajectory).
SWEPT_SPEEDUP_FLOOR = 1.7

#: (engine kind, checker backend, engine kwargs) per timed configuration.
CONFIGS = {
    "sequential": ("sequential", "scalar", {}),
    "batch": ("batch", "batch", {}),
    "batch_swept": ("batch", "batch", {"prefilter": True}),
    "simulated": ("simulated", "scalar", {}),
}


def _workload(resolution: int = 16):
    robot = jaco2()
    octree = Octree.from_scene(random_scene(seed=3), resolution=resolution)
    return robot, octree


def _run_engine(
    robot, octree, engine_kind: str, backend: str, engine_kwargs: dict = {}
) -> dict:
    """One full PRM-build + query + shortcut pass under one engine."""
    checker = RobotEnvironmentChecker(
        robot, octree, collect_stats=False, backend=backend
    )
    kwargs = {"seed": SEED} if engine_kind == "simulated" else {}
    kwargs.update(engine_kwargs)
    engine = make_engine(EngineConfig(kind=engine_kind), checker, **kwargs)
    recorder = CDTraceRecorder(checker, engine=engine)
    planner = PRMPlanner(recorder, n_samples=N_SAMPLES, k_neighbors=K_NEIGHBORS)
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    planner.build_roadmap(rng)
    q_start = checker.sample_free_configuration(rng)
    q_goal = checker.sample_free_configuration(rng)
    path = planner.plan(q_start, q_goal, rng)
    if path is not None:
        path = greedy_shortcut(path, recorder)
    elapsed = time.perf_counter() - start
    prefilter = getattr(engine, "prefilter", None)
    return {
        "seconds": elapsed,
        "path": path,
        "phases": recorder.num_phases,
        "poses": recorder.total_poses,
        "recorder": recorder,
        "prefilter": None if prefilter is None else prefilter.counters(),
    }


def measure_engines(repeats: int = 2) -> dict:
    """Time the PRM+shortcut workload under every engine configuration."""
    robot, octree = _workload()
    # Warm per-process caches (kinematics, octree layout, batch pipeline)
    # before timing, so the first engine measured isn't penalized.
    warm = RobotEnvironmentChecker(robot, octree, collect_stats=False, backend="batch")
    warm.check_poses(np.zeros((4, robot.dof)))
    warm_scalar = RobotEnvironmentChecker(robot, octree, collect_stats=False)
    warm_scalar.check_pose(np.zeros(robot.dof))

    report = {}
    for name, (engine_kind, backend, engine_kwargs) in CONFIGS.items():
        runs = [
            _run_engine(robot, octree, engine_kind, backend, engine_kwargs)
            for _ in range(repeats)
        ]
        best = min(runs, key=lambda r: r["seconds"])
        report[name] = {
            "seconds": best["seconds"],
            "phases": best["phases"],
            "poses": best["poses"],
            "path_len": None if best["path"] is None else len(best["path"]),
            "prefilter": best["prefilter"],
        }
    report["speedup_batch"] = (
        report["sequential"]["seconds"] / report["batch"]["seconds"]
    )
    report["speedup_swept"] = (
        report["sequential"]["seconds"] / report["batch_swept"]["seconds"]
    )
    report["swept_over_batch"] = (
        report["batch"]["seconds"] / report["batch_swept"]["seconds"]
    )
    report["swept_over_batch_floor"] = SWEPT_SPEEDUP_FLOOR
    return report


@pytest.mark.perf
def test_batched_engine_at_least_3x_faster():
    report = measure_engines()
    assert report["speedup_batch"] >= SPEEDUP_FLOOR, (
        f"batched engine speedup {report['speedup_batch']:.1f}x fell below "
        f"the {SPEEDUP_FLOOR:.0f}x floor (sequential "
        f"{report['sequential']['seconds']:.3f}s, batch "
        f"{report['batch']['seconds']:.3f}s on the PRM+shortcut workload)"
    )


@pytest.mark.perf
def test_swept_prefilter_speedup_floor():
    """Enforced perf guard: the swept-prefilter engine must beat the plain
    batched engine by :data:`SWEPT_SPEEDUP_FLOOR`.  The floor sits under
    the measured ratio with noise margin; the perf CI job stays
    non-blocking at the workflow level (``continue-on-error``)."""
    report = measure_engines()
    ratio = report["swept_over_batch"]
    assert ratio >= SWEPT_SPEEDUP_FLOOR, (
        f"swept prefilter at {ratio:.2f}x over the batched engine "
        f"(floor {SWEPT_SPEEDUP_FLOOR:.1f}x; batch "
        f"{report['batch']['seconds']:.3f}s, swept "
        f"{report['batch_swept']['seconds']:.3f}s)"
    )


@pytest.mark.perf
def test_engines_saw_identical_workloads():
    # A perf number over diverged workloads would be meaningless: every
    # engine must have issued the same phase stream and found the same path.
    robot, octree = _workload()
    runs = {
        name: _run_engine(robot, octree, kind, backend, engine_kwargs)
        for name, (kind, backend, engine_kwargs) in CONFIGS.items()
    }
    reference = runs["sequential"]
    for name, run in runs.items():
        assert run["phases"] == reference["phases"], name
        assert run["poses"] == reference["poses"], name
        if reference["path"] is None:
            assert run["path"] is None, name
        else:
            assert len(run["path"]) == len(reference["path"]), name
            for q_ref, q_run in zip(reference["path"], run["path"]):
                assert np.allclose(q_ref, q_run), name


def write_artifact(report: dict, path: str) -> None:
    """Emit the run as a BENCH artifact for the cross-PR trajectory."""
    from repro.harness.bench_artifact import make_bench_payload, save_bench

    cases = []
    for name in CONFIGS:
        entry = report[name]
        metrics = {
            "seconds": round(entry["seconds"], 6),
            "phases": entry["phases"],
            "poses": entry["poses"],
        }
        if entry["path_len"] is not None:
            metrics["path_len"] = entry["path_len"]
        if entry["prefilter"] is not None:
            counters = entry["prefilter"]
            metrics["prefilter_hit_rate"] = round(counters["hit_rate"], 6)
            metrics["motions_certified"] = counters["motions_certified"]
            metrics["motions_tested"] = counters["motions_tested"]
            metrics["poses_certified"] = counters["poses_certified"]
        cases.append({"name": name, "metrics": metrics})
    payload = make_bench_payload(
        bench="planner_engines",
        seed=SEED,
        cases=cases,
        summary={
            "speedup_batch": round(report["speedup_batch"], 3),
            "speedup_swept": round(report["speedup_swept"], 3),
            "swept_over_batch": round(report["swept_over_batch"], 3),
        },
    )
    save_bench(path, payload)


if __name__ == "__main__":
    import os

    report = measure_engines()
    print(
        f"workload: jaco2 PRM ({N_SAMPLES} nodes, k={K_NEIGHBORS}) + query "
        f"+ shortcut, benchmark scene, octree r=16"
    )
    for name in CONFIGS:
        entry = report[name]
        print(
            f"{name:>11}: {entry['seconds']:.3f} s"
            f"  ({entry['phases']} phases, {entry['poses']} poses"
            + (
                f", path len {entry['path_len']})"
                if entry["path_len"] is not None
                else ", no path)"
            )
        )
        if entry["prefilter"] is not None:
            counters = entry["prefilter"]
            print(
                f"{'':>11}  prefilter: {counters['motions_certified']}/"
                f"{counters['motions_tested']} motions certified "
                f"(hit rate {counters['hit_rate']:.1%}, "
                f"{counters['poses_certified']} poses skipped exact dispatch)"
            )
    print(
        f"batch speedup over sequential: {report['speedup_batch']:.1f}x "
        f"(floor {SPEEDUP_FLOOR:.0f}x)"
    )
    print(
        f"swept-prefilter engine: {report['speedup_swept']:.1f}x over "
        f"sequential, {report['swept_over_batch']:.2f}x over batch "
        f"(enforced floor {SWEPT_SPEEDUP_FLOOR:.1f}x)"
    )
    artifact = os.path.join(
        os.path.dirname(__file__), "BENCH_planner_engines.json"
    )
    write_artifact(report, artifact)
    print(f"wrote {artifact}")
