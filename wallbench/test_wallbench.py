"""Self-tests of the benchmark: the gate rejects bad responses, names match.

Run from the repository root with ``python -m pytest wallbench -q``.
"""

import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import api  # noqa: E402
from repro.config import ReproConfig  # noqa: E402
from repro.scenarios.dsl import build_scenario, sample_queries  # noqa: E402
from repro.scenarios.suite import default_corpus  # noqa: E402
from repro.serving import PlanRequest  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def case():
    """A solved request on a small planar scene, its reference and a checker."""
    (spec,) = [s for s in default_corpus("smoke") if s.name == "shelf_pick"]
    inst = build_scenario(spec)
    rng = np.random.default_rng(0)
    ((q_start, q_goal),) = sample_queries(inst.robot, inst.octree, 1, rng)
    out = api.plan(inst.robot, inst.octree, q_start, q_goal, workloads.BATCH_REFERENCE)
    assert out.success
    reference = gate.Outcome("completed", out.path, out.stats.as_dict(), out.num_phases)
    paths = gate.PathChecker(inst.robot, inst.octree)
    while True:
        q_bad = inst.robot.random_configuration(rng)
        if paths.checker.check_pose(q_bad):
            break
    return q_start, q_goal, reference, paths, q_bad


def verdict(case, outcome):
    q_start, q_goal, reference, paths, _ = case
    return gate.check(q_start, q_goal, outcome, reference, paths.is_free)


def test_reference_passes(case):
    assert verdict(case, case[2]).ok


def test_waypoint_moved_into_obstacle_fails(case):
    reference, q_bad = case[2], case[4]
    path = list(reference.path)
    if len(path) > 2:
        path[1] = q_bad
    else:
        path.insert(1, q_bad)
    result = verdict(case, replace(reference, path=path))
    assert not result.ok and result.wrong_answer


def test_path_not_starting_at_q_start_fails(case):
    reference = case[2]
    path = [reference.path[0] + 1e-3] + list(reference.path[1:])
    result = verdict(case, replace(reference, path=path))
    assert not result.ok and result.wrong_answer


@pytest.mark.parametrize("counter", ["multiplies", "node_visits", "pose_checks"])
def test_stats_counter_off_by_one_fails(case, counter):
    reference = case[2]
    stats = dict(reference.stats)
    stats[counter] += 1
    result = verdict(case, replace(reference, stats=stats))
    assert not result.ok and not result.wrong_answer


def test_shed_status_fails(case):
    result = verdict(case, gate.Outcome("shed", None, {}, 0))
    assert not result.ok


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_restores_the_program():
    original = api.plan
    tracer = Tracer()
    with tracer.installed():
        assert api.plan is not original
    assert api.plan is original


def test_public_api_has_no_deprecated_calls(case):
    q_start, q_goal, _, paths, _ = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        service = api.make_service(
            paths.checker.robot, paths.checker.octree, ReproConfig.for_service()
        )
        service.submit(
            PlanRequest(
                "r", q_start, q_goal, planner_factory=workloads.BOUNDED_RRT_CONNECT
            )
        )
        assert service.run().responses["r"].status == "completed"
        api.plan(
            paths.checker.robot,
            paths.checker.octree,
            q_start,
            q_goal,
            workloads.SWEPT,
            planner_factory=workloads.SMALL_PRM,
        )
