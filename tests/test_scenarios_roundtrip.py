"""Scenario DSL round-trips: bit-identical regeneration, loud rejection.

The corpus contract: a :class:`ScenarioSpec` fully determines its
instance.  ``save_scenario`` -> ``load_scenario`` -> ``build_scenario``
must reproduce the octree, query set, and first-run planner verdicts
bit-identically; malformed payloads (unknown keys, unknown
families/params, out-of-band values, bad enums) must be rejected *by
name*, listing the valid choices.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import plan
from repro.config import ReproConfig
from repro.harness.serialization import load_scenario, save_scenario
from repro.scenarios import (
    ScenarioSpec,
    build_scenario,
    family_names,
)

pytestmark = pytest.mark.scenarios

#: Cheap overrides used everywhere: planar arms, one query, small octree.
_FAST = {"robot": "planar3", "n_queries": 1, "octree_resolution": 8}


def _fast_params(family: str) -> dict:
    if family == "multi_arm":
        return {
            "arms": "planar3+planar3",
            "n_queries": 1,
            "octree_resolution": 8,
        }
    if family == "moving_obstacles":
        return {**_FAST, "n_epochs": 3}
    return dict(_FAST)


# ----------------------------------------------------------------------
# Property: spec -> dict -> spec -> instance is bit-identical.

#: One family-specific knob to vary per family, with a safe value band.
_VARIED_KNOB = {
    "random_cuboids": ("n_obstacles", st.integers(1, 6)),
    "narrow_passage": ("gap_fraction", st.floats(0.1, 0.4)),
    "cluttered_shelf": ("n_shelves", st.integers(1, 4)),
    "moving_obstacles": ("script", st.sampled_from(("sweep", "orbit", "toggle"))),
    "multi_arm": ("separation_fraction", st.floats(0.3, 0.7)),
}


@st.composite
def specs(draw):
    family = draw(st.sampled_from(sorted(family_names())))
    params = _fast_params(family)
    knob, strategy = _VARIED_KNOB[family]
    params[knob] = draw(strategy)
    seed = draw(st.integers(0, 2**16))
    return ScenarioSpec(f"prop-{family}", family, seed=seed, params=params)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=specs())
def test_dict_roundtrip_regenerates_bit_identically(spec):
    clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec
    assert build_scenario(spec).fingerprint() == build_scenario(clone).fingerprint()


def test_multi_arm_clearance_accounts_for_voxel_inflation():
    """Regression (hypothesis seed 436): at octree_resolution=8 the voxel
    rasterizer inflates an obstacle by up to a whole 0.3-unit cell, and the
    old exact-AABB mount-clearance test let an obstacle through whose
    *voxelized* form buried the second arm's mount — leaving that robot
    with zero free configurations and the rest-pose sampler failing after
    200 draws.  The clearance test now measures against the grid-snapped
    box, so this spec builds."""
    spec = ScenarioSpec(
        "prop-multi_arm",
        "multi_arm",
        seed=436,
        params={
            "arms": "planar3+planar3",
            "n_queries": 1,
            "octree_resolution": 8,
            "separation_fraction": 0.5,
        },
    )
    instance = build_scenario(spec)
    assert len(instance.rest_configurations) == 2
    assert build_scenario(spec).fingerprint() == instance.fingerprint()


def test_random_cuboids_clearance_accounts_for_voxel_inflation():
    """Regression (hypothesis seed 65536): at octree_resolution=8 over the
    1.8-unit extent a cell is 0.225 units, and the old exact-AABB mount
    clearance admitted an obstacle whose closest point sat 0.001 past the
    0.216 keep-out ball — its voxelized form reached down to z=0 over the
    mount, leaving planar3 with zero free configurations and the query
    sampler failing after 200 draws.  random_cuboids (and the
    moving_obstacles backdrop) now measure clearance against the
    grid-snapped box, so this spec builds."""
    spec = ScenarioSpec(
        "prop-random_cuboids",
        "random_cuboids",
        seed=65536,
        params={
            "robot": "planar3",
            "n_queries": 1,
            "octree_resolution": 8,
            "n_obstacles": 4,
        },
    )
    instance = build_scenario(spec)
    assert len(instance.queries) == 1
    assert build_scenario(spec).fingerprint() == instance.fingerprint()


@pytest.mark.parametrize("family", sorted(family_names()))
def test_file_roundtrip_per_family(family, tmp_path):
    spec = ScenarioSpec(f"file-{family}", family, seed=9, params=_fast_params(family))
    path = os.path.join(str(tmp_path), "scenario.json")
    save_scenario(path, spec)
    loaded = load_scenario(path)
    assert loaded == spec
    assert build_scenario(loaded).fingerprint() == build_scenario(spec).fingerprint()


def test_first_run_planner_verdicts_reproduce(tmp_path):
    # The full acceptance loop: persist, reload, regenerate, and plan —
    # the planner's first-run verdict and path must match the original's.
    spec = ScenarioSpec(
        "verdict", "narrow_passage", seed=21,
        params={**_FAST, "gap_fraction": 0.3},
    )
    path = os.path.join(str(tmp_path), "scenario.json")
    save_scenario(path, spec)
    first = build_scenario(spec)
    second = build_scenario(load_scenario(path))

    config = ReproConfig(planner="rrt_connect")
    for (qs1, qg1), (qs2, qg2) in zip(first.queries, second.queries):
        a = plan(first.robot, first.octree, qs1, qg1, config, seed=3)
        b = plan(second.robot, second.octree, qs2, qg2, config, seed=3)
        assert a.success == b.success
        assert a.stats.as_dict() == b.stats.as_dict()
        if a.success:
            assert len(a.path) == len(b.path)
            for qa, qb in zip(a.path, b.path):
                assert np.array_equal(qa, qb)


# ----------------------------------------------------------------------
# Rejection: every malformed payload fails loudly, naming the offender.


def test_unknown_family_rejected_by_name():
    with pytest.raises(ValueError, match="no_such_family"):
        ScenarioSpec("x", "no_such_family")


def test_unknown_param_rejected_by_name():
    with pytest.raises(ValueError, match="bogus_knob"):
        ScenarioSpec("x", "random_cuboids", params={"bogus_knob": 3})


def test_bad_enum_rejected_with_choices():
    with pytest.raises(ValueError, match="sweep"):
        ScenarioSpec(
            "x", "moving_obstacles", params={"script": "teleport"}
        )


def test_out_of_band_value_rejected_by_name():
    with pytest.raises(ValueError, match="gap_fraction"):
        ScenarioSpec("x", "narrow_passage", params={"gap_fraction": 0.9})


def test_unknown_top_level_key_rejected():
    data = ScenarioSpec("x", "random_cuboids").to_dict()
    data["timestamp"] = "2023-01-01"
    with pytest.raises(ValueError, match="timestamp"):
        ScenarioSpec.from_dict(data)


def test_wrong_schema_version_rejected():
    data = ScenarioSpec("x", "random_cuboids").to_dict()
    data["schema_version"] = 99
    with pytest.raises(ValueError, match="99"):
        ScenarioSpec.from_dict(data)


def test_missing_required_keys_rejected():
    with pytest.raises(ValueError, match="family"):
        ScenarioSpec.from_dict({"name": "x"})


def test_scenario_file_version_gate(tmp_path):
    path = os.path.join(str(tmp_path), "bad.json")
    with open(path, "w") as handle:
        json.dump({"schema": 99, "kind": "scenario", "payload": {}}, handle)
    with pytest.raises(ValueError, match="99"):
        load_scenario(path)


def test_save_scenario_rejects_non_spec(tmp_path):
    with pytest.raises(TypeError, match="dict"):
        save_scenario(os.path.join(str(tmp_path), "x.json"), {"name": "x"})
