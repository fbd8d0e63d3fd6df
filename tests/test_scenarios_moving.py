"""Moving-obstacle scripts: the cache is invisible across every epoch.

Satellite of the scenario corpus: each scripted octree-update sequence
(sweep / orbit / toggle) is driven through
:meth:`RobotEnvironmentChecker.update_octree`, and at every epoch the
cache-enabled checker must produce verdicts and
:class:`CollisionStats` tallies bit-identical to a cache-disabled twin —
under both the sequential and the batched query engine.  This extends
the static bit-identity contract of ``tests/test_collision_cache.py``
to the dynamic regime the scripts were built to stress (the ``toggle``
script flips the same octants occupied/free repeatedly, the selective
invalidation worst case).
"""

import numpy as np
import pytest

from repro.collision.checker import RobotEnvironmentChecker
from repro.config import CacheConfig, EngineConfig, ReproConfig
from repro.planning.recorder import CDTraceRecorder
from repro.planning.engine import make_engine
from repro.scenarios import ScenarioSpec, build_scenario
from repro.scenarios.generators import MOVING_SCRIPTS

pytestmark = pytest.mark.scenarios


def _instance(script: str):
    spec = ScenarioSpec(
        f"moving-{script}",
        "moving_obstacles",
        seed=31,
        params={
            "robot": "planar3",
            "n_queries": 1,
            "octree_resolution": 8,
            "script": script,
            "n_epochs": 4,
        },
    )
    return build_scenario(spec)


def _drive_epochs(instance, engine_kind: str, cache_enabled: bool):
    """Run one fixed probe mix against every scripted epoch.

    Returns per-epoch ``(verdicts, stats)`` snapshots.  The probe mix
    exercises all three planner-facing query kinds through the recorder,
    so both engines answer the identical phase stream.  Every epoch probes
    the same poses, so cache entries that survive an update's selective
    invalidation are replayed — and must charge exactly the stats a fresh
    evaluation against the new octree would.
    """
    backend = "batch" if engine_kind == "batch" else "scalar"
    config = ReproConfig(
        backend=backend,
        engine=EngineConfig(kind=engine_kind),
        cache=CacheConfig(enabled=cache_enabled),
    )
    checker = RobotEnvironmentChecker.from_config(
        instance.robot, instance.epoch_octrees[0], config
    )
    recorder = CDTraceRecorder(
        checker, engine=make_engine(config.engine, checker)
    )
    rng = np.random.default_rng(500)
    poses = [instance.robot.random_configuration(rng) for _ in range(6)]
    epochs = []
    for epoch in range(instance.n_epochs):
        if epoch:
            checker.update_octree(instance.epoch_octrees[epoch])
        verdicts = []
        for a, b in zip(poses[:-1], poses[1:]):
            verdicts.append(recorder.steer(a, b))
        verdicts.append(recorder.feasibility(poses))
        verdicts.append(recorder.connectivity(poses[0], poses[1:]))
        verdicts.append(
            tuple(recorder.complete(list(zip(poses[:-1], poses[1:]))))
        )
        # Warm lap: identical queries again, so a cache (if attached)
        # actually serves hits within the epoch.
        for a, b in zip(poses[:-1], poses[1:]):
            verdicts.append(recorder.steer(a, b))
        epochs.append((verdicts, checker.stats.as_dict()))
    return epochs, checker


@pytest.mark.parametrize("script", MOVING_SCRIPTS)
@pytest.mark.parametrize("engine_kind", ["sequential", "batch"])
def test_cache_invisible_across_scripted_epochs(script, engine_kind):
    instance = _instance(script)
    assert instance.is_dynamic and instance.n_epochs == 4
    plain, _ = _drive_epochs(instance, engine_kind, cache_enabled=False)
    cached, checker = _drive_epochs(instance, engine_kind, cache_enabled=True)
    for epoch, (off, on) in enumerate(zip(plain, cached)):
        assert off[0] == on[0], f"verdicts diverged at epoch {epoch}"
        assert off[1] == on[1], f"stats diverged at epoch {epoch}"
    assert checker.cache.hits > 0  # the warm laps actually hit


@pytest.mark.parametrize("script", MOVING_SCRIPTS)
def test_engines_agree_across_scripted_epochs(script):
    # The engine contract holds in the dynamic regime too: sequential and
    # batched answer every epoch's probe mix identically (cache on).
    instance = _instance(script)
    seq, _ = _drive_epochs(instance, "sequential", cache_enabled=True)
    bat, _ = _drive_epochs(instance, "batch", cache_enabled=True)
    assert seq == bat


def test_toggle_script_actually_toggles():
    # The toggle script alternates the dynamic box: consecutive epochs
    # differ, but epochs two apart are identical octrees — so the second
    # return to a state must drop nothing that the first didn't.
    instance = _instance("toggle")
    fingerprints = [o.to_dict() for o in instance.epoch_octrees]
    assert fingerprints[0] != fingerprints[1]
    assert fingerprints[0] == fingerprints[2]
    assert fingerprints[1] == fingerprints[3]


def test_update_octree_reports_drops_only_when_scene_changes():
    instance = _instance("toggle")
    config = ReproConfig(cache=CacheConfig(enabled=True))
    checker = RobotEnvironmentChecker.from_config(
        instance.robot, instance.epoch_octrees[0], config
    )
    rng = np.random.default_rng(0)
    for _ in range(8):
        checker.check_pose(instance.robot.random_configuration(rng))
    # Re-applying the identical octree drops nothing.
    assert checker.update_octree(instance.epoch_octrees[2]) == 0
    # Flipping to the toggled epoch may drop entries; never negative.
    assert checker.update_octree(instance.epoch_octrees[1]) >= 0
