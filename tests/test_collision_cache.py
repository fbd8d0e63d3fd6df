"""Octree-versioned collision cache: bit-identity and invalidation safety.

The cache's contract is *invisibility*: with the cache attached, every
verdict and every :class:`CollisionStats` tally is bit-identical to the
same query sequence with the cache off — on cold lookups (miss -> fresh
evaluation, delta stored) and on warm ones (hit -> stored delta replayed).
Environment updates must never let a stale verdict survive: entries whose
robot footprint overlaps a changed octree region are dropped, and the
differential against a fresh checker on the new octree pins it.
"""

import numpy as np
import pytest

from repro.accel.telemetry import MetricsRegistry
from repro.collision.cache import DEFAULT_QUANTUM, CollisionCache, footprint_of_obbs
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import CacheConfig, ReproConfig
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.geometry.aabb import AABB
from repro.geometry.fixed_point import DEFAULT_FORMAT
from repro.robot import presets
from repro.robot.presets import planar_arm


@pytest.fixture(scope="module")
def world():
    scene = random_scene(seed=11)
    octree = Octree.from_scene(scene, resolution=16)
    return scene, octree, planar_arm()


def _checker(robot, octree, backend, cached, **cache_kwargs):
    config = ReproConfig(
        backend=backend,
        cache=CacheConfig(enabled=cached, **cache_kwargs),
    )
    return RobotEnvironmentChecker.from_config(robot, octree, config)


def _probe(cache, q):
    """A one-row block lookup: the cached verdict, or None on a miss."""
    result = cache.lookup(np.asarray(q)[None, :])
    return bool(result.verdicts[0]) if result.found[0] else None


def _drive(checker, robot, seed=5, n=12):
    """A fixed op mix (poses, batches, motions) with repeated queries."""
    rng = np.random.default_rng(seed)
    poses = [robot.random_configuration(rng) for _ in range(n)]
    verdicts = []
    for q in poses:
        verdicts.append(bool(checker.check_pose(q)))
    # Re-check everything (cache-warm on the second lap).
    for q in poses:
        verdicts.append(bool(checker.check_pose(q)))
    verdicts.extend(bool(v) for v in checker.check_poses(np.stack(poses)))
    for a, b in zip(poses[:-1:2], poses[1::2]):
        res = checker.check_motion(a, b)
        verdicts.append(
            (res.collision, res.first_colliding_index, res.poses_checked, res.total_poses)
        )
    return verdicts


class TestCacheBitIdentity:
    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    def test_cache_on_equals_cache_off(self, world, backend):
        _, octree, robot = world
        plain = _checker(robot, octree, backend, cached=False)
        cached = _checker(robot, octree, backend, cached=True)
        assert _drive(plain, robot) == _drive(cached, robot)
        assert plain.stats.as_dict() == cached.stats.as_dict()
        assert cached.cache.hits > 0  # the warm lap actually hit

    def test_scalar_and_batch_cached_agree(self, world):
        _, octree, robot = world
        scalar = _checker(robot, octree, "scalar", cached=True)
        batch = _checker(robot, octree, "batch", cached=True)
        assert _drive(scalar, robot) == _drive(batch, robot)
        assert scalar.stats.as_dict() == batch.stats.as_dict()

    def test_counters_and_telemetry_mirror(self, world):
        _, octree, robot = world
        telemetry = MetricsRegistry()
        cache = CollisionCache(quantum=DEFAULT_QUANTUM, telemetry=telemetry)
        config = ReproConfig(backend="batch")
        checker = RobotEnvironmentChecker.from_config(
            robot, octree, config, cache=cache
        )
        _drive(checker, robot)
        counters = cache.counters()
        assert counters["hits"] == cache.hits > 0
        assert counters["misses"] == cache.misses > 0
        assert telemetry.counter_value("cache.hits") == cache.hits
        assert telemetry.counter_value("cache.misses") == cache.misses
        assert 0.0 < cache.hit_rate() < 1.0


class TestInvalidation:
    def test_update_never_serves_stale(self, world):
        scene, octree, robot = world
        cached = _checker(robot, octree, "batch", cached=True)
        _drive(cached, robot)  # populate the cache on the old octree

        # Drop a new obstacle right through the arm's workspace.
        scene2 = random_scene(seed=11)
        scene2.add_obstacle(
            AABB.from_min_max([0.1, -0.3, 0.0], [0.5, 0.3, 0.3])
        )
        octree2 = Octree.from_scene(scene2, resolution=16)
        dropped = cached.update_octree(octree2)
        assert dropped >= 0

        fresh = _checker(robot, octree2, "batch", cached=False)
        cached.stats.reset()
        assert _drive(cached, robot) == _drive(fresh, robot)
        assert cached.stats.as_dict() == fresh.stats.as_dict()

    def test_far_update_preserves_entries(self, world):
        scene, octree, robot = world
        cached = _checker(robot, octree, "batch", cached=True)
        rng = np.random.default_rng(3)
        poses = [robot.random_configuration(rng) for _ in range(8)]
        for q in poses:
            cached.check_pose(q)
        populated = len(cached.cache)

        # An obstacle high above the planar arm's z=0 plane: no cached
        # footprint overlaps it, so every verdict survives the epoch bump.
        scene2 = random_scene(seed=11)
        scene2.add_obstacle(
            AABB.from_min_max([0.4, 0.4, 0.5], [0.7, 0.7, 0.8])
        )
        octree2 = Octree.from_scene(scene2, resolution=16)
        dropped = cached.update_octree(octree2)
        assert dropped == 0
        assert len(cached.cache) == populated

        hits_before = cached.cache.hits
        for q in poses:
            cached.check_pose(q)
        assert cached.cache.hits == hits_before + len(poses)

    def test_identical_octree_keeps_everything(self, world):
        scene, octree, robot = world
        cached = _checker(robot, octree, "batch", cached=True)
        rng = np.random.default_rng(4)
        for _ in range(5):
            cached.check_pose(robot.random_configuration(rng))
        octree_same = Octree.from_scene(scene, resolution=16)
        populated = len(cached.cache)
        assert cached.update_octree(octree_same) == 0
        # Entries were re-stamped to the new epoch, not dropped.
        assert cached.cache.epoch_advances == 1
        assert len(cached.cache) == populated
        assert cached.cache.invalidated == 0


class TestCacheMechanics:
    def test_quantization_shares_verdicts(self, world):
        _, octree, robot = world
        coarse = _checker(robot, octree, "scalar", cached=True, quantum=0.5)
        q = np.zeros(robot.dof)
        first = coarse.check_pose(q)
        second = coarse.check_pose(q + 0.2)  # rounds to the same key
        assert first == second
        assert coarse.cache.hits == 1 and coarse.cache.misses == 1

    def test_fifo_eviction(self):
        cache = CollisionCache(quantum=1e-9, max_entries=2)
        cache.attach(False, None)
        qs = [np.array([float(i)]) for i in range(3)]
        for q in qs:
            assert _probe(cache, q) is None
            cache.store(q[None, :], [False])
        assert len(cache) == 2
        assert _probe(cache, qs[0]) is None  # evicted first-in
        assert _probe(cache, qs[2]) is not None

    def test_overwrite_does_not_evict(self):
        """Re-storing an existing key is not an insert: at capacity, an
        overwrite must not drop the FIFO-oldest live entry (the old bug
        shrank effective capacity by one per overwrite)."""
        cache = CollisionCache(quantum=1e-9, max_entries=2)
        cache.attach(False, None)
        qs = [np.array([float(i)]) for i in range(2)]
        cache.store(np.stack(qs), [False, False])
        assert len(cache) == 2
        for _ in range(5):  # repeated same-key stores at capacity
            cache.store(qs[1][None, :], [True])
        assert len(cache) == 2
        assert _probe(cache, qs[0]) is not None  # survived every overwrite
        assert _probe(cache, qs[1]) is True

    def test_overwrite_keeps_fifo_order(self):
        """An overwrite keeps the key's original insertion slot, so the
        next genuine insert at capacity still evicts the true oldest."""
        cache = CollisionCache(quantum=1e-9, max_entries=2)
        cache.attach(False, None)
        q0, q1, q2 = (np.array([float(i)]) for i in range(3))
        # One block, applied in row order: q0's overwrite is not an insert.
        cache.store(np.stack([q0, q1, q0, q2]), [False, False, True, False])
        assert _probe(cache, q0) is None
        assert _probe(cache, q1) is not None
        assert _probe(cache, q2) is not None

    def test_attach_mode_mismatch_rejected(self):
        cache = CollisionCache(quantum=1e-9)
        cache.attach(True, None)
        cache.attach(True, None)  # idempotent re-attach is fine
        with pytest.raises(ValueError):
            cache.attach(False, None)

    def test_advance_epoch_clears(self):
        cache = CollisionCache(quantum=1e-9)
        cache.attach(False, None)
        cache.store(np.array([1.0]), [True])
        cache.advance_epoch()
        assert len(cache) == 0
        assert _probe(cache, np.array([1.0])) is None


class TestFootprintExactness:
    """Block footprints (one batched FK/OBB pass, per-link radii) equal the
    per-pose :func:`footprint_of_obbs` reference bit for bit, and the
    array overlap test keeps exactly the per-entry survivors."""

    @pytest.mark.parametrize("preset", ["jaco2", "baxter_arm", "planar_arm"])
    @pytest.mark.parametrize(
        "fixed_point", [DEFAULT_FORMAT, None], ids=["fixed", "float"]
    )
    def test_block_footprints_equal_reference(self, world, preset, fixed_point):
        _, octree, _ = world
        robot = getattr(presets, preset)()
        checker = RobotEnvironmentChecker(robot, octree, fixed_point=fixed_point)
        rng = np.random.default_rng(7)
        qs = np.stack([robot.random_configuration(rng) for _ in range(40)])
        center, half = checker.pose_footprints(qs)
        for i, q in enumerate(qs):
            reference = footprint_of_obbs(checker.link_obbs(q))
            assert center[i].tobytes() == reference.center.tobytes()
            assert half[i].tobytes() == reference.half_extents.tobytes()

    def test_survivors_equal_per_entry_test(self, world):
        _, octree, robot = world
        checker = _checker(robot, octree, "batch", cached=True)
        rng = np.random.default_rng(8)
        qs = np.stack([robot.random_configuration(rng) for _ in range(30)])
        checker.check_poses(qs)
        footprints = [footprint_of_obbs(checker.link_obbs(q)) for q in qs]
        # Boxes that exactly touch the outermost footprint faces (closed
        # boxes overlap) or stop one ulp short of one, plus random ones.
        lo = np.array([fp.minimum for fp in footprints])
        hi = np.array([fp.maximum for fp in footprints])
        x_face = hi[:, 0].max()
        y_face = hi[:, 1].max()
        y_short = np.nextafter(lo[:, 1].min(), -np.inf)
        regions = [
            AABB.from_min_max([x_face, -2.0, -2.0], [x_face + 0.01, 2.0, 2.0]),
            AABB.from_min_max([-2.0, y_face, -2.0], [2.0, y_face + 0.01, 2.0]),
            AABB.from_min_max([-2.0, y_short - 0.01, -2.0], [2.0, y_short, 2.0]),
        ]
        for _ in range(3):
            corner = rng.uniform(-1.0, 1.0, 3)
            regions.append(AABB.from_min_max(corner, corner + 0.01))
        expected = [
            q
            for q, fp in zip(qs, footprints)
            if not any(fp.overlaps(region) for region in regions)
        ]
        assert 0 < len(expected) < len(qs)
        dropped = checker.cache.invalidate_regions(regions)
        assert dropped == len(qs) - len(expected)
        survivors = checker.cache.export_entries().poses
        assert survivors.tobytes() == np.stack(expected).tobytes()


class TestRuntimeCacheEquivalence:
    def test_realtime_loop_unchanged_by_cache(self):
        """The closed loop with a persistent cache is bit-identical."""
        from repro.accel.cecdu import CECDUConfig
        from repro.accel.config import MPAccelConfig
        from repro.accel.runtime import RobotRuntime
        from repro.env.scene import Scene

        def scene():
            s = Scene(extent=4.0)
            s.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
            return s

        def update(s, tick, rng_):
            if tick == 2:
                s.add_obstacle(
                    AABB.from_min_max([-0.9, -0.2, 0.0], [-0.7, 0.2, 0.2])
                )
                return True
            return False

        def run(cache_enabled):
            runtime = RobotRuntime(
                robot=planar_arm(2),
                scene=scene(),
                config=MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4)),
                scene_update=update,
                repro=ReproConfig(
                    backend="batch",
                    octree_resolution=32,
                    cache=CacheConfig(enabled=cache_enabled),
                ),
            )
            report = runtime.run(
                np.array([np.pi * 0.9, 0.0]),
                np.array([-np.pi * 0.9, 0.0]),
                n_ticks=3,
                rng=np.random.default_rng(0),
            )
            return runtime, report

        runtime_off, off = run(False)
        runtime_on, on = run(True)
        assert [t.phases for t in off.ticks] == [t.phases for t in on.ticks]
        assert [t.poses_checked for t in off.ticks] == [
            t.poses_checked for t in on.ticks
        ]
        assert len(off.final_path) == len(on.final_path)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(off.final_path, on.final_path)
        )
        assert runtime_off._cache is None
        assert runtime_on._cache is not None
