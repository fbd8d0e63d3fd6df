"""Robot-vs-environment collision checking.

A pose check evaluates forward kinematics, quantizes the link OBBs to the
16-bit datapath, and runs each OBB against the environment octree with early
exit on the first colliding link — exactly what one CECDU does for one pose.
A motion check discretizes the straight C-space segment between two poses
and checks the discrete poses (Section 2.2).
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.collision.cache import CollisionCache, footprint_of_obbs
from repro.collision.cascade import CascadeConfig, DEFAULT_CASCADE
from repro.collision.octree_cd import OBBOctreeCollider, TraversalTrace
from repro.collision.stats import CollisionStats
from repro.env.octree import Octree
from repro.geometry.fixed_point import DEFAULT_FORMAT, FixedPointFormat, quantize_obb
from repro.geometry.obb import OBB
from repro.robot.model import RobotModel

if TYPE_CHECKING:  # runtime import would be circular through repro.config
    from repro.config import ReproConfig

#: Default C-space discretization step (radians of joint-space distance).
DEFAULT_MOTION_STEP = 0.05


def interpolate_motion(q_start, q_end, step: float = DEFAULT_MOTION_STEP) -> np.ndarray:
    """Discrete poses along the straight C-space segment, endpoints included.

    The number of interior samples scales with the Euclidean joint-space
    distance so the inter-pose spacing never exceeds ``step``.
    """
    q_start = np.asarray(q_start, dtype=float)
    q_end = np.asarray(q_end, dtype=float)
    if q_start.shape != q_end.shape:
        raise ValueError("start and end configurations must have the same shape")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    distance = float(np.linalg.norm(q_end - q_start))
    n_segments = max(1, int(math.ceil(distance / step)))
    return np.linspace(q_start, q_end, n_segments + 1)


@dataclass
class PoseCheckResult:
    """Outcome of one pose check, with per-link traversal traces."""

    collision: bool
    link_traces: List[TraversalTrace] = field(default_factory=list)

    @property
    def links_checked(self) -> int:
        return len(self.link_traces)


@dataclass
class MotionCollisionResult:
    """Outcome of a sequential motion check with early exit."""

    collision: bool
    first_colliding_index: Optional[int]
    poses_checked: int
    total_poses: int


class _CachedPoseOutcome:
    """Batch-outcome facade assembled from cache hits plus fresh rows.

    Mirrors the :class:`~repro.collision.batch.BatchPoseOutcome` surface the
    stats-charging call sites use (``hits`` + ``record(stats, poses=...)``);
    ``record`` replays each selected row's stored per-pose delta instead of
    summing outcome arrays — same integer totals, by construction.
    """

    __slots__ = ("hits", "_deltas")

    def __init__(self, hits: np.ndarray, deltas: List[Optional[CollisionStats]]):
        self.hits = hits
        self._deltas = deltas

    def __len__(self) -> int:
        return len(self.hits)

    def record(self, stats: CollisionStats, poses=None) -> None:
        if poses is None:
            rows = range(len(self.hits))
        elif isinstance(poses, slice):
            rows = range(*poses.indices(len(self.hits)))
        else:
            rows = poses
        for row in rows:
            delta = self._deltas[int(row)]
            if delta is not None:
                stats.merge(delta)


class RobotEnvironmentChecker:
    """Collision checker binding a robot model to an environment octree."""

    def __init__(
        self,
        robot: RobotModel,
        octree: Octree,
        config: CascadeConfig = DEFAULT_CASCADE,
        fixed_point: Optional[FixedPointFormat] = DEFAULT_FORMAT,
        motion_step: float = DEFAULT_MOTION_STEP,
        stats: Optional[CollisionStats] = None,
        collect_stats: bool = True,
        backend: Optional[str] = None,
        fault_injector=None,
        cache: Optional[CollisionCache] = None,
    ):
        if backend is None:
            backend = "scalar"
        else:
            warnings.warn(
                "passing backend= as a string to RobotEnvironmentChecker is "
                "deprecated; build checkers with "
                "RobotEnvironmentChecker.from_config(robot, octree, ReproConfig"
                "(backend=...)) or through repro.api",
                DeprecationWarning,
                stacklevel=2,
            )
        if backend not in ("scalar", "batch"):
            raise ValueError(
                f"unknown backend {backend!r}; expected 'scalar' or 'batch'"
            )
        self.robot = robot
        self.octree = octree
        self.config = config
        self.collider = OBBOctreeCollider(octree, config)
        self.fixed_point = fixed_point
        if motion_step <= 0:
            raise ValueError(f"motion_step must be positive, got {motion_step}")
        self.motion_step = motion_step
        self.stats = stats if stats is not None else CollisionStats()
        # Planners that only need boolean verdicts can skip the per-test
        # operation accounting (it costs real time in the hot loop).
        self.collect_stats = collect_stats
        # "batch" routes pose/motion checks through the vectorized pipeline
        # (repro.collision.batch); verdicts and stats stay bit-identical.
        self.backend = backend
        self._batch_evaluator = None
        self._shared_scratch = None
        # Optional repro.resilience.faults.FaultInjector: when attached and
        # enabled with a bit-flip model, quantized link OBBs may have one
        # raw fixed-point bit flipped (an SEU in the 16-bit datapath).  The
        # hook costs one predicate when absent or disabled.
        self.fault_injector = fault_injector
        # Optional octree-versioned verdict cache (repro.collision.cache).
        # Bypassed whenever bit-flip injection is active — corrupted-OBB
        # verdicts are not a function of the pose alone.
        self.cache = cache
        if cache is not None:
            cache.attach(collect_stats, self.pose_footprint)

    @classmethod
    def from_config(
        cls,
        robot: RobotModel,
        octree: Octree,
        config: "ReproConfig",
        cascade: CascadeConfig = DEFAULT_CASCADE,
        fixed_point: Optional[FixedPointFormat] = DEFAULT_FORMAT,
        stats: Optional[CollisionStats] = None,
        fault_injector=None,
        cache: Optional[CollisionCache] = None,
        telemetry=None,
    ) -> "RobotEnvironmentChecker":
        """Build a checker from a :class:`repro.config.ReproConfig`.

        This is the non-deprecated construction path: backend, motion step,
        and stats collection come from the typed config, and a
        :class:`CollisionCache` is created from ``config.cache`` when
        enabled (unless an explicit ``cache`` instance is shared in).
        """
        if cache is None and config.cache.enabled:
            cache = CollisionCache(
                quantum=config.cache.quantum,
                max_entries=config.cache.max_entries,
                telemetry=telemetry,
            )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            return cls(
                robot,
                octree,
                cascade,
                fixed_point,
                motion_step=config.motion_step,
                stats=stats,
                collect_stats=config.collect_stats,
                backend=config.backend,
                fault_injector=fault_injector,
                cache=cache,
            )

    def _bit_flips_active(self) -> bool:
        """Whether the quantized-OBB corruption hook can fire."""
        injector = self.fault_injector
        return (
            injector is not None
            and injector.enabled
            and injector.models.bit_flip_rate > 0.0
            and self.fixed_point is not None
        )

    @property
    def shared_scratch(self):
        """The checker-owned :class:`~repro.collision.batch.SoAScratch`.

        One scratch instance is shared between the batch collision
        pipeline's FK/OBB intermediates and the planners' SoA node stores
        (:class:`~repro.planning.nodestore.NodeStore` query temporaries),
        so a full planning stack keeps a single set of warm buffers.  It
        survives :meth:`update_octree` (the batch evaluator is rebuilt
        around it), keeping the buffers warm across environment swaps.
        """
        if self._shared_scratch is None:
            from repro.collision.batch import SoAScratch

            self._shared_scratch = SoAScratch()
        return self._shared_scratch

    @property
    def batch_evaluator(self):
        """The lazily built vectorized pipeline behind ``backend="batch"``."""
        if self._batch_evaluator is None:
            from repro.collision.batch import BatchPoseEvaluator

            self._batch_evaluator = BatchPoseEvaluator(
                self.robot,
                self.octree,
                self.config,
                self.fixed_point,
                scratch=self.shared_scratch,
            )
        return self._batch_evaluator

    @contextmanager
    def divert_stats(self, stats: Optional[CollisionStats] = None):
        """Temporarily charge all work to a different ``CollisionStats``.

        Query engines use this when they must resolve ground truth beyond
        what the sequential query semantics would have executed (e.g.
        filling a phase's remaining poses before an inline SAS simulation):
        the extra work is real, but it must not distort the planner-visible
        operation counts.  Yields the substitute stats object.
        """
        if stats is None:
            stats = CollisionStats()
        previous = self.stats
        self.stats = stats
        try:
            yield stats
        finally:
            self.stats = previous

    def link_obbs(self, q) -> List[OBB]:
        """World-space (quantized) link OBBs for configuration ``q``."""
        obbs = self.robot.link_obbs(q)
        if self.fixed_point is not None:
            obbs = [quantize_obb(obb, self.fixed_point) for obb in obbs]
            injector = self.fault_injector
            if injector is not None and injector.enabled:
                obbs = [
                    injector.corrupt_obb(obb, self.fixed_point) for obb in obbs
                ]
        return obbs

    def pose_footprint(self, q):
        """AABB over the (quantized, uncorrupted) link OBBs' bounding
        spheres at ``q``.

        This bounds the query volume the octree traversal tests against, so
        the cache can prove an environment update cannot have changed a
        cached verdict.  Fault corruption is deliberately excluded — the
        cache is bypassed while bit flips are active.
        """
        obbs = self.robot.link_obbs(q)
        if self.fixed_point is not None:
            obbs = [quantize_obb(obb, self.fixed_point) for obb in obbs]
        return footprint_of_obbs(obbs)

    def _cache_active(self) -> bool:
        return self.cache is not None and not self._bit_flips_active()

    def check_pose(self, q) -> bool:
        """True when the robot collides with the environment at ``q``."""
        if self._cache_active():
            return self._check_pose_cached(q)
        if self.backend == "batch" and not self._bit_flips_active():
            return bool(self.check_poses(q)[0])
        self.stats.pose_checks += 1
        stats = self.stats if self.collect_stats else None
        for obb in self.link_obbs(q):
            if self.collider.collides(obb, stats=stats):
                return True
        return False

    def _check_pose_cached(self, q) -> bool:
        """One pose check through the verdict cache.

        A hit charges ``pose_checks`` and replays the stored per-pose stats
        delta; a miss evaluates fresh (scalar or batched, per backend),
        charges normally, and stores the verdict with its delta — so the
        recorded stats equal a cache-off run bit for bit.
        """
        cache = self.cache
        entry = cache.lookup(q)
        self.stats.pose_checks += 1
        if entry is not None:
            if self.collect_stats:
                self.stats.merge(entry.stats)
            return entry.verdict
        delta = CollisionStats()
        if self.backend == "batch":
            outcome = self.batch_evaluator.evaluate(
                np.asarray(q, dtype=float)[None, :]
            )
            verdict = bool(outcome.hits[0])
            if self.collect_stats:
                outcome.record(delta, poses=[0])
        else:
            verdict = False
            stats = delta if self.collect_stats else None
            for obb in self.link_obbs(q):
                if self.collider.collides(obb, stats=stats):
                    verdict = True
                    break
        if self.collect_stats:
            self.stats.merge(delta)
        cache.store(q, verdict, delta)
        return verdict

    def check_poses(self, qs) -> np.ndarray:
        """Boolean collision verdicts for an ``(N, dof)`` pose batch.

        With ``backend="batch"`` the whole batch is one vectorized dispatch
        through :class:`repro.collision.batch.BatchPoseEvaluator`; the scalar
        backend falls back to a pose-at-a-time loop.  Either way the verdicts
        and the recorded stats equal N scalar ``check_pose`` calls.
        """
        qs = np.asarray(qs, dtype=float)
        if qs.ndim == 1:
            qs = qs[None, :]
        if self.backend != "batch" or self._bit_flips_active():
            # Bit-flip injection lives in the scalar quantized-OBB path;
            # the vectorized pipeline would bypass it.  The scalar loop is
            # verdict- and stats-identical by the batch backend's contract,
            # so falling back only changes wall clock (faults are active —
            # bit-identity with the healthy run is already off the table).
            return np.fromiter(
                (self.check_pose(q) for q in qs), dtype=bool, count=len(qs)
            )
        self.stats.pose_checks += len(qs)
        outcome = self.evaluate_poses(qs, need_work=self.collect_stats)
        if self.collect_stats:
            outcome.record(self.stats)
        return outcome.hits

    def evaluate_poses(self, qs, need_work: bool = True):
        """Batch-evaluate poses through the cache (when one is attached).

        The cache-aware twin of ``self.batch_evaluator.evaluate``: cached
        rows skip evaluation, fresh rows go through the vectorized pipeline
        in one dispatch and are inserted.  Returns an outcome with the same
        ``hits``/``record(stats, poses=...)`` surface as
        :class:`~repro.collision.batch.BatchPoseOutcome`, where ``record``
        replays each selected row's per-pose delta — identical counts to a
        cache-off evaluation.  Does not touch ``pose_checks`` (caller-owned).

        ``need_work=False`` runs the verdict-only batch pipeline (identical
        hits, zeroed work) — callers pass their own ``collect_stats`` so the
        flag never drops counters anyone would have read.  With a cache
        attached this matches the existing contract: stats-off runs already
        store empty per-pose deltas.
        """
        qs = np.asarray(qs, dtype=float)
        if qs.ndim == 1:
            qs = qs[None, :]
        if not self._cache_active():
            return self.batch_evaluator.evaluate(qs, need_work=need_work)
        cache = self.cache
        n = len(qs)
        hits = np.zeros(n, dtype=bool)
        deltas: List[Optional[CollisionStats]] = [None] * n
        fresh: List[int] = []
        for i, q in enumerate(qs):
            entry = cache.lookup(q)
            if entry is None:
                fresh.append(i)
            else:
                hits[i] = entry.verdict
                deltas[i] = entry.stats
        if fresh:
            outcome = self.batch_evaluator.evaluate(qs[fresh], need_work=need_work)
            hits[fresh] = outcome.hits
            for row, i in enumerate(fresh):
                delta = CollisionStats()
                if self.collect_stats:
                    outcome.record(delta, poses=[row])
                deltas[i] = delta
                cache.store(qs[i], bool(outcome.hits[row]), delta)
        return _CachedPoseOutcome(hits, deltas)

    def check_pose_detailed(self, q) -> PoseCheckResult:
        """Pose check that keeps per-link traversal traces (for timing sims).

        Early exit: links after the first colliding one are not checked,
        matching the Result Collector's kill signal (Section 5.2).
        """
        self.stats.pose_checks += 1
        traces: List[TraversalTrace] = []
        collision = False
        for obb in self.link_obbs(q):
            trace = self.collider.collide(obb, stats=self.stats)
            traces.append(trace)
            if trace.hit:
                collision = True
                break
        return PoseCheckResult(collision=collision, link_traces=traces)

    def motion_poses(self, q_start, q_end) -> np.ndarray:
        return interpolate_motion(q_start, q_end, self.motion_step)

    def check_motion(self, q_start, q_end) -> MotionCollisionResult:
        """Sequential motion check: stop at the first colliding pose.

        The batch backend evaluates every discrete pose in one vectorized
        call, then charges only the pose prefix the scalar early exit would
        have executed, so the recorded stats stay identical.
        """
        self.stats.motion_checks += 1
        poses = self.motion_poses(q_start, q_end)
        if self.backend == "batch" and not self._bit_flips_active():
            outcome = self.evaluate_poses(poses)
            collision = bool(outcome.hits.any())
            first = int(np.argmax(outcome.hits)) if collision else None
            checked = first + 1 if collision else len(poses)
            self.stats.pose_checks += checked
            if self.collect_stats:
                outcome.record(self.stats, poses=slice(0, checked))
            return MotionCollisionResult(
                collision=collision,
                first_colliding_index=first,
                poses_checked=checked,
                total_poses=len(poses),
            )
        for index, pose in enumerate(poses):
            if self.check_pose(pose):
                return MotionCollisionResult(
                    collision=True,
                    first_colliding_index=index,
                    poses_checked=index + 1,
                    total_poses=len(poses),
                )
        return MotionCollisionResult(
            collision=False,
            first_colliding_index=None,
            poses_checked=len(poses),
            total_poses=len(poses),
        )

    def motion_is_free(self, q_start, q_end) -> bool:
        return not self.check_motion(q_start, q_end).collision

    def update_octree(self, octree: Octree) -> int:
        """Swap in an updated environment octree (same bounds).

        Rebuilds the scalar collider and drops the lazily built batch
        pipeline; an attached cache is selectively invalidated from the
        changed-region boxes (:func:`repro.env.diff.octree_delta_regions`)
        so entries the update provably cannot affect survive.  Returns the
        number of cache entries dropped (0 without a cache).
        """
        from repro.env.diff import octree_delta_regions

        regions = octree_delta_regions(self.octree, octree)
        self.octree = octree
        self.collider = OBBOctreeCollider(octree, self.config)
        self._batch_evaluator = None
        if self.cache is not None:
            return self.cache.invalidate_regions(regions)
        return 0

    def sample_free_configuration(
        self, rng: np.random.Generator, max_attempts: int = 200
    ) -> np.ndarray:
        """A random collision-free configuration within joint limits."""
        for _ in range(max_attempts):
            q = self.robot.random_configuration(rng)
            if not self.check_pose(q):
                return q
        raise RuntimeError(
            f"no collision-free configuration found in {max_attempts} samples"
        )
