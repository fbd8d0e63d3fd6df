"""The sharded planning fleet: N services behind one deterministic router.

:class:`PlanningFleet` scales :class:`~repro.serving.service.
PlanningService` past the single-event-loop ceiling by running N shards —
each a complete service with its own simulated clock, queues, and local
cache tier — behind a :class:`~repro.serving.router.FleetRouter` that
assigns every request to exactly one shard as a pure function of the
request and the router seed.

**Topology.**  ::

    submit ──► FleetRouter ──► shard 0: PlanningService ── local tier ─┐
                          ├──► shard 1: PlanningService ── local tier ─┼─► global
                          └──► shard k: PlanningService ── local tier ─┘   tier

**Determinism contract (non-negotiable).**  Simulated time is
authoritative and per-shard: shard clocks model independent replicas, and
nothing observable depends on *wall-clock* interleaving.  Concretely:

- Every surviving request's path, verdicts, and
  :class:`~repro.collision.stats.CollisionStats` are bit-identical to a
  solo sequential run of that request — inherited from the service's
  per-request contract, and unchanged by sharding because a request's
  whole lifetime lives on one shard.
- A fixed ``(seed, config)`` fixes each shard's entire drain — responses,
  shed set, clock — because the router assignment is deterministic and
  each shard is the already-deterministic PR 5/9 service.
- ``workers="process"`` is bit-identical to ``workers="inline"``: a worker
  receives the shard's *complete* mutable state (service core via
  ``export_state``, cache tier content, the frozen global-tier snapshot)
  plus the scene via shared memory, drains, and ships the state back.
  The drain is the same computation in either address space.
- Shard results merge in shard-index order, never completion order.

**Cache tiers.**  Each shard mounts a :class:`~repro.collision.cache.
TieredCollisionCache`: reads go local-then-global, writes land locally and
are logged.  The global tier is *frozen during a drain* — in process mode
workers could not observe each other's in-drain writes, so inline mode
must not either — and at the drain boundary the fleet merges every
shard's fresh entries into it in shard-index order
(:meth:`~repro.collision.cache.CollisionCache.adopt`, first writer wins).

**Epoch-consistent invalidation broadcast.**  :meth:`PlanningFleet.
update_environment` requires the whole fleet idle, computes the
changed-region boxes once (:func:`repro.env.diff.octree_delta_regions`),
invalidates the global tier once, and fans the same ``(octree, regions,
epoch)`` triple to every shard via :meth:`~repro.serving.service.
PlanningService.apply_environment_update` — so every tier on every shard
observes the update at the same epoch boundary.

**Shared memory.**  Process mode ships the octree (packed node arrays +
bounds) and all pending request poses through
:class:`multiprocessing.shared_memory.SharedMemory` blocks; job pickles
carry row indices instead of scenes or pose arrays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from multiprocessing import get_context, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collision.cache import CollisionCache, TieredCollisionCache
from repro.config import ReproConfig
from repro.env.diff import octree_delta_regions
from repro.env.octree import Octree, OctreeNode, OctantState
from repro.geometry.aabb import AABB
from repro.robot.model import RobotModel
from repro.serving.router import FleetRouter
from repro.serving.service import (
    PlanRequest,
    PlanResponse,
    PlanningService,
    ServiceReport,
)

__all__ = [
    "PlanningFleet",
    "FleetReport",
    "SharedOctreeBuffer",
    "SharedPoseBuffer",
]


# ----------------------------------------------------------------------
# Shared-memory scene/pose transport
# ----------------------------------------------------------------------


class SharedOctreeBuffer:
    """One octree packed into a shared-memory block.

    Layout (all offsets 8-byte aligned because each section is a multiple
    of 8 bytes): ``states`` as int8 ``(n, 8)``, ``children`` as int32
    ``(n, 8)`` with ``-1`` for "no child", then bounds as float64
    ``(2, 3)`` (center, half_extents).  ``max_depth`` and ``n`` travel in
    the picklable :attr:`meta` dict, not the buffer.
    """

    def __init__(self, octree: Octree):
        n = len(octree.nodes)
        size = n * 8 + n * 8 * 4 + 6 * 8
        self.shm = shared_memory.SharedMemory(create=True, size=size)
        states, children, bounds = self._views(self.shm, n)
        for i, node in enumerate(octree.nodes):
            states[i] = [int(s) for s in node.states]
            children[i] = [-1 if c is None else c for c in node.children]
        bounds[0] = octree.bounds.center
        bounds[1] = octree.bounds.half_extents
        self.meta = {
            "name": self.shm.name,
            "n_nodes": n,
            "max_depth": octree.max_depth,
        }

    @staticmethod
    def _views(shm, n: int):
        states = np.ndarray((n, 8), dtype=np.int8, buffer=shm.buf)
        children = np.ndarray(
            (n, 8), dtype=np.int32, buffer=shm.buf, offset=n * 8
        )
        bounds = np.ndarray(
            (2, 3), dtype=np.float64, buffer=shm.buf, offset=n * 8 + n * 32
        )
        return states, children, bounds

    @classmethod
    def unpack(cls, meta: dict) -> Octree:
        """Rebuild the octree in a worker (copies out, then detaches)."""
        shm = shared_memory.SharedMemory(name=meta["name"])
        try:
            states, children, bounds = cls._views(shm, meta["n_nodes"])
            nodes = [
                OctreeNode(
                    tuple(OctantState(int(s)) for s in states[i]),
                    tuple(
                        None if c < 0 else int(c) for c in children[i]
                    ),
                )
                for i in range(meta["n_nodes"])
            ]
            octree_bounds = AABB(
                np.array(bounds[0], copy=True), np.array(bounds[1], copy=True)
            )
        finally:
            shm.close()
        return Octree(nodes, octree_bounds, meta["max_depth"])

    def release(self) -> None:
        """Detach and free the block (parent side, after the pool joins)."""
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double-release guard
            pass


class SharedPoseBuffer:
    """All pending request poses as one shared ``(rows, dof)`` matrix.

    Requests cross the process boundary carrying row indices (see
    ``_strip_poses``); workers resolve them against this matrix, so pose
    arrays are never pickled.
    """

    def __init__(self, rows: Sequence[np.ndarray]):
        mat = np.asarray(rows, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError(
                "pose rows must share one dof (got a ragged stack)"
            )
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, mat.nbytes)
        )
        view = np.ndarray(mat.shape, dtype=np.float64, buffer=self.shm.buf)
        view[:] = mat
        self.meta = {"name": self.shm.name, "shape": mat.shape}

    @staticmethod
    def unpack(meta: dict) -> np.ndarray:
        shm = shared_memory.SharedMemory(name=meta["name"])
        try:
            view = np.ndarray(
                tuple(meta["shape"]), dtype=np.float64, buffer=shm.buf
            )
            return np.array(view, copy=True)
        finally:
            shm.close()

    def release(self) -> None:
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double-release guard
            pass


_POSE_TAG = "__shm_pose__"


def _strip_poses(state: dict, rows: List[np.ndarray]) -> dict:
    """Replace queued requests' pose arrays with shared-matrix row markers.

    Walks every place the exported service state holds a
    :class:`PlanRequest` (global queue, future arrivals, fairness queues)
    and swaps ``q_start``/``q_goal`` for ``(tag, row)`` markers, appending
    the poses to ``rows``.  Returns a new state dict; the parent's live
    state is never mutated.
    """

    def strip(request: PlanRequest) -> PlanRequest:
        start_row = len(rows)
        rows.append(np.asarray(request.q_start, dtype=float))
        goal_row = len(rows)
        rows.append(np.asarray(request.q_goal, dtype=float))
        return replace(
            request,
            q_start=(_POSE_TAG, start_row),
            q_goal=(_POSE_TAG, goal_row),
        )

    out = dict(state)
    out["queue"] = [
        (priority, arrival_us, seq, strip(request))
        for priority, arrival_us, seq, request in state["queue"]
    ]
    out["arrivals"] = [
        (arrival_us, seq, strip(request))
        for arrival_us, seq, request in state["arrivals"]
    ]
    if state["drr"] is not None:
        drr = dict(state["drr"])
        drr["queues"] = {
            client: [
                (
                    priority,
                    arrival_us,
                    seq,
                    size,
                    (strip(item[0]), item[1]),
                )
                for priority, arrival_us, seq, size, item in queue
            ]
            for client, queue in state["drr"]["queues"].items()
        }
        out["drr"] = drr
    return out


def _hydrate_poses(state: dict, poses: Optional[np.ndarray]) -> dict:
    """Resolve ``_strip_poses`` markers back into pose arrays (worker)."""

    def resolve(value):
        if (
            isinstance(value, tuple)
            and len(value) == 2
            and value[0] == _POSE_TAG
        ):
            return np.array(poses[value[1]], dtype=float, copy=True)
        return value

    def hydrate(request: PlanRequest) -> PlanRequest:
        return replace(
            request,
            q_start=resolve(request.q_start),
            q_goal=resolve(request.q_goal),
        )

    out = dict(state)
    out["queue"] = [
        (priority, arrival_us, seq, hydrate(request))
        for priority, arrival_us, seq, request in state["queue"]
    ]
    out["arrivals"] = [
        (arrival_us, seq, hydrate(request))
        for arrival_us, seq, request in state["arrivals"]
    ]
    if state["drr"] is not None:
        drr = dict(state["drr"])
        drr["queues"] = {
            client: [
                (
                    priority,
                    arrival_us,
                    seq,
                    size,
                    (hydrate(item[0]), item[1]),
                )
                for priority, arrival_us, seq, size, item in queue
            ]
            for client, queue in state["drr"]["queues"].items()
        }
        out["drr"] = drr
    return out


def _run_shard_job(job: dict) -> dict:
    """Drain one shard in a worker process (module-level for the pool).

    Rebuilds the scene from shared memory, reconstructs the shard service
    and its cache tiers from the shipped state, drains, and returns the
    post-drain state — the exact computation the parent would have run
    inline, in a different address space.
    """
    octree = SharedOctreeBuffer.unpack(job["octree"])
    poses = (
        SharedPoseBuffer.unpack(job["poses"])
        if job["poses"] is not None
        else None
    )
    config: ReproConfig = job["config"]
    cache = None
    if job["cache"] is not None:
        local = CollisionCache(
            quantum=config.cache.quantum,
            max_entries=config.cache.max_entries,
        )
        global_tier = None
        if job["global_entries"] is not None:
            global_tier = CollisionCache(
                quantum=config.cache.quantum,
                max_entries=config.cache.max_entries,
            )
        cache = TieredCollisionCache(local, global_tier)
        cache.load_state(job["cache"])  # sets both tiers' epochs
        if global_tier is not None:
            global_tier.adopt(job["global_entries"])
    service = PlanningService(
        job["robot"], octree, config=config, cache=cache
    )
    service.load_state(_hydrate_poses(job["state"], poses))
    report = service.run()
    return {
        "shard": job["shard"],
        "report": report,
        "state": service.export_state(),
        "cache": cache.export_state() if cache is not None else None,
        "fresh": cache.export_fresh() if cache is not None else [],
    }


# ----------------------------------------------------------------------
# The fleet report
# ----------------------------------------------------------------------


@dataclass
class FleetReport(ServiceReport):
    """Deterministic merge of one drain's per-shard reports.

    ``responses`` is the shard reports' union (request ids are unique
    fleet-wide), merged in shard-index order.  ``sim_ms`` is the *maximum*
    shard clock — shards are parallel replicas, so the fleet's simulated
    drain time is the slowest shard, which is exactly why goodput scales
    with shard count at fixed offered load.  Count fields are sums;
    ``shard_sim_ms`` and ``shard_summaries`` keep the per-shard breakdown.
    Everything else, serialization included, is :class:`ServiceReport`'s.
    """

    n_shards: int = 1
    shard_sim_ms: List[float] = field(default_factory=list)
    shard_summaries: List[dict] = field(default_factory=list)


def _merge_counter_dicts(dicts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + value
    return out


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------


class PlanningFleet:
    """N planning-service shards behind one deterministic router.

    ``config.fleet`` selects the shard count, router policy/seed, worker
    mode (``"inline"`` drains shards sequentially in index order;
    ``"process"`` drains them in a multiprocessing pool, bit-identically),
    and whether the fleet mounts a shared global cache tier.  Every shard
    is a full :class:`~repro.serving.service.PlanningService` built from
    the same config; ``make_service`` is literally the 1-shard special
    case (see :func:`repro.api.make_fleet`).
    """

    def __init__(
        self,
        robot: RobotModel,
        octree: Octree,
        config: Optional[ReproConfig] = None,
        telemetry=None,
    ):
        if config is None:
            config = ReproConfig.for_fleet()
        self.robot = robot
        self.octree = octree
        self.config = config
        self.telemetry = telemetry
        self.env_epoch = 0
        self.router = FleetRouter(config.fleet)
        self.n_shards = config.fleet.n_shards

        self.global_cache: Optional[CollisionCache] = None
        if config.cache.enabled and config.fleet.global_cache:
            self.global_cache = CollisionCache(
                quantum=config.cache.quantum,
                max_entries=config.cache.max_entries,
                telemetry=telemetry,
            )

        self.shards: List[PlanningService] = []
        self.caches: List[Optional[TieredCollisionCache]] = []
        for _ in range(self.n_shards):
            cache = None
            if config.cache.enabled:
                local = CollisionCache(
                    quantum=config.cache.quantum,
                    max_entries=config.cache.max_entries,
                    telemetry=telemetry,
                )
                cache = TieredCollisionCache(local, self.global_cache)
            self.shards.append(
                PlanningService(
                    robot,
                    octree,
                    config=config,
                    telemetry=telemetry,
                    cache=cache,
                )
            )
            self.caches.append(cache)
        self._request_ids: set = set()
        self._assignments: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Submission / environment
    # ------------------------------------------------------------------

    def submit(
        self, request: PlanRequest, arrival_ms: Optional[float] = None
    ) -> int:
        """Route one request to its shard; returns the shard index."""
        if request.request_id in self._request_ids:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        shard = self.router.assign(request)
        self.shards[shard].submit(request, arrival_ms=arrival_ms)
        self._request_ids.add(request.request_id)
        self._assignments[request.request_id] = shard
        return shard

    def submit_many(
        self, requests: Sequence[Tuple[PlanRequest, Optional[float]]]
    ) -> List[int]:
        """Route ``(request, arrival_ms)`` pairs in order."""
        return [
            self.submit(request, arrival_ms=arrival_ms)
            for request, arrival_ms in requests
        ]

    def update_environment(self, octree: Octree) -> int:
        """Epoch-consistent invalidation broadcast (whole fleet idle).

        Computes the changed-region boxes once, invalidates the global
        tier once, and applies the same ``(octree, regions, epoch)``
        triple to every shard — all tiers land on the same epoch.  Raises
        without touching *any* shard if one of them still has queued or
        in-flight work (no partial broadcasts).  Returns the total number
        of cache entries dropped across every tier.
        """
        busy = [i for i, shard in enumerate(self.shards) if shard.num_pending]
        if busy:
            raise RuntimeError(
                "update_environment requires an idle fleet; shards "
                f"{busy} still have pending work (drain with run() first)"
            )
        regions = octree_delta_regions(self.octree, octree)
        epoch = self.env_epoch + 1
        dropped = 0
        if self.global_cache is not None:
            dropped += self.global_cache.invalidate_regions(regions)
        for shard in self.shards:
            dropped += shard.apply_environment_update(octree, regions, epoch)
        self.octree = octree
        self.env_epoch = epoch
        return dropped

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def run(self) -> FleetReport:
        """Drain every shard and merge their reports deterministically."""
        if self.config.fleet.workers == "process":
            reports, fresh = self._run_process()
        else:
            reports, fresh = self._run_inline()
        # Drain-boundary global-tier sync, in shard-index order (first
        # writer wins) — the global tier was frozen during the drain.
        if self.global_cache is not None:
            for entries in fresh:
                self.global_cache.adopt(entries)
        return self._merge_reports(reports)

    def _run_inline(self):
        reports = [shard.run() for shard in self.shards]
        fresh = [
            cache.export_fresh() if cache is not None else []
            for cache in self.caches
        ]
        return reports, fresh

    def _run_process(self):
        octree_buf = SharedOctreeBuffer(self.octree)
        pose_rows: List[np.ndarray] = []
        jobs = []
        for index, shard in enumerate(self.shards):
            state = _strip_poses(shard.export_state(), pose_rows)
            cache = self.caches[index]
            jobs.append(
                {
                    "shard": index,
                    "robot": self.robot,
                    "config": self.config,
                    "octree": octree_buf.meta,
                    "poses": None,  # patched below once the matrix exists
                    "state": state,
                    "cache": (
                        cache.export_state() if cache is not None else None
                    ),
                    "global_entries": (
                        self.global_cache.export_entries()
                        if self.global_cache is not None
                        else None
                    ),
                }
            )
        pose_buf = SharedPoseBuffer(pose_rows) if pose_rows else None
        if pose_buf is not None:
            for job in jobs:
                job["poses"] = pose_buf.meta
        try:
            ctx = get_context("fork") if os.name == "posix" else get_context()
            workers = min(self.n_shards, os.cpu_count() or 1)
            with ctx.Pool(processes=workers) as pool:
                # Pool.map returns results in job order regardless of
                # which worker finishes first — the merge below never
                # sees wall-clock interleaving.
                results = pool.map(_run_shard_job, jobs)
        finally:
            octree_buf.release()
            if pose_buf is not None:
                pose_buf.release()
        reports: List[ServiceReport] = []
        fresh: List[list] = []
        for result in results:
            index = result["shard"]
            shard = self.shards[index]
            shard.load_state(result["state"])
            shard.octree = self.octree
            cache = self.caches[index]
            if cache is not None and result["cache"] is not None:
                cache.load_state(result["cache"])
            reports.append(result["report"])
            fresh.append(result["fresh"])
        return reports, fresh

    def _merge_reports(self, reports: List[ServiceReport]) -> FleetReport:
        responses: Dict[str, PlanResponse] = {}
        for report in reports:
            responses.update(report.responses)
        cache_counters: Optional[dict] = None
        shard_counters = [
            r.cache_counters for r in reports if r.cache_counters is not None
        ]
        if shard_counters:
            cache_counters = _merge_counter_dicts(
                [
                    {k: v for k, v in c.items() if k != "epoch"}
                    for c in shard_counters
                ]
            )
            cache_counters["epoch"] = shard_counters[0]["epoch"]
            if self.global_cache is not None:
                # Only structural facts: probe counts for the global tier
                # already live in the shards' hits_global, and the tier
                # object's own counters depend on worker mode (process
                # workers probe private copies).
                cache_counters["global"] = {
                    "entries": len(self.global_cache),
                    "epoch": self.global_cache.epoch,
                }
        return FleetReport(
            responses=responses,
            sim_ms=max((r.sim_ms for r in reports), default=0.0),
            rounds=sum(r.rounds for r in reports),
            dispatches=sum(r.dispatches for r in reports),
            phases_answered=sum(r.phases_answered for r in reports),
            poses_dispatched=sum(r.poses_dispatched for r in reports),
            cache_counters=cache_counters,
            status_counts=_merge_counter_dicts(
                [r.status_counts for r in reports]
            ),
            shed_counts=_merge_counter_dicts([r.shed_counts for r in reports]),
            overload_histogram=_merge_counter_dicts(
                [r.overload_histogram for r in reports]
            ),
            n_shards=self.n_shards,
            shard_sim_ms=[r.sim_ms for r in reports],
            shard_summaries=[
                {
                    "shard": index,
                    "responses": len(report.responses),
                    "completed": report.completed,
                    "shed": report.shed,
                    "goodput": report.goodput,
                    "sim_ms": report.sim_ms,
                    "rounds": report.rounds,
                }
                for index, report in enumerate(reports)
            ],
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_pending(self) -> int:
        return sum(shard.num_pending for shard in self.shards)

    def shard_of(self, request_id: str) -> int:
        """Which shard a submitted request was routed to."""
        return self._assignments[request_id]

    def response(self, request_id: str) -> PlanResponse:
        return self.shards[self._assignments[request_id]].response(request_id)
