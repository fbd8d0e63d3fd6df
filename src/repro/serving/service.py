"""The multi-client planning service: admission, batching, deadlines.

:class:`PlanningService` accepts many concurrent plan requests and runs
them to completion on one deterministic *simulated clock* — no threads, no
wall-clock nondeterminism.  Planners are suspendable generators
(``plan_steps``, :mod:`repro.planning.queries`), so the service interleaves
requests at collision-query boundaries:

1. **Arrival.**  ``submit`` enqueues a request either immediately or at a
   future simulated time (``arrival_ms``), which is how seeded traffic
   traces (:mod:`repro.serving.traffic`) replay open-loop arrivals: the
   drain loop ingests each arrival when the clock reaches it, and fast-
   forwards the clock to the next arrival when the service is idle.
2. **Admission.**  Queued requests wait in a priority queue with an
   explicit, documented order — ``(priority, arrival_us, sequence)``, so
   equal-priority requests are admitted strictly FIFO by arrival and the
   tiebreak among simultaneous arrivals is submission order (pinned by
   ``tests/test_serving_overload.py``).  At most ``max_inflight`` run at
   once.  With ``admission_control`` on, the gates of
   :mod:`repro.serving.admission` may *shed* a request instead — at
   arrival (queue full, provably/estimably infeasible deadline,
   best-effort refusal under overload) or at dequeue (deadline expired
   while queued) — producing a typed ``status="shed"`` response with a
   named reason; the planner never runs.  With ``fairness`` on, admission
   runs deficit round-robin over ``client_id`` instead of the global
   queue, so a flooding client cannot starve the others.
3. **Rounds.**  Each round resumes every in-flight request's generator to
   its next CD phase (degenerate queries are answered inline per the
   recorder contract), then flushes the collected phases through the
   :class:`~repro.serving.batcher.CrossRequestBatcher` in windows of
   ``batch_window`` phases — one vectorized dispatch per window, coalescing
   work *across* requests.  Windows are grouped by environment epoch
   (:func:`group_pending_by_epoch`): requests planning against the same
   octree version coalesce into the same flush, so a flush never mixes
   epochs (cache-aware routing).
4. **Deadlines and budgets.**  Every request carries a
   :class:`~repro.resilience.deadline.DeadlineBudget` (simulated
   milliseconds).  By default a miss is flagged on the response; with
   ``cancel_on_deadline_miss`` the request is cancelled at the next
   scheduling point after its budget lapses.  With
   ``preempt_energy_budget_pj`` set, a request whose consumed work —
   priced through the MPAccel energy model
   (:func:`repro.serving.admission.priced_energy_pj`) — exceeds the budget
   is preempted at the next scheduling point (``status="preempted"``).

**Determinism and per-request bit-identity.**  The round structure, the
admission order, the shed set, and the simulated cost model are all pure
functions of the submitted requests and the
:class:`~repro.config.ServiceConfig`; there is no hidden state.  Because
each planner is one generator driven by answers that are bit-identical to
a solo run (see :mod:`repro.serving.batcher`), every *surviving* request's
path, verdicts, and :class:`~repro.collision.stats.CollisionStats` are
independent of arrival interleaving, batch window size, and the other
requests in flight — pinned by ``tests/test_serving.py`` and
``tests/test_serving_overload.py``.  With every overload knob at its
default the service reproduces the pre-overload behavior bit-for-bit.

The simulated cost model (microseconds) makes batching visible in service
latency: a batched dispatch costs ``dispatch_overhead_us`` once plus
per-pose costs (cheap for cache hits), while sequential mode pays the
overhead per phase and the full per-pose cost — the same
overhead-amortization argument as the paper's SAS dispatch model.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collision.cache import CollisionCache
from repro.collision.checker import RobotEnvironmentChecker
from repro.collision.stats import CollisionStats
from repro.config import ReproConfig
from repro.env.diff import octree_delta_regions
from repro.env.octree import Octree
from repro.geometry.aabb import AABB
from repro.planning.engine import SequentialEngine
from repro.planning.recorder import CDTraceRecorder
from repro.resilience.deadline import DeadlineBudget
from repro.resilience.degradation import degradation_histogram
from repro.resilience.faults import (
    EngineTimeoutFault,
    FaultInjector,
    TransientEngineFault,
)
from repro.robot.model import RobotModel
from repro.serving.admission import (
    AdmissionController,
    DeficitRoundRobin,
    priced_energy_pj,
)
from repro.serving.batcher import CrossRequestBatcher

__all__ = [
    "PlanRequest",
    "PlanResponse",
    "ServiceReport",
    "PlanningService",
    "group_pending_by_epoch",
]


@dataclass
class PlanRequest:
    """One client's planning query.

    ``planner`` names a built-in planner (``"rrt"``, ``"rrt_connect"``,
    ``"prm"``); ``planner_factory`` overrides it with any callable taking a
    recorder and returning an object with ``plan_steps(q_start, q_goal,
    rng)``.  ``seed`` feeds the request's private RNG; ``deadline_ms`` (in
    simulated milliseconds) defaults to the service's
    ``default_deadline_ms``.  Lower ``priority`` admits first.

    ``client_id`` groups requests for fairness accounting (deficit
    round-robin under ``ServiceConfig.fairness``); ``size`` is the
    request's fairness cost, in the same units as ``fairness_quantum``
    (heavy-tailed sizes come from the traffic model).
    """

    request_id: str
    q_start: object
    q_goal: object
    planner: str = "rrt_connect"
    planner_factory: Optional[object] = None
    seed: int = 0
    priority: int = 0
    deadline_ms: Optional[float] = None
    client_id: str = ""
    size: float = 1.0


@dataclass
class PlanResponse:
    """What the service returns for one request.

    ``status`` is the typed terminal state (the values of
    :class:`repro.serving.admission.RequestStatus`): ``"completed"``,
    ``"cancelled"`` (deadline policy), ``"shed"`` (refused at admission —
    ``shed_reason`` names the gate), ``"preempted"`` (energy budget), or
    ``"failed"`` (engine-fault retries exhausted).  Only ``"completed"``
    responses can carry a path.
    """

    request_id: str
    success: bool
    path: Optional[list]
    result: object
    stats: CollisionStats
    num_phases: int
    submitted_ms: float
    admitted_ms: float
    completed_ms: float
    deadline_ms: Optional[float]
    deadline_missed: bool
    cancelled: bool
    env_epoch: int
    status: str = "completed"
    shed_reason: Optional[str] = None
    client_id: str = ""

    @property
    def latency_ms(self) -> float:
        """Submission-to-terminal latency, clamped non-negative.

        Well-defined for every terminal status: a request shed at its own
        arrival instant has latency exactly 0.0, never a negative value
        from float round-off.
        """
        return max(0.0, self.completed_ms - self.submitted_ms)

    _KEYS = (
        "request_id",
        "success",
        "path",
        "result",
        "stats",
        "num_phases",
        "submitted_ms",
        "admitted_ms",
        "completed_ms",
        "deadline_ms",
        "deadline_missed",
        "cancelled",
        "env_epoch",
        "status",
        "shed_reason",
        "client_id",
    )

    def to_dict(self) -> dict:
        """JSON-native payload (nested inside a serialized report)."""
        if self.result is None:
            result: dict = {"kind": "none"}
        elif isinstance(self.result, list):
            result = {"kind": "path", "path": _path_to_lists(self.result)}
        else:
            result = {
                "kind": "plan_result",
                "success": bool(self.result.success),
                "path": _path_to_lists(self.result.path),
                "nn_inferences": int(self.result.nn_inferences),
                "encoder_inferences": int(self.result.encoder_inferences),
                "fallback_used": bool(self.result.fallback_used),
                "replans": int(self.result.replans),
            }
        return {
            "request_id": self.request_id,
            "success": self.success,
            "path": None if self.path is None else _path_to_lists(self.path),
            "result": result,
            "stats": self.stats.as_dict(),
            "num_phases": self.num_phases,
            "submitted_ms": self.submitted_ms,
            "admitted_ms": self.admitted_ms,
            "completed_ms": self.completed_ms,
            "deadline_ms": self.deadline_ms,
            "deadline_missed": self.deadline_missed,
            "cancelled": self.cancelled,
            "env_epoch": self.env_epoch,
            "status": self.status,
            "shed_reason": self.shed_reason,
            "client_id": self.client_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanResponse":
        from repro.harness.reports import check_keys

        check_keys("PlanResponse", data, cls._KEYS)
        raw = data["result"]
        result: object
        if raw["kind"] == "none":
            result = None
        elif raw["kind"] == "path":
            result = _path_from_lists(raw["path"])
        elif raw["kind"] == "plan_result":
            from repro.planning.mpnet import PlanResult

            result = PlanResult(
                success=raw["success"],
                path=_path_from_lists(raw["path"]),
                nn_inferences=raw["nn_inferences"],
                encoder_inferences=raw["encoder_inferences"],
                fallback_used=raw["fallback_used"],
                replans=raw["replans"],
            )
        else:
            raise ValueError(f"unknown result kind {raw['kind']!r}")
        return cls(
            request_id=data["request_id"],
            success=data["success"],
            path=(
                None if data["path"] is None else _path_from_lists(data["path"])
            ),
            result=result,
            stats=CollisionStats.from_dict(data["stats"]),
            num_phases=data["num_phases"],
            submitted_ms=data["submitted_ms"],
            admitted_ms=data["admitted_ms"],
            completed_ms=data["completed_ms"],
            deadline_ms=data["deadline_ms"],
            deadline_missed=data["deadline_missed"],
            cancelled=data["cancelled"],
            env_epoch=data["env_epoch"],
            status=data["status"],
            shed_reason=data["shed_reason"],
            client_id=data["client_id"],
        )


def _path_to_lists(path) -> list:
    """Waypoints as nested float lists (exact: doubles survive JSON)."""
    return [np.asarray(q, dtype=float).tolist() for q in path]


def _path_from_lists(rows: list) -> list:
    return [np.asarray(q, dtype=float) for q in rows]


@dataclass
class ServiceReport:
    """Aggregate accounting for one :meth:`PlanningService.run` drain."""

    responses: Dict[str, PlanResponse]
    sim_ms: float
    rounds: int
    dispatches: int
    phases_answered: int
    poses_dispatched: int
    cache_counters: Optional[dict]
    #: Terminal-status tally over ``responses`` (completed/cancelled/...).
    status_counts: Dict[str, int] = field(default_factory=dict)
    #: Shed-reason tally (zero-filled when admission control is off).
    shed_counts: Dict[str, int] = field(default_factory=dict)
    #: Overload-level histogram over arrival-gate checks (admission only).
    overload_histogram: Dict[str, int] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.responses.values() if r.success)

    @property
    def shed(self) -> int:
        return sum(1 for r in self.responses.values() if r.status == "shed")

    @property
    def goodput(self) -> int:
        """Completed, successful responses that met their deadline."""
        return sum(
            1
            for r in self.responses.values()
            if r.status == "completed" and r.success and not r.deadline_missed
        )

    @property
    def requests_per_sim_s(self) -> float:
        """Terminal responses per simulated second (0.0 on a zero-time
        drain — e.g. every request shed at arrival — never a
        division-by-zero)."""
        if self.sim_ms <= 0:
            return 0.0
        return len(self.responses) / (self.sim_ms / 1e3)

    @property
    def goodput_per_sim_s(self) -> float:
        """Useful completions per simulated second (same zero-time guard)."""
        if self.sim_ms <= 0:
            return 0.0
        return self.goodput / (self.sim_ms / 1e3)

    def to_dict(self) -> dict:
        """JSON-native dict of every field (the file envelope of
        :func:`repro.harness.serialization.save_report` names the kind)."""
        data = {
            f.name: copy.deepcopy(getattr(self, f.name))
            for f in fields(self)
            if f.name != "responses"
        }
        data["responses"] = {
            rid: response.to_dict()
            for rid, response in sorted(self.responses.items())
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceReport":
        """Inverse of :meth:`to_dict`; unknown or missing keys are
        rejected by name.  Subclasses inherit both directions."""
        from repro.harness.reports import check_keys

        check_keys(cls.__name__, data, [f.name for f in fields(cls)])
        body = copy.deepcopy(
            {key: value for key, value in data.items() if key != "responses"}
        )
        body["responses"] = {
            rid: PlanResponse.from_dict(response)
            for rid, response in data["responses"].items()
        }
        return cls(**body)


class _Task:
    """Internal per-request state (generator + recorder + clocks)."""

    __slots__ = (
        "request",
        "gen",
        "recorder",
        "deadline",
        "submitted_us",
        "admitted_us",
        "pending_value",
        "pending_item",
        "done",
        "result",
        "cancelled",
        "status",
        "env_epoch",
        "retries",
    )

    def __init__(self, request, gen, recorder, deadline, submitted_us, env_epoch):
        self.request = request
        self.gen = gen
        self.recorder = recorder
        self.deadline: Optional[DeadlineBudget] = deadline
        self.submitted_us = submitted_us
        self.admitted_us = submitted_us
        self.pending_value = None
        self.pending_item = None  # (query, phase) awaiting a batched answer
        self.done = False
        self.result = None
        self.cancelled = False
        self.status = "completed"
        self.env_epoch = env_epoch
        self.retries = 0


def group_pending_by_epoch(pending: List[_Task]) -> List[List[_Task]]:
    """Partition pending tasks into flush groups by environment epoch.

    Groups are ordered by epoch (oldest first) and preserve scheduling
    order within a group, so a flush window never mixes requests planning
    against different octree versions — requests sharing an epoch coalesce
    into the same vectorized dispatch and share its cache locality.  (The
    service only changes epochs while nothing is in flight, so at runtime
    a single drain sees one group; the partition is the documented routing
    rule and is unit-tested directly.)
    """
    groups: Dict[int, List[_Task]] = {}
    for task in pending:
        groups.setdefault(task.env_epoch, []).append(task)
    return [groups[epoch] for epoch in sorted(groups)]


class PlanningService:
    """Deterministic multi-client planning service over one environment.

    ``config`` is a :class:`~repro.config.ReproConfig`; its ``service``
    section selects the mode (``"batched"`` coalesces phases across
    requests, ``"sequential"`` is the single-client baseline), the batch
    window, admission limits, the simulated cost model, and the overload
    policy (admission control, fairness, preemption).  ``config.cache``
    controls the shared octree-versioned verdict cache.

    Fault injection is configured through the typed config:
    ``ServiceConfig(fault_models=..., fault_seed=...)`` builds the
    service-owned :class:`repro.resilience.faults.FaultInjector` threaded
    through per-request checkers and sequential-mode engines; engine phase
    faults are retried up to ``max_fault_retries`` times before the request
    fails with ``status="failed"`` (and no path).

    ``cache=`` injects an externally owned cache — the fleet's hook for
    mounting a :class:`~repro.collision.cache.TieredCollisionCache` per
    shard; by default the service builds its own from ``config.cache``.
    """

    def __init__(
        self,
        robot: RobotModel,
        octree: Octree,
        config: Optional[ReproConfig] = None,
        telemetry=None,
        cache=None,
    ):
        if config is None:
            config = ReproConfig.for_service()
        if config.service.mode == "batched" and config.backend != "batch":
            raise ValueError(
                "service mode 'batched' requires backend 'batch' "
                "(cross-request coalescing dispatches through the vectorized "
                "pipeline); use ReproConfig.for_service() or service mode "
                "'sequential'"
            )
        self.robot = robot
        self.octree = octree
        self.config = config
        self.telemetry = telemetry
        if config.service.fault_models is not None:
            self.fault_injector = FaultInjector(
                models=config.service.fault_models,
                seed=config.service.fault_seed,
                telemetry=telemetry,
            )
        else:
            self.fault_injector = None
        self.env_epoch = 0
        self.clock_us = 0.0
        self.rounds = 0
        self._seq = 0
        self._queue: list = []  # (priority, arrival_us, seq, request)
        self._arrivals: list = []  # (arrival_us, seq, request) in the future
        self._inflight: List[_Task] = []
        self._responses: Dict[str, PlanResponse] = {}
        self._request_ids: set = set()

        service = config.service
        self.admission: Optional[AdmissionController] = None
        if service.admission_control:
            self.admission = AdmissionController(
                max_queue_depth=service.max_queue_depth,
                floor_ms=service.dispatch_overhead_us / 1e3,
                telemetry=telemetry,
            )
        self._drr: Optional[DeficitRoundRobin] = None
        if service.fairness:
            self._drr = DeficitRoundRobin(quantum=service.fairness_quantum)

        self.cache: Optional[CollisionCache] = None
        if cache is not None:
            if not config.cache.enabled:
                raise ValueError(
                    "cache= was injected but config.cache.enabled is False; "
                    "enable the cache section or drop the injection"
                )
            self.cache = cache
        elif config.cache.enabled:
            self.cache = CollisionCache(
                quantum=config.cache.quantum,
                max_entries=config.cache.max_entries,
                telemetry=telemetry,
            )

        self.batcher: Optional[CrossRequestBatcher] = None
        self._shared_evaluator = None
        if config.service.mode == "batched":
            shared = RobotEnvironmentChecker.from_config(
                robot, octree, config, cache=self.cache
            )
            self._shared_evaluator = shared.batch_evaluator
            self.batcher = CrossRequestBatcher(shared)

    # ------------------------------------------------------------------
    # Submission / environment
    # ------------------------------------------------------------------

    def submit(
        self, request: PlanRequest, arrival_ms: Optional[float] = None
    ) -> None:
        """Enqueue a request, now or at a future simulated time.

        With ``arrival_ms`` (simulated milliseconds, absolute) beyond the
        current clock the request is held until the drain loop's clock
        reaches it — the open-loop replay path for traffic traces; the
        admission gates run at that arrival instant, not at submission.
        """
        if request.request_id in self._request_ids:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        self._validate_planner(request)
        self._request_ids.add(request.request_id)
        arrival_us = (
            self.clock_us if arrival_ms is None else float(arrival_ms) * 1e3
        )
        if arrival_us > self.clock_us:
            heapq.heappush(
                self._arrivals, (arrival_us, self._next_seq(), request)
            )
        else:
            self._ingest(request, self.clock_us)

    def submit_many(
        self, requests: Sequence[Tuple[PlanRequest, Optional[float]]]
    ) -> None:
        """Submit ``(request, arrival_ms)`` pairs in order.

        The shape :func:`repro.serving.traffic.requests_from_trace` emits,
        and the shard-submission unit of the fleet protocol.
        """
        for request, arrival_ms in requests:
            self.submit(request, arrival_ms=arrival_ms)

    def _next_seq(self) -> int:
        """Monotone submission sequence (an int so state export can peek)."""
        seq = self._seq
        self._seq += 1
        return seq

    def _ingest(self, request: PlanRequest, arrival_us: float) -> None:
        """Run the arrival gate and enqueue (or shed) one request."""
        if self.admission is not None:
            decision = self.admission.check_arrival(
                queue_depth=self._queue_depth(),
                deadline_ms=self._effective_deadline_ms(request),
                priority=request.priority,
            )
            if not decision.admitted:
                self._shed(request, arrival_us, decision.reason)
                return
        seq = self._next_seq()
        if self._drr is not None:
            self._drr.push(
                request.client_id,
                request.priority,
                arrival_us,
                seq,
                request.size,
                (request, arrival_us),
            )
        else:
            # FIFO-stable ordering contract: among equal priorities,
            # strictly by arrival time, then by submission sequence.
            heapq.heappush(
                self._queue, (request.priority, arrival_us, seq, request)
            )

    def update_environment(self, octree: Octree) -> int:
        """Swap the environment octree between drains (service must be idle).

        Advances the environment epoch and selectively invalidates the
        shared cache from the changed-region boxes.  Returns the number of
        cache entries dropped.  Because the epoch can only change while
        nothing is queued or in flight, every task in a drain shares one
        epoch — the invariant behind :func:`group_pending_by_epoch`'s
        single-group fast path.
        """
        regions = octree_delta_regions(self.octree, octree)
        return self.apply_environment_update(
            octree, regions, self.env_epoch + 1
        )

    def apply_environment_update(
        self, octree: Octree, regions: Sequence[AABB], epoch: int
    ) -> int:
        """The shard half of the fleet's epoch-consistent update broadcast.

        The caller (:meth:`update_environment` solo, or
        :class:`repro.serving.fleet.PlanningFleet` fanning one update out)
        computes the changed-region boxes once and names the target epoch
        explicitly; every shard applies the same ``(octree, regions,
        epoch)`` triple, so all local cache tiers and the fleet's global
        tier advance through identical epoch sequences.  The epoch must be
        exactly the successor of this service's current epoch — a skipped
        or repeated broadcast is a protocol bug, not something to paper
        over.  Returns the number of cache entries dropped.
        """
        if self._queue_depth() or self._inflight or self._arrivals:
            raise RuntimeError(
                "update_environment requires an idle service (drain with "
                "run() first)"
            )
        if epoch != self.env_epoch + 1:
            raise ValueError(
                f"non-consecutive environment epoch: service is at "
                f"{self.env_epoch}, broadcast names {epoch} (expected "
                f"{self.env_epoch + 1})"
            )
        self.octree = octree
        self.env_epoch = epoch
        dropped = 0
        if self.cache is not None:
            dropped = self.cache.invalidate_regions(regions)
        if self.batcher is not None:
            shared = RobotEnvironmentChecker.from_config(
                self.robot, octree, self.config, cache=self.cache
            )
            self._shared_evaluator = shared.batch_evaluator
            self.batcher = CrossRequestBatcher(shared)
        return dropped

    def _effective_deadline_ms(self, request: PlanRequest) -> Optional[float]:
        if request.deadline_ms is not None:
            return request.deadline_ms
        return self.config.service.default_deadline_ms

    def _make_task(self, request: PlanRequest, arrival_us: float) -> _Task:
        checker = RobotEnvironmentChecker.from_config(
            self.robot,
            self.octree,
            self.config,
            cache=self.cache,
            fault_injector=self.fault_injector,
        )
        if self._shared_evaluator is not None:
            # All requests share one vectorized pipeline (it is stateless
            # apart from precomputed octree arrays).
            checker._batch_evaluator = self._shared_evaluator
        engine = SequentialEngine(checker, fault_injector=self.fault_injector)
        recorder = CDTraceRecorder(checker, engine=engine)
        planner = self._make_planner(request, recorder)
        rng = np.random.default_rng(request.seed)
        gen = planner.plan_steps(request.q_start, request.q_goal, rng)
        deadline_ms = self._effective_deadline_ms(request)
        deadline = (
            DeadlineBudget(sim_ms=deadline_ms) if deadline_ms is not None else None
        )
        return _Task(request, gen, recorder, deadline, arrival_us, self.env_epoch)

    @staticmethod
    def _validate_planner(request: PlanRequest) -> None:
        """Check the planner name eagerly at submission (tasks build lazily).

        Names resolve through the one registry,
        :data:`repro.planning.PLANNER_FACTORIES` (imported lazily — the
        planning package is heavyweight and submit may never need it if a
        factory was passed).
        """
        if request.planner_factory is not None:
            return
        from repro.planning import PLANNER_FACTORIES

        if request.planner not in PLANNER_FACTORIES:
            raise ValueError(
                f"unknown planner {request.planner!r}; valid choices: "
                f"{sorted(PLANNER_FACTORIES)} (or pass planner_factory)"
            )

    @staticmethod
    def _make_planner(request: PlanRequest, recorder: CDTraceRecorder):
        if request.planner_factory is not None:
            return request.planner_factory(recorder)
        from repro.planning import PLANNER_FACTORIES

        factory = PLANNER_FACTORIES.get(request.planner)
        if factory is None:
            raise ValueError(
                f"unknown planner {request.planner!r}; valid choices: "
                f"{sorted(PLANNER_FACTORIES)} (or pass planner_factory)"
            )
        return factory(recorder)

    # ------------------------------------------------------------------
    # The drain loop
    # ------------------------------------------------------------------

    def run(self) -> ServiceReport:
        """Drain every submitted request; returns the aggregate report.

        Deterministic: same requests + config -> same responses, shed set,
        clock, and dispatch sequence.
        """
        start_dispatches = (
            self.batcher.dispatches if self.batcher is not None else 0
        )
        start_phases = (
            self.batcher.phases_answered if self.batcher is not None else 0
        )
        start_poses = (
            self.batcher.poses_dispatched if self.batcher is not None else 0
        )
        seq_dispatches = 0
        seq_phases = 0
        seq_poses = 0
        rounds = 0

        while self._queue_depth() or self._inflight or self._arrivals:
            self._ingest_due_arrivals()
            if not self._queue_depth() and not self._inflight:
                if not self._arrivals:
                    break
                # Idle: fast-forward the clock to the next arrival.
                self.clock_us = max(self.clock_us, self._arrivals[0][0])
                continue
            rounds += 1
            self._admit()
            if not self._inflight:
                continue
            if self.config.service.mode == "batched":
                self._round_batched()
            else:
                d, p, n = self._round_sequential()
                seq_dispatches += d
                seq_phases += p
                seq_poses += n
        self.rounds += rounds

        if self.batcher is not None:
            dispatches = self.batcher.dispatches - start_dispatches
            phases = self.batcher.phases_answered - start_phases
            poses = self.batcher.poses_dispatched - start_poses
        else:
            dispatches, phases, poses = seq_dispatches, seq_phases, seq_poses
        status_counts: Dict[str, int] = {}
        for response in self._responses.values():
            status_counts[response.status] = (
                status_counts.get(response.status, 0) + 1
            )
        return ServiceReport(
            responses=dict(self._responses),
            sim_ms=self.clock_us / 1e3,
            rounds=rounds,
            dispatches=dispatches,
            phases_answered=phases,
            poses_dispatched=poses,
            cache_counters=self.cache.counters() if self.cache else None,
            status_counts=status_counts,
            shed_counts=(
                dict(self.admission.shed_counts)
                if self.admission is not None
                else {}
            ),
            overload_histogram=(
                degradation_histogram(self.admission.level_history)
                if self.admission is not None
                else {}
            ),
        )

    def _queue_depth(self) -> int:
        return len(self._drr) if self._drr is not None else len(self._queue)

    def _ingest_due_arrivals(self) -> None:
        while self._arrivals and self._arrivals[0][0] <= self.clock_us:
            _, _, request = heapq.heappop(self._arrivals)
            self._ingest(request, self.clock_us)

    def _admit(self) -> None:
        limit = self.config.service.max_inflight
        if self._drr is not None:
            while self._queue_depth() and len(self._inflight) < limit:
                released = self._drr.pop_round(limit - len(self._inflight))
                for request, arrival_us in released:
                    self._start_or_shed(request, arrival_us)
            return
        while self._queue and len(self._inflight) < limit:
            _, arrival_us, _, request = heapq.heappop(self._queue)
            self._start_or_shed(request, arrival_us)

    def _start_or_shed(self, request: PlanRequest, arrival_us: float) -> None:
        """The dequeue gate: start a task, or shed if it expired in queue."""
        if self.admission is not None:
            decision = self.admission.check_admission(
                waited_ms=(self.clock_us - arrival_us) / 1e3,
                deadline_ms=self._effective_deadline_ms(request),
            )
            if not decision.admitted:
                self._shed(request, arrival_us, decision.reason)
                return
        task = self._make_task(request, arrival_us)
        task.admitted_us = self.clock_us
        self._inflight.append(task)

    def _round_batched(self) -> None:
        """One scheduling round: advance every task, flush phase windows."""
        service = self.config.service
        pending: List[_Task] = []
        for task in list(self._inflight):
            if self._cancel_if_expired(task):
                continue
            if self._preempt_if_over_budget(task):
                continue
            item = self._advance(task)
            if task.done:
                self._finish(task)
            elif item is not None:
                task.pending_item = item
                pending.append(task)

        window = service.batch_window
        for group in group_pending_by_epoch(pending):
            for at in range(0, len(group), window):
                chunk = group[at : at + window]
                items = [
                    (task.recorder, task.pending_item[1]) for task in chunk
                ]
                answers, report = self.batcher.flush(items)
                self.clock_us += (
                    service.dispatch_overhead_us
                    + service.batch_pose_cost_us * report.fresh_rows
                    + service.cache_hit_cost_us * report.cached_rows
                )
                for task, answer in zip(chunk, answers):
                    query, phase = task.pending_item
                    task.pending_item = None
                    task.pending_value = task.recorder.commit(
                        query, phase, answer
                    )

    def _round_sequential(self):
        """Baseline: run the single oldest in-flight request to completion."""
        service = self.config.service
        task = self._inflight[0]
        dispatches = phases = poses = 0
        while not task.done:
            if self._cancel_if_expired(task):
                return dispatches, phases, poses
            if self._preempt_if_over_budget(task):
                return dispatches, phases, poses
            item = self._advance(task)
            if item is None:
                break
            query, phase = item
            checks_before = task.recorder.checker.stats.pose_checks
            answer = None
            while answer is None:
                try:
                    answer = task.recorder.engine.answer(phase)
                except (TransientEngineFault, EngineTimeoutFault):
                    # Injected engine fault: charge a retry dispatch and
                    # re-answer the same phase, up to the configured bound;
                    # past it the request fails — no path is ever emitted
                    # from a faulted, unvalidated phase.
                    task.retries += 1
                    self.clock_us += service.dispatch_overhead_us
                    if task.retries > service.max_fault_retries:
                        task.status = "failed"
                        task.done = True
                        task.gen.close()
                        break
            if answer is None:
                break
            charged = task.recorder.checker.stats.pose_checks - checks_before
            task.pending_value = task.recorder.commit(query, phase, answer)
            dispatches += 1
            phases += 1
            poses += charged
            self.clock_us += (
                service.dispatch_overhead_us + service.pose_cost_us * charged
            )
        if task.done:
            self._finish(task)
        return dispatches, phases, poses

    def _advance(self, task: _Task):
        """Resume a task's generator to its next non-degenerate query.

        Returns ``(query, phase)`` or None when the task finished.
        Degenerate queries (no phase) are answered inline from the
        recorder's trivial-result contract — they cost no dispatch.
        """
        while True:
            try:
                query = task.gen.send(task.pending_value)
            except StopIteration as stop:
                task.result = stop.value
                task.done = True
                return None
            task.pending_value = None
            phase = task.recorder.prepare(query)
            if phase is None:
                task.pending_value = task.recorder.trivial_result(query)
                continue
            return query, phase

    def _cancel_if_expired(self, task: _Task) -> bool:
        """Cancel a task whose deadline lapsed (when the policy says so)."""
        if not self.config.service.cancel_on_deadline_miss:
            return False
        if task.deadline is None:
            return False
        elapsed_ms = (self.clock_us - task.submitted_us) / 1e3
        if not task.deadline.sim_exceeded(elapsed_ms):
            return False
        task.cancelled = True
        task.status = "cancelled"
        task.done = True
        task.gen.close()
        self._finish(task)
        return True

    def _preempt_if_over_budget(self, task: _Task) -> bool:
        """Preempt a task whose priced energy exceeds the configured budget.

        The budget is priced through the MPAccel energy model over the
        request's own collision stats, so "over budget" means the same
        thing here as in the paper's energy accounting.
        """
        budget = self.config.service.preempt_energy_budget_pj
        if budget is None:
            return False
        if priced_energy_pj(task.recorder.checker.stats) <= budget:
            return False
        task.status = "preempted"
        task.done = True
        task.gen.close()
        if self.telemetry is not None:
            self.telemetry.counter("service.preempted").inc()
        self._finish(task)
        return True

    def _shed(
        self, request: PlanRequest, arrival_us: float, reason: Optional[str]
    ) -> None:
        """Record a typed shed response (the planner never ran)."""
        deadline_ms = self._effective_deadline_ms(request)
        self._responses[request.request_id] = PlanResponse(
            request_id=request.request_id,
            success=False,
            path=None,
            result=None,
            stats=CollisionStats(),
            num_phases=0,
            submitted_ms=arrival_us / 1e3,
            admitted_ms=self.clock_us / 1e3,
            completed_ms=self.clock_us / 1e3,
            deadline_ms=deadline_ms,
            deadline_missed=reason in ("infeasible_deadline", "expired_in_queue"),
            cancelled=False,
            env_epoch=self.env_epoch,
            status="shed",
            shed_reason=reason,
            client_id=request.client_id,
        )

    def _finish(self, task: _Task) -> None:
        self._inflight.remove(task)
        result = task.result
        path: Optional[list] = None
        success = False
        if task.status == "completed":
            if isinstance(result, list):
                path = result
                success = True
            elif result is not None and hasattr(result, "success"):
                success = bool(result.success)
                path = list(result.path) if success else None
        deadline_ms = task.deadline.sim_ms if task.deadline is not None else None
        elapsed_ms = (self.clock_us - task.submitted_us) / 1e3
        missed = deadline_ms is not None and elapsed_ms > deadline_ms
        if self.admission is not None and task.status == "completed":
            self.admission.observe_completion(self.clock_us - task.admitted_us)
        self._responses[task.request.request_id] = PlanResponse(
            request_id=task.request.request_id,
            success=success,
            path=path,
            result=result,
            stats=task.recorder.checker.stats.copy(),
            num_phases=task.recorder.num_phases,
            submitted_ms=task.submitted_us / 1e3,
            admitted_ms=task.admitted_us / 1e3,
            completed_ms=self.clock_us / 1e3,
            deadline_ms=deadline_ms,
            deadline_missed=missed or task.cancelled,
            cancelled=task.cancelled,
            env_epoch=task.env_epoch,
            status=task.status,
            shed_reason=None,
            client_id=task.request.client_id,
        )

    # ------------------------------------------------------------------
    # Fleet state shipping (process-mode shard jobs)
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """Picklable snapshot of the service core, taken between drains.

        The fleet's process mode ships this to a worker, which rebuilds an
        identical service (same robot/octree/config), restores the state,
        drains, and ships the post-drain snapshot back — the drain in the
        worker is bit-identical to draining in place because *all* mutable
        core state rides along: clock, epoch, submission sequence, queues,
        prior responses, admission estimator, fairness deficits, and the
        fault injector's RNG streams.  The cache is shipped separately by
        the fleet (it owns the tier topology).  Only queued state can ship:
        in-flight tasks hold live generators, which cannot cross a process
        boundary.
        """
        if self._inflight:
            raise RuntimeError(
                "export_state requires no in-flight tasks (drain first)"
            )
        if self.fault_injector is None:
            faults = None
        else:
            faults = {
                "models": self.fault_injector.models,
                "seed": self.fault_injector.seed,
                "enabled": self.fault_injector.enabled,
                "events": list(self.fault_injector.events),
                # np.random.Generator pickles with its stream position, so
                # the worker resumes each site's decision stream mid-flow.
                "rngs": dict(self.fault_injector._rngs),
                "draws": dict(self.fault_injector._draws),
            }
        return {
            "clock_us": self.clock_us,
            "env_epoch": self.env_epoch,
            "rounds": self.rounds,
            "seq": self._seq,
            "queue": list(self._queue),
            "arrivals": list(self._arrivals),
            "responses": dict(self._responses),
            "request_ids": set(self._request_ids),
            "admission": (
                self.admission.export_state()
                if self.admission is not None
                else None
            ),
            "drr": self._drr.export_state() if self._drr is not None else None,
            "faults": faults,
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        if self._inflight:
            raise RuntimeError(
                "load_state requires no in-flight tasks (drain first)"
            )
        self.clock_us = state["clock_us"]
        self.env_epoch = state["env_epoch"]
        self.rounds = state["rounds"]
        self._seq = state["seq"]
        self._queue = list(state["queue"])
        self._arrivals = list(state["arrivals"])
        self._responses = dict(state["responses"])
        self._request_ids = set(state["request_ids"])
        if state["admission"] is not None:
            if self.admission is None:
                raise ValueError(
                    "snapshot has admission state but this service was "
                    "built without admission_control"
                )
            self.admission.load_state(state["admission"])
        if state["drr"] is not None:
            if self._drr is None:
                raise ValueError(
                    "snapshot has fairness state but this service was "
                    "built without fairness"
                )
            self._drr.load_state(state["drr"])
        faults = state["faults"]
        if faults is not None:
            injector = FaultInjector(
                models=faults["models"],
                seed=faults["seed"],
                enabled=faults["enabled"],
                telemetry=self.telemetry,
            )
            injector.events = list(faults["events"])
            injector._rngs = dict(faults["rngs"])
            injector._draws = dict(faults["draws"])
            self.fault_injector = injector

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_pending(self) -> int:
        return self._queue_depth() + len(self._inflight) + len(self._arrivals)

    def response(self, request_id: str) -> PlanResponse:
        return self._responses[request_id]
