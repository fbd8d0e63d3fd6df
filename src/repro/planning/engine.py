"""Query engines: pluggable execution backends for planner CD phases.

Planners describe their collision workload as :class:`CDPhase`s (motions +
a scheduler function mode) and hand them to :class:`CDTraceRecorder`, which
delegates *answering* to a :class:`QueryEngine`.  Three interchangeable
backends implement the same semantics contract:

- :class:`SequentialEngine` — the early-exiting sequential reference a CPU
  implementation would run (motions in order, poses front to back, stop as
  soon as the function mode allows).  This is the default and the ground
  truth the other engines are differential-tested against.
- :class:`BatchedEngine` — answers a whole phase with **one** vectorized
  ``BatchPoseEvaluator`` dispatch over every undecided pose (the VAMP /
  pRRTC strategy), then charges the checker's :class:`CollisionStats` for
  exactly the pose prefix the sequential early exit would have executed.
  Verdicts *and* operation counts are bit-identical to the sequential
  engine; only wall-clock changes.  Requires a ``backend="batch"`` checker.
- :class:`SimulatedEngine` — routes each phase through an inline
  :class:`~repro.accel.sas.SASSimulator` run, so a planner run produces
  cycle/energy numbers and (optionally invariant-audited)
  :class:`~repro.accel.sas.SASResult`s *as it plans*, instead of via
  post-hoc trace replay.  Ground truth beyond the sequential prefix is
  resolved up front (vectorized with a batch checker, scalar otherwise)
  and its cost is diverted to ``shadow_stats`` so the planner-visible
  operation counts still match the sequential reference exactly.

The semantics guarantee all three share: for the same phase stream, the
per-motion verdicts (and therefore every planner decision, path, and the
checker's recorded ``CollisionStats``) are identical.  The engines differ
only in how the ground truth is *computed* (lazy scalar loop, one
vectorized dispatch, primed dispatch + cycle-accurate simulation) and in
what side products they leave behind (nothing, a warm outcome cache, a
stream of ``SASResult``s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.planning.motion import CDPhase, FunctionMode

if TYPE_CHECKING:  # import at runtime would cycle through repro.accel
    from repro.accel.telemetry import MetricsRegistry

__all__ = [
    "PhaseAnswer",
    "QueryEngine",
    "SequentialEngine",
    "BatchedEngine",
    "SimulatedEngine",
    "make_engine",
    "walk_warm_phase",
]


@dataclass
class PhaseAnswer:
    """What a query engine decided about one phase.

    ``outcomes[i]`` is True when motion ``i`` collides, False when it is
    collision-free, and None when the function mode allowed stopping before
    motion ``i`` was evaluated — the same convention as
    :class:`~repro.planning.motion.SequentialOutcome`.
    """

    outcomes: List[Optional[bool]] = field(default_factory=list)
    engine: str = "sequential"

    def first_colliding(self) -> Optional[int]:
        """Index of the first colliding motion, or None (FEASIBILITY answer)."""
        for index, outcome in enumerate(self.outcomes):
            if outcome is True:
                return index
        return None

    def first_free(self) -> Optional[int]:
        """Index of the first free motion, or None (CONNECTIVITY answer)."""
        for index, outcome in enumerate(self.outcomes):
            if outcome is False:
                return index
        return None

    @property
    def all_free(self) -> bool:
        return self.first_colliding() is None

    def flags(self) -> List[bool]:
        """Per-motion collision flags (COMPLETE answer; every motion decided)."""
        if any(outcome is None for outcome in self.outcomes):
            raise ValueError("undecided motions; flags() needs a COMPLETE answer")
        return [bool(outcome) for outcome in self.outcomes]


class QueryEngine:
    """Base class: telemetry wrapping around a backend's ``_answer``.

    ``answer`` wraps every phase in an ``engine.phase`` telemetry scope and
    maintains per-engine and per-function-mode counters
    (``engine.<name>.phases``, ``engine.mode.<mode>``, ``engine.motions``,
    ``engine.poses``); subclasses implement ``_answer``.
    """

    name = "base"

    def __init__(
        self,
        checker=None,
        telemetry: MetricsRegistry | None = None,
        fault_injector=None,
    ):
        self.checker = checker
        self.telemetry = telemetry
        # Optional repro.resilience.faults.FaultInjector: an answered phase
        # may raise TransientEngineFault/EngineTimeoutFault before the
        # backend runs (the runtime retries these with bounded backoff).
        # One predicate per answer when absent or disabled.
        self.fault_injector = fault_injector

    def answer(self, phase: CDPhase) -> PhaseAnswer:
        injector = self.fault_injector
        if injector is not None and injector.enabled:
            injector.engine_phase(phase.label or phase.mode.value)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            label = f"{self.name}:{phase.label or phase.mode.value}"
            with tel.scope("engine.phase", label):
                answer = self._answer(phase)
            tel.counter(f"engine.{self.name}.phases").inc()
            tel.counter(f"engine.mode.{phase.mode.value}").inc()
            tel.counter("engine.motions").inc(len(phase.motions))
            tel.counter("engine.poses").inc(phase.total_poses)
        else:
            answer = self._answer(phase)
        answer.engine = self.name
        return answer

    def _answer(self, phase: CDPhase) -> PhaseAnswer:
        raise NotImplementedError


class SequentialEngine(QueryEngine):
    """The early-exiting sequential reference (current CPU semantics).

    Delegates to :meth:`CDPhase.sequential_reference`, which evaluates
    motions in order and poses front to back through the lazy
    ``MotionRecord`` cache, stopping as soon as the function mode allows —
    so both the verdicts and the checker's recorded operation counts are
    exactly what the pre-engine recorder produced.
    """

    name = "sequential"

    def _answer(self, phase: CDPhase) -> PhaseAnswer:
        reference = phase.sequential_reference()
        return PhaseAnswer(outcomes=list(reference.outcomes))


def _batched_prime_and_answer(
    phase: CDPhase, checker, prefilter=None
) -> PhaseAnswer:
    """One vectorized dispatch for the whole phase + sequential charging.

    Every undecided pose across the phase's motions is stacked into a
    single ``BatchPoseEvaluator.evaluate`` call and installed into the
    motions' outcome caches; the answer is then the sequential reference
    walked over the (now warm) cache.  Stats stay bit-identical to the
    scalar engine: ``pose_checks`` and the per-operation counters are
    charged only for the poses the sequential early exit would have
    executed — the same prefix-charging contract as
    :meth:`RobotEnvironmentChecker.check_motion` with ``backend="batch"``.

    With a :class:`~repro.planning.swept.SweptMotionPrefilter`, every
    fully-undecided motion is first run through the conservative swept
    certification.  When the checker is *not* collecting per-operation
    stats, certified motions skip the exact dispatch entirely: their poses
    get provably-correct collision-free ground truth installed wholesale,
    and the walk charges ``pose_checks`` for exactly the poses the
    sequential reference would have visited — verdicts, per-pose ground
    truth, and ``pose_checks`` stay identical, only the priced per-op
    counters (which the checker is not collecting) go unaccounted.  With
    ``collect_stats`` on, certification still runs (feeding the prefilter
    counters) but nothing is skipped, so the recorded ``CollisionStats``
    stay bit-identical to the sequential reference.

    Phases carrying the recorder's fused SoA layout (``phase.stacked``)
    with every motion still unevaluated — the planner hot path — take
    :func:`_fused_prime_and_answer` instead: the same dispatch, charging,
    and verdicts, computed from the phase-level arrays without per-pose
    Python.
    """
    if phase.stacked is not None and all(
        motion.fully_unevaluated for motion in phase.motions
    ):
        return _fused_prime_and_answer(phase, checker, prefilter=prefilter)
    skipped = None
    if prefilter is not None:
        eligible = [m for m in phase.motions if m.fully_unevaluated]
        if eligible:
            certified = prefilter.certify_motions(eligible)
            if not checker.collect_stats and certified.any():
                skipped = set()
                for motion, is_free in zip(eligible, certified):
                    if is_free:
                        motion.set_all_free()
                        skipped.add(id(motion))

    if skipped:
        targets = [
            (motion, index)
            for motion in phase.motions
            if id(motion) not in skipped
            for index in motion.unevaluated_indices()
        ]
    else:
        targets = [
            (motion, index)
            for motion in phase.motions
            for index in motion.unevaluated_indices()
        ]
    outcome = None
    row_of = {}
    if targets:
        stacked = np.stack([motion.poses[index] for motion, index in targets])
        outcome = checker.evaluate_poses(stacked, need_work=checker.collect_stats)
        for row, ((motion, index), hit) in enumerate(zip(targets, outcome.hits)):
            motion.set_pose_outcome(index, bool(hit))
            row_of[(id(motion), index)] = row

    if skipped:
        outcomes, charged_rows, certified_checks = _walk_with_certified(
            phase, row_of, skipped
        )
        checker.stats.pose_checks += certified_checks
    else:
        outcomes, charged_rows = walk_warm_phase(phase, row_of)

    stats = checker.stats
    stats.pose_checks += len(charged_rows)
    if outcome is not None and charged_rows and checker.collect_stats:
        outcome.record(stats, poses=np.asarray(charged_rows, dtype=int))
    return PhaseAnswer(outcomes=outcomes)


def _ranges_to_rows(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` blocks, vectorized.

    Every length must be >= 1 (callers pass per-motion visited-pose counts,
    and a motion always has at least two poses).
    """
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    boundaries = np.cumsum(lengths)[:-1]
    previous_last = starts[:-1] + lengths[:-1] - 1
    steps[boundaries] = starts[1:] - previous_last
    return np.cumsum(steps)


def _fused_prime_and_answer(
    phase: CDPhase, checker, prefilter=None
) -> PhaseAnswer:
    """The SoA fast path of :func:`_batched_prime_and_answer`.

    Preconditions (checked by the caller): the phase carries the fused
    layout (``stacked``/``offsets``/``counts``) and every motion is fully
    unevaluated, so the dispatch target is exactly ``stacked`` (minus any
    prefilter-certified motions) and every visited pose charges its fresh
    dispatch row.  Everything the per-pose path computes with Python loops
    — the dispatch stack, the outcome install, the early-exiting
    sequential walk, the charged-row list — becomes a handful of array
    operations: first-hit-per-motion via ``flatnonzero`` + ``searchsorted``
    over the motion row ranges, verdict/visit vectors, and one
    block-``arange`` for the charged rows.  Verdicts, per-pose ground
    truth, and every ``CollisionStats`` charge are identical to the
    unfused path by construction (the dispatch rows and the walked prefix
    are the same sets, and all stats counters are order-independent
    integer sums).
    """
    motions = phase.motions
    stacked, offsets, counts = phase.stacked, phase.offsets, phase.counts
    n_motions = len(motions)
    total = len(stacked)

    # Prefilter: in skip mode (stats off), certification runs at span
    # granularity and certified *rows* — not just whole motions — are
    # elided from the exact dispatch; their ground truth is provably
    # collision-free.  With stats collection on, certification only feeds
    # the prefilter counters and everything dispatches.
    certified_rows = None
    if prefilter is not None:
        if checker.collect_stats:
            prefilter.certify_motions(motions, stacked=stacked, counts=counts)
        else:
            certified_rows, _ = prefilter.certify_pose_spans(
                motions, stacked, counts
            )
            if not certified_rows.any():
                certified_rows = None

    outcome = None
    need_work = checker.collect_stats
    if certified_rows is None:
        outcome = checker.evaluate_poses(stacked, need_work=need_work)
        hits = np.asarray(outcome.hits, dtype=bool)
    else:
        keep_rows = ~certified_rows
        hits = np.zeros(total, dtype=bool)
        if keep_rows.any():
            outcome = checker.evaluate_poses(
                stacked[keep_rows], need_work=need_work
            )
            hits[keep_rows] = outcome.hits

    hit_list = hits.tolist()
    for motion, offset, count in zip(
        motions, offsets.tolist(), counts.tolist()
    ):
        motion.install_outcomes(hit_list[offset : offset + count])

    # Sequential-reference walk, vectorized: first colliding pose per
    # motion, then the per-motion verdicts and visited-pose counts.
    collided = np.zeros(n_motions, dtype=bool)
    visited = counts
    if hits.any():
        hit_rows = np.flatnonzero(hits)
        first_pos = np.searchsorted(hit_rows, offsets)
        in_range = first_pos < len(hit_rows)
        first_row = np.where(
            in_range, hit_rows[np.minimum(first_pos, len(hit_rows) - 1)], -1
        )
        collided = in_range & (first_row < offsets + counts)
        visited = np.where(collided, first_row - offsets + 1, counts)

    mode = phase.mode
    if mode is FunctionMode.FEASIBILITY:
        stoppers = np.flatnonzero(collided)
        stop = int(stoppers[0]) if len(stoppers) else n_motions - 1
    elif mode is FunctionMode.CONNECTIVITY:
        stoppers = np.flatnonzero(~collided)
        stop = int(stoppers[0]) if len(stoppers) else n_motions - 1
    else:
        stop = n_motions - 1

    outcomes: List[Optional[bool]] = [None] * n_motions
    outcomes[: stop + 1] = collided[: stop + 1].tolist()

    # Charging: one pose check per pose the sequential reference visits —
    # whether that pose was freshly dispatched or span-certified.  The
    # priced per-op counters are recorded only with stats collection on,
    # where nothing was skipped and walk rows index the dispatch directly.
    checker.stats.pose_checks += int(visited[: stop + 1].sum())
    if checker.collect_stats and outcome is not None:
        charged_rows = _ranges_to_rows(offsets[: stop + 1], visited[: stop + 1])
        if len(charged_rows):
            outcome.record(checker.stats, poses=charged_rows)
    return PhaseAnswer(outcomes=outcomes)


def _walk_with_certified(phase: CDPhase, row_of: dict, skipped: set):
    """The warm-phase walk with an O(1) fast path for certified motions.

    Semantically identical to :func:`walk_warm_phase` over the same warm
    caches — certified motions are known all-free, so their per-pose inner
    loop collapses to ``outcome=False`` plus a ``num_poses`` bump of the
    pose-check charge (the sequential reference visits every pose of a
    free motion).  Returns ``(outcomes, charged_rows, certified_checks)``.
    """
    charged_rows: List[int] = []
    certified_checks = 0
    outcomes: List[Optional[bool]] = [None] * len(phase.motions)
    for motion_index, motion in enumerate(phase.motions):
        if id(motion) in skipped:
            collided = False
            certified_checks += motion.num_poses
        else:
            collided = False
            for pose_index in range(motion.num_poses):
                row = row_of.get((id(motion), pose_index))
                if row is not None:
                    charged_rows.append(row)
                if motion.pose_collides(pose_index):
                    collided = True
                    break
        outcomes[motion_index] = collided
        if phase.mode is FunctionMode.FEASIBILITY and collided:
            break
        if phase.mode is FunctionMode.CONNECTIVITY and not collided:
            break
    return outcomes, charged_rows, certified_checks


def walk_warm_phase(phase: CDPhase, row_of: dict):
    """Sequential-reference walk over warm outcome caches.

    Returns ``(outcomes, charged_rows)``: the per-motion verdicts the
    sequential engine would produce, plus — in execution order — the
    dispatch rows the scalar early exit would have charged.  ``row_of``
    maps ``(id(motion), pose_index)`` to the row that freshly evaluated
    that pose; poses warm before the dispatch have no row and charge
    nothing (their cost was charged when first evaluated).  Every pose the
    walk touches must already carry a cached ground-truth verdict.  Shared
    by the per-phase batched engine and the serving layer's cross-request
    batcher, which must charge each request's stats by exactly this walk.
    """
    charged_rows: List[int] = []
    outcomes: List[Optional[bool]] = [None] * len(phase.motions)
    for motion_index, motion in enumerate(phase.motions):
        collided = False
        for pose_index in range(motion.num_poses):
            row = row_of.get((id(motion), pose_index))
            if row is not None:
                charged_rows.append(row)
            if motion.pose_collides(pose_index):
                collided = True
                break
        outcomes[motion_index] = collided
        if phase.mode is FunctionMode.FEASIBILITY and collided:
            break
        if phase.mode is FunctionMode.CONNECTIVITY and not collided:
            break
    return outcomes, charged_rows


class BatchedEngine(QueryEngine):
    """Answers whole phases through one vectorized dispatch each.

    Requires a ``backend="batch"``
    :class:`~repro.collision.checker.RobotEnvironmentChecker` — the scalar
    checker has no vectorized pipeline to dispatch to.  As a side effect
    every pose of an answered phase carries cached ground truth, so a later
    SAS replay of the recorded trace needs no collision substrate at all.
    """

    name = "batch"

    def __init__(
        self,
        checker,
        telemetry: MetricsRegistry | None = None,
        fault_injector=None,
        prefilter: bool = False,
    ):
        if getattr(checker, "backend", "scalar") != "batch":
            raise ValueError(
                "BatchedEngine needs a backend='batch' checker; got "
                f"backend={getattr(checker, 'backend', None)!r}"
            )
        super().__init__(checker, telemetry, fault_injector=fault_injector)
        self._prefilter = None
        if prefilter:
            from repro.planning.swept import SweptMotionPrefilter

            self._prefilter = SweptMotionPrefilter(checker)

    @property
    def prefilter(self):
        """The :class:`SweptMotionPrefilter`, or None when disabled."""
        return self._prefilter

    def _answer(self, phase: CDPhase) -> PhaseAnswer:
        checker = self.checker
        if checker._bit_flips_active():
            # Bit-flip injection lives in the scalar quantized-OBB path;
            # answer through the sequential reference so every ground-truth
            # probe passes the corruption hook.
            return PhaseAnswer(outcomes=list(phase.sequential_reference().outcomes))
        return _batched_prime_and_answer(phase, checker, prefilter=self._prefilter)


class SimulatedEngine(QueryEngine):
    """Answers phases by running them through SAS inline while planning.

    Each phase is ground-truth-resolved up front, simulated on the wrapped
    :class:`~repro.accel.sas.SASSimulator` (one :class:`SASResult` appended
    to ``results`` per phase, invariant-audited when ``check_invariants``),
    and answered with the sequential reference — so planner decisions,
    paths, and recorded ``CollisionStats`` match the other engines exactly
    while cycle/energy numbers accumulate as the planner runs.

    Ground-truth resolution depends on the checker backend:

    - ``backend="batch"``: one vectorized dispatch per phase with
      sequential prefix charging (identical to :class:`BatchedEngine`);
    - scalar: the sequential prefix is evaluated lazily (charging the
      checker normally), then the remaining poses the simulator may probe
      are filled with the charges diverted to ``shadow_stats`` — the extra
      work is real, but it belongs to the simulation, not to the planner's
      query stream;
    - ``checker=None``: phases must carry precomputed outcomes (the
      serialized-trace replay workflow).

    The inline results equal a post-hoc
    :meth:`~repro.accel.sas.SASSimulator.run_phases` replay of the same
    recorded trace when simulator seed, policy, and configuration match
    and the policy's pose ordering is deterministic (every non-random
    Figure 7 policy, including the default MCSP).
    """

    name = "simulated"

    def __init__(
        self,
        checker=None,
        simulator=None,
        n_cdus: int = 16,
        policy="mcsp",
        config=None,
        latency_model=None,
        seed: int = 0,
        telemetry: MetricsRegistry | None = None,
        check_invariants: bool = True,
        record_timeline: bool = False,
        fault_injector=None,
    ):
        super().__init__(checker, telemetry, fault_injector=fault_injector)
        if simulator is None:
            from repro.accel.sas import SASSimulator, unit_latency_model

            simulator = SASSimulator(
                n_cdus=n_cdus,
                policy=policy,
                config=config,
                latency_model=latency_model or unit_latency_model,
                seed=seed,
                telemetry=telemetry,
                check_invariants=check_invariants,
                fault_injector=fault_injector,
            )
        self.simulator = simulator
        self.record_timeline = record_timeline
        #: One SASResult per answered phase, in phase order.
        self.results: List = []
        #: Collision work performed only to feed the simulator (scalar
        #: checkers): ground truth past the sequential early-exit boundary.
        from repro.collision.stats import CollisionStats

        self.shadow_stats = CollisionStats()

    def _answer(self, phase: CDPhase) -> PhaseAnswer:
        checker = self.checker
        if (
            checker is not None
            and getattr(checker, "backend", "scalar") == "batch"
            and not checker._bit_flips_active()
        ):
            answer = _batched_prime_and_answer(phase, checker)
        else:
            answer = PhaseAnswer(
                outcomes=list(phase.sequential_reference().outcomes)
            )
            if checker is not None:
                with checker.divert_stats(self.shadow_stats):
                    for motion in phase.motions:
                        motion.evaluate_all()
        result = self.simulator.run(phase, record_timeline=self.record_timeline)
        self.results.append(result)
        return answer

    # -- inline-simulation accessors -----------------------------------

    @property
    def total_cycles(self) -> int:
        return sum(result.cycles for result in self.results)

    @property
    def total_tests(self) -> int:
        return sum(result.tests for result in self.results)

    @property
    def total_energy_pj(self) -> float:
        return sum(result.energy_pj for result in self.results)

    def clear(self) -> None:
        self.results.clear()
        self.shadow_stats.reset()


def make_engine(config, checker, telemetry=None, **kwargs) -> QueryEngine:
    """Build a query engine from a :class:`repro.config.EngineConfig`.

    ``config.kind`` selects the engine; ``n_cdus``, ``policy``, ``seed``,
    ``check_invariants`` and ``record_timeline`` parameterize a simulated
    engine and ``prefilter`` a batched one.  Extra keyword arguments are
    forwarded to the engine constructor (e.g. ``fault_injector``) and take
    precedence over the config's fields.
    """
    from repro.config import EngineConfig

    if not isinstance(config, EngineConfig):
        raise TypeError(
            f"make_engine expects a repro.config.EngineConfig, got "
            f"{type(config).__name__}"
        )
    if config.kind == "simulated":
        for name in ("n_cdus", "policy", "seed", "check_invariants",
                     "record_timeline"):
            kwargs.setdefault(name, getattr(config, name))
        return SimulatedEngine(checker, telemetry=telemetry, **kwargs)
    if config.kind == "batch":
        kwargs.setdefault("prefilter", config.prefilter)
        return BatchedEngine(checker, telemetry=telemetry, **kwargs)
    return SequentialEngine(checker, telemetry=telemetry, **kwargs)
