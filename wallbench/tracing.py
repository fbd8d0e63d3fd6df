"""Wall-clock spans around the stack's public functions, from outside.

The program carries no spans of its own, so the traced pass wraps each
layer's public function where its caller looks the name up (a class
attribute for methods, a module global for functions) and restores the
originals afterwards.  Spans nest on one stack: a span's self time is its
duration minus the time its child spans cover.  A span that re-enters
itself (a tiered cache lookup calling its local tier's ``lookup``) is one
call, not two.

Spans recorded inside process-mode fleet workers stay in the worker and
are lost; every number here is parent-side.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, span).  "Class.method" wraps the method on the
#: class; a bare name wraps the module global the callers resolve.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api", "plan", "planning.plan"),
    ("repro.planning", "greedy_shortcut", "planning.shortcut"),
    ("repro.planning.recorder", "CDTraceRecorder.prepare", "planning.recorder.prepare"),
    ("repro.planning.engine", "QueryEngine.answer", "planning.engine.answer"),
    ("repro.planning.swept", "SweptMotionPrefilter.certify_motions", "planning.swept.certify"),
    ("repro.planning.swept", "SweptMotionPrefilter.certify_pose_spans", "planning.swept.certify"),
    ("repro.collision.batch", "BatchPoseEvaluator.evaluate", "collision.evaluate"),
    ("repro.collision.batch", "batch_link_obbs", "collision.batch.link_obbs"),
    ("repro.collision.batch", "BatchOctreeCollider.collide", "collision.batch.collide"),
    ("repro.collision.batch", "batch_cascade", "collision.batch.cascade"),
    ("repro.collision.batch", "BatchPoseOutcome.record", "collision.batch.record"),
    ("repro.collision.cache", "CollisionCache.lookup", "collision.cache.lookup"),
    ("repro.collision.cache", "TieredCollisionCache.lookup", "collision.cache.lookup"),
    ("repro.collision.cache", "CollisionCache.store", "collision.cache.store"),
    ("repro.collision.cache", "TieredCollisionCache.store", "collision.cache.store"),
    ("repro.collision.cache", "CollisionCache.invalidate_regions", "collision.cache.invalidate"),
    ("repro.collision.cache", "TieredCollisionCache.invalidate_regions", "collision.cache.invalidate"),
    ("repro.collision.cache", "CollisionCache.adopt", "collision.cache.adopt"),
    ("repro.serving.service", "octree_delta_regions", "env.diff.delta_regions"),
    ("repro.serving.fleet", "octree_delta_regions", "env.diff.delta_regions"),
    ("repro.serving.service", "PlanningService.submit", "serving.service.submit"),
    ("repro.serving.service", "PlanningService.run", "serving.service.run"),
    ("repro.serving.batcher", "CrossRequestBatcher.flush", "serving.batcher.flush"),
    ("repro.serving.fleet", "PlanningFleet.run", "serving.fleet.run"),
    ("repro.serving.fleet", "PlanningFleet.update_environment", "serving.fleet.update"),
    ("repro.serving.service", "PlanningService.export_state", "serving.fleet.ship"),
    ("repro.collision.cache", "TieredCollisionCache.export_state", "serving.fleet.ship"),
    ("repro.collision.cache", "CollisionCache.export_entries", "serving.fleet.ship"),
    ("repro.serving.fleet", "SharedOctreeBuffer.__init__", "serving.fleet.ship"),
    ("repro.serving.fleet", "SharedPoseBuffer.__init__", "serving.fleet.ship"),
    ("repro.serving.service", "PlanningService.load_state", "serving.fleet.merge"),
    ("repro.collision.cache", "TieredCollisionCache.load_state", "serving.fleet.merge"),
)

#: Every span name, in report order.
SPANS: Tuple[str, ...] = tuple(dict.fromkeys(span for _, _, span in SPAN_TARGETS))


def _count_prepare(counts, args, result):
    if result is not None:
        counts["phases"] += 1
        counts["phase_poses"] += result.total_poses


def _count_certify(counts, args, result):
    motions = result[1] if isinstance(result, tuple) else result
    counts["motions_tested"] += len(motions)
    counts["motions_certified"] += int(motions.sum())


def _count_evaluate(counts, args, result):
    counts["evaluate_rows"] += len(result)


def _count_invalidate(counts, args, result):
    counts["invalidated"] += int(result)


#: Counts taken from a wrapped call's result, keyed by span.
_OBSERVERS: Dict[str, Callable] = {
    "planning.recorder.prepare": _count_prepare,
    "planning.swept.certify": _count_certify,
    "collision.evaluate": _count_evaluate,
    "collision.cache.invalidate": _count_invalidate,
}


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory span totals for one traced pass."""

    def __init__(self):
        self.spans: Dict[str, SpanTotals] = {name: SpanTotals() for name in SPANS}
        #: Seconds spent in ``child`` spans directly under ``parent`` spans.
        self.child_s: Dict[Tuple[str, str], float] = {}
        #: Seconds covered by spans opened with no span around them.
        self.top_level_s = 0.0
        self.counts: Dict[str, int] = {
            "phases": 0,
            "phase_poses": 0,
            "motions_tested": 0,
            "motions_certified": 0,
            "evaluate_rows": 0,
            "invalidated": 0,
        }
        self._stack: List[list] = []

    def wrap(self, span: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(span)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    edge = (parent[0], span)
                    self.child_s[edge] = self.child_s.get(edge, 0.0) + duration
                else:
                    self.top_level_s += duration
                totals = self.spans[span]
                totals.calls += 1
                totals.total_s += duration
                totals.self_s += duration - frame[1]
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore = []
        try:
            for module_name, path, span in SPAN_TARGETS:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(span, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float, attempted: int) -> Dict[str, float]:
    """Per-span calls, self time per attempted plan, and share of wall."""
    out: Dict[str, float] = {}
    for name in SPANS:
        totals = tracer.spans[name]
        out[f"{name}.calls"] = totals.calls
        out[f"{name}.self_ms"] = ratio(totals.self_s * 1e3, attempted)
        out[f"{name}.share"] = ratio(totals.self_s, traced_wall_s)
    fleet_run = tracer.spans["serving.fleet.run"].total_s
    parent_side = sum(
        tracer.child_s.get(("serving.fleet.run", child), 0.0)
        for child in ("serving.fleet.ship", "serving.fleet.merge", "collision.cache.adopt")
    )
    out["serving.fleet.worker_drain_ms"] = ratio((fleet_run - parent_side) * 1e3, attempted)
    counts = tracer.counts
    out["planning.recorder.poses_per_phase"] = ratio(counts["phase_poses"], counts["phases"])
    out["planning.swept.certified_share"] = ratio(
        counts["motions_certified"], counts["motions_tested"]
    )
    out["collision.evaluate.rows_per_call"] = ratio(
        counts["evaluate_rows"], tracer.spans["collision.evaluate"].calls
    )
    out["collision.cache.invalidated"] = counts["invalidated"]
    out["trace.unattributed_share"] = ratio(traced_wall_s - tracer.top_level_s, traced_wall_s)
    return out


#: Derived per-layer metrics and their units, after the per-span triples.
DERIVED_UNITS = {
    "serving.fleet.worker_drain_ms": "ms/plan",
    "planning.recorder.poses_per_phase": "poses/phase",
    "planning.swept.certified_share": "share",
    "collision.evaluate.rows_per_call": "rows/call",
    "collision.cache.hit_share": "share",
    "collision.cache.entries": "count",
    "collision.cache.invalidated": "count",
    "serving.batcher.phases_per_flush": "phases/flush",
    "serving.batcher.rows_per_flush": "rows/flush",
    "serving.service.sim_latency_ms_p50": "sim_ms",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
}

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    **{
        f"{span}.{part}": unit
        for span in SPANS
        for part, unit in (("calls", "count"), ("self_ms", "ms/plan"), ("share", "share"))
    },
    **DERIVED_UNITS,
}
