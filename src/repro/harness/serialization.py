"""Trace serialization: the artifact-style workflow.

The paper's artifact ships pre-generated trace files (motions, per-pose
collision outcomes, phase boundaries) that drive the SAS/MPAccel simulators
without re-running the planner or the collision substrate.  This module
provides the same workflow: record planner traces once, save them as JSON,
and replay them through any simulator configuration later.

Every file this module writes shares one envelope::

    {"schema": 1, "kind": "traces", "payload": [...]}

``kind`` names what the payload holds (``traces``, ``phases``,
``sas_run``, ``engine_run``, ``fault_schedule``, ``config``, ``scenario``,
``telemetry``, ``traffic_trace``, ``service_report``, ``runtime_report``
or ``fleet_report``).  Reading is strict: the top-level keys must be
exactly those three, the schema must be :data:`FILE_SCHEMA`, and the kind
must be the one the loader reads; any mismatch is refused by name.  The
public ``save_*``/``load_*`` pairs only encode and decode payloads;
:func:`_write` and :func:`_read` are the one place the envelope is made
and checked.  A trace payload is a list of::

    {
      "benchmark_index": 0,
      "result": {"success": true, "nn_inferences": 12, ...},
      "phases": [
        {
          "mode": "feasibility",
          "label": "steer",
          "motions": [{"poses": [[...], ...], "outcomes": [false, ...]}]
        }
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.accel.sas import DispatchEvent, PhaseStats, SASResult
from repro.accel.telemetry import MetricsRegistry, TraceEvent
from repro.harness.reports import check_keys
from repro.harness.traces import QueryTrace
from repro.planning.motion import CDPhase, FunctionMode, MotionRecord
from repro.planning.mpnet import PlanResult
from repro.resilience.faults import FaultEvent, FaultModels, FaultSchedule

if TYPE_CHECKING:
    from repro.planning.engine import PhaseAnswer

#: Envelope version of every file written here; bump on any incompatible
#: payload change.
FILE_SCHEMA = 1

_ENVELOPE_KEYS = ("schema", "kind", "payload")


def _write(path: str, kind: str, payload, indent: Optional[int] = None) -> None:
    """Write ``payload`` inside the file envelope, stamped with ``kind``."""
    envelope = {"schema": FILE_SCHEMA, "kind": kind, "payload": payload}
    with open(path, "w") as handle:
        json.dump(envelope, handle, indent=indent)


def _read(path: str, *kinds: str):
    """Read a file envelope; returns ``(kind, payload)``.

    Refuses, by name, any top-level key other than the envelope's three, a
    missing one, a schema other than :data:`FILE_SCHEMA`, and a kind not in
    ``kinds``.
    """
    with open(path) as handle:
        envelope = json.load(handle)
    if not isinstance(envelope, dict):
        raise ValueError(f"{path} is not a file envelope (a JSON object)")
    check_keys("file envelope", envelope, _ENVELOPE_KEYS)
    if envelope["schema"] != FILE_SCHEMA:
        raise ValueError(
            f"unsupported file schema version {envelope['schema']!r}; "
            f"this build reads schema {FILE_SCHEMA}"
        )
    kind = envelope["kind"]
    if kind not in kinds:
        raise ValueError(
            f"expected a {' or '.join(map(repr, kinds))} file, "
            f"got kind {kind!r}"
        )
    return kind, envelope["payload"]


def phase_to_dict(phase: CDPhase) -> dict:
    """Serialize one phase, forcing ground truth for every pose."""
    return {
        "mode": phase.mode.value,
        "label": phase.label,
        "motions": [
            {
                "poses": motion.poses.tolist(),
                "outcomes": motion.evaluate_all(),
            }
            for motion in phase.motions
        ],
    }


def phase_from_dict(data: dict) -> CDPhase:
    motions = [
        MotionRecord.from_precomputed(
            np.asarray(m["poses"], dtype=float), m["outcomes"]
        )
        for m in data["motions"]
    ]
    return CDPhase(FunctionMode(data["mode"]), motions, data.get("label", ""))


def trace_to_dict(trace: QueryTrace) -> dict:
    result = trace.result
    return {
        "benchmark_index": trace.benchmark_index,
        "result": {
            "success": result.success,
            "nn_inferences": result.nn_inferences,
            "encoder_inferences": result.encoder_inferences,
            "fallback_used": result.fallback_used,
            "replans": result.replans,
            "path": [np.asarray(q, dtype=float).tolist() for q in result.path],
        },
        "phases": [phase_to_dict(p) for p in trace.phases],
    }


def trace_from_dict(data: dict) -> QueryTrace:
    result_data = data["result"]
    result = PlanResult(
        success=result_data["success"],
        path=[np.asarray(q, dtype=float) for q in result_data.get("path", [])],
        nn_inferences=result_data["nn_inferences"],
        encoder_inferences=result_data["encoder_inferences"],
        fallback_used=result_data["fallback_used"],
        replans=result_data["replans"],
    )
    return QueryTrace(
        benchmark_index=data["benchmark_index"],
        result=result,
        phases=[phase_from_dict(p) for p in data["phases"]],
    )


def save_traces(path: str, traces: List[QueryTrace]) -> None:
    """Write traces to a JSON file (ground truth fully evaluated)."""
    _write(path, "traces", [trace_to_dict(t) for t in traces])


def load_traces(path: str) -> List[QueryTrace]:
    """Load traces written by :func:`save_traces`."""
    _, payload = _read(path, "traces")
    return [trace_from_dict(t) for t in payload]


def save_phases(path: str, phases: List[CDPhase]) -> None:
    """Write a bare phase list (no planner metadata)."""
    _write(path, "phases", [phase_to_dict(p) for p in phases])


def load_phases(path: str) -> List[CDPhase]:
    _, payload = _read(path, "phases")
    return [phase_from_dict(p) for p in payload]


# ----------------------------------------------------------------------
# SAS run serialization: a simulated result with its timeline and event
# trace, so a schedule can be saved, inspected offline, and re-audited by
# the invariant checker without re-running the simulator.


def dispatch_event_to_dict(event: DispatchEvent) -> dict:
    return {
        "dispatch_cycle": event.dispatch_cycle,
        "complete_cycle": event.complete_cycle,
        "motion_index": event.motion_index,
        "pose_index": event.pose_index,
        "hit": event.hit,
        "phase": event.phase,
    }


def dispatch_event_from_dict(data: dict) -> DispatchEvent:
    return DispatchEvent(
        dispatch_cycle=int(data["dispatch_cycle"]),
        complete_cycle=int(data["complete_cycle"]),
        motion_index=int(data["motion_index"]),
        pose_index=int(data["pose_index"]),
        hit=bool(data["hit"]),
        phase=int(data.get("phase", 0)),
    )


def trace_event_to_dict(event: TraceEvent) -> dict:
    return {
        "kind": event.kind,
        "cycle": event.cycle,
        "motion_index": event.motion_index,
        "pose_index": event.pose_index,
        "hit": event.hit,
        "phase": event.phase,
    }


def trace_event_from_dict(data: dict) -> TraceEvent:
    hit = data.get("hit")
    return TraceEvent(
        kind=data["kind"],
        cycle=int(data["cycle"]),
        motion_index=int(data.get("motion_index", -1)),
        pose_index=int(data.get("pose_index", -1)),
        hit=None if hit is None else bool(hit),
        phase=int(data.get("phase", 0)),
    )


def phase_stats_to_dict(stats: PhaseStats) -> dict:
    return {
        "index": stats.index,
        "label": stats.label,
        "mode": stats.mode,
        "cycle_offset": stats.cycle_offset,
        "cycles": stats.cycles,
        "tests": stats.tests,
        "energy_pj": stats.energy_pj,
        "busy_cycles": stats.busy_cycles,
        "abandoned_cycles": stats.abandoned_cycles,
        "stopped_early": stats.stopped_early,
        "n_motions": stats.n_motions,
    }


def phase_stats_from_dict(data: dict) -> PhaseStats:
    return PhaseStats(
        index=int(data["index"]),
        label=data["label"],
        mode=data["mode"],
        cycle_offset=int(data["cycle_offset"]),
        cycles=int(data["cycles"]),
        tests=int(data["tests"]),
        energy_pj=float(data["energy_pj"]),
        busy_cycles=int(data["busy_cycles"]),
        abandoned_cycles=int(data["abandoned_cycles"]),
        stopped_early=bool(data["stopped_early"]),
        n_motions=int(data["n_motions"]),
    )


def sas_result_to_dict(result: SASResult) -> dict:
    return {
        "cycles": result.cycles,
        "tests": result.tests,
        "energy_pj": result.energy_pj,
        "motion_outcomes": list(result.motion_outcomes),
        "stopped_early": result.stopped_early,
        "busy_cycles": result.busy_cycles,
        "n_cdus": result.n_cdus,
        "abandoned_cycles": result.abandoned_cycles,
        "phase_count": result.phase_count,
        "phase_breakdown": [phase_stats_to_dict(s) for s in result.phase_breakdown],
        "timeline": [dispatch_event_to_dict(e) for e in result.timeline],
        "events": [trace_event_to_dict(e) for e in result.events],
        "dropped_queries": result.dropped_queries,
        "stalled_queries": result.stalled_queries,
    }


def sas_result_from_dict(data: dict) -> SASResult:
    return SASResult(
        cycles=int(data["cycles"]),
        tests=int(data["tests"]),
        energy_pj=float(data["energy_pj"]),
        motion_outcomes=[
            None if o is None else bool(o) for o in data.get("motion_outcomes", [])
        ],
        stopped_early=bool(data.get("stopped_early", False)),
        busy_cycles=int(data.get("busy_cycles", 0)),
        n_cdus=int(data.get("n_cdus", 1)),
        timeline=[dispatch_event_from_dict(e) for e in data.get("timeline", [])],
        abandoned_cycles=int(data.get("abandoned_cycles", 0)),
        phase_count=int(data.get("phase_count", 1)),
        phase_breakdown=[
            phase_stats_from_dict(s) for s in data.get("phase_breakdown", [])
        ],
        events=[trace_event_from_dict(e) for e in data.get("events", [])],
        dropped_queries=int(data.get("dropped_queries", 0)),
        stalled_queries=int(data.get("stalled_queries", 0)),
    )


def save_sas_run(
    path: str, result: SASResult, phases: Optional[List[CDPhase]] = None
) -> None:
    """Write one SAS run (result + trace), optionally with its input phases.

    Including ``phases`` makes the file self-contained for replay: the
    invariant checker can re-audit the saved schedule against the saved
    ground truth (``repro.accel.invariants.check_sas_result``).
    """
    payload = {"result": sas_result_to_dict(result)}
    if phases is not None:
        payload["phases"] = [phase_to_dict(p) for p in phases]
    _write(path, "sas_run", payload)


def load_sas_run(path: str) -> tuple:
    """Load a saved SAS run; returns ``(result, phases_or_None)``."""
    _, payload = _read(path, "sas_run")
    result = sas_result_from_dict(payload["result"])
    phases = None
    if "phases" in payload:
        phases = [phase_from_dict(p) for p in payload["phases"]]
    return result, phases


# ----------------------------------------------------------------------
# Engine run serialization: the phase stream a planner issued through a
# query engine (labels, function modes, precomputed ground truth) together
# with the per-phase answers and — for SimulatedEngine runs — the inline
# SAS results.  A saved engine run can be re-audited offline: replay the
# phases through any engine and compare answers, or hand each
# (phase, sas_result) pair to ``repro.accel.invariants.check_sas_result``.


@dataclass
class EngineRun:
    """One planner run as seen by its query engine, loaded from disk."""

    engine: str
    phases: List[CDPhase]
    answers: List["PhaseAnswer"]
    sas_results: List[SASResult] = field(default_factory=list)


def save_engine_run(
    path: str,
    recorder,
    sas_results: Optional[List[SASResult]] = None,
) -> None:
    """Write a recorder's phase trace plus the engine's answers.

    ``recorder`` is a :class:`repro.planning.recorder.CDTraceRecorder`
    whose ``phases``/``answers`` lists are serialized in lockstep.  When
    ``sas_results`` is omitted and the recorder's engine is a
    :class:`~repro.planning.engine.SimulatedEngine`, its accumulated
    per-phase results are included automatically, making the file
    self-contained for offline invariant re-audit.
    """
    if sas_results is None:
        sas_results = list(getattr(recorder.engine, "results", []))
    payload = {
        "engine": recorder.engine.name,
        "phases": [phase_to_dict(p) for p in recorder.phases],
        "answers": [list(a.outcomes) for a in recorder.answers],
        "sas_results": [sas_result_to_dict(r) for r in sas_results],
    }
    _write(path, "engine_run", payload)


def load_engine_run(path: str) -> EngineRun:
    """Load an engine run written by :func:`save_engine_run`."""
    from repro.planning.engine import PhaseAnswer

    _, payload = _read(path, "engine_run")
    engine = payload.get("engine", "sequential")
    phases = [phase_from_dict(p) for p in payload["phases"]]
    answers = [
        PhaseAnswer(
            outcomes=[None if o is None else bool(o) for o in outcomes],
            engine=engine,
        )
        for outcomes in payload.get("answers", [])
    ]
    if len(answers) != len(phases):
        raise ValueError(
            f"engine run has {len(phases)} phases but {len(answers)} answers"
        )
    sas_results = [
        sas_result_from_dict(r) for r in payload.get("sas_results", [])
    ]
    return EngineRun(
        engine=engine, phases=phases, answers=answers, sas_results=sas_results
    )


# ----------------------------------------------------------------------
# Fault schedule serialization: the (models, seed) generator key of a
# chaos run plus the log of faults that actually fired.  Because the
# injector is deterministic, a loaded schedule rebuilds an identical
# injector (``FaultSchedule.build_injector``), and the saved event log
# lets a replay be diffed against the original run.


def fault_event_to_dict(event: FaultEvent) -> dict:
    return {
        "site": event.site,
        "kind": event.kind,
        "index": event.index,
        "detail": list(event.detail),
    }


def fault_event_from_dict(data: dict) -> FaultEvent:
    return FaultEvent(
        site=data["site"],
        kind=data["kind"],
        index=int(data["index"]),
        detail=tuple(data.get("detail", [])),
    )


def fault_schedule_to_dict(schedule: FaultSchedule) -> dict:
    return {
        "models": schedule.models.to_dict(),
        "seed": schedule.seed,
        "events": [fault_event_to_dict(e) for e in schedule.events],
    }


def fault_schedule_from_dict(data: dict) -> FaultSchedule:
    return FaultSchedule(
        models=FaultModels.from_dict(data["models"]),
        seed=int(data["seed"]),
        events=[fault_event_from_dict(e) for e in data.get("events", [])],
    )


def save_fault_schedule(path: str, schedule: FaultSchedule) -> None:
    """Write a fault schedule (generator key + fired-event log) as JSON."""
    _write(path, "fault_schedule", fault_schedule_to_dict(schedule), indent=2)


def load_fault_schedule(path: str) -> FaultSchedule:
    """Load a schedule written by :func:`save_fault_schedule`."""
    _, payload = _read(path, "fault_schedule")
    return fault_schedule_from_dict(payload)


# ----------------------------------------------------------------------
# Config serialization: typed configuration bundles (repro.config) as
# versioned JSON.  The payload names its config class, so any of the
# bundle's dataclasses round-trips through the same two functions, and a
# stale or hand-edited file fails loudly: unknown keys are rejected by
# name (listing the valid ones) and enum-like fields are re-validated by
# the dataclass' own __post_init__ (listing the valid choices).


def save_config(path: str, config) -> None:
    """Write any :mod:`repro.config` dataclass as versioned JSON."""
    from repro.config import CONFIG_CLASSES

    name = type(config).__name__
    if name not in CONFIG_CLASSES:
        raise TypeError(
            f"cannot serialize {name}; expected one of {sorted(CONFIG_CLASSES)}"
        )
    payload = {"config_class": name, "config": config.to_dict()}
    _write(path, "config", payload, indent=2)


def load_config(path: str):
    """Load a config written by :func:`save_config` (re-validated fully)."""
    from repro.config import CONFIG_CLASSES, config_from_dict

    _, payload = _read(path, "config")
    name = payload.get("config_class")
    cls = CONFIG_CLASSES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown config class {name!r}; expected one of {sorted(CONFIG_CLASSES)}"
        )
    return config_from_dict(cls, payload["config"])


# ----------------------------------------------------------------------
# Scenario serialization: frozen benchmark instances (repro.scenarios) as
# versioned JSON.  A scenario file holds only the spec — (name, family,
# seed, params) — because the instance is a pure function of it:
# ``build_scenario(load_scenario(path))`` regenerates the scene, octree,
# robot placement, and query set bit-identically.  Loading re-validates
# everything through ``ScenarioSpec.from_dict`` (unknown keys, unknown
# families/params, out-of-band values all rejected by name).


def save_scenario(path: str, spec) -> None:
    """Write a :class:`repro.scenarios.ScenarioSpec` as versioned JSON."""
    from repro.scenarios.dsl import ScenarioSpec

    if not isinstance(spec, ScenarioSpec):
        raise TypeError(
            f"save_scenario expects a ScenarioSpec, got {type(spec).__name__}"
        )
    _write(path, "scenario", spec.to_dict(), indent=2)


def load_scenario(path: str):
    """Load a spec written by :func:`save_scenario` (re-validated fully)."""
    from repro.scenarios.dsl import ScenarioSpec

    _, payload = _read(path, "scenario")
    return ScenarioSpec.from_dict(payload)


# ----------------------------------------------------------------------
# Telemetry export: registry snapshots as JSON artifacts (the perf CI job
# uploads these).


def save_telemetry(path: str, registry: MetricsRegistry) -> None:
    _write(path, "telemetry", registry.to_dict(), indent=2)


def load_telemetry(path: str) -> MetricsRegistry:
    _, payload = _read(path, "telemetry")
    return MetricsRegistry.from_dict(payload)


# ----------------------------------------------------------------------
# Traffic traces: seeded arrival schedules for overload serving
# experiments (repro.serving.traffic), saved like fault schedules — the
# file carries the generating spec *and* the expanded events, and loading
# re-validates that the events match the spec's regeneration so a
# hand-edited trace cannot silently drift from its seed.


def save_traffic_trace(path: str, trace) -> None:
    from repro.serving.traffic import TrafficTrace

    if not isinstance(trace, TrafficTrace):
        raise TypeError(
            f"save_traffic_trace expects a TrafficTrace, got "
            f"{type(trace).__name__}"
        )
    payload = {
        "spec": trace.spec.to_dict(),
        "events": [event.to_dict() for event in trace.events],
    }
    _write(path, "traffic_trace", payload, indent=2)


def load_traffic_trace(path: str):
    from repro.serving.traffic import TrafficEvent, TrafficSpec, TrafficTrace

    _, payload = _read(path, "traffic_trace")
    spec = TrafficSpec.from_dict(payload["spec"])
    events = tuple(TrafficEvent.from_dict(event) for event in payload["events"])
    trace = TrafficTrace(spec=spec, events=events)
    if trace != spec.generate():
        raise ValueError(
            "traffic trace events do not match the spec's regeneration "
            "(tampered or truncated file)"
        )
    return trace


# ----------------------------------------------------------------------
# Report serialization: the common report protocol.  ServiceReport,
# RuntimeReport, and FleetReport each serialize their own fields through
# to_dict/from_dict (unknown and missing keys rejected by name); the
# envelope's kind says which class reads the payload, so one loader reads
# all three.


def _report_registry() -> dict:
    # Lazy: the report classes live above the harness in the layering
    # (serving/accel import nothing from harness at module scope, and the
    # harness only touches them when a report file is actually handled).
    from repro.accel.runtime import RuntimeReport
    from repro.serving.fleet import FleetReport
    from repro.serving.service import ServiceReport

    return {
        "service_report": ServiceReport,
        "runtime_report": RuntimeReport,
        "fleet_report": FleetReport,
    }


def save_report(path: str, report) -> None:
    """Write a Service/Runtime/Fleet report as versioned JSON."""
    registry = _report_registry()
    kind = next(
        (k for k, cls in registry.items() if type(report) is cls), None
    )
    if kind is None:
        expected = sorted(cls.__name__ for cls in registry.values())
        raise TypeError(
            f"cannot serialize {type(report).__name__} as a report; "
            f"expected one of {expected}"
        )
    _write(path, kind, report.to_dict(), indent=2)


def load_report(path: str):
    """Load a report written by :func:`save_report` (strictly validated)."""
    registry = _report_registry()
    kind, payload = _read(path, *registry)
    return registry[kind].from_dict(payload)
