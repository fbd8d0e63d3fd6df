"""Tests for the telemetry layer: instruments, scopes, export, replay."""

import json

import numpy as np
import pytest

from repro.accel.config import SASConfig
from repro.accel.invariants import check_sas_result
from repro.accel.sas import SASSimulator
from repro.accel.telemetry import (
    Counter,
    Histogram,
    MetricsRegistry,
    Timer,
    TraceEvent,
)
from repro.harness.serialization import (
    load_sas_run,
    load_telemetry,
    save_sas_run,
    save_telemetry,
    sas_result_from_dict,
    sas_result_to_dict,
)
from repro.planning.motion import CDPhase, FunctionMode, MotionRecord


class _FakeChecker:
    def __init__(self, collides):
        self._collides = collides
        self.motion_step = 0.25

    def check_pose(self, q):
        return bool(self._collides(float(np.asarray(q)[0])))


def _make_phase(mode, thresholds, n_poses=12):
    motions = []
    for t in thresholds:
        predicate = (lambda x: False) if t is None else (lambda x, t=t: x >= t)
        motions.append(
            MotionRecord(np.linspace([0.0], [1.0], n_poses), _FakeChecker(predicate))
        )
    return CDPhase(mode, motions)


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_timer_context(self):
        t = Timer()
        with t.time():
            pass
        t.add(0.5)
        assert t.count == 2
        assert t.total_s >= 0.5

    def test_histogram_buckets(self):
        h = Histogram()
        for v in (0, 1, 2, 3, 4, 100):
            h.record(v)
        assert h.count == 6
        assert h.min == 0 and h.max == 100
        assert h.mean == pytest.approx(110 / 6)
        # bucket b holds values of bit length b: 0 -> 0, 1 -> 1, 2-3 -> 2, ...
        assert h.buckets == {0: 1, 1: 1, 2: 2, 3: 1, 7: 1}

    def test_registry_interns_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.timer("t") is reg.timer("t")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.counter_value("missing") == 0


class TestDisabledRegistry:
    def test_disabled_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("x").inc(10)
        reg.histogram("h").record(3)
        with reg.timer("t").time():
            pass
        with reg.scope("phase", "0"):
            pass
        assert reg.counter_value("x") == 0
        assert reg.to_dict()["counters"] == {}
        assert reg.scopes == []

    def test_disabled_instruments_are_shared_noop(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is reg.counter("b") is reg.histogram("c")


class TestScopes:
    def test_scope_attributes_counter_deltas(self):
        reg = MetricsRegistry()
        reg.counter("sas.tests").inc(100)  # pre-existing activity
        with reg.scope("phase", "0:feasibility"):
            reg.counter("sas.tests").inc(7)
            reg.counter("sas.kills").inc(1)
        with reg.scope("phase", "1:complete"):
            reg.counter("sas.tests").inc(3)
        phases = reg.scopes_of("phase")
        assert [s.label for s in phases] == ["0:feasibility", "1:complete"]
        assert phases[0].counters == {"sas.tests": 7, "sas.kills": 1}
        assert phases[1].counters == {"sas.tests": 3}
        assert all(s.duration_s >= 0 for s in phases)

    def test_simulator_emits_phase_scopes(self):
        reg = MetricsRegistry()
        sim = SASSimulator(n_cdus=4, policy="mcsp", telemetry=reg)
        phases = [
            _make_phase(FunctionMode.COMPLETE, [None, 0.5]),
            _make_phase(FunctionMode.FEASIBILITY, [0.2]),
        ]
        sim.run_phases(phases)
        scopes = reg.scopes_of("phase")
        assert [s.label for s in scopes] == ["0:complete", "1:feasibility"]
        total_tests = sum(s.counters.get("sas.tests", 0) for s in scopes)
        assert total_tests == reg.counter_value("sas.tests") > 0


class TestSimulatorCounters:
    def test_counters_match_result(self):
        reg = MetricsRegistry()
        sim = SASSimulator(n_cdus=4, policy="mnp", telemetry=reg)
        result = sim.run(_make_phase(FunctionMode.COMPLETE, [None, 0.4, None]))
        assert reg.counter_value("sas.runs") == 1
        assert reg.counter_value("sas.tests") == result.tests
        assert reg.counter_value("sas.dispatches") == result.tests
        assert reg.counter_value("sas.completions") == result.tests
        assert reg.counter_value("sas.cycles") == result.cycles
        assert reg.counter_value("sas.busy_cycles") == result.busy_cycles
        assert reg.counter_value("sas.kills") == 1

    def test_latency_histogram_populated(self):
        reg = MetricsRegistry()
        sim = SASSimulator(n_cdus=2, policy="np", telemetry=reg)
        result = sim.run(_make_phase(FunctionMode.COMPLETE, [None]))
        h = reg.histogram("sas.query_latency_cycles")
        assert h.count == result.tests
        assert h.min == h.max == 1  # unit latency model


class TestExportRoundTrip:
    def _populated(self):
        reg = MetricsRegistry()
        sim = SASSimulator(n_cdus=4, policy="mcsp", telemetry=reg)
        sim.run_phases(
            [
                _make_phase(FunctionMode.COMPLETE, [None, 0.5]),
                _make_phase(FunctionMode.CONNECTIVITY, [None, None]),
            ]
        )
        reg.timer("wall").add(1.25)
        return reg

    def test_dict_round_trip(self):
        reg = self._populated()
        clone = MetricsRegistry.from_dict(reg.to_dict())
        assert clone.to_dict() == reg.to_dict()

    def test_json_round_trip(self):
        reg = self._populated()
        assert json.loads(reg.to_json()) == reg.to_dict()

    def test_file_round_trip(self, tmp_path):
        reg = self._populated()
        path = str(tmp_path / "telemetry.json")
        save_telemetry(path, reg)
        loaded = load_telemetry(path)
        assert loaded.to_dict() == reg.to_dict()

    def test_csv_export(self, tmp_path):
        reg = self._populated()
        path = str(tmp_path / "telemetry.csv")
        reg.write_csv(path)
        with open(path) as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0] == "metric,name,value,count"
        assert any(line.startswith("counter,sas.tests,") for line in lines)

    def test_telemetry_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"schema": 99, "kind": "telemetry", "payload": {}})
        )
        with pytest.raises(ValueError, match="schema version"):
            load_telemetry(str(path))


class TestSASRunSerialization:
    def _run(self):
        phases = [
            _make_phase(FunctionMode.COMPLETE, [None, 0.5]),
            _make_phase(FunctionMode.FEASIBILITY, [0.2, None]),
        ]
        sim = SASSimulator(
            n_cdus=4, policy="mcsp", config=SASConfig(dispatch_per_cycle=1)
        )
        return sim.run_phases(phases, record_timeline=True), phases, sim.config

    def test_dict_round_trip_bit_identical(self):
        result, _, _ = self._run()
        clone = sas_result_from_dict(sas_result_to_dict(result))
        assert clone == result
        assert clone.timeline == result.timeline
        assert clone.events == result.events
        assert clone.phase_breakdown == result.phase_breakdown

    def test_file_round_trip_and_replay_audit(self, tmp_path):
        """A saved run re-audits cleanly: the replay workflow."""
        result, phases, config = self._run()
        path = str(tmp_path / "sas_run.json")
        save_sas_run(path, result, phases)
        loaded_result, loaded_phases = load_sas_run(path)
        assert loaded_result == result
        assert len(loaded_phases) == len(phases)
        # The invariant checker validates the loaded run against the
        # loaded ground truth without re-running the simulator.
        assert check_sas_result(loaded_result, config=config, phases=loaded_phases) == []

    def test_save_without_phases(self, tmp_path):
        result, _, _ = self._run()
        path = str(tmp_path / "result_only.json")
        save_sas_run(path, result)
        loaded_result, loaded_phases = load_sas_run(path)
        assert loaded_result == result
        assert loaded_phases is None

    def test_trace_event_none_hit_survives(self):
        event = TraceEvent("dispatch", 3, 1, 2, None, 0)
        from repro.harness.serialization import (
            trace_event_from_dict,
            trace_event_to_dict,
        )

        assert trace_event_from_dict(trace_event_to_dict(event)) == event
