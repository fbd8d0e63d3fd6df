"""Tests for trace serialization and replay (the artifact workflow)."""

import numpy as np
import pytest

from repro.accel.sas import SASSimulator
from repro.harness.serialization import (
    load_phases,
    load_traces,
    phase_from_dict,
    phase_to_dict,
    save_phases,
    save_traces,
)
from repro.harness.traces import QueryTrace
from repro.planning.motion import CDPhase, FunctionMode, MotionRecord
from repro.planning.mpnet import PlanResult
from repro.planning.recorder import CDTraceRecorder


@pytest.fixture()
def recorded(jaco_checker, rng):
    recorder = CDTraceRecorder(jaco_checker)
    q_a = jaco_checker.sample_free_configuration(rng)
    q_b = jaco_checker.sample_free_configuration(rng)
    q_c = jaco_checker.sample_free_configuration(rng)
    recorder.steer(q_a, q_b)
    recorder.connectivity(q_a, [q_b, q_c])
    recorder.feasibility([q_a, q_c, q_b])
    return recorder.phases


class TestPhaseRoundtrip:
    def test_roundtrip_preserves_structure(self, recorded):
        for phase in recorded:
            data = phase_to_dict(phase)
            restored = phase_from_dict(data)
            assert restored.mode is phase.mode
            assert restored.label == phase.label
            assert len(restored.motions) == len(phase.motions)
            for original, loaded in zip(phase.motions, restored.motions):
                assert np.allclose(original.poses, loaded.poses)

    def test_roundtrip_preserves_outcomes(self, recorded):
        phase = recorded[-1]
        restored = phase_from_dict(phase_to_dict(phase))
        for original, loaded in zip(phase.motions, restored.motions):
            for index in range(original.num_poses):
                assert loaded.pose_collides(index) == original.pose_collides(index)

    def test_restored_phase_needs_no_checker(self, recorded):
        restored = phase_from_dict(phase_to_dict(recorded[0]))
        # Every pose answers without touching any collision substrate.
        for motion in restored.motions:
            assert motion.evaluate_all() is not None

    def test_sas_results_identical_on_replay(self, recorded):
        sim = SASSimulator(n_cdus=8, policy="mcsp")
        for phase in recorded:
            original = sim.run(phase)
            replayed = sim.run(phase_from_dict(phase_to_dict(phase)))
            assert replayed.cycles == original.cycles
            assert replayed.tests == original.tests
            assert replayed.motion_outcomes == original.motion_outcomes


class TestFileRoundtrip:
    def test_phases_file(self, recorded, tmp_path):
        path = str(tmp_path / "phases.json")
        save_phases(path, list(recorded))
        loaded = load_phases(path)
        assert len(loaded) == len(recorded)
        assert loaded[0].mode is recorded[0].mode

    def test_traces_file(self, recorded, tmp_path):
        trace = QueryTrace(
            benchmark_index=3,
            result=PlanResult(
                success=True,
                path=[np.zeros(6), np.ones(6)],
                nn_inferences=4,
                encoder_inferences=1,
                fallback_used=True,
                replans=2,
            ),
            phases=list(recorded),
        )
        path = str(tmp_path / "traces.json")
        save_traces(path, [trace])
        loaded = load_traces(path)
        assert len(loaded) == 1
        restored = loaded[0]
        assert restored.benchmark_index == 3
        assert restored.result.success
        assert restored.result.nn_inferences == 4
        assert restored.result.fallback_used
        assert restored.result.replans == 2
        assert np.allclose(restored.result.path[1], np.ones(6))
        assert len(restored.phases) == len(recorded)

    def test_version_check(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            handle.write('{"schema": 99, "kind": "phases", "payload": []}')
        with pytest.raises(ValueError):
            load_phases(path)


class TestPrecomputedMotions:
    def test_from_precomputed_validation(self):
        poses = np.zeros((3, 2))
        with pytest.raises(ValueError):
            MotionRecord.from_precomputed(poses, [False])

    def test_missing_outcome_without_checker_raises(self):
        motion = MotionRecord(np.zeros((3, 2)), checker=None)
        with pytest.raises(RuntimeError):
            motion.pose_collides(0)

    def test_precomputed_phase_sequential_reference(self):
        motion = MotionRecord.from_precomputed(
            np.linspace([0.0], [1.0], 5), [False, False, True, False, False]
        )
        phase = CDPhase(FunctionMode.FEASIBILITY, [motion])
        ref = phase.sequential_reference()
        assert ref.tests == 3  # stops at the colliding pose
        assert ref.outcomes == [True]


class TestTracegenCLI:
    def test_cli_writes_file(self, tmp_path, capsys):
        from repro.harness.tracegen import main

        out = str(tmp_path / "t.json")
        code = main(
            [
                "--robot", "jaco2",
                "--envs", "1",
                "--queries", "1",
                "--out", out,
            ]
        )
        assert code == 0
        loaded = load_traces(out)
        assert loaded and loaded[0].phases
        assert "wrote" in capsys.readouterr().out


class TestEngineRunRoundtrip:
    """save_engine_run/load_engine_run: planner phase streams with their
    engine answers (and inline SAS results) survive a disk round trip and
    can be re-audited offline."""

    def _record(self, jaco_checker, rng, engine=None):
        recorder = CDTraceRecorder(jaco_checker, engine=engine)
        q_a = jaco_checker.sample_free_configuration(rng)
        q_b = jaco_checker.sample_free_configuration(rng)
        q_c = jaco_checker.sample_free_configuration(rng)
        recorder.steer(q_a, q_b, label="s")
        recorder.connectivity(q_a, [q_b, q_c], label="c")
        recorder.complete([(q_a, q_b), (q_b, q_c)], label="k")
        return recorder

    def test_roundtrip_preserves_answers_and_labels(
        self, jaco_checker, rng, tmp_path
    ):
        from repro.harness.serialization import load_engine_run, save_engine_run

        recorder = self._record(jaco_checker, rng)
        path = str(tmp_path / "run.json")
        save_engine_run(path, recorder)
        run = load_engine_run(path)
        assert run.engine == "sequential"
        assert run.sas_results == []
        assert len(run.phases) == len(recorder.phases) == 3
        assert [p.label for p in run.phases] == ["s", "c", "k"]
        assert [p.mode for p in run.phases] == [p.mode for p in recorder.phases]
        assert [a.outcomes for a in run.answers] == [
            list(a.outcomes) for a in recorder.answers
        ]

    def test_loaded_answers_match_sequential_reference(
        self, jaco_checker, rng, tmp_path
    ):
        from repro.harness.serialization import load_engine_run, save_engine_run

        recorder = self._record(jaco_checker, rng)
        path = str(tmp_path / "run.json")
        save_engine_run(path, recorder)
        run = load_engine_run(path)
        # The loaded phases carry full precomputed ground truth, so any
        # engine can re-answer them offline; the stored answers must match
        # the sequential reference (the semantics contract).
        for phase, answer in zip(run.phases, run.answers):
            assert answer.outcomes == list(phase.sequential_reference().outcomes)

    def test_simulated_run_reaudits_offline(self, jaco_checker, rng, tmp_path):
        from repro.accel.invariants import check_sas_result
        from repro.harness.serialization import load_engine_run, save_engine_run
        from repro.planning.engine import SimulatedEngine

        engine = SimulatedEngine(jaco_checker, n_cdus=4, seed=9)
        recorder = self._record(jaco_checker, rng, engine=engine)
        path = str(tmp_path / "sim_run.json")
        save_engine_run(path, recorder)  # pulls engine.results automatically
        run = load_engine_run(path)
        assert run.engine == "simulated"
        assert len(run.sas_results) == len(run.phases) == 3
        for phase, result in zip(run.phases, run.sas_results):
            assert check_sas_result(result, phases=[phase]) == []
        assert [r.cycles for r in run.sas_results] == [
            r.cycles for r in engine.results
        ]

    def test_mismatched_answer_count_rejected(self, tmp_path):
        import json

        from repro.harness.serialization import load_engine_run

        run = {
            "engine": "sequential",
            "phases": [
                {
                    "mode": "feasibility",
                    "label": "x",
                    "motions": [
                        {"poses": [[0.0], [1.0]], "outcomes": [False, False]}
                    ],
                }
            ],
            "answers": [],
        }
        path = str(tmp_path / "bad_run.json")
        with open(path, "w") as handle:
            json.dump({"schema": 1, "kind": "engine_run", "payload": run}, handle)
        with pytest.raises(ValueError, match="answers"):
            load_engine_run(path)


# ----------------------------------------------------------------------
# The file envelope: every kind this module saves is written as
# {"schema", "kind", "payload"} and read back strictly.


def _envelope_samples(checker) -> dict:
    """kind -> (save, load, a small object of that kind)."""
    from repro.accel.runtime import RuntimeReport
    from repro.accel.sas import SASResult
    from repro.accel.telemetry import MetricsRegistry
    from repro.config import ReproConfig
    from repro.harness import serialization as ser
    from repro.resilience.faults import FaultModels, FaultSchedule
    from repro.scenarios import ScenarioSpec
    from repro.serving import FleetReport, ServiceReport
    from repro.serving.traffic import TrafficSpec

    report_fields = dict(
        responses={},
        sim_ms=0.0,
        rounds=0,
        dispatches=0,
        phases_answered=0,
        poses_dispatched=0,
        cache_counters=None,
    )
    return {
        "traces": (ser.save_traces, ser.load_traces, []),
        "phases": (ser.save_phases, ser.load_phases, []),
        "sas_run": (
            ser.save_sas_run,
            ser.load_sas_run,
            SASResult(cycles=4, tests=2, energy_pj=1.5),
        ),
        "engine_run": (
            ser.save_engine_run,
            ser.load_engine_run,
            CDTraceRecorder(checker),
        ),
        "fault_schedule": (
            ser.save_fault_schedule,
            ser.load_fault_schedule,
            FaultSchedule(FaultModels(), seed=3),
        ),
        "config": (ser.save_config, ser.load_config, ReproConfig()),
        "scenario": (
            ser.save_scenario,
            ser.load_scenario,
            ScenarioSpec("envelope", "moving_obstacles"),
        ),
        "telemetry": (ser.save_telemetry, ser.load_telemetry, MetricsRegistry()),
        "traffic_trace": (
            ser.save_traffic_trace,
            ser.load_traffic_trace,
            TrafficSpec(n_requests=3).generate(),
        ),
        "service_report": (
            ser.save_report,
            ser.load_report,
            ServiceReport(**report_fields),
        ),
        "runtime_report": (ser.save_report, ser.load_report, RuntimeReport()),
        "fleet_report": (
            ser.save_report,
            ser.load_report,
            FleetReport(**report_fields, n_shards=2),
        ),
    }


ENVELOPE_KINDS = [
    "traces",
    "phases",
    "sas_run",
    "engine_run",
    "fault_schedule",
    "config",
    "scenario",
    "telemetry",
    "traffic_trace",
    "service_report",
    "runtime_report",
    "fleet_report",
]


def _saved_envelope(kind, checker, tmp_path):
    import json

    save, load, sample = _envelope_samples(checker)[kind]
    path = str(tmp_path / f"{kind}.json")
    save(path, sample)
    with open(path) as handle:
        return path, load, json.load(handle)


@pytest.mark.parametrize("kind", ENVELOPE_KINDS)
def test_envelope_names_kind(kind, jaco_checker, tmp_path):
    from repro.harness.serialization import FILE_SCHEMA

    path, load, envelope = _saved_envelope(kind, jaco_checker, tmp_path)
    assert set(envelope) == {"schema", "kind", "payload"}
    assert envelope["schema"] == FILE_SCHEMA
    assert envelope["kind"] == kind
    load(path)


@pytest.mark.parametrize(
    "case", ["unknown_key", "wrong_schema", "wrong_kind", "missing_payload"]
)
@pytest.mark.parametrize("kind", ENVELOPE_KINDS)
def test_envelope_refuses_malformed(kind, case, jaco_checker, tmp_path):
    import json

    path, load, envelope = _saved_envelope(kind, jaco_checker, tmp_path)
    if case == "unknown_key":
        envelope["checksum"] = "abc"
        name = "checksum"
    elif case == "wrong_schema":
        envelope["schema"] = 99
        name = "schema"
    elif case == "wrong_kind":
        name = "phases" if kind == "traces" else "traces"
        envelope["kind"] = name
    else:
        del envelope["payload"]
        name = "payload"
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    with pytest.raises(ValueError, match=name):
        load(path)
