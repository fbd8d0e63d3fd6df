"""Report protocol: lossless round trips and strict rejection.

ServiceReport, RuntimeReport, and FleetReport (a ServiceReport with three
shard fields) share one serialization convention: ``to_dict`` holds only
the report's fields, every key validated by name on the way back in
(``repro.harness.reports.check_keys``), and the file envelope of
``save_report``/``load_report`` names the kind.  These tests run real
workloads to produce non-trivial reports, round-trip them through the
file envelope, and pin the failure modes — unknown keys, missing keys,
wrong kind, wrong schema — all rejected with the offending names in the
message.  The envelope itself is checked for every file kind in
``tests/test_harness_serialization.py``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.accel.runtime import RuntimeReport, TickReport
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import FleetConfig, ReproConfig
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.harness.reports import check_keys
from repro.harness.serialization import FILE_SCHEMA, load_report, save_report
from repro.robot.presets import planar_arm
from repro.serving import (
    FleetReport,
    PlanningFleet,
    PlanningService,
    PlanRequest,
    PlanResponse,
    ServiceReport,
)


@pytest.fixture(scope="module")
def world():
    scene = random_scene(seed=1)
    octree = Octree.from_scene(scene, resolution=16)
    return scene, octree, planar_arm()


@pytest.fixture(scope="module")
def requests(world):
    _, octree, robot = world
    checker = RobotEnvironmentChecker.from_config(robot, octree, ReproConfig())
    rng = np.random.default_rng(7)
    poses = [checker.sample_free_configuration(rng) for _ in range(4)]
    return [
        PlanRequest("rc-0", poses[0], poses[1], planner="rrt_connect", seed=100),
        PlanRequest("rrt-1", poses[2], poses[3], planner="rrt", seed=101),
    ]


@pytest.fixture(scope="module")
def service_report(world, requests):
    _, octree, robot = world
    service = PlanningService(robot, octree, config=ReproConfig.for_service())
    for request in requests:
        service.submit(request)
    return service.run()


@pytest.fixture(scope="module")
def fleet_report(world, requests):
    _, octree, robot = world
    fleet = PlanningFleet(
        robot,
        octree,
        config=ReproConfig.for_fleet(fleet=FleetConfig(n_shards=2)),
    )
    for request in requests:
        fleet.submit(request)
    return fleet.run()


@pytest.fixture(scope="module")
def runtime_report():
    ticks = [
        TickReport(
            tick=0,
            replanned=True,
            plan_valid=True,
            planning_ms=3.5,
            phases=12,
            poses_checked=180,
            octree_update_ms=0.4,
            degradation="full",
            faults=1,
            retries=1,
        ),
        TickReport(
            tick=1,
            replanned=False,
            plan_valid=True,
            planning_ms=0.2,
            phases=2,
            poses_checked=14,
            deadline_miss=True,
            stale_octree=True,
        ),
    ]
    final_path = [np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.5, 0.75])]
    return RuntimeReport(ticks=ticks, final_path=final_path)


def _response_fingerprint(resp: PlanResponse):
    path = None if resp.path is None else [q.tolist() for q in resp.path]
    return (
        resp.request_id,
        resp.success,
        path,
        resp.status,
        resp.num_phases,
        resp.stats.as_dict(),
        resp.completed_ms,
        resp.deadline_missed,
        resp.client_id,
    )


class TestServiceReportRoundTrip:
    def test_file_round_trip_is_lossless(self, service_report, tmp_path):
        path = tmp_path / "service.json"
        save_report(str(path), service_report)
        loaded = load_report(str(path))
        assert isinstance(loaded, ServiceReport)
        assert loaded.to_dict() == service_report.to_dict()
        assert set(loaded.responses) == set(service_report.responses)
        for rid, resp in service_report.responses.items():
            assert _response_fingerprint(loaded.responses[rid]) == (
                _response_fingerprint(resp)
            )
        assert loaded.sim_ms == service_report.sim_ms
        assert loaded.goodput == service_report.goodput

    def test_unknown_key_rejected_by_name(self, service_report):
        data = service_report.to_dict()
        data["surprise_field"] = 1
        with pytest.raises(ValueError, match="surprise_field"):
            ServiceReport.from_dict(data)

    def test_missing_key_rejected_by_name(self, service_report):
        data = service_report.to_dict()
        del data["rounds"]
        with pytest.raises(ValueError, match="rounds"):
            ServiceReport.from_dict(data)

    def test_response_unknown_key_rejected(self, service_report):
        rid, resp = next(iter(service_report.responses.items()))
        data = resp.to_dict()
        data["bogus"] = True
        with pytest.raises(ValueError, match="bogus"):
            PlanResponse.from_dict(data)


class TestFleetReportRoundTrip:
    def test_file_round_trip_is_lossless(self, fleet_report, tmp_path):
        path = tmp_path / "fleet.json"
        save_report(str(path), fleet_report)
        loaded = load_report(str(path))
        assert type(loaded) is FleetReport
        assert loaded.to_dict() == fleet_report.to_dict()
        assert loaded.n_shards == fleet_report.n_shards
        assert loaded.shard_sim_ms == fleet_report.shard_sim_ms
        assert loaded.shard_summaries == fleet_report.shard_summaries
        assert loaded.cache_counters == fleet_report.cache_counters
        for rid, resp in fleet_report.responses.items():
            assert _response_fingerprint(loaded.responses[rid]) == (
                _response_fingerprint(resp)
            )
        assert loaded.goodput == fleet_report.goodput
        assert loaded.goodput_per_sim_s == fleet_report.goodput_per_sim_s

    def test_fleet_report_adds_only_shard_fields(self, fleet_report):
        assert isinstance(fleet_report, ServiceReport)
        extra = {f.name for f in dataclasses.fields(FleetReport)} - {
            f.name for f in dataclasses.fields(ServiceReport)
        }
        assert extra == {"n_shards", "shard_sim_ms", "shard_summaries"}
        assert set(fleet_report.to_dict()) == {
            f.name for f in dataclasses.fields(FleetReport)
        }

    def test_unknown_key_rejected_by_name(self, fleet_report):
        data = fleet_report.to_dict()
        data["shard_count"] = 9
        with pytest.raises(ValueError, match="shard_count"):
            FleetReport.from_dict(data)


class TestRuntimeReportRoundTrip:
    def test_file_round_trip_is_lossless(self, runtime_report, tmp_path):
        path = tmp_path / "runtime.json"
        save_report(str(path), runtime_report)
        loaded = load_report(str(path))
        assert isinstance(loaded, RuntimeReport)
        assert loaded.to_dict() == runtime_report.to_dict()
        assert len(loaded.ticks) == 2
        for got, want in zip(loaded.ticks, runtime_report.ticks):
            assert got == want
        assert len(loaded.final_path) == 2
        for got, want in zip(loaded.final_path, runtime_report.final_path):
            assert np.array_equal(got, want)

    def test_tick_unknown_key_rejected(self, runtime_report):
        data = runtime_report.ticks[0].to_dict()
        data["jitter_ms"] = 0.1
        with pytest.raises(ValueError, match="jitter_ms"):
            TickReport.from_dict(data)

    def test_unknown_key_rejected_by_name(self, runtime_report):
        data = runtime_report.to_dict()
        data["energy"] = {}
        with pytest.raises(ValueError, match="energy"):
            RuntimeReport.from_dict(data)


class TestFileEnvelope:
    def test_unknown_envelope_key_rejected(self, runtime_report, tmp_path):
        path = tmp_path / "runtime.json"
        save_report(str(path), runtime_report)
        payload = json.loads(path.read_text())
        payload["checksum"] = "abc"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="checksum"):
            load_report(str(path))

    def test_version_mismatch_rejected(self, runtime_report, tmp_path):
        path = tmp_path / "runtime.json"
        save_report(str(path), runtime_report)
        payload = json.loads(path.read_text())
        payload["schema"] = FILE_SCHEMA + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            load_report(str(path))

    def test_unknown_kind_rejected(self, runtime_report, tmp_path):
        path = tmp_path / "runtime.json"
        save_report(str(path), runtime_report)
        payload = json.loads(path.read_text())
        payload["kind"] = "telemetry_report"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="telemetry_report"):
            load_report(str(path))

    def test_missing_report_body_rejected(self, runtime_report, tmp_path):
        path = tmp_path / "runtime.json"
        save_report(str(path), runtime_report)
        payload = json.loads(path.read_text())
        del payload["payload"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="payload"):
            load_report(str(path))

    def test_save_report_rejects_foreign_types(self, tmp_path):
        with pytest.raises(TypeError, match="FleetReport"):
            save_report(str(tmp_path / "x.json"), {"not": "a report"})


class TestProtocolHelpers:
    def test_check_keys_lists_every_offender(self):
        with pytest.raises(ValueError, match="x.*z"):
            check_keys("demo", {"x": 1, "z": 2, "a": 0}, ("a",))
