"""Overload-grade serving: traffic models, shedding, fairness, preemption.

The overload contract: a fixed seed fixes the arrival trace, the shed set,
and every *surviving* request's path/verdicts/stats bit-identically to the
solo sequential reference; with every overload knob at its default the
service reproduces the pre-overload behavior exactly (pinned by
``tests/test_serving.py`` continuing to pass unmodified).  These tests pin
the traffic generator's determinism and serialization, each typed shed
reason, deficit-round-robin no-starvation, energy-budget preemption,
FIFO-stable queue ordering, epoch-grouped flushing, and the per-status
latency/throughput edge cases.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collision.checker import RobotEnvironmentChecker
from repro.config import ReproConfig, ServiceConfig
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.harness.serialization import load_traffic_trace, save_traffic_trace
from repro.planning.queries import CDQuery
from repro.resilience.degradation import DegradationLevel
from repro.serving import (
    DeficitRoundRobin,
    PlanningService,
    PlanRequest,
    TrafficSpec,
    group_pending_by_epoch,
    overload_level,
    requests_from_trace,
)

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def world():
    from repro.robot.presets import planar_arm

    scene = random_scene(seed=1)
    octree = Octree.from_scene(scene, resolution=16)
    return scene, octree, planar_arm()


@pytest.fixture(scope="module")
def free_configs(world):
    _, octree, robot = world
    checker = RobotEnvironmentChecker.from_config(robot, octree, ReproConfig())
    rng = np.random.default_rng(7)
    return [checker.sample_free_configuration(rng) for _ in range(4)]


def _stub_factory(n_phases):
    """A planner stub issuing ``n_phases`` steer queries then succeeding.

    Keeps overload tests independent of planner runtime variance: the
    work per request is exact and tiny.
    """

    def factory(recorder):
        class _Stub:
            def plan_steps(self, q_start, q_goal, rng):
                for i in range(n_phases):
                    yield CDQuery.steer(q_start, q_goal, label=f"stub-{i}")
                return [q_start, q_goal]

        return _Stub()

    return factory


def _stub_request(rid, configs, n_phases=2, **kwargs):
    return PlanRequest(
        rid,
        configs[0],
        configs[1],
        planner_factory=_stub_factory(n_phases),
        **kwargs,
    )


def _sequential_config(**service_kwargs):
    service_kwargs.setdefault("mode", "sequential")
    return ReproConfig(service=ServiceConfig(**service_kwargs))


# ----------------------------------------------------------------------
# Traffic model: determinism, serialization, validation.


class TestTraffic:
    @pytest.mark.parametrize("kind", ["poisson", "onoff"])
    def test_trace_is_pure_function_of_seed(self, kind):
        spec = TrafficSpec(kind=kind, seed=11, n_requests=50, n_clients=3)
        a, b = spec.generate(), spec.generate()
        assert a == b
        assert a.events[0].arrival_ms >= 0.0
        assert all(
            x.arrival_ms <= y.arrival_ms
            for x, y in zip(a.events, a.events[1:])
        )

    def test_different_seeds_differ(self):
        a = TrafficSpec(seed=1, n_requests=30).generate()
        b = TrafficSpec(seed=2, n_requests=30).generate()
        assert a != b

    def test_sizes_stay_in_band(self):
        spec = TrafficSpec(seed=5, n_requests=200, size_min=1.0, size_max=8.0)
        sizes = [event.size for event in spec.generate().events]
        assert min(sizes) >= 1.0 and max(sizes) <= 8.0
        # Heavy tail: most mass near the minimum.
        assert sorted(sizes)[len(sizes) // 2] < 2.5

    def test_hot_fraction_routes_to_client_zero(self):
        spec = TrafficSpec(
            seed=3, n_requests=100, n_clients=4, hot_fraction=0.9
        )
        clients = [event.client_id for event in spec.generate().events]
        assert clients.count("client-0") > 60

    def test_file_roundtrip_and_tamper_rejection(self, tmp_path):
        spec = TrafficSpec(kind="onoff", seed=4, n_requests=20)
        trace = spec.generate()
        path = os.path.join(str(tmp_path), "trace.json")
        save_traffic_trace(path, trace)
        assert load_traffic_trace(path) == trace
        with open(path) as handle:
            payload = json.load(handle)
        payload["payload"]["events"][3]["client_id"] = "client-99"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="regeneration"):
            load_traffic_trace(path)

    def test_spec_validation_rejects_by_name(self):
        with pytest.raises(ValueError, match="teleport"):
            TrafficSpec(kind="teleport")
        with pytest.raises(ValueError, match="rate_rps"):
            TrafficSpec(rate_rps=0.0)
        with pytest.raises(ValueError, match="bogus"):
            TrafficSpec.from_dict({"kind": "poisson", "bogus": 1})

    def test_requests_from_trace_carries_client_and_size(self, free_configs):
        spec = TrafficSpec(seed=9, n_requests=10, deadline_ms=25.0)
        pairs = [(free_configs[0], free_configs[1])]
        materialized = requests_from_trace(spec.generate(), pairs)
        assert len(materialized) == 10
        request, arrival_ms = materialized[0]
        assert request.client_id.startswith("client-")
        assert request.size >= 1.0
        assert request.deadline_ms == 25.0
        assert arrival_ms >= 0.0


# ----------------------------------------------------------------------
# Admission gates: every shed is typed, deterministic, and planner-free.


class TestShedding:
    def test_queue_full_sheds_typed(self, world, free_configs):
        _, octree, robot = world
        config = _sequential_config(
            admission_control=True, max_queue_depth=2, max_inflight=1
        )
        service = PlanningService(robot, octree, config=config)
        for i in range(5):
            service.submit(_stub_request(f"r{i}", free_configs))
        report = service.run()
        shed = [r for r in report.responses.values() if r.status == "shed"]
        assert shed and all(r.shed_reason == "queue_full" for r in shed)
        assert all(r.path is None and not r.success for r in shed)
        assert all(r.num_phases == 0 for r in shed)
        assert report.shed_counts["queue_full"] == len(shed)
        assert report.status_counts["shed"] == len(shed)
        # The overload ladder was observed at the arrival gates.
        assert sum(report.overload_histogram.values()) == 5

    def test_provably_infeasible_deadline_shed_at_admission(
        self, world, free_configs
    ):
        _, octree, robot = world
        config = _sequential_config(admission_control=True)
        service = PlanningService(robot, octree, config=config)
        # floor_ms = dispatch_overhead_us/1e3 = 0.025ms; this deadline is
        # below one dispatch, hence provably infeasible.
        service.submit(
            _stub_request("doomed", free_configs, deadline_ms=0.01)
        )
        service.submit(_stub_request("fine", free_configs))
        report = service.run()
        doomed = report.responses["doomed"]
        assert doomed.status == "shed"
        assert doomed.shed_reason == "infeasible_deadline"
        assert doomed.deadline_missed
        assert report.responses["fine"].status == "completed"

    def test_expired_in_queue_shed_at_dequeue(self, world, free_configs):
        _, octree, robot = world
        config = _sequential_config(
            admission_control=True, max_inflight=1
        )
        service = PlanningService(robot, octree, config=config)
        # The first request burns >1ms of simulated clock (40 phases *
        # ~26us each); the second's 0.5ms deadline expires while queued.
        service.submit(_stub_request("long", free_configs, n_phases=40))
        service.submit(
            _stub_request("expired", free_configs, deadline_ms=0.5)
        )
        report = service.run()
        expired = report.responses["expired"]
        assert expired.status == "shed"
        assert expired.shed_reason == "expired_in_queue"
        assert report.responses["long"].status == "completed"

    def test_best_effort_shed_under_overload(self, world, free_configs):
        _, octree, robot = world
        config = _sequential_config(
            admission_control=True, max_queue_depth=4, max_inflight=1
        )
        service = PlanningService(robot, octree, config=config)
        # Fill the queue to >=75% of the bound, then offer a best-effort
        # (priority>0) request: it is refused at the degraded rung.
        for i in range(3):
            service.submit(_stub_request(f"base-{i}", free_configs))
        service.submit(
            _stub_request("best-effort", free_configs, priority=5)
        )
        report = service.run()
        refused = report.responses["best-effort"]
        assert refused.status == "shed"
        assert refused.shed_reason == "best_effort_overload"

    def test_shed_set_is_deterministic(self, world, free_configs):
        _, octree, robot = world
        spec = TrafficSpec(
            kind="onoff",
            seed=21,
            n_requests=30,
            burst_rate_rps=20_000.0,
            deadline_ms=1.0,
        )
        pairs = [(free_configs[0], free_configs[1])]

        def drain():
            config = _sequential_config(
                admission_control=True, max_queue_depth=3, max_inflight=1
            )
            service = PlanningService(robot, octree, config=config)
            for request, arrival_ms in requests_from_trace(
                spec.generate(), pairs
            ):
                request.planner_factory = _stub_factory(3)
                service.submit(request, arrival_ms=arrival_ms)
            report = service.run()
            return (
                {r.request_id: (r.status, r.shed_reason) for r in report.responses.values()},
                report.sim_ms,
                report.shed_counts,
            )

        first, second = drain(), drain()
        assert first == second
        statuses = {status for status, _ in first[0].values()}
        assert "shed" in statuses and "completed" in statuses

    def test_batched_overload_survivors_match_solo_reference(
        self, world, free_configs
    ):
        """Batched mode under overload: the shed set is deterministic and
        every surviving request is still bit-identical to its solo
        sequential scalar cache-off reference."""
        from repro.planning.recorder import CDTraceRecorder
        from repro.planning.rrt_connect import RRTConnectPlanner

        _, octree, robot = world
        spec = TrafficSpec(
            kind="onoff",
            seed=33,
            n_requests=12,
            burst_rate_rps=50_000.0,
            deadline_ms=0.5,
        )
        pairs = [
            (free_configs[0], free_configs[1]),
            (free_configs[2], free_configs[3]),
        ]

        def drain():
            config = ReproConfig.for_service(
                service=ServiceConfig(
                    mode="batched",
                    admission_control=True,
                    max_queue_depth=2,
                    max_inflight=1,
                )
            )
            service = PlanningService(robot, octree, config=config)
            for request, arrival_ms in requests_from_trace(
                spec.generate(), pairs
            ):
                service.submit(request, arrival_ms=arrival_ms)
            return service.run()

        first, second = drain(), drain()
        fp = lambda report: {
            r.request_id: (
                r.status,
                r.shed_reason,
                None if r.path is None else [q.tolist() for q in r.path],
                r.stats.as_dict(),
            )
            for r in report.responses.values()
        }
        assert fp(first) == fp(second)
        statuses = {r.status for r in first.responses.values()}
        assert "shed" in statuses and "completed" in statuses

        by_id = {
            request.request_id: request
            for request, _ in requests_from_trace(spec.generate(), pairs)
        }
        for response in first.responses.values():
            if response.status != "completed":
                continue
            request = by_id[response.request_id]
            checker = RobotEnvironmentChecker.from_config(
                robot, octree, ReproConfig()
            )
            recorder = CDTraceRecorder(checker)
            result = RRTConnectPlanner(recorder).plan(
                request.q_start,
                request.q_goal,
                np.random.default_rng(request.seed),
            )
            solo_path = list(result.path) if hasattr(result, "path") else list(result)
            assert len(response.path) == len(solo_path)
            for ours, solo in zip(response.path, solo_path):
                assert np.array_equal(ours, solo)
            assert response.stats.as_dict() == checker.stats.as_dict()


# ----------------------------------------------------------------------
# Differential: admission gates that admit everything change nothing.


class TestNoLoadBitIdentity:
    def test_overload_knobs_off_under_capacity_matches_plain(
        self, world, free_configs
    ):
        _, octree, robot = world

        def drain(config):
            service = PlanningService(robot, octree, config=config)
            for i in range(4):
                service.submit(
                    _stub_request(f"r{i}", free_configs, n_phases=3)
                )
            report = service.run()
            return (
                {
                    rid: (r.status, r.num_phases, r.stats.as_dict())
                    for rid, r in report.responses.items()
                },
                report.sim_ms,
                report.rounds,
            )

        plain = drain(_sequential_config())
        gated = drain(
            _sequential_config(
                admission_control=True, max_queue_depth=1000
            )
        )
        assert plain == gated


# ----------------------------------------------------------------------
# Fairness: deficit round-robin keeps a flooding client from starving
# the rest.


class TestFairness:
    def test_flooding_client_cannot_starve_others(self, world, free_configs):
        _, octree, robot = world
        config = _sequential_config(
            fairness=True, fairness_quantum=1.0, max_inflight=1
        )
        service = PlanningService(robot, octree, config=config)
        # 12 requests from the flooder arrive first, then one from each
        # quiet client; all queued before the drain starts.
        for i in range(12):
            service.submit(
                _stub_request(
                    f"flood-{i}", free_configs, client_id="flooder"
                )
            )
        for name in ("quiet-a", "quiet-b"):
            service.submit(
                _stub_request(f"{name}-0", free_configs, client_id=name)
            )
        report = service.run()
        assert all(
            r.status == "completed" for r in report.responses.values()
        )
        order = sorted(
            report.responses.values(), key=lambda r: r.completed_ms
        )
        position = {r.request_id: i for i, r in enumerate(order)}
        # Round-robin interleaves the quiet clients near the front rather
        # than after the flooder's entire backlog.
        assert position["quiet-a-0"] < 4
        assert position["quiet-b-0"] < 4

    @settings(max_examples=40, deadline=None)
    @given(
        pushes=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(0, 2),
                st.floats(0.5, 4.0),
            ),
            min_size=1,
            max_size=30,
        ),
        quantum=st.floats(0.5, 2.0),
    )
    def test_drr_never_starves(self, pushes, quantum):
        """Property: every queued item is released in bounded rounds."""
        drr = DeficitRoundRobin(quantum=quantum)
        for seq, (client, priority, size) in enumerate(pushes):
            drr.push(client, priority, float(seq), seq, size, seq)
        released = []
        rounds = 0
        while len(drr) and rounds < 1000:
            released.extend(drr.pop_round(4))
            rounds += 1
        assert len(drr) == 0
        assert sorted(released) == sorted(range(len(pushes)))

    def test_drr_drain_fifo_is_globally_ordered(self):
        drr = DeficitRoundRobin()
        drr.push("b", 0, 2.0, 2, 1.0, "third")
        drr.push("a", 0, 1.0, 1, 1.0, "second")
        drr.push("a", 0, 0.5, 0, 1.0, "first")
        drr.push("c", 1, 0.1, 3, 1.0, "low-priority")
        assert drr.drain_fifo() == ["first", "second", "third", "low-priority"]


# ----------------------------------------------------------------------
# Preemption: priced through the energy model.


class TestPreemption:
    def test_over_budget_request_is_preempted(self, world, free_configs):
        _, octree, robot = world
        config = _sequential_config(preempt_energy_budget_pj=1.0)
        service = PlanningService(robot, octree, config=config)
        service.submit(_stub_request("hog", free_configs, n_phases=50))
        report = service.run()
        hog = report.responses["hog"]
        assert hog.status == "preempted"
        assert hog.path is None and not hog.success
        # It did real work before eviction.
        assert hog.stats.pose_checks > 0

    def test_no_budget_means_no_preemption(self, world, free_configs):
        _, octree, robot = world
        service = PlanningService(
            robot, octree, config=_sequential_config()
        )
        service.submit(_stub_request("hog", free_configs, n_phases=50))
        report = service.run()
        assert report.responses["hog"].status == "completed"


# ----------------------------------------------------------------------
# Queue-ordering contract and epoch grouping.


class TestOrderingAndEpochs:
    def test_equal_priority_is_fifo_by_submission(self, world, free_configs):
        """Regression: among equal priorities the queue is strictly FIFO —
        (priority, arrival, sequence) — so simultaneous submissions are
        served in submission order, never reordered by heap internals."""
        _, octree, robot = world
        config = _sequential_config(max_inflight=1)
        service = PlanningService(robot, octree, config=config)
        ids = [f"fifo-{i}" for i in range(10)]
        for rid in ids:
            service.submit(_stub_request(rid, free_configs, n_phases=1))
        report = service.run()
        order = sorted(
            report.responses.values(), key=lambda r: r.completed_ms
        )
        assert [r.request_id for r in order] == ids

    def test_priority_still_beats_fifo(self, world, free_configs):
        # The urgent request is submitted LAST; priority outranks FIFO.
        _, octree, robot = world
        config = _sequential_config(max_inflight=1)
        service = PlanningService(robot, octree, config=config)
        service.submit(_stub_request("early-normal", free_configs))
        service.submit(_stub_request("late-urgent", free_configs, priority=-1))
        report = service.run()
        order = sorted(
            report.responses.values(), key=lambda r: r.completed_ms
        )
        assert order[0].request_id == "late-urgent"

    def test_group_pending_by_epoch_partitions_in_order(self):
        class _T:
            def __init__(self, name, epoch):
                self.name = name
                self.env_epoch = epoch

        a0, b1, c0, d2 = _T("a", 0), _T("b", 1), _T("c", 0), _T("d", 2)
        groups = group_pending_by_epoch([b1, a0, c0, d2])
        assert [[t.name for t in g] for g in groups] == [
            ["a", "c"],
            ["b"],
            ["d"],
        ]

    def test_overload_level_ladder(self):
        assert overload_level(0, None) == DegradationLevel.FULL_REPLAN
        assert overload_level(10_000, None) == DegradationLevel.FULL_REPLAN
        assert overload_level(0, 8) == DegradationLevel.FULL_REPLAN
        assert overload_level(2, 8) == DegradationLevel.REVALIDATE_ONLY
        assert overload_level(6, 8) == DegradationLevel.REUSE_LAST_VALID
        assert overload_level(8, 8) == DegradationLevel.SAFE_STOP


# ----------------------------------------------------------------------
# Per-status latency/throughput regressions: no negatives, no div-by-zero.


class TestLatencyAndThroughputEdges:
    def test_zero_duration_drain_has_zero_rates(self, world, free_configs):
        _, octree, robot = world
        # Every request provably infeasible: shed at arrival, clock never
        # advances — rates must be exactly 0.0, not a ZeroDivisionError.
        config = _sequential_config(admission_control=True)
        service = PlanningService(robot, octree, config=config)
        for i in range(3):
            service.submit(
                _stub_request(f"r{i}", free_configs, deadline_ms=0.001)
            )
        report = service.run()
        assert report.sim_ms == 0.0
        assert report.requests_per_sim_s == 0.0
        assert report.goodput_per_sim_s == 0.0
        assert report.status_counts == {"shed": 3}

    def test_latency_non_negative_for_every_status(self, world, free_configs):
        _, octree, robot = world
        config = _sequential_config(
            admission_control=True,
            max_queue_depth=3,
            max_inflight=1,
            preempt_energy_budget_pj=500.0,
            cancel_on_deadline_miss=True,
        )
        service = PlanningService(robot, octree, config=config)
        service.submit(_stub_request("work", free_configs, n_phases=6))
        service.submit(_stub_request("hog", free_configs, n_phases=60))
        service.submit(
            _stub_request("tight", free_configs, n_phases=6, deadline_ms=0.2)
        )
        for i in range(4):
            service.submit(_stub_request(f"burst-{i}", free_configs))
        report = service.run()
        assert len(report.responses) == 7
        for response in report.responses.values():
            assert response.latency_ms >= 0.0, response.request_id
        statuses = {r.status for r in report.responses.values()}
        assert "shed" in statuses
        assert report.goodput <= report.completed

    def test_cancelled_latency_well_defined(self, world, free_configs):
        _, octree, robot = world
        config = _sequential_config(cancel_on_deadline_miss=True)
        service = PlanningService(robot, octree, config=config)
        service.submit(
            _stub_request("doomed", free_configs, n_phases=60, deadline_ms=0.1)
        )
        report = service.run()
        doomed = report.responses["doomed"]
        assert doomed.status == "cancelled"
        assert doomed.cancelled and doomed.deadline_missed
        assert doomed.latency_ms >= 0.0
        assert doomed.path is None
