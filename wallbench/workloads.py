"""The benchmark's three seeded workloads.

Each workload turns ``--seed`` into its inputs, builds the program through
``repro.api`` and the typed configs, and runs *groups*: one group is one
client wait — a single plan in ``plan_prm``, one drain of a wave of
requests in the serving workloads (preceded, in ``fleet_repeat``, by the
environment update the fleet must apply while idle).  Groups are generated
once and memoized, so a traced replay runs exactly the inputs the untraced
pass ran.  References are the same requests run alone through
``repro.api.plan`` with the cache off, computed outside the timed code.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import api, planning
from repro.collision.stats import CollisionStats
from repro.config import EngineConfig, FleetConfig, ReproConfig
from repro.planning import PRMPlanner, RRTConnectPlanner
from repro.scenarios.dsl import build_scenario, sample_queries
from repro.scenarios.suite import default_corpus
from repro.serving import PlanRequest
from repro.serving.admission import priced_energy_pj

from gate import Outcome, PathChecker

#: The measured single-query stack: batched engine plus swept prefilter.
SWEPT = ReproConfig(backend="batch", engine=EngineConfig(kind="batch", prefilter=True))
#: Reference configs, both cache off: batched engine without the prefilter,
#: and the scalar sequential default (used for a fixed subset per run).
BATCH_REFERENCE = ReproConfig(backend="batch", engine=EngineConfig(kind="batch"))
SCALAR_REFERENCE = ReproConfig()

#: A small roadmap: about 0.3 s per plan on shelf_pick and 0.5 s on
#: narrow_window, with the shortcut, on a 2-core x86-64 VM.
SMALL_PRM = functools.partial(PRMPlanner, n_samples=24, k_neighbors=5)
#: RRT-Connect with bounded work per request (at most 10 iterations of 4
#: multi-extends, 0.03-0.16 s alone on a 2-core x86-64 VM), so one hard
#: start/goal pair cannot stretch a drain by seconds.  A partial of the class, so process
#: workers can unpickle it.
BOUNDED_RRT_CONNECT = functools.partial(
    RRTConnectPlanner, max_iterations=10, max_step=1.0, batch_extends=4
)

CLIENTS = 8


def scenario(name: str):
    """A paper-profile corpus scenario, rebuilt from its frozen spec."""
    (spec,) = [s for s in default_corpus("paper") if s.name == name]
    return build_scenario(spec)


@dataclass(frozen=True)
class Request:
    """One plan request as the benchmark generated it."""

    #: The reference key: (scene, epoch, query id, planner seed).
    key: Tuple[str, int, int, int]
    q_start: np.ndarray
    q_goal: np.ndarray

    @property
    def scene(self) -> str:
        return self.key[0]

    @property
    def epoch(self) -> int:
        return self.key[1]

    @property
    def seed(self) -> int:
        return self.key[3]


@dataclass
class Group:
    requests: List[Request]
    #: Epoch whose octree the fleet moves to before this wave, if any.
    update_to: Optional[int] = None


@dataclass
class ProgramCounters:
    """Counters the program itself reports, summed over one pass."""

    dispatches: int = 0
    phases_answered: int = 0
    poses_dispatched: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    cache_entries: int = 0
    sim_latency_ms: List[float] = field(default_factory=list)


def outcome_of(response) -> Outcome:
    return Outcome(
        status=response.status,
        path=response.path,
        stats=response.stats.as_dict(),
        num_phases=response.num_phases,
    )


def energy_uj(outcome: Outcome) -> float:
    """The modeled MPAccel cascade energy of one response, in microjoules."""
    return priced_energy_pj(CollisionStats.from_dict(outcome.stats)) / 1e6


class Workload:
    """Inputs, program and references of one workload for one seed."""

    name = ""
    #: Scenes whose octrees the requests plan against.
    scenes: Tuple[str, ...] = ()
    #: Whether a plan is followed by ``greedy_shortcut`` on its recorder.
    shortcut = False
    #: Whether references and path checks may run in a worker pool.  Off
    #: where the program forks its own workers, so this process has no
    #: pool threads when it does.
    parallel_references = True

    def __init__(self, seed: int):
        self.seed = seed
        self.instances: Dict[str, object] = {}
        self._groups: List[Group] = []
        self._solos: Dict[Tuple[tuple, str], Outcome] = {}
        self._free: Dict[tuple, bool] = {}
        self._path_checkers: Dict[Tuple[str, int], PathChecker] = {}
        self.scalar_keys: set = set()
        self.counters = ProgramCounters()
        #: A process pool (see :func:`start_worker`) that computes
        #: references and path checks in parallel; None computes inline.
        self.offload = None

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Build scenes, sample inputs, construct the program, warm up."""
        self.build_scenes()
        self.rng = np.random.default_rng(self.seed)
        self.sample_inputs()
        self.build_program()
        self.warm_up()

    def build_scenes(self) -> None:
        self.instances = {name: scenario(name) for name in self.scenes}

    def sample_inputs(self) -> None:
        pass

    def build_program(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def prepare(self) -> None:
        """Untimed work before measuring (reference-backed input filters)."""

    def reset(self) -> None:
        """Fresh program state with empty caches, for the traced replay."""
        self.counters = ProgramCounters()
        self.build_program()

    # -- groups ----------------------------------------------------------

    def group(self, index: int) -> Group:
        while len(self._groups) <= index:
            self._groups.append(self.make_group(len(self._groups)))
        return self._groups[index]

    def make_group(self, index: int) -> Group:
        raise NotImplementedError

    def finished(self, index: int, elapsed: float, seconds: float) -> bool:
        return elapsed >= seconds

    def execute(self, index: int, group: Group) -> Tuple[float, List[Outcome]]:
        """Run one group; returns the client's wait in seconds and outcomes."""
        raise NotImplementedError

    def submit_wave(self, target, index: int, group: Group) -> List[str]:
        """Submit one wave, one request per client; returns the request ids."""
        ids = []
        for client, request in enumerate(group.requests):
            rid = f"w{index}c{client}"
            target.submit(
                PlanRequest(
                    rid,
                    request.q_start,
                    request.q_goal,
                    planner_factory=self.planner_factory,
                    seed=request.seed,
                    client_id=f"c{client}",
                )
            )
            ids.append(rid)
        return ids

    def count(self, report, ids) -> None:
        """Fold one drain's report into the pass's program counters."""
        c = self.counters
        c.dispatches += report.dispatches
        c.phases_answered += report.phases_answered
        c.poses_dispatched += report.poses_dispatched
        cache = report.cache_counters or {}
        c.cache_hits = cache.get("hits", 0)
        c.cache_lookups = cache.get("hits", 0) + cache.get("misses", 0)
        c.cache_entries = cache.get("entries", 0) + cache.get("global", {}).get("entries", 0)
        c.sim_latency_ms.extend(
            report.responses[rid].latency_ms
            for rid in ids
            if report.responses[rid].status == "completed"
        )

    # -- references and path checks ----------------------------------------

    def octree(self, request: Request):
        return self.instances[request.scene].epoch_octrees[request.epoch]

    def robot(self, request: Request):
        return self.instances[request.scene].robot

    def solo(self, request: Request, config: ReproConfig) -> Outcome:
        """The request run alone through ``repro.api.plan``."""
        out = api.plan(
            self.robot(request),
            self.octree(request),
            request.q_start,
            request.q_goal,
            config,
            seed=request.seed,
            planner_factory=self.planner_factory,
        )
        path = out.path
        if self.shortcut and out.success:
            path = planning.greedy_shortcut(path, out.recorder)
        return Outcome("completed", path, out.stats.as_dict(), out.num_phases)

    def _fill(self, store: dict, task, jobs) -> None:
        """Run ``task(*args)`` for each ``(key, args)`` job ``store`` lacks."""
        todo: dict = {}
        for key, args in jobs:
            if key not in store:
                todo.setdefault(key, args)
        if self.offload is None:
            results = [task(*args, workload=self) for args in todo.values()]
        else:
            results = self.offload.starmap(task, todo.values())
        store.update(zip(todo, results))

    def _reference_config(self, request: Request) -> str:
        return "scalar" if request.key in self.scalar_keys else "batch"

    def compute_references(self, requests) -> None:
        """Run the solo references not computed yet, in parallel."""
        jobs = []
        for request in requests:
            config = self._reference_config(request)
            jobs.append(((request.key, config), (request, config)))
        self._fill(self._solos, _solo_task, jobs)

    def reference(self, request: Request) -> Outcome:
        self.compute_references([request])
        return self._solos[(request.key, self._reference_config(request))]

    def solvable(self, request: Request) -> bool:
        return self.reference(request).path is not None

    def first_solvable(self, candidates: Iterator[Request], n: int) -> List[Request]:
        """The first ``n`` candidates whose solo reference finds a path.

        A probabilistic planner's "no path" is a legitimate answer, but the
        gate cannot check it against ``q_start``/``q_goal``, so such inputs
        are replaced by the next seeded draw.
        """
        found: List[Request] = []
        while len(found) < n:
            chunk = list(itertools.islice(candidates, n - len(found) + 2))
            if not chunk:
                raise RuntimeError(
                    f"{self.name}: too few solvable inputs for seed {self.seed}"
                )
            self.compute_references(chunk)
            found += [r for r in chunk if self.solvable(r)]
        return found[:n]

    def check_paths(self, pairs) -> None:
        """Run the scalar path check for every new (request, path) pair."""
        jobs = [(_path_key(r, path), (r, path)) for r, path in pairs if path]
        self._fill(self._free, _path_task, jobs)

    def path_is_free(self, request: Request):
        """The gate's path check for ``request``'s epoch octree."""

        def is_free(path) -> bool:
            self.check_paths([(request, path)])
            return self._free[_path_key(request, path)]

        return is_free

    def path_checker(self, request: Request) -> PathChecker:
        where = (request.scene, request.epoch)
        if where not in self._path_checkers:
            self._path_checkers[where] = PathChecker(self.robot(request), self.octree(request))
        return self._path_checkers[where]


def _path_key(request: Request, path) -> tuple:
    return (request.scene, request.epoch, np.asarray(path, dtype=float).tobytes())


#: Reference configs by the name a worker task carries.
REFERENCE_CONFIGS = {"batch": BATCH_REFERENCE, "scalar": SCALAR_REFERENCE}

#: The worker process's own workload instance (scenes only, no program).
_worker: Optional[Workload] = None


def start_worker(name: str) -> None:
    """Pool initializer: rebuild the workload's scenes in this process."""
    global _worker
    _worker = WORKLOADS[name](0)
    _worker.build_scenes()


def _solo_task(request: Request, config: str, workload: Optional[Workload] = None):
    return (workload or _worker).solo(request, REFERENCE_CONFIGS[config])


def _path_task(request: Request, path, workload: Optional[Workload] = None) -> bool:
    return (workload or _worker).path_checker(request).is_free(path)


class PlanPRM(Workload):
    """Closed loop, one client, no serving layer: PRM plus shortcut."""

    name = "plan_prm"
    scenes = ("shelf_pick", "narrow_window")
    planner_factory = SMALL_PRM
    shortcut = True
    #: One pass: 32 distinct queries, 3 shelf_pick for every 5 narrow_window,
    #: so the median plan sits inside the slower scene's band, not between
    #: the two, and no one query weighs much in it.
    LAYOUT = ("narrow_window", "shelf_pick", "narrow_window", "narrow_window",
              "shelf_pick", "narrow_window", "shelf_pick", "narrow_window") * 4
    CANDIDATES = 40

    def sample_inputs(self) -> None:
        # Candidate queries per scene, in the order the pool draws them.
        self.candidates = {}
        for name in self.scenes:
            inst = self.instances[name]
            pairs = sample_queries(inst.robot, inst.octree, self.CANDIDATES, self.rng)
            seeds = self.rng.integers(0, 2**31, self.CANDIDATES)
            self.candidates[name] = [
                Request((name, 0, i, int(seed)), q_start, q_goal)
                for i, ((q_start, q_goal), seed) in enumerate(zip(pairs, seeds))
            ]

    def warm_up(self) -> None:
        # The scenario's own first query: the same warm-up for every seed.
        q_start, q_goal = self.instances["shelf_pick"].queries[0]
        self.solo(Request(("shelf_pick", 0, -1, 0), q_start, q_goal), SWEPT)

    def prepare(self) -> None:
        # The first shelf_pick candidate is the run's scalar-checked request;
        # if it has no path, the first shelf_pick query of the pool is.
        self.scalar_keys = {self.candidates["shelf_pick"][0].key}
        picked = {
            name: iter(self.first_solvable(iter(reqs), self.LAYOUT.count(name)))
            for name, reqs in self.candidates.items()
        }
        self.pool = [next(picked[name]) for name in self.LAYOUT]
        if not self.scalar_keys & {r.key for r in self.pool}:
            self.scalar_keys = {self.pool[self.LAYOUT.index("shelf_pick")].key}

    def make_group(self, index: int) -> Group:
        return Group([self.pool[index % len(self.pool)]])

    def finished(self, index: int, elapsed: float, seconds: float) -> bool:
        # Whole passes only, so every run has the same scene mix: as many
        # as bring the timed phase nearest to ``seconds``.
        passes = index // len(self.pool)
        if index % len(self.pool) or not passes:
            return False
        return elapsed + elapsed / passes / 2 >= seconds

    def execute(self, index: int, group: Group):
        (request,) = group.requests
        start = time.perf_counter()
        outcome = self.solo(request, SWEPT)
        return time.perf_counter() - start, [outcome]


class ServeCold(Workload):
    """Closed loop, 8 clients, every wave new: the cold serving path."""

    name = "serve_cold"
    scenes = ("narrow_window",)
    planner_factory = BOUNDED_RRT_CONNECT
    CONFIG = ReproConfig.for_service()

    def build_program(self) -> None:
        inst = self.instances["narrow_window"]
        self.service = api.make_service(inst.robot, inst.octree, self.CONFIG)

    def warm_up(self) -> None:
        inst = self.instances["narrow_window"]
        throwaway = api.make_service(inst.robot, inst.octree, self.CONFIG)
        # The scenario's own first query: the same warm-up for every seed.
        q_start, q_goal = inst.queries[0]
        throwaway.submit(
            PlanRequest("warm-up", q_start, q_goal, planner_factory=BOUNDED_RRT_CONNECT)
        )
        throwaway.run()

    def prepare(self) -> None:
        self.stream = self.draw_requests()

    def draw_requests(self) -> Iterator[Request]:
        """Seeded start/goal pairs a straight line cannot join, so every
        request runs the planner loop."""
        inst = self.instances["narrow_window"]
        straight = api.make_checker(
            inst.robot, inst.octree, ReproConfig(backend="batch", collect_stats=False)
        )
        for drawn in itertools.count():
            ((q_start, q_goal),) = sample_queries(inst.robot, inst.octree, 1, self.rng)
            seed = int(self.rng.integers(0, 2**31))
            if not straight.motion_is_free(q_start, q_goal):
                yield Request(("narrow_window", 0, drawn, seed), q_start, q_goal)

    def make_group(self, index: int) -> Group:
        requests = self.first_solvable(self.stream, CLIENTS)
        if index == 0:
            self.scalar_keys = {requests[0].key}
        return Group(requests)

    def execute(self, index: int, group: Group):
        start = time.perf_counter()
        ids = self.submit_wave(self.service, index, group)
        report = self.service.run()
        wait = time.perf_counter() - start
        self.count(report, ids)
        return wait, [outcome_of(report.responses[rid]) for rid in ids]


class FleetRepeat(Workload):
    """Closed loop, 8 clients, one request pool re-sent across updates."""

    name = "fleet_repeat"
    scenes = ("sweep_cart",)
    planner_factory = BOUNDED_RRT_CONNECT
    parallel_references = False
    CONFIG = ReproConfig.for_service(fleet=FleetConfig(n_shards=2, workers="process"))
    WAVES_PER_EPOCH = 8
    #: Nominal seconds per cycle.  ``--seconds`` sets the whole number of
    #: cycles a run covers, so the failure count is a function of the seed
    #: and ``--seconds`` alone.  A cycle is 0 -> 1 -> 2 -> 3 -> 0: every
    #: update of the script, the move back to epoch 0 included, runs once.
    CYCLE_SECONDS = 10.0

    def build_program(self) -> None:
        inst = self.instances["sweep_cart"]
        self.fleet = api.make_fleet(inst.robot, inst.octree, self.CONFIG)

    def warm_up(self) -> None:
        inst = self.instances["sweep_cart"]
        throwaway = api.make_fleet(inst.robot, inst.octree, self.CONFIG)
        q_start, q_goal = inst.queries[0]
        throwaway.submit(
            PlanRequest("warm-up", q_start, q_goal, planner_factory=BOUNDED_RRT_CONNECT)
        )
        throwaway.run()

    def prepare(self) -> None:
        # The pool: the scenario's queries x planner seeds from the seed,
        # kept where the solo reference finds a path at every epoch.
        inst = self.instances["sweep_cart"]
        self.pool: List[Tuple[int, int]] = []
        while len(self.pool) < CLIENTS:
            seed = int(self.rng.integers(0, 2**31))
            per_query = [
                [self.request(query, seed, epoch) for epoch in range(inst.n_epochs)]
                for query in range(len(inst.queries))
            ]
            self.compute_references([r for epochs in per_query for r in epochs])
            self.pool += [
                (query, seed)
                for query, epochs in enumerate(per_query)
                if all(self.solvable(r) for r in epochs)
            ]
        del self.pool[CLIENTS:]
        query, seed = self.pool[0]
        self.scalar_keys = {
            self.request(query, seed, epoch).key for epoch in range(inst.n_epochs)
        }

    def request(self, query: int, seed: int, epoch: int) -> Request:
        q_start, q_goal = self.instances["sweep_cart"].queries[query]
        return Request(("sweep_cart", epoch, query, seed), q_start, q_goal)

    def n_groups(self, seconds: float) -> int:
        cycles = max(1, round(seconds / self.CYCLE_SECONDS))
        stages = cycles * self.instances["sweep_cart"].n_epochs + 1
        return stages * self.WAVES_PER_EPOCH

    def finished(self, index: int, elapsed: float, seconds: float) -> bool:
        return index >= self.n_groups(seconds)

    def make_group(self, index: int) -> Group:
        n_epochs = self.instances["sweep_cart"].n_epochs
        wave = index % self.WAVES_PER_EPOCH
        epoch = (index // self.WAVES_PER_EPOCH) % n_epochs
        update_to = epoch if wave == 0 and index > 0 else None
        return Group(
            [self.request(query, seed, epoch) for query, seed in self.pool], update_to
        )

    def execute(self, index: int, group: Group):
        inst = self.instances["sweep_cart"]
        start = time.perf_counter()
        if group.update_to is not None:
            self.fleet.update_environment(inst.epoch_octrees[group.update_to])
        ids = self.submit_wave(self.fleet, index, group)
        report = self.fleet.run()
        wait = time.perf_counter() - start
        self.count(report, ids)
        return wait, [outcome_of(report.responses[rid]) for rid in ids]


WORKLOADS = {w.name: w for w in (PlanPRM, ServeCold, FleetRepeat)}
