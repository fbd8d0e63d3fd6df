"""Seeded end-to-end benchmark of the planning stack, with an exact gate.

Run from the repository root:

    python3 wallbench/run.py --workload plan_prm --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs untraced and then traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``wallbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import multiprocessing.resource_tracker
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"wallbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, ratio  # noqa: E402
from workloads import WORKLOADS, energy_uj, start_worker  # noqa: E402

#: End-to-end metrics and units, in print order (mirrors BENCHMARK.json).
END_TO_END_UNITS = {
    "setup_s": "s",
    "plans_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "ok_share": "share",
    "modeled_energy_uj_per_plan": "uJ",
    "peak_rss_mb": "MB",
}

#: Set-ups per untraced run: at least SETUP_REPEATS, and more until they
#: add up to SETUP_SECONDS, so short set-ups get a steadier median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
#: Processes computing references and path checks outside the timed code.
REFERENCE_WORKERS = 2


@dataclass
class Pass:
    """One measured pass: per-group waits and per-request results."""

    groups: int = 0
    waits: List[float] = field(default_factory=list)
    requests: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.waits)


def run_pass(workload, seconds: float, groups: int = None, interleave: bool = True) -> Pass:
    """Run groups until the workload says the time is up (or ``groups``).

    With ``interleave``, the gate's untimed work for each group runs right
    after it, so the timed waits spread over the whole run and a slow spell
    of the host weighs on fewer of them.
    """
    result = Pass()
    index = 0
    while (
        index < groups
        if groups is not None
        else not workload.finished(index, result.wall_s, seconds)
    ):
        group = workload.group(index)
        try:
            wait, outcomes = workload.execute(index, group)
        except Exception:
            # The program raised out of a drain: every request of the group
            # failed, and the program's state is unknown, so stop here.
            traceback.print_exc(file=sys.stderr)
            result.requests.extend(group.requests)
            result.outcomes.extend(
                gate.Outcome("error", None, {}, 0) for _ in group.requests
            )
            result.groups = index + 1
            break
        result.waits.append(wait)
        result.requests.extend(group.requests)
        result.outcomes.extend(outcomes)
        if interleave:
            gate_inputs(workload, group.requests, outcomes)
        index += 1
        result.groups = index
    return result


def gate_inputs(workload, requests, outcomes) -> None:
    """Compute the references and path checks the gate lacks for these."""
    workload.compute_references(requests)
    workload.check_paths([(r, o.path) for r, o in zip(requests, outcomes)])


def apply_gate(workload, measured: Pass) -> None:
    pairs = list(zip(measured.requests, measured.outcomes))
    gate_inputs(workload, measured.requests, measured.outcomes)
    measured.verdicts = [
        gate.check(
            request.q_start,
            request.q_goal,
            outcome,
            workload.reference(request),
            workload.path_is_free(request),
        )
        for request, outcome in pairs
    ]


def tail(samples: List[float]):
    """The highest nearest-rank percentile with at least ten samples above it.

    Returns (value, percentile, samples above).  With ten or fewer samples
    no percentile qualifies and the minimum is reported.
    """
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def failure_summary(measured: Pass) -> Dict[str, int]:
    return dict(Counter(v.reason for v in measured.verdicts if not v.ok))


def untraced_run(workload_cls, seed: int, seconds: float, start_offload):
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        workload = workload_cls(seed)
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    workload.offload = start_offload()
    workload.prepare()
    measured = run_pass(workload, seconds)
    apply_gate(workload, measured)

    ok = sum(v.ok for v in measured.verdicts)
    completed = [o for o in measured.outcomes if o.status == "completed"]
    latency, pct, above = tail(measured.waits)
    sim_latency = workload.counters.sim_latency_ms
    metrics = {
        "setup_s": statistics.median(setups),
        "plans_per_s": ratio(ok, measured.wall_s),
        "latency_ms_p50": statistics.median(measured.waits) * 1e3,
        "latency_ms_tail": latency * 1e3,
        "ok_share": ok / len(measured.verdicts),
        "modeled_energy_uj_per_plan": (
            statistics.fmean(energy_uj(o) for o in completed) if completed else 0.0
        ),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "plans_per_s": "modeled_energy_uj_per_plan %.3f uJ (modeled, MPAccel cascade energy)"
        % metrics["modeled_energy_uj_per_plan"],
        "latency_ms_p50": "serving.service.sim_latency_ms_p50 %s (modeled, simulated service clock)"
        % (f"{statistics.median(sim_latency):.3f} sim_ms" if sim_latency else "n/a"),
        "latency_ms_tail": f"p{pct:.1f} of {len(measured.waits)} waits, {above} above it",
        "setup_s": f"median of {len(setups)} set-ups, {min(setups):.3f}-{max(setups):.3f} s",
    }
    return measured, metrics, END_TO_END_UNITS, notes


def traced_run(workload_cls, seed: int, seconds: float, start_offload):
    workload = workload_cls(seed)
    workload.setup()
    workload.offload = start_offload()
    workload.prepare()
    untraced = run_pass(workload, seconds)
    apply_gate(workload, untraced)

    workload.reset()
    tracer = Tracer()
    with tracer.installed():
        # No gate work under the tracer: it would run the program inline.
        traced = run_pass(workload, seconds, groups=untraced.groups, interleave=False)
    apply_gate(workload, traced)
    # The first pass in a process runs slower than later ones, so the
    # overhead is taken against a second untraced pass run after the traced.
    workload.reset()
    warm = run_pass(workload, seconds, groups=untraced.groups)
    apply_gate(workload, warm)

    attempted = len(traced.verdicts)
    metrics = layer_metrics(tracer, traced.wall_s, attempted)
    counters = workload.counters
    metrics.update(
        {
            "collision.cache.hit_share": ratio(counters.cache_hits, counters.cache_lookups),
            "collision.cache.entries": counters.cache_entries,
            "serving.batcher.phases_per_flush": ratio(
                counters.phases_answered, counters.dispatches
            ),
            "serving.batcher.rows_per_flush": ratio(
                counters.poses_dispatched, counters.dispatches
            ),
            "serving.service.sim_latency_ms_p50": (
                statistics.median(counters.sim_latency_ms) if counters.sim_latency_ms else 0.0
            ),
            "trace.overhead_share": ratio(traced.wall_s, warm.wall_s) - 1.0,
        }
    )
    reasons = [[v.reason for v in p.verdicts] for p in (untraced, traced, warm)]
    same = reasons[0] == reasons[1] == reasons[2]
    notes = {
        "trace.overhead_share": "traced %.3f s vs untraced %.3f s (first pass %.3f s) over "
        "the same %d groups; gate verdicts %s"
        % (traced.wall_s, warm.wall_s, untraced.wall_s, traced.groups,
           "identical" if same else "DIFFER"),
    }
    return traced, {name: metrics[name] for name in PER_LAYER_UNITS}, PER_LAYER_UNITS, notes, same


@contextlib.contextmanager
def reference_pool(name: str):
    """Worker processes for references and path checks; joined on exit."""
    context = multiprocessing.get_context("spawn")
    pool = context.Pool(REFERENCE_WORKERS, initializer=start_worker, initargs=(name,))
    try:
        yield pool
    finally:
        pool.terminate()
        pool.join()


def measure(args):
    """Run the workload; every worker process it starts is joined on return."""
    workload_cls = WORKLOADS[args.workload]
    with contextlib.ExitStack() as stack:

        def start_offload():
            # Called once set-up is timed: starting workers compete for the
            # cores, so set-up timed beside them reads slow and noisy.
            if not workload_cls.parallel_references:
                return None
            return stack.enter_context(reference_pool(args.workload))

        if args.trace:
            return traced_run(workload_cls, args.seed, args.seconds, start_offload)
        return (*untraced_run(workload_cls, args.seed, args.seconds, start_offload), True)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Spawned pools and shared-memory blocks start a tracker process that
    outlives this one by a moment unless stopped.  Locks and shared memory
    no longer referenced are collected first, so that none of them restarts
    the tracker at interpreter exit.
    """
    gc.collect()
    multiprocessing.resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        measured, metrics, units, notes, same = measure(args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1
    finally:
        stop_resource_tracker()

    failed = sum(not v.ok for v in measured.verdicts)
    correct = same and not any(v.wrong_answer for v in measured.verdicts)
    print(
        f"wallbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(measured.verdicts)} attempted in {measured.groups} waits, {failed} failed, "
        f"gate failures {failure_summary(measured) or 'none'}, "
        f"{'correct' if correct else 'INCORRECT'}"
    )
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"  {name:45s} {value:14.6g} {units[name]:12s}" + (f" | {note}" if note else ""))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(measured.verdicts),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
