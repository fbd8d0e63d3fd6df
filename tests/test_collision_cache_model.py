"""Model-based test of the struct-of-arrays verdict cache.

Random operation sequences run against :class:`CollisionCache` /
:class:`TieredCollisionCache` and against a small pure-Python reference
model: a dict of per-pose entries in insertion order, driven one pose at a
time — the cache semantics the array layout must keep.  After every
operation the two agree on verdicts, replayed ``CollisionStats``, hit/miss
counters, and the entry order (which pins the eviction order too).
"""

from typing import Dict, List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collision.batch import (
    EXIT_COLUMN,
    EXIT_STAGE_ORDER,
    WORK_WIDTH,
    BatchPoseOutcome,
)
from repro.collision.cache import CacheBlock, CollisionCache, TieredCollisionCache
from repro.collision.stats import CollisionStats
from repro.geometry.aabb import AABB

QUANTUM = 1e-9
#: Pose pool: a 3x3 grid of 2-DOF poses, plus pose 0 nudged by far less
#: than the quantum (same key, different stored pose).
POOL = [np.array([0.25 * i, 0.25 * j]) for i in range(3) for j in range(3)]
POOL.append(POOL[0] + 1e-12)
#: A point robot's footprint: a cube around (q0, q1, 0).
FOOTPRINT_HALF = 0.125


def footprints(qs):
    qs = np.asarray(qs, dtype=float)
    center = np.column_stack([qs[:, 0], qs[:, 1], np.zeros(len(qs))])
    return center, np.full((len(qs), 3), FOOTPRINT_HALF)


def footprint(q) -> AABB:
    return AABB([q[0], q[1], 0.0], [FOOTPRINT_HALF] * 3)


def key(q) -> bytes:
    return np.round(np.asarray(q, dtype=float) / QUANTUM).astype(np.int64).tobytes()


def stats_of(work) -> CollisionStats:
    """The ``CollisionStats`` delta a work row stands for."""
    stats = CollisionStats(
        node_visits=int(work[1]),
        sram_reads=int(work[1]),
        intersection_tests=int(work[2]),
        multiplies=int(work[3]),
        sat_axes_tested=int(work[4]),
        sphere_tests=int(work[5]),
    )
    for code, stage in enumerate(EXIT_STAGE_ORDER):
        if work[EXIT_COLUMN + code]:
            stats.cascade_exits[stage.value] += int(work[EXIT_COLUMN + code])
    return stats


# ----------------------------------------------------------------------
# Reference model: one pose at a time, one dict in insertion order
# ----------------------------------------------------------------------


class RefEntry:
    def __init__(self, verdict, work, pose, epoch):
        self.verdict = bool(verdict)
        self.work = tuple(int(w) for w in work)
        self.pose = np.array(pose, dtype=float)
        self.epoch = epoch
        self.footprint: Optional[AABB] = None


class RefCache:
    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self.entries: Dict[bytes, RefEntry] = {}
        self.epoch = 0
        self.hits = self.misses = self.invalidated = 0

    def lookup(self, q) -> Optional[RefEntry]:
        entry = self.entries.get(key(q))
        if entry is not None and entry.epoch == self.epoch:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(self, q, verdict, work) -> bool:
        k = key(q)
        fresh = k not in self.entries
        if fresh and len(self.entries) >= self.max_entries:
            del self.entries[next(iter(self.entries))]
        self.entries[k] = RefEntry(verdict, work, q, self.epoch)
        return fresh

    def invalidate_regions(self, regions) -> int:
        self.epoch += 1
        if not regions:
            for entry in self.entries.values():
                entry.epoch = self.epoch
            return 0
        survivors = {}
        for k, entry in self.entries.items():
            if entry.footprint is None:
                entry.footprint = footprint(entry.pose)
            if any(entry.footprint.overlaps(region) for region in regions):
                continue
            entry.epoch = self.epoch
            survivors[k] = entry
        dropped = len(self.entries) - len(survivors)
        self.entries = survivors
        self.invalidated += dropped
        return dropped

    def adopt(self, items) -> int:
        adopted = 0
        for k, entry in items:
            if entry.epoch != self.epoch or k in self.entries:
                continue
            if len(self.entries) >= self.max_entries:
                del self.entries[next(iter(self.entries))]
            self.entries[k] = entry
            adopted += 1
        return adopted


class RefTiered:
    def __init__(self, local: RefCache, global_tier: Optional[RefCache]):
        self.local = local
        self.global_tier = global_tier
        self.hits = self.misses = self.hits_local = self.hits_global = 0
        self.fresh: List[bytes] = []

    def lookup(self, q) -> Optional[RefEntry]:
        entry = self.local.lookup(q)
        if entry is not None:
            self.hits += 1
            self.hits_local += 1
            return entry
        if self.global_tier is not None:
            entry = self.global_tier.lookup(q)
            if entry is not None:
                self.hits += 1
                self.hits_global += 1
                self.local.adopt([(key(q), entry)])
                return entry
        self.misses += 1
        return None

    def store(self, q, verdict, work) -> None:
        if self.local.store(q, verdict, work):
            self.fresh.append(key(q))

    def export_fresh(self):
        out = [
            (k, self.local.entries[k]) for k in self.fresh if k in self.local.entries
        ]
        self.fresh.clear()
        return out


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------

poses = st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=7)
work_rows = st.lists(st.integers(0, 3), min_size=WORK_WIDTH, max_size=WORK_WIDTH)
boxes = st.builds(
    lambda cx, cy, cz, hx, hy, hz: AABB(
        [0.125 * cx, 0.125 * cy, 0.125 * cz],
        [0.0625 * hx, 0.0625 * hy, 0.0625 * hz],
    ),
    st.integers(-1, 5),
    st.integers(-1, 5),
    st.integers(-2, 2),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
)
#: A stored row: (pool index, verdict, work row).
entry_rows = st.tuples(st.integers(0, len(POOL) - 1), st.booleans(), work_rows)
lookup_op = st.tuples(st.just("lookup"), poses)
store_op = st.tuples(st.just("store"), st.lists(entry_rows, min_size=1, max_size=6))
invalidate_op = st.tuples(st.just("invalidate"), st.lists(boxes, max_size=3))
#: Rows adopted from a block of the current (or, stale, the previous) epoch.
adopt_op = st.tuples(st.just("adopt"), st.lists(entry_rows, max_size=5), st.booleans())


def block_of(rows, epoch) -> CacheBlock:
    n = len(rows)
    return CacheBlock(
        epoch=epoch,
        poses=np.array([POOL[i] for i, _, _ in rows], dtype=float).reshape(n, 2),
        verdicts=np.array([v for _, v, _ in rows], dtype=bool),
        work=np.array([w for _, _, w in rows], dtype=np.int64).reshape(n, WORK_WIDTH),
        footprint_center=np.zeros((n, 3)),
        footprint_half=np.zeros((n, 3)),
        has_footprint=np.zeros(n, dtype=bool),
    )


def ref_items(rows, epoch):
    return [(key(POOL[i]), RefEntry(v, w, POOL[i], epoch)) for i, v, w in rows]


def check_lookup(sut, ref, rows) -> None:
    """One block lookup against per-pose reference lookups."""
    block = np.stack([POOL[i] for i in rows])
    result = sut.lookup(block)
    expected = [ref.lookup(POOL[i]) for i in rows]
    assert result.found.tolist() == [e is not None for e in expected]
    assert result.verdicts[result.found].tolist() == [
        e.verdict for e in expected if e is not None
    ]
    replayed = CollisionStats()
    BatchPoseOutcome(result.verdicts, result.work).record(
        replayed, poses=np.flatnonzero(result.found)
    )
    reference = CollisionStats()
    for e in expected:
        if e is not None:
            reference.merge(stats_of(e.work))
    assert replayed.as_dict() == reference.as_dict()


def do_store(sut, ref, rows) -> None:
    block = np.stack([POOL[i] for i, _, _ in rows])
    sut.store(
        block,
        [v for _, v, _ in rows],
        np.array([w for _, _, w in rows], dtype=np.int64),
    )
    for i, v, w in rows:
        ref.store(POOL[i], v, w)


def check_entries(sut: CollisionCache, ref: RefCache, counters: bool = True) -> None:
    """Same entries, in the same (FIFO) order, with the same content."""
    block = sut.export_entries()
    assert len(sut) == len(ref.entries)
    assert block.epoch == sut.epoch == ref.epoch
    assert sut.keys(block.poses) == list(ref.entries)
    entries = list(ref.entries.values())
    assert block.poses.tobytes() == b"".join(e.pose.tobytes() for e in entries)
    assert block.verdicts.tolist() == [e.verdict for e in entries]
    assert [tuple(row) for row in block.work.tolist()] == [e.work for e in entries]
    if not counters:
        return
    assert (sut.hits, sut.misses, sut.invalidated) == (
        ref.hits,
        ref.misses,
        ref.invalidated,
    )


@settings(max_examples=150, deadline=None)
@given(
    max_entries=st.integers(1, 8),
    ops=st.lists(st.one_of(lookup_op, store_op, invalidate_op, adopt_op), max_size=25),
)
def test_cache_matches_reference(max_entries, ops):
    sut = CollisionCache(quantum=QUANTUM, max_entries=max_entries)
    sut.attach(True, footprints)
    ref = RefCache(max_entries)
    for op in ops:
        kind = op[0]
        if kind == "lookup":
            check_lookup(sut, ref, op[1])
        elif kind == "store":
            do_store(sut, ref, op[1])
        elif kind == "invalidate":
            assert sut.invalidate_regions(op[1]) == ref.invalidate_regions(op[1])
        else:
            _, rows, stale = op
            epoch = sut.epoch - 1 if stale else sut.epoch
            assert sut.adopt(block_of(rows, epoch)) == ref.adopt(ref_items(rows, epoch))
        check_entries(sut, ref)


tiered_ops = st.one_of(
    lookup_op,
    store_op,
    invalidate_op,
    adopt_op,
    st.tuples(st.just("sync")),
    st.tuples(st.just("roundtrip")),
)


@settings(max_examples=150, deadline=None)
@given(
    max_entries=st.integers(1, 8),
    global_max=st.integers(1, 8),
    ops=st.lists(tiered_ops, max_size=25),
)
def test_tiered_cache_matches_reference(max_entries, global_max, ops):
    """A shard's tiered cache over a global tier, as the fleet drives it:
    block reads with promotion, local writes, drain-boundary syncs into the
    global tier, invalidation of both tiers, and process-worker state round
    trips."""
    global_sut = CollisionCache(quantum=QUANTUM, max_entries=global_max)
    sut = TieredCollisionCache(
        CollisionCache(quantum=QUANTUM, max_entries=max_entries), global_sut
    )
    sut.attach(True, footprints)
    global_ref = RefCache(global_max)
    ref = RefTiered(RefCache(max_entries), global_ref)
    for op in ops:
        kind = op[0]
        if kind == "lookup":
            check_lookup(sut, ref, op[1])
        elif kind == "store":
            do_store(sut, ref, op[1])
        elif kind == "invalidate":
            regions = op[1]
            assert global_sut.invalidate_regions(regions) == (
                global_ref.invalidate_regions(regions)
            )
            assert sut.invalidate_regions(regions) == (
                ref.local.invalidate_regions(regions)
            )
            ref.fresh.clear()
        elif kind == "adopt":
            _, rows, stale = op
            epoch = global_sut.epoch - 1 if stale else global_sut.epoch
            assert global_sut.adopt(block_of(rows, epoch)) == global_ref.adopt(
                ref_items(rows, epoch)
            )
        elif kind == "sync":
            assert global_sut.adopt(sut.export_fresh()) == (
                global_ref.adopt(ref.export_fresh())
            )
        else:
            # A process worker: rebuild the shard's tiers from shipped state.
            state = sut.export_state()
            worker_global = CollisionCache(quantum=QUANTUM, max_entries=global_max)
            worker = TieredCollisionCache(
                CollisionCache(quantum=QUANTUM, max_entries=max_entries), worker_global
            )
            worker.attach(True, footprints)
            worker.load_state(state)
            worker_global.adopt(global_sut.export_entries())
            check_entries(worker.local, ref.local)
            check_entries(worker_global, global_ref, counters=False)
            # The parent reloads what the worker ships back.
            sut.load_state(worker.export_state())
            ref.fresh.clear()
        check_entries(sut.local, ref.local)
        check_entries(global_sut, global_ref)
        assert (sut.hits, sut.misses, sut.hits_local, sut.hits_global) == (
            ref.hits,
            ref.misses,
            ref.hits_local,
            ref.hits_global,
        )
        counters = sut.counters()
        assert (counters["hits"], counters["misses"], counters["entries"]) == (
            ref.hits,
            ref.misses,
            len(ref.local.entries),
        )
