"""Octree-versioned collision verdict cache, stored as parallel arrays.

Multi-client serving (:mod:`repro.serving`) re-checks the same quantized
poses over and over: requests share an environment, planners revisit
configurations, and motion discretizations overlap.  This cache memoizes
per-pose verdicts keyed on the quantized configuration, versioned by an
*environment epoch* that advances on every octree update.

**Layout.**  Entries live in struct-of-arrays rows: ``poses (n, dof)``,
``verdicts (n,)``, one int64 ``work (n, WORK_WIDTH)`` matrix (the
:class:`~repro.collision.batch.BatchPoseOutcome` work columns), and
lazily filled footprint ``center``/``half`` ``(n, 3)`` arrays.  A dict
maps each quantized-pose key (the int64 grid row's bytes) to its row.
Rows are appended in insertion order, so the live rows ``[head, n)`` are
the FIFO order: eviction advances ``head``, an overwrite keeps its row.
Arrays grow geometrically; dead rows are compacted away when space runs
out or an invalidation drops entries.

**Block API.**  :meth:`CollisionCache.lookup` and
:meth:`CollisionCache.store` take an ``(n, dof)`` block (a 1-D pose is a
1-row block) and quantize it with one ``np.round``.  A block lookup sees
the cache as it was before the block; duplicate poses inside a block are
each counted.  A block store applies its rows in order, exactly as n
single stores would.

**Bit-identity contract.**  Alongside each verdict the cache stores the
exact work row the fresh evaluation charged for that pose (node visits,
SAT axes, cascade exits, ... — everything except the caller-owned
``pose_checks``/``motion_checks`` counters).  A hit replays the stored row
through :meth:`BatchPoseOutcome.record`, so a cache-on run records
*identical* operation counts to a cache-off run — the energy model prices
those counts, so "the check was skipped" must not be visible in the
accounting.  The evaluator is deterministic, which makes the stored row
equal to what a fresh evaluation would have charged, always.

**Selective invalidation.**  On an environment update the owner computes
the changed-region boxes with :func:`repro.env.diff.octree_delta_regions`
and calls :meth:`invalidate_regions`.  An entry survives iff its
*footprint* — the AABB over the bounding spheres of the robot's quantized
link OBBs at the cached pose — is disjoint from every changed box.  This
is safe because the octree traversal only examines an octant whose parent
node it visited, and it only visits nodes whose box intersects the query
volume, whose outermost test is the link's bounding sphere (the cascade's
first stage): when no changed node's box touches the footprint, the
traversal (verdict *and* work counts) is identical in the old and new
trees.  Bounding only the OBB is not enough — an update inside the
sphere-minus-OBB shell changes the sphere-stage counts.  Footprints are
computed at first invalidation, for every entry lacking one in one batch,
and kept with the entry.

Hit/miss/invalidation counters are mirrored into an optional
:class:`~repro.accel.telemetry.MetricsRegistry` (``cache.hits``,
``cache.misses``, ``cache.invalidated``, ``cache.epoch_advances``).

**Tiered caching for the sharded fleet.**  :class:`TieredCollisionCache`
stacks a shard-private *local* tier over an optional fleet-wide *global*
tier (:mod:`repro.serving.fleet`).  During a drain a shard reads
local-then-global and writes local only, logging its fresh entries; at the
drain boundary the fleet router merges every shard's fresh entries into
the global tier in shard-index order (:meth:`CollisionCache.adopt`), so
the global tier's content is a deterministic function of the drain — not
of worker interleaving.  Entries travel between tiers and processes as
:class:`CacheBlock` arrays.  Both tiers observe every environment update
at the same epoch boundary with the same changed-region boxes, so an
entry's survival verdict is identical in every tier.  Cache *content*
never affects verdicts or stats (hits replay exact work rows), so tiering
is purely a performance protocol — the bit-identity contract above is
unchanged.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.collision.batch import WORK_WIDTH
from repro.geometry.aabb import AABB

__all__ = [
    "CacheBlock",
    "CacheLookup",
    "CollisionCache",
    "TieredCollisionCache",
    "DEFAULT_QUANTUM",
    "footprint_of_obbs",
    "link_footprints",
]

#: Default pose-key quantum (radians).  Far below any meaningful joint
#: resolution, so distinct planner poses virtually never alias; equal poses
#: (the common repeat case) always do.
DEFAULT_QUANTUM = 1e-9

#: Smallest row capacity a cache allocates.
_MIN_CAPACITY = 64
#: Entry x region pairs one overlap pass tests at a time.
_OVERLAP_CHUNK = 1 << 17

#: Block footprint function: ``(m, dof)`` poses to ``(m, 3)`` centers and
#: ``(m, 3)`` half extents.
FootprintFn = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


class CacheLookup(NamedTuple):
    """One block lookup: per-row keys, hit mask, and the cached rows."""

    keys: List[bytes]
    #: ``(n,)`` bool — the row was served from the cache.
    found: np.ndarray
    #: ``(n,)`` bool verdicts, False where not found.
    verdicts: np.ndarray
    #: ``(n, WORK_WIDTH)`` int64 work rows, zero where not found.
    work: np.ndarray


class CacheBlock(NamedTuple):
    """Cache entries as parallel arrays, in FIFO order (the fleet's
    shipping format).  Keys are not shipped: the receiver re-quantizes
    ``poses`` on its own grid."""

    epoch: int
    poses: np.ndarray
    verdicts: np.ndarray
    work: np.ndarray
    footprint_center: np.ndarray
    footprint_half: np.ndarray
    has_footprint: np.ndarray


#: The per-row arrays, named as in :class:`CacheBlock`.
_COLUMNS = CacheBlock._fields[1:]


def _allocate(capacity: int, dof: int) -> Dict[str, np.ndarray]:
    return {
        "poses": np.empty((capacity, dof)),
        "verdicts": np.zeros(capacity, dtype=bool),
        "work": np.empty((capacity, WORK_WIDTH), dtype=np.int64),
        "footprint_center": np.empty((capacity, 3)),
        "footprint_half": np.empty((capacity, 3)),
        "has_footprint": np.zeros(capacity, dtype=bool),
    }


def _as_block(qs) -> np.ndarray:
    qs = np.asarray(qs, dtype=float)
    return qs[None, :] if qs.ndim == 1 else qs


class CollisionCache:
    """Pose-verdict cache keyed on (quantized pose, environment epoch).

    ``quantum`` sets the pose quantization grid; ``max_entries`` bounds
    memory with FIFO eviction (insertion order).  ``telemetry`` mirrors the
    counters into a metrics registry.  The cache is attached to one or more
    :class:`~repro.collision.checker.RobotEnvironmentChecker` instances
    (sharing a robot and environment); the first attach binds the
    stats-collection mode and the footprint function, later attaches must
    agree — mixing ``collect_stats`` modes would replay empty work rows
    into a collecting stats object and break bit-identity.

    Every live entry belongs to the current epoch: an epoch advance drops
    or re-stamps all of them, so no per-entry epoch is stored.
    """

    def __init__(
        self,
        quantum: float = DEFAULT_QUANTUM,
        max_entries: int = 1_000_000,
        telemetry=None,
    ):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.quantum = quantum
        self.max_entries = max_entries
        self.telemetry = telemetry
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.epoch_advances = 0
        self.collect_stats: Optional[bool] = None
        self._footprint_fn: Optional[FootprintFn] = None
        self._reset_rows()

    def _reset_rows(self) -> None:
        #: Key -> row of every live entry.
        self._slot: Dict[bytes, int] = {}
        #: Key of every row (None once evicted); rows ``[head, n)`` are live.
        self._keys: List[Optional[bytes]] = []
        self._head = 0
        self._rows: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self, collect_stats: bool, footprint_fn: Optional[FootprintFn]) -> None:
        """Bind the cache to a checker's stats mode and footprint geometry."""
        if self.collect_stats is None:
            self.collect_stats = collect_stats
            self._footprint_fn = footprint_fn
        elif self.collect_stats != collect_stats:
            raise ValueError(
                "cache is shared between checkers with different collect_stats "
                f"modes ({self.collect_stats} vs {collect_stats}); stored work "
                "rows would not match what a cache-off run records"
            )

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def keys(self, qs) -> List[bytes]:
        """Quantized-pose keys, one per row of an ``(n, dof)`` block."""
        grid = np.ascontiguousarray(
            np.round(_as_block(qs) / self.quantum).astype(np.int64)
        )
        if not grid.size:
            return []
        row = np.dtype((np.void, grid.itemsize * grid.shape[1]))
        return grid.view(row).ravel().tolist()

    def lookup(self, qs) -> CacheLookup:
        """Look up every row of a pose block at the current epoch (counted)."""
        result = self._lookup_keys(self.keys(qs))
        hits = int(result.found.sum())
        self._mirror_lookups(hits, len(result.keys) - hits)
        return result

    def store(self, qs, verdicts, work=None, keys=None) -> None:
        """Insert freshly evaluated rows (FIFO-evicting), in row order.

        ``work`` holds the rows' work rows (zero when omitted); ``keys``
        may pass the block's keys from a preceding :meth:`lookup`.
        Overwriting an existing key (e.g. the same pose twice in a block)
        is not an insert and must not evict: evicting on overwrites drops
        a live entry and permanently shrinks the effective capacity below
        ``max_entries``.
        """
        qs = _as_block(qs)
        self._write(self.keys(qs) if keys is None else keys, qs, verdicts, work)

    def _lookup_keys(self, keys: List[bytes]) -> CacheLookup:
        slots = np.fromiter(
            map(self._slot.get, keys, repeat(-1)), dtype=np.int64, count=len(keys)
        )
        found = slots >= 0
        hits = int(found.sum())
        self.hits += hits
        self.misses += len(keys) - hits
        verdicts = np.zeros(len(keys), dtype=bool)
        work = np.zeros((len(keys), WORK_WIDTH), dtype=np.int64)
        if hits:
            rows = slots[found]
            verdicts[found] = self._rows["verdicts"][rows]
            work[found] = self._rows["work"][rows]
        return CacheLookup(keys, found, verdicts, work)

    def _mirror_lookups(self, hits: int, misses: int) -> None:
        telemetry = self.telemetry
        if telemetry is not None and telemetry.enabled:
            if hits:
                telemetry.counter("cache.hits").inc(hits)
            if misses:
                telemetry.counter("cache.misses").inc(misses)

    def _write(self, keys, qs, verdicts, work) -> List[bool]:
        """Store rows in order; returns which rows were genuine inserts."""
        if not keys:
            return []
        self._reserve(len(keys), qs.shape[1])
        get = self._slot.get
        slots = []
        inserted = []
        for key in keys:
            slot = get(key)
            inserted.append(slot is None)
            slots.append(self._insert(key) if slot is None else slot)
        # Rows sharing a slot (an in-block overwrite): the last one wins.
        slots = np.asarray(slots, dtype=np.int64)
        dest, first_from_end = np.unique(slots[::-1], return_index=True)
        src = len(slots) - 1 - first_from_end
        rows = self._rows
        rows["poses"][dest] = qs[src]
        rows["verdicts"][dest] = np.asarray(verdicts, dtype=bool).reshape(-1)[src]
        rows["work"][dest] = 0 if work is None else np.asarray(work)[src]
        rows["has_footprint"][dest] = False
        return inserted

    def _insert(self, key: bytes) -> int:
        """A fresh row for ``key``, evicting the oldest entry at capacity.

        The caller reserved the row (:meth:`_reserve`), so rows never move
        while a block is being applied.
        """
        if len(self._slot) >= self.max_entries:
            del self._slot[self._keys[self._head]]
            self._keys[self._head] = None
            self._head += 1
        slot = len(self._keys)
        self._keys.append(key)
        self._slot[key] = slot
        return slot

    def _reserve(self, m: int, dof: int) -> None:
        """Room for ``m`` more rows: compact dead rows, then grow 2x."""
        if self._rows is None:
            self._rows = _allocate(max(m, _MIN_CAPACITY), dof)
            return
        capacity = len(self._rows["verdicts"])
        if len(self._keys) + m <= capacity:
            return
        if self._head:
            self._compact()
        need = len(self._keys) + m
        if 2 * need > capacity:
            grown = _allocate(2 * need, dof)
            n = len(self._keys)
            for name, array in self._rows.items():
                grown[name][:n] = array[:n]
            self._rows = grown

    def _compact(self, keep: Optional[np.ndarray] = None) -> None:
        """Move the live rows (or the ``keep``-masked ones) to the front,
        in order, and re-index them."""
        head, n = self._head, len(self._keys)
        keys = self._keys[head:]
        if keep is not None:
            keys = list(compress(keys, keep.tolist()))
        for array in self._rows.values():
            live = array[head:n]
            array[: len(keys)] = live if keep is None else live[keep]
        self._keys = keys
        self._head = 0
        self._slot = dict(zip(keys, range(len(keys))))

    def _take(self, slots: np.ndarray) -> CacheBlock:
        """A copy of the given rows as a block at the current epoch."""
        if self._rows is None:
            empty = _allocate(0, 0)
            return CacheBlock(self.epoch, *(empty[name] for name in _COLUMNS))
        return CacheBlock(
            self.epoch, *(self._rows[name][slots] for name in _COLUMNS)
        )

    def _put(self, slots, block: CacheBlock, rows) -> None:
        """Write ``block``'s ``rows`` into this cache's ``slots``."""
        for name in _COLUMNS:
            self._rows[name][slots] = getattr(block, name)[rows]

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def advance_epoch(self) -> None:
        """Invalidate everything (an update with unknown extent)."""
        self.epoch += 1
        self.epoch_advances += 1
        dropped = len(self)
        self.invalidated += dropped
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.counter("cache.epoch_advances").inc()
            self.telemetry.counter("cache.invalidated").inc(dropped)
        self._reset_rows()

    def invalidate_regions(self, regions: Sequence[AABB]) -> int:
        """Advance the epoch, dropping entries whose footprint meets a region.

        Entries whose footprint is disjoint from *every* changed box are
        re-stamped to the new epoch (their traversal is provably identical
        in the updated tree); the rest are dropped, keeping the survivors'
        FIFO order.  Returns the number of dropped entries.
        """
        self.epoch += 1
        self.epoch_advances += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.counter("cache.epoch_advances").inc()
        if not regions or not len(self):
            return 0
        if self._footprint_fn is None:
            # Never attached: no geometry to prove survival with.
            dropped = len(self)
            self._reset_rows()
        else:
            overlapped = self._overlaps(regions)
            dropped = int(overlapped.sum())
            if dropped:
                self._compact(~overlapped)
        self.invalidated += dropped
        if self.telemetry is not None and self.telemetry.enabled and dropped:
            self.telemetry.counter("cache.invalidated").inc(dropped)
        return dropped

    def _overlaps(self, regions: Sequence[AABB]) -> np.ndarray:
        """Per live entry: does its footprint meet any region?

        Fills missing footprints in one batch first.  The test is
        :meth:`AABB.overlaps`' center/half arithmetic (closed boxes, so a
        region touching a footprint face overlaps it), entry by region.
        """
        head, n = self._head, len(self._keys)
        rows = self._rows
        missing = head + np.flatnonzero(~rows["has_footprint"][head:n])
        if len(missing):
            center, half = self._footprint_fn(rows["poses"][missing])
            rows["footprint_center"][missing] = center
            rows["footprint_half"][missing] = half
            rows["has_footprint"][missing] = True
        center = rows["footprint_center"][head:n, None, :]
        half = rows["footprint_half"][head:n, None, :]
        region_center = np.array([region.center for region in regions])
        region_half = np.array([region.half_extents for region in regions])
        overlapped = np.zeros(n - head, dtype=bool)
        step = max(1, _OVERLAP_CHUNK // (n - head))
        for start in range(0, len(regions), step):
            stop = start + step
            overlapped |= np.any(
                np.all(
                    np.abs(center - region_center[None, start:stop])
                    <= half + region_half[None, start:stop],
                    axis=2,
                ),
                axis=1,
            )
        return overlapped

    # ------------------------------------------------------------------
    # Fleet sync (drain-boundary entry exchange)
    # ------------------------------------------------------------------

    def adopt(self, block: CacheBlock) -> int:
        """Merge externally evaluated entries (the fleet's global-tier sync).

        ``block``'s rows are in a deterministic order (the fleet merges
        shards in shard-index order).  A block whose epoch does not match
        this cache's current epoch is skipped — it was evaluated against a
        different octree version and its survival was never proven.
        Existing keys are kept (first writer wins, matching the
        deterministic merge order); genuine inserts FIFO-evict like
        :meth:`store`.  Returns the number of entries adopted.
        """
        if block.epoch != self.epoch or not len(block.verdicts):
            return 0
        keys = self.keys(block.poses)
        self._reserve(len(keys), block.poses.shape[1])
        slots, rows = [], []
        for row, key in enumerate(keys):
            if key not in self._slot:
                slots.append(self._insert(key))
                rows.append(row)
        if slots:
            self._put(slots, block, rows)
        return len(slots)

    def export_entries(self) -> CacheBlock:
        """Every live entry, in insertion order."""
        return self._take(np.arange(self._head, len(self._keys)))

    def _load(self, block: CacheBlock) -> None:
        """Replace every entry (and the epoch) with an exported block."""
        self._reset_rows()
        self.epoch = block.epoch
        keys = self.keys(block.poses)
        if keys:
            self._reserve(len(keys), block.poses.shape[1])
            self._keys = keys
            self._slot = dict(zip(keys, range(len(keys))))
            self._put(slice(0, len(keys)), block, slice(None))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "epoch_advances": self.epoch_advances,
            "entries": len(self),
            "epoch": self.epoch,
        }

    def clear(self) -> None:
        """Drop all entries and counters (the epoch is preserved)."""
        self._reset_rows()
        self.hits = self.misses = self.invalidated = 0


class TieredCollisionCache:
    """Local + global two-tier verdict cache for one fleet shard.

    Drop-in for :class:`CollisionCache` where checkers and the serving
    layer are concerned (``attach``/``lookup``/``store``/``counters``/
    ``invalidate_regions``/``hits``), with the fleet cache protocol on top:

    - **Reads** go local tier first, then the shared global tier.  A
      global hit is *promoted* into the local tier so the shard keeps
      serving it locally (promotions are not logged as fresh — the global
      tier already has the entry).  A block is read row by row in this
      order, so a pose repeated in a block after its promotion (or after
      a promotion evicted it) is counted as a single-row read would be.
    - **Writes** land in the local tier only and are logged; the fleet
      collects the log with :meth:`export_fresh` at the drain boundary and
      merges it into the global tier in shard-index order.  The global
      tier is therefore frozen for the whole drain, which is what makes a
      multiprocessing drain bit-identical to the inline one.
    - **Invalidation** (:meth:`invalidate_regions`) applies to the local
      tier only; the owner of the shared global tier (the fleet)
      invalidates it exactly once per environment update with the same
      region boxes, so both tiers advance through the same epoch sequence.

    ``hits``/``misses`` on this object count *tiered* outcomes (a lookup
    that hits either tier is one hit), which is what the service's
    simulated cost model and the batcher's cached-row accounting read.
    They are also the only lookups mirrored into telemetry (once per
    block, through the local tier's registry), so the registry's
    ``cache.hits``/``cache.misses`` equal these counters.
    """

    def __init__(
        self,
        local: CollisionCache,
        global_tier: Optional[CollisionCache] = None,
    ):
        if global_tier is not None and global_tier.quantum != local.quantum:
            raise ValueError(
                "tier quantum mismatch: local "
                f"{local.quantum} vs global {global_tier.quantum} — tiers "
                "must share one pose-key grid"
            )
        if global_tier is not None and global_tier.epoch != local.epoch:
            raise ValueError(
                f"tier epoch mismatch: local {local.epoch} vs global "
                f"{global_tier.epoch} — tiers must join at the same epoch"
            )
        self.local = local
        self.global_tier = global_tier
        self.hits = 0
        self.misses = 0
        self.hits_local = 0
        self.hits_global = 0
        self._fresh: List[bytes] = []

    # -- CollisionCache interface --------------------------------------

    @property
    def quantum(self) -> float:
        return self.local.quantum

    @property
    def epoch(self) -> int:
        return self.local.epoch

    @property
    def collect_stats(self) -> Optional[bool]:
        return self.local.collect_stats

    def attach(self, collect_stats: bool, footprint_fn: Optional[FootprintFn]) -> None:
        self.local.attach(collect_stats, footprint_fn)
        if self.global_tier is not None:
            self.global_tier.attach(collect_stats, footprint_fn)

    def keys(self, qs) -> List[bytes]:
        return self.local.keys(qs)

    def lookup(self, qs) -> CacheLookup:
        keys = self.local.keys(qs)
        if self.global_tier is None:
            result = self.local._lookup_keys(keys)
            hits_local = hits = int(result.found.sum())
        else:
            result, hits_local = self._lookup_tiers(keys)
            hits = int(result.found.sum())
        self.hits += hits
        self.misses += len(keys) - hits
        self.hits_local += hits_local
        self.hits_global += hits - hits_local
        self.local._mirror_lookups(hits, len(keys) - hits)
        return result

    def _lookup_tiers(self, keys: List[bytes]) -> Tuple[CacheLookup, int]:
        """Row-ordered local-then-global reads with promotion."""
        local, global_tier = self.local, self.global_tier
        # Promotion is an adopt: gated on the tiers sharing an epoch.
        promote = global_tier.epoch == local.epoch and global_tier._rows is not None
        if promote:
            local._reserve(len(keys), global_tier._rows["poses"].shape[1])
        local_get, global_get = local._slot.get, global_tier._slot.get
        local_rows, local_slots = [], []
        global_rows, global_slots, promoted = [], [], []
        for row, key in enumerate(keys):
            slot = local_get(key)
            if slot is not None:
                local_rows.append(row)
                local_slots.append(slot)
                continue
            slot = global_get(key)
            if slot is not None:
                global_rows.append(row)
                global_slots.append(slot)
                if promote:
                    promoted.append(local._insert(key))
        n, n_local, n_global = len(keys), len(local_rows), len(global_rows)
        local.hits += n_local
        local.misses += n - n_local
        global_tier.hits += n_global
        global_tier.misses += n - n_local - n_global

        verdicts = np.zeros(n, dtype=bool)
        work = np.zeros((n, WORK_WIDTH), dtype=np.int64)
        if global_rows:
            block = global_tier._take(np.asarray(global_slots, dtype=np.int64))
            if promoted:
                local._put(promoted, block, slice(None))
            verdicts[global_rows] = block.verdicts
            work[global_rows] = block.work
        if local_rows:
            # After the promotions: a row may hit an entry promoted earlier
            # in this block.  Evicted rows keep their data until compaction,
            # which cannot happen inside a block.
            verdicts[local_rows] = local._rows["verdicts"][local_slots]
            work[local_rows] = local._rows["work"][local_slots]
        found = np.zeros(n, dtype=bool)
        found[local_rows] = True
        found[global_rows] = True
        return CacheLookup(keys, found, verdicts, work), n_local

    def store(self, qs, verdicts, work=None, keys=None) -> None:
        qs = _as_block(qs)
        if keys is None:
            keys = self.local.keys(qs)
        inserted = self.local._write(keys, qs, verdicts, work)
        self._fresh.extend(compress(keys, inserted))

    def invalidate_regions(self, regions: Sequence[AABB]) -> int:
        """Invalidate the *local* tier (the fleet does the global tier once)."""
        dropped = self.local.invalidate_regions(regions)
        self._fresh.clear()
        return dropped

    def advance_epoch(self) -> None:
        self.local.advance_epoch()
        self._fresh.clear()

    def __len__(self) -> int:
        return len(self.local)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        out = self.local.counters()
        out.update(
            {
                "hits": self.hits,
                "misses": self.misses,
                "hits_local": self.hits_local,
                "hits_global": self.hits_global,
                "entries": len(self.local),
                "epoch": self.local.epoch,
            }
        )
        return out

    def clear(self) -> None:
        self.local.clear()
        self.hits = self.misses = self.hits_local = self.hits_global = 0
        self._fresh.clear()

    # -- fleet protocol -------------------------------------------------

    def export_fresh(self) -> CacheBlock:
        """Entries stored (not promoted) since the last export, in order.

        Clears the log: the fleet calls this exactly once per drain, after
        every shard finished, and merges the results into the global tier.
        Entries evicted from the local tier since being logged are skipped.
        """
        slots = [
            slot
            for slot in map(self.local._slot.get, self._fresh)
            if slot is not None
        ]
        self._fresh.clear()
        return self.local._take(np.asarray(slots, dtype=np.int64))

    def export_state(self) -> dict:
        """Picklable local-tier snapshot for a process-mode worker."""
        return {
            "entries": self.local.export_entries(),
            "counters": {
                "hits": self.hits,
                "misses": self.misses,
                "hits_local": self.hits_local,
                "hits_global": self.hits_global,
                "local_hits": self.local.hits,
                "local_misses": self.local.misses,
                "local_invalidated": self.local.invalidated,
                "local_epoch_advances": self.local.epoch_advances,
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        entries: CacheBlock = state["entries"]
        self.local._load(entries)
        if self.global_tier is not None:
            self.global_tier.epoch = entries.epoch
        counters = state["counters"]
        self.hits = counters["hits"]
        self.misses = counters["misses"]
        self.hits_local = counters["hits_local"]
        self.hits_global = counters["hits_global"]
        self.local.hits = counters["local_hits"]
        self.local.misses = counters["local_misses"]
        self.local.invalidated = counters["local_invalidated"]
        self.local.epoch_advances = counters["local_epoch_advances"]
        self._fresh.clear()


def footprint_of_obbs(obbs) -> AABB:
    """AABB enclosing every OBB's bounding sphere (the cache's pose footprint).

    The cascade's first stage tests node boxes against each link's
    bounding sphere, so a pose's work counts depend on every node within
    that sphere — not only on the nodes the OBB itself touches.  This is
    the one-pose reference; :func:`link_footprints` is the batch form.
    """
    lo = np.full(3, np.inf)
    hi = np.full(3, -np.inf)
    for obb in obbs:
        radius = obb.bounding_sphere_radius
        lo = np.minimum(lo, obb.center - radius)
        hi = np.maximum(hi, obb.center + radius)
    return AABB.from_min_max(lo, hi)


def link_footprints(centers: np.ndarray, halves: np.ndarray):
    """Footprints of n poses: :func:`footprint_of_obbs`, batched.

    ``centers`` is ``(n, L, 3)`` link OBB centers; ``halves`` the ``(L, 3)``
    per-link half extents (constant across poses).  Each link's radius is
    computed once with :attr:`OBB.bounding_sphere_radius`' expression, and
    the box goes through :meth:`AABB.from_min_max`' arithmetic, so the
    result equals the per-pose reference bit for bit.  Returns ``(n, 3)``
    centers and half extents.
    """
    radius = np.array([math.sqrt(float(np.dot(h, h))) for h in halves])
    lo = (centers - radius[:, None]).min(axis=1)
    hi = (centers + radius[:, None]).max(axis=1)
    return (lo + hi) / 2.0, (hi - lo) / 2.0
