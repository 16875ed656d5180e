"""Vectorized set-associative cache backend (structure-of-arrays).

:class:`VectorBank` keeps the functional LRU tag state of many cache
slices in one shared set of numpy arrays and resolves whole batches of
accesses at once, advancing every touched set in numpy steps instead
of one Python probe per access, so the simulation engine resolves an
entire epoch across every (chip, slice) pair in one kernel call
(:meth:`VectorBank.access_many_grouped`, uniform single-stage epochs)
or two (:meth:`VectorBank.access_many_staged`, the partitioned
two-stage L1.5 plan table of the static and dynamic organizations).
Each slice is a :class:`VectorCache`: the state view
of its rows that the organizations repartition, the engine drains at
kernel boundaries and the differential tests compare against
:class:`SetAssociativeCache`, plus the scalar ``access``/``fill`` the
serial engine runs for an epoch the bank declines.  A run that cannot
take the vector path never builds a bank: it runs on
:class:`SetAssociativeCache` slices.

The batch kernel is *bit-identical* to :class:`SetAssociativeCache`
for every cache configuration, **including way-partitioned and
sectored caches**: same per-access hit/miss/sector-miss outcomes, same
eviction addresses and dirty bits, same ``CacheStats``, same final
state.

State layout (the *slot store*): one ``(C, S, A)`` block of
tags/dirty bits per *partition slot*, where a line's slot is its
partition id for its whole lifetime (slot 0 is ``UNPARTITIONED`` ==
``PARTITION_LOCAL``).  A way-partitioned lookup with ``ways[p] = k``
is then an ordinary LRU solve over slot ``p``'s rows with a *logical
capacity* ``cap = k`` instead of the physical associativity — the
same kernel, parameterized.  Sectored caches add a sector-valid
bitmask column.  A lazily-created ``stamp`` column (global access
counter) records every line's last touch so per-set LRU order can be
merged *across* slots when scalar semantics require a global view.

The staged path takes calls of the L1.5 table's shape only, checked
per call (see :meth:`VectorBank.access_many_staged`), and resolves an
epoch in two kernel calls: phase 1 over the REMOTE probes, phase 2
over the LOCAL ones.  A partition occupying more ways than its current
allotment (after ``set_partition`` shrinks it) stays on the kernel:
the growing slot's fills drain the over-full slot's LRU lines one at a
time, each as a *drain step* in the call that probes the over slot.
Which slot is over sets the direction; the mirrored one (REMOTE over,
drained by phase-2 fills) is solved as a fixed point before phase 1
(see :meth:`VectorBank._mirror_drains`).  An epoch that probes an
over-allotted row the drain model cannot describe (on the engine's
tables, a zero-way over slot) is declined whole, before any state
changes, and the engine reruns it serially.  Scalar ``access``/``fill``
calls apply exact scalar semantics to one set at a time
(:class:`_SetReplay`) and write it back into the arrays.

Per-slice ``CacheStats`` live in one ``(C, 7)`` counter block on the
slot store, in ``CacheStats`` field order: a bank call charges it with
one ``bincount`` over (cache, outcome class) per stage, and
:attr:`VectorCache.stats` reads its row.

How the kernel works (:func:`_batch_resolve`): an exact LRU whose
touched rows advance in lockstep, one access per row per numpy step.

* *Schedule* (stream only): the touched rows are sorted busiest first,
  so the rows still active at within-row rank ``r`` are a prefix, and
  one scatter orders the accesses rank-major.
* *State block*: the touched rows' tags are gathered once and every
  slot is keyed ``(last touch << 1) | dirty``.  Resident lines keep
  their LRU order below every in-batch touch; free slots under the
  row's cap take the lowest key, so they fill first; slots at or above
  the cap are never chosen.
* *Step* ``r``: over the live prefix, one ``argmin`` over the keys,
  with a matching tag outranking every key, gives the hit way or else
  the LRU victim.  The old tag and key are the eviction report; the
  new key is ``(r << 1) | write``, keeping the old dirty bit on a hit.
  Sector masks and stamps ride along.  A drain step matches no tag, so
  it takes the LRU line, and keys the slot ``_NEVER``: the row's
  capacity shrinks by one.
* *Write-back*: one ``argsort`` per touched row by key, applied as a
  flat gather per column, restores the packed LRU -> MRU layout that
  :meth:`VectorCache.drain`, :func:`_stack_depths` and
  :class:`_SetReplay` read; free and retired slots go last.

A batch costs one step per access of its busiest row, each a handful
of numpy calls over the rows still live.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..arch.config import CacheConfig
from ..core import sanitize as _sanitize
from .cache import (
    UNPARTITIONED,
    AccessResult,
    CacheLine,
    CacheStats,
    PartitionFullError,
    _HIT,
    _MISS,
    _SECTOR_MISS,
    validate_partition_ways,
)

class BatchResult(NamedTuple):
    """Per-access outcomes of one batch, in stream order."""

    hits: np.ndarray          # bool (m,)
    evicted_addr: np.ndarray  # int64 (m,); -1 where nothing was evicted
    evicted_dirty: np.ndarray  # bool (m,); True only where evicted_addr >= 0
    sector_miss: Optional[np.ndarray] = None  # bool (m,); sectored only


class StagedResult(NamedTuple):
    """Outcomes of a two-stage partitioned epoch, in stream order."""

    hit_stage: np.ndarray     # int64 (n,); -1 miss, 0 stage-0 hit, 1 stage-1
    evicted_cache: np.ndarray  # int64 (k,); flat cache index, dirty evictions
    evicted_addr: np.ndarray  # int64 (k,); line addresses, dirty evictions


class GroupedLaneCall(NamedTuple):
    """One lane's uniform epoch in a shared bank call.

    ``lane`` is the absolute ``[lo, hi)`` cache range the call's gate
    and stats cover; ``cache_idx`` is relative to ``lo``.
    """

    lane: Tuple[int, int]
    cache_idx: np.ndarray
    addrs: np.ndarray
    writes: np.ndarray


class StagedLaneCall(NamedTuple):
    """One lane's two-stage epoch in a shared bank call.

    ``lane`` is as in :class:`GroupedLaneCall`; ``idx0``/``idx1`` are
    relative to its ``lo``.
    """

    lane: Tuple[int, int]
    addrs: np.ndarray
    writes: np.ndarray
    idx0: np.ndarray
    part0: np.ndarray
    two_stage: np.ndarray
    idx1: np.ndarray
    part1: np.ndarray


class _Geometry(NamedTuple):
    """Address-splitting constants shared by a bank's caches."""

    num_sets: int
    associativity: int
    line_shift: int
    sets_pow2: bool
    index_bits: int
    set_mask: int
    sectored: bool = False
    sector_shift: int = 0
    sectors: int = 1

    def split(self, addrs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        lines = addrs >> np.int64(self.line_shift)
        if self.sets_pow2:
            return lines & np.int64(self.set_mask), \
                lines >> np.int64(self.index_bits)
        return lines % np.int64(self.num_sets), \
            lines // np.int64(self.num_sets)

    def rebuild(self, sets: np.ndarray, tags: np.ndarray) -> np.ndarray:
        if self.sets_pow2:
            lines = (tags << np.int64(self.index_bits)) | sets
        else:
            lines = tags * np.int64(self.num_sets) + sets
        return lines << np.int64(self.line_shift)

    def rebuild_one(self, index: int, tag: int) -> int:
        if self.sets_pow2:
            line = tag << self.index_bits | index
        else:
            line = tag * self.num_sets + index
        return line << self.line_shift

    def sector_of(self, addrs: np.ndarray) -> np.ndarray:
        offsets = addrs & np.int64((1 << self.line_shift) - 1)
        return offsets >> np.int64(self.sector_shift)

    def sector_of_one(self, addr: int) -> int:
        return (addr & ((1 << self.line_shift) - 1)) >> self.sector_shift


def _geometry_of(config: CacheConfig) -> _Geometry:
    num_sets = config.num_sets
    sectored = config.sectored
    sector_shift = config.sector_size.bit_length() - 1 if sectored else 0
    line_shift = config.line_size.bit_length() - 1
    return _Geometry(
        num_sets=num_sets,
        associativity=config.associativity,
        line_shift=line_shift,
        sets_pow2=(num_sets & (num_sets - 1)) == 0,
        index_bits=num_sets.bit_length() - 1,
        set_mask=num_sets - 1,
        sectored=sectored,
        sector_shift=sector_shift,
        sectors=1 << (line_shift - sector_shift) if sectored else 1)


#: Tag of an empty slot in the kernel's working block.  Line addresses,
#: hence tags, are non-negative, so no access can match it.  Tags below
#: it mark drain steps (see :func:`_batch_resolve`).
_FREE = -1
#: Key of a slot at or above its row's capacity: above every other key,
#: so it is never the LRU choice.  Even, so it reads as clean.
_NEVER = 1 << 62

#: Counter-block columns, one per ``CacheStats`` field, in field order.
_STAT_NAMES = tuple(f.name for f in dataclasses.fields(CacheStats))
#: The ``CacheStats`` fields one probe of each outcome class counts
#: (see :func:`_outcome_class`).
_CLASS_FIELDS = (
    # 0: a miss that cannot fill (zero-way partition, or no allocation).
    ("accesses", "misses"),
    # 1: a hit.
    ("accesses", "hits"),
    # 2: a sector miss.
    ("accesses", "misses", "sector_misses"),
    # 3/4/5: a fill evicting nothing, a clean line or a dirty line.
    ("accesses", "misses", "fills"),
    ("accesses", "misses", "fills", "evictions"),
    ("accesses", "misses", "fills", "evictions", "dirty_evictions"),
)
#: Row k: what one probe of outcome class k adds to the counter block.
_CLASS_STATS = np.array([[name in fields for name in _STAT_NAMES]
                         for fields in _CLASS_FIELDS], dtype=np.int64)
_CLASSES = _CLASS_STATS.shape[0]
#: Counter-block columns a response-path fill charges.
_EVICTIONS, _DIRTY_EVICTIONS, _FILLS = (
    _STAT_NAMES.index(name)
    for name in ("evictions", "dirty_evictions", "fills"))


def _outcome_class(hits: np.ndarray, sector_miss: Optional[np.ndarray],
                   filled: np.ndarray, evicted: np.ndarray,
                   ev_dirty: np.ndarray) -> np.ndarray:
    """Each probe's outcome class (a row of :data:`_CLASS_STATS`).

    ``hits``, ``sector_miss`` and ``filled`` are mutually exclusive; an
    eviction (``evicted``) only ever rides on a fill.
    """
    cls = hits.astype(np.int64)
    if sector_miss is not None:
        cls += sector_miss * np.int64(2)
    cls += filled * (np.int64(3) + evicted + ev_dirty)
    return cls


def _absolute(idx: np.ndarray, lo: int) -> np.ndarray:
    """Lane-relative cache indices ``idx`` made absolute: the array
    itself on a lane starting at cache 0, as the engine's call does."""
    return idx + np.int64(lo) if lo else idx


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative ``keys`` that stay below ``bound``.

    Keys that fit int16 take numpy's radix sort, about 8x faster than
    the int64 mergesort.
    """
    if bound <= 32767:
        return np.argsort(keys.astype(np.int16), kind="stable")
    return np.argsort(keys, kind="stable")


def _expect_grouped(site: str, call: GroupedLaneCall) -> None:
    """Check a grouped call's array contracts."""
    n = call.addrs.shape[0]
    _sanitize.expect(site, "addrs", call.addrs, "int64", n)
    _sanitize.expect(site, "writes", call.writes, "bool", n)
    _sanitize.expect(site, "cache_idx", call.cache_idx, "int64", n)


def _expect_staged(site: str, call: StagedLaneCall) -> None:
    """Check a staged call's array contracts and the L1.5 table's
    partition shape.

    Single-stage and stage-1 probes are on LOCAL (``UNPARTITIONED``,
    slot 0); the stage-0 probes of two-stage accesses are on one other
    partition.  A call outside it is a sanitizer ``contract`` violation,
    raised before any state changes.
    """
    n = call.addrs.shape[0]
    _sanitize.expect(site, "addrs", call.addrs, "int64", n)
    _sanitize.expect(site, "writes", call.writes, "bool", n)
    _sanitize.expect(site, "idx0", call.idx0, "int64", n)
    _sanitize.expect(site, "part0", call.part0, "int64", n)
    _sanitize.expect(site, "two_stage", call.two_stage, "bool", n)
    _sanitize.expect(site, "idx1", call.idx1, "int64", n)
    _sanitize.expect(site, "part1", call.part1, "int64", n)
    ts = call.two_stage
    remote = call.part0[ts]
    _sanitize.require(
        site,
        bool((call.part0[~ts] == UNPARTITIONED).all()
             and (call.part1[ts] == UNPARTITIONED).all()
             and (remote == remote[:1]).all()
             and (remote != UNPARTITIONED).all()),
        "probes outside the L1.5 shape: single-stage and stage-1 probes "
        "must be on LOCAL, the stage-0 probes of two-stage accesses on "
        "one other partition")


def _batch_resolve(tags: np.ndarray, dirty: np.ndarray, count: np.ndarray,
                   geo: _Geometry, rows: np.ndarray, tg: np.ndarray,
                   wr: np.ndarray,
                   cap: Union[int, np.ndarray, None] = None,
                   sector: Optional[np.ndarray] = None,
                   sec: Optional[np.ndarray] = None,
                   stamp: Optional[np.ndarray] = None,
                   stamp_vals: Optional[np.ndarray] = None) -> BatchResult:
    """Resolve a batch against packed LRU rows, updating state in place.

    ``tags``/``dirty`` are ``(R, A)`` arrays and ``count`` is ``(R,)``;
    row ``r`` holds ``count[r]`` resident lines at slots ``0..count-1``
    in LRU -> MRU order.  ``rows``/``tg``/``wr`` give each access's row,
    tag and write flag in stream order.  ``cap`` is the *logical* row
    capacity (defaults to the physical associativity) — a scalar, or a
    per-access vector that is constant within each row.  A row holding
    more lines than its cap has no free way under it, so it runs as an
    LRU at its occupancy; zero-cap rows resolve as misses that neither
    fill nor evict (the vectorized ``PartitionFullError`` outcome).  An
    entry whose tag is below ``_FREE`` is a *drain step*: it evicts its
    row's LRU line, reported like a fill's eviction, and retires the
    slot, so the row's occupancy drops by one.  Every drain step needs
    a tag of its own, so that no later entry matches a retired slot.
    For sectored caches, ``sector``
    is the ``(R, A)`` sector-valid bitmask column, ``sec`` each
    access's sector index, and the returned ``sector_miss`` marks
    tag-hits whose sector was absent.  ``stamp`` (with per-access
    ``stamp_vals``) is an optional last-touch column, maintained but
    never read by the kernel.

    The touched rows advance in lockstep, one access per row per step
    (see the module docstring).
    """
    m = rows.shape[0]
    hits = np.zeros(m, dtype=bool)
    ev_addr = np.full(m, -1, dtype=np.int64)
    ev_dirty = np.zeros(m, dtype=bool)
    sm_out = np.zeros(m, dtype=bool) if sector is not None else None
    if cap is None:
        cap = geo.associativity
    # Accesses to zero-cap rows never enter the schedule.
    if isinstance(cap, np.ndarray):
        pos = np.flatnonzero(cap > 0)
    else:
        pos = np.arange(m if cap > 0 else 0, dtype=np.int64)
    n = pos.size
    if not n:
        return BatchResult(hits, ev_addr, ev_dirty, sm_out)
    A = geo.associativity

    # Schedule (stream only): touched rows busiest first, so the rows
    # still active at within-row rank r are a prefix; accesses
    # rank-major, in that row order within each rank.  Step r holds
    # live[r] accesses, so an access of rank r in row group g goes to
    # slot off[r] + g: one scatter places them all.
    prow = rows[pos]
    per_row = np.bincount(prow, minlength=tags.shape[0])
    touched = np.flatnonzero(per_row)
    cnt = per_row[touched]
    steps = int(cnt.max())
    trow = touched[_stable_order(steps - cnt, steps + 1)]
    cnt = per_row[trow]
    del per_row, touched
    G = trow.size
    lut = np.empty(tags.shape[0], dtype=np.int64)
    lut[trow] = np.arange(G, dtype=np.int64)
    grp = lut[prow]
    del lut, prow
    # Each touched row's cap (constant within a row), read while the
    # accesses' groups are still at hand.
    capg: Optional[np.ndarray] = None
    if isinstance(cap, np.ndarray):
        capg = np.empty(G, dtype=np.int64)
        capg[grp] = cap[pos]
    by_row = _stable_order(grp, G)
    starts = np.zeros(G, dtype=np.int64)
    np.cumsum(cnt[:-1], out=starts[1:])
    rank = np.empty(n, dtype=np.int64)
    rank[by_row] = np.arange(n, dtype=np.int64) - np.repeat(starts, cnt)
    del by_row, starts
    live = G - np.cumsum(np.bincount(cnt, minlength=steps + 1))[:steps]
    off = np.zeros(steps, dtype=np.int64)
    np.cumsum(live[:-1], out=off[1:])
    sched = np.empty(n, dtype=np.int64)
    sched[off[rank] + grp] = np.arange(n, dtype=np.int64)
    del rank, grp
    acc = pos[sched]
    # The schedule's scratch is dead from here on: ``acc`` alone maps
    # each step slot to its access.
    del sched, pos
    t_s = tg[acc]
    # Step r stamps its touches (A + 1 + r) << 1 | write: above every
    # resident line's key, in rank order.  A drain step retires the
    # slot it empties: keyed _NEVER, it is never chosen again.
    code = (np.repeat(np.arange(A + 1, A + 1 + steps, dtype=np.int64),
                      live) << np.int64(1)) | wr[acc]
    code[t_s < _FREE] = _NEVER

    # State block: the touched rows' lines keyed (last touch << 1) |
    # dirty.  Resident lines keep their LRU order below every in-batch
    # touch; free slots under the cap take the lowest key (they fill
    # first, in slot order); slots at or above it never get chosen.
    # The block is W columns wide, W the widest cap (or fill) among the
    # touched rows: the columns past it are free and never chosen.
    c0 = count[trow]
    if capg is not None:
        W = min(A, max(int(capg.max()), int(c0.max())))
    else:
        assert not isinstance(cap, np.ndarray)
        W = min(A, max(cap, int(c0.max())))
    slot = np.arange(W, dtype=np.int64)
    blk_t = tags[trow, :W]
    resident = slot[None, :] < c0[:, None]
    if capg is not None:
        below = slot[None, :] < capg[:, None]
    else:
        below = np.broadcast_to(slot < cap, (G, W))
    key = np.where(resident, ((slot + 1) << np.int64(1)) | dirty[trow, :W],
                   np.where(below, np.int64(0), np.int64(_NEVER)))
    del below
    blk_t[~resident] = _FREE
    del resident
    flat_t = blk_t.reshape(-1)
    flat_k = key.reshape(-1)
    base = np.arange(0, G * W, W, dtype=np.int64)
    old_t = np.empty(n, dtype=np.int64)
    old_k = np.empty(n, dtype=np.int64)
    # Ride-along columns: the sector masks, with each access's bit and
    # room for the old masks the verdicts read, and the stamps.
    sect: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    if sector is not None:
        assert sec is not None
        sect = (sector[trow, :W].reshape(-1), np.int64(1) << sec[acc],
                np.empty(n, dtype=np.int64))
    stamps: Optional[Tuple[np.ndarray, np.ndarray]] = None
    if stamp is not None:
        assert stamp_vals is not None
        stamps = (stamp[trow, :W].reshape(-1), stamp_vals[acc])

    # Step r: one access per live row.  A matching tag outranks every
    # key, so one argmin finds the hit way or else the LRU victim; a
    # hit keeps its dirty bit, a fill replaces the line.
    widths = live.tolist()
    lo = 0
    for r in range(steps):
        width = widths[r]
        hi = lo + width
        t = t_s[lo:hi]
        way = np.argmin(np.where(blk_t[:width] == t[:, None], np.int64(-1),
                                 key[:width]), axis=1)
        f = base[:width] + way
        ot = flat_t[f]
        ok = flat_k[f]
        old_t[lo:hi] = ot
        old_k[lo:hi] = ok
        hit = ot == t
        flat_t[f] = t
        flat_k[f] = code[lo:hi] | (ok & hit)
        if sect is not None:
            os_ = sect[0][f]
            sect[2][lo:hi] = os_
            sect[0][f] = sect[1][lo:hi] | (os_ * hit)
        if stamps is not None:
            stamps[0][f] = stamps[1][lo:hi]
        lo = hi
    # Past the steps the step codes and stamp values are dead (``t`` is
    # a view of ``t_s``, which the verdicts still read).
    del code, t
    blk_s = sect[0] if sect is not None else None
    blk_st = stamps[0] if stamps is not None else None
    stamps = None

    # Verdicts: a tag hit whose sector bit was clear is a sector miss
    # (the step above set the bit); a miss that replaced a line evicts
    # it with the line's dirty bit.
    tag_hit = old_t == t_s
    del t_s
    if sect is not None:
        assert sm_out is not None
        present = (sect[2] & sect[1]) != 0
        sect = None
        hits[acc] = tag_hit & present
        sm_out[acc] = tag_hit & ~present
        del present
    else:
        hits[acc] = tag_hit
    ev = np.flatnonzero(~tag_hit & (old_k != 0))
    del tag_hit
    if ev.size:
        ea = acc[ev]
        ev_addr[ea] = geo.rebuild(rows[ea] % np.int64(geo.num_sets),
                                  old_t[ev])
        ev_dirty[ea] = (old_k[ev] & 1) != 0
    del old_t, old_k, acc

    # Write-back: sorting each row by key restores the packed LRU ->
    # MRU layout, free and retired slots last; each column is one flat
    # gather of the sorted slots.  Unoccupied slots hold even keys, so
    # rekeying them _NEVER in place keeps every dirty bit.
    occupied = blk_t >= 0
    key[~occupied] = _NEVER
    idx = np.argsort(key, axis=1)
    idx += base[:, None]
    tags[trow, :W] = flat_t[idx]
    dirty[trow, :W] = (flat_k[idx] & 1) != 0
    if sector is not None:
        assert blk_s is not None
        sector[trow, :W] = blk_s[idx]
    if stamp is not None:
        assert blk_st is not None
        stamp[trow, :W] = blk_st[idx]
    count[trow] = occupied.sum(axis=1)
    return BatchResult(hits, ev_addr, ev_dirty, sm_out)


def _seg_rank(keys: np.ndarray) -> np.ndarray:
    """Rank of each element among the earlier elements with its key
    (non-negative ids: rows, row pairs)."""
    m = keys.size
    if not m:
        return np.zeros(0, dtype=np.int64)
    order = _stable_order(keys, int(keys.max()) + 1)
    ko = keys[order]
    pos = np.arange(m, dtype=np.int64)
    starts = np.where(np.r_[True, ko[1:] != ko[:-1]], pos, 0)
    out = np.empty(m, dtype=np.int64)
    out[order] = pos - np.maximum.accumulate(starts)
    return out


#: Probes per chunk of a ``(probes, ways)`` gather of kernel rows
#: (:func:`_resident_way`): its scratch stays near 512 x A int64
#: values whatever the epoch's length.
_GATHER_ROWS = 512
#: Elements per chunk of :func:`_stack_depths`' dominance count.
_DOMINANCE_ELEMS = 1 << 16


def _resident_way(tags: np.ndarray, count: np.ndarray, rows: np.ndarray,
                  tg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Way of tag ``tg[i]`` among the ``count`` resident lines of kernel
    row ``rows[i]`` (0 where absent), and whether it is resident.

    Gathers the rows :data:`_GATHER_ROWS` probes at a time.
    """
    m = rows.size
    ways = np.arange(tags.shape[1], dtype=np.int64)
    way = np.empty(m, dtype=np.int64)
    found = np.empty(m, dtype=bool)
    for lo in range(0, m, _GATHER_ROWS):
        hi = min(lo + _GATHER_ROWS, m)
        r = rows[lo:hi]
        eq = (tags[r] == tg[lo:hi, None]) & (ways < count[r][:, None])
        w = np.argmax(eq, axis=1)
        way[lo:hi] = w
        found[lo:hi] = eq[np.arange(hi - lo, dtype=np.int64), w]
    return way, found


def _stack_depths(rows: np.ndarray, tg: np.ndarray, tags: np.ndarray,
                  count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LRU stack depth of every access of a (row, tag) stream.

    Depth 0 is the MRU line.  A re-touch lies below the distinct tags
    touched since its previous touch; a first touch of a line resident
    at depth ``d`` lies below those ``d`` lines plus every deeper or
    absent tag first-touched before it; an absent tag lies below the
    associativity.  By the inclusion property an LRU holding the top
    ``c`` lines of that stack hits exactly the accesses of depth below
    ``c``, so one depth vector answers every capacity — including one
    that shrinks mid-stream.  Also returns the pre-batch way of first
    touches that find their tag resident (-1 elsewhere).
    """
    m = rows.size
    A = tags.shape[1]
    if not m:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = _stable_order(rows, int(rows.max()) + 1)
    ro = rows[order]
    new = np.r_[True, ro[1:] != ro[:-1]]
    pos = np.arange(m, dtype=np.int64)
    rank = np.empty(m, dtype=np.int64)
    rank[order] = pos - np.maximum.accumulate(np.where(new, pos, 0))
    gid = np.empty(m, dtype=np.int64)
    gid[order] = np.cumsum(new) - 1
    del order, ro, new, pos
    o2 = np.lexsort((tg, rows))
    same = (rows[o2][1:] == rows[o2][:-1]) & (tg[o2][1:] == tg[o2][:-1])
    pi = np.empty(m, dtype=np.int64)
    first = np.ones(m, dtype=bool)
    first[o2[1:][same]] = False
    pi[o2[1:][same]] = rank[o2[:-1][same]]
    del o2, same
    fi = np.flatnonzero(first)
    del first
    fr = rows[fi]
    way, found = _resident_way(tags, count, fr, tg[fi])
    pi[fi] = np.where(found, way - count[fr], -(A + 1))
    fway = np.full(m, -1, dtype=np.int64)
    fway[fi[found]] = way[found]
    del fi, fr, way, found
    # Same dominance count as the kernel's hit test: later accesses of
    # the group whose link does not pass this access's own link.
    W = int(rank.max()) + 1
    tab = np.full((int(gid.max()) + 1, W), W, dtype=np.int64)
    tab[gid, rank] = pi
    cols = np.arange(W, dtype=np.int64)[None, :]
    dom = np.empty(m, dtype=np.int64)
    step = max(1, _DOMINANCE_ELEMS // W)
    for lo in range(0, m, step):
        p = pi[lo:lo + step, None]
        dom[lo:lo + step] = ((cols > p) & (cols < rank[lo:lo + step, None])
                             & (tab[gid[lo:lo + step]] <= p)).sum(axis=1)
    return np.maximum(-pi - 1, 0) + dom, fway


def _drains_of(urow: np.ndarray, rid: np.ndarray, headroom: np.ndarray,
               free: np.ndarray) -> np.ndarray:
    """Which growth-fill candidates of under slots drain their row.

    The candidates are fills of under-slot kernel rows ``urow`` in
    (cache, set) rows ``rid``, in stream order.  While below its
    allotment an under slot never loses a line, so the first
    ``headroom`` fills of each under row (its allotment less its
    occupancy) grow it; past the row's ``free`` ways each growth fill
    evicts the over slot's LRU line.  Returns the indices of the
    candidates that drain.
    """
    g = np.flatnonzero(_seg_rank(urow) < headroom)
    rg = rid[g]
    return g[_seg_rank(rg) >= free[rg]]


class _OverRows(NamedTuple):
    """One call's over-allotted rows, read before its kernel calls run.

    Per flat (cache, set) row: ``slot`` is the over slot (the one
    holding more lines than its allotment), ``cap`` and ``occ`` its
    allotment and occupancy, ``free`` the row's free ways.  ``cand``
    (``(C, S)``) marks the rows that can drain; ``count`` is the
    occupancy snapshot by flat kernel row.
    """

    cand: np.ndarray
    slot: np.ndarray
    cap: np.ndarray
    occ: np.ndarray
    free: np.ndarray
    count: np.ndarray


class _StagedPlan(NamedTuple):
    """One staged call's epoch: the probes of its two kernel calls.

    Cache indices (``idx0a``/``idx1a``) and kernel rows are absolute.
    A stage-1 probe's kernel row (``krow1``, slot 0) is its flat (cache,
    set) row; a stage-0 probe's flat row is ``krow0 % (C * S)``.
    ``grow`` marks the flat (cache, set) rows whose over slot is LOCAL:
    phase-1 fills drain them.  ``mirror`` holds the drains of the rows
    whose over slot is the remote one (draining stream position, flat
    (cache, set) row), solved before phase 1.
    """

    call: StagedLaneCall
    idx0a: np.ndarray
    idx1a: np.ndarray
    tg: np.ndarray
    sec: Optional[np.ndarray]
    cap0: np.ndarray
    cap1: np.ndarray
    krow0: np.ndarray
    krow1: np.ndarray
    grow: Optional[np.ndarray]
    mirror: Optional[Tuple[np.ndarray, np.ndarray]]


class _SlotStore:
    """Slot-major array state shared by a bank's caches.

    One ``(C, S, A)`` block of state per partition *slot*; a line lives
    in the slot of the partition it was filled with for its whole
    lifetime (slot 0 is ``UNPARTITIONED``).  The flat kernel row of
    (slot, cache, set) is ``(slot * C + cache) * S + set``, so
    ``row % S`` recovers the set index for address rebuilding.
    """

    def __init__(self, config: CacheConfig, num_caches: int) -> None:
        S, A = config.num_sets, config.associativity
        C = num_caches
        self.num_caches = C
        self.num_sets = S
        self.associativity = A
        self.tags = np.zeros((1, C, S, A), dtype=np.int64)
        self.dirty = np.zeros((1, C, S, A), dtype=bool)
        self.count = np.zeros((1, C, S), dtype=np.int64)
        self.sector: Optional[np.ndarray] = (
            np.zeros((1, C, S, A), dtype=np.int64) if config.sectored
            else None)
        #: Last-touch stamps (global access counter), created lazily the
        #: first time multi-slot state needs a cross-slot LRU order.
        self.stamp: Optional[np.ndarray] = None
        self.clock = 0
        #: Per-cache counters, one row per cache in ``CacheStats`` field
        #: order (see :data:`_STAT_NAMES`).
        self.stats = np.zeros((C, len(_STAT_NAMES)), dtype=np.int64)
        #: slot index -> partition id (slot 0 is always UNPARTITIONED).
        self.slot_ids: List[int] = [UNPARTITIONED]
        #: partition id -> slot index.
        self.slot_of: Dict[int, int] = {UNPARTITIONED: 0}

    @property
    def num_slots(self) -> int:
        return len(self.slot_ids)

    def ensure_slot(self, partition: int) -> int:
        """Return the slot of ``partition``, growing the store if new."""
        slot = self.slot_of.get(partition)
        if slot is not None:
            return slot
        C, S, A = self.num_caches, self.num_sets, self.associativity
        self.tags = np.concatenate(
            [self.tags, np.zeros((1, C, S, A), dtype=np.int64)], axis=0)
        self.dirty = np.concatenate(
            [self.dirty, np.zeros((1, C, S, A), dtype=bool)], axis=0)
        self.count = np.concatenate(
            [self.count, np.zeros((1, C, S), dtype=np.int64)], axis=0)
        if self.sector is not None:
            self.sector = np.concatenate(
                [self.sector, np.zeros((1, C, S, A), dtype=np.int64)],
                axis=0)
        if self.stamp is not None:
            self.stamp = np.concatenate(
                [self.stamp, np.zeros((1, C, S, A), dtype=np.int64)],
                axis=0)
        slot = len(self.slot_ids)
        self.slot_ids.append(partition)
        self.slot_of[partition] = slot
        return slot

    def ensure_stamps(self) -> None:
        """Create the last-touch column, synthesizing slot-0 order.

        Before stamps exist only slot 0 can hold lines (every other
        path maintains stamps), so positional order *is* LRU order:
        stamp the packed slots ``0..A-1`` and start the clock above
        them.
        """
        if self.stamp is not None:
            return
        P, C, S, A = (self.num_slots, self.num_caches, self.num_sets,
                      self.associativity)
        stamp = np.zeros((P, C, S, A), dtype=np.int64)
        stamp[0] = np.arange(A, dtype=np.int64)
        self.stamp = stamp
        self.clock = max(self.clock, A)

    def flat(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                            Optional[np.ndarray], Optional[np.ndarray]]:
        """Fresh 2-D/1-D kernel views of the current arrays."""
        A = self.associativity
        return (self.tags.reshape(-1, A), self.dirty.reshape(-1, A),
                self.count.reshape(-1),
                self.sector.reshape(-1, A) if self.sector is not None
                else None,
                self.stamp.reshape(-1, A) if self.stamp is not None
                else None)


def _drain(store: _SlotStore, geo: _Geometry, lo: int, hi: int,
           partition: Optional[int], dirty_only: bool
           ) -> Tuple[np.ndarray, int, int]:
    """Invalidate caches ``[lo, hi)`` of ``store`` in one pass per slot
    over their (cache, set) rows; see :meth:`VectorBank.drain`."""
    A = geo.associativity
    if partition is None:
        slots: Sequence[int] = range(store.num_slots)
    else:
        s = store.slot_of.get(partition, -1)
        if s < 0:
            return np.empty(0, dtype=np.int64), 0, 0
        slots = (s,)
    S = np.int64(geo.num_sets)
    addr_parts: List[np.ndarray] = []
    invalidated = 0
    ndirty = 0
    for s in slots:
        # Views of the slot's rows: writes land in the store.
        cnt = store.count[s, lo:hi].reshape(-1)
        if not cnt.any():
            continue
        tags = store.tags[s, lo:hi].reshape(-1, A)
        dirty = store.dirty[s, lo:hi].reshape(-1, A)
        live = np.arange(A, dtype=np.int64)[None, :] < cnt[:, None]
        dsel = dirty & live
        drows, dslots = np.nonzero(dsel)
        if drows.size:
            addr_parts.append(geo.rebuild(drows % S, tags[drows, dslots]))
        ndirty += int(drows.size)
        if not dirty_only:
            invalidated += int(cnt.sum())
            cnt[:] = 0
            continue
        invalidated += int(drows.size)
        # Clean lines slide down over the dirty ones, keeping LRU order.
        krows, kslots = np.nonzero(live & ~dsel)
        nkeep = np.bincount(krows, minlength=cnt.size)
        offs = np.cumsum(nkeep) - nkeep
        newslot = np.arange(krows.size, dtype=np.int64) - offs[krows]
        tags[krows, newslot] = tags[krows, kslots]
        dirty[krows, newslot] = False
        for column in (store.sector, store.stamp):
            if column is not None:
                col = column[s, lo:hi].reshape(-1, A)
                col[krows, newslot] = col[krows, kslots]
        cnt[:] = nkeep
    if addr_parts:
        dirty_addrs = np.concatenate(addr_parts)
    else:
        dirty_addrs = np.empty(0, dtype=np.int64)
    return dirty_addrs, invalidated, ndirty


class _SetReplay:
    """Exact scalar semantics for one set of one bank slice.

    Materializes the set as one LRU -> MRU list of
    ``[tag, dirty, sector_mask, partition, stamp]`` entries merged
    across every slot (by stamp), applies one scalar access or fill
    exactly as :class:`SetAssociativeCache` would, and writes the set
    back per slot.  It serves :meth:`VectorCache.access` and
    :meth:`VectorCache.fill`.
    """

    def __init__(self, store: _SlotStore, geo: _Geometry, ci: int,
                 index: int) -> None:
        store.ensure_stamps()
        stamp = store.stamp
        assert stamp is not None
        sector = store.sector
        self._store = store
        self._geo = geo
        self._ci = ci
        self._index = index
        entries: List[List[int]] = []
        for s in range(store.num_slots):
            pid = store.slot_ids[s]
            for k in range(int(store.count[s, ci, index])):
                entries.append([
                    int(store.tags[s, ci, index, k]),
                    int(store.dirty[s, ci, index, k]),
                    int(sector[s, ci, index, k]) if sector is not None
                    else 0,
                    pid,
                    int(stamp[s, ci, index, k])])
        entries.sort(key=lambda e: e[4])
        self._entries = entries

    def _find(self, tag: int) -> Optional[List[int]]:
        # A tag resident in several slots matches its LRU-most entry.
        return next((e for e in self._entries if e[0] == tag), None)

    def _touch_line(self, e: List[int], is_write: bool, stamp: int) -> None:
        if is_write:
            e[1] = 1
        e[4] = stamp
        self._entries.remove(e)
        self._entries.append(e)

    def touch(self, tag: int, is_write: bool, partition: int,
              allocate: bool, sector_idx: int,
              ways: Optional[Dict[int, int]], stamp: int
              ) -> Tuple[bool, bool, bool, int, int]:
        """One scalar access; returns (hit, sector_miss, filled,
        evicted_addr or -1, evicted_dirty)."""
        geo = self._geo
        e = self._find(tag)
        if e is not None:
            sector_miss = False
            if geo.sectored and not e[2] >> sector_idx & 1:
                sector_miss = True
                e[2] |= 1 << sector_idx
            self._touch_line(e, is_write, stamp)
            return (not sector_miss, sector_miss, False, -1, 0)
        if not allocate:
            return (False, False, False, -1, 0)
        ev_addr, ev_dirty = self._fill(tag, is_write, partition,
                                       sector_idx, ways, stamp)
        return (False, False, True, ev_addr, ev_dirty)

    def fill_touch(self, tag: int, is_write: bool, partition: int,
                   sector_idx: int, ways: Optional[Dict[int, int]],
                   stamp: int) -> Tuple[bool, int, int]:
        """Scalar ``fill`` semantics; returns (hit, evicted_addr or -1,
        evicted_dirty)."""
        e = self._find(tag)
        if e is not None:
            if self._geo.sectored:
                e[2] |= 1 << sector_idx
            self._touch_line(e, is_write, stamp)
            return (True, -1, 0)
        ev_addr, ev_dirty = self._fill(tag, is_write, partition,
                                       sector_idx, ways, stamp)
        return (False, ev_addr, ev_dirty)

    def _fill(self, tag: int, is_write: bool, partition: int,
              sector_idx: int, ways: Optional[Dict[int, int]], stamp: int
              ) -> Tuple[int, int]:
        geo = self._geo
        entries = self._entries
        victim: Optional[int] = None
        if ways is None:
            if len(entries) >= geo.associativity:
                victim = 0
        else:
            limit = ways.get(partition, 0)
            if limit == 0:
                raise PartitionFullError(partition)
            occ: Dict[int, int] = {}
            for e in entries:
                occ[e[3]] = occ.get(e[3], 0) + 1
            occupancy = occ.get(partition, 0)
            if occupancy >= limit:
                victim = next(k for k, e in enumerate(entries)
                              if e[3] == partition)
            elif len(entries) >= geo.associativity:
                over = {p for p, o in occ.items() if o > ways.get(p, 0)}
                victim = next((k for k, e in enumerate(entries)
                               if e[3] in over), 0)
        ev_addr = -1
        ev_dirty = 0
        if victim is not None:
            ve = entries.pop(victim)
            ev_addr = geo.rebuild_one(self._index, ve[0])
            ev_dirty = ve[1]
        entries.append([tag, int(is_write),
                        1 << sector_idx if geo.sectored else 0, partition,
                        stamp])
        return ev_addr, ev_dirty

    def flush_back(self) -> None:
        """Write the set back into the slot arrays."""
        store = self._store
        for e in self._entries:
            store.ensure_slot(e[3])
        ci, index = self._ci, self._index
        stamp = store.stamp
        assert stamp is not None
        per: Dict[int, List[List[int]]] = {}
        for e in self._entries:
            per.setdefault(store.slot_of[e[3]], []).append(e)
        for s in range(store.num_slots):
            lst = per.get(s, [])
            store.count[s, ci, index] = len(lst)
            for k, e in enumerate(lst):
                store.tags[s, ci, index, k] = e[0]
                store.dirty[s, ci, index, k] = bool(e[1])
                if store.sector is not None:
                    store.sector[s, ci, index, k] = e[2]
                stamp[s, ci, index, k] = e[4]


class VectorCache:
    """One slice of a :class:`VectorBank`: a view of its rows.

    The bank's kernel calls resolve its batches.  The slice itself
    holds the way allotment (:meth:`set_partition`), the state view the
    differential tests compare against :class:`SetAssociativeCache`
    (``stats``, a row of the store's counter block;
    :meth:`resident_lines`; occupancy), :meth:`drain`, and scalar
    :meth:`access`/:meth:`fill` with exact scalar semantics — what the
    serial engine runs for an epoch the bank declines or the engine
    keeps off the kernel.  A standalone instance owns a one-cache
    store.
    """

    def __init__(self, config: CacheConfig, name: str = "cache",
                 _store: Optional[_SlotStore] = None,
                 _index: int = 0) -> None:
        self.config = config
        self.name = name
        self._geo = _geometry_of(config)
        if _store is None:
            _store = _SlotStore(config, 1)
            _index = 0
        self._store = _store
        self._index = _index
        self._ways: Optional[Dict[int, int]] = None

    def _set_of(self, addr: int) -> Tuple[_SetReplay, int, int]:
        """The set ``addr`` maps to, its tag and sector index."""
        geo = self._geo
        line = addr >> geo.line_shift
        if geo.sets_pow2:
            index, tag = line & geo.set_mask, line >> geo.index_bits
        else:
            index, tag = line % geo.num_sets, line // geo.num_sets
        sec_idx = geo.sector_of_one(addr) if geo.sectored else 0
        rep = _SetReplay(self._store, geo, self._index, index)
        return rep, tag, sec_idx

    @property
    def stats(self) -> CacheStats:
        """This slice's counters, read from the store's counter block."""
        row = self._store.stats[self._index].tolist()
        return CacheStats(**dict(zip(_STAT_NAMES, row)))

    # -- Scalar operations -----------------------------------------------

    def access(self, addr: int, is_write: bool = False,
               partition: int = UNPARTITIONED,
               allocate_on_miss: bool = True) -> AccessResult:
        """Access byte ``addr`` with :class:`SetAssociativeCache`
        semantics; fill on miss unless ``allocate_on_miss`` is False."""
        row = self._store.stats[self._index]
        store = self._store
        rep, tag, sec_idx = self._set_of(addr)
        try:
            hit, sector_miss, filled, ev_addr, ev_dirty = rep.touch(
                tag, is_write, partition, allocate_on_miss, sec_idx,
                self._ways, store.clock)
        except PartitionFullError:
            row += _CLASS_STATS[0]
            raise
        rep.flush_back()
        store.clock += 1
        if hit:
            row += _CLASS_STATS[1]
            return _HIT
        if sector_miss:
            row += _CLASS_STATS[2]
            return _SECTOR_MISS
        if not filled:
            row += _CLASS_STATS[0]
            return _MISS
        row += _CLASS_STATS[3 + (ev_addr >= 0) + ev_dirty]
        if ev_addr >= 0:
            return AccessResult(hit=False, evicted_dirty=bool(ev_dirty),
                                evicted_addr=ev_addr)
        return _MISS

    def fill(self, addr: int, is_write: bool = False,
             partition: int = UNPARTITIONED) -> AccessResult:
        """Insert a line without counting a lookup (response-path fill)."""
        row = self._store.stats[self._index]
        store = self._store
        rep, tag, sec_idx = self._set_of(addr)
        hit, ev_addr, ev_dirty = rep.fill_touch(
            tag, is_write, partition, sec_idx, self._ways, store.clock)
        rep.flush_back()
        store.clock += 1
        if hit:
            return AccessResult(hit=True)
        evicted = ev_addr >= 0
        row[_FILLS] += 1
        if evicted:
            row[_EVICTIONS] += 1
            row[_DIRTY_EVICTIONS] += ev_dirty
        return AccessResult(hit=False, evicted_dirty=bool(ev_dirty),
                            evicted_addr=ev_addr if evicted else None)

    # -- Partitioning ----------------------------------------------------

    def set_partition(self, ways_by_partition: Optional[Dict[int, int]]
                      ) -> None:
        """Repartition in place: array state is untouched, over-full
        partitions drain lazily as later fills evict their lines."""
        if ways_by_partition is None:
            self._ways = None
            return
        validate_partition_ways(self.config.associativity,
                                ways_by_partition)
        store = self._store
        for pid, w in ways_by_partition.items():
            if w > 0:
                store.ensure_slot(pid)
        store.ensure_stamps()
        self._ways = dict(ways_by_partition)

    @property
    def partition_ways(self) -> Optional[Dict[int, int]]:
        if self._ways is None:
            return None
        return dict(self._ways)

    # -- Flush ------------------------------------------------------------

    def drain(self, partition: Optional[int] = None,
              dirty_only: bool = False) -> Tuple[np.ndarray, int, int]:
        """Vectorized invalidation; returns (dirty line addrs, lines
        invalidated, dirty lines).

        ``partition`` restricts to one partition's lines (its slot),
        ``dirty_only`` writes back and removes only dirty lines, keeping
        clean lines resident in LRU order.  The one-cache case of
        :meth:`VectorBank.drain`.
        """
        return _drain(self._store, self._geo, self._index, self._index + 1,
                      partition, dirty_only)

    # -- Introspection ----------------------------------------------------

    def occupancy(self) -> int:
        return int(self._store.count[:, self._index].sum())

    def occupancy_by_partition(self) -> Dict[int, int]:
        store = self._store
        out: Dict[int, int] = {}
        for s in range(store.num_slots):
            total = int(store.count[s, self._index].sum())
            if total:
                out[store.slot_ids[s]] = total
        return out

    def resident_lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield ``(line_address, line)``, LRU -> MRU within each set."""
        geo = self._geo
        store = self._store
        ci = self._index
        sector = store.sector
        stamp = store.stamp
        for index in range(geo.num_sets):
            entries: List[Tuple[int, int, int]] = []
            for s in range(store.num_slots):
                cnt = int(store.count[s, ci, index])
                for k in range(cnt):
                    st = int(stamp[s, ci, index, k]) \
                        if stamp is not None else k
                    entries.append((st, s, k))
            entries.sort()
            for st, s, k in entries:
                tag = int(store.tags[s, ci, index, k])
                yield geo.rebuild_one(index, tag), CacheLine(
                    tag=tag,
                    dirty=bool(store.dirty[s, ci, index, k]),
                    partition=store.slot_ids[s],
                    sector_valid=int(sector[s, ci, index, k])
                    if sector is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VectorCache(name={self.name!r}, "
                f"size={self.config.size_bytes}, "
                f"ways={self.config.associativity}, "
                f"occupancy={self.occupancy()}, "
                f"partitioned={self._ways is not None})")


class VectorBank:
    """A stack of :class:`VectorCache` slices sharing one slot store.

    The engine builds a bank only for runs that take the vector path;
    it groups an epoch's accesses by flat cache index and resolves them
    against the shared arrays: :meth:`access_many_grouped` in one
    kernel call for uniform single-stage epochs, and
    :meth:`access_many_staged` in two for the L1.5 two-stage plan table
    (static, dynamic) — phase 1 over the REMOTE slot's stage-0 probes,
    phase 2 over the LOCAL slot's single-stage and stage-1 probes,
    each exact because, on that checked shape, no kernel row is probed
    in both.  Rows left over-allotted by a repartition drain inside
    those two calls, as drain steps.  Each entry point checks its call
    and runs a one-lane body (:meth:`_grouped`, :meth:`_staged`) whose
    gate, capacity table and stats cover exactly the call's ``lane``, a
    ``[lo, hi)`` cache range; the engine's call is the whole bank.  The
    ``*_shared`` twins run the same body once per lane call.  An epoch
    either entry point declines — a gate, or a staged epoch that probes
    a zero-way over slot — comes back ``None`` before any state
    changes; the engine resolves it serially.  :meth:`drain`
    invalidates a range of caches in one pass.
    """

    def __init__(self, config: CacheConfig, names: Sequence[str]) -> None:
        self.config = config
        self._store = _SlotStore(config, len(names))
        self.caches = [
            VectorCache(config, name, _store=self._store, _index=i)
            for i, name in enumerate(names)]
        self._geo = _geometry_of(config)

    def access_many_grouped(self, cache_idx: np.ndarray, addrs: np.ndarray,
                            writes: np.ndarray) -> Optional[BatchResult]:
        """Resolve one uniform epoch across every cache of the bank.

        ``cache_idx`` maps each access to its flat cache index.  Returns
        None (the caller resolves the epoch serially) when any cache
        cannot take the plain batch path — partitioned ways or
        foreign-slot residents — so behaviour always matches the scalar
        model.
        """
        site = "VectorBank.access_many_grouped"
        call = GroupedLaneCall((0, len(self.caches)), cache_idx, addrs,
                               writes)
        _expect_grouped(site, call)
        with _sanitize.guarded(site):
            return self._grouped(call)

    def access_many_grouped_shared(
            self, calls: Sequence[GroupedLaneCall]
    ) -> List[Optional[BatchResult]]:
        """Resolve several lanes' uniform epochs in one bank call.

        Checks every call, then runs :meth:`_grouped` once per call, in
        call order.  A lane that fails the plain-batch gate comes back
        as ``None``; the other lanes still resolve.  The name is kept
        while the benchmark's tracer patches it (ROADMAP, item 1).
        """
        site = "VectorBank.access_many_grouped_shared"
        for call in calls:
            _expect_grouped(site, call)
        with _sanitize.guarded(site):
            return [self._grouped(call) for call in calls]

    def _grouped(self, call: GroupedLaneCall) -> Optional[BatchResult]:
        """One lane's uniform epoch in one kernel call.

        None when a cache of ``call.lane`` fails the plain-batch gate;
        caches outside the lane neither decline the call nor see stats.
        """
        lo, hi = call.lane
        if not self._plain(lo, hi):
            return None
        geo = self._geo
        store = self._store
        n = call.addrs.shape[0]
        ftags, fdirty, fcount, fsector, fstamp = store.flat()
        stamp_vals = None
        if fstamp is not None:
            stamp_vals = np.arange(store.clock, store.clock + n,
                                   dtype=np.int64)
            store.clock += n
        cache_idx = _absolute(call.cache_idx, lo)
        sets, tg = geo.split(call.addrs)
        rows = cache_idx * np.int64(geo.num_sets) + sets
        del sets
        result = _batch_resolve(
            ftags, fdirty, fcount, geo, rows, tg, call.writes,
            sector=fsector,
            sec=geo.sector_of(call.addrs) if geo.sectored else None,
            stamp=fstamp, stamp_vals=stamp_vals)
        del rows, tg, stamp_vals
        filled = ~result.hits
        if result.sector_miss is not None:
            filled &= ~result.sector_miss
        self._charge_classes(call.lane, cache_idx,
                             _outcome_class(result.hits, result.sector_miss,
                                            filled,
                                            result.evicted_addr >= 0,
                                            result.evicted_dirty))
        return result

    def resident_addrs(self, lo: int, hi: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """(cache index, line address) of every line resident in caches
        ``[lo, hi)``, in no particular order."""
        store = self._store
        geo = self._geo
        C, S = len(self.caches), np.int64(geo.num_sets)
        ftags, _, fcount, _, _ = store.flat()
        caches = np.arange(lo, hi, dtype=np.int64)
        slots = np.arange(store.num_slots, dtype=np.int64)
        rows = ((slots[:, None] * np.int64(C) + caches[None, :])[:, :, None]
                * S + np.arange(S, dtype=np.int64)).reshape(-1)
        cnt = fcount[rows]
        line_rows = np.repeat(rows, cnt)
        offs = np.cumsum(cnt) - cnt
        ways = np.arange(line_rows.size, dtype=np.int64) - \
            np.repeat(offs, cnt)
        addrs = geo.rebuild(line_rows % S, ftags[line_rows, ways])
        return (line_rows // S) % np.int64(C), addrs

    def drain(self, lo: int, hi: int, partition: Optional[int] = None,
              dirty_only: bool = False) -> Tuple[np.ndarray, int, int]:
        """Invalidate caches ``[lo, hi)`` in one pass; returns (dirty
        line addrs, lines invalidated, dirty lines) over the range.

        ``partition`` and ``dirty_only`` act as in
        :meth:`VectorCache.drain`, which is the one-cache case.
        """
        return _drain(self._store, self._geo, lo, hi, partition, dirty_only)

    def _plain(self, lo: int, hi: int) -> bool:
        """Caches ``[lo, hi)`` are unpartitioned and foreign-free (no
        resident line outside slot 0): the grouped kernel's gate."""
        if any(c._ways is not None for c in self.caches[lo:hi]):
            return False
        store = self._store
        return store.num_slots == 1 or not store.count[1:, lo:hi].any()

    def _charge_classes(self, lane: Tuple[int, int], keys: np.ndarray,
                        cls: np.ndarray) -> None:
        """Charge probes of absolute caches ``keys`` with outcome classes
        ``cls``: one ``bincount`` and one product with
        :data:`_CLASS_STATS`, added to the counter rows of ``lane``."""
        C = len(self.caches)
        per = np.bincount(keys * np.int64(_CLASSES) + cls,
                          minlength=C * _CLASSES)[:C * _CLASSES]
        lo, hi = lane
        self._store.stats[lo:hi] += \
            per.reshape(C, _CLASSES)[lo:hi] @ _CLASS_STATS

    def _lane_caps(self, lo: int, hi: int) -> Optional[np.ndarray]:
        """The (cache, slot) way-allotment table of caches ``[lo, hi)``,
        or None when one of them is unpartitioned.

        Caches outside the lane keep zero capacity: the call building
        the table never addresses them.
        """
        store = self._store
        cap_of = np.zeros((len(self.caches), store.num_slots),
                          dtype=np.int64)
        for ci in range(lo, hi):
            ways = self.caches[ci]._ways
            if ways is None:
                return None
            for pid, ww in ways.items():
                sl = store.slot_of.get(pid, -1)
                if sl >= 0:
                    cap_of[ci, sl] = ww
        return cap_of

    def _drain_rows_static(self, cap_of: np.ndarray) -> _OverRows:
        """The call's over-allotted rows (see :class:`_OverRows`).

        A row can drain when exactly one slot holds more lines than its
        allotment (the *over* slot) and that slot keeps at least one
        way.  Allotments sum to the associativity
        (``validate_partition_ways``), so the under slots' headroom is
        the over slot's surplus plus the row's free ways.
        """
        A = self._geo.associativity
        count = self._store.count.copy()              # (P, C, S)
        over = count > cap_of.T[:, :, None]
        slot = over.argmax(axis=0)                    # (C, S)
        cap = np.take_along_axis(cap_of, slot, axis=1)
        occ = np.take_along_axis(count, slot[None], axis=0)[0]
        return _OverRows(
            (over.sum(axis=0) == 1) & (cap > 0), slot.reshape(-1),
            cap.reshape(-1), occ.reshape(-1),
            A - count.sum(axis=0).reshape(-1), count.reshape(-1))

    def _staged_outcome(self, lane: Tuple[int, int],
                        idx0: np.ndarray, idx1: np.ndarray,
                        two_stage: np.ndarray, hit: np.ndarray,
                        smiss: np.ndarray, fill: np.ndarray,
                        evicted: np.ndarray, ev_d: np.ndarray,
                        dirty_at: np.ndarray,
                        dirty_addr: np.ndarray) -> StagedResult:
        """Charge the counter block and assemble one epoch's outcome.

        The outcome arrays are stage-major (entry ``n + i`` is access
        i's stage-1 probe).  Stage 0 probes every access at ``idx0``;
        stage 1 probes two-stage accesses whose stage-0 probe missed.
        ``dirty_at`` and ``dirty_addr`` pair each dirty eviction's
        entry with its line address, an entry at most once.  Cache
        indices are absolute; the returned eviction indices are too,
        in entry order.
        """
        n = idx0.shape[0]
        C = len(self.caches)
        h0 = hit[:n]
        # Unprobed stage-1 entries land in cache C, which is never
        # charged.
        keys = np.concatenate(
            (idx0, np.where(two_stage & ~h0, idx1, np.int64(C))))
        self._charge_classes(lane, keys, _outcome_class(
            hit, smiss if self._geo.sectored else None, fill, evicted,
            ev_d))
        hs = hit[n:] * np.int64(2) - np.int64(1)
        hs[h0] = 0
        order = np.argsort(dirty_at)
        return StagedResult(hs, keys[dirty_at[order]], dirty_addr[order])

    def _mirror_drains(self, plan: _StagedPlan, mir: np.ndarray,
                       over: _OverRows) -> Tuple[np.ndarray, np.ndarray]:
        """Schedule the mirrored drains of one plan.

        At a mirrored row the over slot R is probed in phase 1 and the
        under slots regain their ways in phase 2: their growth-fill
        candidates are the first touches of tags they do not hold
        (:func:`_drains_of`).  R itself stays a full LRU that shrinks by
        one line per drain, so by inclusion a stage-0 probe hits iff its
        stack depth is below R's occupancy less the drains before it.
        Drains depend on which stage-0 probes miss (only misses probe
        stage 1) and stage-0 verdicts on earlier drains; the coupling
        is causal and monotone, so iterating from "no drains" reaches
        the one fixed point, which is the scalar outcome.  Only probes
        of depth in ``[cap_R, occ_R)`` can change between rounds.  It
        runs before any call touches state; the ordinary rows feeding
        stage-1 probes into mirrored rows are plain LRUs at their
        allotment, read off the same stack depths.  Returns each
        drain's stream position (its draining phase-2 access) and flat
        (cache, set) row.
        """
        geo = self._geo
        call = plan.call
        two_stage = call.two_stage
        tg = plan.tg
        sec = plan.sec
        n = tg.size
        krow0, krow1 = plan.krow0, plan.krow1
        # Flat (cache, set) rows of each access's two probes.
        rid0 = krow0 % np.int64(len(self.caches) * geo.num_sets)
        rid1 = krow1
        mirf = mir.reshape(-1)
        ftags, _, fcount, fsector, _ = self._store.flat()

        # Stage-0 probes of mirrored rows (capacity: R's occupancy less
        # the drains before them) and of the ordinary rows feeding their
        # stage 1 (capacity: the allotment), with their stack depths.
        rows = mirf.copy()
        rows[rid0[two_stage & mirf[rid1]]] = True
        rp = np.flatnonzero(two_stage & rows[rid0])
        del rows
        depth, fway = _stack_depths(krow0[rp], tg[rp], ftags, fcount)
        r0 = rid0[rp]
        cap_r = np.where(mirf[r0], over.occ[r0], plan.cap0[rp])
        # A drain's key is its flat row * (n + 1) + its stream position;
        # a stage-0 probe's row's keys start at ``base``.
        base = r0 * np.int64(n + 1)
        del r0
        # Phase-2 probes of the under slots at mirrored rows, in stream
        # order: single-stage ones always probe, stage-1 ones only when
        # their stage-0 probe misses.
        cpos = np.flatnonzero(np.where(two_stage, mirf[rid1], mirf[rid0]))
        c1 = two_stage[cpos]
        crow = np.where(c1, rid1[cpos], rid0[cpos])
        del rid0, rid1
        ckrow = np.where(c1, krow1[cpos], krow0[cpos])
        ctag = tg[cpos]
        cres = _resident_way(ftags, fcount, ckrow, ctag)[1]
        headroom = np.where(c1, plan.cap1[cpos], plan.cap0[cpos]) - \
            fcount[ckrow]
        po = np.lexsort((ctag, ckrow))
        pnew = np.r_[True, (ckrow[po][1:] != ckrow[po][:-1])
                     | (ctag[po][1:] != ctag[po][:-1])] if po.size else \
            np.zeros(0, dtype=bool)
        cpair = np.empty(cpos.size, dtype=np.int64)
        cpair[po] = np.cumsum(pnew) - 1
        del ctag, po, pnew

        hit = np.zeros(n, dtype=bool)

        # Sectored caches: a tag hit is a hit only if the line instance
        # (since the tag's last miss) already holds the sector — the
        # kernel's segmented OR along each (row, tag) chain.
        if fsector is not None and rp.size:
            assert sec is not None
            oc = np.lexsort((tg[rp], krow0[rp]))
            kr = krow0[rp][oc]
            tt = tg[rp][oc]
            head = np.r_[True, (kr[1:] != kr[:-1]) | (tt[1:] != tt[:-1])]
            fw = fway[oc]
            seed = np.where(fw >= 0, fsector[kr, np.maximum(fw, 0)], 0)
            sec_o = sec[rp][oc]
        del fway

        def stage0_hits(d: np.ndarray) -> np.ndarray:
            th = depth < cap_r - d
            if fsector is None or not rp.size:
                return th
            tho = th[oc]
            start = head | ~tho
            seg = np.cumsum(start, dtype=np.int64) * 2
            sd = np.where(head & tho, seed, 0)
            have = np.zeros(rp.size, dtype=bool)
            sh = np.zeros(rp.size, dtype=np.int64)
            for b in range(geo.sectors):
                contrib = sec_o == np.int64(b)
                sh[1:] = contrib[:-1]
                sh[0] = 0
                np.copyto(sh, (sd >> np.int64(b)) & np.int64(1),
                          where=start)
                have |= (np.maximum.accumulate(seg + sh) - seg >= 1) \
                    & contrib
            out = np.empty(rp.size, dtype=bool)
            out[oc] = tho & have
            return out

        # A round only turns stage-0 hits into misses, each at most
        # once, and a round that turns none is followed by the one that
        # confirms the fixed point: rp.size + 2 rounds always suffice.
        d = np.zeros(rp.size, dtype=np.int64)
        for _ in range(rp.size + 2):
            hit[rp] = stage0_hits(d)
            a = np.flatnonzero(~c1 | ~hit[cpos])
            g = a[(_seg_rank(cpair[a]) == 0) & ~cres[a]]
            dr = g[_drains_of(ckrow[g], crow[g], headroom[g], over.free)]
            dkey = np.sort(crow[dr] * np.int64(n + 1) + cpos[dr])
            d_next = np.searchsorted(dkey, base + rp) - \
                np.searchsorted(dkey, base)
            if np.array_equal(d_next, d):
                break
            d = d_next
        else:
            raise AssertionError("mirrored drain fixed point diverged")
        return cpos[dr], crow[dr]

    def access_many_staged(self, addrs: np.ndarray, writes: np.ndarray,
                           idx0: np.ndarray, part0: np.ndarray,
                           two_stage: np.ndarray, idx1: np.ndarray,
                           part1: np.ndarray) -> Optional[StagedResult]:
        """Resolve one partitioned two-stage epoch in two kernel calls.

        Every access probes cache ``idx0`` with partition ``part0``;
        where ``two_stage`` and the first probe misses, it then probes
        ``idx1`` with ``part1``.  All caches must be way-partitioned.

        The call must have the L1.5 table's shape (``StaticLLC._build``,
        the only table the engine sends): single-stage and stage-1
        probes are on LOCAL (``UNPARTITIONED``), and the stage-0 probes
        of two-stage accesses are on one other partition.  A call
        outside it raises a sanitizer ``contract`` violation before any
        state changes.  Not checked: within each cache a line is only
        ever probed under one partition, so no probe finds its tag in
        another slot.  Without page migration a line's slot in a cache
        is LOCAL exactly where the cache's chip is the line's home, so
        the engine's epochs keep it.

        Phase 1 runs the stage-0 probes of two-stage accesses, phase 2
        the single-stage probes and the stage-1 probes of stage-0
        misses, one kernel call each.  Rows left over-allotted by a
        repartition drain inside those calls, as drain steps.  Returns
        None when the epoch probes an over-allotted row the drain model
        cannot describe (on the engine's tables, an over slot with no
        ways); the engine then resolves it serially.
        """
        site = "VectorBank.access_many_staged"
        call = StagedLaneCall((0, len(self.caches)), addrs, writes, idx0,
                              part0, two_stage, idx1, part1)
        _expect_staged(site, call)
        with _sanitize.guarded(site):
            return self._staged(call)

    def access_many_staged_shared(
            self, calls: Sequence[StagedLaneCall]
    ) -> List[Optional[StagedResult]]:
        """Resolve several lanes' two-stage epochs in one bank call.

        Checks every call, then runs :meth:`_staged` once per call, in
        call order, under the same checked shape and unchecked
        precondition as :meth:`access_many_staged`: a call outside the
        L1.5 shape raises before any lane runs, and a lane that probes
        one line under two partitions of a cache resolves wrongly, not
        ``None``.  Only the all-partitioned gate and the drain model
        decline: such lanes come back as ``None``, the others still
        resolve.  The name is kept while the benchmark's tracer patches
        it (ROADMAP, item 1).
        """
        site = "VectorBank.access_many_staged_shared"
        for call in calls:
            _expect_staged(site, call)
        with _sanitize.guarded(site):
            return [self._staged(call) for call in calls]

    def _staged(self, call: StagedLaneCall) -> Optional[StagedResult]:
        """One lane's two-stage epoch in two kernel calls.

        The gate, the capacity table and the stats cover exactly the
        caches of ``call.lane``.  A call that probes an over-allotted
        row the drain model cannot describe comes back ``None`` before
        any kernel call touches state.  Returned eviction indices are
        absolute.
        """
        lo, hi = call.lane
        cap_of = self._lane_caps(lo, hi)
        if cap_of is None:
            return None
        store = self._store
        geo = self._geo
        C = np.int64(len(self.caches))
        S = np.int64(geo.num_sets)
        store.ensure_stamps()
        flagged = (store.count > cap_of.T[:, :, None]).any(axis=0)
        over = self._drain_rows_static(cap_of) if flagged.any() else None
        ts = call.two_stage
        sets, tg = geo.split(call.addrs)
        idx0a = _absolute(call.idx0, lo)
        idx1a = _absolute(call.idx1, lo)
        # On the L1.5 shape a probe's slot follows from its stage:
        # LOCAL (slot 0), except the stage-0 probes of two-stage
        # accesses, which take the remote partition's slot.  A
        # partition that never had ways has none: its probes are
        # fill-less misses.
        two = bool(ts.any())
        rslot = store.slot_of.get(int(call.part0[int(np.argmax(ts))]), -1) \
            if two else -1
        slot0 = ts * np.int64(max(rslot, 0))
        cap0 = cap_of[idx0a, slot0]
        if rslot < 0:
            cap0[ts] = 0
        krow0 = (slot0 * C + idx0a) * S + sets
        del slot0
        krow1 = idx1a * S + sets
        del sets
        grow: Optional[np.ndarray] = None
        mir: Optional[np.ndarray] = None
        if over is not None:
            # The over slot sets the direction: a LOCAL one drains by
            # growth, the remote one mirrored.  Drainable rows leave the
            # flagged table; a probe of a row still flagged declines
            # the call.  Out-of-lane rows have no allotment, so none of
            # them can drain.
            o_slot = over.slot.reshape(over.cand.shape)
            grow = over.cand & (o_slot == 0)
            mir = over.cand & (o_slot != 0)
            if two:
                mir &= o_slot == rslot
            flagged &= ~(grow | mir)
            flat = flagged.reshape(-1)
            if flat[krow0 % (C * S)].any() or flat[krow1[ts]].any():
                return None
        plan = _StagedPlan(
            call, idx0a, idx1a, tg,
            geo.sector_of(call.addrs) if geo.sectored else None,
            cap0, cap_of[idx1a, 0], krow0, krow1,
            grow.reshape(-1) if grow is not None and grow.any() else None,
            None)
        if mir is not None and mir.any():
            assert over is not None
            plan = plan._replace(mirror=self._mirror_drains(plan, mir, over))
        clock0 = store.clock
        store.clock += call.addrs.shape[0]
        return self._staged_run(plan, clock0, over)

    def _staged_run(self, plan: _StagedPlan, clock0: int,
                    over: Optional[_OverRows]) -> StagedResult:
        """Run one plan's two kernel calls and assemble its outcome."""
        store = self._store
        geo = self._geo
        CS = np.int64(len(self.caches) * geo.num_sets)
        call = plan.call
        tg, sec = plan.tg, plan.sec
        two_stage = call.two_stage
        writes = call.writes
        n = call.addrs.shape[0]
        # Stage-major outcomes: entry ``i`` is access i's stage-0 probe,
        # entry ``n + i`` its stage-1 probe.
        hit = np.zeros(2 * n, dtype=bool)
        smiss = np.zeros(2 * n, dtype=bool)
        fill = np.zeros(2 * n, dtype=bool)
        evicted = np.zeros(2 * n, dtype=bool)
        ev_d = np.zeros(2 * n, dtype=bool)
        # (entry, line address) of each dirty eviction, per kernel call.
        dirty_at: List[np.ndarray] = []
        dirty_addr: List[np.ndarray] = []
        empty = np.zeros(0, dtype=np.int64)

        def solve(pos: np.ndarray, krows: np.ndarray, caps: np.ndarray,
                  at: np.ndarray, dpos: np.ndarray, drid: np.ndarray,
                  dat: np.ndarray) -> None:
            # One kernel call over the probes at stream positions
            # ``pos`` (outcome entries ``at``) and one drain step per
            # ``dpos`` on the over slot of flat (cache, set) row
            # ``drid``, reported on entry ``dat``.  The steps merge in
            # by stream position; a step and its own access's probe
            # never share a row, as an access's two stages probe
            # different caches.  Zero-way partitions come back as
            # fill-less misses straight from the kernel's mask.  Fresh
            # views every call: slot growth can reallocate the arrays.
            probe: Union[slice, np.ndarray] = slice(None)
            if dpos.size:
                assert over is not None
                m = pos.size
                order = _stable_order(np.concatenate((pos, dpos)), n)
                probe = order < m
                pos = np.concatenate((pos, dpos))[order]
                krows = np.concatenate(
                    (krows, over.slot[drid] * CS + drid))[order]
                caps = np.concatenate((caps, over.cap[drid]))[order]
                at = np.concatenate((at, dat))[order]
                del order
                # A tag of its own per drain step: its stream position.
                t = np.where(probe, tg[pos], -2 - pos)
            else:
                t = tg[pos]
            ftags, fdirty, fcount, fsector, fstamp = store.flat()
            # Stamps follow the stream: access i is stamped clock0 + i.
            res = _batch_resolve(
                ftags, fdirty, fcount, geo, krows, t, writes[pos],
                cap=caps, sector=fsector,
                sec=sec[pos] if sec is not None else None,
                stamp=fstamp, stamp_vals=pos + np.int64(clock0))
            del t, krows
            ap = at[probe]
            hits = res.hits[probe]
            fl = ~hits & (caps[probe] > 0)
            if res.sector_miss is not None:
                sm = res.sector_miss[probe]
                fl &= ~sm
                smiss[ap] = sm
            hit[ap] = hits
            fill[ap] = fl
            # Evictions only: a draining fill reports none of its own,
            # so no entry is reported twice.
            ev = np.flatnonzero(res.evicted_addr >= 0)
            entry = at[ev]
            evicted[entry] = True
            dirty = res.evicted_dirty[ev]
            ev_d[entry] = dirty
            dirty_at.append(entry[dirty])
            dirty_addr.append(res.evicted_addr[ev[dirty]])

        # Phase 1: the stage-0 probes of two-stage accesses, with the
        # mirrored rows' drain steps, each reported where its access
        # fills.
        b1 = np.flatnonzero(two_stage & (plan.cap0 > 0))
        mpos, mrid = plan.mirror if plan.mirror is not None else \
            (empty, empty)
        if b1.size or mpos.size:
            solve(b1, plan.krow0[b1], plan.cap0[b1], b1, mpos, mrid,
                  np.where(two_stage[mpos], mpos + n, mpos))
        del b1

        # Phase 2: single-stage probes and the stage-1 probes of
        # stage-0 misses, with the growth rows' drain steps: phase 1's
        # fills that drain, each reported on its own stage-0 entry.
        p1k = two_stage & ~hit[:n]
        b2 = np.flatnonzero(~two_stage | p1k)
        use1 = p1k[b2]
        del p1k
        gpos = grid = empty
        if plan.grow is not None:
            assert over is not None
            rid0 = plan.krow0 % CS
            gf = np.flatnonzero(fill[:n] & plan.grow[rid0])
            urow = plan.krow0[gf]
            gpos = gf[_drains_of(urow, rid0[gf],
                                 plan.cap0[gf] - over.count[urow],
                                 over.free)]
            grid = rid0[gpos]
            del rid0, gf, urow
        if b2.size or gpos.size:
            solve(b2, np.where(use1, plan.krow1[b2], plan.krow0[b2]),
                  np.where(use1, plan.cap1[b2], plan.cap0[b2]),
                  np.where(use1, b2 + n, b2), gpos, grid, gpos)
        del b2, use1

        return self._staged_outcome(
            call.lane, plan.idx0a, plan.idx1a, two_stage, hit, smiss, fill,
            evicted, ev_d,
            np.concatenate(dirty_at) if dirty_at else empty,
            np.concatenate(dirty_addr) if dirty_addr else empty)
