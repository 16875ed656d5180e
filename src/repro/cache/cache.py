"""Functional set-associative cache model.

The cache is *functional*: it maintains real tag state so that hit/miss
behaviour (and hence LLC hit rate, the key EAB-model input) is exact for a
given access stream.  Timing is handled by the simulator engine, not here.

Three variants are provided:

* :class:`SetAssociativeCache` — conventional cache with true LRU.
* Sectored operation (``CacheConfig.sectored``) — sectors share one tag;
  a sector miss on a present line fetches only the missing sector.
* Way partitioning (:meth:`SetAssociativeCache.set_partition`) — lines are
  tagged with a partition id and each partition owns a subset of ways, as
  required by the Static (L1.5) and Dynamic LLC baselines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..arch.config import CacheConfig

#: Partition id used when the cache is not partitioned.
UNPARTITIONED = 0


def validate_partition_ways(associativity: int,
                            ways_by_partition: Dict[int, int]) -> None:
    """Validate a partition->ways map against the associativity.

    Shared by the scalar and the vectorized cache backends so both raise
    identical errors for identical inputs.
    """
    total = sum(ways_by_partition.values())
    if total != associativity:
        raise ValueError(
            f"partition ways sum to {total}, "
            f"expected associativity {associativity}")
    if any(w < 0 for w in ways_by_partition.values()):
        raise ValueError("partition way counts cannot be negative")


@dataclass(slots=True)
class CacheLine:
    """State of one resident cache line."""

    tag: int
    dirty: bool = False
    partition: int = UNPARTITIONED
    sector_valid: int = 0  # bitmask of valid sectors (sectored caches)

    def sector_present(self, sector: int) -> bool:
        return bool(self.sector_valid >> sector & 1)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    evicted_dirty: bool = False
    evicted_addr: Optional[int] = None
    sector_miss: bool = False  # tag hit but sector absent (sectored caches)

    @property
    def miss(self) -> bool:
        return not self.hit


# Shared constant outcomes.  Results are never mutated by callers, so the
# hot path returns these singletons instead of allocating per access;
# only evictions carry per-access payload and build fresh objects.
_HIT = AccessResult(hit=True)
_MISS = AccessResult(hit=False)
_SECTOR_MISS = AccessResult(hit=False, sector_miss=True)


class SetAssociativeCache:
    """A set-associative, write-back, write-allocate cache with true LRU
    replacement.

    Addresses are byte addresses; the cache derives line, set and tag
    internally.  ``access`` performs lookup + fill + LRU update in one
    step, which is what the epoch-based engine needs.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        # One OrderedDict per set, ordered LRU -> MRU, keyed by tag.
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(config.num_sets)]
        # ways allocated per partition id; None means unpartitioned.
        self._partition_ways: Optional[Dict[int, int]] = None
        # Per-set partition occupancy counters, maintained incrementally
        # while partitioned (non-None exactly when _partition_ways is) so
        # victim selection never rescans the set per candidate.
        self._part_occ: Optional[List[Dict[int, int]]] = None
        self._line_shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._sets_pow2 = (config.num_sets & (config.num_sets - 1)) == 0
        # Hot-path constants hoisted out of the config (access() dominates
        # simulation wall time; attribute chains and bit_length() per probe
        # are measurable).
        self._num_sets = config.num_sets
        self._index_bits = config.num_sets.bit_length() - 1
        self._associativity = config.associativity
        self._sectored = config.sectored
        if config.sectored:
            self._sector_shift = config.sector_size.bit_length() - 1

    # -- Address helpers -------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """The line-aligned address containing byte ``addr``."""
        return addr >> self._line_shift << self._line_shift

    def _index_tag(self, addr: int) -> Tuple[int, int]:
        line = addr >> self._line_shift
        if self._sets_pow2:
            return line & self._set_mask, line >> self._index_bits
        return line % self._num_sets, line // self._num_sets

    def _sector_of(self, addr: int) -> int:
        offset = addr & (self.config.line_size - 1)
        return offset >> self._sector_shift

    # -- Partitioning ----------------------------------------------------

    def set_partition(self, ways_by_partition: Optional[Dict[int, int]]) -> None:
        """Partition the ways of every set between partition ids.

        ``ways_by_partition`` maps a partition id to the number of ways it
        may occupy; the values must sum to the associativity.  Pass ``None``
        to remove partitioning.  Already-resident lines are left in place
        and evicted lazily as their partition overflows.
        """
        if ways_by_partition is None:
            self._partition_ways = None
            self._part_occ = None
            return
        validate_partition_ways(self.config.associativity, ways_by_partition)
        self._partition_ways = dict(ways_by_partition)
        self._recount_partitions()

    def _recount_partitions(self) -> None:
        """Rebuild the per-set partition occupancy counters from scratch."""
        occupancy: List[Dict[int, int]] = []
        for cache_set in self._sets:
            counts: Dict[int, int] = {}
            for line in cache_set.values():
                counts[line.partition] = counts.get(line.partition, 0) + 1
            occupancy.append(counts)
        self._part_occ = occupancy

    def _drop_line_partition(self, index: int, partition: int) -> None:
        counts = self._part_occ[index]
        remaining = counts[partition] - 1
        if remaining:
            counts[partition] = remaining
        else:
            del counts[partition]

    @property
    def partition_ways(self) -> Optional[Dict[int, int]]:
        if self._partition_ways is None:
            return None
        return dict(self._partition_ways)

    # -- Core operations ---------------------------------------------------

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU."""
        index, tag = self._index_tag(addr)
        line = self._sets[index].get(tag)
        if line is None:
            return False
        if self._sectored:
            return line.sector_present(self._sector_of(addr))
        return True

    def access(self, addr: int, is_write: bool = False,
               partition: int = UNPARTITIONED,
               allocate_on_miss: bool = True) -> AccessResult:
        """Access byte ``addr``; fill on miss unless ``allocate_on_miss`` is False."""
        line_no = addr >> self._line_shift
        if self._sets_pow2:
            index = line_no & self._set_mask
            tag = line_no >> self._index_bits
        else:
            index = line_no % self._num_sets
            tag = line_no // self._num_sets
        cache_set = self._sets[index]
        line = cache_set.get(tag)

        if line is not None:
            sector_miss = False
            if self._sectored:
                sector = self._sector_of(addr)
                if not line.sector_valid >> sector & 1:
                    sector_miss = True
                    line.sector_valid |= 1 << sector
            cache_set.move_to_end(tag)
            if is_write:
                line.dirty = True
            if sector_miss:
                # A sector miss costs a memory fetch but not a tag fill.
                return _SECTOR_MISS
            return _HIT

        if not allocate_on_miss:
            return _MISS
        evicted_dirty, evicted_addr = self._fill(index, tag, is_write, partition,
                                                 addr)
        if evicted_addr is None:
            return _MISS
        return AccessResult(hit=False, evicted_dirty=evicted_dirty,
                            evicted_addr=evicted_addr)

    def fill(self, addr: int, is_write: bool = False,
             partition: int = UNPARTITIONED) -> AccessResult:
        """Insert a line (e.g. response-path fill)."""
        index, tag = self._index_tag(addr)
        if tag in self._sets[index]:
            line = self._sets[index][tag]
            if self._sectored:
                line.sector_valid |= 1 << self._sector_of(addr)
            if is_write:
                line.dirty = True
            self._sets[index].move_to_end(tag)
            return AccessResult(hit=True)
        evicted_dirty, evicted_addr = self._fill(index, tag, is_write, partition,
                                                 addr)
        return AccessResult(hit=False, evicted_dirty=evicted_dirty,
                            evicted_addr=evicted_addr)

    def _fill(self, index: int, tag: int, is_write: bool,
              partition: int, addr: int) -> Tuple[bool, Optional[int]]:
        cache_set = self._sets[index]
        victim_info = self._select_victim(index, cache_set, partition)
        evicted_dirty = False
        evicted_addr: Optional[int] = None
        if victim_info is not None:
            victim_tag, victim = victim_info
            del cache_set[victim_tag]
            if self._part_occ is not None:
                self._drop_line_partition(index, victim.partition)
            evicted_dirty = victim.dirty
            evicted_addr = self._rebuild_addr(index, victim_tag)
        sector_valid = 0
        if self._sectored:
            sector_valid = 1 << self._sector_of(addr)
        cache_set[tag] = CacheLine(
            tag=tag,
            dirty=is_write,
            partition=partition,
            sector_valid=sector_valid)
        if self._part_occ is not None:
            counts = self._part_occ[index]
            counts[partition] = counts.get(partition, 0) + 1
        return evicted_dirty, evicted_addr

    def _select_victim(self, index: int,
                       cache_set: "OrderedDict[int, CacheLine]",
                       partition: int) -> Optional[Tuple[int, CacheLine]]:
        """Pick an LRU victim respecting partition way limits, or None."""
        if self._partition_ways is None:
            if len(cache_set) < self._associativity:
                return None
            tag, line = next(iter(cache_set.items()))
            return tag, line
        limit = self._partition_ways.get(partition, 0)
        if limit == 0:
            # A partition with zero ways may not allocate; evict nothing and
            # let the caller treat the fill as a bypass.
            raise PartitionFullError(partition)
        occ_counts = self._part_occ[index]
        occupancy = occ_counts.get(partition, 0)
        if occupancy < limit and len(cache_set) < self.config.associativity:
            return None
        # Prefer evicting the LRU line of the same partition; if the
        # partition is under its limit but the set is full, evict the LRU
        # line of any over-provisioned partition.
        if occupancy >= limit:
            for tag, line in cache_set.items():
                if line.partition == partition:
                    return tag, line
        ways = self._partition_ways
        over = {p for p, occ in occ_counts.items() if occ > ways.get(p, 0)}
        if over:
            for tag, line in cache_set.items():
                if line.partition in over:
                    return tag, line
        tag, line = next(iter(cache_set.items()))
        return tag, line

    def _rebuild_addr(self, index: int, tag: int) -> int:
        if self._sets_pow2:
            line = tag << self._index_bits | index
        else:
            line = tag * self._num_sets + index
        return line << self._line_shift

    # -- Flush / invalidate ----------------------------------------------

    def flush(self) -> Tuple[int, int]:
        """Write back and invalidate everything.

        Returns ``(lines_invalidated, dirty_lines_written_back)`` so the
        caller can charge coherence traffic.
        """
        invalidated = 0
        dirty = 0
        for cache_set in self._sets:
            invalidated += len(cache_set)
            dirty += sum(1 for line in cache_set.values() if line.dirty)
            cache_set.clear()
        if self._part_occ is not None:
            for counts in self._part_occ:
                counts.clear()
        return invalidated, dirty

    def invalidate(self, addr: int) -> bool:
        """Invalidate one line; returns True if it was present."""
        index, tag = self._index_tag(addr)
        line = self._sets[index].pop(tag, None)
        if line is None:
            return False
        if self._part_occ is not None:
            self._drop_line_partition(index, line.partition)
        return True

    def invalidate_partition(self, partition: int) -> Tuple[int, int]:
        """Invalidate every line belonging to ``partition``."""
        invalidated = 0
        dirty = 0
        for index, cache_set in enumerate(self._sets):
            victims = [tag for tag, line in cache_set.items()
                       if line.partition == partition]
            for tag in victims:
                line = cache_set.pop(tag)
                invalidated += 1
                if line.dirty:
                    dirty += 1
            if victims and self._part_occ is not None:
                self._part_occ[index].pop(partition, None)
        return invalidated, dirty

    # -- Introspection ----------------------------------------------------

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)

    def occupancy_by_partition(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for cache_set in self._sets:
            for line in cache_set.values():
                counts[line.partition] = counts.get(line.partition, 0) + 1
        return counts

    def resident_lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield ``(line_address, line)`` for every resident line."""
        for index, cache_set in enumerate(self._sets):
            for tag, line in cache_set.items():
                yield self._rebuild_addr(index, tag), line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SetAssociativeCache(name={self.name!r}, "
                f"size={self.config.size_bytes}, "
                f"ways={self.config.associativity}, "
                f"occupancy={self.occupancy()})")


class PartitionFullError(RuntimeError):
    """Raised when filling into a partition that owns zero ways."""

    def __init__(self, partition: int) -> None:
        super().__init__(f"partition {partition} owns zero ways")
        self.partition = partition
