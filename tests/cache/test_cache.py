"""Unit tests for the set-associative cache substrate."""

import pytest

from repro.arch import CacheConfig
from repro.cache import PartitionFullError, SetAssociativeCache


def make_cache(size=4096, ways=4, line=128, **kwargs):
    return SetAssociativeCache(
        CacheConfig(size_bytes=size, associativity=ways, line_size=line,
                    **kwargs))


class TestBasicHitMiss:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        assert cache.access(0x1000).miss
        assert cache.access(0x1000).hit

    def test_same_line_different_offsets_share_residency(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x107F).hit  # last byte of the same line

    def test_adjacent_lines_are_distinct(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x1080).miss

    def test_probe_does_not_touch_stats_or_lru(self):
        cache = make_cache(size=4096, ways=2, line=128)
        stride = 16 * 128  # one set
        cache.access(0)
        cache.access(stride)
        assert cache.probe(0)
        assert not cache.probe(2 * stride)
        # Line 0 stays LRU: the next fill of the set evicts it.
        assert cache.access(2 * stride).evicted_addr == 0


class TestLRU:
    def test_lru_victim_is_least_recently_used(self):
        # 4-way cache, 8 sets; same set = stride of sets*line = 1024 bytes.
        cache = make_cache(size=4096, ways=4, line=128)
        stride = 8 * 128
        for i in range(4):
            cache.access(i * stride)
        cache.access(0)  # refresh line 0 -> LRU is line at 1*stride
        result = cache.access(4 * stride)  # forces an eviction
        assert result.evicted_addr == 1 * stride

    def test_capacity_of_one_set(self):
        cache = make_cache(size=4096, ways=4, line=128)
        stride = 8 * 128
        for i in range(4):
            cache.access(i * stride)
        for i in range(4):
            assert cache.access(i * stride).hit
        assert cache.occupancy() == 4


class TestWriteback:
    def test_dirty_eviction_reports_writeback(self):
        cache = make_cache(size=4096, ways=2, line=128)
        stride = 16 * 128
        cache.access(0, is_write=True)
        cache.access(stride)
        result = cache.access(2 * stride)
        assert result.evicted_dirty
        assert result.evicted_addr == 0

    def test_flush_reports_lines_and_dirty(self):
        cache = make_cache()
        cache.access(0, is_write=True)
        cache.access(0x80)
        invalidated, dirty = cache.flush()
        assert invalidated == 2
        assert dirty == 1
        assert cache.occupancy() == 0


class TestSectored:
    def make(self):
        return make_cache(size=4096, ways=4, line=128, sectored=True,
                          sectors_per_line=4)

    def test_sector_miss_on_present_line(self):
        cache = self.make()
        cache.access(0)          # sector 0 filled
        result = cache.access(32)  # sector 1 of the same line
        assert result.sector_miss
        assert cache.access(32).hit

    def test_sector_miss_counts_as_miss(self):
        cache = self.make()
        cache.access(0)
        result = cache.access(32)
        assert result.miss and result.sector_miss
        # A sector miss does not refill: nothing evicted, one line.
        assert result.evicted_addr is None
        assert cache.occupancy() == 1

    def test_full_line_population(self):
        cache = self.make()
        for sector in range(4):
            cache.access(sector * 32)
        for sector in range(4):
            assert cache.access(sector * 32).hit


class TestPartitioning:
    def test_partition_limits_occupancy(self):
        cache = make_cache(size=4096, ways=4, line=128)
        cache.set_partition({0: 2, 1: 2})
        stride = 8 * 128
        for i in range(4):
            cache.access(i * stride, partition=0)
        occupancy = cache.occupancy_by_partition()
        assert occupancy[0] == 2  # capped at its 2 ways

    def test_partition_way_sum_must_match(self):
        cache = make_cache(ways=4)
        with pytest.raises(ValueError):
            cache.set_partition({0: 1, 1: 1})

    def test_zero_way_partition_raises_on_fill(self):
        cache = make_cache(ways=4)
        cache.set_partition({0: 4, 1: 0})
        with pytest.raises(PartitionFullError):
            cache.access(0, partition=1)

    def test_invalidate_partition(self):
        cache = make_cache(size=4096, ways=4, line=128)
        cache.set_partition({0: 2, 1: 2})
        cache.access(0, partition=0)
        cache.access(0x80, partition=1, is_write=True)
        lines, dirty = cache.invalidate_partition(1)
        assert (lines, dirty) == (1, 1)
        assert cache.probe(0)
        assert not cache.probe(0x80)

    def test_repartitioning_evicts_lazily(self):
        cache = make_cache(size=4096, ways=4, line=128)
        cache.set_partition({0: 2, 1: 2})
        stride = 8 * 128
        cache.access(0, partition=1)
        cache.access(stride, partition=1)
        cache.set_partition({0: 3, 1: 1})
        # Partition 1 is over its new limit; its LRU line goes first.
        cache.access(2 * stride, partition=0)
        cache.access(3 * stride, partition=0)
        cache.access(4 * stride, partition=0)
        occupancy = cache.occupancy_by_partition()
        assert occupancy.get(1, 0) <= 2


class TestInvalidate:
    def test_invalidate_single_line(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.invalidate(0x1000)
        assert cache.access(0x1000).miss

    def test_resident_lines_roundtrip_addresses(self):
        cache = make_cache(size=4096, ways=4, line=128)
        addrs = [0, 0x80, 0x1000, 0x2480]
        for addr in addrs:
            cache.access(addr)
        resident = {addr for addr, _line in cache.resident_lines()}
        assert resident == {a & ~127 for a in addrs}
