"""Property-based tests for the cache substrate (hypothesis)."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import CacheConfig
from repro.cache import SetAssociativeCache

LINE = 128
SETS = 8
WAYS = 4
CAPACITY = SETS * WAYS * LINE

addresses = st.integers(min_value=0, max_value=64 * 1024)
access_streams = st.lists(
    st.tuples(addresses, st.booleans()), min_size=1, max_size=300)


def make_cache(**kwargs):
    return SetAssociativeCache(CacheConfig(
        size_bytes=CAPACITY, associativity=WAYS, line_size=LINE, **kwargs))


class LRUReference:
    """An obviously-correct reference model: per-set ordered dicts."""

    def __init__(self):
        self.sets = [OrderedDict() for _ in range(SETS)]

    def access(self, addr):
        line = addr // LINE
        index, tag = line % SETS, line // SETS
        cache_set = self.sets[index]
        if tag in cache_set:
            cache_set.move_to_end(tag)
            return True
        if len(cache_set) >= WAYS:
            cache_set.popitem(last=False)
        cache_set[tag] = True
        return False


@given(access_streams)
@settings(max_examples=200, deadline=None)
def test_matches_lru_reference_model(stream):
    cache = make_cache()
    reference = LRUReference()
    for addr, is_write in stream:
        expected_hit = reference.access(addr)
        assert cache.access(addr, is_write).hit == expected_hit


@given(access_streams)
@settings(max_examples=100, deadline=None)
def test_occupancy_never_exceeds_capacity(stream):
    cache = make_cache()
    for addr, is_write in stream:
        cache.access(addr, is_write)
        assert cache.occupancy() <= SETS * WAYS


@given(access_streams)
@settings(max_examples=100, deadline=None)
def test_accessed_line_is_always_resident_afterwards(stream):
    cache = make_cache()
    for addr, is_write in stream:
        cache.access(addr, is_write)
        assert cache.probe(addr)


@given(access_streams)
@settings(max_examples=100, deadline=None)
def test_flush_accounts_for_every_resident_line(stream):
    cache = make_cache()
    for addr, is_write in stream:
        cache.access(addr, is_write)
    resident = cache.occupancy()
    dirty_resident = sum(1 for _addr, line in cache.resident_lines()
                         if line.dirty)
    invalidated, dirty = cache.flush()
    assert invalidated == resident
    assert dirty == dirty_resident
    assert cache.occupancy() == 0


@given(access_streams, st.integers(min_value=0, max_value=WAYS))
@settings(max_examples=100, deadline=None)
def test_partition_occupancy_respects_way_limits(stream, remote_ways):
    cache = make_cache()
    cache.set_partition({0: WAYS - remote_ways, 1: remote_ways})
    for i, (addr, is_write) in enumerate(stream):
        partition = i % 2
        limit = remote_ways if partition else WAYS - remote_ways
        if limit == 0:
            continue
        cache.access(addr, is_write, partition=partition)
    for count_partition in (0, 1):
        limit = remote_ways if count_partition else WAYS - remote_ways
        # Per-set occupancy of a partition never exceeds its way limit
        # (checked globally: total <= sets * limit).
        occupancy = cache.occupancy_by_partition().get(count_partition, 0)
        assert occupancy <= SETS * limit


@given(access_streams)
@settings(max_examples=50, deadline=None)
def test_sectored_cache_line_count_matches_conventional(stream):
    """Sectors change hit accounting but not which lines are resident."""
    conventional = make_cache()
    sectored = make_cache(sectored=True, sectors_per_line=4)
    for addr, is_write in stream:
        conventional.access(addr, is_write)
        sectored.access(addr, is_write)
    conventional_lines = {a for a, _l in conventional.resident_lines()}
    sectored_lines = {a for a, _l in sectored.resident_lines()}
    assert conventional_lines == sectored_lines
