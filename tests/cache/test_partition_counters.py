"""Partition occupancy counters stay consistent under mixed workloads.

``_select_victim`` now reads per-set per-partition occupancy counters
instead of rescanning the set per candidate; these tests drive every
mutation path (fill, evict, invalidate, invalidate_partition, flush,
repartition, reset) and assert the counters always equal a recount.
"""

import numpy as np
import pytest

from repro.arch.config import CacheConfig
from repro.cache.cache import PartitionFullError, SetAssociativeCache

LINE = 128


def make_cache(num_sets=16, assoc=8):
    config = CacheConfig(size_bytes=num_sets * assoc * LINE,
                         associativity=assoc, line_size=LINE)
    return SetAssociativeCache(config, "part")


def recount(cache):
    occupancy = []
    for cache_set in cache._sets:
        counts = {}
        for line in cache_set.values():
            counts[line.partition] = counts.get(line.partition, 0) + 1
        occupancy.append(counts)
    return occupancy


def assert_counters_consistent(cache):
    if cache._partition_ways is None:
        assert cache._part_occ is None
    else:
        assert cache._part_occ == recount(cache)


def test_counters_match_recount_after_mixed_workload():
    rng = np.random.default_rng(42)
    cache = make_cache()
    cache.set_partition({0: 4, 1: 3, 2: 1})
    assert_counters_consistent(cache)
    addrs = rng.integers(0, 16 * 8 * 3, size=2000) * LINE
    partitions = rng.integers(0, 3, size=2000)
    writes = rng.random(2000) < 0.3
    for i in range(2000):
        try:
            cache.access(int(addrs[i]), bool(writes[i]),
                         partition=int(partitions[i]))
        except PartitionFullError:
            pass
        if i % 251 == 0:
            assert_counters_consistent(cache)
        if i % 397 == 0:
            cache.invalidate(int(addrs[rng.integers(0, i + 1)]))
            assert_counters_consistent(cache)
    assert_counters_consistent(cache)
    occupancy = cache.occupancy_by_partition()
    flat = {}
    for counts in cache._part_occ:
        for partition, count in counts.items():
            flat[partition] = flat.get(partition, 0) + count
    assert flat == occupancy


def test_counters_survive_invalidate_partition_and_flush():
    rng = np.random.default_rng(43)
    cache = make_cache()
    cache.set_partition({0: 5, 1: 3})
    for addr in rng.integers(0, 500, size=600) * LINE:
        cache.access(int(addr), partition=int(addr // LINE) % 2)
    assert_counters_consistent(cache)
    cache.invalidate_partition(1)
    assert_counters_consistent(cache)
    assert 1 not in cache.occupancy_by_partition()
    cache.flush()
    assert_counters_consistent(cache)
    assert cache.occupancy() == 0


def test_counters_rebuilt_on_repartition_of_warm_cache():
    rng = np.random.default_rng(44)
    cache = make_cache()
    # Warm up unpartitioned: no counters maintained.
    for addr in rng.integers(0, 400, size=500) * LINE:
        cache.access(int(addr))
    assert cache._part_occ is None
    # Partitioning a warm cache recounts the resident (unpartitioned)
    # lines so lazy eviction of over-provisioned lines stays exact.
    cache.set_partition({0: 6, 1: 2})
    assert_counters_consistent(cache)
    for addr in rng.integers(0, 400, size=500) * LINE:
        cache.access(int(addr), partition=1)
    assert_counters_consistent(cache)
    cache.set_partition(None)
    assert cache._part_occ is None
    cache.set_partition({0: 4, 1: 4})
    assert_counters_consistent(cache)


def test_zero_way_partition_still_raises():
    cache = make_cache(num_sets=4, assoc=2)
    cache.set_partition({0: 2, 3: 0})
    cache.access(0 * LINE, partition=0)
    with pytest.raises(PartitionFullError):
        for i in range(8):
            cache.access((100 + i * 4) * LINE, partition=3)
