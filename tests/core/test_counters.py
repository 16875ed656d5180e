"""Unit tests for the SAC profiling-counter architecture."""

import numpy as np
import pytest

from repro.arch import SACConfig
from repro.core import ProfilingCounters


def make_counters(num_chips=4, slices=16, **kwargs):
    return ProfilingCounters(SACConfig(), num_chips=num_chips,
                             slices_per_chip=slices, llc_num_sets=2048,
                             line_size=128, **kwargs)


class TestRLocal:
    def test_all_local(self):
        counters = make_counters()
        for chip in range(4):
            counters.record_issue(chip, home_chip=chip, sm_slice_index=0)
        assert counters.r_local == 1.0

    def test_all_remote(self):
        counters = make_counters()
        counters.record_issue(0, home_chip=1, sm_slice_index=0)
        counters.record_issue(1, home_chip=2, sm_slice_index=0)
        assert counters.r_local == 0.0

    def test_mixed(self):
        counters = make_counters()
        counters.record_issue(0, home_chip=0, sm_slice_index=0)
        counters.record_issue(0, home_chip=1, sm_slice_index=1)
        counters.record_issue(0, home_chip=2, sm_slice_index=2)
        counters.record_issue(0, home_chip=0, sm_slice_index=3)
        assert counters.r_local == pytest.approx(0.5)

    def test_empty_defaults_local(self):
        assert make_counters().r_local == 1.0


class TestHitRates:
    def test_memory_side_hit_rate(self):
        counters = make_counters()
        counters.record_llc_outcome(True)
        counters.record_llc_outcome(True)
        counters.record_llc_outcome(False)
        assert counters.llc_hit_memory_side == pytest.approx(2 / 3)

    def test_sm_side_hit_rate_pools_crds(self):
        counters = make_counters()
        # Two requests homed at chip 0: first misses, repeat hits.
        counters.record_arrival(0, slice_index=0, requester_chip=1, addr=0)
        counters.record_arrival(0, slice_index=0, requester_chip=1, addr=0)
        assert counters.llc_hit_sm_side == pytest.approx(0.5)


class TestLSU:
    def test_memory_side_lsu_from_arrivals(self):
        counters = make_counters(num_chips=1, slices=4)
        for _ in range(8):
            counters.record_arrival(0, slice_index=0, requester_chip=0,
                                    addr=0)
        assert counters.lsu_memory_side == pytest.approx(0.25)

    def test_sm_side_lsu_from_issues(self):
        counters = make_counters(num_chips=1, slices=4)
        for slice_index in range(4):
            counters.record_issue(0, home_chip=0, sm_slice_index=slice_index)
        assert counters.lsu_sm_side == pytest.approx(1.0)


class TestReset:
    def test_reset_clears_everything(self):
        counters = make_counters()
        counters.record_issue(0, 1, 0)
        counters.record_arrival(1, 0, 0, 0)
        counters.record_llc_outcome(True)
        counters.reset()
        assert counters.total_requests == 0
        assert counters.llc_hit_memory_side == 0.0
        assert counters.llc_hit_sm_side == 0.0


class TestRecordBatch:
    @pytest.mark.parametrize("narrow", ["chips", "homes"])
    def test_uint8_arrays_record_like_int64(self, narrow):
        # 16 chips x 32 slices: chip * slices_per_chip + slice reaches
        # 511, so a uint8 array that reached that product unwidened
        # would wrap (NumPy 2 keeps uint8 * int as uint8).
        rng = np.random.default_rng(3)
        n = 4096
        arrays = {
            "chips": rng.integers(0, 16, size=n, dtype=np.int64),
            "homes": rng.integers(0, 16, size=n, dtype=np.int64),
            "slices": rng.integers(0, 32, size=n, dtype=np.int64),
            "addrs": rng.integers(0, 1 << 16, size=n, dtype=np.int64) * 128,
        }
        # 2048 sets over 32 slices: 64 sets per slice.
        arrays["llc_sets"] = (arrays["slices"] * 64
                              + (arrays["addrs"] >> 7) % 64)
        arrays["hits"] = rng.random(n) < 0.5

        def recorded(**override):
            counters = make_counters(num_chips=16, slices=32)
            counters.record_batch(**dict(arrays, **override))
            return ([(c.total_requests, c.local_requests,
                      c.sm_side_slice_requests,
                      c.memory_side_slice_requests)
                     for c in counters.chips],
                    [(crd.requests, crd.hits,
                      [[(tag, block.chip_bits) for tag, block in s.items()]
                       for s in crd._sets])
                     for crd in counters.crds])

        wide = recorded()
        assert sum(crd[0] for crd in wide[1]) > 0
        assert recorded(**{narrow: arrays[narrow].astype(np.uint8)}) == wide
