"""Unit tests for the Chip Request Directory (paper Section 3.4)."""

import pytest

from repro.arch import SACConfig
from repro.core import ChipRequestDirectory

LINE = 128


def make_crd(sets=8, ways=4, llc_sets=8, num_chips=4, **kwargs):
    sac = SACConfig(crd_sets=sets, crd_ways=ways)
    return ChipRequestDirectory(sac, num_chips=num_chips,
                                llc_num_sets=llc_sets, line_size=LINE,
                                **kwargs)


class TestHitPrediction:
    def test_repeat_access_by_same_chip_predicts_hit(self):
        crd = make_crd()
        assert crd.observe(chip=0, addr=0x0) is False
        assert crd.observe(chip=0, addr=0x0) is True

    def test_first_access_by_each_chip_misses(self):
        """Each chip's first touch would miss its own SM-side LLC."""
        crd = make_crd()
        for chip in range(4):
            assert crd.observe(chip, 0x0) is False
        # All four now hit their (hypothetical) local replicas.
        for chip in range(4):
            assert crd.observe(chip, 0x0) is True

    def test_predicted_hit_rate(self):
        crd = make_crd()
        crd.observe(0, 0x0)
        crd.observe(0, 0x0)
        crd.observe(1, 0x0)
        assert crd.predicted_hit_rate == pytest.approx(1 / 3)

    def test_lru_eviction_clears_sharing_history(self):
        crd = make_crd(ways=2, llc_sets=1, sets=1)
        crd.observe(0, 0 * LINE)
        crd.observe(0, 1 * LINE)
        crd.observe(0, 2 * LINE)  # evicts line 0
        assert crd.observe(0, 0 * LINE) is False  # history lost

    def test_capacity_pressure_lowers_prediction(self):
        """A working set far over the (sampled) capacity yields low hits."""
        crd = make_crd(ways=4, llc_sets=1, sets=1)
        for _round in range(3):
            for line in range(16):
                crd.observe(0, line * LINE)
        assert crd.predicted_hit_rate < 0.2


class TestSampling:
    def test_stride_sampling_ignores_unsampled_sets(self):
        crd = make_crd(sets=2, llc_sets=8)  # stride = 4
        assert crd.sample_stride == 4
        assert crd.observe(0, 0 * LINE) is False  # set 0: sampled
        assert crd.observe(0, 1 * LINE) is None   # set 1: not sampled
        assert crd.observe(0, 4 * LINE) is not None  # set 4: sampled
        assert crd.requests == 2

    def test_custom_set_index_function(self):
        crd = make_crd(sets=1, llc_sets=4,
                       set_index_fn=lambda addr: 0)
        # Every address maps to set 0, which is sampled.
        assert crd.observe(0, 0x12345) is not None
        assert crd.observe(0, 0x54321) is not None


class TestSectored:
    def test_sectors_tracked_independently(self):
        crd = make_crd(sectored=True, sectors_per_line=4)
        assert crd.observe(0, 0) is False      # sector 0
        assert crd.observe(0, 32) is False     # sector 1: new sector
        assert crd.observe(0, 0) is True
        assert crd.observe(0, 32) is True


class TestReset:
    def test_reset_clears_state_and_counters(self):
        crd = make_crd()
        crd.observe(0, 0)
        crd.observe(0, 0)
        crd.reset()
        assert crd.requests == 0
        assert crd.predicted_hit_rate == 0.0
        assert crd.observe(0, 0) is False

    def test_rejects_empty_llc(self):
        with pytest.raises(ValueError):
            make_crd(llc_sets=0)
