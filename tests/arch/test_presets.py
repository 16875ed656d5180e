"""Unit tests for the design-space presets (Figure 14 configurations)."""

import pytest

from repro.arch import (
    baseline,
    with_chip_count,
    with_coherence,
    with_inter_chip_bandwidth,
    with_llc_capacity_scale,
    with_memory_interface,
    with_page_size,
    with_sectored_llc,
)


class TestInterChipBandwidth:
    def test_baseline_pair_bandwidth_is_96(self):
        config = with_inter_chip_bandwidth(baseline(), 96)
        assert config.inter_chip.pair_bw(4) == pytest.approx(96.0)

    def test_pcie_point(self):
        config = with_inter_chip_bandwidth(baseline(), 48)
        assert config.inter_chip.pair_bw(4) == pytest.approx(48.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            with_inter_chip_bandwidth(baseline(), 0)


class TestMemoryInterface:
    def test_gddr5_total_bandwidth(self):
        config = with_memory_interface(baseline(), "GDDR5")
        assert config.total_memory_bw == pytest.approx(1000.0)
        assert config.chip.memory.interface == "GDDR5"

    def test_hbm2_total_bandwidth(self):
        config = with_memory_interface(baseline(), "HBM2")
        assert config.total_memory_bw == pytest.approx(2800.0)

    def test_unknown_interface_raises(self):
        with pytest.raises(ValueError):
            with_memory_interface(baseline(), "DDR3")


class TestLLCCapacity:
    def test_doubling(self):
        config = with_llc_capacity_scale(baseline(), 2.0)
        assert config.total_llc_bytes == 2 * baseline().total_llc_bytes

    def test_halving(self):
        config = with_llc_capacity_scale(baseline(), 0.5)
        assert config.total_llc_bytes == baseline().total_llc_bytes // 2


class TestChipCount:
    def test_two_chip_config_keeps_total_inter_chip_bandwidth(self):
        base = baseline()
        two = with_chip_count(base, 2)
        assert two.num_chips == 2
        assert two.total_inter_chip_bw == pytest.approx(
            base.total_inter_chip_bw)
        # Per-link bandwidth doubles (NVLink-style scaling).
        assert two.inter_chip.link_bw_bytes_per_cycle == pytest.approx(
            2 * base.inter_chip.link_bw_bytes_per_cycle)


class TestOtherPresets:
    def test_sectored_llc(self):
        config = with_sectored_llc(baseline())
        assert config.chip.llc_slice.sectored
        assert config.chip.llc_slice.sectors_per_line == 4

    def test_hardware_coherence(self):
        config = with_coherence(baseline(), "hardware")
        assert config.coherence.protocol == "hardware"

    def test_page_size(self):
        config = with_page_size(baseline(), 65536)
        assert config.page_size == 65536
