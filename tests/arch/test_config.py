"""Unit tests for the architecture configuration (Table 3 baseline)."""

import pytest

from repro.arch import (
    CacheConfig,
    ChipConfig,
    CoherenceConfig,
    ConfigError,
    InterChipConfig,
    MemoryConfig,
    NoCConfig,
    SACConfig,
    SystemConfig,
    baseline,
)
from repro.sim import EngineParams, simulate
from repro.workloads.suite import get

MB = 1024 * 1024


class TestCacheConfig:
    def test_baseline_llc_slice_geometry(self):
        llc = baseline().chip.llc_slice
        assert llc.size_bytes == 256 * 1024
        assert llc.associativity == 16
        assert llc.line_size == 128
        assert llc.num_sets == 128
        assert llc.num_lines == 2048

    def test_rejects_non_power_of_two_line_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1024, associativity=2, line_size=96)

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, associativity=3, line_size=128)

    def test_sectored_needs_multiple_sectors(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=4096, associativity=2, line_size=128,
                        sectored=True, sectors_per_line=1)

    def test_sector_size(self):
        cache = CacheConfig(size_bytes=4096, associativity=2, line_size=128,
                            sectored=True, sectors_per_line=4)
        assert cache.sector_size == 32

    def test_scaled_halves_sets(self):
        llc = baseline().chip.llc_slice
        half = llc.scaled(0.5)
        assert half.num_sets == llc.num_sets // 2
        assert half.associativity == llc.associativity
        assert half.line_size == llc.line_size

    def test_scaled_never_drops_below_one_set(self):
        tiny = CacheConfig(size_bytes=1024, associativity=4, line_size=128)
        assert tiny.scaled(0.001).num_sets == 1


class TestNoCConfig:
    def test_baseline_is_38_by_22_crossbar(self):
        noc = baseline().chip.noc
        assert noc.input_ports == 38
        assert noc.output_ports == 22

    def test_port_bandwidth_share(self):
        noc = NoCConfig()
        assert noc.port_bw_bytes_per_cycle == pytest.approx(4096 / 16)

    def test_rejects_zero_ports(self):
        with pytest.raises(ConfigError):
            NoCConfig(sm_ports=0)


class TestInterChipConfig:
    def test_baseline_ring_pair_bandwidth(self):
        inter = baseline().inter_chip
        # 6 links/chip split over 2 neighbours: 3 links x 32 B/cyc = 96.
        assert inter.pair_bw(4) == pytest.approx(96.0)

    def test_single_chip_has_infinite_pair_bandwidth(self):
        assert InterChipConfig().pair_bw(1) == float("inf")


class TestSystemConfig:
    def test_baseline_matches_table3(self):
        config = baseline()
        assert config.num_chips == 4
        assert config.total_sms == 256
        assert config.total_llc_bytes == 16 * MB
        assert config.total_llc_slices == 64
        # 1.75 TB/s DRAM and 768 GB/s of inter-chip links at 1 GHz.
        assert config.total_memory_bw == pytest.approx(1750.0)
        assert config.total_inter_chip_bw == pytest.approx(768.0)
        assert config.page_size == 4096
        assert config.line_size == 128

    def test_describe_reports_key_figures(self):
        summary = baseline().describe()
        assert summary["chips"] == 4
        assert summary["llc_total_mb"] == 16
        assert summary["memory_interface"] == "GDDR6"

    def test_chip_requires_matching_noc_ports(self):
        with pytest.raises(ConfigError):
            ChipConfig(noc=NoCConfig(sm_ports=10))

    def test_multi_chip_system_needs_inter_chip_ports(self):
        portless = ChipConfig(noc=NoCConfig(inter_chip_ports=0))
        with pytest.raises(ConfigError):
            SystemConfig(num_chips=4, chip=portless)
        # One chip has no remote legs, so it needs no port and still
        # simulates, on the vector path and the serial engine alike.
        config = SystemConfig(num_chips=1, chip=portless)
        runs = [simulate(get("RN"), "static", config=config, scale=1 / 64,
                         accesses_per_epoch=256, params=params)
                for params in (EngineParams(),
                               EngineParams(vectorized=False))]
        assert runs[0].vector_epochs > 0
        assert runs[0].comparable_dict() == runs[1].comparable_dict()


class TestSACConfig:
    def test_defaults_match_paper(self):
        sac = SACConfig()
        assert sac.profile_window_cycles == 2000
        assert sac.theta == 0.05
        assert sac.crd_sets == 8
        assert sac.crd_ways == 16

    def test_reprofile_interval_must_exceed_window(self):
        with pytest.raises(ConfigError):
            SACConfig(reprofile_interval_cycles=1000)


class TestCoherenceConfig:
    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigError):
            CoherenceConfig(protocol="hardware-mesi")

    def test_memory_config_chip_bandwidth(self):
        memory = MemoryConfig()
        assert memory.chip_bw() == pytest.approx(1750.0 / 4)
