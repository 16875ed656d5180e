"""Tests for the high-level run orchestration (repro.sim.run)."""

import pytest

from repro.arch import baseline
from repro.core import SharingAwareCaching
from repro.llc import DynamicLLC, MemorySideLLC, SMSideLLC, StaticLLC
from repro.sim import ORGANIZATIONS, make_organization, scaled_config, simulate
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec


def tiny_spec():
    phase = PhaseSpec(weight_true=0.4, weight_false=0.3, weight_private=0.3)
    return BenchmarkSpec(
        name="run-tiny", suite="test", num_ctas=8, footprint_mb=4,
        true_shared_mb=1, false_shared_mb=1, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=1),), seed=17)


class TestMakeOrganization:
    def test_all_names_resolve(self):
        config = baseline()
        types = {
            "memory-side": MemorySideLLC,
            "sm-side": SMSideLLC,
            "static": StaticLLC,
            "dynamic": DynamicLLC,
            "sac": SharingAwareCaching,
        }
        assert set(types) == set(ORGANIZATIONS)
        for name, cls in types.items():
            assert isinstance(make_organization(name, config), cls)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="memory-side"):
            make_organization("l3", baseline())

    def test_kwargs_are_forwarded(self):
        org = make_organization("static", baseline(),
                                remote_way_fraction=0.25)
        assert org.remote_way_fraction == 0.25


class TestScaledConfig:
    def test_scale_one_is_identity(self):
        config = baseline()
        assert scaled_config(config, 1.0) is config

    def test_scales_llc(self):
        config = scaled_config(baseline(), 0.25)
        assert config.chip.llc_slice.size_bytes == 64 * 1024

    def test_scales_profiling_window_with_floor(self):
        config = scaled_config(baseline(), 1.0 / 16)
        assert config.sac.profile_window_cycles == 500
        assert config.sac.theta >= 0.08

    def test_page_size_is_not_scaled(self):
        # The 4 KB first-touch granularity is part of the workload
        # definition (see scaled_config's docstring/comment).
        config = scaled_config(baseline(), 1.0 / 16)
        assert config.page_size == 4096

    def test_bandwidths_are_untouched(self):
        config = scaled_config(baseline(), 1.0 / 16)
        assert config.total_memory_bw == baseline().total_memory_bw
        assert config.total_inter_chip_bw == baseline().total_inter_chip_bw


class TestSimulate:
    def test_returns_populated_stats(self):
        stats = simulate(tiny_spec(), "memory-side", accesses_per_epoch=256)
        assert stats.benchmark == "run-tiny"
        assert stats.organization == "memory-side"
        assert stats.accesses == 4 * 256
        assert stats.cycles > 0

    def test_accepts_prebuilt_organization(self):
        config = scaled_config(baseline(), 1.0 / 16)
        org = SMSideLLC(config.num_chips)
        stats = simulate(tiny_spec(), org, accesses_per_epoch=256)
        assert stats.organization == "sm-side"

    def test_full_scale_run(self):
        stats = simulate(tiny_spec(), "memory-side", scale=1.0,
                         accesses_per_epoch=256)
        assert stats.cycles > 0


class TestOrgKwargs:
    def test_ladm_is_constructible_through_simulate(self):
        stats = simulate(tiny_spec(), "ladm", accesses_per_epoch=256)
        assert stats.organization == "ladm"

