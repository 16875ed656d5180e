"""Unit tests for run statistics and aggregation helpers."""

import dataclasses

import pytest

from repro.sim import KernelStats, RunStats, harmonic_mean, speedup
from repro.sim.stats import ORIGINS, TELEMETRY_FIELDS


class TestRunStats:
    def test_hit_rate_handles_empty_runs(self):
        stats = RunStats()
        assert stats.llc_hit_rate == 0.0
        assert stats.llc_miss_rate == 0.0
        assert stats.effective_llc_bandwidth == 0.0

    def test_effective_bandwidth_is_responses_per_cycle(self):
        stats = RunStats(cycles=100.0)
        stats.responses_by_origin["local_llc"] = 120
        stats.responses_by_origin["remote_mem"] = 30
        assert stats.effective_llc_bandwidth == pytest.approx(1.5)

    def test_bandwidth_breakdown_covers_all_origins(self):
        stats = RunStats(cycles=10.0)
        stats.responses_by_origin["local_llc"] = 5
        breakdown = stats.bandwidth_breakdown()
        assert set(breakdown) == set(ORIGINS)
        assert breakdown["local_llc"] == pytest.approx(0.5)
        assert breakdown["remote_llc"] == 0.0

    def test_merge_kernel_accumulates(self):
        stats = RunStats()
        stats.merge_kernel(KernelStats(name="a", cycles=10, accesses=5,
                                       llc_hits=3, llc_lookups=5))
        stats.merge_kernel(KernelStats(name="b", cycles=20, accesses=5,
                                       llc_hits=1, llc_lookups=5))
        assert stats.cycles == 30
        assert stats.llc_hit_rate == pytest.approx(0.4)
        assert [k.name for k in stats.kernels] == ["a", "b"]


class TestFieldContract:
    def test_every_field_is_physics_or_telemetry(self):
        # comparable_dict() is what the differential tests and the paper
        # figures compare; TELEMETRY_FIELDS is what they may ignore.  A
        # new field has to be put in exactly one of the two.
        stats = RunStats()
        stats.merge_kernel(KernelStats(name="k"))
        physics = stats.comparable_dict()
        assert not set(physics) & TELEMETRY_FIELDS
        assert set(physics) | TELEMETRY_FIELDS == {
            f.name for f in dataclasses.fields(RunStats)}
        assert set(physics["kernels"][0]) == {
            f.name for f in dataclasses.fields(KernelStats)}

    @pytest.mark.parametrize("cls", [RunStats, KernelStats])
    def test_undeclared_attributes_cannot_be_written(self, cls):
        record = cls(name="k") if cls is KernelStats else cls()
        with pytest.raises(AttributeError):
            record.new_counter = 3


class TestKernelStats:
    def test_hit_rate(self):
        kernel = KernelStats(name="k", llc_hits=2, llc_lookups=8)
        assert kernel.llc_hit_rate == pytest.approx(0.25)

    def test_empty_kernel_hit_rate(self):
        assert KernelStats(name="k").llc_hit_rate == 0.0

    def test_epoch_series_sums_to_kernel_epoch_time(self):
        """The engine records per-epoch durations that tile the kernel."""
        from repro.sim import simulate
        from repro.workloads import get
        stats = simulate(get("BS"), "memory-side", accesses_per_epoch=512)
        for kernel in stats.kernels:
            assert len(kernel.epoch_cycles) >= 1
            epoch_total = sum(kernel.epoch_cycles)
            assert epoch_total == pytest.approx(
                kernel.cycles - kernel.reconfig_cycles)


class TestBottleneckReporting:
    def test_fractions_sum_to_one(self):
        stats = RunStats()
        stats.bottleneck_cycles = {"inter_chip": 75.0, "compute": 25.0}
        fractions = stats.bottleneck_fractions()
        assert fractions["inter_chip"] == pytest.approx(0.75)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_dominant_bottleneck(self):
        stats = RunStats()
        stats.bottleneck_cycles = {"dram": 10.0, "compute": 90.0}
        assert stats.dominant_bottleneck() == "compute"

    def test_empty_run_has_no_bottleneck(self):
        stats = RunStats()
        assert stats.dominant_bottleneck() is None
        assert stats.bottleneck_fractions() == {}

    def test_summary_is_flat_and_complete(self):
        stats = RunStats(benchmark="x", organization="sac", cycles=100.0,
                         accesses=10)
        stats.bottleneck_cycles = {"dram": 100.0}
        summary = stats.summary()
        assert summary["benchmark"] == "x"
        assert summary["dominant_bottleneck"] == "dram"
        assert all(not isinstance(v, (dict, list))
                   for v in summary.values())


class TestAggregation:
    def test_speedup(self):
        fast = RunStats(cycles=50.0)
        slow = RunStats(cycles=100.0)
        assert speedup(slow, fast) == pytest.approx(2.0)

    def test_speedup_rejects_empty_candidate(self):
        with pytest.raises(ValueError):
            speedup(RunStats(cycles=10.0), RunStats(cycles=0.0))

    def test_harmonic_mean_le_arithmetic(self):
        values = [1.0, 2.0, 4.0]
        hmean = harmonic_mean(values)
        assert hmean < sum(values) / 3
        assert hmean == pytest.approx(3 / (1 + 0.5 + 0.25))

    def test_harmonic_mean_of_identical_values(self):
        assert harmonic_mean([2.0, 2.0]) == pytest.approx(2.0)

    def test_harmonic_mean_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            harmonic_mean([])
        with pytest.raises(ValueError):
            harmonic_mean([1.0, 0.0])
