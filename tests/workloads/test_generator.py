"""Unit tests for the synthetic trace generator."""

import dataclasses

import numpy as np
import pytest

from repro.workloads import (
    REGION_FALSE,
    REGION_PRIVATE,
    REGION_TRUE,
    BenchmarkSpec,
    KernelSpec,
    PhaseSpec,
    TraceGenerator,
    get,
)
from repro.workloads import generator
from repro.workloads.generator import EpochTrace

LINE = 128
PAGE = 4096


def make_spec(weight_true=0.4, weight_false=0.3, weight_private=0.3,
              true_mb=2, false_mb=2, footprint_mb=8, epochs=2,
              iterations=1, **phase_kwargs):
    phase = PhaseSpec(weight_true=weight_true, weight_false=weight_false,
                      weight_private=weight_private, **phase_kwargs)
    return BenchmarkSpec(
        name="synthetic", suite="test", num_ctas=64,
        footprint_mb=footprint_mb, true_shared_mb=true_mb,
        false_shared_mb=false_mb, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=epochs),),
        iterations=iterations, seed=7)


def make_generator(spec=None, accesses=512, scale=1.0 / 64):
    return TraceGenerator(spec or make_spec(), num_chips=4,
                          clusters_per_chip=8, line_size=LINE,
                          page_size=PAGE,
                          accesses_per_epoch_per_chip=accesses, scale=scale)


class TestShape:
    def test_epoch_sizes(self):
        trace = make_generator().generate()
        assert len(trace) == 1
        assert len(trace[0].epochs) == 2
        epoch = trace[0].epochs[0]
        assert len(epoch) == 4 * 512
        assert len(epoch.chips) == len(epoch.addrs) == len(epoch.writes)

    def test_arrays_keep_the_width_their_values_need(self):
        epoch = make_generator().generate()[0].epochs[0]
        assert epoch.chips.dtype == np.uint8
        assert epoch.addrs.dtype == np.uint32
        assert epoch.writes.dtype == bool

    @pytest.mark.parametrize("addrs,dtype", [
        ([0, 2**32 - 1], np.uint32), ([0, 2**32], np.int64)])
    def test_addrs_narrow_below_2_to_the_32(self, addrs, dtype):
        epoch = EpochTrace(chips=np.zeros(2, np.int64),
                           addrs=np.array(addrs, np.int64),
                           writes=np.zeros(2, bool), compute_cycles=1.0)
        assert epoch.addrs.dtype == dtype
        assert epoch.addrs.tolist() == addrs

    @pytest.mark.parametrize("chips", [[0, 256], [-1, 0], [0.5, 1.0]])
    def test_chip_outside_uint8_rejected(self, chips):
        with pytest.raises(ValueError, match="chips"):
            EpochTrace(chips=np.array(chips), addrs=np.zeros(2, np.int64),
                       writes=np.zeros(2, bool), compute_cycles=1.0)

    @pytest.mark.parametrize("addrs", [
        np.array([0, -1], np.int64), np.array([0, 2**63], np.uint64),
        np.array([0.5, 1.0], np.float64)], ids=["negative", "2**63", "float"])
    def test_address_outside_int64_or_fractional_rejected(self, addrs):
        with pytest.raises(ValueError, match="addrs"):
            EpochTrace(chips=np.zeros(2, np.int64), addrs=addrs,
                       writes=np.zeros(2, bool), compute_cycles=1.0)

    def test_compute_cycles_follow_intensity(self):
        spec = make_spec(intensity=1000.0)
        epoch = make_generator(spec).generate()[0].epochs[0]
        assert epoch.compute_cycles == pytest.approx(512.0)

    def test_every_chip_contributes_equally(self):
        epoch = make_generator().generate()[0].epochs[0]
        counts = np.bincount(epoch.chips, minlength=4)
        assert all(count == 512 for count in counts)

    def test_kernel_launch_order(self):
        spec = make_spec(iterations=2)
        names = [k.name for k in make_generator(spec).generate()]
        assert names == ["k#0", "k#1"]

    def test_determinism(self):
        a = make_generator().generate()[0].epochs[0]
        b = make_generator().generate()[0].epochs[0]
        assert np.array_equal(a.addrs, b.addrs)
        assert np.array_equal(a.chips, b.chips)


class TestRegionSemantics:
    def test_region_classification_covers_all_addresses(self):
        generator = make_generator()
        epoch = generator.generate()[0].epochs[0]
        for addr in epoch.addrs[:200].tolist():
            assert generator.region_of(addr) in (
                REGION_TRUE, REGION_FALSE, REGION_PRIVATE)

    def test_true_region_is_shared_across_chips(self):
        generator = make_generator(make_spec(weight_true=1.0,
                                             weight_false=0.0,
                                             weight_private=0.0,
                                             hot_fraction=1.0))
        epoch = generator.generate()[0].epochs[0]
        lines_by_chip = {}
        for chip, addr in zip(epoch.chips.tolist(), epoch.addrs.tolist()):
            lines_by_chip.setdefault(chip, set()).add(addr // LINE)
        common = set.intersection(*lines_by_chip.values())
        assert common  # chips really do touch the same lines

    def test_false_region_shares_pages_not_lines(self):
        generator = make_generator(make_spec(weight_true=0.0,
                                             weight_false=1.0,
                                             weight_private=0.0,
                                             false_mb=4, true_mb=0,
                                             hot_fraction=1.0),
                                   accesses=2048)
        epoch = generator.generate()[0].epochs[0]
        line_chips = {}
        page_chips = {}
        for chip, addr in zip(epoch.chips.tolist(), epoch.addrs.tolist()):
            line_chips.setdefault(addr // LINE, set()).add(chip)
            page_chips.setdefault(addr // PAGE, set()).add(chip)
        # No line is ever touched by two chips...
        assert all(len(chips) == 1 for chips in line_chips.values())
        # ...but many pages are.
        shared_pages = sum(1 for chips in page_chips.values()
                           if len(chips) > 1)
        assert shared_pages > len(page_chips) / 2

    def test_private_region_is_chip_exclusive(self):
        generator = make_generator(make_spec(weight_true=0.0,
                                             weight_false=0.0,
                                             weight_private=1.0))
        epoch = generator.generate()[0].epochs[0]
        line_chips = {}
        for chip, addr in zip(epoch.chips.tolist(), epoch.addrs.tolist()):
            line_chips.setdefault(addr // LINE, set()).add(chip)
        assert all(len(chips) == 1 for chips in line_chips.values())

    def test_empty_regions_renormalize(self):
        spec = make_spec(weight_true=0.5, weight_false=0.25,
                         weight_private=0.25, true_mb=0, false_mb=2,
                         footprint_mb=4)
        generator = make_generator(spec)
        epoch = generator.generate()[0].epochs[0]
        regions = {generator.region_of(a) for a in epoch.addrs.tolist()}
        assert REGION_TRUE not in regions

    def test_all_regions_empty_raises(self):
        spec = make_spec(weight_true=1.0, weight_false=0.0,
                         weight_private=0.0, true_mb=0, false_mb=0,
                         footprint_mb=0.001)
        with pytest.raises(ValueError):
            make_generator(spec).generate()


class TestHotCold:
    def test_hot_set_concentrates_accesses(self):
        spec = make_spec(weight_true=1.0, weight_false=0.0,
                         weight_private=0.0, hot_fraction=1.0,
                         hot_fraction_true=0.1, hot_weight=0.9)
        generator = make_generator(spec, accesses=4096)
        epoch = generator.generate()[0].epochs[0]
        lines = np.array(epoch.addrs) // LINE
        hot_lines = int(generator._true_lines * 0.1)
        hot_share = float(np.mean(lines < hot_lines))
        assert hot_share == pytest.approx(0.9, abs=0.05)

    def test_affinity_biases_toward_own_segment(self):
        spec = make_spec(weight_true=1.0, weight_false=0.0,
                         weight_private=0.0, true_mb=4, footprint_mb=8,
                         hot_fraction=1.0, true_affinity=0.8)
        generator = make_generator(spec, accesses=4096)
        epoch = generator.generate()[0].epochs[0]
        seg_lines = (4 * 1024 * 1024 // 64) // LINE // 4  # scaled segment
        own = 0
        total = 0
        for chip, addr in zip(epoch.chips.tolist(), epoch.addrs.tolist()):
            segment = (addr // LINE) // seg_lines
            own += int(segment == chip)
            total += 1
        assert own / total > 0.7  # 0.8 + 0.2/4 = 0.85 expected


class TestScaling:
    def test_scale_shrinks_footprint(self):
        big = make_generator(scale=1.0)
        small = make_generator(scale=1.0 / 16)
        assert small.total_lines < big.total_lines

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            TraceGenerator(make_spec(), num_chips=0, clusters_per_chip=8)
        with pytest.raises(ValueError):
            TraceGenerator(make_spec(), num_chips=4, clusters_per_chip=8,
                           accesses_per_epoch_per_chip=0)


class TestSuiteTraces:
    def test_bfs_alternates_kernels(self):
        generator = TraceGenerator(get("BFS"), 4, 32,
                                   accesses_per_epoch_per_chip=256,
                                   scale=1.0 / 64)
        names = [k.name for k in generator.kernels()]
        assert names[0].startswith("BFS.K1")
        assert names[1].startswith("BFS.K2")
        assert len(names) == 2 * get("BFS").iterations


class TestTraceCache:
    @pytest.fixture(autouse=True)
    def empty_trace_cache(self):
        generator._TRACE_CACHE.clear()
        yield
        generator._TRACE_CACHE.clear()

    def test_a_miss_evicts_before_it_generates(self, monkeypatch):
        specs = [dataclasses.replace(make_spec(epochs=1), seed=seed)
                 for seed in range(generator._TRACE_CACHE_MAX + 1)]
        for spec in specs[:-1]:
            make_generator(spec).generate()
        cached = []
        real = TraceGenerator._generate_all

        def recording(self):
            cached.append(len(generator._TRACE_CACHE))
            return real(self)

        monkeypatch.setattr(TraceGenerator, "_generate_all", recording)
        make_generator(specs[-1]).generate()
        assert cached == [generator._TRACE_CACHE_MAX - 1]
        # The cache ends as it would have: the oldest trace is gone.
        assert [key[0] for key in generator._TRACE_CACHE] == specs[1:]

    def test_release_drops_only_that_spec(self):
        kept, dropped = (dataclasses.replace(make_spec(epochs=1), seed=seed)
                         for seed in (1, 2))
        for spec in (kept, dropped):
            make_generator(spec).generate()
            make_generator(spec, accesses=256).generate()
        generator.release_trace(dropped)
        assert [key[0] for key in generator._TRACE_CACHE] == [kept, kept]
