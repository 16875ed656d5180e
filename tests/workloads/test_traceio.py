"""Unit tests for trace serialization and statistics."""

import numpy as np
import pytest

from repro.sim import SimulationEngine, make_organization, scaled_config
from repro.arch import baseline
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec, TraceGenerator
from repro.workloads.generator import EpochTrace, KernelTrace
from repro.workloads.traceio import load_trace, save_trace, trace_statistics


def make_trace(epochs=2, iterations=2):
    phase = PhaseSpec(weight_true=0.4, weight_false=0.3, weight_private=0.3,
                      write_fraction=0.25)
    spec = BenchmarkSpec(
        name="io-tiny", suite="test", num_ctas=8, footprint_mb=4,
        true_shared_mb=1, false_shared_mb=1, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=epochs),),
        iterations=iterations, seed=29)
    generator = TraceGenerator(spec, num_chips=4, clusters_per_chip=8,
                               accesses_per_epoch_per_chip=256,
                               scale=1.0 / 16)
    return list(generator.kernels())


class TestSaveLoad:
    def test_roundtrip_preserves_everything(self, tmp_path):
        kernels = make_trace()
        path = tmp_path / "trace.npz"
        save_trace(str(path), kernels)
        loaded = load_trace(str(path))
        assert [k.name for k in loaded] == [k.name for k in kernels]
        for original, restored in zip(kernels, loaded):
            assert len(original.epochs) == len(restored.epochs)
            for a, b in zip(original.epochs, restored.epochs):
                assert np.array_equal(a.chips, b.chips)
                assert b.chips.dtype == np.uint8
                assert np.array_equal(a.addrs, b.addrs)
                assert np.array_equal(a.writes, b.writes)
                assert a.compute_cycles == pytest.approx(b.compute_cycles)

    def test_loaded_trace_simulates_identically(self, tmp_path):
        kernels = make_trace()
        path = tmp_path / "trace.npz"
        save_trace(str(path), kernels)
        config = scaled_config(baseline(), 1.0 / 16)

        def run(trace):
            engine = SimulationEngine(
                config, make_organization("memory-side", config))
            return engine.run(trace, benchmark="io-tiny")

        direct = run(make_trace())
        replayed = run(load_trace(str(path)))
        assert direct.cycles == pytest.approx(replayed.cycles)
        assert direct.llc_hits == replayed.llc_hits

    def test_file_with_int64_chips_still_loads(self, tmp_path):
        # Files saved while traces kept int64 chips and an int64
        # clusters column, which is no longer read.
        kernels = make_trace()
        path = tmp_path / "int64.npz"
        save_trace(str(path), kernels)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["chips"] = arrays["chips"].astype(np.int64)
        arrays["clusters"] = np.zeros_like(arrays["chips"])
        np.savez_compressed(path, **arrays)
        for original, restored in zip(kernels, load_trace(str(path))):
            for a, b in zip(original.epochs, restored.epochs):
                assert b.chips.dtype == np.uint8
                assert np.array_equal(a.chips, b.chips)
                assert np.array_equal(a.addrs, b.addrs)

    def test_saved_file_holds_no_clusters_column(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(str(path), make_trace())
        with np.load(path) as data:
            assert "clusters" not in data.files
            assert {"chips", "addrs", "writes"} <= set(data.files)

    def test_saved_file_keeps_the_version_1_layout(self, tmp_path):
        # Epochs store encoded addresses and packed writes; the file
        # holds them decoded, at the widths it always had.
        path = tmp_path / "trace.npz"
        save_trace(str(path), make_trace())
        with np.load(path) as data:
            assert set(data.files) == {
                "version", "chips", "addrs", "writes", "epoch_lengths",
                "epoch_compute", "kernel_names", "kernel_epoch_counts"}
            assert int(data["version"]) == 1
            assert data["chips"].dtype == np.uint8
            assert data["addrs"].dtype == np.uint32
            assert data["writes"].dtype == bool
            assert data["epoch_lengths"].dtype == np.int64
            assert data["epoch_compute"].dtype == np.float64

    def test_addresses_past_2_to_the_32_are_saved_as_int64(self, tmp_path):
        epoch = EpochTrace(chips=np.array([0, 1], np.uint8),
                           addrs=np.array([5, 2**40 + 5], np.int64),
                           writes=np.array([True, False]),
                           compute_cycles=2.0)
        path = tmp_path / "wide.npz"
        save_trace(str(path), [KernelTrace("k#0", (epoch,))])
        with np.load(path) as data:
            assert data["addrs"].dtype == np.int64
        (restored,) = load_trace(str(path))[0].epochs
        assert restored.addrs.tolist() == [5, 2**40 + 5]
        assert restored.writes.tolist() == [True, False]

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace(str(tmp_path / "x.npz"), [])


class TestStatistics:
    def test_volume_counts(self):
        kernels = make_trace(epochs=2, iterations=2)
        stats = trace_statistics(kernels)
        assert stats.kernels == 2
        assert stats.epochs == 4
        assert stats.accesses == 4 * 256 * 4
        assert 0.15 < stats.write_fraction < 0.35

    def test_sharing_decomposition_sums(self):
        stats = trace_statistics(make_trace())
        assert (stats.true_shared_lines + stats.false_shared_lines
                + stats.non_shared_lines) == stats.distinct_lines
        fractions = stats.sharing_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert stats.true_shared_lines > 0
        assert stats.false_shared_lines > 0

    def test_accesses_per_chip_balanced(self):
        stats = trace_statistics(make_trace())
        counts = list(stats.accesses_per_chip.values())
        assert len(counts) == 4
        assert max(counts) == min(counts)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            trace_statistics([])
