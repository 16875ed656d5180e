"""The theta and profiling-window extension sweeps."""

import pytest

from repro.arch import baseline
from repro.experiments import sensitivity_extensions as ext
from repro.sim.stats import harmonic_mean
from repro.workloads import generator
from repro.workloads.suite import get


@pytest.fixture
def generated(monkeypatch):
    """The benchmark name of every trace the generator builds, from an
    empty trace cache."""
    names = []
    real = generator.TraceGenerator._generate_all

    def recording(self):
        names.append(self.spec.name)
        return real(self)

    monkeypatch.setattr(generator.TraceGenerator, "_generate_all",
                        recording)
    generator._TRACE_CACHE.clear()
    yield names
    generator._TRACE_CACHE.clear()


def test_each_benchmark_trace_is_generated_once(generated, monkeypatch):
    # More benchmarks than cache slots: a point-major sweep would
    # regenerate every trace at every point.
    assert len(ext.DEFAULT_BENCHMARKS) > generator._TRACE_CACHE_MAX
    monkeypatch.setattr(ext, "THETA_SWEEP", (0.0, 0.08))
    monkeypatch.setattr(ext, "WINDOW_SWEEP", (250, 500))
    monkeypatch.setattr(ext, "trace_density", lambda fast: 256)
    result = ext.run_experiment(fast=True)
    assert sorted(generated) == sorted(ext.DEFAULT_BENCHMARKS)
    assert [point["theta"] for point in result["theta"]] == [0.0, 0.08]
    assert [point["window_cycles"] for point in result["window"]] == \
        [250, 500]
    assert all(point["sac"] > 0
               for point in result["theta"] + result["window"])
    assert result["benchmarks"] == list(ext.DEFAULT_BENCHMARKS)

    # The same means as the point-major loop the sweep used to run.
    def point_major(overrides):
        return harmonic_mean([
            ext._sac_speedup(get(name), baseline(), overrides, 256)
            for name in ext.DEFAULT_BENCHMARKS])

    assert [p["sac"] for p in result["theta"]] == \
        [point_major({"theta": theta}) for theta in (0.0, 0.08)]
    assert [p["sac"] for p in result["window"]] == \
        [point_major({"profile_window_cycles": w}) for w in (250, 500)]
