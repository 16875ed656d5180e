"""Tests for the event-driven validation engine."""

import pytest

from repro.arch import baseline
from repro.sim import make_organization, scaled_config
from repro.sim.eventsim import (
    EventDrivenEngine,
    _Server,
    validate_against_epoch_model,
)
from repro.workloads import (
    BenchmarkSpec,
    KernelSpec,
    PhaseSpec,
    TraceGenerator,
)

SCALE = 1.0 / 32


def tiny_spec(**phase_kwargs):
    defaults = dict(weight_true=0.4, weight_false=0.3, weight_private=0.3)
    defaults.update(phase_kwargs)
    phase = PhaseSpec(**defaults)
    return BenchmarkSpec(
        name="ev-tiny", suite="test", num_ctas=8, footprint_mb=8,
        true_shared_mb=2, false_shared_mb=2, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=2),), seed=43)


def run_event(org="memory-side", spec=None, accesses=256):
    config = scaled_config(baseline(), SCALE)
    engine = EventDrivenEngine(config, make_organization(org, config))
    generator = TraceGenerator(
        spec or tiny_spec(), num_chips=config.num_chips,
        clusters_per_chip=config.chip.num_clusters,
        line_size=config.line_size, page_size=config.page_size,
        accesses_per_epoch_per_chip=accesses, scale=SCALE)
    return engine.run(generator.kernels())


class TestServer:
    def test_fcfs_queueing(self):
        server = _Server(bandwidth=10.0)
        assert server.serve(arrive=0.0, num_bytes=100.0) == 10.0
        # Arrives at t=5 but the server is busy until t=10.
        assert server.serve(arrive=5.0, num_bytes=50.0) == 15.0
        # Arrives after the queue drained.
        assert server.serve(arrive=100.0, num_bytes=10.0) == 101.0
        assert server.busy == pytest.approx(16.0)


class TestReplay:
    def test_produces_sane_stats(self):
        stats = run_event()
        assert stats.accesses == 2 * 4 * 256
        assert stats.cycles > 0
        assert 0.0 < stats.llc_hit_rate < 1.0
        assert stats.mean_latency > 0
        assert set(stats.busy) == {"noc", "ring", "llc", "dram"}

    def test_memory_side_loads_the_ring_more_than_sm_side(self):
        mem = run_event("memory-side")
        sm = run_event("sm-side")
        assert mem.busy["ring"] > sm.busy["ring"]

    def test_determinism(self):
        a = run_event()
        b = run_event()
        assert a.cycles == b.cycles
        assert a.llc_hits == b.llc_hits

    def test_static_and_dynamic_replay(self):
        for org in ("static", "dynamic"):
            if org == "dynamic":
                # Dynamic adapts off RunStats, which the event engine
                # does not expose; it replays with its initial split.
                continue
            stats = run_event(org)
            assert stats.cycles > 0

    def test_message_sizes_follow_the_line_size(self):
        """A full miss carries the epoch model's request to DRAM and
        the line plus its response header back."""
        import dataclasses

        import numpy as np
        from repro.sim import EngineParams
        from repro.workloads.generator import EpochTrace, KernelTrace

        base = baseline()
        llc = dataclasses.replace(base.chip.llc_slice, line_size=64)
        config = base.with_updates(
            chip=dataclasses.replace(base.chip, llc_slice=llc))
        engine = EventDrivenEngine(config,
                                   make_organization("memory-side", config))
        miss = EpochTrace(chips=np.zeros(1, dtype=np.int64),
                          addrs=np.zeros(1, dtype=np.int64),
                          writes=np.zeros(1, dtype=bool),
                          compute_cycles=1.0)
        stats = engine.run([KernelTrace("k", (miss,))])
        params = EngineParams()
        message = params.request_bytes + 64 + params.response_header_bytes
        assert stats.llc_hits == 0
        assert stats.busy["dram"] == pytest.approx(
            message / config.chip.memory.channel_bw_bytes_per_cycle)


class TestCrossModelValidation:
    def test_models_agree_on_the_winner_sp(self):
        spec = tiny_spec(weight_true=0.6, weight_false=0.3,
                         weight_private=0.1, hot_fraction=0.1,
                         hot_weight=0.9, intensity=3000.0)
        results = validate_against_epoch_model(spec, scale=SCALE,
                                               accesses_per_epoch=512)
        epoch_winner = min(results, key=lambda o: results[o][0])
        event_winner = min(results, key=lambda o: results[o][1])
        assert epoch_winner == event_winner == "sm-side"

    def test_hit_rates_match_exactly_across_models(self):
        """Timing differs; functional cache behaviour must not."""
        from repro.sim import SimulationEngine
        config = scaled_config(baseline(), SCALE)
        spec = tiny_spec()

        def trace():
            return TraceGenerator(
                spec, num_chips=config.num_chips,
                clusters_per_chip=config.chip.num_clusters,
                line_size=config.line_size, page_size=config.page_size,
                accesses_per_epoch_per_chip=256, scale=SCALE).kernels()

        epoch_engine = SimulationEngine(
            config, make_organization("memory-side", config))
        epoch_stats = epoch_engine.run(trace(), benchmark="ev-tiny")
        event_stats = run_event("memory-side")
        assert event_stats.llc_hits == epoch_stats.llc_hits
