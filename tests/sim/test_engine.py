"""Integration tests for the simulation engine."""

import numpy as np
import pytest

from repro.arch import baseline, with_coherence
from repro.sim import EngineParams, SimulationEngine, make_organization
from repro.sim.run import scaled_config
from repro.workloads import (
    BenchmarkSpec,
    KernelSpec,
    PhaseSpec,
    TraceGenerator,
)

SCALE = 1.0 / 64


def tiny_spec(weight_true=0.4, weight_false=0.3, weight_private=0.3,
              epochs=2, iterations=1, write_fraction=0.25, **phase_kwargs):
    phase = PhaseSpec(weight_true=weight_true, weight_false=weight_false,
                      weight_private=weight_private,
                      write_fraction=write_fraction, **phase_kwargs)
    return BenchmarkSpec(
        name="tiny", suite="test", num_ctas=16, footprint_mb=8,
        true_shared_mb=2, false_shared_mb=2, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=epochs),),
        iterations=iterations, seed=11)


def run_engine(organization="memory-side", spec=None, config=None,
               accesses=512, params=None):
    run_config = config or scaled_config(baseline(), SCALE)
    org = make_organization(organization, run_config) \
        if isinstance(organization, str) else organization
    engine = SimulationEngine(run_config, org, params=params)
    generator = TraceGenerator(
        spec or tiny_spec(), num_chips=run_config.num_chips,
        clusters_per_chip=run_config.chip.num_clusters,
        line_size=run_config.line_size, page_size=run_config.page_size,
        accesses_per_epoch_per_chip=accesses, scale=SCALE)
    stats = engine.run(generator.kernels(), benchmark="tiny")
    return engine, stats


class TestAccounting:
    def test_every_access_gets_exactly_one_response(self):
        _engine, stats = run_engine()
        assert sum(stats.responses_by_origin.values()) == stats.accesses
        assert stats.llc_lookups == stats.accesses

    def test_cycles_are_at_least_the_compute_floor(self):
        _engine, stats = run_engine()
        floors = sum(k.cycles for k in stats.kernels)
        assert stats.cycles == pytest.approx(floors)
        assert stats.cycles > 0

    def test_memory_side_serves_remote_requests_remotely(self):
        _engine, stats = run_engine("memory-side")
        assert stats.responses_by_origin["remote_llc"] > 0
        assert stats.inter_chip_bytes > 0

    def test_sm_side_serves_hits_locally(self):
        _engine, stats = run_engine("sm-side")
        assert stats.responses_by_origin["remote_llc"] == 0
        assert stats.responses_by_origin["local_llc"] > 0

    def test_bottleneck_attribution_covers_all_cycles(self):
        _engine, stats = run_engine()
        attributed = sum(stats.bottleneck_cycles.values())
        epoch_cycles = stats.cycles - stats.flush_cycles - sum(
            k.reconfig_cycles for k in stats.kernels)
        assert attributed == pytest.approx(epoch_cycles, rel=0.01)

    def test_slice_requests_are_recorded_globally(self):
        config = scaled_config(baseline(), SCALE)
        _engine, stats = run_engine("memory-side", config=config)
        assert len(stats.slice_requests) == config.total_llc_slices
        assert sum(stats.slice_requests) >= stats.accesses

    def test_determinism(self):
        _e1, a = run_engine()
        _e2, b = run_engine()
        assert a.cycles == b.cycles
        assert a.llc_hits == b.llc_hits
        assert a.responses_by_origin == b.responses_by_origin


class TestCoherence:
    def test_sm_side_flushes_at_kernel_boundaries(self):
        spec = tiny_spec(iterations=3)
        _engine, mem = run_engine("memory-side", spec=spec)
        _engine, sm = run_engine("sm-side", spec=spec)
        assert mem.flush_cycles == 0.0
        assert sm.flush_cycles > 0.0

    def test_hardware_coherence_invalidates_replicas(self):
        config = with_coherence(scaled_config(baseline(), SCALE), "hardware")
        spec = tiny_spec(weight_true=0.9, weight_false=0.0,
                         weight_private=0.1, write_fraction=0.4)
        _engine, stats = run_engine("sm-side", spec=spec, config=config)
        assert stats.coherence_invalidations > 0
        assert stats.coherence_bytes > 0

    def test_software_coherence_has_no_invalidation_traffic(self):
        _engine, stats = run_engine("sm-side")
        assert stats.coherence_invalidations == 0


class TestAllocationSampling:
    def test_memory_side_caches_only_local_data(self):
        _engine, stats = run_engine("memory-side")
        assert stats.llc_remote_fraction == pytest.approx(0.0)
        assert stats.llc_local_fraction == pytest.approx(1.0)

    def test_sm_side_caches_remote_data(self):
        _engine, stats = run_engine("sm-side")
        assert stats.llc_remote_fraction > 0.2


class TestPartitionedOrganizations:
    def test_static_respects_way_split(self):
        config = scaled_config(baseline(), SCALE)
        engine, stats = run_engine("static", config=config)
        ways = engine.llc[0][0].partition_ways
        total = config.chip.llc_slice.associativity
        assert ways is not None
        assert sum(ways.values()) == total
        assert ways[1] == total // 2

    def test_dynamic_adapts_within_bounds(self):
        config = scaled_config(baseline(), SCALE)
        spec = tiny_spec(epochs=6, iterations=2)
        org = make_organization("dynamic", config)
        _engine, stats = run_engine(org, spec=spec, config=config)
        total = config.chip.llc_slice.associativity
        assert org.min_remote_ways <= org.remote_ways \
            <= total - org.min_local_ways


class TestEngineContext:
    def test_charge_cycles_lands_in_kernel_stats(self):
        engine, _stats = run_engine()
        engine.charge_cycles(0)  # zero is allowed
        with pytest.raises(ValueError):
            engine.charge_cycles(-1)

    def test_flush_llc_dirty_only_keeps_clean_lines(self):
        engine, _stats = run_engine("memory-side",
                                    spec=tiny_spec(write_fraction=0.5))
        resident_before = sum(c.occupancy()
                              for chips in engine.llc for c in chips)
        assert resident_before > 0
        engine.flush_llc(dirty_only=True)
        resident_after = sum(c.occupancy()
                             for chips in engine.llc for c in chips)
        assert 0 < resident_after < resident_before
        # No dirty lines remain anywhere.
        for chips in engine.llc:
            for cache in chips:
                assert all(not line.dirty
                           for _a, line in cache.resident_lines())

    def test_vectorized_slice_hash_matches_scalar(self):
        engine, _stats = run_engine()
        addrs = np.array([0, 128, 4096, 123456, 999936], dtype=np.int64)
        vectorized = engine._vectorized_slices(addrs).tolist()
        scalar = [engine.mapping.llc_slice_of(int(a)) for a in addrs]
        assert vectorized == scalar

    def test_vectorized_channel_hash_matches_scalar(self):
        engine, _stats = run_engine()
        addrs = np.array([0, 128, 4096, 123456, 999936], dtype=np.int64)
        vectorized = engine._vectorized_channels(addrs).tolist()
        scalar = [engine.mapping.channel_of(int(a)) for a in addrs]
        assert vectorized == scalar


class TestRunSteps:
    @staticmethod
    def engine_and_kernels(organization):
        config = scaled_config(baseline(), SCALE)
        engine = SimulationEngine(
            config, make_organization(organization, config))
        generator = TraceGenerator(
            tiny_spec(iterations=3), num_chips=config.num_chips,
            clusters_per_chip=config.chip.num_clusters,
            line_size=config.line_size, page_size=config.page_size,
            accesses_per_epoch_per_chip=256, scale=SCALE)
        return engine, list(generator.kernels())

    @pytest.mark.parametrize("organization", ["memory-side", "static", "sac"])
    def test_yields_each_launch_as_it_retires(self, organization):
        engine, kernels = self.engine_and_kernels(organization)
        yielded = []
        for kstats in engine.run_steps(kernels, benchmark="tiny"):
            # A launch is merged into the run before it is yielded.
            assert engine.stats.kernels[-1] is kstats
            yielded.append(kstats)
        assert [k.name for k in yielded] == [k.name for k in kernels]
        assert len(engine.stats.kernels) == len(kernels)
        assert all(a is b for a, b in zip(yielded, engine.stats.kernels))

    def test_run_returns_what_draining_run_steps_leaves(self):
        engine, kernels = self.engine_and_kernels("sac")
        stats = engine.run(kernels, benchmark="tiny")
        assert stats is engine.stats
        drained, kernels = self.engine_and_kernels("sac")
        for _kstats in drained.run_steps(kernels, benchmark="tiny"):
            pass
        assert drained.stats.llc_local_fraction > 0
        assert stats.comparable_dict() == drained.stats.comparable_dict()


class TestEngineParamsValidation:
    @pytest.mark.parametrize("field,value", [
        ("request_bytes", 0),
        ("request_bytes", -8),
        ("response_header_bytes", -1),
        ("write_data_bytes", -32),
        ("max_outstanding_per_chip", 0),
    ])
    def test_invalid_values_are_rejected(self, field, value):
        with pytest.raises(ValueError):
            EngineParams(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("response_header_bytes", 0),
        ("write_data_bytes", 0),
        ("max_outstanding_per_chip", 1),
    ])
    def test_boundary_values_are_accepted(self, field, value):
        assert getattr(EngineParams(**{field: value}), field) == value

    def test_error_names_the_field(self):
        with pytest.raises(ValueError, match="write_data_bytes"):
            EngineParams(write_data_bytes=-1)
        with pytest.raises(ValueError, match="cannot be negative"):
            EngineParams(response_header_bytes=-4)


class TestLegLatency:
    def test_local_leg_is_a_request_response_pair(self):
        # The local SM->LLC leg pays one crossbar traversal each way,
        # symmetric with the remote leg's 2 * latency_noc + ring hops.
        engine, _stats = run_engine()
        latency = engine._charge_leg(src=0, dst=0, slice_index=0,
                                     req_bytes=8, rsp_bytes=136,
                                     skip_crossbar=False)
        assert latency == 2 * engine.params.latency_noc

    def test_remote_leg_adds_ring_hops(self):
        engine, _stats = run_engine()
        latency = engine._charge_leg(src=0, dst=1, slice_index=0,
                                     req_bytes=8, rsp_bytes=136,
                                     skip_crossbar=False)
        hops = engine.ring.hops(0, 1)
        assert latency == (2 * engine.params.latency_noc
                           + hops * engine.params.latency_ring_hop)
