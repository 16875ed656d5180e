"""End-to-end tests for the SAC controller."""

import dataclasses

import pytest

from repro.arch import baseline
from repro.core import SharingAwareCaching
from repro.sim import EngineParams, SimulationEngine, simulate
from repro.sim.run import scaled_config
from repro.workloads import (
    BenchmarkSpec,
    EpochTrace,
    KernelSpec,
    KernelTrace,
    PhaseSpec,
    TraceGenerator,
    get,
)

SCALE = 1.0 / 16


def sp_like_spec(iterations=1):
    """A workload with a small shared hot set: SM-side preferred."""
    phase = PhaseSpec(weight_true=0.5, weight_false=0.3, weight_private=0.2,
                      hot_fraction=0.1, hot_fraction_true=0.15,
                      hot_weight=0.9, intensity=3000.0)
    return BenchmarkSpec(
        name="sp-like", suite="test", num_ctas=64, footprint_mb=24,
        true_shared_mb=10, false_shared_mb=6, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=4),),
        iterations=iterations, seed=3)


def mp_like_spec():
    """A big replicated shared hot set: memory-side preferred."""
    phase = PhaseSpec(weight_true=0.42, weight_false=0.08,
                      weight_private=0.50, hot_fraction=0.2,
                      hot_fraction_true=0.5, hot_fraction_private=0.06,
                      hot_weight=0.92, intensity=7600.0, true_affinity=0.85)
    return BenchmarkSpec(
        name="mp-like", suite="test", num_ctas=64, footprint_mb=160,
        true_shared_mb=14, false_shared_mb=16, preference="memory-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=2),),
        iterations=4, seed=5)


def run_sac(spec, **sac_kwargs):
    config = scaled_config(baseline(), SCALE)
    sac = SharingAwareCaching(config, **sac_kwargs)
    generator = TraceGenerator(
        spec, num_chips=config.num_chips,
        clusters_per_chip=config.chip.num_clusters,
        line_size=config.line_size, page_size=config.page_size,
        accesses_per_epoch_per_chip=4096, scale=SCALE)
    engine = SimulationEngine(config, sac)
    stats = engine.run(generator.kernels(), benchmark=spec.name)
    return sac, stats


class TestDecisions:
    def test_sp_workload_selects_sm_side(self):
        sac, _stats = run_sac(sp_like_spec())
        assert [d.chosen for d in sac.stats.decisions] == ["sm-side"]
        assert sac.stats.reconfigurations >= 2  # switch + revert

    def test_mp_workload_stays_memory_side(self):
        sac, _stats = run_sac(mp_like_spec())
        assert all(d.chosen == "memory-side"
                   for d in sac.stats.decisions)
        assert sac.stats.reconfigurations == 0

    def test_decision_is_made_per_kernel(self):
        sac, _stats = run_sac(sp_like_spec(iterations=3))
        assert len(sac.stats.decisions) == 3

    def test_decision_table(self):
        sac, _stats = run_sac(sp_like_spec())
        table = sac.decision_table()
        assert list(table.values()) == ["sm-side"]

    def test_eab_inputs_are_recorded(self):
        sac, _stats = run_sac(sp_like_spec())
        inputs = sac.stats.decisions[0].eab_inputs
        assert inputs is not None
        assert 0.0 <= inputs.r_local <= 1.0
        assert inputs.llc_hit_sm_side > 0.0


class TestModeMechanics:
    def test_reverts_to_memory_side_after_kernel(self):
        sac, _stats = run_sac(sp_like_spec())
        assert sac.mode == "memory-side"

    def test_kernel_stats_record_the_running_mode(self):
        _sac, stats = run_sac(sp_like_spec())
        assert stats.kernels[0].organization == "sm-side"

    def test_reconfiguration_cost_is_charged(self):
        _sac, stats = run_sac(sp_like_spec())
        assert stats.kernels[0].reconfig_cycles > 0

    def test_zero_reconfig_cost_ablation(self):
        sac_free, stats_free = run_sac(sp_like_spec(),
                                       zero_reconfig_cost=True)
        _sac, stats_real = run_sac(sp_like_spec())
        assert stats_free.cycles <= stats_real.cycles
        assert sac_free.stats.drain_cycles_total == 0.0


class TestAblations:
    def test_no_crd_uses_memory_side_hit_rate(self):
        sac, _stats = run_sac(mp_like_spec(), use_crd=False)
        inputs = sac.stats.decisions[0].eab_inputs
        assert inputs.llc_hit_sm_side == inputs.llc_hit_memory_side

    def test_no_lsu_pins_uniformity(self):
        sac, _stats = run_sac(sp_like_spec(), use_lsu=False)
        inputs = sac.stats.decisions[0].eab_inputs
        assert inputs.lsu_memory_side == 1.0
        assert inputs.lsu_sm_side == 1.0


class TestReprofiling:
    def test_periodic_reprofiling_produces_extra_decisions(self):
        config = scaled_config(baseline(), SCALE)
        sac_cfg = dataclasses.replace(config.sac,
                                      reprofile_interval_cycles=2000)
        config = config.with_updates(sac=sac_cfg)
        sac = SharingAwareCaching(config)
        spec = sp_like_spec()
        generator = TraceGenerator(
            spec, num_chips=config.num_chips,
            clusters_per_chip=config.chip.num_clusters,
            line_size=config.line_size, page_size=config.page_size,
            accesses_per_epoch_per_chip=4096, scale=SCALE)
        engine = SimulationEngine(config, sac)
        engine.run(generator.kernels(), benchmark=spec.name)
        assert len(sac.stats.decisions) > 1


def profiling_state(counters):
    """Every counter and CRD entry of ``counters``."""
    return ([(c.total_requests, c.local_requests, c.sm_side_slice_requests,
              c.memory_side_slice_requests) for c in counters.chips],
            counters.memory_side_hits, counters.memory_side_lookups,
            [(crd.requests, crd.hits,
              [[(tag, block.chip_bits) for tag, block in blocks.items()]
               for blocks in crd._sets])
             for crd in counters.crds])


class TestBatchedProfiling:
    """The vector path's batched profiling against the serial oracle."""

    def test_full_scale_run_profiles_like_the_oracle(self):
        # At scale 1 a slice has 128 sets, so the CRD's global set index
        # (slice * 128 + set) passes 255.  A 48-set CRD samples every
        # 42nd global set.  The default 8-set CRD samples every 256th,
        # and an index wrapped mod 256 picks the same accesses there, so
        # only a stride that is not a power of two shows a wrap.
        config = baseline().with_updates(
            sac=dataclasses.replace(baseline().sac, crd_sets=48))

        def run(vectorized):
            sac = SharingAwareCaching(config)
            stats = simulate(get("RN"), sac, config=config, scale=1.0,
                             accesses_per_epoch=64,
                             params=EngineParams(vectorized=vectorized))
            return sac, stats

        (vec_sac, vector), (oracle_sac, oracle) = run(True), run(False)
        assert vector.vector_epochs > 0 and oracle.vector_epochs == 0
        assert vector.comparable_dict() == oracle.comparable_dict()
        assert ([d.eab_inputs for d in vec_sac.stats.decisions]
                == [d.eab_inputs for d in oracle_sac.stats.decisions])
        # The last profiling window's counters, CRDs included.
        assert sum(crd.requests for crd in oracle_sac.counters.crds) > 0
        assert (profiling_state(vec_sac.counters)
                == profiling_state(oracle_sac.counters))


class TestProfileSplit:
    def test_second_run_of_a_cached_trace_reuses_the_split(
            self, monkeypatch):
        splits = []
        split = SimulationEngine._split_profile_window

        def recording(engine, epoch):
            splits.append(split(engine, epoch))
            return splits[-1]

        monkeypatch.setattr(SimulationEngine, "_split_profile_window",
                            recording)
        spec = sp_like_spec()
        first = simulate(spec, "sac", scale=SCALE, accesses_per_epoch=2048)
        count = len(splits)
        second = simulate(spec, "sac", scale=SCALE, accesses_per_epoch=2048)
        assert len(splits) == 2 * count
        assert all(tail is not None for _head, tail in splits)
        for (head, tail), (again_head, again_tail) in zip(splits[:count],
                                                          splits[count:]):
            assert again_head is head and again_tail is tail
        assert second.comparable_dict() == first.comparable_dict()

    def test_each_window_gets_its_own_split(self):
        # Runs with two windows share one cached trace; each must run as
        # it would on a copy of the trace with nothing memoized.
        config = scaled_config(baseline(), SCALE)
        kernels = list(TraceGenerator(
            sp_like_spec(), num_chips=config.num_chips,
            clusters_per_chip=config.chip.num_clusters,
            line_size=config.line_size, page_size=config.page_size,
            accesses_per_epoch_per_chip=2048, scale=SCALE).kernels())

        def run(window, trace):
            run_config = config.with_updates(sac=dataclasses.replace(
                config.sac, profile_window_cycles=window))
            engine = SimulationEngine(run_config,
                                      SharingAwareCaching(run_config))
            return engine.run(trace, benchmark="sp-like").comparable_dict()

        for window in (500, 600):
            fresh = [KernelTrace(k.name, tuple(
                EpochTrace(chips=e.chips, addrs=e.addrs, writes=e.writes,
                           compute_cycles=e.compute_cycles)
                for e in k.epochs))
                for k in kernels]
            assert run(window, kernels) == run(window, fresh)


class TestSACAgainstSuite:
    """SAC must pick the winner on real suite benchmarks (smoke level)."""

    def test_rn_selects_sm_side(self):
        stats = simulate(get("RN"), "sac", accesses_per_epoch=2048)
        assert all(k.organization == "sm-side" for k in stats.kernels)

    def test_nn_selects_memory_side(self):
        stats = simulate(get("NN"), "sac", accesses_per_epoch=2048)
        assert all(k.organization == "memory-side" for k in stats.kernels)
