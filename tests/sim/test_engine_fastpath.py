"""Regression tests for the batched epoch fast path.

The batched path must be *bit-identical* to the per-access path: same
functional cache decisions, same resource charges, same latencies.  The
tests compare ``RunStats.comparable_dict()`` (which excludes host-side
telemetry such as wall clock and path counters) across several specs and
every organization, and pin the fallback rules: runs that do not take
the vector path build no bank and run the serial engine over
``SetAssociativeCache`` slices, and epochs the bank declines take the
serial engine too.
"""

import pytest

from repro.arch import baseline, with_coherence
from repro.cache.cache import SetAssociativeCache
from repro.cache.vector import VectorBank
from repro.llc.base import PARTITION_REMOTE
from repro.sim import EngineParams, SimulationEngine, make_organization
from repro.sim import run as sim_run
from repro.sim.run import scaled_config, simulate, simulate_stacked
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec
from repro.workloads.suite import get

SCALE = 1.0 / 64
DENSITY = 512

ORGS = ("memory-side", "sm-side", "static", "dynamic", "sac")


def spec(name, weight_true, weight_false, weight_private, epochs=2,
         write_fraction=0.25, preference="sm-side", seed=11):
    phase = PhaseSpec(weight_true=weight_true, weight_false=weight_false,
                      weight_private=weight_private,
                      write_fraction=write_fraction)
    return BenchmarkSpec(
        name=name, suite="test", num_ctas=16, footprint_mb=8,
        true_shared_mb=2, false_shared_mb=2, preference=preference,
        kernels=(KernelSpec(name="k", phase=phase, epochs=epochs),),
        seed=seed)


SPECS = (
    spec("shared-heavy", 0.6, 0.2, 0.2, epochs=3),
    spec("private-heavy", 0.1, 0.1, 0.8, preference="memory-side", seed=5),
    spec("false-sharing", 0.2, 0.6, 0.2, write_fraction=0.4, seed=23),
)

#: The synthetic specs plus the paper's first benchmark, so the
#: five-organization vector-vs-oracle check also covers a suite input.
KERNEL_SPECS = SPECS + (get("RN"),)


def oracle(bench, organization, config=None, params_kwargs=None):
    """The serial engine over ``SetAssociativeCache`` slices."""
    kwargs = dict(params_kwargs or {}, batched=False, vectorized=False)
    return simulate(bench, organization, config=config, scale=SCALE,
                    accesses_per_epoch=DENSITY, params=EngineParams(**kwargs))


def floorless_dynamic():
    """A ``DynamicLLC`` with no floor on its remote allotment, built for
    the scaled baseline."""
    config = scaled_config(baseline(), SCALE)
    return make_organization("dynamic", config, min_remote_ways=0)


def both_paths(bench, organization, config=None, params_kwargs=None):
    kwargs = params_kwargs or {}
    serial = simulate(bench, organization, config=config, scale=SCALE,
                      accesses_per_epoch=DENSITY,
                      params=EngineParams(batched=False, **kwargs))
    batched = simulate(bench, organization, config=config, scale=SCALE,
                       accesses_per_epoch=DENSITY,
                       params=EngineParams(batched=True, **kwargs))
    return serial, batched


class TestBitIdentical:
    @pytest.mark.parametrize("bench", SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("organization", ORGS)
    def test_batched_matches_serial(self, bench, organization):
        serial, batched = both_paths(bench, organization)
        assert batched.comparable_dict() == serial.comparable_dict()

    def test_batched_path_actually_ran(self):
        _, batched = both_paths(SPECS[0], "memory-side")
        assert batched.vector_epochs > 0
        assert batched.slow_epochs == 0

    def test_serial_flag_forces_slow_path(self):
        serial, _ = both_paths(SPECS[0], "memory-side")
        assert serial.vector_epochs == serial.scalar_epochs == 0
        assert serial.slow_epochs > 0


class TestVectorizedProbe:
    """The vectorized tag-store kernel vs the serial oracle."""

    @pytest.mark.parametrize("bench", KERNEL_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("organization", ("memory-side", "sm-side"))
    def test_vector_kernel_matches_loop_and_serial(self, bench,
                                                   organization):
        serial = simulate(bench, organization, scale=SCALE,
                          accesses_per_epoch=DENSITY,
                          params=EngineParams(batched=False))
        # batched=True, vectorized=False leaves no bank: the serial
        # engine over SetAssociativeCache, i.e. the oracle.
        loop = simulate(bench, organization, scale=SCALE,
                        accesses_per_epoch=DENSITY,
                        params=EngineParams(batched=True, vectorized=False))
        vec = simulate(bench, organization, scale=SCALE,
                       accesses_per_epoch=DENSITY,
                       params=EngineParams(batched=True, vectorized=True))
        # Uniform single-stage organizations resolve every batched epoch
        # through the grouped kernel.
        assert vec.vector_epochs > 0
        assert vec.scalar_epochs == 0
        assert loop.vector_epochs == loop.scalar_epochs == 0
        assert vec.comparable_dict() == loop.comparable_dict()
        assert vec.comparable_dict() == serial.comparable_dict()

    @pytest.mark.parametrize("bench", KERNEL_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("organization", ("static", "dynamic", "sac"))
    def test_partitioned_orgs_stay_on_the_kernel(self, bench, organization):
        # Way-partitioned organizations resolve their two-stage epochs
        # through the staged vector solver; results stay identical to
        # the oracle (batched=True, vectorized=False: no bank, serial)
        # and no epoch falls off the kernel.
        loop = simulate(bench, organization, scale=SCALE,
                        accesses_per_epoch=DENSITY,
                        params=EngineParams(batched=True, vectorized=False))
        vec = simulate(bench, organization, scale=SCALE,
                       accesses_per_epoch=DENSITY,
                       params=EngineParams(batched=True, vectorized=True))
        assert vec.vector_epochs > 0
        assert vec.scalar_epochs == 0
        assert loop.vector_epochs == loop.scalar_epochs == 0
        assert vec.comparable_dict() == loop.comparable_dict()


class TestFallbacks:
    def test_sac_profiling_epochs_batch(self):
        # SAC's batched observer (observe_batch) reproduces the
        # per-access counter updates, so profiling heads take the fast
        # path too — and the profiling decisions (hence the physics)
        # must match the serial reference bit-for-bit.
        serial, batched = both_paths(SPECS[0], "sac")
        assert batched.slow_epochs == 0
        assert batched.vector_epochs > 0
        assert batched.comparable_dict() == serial.comparable_dict()

    def test_hardware_coherence_falls_back(self):
        config = with_coherence(baseline(), "hardware")
        serial, batched = both_paths(SPECS[0], "sm-side", config=config)
        assert batched.vector_epochs == batched.scalar_epochs == 0
        assert batched.slow_epochs > 0
        assert batched.comparable_dict() == serial.comparable_dict()

    def test_ladm_falls_back(self):
        # LADM's second-touch insertion filter is per-access state.
        serial, batched = both_paths(SPECS[0], "ladm")
        assert batched.vector_epochs == batched.scalar_epochs == 0
        assert batched.comparable_dict() == serial.comparable_dict()


def _declining(original, nth):
    """Wrap a bank entry point so its ``nth`` call declines (``None``)
    without touching the bank."""
    seen = []

    def entry(self, *args, **kwargs):
        seen.append(None)
        if len(seen) == nth:
            return None
        return original(self, *args, **kwargs)
    return entry


class TestBankDeclines:
    """Every batched epoch goes to the vector bank or the serial oracle:
    runs the bank cannot host take the serial engine outright, and an
    epoch it declines at run time is resolved serially."""

    @pytest.mark.parametrize("params_kwargs", [{"vectorized": False}],
                             ids=["unvectorized"])
    def test_unhostable_runs_take_the_serial_engine(self, params_kwargs):
        stats = simulate(SPECS[0], "sac", scale=SCALE,
                         accesses_per_epoch=DENSITY,
                         params=EngineParams(batched=True, **params_kwargs))
        assert stats.vector_epochs == stats.scalar_epochs == 0
        assert stats.slow_epochs > 0
        assert stats.comparable_dict() == oracle(
            SPECS[0], "sac", params_kwargs=params_kwargs).comparable_dict()

    @pytest.mark.parametrize("organization,entry,nth", [
        # The second staged epoch of a partitioned run.
        ("dynamic", "access_many_staged", 2),
        # SAC's first profiling head, on the grouped path.
        ("sac", "access_many_grouped", 1),
    ])
    def test_declined_epoch_runs_serially(self, monkeypatch, organization,
                                          entry, nth):
        monkeypatch.setattr(VectorBank, entry,
                            _declining(getattr(VectorBank, entry), nth))
        stats = simulate(SPECS[0], organization, scale=SCALE,
                         accesses_per_epoch=DENSITY,
                         params=EngineParams())
        assert stats.scalar_epochs == 1
        assert stats.vector_epochs > 0
        assert stats.comparable_dict() == \
            oracle(SPECS[0], organization).comparable_dict()

    def test_declined_lane_of_a_stacked_sweep_runs_serially(self,
                                                            monkeypatch):
        # Decline the dynamic run's second staged epoch: that run
        # resolves the epoch serially, and the sweep's other runs,
        # static's staged epochs included, never see a decline.
        run = sim_run.simulate
        staged = VectorBank.access_many_staged

        def declining_dynamic(bench, organization, **kwargs):
            entry = _declining(staged, 2) if organization == "dynamic" \
                else staged
            monkeypatch.setattr(VectorBank, "access_many_staged", entry)
            return run(bench, organization, **kwargs)

        monkeypatch.setattr(sim_run, "simulate", declining_dynamic)
        stats = simulate_stacked(SPECS[0], list(ORGS), scale=SCALE,
                                 accesses_per_epoch=DENSITY)
        for org, run_stats in zip(ORGS, stats):
            declined = 1 if org == "dynamic" else 0
            assert run_stats.scalar_epochs == declined, org
            assert run_stats.vector_epochs > 0, org
            assert run_stats.comparable_dict() == \
                oracle(SPECS[0], org).comparable_dict()

    @pytest.mark.parametrize("name,declined", [("BFS", 6)])
    def test_undrainable_rows_decline_to_the_serial_engine(self, name,
                                                           declined):
        # With no floor on the remote allotment, DynamicLLC shrinks the
        # remote partition to zero ways while it still holds lines: the
        # drain model cannot describe that over slot, so every staged
        # epoch probing one of its rows is declined whole and rerun on
        # the serial engine.  Each kernel-boundary flush empties the
        # partition, so only a kernel that shrinks it to zero ways and
        # then probes it declines (BFS at this size; SRAD and NN no
        # longer do).
        bench = get(name)
        expected = oracle(bench, floorless_dynamic()).comparable_dict()
        solo = simulate(bench, floorless_dynamic(), scale=SCALE,
                        accesses_per_epoch=DENSITY)
        assert solo.scalar_epochs == declined
        assert solo.vector_epochs > 0
        assert solo.comparable_dict() == expected


class TestZeroRemoteFloor:
    """With ``min_remote_ways=0`` DynamicLLC's remote partition can
    reach zero ways while it still holds lines, since a shrunk
    partition drains lazily; each kernel-boundary flush must still
    empty it, on both paths."""

    @staticmethod
    def boundaries(monkeypatch, run):
        """``(remote ways, REMOTE lines before, after)`` at each
        kernel-boundary flush of ``run()``."""
        flush = SimulationEngine._kernel_boundary_flush
        seen = []

        def remote_lines(engine):
            return sum(cache.occupancy_by_partition().get(
                PARTITION_REMOTE, 0) for chip in engine.llc for cache in chip)

        def observed(engine, scope):
            before = remote_lines(engine)
            flush(engine, scope)
            seen.append((engine.organization.remote_ways, before,
                         remote_lines(engine)))

        with monkeypatch.context() as patch:
            patch.setattr(SimulationEngine, "_kernel_boundary_flush",
                          observed)
            stats = run()
        return stats, seen

    @pytest.mark.parametrize("name", ["SRAD", "BFS"])
    def test_boundary_flush_empties_a_zero_way_remote_partition(
            self, monkeypatch, name):
        bench = get(name)
        vector, on_vector = self.boundaries(monkeypatch, lambda: simulate(
            bench, floorless_dynamic(), scale=SCALE,
            accesses_per_epoch=DENSITY))
        serial, on_serial = self.boundaries(
            monkeypatch, lambda: oracle(bench, floorless_dynamic()))
        assert vector.vector_epochs > 0 and serial.vector_epochs == 0
        assert vector.comparable_dict() == serial.comparable_dict()
        for seen in (on_vector, on_serial):
            assert all(after == 0 for _ways, _before, after in seen)
            # Some kernel ends with zero remote ways and REMOTE lines.
            assert any(ways == 0 and before for ways, before, _ in seen)


class TestVectorPathDecision:
    """Whether a run takes the vector path is decided once, when the
    engine is built: a run that cannot take it builds the oracle's
    ``SetAssociativeCache`` slices and no ``VectorBank`` at all."""

    @pytest.mark.parametrize("organization,config,params_kwargs", [
        ("ladm", None, {}),
        ("memory-side", None, {"page_migration": True}),
        ("sm-side", with_coherence(baseline(), "hardware"), {}),
        ("sac", None, {"batched": False}),
        ("sac", None, {"vectorized": False}),
    ], ids=["ladm", "page-migration", "hardware-coherence", "unbatched",
            "unvectorized"])
    def test_serial_runs_build_no_bank(self, monkeypatch, organization,
                                       config, params_kwargs):
        built = []
        original = VectorBank.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            original(self, *args, **kwargs)
        monkeypatch.setattr(VectorBank, "__init__", counting)
        run_cfg = scaled_config(config or baseline(), SCALE)
        engine = SimulationEngine(run_cfg,
                                  make_organization(organization, run_cfg),
                                  params=EngineParams(**params_kwargs))
        assert built == []
        assert all(type(cache) is SetAssociativeCache
                   for chip in engine.llc for cache in chip)
