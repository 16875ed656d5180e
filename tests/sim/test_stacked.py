"""Differential tests for ``simulate_stacked``, the per-benchmark sweep.

``simulate_stacked`` runs one benchmark under several organizations
back to back: one plain ``simulate`` per organization over the one
memoized trace.  The load-bearing contract: ``stats[i]`` is
bit-identical (``RunStats.comparable_dict``) to the standalone
``simulate`` run of ``organizations[i]``, and a failure inside any run
reaches the caller (``run_matrix``'s supervisor retries the whole
benchmark task).
"""

import numpy as np
import pytest

from repro.arch import baseline, presets
from repro.cache import vector
from repro.core import sanitize
from repro.sim import (
    ORGANIZATIONS,
    EngineParams,
    make_organization,
    simulate,
    simulate_stacked,
)
from repro.sim import run as sim_run
from repro.sim.run import scaled_config
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec
from repro.workloads.generator import TraceGenerator
from repro.workloads.suite import get

SCALE = 1.0 / 64
DENSITY = 512


def tiny_spec(name="stacked-tiny", epochs=4, iterations=1):
    phase = PhaseSpec(weight_true=0.4, weight_false=0.3, weight_private=0.3,
                      write_fraction=0.25)
    return BenchmarkSpec(
        name=name, suite="test", num_ctas=16, footprint_mb=8,
        true_shared_mb=2, false_shared_mb=2, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=epochs),),
        iterations=iterations, seed=11)


def standalone(spec, organization, config=None, params=None):
    return simulate(spec, organization, config=config, scale=SCALE,
                    accesses_per_epoch=DENSITY, params=params)


def oracle(spec, organization):
    """The serial engine over ``SetAssociativeCache`` slices."""
    return standalone(spec, organization, params=EngineParams(
        batched=False, vectorized=False))


class TestDifferentialMatrix:
    def test_all_five_organizations_bit_identical(self):
        spec = tiny_spec()
        stats = simulate_stacked(spec, list(ORGANIZATIONS), scale=SCALE,
                                 accesses_per_epoch=DENSITY)
        assert [s.organization for s in stats] == list(ORGANIZATIONS)
        for org, run in zip(ORGANIZATIONS, stats):
            solo = standalone(spec, org)
            assert run.comparable_dict() == solo.comparable_dict(), org

    def test_dynamic_lane_repartitions_mid_stream(self):
        # The equality above must hold *through* a DynamicLLC epoch
        # repartition, not just on runs where the partition sat still.
        # Prebuilt organizations expose the final way split to prove the
        # repartition actually happened in both executions.
        spec = tiny_spec(name="stacked-dyn", epochs=8, iterations=2)
        config = scaled_config(baseline(), SCALE)
        stacked_org = make_organization("dynamic", config)
        solo_org = make_organization("dynamic", config)
        stats = simulate_stacked(spec, ["memory-side", stacked_org],
                                 scale=SCALE, accesses_per_epoch=DENSITY)
        solo = standalone(spec, solo_org)
        initial = config.chip.llc_slice.associativity // 2
        assert stacked_org.remote_ways != initial
        assert stacked_org.remote_ways == solo_org.remote_ways
        assert stats[1].comparable_dict() == solo.comparable_dict()

    def test_single_lane_matches_standalone(self):
        spec = tiny_spec(name="stacked-single")
        stats = simulate_stacked(spec, ["sac"], scale=SCALE,
                                 accesses_per_epoch=DENSITY)
        solo = standalone(spec, "sac")
        assert len(stats) == 1
        assert stats[0].comparable_dict() == solo.comparable_dict()

    def test_unvectorized_lanes_run_solo_but_identical(self):
        spec = tiny_spec(name="stacked-scalar")
        params = EngineParams(vectorized=False)
        orgs = ["memory-side", "sm-side"]
        stats = simulate_stacked(spec, orgs, scale=SCALE,
                                 accesses_per_epoch=DENSITY, params=params)
        for org, run in zip(orgs, stats):
            # ``params`` reaches every run: none of them built a bank.
            assert run.vector_epochs == run.scalar_epochs == 0
            assert run.slow_epochs > 0
            solo = standalone(spec, org, params=params)
            assert run.comparable_dict() == solo.comparable_dict()


class TestMultiConfigLanes:
    """One call runs every organization under one config; a sweep over
    configs (Figure 14) makes one call per config."""

    def test_fig14_style_capacity_sweep(self):
        spec = tiny_spec(name="stacked-fig14")
        orgs = ["memory-side", "sm-side"]
        base = baseline()
        small = presets.with_llc_capacity_scale(base, 0.25)
        points = []
        for config in (base, small):
            stats = simulate_stacked(spec, orgs, config=config, scale=SCALE,
                                     accesses_per_epoch=DENSITY)
            for org, run in zip(orgs, stats):
                solo = standalone(spec, org, config=config)
                assert run.comparable_dict() == solo.comparable_dict()
            points.append(stats)
        # The config reached the runs: the smaller LLC hits less.
        for at_base, at_small in zip(*points):
            assert at_small.llc_hit_rate < at_base.llc_hit_rate

    def test_empty_lane_list_raises(self):
        with pytest.raises(ValueError, match="at least one organization"):
            simulate_stacked(tiny_spec(), [])


class TestSharedStreamLanes:
    """The runs of one call replay one memoized trace stream."""

    @pytest.fixture
    def generations(self, monkeypatch):
        """Names of the specs whose trace was generated, in order."""
        seen = []
        original = TraceGenerator._generate_all

        def counting(self):
            seen.append(self.spec.name)
            return original(self)

        monkeypatch.setattr(TraceGenerator, "_generate_all", counting)
        return seen

    def test_five_org_sweep_shares_streams(self, generations):
        spec = tiny_spec(name="stacked-share")
        stats = simulate_stacked(spec, list(ORGANIZATIONS), scale=SCALE,
                                 accesses_per_epoch=DENSITY)
        assert generations == [spec.name]
        for org, run in zip(ORGANIZATIONS, stats):
            solo = standalone(spec, org)
            assert run.comparable_dict() == solo.comparable_dict(), org

    def test_mixed_partition_caps_share_one_stream(self, generations):
        # Two static organizations with different way splits resolve the
        # same stream against different capacity vectors.
        spec = tiny_spec(name="stacked-caps")
        config = scaled_config(baseline(), SCALE)
        fractions = (0.25, 0.5)
        orgs = [make_organization("static", config,
                                  remote_way_fraction=f)
                for f in fractions]
        stats = simulate_stacked(spec, orgs, scale=SCALE,
                                 accesses_per_epoch=DENSITY)
        assert generations == [spec.name]
        assert stats[0].comparable_dict() != stats[1].comparable_dict()
        for f, run in zip(fractions, stats):
            solo = standalone(spec, make_organization(
                "static", config, remote_way_fraction=f))
            assert run.comparable_dict() == solo.comparable_dict()


class TestLaneBatchedReplay:
    """Repartitions and the vectorized drain.

    A DynamicLLC repartition leaves rows over-allotted; the staged
    kernel drains them, so no run of a sweep leaves the vectorized
    path: every ``scalar_epochs`` stays zero.  ``tiny_spec`` traffic
    only ever *grows* the dynamic remote partition (the local slot
    drains); DWT shrinks it (8 -> 7 -> ... -> 2), which drains the
    remote slot through the mirrored fixed point instead.
    """

    def test_repartition_with_shared_and_sectored_lanes_in_one_round(self):
        # One sweep on a sectored LLC holds a repartitioning dynamic
        # organization, two differently-partitioned static ones and the
        # grouped organizations.
        spec = tiny_spec(name="stacked-lane-batch", epochs=8, iterations=2)
        sectored = presets.with_sectored_llc(baseline())
        config = scaled_config(sectored, SCALE)

        def organizations():
            return ["memory-side", "sm-side",
                    make_organization("dynamic", config), "static", "sac",
                    make_organization("static", config,
                                      remote_way_fraction=0.25),
                    make_organization("static", config,
                                      remote_way_fraction=0.5)]

        orgs = organizations()
        stats = simulate_stacked(spec, orgs, config=sectored, scale=SCALE,
                                 accesses_per_epoch=DENSITY)
        # The repartition genuinely happened mid-stream...
        initial = config.chip.llc_slice.associativity // 2
        assert orgs[2].remote_ways != initial
        # ...and no run declined an epoch.
        assert [s.scalar_epochs for s in stats] == [0] * 7
        for i, org in enumerate(organizations()):
            solo = standalone(spec, org, config=sectored)
            assert stats[i].comparable_dict() == solo.comparable_dict(), i

    def test_standalone_repartition_avoids_the_interpreter(self):
        spec = tiny_spec(name="solo-drain", epochs=8, iterations=2)
        config = scaled_config(baseline(), SCALE)
        org = make_organization("dynamic", config)
        stats = standalone(spec, org)
        assert org.remote_ways != config.chip.llc_slice.associativity // 2
        assert stats.vector_epochs > 0
        assert stats.scalar_epochs == 0

    def test_shrinking_remote_partition_avoids_the_interpreter(self):
        spec = get("DWT")
        config = scaled_config(baseline(), SCALE)
        org = make_organization("dynamic", config)
        stats = standalone(spec, org)
        assert org.remote_ways < config.chip.llc_slice.associativity // 2
        assert stats.scalar_epochs == 0
        assert stats.comparable_dict() == \
            oracle(spec, "dynamic").comparable_dict()

    def test_shrinking_remote_partition_in_a_stacked_sweep(self):
        spec = get("DWT")
        config = scaled_config(baseline(), SCALE)
        dynamic = make_organization("dynamic", config)
        stats = simulate_stacked(
            spec, ["memory-side", "sm-side", dynamic, "static", "sac"],
            scale=SCALE, accesses_per_epoch=DENSITY)
        assert dynamic.remote_ways < \
            config.chip.llc_slice.associativity // 2
        assert [s.scalar_epochs for s in stats] == [0] * 5
        assert [s.vector_epochs > 0 for s in stats] == [True] * 5
        assert stats[2].comparable_dict() == \
            oracle(spec, "dynamic").comparable_dict()


class TestDuplicateLanes:
    """Repeated organizations are each simulated; ``run_matrix`` is what
    drops duplicate pairs before they reach a sweep."""

    def test_duplicate_stats_are_independent_copies(self):
        spec = tiny_spec(name="stacked-dup-copy")
        stats = simulate_stacked(spec, ["memory-side", "memory-side"],
                                 scale=SCALE, accesses_per_epoch=DENSITY)
        assert stats[0] is not stats[1]
        assert stats[0].comparable_dict() == stats[1].comparable_dict()
        stats[1].accesses += 1
        assert stats[0].accesses != stats[1].accesses

    def test_organization_instances_are_never_deduplicated(self):
        spec = tiny_spec(name="stacked-dup-inst", epochs=8, iterations=2)
        config = scaled_config(baseline(), SCALE)
        orgs = [make_organization("dynamic", config),
                make_organization("dynamic", config)]
        stats = simulate_stacked(spec, orgs, scale=SCALE,
                                 accesses_per_epoch=DENSITY)
        # Both instances drove a run: each one repartitioned.
        initial = config.chip.llc_slice.associativity // 2
        assert [org.remote_ways != initial for org in orgs] == [True] * 2
        assert stats[0].comparable_dict() == stats[1].comparable_dict()


class TestLaneQuarantine:
    """Nothing is contained: a run's failure ends the sweep."""

    def test_mid_solve_group_failure_escapes_the_sweep(self, monkeypatch):
        # The sm-side run's first kernel call inside a grouped bank call
        # writes into a read-only array, after the memory-side run has
        # finished.  The sanitizer's guard turns that into a
        # SanitizerError, and simulate_stacked neither retries the run
        # nor returns the memory-side result without it.
        resolve = vector._batch_resolve
        run = sim_run.simulate
        started = []

        def tracking(spec, organization, **kwargs):
            started.append(organization)
            return run(spec, organization, **kwargs)

        def sm_side_writes(*args, **kwargs):
            if started[-1] == "sm-side":
                read_only = np.zeros(1, dtype=np.int64)
                read_only.setflags(write=False)
                read_only[0] = 0
            return resolve(*args, **kwargs)

        monkeypatch.setattr(sim_run, "simulate", tracking)
        monkeypatch.setattr(vector, "_batch_resolve", sm_side_writes)
        sanitize.report().clear()
        try:
            with pytest.raises(sanitize.SanitizerError):
                simulate_stacked(tiny_spec(name="stacked-mid-solve"),
                                 list(ORGANIZATIONS), scale=SCALE,
                                 accesses_per_epoch=DENSITY)
            assert started == ["memory-side", "sm-side"]
            [violation] = sanitize.report().violations
            assert violation.kind == "encoding-write"
            assert violation.site == "VectorBank.access_many_grouped"
        finally:
            sanitize.report().clear()
