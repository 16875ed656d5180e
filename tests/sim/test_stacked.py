"""Differential tests for stacked multi-config sweeps (repro.sim.stacked).

The load-bearing contract: every lane of ``simulate_stacked`` must be
bit-identical (``RunStats.comparable_dict``) to its standalone
``simulate`` run — the shared tag store, the grouped driver and the
per-lane charge accumulators are pure execution-path changes.
"""

import numpy as np
import pytest

from repro.arch import baseline, presets
from repro.cache import vector
from repro.core import sanitize
from repro.resilience import faults
from repro.sim import (
    ORGANIZATIONS,
    EngineParams,
    make_organization,
    simulate,
    simulate_stacked,
)
from repro.sim.run import scaled_config
from repro.sim.stats import TELEMETRY_FIELDS
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec
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


class TestDifferentialMatrix:
    def test_all_five_organizations_bit_identical(self):
        spec = tiny_spec()
        result = simulate_stacked(spec, list(ORGANIZATIONS), scale=SCALE,
                                  accesses_per_epoch=DENSITY)
        assert [s.organization for s in result.stats] == list(ORGANIZATIONS)
        for org, stats in zip(ORGANIZATIONS, result.stats):
            solo = standalone(spec, org)
            assert stats.comparable_dict() == solo.comparable_dict(), org

    def test_dynamic_lane_repartitions_mid_stream(self):
        # The equality above must hold *through* a DynamicLLC epoch
        # repartition, not just on runs where the partition sat still.
        # Prebuilt organizations expose the final way split to prove the
        # repartition actually happened in both executions.
        spec = tiny_spec(name="stacked-dyn", epochs=8, iterations=2)
        config = scaled_config(baseline(), SCALE)
        stacked_org = make_organization("dynamic", config)
        solo_org = make_organization("dynamic", config)
        result = simulate_stacked(spec, ["memory-side", stacked_org],
                                  scale=SCALE, accesses_per_epoch=DENSITY)
        solo = standalone(spec, solo_org)
        initial = config.chip.llc_slice.associativity // 2
        assert stacked_org.remote_ways != initial
        assert stacked_org.remote_ways == solo_org.remote_ways
        assert result.stats[1].comparable_dict() == solo.comparable_dict()

    def test_single_lane_matches_standalone(self):
        spec = tiny_spec(name="stacked-single")
        result = simulate_stacked(spec, ["sac"], scale=SCALE,
                                  accesses_per_epoch=DENSITY)
        solo = standalone(spec, "sac")
        assert result.stats[0].comparable_dict() == solo.comparable_dict()
        assert result.telemetry.stacked_lanes == 0
        assert result.telemetry.solo_lanes == 1

    def test_unvectorized_lanes_run_solo_but_identical(self):
        spec = tiny_spec(name="stacked-scalar")
        params = EngineParams(vectorized=False)
        orgs = ["memory-side", "sm-side"]
        result = simulate_stacked(spec, orgs, scale=SCALE,
                                  accesses_per_epoch=DENSITY, params=params)
        assert result.telemetry.banks == 0
        assert result.telemetry.solo_lanes == 2
        for org, stats in zip(orgs, result.stats):
            solo = standalone(spec, org, params=params)
            assert stats.comparable_dict() == solo.comparable_dict()


class TestMultiConfigLanes:
    def test_fig14_style_capacity_sweep(self):
        # Same organization, varying configs (the fig14 shape): lanes
        # with matching scaled LLC geometry share a bank, the odd one
        # out runs solo — all three still bit-identical to standalone.
        spec = tiny_spec(name="stacked-fig14")
        base = baseline()
        big = presets.with_llc_capacity_scale(base, 2.0)
        configs = [base, base, big]
        orgs = ["memory-side", "sm-side", "memory-side"]
        result = simulate_stacked(spec, orgs, configs=configs, scale=SCALE,
                                  accesses_per_epoch=DENSITY)
        assert result.telemetry.banks == 1
        assert result.telemetry.stacked_lanes == 2
        assert result.telemetry.solo_lanes == 1
        for org, config, stats in zip(orgs, configs, result.stats):
            solo = standalone(spec, org, config=config)
            assert stats.comparable_dict() == solo.comparable_dict()

    def test_configs_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="2 entries for 1"):
            simulate_stacked(tiny_spec(), ["memory-side"],
                             configs=[baseline(), baseline()])

    def test_trace_shape_mismatch_raises(self):
        two_chips = presets.with_chip_count(baseline(), 2)
        assert two_chips.num_chips != baseline().num_chips
        with pytest.raises(ValueError, match="trace shape"):
            simulate_stacked(tiny_spec(), ["memory-side", "sm-side"],
                             configs=[baseline(), two_chips])

    def test_empty_lane_list_raises(self):
        with pytest.raises(ValueError, match="at least one lane"):
            simulate_stacked(tiny_spec(), [])


class TestStackedTelemetry:
    def test_counters_describe_the_dispatch(self):
        # The paper's first benchmark as a five-organization sweep: every
        # lane shares one bank and stays bit-identical to its standalone
        # run, the shared bank needs at most half the bank calls the
        # standalone runs make, lanes carrying one stream are counted,
        # and no lane's epoch falls back to the serial engine.
        spec = get("RN")
        result = simulate_stacked(spec, list(ORGANIZATIONS), scale=SCALE,
                                  accesses_per_epoch=DENSITY)
        solos = [standalone(spec, org) for org in ORGANIZATIONS]
        for org, stats, solo in zip(ORGANIZATIONS, result.stats, solos):
            assert stats.comparable_dict() == solo.comparable_dict(), org
        tele = result.telemetry
        assert tele.lanes == 5
        assert tele.stacked_lanes == 5
        assert tele.solo_lanes == 0
        assert tele.banks == 1
        assert 2 * tele.bank_invocations <= sum(
            solo.vector_epochs for solo in solos)
        assert sum(s.stacked_shared_streams > 0 for s in result.stats) >= 2
        assert [s.scalar_epochs for s in result.stats] == [0] * 5
        assert tele.wall_seconds > 0.0

    def test_per_lane_stats_carry_stacked_counters(self):
        spec = tiny_spec(name="stacked-lane-tele")
        result = simulate_stacked(spec, ["memory-side", "sm-side"],
                                  scale=SCALE, accesses_per_epoch=DENSITY)
        for stats in result.stats:
            assert stats.stacked_lanes == 2
            assert stats.stacked_probe_calls > 0
            assert stats.wall_seconds > 0.0

    def test_new_fields_are_registered_telemetry(self):
        # comparable_dict must keep excluding them (they legitimately
        # differ between a stacked lane and its standalone run).
        assert "stacked_lanes" in TELEMETRY_FIELDS
        assert "stacked_probe_calls" in TELEMETRY_FIELDS
        assert "stacked_shared_streams" in TELEMETRY_FIELDS


class TestSharedStreamLanes:
    """Lanes carrying one trace stream in the same bank calls."""

    def test_five_org_sweep_shares_streams(self):
        # Lanes see shared-stream rounds and each still equals its
        # standalone run.
        spec = tiny_spec(name="stacked-share")
        result = simulate_stacked(spec, list(ORGANIZATIONS), scale=SCALE,
                                  accesses_per_epoch=DENSITY)
        assert sum(s.stacked_shared_streams > 0 for s in result.stats) >= 2
        for org, stats in zip(ORGANIZATIONS, result.stats):
            solo = standalone(spec, org)
            assert stats.comparable_dict() == solo.comparable_dict(), org

    def test_mixed_partition_caps_share_one_stream(self):
        # Two static lanes with different way splits resolve the same
        # stream against different capacity vectors.
        spec = tiny_spec(name="stacked-caps")
        config = scaled_config(baseline(), SCALE)
        fractions = (0.25, 0.5)
        orgs = [make_organization("static", config,
                                  remote_way_fraction=f)
                for f in fractions]
        result = simulate_stacked(spec, orgs, scale=SCALE,
                                  accesses_per_epoch=DENSITY)
        assert result.telemetry.duplicate_lanes == 0
        for f, stats in zip(fractions, result.stats):
            solo = standalone(spec, make_organization(
                "static", config, remote_way_fraction=f))
            assert stats.comparable_dict() == solo.comparable_dict()

    def test_sectored_lanes_share_while_plain_runs_apart(self):
        # Sectored lanes share one sectored bank; the plain lane keeps
        # its own geometry.
        spec = tiny_spec(name="stacked-sector")
        sectored = presets.with_sectored_llc(baseline())
        configs = [sectored, sectored, baseline()]
        orgs = ["memory-side", "sm-side", "memory-side"]
        result = simulate_stacked(spec, orgs, configs=configs, scale=SCALE,
                                  accesses_per_epoch=DENSITY)
        assert result.telemetry.banks == 1
        assert result.telemetry.stacked_lanes == 2
        assert result.telemetry.solo_lanes == 1
        for org, config, stats in zip(orgs, configs, result.stats):
            solo = standalone(spec, org, config=config)
            assert stats.comparable_dict() == solo.comparable_dict()

    def test_fallback_lane_rides_with_shared_lanes(self):
        # A lane whose config forces the per-access path (hardware
        # coherence) builds no bank: it rides the drive as a solo lane
        # without disturbing the other lanes.
        spec = tiny_spec(name="stacked-fallback")
        hw = presets.with_coherence(baseline(), "hardware")
        configs = [baseline(), baseline(), hw]
        orgs = ["memory-side", "sm-side", "sm-side"]
        result = simulate_stacked(spec, orgs, configs=configs, scale=SCALE,
                                  accesses_per_epoch=DENSITY)
        assert result.telemetry.stacked_lanes == 2
        assert result.telemetry.solo_lanes == 1
        assert result.stats[2].stacked_lanes == 0
        assert result.stats[2].vector_epochs == 0
        assert result.stats[2].scalar_epochs == 0
        assert result.stats[2].slow_epochs > 0
        for org, config, stats in zip(orgs, configs, result.stats):
            solo = standalone(spec, org, config=config)
            assert stats.comparable_dict() == solo.comparable_dict()


class TestLaneBatchedReplay:
    """Stacked rounds and the vectorized repartition drain.

    The differential matrix above exercises mid-stream repartitions,
    shared-stream lanes and sectored lanes separately; this class
    stacks all three into the *same* rounds and asserts the sweep never
    leaves the vectorized path: every lane's ``scalar_epochs`` stays
    zero because the occupancy-surplus drain absorbs the over-allotment
    of a repartition, so the bank declines no epoch.  ``tiny_spec`` traffic
    only ever *grows* the dynamic remote partition (the local slot
    drains); DWT shrinks it (8 -> 7 -> ... -> 2), which drains the
    remote slot through the mirrored fixed point instead.
    """

    def test_repartition_with_shared_and_sectored_lanes_in_one_round(self):
        spec = tiny_spec(name="stacked-lane-batch", epochs=8, iterations=2)
        base = baseline()
        sectored = presets.with_sectored_llc(base)
        config = scaled_config(base, SCALE)
        sconfig = scaled_config(sectored, SCALE)
        # The repartitioning dynamic lane shares its staged stream with
        # the static lane (rounds spanning the repartition epochs), the
        # sm-side/sac pair shares grouped rounds, and two
        # differently-partitioned static instances share the sectored
        # bank's staged stream — all in the same driver rounds.
        stacked_org = make_organization("dynamic", config)
        orgs = ["memory-side", "sm-side", stacked_org, "static", "sac",
                make_organization("static", sconfig,
                                  remote_way_fraction=0.25),
                make_organization("static", sconfig,
                                  remote_way_fraction=0.5)]
        configs = [base] * 5 + [sectored, sectored]
        result = simulate_stacked(spec, orgs, configs=configs, scale=SCALE,
                                  accesses_per_epoch=DENSITY)
        tele = result.telemetry
        assert tele.banks == 2
        assert tele.stacked_lanes == 7
        # The repartition genuinely happened mid-stream...
        initial = config.chip.llc_slice.associativity // 2
        assert stacked_org.remote_ways != initial
        # ...and no lane declined an epoch.
        assert [s.scalar_epochs for s in result.stats] == [0] * 7
        solo_orgs = ["memory-side", "sm-side",
                     make_organization("dynamic", config), "static", "sac",
                     make_organization("static", sconfig,
                                       remote_way_fraction=0.25),
                     make_organization("static", sconfig,
                                       remote_way_fraction=0.5)]
        for i, (org, config_i) in enumerate(zip(solo_orgs, configs)):
            solo = standalone(spec, org, config=config_i)
            assert result.stats[i].comparable_dict() == \
                solo.comparable_dict(), i

    def test_standalone_repartition_avoids_the_interpreter(self):
        # The drain is not a stacked-only path: a standalone dynamic
        # run's post-repartition epochs must also stay vectorized.
        spec = tiny_spec(name="solo-drain", epochs=8, iterations=2)
        stats = standalone(spec, "dynamic")
        assert stats.vector_epochs > 0
        assert stats.scalar_epochs == 0

    def test_shrinking_remote_partition_avoids_the_interpreter(self):
        spec = get("DWT")
        config = scaled_config(baseline(), SCALE)
        org = make_organization("dynamic", config)
        stats = standalone(spec, org)
        assert org.remote_ways < config.chip.llc_slice.associativity // 2
        assert stats.scalar_epochs == 0
        oracle = standalone(spec, "dynamic", params=EngineParams(
            batched=False, vectorized=False))
        assert stats.comparable_dict() == oracle.comparable_dict()

    def test_shrinking_remote_partition_in_a_stacked_sweep(self):
        spec = get("DWT")
        config = scaled_config(baseline(), SCALE)
        dynamic = make_organization("dynamic", config)
        result = simulate_stacked(
            spec, ["memory-side", "sm-side", dynamic, "static", "sac"],
            scale=SCALE, accesses_per_epoch=DENSITY)
        tele = result.telemetry
        assert dynamic.remote_ways < \
            config.chip.llc_slice.associativity // 2
        assert tele.stacked_lanes == 5
        assert tele.solo_lanes == 0
        assert [s.scalar_epochs for s in result.stats] == [0] * 5
        oracle = standalone(spec, "dynamic", params=EngineParams(
            batched=False, vectorized=False))
        assert result.stats[2].comparable_dict() == \
            oracle.comparable_dict()


class TestDuplicateLanes:
    def test_duplicate_lane_copies_stats_without_simulating(self):
        spec = tiny_spec(name="stacked-dup")
        result = simulate_stacked(
            spec, ["memory-side", "sm-side", "memory-side"],
            scale=SCALE, accesses_per_epoch=DENSITY)
        tele = result.telemetry
        assert tele.duplicate_lanes == 1
        assert tele.stacked_lanes == 2
        assert tele.solo_lanes == 0
        solo = standalone(spec, "memory-side")
        assert result.stats[0].comparable_dict() == solo.comparable_dict()
        assert result.stats[2].comparable_dict() == solo.comparable_dict()
        # The duplicate is never simulated: the bank sees exactly the
        # probe calls of the two distinct lanes, not a third stream.
        dedup = simulate_stacked(spec, ["memory-side", "sm-side"],
                                 scale=SCALE, accesses_per_epoch=DENSITY)
        assert tele.bank_invocations == dedup.telemetry.bank_invocations
        assert result.stats[2].stacked_probe_calls == \
            result.stats[0].stacked_probe_calls

    def test_duplicate_stats_are_independent_copies(self):
        spec = tiny_spec(name="stacked-dup-copy")
        result = simulate_stacked(spec, ["memory-side", "memory-side"],
                                  scale=SCALE, accesses_per_epoch=DENSITY)
        assert result.stats[0] is not result.stats[1]
        result.stats[1].accesses += 1
        assert result.stats[0].accesses != result.stats[1].accesses

    def test_organization_instances_are_never_deduplicated(self):
        spec = tiny_spec(name="stacked-dup-inst")
        config = scaled_config(baseline(), SCALE)
        orgs = [make_organization("dynamic", config),
                make_organization("dynamic", config)]
        result = simulate_stacked(spec, orgs, scale=SCALE,
                                  accesses_per_epoch=DENSITY)
        assert result.telemetry.duplicate_lanes == 0
        assert result.stats[0].comparable_dict() == \
            result.stats[1].comparable_dict()


class TestLaneQuarantine:
    """Fault containment: one faulting lane degrades, never aborts.

    ``lane.raise:<org>@2`` fires on the lane's second pump — mid-drive,
    after the shared run is underway — so surviving lanes must finish
    the co-run untouched and the quarantined lane must come back from
    its solo re-run, both bit-identical to standalone ``simulate()``.
    """

    @pytest.fixture(autouse=True)
    def disarm(self):
        faults.reset()
        yield
        faults.reset()

    @pytest.mark.parametrize("victim", ORGANIZATIONS)
    def test_each_organization_quarantines_cleanly(self, victim):
        spec = tiny_spec(name="stacked-quar")
        with faults.armed(f"lane.raise:{victim}@2"):
            result = simulate_stacked(spec, list(ORGANIZATIONS),
                                      scale=SCALE,
                                      accesses_per_epoch=DENSITY)
        index = list(ORGANIZATIONS).index(victim)
        assert result.telemetry.quarantined_lanes == [index]
        assert result.telemetry.demoted_lanes == []
        for i, org in enumerate(ORGANIZATIONS):
            solo = standalone(spec, org)
            assert result.stats[i].comparable_dict() == \
                solo.comparable_dict(), org
            assert result.stats[i].lane_quarantined == (1 if i == index
                                                        else 0)
            assert result.stats[i].lane_demoted == 0

    def test_mid_stream_dynamic_repartition_lane_quarantines(self):
        # The faulting lane is a DynamicLLC instance that repartitions
        # mid-stream; its solo re-run starts from a pristine pre-drive
        # snapshot, so the re-run still reproduces the repartition.
        spec = tiny_spec(name="stacked-quar-dyn", epochs=8, iterations=2)
        config = scaled_config(baseline(), SCALE)
        stacked_org = make_organization("dynamic", config)
        solo_org = make_organization("dynamic", config)
        with faults.armed("lane.raise:dynamic@3"):
            result = simulate_stacked(spec, ["memory-side", stacked_org],
                                      scale=SCALE,
                                      accesses_per_epoch=DENSITY)
        assert result.telemetry.quarantined_lanes == [1]
        solo = standalone(spec, solo_org)
        initial = config.chip.llc_slice.associativity // 2
        assert solo_org.remote_ways != initial
        assert result.stats[1].comparable_dict() == solo.comparable_dict()
        survivor = standalone(spec, "memory-side")
        assert result.stats[0].comparable_dict() == \
            survivor.comparable_dict()

    def test_kernel_fault_demotes_solo_rerun_to_scalar(self):
        # An unbounded kernel.solve_error on one lane faults the shared
        # group call; the solo fallback pins it on the static lane, and
        # its re-run must demote to the scalar engine (the vector path
        # is the thing that faulted) yet stay bit-identical.
        spec = tiny_spec(name="stacked-quar-kern")
        orgs = ["memory-side", "static", "sm-side"]
        with faults.armed("kernel.solve_error:static@1*"):
            result = simulate_stacked(spec, orgs, scale=SCALE,
                                      accesses_per_epoch=DENSITY)
        assert result.telemetry.quarantined_lanes == [1]
        assert result.telemetry.demoted_lanes == [1]
        assert result.stats[1].lane_quarantined == 1
        assert result.stats[1].lane_demoted == 1
        for i, org in enumerate(orgs):
            solo = standalone(spec, org)
            assert result.stats[i].comparable_dict() == \
                solo.comparable_dict(), org

    def test_mid_solve_group_failure_escapes_the_sweep(self, monkeypatch):
        # The bank commits a group call one lane at a time, so a call
        # that fails mid-solve may already have applied some members'
        # epochs; retrying those members solo would apply them twice.
        # Only a KernelSolveError, which fires before the bank is
        # touched, goes to the solo fallback.  Here the second lane's
        # kernel call inside a shared grouped call writes into a
        # read-only array, after the first lane's epoch is committed.
        resolve = vector._batch_resolve
        shared = vector.VectorBank.access_many_grouped_shared
        lane_calls = []

        def second_lane_writes(*args, **kwargs):
            if lane_calls:
                lane_calls[-1] += 1
                if lane_calls[-1] == 2:
                    read_only = np.zeros(1, dtype=np.int64)
                    read_only.setflags(write=False)
                    read_only[0] = 0
            return resolve(*args, **kwargs)

        def counting_shared(bank, calls):
            lane_calls.append(0)
            try:
                return shared(bank, calls)
            finally:
                lane_calls.pop()

        monkeypatch.setattr(vector, "_batch_resolve", second_lane_writes)
        monkeypatch.setattr(vector.VectorBank, "access_many_grouped_shared",
                            counting_shared)
        sanitize.report().clear()
        try:
            with pytest.raises(sanitize.SanitizerError):
                simulate_stacked(tiny_spec(name="stacked-mid-solve"),
                                 list(ORGANIZATIONS), scale=SCALE,
                                 accesses_per_epoch=DENSITY)
            [violation] = sanitize.report().violations
            assert violation.kind == "encoding-write"
            assert violation.site == "VectorBank.access_many_grouped_shared"
        finally:
            sanitize.report().clear()

    def test_quarantine_fields_are_telemetry_not_physics(self):
        assert "lane_quarantined" in TELEMETRY_FIELDS
        assert "lane_demoted" in TELEMETRY_FIELDS
