"""Relations the serial oracle cannot check: one model, two configs.

Degenerate equivalences.  Some settings turn one organization into
another: a ``DynamicLLC`` whose floors both sit at half the ways can
never move its split, so it is ``static``; a SAC whose θ no EAB gap can
exceed never picks SM-side, so it is ``memory-side``; an LADM whose
touch filter lets every remote access allocate is ``dynamic``; a
``StaticLLC`` with no remote ways is ``memory-side``.  Each relation is
checked on random workloads at the baseline config.  "Equal" means equal
``comparable_dict()`` apart from the organization names, the run's and
each kernel's.

The zero-way static relation excludes ``slice_requests`` and timing: a
two-stage access still probes its own slice's empty remote partition,
counts a request there and is charged that probe's crossbar leg, so
the static run can take longer (a strict ``xfail`` pins
:data:`PROBED_EMPTY_PARTITION`).

Metamorphic laws.  Under ``memory-side`` and ``sm-side`` every slice is
an LRU cache over a stream the cache does not shape, so more ways at
the same set count never lose a hit (LRU inclusion).  Under
``memory-side``, ``sm-side`` and ``static`` no decision reads a
bandwidth, so halving or doubling the inter-chip, DRAM or LLC-slice
bandwidth leaves every traffic count equal and moves ``cycles`` the
other way (``dynamic`` and ``sac`` decide by bandwidth, so the law does
not cover them).

The LADM relation holds only under Dynamic's flush scope.  LADM
declares the whole LLC as its ``remote_scope``, so each kernel boundary
flushes its local partition too (a strict ``xfail`` pins that; ROADMAP,
item 1).

The SAC relation has one known gap.  When SAC's profiling window ends
inside an epoch, the engine settles the profiled head and the tail as
two epochs.  Each one's duration is its own bottleneck's, so the cut
epoch records two entries and can take longer than memory-side's one
(:data:`CUT_EPOCH`).  Cache and traffic quantities still agree.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fuzz import workload_specs

from repro.arch import baseline, with_inter_chip_bandwidth
from repro.llc import DynamicLLC, LADMLLC, StaticLLC
from repro.sim import simulate
from repro.sim.run import scaled_config
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec, get

SCALE = 1.0 / 64
DENSITY = 256

#: A one-epoch kernel of 512 compute cycles.  The 500-cycle profiling
#: window cuts it: the head is compute-bound (500 cycles) and the
#: 12-compute-cycle tail inter-chip-bound (14.2), so SAC takes 514.2
#: cycles where memory-side takes 512.
CUT_EPOCH = BenchmarkSpec(
    name="fuzz", suite="test", num_ctas=16, footprint_mb=3.0,
    true_shared_mb=1.0, false_shared_mb=1.0, preference="sm-side",
    kernels=(KernelSpec(name="k", epochs=1, phase=PhaseSpec(
        weight_true=0.8515625, weight_false=0.0, weight_private=0.1484375,
        hot_fraction=0.5, hot_weight=0.0, write_fraction=0.0,
        intensity=500.0, true_affinity=0.5)),),
    iterations=1, seed=1)


#: A three-epoch kernel whose LLC holds only local lines.  The profiling
#: window cuts its first epoch, so SAC's kernel takes 1536.17 cycles;
#: weighting the all-local sample by that once rounded the local
#: fraction to 1.0000000000000002.
ALL_LOCAL_CUT = BenchmarkSpec(
    name="fuzz", suite="test", num_ctas=16, footprint_mb=2.5625,
    true_shared_mb=1.0625, false_shared_mb=0.5, preference="sm-side",
    kernels=(KernelSpec(name="k", epochs=3, phase=PhaseSpec(
        weight_true=0.96484375, weight_false=0.03515625, weight_private=0.0,
        hot_fraction=1.0, hot_weight=0.0, write_fraction=0.0,
        intensity=500.0, true_affinity=0.0)),),
    iterations=1, seed=86)


#: A mostly private one-epoch kernel whose crossbar load sits just
#: under its compute time under memory-side (131.62 cycles).  A static
#: LLC with no remote ways adds 104 probes of the empty remote
#: partition; their crossbar legs bind the epoch at 131.625 cycles.
PROBED_EMPTY_PARTITION = BenchmarkSpec(
    name="fuzz", suite="test", num_ctas=16, footprint_mb=4.0,
    true_shared_mb=1.75, false_shared_mb=1.75, preference="sm-side",
    kernels=(KernelSpec(name="k", epochs=1, phase=PhaseSpec(
        weight_true=0.0, weight_false=0.125, weight_private=0.875,
        hot_fraction=0.875, hot_weight=0.0, write_fraction=0.0,
        intensity=1945.0, true_affinity=0.0)),),
    iterations=1, seed=0)


def physics(stats):
    """``comparable_dict()`` without the organization names."""
    fields = stats.comparable_dict()
    del fields["organization"]
    for kernel in fields["kernels"]:
        del kernel["organization"]
    return fields


def without(fields, run_keys, kernel_keys):
    """``fields`` without ``run_keys`` and each kernel's ``kernel_keys``."""
    kept = {k: v for k, v in fields.items()
            if k not in run_keys and k != "kernels"}
    kept["kernels"] = [
        {k: v for k, v in kernel.items() if k not in kernel_keys}
        for kernel in fields["kernels"]]
    return kept


def untimed(fields):
    """``fields`` without the run's and its kernels' timing."""
    return without(fields, ("cycles", "bottleneck_cycles"),
                   ("cycles", "epoch_cycles"))


def traffic(fields):
    """``fields`` without anything a bandwidth may move: every timing
    field, and Figure 9's fractions, which are weighted by kernel
    cycles."""
    return without(fields,
                   ("cycles", "bottleneck_cycles", "flush_cycles",
                    "llc_local_fraction", "llc_remote_fraction"),
                   ("cycles", "epoch_cycles", "reconfig_cycles"))


def with_chip(config, **changes):
    """``config`` with ``changes`` to its chip."""
    return config.with_updates(
        chip=dataclasses.replace(config.chip, **changes))


def wider_llc(config):
    """``config`` with twice the bytes and ways in every LLC slice."""
    llc = config.chip.llc_slice
    return with_chip(config, llc_slice=dataclasses.replace(
        llc, size_bytes=2 * llc.size_bytes,
        associativity=2 * llc.associativity))


#: Each bandwidth of the law, as ``config`` with it scaled by ``factor``.
BANDWIDTHS = {
    "inter-chip": lambda config, factor: with_inter_chip_bandwidth(
        config, 96 * factor),
    "dram": lambda config, factor: with_chip(
        config, memory=dataclasses.replace(
            config.chip.memory,
            channel_bw_bytes_per_cycle=(
                config.chip.memory.channel_bw_bytes_per_cycle * factor))),
    "llc-slice": lambda config, factor: with_chip(
        config, llc_slice_bw_bytes_per_cycle=round(
            config.chip.llc_slice_bw_bytes_per_cycle * factor)),
}


class AllocatingLADM(LADMLLC):
    """LADM whose touch filter lets every remote access allocate."""

    def remote_allocate(self, chip, addr):
        return True


class AllocatingLADMUnderDynamicScope(AllocatingLADM):
    """The same, flushing only the remote partition, as Dynamic does."""

    remote_scope = DynamicLLC.remote_scope


def against_dynamic(spec, ladm_class):
    """``spec`` under an LADM of ``ladm_class``, and under dynamic."""
    num_chips = scaled_config(baseline(), SCALE).num_chips
    ladm = simulate(spec, ladm_class(num_chips), scale=SCALE,
                    accesses_per_epoch=DENSITY)
    dynamic = simulate(spec, "dynamic", scale=SCALE,
                       accesses_per_epoch=DENSITY)
    return physics(ladm), physics(dynamic)


def never_sm_side(spec):
    """``spec`` under SAC with θ = 1e9, and under memory-side."""
    config = baseline()
    config = config.with_updates(
        sac=dataclasses.replace(config.sac, theta=1e9))
    sac = simulate(spec, "sac", config=config, scale=SCALE,
                   accesses_per_epoch=DENSITY)
    memory_side = simulate(spec, "memory-side", scale=SCALE,
                           accesses_per_epoch=DENSITY)
    assert all(k.organization == "memory-side" for k in sac.kernels)
    return physics(sac), physics(memory_side)


@given(workload_specs())
@settings(max_examples=50, deadline=None)
def test_dynamic_with_both_floors_at_half_is_static(spec):
    half = scaled_config(baseline(), SCALE).chip.llc_slice.associativity // 2
    pinned = simulate(spec, "dynamic", scale=SCALE,
                      accesses_per_epoch=DENSITY,
                      org_kwargs={"min_local_ways": half,
                                  "min_remote_ways": half})
    static = simulate(spec, "static", scale=SCALE,
                      accesses_per_epoch=DENSITY)
    assert physics(pinned) == physics(static)


@given(workload_specs())
@example(ALL_LOCAL_CUT)
@settings(max_examples=50, deadline=None)
def test_sac_with_unreachable_theta_is_memory_side(spec):
    sac, memory_side = never_sm_side(spec)
    epochs = [len(k["epoch_cycles"]) for k in memory_side["kernels"]]
    if [len(k["epoch_cycles"]) for k in sac["kernels"]] == epochs:
        assert sac == memory_side
    else:
        # The profiling window cut an epoch (the module's known gap).
        assert untimed(sac) == untimed(memory_side)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a profiling-window cut settles the epoch as "
                   "two, each at its own bottleneck")
def test_cut_epoch_is_timed_as_one():
    sac, memory_side = never_sm_side(CUT_EPOCH)
    assert sac == memory_side


@given(workload_specs())
@settings(max_examples=20, deadline=None)
def test_ladm_that_always_allocates_is_dynamic(spec):
    ladm, dynamic = against_dynamic(spec, AllocatingLADMUnderDynamicScope)
    assert ladm == dynamic


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="LADM declares the whole LLC as its remote "
                   "scope, so each kernel boundary flushes its local "
                   "partition too (ROADMAP, item 1)")
def test_ladm_flushes_only_its_remote_partition():
    ladm, dynamic = against_dynamic(get("RN"), AllocatingLADM)
    assert ladm == dynamic


def without_remote_ways(spec):
    """``spec`` under a static LLC with no remote ways, and under
    memory-side, each without ``slice_requests``; and how many more
    requests each slice counts under the static LLC."""
    num_chips = scaled_config(baseline(), SCALE).num_chips
    static = physics(simulate(spec, StaticLLC(num_chips,
                                              remote_way_fraction=0.0),
                              scale=SCALE, accesses_per_epoch=DENSITY))
    memory_side = physics(simulate(spec, "memory-side", scale=SCALE,
                                   accesses_per_epoch=DENSITY))
    extra = [s - m for s, m in zip(static.pop("slice_requests"),
                                   memory_side.pop("slice_requests"))]
    return static, memory_side, extra


@given(workload_specs())
@example(PROBED_EMPTY_PARTITION)
@settings(max_examples=50, deadline=None)
def test_static_without_remote_ways_is_memory_side(spec):
    static, memory_side, extra = without_remote_ways(spec)
    assert min(extra) >= 0
    assert untimed(static) == untimed(memory_side)
    # The extra probes can only add load (the module's known gap).
    assert static["cycles"] >= memory_side["cycles"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a two-stage access charges its probe of the "
                   "empty remote partition a crossbar leg")
def test_probe_of_an_empty_partition_takes_no_time():
    static, memory_side, _ = without_remote_ways(PROBED_EMPTY_PARTITION)
    assert static == memory_side


@given(workload_specs(), st.sampled_from(("memory-side", "sm-side")))
@settings(max_examples=50, deadline=None)
def test_more_ways_at_the_same_sets_never_lose_a_hit(spec, organization):
    base = baseline()
    wide = wider_llc(base)
    assert (scaled_config(wide, SCALE).chip.llc_slice.num_sets
            == scaled_config(base, SCALE).chip.llc_slice.num_sets)
    narrow_run = simulate(spec, organization, config=base, scale=SCALE,
                          accesses_per_epoch=DENSITY)
    wide_run = simulate(spec, organization, config=wide, scale=SCALE,
                        accesses_per_epoch=DENSITY)
    assert wide_run.llc_hits >= narrow_run.llc_hits


@given(workload_specs(), st.sampled_from(("memory-side", "sm-side", "static")),
       st.sampled_from(sorted(BANDWIDTHS)), st.sampled_from((0.5, 2.0)))
@settings(max_examples=100, deadline=None)
def test_bandwidth_moves_only_time(spec, organization, bandwidth, factor):
    config = BANDWIDTHS[bandwidth](baseline(), factor)
    base = simulate(spec, organization, scale=SCALE,
                    accesses_per_epoch=DENSITY)
    moved = simulate(spec, organization, config=config, scale=SCALE,
                     accesses_per_epoch=DENSITY)
    assert traffic(physics(moved)) == traffic(physics(base))
    if factor < 1:
        assert moved.cycles >= base.cycles
    else:
        assert moved.cycles <= base.cycles
