"""Degenerate-equivalence relations between organizations.

Some settings turn one organization into another: a ``DynamicLLC``
whose floors both sit at half the ways can never move its split, so it
is ``static``; a SAC whose θ no EAB gap can exceed never picks SM-side,
so it is ``memory-side``.  Each relation is checked on random workloads
at the baseline config.  "Equal" means equal ``comparable_dict()``
apart from the organization names, the run's and each kernel's.

The SAC relation has one known gap.  When SAC's profiling window ends
inside an epoch, the engine settles the profiled head and the tail as
two epochs.  Each one's duration is its own bottleneck's, so the cut
epoch records two entries and can take longer than memory-side's one
(:data:`CUT_EPOCH`).  Cache and traffic quantities still agree.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from test_fuzz import workload_specs

from repro.arch import baseline
from repro.sim import simulate
from repro.sim.run import scaled_config
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec

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


def physics(stats):
    """``comparable_dict()`` without the organization names."""
    fields = stats.comparable_dict()
    del fields["organization"]
    for kernel in fields["kernels"]:
        del kernel["organization"]
    return fields


def untimed(fields):
    """``fields`` without the run's and its kernels' timing."""
    kept = {k: v for k, v in fields.items()
            if k not in ("cycles", "bottleneck_cycles", "kernels")}
    kept["kernels"] = [
        {k: v for k, v in kernel.items()
         if k not in ("cycles", "epoch_cycles")}
        for kernel in fields["kernels"]]
    return kept


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
