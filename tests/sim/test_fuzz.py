"""Randomized end-to-end invariants over the full engine (hypothesis).

Small random workload specs run through every organization; the
invariants checked are the accounting identities every figure relies
on, so this acts as a catch-all harness for the whole stack.  The
vector path is also checked against the serial oracle on random draws
from its domain.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch import (
    baseline,
    with_chip_count,
    with_coherence,
    with_inter_chip_bandwidth,
    with_llc_capacity_scale,
    with_memory_interface,
    with_page_size,
    with_sectored_llc,
)
from repro.sim import EngineParams, simulate
from repro.sim.engine import SimulationEngine
from repro.sim.run import ORGANIZATIONS, make_organization, scaled_config
from repro.sim.stats import check_invariants
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec
from repro.workloads.generator import EpochTrace, KernelTrace, TraceGenerator
from repro.workloads.suite import get

SCALE = 1.0 / 64

#: Configurations that keep a run on the vector path.  At ``SCALE`` the
#: half-capacity LLC has one set per slice, so every access to a slice
#: lands in one kernel row.  The Figure 14 presets (every link
#: bandwidth and memory interface the sweep departs to from the
#: baseline's 96 GB/s and GDDR6) move the traffic balance ``dynamic``
#: repartitions on, so they draw other drain sequences.
VECTOR_CONFIGS = {
    "baseline": baseline(),
    "sectored": with_sectored_llc(baseline()),
    "2-chip": with_chip_count(baseline(), 2),
    "64k-pages": with_page_size(baseline(), 65536),
    "half-llc": with_llc_capacity_scale(baseline(), 0.5),
    "sectored-2-chip": with_sectored_llc(with_chip_count(baseline(), 2)),
    "48gbps-links": with_inter_chip_bandwidth(baseline(), 48),
    "192gbps-links": with_inter_chip_bandwidth(baseline(), 192),
    "384gbps-links": with_inter_chip_bandwidth(baseline(), 384),
    "768gbps-links": with_inter_chip_bandwidth(baseline(), 768),
    "gddr5": with_memory_interface(baseline(), "GDDR5"),
    "hbm2": with_memory_interface(baseline(), "HBM2"),
}

#: ``(organization, org_kwargs, max_epochs)`` draws.  ``dynamic`` with no
#: floor on its remote allotment can shrink that partition to zero ways
#: while it still holds lines, and the bank declines the epochs that
#: probe it.  From the half/half start that takes eight one-way shrinks,
#: so those draws run longer kernels.
VECTOR_ORGS = [(org, {}, 3) for org in ORGANIZATIONS] + [
    ("dynamic", {"min_remote_ways": 0}, 16)]

#: Organizations whose every route plan probes one slice.
SINGLE_STAGE = ("memory-side", "sm-side", "sac")


@st.composite
def workload_specs(draw, max_epochs=3):
    wt = draw(st.floats(0.0, 1.0))
    wf = draw(st.floats(0.0, 1.0 - wt))
    wp = 1.0 - wt - wf
    true_mb = draw(st.floats(0.25, 4.0))
    false_mb = draw(st.floats(0.25, 4.0))
    private_mb = draw(st.floats(0.5, 8.0))
    phase = PhaseSpec(
        weight_true=wt, weight_false=wf, weight_private=wp,
        hot_fraction=draw(st.floats(0.05, 1.0)),
        hot_weight=draw(st.floats(0.0, 1.0)),
        write_fraction=draw(st.floats(0.0, 0.6)),
        intensity=draw(st.floats(500.0, 9000.0)),
        true_affinity=draw(st.floats(0.0, 0.95)))
    return BenchmarkSpec(
        name="fuzz", suite="test", num_ctas=16,
        footprint_mb=true_mb + false_mb + private_mb,
        true_shared_mb=true_mb, false_shared_mb=false_mb,
        preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase,
                            epochs=draw(st.integers(1, max_epochs))),),
        iterations=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2 ** 31 - 1)))


@given(workload_specs(), st.sampled_from(ORGANIZATIONS + ("ladm",)))
@settings(max_examples=60, deadline=None)
def test_accounting_invariants(spec, organization):
    stats = simulate(spec, organization, scale=SCALE,
                     accesses_per_epoch=256)
    # Time moves forward; the identities every figure relies on hold.
    assert stats.cycles > 0
    check_invariants(stats, single_stage=organization in SINGLE_STAGE)


@given(workload_specs())
@settings(max_examples=20, deadline=None)
def test_memory_side_never_caches_remote_data(spec):
    stats = simulate(spec, "memory-side", scale=SCALE,
                     accesses_per_epoch=256)
    assert stats.llc_remote_fraction == 0.0
    assert stats.responses_by_origin["remote_llc"] >= 0


@given(workload_specs())
@settings(max_examples=20, deadline=None)
def test_sm_side_never_hits_remote_llcs(spec):
    stats = simulate(spec, "sm-side", scale=SCALE, accesses_per_epoch=256)
    assert stats.responses_by_origin["remote_llc"] == 0


@given(workload_specs())
@settings(max_examples=15, deadline=None)
def test_sac_decisions_are_always_valid(spec):
    stats = simulate(spec, "sac", scale=SCALE, accesses_per_epoch=256)
    for kernel in stats.kernels:
        assert kernel.organization in ("memory-side", "sm-side")


@given(workload_specs())
@settings(max_examples=10, deadline=None)
def test_hardware_coherence_accounting(spec):
    spec = dataclasses.replace(spec, name="fuzz-hw")
    config = with_coherence(baseline(), "hardware")
    stats = simulate(spec, "sm-side", config=config, scale=SCALE,
                     accesses_per_epoch=256)
    assert stats.coherence_invalidations >= 0
    assert stats.coherence_bytes >= 0
    assert sum(stats.responses_by_origin.values()) == stats.accesses


@st.composite
def sac_knobs(draw):
    """SAC's θ, profiling window and re-profile interval.

    They replace the scaled config's SAC settings, so neither
    ``scaled_config``'s 500-cycle window floor nor its 0.08 θ floor
    applies.  An epoch's compute floor is 28-512 cycles at the harness's
    density, so most windows cut a kernel's first epoch into a profiled
    head and a tail; a short interval re-opens the window inside the
    kernel.
    """
    window = draw(st.integers(4, 256))
    return {"theta": draw(st.floats(0.0, 1.0)),
            "profile_window_cycles": window,
            "reprofile_interval_cycles": draw(st.one_of(
                st.none(), st.integers(window + 1, window + 512)))}


@st.composite
def vector_runs(draw):
    organization, org_kwargs, max_epochs = draw(st.sampled_from(VECTOR_ORGS))
    spec = draw(workload_specs(max_epochs))
    config_name = draw(st.sampled_from(sorted(VECTOR_CONFIGS)))
    sac = draw(sac_knobs()) if organization == "sac" else None
    return spec, organization, org_kwargs, config_name, sac


#: A draw that declines 8 of its 16 epochs, pinned so that every run
#: checks a decline.
DECLINING_RUN = (
    BenchmarkSpec(
        name="fuzz", suite="test", num_ctas=16, footprint_mb=5.0,
        true_shared_mb=1.0, false_shared_mb=1.0, preference="sm-side",
        kernels=(KernelSpec(name="k", epochs=8, phase=PhaseSpec(
            weight_true=0.0, weight_false=0.5, weight_private=0.5,
            hot_fraction=1.0, hot_weight=0.0, write_fraction=0.0,
            intensity=500.0)),),
        iterations=2, seed=0),
    "dynamic", {"min_remote_ways": 0}, "2-chip", None)

#: A SAC draw that profiles each of its kernel's three epochs (a 64-cycle
#: window re-opened after 65 cycles), pinned so that every run checks a
#: re-profile inside a kernel.
REPROFILING_RUN = (
    BenchmarkSpec(
        name="fuzz", suite="test", num_ctas=16, footprint_mb=5.0,
        true_shared_mb=1.0, false_shared_mb=1.0, preference="sm-side",
        kernels=(KernelSpec(name="k", epochs=3, phase=PhaseSpec(
            weight_true=0.5, weight_false=0.2, weight_private=0.3,
            hot_fraction=0.3, hot_weight=0.8, write_fraction=0.2,
            intensity=1000.0)),),
        iterations=1, seed=0),
    "sac", {}, "baseline",
    {"theta": 0.0, "profile_window_cycles": 64,
     "reprofile_interval_cycles": 65})


def generate(spec, config):
    """``spec``'s kernels as ``simulate`` generates them at ``SCALE``."""
    return TraceGenerator(
        spec, num_chips=config.num_chips,
        clusters_per_chip=config.chip.num_clusters,
        line_size=config.line_size, page_size=config.page_size,
        accesses_per_epoch_per_chip=256, scale=SCALE).kernels()


@given(vector_runs())
@example(DECLINING_RUN)
@example(REPROFILING_RUN)
@settings(max_examples=100, deadline=None)
def test_vector_path_matches_serial_oracle(run_args):
    spec, organization, org_kwargs, config_name, sac = run_args
    config = scaled_config(VECTOR_CONFIGS[config_name], SCALE)
    if sac is not None:
        config = config.with_updates(
            sac=dataclasses.replace(config.sac, **sac))

    def run(params):
        org = make_organization(organization, config, **org_kwargs)
        engine = SimulationEngine(config, org, params=params)
        return engine.run(generate(spec, config), benchmark=spec.name), org
    vector, org = run(EngineParams())
    oracle, oracle_org = run(EngineParams(vectorized=False))
    assert vector.slow_epochs == 0
    assert vector.comparable_dict() == oracle.comparable_dict()
    check_invariants(vector, single_stage=organization in SINGLE_STAGE)
    if not org_kwargs:
        assert vector.scalar_epochs == 0
    if organization == "sac":
        # A profile that diverged need not flip a decision, so compare
        # what each decision saw as well.
        assert ([d.eab_inputs for d in org.stats.decisions]
                == [d.eab_inputs for d in oracle_org.stats.decisions])
    if run_args is REPROFILING_RUN:
        # One decision per profiling window: more than one per launch.
        assert len(org.stats.decisions) > len(vector.kernels)


def _with_line_offsets(kernels, line_size, sector_size):
    """The kernels with each access moved to a deterministic sector of
    its line.  Generated addresses are line-aligned, so every access
    would touch sector 0 and no sector miss could occur."""
    sectors = line_size // sector_size
    out = []
    for kernel in kernels:
        epochs = []
        for epoch in kernel.epochs:
            i = np.arange(len(epoch), dtype=np.int64)
            offsets = ((i * 7 + (epoch.addrs >> np.int64(7))) % sectors) \
                * np.int64(sector_size) + i % np.int64(sector_size)
            epochs.append(EpochTrace(
                chips=epoch.chips,
                addrs=(epoch.addrs & ~np.int64(line_size - 1)) + offsets,
                writes=epoch.writes, compute_cycles=epoch.compute_cycles))
        out.append(KernelTrace(kernel.name, tuple(epochs)))
    return out


@pytest.mark.parametrize("organization", ["static", "dynamic", "sac"])
def test_sector_offsets_match_serial_oracle(organization):
    """Vector path == serial oracle on a sectored LLC whose accesses
    spread over every sector of their lines, so sector misses occur."""
    config = scaled_config(with_sectored_llc(baseline()), SCALE)
    llc = config.chip.llc_slice
    kernels = _with_line_offsets(list(generate(get("RN"), config)),
                                 llc.line_size,
                                 llc.line_size // llc.sectors_per_line)

    def run(params):
        engine = SimulationEngine(
            config, make_organization(organization, config), params=params)
        return engine.run(kernels, benchmark="RN+offsets")
    vector = run(EngineParams())
    oracle = run(EngineParams(vectorized=False))
    assert vector.vector_epochs > 0 and vector.scalar_epochs == 0
    assert vector.comparable_dict() == oracle.comparable_dict()
    check_invariants(vector, single_stage=organization in SINGLE_STAGE)
