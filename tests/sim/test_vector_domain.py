"""Facts about the vector path's domain that its staged solver relies on.

``VectorBank.access_many_staged`` checks only each call's L1.5 partition
shape and never searches other partitions for a probed tag: on the L1.5
plan table without page migration a line's partition in a cache is a
function of its address, so no probe can find it elsewhere.  These
tests pin the facts that make that so, the engine's handling of a table
outside the domain, and the solver's two kernel calls per epoch.
"""

import pytest

from repro.arch import baseline, with_chip_count
from repro.cache import vector as vector_module
from repro.cache.vector import VectorBank
from repro.llc.base import PARTITION_LOCAL, PARTITION_REMOTE, RoutePlan
from repro.llc.organizations import StaticLLC
from repro.sim import EngineParams, simulate
from repro.sim.engine import SimulationEngine, takes_vector_path
from repro.sim.run import (
    EXTRA_ORGANIZATIONS,
    ORGANIZATIONS,
    make_organization,
    scaled_config,
)
from repro.sim.stats import check_invariants
from repro.workloads.suite import get

SCALE = 1.0 / 64


def engine_for(organization, num_chips, **org_kwargs):
    config = scaled_config(with_chip_count(baseline(), num_chips), SCALE)
    org = make_organization(organization, config, **org_kwargs)
    return SimulationEngine(config, org)


@pytest.mark.parametrize("num_chips", [2, 4])
@pytest.mark.parametrize("organization,org_kwargs", [
    ("static", {}),
    ("static", {"remote_way_fraction": 0.0}),
    ("dynamic", {}),
    ("dynamic", {"min_remote_ways": 0}),
    ("dynamic", {"min_local_ways": 0, "min_remote_ways": 3}),
])
def test_partitioned_organizations_use_the_l15_table(organization,
                                                     org_kwargs, num_chips):
    engine = engine_for(organization, num_chips, **org_kwargs)
    org = engine.organization
    for chip in range(num_chips):
        for home in range(num_chips):
            plan = org.plan(chip, home)
            assert plan == StaticLLC._build(chip, home)
            if chip == home:
                assert [(s.chip, s.partition) for s in plan.stages] == \
                    [(chip, PARTITION_LOCAL)]
            else:
                assert [(s.chip, s.partition) for s in plan.stages] == \
                    [(chip, PARTITION_REMOTE), (home, PARTITION_LOCAL)]
    table = engine._plan_table_now()
    assert table.l15 and not table.grouped


@pytest.mark.parametrize("num_chips", [2, 4])
@pytest.mark.parametrize("organization,mode", [
    ("memory-side", None), ("sm-side", None),
    ("sac", "memory-side"), ("sac", "sm-side")])
def test_single_stage_organizations_use_grouped_tables(organization, mode,
                                                       num_chips):
    engine = engine_for(organization, num_chips)
    org = engine.organization
    if mode == "sm-side":
        org._active = org._sm_side
    if mode is not None:
        assert org.mode == mode
    table = engine._plan_table_now()
    assert table.grouped and not table.l15
    assert not table.two.any() and not table.part0.any()


@pytest.mark.parametrize("organization", ORGANIZATIONS + EXTRA_ORGANIZATIONS)
def test_page_migration_leaves_the_vector_path(organization):
    config = baseline()
    org = make_organization(organization, config)
    assert not takes_vector_path(config, EngineParams(page_migration=True),
                                 org)


class HomeFirstLLC(StaticLLC):
    """Two-stage, but not L1.5: remote requests probe the home's local
    partition before the requester's remote one."""

    name = "home-first"

    def plan(self, chip, home):
        plan = super().plan(chip, home)
        return RoutePlan(stages=tuple(reversed(plan.stages)))


def test_two_stage_table_outside_l15_runs_serially():
    """Epochs under another two-stage table take the serial engine and
    still equal the oracle."""
    spec = get("RN")

    def run(params):
        return simulate(spec, HomeFirstLLC(4), scale=SCALE,
                        accesses_per_epoch=256, params=params)
    vector = run(EngineParams())
    oracle = run(EngineParams(vectorized=False))
    assert vector.vector_epochs == 0 and vector.scalar_epochs > 0
    assert oracle.slow_epochs == vector.scalar_epochs
    assert vector.comparable_dict() == oracle.comparable_dict()
    check_invariants(vector)


@pytest.mark.parametrize("organization", ORGANIZATIONS)
def test_fractional_latencies_round_as_on_the_serial_path(organization):
    """Per-access latencies are summed in the serial order, so latencies
    that are not whole numbers give the oracle's cycles exactly (the
    small MLP limit makes the latency bound bind)."""
    spec = get("RN")
    fractional = dict(latency_noc=40.3, latency_llc=37.7,
                      latency_ring_hop=121.1, latency_dram=199.9,
                      max_outstanding_per_chip=16)

    def run(**extra):
        return simulate(spec, organization, scale=SCALE,
                        accesses_per_epoch=256,
                        params=EngineParams(**fractional, **extra))
    vector = run()
    oracle = run(vectorized=False)
    assert vector.vector_epochs > 0 and vector.scalar_epochs == 0
    assert vector.bottleneck_cycles.get("latency", 0.0) > 0
    assert vector.comparable_dict() == oracle.comparable_dict()


def test_staged_epochs_make_two_kernel_calls(monkeypatch):
    """A staged epoch is at most two kernel calls however its rows
    drain: drains are kernel steps, not passes.  DWT under ``dynamic``
    drains in both directions (growth drain steps land on LOCAL rows,
    mirrored ones on REMOTE rows), and the run still equals the
    oracle."""
    calls = []
    drains = {"growth": 0, "mirrored": 0}
    resolve = vector_module._batch_resolve
    staged = VectorBank.access_many_staged

    def counting_resolve(tags, dirty, count, geo, rows, tg, wr, **kw):
        if calls:
            calls[-1] += 1
        # Two slots: LOCAL rows come first, then REMOTE ones.
        local = rows[tg < -1] < tags.shape[0] // 2
        drains["growth"] += int(local.sum())
        drains["mirrored"] += int((~local).sum())
        return resolve(tags, dirty, count, geo, rows, tg, wr, **kw)

    def counting_staged(self, *args, **kwargs):
        calls.append(0)
        return staged(self, *args, **kwargs)

    monkeypatch.setattr(vector_module, "_batch_resolve", counting_resolve)
    monkeypatch.setattr(VectorBank, "access_many_staged", counting_staged)
    spec = get("DWT")
    stats = simulate(spec, "dynamic", scale=SCALE, accesses_per_epoch=512)
    assert drains["growth"] > 0 and drains["mirrored"] > 0
    assert len(calls) == stats.vector_epochs > 0
    assert max(calls) <= 2
    monkeypatch.undo()
    oracle = simulate(spec, "dynamic", scale=SCALE, accesses_per_epoch=512,
                      params=EngineParams(vectorized=False))
    assert stats.comparable_dict() == oracle.comparable_dict()
