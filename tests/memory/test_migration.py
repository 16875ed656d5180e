"""Unit tests for the page-migration baseline."""

import pytest

from repro.memory import PageTable
from repro.memory.migration import DominantAccessorMigration


def make_policy(**kwargs):
    defaults = dict(page_size=4096, num_chips=4, min_accesses=8,
                    min_share=0.6, cooldown_epochs=2)
    defaults.update(kwargs)
    return DominantAccessorMigration(**defaults)


def make_table():
    table = PageTable(page_size=4096, num_chips=4)
    table.home_chip(0, requesting_chip=0)  # page 0 homed at chip 0
    return table


class TestPageTableMigrate:
    def test_migrate_moves_home(self):
        table = make_table()
        assert table.migrate(0, 2) == 0
        assert table.lookup(0) == 2

    def test_migrate_unallocated_raises(self):
        with pytest.raises(KeyError):
            make_table().migrate(99, 1)

    def test_migrate_bad_chip_raises(self):
        with pytest.raises(ValueError):
            make_table().migrate(0, 9)


class TestDominantAccessorMigration:
    def test_dominant_remote_accessor_triggers_migration(self):
        policy = make_policy()
        table = make_table()
        for _ in range(10):
            policy.observe(0, chip=3)
        moves = policy.end_epoch(table)
        assert moves == [(0, 0, 3)]
        assert table.lookup(0) == 3

    def test_below_threshold_does_not_migrate(self):
        policy = make_policy(min_accesses=100)
        table = make_table()
        for _ in range(10):
            policy.observe(0, chip=3)
        assert policy.end_epoch(table) == []

    def test_balanced_sharing_does_not_migrate(self):
        """Truly shared pages have no dominant accessor."""
        policy = make_policy()
        table = make_table()
        for chip in range(4):
            for _ in range(10):
                policy.observe(0, chip=chip)
        assert policy.end_epoch(table) == []
        assert table.lookup(0) == 0

    def test_local_dominance_is_a_noop(self):
        policy = make_policy()
        table = make_table()
        for _ in range(20):
            policy.observe(0, chip=0)  # the home chip itself
        assert policy.end_epoch(table) == []

    def test_cooldown_prevents_ping_pong(self):
        policy = make_policy(cooldown_epochs=2)
        table = make_table()
        for _ in range(10):
            policy.observe(0, chip=3)
        assert policy.end_epoch(table)  # migrated 0 -> 3
        for _ in range(10):
            policy.observe(0, chip=1)
        assert policy.end_epoch(table) == []  # cooling down
        assert table.lookup(0) == 3

    def test_counters_reset_each_epoch(self):
        policy = make_policy(min_accesses=10)
        table = make_table()
        for _ in range(6):
            policy.observe(0, chip=3)
        policy.end_epoch(table)
        for _ in range(6):
            policy.observe(0, chip=3)
        # 6 + 6 across epochs never reaches the per-epoch threshold.
        assert policy.end_epoch(table) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            make_policy(min_accesses=0)
        with pytest.raises(ValueError):
            make_policy(min_share=0.3)
        with pytest.raises(ValueError):
            make_policy(cooldown_epochs=-1)


class TestEngineIntegration:
    def test_migration_reduces_remote_traffic_for_misplaced_pages(self):
        """First touch misplaces pages that chip 0 touches once and chip
        1 then dominates; migration repatriates them and cuts
        inter-chip traffic."""
        import numpy as np
        from repro.arch import baseline
        from repro.sim import EngineParams, SimulationEngine, \
            make_organization
        from repro.workloads.generator import EpochTrace, KernelTrace

        pages, page_size, line_size = 16, 4096, 128
        starts = np.arange(pages, dtype=np.int64) * page_size
        lines = (starts[:, None] + np.arange(
            page_size // line_size, dtype=np.int64) * line_size).ravel()
        touch = EpochTrace(chips=np.zeros(pages, dtype=np.int64),
                           addrs=starts, writes=np.zeros(pages, dtype=bool),
                           compute_cycles=100.0)
        reuse = np.tile(lines, 2)
        dominate = EpochTrace(chips=np.ones(reuse.size, dtype=np.int64),
                              addrs=reuse,
                              writes=np.zeros(reuse.size, dtype=bool),
                              compute_cycles=1000.0)
        trace = [KernelTrace("k", (touch,) + (dominate,) * 4)]
        config = baseline()

        def run(params):
            engine = SimulationEngine(
                config, make_organization("memory-side", config),
                params=params)
            return engine.run(trace, benchmark="misplaced")
        plain = run(EngineParams())
        migrated = run(EngineParams(page_migration=True))
        assert migrated.inter_chip_bytes < plain.inter_chip_bytes
        assert migrated.cycles <= plain.cycles * 1.02
