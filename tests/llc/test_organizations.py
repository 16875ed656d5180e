"""Unit tests for the LLC organizations' routing plans."""

import pytest

from repro.llc import (
    PARTITION_LOCAL,
    PARTITION_REMOTE,
    WHOLE_LLC,
    DynamicLLC,
    LookupStage,
    MemorySideLLC,
    RoutePlan,
    SMSideLLC,
    StaticLLC,
)


class TestMemorySide:
    def test_routes_to_home_chip(self):
        org = MemorySideLLC(4)
        plan = org.plan(chip=0, home=3)
        assert plan.stages == (LookupStage(chip=3), )

    def test_local_request_stays_local(self):
        org = MemorySideLLC(4)
        assert org.plan(2, 2).stages[0].chip == 2

    def test_mode_and_flush(self):
        org = MemorySideLLC(4)
        assert org.mode == "memory-side"
        assert org.remote_scope is None


class TestSMSide:
    def test_always_routes_to_requester(self):
        org = SMSideLLC(4)
        for home in range(4):
            assert org.plan(1, home).stages[0].chip == 1

    def test_mode_and_flush(self):
        org = SMSideLLC(4)
        assert org.mode == "sm-side"
        assert org.remote_scope == WHOLE_LLC

    def test_has_dedicated_memory_network(self):
        assert SMSideLLC(4).dedicated_memory_network


class TestStatic:
    def test_local_request_single_stage(self):
        org = StaticLLC(4)
        plan = org.plan(1, 1)
        assert len(plan.stages) == 1
        assert plan.stages[0] == LookupStage(chip=1,
                                             partition=PARTITION_LOCAL)

    def test_remote_request_probes_l15_then_home(self):
        org = StaticLLC(4)
        plan = org.plan(1, 3)
        assert plan.stages[0] == LookupStage(chip=1,
                                             partition=PARTITION_REMOTE)
        assert plan.stages[1] == LookupStage(chip=3,
                                             partition=PARTITION_LOCAL)

    def test_flushes_remote_partition(self):
        assert StaticLLC(4).remote_scope == PARTITION_REMOTE

    def test_zero_remote_fraction_is_memory_side_like(self):
        org = StaticLLC(4, remote_way_fraction=0.0)
        assert org.remote_scope is None

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            StaticLLC(4, remote_way_fraction=1.5)


class TestDynamic:
    def test_starts_half_remote(self, monkeypatch):
        org = DynamicLLC(4)

        class FakeCtx:
            class config:
                class chip:
                    class llc_slice:
                        associativity = 16
            stats = None

            def set_llc_partitioning(self, ways):
                self.ways = ways

        ctx = FakeCtx()
        # Declared whatever the allotment, zero ways included.
        assert org.remote_scope == PARTITION_REMOTE
        org.attach(ctx)
        assert ctx.ways == {PARTITION_LOCAL: 8, PARTITION_REMOTE: 8}
        assert org.remote_ways == 8
        assert org.remote_scope == PARTITION_REMOTE

    def test_routing_matches_static_shape(self):
        org = DynamicLLC(4)
        plan = org.plan(0, 2)
        assert len(plan.stages) == 2

    def test_rejects_negative_floors(self):
        with pytest.raises(ValueError):
            DynamicLLC(4, min_local_ways=-1)


class TestRoutePlan:
    def test_rejects_empty_plans(self):
        with pytest.raises(ValueError):
            RoutePlan(stages=())

    def test_rejects_three_stages(self):
        stages = tuple(LookupStage(chip=i) for i in range(3))
        with pytest.raises(ValueError):
            RoutePlan(stages=stages)
