"""FaultPlan parsing and deterministic firing semantics."""

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultEntry, FaultPlan


@pytest.fixture(autouse=True)
def disarm():
    faults.reset()
    yield
    faults.reset()


class TestParsing:
    def test_site_only(self):
        entry = FaultEntry.parse("cache.torn_payload")
        assert entry == FaultEntry(site="cache.torn_payload", key=None,
                                   nth=1, count=1, value=None)

    def test_full_grammar(self):
        entry = FaultEntry.parse("worker.hang:tiny:sac@3*2=0.5")
        assert entry.site == "worker.hang"
        # The key keeps everything after the first colon.
        assert entry.key == "tiny:sac"
        assert entry.nth == 3
        assert entry.count == 2
        assert entry.value == 0.5

    def test_bare_star_means_unbounded(self):
        assert FaultEntry.parse("cache.torn_payload:k2@2*").count is None

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultEntry.parse("warp.drive")

    def test_malformed_nth_rejected(self):
        with pytest.raises(ValueError, match="malformed fault entry"):
            FaultEntry.parse("cache.torn_payload@soon")

    def test_plan_splits_on_commas(self):
        plan = FaultPlan.parse("worker.crash, cache.torn_payload:k1@2,")
        assert [e.site for e in plan.entries] == [
            "worker.crash", "cache.torn_payload"]


class TestFiring:
    def test_fires_on_nth_hit_only(self):
        plan = FaultPlan.parse("cache.torn_payload@2")
        assert plan.fire("cache.torn_payload") is None
        assert plan.fire("cache.torn_payload") == 1.0
        assert plan.fire("cache.torn_payload") is None
        assert plan.fired == [("cache.torn_payload", None, 0)]

    def test_key_restricts_matches(self):
        plan = FaultPlan.parse("cache.torn_payload:k1")
        assert plan.fire("cache.torn_payload", key="k2") is None
        assert plan.fire("cache.torn_payload", key="k1") == 1.0

    def test_unbounded_count_keeps_firing(self):
        plan = FaultPlan.parse("cache.torn_payload@2*")
        hits = [plan.fire("cache.torn_payload") for _ in range(5)]
        assert hits == [None, 1.0, 1.0, 1.0, 1.0]

    def test_value_and_site_default(self):
        assert FaultPlan.parse("worker.hang").fire("worker.hang") == 30.0
        assert FaultPlan.parse("worker.hang=0.2").fire("worker.hang") == 0.2

    def test_unarmed_site_never_fires(self):
        plan = FaultPlan.parse("cache.torn_payload")
        assert plan.fire("worker.crash") is None

    def test_marker_coordination_fires_once_across_plans(self, tmp_path):
        # Two plans sharing a state dir model a parent and a respawned
        # worker: only one of them observes the crash firing.
        a = FaultPlan.parse("worker.crash", state_dir=tmp_path)
        b = FaultPlan.parse("worker.crash", state_dir=tmp_path)
        assert a.fire("worker.crash") == 1.0
        assert b.fire("worker.crash") is None

    def test_unmarked_site_refires_in_each_plan(self, tmp_path):
        a = FaultPlan.parse("cache.torn_payload*", state_dir=tmp_path)
        b = FaultPlan.parse("cache.torn_payload*", state_dir=tmp_path)
        assert a.fire("cache.torn_payload") == 1.0
        assert b.fire("cache.torn_payload") == 1.0


class TestProcessGlobal:
    def test_unarmed_by_default(self):
        assert faults.active() is None
        assert faults.fire("cache.torn_payload") is None

    def test_armed_context_manager(self):
        with faults.armed("cache.torn_payload:k1") as plan:
            assert faults.fire("cache.torn_payload", key="k1") == 1.0
            assert plan.fired
        assert faults.active() is None

    def test_environment_arming(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache.torn_payload:k1")
        assert faults.fire("cache.torn_payload", key="k1") == 1.0
        # The parsed plan is cached: the hit counter persists.
        assert faults.fire("cache.torn_payload", key="k1") is None

    def test_programmatic_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache.torn_payload*")
        with faults.armed("worker.crash"):
            assert faults.fire("cache.torn_payload") is None
