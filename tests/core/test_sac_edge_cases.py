"""Edge-case tests for the SAC controller and base organization hooks."""

import pytest

from repro.arch import baseline
from repro.core import SharingAwareCaching
from repro.core.crd import modular_set_index
from repro.llc import WHOLE_LLC, MemorySideLLC
from repro.llc.base import LLCOrganization, LookupStage, RoutePlan
from repro.sim.run import scaled_config


class TestSACErrorPaths:
    def test_eab_inputs_without_profiling_raises(self):
        sac = SharingAwareCaching(scaled_config(baseline(), 1.0 / 16))
        with pytest.raises(RuntimeError, match="no profiling data"):
            sac.eab_inputs()

    def test_fresh_sac_is_memory_side(self):
        sac = SharingAwareCaching(scaled_config(baseline(), 1.0 / 16))
        assert sac.mode == "memory-side"
        assert not sac.profiling
        assert sac.remote_scope is None

    def test_sm_side_mode_declares_the_whole_llc(self):
        sac = SharingAwareCaching(scaled_config(baseline(), 1.0 / 16))
        sac._active = sac._sm_side
        assert sac.remote_scope == WHOLE_LLC

    def test_plan_delegates_to_active_mode(self):
        sac = SharingAwareCaching(scaled_config(baseline(), 1.0 / 16))
        # Memory-side: remote requests go to the home chip.
        assert sac.plan(0, 3).stages[0].chip == 3

    def test_sac_shares_the_single_noc(self):
        sac = SharingAwareCaching(scaled_config(baseline(), 1.0 / 16))
        assert sac.dedicated_memory_network is False


class TestModularSetIndex:
    def test_default_index_function(self):
        index = modular_set_index(num_sets=8, line_size=128)
        assert index(0) == 0
        assert index(128) == 1
        assert index(8 * 128) == 0
        assert index(9 * 128 + 5) == 1


class TestBaseOrganizationHooks:
    class Minimal(LLCOrganization):
        name = "minimal"

        @property
        def mode(self):
            return "memory-side"

        def plan(self, chip, home):
            return RoutePlan(stages=(LookupStage(chip=home),))

    def test_default_hooks_are_noops(self):
        org = self.Minimal()
        org.attach(None)
        org.begin_kernel(None, "k")
        org.end_epoch(None, 0)
        org.end_kernel(None)
        org.profile_boundary(None)
        org.observe_access(None, 0, 0, 0, None)
        org.observe_batch(None, None, None, None, None, None)
        assert org.remote_allocate(0, 0) is True
        assert org.profiling is False
        assert org.remote_scope is None
        assert org.dedicated_memory_network is False

    def test_memory_side_plan_table_is_complete(self):
        org = MemorySideLLC(4)
        for chip in range(4):
            for home in range(4):
                plan = org.plan(chip, home)
                assert plan.stages[0].chip == home
