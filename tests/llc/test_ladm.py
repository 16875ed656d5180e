"""Unit and integration tests for the LADM-style LLC baseline."""

import pytest

from repro.llc import WHOLE_LLC
from repro.llc.ladm import LADMLLC, TouchFilter
from repro.sim import make_organization, simulate
from repro.arch import baseline
from repro.workloads import BenchmarkSpec, KernelSpec, PhaseSpec, get


class TestTouchFilter:
    def test_first_touch_is_new(self):
        filt = TouchFilter(capacity=4)
        assert filt.touch(1) is False
        assert filt.touch(1) is True

    def test_lru_eviction_forgets_old_lines(self):
        filt = TouchFilter(capacity=2)
        filt.touch(1)
        filt.touch(2)
        filt.touch(3)  # evicts 1
        assert filt.touch(1) is False

    def test_touch_refreshes_recency(self):
        filt = TouchFilter(capacity=2)
        filt.touch(1)
        filt.touch(2)
        filt.touch(1)  # refresh 1 -> 2 is now LRU
        filt.touch(3)  # evicts 2
        assert filt.touch(1) is True
        assert filt.touch(2) is False

    def test_clear(self):
        filt = TouchFilter()
        filt.touch(1)
        filt.clear()
        assert filt.touch(1) is False

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TouchFilter(capacity=0)


class TestLADMOrganization:
    def test_factory_builds_it(self):
        org = make_organization("ladm", baseline())
        assert isinstance(org, LADMLLC)
        assert org.name == "ladm"

    def test_remote_allocate_needs_second_touch(self):
        org = LADMLLC(4)
        assert org.remote_allocate(0, 0x1000) is False
        assert org.remote_allocate(0, 0x1000) is True
        # Filters are per chip.
        assert org.remote_allocate(1, 0x1000) is False

    def test_routing_matches_dynamic_shape(self):
        org = LADMLLC(4)
        assert len(org.plan(0, 2).stages) == 2
        assert len(org.plan(1, 1).stages) == 1

    def test_mode_is_memory_side_with_remote_caching(self):
        org = LADMLLC(4)
        assert org.mode == "memory-side"
        assert org.remote_scope == WHOLE_LLC


def tiny_spec(weight_false=0.6):
    phase = PhaseSpec(weight_true=0.2, weight_false=weight_false,
                      weight_private=0.8 - weight_false,
                      hot_fraction=0.15, hot_weight=0.85, intensity=2800.0)
    return BenchmarkSpec(
        name="ladm-tiny", suite="test", num_ctas=16, footprint_mb=16,
        true_shared_mb=3, false_shared_mb=8, preference="sm-side",
        kernels=(KernelSpec(name="k", phase=phase, epochs=4),),
        iterations=2, seed=47)


class TestLADMEngine:
    def test_runs_end_to_end(self):
        stats = simulate(tiny_spec(), "ladm", scale=1.0 / 32,
                         accesses_per_epoch=512)
        assert stats.cycles > 0
        assert stats.organization == "ladm"

    def test_sits_between_memory_side_and_sm_side_on_sp_work(self):
        spec = get("CFD")
        mem = simulate(spec, "memory-side", accesses_per_epoch=2048)
        sm = simulate(spec, "sm-side", accesses_per_epoch=2048)
        ladm = simulate(spec, "ladm", accesses_per_epoch=2048)
        assert sm.cycles < mem.cycles
        assert sm.cycles * 0.95 <= ladm.cycles <= mem.cycles * 1.05

    def test_filters_reset_at_kernel_boundaries(self):
        org = LADMLLC(4)
        org.remote_allocate(0, 0x1000)
        org.begin_kernel(None, "k")
        assert org.remote_allocate(0, 0x1000) is False
