"""Unit tests for the inter-chip ring network."""

import pytest

from repro.arch import InterChipConfig
from repro.noc import InterChipRing


def make_ring(num_chips=4):
    return InterChipRing(InterChipConfig(), num_chips)


class TestTopology:
    def test_adjacent_hops(self):
        ring = make_ring()
        assert ring.hops(0, 1) == 1
        assert ring.hops(1, 0) == 1

    def test_opposite_corner_hops(self):
        ring = make_ring()
        assert ring.hops(0, 2) == 2
        assert ring.hops(1, 3) == 2

    def test_self_distance_zero(self):
        assert make_ring().hops(2, 2) == 0

    def test_path_traverses_intermediate_segments(self):
        ring = make_ring()
        assert ring.path(0, 2) in ([(0, 1), (1, 2)], [(0, 3), (3, 2)])
        assert ring.path(3, 0) == [(3, 0)]

    def test_path_takes_shorter_direction(self):
        ring = InterChipRing(InterChipConfig(), 6)
        assert ring.path(0, 5) == [(0, 5)]
        assert len(ring.path(0, 3)) == 3


class TestCharging:
    def test_multi_hop_charges_every_segment(self):
        ring = make_ring()
        ring.charge(0, 2, 96)
        loads = ring.segment_loads()
        assert sum(loads.values()) == pytest.approx(192)

    def test_self_messages_are_free(self):
        ring = make_ring()
        ring.charge(1, 1, 1000)
        assert ring.epoch_cycles() == 0.0
        assert ring.segment_loads() == {}

    def test_epoch_cycles_follow_hottest_segment(self):
        ring = make_ring()
        pair_bw = ring.config.pair_bw(4)  # 96 B/cyc
        ring.charge(0, 1, pair_bw * 5)
        ring.charge(2, 3, pair_bw * 2)
        assert ring.epoch_cycles() == pytest.approx(5.0)

    def test_opposite_directions_do_not_share_bandwidth(self):
        ring = make_ring()
        pair_bw = ring.config.pair_bw(4)
        ring.charge(0, 1, pair_bw * 3)
        ring.charge(1, 0, pair_bw * 3)
        # Bidirectional links: each direction drains independently.
        assert ring.epoch_cycles() == pytest.approx(3.0)

    def test_end_epoch_clears_loads(self):
        ring = make_ring()
        ring.charge(0, 1, 100)
        ring.end_epoch()
        assert ring.epoch_cycles() == 0.0


class TestValidation:
    def test_single_chip_ring_is_trivial(self):
        ring = make_ring(num_chips=1)
        assert ring.hops(0, 0) == 0

    def test_rejects_zero_chips(self):
        with pytest.raises(ValueError):
            make_ring(num_chips=0)
