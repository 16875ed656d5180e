"""Property-based tests for the inter-chip ring."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import InterChipConfig
from repro.noc import InterChipRing

chip_counts = st.integers(min_value=2, max_value=8)


@given(chip_counts, st.data())
@settings(max_examples=200, deadline=None)
def test_hops_is_a_metric(num_chips, data):
    ring = InterChipRing(InterChipConfig(), num_chips)
    a = data.draw(st.integers(0, num_chips - 1))
    b = data.draw(st.integers(0, num_chips - 1))
    assert ring.hops(a, b) == ring.hops(b, a)          # symmetry
    assert (ring.hops(a, b) == 0) == (a == b)          # identity
    assert ring.hops(a, b) <= num_chips // 2           # ring diameter


@given(chip_counts, st.data())
@settings(max_examples=200, deadline=None)
def test_path_length_matches_hops(num_chips, data):
    ring = InterChipRing(InterChipConfig(), num_chips)
    a = data.draw(st.integers(0, num_chips - 1))
    b = data.draw(st.integers(0, num_chips - 1))
    path = ring.path(a, b)
    assert len(path) == ring.hops(a, b)
    # The path is connected and ends at the destination.
    node = a
    for src, dst in path:
        assert src == node
        node = dst
    assert node == b


@given(chip_counts,
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                          st.integers(1, 10_000)), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_charge_conservation(num_chips, messages):
    ring = InterChipRing(InterChipConfig(), num_chips)
    expected_hop_bytes = 0
    for src, dst, num_bytes in messages:
        src %= num_chips
        dst %= num_chips
        ring.charge(src, dst, num_bytes)
        expected_hop_bytes += ring.hops(src, dst) * num_bytes
    assert sum(ring.segment_loads().values()) == expected_hop_bytes
    assert ring.epoch_cycles() >= 0.0


@given(chip_counts, st.integers(0, 7), st.integers(0, 7),
       st.lists(st.integers(1, 10_000), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_route_total_charges_like_its_messages(num_chips, src, dst, sizes):
    """One charge of a route's total == one charge per message on it:
    the engine's vector path charges each route's epoch total."""
    src %= num_chips
    dst %= num_chips
    bulk = InterChipRing(InterChipConfig(), num_chips)
    ref = InterChipRing(InterChipConfig(), num_chips)
    for num_bytes in sizes:
        ref.charge(src, dst, num_bytes)
    bulk.charge(src, dst, sum(sizes))
    assert bulk.segment_loads() == ref.segment_loads()
    assert bulk.epoch_cycles() == ref.epoch_cycles()


@given(chip_counts, st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=100, deadline=None)
def test_more_traffic_never_reduces_epoch_time(num_chips, src, dst):
    src %= num_chips
    dst %= num_chips
    ring = InterChipRing(InterChipConfig(), num_chips)
    ring.charge(src, dst, 1000)
    before = ring.epoch_cycles()
    ring.charge(src, dst, 1000)
    assert ring.epoch_cycles() >= before
