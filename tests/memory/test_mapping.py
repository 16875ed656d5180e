"""Unit tests for the PAE-style randomized address mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import AddressMapping


def make_mapping(**kwargs):
    defaults = dict(line_size=128, slices_per_chip=16, channels_per_chip=8)
    defaults.update(kwargs)
    return AddressMapping(**defaults)


class TestDeterminism:
    def test_same_address_same_slice(self):
        mapping = make_mapping()
        assert mapping.llc_slice_of(0x12345) == mapping.llc_slice_of(0x12345)

    def test_same_line_same_slice(self):
        mapping = make_mapping()
        base = 0x4000
        assert mapping.llc_slice_of(base) == mapping.llc_slice_of(base + 127)

    def test_different_seeds_differ(self):
        a = make_mapping(seed=1)
        b = make_mapping(seed=2)
        lines = [i * 128 for i in range(256)]
        assert any(a.llc_slice_of(l) != b.llc_slice_of(l) for l in lines)


class TestUniformity:
    def test_slices_are_roughly_uniform(self):
        mapping = make_mapping()
        counts = [0] * 16
        n = 16_000
        for i in range(n):
            counts[mapping.llc_slice_of(i * 128)] += 1
        expected = n / 16
        for count in counts:
            assert abs(count - expected) < expected * 0.2

    def test_channels_are_roughly_uniform(self):
        mapping = make_mapping()
        counts = [0] * 8
        n = 8_000
        for i in range(n):
            counts[mapping.channel_of(i * 128)] += 1
        expected = n / 8
        for count in counts:
            assert abs(count - expected) < expected * 0.2

    def test_consecutive_lines_spread(self):
        """PAE's key property: a sequential sweep doesn't camp on a slice."""
        mapping = make_mapping()
        slices = {mapping.llc_slice_of(i * 128) for i in range(64)}
        assert len(slices) >= 12


@given(addrs=st.lists(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**62),
                      min_size=1, max_size=64),
       slices=st.integers(1, 32), channels=st.integers(1, 16),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_array_hashes_match_scalar(addrs, slices, channels, seed):
    """``llc_slices_of``/``channels_of`` over an int64 array equal
    ``llc_slice_of``/``channel_of`` per address, below and above 2**32."""
    mapping = make_mapping(slices_per_chip=slices,
                           channels_per_chip=channels, seed=seed)
    arr = np.array(addrs, dtype=np.int64)
    slices_of = mapping.llc_slices_of(arr)
    channels_of = mapping.channels_of(arr)
    assert slices_of.dtype == channels_of.dtype == np.int64
    assert slices_of.tolist() == [mapping.llc_slice_of(a) for a in addrs]
    assert channels_of.tolist() == [mapping.channel_of(a) for a in addrs]


class TestGlobalSlice:
    def test_global_slice_composes_chip_and_slice(self):
        mapping = make_mapping()
        addr = 0x8000
        local = mapping.llc_slice_of(addr)
        assert mapping.global_slice_of(addr, home_chip=0) == local
        assert mapping.global_slice_of(addr, home_chip=3) == 48 + local


class TestValidation:
    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            make_mapping(line_size=100)

    def test_rejects_zero_slices(self):
        with pytest.raises(ValueError):
            make_mapping(slices_per_chip=0)
