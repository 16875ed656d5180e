"""Unit tests for the DRAM partition bandwidth model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import MemoryConfig
from repro.memory import DramPartition, DramSystem


def make_partition():
    return DramPartition(MemoryConfig(channels_per_chip=4,
                                      channel_bw_bytes_per_cycle=100.0),
                         chip=0)


class TestCharging:
    def test_epoch_cycles_follow_bottleneck_channel(self):
        partition = make_partition()
        partition.charge(0, 1000)
        partition.charge(1, 400)
        assert partition.epoch_cycles() == pytest.approx(10.0)

    def test_uniform_load_uses_all_channels(self):
        partition = make_partition()
        for channel in range(4):
            partition.charge(channel, 500)
        assert partition.epoch_cycles() == pytest.approx(5.0)

    def test_end_epoch_resets_charges_not_stats(self):
        partition = make_partition()
        partition.charge(0, 100)
        partition.end_epoch()
        assert partition.epoch_cycles() == 0.0

    def test_rejects_bad_channel(self):
        partition = make_partition()
        with pytest.raises(IndexError):
            partition.charge(4, 10)

    def test_rejects_negative_bytes(self):
        partition = make_partition()
        with pytest.raises(ValueError):
            partition.charge(0, -1)


class TestSystem:
    def test_system_indexes_partitions_by_chip(self):
        system = DramSystem(MemoryConfig(), num_chips=4)
        system[2].charge(0, 128)
        assert [p.chip for p in system] == [0, 1, 2, 3]
        assert system[2].epoch_bytes() == 128
        assert system[0].epoch_bytes() == 0

    def test_system_end_epoch_touches_all_partitions(self):
        system = DramSystem(MemoryConfig(), num_chips=2)
        system[0].charge(0, 128)
        system[1].charge(0, 128)
        system.end_epoch()
        assert all(p.epoch_cycles() == 0.0 for p in system)


class TestEpochBytes:
    def test_epoch_bytes_sums_channels(self):
        partition = make_partition()
        partition.charge(0, 100)
        partition.charge(1, 50)
        assert partition.epoch_bytes() == 150.0
        partition.end_epoch()
        assert partition.epoch_bytes() == 0.0


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4096)),
                max_size=80))
@settings(max_examples=100, deadline=None)
def test_charge_channels_matches_per_request_charges(requests):
    """One ``charge_channels`` call == one ``charge`` per request."""
    bulk, ref = make_partition(), make_partition()
    channel_bytes = [0] * 4
    for channel, num_bytes in requests:
        ref.charge(channel, num_bytes)
        channel_bytes[channel] += num_bytes
    bulk.charge_channels(np.array(channel_bytes, dtype=np.int64))
    assert bulk._epoch_channel_bytes == ref._epoch_channel_bytes
    assert bulk.epoch_bytes() == ref.epoch_bytes()
    assert bulk.epoch_cycles() == ref.epoch_cycles()


def test_charge_channels_rejects_bad_shapes_and_negatives():
    partition = make_partition()
    with pytest.raises(IndexError):
        partition.charge_channels([0] * 3)
    with pytest.raises(ValueError):
        partition.charge_channels([0, -1, 0, 0])
