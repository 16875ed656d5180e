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
        partition.charge(0, 1000, is_write=False)
        partition.charge(1, 400, is_write=False)
        assert partition.epoch_cycles() == pytest.approx(10.0)

    def test_uniform_load_uses_all_channels(self):
        partition = make_partition()
        for channel in range(4):
            partition.charge(channel, 500, is_write=False)
        assert partition.epoch_cycles() == pytest.approx(5.0)

    def test_end_epoch_resets_charges_not_stats(self):
        partition = make_partition()
        partition.charge(0, 100, is_write=True)
        partition.end_epoch()
        assert partition.epoch_cycles() == 0.0
        assert partition.stats.write_bytes == 100

    def test_stats_split_reads_and_writes(self):
        partition = make_partition()
        partition.charge(0, 64, is_write=False)
        partition.charge(0, 32, is_write=True)
        assert partition.stats.read_bytes == 64
        assert partition.stats.write_bytes == 32
        assert partition.stats.total_bytes == 96

    def test_rejects_bad_channel(self):
        partition = make_partition()
        with pytest.raises(IndexError):
            partition.charge(4, 10, is_write=False)

    def test_rejects_negative_bytes(self):
        partition = make_partition()
        with pytest.raises(ValueError):
            partition.charge(0, -1, is_write=False)


class TestSystem:
    def test_system_indexes_partitions_by_chip(self):
        system = DramSystem(MemoryConfig(), num_chips=4)
        system[2].charge(0, 128, is_write=False)
        assert system.total_bytes() == 128
        assert system.bytes_by_chip()[2] == 128
        assert system.bytes_by_chip()[0] == 0

    def test_system_end_epoch_touches_all_partitions(self):
        system = DramSystem(MemoryConfig(), num_chips=2)
        system[0].charge(0, 128, is_write=False)
        system[1].charge(0, 128, is_write=False)
        system.end_epoch()
        assert all(p.epoch_cycles() == 0.0 for p in system)

    def test_reset_clears_stats(self):
        system = DramSystem(MemoryConfig(), num_chips=2)
        system[0].charge(0, 128, is_write=True)
        system.reset()
        assert system.total_bytes() == 0


class TestEpochBytes:
    def test_epoch_bytes_sums_channels(self):
        partition = make_partition()
        partition.charge(0, 100, is_write=False)
        partition.charge(1, 50, is_write=True)
        assert partition.epoch_bytes() == 150.0
        partition.end_epoch()
        assert partition.epoch_bytes() == 0.0


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4096),
                          st.booleans()), max_size=80))
@settings(max_examples=100, deadline=None)
def test_charge_channels_matches_per_request_charges(requests):
    """One ``charge_channels`` call == one ``charge`` per request."""
    bulk, ref = make_partition(), make_partition()
    read_bytes, reads = [0] * 4, [0] * 4
    write_bytes, writes = [0] * 4, [0] * 4
    for channel, num_bytes, is_write in requests:
        ref.charge(channel, num_bytes, is_write)
        if is_write:
            write_bytes[channel] += num_bytes
            writes[channel] += 1
        else:
            read_bytes[channel] += num_bytes
            reads[channel] += 1
    bulk.charge_channels(np.array(read_bytes, dtype=np.int64), reads,
                         write_bytes, np.array(writes, dtype=np.int64))
    assert bulk.epoch_bytes() == ref.epoch_bytes()
    assert bulk.epoch_cycles() == ref.epoch_cycles()
    assert bulk.stats == ref.stats


def test_charge_channels_rejects_bad_shapes_and_negatives():
    partition = make_partition()
    with pytest.raises(IndexError):
        partition.charge_channels([0] * 3, [0] * 3, [0] * 3, [0] * 3)
    with pytest.raises(ValueError):
        partition.charge_channels([0, -1, 0, 0], [0] * 4, [0] * 4, [0] * 4)
