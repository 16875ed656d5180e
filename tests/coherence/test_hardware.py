"""Unit tests for the hardware directory coherence protocol."""

import pytest

from repro.arch import CoherenceConfig
from repro.coherence import HardwareCoherence


def make(num_chips=4):
    return HardwareCoherence(CoherenceConfig(protocol="hardware"),
                             num_chips=num_chips)


class TestSharerTracking:
    def test_fill_registers_sharer(self):
        directory = make()
        directory.on_fill(0x1000, chip=1)
        assert directory.sharers_of(0x1000) == [1]

    def test_multiple_sharers(self):
        directory = make()
        for chip in (0, 2, 3):
            directory.on_fill(0x1000, chip)
        assert directory.sharers_of(0x1000) == [0, 2, 3]

    def test_evict_removes_sharer_and_empty_entries(self):
        directory = make()
        directory.on_fill(0x1000, 0)
        directory.on_fill(0x1000, 1)
        directory.on_evict(0x1000, 0)
        assert directory.sharers_of(0x1000) == [1]
        directory.on_evict(0x1000, 1)
        assert len(directory) == 0

    def test_evict_of_untracked_line_is_noop(self):
        directory = make()
        directory.on_evict(0x5000, 2)
        assert len(directory) == 0


class TestWriteInvalidate:
    def test_write_invalidates_other_sharers_only(self):
        directory = make()
        for chip in (0, 1, 2):
            directory.on_fill(0x1000, chip)
        victims = directory.on_write(0x1000, chip=1)
        assert sorted(victims) == [0, 2]
        # The writer's own copy survives (paper Section 5.6: the local
        # copy is updated, unlike HMG which also updates the home copy).
        assert directory.sharers_of(0x1000) == [1]

    def test_write_to_private_line_invalidates_nothing(self):
        directory = make()
        directory.on_fill(0x1000, 3)
        assert directory.on_write(0x1000, 3) == []

    def test_write_to_untracked_line(self):
        directory = make()
        assert directory.on_write(0x2000, 0) == []

    def test_invalidation_messages_are_queued_per_epoch(self):
        directory = make()
        directory.on_fill(0x1000, 0)
        directory.on_fill(0x1000, 1)
        directory.on_write(0x1000, 0)
        messages = directory.pop_epoch_messages()
        assert messages == [(0, 1)]
        assert directory.pop_epoch_messages() == []

    def test_stats_count_invalidations(self):
        # One write's invalidations: its victims, one message each.
        directory = make()
        for chip in range(4):
            directory.on_fill(0x1000, chip)
        assert directory.on_write(0x1000, 0) == [1, 2, 3]
        assert directory.pop_epoch_messages() == [(0, 1), (0, 2), (0, 3)]


class TestLifecycle:
    def test_peak_tracking(self):
        directory = make()
        for i in range(10):
            directory.on_fill(i * 128, 0)
        assert len(directory) == 10
        for i in range(10):
            directory.on_evict(i * 128, 0)
        assert len(directory) == 0

    def test_rejects_software_protocol(self):
        with pytest.raises(ValueError):
            HardwareCoherence(CoherenceConfig(protocol="software"), 4)
