"""DRAM partition bandwidth model.

Each chip owns one memory partition with ``channels_per_chip`` channels.
The epoch-based engine charges bytes to channels; this module tracks those
charges and reports per-channel and per-partition service demand, which
the engine turns into cycles (demand / bandwidth).

The model intentionally omits row-buffer and bank-conflict detail: the
paper's PAE mapping evenly spreads accesses across channels and banks, so
channel bandwidth is the binding constraint (paper Section 3.3, B_mem).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from ..arch.config import MemoryConfig


class DramPartition:
    """One chip's local memory partition."""

    def __init__(self, config: MemoryConfig, chip: int) -> None:
        self.config = config
        self.chip = chip
        # Bytes charged in the current epoch, by channel.
        self._epoch_channel_bytes: List[float] = [0.0] * config.channels_per_chip

    def charge(self, channel: int, num_bytes: int) -> None:
        """Account ``num_bytes`` of traffic to ``channel``."""
        if not 0 <= channel < self.config.channels_per_chip:
            raise IndexError(f"channel {channel} out of range")
        if num_bytes < 0:
            raise ValueError("cannot charge negative bytes")
        self._epoch_channel_bytes[channel] += num_bytes

    def charge_channels(self, channel_bytes: Sequence[int]) -> None:
        """Account every channel's traffic in one call.

        ``channel_bytes`` holds one integer byte count per channel;
        equivalent to one :meth:`charge` per channel.
        """
        cb = [int(b) for b in channel_bytes]
        if len(cb) != len(self._epoch_channel_bytes):
            raise IndexError("need one entry per channel")
        if min(cb) < 0:
            raise ValueError("cannot charge negative bytes")
        self._epoch_channel_bytes = [
            a + b for a, b in zip(self._epoch_channel_bytes, cb)]

    def epoch_cycles(self) -> float:
        """Cycles needed to drain this epoch's traffic (bottleneck channel)."""
        if not any(self._epoch_channel_bytes):
            return 0.0
        return max(self._epoch_channel_bytes) / self.config.channel_bw_bytes_per_cycle

    def epoch_bytes(self) -> float:
        return sum(self._epoch_channel_bytes)

    def end_epoch(self) -> None:
        """Reset the per-epoch charge counters."""
        for i in range(len(self._epoch_channel_bytes)):
            self._epoch_channel_bytes[i] = 0.0


class DramSystem:
    """All memory partitions of the multi-chip system."""

    def __init__(self, config: MemoryConfig, num_chips: int) -> None:
        self.partitions: List[DramPartition] = [
            DramPartition(config, chip) for chip in range(num_chips)]

    def __getitem__(self, chip: int) -> DramPartition:
        return self.partitions[chip]

    def __iter__(self) -> Iterator[DramPartition]:
        return iter(self.partitions)

    def end_epoch(self) -> None:
        for partition in self.partitions:
            partition.end_epoch()
