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

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from ..arch.config import MemoryConfig


@dataclass
class DramStats:
    """Cumulative DRAM traffic counters for one partition."""

    reads: int = 0
    writes: int = 0
    read_bytes: int = 0
    write_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes


class DramPartition:
    """One chip's local memory partition."""

    def __init__(self, config: MemoryConfig, chip: int) -> None:
        self.config = config
        self.chip = chip
        self.stats = DramStats()
        # Bytes charged in the current epoch, by channel.
        self._epoch_channel_bytes: List[float] = [0.0] * config.channels_per_chip

    def charge(self, channel: int, num_bytes: int, is_write: bool) -> None:
        """Account ``num_bytes`` of traffic to ``channel``."""
        if not 0 <= channel < self.config.channels_per_chip:
            raise IndexError(f"channel {channel} out of range")
        if num_bytes < 0:
            raise ValueError("cannot charge negative bytes")
        self._epoch_channel_bytes[channel] += num_bytes
        if is_write:
            self.stats.writes += 1
            self.stats.write_bytes += num_bytes
        else:
            self.stats.reads += 1
            self.stats.read_bytes += num_bytes

    def charge_channels(self, read_bytes: Sequence[int],
                        read_count: Sequence[int],
                        write_bytes: Sequence[int],
                        write_count: Sequence[int]) -> None:
        """Account per-channel read and write traffic in one call.

        Each argument holds one integer per channel: the bytes and the
        request count of that channel's reads and writes.  Equivalent
        to one :meth:`charge` per request.
        """
        rb = [int(b) for b in read_bytes]
        wb = [int(b) for b in write_bytes]
        nr = sum(int(c) for c in read_count)
        nw = sum(int(c) for c in write_count)
        if not len(rb) == len(wb) == len(self._epoch_channel_bytes):
            raise IndexError("need one entry per channel")
        if min(rb + wb) < 0 or nr < 0 or nw < 0:
            raise ValueError("cannot charge negative bytes or counts")
        self._epoch_channel_bytes = [
            a + r + w for a, r, w in zip(self._epoch_channel_bytes, rb, wb)]
        self.stats.reads += nr
        self.stats.read_bytes += sum(rb)
        self.stats.writes += nw
        self.stats.write_bytes += sum(wb)

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

    def reset(self) -> None:
        self.stats = DramStats()
        self.end_epoch()


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

    def reset(self) -> None:
        for partition in self.partitions:
            partition.reset()

    def total_bytes(self) -> int:
        return sum(p.stats.total_bytes for p in self.partitions)

    def bytes_by_chip(self) -> Dict[int, int]:
        return {p.chip: p.stats.total_bytes for p in self.partitions}
