"""Hardware directory coherence.

When LLC slices may replicate a line across chips (SM-side mode), a
directory tracks the sharer set per line.  On a write, the writing chip's
copy is updated and every other copy is invalidated (the paper's chosen
implementation, Section 5.6: unlike HMG it does *not* also update the
home copy, avoiding wasted write traffic on falsely shared lines).

The directory is a dict keyed by line address holding a sharer bitmask
and a dirty bit.  Invalidation messages consume inter-chip bandwidth; the
engine charges them through :meth:`HardwareCoherence.pop_epoch_messages`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..arch.config import CoherenceConfig


@dataclass
class DirectoryEntry:
    """Sharer set of one line."""

    sharers: int = 0  # bitmask over chips
    dirty: bool = False


class HardwareCoherence:
    """Write-invalidate directory across the per-chip LLCs."""

    name = "hardware"

    def __init__(self, config: CoherenceConfig, num_chips: int) -> None:
        if config.protocol != "hardware":
            raise ValueError("HardwareCoherence requires protocol='hardware'")
        self.config = config
        self.num_chips = num_chips
        self._entries: Dict[int, DirectoryEntry] = {}
        # Invalidation messages produced this epoch: (src, dst) pairs.
        self._epoch_messages: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def sharers_of(self, line_addr: int) -> List[int]:
        entry = self._entries.get(line_addr)
        if entry is None:
            return []
        return [chip for chip in range(self.num_chips)
                if entry.sharers >> chip & 1]

    def on_fill(self, line_addr: int, chip: int) -> None:
        """Record that ``chip`` now caches ``line_addr``."""
        entry = self._entries.get(line_addr)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[line_addr] = entry
        entry.sharers |= 1 << chip

    def on_evict(self, line_addr: int, chip: int) -> None:
        """Record that ``chip`` no longer caches ``line_addr``."""
        entry = self._entries.get(line_addr)
        if entry is None:
            return
        entry.sharers &= ~(1 << chip)
        if entry.sharers == 0:
            del self._entries[line_addr]

    def on_write(self, line_addr: int, chip: int) -> List[int]:
        """Process a write by ``chip``; returns the chips to invalidate.

        The local copy stays (updated, dirty); every other sharer is
        dropped from the directory and must be invalidated in its LLC by
        the caller.  One invalidation message per victim chip is queued
        for this epoch's inter-chip accounting.
        """
        entry = self._entries.get(line_addr)
        if entry is None:
            return []
        victims = [c for c in range(self.num_chips)
                   if c != chip and entry.sharers >> c & 1]
        for victim in victims:
            entry.sharers &= ~(1 << victim)
            self._epoch_messages.append((chip, victim))
        entry.dirty = True
        if entry.sharers == 0:
            del self._entries[line_addr]
        return victims

    def pop_epoch_messages(self) -> List[Tuple[int, int]]:
        """Drain this epoch's invalidation messages for ring accounting."""
        messages = self._epoch_messages
        self._epoch_messages = []
        return messages

    @property
    def message_bytes(self) -> int:
        return self.config.invalidation_message_bytes
