"""Page migration (related-work baseline).

The paper positions page migration (Griffin, traffic management) as a
*beyond-LLC* bandwidth optimization: pages get moved to the memory
partition of the chip that dominates their accesses, cutting remote
memory traffic.  SAC's argument is that this is insufficient because the
bandwidth that matters is *ahead of* the LLC.

:class:`DominantAccessorMigration` implements the classic policy: per
page, count accesses by chip; when a remote chip's share exceeds a
threshold (count and fraction), migrate the page to it.  Migration
copies the page over the inter-chip ring and through both DRAM
partitions, and a cooldown prevents ping-ponging.

The engine integrates it behind ``EngineParams.page_migration``; the
related-work experiment compares memory-side + migration against SAC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .pages import PageTable


@dataclass
class _PageCounters:
    counts: List[int]
    cooldown: int = 0


class DominantAccessorMigration:
    """Move a page to its dominant remote accessor."""

    def __init__(self, page_size: int, num_chips: int,
                 min_accesses: int = 64, min_share: float = 0.6,
                 cooldown_epochs: int = 4) -> None:
        if min_accesses < 1:
            raise ValueError("need a positive access threshold")
        if not 0.5 <= min_share <= 1.0:
            raise ValueError("dominance share must be in [0.5, 1.0]")
        if cooldown_epochs < 0:
            raise ValueError("cooldown cannot be negative")
        self.page_size = page_size
        self.num_chips = num_chips
        self.min_accesses = min_accesses
        self.min_share = min_share
        self.cooldown_epochs = cooldown_epochs
        self._pages: Dict[int, _PageCounters] = {}

    def observe(self, page: int, chip: int) -> None:
        """Record one access to ``page`` by ``chip``."""
        entry = self._pages.get(page)
        if entry is None:
            entry = _PageCounters(counts=[0] * self.num_chips)
            self._pages[page] = entry
        entry.counts[chip] += 1

    def end_epoch(self, page_table: PageTable) -> List[Tuple[int, int, int]]:
        """Decide migrations; returns ``(page, old_home, new_home)`` moves.

        The caller charges the traffic (one page over the ring + both
        DRAM partitions) and updates its own structures; the page table
        is updated here.  Counters reset each epoch so the policy tracks
        the *current* phase, not history.
        """
        moves: List[Tuple[int, int, int]] = []
        for page, entry in self._pages.items():
            if entry.cooldown > 0:
                entry.cooldown -= 1
                continue
            total = sum(entry.counts)
            if total < self.min_accesses:
                continue
            dominant = max(range(self.num_chips),
                           key=lambda chip: entry.counts[chip])
            if entry.counts[dominant] < total * self.min_share:
                continue
            old_home = page_table.lookup(page * self.page_size)
            if old_home is None or old_home == dominant:
                continue
            page_table.migrate(page, dominant)
            entry.cooldown = self.cooldown_epochs
            moves.append((page, old_home, dominant))
        for entry in self._pages.values():
            for chip in range(self.num_chips):
                entry.counts[chip] = 0
        return moves
