"""Software-managed coherence.

Commercial GPUs keep caches coherent in software: dirty lines are written
back and caches invalidated at synchronization points — in our model, at
kernel boundaries (paper Sections 2, 4).  The LLC needs flushing
whenever it may hold remote data (SM-side mode, and the remote
partitions of the Static/Dynamic organizations), because the next
kernel's first-touch placement must see memory, not a stale replica.
The SMs' private L1s are not modelled: the traces are the post-L1
stream.

``FlushCost`` carries both the cycle overhead (drain + write-back
serialization) and the write-back bytes the engine charges to DRAM and,
for remote-homed dirty lines, the inter-chip ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.config import CoherenceConfig


@dataclass(frozen=True)
class FlushCost:
    """Outcome of one flush operation."""

    lines_invalidated: int
    dirty_lines: int
    cycles: float
    writeback_bytes: int


class SoftwareCoherence:
    """Flush-based coherence cost model."""

    name = "software"

    def __init__(self, config: CoherenceConfig, line_size: int) -> None:
        if config.protocol != "software":
            raise ValueError("SoftwareCoherence requires protocol='software'")
        self.config = config
        self.line_size = line_size

    def flush_cost(self, lines_invalidated: int, dirty_lines: int) -> FlushCost:
        """Cost of writing back ``dirty_lines`` and invalidating everything."""
        if dirty_lines > lines_invalidated:
            raise ValueError("cannot have more dirty lines than lines")
        cycles = dirty_lines * self.config.flush_cycles_per_line
        return FlushCost(
            lines_invalidated=lines_invalidated,
            dirty_lines=dirty_lines,
            cycles=cycles,
            writeback_bytes=dirty_lines * self.line_size)
