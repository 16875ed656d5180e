"""LADM-style locality-aware LLC (related-work baseline).

LADM (Khairy et al., MICRO 2020) builds on the Dynamic LLC and adds a
compiler-assisted *cache-remote-once* insertion policy: remote data is
only installed into the requester-side remote partition when it is
expected to be reused, so falsely shared blocks that a chip touches once
do not waste remote-partition capacity.

Without a compiler, the classic hardware proxy for "will be reused" is a
second touch: the first access to a remote line bypasses the remote
partition (it is served by the home chip's LLC, exactly like a
memory-side access) and records the line in a small touch filter; a
second access within the filter's reach installs the line.  This module
implements that proxy on top of the Dynamic LLC's way partitioning.

The paper's position (Section 6) is that LADM is "in effect similar to
SM-side caching" for reused remote data, but — like the Dynamic LLC it
builds on — it cannot reconfigure the whole LLC, so SAC still wins on
workloads that fundamentally prefer one extreme.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from .base import WHOLE_LLC
from .organizations import DynamicLLC

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import EngineContext


class TouchFilter:
    """A small LRU set of recently first-touched remote lines."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("filter needs capacity")
        self.capacity = capacity
        self._seen: "OrderedDict[int, bool]" = OrderedDict()

    def touch(self, line: int) -> bool:
        """Record a touch; returns True if the line was touched before."""
        if line in self._seen:
            self._seen.move_to_end(line)
            return True
        if len(self._seen) >= self.capacity:
            self._seen.popitem(last=False)
        self._seen[line] = True
        return False

    def __len__(self) -> int:
        return len(self._seen)

    def clear(self) -> None:
        self._seen.clear()


class LADMLLC(DynamicLLC):
    """Dynamic LLC + cache-remote-once insertion (second-touch filter).

    Routing is the Static/Dynamic two-stage shape, but the remote-
    partition probe only *allocates* for lines that the requesting chip
    has touched before (per-chip touch filters).  The way partition
    still adapts with the Dynamic heuristic.
    """

    name = "ladm"

    def __init__(self, num_chips: int, min_local_ways: int = 6,
                 min_remote_ways: int = 1,
                 filter_capacity: int = 4096) -> None:
        super().__init__(num_chips, min_local_ways=min_local_ways,
                         min_remote_ways=min_remote_ways)
        self._filters = [TouchFilter(filter_capacity)
                         for _ in range(num_chips)]
        self._line_shift: Optional[int] = None

    @property
    def remote_scope(self) -> Optional[int]:
        # LADM's remote data lives only in PARTITION_REMOTE, but it
        # declares the whole LLC, so each kernel boundary flushes all of
        # it.  Inheriting DynamicLLC's scope fixes that and changes every
        # ``ladm`` result (ROADMAP, item 1).
        return WHOLE_LLC

    def attach(self, ctx: "EngineContext") -> None:
        super().attach(ctx)
        self._line_shift = ctx.line_size.bit_length() - 1

    def remote_allocate(self, chip: int, addr: int) -> bool:
        """Whether this remote access may install into the L1.5 partition.

        First touch: record and bypass (cache-remote-once).  Second
        touch within the filter's reach: allocate.
        """
        shift = self._line_shift if self._line_shift is not None else 7
        return self._filters[chip].touch(addr >> shift)

    def begin_kernel(self, ctx: "EngineContext", kernel_name: str) -> None:
        # Kernel boundaries flush remote data (software coherence);
        # reuse knowledge from the previous kernel is stale.
        for touch_filter in self._filters:
            touch_filter.clear()
