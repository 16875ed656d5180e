"""Inter-chip ring network.

Chips are connected in a ring; each chip has ``links_per_chip``
bidirectional links split evenly between its two neighbours (3 links per
adjacent pair in the 4-chip baseline).  Traffic between non-adjacent
chips traverses intermediate hops and consumes bandwidth on every hop,
which is what makes inter-chip bandwidth the scarce resource that SAC
optimizes around.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..arch.config import InterChipConfig


class InterChipRing:
    """Bandwidth accounting for the inter-chip ring.

    Each directed adjacent pair ``(a, b)`` is one *segment* with
    ``pair_bw`` unidirectional bandwidth.  ``charge`` routes a message
    along the shorter ring direction (ties broken toward increasing chip
    id) and charges every traversed segment.
    """

    def __init__(self, config: InterChipConfig, num_chips: int) -> None:
        if num_chips < 1:
            raise ValueError("need at least one chip")
        self.config = config
        self.num_chips = num_chips
        self._pair_bw = config.pair_bw(num_chips)
        # Per-epoch byte charges per directed segment (src -> next).
        self._epoch_segment: Dict[Tuple[int, int], float] = {}

    def hops(self, src: int, dst: int) -> int:
        """Ring distance from ``src`` to ``dst``."""
        if src == dst:
            return 0
        forward = (dst - src) % self.num_chips
        backward = (src - dst) % self.num_chips
        return min(forward, backward)

    def path(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Directed segments traversed from ``src`` to ``dst``."""
        if src == dst:
            return []
        forward = (dst - src) % self.num_chips
        backward = (src - dst) % self.num_chips
        step = 1 if forward <= backward else -1
        segments = []
        node = src
        while node != dst:
            nxt = (node + step) % self.num_chips
            segments.append((node, nxt))
            node = nxt
        return segments

    def charge(self, src: int, dst: int, num_bytes: float) -> None:
        """Charge ``num_bytes`` from chip ``src`` to chip ``dst`` to every
        segment of the route: one message, or an epoch's total on it."""
        if src == dst:
            return
        for segment in self.path(src, dst):
            self._epoch_segment[segment] = \
                self._epoch_segment.get(segment, 0.0) + num_bytes

    def epoch_cycles(self) -> float:
        """Cycles to drain this epoch's traffic (bottleneck segment)."""
        if not self._epoch_segment:
            return 0.0
        if self._pair_bw == float("inf"):
            return 0.0
        return max(self._epoch_segment.values()) / self._pair_bw

    def epoch_bytes(self) -> float:
        return sum(self._epoch_segment.values())

    def segment_loads(self) -> Dict[Tuple[int, int], float]:
        return dict(self._epoch_segment)

    def end_epoch(self) -> None:
        self._epoch_segment.clear()
