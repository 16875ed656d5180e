"""The memory-side, SM-side, Static (L1.5) and Dynamic LLC organizations.

* :class:`MemorySideLLC` — every request is served by the home chip's LLC
  (the paper's baseline, Figure 3a).
* :class:`SMSideLLC` — every request is served by the requesting chip's
  LLC; misses travel to the home memory partition (Figure 3b).  The
  two-NoC implementation gives its inter-chip traffic a dedicated
  secondary network, which the engine models by exempting SM-side remote
  miss traffic from the primary crossbar's request budget.
* :class:`StaticLLC` — the L1.5 design (Arunkumar et al.): half the ways
  cache remote data on the requester side, half cache local data
  memory-side; remote requests probe the local remote-partition first.
* :class:`DynamicLLC` — Milic et al.'s runtime way partitioning between
  local and remote data, rebalanced every epoch to equalize the outgoing
  local memory bandwidth and the incoming inter-chip bandwidth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from .base import (
    MEMORY_SIDE_MODE,
    PARTITION_LOCAL,
    PARTITION_REMOTE,
    SM_SIDE_MODE,
    LLCOrganization,
    LookupStage,
    RoutePlan,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import EngineContext


def _plan_table(num_chips: int, build: Callable[[int, int], RoutePlan]
                ) -> Dict[Tuple[int, int], RoutePlan]:
    """Precompute the (chip, home) -> RoutePlan table."""
    table: Dict[Tuple[int, int], RoutePlan] = {}
    for chip in range(num_chips):
        for home in range(num_chips):
            table[(chip, home)] = build(chip, home)
    return table


class MemorySideLLC(LLCOrganization):
    """The baseline: LLC slices cache their local memory partition."""

    name = "memory-side"

    def __init__(self, num_chips: int) -> None:
        self._table = _plan_table(num_chips, self._build)

    @staticmethod
    def _build(chip: int, home: int) -> RoutePlan:
        return RoutePlan(stages=(LookupStage(chip=home), ))

    @property
    def mode(self) -> str:
        return MEMORY_SIDE_MODE

    def plan(self, chip: int, home: int) -> RoutePlan:
        return self._table[(chip, home)]


class SMSideLLC(LLCOrganization):
    """Two-NoC SM-side LLC: slices cache whatever the local SMs access."""

    name = "sm-side"

    #: The two-NoC implementation routes LLC<->memory and LLC<->link
    #: traffic on a dedicated secondary network (paper Section 2.1).
    dedicated_memory_network = True

    def __init__(self, num_chips: int) -> None:
        self._table = _plan_table(num_chips, self._build)

    @staticmethod
    def _build(chip: int, home: int) -> RoutePlan:
        return RoutePlan(stages=(LookupStage(chip=chip), ))

    @property
    def mode(self) -> str:
        return SM_SIDE_MODE

    def plan(self, chip: int, home: int) -> RoutePlan:
        return self._table[(chip, home)]


class StaticLLC(LLCOrganization):
    """The L1.5 static organization: fixed half-local / half-remote ways."""

    name = "static"

    def __init__(self, num_chips: int, remote_way_fraction: float = 0.5) -> None:
        if not 0.0 <= remote_way_fraction <= 1.0:
            raise ValueError("remote way fraction must be in [0, 1]")
        self.remote_way_fraction = remote_way_fraction
        self._table = _plan_table(num_chips, self._build)

    @staticmethod
    def _build(chip: int, home: int) -> RoutePlan:
        if chip == home:
            return RoutePlan(stages=(
                LookupStage(chip=chip, partition=PARTITION_LOCAL), ))
        return RoutePlan(stages=(
            LookupStage(chip=chip, partition=PARTITION_REMOTE),
            LookupStage(chip=home, partition=PARTITION_LOCAL)))

    @property
    def mode(self) -> str:
        # The local half behaves memory-side; the remote half caches
        # remote data like an SM-side cache (see ``remote_scope``).
        return MEMORY_SIDE_MODE

    @property
    def remote_scope(self) -> Optional[int]:
        return PARTITION_REMOTE if self.remote_way_fraction > 0.0 else None

    def attach(self, ctx: "EngineContext") -> None:
        ways = ctx.config.chip.llc_slice.associativity
        remote = round(ways * self.remote_way_fraction)
        remote = min(max(remote, 0), ways)
        ctx.set_llc_partitioning({PARTITION_LOCAL: ways - remote,
                                  PARTITION_REMOTE: remote})

    def plan(self, chip: int, home: int) -> RoutePlan:
        return self._table[(chip, home)]


class DynamicLLC(LLCOrganization):
    """Milic et al.'s dynamic way partitioning between local and remote data.

    Starting half/half, every epoch the organization compares the local
    memory traffic against the incoming inter-chip traffic and moves one
    way toward whichever side is the bottleneck, within
    ``[min_ways, ways - min_ways]``.  The heuristic balances bandwidth
    *beyond* the LLC, which is exactly the behaviour the paper shows to be
    suboptimal (it can settle in a local optimum that under-allocates
    local data).

    The per-epoch repartition is applied in place on the vectorized tag
    store (``VectorCache.set_partition``), so the two-stage epochs stay
    on the staged kernel across reconfigurations: in sets left over
    their new allotment, the growing partition's fills evict the
    shrinking partition's LRU lines until it is back under it, whichever
    side shrank.
    """

    name = "dynamic"

    def __init__(self, num_chips: int, min_local_ways: int = 6,
                 min_remote_ways: int = 1) -> None:
        if min_local_ways < 0 or min_remote_ways < 0:
            raise ValueError("way floors cannot be negative")
        self.min_local_ways = min_local_ways
        self.min_remote_ways = min_remote_ways
        self._table = _plan_table(num_chips, StaticLLC._build)
        self._remote_ways = 0
        self._total_ways = 0
        # Epoch traffic observed through the engine's counters.
        self._last_dram = 0
        self._last_inter = 0

    @property
    def mode(self) -> str:
        return MEMORY_SIDE_MODE

    @property
    def remote_scope(self) -> Optional[int]:
        # Even at zero ways: a shrunk partition drains lazily, so it can
        # still hold remote lines.  Flushing an empty one costs nothing.
        return PARTITION_REMOTE

    @property
    def remote_ways(self) -> int:
        return self._remote_ways

    def attach(self, ctx: "EngineContext") -> None:
        self._total_ways = ctx.config.chip.llc_slice.associativity
        self._remote_ways = self._total_ways // 2
        self._apply(ctx)
        self._last_dram = 0
        self._last_inter = 0

    def _apply(self, ctx: "EngineContext") -> None:
        ctx.set_llc_partitioning({
            PARTITION_LOCAL: self._total_ways - self._remote_ways,
            PARTITION_REMOTE: self._remote_ways})

    def plan(self, chip: int, home: int) -> RoutePlan:
        return self._table[(chip, home)]

    def end_epoch(self, ctx: "EngineContext", epoch_index: int) -> None:
        dram = ctx.stats.dram_bytes
        inter = ctx.stats.inter_chip_bytes
        dram_delta = dram - self._last_dram
        inter_delta = inter - self._last_inter
        self._last_dram = dram
        self._last_inter = inter
        # Normalize each traffic stream by its available bandwidth to find
        # the binding constraint, then grow the partition that relieves it:
        # more remote ways cut inter-chip traffic, more local ways cut
        # local memory traffic.
        dram_pressure = dram_delta / max(1e-9, ctx.total_dram_bw)
        inter_pressure = inter_delta / max(1e-9, ctx.total_inter_chip_bw)
        if inter_pressure > dram_pressure * 1.1:
            new_remote = min(self._total_ways - self.min_local_ways,
                             self._remote_ways + 1)
        elif dram_pressure > inter_pressure * 1.1:
            new_remote = max(self.min_remote_ways, self._remote_ways - 1)
        else:
            return
        if new_remote != self._remote_ways:
            self._remote_ways = new_remote
            self._apply(ctx)
