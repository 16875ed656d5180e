"""The trace-driven, epoch-based multi-chip GPU simulation engine.

The engine consumes :class:`~repro.workloads.generator.KernelTrace`
epochs — the post-L1 access stream — and models the request path of
Figure 6 under a pluggable :class:`~repro.llc.base.LLCOrganization`:

1. the organization's :class:`~repro.llc.base.RoutePlan` — one or two
   LLC slice probes across chips;
2. on a full miss, the home chip's DRAM partition.

Caches are functional (exact hit/miss for the access stream); every LLC
slice is true-LRU, write-back and write-allocate.  Timing is
epoch-based: every traversed resource (crossbar ports, ring segments,
LLC slices, DRAM channels) is charged bytes, and the epoch's duration is
the bottleneck resource's service time, floored by the workload's
compute time and by an MLP-limited latency bound.  This models the
paper's central quantity — *effective bandwidth ahead of the LLC* —
without cycle-level simulation.

At each kernel boundary, software coherence flushes the part of the LLC
that the organization declares may hold remote data (its
``remote_scope``); hardware coherence tracks sharers in a directory and
invalidates replicas on writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    cast,
)

import numpy as np

from ..arch.config import SystemConfig
from ..cache.cache import (
    UNPARTITIONED,
    AccessResult,
    PartitionFullError,
    SetAssociativeCache,
)
from ..cache.vector import VectorBank, _stable_order
from ..coherence.hardware import HardwareCoherence
from ..llc.base import WHOLE_LLC, LLCOrganization, RoutePlan
from ..llc.organizations import StaticLLC
from ..memory.dram import DramSystem
from ..memory.mapping import AddressMapping
from ..memory.pages import PageTable
from ..noc.crossbar import Crossbar
from ..noc.ring import InterChipRing
from ..workloads.generator import EpochTrace, KernelTrace
from .stats import (
    ORIGIN_LOCAL_LLC,
    ORIGIN_LOCAL_MEM,
    ORIGIN_REMOTE_LLC,
    ORIGIN_REMOTE_MEM,
    KernelStats,
    RunStats,
)


@dataclass(frozen=True)
class EngineParams:
    """Engine tuning knobs (message sizes, latencies, execution path)."""

    request_bytes: int = 32
    response_header_bytes: int = 16
    write_data_bytes: int = 32
    # MLP limit: maximum outstanding L1 misses per chip; bounds how much
    # latency can overlap (the latency term only binds when bandwidth is
    # plentiful, matching the paper's footnote 2).
    max_outstanding_per_chip: int = 4096
    latency_noc: float = 40.0
    latency_llc: float = 40.0
    latency_ring_hop: float = 120.0
    latency_dram: float = 200.0
    # Enable dominant-accessor page migration (related-work baseline:
    # a beyond-LLC optimization the paper argues is insufficient).
    page_migration: bool = False
    # ``batched`` and ``vectorized`` together let a run take the vector
    # path (see ``takes_vector_path``): its LLC slices live in one
    # VectorBank and each epoch is one bank call, with any epoch the
    # bank declines rerun on the serial per-access engine.  Either one
    # False runs the serial engine over SetAssociativeCache slices —
    # the oracle — so three of the four combinations are the same run.
    batched: bool = True
    vectorized: bool = True

    def __post_init__(self) -> None:
        if self.request_bytes <= 0:
            raise ValueError(
                f"request_bytes must be positive, got {self.request_bytes}")
        if self.response_header_bytes < 0:
            raise ValueError(
                "response_header_bytes cannot be negative, got "
                f"{self.response_header_bytes}")
        if self.write_data_bytes < 0:
            raise ValueError(
                f"write_data_bytes cannot be negative, got "
                f"{self.write_data_bytes}")
        if self.max_outstanding_per_chip < 1:
            raise ValueError("need at least one outstanding miss")
        for leg, value in (("latency_noc", self.latency_noc),
                           ("latency_llc", self.latency_llc),
                           ("latency_ring_hop", self.latency_ring_hop),
                           ("latency_dram", self.latency_dram)):
            if not value >= 0.0:  # rejects negatives and NaN
                raise ValueError(
                    f"{leg} must be non-negative, got {value}")


def takes_vector_path(config: SystemConfig, params: EngineParams,
                      organization: LLCOrganization) -> bool:
    """Whether a run resolves its epochs on the vector bank.

    Decided once, when the engine is built, from the config, the params
    and the organization.  The vector path precomputes homes, route
    plans and traffic totals with numpy and resolves every probe with
    one bank call, so it needs ``batched`` and ``vectorized`` and no
    component that needs a per-access side effect beyond the cache
    probes themselves: no page migration, no coherence directory, no
    per-access insertion filter (an override of ``remote_allocate``,
    LADM's), and an ``observe_access`` that is either the base no-op or
    reproduced by an override of ``observe_batch`` (SAC's profiling
    counters).  Every other run builds ``SetAssociativeCache`` slices
    and runs the serial engine, the oracle.
    """
    cls = type(organization)
    base = LLCOrganization
    return (params.batched and params.vectorized
            and not params.page_migration
            and config.coherence.protocol == "software"
            and cls.remote_allocate is base.remote_allocate
            and (cls.observe_access is base.observe_access
                 or cls.observe_batch is not base.observe_batch))


class _PlanTable:
    """One plan table as per-(requester, home) pair arrays.

    Pair ``p`` is ``requester * K + home`` for ``K`` chips.  Besides each
    pair's stages (serving chips, partitions, whether a second stage
    exists) the table holds the maps a vector epoch settles with: one
    row per chip (or per directed chip pair) and one column per pair,
    so a per-pair count vector becomes per-chip slice, crossbar-port,
    ring and DRAM charges with one product each.  The engine builds one
    per distinct plan table (SAC alternates between two).
    """

    def __init__(self, plans: Tuple[RoutePlan, ...],
                 engine: "SimulationEngine") -> None:
        config = engine.config
        params = engine.params
        K = config.num_chips
        P = K * K
        ip = config.chip.noc.inter_chip_ports
        hops = engine.ring.hops
        cols = np.arange(P, dtype=np.int64)
        req = cols // K
        home = cols % K
        first = [plan.stages[0] for plan in plans]
        second = [plan.stages[1] if len(plan.stages) > 1 else None
                  for plan in plans]
        self.serve0 = np.array([s.chip for s in first], dtype=np.int64)
        self.part0 = np.array([s.partition for s in first], dtype=np.int64)
        self.two = np.array([s is not None for s in second], dtype=bool)
        self.serve1 = np.array([s.chip if s is not None else 0
                                for s in second], dtype=np.int64)
        self.part1 = np.array([s.partition if s is not None else 0
                               for s in second], dtype=np.int64)
        last = np.array([plan.stages[-1].chip for plan in plans],
                        dtype=np.int64)
        #: One unpartitioned allocate-on-miss probe per access: the
        #: grouped kernel's shape.
        self.grouped = not self.two.any() and all(
            s.partition == UNPARTITIONED and s.allocate for s in first)
        #: The L1.5 table, the staged kernel's domain (see
        #: ``VectorBank.access_many_staged``).
        self.l15 = all(plan == StaticLLC._build(int(c), int(h))
                       for plan, c, h in zip(plans, req, home))

        # Per-access latency by (pair, hit stage), summed in the serial
        # path's order: each probed stage's leg, then the LLC latency,
        # then the memory leg on a full miss.
        def leg(src: int, dst: int) -> float:
            if src == dst:
                return 2 * params.latency_noc
            return 2 * params.latency_noc + \
                hops(src, dst) * params.latency_ring_hop

        latency: List[float] = []
        for p, plan in enumerate(plans):
            c, h = divmod(p, K)
            t0 = leg(c, plan.stages[0].chip) + params.latency_llc
            t1 = t0
            if len(plan.stages) > 1:
                t1 = t0 + leg(c, plan.stages[1].chip)
                t1 += params.latency_llc
            mem = params.latency_dram
            if plan.stages[-1].chip != h:
                mem += 2 * params.latency_noc + \
                    hops(plan.stages[-1].chip, h) * params.latency_ring_hop
            latency.extend((t1 + mem, t0, t1))
        #: Indexed ``pair * 3 + hit_stage + 1`` (0 is a full miss).
        self.latency = np.array(latency, dtype=np.float64)

        def by_chip(chip: np.ndarray, mask: np.ndarray) -> np.ndarray:
            out = np.zeros((K, P), dtype=np.int64)
            out[chip, cols] = mask
            return out

        def by_route(src: np.ndarray, dst: np.ndarray,
                     mask: np.ndarray) -> np.ndarray:
            out = np.zeros((P, P), dtype=np.int64)
            out[src * K + dst, cols] = mask
            return out

        ones = np.ones(P, dtype=bool)
        remote0 = self.serve0 != req
        local1 = self.two & (self.serve1 == req)
        remote1 = self.two & (self.serve1 != req)
        mem_remote = last != home
        # SM-side's dedicated network carries remote stage-1 legs past
        # both crossbars and remote memory legs past the crossbars.
        xbar = not engine.dedicated_memory_network
        #: Slice requests (and LLC-port traffic) of each stage's probes.
        self.slice0 = by_chip(self.serve0, ones)
        self.slice1 = by_chip(self.serve1, self.two)
        self.llc1 = by_chip(self.serve1, local1 | (remote1 & xbar))
        #: Requester-side inter-chip ports of remote stage legs, and both
        #: ends' ports of remote memory legs.
        self.ic0 = by_chip(req, remote0)
        self.ic1 = by_chip(req, remote1 & xbar)
        self.icm = by_chip(last, mem_remote & xbar) + \
            by_chip(home, mem_remote & xbar)
        self.dram = by_chip(home, ones)
        #: Requests (forward) and responses (backward) on the ring.
        self.fwd0 = by_route(req, self.serve0, remote0)
        self.bwd0 = by_route(self.serve0, req, remote0)
        self.fwd1 = by_route(req, self.serve1, remote1)
        self.bwd1 = by_route(self.serve1, req, remote1)
        self.fwdm = by_route(last, home, mem_remote)
        self.bwdm = by_route(home, last, mem_remote)
        self.off_diagonal = (req != home).astype(np.int64)
        #: Response origins: which hits and misses stay on the requester.
        self.local0 = (~remote0).astype(np.int64)
        self.local1 = local1.astype(np.int64)
        self.home_local = (home == req).astype(np.int64)
        #: Inter-chip port folds: slice % ports for stage legs, channel
        #: % ports for memory legs.
        self.fold_slices = self._fold(config.chip.llc_slices, ip)
        self.fold_channels = self._fold(
            config.chip.memory.channels_per_chip, ip)

    @staticmethod
    def _fold(width: int, ports: int) -> np.ndarray:
        """Map ``width`` slices or channels onto ``ports`` ports."""
        out = np.zeros((width, ports), dtype=np.int64)
        if ports:
            i = np.arange(width, dtype=np.int64)
            out[i, i % ports] = 1
        return out


class SimulationEngine:
    """Runs one benchmark trace under one LLC organization.

    An engine owns the full state of one run — crossbars, ring, DRAM,
    page table and :class:`RunStats` accumulators.  A run that takes
    the vector path (:func:`takes_vector_path`) keeps its LLC slices in
    a :class:`VectorBank` of its own; every other run keeps
    ``SetAssociativeCache`` slices.
    """

    def __init__(self, config: SystemConfig, organization: LLCOrganization,
                 params: Optional[EngineParams] = None) -> None:
        self.config = config
        self.organization = organization
        self.params = params or EngineParams()
        self.stats = RunStats(organization=organization.name)
        chip_cfg = config.chip
        self.line_size = chip_cfg.llc_slice.line_size
        self.page_table = PageTable(chip_cfg.memory.page_size,
                                    config.num_chips,
                                    policy=config.page_allocation)
        self.mapping = AddressMapping(
            line_size=self.line_size,
            slices_per_chip=chip_cfg.llc_slices,
            channels_per_chip=chip_cfg.memory.channels_per_chip)
        llc_cfg = chip_cfg.llc_slice
        self._llc_bank: Optional[VectorBank] = None
        if not takes_vector_path(config, self.params, organization):
            self.llc = [
                [SetAssociativeCache(llc_cfg, name=f"llc{c}.{s}")
                 for s in range(chip_cfg.llc_slices)]
                for c in range(config.num_chips)]
        else:
            bank = VectorBank(
                llc_cfg, [f"llc{c}.{s}" for c in range(config.num_chips)
                          for s in range(chip_cfg.llc_slices)])
            self._llc_bank = bank
            per_chip = chip_cfg.llc_slices
            self.llc = [bank.caches[c * per_chip:(c + 1) * per_chip]
                        for c in range(config.num_chips)]
        self.crossbars = [Crossbar(chip_cfg.noc, chip=c)
                          for c in range(config.num_chips)]
        self.ring = InterChipRing(config.inter_chip, config.num_chips)
        self.dram = DramSystem(chip_cfg.memory, config.num_chips)
        self.hardware_coherence: Optional[HardwareCoherence] = None
        if config.coherence.protocol == "hardware":
            self.hardware_coherence = HardwareCoherence(
                config.coherence, config.num_chips)
        self.dedicated_memory_network = organization.dedicated_memory_network
        # The organization's insertion filter, or None for the base's
        # allocate-always (so the serial engine skips the call).
        self._remote_allocate: Optional[Callable[[int, int], bool]] = (
            None if type(organization).remote_allocate
            is LLCOrganization.remote_allocate
            else organization.remote_allocate)
        # Per-epoch LLC slice service bytes, [chip][slice].
        self._slice_bytes = [[0.0] * chip_cfg.llc_slices
                             for _ in range(config.num_chips)]
        # Per-epoch accumulated request latency per chip (for the MLP bound).
        self._latency_sum = [0.0] * config.num_chips
        # Cycles charged outside epochs (reconfiguration, flushes).
        self._pending_cycles = 0.0
        self.last_epoch_cycles = 0.0
        self.stats.slice_requests = [0] * config.total_llc_slices
        # Vector-path plan tables, keyed by their plans.
        self._plan_tables: Dict[Tuple[RoutePlan, ...], _PlanTable] = {}
        # Figure 9 sampling accumulators (cycle-weighted).
        self._alloc_weight = 0.0
        self._alloc_local = 0.0
        self._alloc_remote = 0.0
        self._line_mask = ~(self.line_size - 1)
        self._page_shift = chip_cfg.memory.page_size.bit_length() - 1
        self.migration = None
        if self.params.page_migration:
            from ..memory.migration import DominantAccessorMigration
            # Threshold ~2 accesses per line of the page, so the policy
            # fires at the same per-line reuse regardless of page size.
            self.migration = DominantAccessorMigration(
                page_size=chip_cfg.memory.page_size,
                num_chips=config.num_chips,
                min_accesses=max(
                    8, 2 * chip_cfg.memory.page_size // self.line_size))
        organization.attach(self)

    # ------------------------------------------------------------------
    # EngineContext interface used by organizations.
    # ------------------------------------------------------------------

    def slice_of(self, addr: int) -> int:
        """LLC slice index (within a chip) that serves ``addr``."""
        return self.mapping.llc_slice_of(addr)

    def set_llc_partitioning(self, ways: Optional[Dict[int, int]]) -> None:
        """Apply way partitioning to every LLC slice in the system."""
        for chip_slices in self.llc:
            for cache in chip_slices:
                cache.set_partition(ways)

    def charge_cycles(self, cycles: float) -> None:
        """Charge overhead cycles (drain, reconfiguration) to the run."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self._pending_cycles += cycles

    def flush_llc(self, partition: Optional[int] = None,
                  chips: Optional[Iterable[int]] = None,
                  dirty_only: bool = False) -> None:
        """Write back + invalidate LLC contents, charging the cost.

        ``partition=None`` flushes everything; otherwise only lines of
        that way-partition.  ``dirty_only=True`` writes back and
        invalidates only the dirty lines, leaving clean lines resident —
        this is what SAC's memory-side -> SM-side reconfiguration needs
        (paper Section 3.6).  Dirty write-backs are charged as cycles
        (serialized at the chip's DRAM bandwidth) plus the coherence
        per-line bookkeeping cost.
        """
        chip_list = list(chips) if chips is not None else \
            list(range(self.config.num_chips))
        coherence_cfg = self.config.coherence
        dram_bw = self.config.chip.memory.chip_bw()
        shift = np.int64(self.page_table._page_shift)
        bank = self._llc_bank
        per_chip = self.config.chip.llc_slices
        # Chips flush concurrently: the run is delayed by the slowest one.
        worst_cycles = 0.0
        for chip in chip_list:
            # Dirty lines written back, and those homed on another chip
            # (an unallocated page counts as the chip's own).
            wb_lines = 0
            remote_lines = 0
            invalidated = 0
            dirty = 0
            if bank is not None:
                # A vector-path run has no coherence directory to
                # notify, so the bank drains the chip's slices in one
                # pass (any partition/dirty_only mode) and the dirty
                # lines are homed in bulk.
                lo = chip * per_chip
                drained, invalidated, dirty = bank.drain(
                    lo, lo + per_chip, partition=partition,
                    dirty_only=dirty_only)
                if drained.size:
                    homes = self.page_table.homes_of(drained >> shift)
                    wb_lines = int(drained.size)
                    remote_lines = int(np.count_nonzero(
                        (homes >= 0) & (homes != chip)))
            else:
                for cache in self.llc[chip]:
                    victims = []
                    for line_addr, line in list(cache.resident_lines()):
                        if partition is not None and \
                                line.partition != partition:
                            continue
                        if dirty_only and not line.dirty:
                            continue
                        if line.dirty:
                            home = self.page_table.lookup(line_addr)
                            wb_lines += 1
                            remote_lines += home is not None and \
                                home != chip
                        if self.hardware_coherence is not None:
                            self.hardware_coherence.on_evict(
                                line_addr & self._line_mask, chip)
                        victims.append((line_addr, line.dirty))
                    if dirty_only:
                        for line_addr, was_dirty in victims:
                            cache.invalidate(line_addr)
                        lines = len(victims)
                        dirties = sum(1 for _a, d in victims if d)
                    elif partition is None:
                        lines, dirties = cache.flush()
                    else:
                        lines, dirties = cache.invalidate_partition(partition)
                    invalidated += lines
                    dirty += dirties
            writeback = self.line_size * wb_lines
            remote_wb = self.line_size * remote_lines
            cycles = (dirty * coherence_cfg.flush_cycles_per_line
                      + writeback / dram_bw)
            if remote_wb and self.config.num_chips > 1:
                cycles += remote_wb / self.config.inter_chip.chip_egress_bw()
            worst_cycles = max(worst_cycles, cycles)
            self.stats.dram_bytes += writeback
            self.stats.inter_chip_bytes += remote_wb
        self._pending_cycles += worst_cycles
        self.stats.flush_cycles += worst_cycles

    @property
    def total_dram_bw(self) -> float:
        return self.config.total_memory_bw

    @property
    def total_inter_chip_bw(self) -> float:
        return self.config.total_inter_chip_bw

    # ------------------------------------------------------------------
    # Trace execution.
    # ------------------------------------------------------------------

    def run(self, kernels: Iterable[KernelTrace],
            benchmark: str = "") -> RunStats:
        """Simulate every kernel launch and return the aggregate stats."""
        for _kstats in self.run_steps(kernels, benchmark):
            pass
        return self.stats

    def run_steps(self, kernels: Iterable[KernelTrace],
                  benchmark: str = "") -> Iterator[KernelStats]:
        """Generator form of :meth:`run`: yields each kernel launch's
        :class:`KernelStats` as it retires (already merged into
        ``self.stats``)."""
        self.stats.benchmark = benchmark
        for kernel in kernels:
            yield self._run_kernel(kernel)
        self._finalize_allocation_stats()

    def _run_kernel(self, kernel: KernelTrace) -> KernelStats:
        kstats = KernelStats(name=kernel.name)
        self.organization.begin_kernel(self, kernel.name)
        for index, epoch in enumerate(kernel.epochs):
            self.organization.begin_epoch(self, index)
            if self.organization.profiling:
                head, tail = self._split_profile_window(epoch)
                self._run_epoch(head, kstats)
                self.organization.profile_boundary(self)
                if tail is not None:
                    self._run_epoch(tail, kstats)
            else:
                self._run_epoch(epoch, kstats)
            self.organization.end_epoch(self, index)
        self._sample_allocation(kstats.cycles)
        # Capture the mode the kernel actually ran in (and where it may
        # have left remote data) before SAC reverts to memory-side.
        kstats.organization = self.organization.mode
        scope = self.organization.remote_scope
        self.organization.end_kernel(self)
        self._kernel_boundary_flush(scope)
        # Reconfiguration/flush overhead charged during the kernel.
        if self._pending_cycles:
            kstats.cycles += self._pending_cycles
            kstats.reconfig_cycles += self._pending_cycles
            self._pending_cycles = 0.0
        kstats.reconfigured = kstats.reconfig_cycles > 0
        self.stats.merge_kernel(kstats)
        return kstats

    def _split_profile_window(self, epoch: EpochTrace
                              ) -> Tuple[EpochTrace, Optional[EpochTrace]]:
        """Split an epoch into the profiling slice and the remainder.

        The profiling window (paper: 2K cycles at the start of each
        kernel) covers the first ``profile_window_cycles`` worth of the
        epoch's compute time; the rest of the epoch runs under the
        organization the SAC controller has just selected.
        """
        window = self.config.sac.profile_window_cycles
        fraction = min(1.0, window / max(1e-9, epoch.compute_cycles))
        cut = max(1, int(len(epoch) * fraction))
        if cut >= len(epoch):
            return epoch, None
        # The split is a pure function of the epoch and the cut, so it is
        # memoized on the epoch: every SAC run of a cached trace reuses
        # the same head and tail, and with them their own memos.
        key = ("split", cut)
        split = epoch.derived.get(key)
        if split is None:
            head = EpochTrace(
                chips=epoch.chips[:cut], addrs=epoch.addrs[:cut],
                writes=epoch.writes[:cut],
                compute_cycles=epoch.compute_cycles * cut / len(epoch))
            tail = EpochTrace(
                chips=epoch.chips[cut:], addrs=epoch.addrs[cut:],
                writes=epoch.writes[cut:],
                compute_cycles=epoch.compute_cycles * (len(epoch) - cut)
                / len(epoch))
            split = epoch.derived[key] = (head, tail)
        return cast(Tuple[EpochTrace, EpochTrace], split)

    def _kernel_boundary_flush(self, scope: Optional[int]) -> None:
        """Kernel-boundary coherence flush of the organization's
        ``remote_scope``.

        ``scope`` is captured *before* the organization's ``end_kernel``
        hook, so that SAC's revert to memory-side does not erase the
        coherence obligations of the mode the kernel actually ran in.
        """
        if scope is None:
            return
        if self.hardware_coherence is None:
            self.flush_llc(partition=None if scope == WHOLE_LLC else scope)
        else:
            # Hardware coherence keeps data consistent during execution,
            # but remote replicas must still be written back before the
            # next kernel's placement decisions (cheaper than a full
            # software flush: only the remote-homed lines).
            self._flush_remote_lines()

    def _flush_remote_lines(self) -> None:
        dram_bw = self.config.chip.memory.chip_bw()
        worst_cycles = 0.0
        for chip in range(self.config.num_chips):
            writeback = 0
            for cache in self.llc[chip]:
                victims = []
                for line_addr, line in cache.resident_lines():
                    home = self.page_table.lookup(line_addr)
                    if home is not None and home != chip:
                        victims.append((line_addr, line.dirty))
                for line_addr, dirty in victims:
                    cache.invalidate(line_addr)
                    if self.hardware_coherence is not None:
                        self.hardware_coherence.on_evict(
                            line_addr & self._line_mask, chip)
                    if dirty:
                        writeback += self.line_size
            if writeback:
                worst_cycles = max(worst_cycles, writeback / dram_bw)
                self.stats.dram_bytes += writeback
        if worst_cycles:
            self._pending_cycles += worst_cycles
            self.stats.flush_cycles += worst_cycles

    # ------------------------------------------------------------------
    # Epoch execution.
    # ------------------------------------------------------------------

    def _run_epoch(self, epoch: EpochTrace, kstats: KernelStats) -> None:
        if self._llc_bank is not None:
            self._run_epoch_batched(epoch, kstats)
        else:
            self._run_epoch_serial(epoch, kstats)
            self.stats.slow_epochs += 1

    def _run_epoch_serial(self, epoch: EpochTrace, kstats: KernelStats
                          ) -> None:
        chips = epoch.chips.tolist()
        addrs = epoch.addrs.tolist()
        writes = epoch.writes.tolist()
        slices = self._vectorized_slices(epoch.addrs, epoch.derived).tolist()
        channels = self._vectorized_channels(
            epoch.addrs, epoch.derived).tolist()
        # The serial reference path IS the per-access loop: it defines
        # the semantics the batched/vectorized paths must reproduce.
        for i in range(len(addrs)):  # repro: noqa(hot-loop)
            self._access(chips[i], addrs[i], writes[i], slices[i],
                         channels[i], kstats)
        self._settle_epoch(epoch, kstats)

    # -- Batched epoch fast path -------------------------------------------

    def _run_epoch_batched(self, epoch: EpochTrace, kstats: KernelStats
                           ) -> None:
        """Batched epoch execution.

        Functionally identical to :meth:`_run_epoch_serial`: one
        vector-bank call resolves the same LLC probes in the same order
        (the caches are the only sequential state), while page homes
        are resolved in bulk and every resource charge is settled from
        per-(requester, home) pair tables (:class:`_PlanTable`).  All
        aggregated quantities are integer byte counts, and each access's
        latency is the serial path's sum in the serial path's order, so
        the resulting ``RunStats`` are bit-identical to the per-access
        path.

        A uniform single-stage table takes the grouped kernel and the
        L1.5 table the staged one; an epoch under any other table, or
        one the bank declines, runs on :meth:`_run_epoch_serial`
        instead.  Nothing is charged before the bank call, and the page
        homes resolved here were allocated in first-touch order, so the
        serial rerun finds the same homes and counts nothing twice.
        """
        bank = self._llc_bank
        assert bank is not None
        config = self.config
        num_chips = config.num_chips
        llc_slices = config.chip.llc_slices
        # The trace keeps addresses narrow; the bank and SAC take int64.
        # The slice hashes stay the epoch's narrow memo: the products
        # below are with int64 arrays, which promote.
        addrs_np = epoch.addrs.astype(np.int64)
        writes_np = epoch.writes
        slices_np = self._vectorized_slices(addrs_np, epoch.derived)
        homes_np = self._batched_homes(epoch, addrs_np)
        pair_np = epoch.chips * np.int64(num_chips) + homes_np
        org = self.organization
        # Only a profiling window reads the addresses and homes after
        # the bank call (SAC's observe_batch); otherwise they die with it.
        observed = (addrs_np, homes_np) if org.profiling else None
        del homes_np
        pt = self._plan_table_now()

        # Cache probes: the only sequentially-stateful work in the epoch.
        # A declined call falls through to the staged call or to the
        # serial rerun, which recomputes what it needs from the epoch.
        idx0_np = pt.serve0[pair_np] * np.int64(llc_slices) + slices_np
        batch = bank.access_many_grouped(idx0_np, addrs_np, writes_np) \
            if pt.grouped else None
        staged = bank.access_many_staged(
            addrs_np, writes_np, idx0_np, pt.part0[pair_np],
            pt.two[pair_np],
            pt.serve1[pair_np] * np.int64(llc_slices) + slices_np,
            pt.part1[pair_np]) if batch is None and pt.l15 else None
        del idx0_np, addrs_np
        if batch is not None:
            hs = np.where(batch.hits, np.int64(0), np.int64(-1))
            dirty_sel = batch.evicted_dirty
            ev_serve = pt.serve0[pair_np[dirty_sel]]
            ev_addr = batch.evicted_addr[dirty_sel]
            del batch, dirty_sel
        elif staged is not None:
            hs = staged.hit_stage
            ev_serve = staged.evicted_cache // np.int64(llc_slices)
            ev_addr = staged.evicted_addr
            del staged
        else:
            # Another table, or the bank declined: resolve the whole
            # epoch serially.
            self.stats.scalar_epochs += 1
            self._run_epoch_serial(epoch, kstats)
            return
        self.stats.vector_epochs += 1
        self._charge_epoch(pt, epoch, pair_np, hs, ev_serve, ev_addr,
                           kstats)
        if observed is not None:
            # Replicate the serial path's per-access observe_access
            # stream in one batched call (profiling counters).
            addrs_np, homes_np = observed
            org.observe_batch(self, epoch.chips, addrs_np, homes_np,
                              slices_np, hs)
        self._settle_epoch(epoch, kstats)

    def _plan_table_now(self) -> "_PlanTable":
        """The :class:`_PlanTable` of the organization's current plans,
        built once per distinct table."""
        org = self.organization
        num_chips = self.config.num_chips
        plans = tuple(org.plan(p // num_chips, p % num_chips)
                      for p in range(num_chips * num_chips))
        table = self._plan_tables.get(plans)
        if table is None:
            table = self._plan_tables[plans] = _PlanTable(plans, self)
        return table

    def _batched_homes(self, epoch: EpochTrace,
                       addrs: np.ndarray) -> np.ndarray:
        """Vectorized first-touch home resolution for one epoch.

        ``addrs`` is the epoch's address array widened to int64.  The
        epoch's distinct pages are allocated through the page table in
        order of first touch, so round-robin allocation assigns the same
        homes as the per-access path; then every access is homed with
        one :meth:`~repro.memory.pages.PageTable.homes_of` lookup.  The
        distinct pages and their first touchers are a pure function of
        the epoch's arrays and are memoized on the epoch, so every run
        replaying the cached trace sorts them once; nothing per access
        is memoized.  The page-table resolution itself stays per run —
        each run allocates its own table.
        """
        pages = addrs >> np.int64(self._page_shift)
        key = ("pages", self._page_shift)
        prep = epoch.derived.get(key)
        if prep is None:
            n = pages.size
            # A stable sort by page keeps each page's first touch first;
            # pages of an epoch span few page numbers, so the offsets
            # usually take the int16 radix sort.
            rel = pages - pages.min() if n else pages
            by_page = _stable_order(rel, int(rel.max()) + 1 if n else 0)
            sp = pages[by_page]
            head = np.ones(n, dtype=bool)
            head[1:] = sp[1:] != sp[:-1]
            first = np.sort(by_page[head])
            fresh = (pages[first], epoch.chips[first])
            for arr in fresh:
                arr.setflags(write=False)
            epoch.derived[key] = prep = fresh
        pages_ft, chips_ft = cast(Tuple[np.ndarray, np.ndarray], prep)
        table = self.page_table
        table.bulk_home(pages_ft, chips_ft)
        return table.homes_of(pages)

    def _charge_epoch(self, pt: "_PlanTable", epoch: EpochTrace,
                      pair_np: np.ndarray, hs: np.ndarray,
                      ev_serve: np.ndarray, ev_addr: np.ndarray,
                      kstats: KernelStats) -> None:
        """Settle one vector epoch's traffic from its probe outcomes.

        Two bincounts, over (pair, hit stage, slice, write) and (pair,
        hit stage, channel, write), give every leg's message count;
        products with the plan table's per-pair maps turn them into
        slice, crossbar-port, ring and DRAM charges, handed to each
        resource in one call.  ``ev_serve`` and ``ev_addr`` are the
        dirty evictions' serving chips and lines.
        """
        params = self.params
        config = self.config
        K = config.num_chips
        P = K * K
        L = config.chip.llc_slices
        Ch = config.chip.memory.channels_per_chip
        n = hs.shape[0]
        rq = params.request_bytes
        wd = params.write_data_bytes
        rsp = self.line_size + params.response_header_bytes
        # Messages per (pair, hit stage, slice, write) and, for full
        # misses, per (pair, channel, write).
        hk = pair_np * np.int64(3) + hs + np.int64(1)
        writes_np = epoch.writes
        slices_np = self._vectorized_slices(epoch.addrs, epoch.derived)
        channels_np = self._vectorized_channels(epoch.addrs, epoch.derived)
        by_slice = np.bincount(
            (hk * np.int64(L) + slices_np) * np.int64(2) + writes_np,
            minlength=P * 3 * L * 2).reshape(P, 3, L, 2)
        miss = np.bincount(
            (hk * np.int64(Ch) + channels_np) * np.int64(2) + writes_np,
            minlength=P * 3 * Ch * 2).reshape(P, 3, Ch, 2)[:, 0]
        by_pair = by_slice.sum(axis=(2, 3))              # (P, 3)
        # Stage-0 legs: every access; stage-1 legs: two-stage accesses
        # that missed stage 0 (they then miss or hit stage 1).
        st0 = by_slice.sum(axis=1)                       # (P, L, 2)
        st1 = (by_slice[:, 0] + by_slice[:, 2]) * pt.two[:, None, None]
        legs: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for st in (st0, st1):
            cnt = st.sum(axis=2)
            req = cnt * np.int64(rq) + st[:, :, 1] * np.int64(wd)
            legs.append((cnt, req, cnt * np.int64(rsp)))
        (cnt0, req0, rsp0), (cnt1, req1, rsp1) = legs
        cntm = miss.sum(axis=2)
        wrm = miss[:, :, 1]
        reqm = cntm * np.int64(rq) + wrm * np.int64(wd)
        rspm = cntm * np.int64(rsp)

        # LLC slices and crossbar ports: LLC ports, then inter-chip.
        slice_counts = pt.slice0 @ cnt0 + pt.slice1 @ cnt1     # (K, L)
        fold_l = pt.fold_slices
        fold_c = pt.fold_channels
        port_req = np.concatenate(
            (pt.slice0 @ req0 + pt.llc1 @ req1,
             (pt.ic0 @ req0 + pt.ic1 @ req1) @ fold_l
             + pt.icm @ (reqm @ fold_c)), axis=1)
        port_rsp = np.concatenate(
            (pt.slice0 @ rsp0 + pt.llc1 @ rsp1,
             (pt.ic0 @ rsp0 + pt.ic1 @ rsp1) @ fold_l
             + pt.icm @ (rspm @ fold_c)), axis=1)

        # Ring messages per directed chip pair, and DRAM per channel.
        ring_bytes = (pt.fwd0 @ req0.sum(axis=1) + pt.bwd0 @ rsp0.sum(axis=1)
                      + pt.fwd1 @ req1.sum(axis=1)
                      + pt.bwd1 @ rsp1.sum(axis=1)
                      + pt.fwdm @ reqm.sum(axis=1)
                      + pt.bwdm @ rspm.sum(axis=1))
        ring_msgs = ((pt.fwd0 + pt.bwd0) @ cnt0.sum(axis=1)
                     + (pt.fwd1 + pt.bwd1) @ cnt1.sum(axis=1)
                     + (pt.fwdm + pt.bwdm) @ cntm.sum(axis=1))
        dram_reads = pt.dram @ (cntm - wrm)                   # (K, Ch)
        dram_writes = pt.dram @ wrm
        read_bytes = dram_reads * np.int64(rq + rsp)
        write_bytes = dram_writes * np.int64(rq + wd + rsp)
        dram_bytes = int(read_bytes.sum() + write_bytes.sum())

        # Dirty-eviction write-backs: serving chip -> home memory.
        if ev_addr.size:
            wb = self.line_size + params.response_header_bytes
            ev_home = self.page_table.homes_of(
                ev_addr >> np.int64(self._page_shift))
            ev_home = np.where(ev_home < 0, ev_serve, ev_home)
            per = np.bincount(
                (ev_serve * np.int64(K) + ev_home) * np.int64(Ch)
                + self._vectorized_channels(ev_addr),
                minlength=P * Ch).reshape(K, K, Ch)
            wb_writes = per.sum(axis=0)
            dram_writes = dram_writes + wb_writes
            write_bytes = write_bytes + wb_writes * np.int64(wb)
            dram_bytes += wb * int(ev_addr.size)
            wb_msgs = per.sum(axis=2).reshape(-1) * pt.off_diagonal
            ring_msgs = ring_msgs + wb_msgs
            ring_bytes = ring_bytes + wb_msgs * np.int64(wb)

        stats = self.stats
        for xbar, req_row, rsp_row in zip(self.crossbars, port_req.tolist(),
                                          port_rsp.tolist()):
            xbar.charge_ports(req_row, rsp_row)
        for part, charges in zip(self.dram, zip(
                read_bytes.tolist(), dram_reads.tolist(),
                write_bytes.tolist(), dram_writes.tolist())):
            part.charge_channels(*charges)
        ring_b = ring_bytes.tolist()
        ring_m = ring_msgs.tolist()
        for d in np.flatnonzero(ring_msgs).tolist():
            self.ring.charge_bulk(d // K, d % K, ring_b[d], ring_m[d])
        stats.inter_chip_bytes += int(ring_bytes.sum())
        stats.dram_bytes += dram_bytes
        requests = stats.slice_requests
        requests[:] = [a + b for a, b in
                       zip(requests, slice_counts.reshape(-1).tolist())]
        line = self.line_size
        self._slice_bytes = [
            [a + b * line for a, b in zip(row, counts)]
            for row, counts in zip(self._slice_bytes, slice_counts.tolist())]

        # Lookups, hits and response origins, relative to the requester.
        hits0 = by_pair[:, 1]
        hits1 = by_pair[:, 2]
        misses = by_pair[:, 0]
        hits = int(hits0.sum() + hits1.sum())
        kstats.accesses += n
        kstats.llc_lookups += n
        kstats.llc_hits += hits
        origins = stats.responses_by_origin
        local_llc = int(hits0 @ pt.local0 + hits1 @ pt.local1)
        origins[ORIGIN_LOCAL_LLC] += local_llc
        origins[ORIGIN_REMOTE_LLC] += hits - local_llc
        local_mem = int(misses @ pt.home_local)
        origins[ORIGIN_LOCAL_MEM] += local_mem
        origins[ORIGIN_REMOTE_MEM] += int(misses.sum()) - local_mem

        # Per-access latency for the MLP bound, summed per requester in
        # access order (see ``_PlanTable.latency``).
        sums = np.bincount(epoch.chips, weights=pt.latency[hk], minlength=K)
        for chip in range(K):
            if sums[chip]:
                self._latency_sum[chip] += float(sums[chip])

    def _vectorized_slices(
            self, addrs: np.ndarray,
            memo: Optional[Dict[tuple, object]] = None) -> np.ndarray:
        """Slice hash of ``addrs``; memoized in ``memo`` when given.

        The hash is a pure function of the address array plus the
        mapping parameters in the key, so a shared epoch's memo lets
        every run replaying the cached trace reuse one computation.  The
        memo keeps it frozen at the narrowest unsigned width that holds
        ``slices_per_chip - 1`` (uint8 for every shipped config), and a
        memoized read returns that array itself; see :meth:`_line_hash`.
        """
        return self._line_hash("slices", addrs, self.mapping.seed,
                               self.mapping.slices_per_chip, memo)

    def _vectorized_channels(
            self, addrs: np.ndarray,
            memo: Optional[Dict[tuple, object]] = None) -> np.ndarray:
        """Channel hash of ``addrs``; memoized like the slice hash."""
        inverted = int(~np.uint64(self.mapping.seed))
        return self._line_hash("channels", addrs, inverted,
                               self.mapping.channels_per_chip, memo)

    def _line_hash(self, kind: str, addrs: np.ndarray, seed: int,
                   modulus: int, memo: Optional[Dict[tuple, object]]
                   ) -> np.ndarray:
        """``_hash_mod`` of the line numbers of ``addrs``.

        Without ``memo`` the result is int64.  With one, it is kept
        under ``kind`` and the hash's parameters at the narrowest
        unsigned width that holds ``modulus - 1``, read-only, and every
        call returns that narrow array: a sum or product with an int64
        array or numpy int64 scalar promotes on its own, while one with
        a Python int stays narrow and wraps (see ``EpochTrace``).
        """
        key = (kind, self.line_size, seed, modulus)
        if memo is not None:
            hit = memo.get(key)
            if hit is not None:
                return cast(np.ndarray, hit)
        out = _hash_mod(addrs // self.line_size, seed, modulus)
        if memo is None:
            return out
        narrow = out.astype(np.min_scalar_type(modulus - 1))
        narrow.setflags(write=False)
        memo[key] = narrow
        return narrow

    def _access(self, chip: int, addr: int, is_write: bool,
                slice_index: int, channel: int, kstats: KernelStats) -> None:
        params = self.params
        kstats.accesses += 1
        home = self.page_table.home_chip(addr, chip)
        if self.migration is not None:
            self.migration.observe(addr >> self._page_shift, chip)
        plan = self.organization.plan(chip, home)
        req_bytes = params.request_bytes + (
            params.write_data_bytes if is_write else 0)
        rsp_bytes = self.line_size + params.response_header_bytes
        dedicated = self.dedicated_memory_network
        latency = 0.0
        hit_stage: Optional[int] = None
        kstats.llc_lookups += 1
        line_addr = addr & self._line_mask

        for stage_index, stage in enumerate(plan.stages):
            serve = stage.chip
            cache = self.llc[serve][slice_index]
            self.stats.slice_requests[
                serve * self.config.chip.llc_slices + slice_index] += 1
            # Charge the request leg to this stage.
            latency += self._charge_leg(chip, serve, slice_index, req_bytes,
                                        rsp_bytes, dedicated and
                                        stage_index > 0)
            self._slice_bytes[serve][slice_index] += self.line_size
            allocate = stage.allocate
            if allocate and stage.partition and \
                    self._remote_allocate is not None:
                # Insertion-policy organizations (LADM) decide per access
                # whether a remote line may enter the remote partition.
                allocate = self._remote_allocate(chip, addr)
            result = self._llc_access(cache, serve, addr, line_addr, is_write,
                                      stage.partition, allocate)
            latency += params.latency_llc
            if result:
                hit_stage = stage_index
                break

        if hit_stage is not None:
            kstats.llc_hits += 1
            origin = (ORIGIN_LOCAL_LLC
                      if plan.stages[hit_stage].chip == chip
                      else ORIGIN_REMOTE_LLC)
        else:
            # Full miss: the last probed chip forwards to the home memory.
            last = plan.stages[-1].chip
            latency += self._charge_memory_leg(chip, last, home, channel,
                                               req_bytes, rsp_bytes, is_write,
                                               dedicated)
            origin = ORIGIN_LOCAL_MEM if home == chip else ORIGIN_REMOTE_MEM
        self.stats.responses_by_origin[origin] += 1
        self._latency_sum[chip] += latency
        if is_write and self.hardware_coherence is not None and \
                self.organization.remote_scope is not None:
            self._propagate_write_invalidations(chip, line_addr, slice_index)
        self.organization.observe_access(self, chip, addr, home, hit_stage)

    def _llc_access(self, cache: SetAssociativeCache, serve: int, addr: int,
                    line_addr: int, is_write: bool, partition: int,
                    allocate: bool) -> bool:
        """Probe (and fill) one LLC slice; returns True on a hit."""
        directory = self.hardware_coherence \
            if self.organization.remote_scope is not None else None
        try:
            result = cache.access(addr, is_write, partition=partition,
                                  allocate_on_miss=allocate)
        except PartitionFullError:
            return False
        if result.hit:
            return True
        if result.evicted_addr is not None:
            self._writeback_eviction(serve, result)
            if directory is not None:
                directory.on_evict(result.evicted_addr & self._line_mask,
                                   serve)
        if allocate and directory is not None:
            directory.on_fill(line_addr, serve)
        return False

    def _writeback_eviction(self, chip: int,
                            result: AccessResult) -> None:
        if not result.evicted_dirty:
            return
        home = self.page_table.lookup(result.evicted_addr)
        if home is None:
            home = chip
        wb_bytes = self.line_size + self.params.response_header_bytes
        self.dram[home].charge(
            self.mapping.channel_of(result.evicted_addr), wb_bytes,
            is_write=True)
        self.stats.dram_bytes += wb_bytes
        if home != chip:
            self.ring.charge(chip, home, wb_bytes)
            self.stats.inter_chip_bytes += wb_bytes

    def _propagate_write_invalidations(self, chip: int, line_addr: int,
                                       slice_index: int) -> None:
        assert self.hardware_coherence is not None
        victims = self.hardware_coherence.on_write(line_addr, chip)
        for victim in victims:
            self.llc[victim][slice_index].invalidate(line_addr)
            self.stats.coherence_invalidations += 1

    # -- Traffic legs ---------------------------------------------------------

    def _charge_leg(self, src: int, dst: int, slice_index: int,
                    req_bytes: int, rsp_bytes: int,
                    skip_crossbar: bool) -> float:
        """Charge the SM->LLC request/response leg; returns its latency.

        Both the local and the remote leg are a request+response pair:
        the request crosses the crossbar to the LLC port and the response
        crosses back (Figure 6 paths 1-2), so both directions pay one
        ``latency_noc`` crossbar traversal each.  Remote legs additionally
        pay the ring hops between the chips.
        """
        params = self.params
        if src == dst:
            xbar = self.crossbars[src]
            port = xbar.llc_port(slice_index)
            xbar.charge_request(port, req_bytes)
            xbar.charge_response(port, rsp_bytes)
            return 2 * params.latency_noc
        hops = self.ring.hops(src, dst)
        self.ring.charge(src, dst, req_bytes)
        self.ring.charge(dst, src, rsp_bytes)
        self.stats.inter_chip_bytes += req_bytes + rsp_bytes
        if not skip_crossbar:
            link = slice_index % self.config.chip.noc.inter_chip_ports
            src_xbar = self.crossbars[src]
            dst_xbar = self.crossbars[dst]
            src_xbar.charge_request(src_xbar.inter_chip_port(link), req_bytes)
            src_xbar.charge_response(src_xbar.inter_chip_port(link), rsp_bytes)
            dst_xbar.charge_request(dst_xbar.llc_port(slice_index), req_bytes)
            dst_xbar.charge_response(dst_xbar.llc_port(slice_index), rsp_bytes)
        return 2 * params.latency_noc + hops * params.latency_ring_hop

    def _charge_memory_leg(self, requester: int, last: int, home: int,
                           channel: int, req_bytes: int, rsp_bytes: int,
                           is_write: bool, dedicated: bool) -> float:
        """Charge the LLC-miss -> home-DRAM leg; returns its latency."""
        params = self.params
        latency = params.latency_dram
        self.dram[home].charge(channel, req_bytes + rsp_bytes, is_write)
        self.stats.dram_bytes += req_bytes + rsp_bytes
        if last != home:
            # SM-side remote miss (SR): local slice -> inter-chip link ->
            # remote chip, bypassing the remote LLC slice (Figure 6 path 4).
            hops = self.ring.hops(last, home)
            self.ring.charge(last, home, req_bytes)
            self.ring.charge(home, last, rsp_bytes)
            self.stats.inter_chip_bytes += req_bytes + rsp_bytes
            if not dedicated:
                link = channel % self.config.chip.noc.inter_chip_ports
                last_xbar = self.crossbars[last]
                home_xbar = self.crossbars[home]
                last_xbar.charge_request(
                    last_xbar.inter_chip_port(link), req_bytes)
                last_xbar.charge_response(
                    last_xbar.inter_chip_port(link), rsp_bytes)
                home_xbar.charge_request(
                    home_xbar.inter_chip_port(link), req_bytes)
                home_xbar.charge_response(
                    home_xbar.inter_chip_port(link), rsp_bytes)
            latency += 2 * params.latency_noc + hops * params.latency_ring_hop
        return latency

    # -- Epoch settlement ---------------------------------------------------------

    def _settle_epoch(self, epoch: EpochTrace, kstats: KernelStats) -> None:
        if self.migration is not None:
            for _page, old_home, new_home in \
                    self.migration.end_epoch(self.page_table):
                # One page crosses the ring and touches both partitions.
                page_bytes = self.config.chip.memory.page_size
                self.ring.charge(old_home, new_home, page_bytes)
                self.stats.inter_chip_bytes += page_bytes
                channel = _page % self.config.chip.memory.channels_per_chip
                self.dram[old_home].charge(channel, page_bytes,
                                           is_write=False)
                self.dram[new_home].charge(channel, page_bytes,
                                           is_write=True)
                self.stats.dram_bytes += 2 * page_bytes
        if self.hardware_coherence is not None:
            messages = self.hardware_coherence.pop_epoch_messages()
            msg_bytes = self.hardware_coherence.message_bytes
            for src, dst in messages:
                self.ring.charge(src, dst, msg_bytes)
                self.stats.coherence_bytes += msg_bytes
                self.stats.inter_chip_bytes += msg_bytes
        slice_bw = self.config.chip.llc_slice_bw_bytes_per_cycle
        slice_cycles = max((b for chip in self._slice_bytes for b in chip),
                           default=0.0) / slice_bw
        crossbar_cycles = max(x.epoch_cycles() for x in self.crossbars)
        ring_cycles = self.ring.epoch_cycles()
        dram_cycles = max(p.epoch_cycles() for p in self.dram)
        latency_cycles = max(self._latency_sum) / \
            self.params.max_outstanding_per_chip
        candidates = {
            "compute": epoch.compute_cycles,
            "llc_slice": slice_cycles,
            "crossbar": crossbar_cycles,
            "inter_chip": ring_cycles,
            "dram": dram_cycles,
            "latency": latency_cycles,
        }
        bottleneck = max(candidates, key=candidates.get)
        cycles = candidates[bottleneck]
        self.stats.bottleneck_cycles[bottleneck] = \
            self.stats.bottleneck_cycles.get(bottleneck, 0.0) + cycles
        kstats.cycles += cycles
        kstats.epoch_cycles.append(cycles)
        self.last_epoch_cycles = cycles
        # Reset per-epoch accumulators.
        for chip_bytes in self._slice_bytes:
            for i in range(len(chip_bytes)):
                chip_bytes[i] = 0.0
        for i in range(len(self._latency_sum)):
            self._latency_sum[i] = 0.0
        for xbar in self.crossbars:
            xbar.end_epoch()
        self.ring.end_epoch()
        self.dram.end_epoch()

    # -- Figure 9 sampling ---------------------------------------------------------

    def _sample_allocation(self, weight: float) -> None:
        """Sample the local/remote composition of the LLC (Figure 9)."""
        local = 0
        remote = 0
        bank = self._llc_bank
        if bank is None:
            lookup = self.page_table.lookup
            for chip in range(self.config.num_chips):
                for cache in self.llc[chip]:
                    for line_addr, _line in cache.resident_lines():
                        home = lookup(line_addr)
                        if home is None or home == chip:
                            local += 1
                        else:
                            remote += 1
        else:
            # Vector path: one bank-wide listing of the resident lines,
            # homed in bulk; unallocated pages count as local (as the
            # serial path's None does).
            per_chip = self.config.chip.llc_slices
            cache_idx, addrs = bank.resident_addrs(
                0, self.config.num_chips * per_chip)
            if addrs.size:
                owner = cache_idx // np.int64(per_chip)
                homes = self.page_table.homes_of(
                    addrs >> np.int64(self.page_table._page_shift))
                remote = int(np.count_nonzero((homes >= 0)
                                              & (homes != owner)))
                local = int(addrs.size) - remote
        total = local + remote
        if total == 0 or weight <= 0:
            return
        # An all-local (or all-remote) sample adds its whole weight:
        # ``weight * n / n`` can round past ``weight``, and the fraction
        # past 1.
        self._alloc_weight += weight
        self._alloc_local += weight if remote == 0 else weight * local / total
        self._alloc_remote += weight if local == 0 else weight * remote / total

    def _finalize_allocation_stats(self) -> None:
        if self._alloc_weight > 0:
            self.stats.llc_local_fraction = \
                self._alloc_local / self._alloc_weight
            self.stats.llc_remote_fraction = \
                self._alloc_remote / self._alloc_weight


def _hash_mod(lines: np.ndarray, seed: int, modulus: int) -> np.ndarray:
    """Vectorized splitmix64 finalizer mod ``modulus`` (matches
    :func:`repro.memory.mapping._mix`)."""
    v = lines.astype(np.uint64) ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        v = v ^ (v >> np.uint64(31))
    return (v % np.uint64(modulus)).astype(np.int64)


#: Alias used by organizations' type hints.
EngineContext = SimulationEngine
