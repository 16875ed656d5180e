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

Software coherence flushes the LLC of organizations that cache remote
data at kernel boundaries; hardware coherence tracks sharers in a
directory and invalidates replicas on writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    Union,
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
from ..cache.vector import BatchResult, StagedResult, VectorBank, VectorCache
from ..coherence.hardware import HardwareCoherence
from ..coherence.software import SoftwareCoherence
from ..core import sanitize as _sanitize
from ..llc.base import LLCOrganization, RoutePlan
from ..memory.dram import DramSystem
from ..memory.mapping import AddressMapping
from ..memory.pages import PageTable
from ..noc.crossbar import Crossbar
from ..noc.ring import InterChipRing
from ..resilience.faults import KernelSolveError
from ..resilience.faults import fire as fault_fire
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
                      org_class: Type[LLCOrganization]) -> bool:
    """Whether a run resolves its epochs on the vector bank.

    Decided once, when the engine is built, from the config, the params
    and the organization's class.  The vector path precomputes homes,
    route plans and traffic totals with numpy and resolves every probe
    with one bank call, so it needs ``batched`` and ``vectorized`` and
    no component that needs a per-access side effect beyond the cache
    probes themselves: no page migration, no coherence directory, no
    per-access insertion filter (LADM's ``remote_allocate``), and an
    ``observe_access`` that is either the base no-op or reproduced by
    an ``observe_batch`` (SAC's profiling counters).  Every other run
    builds ``SetAssociativeCache`` slices and runs the serial engine,
    the oracle.
    """
    return (params.batched and params.vectorized
            and not params.page_migration
            and config.coherence.protocol == "software"
            and not hasattr(org_class, "remote_allocate")
            and (org_class.observe_access is LLCOrganization.observe_access
                 or hasattr(org_class, "observe_batch")))


#: What the driver answers a :class:`BankProbe` with: the bank call's
#: result, or ``None`` when the bank declined (the engine then resolves
#: the epoch on its serial per-access path).
ProbeOutcome = Union[BatchResult, StagedResult, None]

#: The cooperative epoch protocol: :meth:`SimulationEngine.run_steps`
#: yields each batched epoch's pending bank invocation and receives the
#: outcome via ``send``.
ProbeGen = Generator["BankProbe", ProbeOutcome, None]


@dataclass
class BankProbe:
    """One batched epoch's pending vector-bank invocation.

    Yielded by :meth:`SimulationEngine.run_steps`.  The index arrays are
    *lane-local* (exactly what a standalone engine would pass);
    ``base`` is the engine's cache offset within ``bank`` and ``lane``
    the absolute ``[lo, hi)`` cache range its gate must check, so a
    driver multiplexing several engines over one stacked bank can
    concatenate probes and hand each lane back a lane-local result.
    """

    bank: VectorBank
    kind: str  # "grouped" | "staged"
    base: int
    lane: Tuple[int, int]
    addrs: np.ndarray
    writes: np.ndarray
    idx0: np.ndarray
    part0: Optional[np.ndarray] = None
    two_stage: Optional[np.ndarray] = None
    idx1: Optional[np.ndarray] = None
    part1: Optional[np.ndarray] = None
    #: Key for the ``kernel.solve_error`` fault site (the owning
    #: engine's organization name); ``None`` disables injection.
    fault_key: Optional[str] = None

    def abs_idx0(self) -> np.ndarray:
        """Stage-0 cache indices in the bank's absolute numbering."""
        return self.idx0 + self.base if self.base else self.idx0

    def abs_idx1(self) -> np.ndarray:
        """Stage-1 cache indices in the bank's absolute numbering."""
        assert self.idx1 is not None
        return self.idx1 + self.base if self.base else self.idx1

    def localize(self, staged: Optional[StagedResult]
                 ) -> Optional[StagedResult]:
        """Shift a staged result's eviction indices back lane-local."""
        if staged is None or not self.base:
            return staged
        return StagedResult(staged.hit_stage,
                            staged.evicted_cache - self.base,
                            staged.evicted_addr)

    def invoke(self) -> ProbeOutcome:
        """Resolve this probe alone (the standalone-run driver)."""
        if fault_fire("kernel.solve_error", key=self.fault_key) is not None:
            raise KernelSolveError("kernel.solve_error", key=self.fault_key)
        if self.kind == "grouped":
            return self.bank.access_many_grouped(
                self.abs_idx0(), self.addrs, self.writes,
                lanes=[self.lane])
        assert self.part0 is not None and self.two_stage is not None \
            and self.part1 is not None
        staged = self.bank.access_many_staged(
            self.addrs, self.writes, self.abs_idx0(), self.part0,
            self.two_stage, self.abs_idx1(), self.part1,
            lanes=[self.lane])
        return self.localize(staged)


class SimulationEngine:
    """Runs one benchmark trace under one LLC organization.

    An engine owns the full per-lane state of one run — crossbars, ring,
    DRAM, page table and :class:`RunStats` accumulators.  A run that
    takes the vector path (:func:`takes_vector_path`) keeps its LLC
    slices in a :class:`VectorBank`, by default its own; pass
    ``llc_bank``/``llc_bank_base`` to mount them as one *lane* of a
    shared stacked bank (see :mod:`repro.sim.stacked`), which changes
    where the tag rows live but not a single simulated outcome.  Every
    other run keeps ``SetAssociativeCache`` slices and mounting a bank
    on it raises ``ValueError``.
    """

    def __init__(self, config: SystemConfig, organization: LLCOrganization,
                 params: Optional[EngineParams] = None,
                 llc_bank: Optional[VectorBank] = None,
                 llc_bank_base: int = 0) -> None:
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
        self._bank_base = 0
        if not takes_vector_path(config, self.params, type(organization)):
            if llc_bank is not None:
                raise ValueError(
                    "a shared llc_bank requires a run that takes the "
                    "vector path (see takes_vector_path)")
            self.llc = [
                [SetAssociativeCache(llc_cfg, name=f"llc{c}.{s}")
                 for s in range(chip_cfg.llc_slices)]
                for c in range(config.num_chips)]
        else:
            total = config.total_llc_slices
            if llc_bank is None:
                llc_bank = VectorBank(
                    llc_cfg, [f"llc{c}.{s}" for c in range(config.num_chips)
                              for s in range(chip_cfg.llc_slices)])
                llc_bank_base = 0
            elif llc_bank.config != llc_cfg:
                raise ValueError(
                    "shared llc_bank geometry does not match this "
                    "engine's LLC slice config")
            elif not 0 <= llc_bank_base <= len(llc_bank.caches) - total:
                raise ValueError(
                    f"llc_bank_base {llc_bank_base} leaves no room for "
                    f"{total} slices in a bank of {len(llc_bank.caches)}")
            # This engine's LLC is one lane of the bank (all of it when
            # the engine built the bank itself).
            self._llc_bank = llc_bank
            self._bank_base = llc_bank_base
            self.llc = [self._bank_slices(llc_bank, c)
                        for c in range(config.num_chips)]
        self.crossbars = [Crossbar(chip_cfg.noc, chip=c)
                          for c in range(config.num_chips)]
        self.ring = InterChipRing(config.inter_chip, config.num_chips)
        self.dram = DramSystem(chip_cfg.memory, config.num_chips)
        self.software_coherence: Optional[SoftwareCoherence] = None
        self.hardware_coherence: Optional[HardwareCoherence] = None
        if config.coherence.protocol == "software":
            self.software_coherence = SoftwareCoherence(
                config.coherence, self.line_size)
        else:
            self.hardware_coherence = HardwareCoherence(
                config.coherence, config.num_chips)
        # Per-epoch LLC slice service bytes, [chip][slice].
        self._slice_bytes = [[0.0] * chip_cfg.llc_slices
                             for _ in range(config.num_chips)]
        # Per-epoch accumulated request latency per chip (for the MLP bound).
        self._latency_sum = [0.0] * config.num_chips
        # Cycles charged outside epochs (reconfiguration, flushes).
        self._pending_cycles = 0.0
        self.last_epoch_cycles = 0.0
        self.stats.slice_requests = [0] * config.total_llc_slices
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

    def _bank_slices(self, bank: VectorBank, chip: int) -> List[VectorCache]:
        """Chip ``chip``'s LLC slices: views of this engine's bank lane."""
        per_chip = self.config.chip.llc_slices
        lo = self._bank_base + chip * per_chip
        return bank.caches[lo:lo + per_chip]

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
        home_of = self.page_table._home.get
        shift = self.page_table._page_shift
        bank = self._llc_bank
        # Chips flush concurrently: the run is delayed by the slowest one.
        worst_cycles = 0.0
        for chip in chip_list:
            dirty_bytes_by_home: Dict[int, int] = {}
            invalidated = 0
            dirty = 0
            if bank is not None:
                # A vector-path run has no coherence directory to
                # notify, so its bank drains wholesale (any
                # partition/dirty_only mode) and the dirty lines are
                # homed by unique page (pages interleave across a chip's
                # slices, so uniquing at the chip level collapses the
                # per-slice duplicates too).
                drained_chip = []
                for vcache in self._bank_slices(bank, chip):
                    drained, lines, dirties = vcache.drain(
                        partition=partition, dirty_only=dirty_only)
                    drained_chip.append(drained)
                    invalidated += lines
                    dirty += dirties
                all_dirty = np.concatenate(drained_chip)
                if all_dirty.size:
                    pages, counts = np.unique(all_dirty >> shift,
                                              return_counts=True)
                    for page, n in zip(pages.tolist(), counts.tolist()):
                        home = home_of(page)
                        if home is None:
                            home = chip
                        dirty_bytes_by_home[home] = \
                            dirty_bytes_by_home.get(home, 0) \
                            + self.line_size * n
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
                            if home is None:
                                home = chip
                            dirty_bytes_by_home[home] = \
                                dirty_bytes_by_home.get(home, 0) \
                                + self.line_size
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
            writeback = sum(dirty_bytes_by_home.values())
            remote_wb = sum(b for home, b in dirty_bytes_by_home.items()
                            if home != chip)
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
        """Simulate every kernel launch and return the aggregate stats.

        This is the standalone driver of :meth:`run_steps`: every bank
        probe the generator yields is resolved immediately against this
        engine's own lane.
        """
        steps = self.run_steps(kernels, benchmark)
        outcome: ProbeOutcome = None
        while True:
            try:
                probe = steps.send(outcome)
            except StopIteration:
                return self.stats
            outcome = probe.invoke()

    def run_steps(self, kernels: Iterable[KernelTrace],
                  benchmark: str = "") -> ProbeGen:
        """Cooperative form of :meth:`run`.

        Yields a :class:`BankProbe` for each batched epoch's pending
        vector-bank invocation and expects the outcome back via
        ``send`` (``None`` means the bank declined and the engine
        resolves that epoch serially).  A stacked driver
        multiplexes many engines' generators over shared banks; the
        control flow is byte-for-byte the one a standalone :meth:`run`
        executes, which is what keeps stacked lanes bit-identical.
        """
        self.stats.benchmark = benchmark
        base_violations = _sanitize.report().count
        for kernel in kernels:
            yield from self._run_kernel(kernel)
        self._finalize_allocation_stats()
        # Violations recorded while this lane ran (0 unless a kernel
        # contract broke and the raising error was contained upstream).
        self.stats.sanitizer_violations = \
            _sanitize.report().count - base_violations

    def _run_kernel(self, kernel: KernelTrace) -> ProbeGen:
        kstats = KernelStats(name=kernel.name)
        self.organization.begin_kernel(self, kernel.name)
        for index, epoch in enumerate(kernel.epochs):
            self.organization.begin_epoch(self, index)
            if self.organization.profiling:
                head, tail = self._split_profile_window(epoch)
                yield from self._run_epoch(head, kstats)
                self.organization.profile_boundary(self)
                if tail is not None:
                    yield from self._run_epoch(tail, kstats)
            else:
                yield from self._run_epoch(epoch, kstats)
            self.organization.end_epoch(self, index)
        self._sample_allocation(kstats.cycles)
        # Capture the mode the kernel actually ran in (and the coherence
        # obligations it accrued) before SAC reverts to memory-side.
        kstats.organization = self.organization.mode
        flush_partitions = self.organization.flush_partitions()
        cached_remote_data = self.organization.caches_remote_data
        self.organization.end_kernel(self)
        self._kernel_boundary_flush(flush_partitions, cached_remote_data)
        # Reconfiguration/flush overhead charged during the kernel.
        if self._pending_cycles:
            kstats.cycles += self._pending_cycles
            kstats.reconfig_cycles += self._pending_cycles
            self._pending_cycles = 0.0
        kstats.reconfigured = kstats.reconfig_cycles > 0
        self.stats.merge_kernel(kstats)

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
        head = EpochTrace(
            chips=epoch.chips[:cut], clusters=epoch.clusters[:cut],
            addrs=epoch.addrs[:cut], writes=epoch.writes[:cut],
            compute_cycles=epoch.compute_cycles * cut / len(epoch))
        tail = EpochTrace(
            chips=epoch.chips[cut:], clusters=epoch.clusters[cut:],
            addrs=epoch.addrs[cut:], writes=epoch.writes[cut:],
            compute_cycles=epoch.compute_cycles * (len(epoch) - cut)
            / len(epoch))
        return head, tail

    def _kernel_boundary_flush(
            self, flush_partitions: List[Tuple[Optional[int], int]],
            cached_remote_data: bool) -> None:
        """Kernel-boundary coherence flush of remote-caching LLC partitions.

        ``flush_partitions`` and ``cached_remote_data`` are captured from
        the organization *before* its ``end_kernel`` hook so that SAC's
        revert-to-memory-side does not erase the coherence obligations of
        the mode the kernel actually ran in.
        """
        if self.software_coherence is not None:
            for chip, partition in flush_partitions:
                chips = None if chip is None else [chip]
                if partition is not None and \
                        self.organization.name in ("static", "dynamic"):
                    self.flush_llc(partition=partition, chips=chips)
                else:
                    self.flush_llc(partition=None, chips=chips)
        elif self.hardware_coherence is not None and cached_remote_data:
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

    def _run_epoch(self, epoch: EpochTrace, kstats: KernelStats) -> ProbeGen:
        if self._llc_bank is not None:
            yield from self._run_epoch_batched(epoch, kstats)
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
                           ) -> ProbeGen:
        """Batched epoch execution.

        Functionally identical to :meth:`_run_epoch_serial`: one
        vector-bank call resolves the same LLC probes in the same order
        (the caches are the only sequential state), while page-home
        resolution, route planning and every resource charge are
        precomputed or aggregated with numpy.  All aggregated quantities
        are integer byte counts or sums of exactly-representable
        latencies, so the resulting ``RunStats`` are bit-identical to
        the per-access path for the default parameters (and agree to
        float round-off for any others).

        The bank invocations themselves are *yielded* as
        :class:`BankProbe` requests rather than called inline, so the
        same code path serves both standalone runs (the driver in
        :meth:`run` invokes each probe immediately) and stacked runs
        (the driver batches co-resident lanes into one call).

        An epoch the bank declines runs on :meth:`_run_epoch_serial`
        instead.  Nothing is charged before the bank call, and the page
        homes resolved here were allocated in first-touch order, so the
        serial rerun finds the same homes and counts nothing twice.
        """
        bank = self._llc_bank
        assert bank is not None
        params = self.params
        config = self.config
        num_chips = config.num_chips
        n = len(epoch)
        chips_np = epoch.chips
        writes_np = epoch.writes
        addrs_np = epoch.addrs
        slices_np = self._vectorized_slices(addrs_np, epoch.derived)
        channels_np = self._vectorized_channels(addrs_np, epoch.derived)
        homes_np = self._batched_homes(epoch)
        pair_np = chips_np * num_chips + homes_np

        org = self.organization
        num_pairs = num_chips * num_chips
        plans = [org.plan(p // num_chips, p % num_chips)
                 for p in range(num_pairs)]

        # Per-(requester, home) pair stage decomposition.
        st0_chip = [plan.stages[0].chip for plan in plans]
        st0_part = [plan.stages[0].partition for plan in plans]
        st0_alloc = [plan.stages[0].allocate for plan in plans]
        st1 = [(plan.stages[1].chip, plan.stages[1].partition,
                plan.stages[1].allocate) if len(plan.stages) > 1 else None
               for plan in plans]

        # Cache probes: the only sequentially-stateful work in the epoch.
        # Uniform single-stage epochs are resolved with one grouped
        # kernel call, partitioned plans of up to two
        # allocate-on-miss stages with one staged call.
        llc_slices = config.chip.llc_slices
        serve0_np = np.array(st0_chip, dtype=np.int64)[pair_np]
        idx0_np = serve0_np * llc_slices + slices_np
        uniform = (all(s is None for s in st1)
                   and len(set(st0_part)) == 1 and len(set(st0_alloc)) == 1)
        two_stage = np.array([s is not None for s in st1],
                             dtype=bool)[pair_np]
        serve1 = np.array([s[0] if s is not None else 0 for s in st1],
                          dtype=np.int64)[pair_np]
        batch: Optional[BatchResult] = None
        staged: Optional[StagedResult] = None
        base = self._bank_base
        lane = (base, base + config.total_llc_slices)
        if uniform and st0_part[0] == UNPARTITIONED and st0_alloc[0]:
            probe = BankProbe(
                bank=bank, kind="grouped", base=base, lane=lane,
                addrs=addrs_np, writes=writes_np, idx0=idx0_np,
                fault_key=org.name)
            if org.profiling:
                # Profiling slices are lane-private head/tail cuts that
                # never match another lane's stream; resolving them
                # inline keeps the stacked driver's round alignment (and
                # hence stream sharing) intact for the shared epochs.
                batch = cast(Optional[BatchResult], probe.invoke())
            else:
                batch = cast(Optional[BatchResult], (yield probe))
        if batch is not None:
            hs = np.where(batch.hits, np.int64(0), np.int64(-1))
        else:
            if self._staged_shape_ok(plans):
                part0_np = np.array(st0_part, dtype=np.int64)[pair_np]
                part1_np = np.array(
                    [s[1] if s is not None else 0 for s in st1],
                    dtype=np.int64)[pair_np]
                idx1_np = serve1 * llc_slices + slices_np
                probe = BankProbe(
                    bank=bank, kind="staged", base=base,
                    lane=lane, addrs=addrs_np, writes=writes_np,
                    idx0=idx0_np, part0=part0_np, two_stage=two_stage,
                    idx1=idx1_np, part1=part1_np, fault_key=org.name)
                if org.profiling:
                    # Same round-alignment rationale as the grouped
                    # branch above.
                    staged = cast(Optional[StagedResult], probe.invoke())
                else:
                    staged = cast(Optional[StagedResult], (yield probe))
            if staged is None:
                # The bank declined: resolve the whole epoch serially.
                self.stats.scalar_epochs += 1
                self._run_epoch_serial(epoch, kstats)
                return
            hs = staged.hit_stage
        self.stats.vector_epochs += 1

        # Everything below is pure accounting over the recorded outcomes.
        # Every access probes its stage-0 slice.
        probed0 = np.ones(n, dtype=bool)
        kstats.accesses += n
        kstats.llc_lookups += n
        kstats.llc_hits += int((hs >= 0).sum())
        req_np = params.request_bytes + \
            params.write_data_bytes * writes_np.astype(np.int64)
        rsp = self.line_size + params.response_header_bytes
        dedicated = bool(getattr(org, "dedicated_memory_network", False))
        total_slices = config.total_llc_slices

        serve0 = serve0_np
        probed1 = probed0 & two_stage & (hs != 0)

        # Per-slice request counts and LLC service bytes.
        slice_counts = np.zeros(total_slices, dtype=np.int64)
        for probed, serve_np in ((probed0, serve0), (probed1, serve1)):
            if probed.any():
                idx = serve_np[probed] * llc_slices + slices_np[probed]
                slice_counts += np.bincount(idx, minlength=total_slices)
        requests = self.stats.slice_requests
        for g in np.flatnonzero(slice_counts).tolist():
            count = int(slice_counts[g])
            requests[g] += count
            self._slice_bytes[g // llc_slices][g % llc_slices] += \
                count * self.line_size

        # Request/response legs of every probed stage.
        for k, (probed, serve_np) in enumerate(((probed0, serve0),
                                                (probed1, serve1))):
            if not probed.any():
                continue
            pidx = np.flatnonzero(probed)
            chips_s = chips_np.take(pidx)
            serve_s = serve_np.take(pidx)
            slices_s = slices_np.take(pidx)
            req_s = req_np.take(pidx)
            local = serve_s == chips_s
            lidx = np.flatnonzero(local)
            if lidx.size:
                self._charge_local_stages(chips_s.take(lidx),
                                          slices_s.take(lidx),
                                          req_s.take(lidx), rsp)
            ridx = np.flatnonzero(~local)
            if ridx.size:
                self._charge_remote_stages(chips_s.take(ridx),
                                           serve_s.take(ridx),
                                           slices_s.take(ridx),
                                           req_s.take(ridx), rsp,
                                           skip_crossbar=dedicated and k > 0)

        # Full misses: the last probed chip forwards to the home memory.
        miss = hs == -1
        if miss.any():
            last_np = np.array([plan.stages[-1].chip for plan in plans],
                               dtype=np.int64)[pair_np]
            self._charge_memory_legs(miss, last_np, homes_np, channels_np,
                                     writes_np, req_np, rsp, dedicated)

        # Dirty evictions collected during the probe phase.
        if batch is not None:
            dirty_sel = batch.evicted_dirty
            if dirty_sel.any():
                self._charge_eviction_writebacks(
                    serve0_np[dirty_sel], batch.evicted_addr[dirty_sel])
        elif staged is not None and staged.evicted_addr.size:
            self._charge_eviction_writebacks(
                staged.evicted_cache // llc_slices, staged.evicted_addr)

        # Response origins (relative to the requesting chip).
        hits = hs >= 0
        origins = self.stats.responses_by_origin
        if hits.any():
            hit_serve = np.where(hs == 1, serve1, serve0)
            local_hits = int((hits & (hit_serve == chips_np)).sum())
            origins[ORIGIN_LOCAL_LLC] += local_hits
            origins[ORIGIN_REMOTE_LLC] += int(hits.sum()) - local_hits
        if miss.any():
            local_mem = int((miss & (homes_np == chips_np)).sum())
            origins[ORIGIN_LOCAL_MEM] += local_mem
            origins[ORIGIN_REMOTE_MEM] += int(miss.sum()) - local_mem

        # Per-access latency for the MLP bound, grouped by requester chip.
        self._accumulate_latency(plans, pair_np, chips_np, probed0, probed1,
                                 miss)
        if (org.profiling or not org.observe_is_passive) and \
                hasattr(org, "observe_batch"):
            # Replicate the serial path's per-access observe_access
            # stream in one batched call (profiling counters).
            org.observe_batch(self, chips_np, addrs_np, homes_np,
                              slices_np, hs)
        self._settle_epoch(epoch, kstats)

    @staticmethod
    def _staged_shape_ok(plans: List[RoutePlan]) -> bool:
        """Whether the epoch's route plans fit the staged vector solver.

        The two-phase decomposition in
        :meth:`VectorBank.access_many_staged` reproduces the serial
        probe order exactly for plans of at most two allocate-on-miss
        stages; the solver itself verifies at runtime that the phases
        share no row and that every probed row fits its drain model,
        and declines (returning ``None``) when either does not hold.
        """
        for plan in plans:
            if len(plan.stages) > 2:
                return False
            for stage in plan.stages:
                if not stage.allocate:
                    return False
        return True

    def _batched_homes(self, epoch: EpochTrace) -> np.ndarray:
        """Vectorized first-touch home resolution for one epoch.

        Unique pages are resolved (and allocated) through the page table
        in order of first touch, so round-robin allocation assigns the
        same homes as the per-access path.  The page decomposition
        (unique pages in first-touch order plus the scatter indices) is
        a pure function of the epoch's arrays and is memoized on the
        epoch, so lanes sharing the trace sort it once; the page-table
        resolution itself stays per-lane — each lane allocates its own
        table and organizations may migrate pages mid-run.
        """
        key = ("pages", self._page_shift)
        prep = epoch.derived.get(key)
        if prep is None:
            pages = epoch.addrs >> np.int64(self._page_shift)
            uniq, first_idx, inverse = np.unique(
                pages, return_index=True, return_inverse=True)
            order = np.argsort(first_idx, kind="stable")
            order.setflags(write=False)
            inverse.setflags(write=False)
            prep = (uniq[order].tolist(),
                    epoch.chips[first_idx[order]].tolist(),
                    order, inverse)
            epoch.derived[key] = prep
        pages_ft, chips_ft, order, inverse = cast(
            Tuple[List[int], List[int], np.ndarray, np.ndarray], prep)
        homes = self.page_table.bulk_home(pages_ft, chips_ft)
        homes_by_uniq = np.empty(len(pages_ft), dtype=np.int64)
        homes_by_uniq[order] = homes
        return homes_by_uniq[inverse]

    def _charge_local_stages(self, chips_s: np.ndarray,
                             slices_s: np.ndarray, req_s: np.ndarray,
                             rsp: int) -> None:
        """Aggregate same-chip stage legs onto the local crossbars.

        All array arguments are pre-compacted to the selected accesses
        (one ``flatnonzero``/``take`` at the call site instead of a
        boolean re-mask per array here).
        """
        llc_slices = self.config.chip.llc_slices
        idx = chips_s * llc_slices + slices_s
        total = self.config.total_llc_slices
        counts = np.bincount(idx, minlength=total)
        req_sums = np.bincount(idx, weights=req_s, minlength=total)
        for g in np.flatnonzero(counts).tolist():
            xbar = self.crossbars[g // llc_slices]
            port = xbar.llc_port(g % llc_slices)
            xbar.charge_request(port, int(req_sums[g]))
            xbar.charge_response(port, rsp * int(counts[g]))

    def _charge_remote_stages(self, chips_s: np.ndarray,
                              serve_s: np.ndarray, slices_s: np.ndarray,
                              req_s: np.ndarray, rsp: int,
                              skip_crossbar: bool) -> None:
        """Aggregate cross-chip stage legs onto the ring and crossbars.

        Arguments are pre-compacted like :meth:`_charge_local_stages`.
        """
        num_chips = self.config.num_chips
        num_pairs = num_chips * num_chips
        pairs = chips_s * num_chips + serve_s
        counts = np.bincount(pairs, minlength=num_pairs)
        req_sums = np.bincount(pairs, weights=req_s,
                               minlength=num_pairs)
        for p in np.flatnonzero(counts).tolist():
            src, dst = divmod(p, num_chips)
            messages = int(counts[p])
            req_total = int(req_sums[p])
            rsp_total = rsp * messages
            self.ring.charge_bulk(src, dst, req_total, messages)
            self.ring.charge_bulk(dst, src, rsp_total, messages)
            self.stats.inter_chip_bytes += req_total + rsp_total
        if skip_crossbar:
            return
        ip = self.config.chip.noc.inter_chip_ports
        links = slices_s % ip
        self._charge_xbar_ports(chips_s * ip + links, ip, True,
                                req_s, rsp)
        llc_slices = self.config.chip.llc_slices
        self._charge_xbar_ports(serve_s * llc_slices + slices_s,
                                llc_slices, False, req_s, rsp)

    def _charge_xbar_ports(self, idx: np.ndarray, ports_per_chip: int,
                           inter_chip: bool, req_sel: np.ndarray,
                           rsp: int) -> None:
        """Charge grouped request/response bytes to crossbar ports.

        ``idx`` encodes ``chip * ports_per_chip + port``; ``inter_chip``
        selects the inter-chip port bank instead of the LLC ports.
        """
        nbins = self.config.num_chips * ports_per_chip
        counts = np.bincount(idx, minlength=nbins)
        req_sums = np.bincount(idx, weights=req_sel, minlength=nbins)
        for g in np.flatnonzero(counts).tolist():
            xbar = self.crossbars[g // ports_per_chip]
            port = g % ports_per_chip
            port = xbar.inter_chip_port(port) if inter_chip else \
                xbar.llc_port(port)
            xbar.charge_request(port, int(req_sums[g]))
            xbar.charge_response(port, rsp * int(counts[g]))

    def _charge_memory_legs(self, miss: np.ndarray, last_np: np.ndarray,
                            homes_np: np.ndarray, channels_np: np.ndarray,
                            writes_np: np.ndarray, req_np: np.ndarray,
                            rsp: int, dedicated: bool) -> None:
        """Aggregate the LLC-miss -> home-DRAM legs."""
        config = self.config
        num_chips = config.num_chips
        midx = np.flatnonzero(miss)
        last_s = last_np.take(midx)
        homes_s = homes_np.take(midx)
        channels_s = channels_np.take(midx)
        writes_s = writes_np.take(midx)
        req_s = req_np.take(midx)
        tot_s = req_s + rsp
        channels_per_chip = config.chip.memory.channels_per_chip
        nbins = num_chips * channels_per_chip
        didx = homes_s * channels_per_chip + channels_s
        for is_write, ix in ((True, np.flatnonzero(writes_s)),
                             (False, np.flatnonzero(~writes_s))):
            if not ix.size:
                continue
            d = didx.take(ix)
            counts = np.bincount(d, minlength=nbins)
            sums = np.bincount(d, weights=tot_s.take(ix),
                               minlength=nbins)
            for g in np.flatnonzero(counts).tolist():
                self.dram[g // channels_per_chip].charge_bulk(
                    g % channels_per_chip, int(sums[g]), int(counts[g]),
                    is_write)
        self.stats.dram_bytes += int(tot_s.sum())
        ridx = np.flatnonzero(last_s != homes_s)
        if not ridx.size:
            return
        last_r = last_s.take(ridx)
        homes_r = homes_s.take(ridx)
        req_r = req_s.take(ridx)
        num_pairs = num_chips * num_chips
        pairs = last_r * num_chips + homes_r
        counts = np.bincount(pairs, minlength=num_pairs)
        req_sums = np.bincount(pairs, weights=req_r,
                               minlength=num_pairs)
        for p in np.flatnonzero(counts).tolist():
            last, home = divmod(p, num_chips)
            messages = int(counts[p])
            req_total = int(req_sums[p])
            rsp_total = rsp * messages
            self.ring.charge_bulk(last, home, req_total, messages)
            self.ring.charge_bulk(home, last, rsp_total, messages)
            self.stats.inter_chip_bytes += req_total + rsp_total
        if dedicated:
            return
        ip = config.chip.noc.inter_chip_ports
        links = channels_s.take(ridx) % ip
        for side_r in (last_r, homes_r):
            self._charge_xbar_ports(side_r * ip + links, ip, True,
                                    req_r, rsp)

    def _charge_eviction_writebacks(self, serves_np: np.ndarray,
                                    addrs_np: np.ndarray) -> None:
        """Aggregate dirty-eviction write-backs collected by the fast path.

        ``serves_np``/``addrs_np`` give each dirty eviction's serving
        chip and line address.
        """
        num_chips = self.config.num_chips
        wb = self.line_size + self.params.response_header_bytes
        channels = self._vectorized_channels(addrs_np)
        home_of = self.page_table._home.get
        shift = self.page_table._page_shift
        pages, inverse = np.unique(addrs_np >> shift, return_inverse=True)
        page_home = np.empty(pages.size, dtype=np.int64)
        for i, page in enumerate(pages.tolist()):
            home = home_of(page)
            page_home[i] = -1 if home is None else home
        homes_np = page_home[inverse]
        homes_np = np.where(homes_np < 0, serves_np, homes_np)
        channels_per_chip = self.config.chip.memory.channels_per_chip
        didx = homes_np * channels_per_chip + channels
        counts = np.bincount(didx,
                             minlength=num_chips * channels_per_chip)
        for g in np.flatnonzero(counts).tolist():
            self.dram[g // channels_per_chip].charge_bulk(
                g % channels_per_chip, wb * int(counts[g]), int(counts[g]),
                is_write=True)
        self.stats.dram_bytes += wb * len(addrs_np)
        remote = homes_np != serves_np
        if not remote.any():
            return
        pairs = serves_np[remote] * num_chips + homes_np[remote]
        counts = np.bincount(pairs, minlength=num_chips * num_chips)
        for p in np.flatnonzero(counts).tolist():
            src, dst = divmod(p, num_chips)
            total = wb * int(counts[p])
            self.ring.charge_bulk(src, dst, total, int(counts[p]))
            self.stats.inter_chip_bytes += total

    def _accumulate_latency(self, plans: List, pair_np: np.ndarray,
                            chips_np: np.ndarray, probed0: np.ndarray,
                            probed1: np.ndarray, miss: np.ndarray) -> None:
        """Accumulate the per-access latency sums used by the MLP bound.

        Per-pair leg latencies are computed with the same scalar
        expressions as :meth:`_charge_leg`/:meth:`_charge_memory_leg` and
        summed per requesting chip in access order, so the result matches
        the serial path exactly.
        """
        params = self.params
        num_chips = self.config.num_chips
        hops = self.ring.hops

        def leg_latency(src: int, dst: int) -> float:
            if src == dst:
                return 2 * params.latency_noc
            return 2 * params.latency_noc + \
                hops(src, dst) * params.latency_ring_hop

        leg0 = []
        leg1 = []
        mem = []
        for p, plan in enumerate(plans):
            requester, home = divmod(p, num_chips)
            leg0.append(leg_latency(requester, plan.stages[0].chip))
            leg1.append(leg_latency(requester, plan.stages[1].chip)
                        if len(plan.stages) > 1 else 0.0)
            last = plan.stages[-1].chip
            mem_latency = params.latency_dram
            if last != home:
                mem_latency += 2 * params.latency_noc + \
                    hops(last, home) * params.latency_ring_hop
            mem.append(mem_latency)
        # Full-length gathers from the tiny per-pair tables, zeroed by the
        # stage masks, add in the same per-element order as the masked
        # scatter-adds they replace (leg first, then the LLC latency).
        lat = np.array(leg0, dtype=np.float64)[pair_np] * probed0
        lat += params.latency_llc * probed0
        if probed1.any():
            lat += np.array(leg1, dtype=np.float64)[pair_np] * probed1
            lat += params.latency_llc * probed1
        midx = np.flatnonzero(miss)
        if midx.size:
            lat[midx] += np.array(mem, dtype=np.float64)[pair_np.take(midx)]
        sums = np.bincount(chips_np, weights=lat, minlength=num_chips)
        for chip in range(num_chips):
            if sums[chip]:
                self._latency_sum[chip] += float(sums[chip])

    def _vectorized_slices(
            self, addrs: np.ndarray,
            memo: Optional[Dict[tuple, object]] = None) -> np.ndarray:
        """Slice hash of ``addrs``; memoized in ``memo`` when given.

        The hash is a pure function of the address array plus the
        mapping parameters in the key, so a shared epoch's memo lets
        every sweep lane (and every best-of-N rep replaying the cached
        trace) reuse one computation.  Memoized arrays are frozen —
        consumers only ever read them.
        """
        key = ("slices", self.line_size, self.mapping.seed,
               self.mapping.slices_per_chip)
        if memo is not None:
            hit = memo.get(key)
            if hit is not None:
                return cast(np.ndarray, hit)
        out = _hash_mod(addrs // self.line_size, self.mapping.seed,
                        self.mapping.slices_per_chip)
        if memo is not None:
            out.setflags(write=False)
            memo[key] = out
        return out

    def _vectorized_channels(
            self, addrs: np.ndarray,
            memo: Optional[Dict[tuple, object]] = None) -> np.ndarray:
        """Channel hash of ``addrs``; memoized like the slice hash."""
        inverted = int(~np.uint64(self.mapping.seed))
        key = ("channels", self.line_size, inverted,
               self.mapping.channels_per_chip)
        if memo is not None:
            hit = memo.get(key)
            if hit is not None:
                return cast(np.ndarray, hit)
        out = _hash_mod(addrs // self.line_size, inverted,
                        self.mapping.channels_per_chip)
        if memo is not None:
            out.setflags(write=False)
            memo[key] = out
        return out

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
        dedicated = getattr(self.organization, "dedicated_memory_network",
                            False)
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
                    hasattr(self.organization, "remote_allocate"):
                # Insertion-policy organizations (LADM) decide per access
                # whether a remote line may enter the remote partition.
                allocate = self.organization.remote_allocate(chip, addr)
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
                self.organization.caches_remote_data:
            self._propagate_write_invalidations(chip, line_addr, slice_index)
        self.organization.observe_access(self, chip, addr, home, hit_stage)

    def _llc_access(self, cache: SetAssociativeCache, serve: int, addr: int,
                    line_addr: int, is_write: bool, partition: int,
                    allocate: bool) -> bool:
        """Probe (and fill) one LLC slice; returns True on a hit."""
        directory = self.hardware_coherence \
            if self.organization.caches_remote_data else None
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
            # Vector path: one bank-wide listing of the lane's resident
            # lines, homed against a sorted snapshot of the page table
            # in one searchsorted; unallocated pages count as local (as
            # the serial path's None does).
            per_chip = self.config.chip.llc_slices
            lo = self._bank_base
            cache_idx, addrs = bank.resident_addrs(
                lo, lo + self.config.num_chips * per_chip)
            if addrs.size:
                ptab = self.page_table._home
                pt_pages = np.fromiter(ptab.keys(), dtype=np.int64,
                                       count=len(ptab))
                pt_homes = np.fromiter(ptab.values(), dtype=np.int64,
                                       count=len(ptab))
                psort = np.argsort(pt_pages)
                pt_pages = pt_pages[psort]
                pt_homes = pt_homes[psort]
                owner = (cache_idx - np.int64(lo)) // np.int64(per_chip)
                homes = owner
                if pt_pages.size:
                    pages = addrs >> np.int64(self.page_table._page_shift)
                    pos = np.minimum(np.searchsorted(pt_pages, pages),
                                     pt_pages.size - 1)
                    homes = np.where(pt_pages[pos] == pages, pt_homes[pos],
                                     owner)
                remote = int(np.count_nonzero(homes != owner))
                local = int(addrs.size) - remote
        total = local + remote
        if total == 0 or weight <= 0:
            return
        self._alloc_weight += weight
        self._alloc_local += weight * local / total
        self._alloc_remote += weight * remote / total

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
