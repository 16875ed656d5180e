"""Sharing-Aware Caching: the reconfigurable LLC organization.

SAC (paper Section 3) starts every kernel in the memory-side
configuration and profiles it for a short window (2K cycles in the
paper; here the first epoch of the kernel, whose compute floor is of the
same magnitude).  The profiling counters and the CRD feed the EAB model;
if the SM-side EAB exceeds the memory-side EAB by more than theta, SAC
reconfigures the LLC to SM-side for the remainder of the kernel:

1. wait for in-flight requests to drain (``drain_cycles``),
2. write back and invalidate the dirty LLC lines (the engine charges the
   flush), and
3. switch the NoC routing policy.

When the kernel retires, SAC reverts to memory-side (drain + routing
switch only — the kernel-boundary software-coherence flush covers the
write-backs).  Optional periodic re-profiling (paper Section 3.2) can be
enabled through ``SACConfig.reprofile_interval_cycles``.

Ablation switches (used by the ablation benchmarks, not by the paper
configuration): ``use_crd=False`` substitutes the measured memory-side
hit rate for the CRD estimate, ``use_lsu=False`` pins both LSUs to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..arch.config import SystemConfig
from ..llc.base import (
    MEMORY_SIDE_MODE,
    SM_SIDE_MODE,
    LLCOrganization,
    RoutePlan,
)
from ..llc.organizations import MemorySideLLC, SMSideLLC
from .counters import ProfilingCounters
from .eab import EABInputs, architecture_bandwidths, decide

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import EngineContext


@dataclass
class SACDecision:
    """Record of one profiling decision (for reports and Figure 12)."""

    kernel: str
    chosen: str
    eab_inputs: Optional[EABInputs]
    reconfigured: bool


@dataclass
class SACStats:
    """SAC controller activity."""

    decisions: List[SACDecision] = field(default_factory=list)
    reconfigurations: int = 0
    drain_cycles_total: float = 0.0


class SharingAwareCaching(LLCOrganization):
    """The SAC organization: profiling window + EAB-driven reconfiguration.

    It keeps the inherited ``dedicated_memory_network = False``: SAC
    reuses the single memory-side NoC even in SM-side mode (Figure 6: the
    same physical inter-chip link is logically on both sides), so
    remote-miss traffic shares the primary crossbar.
    """

    name = "sac"

    def __init__(self, config: SystemConfig, use_crd: bool = True,
                 use_lsu: bool = True,
                 zero_reconfig_cost: bool = False) -> None:
        self.config = config
        self.use_crd = use_crd
        self.use_lsu = use_lsu
        self.zero_reconfig_cost = zero_reconfig_cost
        self.stats = SACStats()
        self._memory_side = MemorySideLLC(config.num_chips)
        self._sm_side = SMSideLLC(config.num_chips)
        self._active: LLCOrganization = self._memory_side
        self._profiling = False
        self._counters: Optional[ProfilingCounters] = None
        self._bandwidths = architecture_bandwidths(config)
        self._kernel_name = ""
        self._cycles_since_profile = 0.0
        # Geometry for the batched observer (set by ``attach``).
        self._slice_sets = 0
        self._obs_line_shift = 0

    # -- Introspection ------------------------------------------------------

    @property
    def mode(self) -> str:
        return self._active.mode

    @property
    def profiling(self) -> bool:
        return self._profiling

    @property
    def counters(self) -> Optional[ProfilingCounters]:
        return self._counters

    # -- Routing -------------------------------------------------------------

    def plan(self, chip: int, home: int) -> RoutePlan:
        return self._active.plan(chip, home)

    # -- Lifecycle -------------------------------------------------------------

    def attach(self, ctx: "EngineContext") -> None:
        llc = self.config.chip.llc_slice
        slices = self.config.chip.llc_slices
        slice_sets = llc.num_sets
        line_shift = llc.line_size.bit_length() - 1
        self._slice_sets = slice_sets
        self._obs_line_shift = line_shift
        # The closure holds the mapping's slice hash, not the engine: the
        # counters live as long as this organization, and an engine
        # reference here would make every finished run cyclic garbage.
        slice_of = ctx.mapping.llc_slice_of

        def global_set_index(addr: int) -> int:
            # Compose the PAE slice hash with the slice's set index so the
            # CRD samples the chip's global sets exactly as the LLC maps
            # them (capacity fidelity: one CRD set == one real set).
            return (slice_of(addr) * slice_sets
                    + (addr >> line_shift) % slice_sets)

        self._counters = ProfilingCounters(
            self.config.sac,
            num_chips=self.config.num_chips,
            slices_per_chip=slices,
            llc_num_sets=slices * slice_sets,
            line_size=llc.line_size,
            sectored=llc.sectored,
            sectors_per_line=llc.sectors_per_line,
            set_index_fn=global_set_index)

    def begin_kernel(self, ctx: "EngineContext", kernel_name: str) -> None:
        self._kernel_name = kernel_name
        self._start_profiling(ctx)

    def _start_profiling(self, ctx: "EngineContext") -> None:
        # Profiling always runs under a memory-side configuration so the
        # CRD sees every request homed at its partition.
        if self._active.mode != MEMORY_SIDE_MODE:
            self._switch(ctx, MEMORY_SIDE_MODE, flush=True)
        assert self._counters is not None
        self._counters.reset()
        self._profiling = True
        self._cycles_since_profile = 0.0

    def observe_access(self, ctx: "EngineContext", chip: int, addr: int,
                       home: int, hit_stage: Optional[int]) -> None:
        if not self._profiling:
            return
        counters = self._counters
        assert counters is not None
        slice_index = ctx.slice_of(addr)
        counters.record_issue(chip, home, slice_index)
        counters.record_arrival(home, slice_index, chip, addr)
        counters.record_llc_outcome(hit_stage is not None)

    def observe_batch(self, ctx: "EngineContext", chips: np.ndarray,
                      addrs: np.ndarray, homes: np.ndarray,
                      slices: np.ndarray, hit_stages: np.ndarray) -> None:
        """Vectorized :meth:`observe_access` for one batched epoch.

        The engine calls this once per batched epoch of the profiling
        window, instead of the per-access hook; the final counter state
        is identical because every chip counter is an order-independent
        sum and the CRDs still see their sampled addresses in access
        order.
        """
        counters = self._counters
        assert counters is not None
        if not len(addrs):
            return
        # Same global set index the ``attach`` closure computes per
        # address: the PAE slice hash composed with the slice-set bits.
        # Widened first: a narrow slice array times 128 sets would wrap.
        llc_sets = (slices.astype(np.int64, copy=False) * self._slice_sets
                    + ((addrs >> self._obs_line_shift) % self._slice_sets))
        counters.record_batch(chips, homes, slices, addrs, llc_sets,
                              hit_stages != -1)

    def profile_boundary(self, ctx: "EngineContext") -> None:
        if self._profiling:
            self._decide(ctx)

    def end_epoch(self, ctx: "EngineContext", epoch_index: int) -> None:
        interval = self.config.sac.reprofile_interval_cycles
        if interval is not None:
            self._cycles_since_profile += ctx.last_epoch_cycles
            if self._cycles_since_profile >= interval:
                self._start_profiling(ctx)

    def end_kernel(self, ctx: "EngineContext") -> None:
        self._profiling = False
        if self._active.mode == SM_SIDE_MODE:
            # Revert to memory-side: drain + routing switch.  The dirty
            # write-backs are covered by the kernel-boundary flush that
            # the engine's software-coherence model performs anyway.
            self._switch(ctx, MEMORY_SIDE_MODE, flush=False)

    # -- Decision ----------------------------------------------------------------

    def eab_inputs(self) -> EABInputs:
        """Assemble the model inputs from the counters (paper Section 3.5)."""
        counters = self._counters
        if counters is None or counters.total_requests == 0:
            raise RuntimeError("no profiling data collected")
        hit_sm = (counters.llc_hit_sm_side if self.use_crd
                  else counters.llc_hit_memory_side)
        lsu_mem = counters.lsu_memory_side if self.use_lsu else 1.0
        lsu_sm = counters.lsu_sm_side if self.use_lsu else 1.0
        return EABInputs(
            r_local=counters.r_local,
            lsu_memory_side=lsu_mem,
            lsu_sm_side=lsu_sm,
            llc_hit_memory_side=counters.llc_hit_memory_side,
            llc_hit_sm_side=hit_sm,
            **self._bandwidths)

    def _decide(self, ctx: "EngineContext") -> None:
        self._profiling = False
        counters = self._counters
        if counters is None or counters.total_requests == 0:
            self.stats.decisions.append(SACDecision(
                kernel=self._kernel_name, chosen=self._active.mode,
                eab_inputs=None, reconfigured=False))
            return
        inputs = self.eab_inputs()
        chosen = decide(inputs, theta=self.config.sac.theta)
        reconfigured = chosen != self._active.mode
        if reconfigured:
            self._switch(ctx, chosen, flush=chosen == SM_SIDE_MODE)
        self.stats.decisions.append(SACDecision(
            kernel=self._kernel_name, chosen=chosen,
            eab_inputs=inputs, reconfigured=reconfigured))

    def _switch(self, ctx: "EngineContext", mode: str, flush: bool) -> None:
        """Reconfigure the routing policy, charging drain + flush costs."""
        self.stats.reconfigurations += 1
        if not self.zero_reconfig_cost:
            drain = self.config.sac.drain_cycles
            ctx.charge_cycles(drain)
            self.stats.drain_cycles_total += drain
            if flush:
                # Paper Section 3.6: reconfiguring writes back and
                # invalidates the *dirty* LLC lines; clean lines stay.
                ctx.flush_llc(partition=None, dirty_only=True)
        self._active = (self._sm_side if mode == SM_SIDE_MODE
                        else self._memory_side)

    def decision_table(self) -> Dict[str, str]:
        """Kernel launch -> chosen organization."""
        return {d.kernel: d.chosen for d in self.stats.decisions}
