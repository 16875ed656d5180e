"""The SAC hardware performance-counter architecture (paper Section 3.4).

Each chip carries:

* a **total requests** counter (all L1 misses issued by this chip);
* a **local requests** counter (L1 misses homed at this chip);
* ``N/4`` **memory-side slice request** counters (requests arriving at
  this chip's LLC slices under the profiled memory-side configuration);
* ``N/4`` **SM-side slice request** counters (the local slice each of
  this chip's own requests *would* use under an SM-side configuration);
* the CRD (see :mod:`repro.core.crd`) plus its hit/request counters.

Together these provide every workload-dependent EAB input: R_local, the
LSU of both configurations, and both hit rates (the memory-side hit rate
comes from the existing LLC counters; the SM-side one from the CRD).
Their SRAM budget is accounted in :mod:`repro.core.overhead`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..arch.config import SACConfig
from .crd import ChipRequestDirectory
from .eab import llc_slice_uniformity


@dataclass
class ChipCounters:
    """The per-chip profiling counter file."""

    chip: int
    slices_per_chip: int
    total_requests: int = 0
    local_requests: int = 0
    memory_side_slice_requests: List[int] = field(default_factory=list)
    sm_side_slice_requests: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.memory_side_slice_requests:
            self.memory_side_slice_requests = [0] * self.slices_per_chip
        if not self.sm_side_slice_requests:
            self.sm_side_slice_requests = [0] * self.slices_per_chip

    def record_issue(self, home_chip: int, slice_index: int) -> None:
        """Record one L1 miss issued by this chip.

        ``slice_index`` is where the request would land within the
        requesting chip under an SM-side LLC (PAE slice hash).
        """
        self.total_requests += 1
        if home_chip == self.chip:
            self.local_requests += 1
        self.sm_side_slice_requests[slice_index] += 1

    def record_arrival(self, slice_index: int) -> None:
        """Record a request arriving at this chip's memory-side slice."""
        self.memory_side_slice_requests[slice_index] += 1

    def reset(self) -> None:
        self.total_requests = 0
        self.local_requests = 0
        for i in range(self.slices_per_chip):
            self.memory_side_slice_requests[i] = 0
            self.sm_side_slice_requests[i] = 0


class ProfilingCounters:
    """All chips' counters plus the CRDs, with EAB-input extraction."""

    def __init__(self, sac: SACConfig, num_chips: int, slices_per_chip: int,
                 llc_num_sets: int, line_size: int, sectored: bool = False,
                 sectors_per_line: int = 4,
                 set_index_fn: Optional[Callable[[int], int]] = None) -> None:
        self.num_chips = num_chips
        self.slices_per_chip = slices_per_chip
        self.chips = [ChipCounters(chip=c, slices_per_chip=slices_per_chip)
                      for c in range(num_chips)]
        self.crds = [ChipRequestDirectory(
            sac, num_chips, llc_num_sets, line_size,
            sectored=sectored, sectors_per_line=sectors_per_line,
            set_index_fn=set_index_fn)
            for _ in range(num_chips)]
        # Memory-side LLC hit/lookup counts observed during profiling
        # (from the existing LLC performance counters).
        self.memory_side_hits = 0
        self.memory_side_lookups = 0

    # -- Recording ----------------------------------------------------------

    def record_issue(self, chip: int, home_chip: int,
                     sm_slice_index: int) -> None:
        self.chips[chip].record_issue(home_chip, sm_slice_index)

    def record_arrival(self, home_chip: int, slice_index: int,
                       requester_chip: int, addr: int) -> None:
        """Record a request reaching its home chip's memory-side slice."""
        self.chips[home_chip].record_arrival(slice_index)
        self.crds[home_chip].observe(requester_chip, addr)

    def record_llc_outcome(self, hit: bool) -> None:
        self.memory_side_lookups += 1
        if hit:
            self.memory_side_hits += 1

    def record_batch(self, chips: np.ndarray, homes: np.ndarray,
                     slices: np.ndarray, addrs: np.ndarray,
                     llc_sets: np.ndarray, hits: np.ndarray) -> None:
        """Vectorized equivalent of the three per-access recorders.

        Produces the same final counter state as calling
        :meth:`record_issue`, :meth:`record_arrival` and
        :meth:`record_llc_outcome` for every access in order: the chip
        counters are order-independent sums (bincounted here), while
        the order-dependent CRDs are fed only the accesses that fall in
        their sampled sets, in access order.  ``llc_sets`` carries the
        precomputed global set index per access (same function the CRD
        ``set_index_fn`` applies scalar-wise).
        """
        num = self.num_chips
        spc = self.slices_per_chip
        # Trace chip arrays are uint8, and a uint8 array times a Python
        # int stays uint8 (16 chips x 32 slices would wrap): widen first.
        chips = chips.astype(np.int64, copy=False)
        homes = homes.astype(np.int64, copy=False)
        total = np.bincount(chips, minlength=num)
        local = np.bincount(chips[chips == homes], minlength=num)
        sm = np.bincount(chips * spc + slices, minlength=num * spc)
        mem = np.bincount(homes * spc + slices, minlength=num * spc)
        for c, chip in enumerate(self.chips):
            chip.total_requests += int(total[c])
            chip.local_requests += int(local[c])
            base = c * spc
            for s in range(spc):
                chip.sm_side_slice_requests[s] += int(sm[base + s])
                chip.memory_side_slice_requests[s] += int(mem[base + s])
        self.memory_side_lookups += int(len(chips))
        self.memory_side_hits += int(np.count_nonzero(hits))
        sampled = np.flatnonzero(self.crds[0].sampled_mask(llc_sets))
        if sampled.size:
            crds = self.crds
            homes_l = homes[sampled].tolist()
            chips_l = chips[sampled].tolist()
            addrs_l = addrs[sampled].tolist()
            # Each home chip's CRD is independent sequential state, so
            # feeding the sampled subset in global access order
            # preserves every CRD's own observation order.
            for h, c, a in zip(homes_l, chips_l, addrs_l):  # repro: noqa(hot-loop)
                crds[h].observe(c, a)

    # -- EAB input extraction -------------------------------------------------

    @property
    def total_requests(self) -> int:
        return sum(c.total_requests for c in self.chips)

    @property
    def r_local(self) -> float:
        total = self.total_requests
        if total == 0:
            return 1.0
        return sum(c.local_requests for c in self.chips) / total

    @property
    def llc_hit_memory_side(self) -> float:
        if self.memory_side_lookups == 0:
            return 0.0
        return self.memory_side_hits / self.memory_side_lookups

    @property
    def llc_hit_sm_side(self) -> float:
        """Pooled CRD estimate across chips."""
        requests = sum(crd.requests for crd in self.crds)
        if requests == 0:
            return 0.0
        return sum(crd.hits for crd in self.crds) / requests

    @property
    def lsu_memory_side(self) -> float:
        requests = [count for chip in self.chips
                    for count in chip.memory_side_slice_requests]
        return llc_slice_uniformity(requests)

    @property
    def lsu_sm_side(self) -> float:
        requests = [count for chip in self.chips
                    for count in chip.sm_side_slice_requests]
        return llc_slice_uniformity(requests)

    def reset(self) -> None:
        for chip in self.chips:
            chip.reset()
        for crd in self.crds:
            crd.reset()
        self.memory_side_hits = 0
        self.memory_side_lookups = 0
