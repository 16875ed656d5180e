"""The Effective Available Bandwidth (EAB) analytical model.

Implements Section 3.3 of the paper.  The EAB is the bandwidth the system
can provide given the workload's access pattern:

    EAB_total = EAB_local + EAB_remote
    EAB_x     = min(B_SM_LLC_x,
                    B_LLC_hit_x + min(B_LLC_miss_x, B_LLC_mem_x, B_mem_x))

with the per-configuration bandwidth terms of Table 1:

======================  =======================  =======================
term                    memory-side              SM-side
======================  =======================  =======================
B_SM_LLC  (local)       B_intra                  B_intra * R_local
B_SM_LLC  (remote)      B_inter                  B_intra * R_remote
B_LLC_hit (l|r)         B_LLC * LSU * hit * R    B_LLC * LSU * hit * R
B_LLC_miss (l|r)        B_LLC * LSU * miss * R   B_LLC * LSU * miss * R
B_LLC_mem (local)       unlimited                unlimited
B_LLC_mem (remote)      unlimited                B_inter
B_mem (l|r)             B_mem * R                B_mem * R
======================  =======================  =======================

LSU and the LLC hit rate are configuration-dependent: the memory-side
values are measured directly during the profiling window, the SM-side
values are estimated by the per-chip counters and the CRD.

All bandwidths are system aggregates in bytes/cycle; "local"/"remote" is
relative to the requesting chip, and ``R_local + R_remote = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from ..arch.config import SystemConfig


def llc_slice_uniformity(requests: Sequence[float]) -> float:
    """LSU = (1/N) * sum_i(R_i / max_j R_j)  (paper Section 3.3).

    Equals 1 when requests spread uniformly over the N slices and 1/N
    when a single slice receives everything.  Slices with zero requests
    still count toward N.  An all-zero vector returns 1 (no evidence of
    non-uniformity).
    """
    if not requests:
        raise ValueError("LSU needs at least one slice")
    if any(r < 0 for r in requests):
        raise ValueError("request counts cannot be negative")
    peak = max(requests)
    if peak == 0:
        return 1.0
    return sum(r / peak for r in requests) / len(requests)


@dataclass(frozen=True)
class EABInputs:
    """Everything the EAB model consumes (paper Table 2).

    Architecture-dependent terms (``b_intra``, ``b_inter``, ``b_llc``,
    ``b_mem``) come from the configuration; workload terms (``r_local``)
    and interaction terms (hit rates, LSUs) come from the profiling
    counters.
    """

    r_local: float
    lsu_memory_side: float
    lsu_sm_side: float
    llc_hit_memory_side: float
    llc_hit_sm_side: float
    b_intra: float
    b_inter: float
    b_llc: float
    b_mem: float

    def __post_init__(self) -> None:
        for name in ("r_local", "lsu_memory_side", "lsu_sm_side",
                     "llc_hit_memory_side", "llc_hit_sm_side"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("b_intra", "b_inter", "b_llc", "b_mem"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def r_remote(self) -> float:
        return 1.0 - self.r_local


@dataclass(frozen=True)
class EABResult:
    """EAB of one configuration, with its local/remote split."""

    local: float
    remote: float

    @property
    def total(self) -> float:
        return self.local + self.remote


def _eab_side(b_sm_llc: float, b_llc_hit: float, b_llc_miss: float,
              b_llc_mem: float, b_mem: float) -> float:
    """EAB_x = min(B_SM_LLC, B_LLC_hit + min(B_LLC_miss, B_LLC_mem, B_mem))."""
    return min(b_sm_llc, b_llc_hit + min(b_llc_miss, b_llc_mem, b_mem))


def eab_memory_side(inputs: EABInputs) -> EABResult:
    """EAB under the memory-side configuration (Table 1, left half)."""
    hit = inputs.llc_hit_memory_side
    lsu = inputs.lsu_memory_side
    hit_bw = inputs.b_llc * lsu * hit
    miss_bw = inputs.b_llc * lsu * (1.0 - hit)
    local = _eab_side(
        b_sm_llc=inputs.b_intra,
        b_llc_hit=hit_bw * inputs.r_local,
        b_llc_miss=miss_bw * inputs.r_local,
        b_llc_mem=math.inf,
        b_mem=inputs.b_mem * inputs.r_local)
    remote = _eab_side(
        b_sm_llc=inputs.b_inter,
        b_llc_hit=hit_bw * inputs.r_remote,
        b_llc_miss=miss_bw * inputs.r_remote,
        b_llc_mem=math.inf,
        b_mem=inputs.b_mem * inputs.r_remote)
    return EABResult(local=local, remote=remote)


def eab_sm_side(inputs: EABInputs) -> EABResult:
    """EAB under the SM-side configuration (Table 1, right half)."""
    hit = inputs.llc_hit_sm_side
    lsu = inputs.lsu_sm_side
    hit_bw = inputs.b_llc * lsu * hit
    miss_bw = inputs.b_llc * lsu * (1.0 - hit)
    local = _eab_side(
        b_sm_llc=inputs.b_intra * inputs.r_local,
        b_llc_hit=hit_bw * inputs.r_local,
        b_llc_miss=miss_bw * inputs.r_local,
        b_llc_mem=math.inf,
        b_mem=inputs.b_mem * inputs.r_local)
    remote = _eab_side(
        b_sm_llc=inputs.b_intra * inputs.r_remote,
        b_llc_hit=hit_bw * inputs.r_remote,
        b_llc_miss=miss_bw * inputs.r_remote,
        b_llc_mem=inputs.b_inter,
        b_mem=inputs.b_mem * inputs.r_remote)
    return EABResult(local=local, remote=remote)


def decide(inputs: EABInputs, theta: float = 0.05) -> str:
    """Pick the organization: SM-side only if its EAB wins by > theta.

    The threshold compensates for the SM-side coherence overhead that the
    model deliberately leaves out (paper Section 3.5).  Returns
    ``"sm-side"`` or ``"memory-side"``.
    """
    if theta < 0:
        raise ValueError("theta cannot be negative")
    memory = eab_memory_side(inputs).total
    sm = eab_sm_side(inputs).total
    if sm > memory * (1.0 + theta):
        return "sm-side"
    return "memory-side"


def architecture_bandwidths(config: SystemConfig) -> Dict[str, float]:
    """Derive the architecture-only EAB terms from a system config.

    * ``b_intra`` — aggregate SM->LLC bandwidth: each chip's response
      network owns half the crossbar bisection.
    * ``b_inter`` — aggregate inter-chip bandwidth: each chip's link
      egress, derated for multi-hop ring traffic (a request crossing two
      segments consumes both), which halves the usable bandwidth on
      average for a 4-chip ring with uniform traffic.
    * ``b_llc`` — aggregate raw LLC slice bandwidth.
    * ``b_mem`` — aggregate DRAM bandwidth.
    """
    num_chips = config.num_chips
    b_intra = num_chips * config.chip.noc.bisection_bw_bytes_per_cycle / 2
    if num_chips > 1:
        ring = config.inter_chip
        # Average hop count between distinct chips on a ring.
        routes = [(s, d) for s in range(num_chips)
                  for d in range(num_chips) if s != d]
        mean_hops = sum(min((d - s) % num_chips, (s - d) % num_chips)
                        for s, d in routes) / len(routes)
        b_inter = num_chips * ring.chip_egress_bw() / mean_hops
    else:
        b_inter = math.inf
    b_llc = num_chips * config.chip.llc_bw_bytes_per_cycle
    b_mem = config.total_memory_bw
    return {"b_intra": b_intra, "b_inter": b_inter,
            "b_llc": b_llc, "b_mem": b_mem}
