"""SAC hardware-overhead accounting (paper Section 3.6).

Reproduces the published budget: the CRD costs 544 bytes per chip for
conventional caches (736 for sectored), the dual LSU counter arrays 64
bytes, and four 24-bit scalar counters 12 bytes — 620 / 812 bytes per
chip in total.  The NoC-side bypass logic overhead is computed by
:mod:`repro.noc.power` (~1.6% power / ~1.9% area over the memory-side
NoC).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.config import SACConfig, SystemConfig
from ..noc import power as noc_power

LSU_COUNTER_BITS = 16
SCALAR_COUNTER_BITS = 24
#: total, local, CRD-hits and CRD-requests counters per chip.
SCALAR_COUNTERS = 4


@dataclass(frozen=True)
class OverheadReport:
    """Per-chip hardware overhead of SAC."""

    crd_bytes: int
    lsu_counter_bytes: int
    scalar_counter_bytes: int
    bypass_power_overhead: float  # fraction of memory-side NoC power
    bypass_area_overhead: float   # fraction of memory-side NoC area

    @property
    def total_bytes(self) -> int:
        return self.crd_bytes + self.lsu_counter_bytes + self.scalar_counter_bytes


def crd_bytes(sac: SACConfig, num_chips: int, sectored: bool,
              sectors_per_line: int = 4) -> int:
    """CRD SRAM per chip: sets x ways x (tag + chip bits)."""
    bits_per_chip = sectors_per_line if sectored else 1
    block_bits = sac.crd_tag_bits + num_chips * bits_per_chip
    return sac.crd_sets * sac.crd_ways * block_bits // 8


def overhead_report(config: SystemConfig,
                    sectored: bool | None = None) -> OverheadReport:
    """Compute the full Section 3.6 overhead budget for ``config``."""
    if sectored is None:
        sectored = config.chip.llc_slice.sectored
    crd = crd_bytes(config.sac, config.num_chips, sectored,
                    config.chip.llc_slice.sectors_per_line)
    lsu = 2 * config.chip.llc_slices * LSU_COUNTER_BITS // 8
    scalars = SCALAR_COUNTERS * SCALAR_COUNTER_BITS // 8
    costs = noc_power.report(config.chip.noc)
    sac_delta = costs["sac_vs_memory_side"]
    return OverheadReport(
        crd_bytes=crd,
        lsu_counter_bytes=lsu,
        scalar_counter_bytes=scalars,
        bypass_power_overhead=sac_delta.power,
        bypass_area_overhead=sac_delta.area)
