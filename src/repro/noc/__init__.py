"""NoC substrate: intra-chip crossbar, inter-chip ring and power/area model."""

from .crossbar import Crossbar
from .power import (
    NoCCost,
    crossbar_cost,
    memory_side_noc_cost,
    report,
    sac_noc_cost,
    sm_side_noc_cost,
)
from .ring import InterChipRing

__all__ = [
    "Crossbar",
    "InterChipRing",
    "NoCCost",
    "crossbar_cost",
    "memory_side_noc_cost",
    "report",
    "sac_noc_cost",
    "sm_side_noc_cost",
]
