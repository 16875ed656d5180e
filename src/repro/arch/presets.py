"""Configuration presets for the SAC design space.

``baseline()`` reproduces Table 3 of the paper.  The remaining factories
produce the Figure 14 sensitivity-study configurations: inter-chip link
generations (PCIe, NVLink-2, NVLink-3, MCM interposers), memory interfaces
(GDDR5, GDDR6, HBM2), LLC capacity scaling, chip-count scaling, sectored
caches, hardware coherence and page-size variants.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from .config import SystemConfig

#: Unidirectional per-chip-pair bandwidth (GB/s) of each interconnect
#: generation swept in Figure 14.  The baseline (96 GB/s) sits between
#: NVLink-2 and NVLink-3.
INTER_CHIP_SWEEP_GBPS: Tuple[int, ...] = (48, 96, 192, 384, 768)

#: Total DRAM bandwidth (GB/s) of the memory-interface sweep in Figure 14.
MEMORY_INTERFACE_GBPS: Dict[str, int] = {
    "GDDR5": 1000,
    "GDDR6": 1750,
    "HBM2": 2800,
}


def baseline() -> SystemConfig:
    """The Table 3 baseline: 4 chips, 64 SMs + 4 MB LLC per chip."""
    return SystemConfig()


def with_inter_chip_bandwidth(config: SystemConfig,
                              pair_gbps: float) -> SystemConfig:
    """Scale the inter-chip links to ``pair_gbps`` unidirectional per pair.

    The ring keeps 3 links per chip pair; the per-link bandwidth is
    adjusted so the pair bandwidth matches the requested figure.
    """
    if pair_gbps <= 0:
        raise ValueError("inter-chip bandwidth must be positive")
    links = config.inter_chip.links_per_chip
    neighbours = min(2, max(1, config.num_chips - 1))
    links_per_pair = links / neighbours
    per_link = pair_gbps / links_per_pair
    inter = dataclasses.replace(
        config.inter_chip, link_bw_bytes_per_cycle=max(1, round(per_link)))
    return config.with_updates(inter_chip=inter)


def with_memory_interface(config: SystemConfig, interface: str) -> SystemConfig:
    """Swap the DRAM interface (Figure 14 memory sweep)."""
    try:
        total_gbps = MEMORY_INTERFACE_GBPS[interface]
    except KeyError:
        raise ValueError(
            f"unknown memory interface {interface!r}; "
            f"choose from {sorted(MEMORY_INTERFACE_GBPS)}") from None
    channels = config.num_chips * config.chip.memory.channels_per_chip
    per_channel = total_gbps / channels
    memory = dataclasses.replace(
        config.chip.memory,
        channel_bw_bytes_per_cycle=per_channel,
        interface=interface)
    chip = dataclasses.replace(config.chip, memory=memory)
    return config.with_updates(chip=chip)


def with_llc_capacity_scale(config: SystemConfig, factor: float) -> SystemConfig:
    """Scale every LLC slice's capacity by ``factor``."""
    if factor <= 0:
        raise ValueError("LLC capacity scale must be positive")
    chip = dataclasses.replace(
        config.chip, llc_slice=config.chip.llc_slice.scaled(factor))
    return config.with_updates(chip=chip)


def with_chip_count(config: SystemConfig, num_chips: int) -> SystemConfig:
    """Change the chip count, keeping *total* inter-chip bandwidth fixed.

    This mirrors the paper's GPU-count study: going from four to two chips
    doubles the per-link bandwidth (as NVLink does).
    """
    if num_chips < 1:
        raise ValueError("need at least one chip")
    total_bw = config.total_inter_chip_bw
    per_link = total_bw / (num_chips * config.inter_chip.links_per_chip)
    inter = dataclasses.replace(
        config.inter_chip, link_bw_bytes_per_cycle=max(1, round(per_link)))
    return config.with_updates(num_chips=num_chips, inter_chip=inter)


def with_sectored_llc(config: SystemConfig,
                      sectors_per_line: int = 4) -> SystemConfig:
    """Use sectored LLC slices (Figure 14 sectored-cache study)."""
    llc = dataclasses.replace(
        config.chip.llc_slice, sectored=True, sectors_per_line=sectors_per_line)
    chip = dataclasses.replace(config.chip, llc_slice=llc)
    return config.with_updates(chip=chip)


def with_coherence(config: SystemConfig, protocol: str) -> SystemConfig:
    """Select software or hardware coherence (Figure 14 coherence study)."""
    coherence = dataclasses.replace(config.coherence, protocol=protocol)
    return config.with_updates(coherence=coherence)


def with_page_size(config: SystemConfig, page_size: int) -> SystemConfig:
    """Change the memory page size (Figure 14 page-size study)."""
    memory = dataclasses.replace(config.chip.memory, page_size=page_size)
    chip = dataclasses.replace(config.chip, memory=memory)
    return config.with_updates(chip=chip)

