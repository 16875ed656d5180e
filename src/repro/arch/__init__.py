"""Architecture configuration: system geometry, bandwidths and presets."""

from .config import (
    CacheConfig,
    ChipConfig,
    CoherenceConfig,
    ConfigError,
    InterChipConfig,
    MemoryConfig,
    NoCConfig,
    SACConfig,
    SystemConfig,
)
from .presets import (
    INTER_CHIP_SWEEP_GBPS,
    MEMORY_INTERFACE_GBPS,
    baseline,
    with_chip_count,
    with_coherence,
    with_inter_chip_bandwidth,
    with_llc_capacity_scale,
    with_memory_interface,
    with_page_size,
    with_sectored_llc,
)

__all__ = [
    "CacheConfig",
    "ChipConfig",
    "CoherenceConfig",
    "ConfigError",
    "InterChipConfig",
    "MemoryConfig",
    "NoCConfig",
    "SACConfig",
    "SystemConfig",
    "INTER_CHIP_SWEEP_GBPS",
    "MEMORY_INTERFACE_GBPS",
    "baseline",
    "with_chip_count",
    "with_coherence",
    "with_inter_chip_bandwidth",
    "with_llc_capacity_scale",
    "with_memory_interface",
    "with_page_size",
    "with_sectored_llc",
]
