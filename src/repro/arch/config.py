"""Architecture configuration for the simulated multi-chip GPU.

All configuration objects are immutable dataclasses.  The baseline mirrors
Table 3 of the SAC paper: a 4-chip GPU with 64 SMs, 4 MB of LLC and 8
memory channels per chip, an intra-chip concentrated hierarchical crossbar
and an inter-chip ring built from NVLink-style bidirectional links.

Bandwidth values are stored in bytes per cycle at the 1 GHz GPU clock, so
``bytes/cycle == GB/s`` numerically.  The clock is not a setting: every
configuration runs at 1 GHz, and reports print the stored bandwidths as
GB/s.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

GB = 1_000_000_000
KB = 1024
MB = 1024 * 1024


class ConfigError(ValueError):
    """Raised when a configuration is internally inconsistent."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one LLC slice.

    Every cache is true-LRU, write-back and write-allocate.
    ``line_size`` is in bytes.  ``sectored`` enables sector caches in which
    ``sectors_per_line`` sectors share one tag; hit/miss is then tracked at
    sector granularity (paper Section 3.6 / 5.6).
    """

    size_bytes: int
    associativity: int
    line_size: int = 128
    sectored: bool = False
    sectors_per_line: int = 4

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.associativity > 0, "associativity must be positive")
        _require(self.line_size > 0 and (self.line_size & (self.line_size - 1)) == 0,
                 "line size must be a positive power of two")
        _require(self.size_bytes % (self.associativity * self.line_size) == 0,
                 "cache size must be divisible by associativity * line size")
        if self.sectored:
            _require(self.sectors_per_line > 1,
                     "a sectored cache needs more than one sector per line")
            _require(self.line_size % self.sectors_per_line == 0,
                     "line size must be divisible by sectors per line")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def sector_size(self) -> int:
        if not self.sectored:
            return self.line_size
        return self.line_size // self.sectors_per_line

    def scaled(self, factor: float) -> "CacheConfig":
        """Return a config with capacity scaled by ``factor``.

        Scaling keeps line size and associativity fixed and rounds the
        number of sets to at least one, which mirrors how the paper scales
        LLC capacity in the Figure 13/14 sensitivity studies.
        """
        set_bytes = self.associativity * self.line_size
        new_sets = max(1, round(self.num_sets * factor))
        return replace(self, size_bytes=new_sets * set_bytes)


@dataclass(frozen=True)
class NoCConfig:
    """The intra-chip concentrated hierarchical crossbar (paper Section 2).

    The crossbar connects ``sm_ports`` SM clusters plus the chip's
    inter-chip links on the input side to ``llc_ports`` LLC slices plus the
    inter-chip links on the output side (38 x 22 in the baseline).
    ``bisection_bw_bytes_per_cycle`` is the total bisection bandwidth.
    """

    sm_ports: int = 32
    llc_ports: int = 16
    inter_chip_ports: int = 6
    bisection_bw_bytes_per_cycle: int = 4096  # 4 TB/s at 1 GHz

    def __post_init__(self) -> None:
        _require(self.sm_ports > 0, "need at least one SM port")
        _require(self.llc_ports > 0, "need at least one LLC port")
        _require(self.inter_chip_ports >= 0, "inter-chip ports cannot be negative")
        _require(self.bisection_bw_bytes_per_cycle > 0,
                 "bisection bandwidth must be positive")

    @property
    def input_ports(self) -> int:
        return self.sm_ports + self.inter_chip_ports

    @property
    def output_ports(self) -> int:
        return self.llc_ports + self.inter_chip_ports

    @property
    def port_bw_bytes_per_cycle(self) -> float:
        """Per-LLC-port share of the bisection bandwidth."""
        return self.bisection_bw_bytes_per_cycle / self.llc_ports


@dataclass(frozen=True)
class InterChipConfig:
    """The inter-chip ring network (paper Section 2, NVLink-style).

    ``links_per_chip`` bidirectional links leave each chip;
    ``link_bw_bytes_per_cycle`` is the *unidirectional* bandwidth of one
    link.  The baseline has 6 links per chip at 64 GB/s bidirectional
    (i.e. 32 GB/s per direction x 2 directions); the paper quotes the
    default as 96 GB/s unidirectional per chip pair (3 links x 32 GB/s).
    """

    links_per_chip: int = 6
    link_bw_bytes_per_cycle: int = 32  # 32 GB/s per direction at 1 GHz

    def __post_init__(self) -> None:
        _require(self.links_per_chip > 0, "need at least one inter-chip link")
        _require(self.link_bw_bytes_per_cycle > 0, "link bandwidth must be positive")

    def chip_egress_bw(self) -> float:
        """Total unidirectional bandwidth leaving one chip (bytes/cycle)."""
        return self.links_per_chip * self.link_bw_bytes_per_cycle

    def pair_bw(self, num_chips: int) -> float:
        """Unidirectional bandwidth between one chip pair (bytes/cycle)."""
        if num_chips <= 1:
            return float("inf")
        # A ring splits a chip's links evenly between its neighbours; the
        # baseline has 3 links between each pair of adjacent chips.
        neighbours = min(2, num_chips - 1)
        return self.chip_egress_bw() / neighbours


@dataclass(frozen=True)
class MemoryConfig:
    """One chip's local memory partition."""

    channels_per_chip: int = 8
    channel_bw_bytes_per_cycle: float = 54.6875  # 1.75 TB/s / 32 channels at 1 GHz
    page_size: int = 4096
    interface: str = "GDDR6"

    def __post_init__(self) -> None:
        _require(self.channels_per_chip > 0, "need at least one memory channel")
        _require(self.channel_bw_bytes_per_cycle > 0,
                 "channel bandwidth must be positive")
        _require(self.page_size > 0 and (self.page_size & (self.page_size - 1)) == 0,
                 "page size must be a positive power of two")
        _require(bool(self.interface.strip()),
                 "memory interface label cannot be empty")

    def chip_bw(self) -> float:
        """Total DRAM bandwidth of one chip's partition (bytes/cycle)."""
        return self.channels_per_chip * self.channel_bw_bytes_per_cycle


@dataclass(frozen=True)
class CoherenceConfig:
    """Coherence protocol selection (paper Sections 2, 5.6).

    ``"software"`` — flush-based (the commercial default); ``"hardware"``
    — the paper's write-invalidate directory.
    """

    protocol: str = "software"  # "software" | "hardware"
    # Cycles charged to write back + invalidate one dirty LLC line during a
    # software-coherence flush (amortized; the traffic itself is also
    # charged to DRAM bandwidth).
    flush_cycles_per_line: float = 0.25
    # Bytes of control traffic per hardware invalidation message.
    invalidation_message_bytes: int = 16

    def __post_init__(self) -> None:
        _require(self.protocol in ("software", "hardware"),
                 f"unsupported coherence protocol: {self.protocol!r}")
        _require(self.flush_cycles_per_line >= 0,
                 "flush cost per line cannot be negative")
        _require(self.invalidation_message_bytes >= 0,
                 "invalidation message size cannot be negative")


@dataclass(frozen=True)
class SACConfig:
    """Runtime parameters of the SAC controller (paper Sections 3.2-3.5)."""

    profile_window_cycles: int = 2000
    theta: float = 0.05
    crd_sets: int = 8
    crd_ways: int = 16
    crd_tag_bits: int = 30
    reprofile_interval_cycles: Optional[int] = None  # None = profile once per kernel
    # Cycles to drain in-flight requests when switching routing policy.
    drain_cycles: int = 200

    def __post_init__(self) -> None:
        _require(self.profile_window_cycles > 0, "profiling window must be positive")
        _require(self.theta >= 0.0, "theta cannot be negative")
        _require(self.crd_sets > 0 and self.crd_ways > 0, "CRD must be non-empty")
        _require(0 < self.crd_tag_bits <= 64,
                 "CRD tag bits must be in (0, 64]")
        _require(self.drain_cycles >= 0, "drain cycles cannot be negative")
        if self.reprofile_interval_cycles is not None:
            _require(self.reprofile_interval_cycles > self.profile_window_cycles,
                     "re-profiling interval must exceed the profiling window")


@dataclass(frozen=True)
class ChipConfig:
    """One GPU chip: SMs, LLC slices, NoC and memory partition.

    The SMs' private L1s are not modelled: the workload traces are
    already the post-L1 access stream.
    """

    num_sms: int = 64
    sms_per_cluster: int = 2
    llc_slice: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=256 * KB, associativity=16, line_size=128))
    llc_slices: int = 16
    llc_slice_bw_bytes_per_cycle: int = 256  # 16 TB/s total / 64 slices at 1 GHz
    noc: NoCConfig = field(default_factory=NoCConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)

    def __post_init__(self) -> None:
        _require(self.num_sms > 0, "need at least one SM")
        _require(self.sms_per_cluster > 0, "need at least one SM per cluster")
        _require(self.num_sms % self.sms_per_cluster == 0,
                 "SM count must divide evenly into clusters")
        _require(self.llc_slices > 0, "need at least one LLC slice")
        _require(self.llc_slice_bw_bytes_per_cycle > 0,
                 "LLC slice bandwidth must be positive")
        _require(self.noc.sm_ports == self.num_sms // self.sms_per_cluster,
                 "NoC SM ports must match the number of SM clusters")
        _require(self.noc.llc_ports == self.llc_slices,
                 "NoC LLC ports must match the number of LLC slices")

    @property
    def num_clusters(self) -> int:
        return self.num_sms // self.sms_per_cluster

    @property
    def llc_capacity_bytes(self) -> int:
        return self.llc_slices * self.llc_slice.size_bytes

    @property
    def llc_bw_bytes_per_cycle(self) -> float:
        return self.llc_slices * self.llc_slice_bw_bytes_per_cycle


@dataclass(frozen=True)
class SystemConfig:
    """The full multi-chip GPU system (Table 3)."""

    num_chips: int = 4
    chip: ChipConfig = field(default_factory=ChipConfig)
    inter_chip: InterChipConfig = field(default_factory=InterChipConfig)
    coherence: CoherenceConfig = field(default_factory=CoherenceConfig)
    sac: SACConfig = field(default_factory=SACConfig)

    def __post_init__(self) -> None:
        _require(self.num_chips >= 1, "need at least one chip")
        _require(self.num_chips == 1 or self.chip.noc.inter_chip_ports > 0,
                 "a multi-chip system needs at least one inter-chip port "
                 "per chip")

    # -- Derived totals -------------------------------------------------

    @property
    def total_sms(self) -> int:
        return self.num_chips * self.chip.num_sms

    @property
    def total_llc_bytes(self) -> int:
        return self.num_chips * self.chip.llc_capacity_bytes

    @property
    def total_llc_slices(self) -> int:
        return self.num_chips * self.chip.llc_slices

    @property
    def total_memory_bw(self) -> float:
        """Total DRAM bandwidth across all chips (bytes/cycle)."""
        return self.num_chips * self.chip.memory.chip_bw()

    @property
    def total_inter_chip_bw(self) -> float:
        """Total unidirectional inter-chip bandwidth (bytes/cycle)."""
        return self.num_chips * self.inter_chip.chip_egress_bw()

    @property
    def line_size(self) -> int:
        return self.chip.llc_slice.line_size

    @property
    def page_size(self) -> int:
        return self.chip.memory.page_size

    def describe(self) -> Dict[str, object]:
        """Summarize the configuration as a flat dict (for reports)."""
        return {
            "chips": self.num_chips,
            "sms_total": self.total_sms,
            "llc_total_mb": self.total_llc_bytes / MB,
            "llc_slices_total": self.total_llc_slices,
            "llc_bw_gbps": self.num_chips * self.chip.llc_bw_bytes_per_cycle,
            "dram_bw_gbps": self.total_memory_bw,
            "inter_chip_bw_gbps": self.total_inter_chip_bw,
            "memory_interface": self.chip.memory.interface,
            "coherence": self.coherence.protocol,
            "page_size": self.page_size,
            "line_size": self.line_size,
        }

    def with_updates(self, **kwargs: object) -> "SystemConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)
