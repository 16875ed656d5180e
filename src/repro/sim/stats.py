"""Simulation statistics.

``RunStats`` aggregates everything the paper's figures need: cycles
(performance), LLC hit rates (Figure 1b), response-origin breakdown and
effective LLC bandwidth (Figures 1c and 10), LLC local/remote allocation
(Figure 9), per-slice request counts (LSU), inter-chip and DRAM traffic,
and per-kernel cycle/organization records (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Response-origin keys, relative to the *requesting* chip.
ORIGIN_LOCAL_LLC = "local_llc"
ORIGIN_REMOTE_LLC = "remote_llc"
ORIGIN_LOCAL_MEM = "local_mem"
ORIGIN_REMOTE_MEM = "remote_mem"
ORIGINS = (ORIGIN_LOCAL_LLC, ORIGIN_REMOTE_LLC,
           ORIGIN_LOCAL_MEM, ORIGIN_REMOTE_MEM)

#: Host-side telemetry fields — wall-clock timings and execution-path
#: counters that legitimately differ between two runs of the same
#: workload, and are therefore excluded from
#: :meth:`RunStats.comparable_dict`.  Every ``RunStats`` field is in
#: exactly one of ``comparable_dict()`` or this set
#: (``tests/sim/test_stats.py`` checks the split on live objects).
TELEMETRY_FIELDS = frozenset({
    "wall_seconds",
    "slow_epochs",
    "vector_epochs",
    "scalar_epochs",
})


@dataclass(slots=True)
class KernelStats:
    """Per-kernel-launch record."""

    name: str
    cycles: float = 0.0
    accesses: int = 0
    llc_hits: int = 0
    llc_lookups: int = 0
    # Organization active for the bulk of the kernel ("memory-side" or
    # "sm-side"); for SAC this is the post-profiling decision.
    organization: Optional[str] = None
    reconfigured: bool = False
    reconfig_cycles: float = 0.0
    # Per-epoch durations, in execution order (time-varying analyses).
    epoch_cycles: List[float] = field(default_factory=list)

    @property
    def llc_hit_rate(self) -> float:
        if self.llc_lookups == 0:
            return 0.0
        return self.llc_hits / self.llc_lookups


@dataclass(slots=True)
class RunStats:
    """Aggregate statistics for one benchmark under one LLC organization.

    Slotted, like :class:`KernelStats`: writing an undeclared attribute
    raises ``AttributeError``, so no caller can grow unclassified state.
    """

    benchmark: str = ""
    organization: str = ""
    cycles: float = 0.0
    accesses: int = 0
    # First-level LLC lookup outcomes (requests that found their data in
    # *some* LLC slice count as hits).
    llc_hits: int = 0
    llc_lookups: int = 0
    responses_by_origin: Dict[str, int] = field(
        default_factory=lambda: {origin: 0 for origin in ORIGINS})
    inter_chip_bytes: int = 0
    dram_bytes: int = 0
    coherence_bytes: int = 0
    coherence_invalidations: int = 0
    flush_cycles: float = 0.0
    # Average fraction of resident LLC lines holding local vs remote data
    # (Figure 9), sampled at every kernel boundary.
    llc_local_fraction: float = 0.0
    llc_remote_fraction: float = 0.0
    # Global per-slice request counts (for LSU diagnostics).
    slice_requests: List[int] = field(default_factory=list)
    # Cycles attributed to each epoch's binding resource ("compute",
    # "llc_slice", "crossbar", "inter_chip", "dram", "latency").
    bottleneck_cycles: Dict[str, float] = field(default_factory=dict)
    kernels: List[KernelStats] = field(default_factory=list)
    # -- Run telemetry (excluded from comparable_dict): -------------------
    # Host wall-clock of the simulation (set by ``repro.sim.run.simulate``).
    wall_seconds: float = 0.0
    # Epochs of a run without a vector bank (the serial engine).
    slow_epochs: int = 0
    # Epochs of a vector-path run resolved by the tag-store kernel.
    vector_epochs: int = 0
    # Epochs of a vector-path run the bank declined, resolved on the
    # serial path instead, so a config silently falling off the kernel
    # shows up here.
    scalar_epochs: int = 0

    @property
    def llc_hit_rate(self) -> float:
        if self.llc_lookups == 0:
            return 0.0
        return self.llc_hits / self.llc_lookups

    @property
    def llc_miss_rate(self) -> float:
        return 1.0 - self.llc_hit_rate if self.llc_lookups else 0.0

    @property
    def effective_llc_bandwidth(self) -> float:
        """LLC responses delivered per cycle (paper Figures 1c and 10)."""
        if self.cycles <= 0:
            return 0.0
        return sum(self.responses_by_origin.values()) / self.cycles

    def bandwidth_breakdown(self) -> Dict[str, float]:
        """Responses per cycle, split by origin (Figure 10 series)."""
        if self.cycles <= 0:
            return {origin: 0.0 for origin in ORIGINS}
        return {origin: count / self.cycles
                for origin, count in self.responses_by_origin.items()}

    def merge_kernel(self, kernel: KernelStats) -> None:
        self.kernels.append(kernel)
        self.cycles += kernel.cycles
        self.accesses += kernel.accesses
        self.llc_hits += kernel.llc_hits
        self.llc_lookups += kernel.llc_lookups

    def bottleneck_fractions(self) -> Dict[str, float]:
        """Fraction of (epoch) time attributed to each binding resource."""
        total = sum(self.bottleneck_cycles.values())
        if total <= 0:
            return {}
        return {resource: cycles / total
                for resource, cycles in self.bottleneck_cycles.items()}

    def dominant_bottleneck(self) -> Optional[str]:
        """The resource that bound the most epoch time, if any."""
        if not self.bottleneck_cycles:
            return None
        return max(self.bottleneck_cycles, key=self.bottleneck_cycles.get)

    @property
    def accesses_per_second(self) -> float:
        """Simulation throughput (host wall-clock accesses/sec)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.accesses / self.wall_seconds

    def bottleneck_summary(self) -> str:
        """Human-readable bottleneck digest, e.g. ``"dram 62% / compute 38%"``."""
        fractions = self.bottleneck_fractions()
        if not fractions:
            return "none"
        ranked = sorted(fractions.items(), key=lambda kv: -kv[1])
        return " / ".join(f"{name} {frac:.0%}" for name, frac in ranked)

    def summary(self) -> Dict[str, object]:
        """Flat digest of the run (for reports and CSV export)."""
        return {
            "benchmark": self.benchmark,
            "organization": self.organization,
            "cycles": self.cycles,
            "accesses": self.accesses,
            "llc_hit_rate": self.llc_hit_rate,
            "effective_llc_bandwidth": self.effective_llc_bandwidth,
            "inter_chip_mb": self.inter_chip_bytes / 1e6,
            "dram_mb": self.dram_bytes / 1e6,
            "coherence_invalidations": self.coherence_invalidations,
            "flush_cycles": self.flush_cycles,
            "llc_remote_fraction": self.llc_remote_fraction,
            "dominant_bottleneck": self.dominant_bottleneck(),
            "bottleneck_summary": self.bottleneck_summary(),
            "kernels": len(self.kernels),
            "wall_seconds": self.wall_seconds,
            "accesses_per_second": self.accesses_per_second,
            "slow_epochs": self.slow_epochs,
            "vector_epochs": self.vector_epochs,
            "scalar_epochs": self.scalar_epochs,
        }

    def comparable_dict(self) -> Dict[str, object]:
        """Every simulated (physics) field, excluding host telemetry.

        Two runs of the same workload through different execution paths
        (batched vs per-access, serial vs parallel) must produce equal
        ``comparable_dict()``s; wall-clock and path counters are
        legitimately different and therefore excluded.
        """
        return {
            "benchmark": self.benchmark,
            "organization": self.organization,
            "cycles": self.cycles,
            "accesses": self.accesses,
            "llc_hits": self.llc_hits,
            "llc_lookups": self.llc_lookups,
            "responses_by_origin": dict(self.responses_by_origin),
            "inter_chip_bytes": self.inter_chip_bytes,
            "dram_bytes": self.dram_bytes,
            "coherence_bytes": self.coherence_bytes,
            "coherence_invalidations": self.coherence_invalidations,
            "flush_cycles": self.flush_cycles,
            "llc_local_fraction": self.llc_local_fraction,
            "llc_remote_fraction": self.llc_remote_fraction,
            "slice_requests": list(self.slice_requests),
            "bottleneck_cycles": dict(self.bottleneck_cycles),
            "kernels": [
                {
                    "name": k.name,
                    "cycles": k.cycles,
                    "accesses": k.accesses,
                    "llc_hits": k.llc_hits,
                    "llc_lookups": k.llc_lookups,
                    "organization": k.organization,
                    "reconfigured": k.reconfigured,
                    "reconfig_cycles": k.reconfig_cycles,
                    "epoch_cycles": list(k.epoch_cycles),
                }
                for k in self.kernels],
        }


def check_invariants(stats: RunStats, single_stage: bool = False) -> None:
    """Raise ``AssertionError`` unless ``stats`` keeps the accounting
    identities every figure relies on.

    They hold for any workload, organization and execution path: one
    response per access and one top-level lookup per access; kernel
    records tile the run; epoch time attributed to bottlenecks plus the
    per-kernel overheads (which include flushes) is the run's cycles;
    the allocation fractions partition the resident lines; and every
    access probes at least one slice, exactly one when every route plan
    of the run is ``single_stage``.
    """
    errors: List[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    responses = sum(stats.responses_by_origin.values())
    need(responses == stats.accesses,
         f"response origins sum to {responses}, not {stats.accesses}")
    need(stats.llc_lookups == stats.accesses,
         f"{stats.llc_lookups} lookups for {stats.accesses} accesses")
    need(0 <= stats.llc_hits <= stats.llc_lookups,
         f"{stats.llc_hits} hits for {stats.llc_lookups} lookups")
    accesses = sum(k.accesses for k in stats.kernels)
    need(accesses == stats.accesses,
         f"kernel accesses sum to {accesses}, not {stats.accesses}")
    cycles = sum(k.cycles for k in stats.kernels)
    need(abs(cycles - stats.cycles) <= 1e-9 * abs(stats.cycles),
         f"kernel cycles sum to {cycles!r}, not {stats.cycles!r}")
    overheads = sum(k.reconfig_cycles for k in stats.kernels)
    attributed = sum(stats.bottleneck_cycles.values())
    need(abs(attributed + overheads - stats.cycles)
         < 1e-6 * stats.cycles + 1e-6,
         f"bottlenecks {attributed!r} + overheads {overheads!r} != "
         f"cycles {stats.cycles!r}")
    need(stats.flush_cycles <= overheads + 1e-9,
         f"flush cycles {stats.flush_cycles!r} exceed the overheads "
         f"{overheads!r}")
    local, remote = stats.llc_local_fraction, stats.llc_remote_fraction
    need(0.0 <= remote <= 1.0,
         f"remote allocation fraction {remote!r} outside [0, 1]")
    need(0.0 <= local <= 1.0,
         f"local allocation fraction {local!r} outside [0, 1]")
    need(not (local or remote) or abs(local + remote - 1.0) < 1e-9,
         f"allocation fractions {local!r} + {remote!r} != 1")
    probes = sum(stats.slice_requests)
    need(probes == stats.llc_lookups if single_stage
         else probes >= stats.llc_lookups,
         f"{probes} slice requests for {stats.llc_lookups} lookups")
    if errors:
        raise AssertionError("; ".join(errors))


def speedup(baseline: RunStats, candidate: RunStats) -> float:
    """Speedup of ``candidate`` over ``baseline`` (cycles ratio)."""
    if candidate.cycles <= 0:
        raise ValueError(
            f"candidate run {candidate.benchmark!r} under "
            f"{candidate.organization!r} recorded no cycles; "
            "cannot compute a speedup")
    if baseline.cycles <= 0:
        raise ValueError(
            f"baseline run {baseline.benchmark!r} under "
            f"{baseline.organization!r} recorded no cycles; "
            "cannot compute a speedup")
    return baseline.cycles / candidate.cycles


def harmonic_mean(values: List[float]) -> float:
    """Harmonic mean, the paper's average for speedups (Figure 8)."""
    if not values:
        raise ValueError("harmonic mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic mean requires positive values")
    return len(values) / sum(1.0 / v for v in values)
