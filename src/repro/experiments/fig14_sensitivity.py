"""Figure 14: SAC across the design space.

Seven sensitivity sweeps, each reporting the harmonic-mean speedup of
SM-side and SAC over the memory-side LLC on a representative benchmark
subset:

* inter-chip bandwidth (48 GB/s PCIe ... 768 GB/s MCM interposer),
* LLC capacity (0.5x, 1x, 2x),
* memory interface (GDDR5, GDDR6, HBM2),
* coherence protocol (software vs hardware),
* GPU count (2 vs 4 chips at constant total inter-chip bandwidth),
* sectored LLC,
* page size (4 KB vs 64 KB).

Shape targets: SAC beats memory-side everywhere; its margin shrinks as
inter-chip bandwidth grows, grows with LLC capacity and with memory
bandwidth, and grows with chip count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.runner import run_matrix
from ..arch import presets
from ..arch.config import SystemConfig
from ..sim.stats import harmonic_mean
from .common import SWEEP_MP, SWEEP_SP, trace_density
from ..workloads.suite import get

DEFAULT_BENCHMARKS: Tuple[str, ...] = SWEEP_SP + SWEEP_MP

ORGS = ("memory-side", "sm-side", "sac")


def _point(label: str, config: SystemConfig, benchmarks: Sequence[str],
           density: int, starred: bool = False) -> Dict[str, object]:
    speedups: Dict[str, List[float]] = {org: [] for org in ORGS[1:]}
    # One matrix per sweep point: every benchmark's three organizations
    # share a trace, so the runner runs them as one task, back to back
    # (cache semantics are unchanged).
    results = run_matrix([get(name) for name in benchmarks], ORGS,
                         config=config, accesses_per_epoch=density)
    for name in benchmarks:
        mem = results[(name, "memory-side")].cycles
        for org in ORGS[1:]:
            speedups[org].append(mem / results[(name, org)].cycles)
    return {
        "label": label + (" *" if starred else ""),
        "sm_side": harmonic_mean(speedups["sm-side"]),
        "sac": harmonic_mean(speedups["sac"]),
    }


def run_experiment(config: Optional[SystemConfig] = None,
                   benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
                   fast: bool = False) -> Dict[str, object]:
    base = config or presets.baseline()
    density = trace_density(fast)
    sweeps: Dict[str, List[Dict[str, object]]] = {}

    sweeps["inter_chip_bandwidth"] = [
        _point(f"{gbps} GB/s",
               presets.with_inter_chip_bandwidth(base, gbps),
               benchmarks, density, starred=(gbps == 96))
        for gbps in presets.INTER_CHIP_SWEEP_GBPS]

    sweeps["llc_capacity"] = [
        _point(f"{factor:g}x LLC",
               presets.with_llc_capacity_scale(base, factor),
               benchmarks, density, starred=(factor == 1.0))
        for factor in (0.5, 1.0, 2.0)]

    sweeps["memory_interface"] = [
        _point(name, presets.with_memory_interface(base, name),
               benchmarks, density, starred=(name == "GDDR6"))
        for name in ("GDDR5", "GDDR6", "HBM2")]

    sweeps["coherence"] = [
        _point(protocol, presets.with_coherence(base, protocol),
               benchmarks, density, starred=(protocol == "software"))
        for protocol in ("software", "hardware")]

    sweeps["gpu_count"] = [
        _point(f"{chips} GPUs", presets.with_chip_count(base, chips),
               benchmarks, density, starred=(chips == 4))
        for chips in (2, 4)]

    sweeps["sectored_cache"] = [
        _point("conventional", base, benchmarks, density, starred=True),
        _point("sectored", presets.with_sectored_llc(base),
               benchmarks, density)]

    sweeps["page_size"] = [
        _point("4 KB pages", base, benchmarks, density, starred=True),
        _point("64 KB pages", presets.with_page_size(base, 65536),
               benchmarks, density)]

    return {"sweeps": sweeps, "benchmarks": list(benchmarks)}


def format_report(result: Dict[str, object]) -> str:
    lines = ["Figure 14: SAC sensitivity (hmean speedup vs memory-side; "
             "* = baseline)"]
    lines.append("benchmarks: " + ", ".join(result["benchmarks"]))
    for sweep, points in result["sweeps"].items():
        lines.append(f"{sweep}:")
        for point in points:
            lines.append(
                "  {label:16} sm-side={sm_side:5.2f}  sac={sac:5.2f}"
                .format(**point))
    return "\n".join(lines)
