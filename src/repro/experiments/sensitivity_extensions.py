"""Extension studies the paper mentions but omits for space.

* **Theta sensitivity** (paper Section 3.5: "sensitivity analysis
  omitted due to space constraints") — sweeps the EAB comparison
  threshold and reports SAC's harmonic-mean speedup.  Too small a theta
  risks flipping borderline kernels to SM-side and paying coherence/
  reconfiguration costs for nothing; too large a theta forfeits real
  SM-side wins.
* **Profiling-window sensitivity** (paper Section 3.2: "2K cycles ...
  is adequate") — sweeps the window length.  Too short starves the CRD
  of samples; too long burns kernel time in the memory-side
  configuration on SM-side-preferred kernels.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.config import SystemConfig
from ..arch.presets import baseline
from ..core.sac import SharingAwareCaching
from ..sim.run import DEFAULT_SCALE, scaled_config, simulate
from ..sim.stats import harmonic_mean
from ..analysis.runner import run
from ..workloads.spec import BenchmarkSpec
from ..workloads.suite import get
from .common import trace_density

DEFAULT_BENCHMARKS = ("RN", "CFD", "BFS", "SRAD", "NN")

THETA_SWEEP = (0.0, 0.05, 0.08, 0.15, 0.30, 1.0)
WINDOW_SWEEP = (125, 250, 500, 1000, 2000)


def _sac_speedup(spec: BenchmarkSpec, config: SystemConfig,
                 sac_overrides: Dict[str, object], density: int) -> float:
    """SAC's speedup over memory-side on ``spec`` at one sweep point."""
    base_scaled = scaled_config(config, DEFAULT_SCALE)
    sac_cfg = dataclasses.replace(base_scaled.sac, **sac_overrides)
    run_config = base_scaled.with_updates(sac=sac_cfg)
    mem = run(spec, "memory-side", config=config,
              accesses_per_epoch=density)
    org = SharingAwareCaching(run_config)
    stats = simulate(spec, org, config=config, accesses_per_epoch=density)
    return mem.cycles / stats.cycles


def run_experiment(config: Optional[SystemConfig] = None,
                   benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
                   fast: bool = False) -> Dict[str, object]:
    base = config or baseline()
    density = trace_density(fast)
    points: List[Tuple[str, object, Dict[str, object]]] = [
        ("theta", theta, {"theta": theta}) for theta in THETA_SWEEP]
    points += [("window_cycles", window, {"profile_window_cycles": window})
               for window in WINDOW_SWEEP]
    # Benchmarks outermost: each trace is generated once and replayed by
    # every sweep point, where a point-major loop over more benchmarks
    # than the trace cache holds would regenerate every trace per point.
    speedups: List[List[float]] = [[] for _ in points]
    for name in benchmarks:
        spec = get(name)
        for per_point, (_, _, overrides) in zip(speedups, points):
            per_point.append(_sac_speedup(spec, base, overrides, density))
    # Each point's mean runs over the benchmarks in the given order.
    rows = [{field: value, "sac": harmonic_mean(per_point)}
            for (field, value, _), per_point in zip(points, speedups)]
    return {"theta": rows[:len(THETA_SWEEP)],
            "window": rows[len(THETA_SWEEP):],
            "benchmarks": list(benchmarks)}


def format_report(result: Dict[str, object]) -> str:
    lines = ["Extension: theta and profiling-window sensitivity "
             "(SAC hmean speedup vs memory-side)"]
    lines.append("benchmarks: " + ", ".join(result["benchmarks"]))
    lines.append("theta sweep:")
    for point in result["theta"]:
        lines.append(f"  theta={point['theta']:<5g} sac={point['sac']:5.2f}")
    lines.append("profiling-window sweep:")
    for point in result["window"]:
        lines.append(f"  window={point['window_cycles']:<5} "
                     f"sac={point['sac']:5.2f}")
    return "\n".join(lines)
