"""Related-work comparison: beyond-LLC vs ahead-of-LLC optimization.

The paper's Section 6 argues that page migration (and other memory-side
data-management techniques) optimize bandwidth *beyond* the LLC and
therefore cannot capture SAC's benefit, which comes from maximizing the
effective bandwidth *ahead of* the LLC.

This experiment runs a representative benchmark subset under:

* the memory-side baseline,
* memory-side + dominant-accessor page migration (Griffin-style),
* the LADM-style Dynamic LLC with cache-remote-once insertion,
* SAC,

and reports speedups over the plain baseline.  Expected shape: migration
barely moves sharing-dominated workloads (shared pages have no dominant
accessor, and first-touch already places private pages correctly); LADM
captures part of the SM-side benefit on the SP benchmarks but cannot
reconfigure the whole LLC; SAC captures the full benefit.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..analysis.runner import run
from ..arch.config import SystemConfig
from ..arch.presets import baseline
from ..sim.engine import EngineParams
from ..sim.stats import harmonic_mean
from ..workloads.suite import get
from .common import trace_density

DEFAULT_BENCHMARKS = ("RN", "CFD", "BT", "SRAD", "NN")


def run_experiment(config: Optional[SystemConfig] = None,
                   benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
                   fast: bool = False) -> Dict[str, object]:
    base = config or baseline()
    density = trace_density(fast)
    rows: Dict[str, Dict[str, float]] = {}
    for name in benchmarks:
        spec = get(name)
        mem = run(spec, "memory-side", config=base,
                  accesses_per_epoch=density)
        migrated = run(spec, "memory-side", config=base,
                       accesses_per_epoch=density,
                       params=EngineParams(page_migration=True))
        ladm = run(spec, "ladm", config=base, accesses_per_epoch=density)
        sac = run(spec, "sac", config=base, accesses_per_epoch=density)
        rows[name] = {
            "migration": mem.cycles / migrated.cycles,
            "ladm": mem.cycles / ladm.cycles,
            "sac": mem.cycles / sac.cycles,
        }
    aggregate = {
        column: harmonic_mean([rows[b][column] for b in rows])
        for column in ("migration", "ladm", "sac")}
    return {"rows": rows, "aggregate": aggregate,
            "benchmarks": list(benchmarks)}


def format_report(result: Dict[str, object]) -> str:
    lines = ["Related work: page migration / LADM vs SAC, "
             "speedup over memory-side"]
    lines.append(f"  {'bench':8} {'migration':>10} {'ladm':>8} {'sac':>8}")
    for bench, row in result["rows"].items():
        lines.append(f"  {bench:8} {row['migration']:10.2f} "
                     f"{row['ladm']:8.2f} {row['sac']:8.2f}")
    agg = result["aggregate"]
    lines.append(f"  {'hmean':8} {agg['migration']:10.2f} "
                 f"{agg['ladm']:8.2f} {agg['sac']:8.2f}")
    return "\n".join(lines)
