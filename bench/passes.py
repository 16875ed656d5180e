"""What one benchmark pass executes.

A pass runs in a fresh process (``python -m bench pass``): it imports
``repro``, builds the workload's inputs from the seed, times the
workload's calls and reports digests, invariants and resource use as one
JSON object.  The program only ever receives the generated specs.
"""

from __future__ import annotations

import dataclasses
import resource
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import runner
from repro.arch import presets
from repro.arch.config import SystemConfig
from repro.experiments.common import ALL_ORGANIZATIONS
from repro.sim import run as sim_run
from repro.sim.engine import EngineParams
from repro.sim.stats import RunStats
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import BenchmarkSpec
from repro.workloads.suite import SUITE, get

from .check import digest, invariant_errors
from .tracer import Tracer
from .workloads import PAPER_SEED, Seed, Workload

#: Benchmarks of the ``solo`` workload: SM-side preferred, memory-side
#: preferred, and alternating kernels (paper Figure 12).
SOLO_BENCHMARKS = ("RN", "SRAD", "BFS")

Results = List[Tuple[str, RunStats]]


@dataclass(frozen=True)
class Point:
    """One result a workload produces: a spec under one configuration."""

    label: str
    spec: BenchmarkSpec
    organization: str
    config: SystemConfig
    params: EngineParams


def reseed(spec: BenchmarkSpec, seed: Seed) -> BenchmarkSpec:
    return spec if seed == PAPER_SEED else dataclasses.replace(spec, seed=seed)


def points(workload: Workload, seed: Seed) -> List[Point]:
    """Every result ``workload`` produces, in the order it produces them."""
    base = presets.baseline()
    default = EngineParams()
    if workload.name == "solo":
        return [Point(f"{name}/{org}", reseed(get(name), seed), org, base,
                      default)
                for name in SOLO_BENCHMARKS for org in ALL_ORGANIZATIONS]
    if workload.name == "serial-paths":
        rn = reseed(get("RN"), seed)
        return [
            Point("RN/ladm", rn, "ladm", base, default),
            Point("RN/memory-side+migration", rn, "memory-side", base,
                  EngineParams(page_migration=True)),
            Point("RN/sac+hw-coherence", rn, "sac",
                  presets.with_coherence(base, "hardware"), default),
        ]
    return [Point(f"{spec.name}/{org}", reseed(spec, seed), org, base,
                  default)
            for spec in SUITE for org in ALL_ORGANIZATIONS]


def prepare(workload: Workload, pts: List[Point], scale: float,
            density: int, cache_dir: Optional[str]
            ) -> Callable[[Results], None]:
    """Set the workload up; returns its timed section, which appends
    each result to the list it is given as the result arrives."""
    specs = list({p.spec.name: p.spec for p in pts}.values())
    if workload.name == "fig8-cold":
        def matrix(out: Results) -> None:
            results = runner.run_matrix(
                specs, ALL_ORGANIZATIONS, scale=scale,
                accesses_per_epoch=density, n_jobs=1, cache_dir=cache_dir)
            out.extend((f"{bench}/{org}", stats)
                       for (bench, org), stats in results.items())
        return matrix
    if workload.name == "solo":
        # simulate() finds these traces in the generator's trace cache.
        config = sim_run.scaled_config(presets.baseline(), scale)
        for spec in specs:
            TraceGenerator(
                spec, num_chips=config.num_chips,
                clusters_per_chip=config.chip.num_clusters,
                line_size=config.line_size, page_size=config.page_size,
                accesses_per_epoch_per_chip=density, scale=scale).generate()

    def serial(out: Results) -> None:
        for p in pts:
            out.append((p.label, sim_run.simulate(
                p.spec, p.organization, config=p.config, scale=scale,
                accesses_per_epoch=density, params=p.params)))
    return serial


def oracle(point: Point, scale: float, density: int) -> RunStats:
    """``point`` on the serial per-access engine, the semantic oracle."""
    params = dataclasses.replace(point.params, batched=False,
                                 vectorized=False)
    return sim_run.simulate(point.spec, point.organization,
                            config=point.config, scale=scale,
                            accesses_per_epoch=density, params=params)


def run_pass(workload: Workload, seed: Seed, scale: float, density: int,
             cache_dir: Optional[str], spawned: float, imported: float,
             trace_path: Optional[Path]) -> Dict[str, Any]:
    """Set up and time one pass; ``spawned`` and ``imported`` are
    ``time.monotonic()`` readings, which Linux keeps system-wide."""
    tracer: Optional[Tracer] = None
    if trace_path is not None:
        tracer = Tracer()
        tracer.install()
    enter = tracer.call if tracer is not None else _call
    pts = points(workload, seed)
    timed = enter("bench.setup",
                  lambda: prepare(workload, pts, scale, density, cache_dir))
    ready = time.monotonic()
    results: Results = []
    error = None
    started = time.perf_counter()
    try:
        enter("bench.run", lambda: timed(results))
    except Exception:  # counted as failed results, reported in full
        error = traceback.format_exc()
    wall = time.perf_counter() - started

    report: Dict[str, Any] = {}
    for label, stats in results:
        report[label] = {"digest": digest(stats),
                         "errors": invariant_errors(stats)}
    sm_side = sum(kernel.organization == "sm-side"
                  for _label, stats in results if stats.organization == "sac"
                  for kernel in stats.kernels)
    layers = None
    if tracer is not None and trace_path is not None:
        tracer.uninstall()
        tracer.write_chrome(trace_path)
        layers = tracer.layer_metrics()
    return {
        "attempted": len(pts),
        "results": report,
        "error": error,
        "import_s": imported - spawned,
        "setup_s": ready - spawned,
        "wall_s": wall,
        "accesses": sum(stats.accesses for _label, stats in results),
        "sm_side_kernels": sm_side,
        "peak_rss_mb": _peak_rss_mb(),
        "numpy": np.__version__,
        "layers": layers,
    }


def _call(_name: str, fn: Callable[[], Any]) -> Any:
    return fn()


def _peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.

    Linux carries ``ru_maxrss`` across ``exec``, so a pass spawned by a
    parent that had grown would report the parent's peak; the memory
    map's own high-water mark (``VmHWM``) starts afresh at ``exec``.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
