"""Runs workloads as sequences of fresh-process passes and reports them.

Each pass is a new ``python -m bench pass`` process, so every pass pays
interpreter start and imports the way a user's run does, and peak memory
is per pass.  End-to-end metrics come from untraced passes only; traced
passes yield the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import check
from .compare import summarize
from .workloads import PAPER_SEED, WORKLOADS, Seed, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
BENCHMARK = ROOT / "BENCHMARK.json"

#: A pass process still running after this many seconds (about 20 times
#: the slowest pass) is killed and the run fails, so a run ends even when
#: the program hangs.
PASS_TIMEOUT = 120.0
#: Untraced passes a ``--seconds`` run without ``--passes`` makes even
#: when they overrun the budget (a fig8-cold pass takes 11-17 s).
MIN_PASSES = 2
#: The trace gate: traced passes may be this much slower than untraced
#: ones and leave at most this share of their wall unattributed to a
#: layer.  A failed gate makes the per-layer numbers untrustworthy, not
#: the program's outputs wrong, so it does not touch ``correct``.
OVERHEAD_LIMIT = 0.15
UNATTRIBUTED_LIMIT = 0.05


class PassError(RuntimeError):
    """A pass process crashed or hung; the run has no result."""


def load_benchmark() -> Dict[str, Any]:
    benchmark: Dict[str, Any] = json.loads(BENCHMARK.read_text())
    return benchmark


def spawn_pass(workload: Workload, seed: Seed, scale: float, density: int,
               cache_dir: Optional[Path] = None,
               trace_path: Optional[Path] = None) -> Dict[str, Any]:
    """Run one pass in a fresh process and return its report."""
    cmd = [sys.executable, "-m", "bench", "pass",
           "--workload", workload.name, "--seed", str(seed),
           "--scale", repr(scale), "--density", str(density)]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    # The benchmark measures the program's defaults, whatever REPRO_*
    # switches the calling shell has set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT, check=False)
    except subprocess.TimeoutExpired as error:
        raise PassError(f"{workload.name} pass still running after "
                        f"{PASS_TIMEOUT:.0f} s; killed") from error
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"{workload.name} pass exited with "
                        f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    report: Dict[str, Any] = json.loads(proc.stdout.splitlines()[-1])
    return report


def measure(workload: Workload, *, seed: Seed, passes: Optional[int] = None,
            seconds: Optional[float] = None, trace: bool = False,
            scale: Optional[float] = None, density: Optional[int] = None,
            golden: Optional[Dict[str, str]] = None,
            run_id: str = "run") -> Dict[str, Any]:
    """Run ``workload`` and aggregate its passes.

    The run makes at least ``passes`` untraced passes (by default the
    workload's own count, or ``MIN_PASSES`` with ``seconds``); with
    ``seconds`` it goes on starting passes while the next one is
    expected to end within the budget.  With ``trace``, every untraced
    pass is followed by a traced one, so drifting machine load reaches
    both alike.
    """
    scale = workload.scale if scale is None else scale
    density = workload.density if density is None else density
    if passes is None:
        passes = workload.passes if seconds is None else MIN_PASSES
    RESULTS.mkdir(parents=True, exist_ok=True)
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    trace_files: List[str] = []
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="cache-") as tmp:
        started = time.monotonic()
        while True:
            traced_pass = next_pass(len(untraced), len(traced), passes,
                                    trace, seconds,
                                    time.monotonic() - started)
            if traced_pass is None:
                break
            # Every fig8-cold pass writes into an empty disk cache.
            cache_dir = None
            if workload.name == "fig8-cold":
                cache_dir = Path(tmp) / "cold"
            trace_path = None
            if traced_pass:
                trace_path = RESULTS / f"{run_id}-{workload.name}-trace" \
                    f"{len(traced)}.json"
                trace_files.append(str(trace_path))
            report = spawn_pass(workload, seed, scale, density, cache_dir,
                                trace_path)
            (traced if traced_pass else untraced).append(report)
            if cache_dir is not None:
                shutil.rmtree(cache_dir)
    return aggregate(workload, seed, scale, density, untraced, traced,
                     golden, spot_check(workload, seed, scale, density),
                     trace_files)


def next_pass(untraced: int, traced: int, passes: int, trace: bool,
              seconds: Optional[float], elapsed: float) -> Optional[bool]:
    """Whether the next pass is traced, or None when the run is over.

    Passes go untraced, traced, untraced, ... (all untraced without
    ``trace``).  The run is over once it has ``passes`` untraced passes,
    a traced one if ``trace``, and, with ``seconds``, no time left for
    one more pass of the average length so far.
    """
    enough = untraced >= passes and (traced >= 1 or not trace)
    if enough and seconds is not None:
        enough = elapsed + elapsed / (untraced + traced) > seconds
    if enough:
        return None
    return trace and traced < untraced


def spot_check(workload: Workload, seed: Seed, scale: float,
               density: int) -> Dict[str, Any]:
    """Re-simulate one of the workload's results, chosen by the seed, on
    the serial oracle.  Over several seeds this checks different results
    at seeds no golden file covers."""
    from . import passes  # imports repro, which only this step needs here

    pts = passes.points(workload, seed)
    point = pts[(seed if isinstance(seed, int) else 0) % len(pts)]
    started = time.perf_counter()
    stats = passes.oracle(point, scale, density)
    return {"label": point.label, "digest": check.digest(stats),
            "seconds": time.perf_counter() - started}


def aggregate(workload: Workload, seed: Seed, scale: float, density: int,
              untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              golden: Optional[Dict[str, str]], spot: Dict[str, Any],
              trace_files: List[str]) -> Dict[str, Any]:
    """Score every pass and summarize the metrics of one workload run."""
    scored = check.score(untraced + traced, golden)
    problems = list(scored["problems"])
    attempted = scored["attempted"] + 1
    failed = scored["failed"]
    if scored["digests"].get(spot["label"]) != spot["digest"]:
        failed += 1
        problems.append(f"{spot['label']}: differs from the serial oracle")

    samples: Dict[str, List[float]] = {
        "wall_s": [p["wall_s"] for p in untraced],
        "access_per_s": [p["accesses"] / p["wall_s"] for p in untraced],
        "setup_s": [p["setup_s"] for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "error_rate": [failed / attempted],
    }
    layers = None
    trace_problems: List[str] = []
    if traced:
        layers = {name: summarize([p["layers"][name] for p in traced])[
            "median"] for name in traced[0]["layers"]}
        every = untraced + traced
        layers["setup.import_s"] = summarize(
            [p["import_s"] for p in every])["median"]
        layers["core.sm_side_kernels"] = summarize(
            [p["sm_side_kernels"] for p in every])["median"]
        layers["trace.overhead"] = (
            summarize([p["wall_s"] for p in traced])["median"]
            / summarize(samples["wall_s"])["median"] - 1.0)
        if workload.uses_kernel and layers["cache.calls"] == 0:
            problems.append("traced pass made no kernel call: the tracer "
                            "changed the engine's path")
        if layers["trace.overhead"] > OVERHEAD_LIMIT:
            trace_problems.append(
                f"tracing overhead {layers['trace.overhead']:.1%} exceeds "
                f"{OVERHEAD_LIMIT:.0%}")
        if layers["trace.unattributed_share"] > UNATTRIBUTED_LIMIT:
            trace_problems.append(
                f"{layers['trace.unattributed_share']:.1%} of the traced "
                f"wall is unattributed (limit {UNATTRIBUTED_LIMIT:.0%})")
    return {
        "workload": workload.name, "seed": seed, "scale": scale,
        "density": density, "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not problems, "problems": problems,
        "trace_ok": not trace_problems, "trace_problems": trace_problems,
        "samples": samples,
        "summary": {name: summarize(v) for name, v in samples.items()},
        "layers": layers, "spot_check": spot, "digests": scored["digests"],
        "passes": [_strip(p) for p in untraced],
        "traced": [_strip(p) for p in traced], "trace_files": trace_files,
    }


def _strip(report: Dict[str, Any]) -> Dict[str, Any]:
    """A pass report without its per-result digests (kept once per run)."""
    return {k: v for k, v in report.items() if k != "results"}


def fingerprint(seed: Seed, numpy_version: Optional[str]) -> Dict[str, Any]:
    """The host and code a run was measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
        commit = proc.stdout.strip() or None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "seed": seed}


def new_run_id() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%d-%H%M%S-") + str(os.getpid())


def write_results(run_id: str, seed: Seed, results: Dict[str, Dict[str, Any]],
                  benchmark: Dict[str, Any]) -> Path:
    """Write one run's results file (schema in ``bench/README.md``)."""
    numpy_version = next((p["numpy"] for r in results.values()
                          for p in r["passes"] + r["traced"]), None)
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    path = RESULTS / f"{run_id}.json"
    path.write_text(json.dumps({
        "schema": 1, "fingerprint": fingerprint(seed, numpy_version),
        "units": units, "workloads": results}, indent=1))
    return path


def default_golden(workload: Workload, seed: Seed, scale: Optional[float],
                   density: Optional[int]) -> Optional[Dict[str, str]]:
    """The committed golden digests, when this run can be held to them."""
    if seed != PAPER_SEED:
        return None
    return check.load_golden(
        workload.name, workload.scale if scale is None else scale,
        workload.density if density is None else density)


def write_golden() -> List[str]:
    """Regenerate ``golden.json`` at the paper seed and default sizes.

    Every result is re-simulated on the serial oracle first; returns the
    labels that differ from it, and writes nothing unless there are none.
    """
    from . import passes  # imports repro

    sections: Dict[str, Any] = {}
    mismatched: List[str] = []
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="golden-") as tmp:
        for workload in WORKLOADS.values():
            pts = passes.points(workload, PAPER_SEED)
            timed = passes.prepare(workload, pts, workload.scale,
                                   workload.density,
                                   str(Path(tmp) / workload.name))
            results: passes.Results = []
            timed(results)
            digests = {label: check.digest(stats) for label, stats in results}
            for point in pts:
                expected = check.digest(
                    passes.oracle(point, workload.scale, workload.density))
                if digests.get(point.label) != expected:
                    mismatched.append(f"{workload.name}: {point.label}")
            sections[workload.name] = {
                "scale": workload.scale, "density": workload.density,
                "digests": digests}
    if not mismatched:
        check.GOLDEN_PATH.write_text(json.dumps({
            "seed": PAPER_SEED,
            "oracle": "EngineParams(batched=False, vectorized=False)",
            "workloads": sections}, indent=1, sort_keys=True) + "\n")
    return mismatched
