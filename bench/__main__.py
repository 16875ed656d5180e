"""Command line: ``python -m bench {run,compare,golden}``.

Usage::

    python -m bench run                       # every workload, default passes
    python -m bench run --workload solo --seconds 20 --seed 3 --trace 1
    python -m bench compare parent.json change.json
    python -m bench golden                    # after a physics change

``python -m bench pass`` is the one-pass child process ``run`` spawns.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import harness
from .check import GOLDEN_PATH
from .compare import compare_runs
from .workloads import PAPER_SEED, WORKLOADS, Seed


def seed(text: str) -> Seed:
    return text if text == PAPER_SEED else int(text)


def fraction(text: str) -> float:
    return float(Fraction(text))


def main(argv: Optional[List[str]] = None) -> int:
    # The program under test is imported from this checkout's src/.
    sys.path.insert(0, str(harness.ROOT / "src"))
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", choices=list(WORKLOADS),
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=seed, default=PAPER_SEED,
                     help="'paper' (the suite as committed) or an integer "
                          "that re-seeds every spec")
    run.add_argument("--passes", type=int,
                     help="untraced passes per workload, at least (default: "
                          "the workload's own count, or "
                          f"{harness.MIN_PASSES} with --seconds)")
    run.add_argument("--seconds", type=float,
                     help="go on making passes while the next one is "
                          "expected to end within this many seconds")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="follow every untraced pass with a "
                                          "traced one and report the "
                                          "per-layer metrics")
    run.add_argument("--scale", type=fraction,
                     help="override the workloads' scale, e.g. 1/64")
    run.add_argument("--density", type=int,
                     help="override the workloads' accesses per epoch")

    cmp = commands.add_parser("compare", help="judge a change against its "
                                              "parent from two results files")
    cmp.add_argument("parent", type=Path)
    cmp.add_argument("change", type=Path)

    commands.add_parser("golden", help="regenerate bench/golden.json after "
                                       "checking it against the oracle")

    one = commands.add_parser("pass", help=argparse.SUPPRESS)
    one.add_argument("--workload", choices=list(WORKLOADS), required=True)
    one.add_argument("--seed", type=seed, required=True)
    one.add_argument("--scale", type=float, required=True)
    one.add_argument("--density", type=int, required=True)
    one.add_argument("--spawned", type=float, required=True)
    one.add_argument("--cache-dir")
    one.add_argument("--trace-out", type=Path)

    args = parser.parse_args(argv)
    if args.command == "pass":
        return _pass(args)
    if args.command == "compare":
        return _compare(args.parent, args.change)
    if args.command == "golden":
        return _golden()
    if args.passes is not None and args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return _run(args)


def _pass(args: argparse.Namespace) -> int:
    from . import passes  # the imports every pass pays for
    imported = time.monotonic()
    report = passes.run_pass(
        WORKLOADS[args.workload], args.seed, args.scale, args.density,
        args.cache_dir, args.spawned, imported, args.trace_out)
    print(json.dumps(report))
    return 0


def _run(args: argparse.Namespace) -> int:
    benchmark = harness.load_benchmark()
    run_id = harness.new_run_id()
    names = args.workload or list(WORKLOADS)
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        workload = WORKLOADS[name]
        try:
            results[name] = harness.measure(
                workload, seed=args.seed, passes=args.passes,
                seconds=args.seconds, trace=bool(args.trace),
                scale=args.scale, density=args.density,
                golden=harness.default_golden(workload, args.seed,
                                              args.scale, args.density),
                run_id=run_id)
        except harness.PassError as error:
            print(f"bench: {error}", file=sys.stderr)
            return 1
        print(_report(results[name], benchmark))
    path = harness.write_results(run_id, args.seed, results, benchmark)
    print(f"results: {path}")
    print(json.dumps(_result_line(results, benchmark, bool(args.trace))))
    return 0


def _report(result: Dict[str, Any], benchmark: Dict[str, Any]) -> str:
    lines = [f"== {result['workload']} (seed {result['seed']}, scale "
             f"{Fraction(result['scale']).limit_denominator()}, density "
             f"{result['density']}): {len(result['passes'])} passes, "
             f"{len(result['traced'])} traced, {result['attempted']} results"
             f" attempted, {result['failed']} failed"]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    units["error_rate"] = "fraction"
    lines.append(f"  {'metric':<14}{'unit':<12}{'median':>12}{'q1':>12}"
                 f"{'q3':>12}{'n':>4}")
    for name, unit in units.items():
        s = result["summary"][name]
        lines.append(f"  {name:<14}{unit:<12}{s['median']:>12.5g}"
                     f"{s['q1']:>12.5g}{s['q3']:>12.5g}{s['n']:>4}")
    if result["layers"] is not None:
        lines.append("  per-layer (median of traced passes):")
        for m in benchmark["per_layer"]:
            value = result["layers"][m["name"]]
            lines.append(f"    {m['name']:<30}{value:>14.6g} {m['unit']}")
        lines.extend(f"  trace: {path}" for path in result["trace_files"])
    lines.extend(f"  problem: {p}" for p in result["problems"])
    lines.extend(f"  trace gate failed: {p}"
                 for p in result["trace_problems"])
    return "\n".join(lines)


def _result_line(results: Dict[str, Dict[str, Any]],
                 benchmark: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The object printed as the last line of ``run``'s output.

    One workload reports its metrics by name; several prefix each name
    with the workload's.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        if trace:
            for m in benchmark["per_layer"]:
                metrics[prefix + m["name"]] = {
                    "value": result["layers"][m["name"]], "unit": m["unit"]}
        else:
            for m in benchmark["end_to_end"]:
                metrics[prefix + m["name"]] = {
                    "value": result["summary"][m["name"]]["median"],
                    "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}


def _compare(parent: Path, change: Path) -> int:
    benchmark = harness.load_benchmark()
    rows = compare_runs(json.loads(parent.read_text()),
                        json.loads(change.read_text()),
                        benchmark["end_to_end"])
    header = ["workload", "metric", "parent median [q1, q3] n",
              "change median [q1, q3] n", "delta", "bound", "verdict"]
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 0


def _golden() -> int:
    mismatched = harness.write_golden()
    if mismatched:
        print("golden.json not written; these results differ from the "
              "serial oracle:", file=sys.stderr)
        for label in mismatched:
            print(f"  {label}", file=sys.stderr)
        return 1
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
