"""Command-line entry point: regenerate a paper table/figure.

Usage::

    python -m repro list
    python -m repro fig8
    python -m repro fig14 --fast
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional
import time

from .analysis.diskcache import DEFAULT_CACHE_DIR
from .experiments import REGISTRY


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate a table/figure of the SAC paper "
                    "(ISCA 2023).")
    parser.add_argument("experiment",
                        help="experiment name, or 'list' to enumerate")
    parser.add_argument("--fast", action="store_true",
                        help="reduced trace density (quicker, noisier)")
    parser.add_argument("--csv", metavar="PATH",
                        help="also export the result to a CSV file")
    parser.add_argument("--jobs", type=int, metavar="N",
                        help="simulate matrix pairs across N worker "
                             "processes (default: REPRO_JOBS env, else 1)")
    parser.add_argument("--cache-dir", metavar="PATH", nargs="?",
                        const=DEFAULT_CACHE_DIR, default=None,
                        help="persist results under PATH so repeated runs "
                             "skip simulation (default path: "
                             f"{DEFAULT_CACHE_DIR})")
    parser.add_argument("--task-timeout", type=float, metavar="SECONDS",
                        help="wall-clock ceiling per matrix worker task "
                             "(default: REPRO_TASK_TIMEOUT env, else none)")
    parser.add_argument("--retries", type=int, metavar="N",
                        help="re-dispatches per failed/timed-out matrix "
                             "task (default: REPRO_RETRIES env, else 2)")
    args = parser.parse_args(argv)

    if args.jobs is not None:
        if args.jobs < 1:
            parser.error("--jobs must be at least 1")
        # run_matrix reads REPRO_JOBS through default_jobs(), so setting
        # the env reaches every experiment without new plumbing.
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.task_timeout is not None:
        if args.task_timeout <= 0:
            parser.error("--task-timeout must be positive")
        # Same pattern as --jobs: the supervisor reads the env.
        os.environ["REPRO_TASK_TIMEOUT"] = str(args.task_timeout)
    if args.retries is not None:
        if args.retries < 0:
            parser.error("--retries cannot be negative")
        os.environ["REPRO_RETRIES"] = str(args.retries)
    if args.cache_dir is not None:
        from .analysis.runner import set_default_cache_dir
        set_default_cache_dir(args.cache_dir)

    if args.experiment == "list":
        for name, module in REGISTRY.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:12} {doc}")
        return 0

    module = REGISTRY.get(args.experiment)
    if module is None:
        known = ", ".join(REGISTRY)
        print(f"unknown experiment {args.experiment!r}; known: {known}, list",
              file=sys.stderr)
        return 2

    started = time.time()
    result = module.run_experiment(fast=args.fast)
    print(module.format_report(result))
    if args.csv:
        from .analysis.export import export_experiment
        try:
            rows = export_experiment(result, args.csv)
            print(f"[wrote {rows} rows to {args.csv}]")
        except ValueError as error:
            print(f"[csv export not supported for this experiment: {error}]",
                  file=sys.stderr)
    from .analysis.runner import telemetry
    print(f"\n[{args.experiment} completed in {time.time() - started:.1f}s"
          f"; runs: {telemetry().summary()}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
