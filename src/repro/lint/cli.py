"""``python -m repro.lint`` — the analyzer's command-line front end.

Exit status: 0 when no new error-severity findings (and no parse
errors), 1 when new findings exist, 2 on usage errors.
``noqa``-suppressed findings never fail the run.

``--format github`` emits workflow-command annotations for CI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import rules as _rules  # noqa: F401  (imports populate REGISTRY)
from .core import REGISTRY
from .formats import FORMATS, render
from .runner import run

def _default_paths() -> List[Path]:
    """``src/repro`` when run from the repo root, else the package dir."""
    candidate = Path("src") / "repro"
    if candidate.is_dir():
        return [candidate]
    return [Path(__file__).resolve().parent.parent]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Project-specific static analyzer for the repro "
                    "simulator core.")
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to analyze (default: src/repro)")
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULE",
        help="run only this rule (repeatable)")
    parser.add_argument(
        "--format", choices=FORMATS, default="text", dest="fmt",
        help="output format (default: text; github emits ::error "
             "workflow annotations for CI)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="describe every registered rule and exit")
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings hidden by inline noqa comments")
    parser.add_argument(
        "--quiet", action="store_true", help="print only the summary line")
    return parser


def _list_rules() -> str:
    chunks = []
    for rule in REGISTRY.instantiate():
        chunks.append(f"{rule.name} [{rule.severity}]\n"
                      f"    {rule.description}\n"
                      f"    contract: {rule.contract}")
    return "\n".join(chunks)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    selected = None
    if args.select:
        known = set(REGISTRY.names())
        unknown = sorted(set(args.select) - known)
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(sorted(known))}")
        selected = [cls() for name, cls in sorted(REGISTRY.rules.items())
                    if name in set(args.select)]

    paths = list(args.paths) if args.paths else _default_paths()
    try:
        report = run(paths, rules=selected, root=Path.cwd())
    except FileNotFoundError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2

    print(render(report, args.fmt, show_suppressed=args.show_suppressed,
                 quiet=args.quiet))
    return 1 if report.failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
