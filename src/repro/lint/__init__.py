"""Project-specific static analysis for the repro simulator core.

The vectorized hot paths (PR 1/PR 2) are guarded at runtime by
differential tests; this package guards them *statically* by encoding
the numerical contracts as AST-driven lint rules — no per-access loops
in vector kernels, explicit numpy dtypes, validated config fields, no
float equality in timing code, deterministic cache-key construction, no
mutable defaults and no silencing ``except`` blocks.  See
``docs/static_analysis.md``.

Use ``python -m repro.lint`` to run it; see :mod:`repro.lint.cli`.
"""

from __future__ import annotations

from .core import REGISTRY, Finding, ProjectRule, Rule, Severity, register
from .graph import ProjectGraph, build_graph
from .runner import Report, check_source, run
from .source import SourceFile
from . import rules as _rules  # noqa: F401  (populates REGISTRY on import)

__all__ = [
    "Finding",
    "ProjectGraph",
    "ProjectRule",
    "REGISTRY",
    "Report",
    "Rule",
    "Severity",
    "SourceFile",
    "build_graph",
    "check_source",
    "register",
    "run",
]
