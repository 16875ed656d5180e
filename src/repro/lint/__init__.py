"""Project-specific static analysis for the repro simulator core.

The vectorized hot paths are guarded at runtime by differential tests
and the always-on kernel-contract sanitizer (:mod:`repro.core.sanitize`);
this package guards them *statically* with eight per-file AST rules —
no per-access loops in the modules the vector path runs, explicit numpy
dtypes, validated config fields, no float equality in timing code,
deterministic cache-key construction, no mutable defaults and no
silencing ``except`` blocks.  See ``docs/static_analysis.md``.

Use ``python -m repro.lint`` to run it; see :mod:`repro.lint.cli`.
"""

from __future__ import annotations

from .core import REGISTRY, Finding, Rule, Severity, register
from .runner import Report, check_source, run
from .source import SourceFile
from . import rules as _rules  # noqa: F401  (populates REGISTRY on import)

__all__ = [
    "Finding",
    "REGISTRY",
    "Report",
    "Rule",
    "Severity",
    "SourceFile",
    "check_source",
    "register",
    "run",
]
