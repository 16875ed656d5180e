"""Shared AST helpers for the rule modules."""

from __future__ import annotations

import ast
from typing import Optional, Sequence

from ..source import SourceFile


def module_matches(source: SourceFile, suffixes: Sequence[str]) -> bool:
    """Whether ``source`` is one of the modules named by ``suffixes``.

    Matching is by posix path suffix (``sim/engine.py``), so it works
    for the repo layout, for installed packages and for test fixtures
    that mirror the tail of the real path.
    """
    rel = source.relpath
    return any(rel == suffix or rel.endswith("/" + suffix)
               for suffix in suffixes)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's target, e.g. ``np.zeros``."""
    return dotted_name(node.func)

