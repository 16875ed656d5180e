"""Shared helpers for the repro.lint test suite."""

import textwrap
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.lint import Finding, SourceFile, check_source, run
from repro.lint.runner import Report


def lint_text(code: str, relpath: str,
              rule: Optional[str] = None) -> List[Finding]:
    """Run every registered rule over ``code`` as if it lived at ``relpath``.

    ``relpath`` controls which path-scoped rules consider the file
    theirs (e.g. ``"repro/sim/engine.py"`` puts the snippet under the
    hot-loop, dtype and float-eq regimes).  Inline ``noqa`` comments
    are NOT applied here — this is the raw finding stream.
    """
    source = SourceFile.from_text(textwrap.dedent(code), Path(relpath))
    findings = check_source(source)
    if rule is not None:
        findings = [f for f in findings if f.rule == rule]
    return findings


def write_tree(root: Path, files: Dict[str, str]) -> None:
    """Materialize ``relpath -> code`` under ``root`` (dedented)."""
    for relpath, code in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code), encoding="utf-8")


def lint_tree(root: Path, files: Dict[str, str], **kwargs) -> Report:
    """Write ``files`` under ``root`` and run the full analyzer."""
    write_tree(root, files)
    return run([root], root=root, **kwargs)


@pytest.fixture
def repo_root() -> Path:
    return Path(__file__).resolve().parents[2]
