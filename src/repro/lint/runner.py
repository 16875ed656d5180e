"""Running the rule set over a file tree and classifying the results.

Every rule checks each parsed :class:`SourceFile` independently.
Full-registry runs also emit ``unused-suppression`` warnings for
``# repro: noqa`` comments that suppressed no finding, so dead
suppressions are flushed out instead of accreting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from .core import REGISTRY, Finding, Rule, Severity
from .source import SourceFile, relpath_of

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".repro_cache"}

#: Rule id of the runner-emitted dead-suppression warning.
UNUSED_SUPPRESSION = "unused-suppression"


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through)."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            if not _SKIP_DIRS.intersection(candidate.parts):
                yield candidate


@dataclass
class Report:
    """Outcome of one analyzer run."""

    new: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def new_errors(self) -> List[Finding]:
        return [f for f in self.new if f.severity is Severity.ERROR]

    @property
    def failed(self) -> bool:
        return bool(self.new_errors) or bool(self.parse_errors)


def check_source(source: SourceFile,
                 rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    """Run ``rules`` (default: every registered rule) over one file.

    Findings suppressed by inline ``noqa`` comments are *not* filtered —
    :func:`run` classifies them so reports can show what a suppression
    is hiding.
    """
    if rules is None:
        rules = REGISTRY.instantiate()
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(source))
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return findings


class _Run:
    """State of one analyzer pass (file IO and classification)."""

    def __init__(self, rule_list: List[Rule], root: Optional[Path]) -> None:
        self.rules = rule_list
        self.root = root
        self.report = Report()
        #: relpath -> noqa comment line -> rule names (as written).
        self.noqa_lines: Dict[str, Dict[int, List[str]]] = {}
        #: relpath -> comment lines that suppressed something.
        self.used_lines: Dict[str, Set[int]] = {}

    def check_files(self, paths: Sequence[Path]) -> None:
        for path in iter_python_files(paths):
            self.report.files_checked += 1
            text = path.read_text(encoding="utf-8")
            try:
                source = SourceFile.from_text(text, path, root=self.root)
            except SyntaxError as exc:
                self.report.parse_errors.append(f"{path}: {exc}")
                continue
            self._analyze(relpath_of(path, self.root), source)

    def _analyze(self, relpath: str, source: SourceFile) -> None:
        used: Set[int] = set()
        for finding in check_source(source, self.rules):
            if source.is_suppressed(finding.rule, finding.line):
                self.report.suppressed.append(finding)
                used |= _suppressors(source, finding)
            else:
                self.report.new.append(finding)
        self.noqa_lines[relpath] = {
            line: sorted(names)
            for line, names in source.noqa_comments.items()}
        self.used_lines.setdefault(relpath, set()).update(used)

    def unused_suppressions(self) -> None:
        for relpath in sorted(self.noqa_lines):
            used = self.used_lines.get(relpath, set())
            for line, names in sorted(self.noqa_lines[relpath].items()):
                if line in used:
                    continue
                listed = ", ".join(sorted(names))
                self.report.new.append(Finding(
                    rule=UNUSED_SUPPRESSION, severity=Severity.WARNING,
                    path=relpath, line=line, column=0,
                    message=(f"noqa comment suppresses nothing "
                             f"(names: {listed}); remove it or fix the "
                             f"rule name")))


def _suppressors(source: SourceFile, finding: Finding) -> Set[int]:
    """Comment lines whose names actually cover ``finding``."""
    lines: Set[int] = set()
    for line in source.noqa_sources.get(finding.line, [finding.line]):
        names = source.noqa_comments.get(line, frozenset())
        if "*" in names or finding.rule in names:
            lines.add(line)
    return lines


def run(paths: Sequence[Path], rules: Optional[Iterable[Rule]] = None,
        root: Optional[Path] = None) -> Report:
    """Analyze every python file under ``paths`` and classify findings.

    Each finding lands in exactly one bucket: ``suppressed`` (an inline
    ``noqa`` covers it) or ``new`` (fails the run when of error
    severity).
    """
    full_registry = rules is None
    rule_list = list(rules) if rules is not None \
        else REGISTRY.instantiate()

    state = _Run(rule_list, root)
    state.check_files(paths)
    if full_registry:
        state.unused_suppressions()

    report = state.report
    report.new.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return report
