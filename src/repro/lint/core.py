"""Core abstractions of the ``repro.lint`` static analyzer.

A :class:`Rule` inspects one parsed source file at a time and yields
:class:`Finding` objects.  Rules self-register into :data:`REGISTRY`
via the :func:`register` decorator so that importing
:mod:`repro.lint.rules` is enough to make every rule available to the
runner and the CLI.  Each finding carries the rule name, severity and
location.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Type, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .source import SourceFile


class Severity(Enum):
    """How bad a finding is; errors fail the run, warnings do not."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str          # repo-relative, forward slashes
    line: int          # 1-based
    column: int        # 0-based
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.column + 1}: "
                f"{self.severity} [{self.rule}] {self.message}")


class Rule:
    """Base class for all lint rules.

    Subclasses set :attr:`name` (the id used in ``noqa`` comments and
    ``--select``), :attr:`severity`, :attr:`description` (one line) and
    :attr:`contract` (the invariant the rule protects, shown by
    ``--list-rules``), and implement :meth:`check`.
    """

    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    contract: str = ""

    def check(self, source: "SourceFile") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, source: "SourceFile", line: int, column: int,
                message: str) -> Finding:
        """Build a finding anchored at ``line`` of ``source``."""
        return Finding(
            rule=self.name, severity=self.severity, path=source.relpath,
            line=line, column=column, message=message)


@dataclass
class Registry:
    """Name-keyed collection of rule classes."""

    rules: Dict[str, Type[Rule]] = field(default_factory=dict)

    def add(self, rule_cls: Type[Rule]) -> Type[Rule]:
        if not rule_cls.name:
            raise ValueError(f"rule {rule_cls.__name__} has no name")
        if rule_cls.name in self.rules:
            raise ValueError(f"duplicate rule name {rule_cls.name!r}")
        self.rules[rule_cls.name] = rule_cls
        return rule_cls

    def instantiate(self) -> List[Rule]:
        return [cls() for _, cls in sorted(self.rules.items())]

    def names(self) -> List[str]:
        return sorted(self.rules)


#: The global rule registry populated by :mod:`repro.lint.rules`.
REGISTRY = Registry()


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`REGISTRY`."""
    return REGISTRY.add(rule_cls)
