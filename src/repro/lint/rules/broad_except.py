"""Rule ``broad-except`` — no silent swallowing of exceptions.

The engine's batched path falls back from the vectorized tag-store
kernel to the serial per-access engine when the bank declines an
epoch; a ``try: ... except: pass`` around a kernel call would turn a
genuine kernel bug into a silent (and slow, and possibly wrong)
fallback that no differential test can distinguish from a legitimate
decline — the ``RunStats.scalar_epochs`` counter exists precisely so
fallbacks are never silent.  Flags, anywhere in ``src/repro``:

* bare ``except:`` handlers (they also swallow ``KeyboardInterrupt``);
* ``except Exception``/``except BaseException`` handlers that neither
  re-raise, nor log, nor even *reference* the caught exception — a
  do-nothing body is one case of that.  Catching broadly is sometimes
  right, *unseen* is not: the supervisor/quarantine handlers in this
  repo all bind the exception and record it, which is the shape the
  rule sanctions.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..core import Finding, Rule, Severity, register
from ..source import SourceFile
from ._common import dotted_name

_BROAD = frozenset({"Exception", "BaseException"})


def _broad_names(node: ast.expr) -> bool:
    """Whether the handler type includes Exception/BaseException."""
    if isinstance(node, ast.Tuple):
        return any(_broad_names(elt) for elt in node.elts)
    name = dotted_name(node)
    return name in _BROAD or (name is not None
                              and name.split(".")[-1] in _BROAD)


#: Call names (last dotted segment) accepted as "the error was
#: surfaced": stdlib logging methods, ``warnings.warn`` and ``print``.
_LOG_NAMES = frozenset({
    "print", "warn", "warning", "error", "exception", "log", "debug",
    "info", "critical",
})


def _body_walk(body: list) -> Iterator[ast.AST]:
    for stmt in body:
        yield from ast.walk(stmt)


def _reraises(body: list) -> bool:
    return any(isinstance(n, ast.Raise) for n in _body_walk(body))


def _logs(body: list) -> bool:
    for n in _body_walk(body):
        if isinstance(n, ast.Call):
            name = dotted_name(n.func)
            if name is not None and name.split(".")[-1] in _LOG_NAMES:
                return True
    return False


def _references(body: list, name: Optional[str]) -> bool:
    """Whether the bound exception ``name`` is used anywhere in the body."""
    if name is None:
        return False
    return any(isinstance(n, ast.Name) and n.id == name
               for n in _body_walk(body))


@register
class BroadExceptRule(Rule):
    name = "broad-except"
    severity = Severity.ERROR
    description = ("bare except, or except Exception/BaseException that "
                   "neither re-raises, logs, nor uses the caught exception")
    contract = ("a kernel bug must surface as a failure, never as a "
                "silent fallback from the vectorized kernel to the "
                "serial engine; a contained failure must leave a trace "
                "so retries, quarantines and degradations stay "
                "observable")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    source, node.lineno, node.col_offset,
                    "bare 'except:' swallows everything including "
                    "KeyboardInterrupt; name the exceptions you expect")
            elif _broad_names(node.type) and not (
                    _reraises(node.body) or _logs(node.body)
                    or _references(node.body, node.name)):
                yield self.finding(
                    source, node.lineno, node.col_offset,
                    "broad 'except Exception' discards the error unseen; "
                    "re-raise, log, or bind it ('except Exception as e') "
                    "and record it")
