"""Rule ``bare-except`` — no silent swallowing of exceptions.

The engine's batched path falls back from the vectorized tag-store
kernel to the serial per-access engine when the bank declines an
epoch; a ``try: ... except: pass`` around a kernel call would turn a
genuine kernel bug into a silent (and slow, and possibly wrong)
fallback that no differential test can distinguish from a legitimate
decline — the ``RunStats.scalar_epochs`` counter exists precisely so
fallbacks are never silent.  Flags, anywhere in ``src/repro``:

* bare ``except:`` handlers (they also swallow ``KeyboardInterrupt``);
* ``except Exception``/``except BaseException`` handlers whose body
  does nothing (only ``pass``/``continue``/``...``) — catching broadly
  is sometimes right, *silently* is not: at minimum re-raise, return a
  sentinel the caller checks, or record why discarding is safe.

The companion rule ``broad-except`` covers the non-silent remainder: a
broad handler whose body does real work but neither re-raises, nor
logs, nor even *references* the caught exception has still thrown the
error away — the supervisor/quarantine handlers in this repo all bind
the exception and record it, which is the shape the rule sanctions.
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


def _body_is_silent(body: list) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass) or isinstance(stmt, ast.Continue):
            continue
        if isinstance(stmt, ast.Expr) and \
                isinstance(stmt.value, ast.Constant) and \
                stmt.value.value is Ellipsis:
            continue
        return False
    return True


@register
class BareExceptRule(Rule):
    name = "bare-except"
    severity = Severity.ERROR
    description = ("bare except, or except Exception whose body "
                   "silently discards the error")
    contract = ("a kernel bug must surface as a failure, never as a "
                "silent fallback from the vectorized kernel to the "
                "serial engine")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    source, node.lineno, node.col_offset,
                    "bare 'except:' swallows everything including "
                    "KeyboardInterrupt; name the exceptions you expect")
            elif _broad_names(node.type) and _body_is_silent(node.body):
                yield self.finding(
                    source, node.lineno, node.col_offset,
                    "'except Exception' with a do-nothing body silently "
                    "discards errors; handle, log or re-raise")


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
    description = ("except Exception/BaseException that neither "
                   "re-raises, logs, nor uses the caught exception")
    contract = ("a contained failure must leave a trace — re-raise it, "
                "log it, or bind and record the exception object — so "
                "retries, quarantines and degradations stay observable")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in source.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None or not _broad_names(node.type):
                continue
            if _body_is_silent(node.body):
                continue  # bare-except already flags silent bodies
            if (_reraises(node.body) or _logs(node.body)
                    or _references(node.body, node.name)):
                continue
            yield self.finding(
                source, node.lineno, node.col_offset,
                "broad 'except Exception' discards the error unseen; "
                "re-raise, log, or bind it ('except Exception as e') "
                "and record it")
