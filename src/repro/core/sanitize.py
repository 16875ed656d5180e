"""Runtime kernel-contract sanitizer (always on).

Every vector-bank call runs under three checks:

* arrays shared across runs are read-only: the trace generator marks
  its memoized trace arrays, and the engine its per-epoch memos,
  ``writeable=False`` when it builds them, so a write into one inside
  a kernel body raises (see :func:`guarded`) instead of corrupting
  every later run that reads it;
* the vector-bank entry points assert their dtype/shape contracts
  (:func:`expect`), and the staged ones the L1.5 partition shape
  (:func:`require`), before touching state — a float address array, a
  mismatched lane batch or a probe on the wrong partition fails loudly
  at the boundary, not as a silently wrong verdict deep in the kernel;
  and
* kernel bodies run under ``np.errstate(all="raise")`` inside
  :func:`guarded`, which translates numpy's read-only ``ValueError``
  and ``FloatingPointError`` into :class:`SanitizerError` after
  recording a :class:`Violation` in the process-wide
  :func:`report`.

The sanitizer never changes verdicts: read-only flags and error traps
only *observe*, so a clean run computes exactly what the unchecked
kernel would.  The one write a read-only array cannot refuse — being
made writeable again — is ruled out by an AST scan of the package
(``tests/core/test_sanitize.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional

import numpy as np

__all__ = [
    "SanitizerError",
    "SanitizerReport",
    "Violation",
    "expect",
    "guarded",
    "report",
    "require",
]


class Violation(NamedTuple):
    """One recorded sanitizer violation."""

    kind: str    # "encoding-write" | "contract" | "fp-error"
    site: str    # entry point or kernel phase, e.g. "VectorBank.access_many_grouped"
    detail: str


class SanitizerError(RuntimeError):
    """A vector-kernel contract was violated."""


@dataclass
class SanitizerReport:
    """Accumulated violations of one process.

    Every violation also raises :class:`SanitizerError`, so no run
    returns stats after one; the report keeps the record for tests and
    error messages.
    """

    violations: List[Violation] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.violations)

    def record(self, kind: str, site: str, detail: str) -> Violation:
        violation = Violation(kind, site, detail)
        self.violations.append(violation)
        return violation

    def clear(self) -> None:
        self.violations.clear()

    def summary(self) -> str:
        if not self.violations:
            return "sanitizer: clean"
        lines = [f"sanitizer: {self.count} violation(s)"]
        lines.extend(f"  [{v.kind}] {v.site}: {v.detail}"
                     for v in self.violations)
        return "\n".join(lines)


_REPORT = SanitizerReport()


def report() -> SanitizerReport:
    """The process-wide violation report."""
    return _REPORT


def _fail(kind: str, site: str, detail: str) -> "SanitizerError":
    _REPORT.record(kind, site, detail)
    return SanitizerError(f"{site}: {detail}")


def expect(site: str, name: str, value: object, dtype: str,
           length: Optional[int] = None) -> None:
    """Assert one entry-point array contract (1-D, exact dtype, length).

    Raises :class:`SanitizerError` (after recording the violation) on
    the first mismatch.
    """
    if not isinstance(value, np.ndarray):
        raise _fail("contract", site,
                    f"{name} is {type(value).__name__}, expected a "
                    f"1-D ndarray[{dtype}]")
    if value.dtype != np.dtype(dtype):
        raise _fail("contract", site,
                    f"{name} has dtype {value.dtype}, expected {dtype}")
    if value.ndim != 1:
        raise _fail("contract", site,
                    f"{name} has ndim {value.ndim}, expected 1")
    if length is not None and value.shape[0] != length:
        raise _fail("contract", site,
                    f"{name} has length {value.shape[0]}, expected "
                    f"{length}")


def require(site: str, condition: bool, detail: str) -> None:
    """Assert one entry-point contract beyond an array's dtype and shape.

    Raises :class:`SanitizerError` (after recording a ``contract``
    violation) when ``condition`` is false.
    """
    if not condition:
        raise _fail("contract", site, detail)


@contextmanager
def guarded(site: str) -> Iterator[None]:
    """Run a kernel body under the sanitizer's error traps.

    Inside the block numpy floating-point anomalies raise
    (``np.errstate(all="raise")``), and both those and writes to
    read-only arrays (numpy's read-only ``ValueError``) are re-raised as
    :class:`SanitizerError` after being recorded.  Unrelated
    ``ValueError``\\ s propagate untouched.
    """
    try:
        with np.errstate(all="raise"):
            yield
    except FloatingPointError as exc:
        raise _fail("fp-error", site, str(exc)) from exc
    except ValueError as exc:
        if "read-only" in str(exc):
            raise _fail("encoding-write", site, str(exc)) from exc
        raise
