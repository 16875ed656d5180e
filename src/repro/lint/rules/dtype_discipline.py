"""Rule ``dtype-discipline`` — explicit dtypes in the vector kernels.

The structure-of-arrays LLC kernel (:mod:`repro.cache.vector`) and the
engine's batched path are bit-identical to the scalar reference only
while every array carries the dtype the kernel's arithmetic assumes
(``int64`` tags/indices, ``bool`` masks).  Default dtypes are
platform-dependent (``np.arange`` yields int32 on Windows) and silently
shift under refactors, so every numpy array construction in the
designated modules must say what it means.  The trace modules that
build the per-access arrays, the SAC modules that compute with them and
the page table, whose int16 home-per-page table is part of its
contract, are designated too.

Two checks:

* array-constructing calls (``np.array``, ``np.zeros``, ``np.empty``,
  ``np.full``, ``np.arange``, ``np.asarray``, ``np.ascontiguousarray``,
  ``np.frombuffer``, ``.astype(...)`` excepted) must pass an explicit
  ``dtype=`` keyword;
* arithmetic mixing a float literal into an expression rooted at a
  tag/index array name (``tags``/``idx``/``sets``/``slots``/``rows``/
  ``lines``) is flagged — integer tag math must stay integral.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..core import Finding, Rule, Severity, register
from ..source import SourceFile
from ._common import call_name, module_matches

#: Modules under dtype discipline.
DTYPE_MODULES = (
    "repro/cache/vector.py",
    "repro/sim/engine.py",
    "repro/workloads/generator.py",
    "repro/workloads/programs.py",
    "repro/workloads/traceio.py",
    "repro/core/counters.py",
    "repro/core/sac.py",
    "repro/memory/pages.py",
)

#: numpy constructors that take a ``dtype`` keyword and default it.
_CONSTRUCTORS = frozenset({
    "np.array", "np.asarray", "np.ascontiguousarray", "np.zeros",
    "np.empty", "np.full", "np.arange", "np.frombuffer", "np.fromiter",
    "numpy.array", "numpy.asarray", "numpy.ascontiguousarray",
    "numpy.zeros", "numpy.empty", "numpy.full", "numpy.arange",
    "numpy.frombuffer", "numpy.fromiter",
})

#: Integer tag/index array spellings used by the kernels.
_TAG_INDEX_RE = re.compile(
    r"^(tags?|tg|idx|index|indices|sets?|slots?|rows?|lines?|ranks?"
    r"|counts?)(\d*)(_np|_l|_s|_e|_big|_tab)?$")


def _has_dtype_kwarg(node: ast.Call) -> bool:
    return any(kw.arg == "dtype" for kw in node.keywords)


def _tag_array_root(node: ast.AST) -> bool:
    """Whether ``node`` (a BinOp operand) is rooted at a tag/index name."""
    current = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        current = current.value
    if isinstance(current, ast.Name):
        return bool(_TAG_INDEX_RE.match(current.id))
    return False


@register
class DtypeDisciplineRule(Rule):
    name = "dtype-discipline"
    severity = Severity.ERROR
    description = ("numpy array construction without an explicit dtype, "
                   "or float arithmetic on an integer tag/index array")
    contract = ("the vectorized LLC kernel and the batched engine path "
                "are bit-identical to the scalar model only while every "
                "array carries an explicit, integral-where-needed dtype")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if not module_matches(source, DTYPE_MODULES):
            return
        for node in source.walk():
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in _CONSTRUCTORS and not _has_dtype_kwarg(node):
                    yield self.finding(
                        source, node.lineno, node.col_offset,
                        f"{name}(...) without an explicit dtype=; default "
                        f"dtypes are platform-dependent and drift under "
                        f"refactors")
            elif isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div,
                              ast.FloorDiv, ast.Mod)):
                for this, other in ((node.left, node.right),
                                    (node.right, node.left)):
                    if isinstance(other, ast.Constant) and \
                            isinstance(other.value, float) and \
                            _tag_array_root(this):
                        yield self.finding(
                            source, node.lineno, node.col_offset,
                            "float literal mixed into tag/index array "
                            "arithmetic; integer tag math must stay "
                            "integral (use an int literal or an explicit "
                            "cast)")
                        break
