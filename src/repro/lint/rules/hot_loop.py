"""Rule ``hot-loop`` — no per-access Python loops on the vector path.

Simulation throughput depends on the vector path resolving whole epochs
with numpy kernels, so per-access Python loops must never creep back
into it.  This rule flags ``for``/``while`` loops in every module the
vector path executes (:data:`HOT_MODULES`) whose iterable (or loop
condition) mentions a per-access trace array —
``addrs``/``writes``/``chips``/``clusters``/``slices``/``channels``/
``homes``/``pairs`` and their ``_np``/``_l``/``_s``/``_r`` spellings,
``epoch.<field>`` attributes, or the conventional batch length
``n``/``range(len(...))`` forms.  ``tests/lint/test_hot_modules.py``
runs vector-path simulations under a profiler and fails if a module
they execute is missing from the list, so a loop moved into a helper
module cannot escape the rule.

Loops over *grouped* quantities (unique pages, nonzero bincount bins,
chips, slices) are inherently bounded by the machine geometry, not the
access count, and are not flagged.  Neither are *rank loops* such as
the LRU kernel's ``for r in range(steps)``: each iteration advances
every live set by one access in a few numpy calls, so the loop runs
once per access of the busiest set (tens per epoch), not once per
access, and the work per iteration is vectorized over the sets.  A
rank loop's bound must stay a per-set access count; ``range(n)`` over
the batch length is still flagged.  The deliberate per-access loops
left in these modules — the engine's serial reference path, the oracle
every batched epoch must reproduce, and the SAC counters' sampled
scalar update — carry an inline ``# repro: noqa(hot-loop)``
suppression with their justification.

The rule also covers *cooperative drivers* (``_drive``-style generator
pumps): in the designated driver modules, any loop nested inside a
pump's round loop (a ``while``) whose iterable mentions a per-lane
collection — ``probes``/``members``/``outcomes``/``sids`` and friends —
runs O(rounds x lanes) times and is flagged.  Cheap deliberate
bookkeeping loops (stats charging, probe regrouping) carry the same
inline suppressions; anything that does real per-lane *work* there
belongs in the bank's shared entry points.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..core import Finding, Rule, Severity, register
from ..source import SourceFile
from ._common import module_matches

#: Modules whose loops are subject to this rule: every module the
#: vector path executes (``tests/lint/test_hot_modules.py`` keeps this
#: list complete).
HOT_MODULES = (
    "repro/arch/config.py",
    "repro/cache/cache.py",
    "repro/cache/vector.py",
    "repro/core/counters.py",
    "repro/core/crd.py",
    "repro/core/eab.py",
    "repro/core/flags.py",
    "repro/core/sac.py",
    "repro/core/sanitize.py",
    "repro/llc/base.py",
    "repro/llc/organizations.py",
    "repro/memory/dram.py",
    "repro/memory/mapping.py",
    "repro/memory/pages.py",
    "repro/noc/crossbar.py",
    "repro/noc/ring.py",
    "repro/resilience/faults.py",
    "repro/sim/engine.py",
    "repro/sim/stats.py",
    "repro/workloads/generator.py",
)

#: Modules hosting cooperative drivers (generator pumps that resolve
#: many lanes per round): per-lane loops inside their round loops are
#: subject to the driver arm of this rule.
DRIVER_MODULES = (
    "repro/sim/stacked.py",
)

#: Per-lane collection spellings used by the stacked driver: one entry
#: per lane (or per group member) each round.  Loop targets like
#: ``probe``/``member`` stay singular, so they never match.
_LANE_ARRAY_RE = re.compile(
    r"^(probes|member_probes|outcomes|sids|reps|steps|members"
    r"|engines|lanes|gcalls|scalls)$")

#: Per-access array spellings used across the engine and cache kernels.
#: Deliberately plural-only: ``chip``/``addr``/``slice`` are scalar loop
#: variables all over the geometry-bounded accounting loops.
_ACCESS_ARRAY_RE = re.compile(
    r"^(addrs|writes|chips|clusters|slices|channels|homes|pairs"
    r"|hit_stages|accesses)(_np|_l|_s|_r|_e|_big)?$")

#: Bare batch-length names that only ever mean "number of accesses".
_LENGTH_NAMES = frozenset({"n", "num_accesses"})

#: ``epoch.<attr>`` attributes that are per-access arrays.
_EPOCH_ARRAYS = frozenset({"addrs", "writes", "chips", "clusters"})


def _mentions_access_array(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            if _ACCESS_ARRAY_RE.match(node.id):
                return True
        elif isinstance(node, ast.Attribute):
            if node.attr in _EPOCH_ARRAYS and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in ("epoch", "trace"):
                return True
        elif isinstance(node, ast.Call):
            # range(n) / range(len(<access array>)): the canonical
            # per-access index loops.
            func = node.func
            if isinstance(func, ast.Name) and func.id == "range":
                for arg in node.args:
                    if isinstance(arg, ast.Name) and \
                            arg.id in _LENGTH_NAMES:
                        return True
    return False


def _mentions_lane_array(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and _LANE_ARRAY_RE.match(node.id):
            return True
    return False


def _loop_suspects(node: ast.AST) -> list:
    """The (expr, subject) pairs a loop-ish node iterates or tests."""
    if isinstance(node, ast.For):
        return [(node.iter, "iterable")]
    if isinstance(node, ast.While):
        return [(node.test, "condition")]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return [(gen.iter, "comprehension iterable")
                for gen in node.generators]
    return []


@register
class HotLoopRule(Rule):
    name = "hot-loop"
    severity = Severity.ERROR
    description = ("Python for/while loop over a per-access trace array "
                   "in a module the vector path executes")
    contract = ("the engine's batched path and the vectorized LLC probe "
                "kernel resolve whole epochs with numpy; per-access "
                "Python loops belong only to the serial reference path "
                "and must be explicitly justified")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if module_matches(source, DRIVER_MODULES):
            yield from self._check_driver(source)
        if not module_matches(source, HOT_MODULES):
            return
        for node in source.walk():
            for expr, subject in _loop_suspects(node):
                # Iterating a literal tuple/list of arrays walks a fixed
                # handful of objects, not the accesses inside them.
                if isinstance(expr, (ast.Tuple, ast.List)):
                    continue
                if _mentions_access_array(expr):
                    yield self.finding(
                        source, node.lineno, node.col_offset,
                        f"per-access Python loop ({subject} touches a "
                        f"trace/access array); vectorize it or justify "
                        f"with '# repro: noqa(hot-loop)'")
                    break

    def _check_driver(self, source: SourceFile) -> Iterator[Finding]:
        """Flag per-lane loops inside a cooperative driver's round loop.

        A pump's ``while`` round loop repeats until every lane's
        generator is exhausted; any loop under it whose iterable names
        a per-lane collection runs O(rounds x lanes) times in Python.
        """
        seen = set()
        for pump in source.walk():
            if not isinstance(pump, ast.While):
                continue
            for node in ast.walk(pump):
                if node is pump or not _loop_suspects(node) or \
                        (node.lineno, node.col_offset) in seen:
                    continue
                for expr, subject in _loop_suspects(node):
                    if _mentions_lane_array(expr):
                        seen.add((node.lineno, node.col_offset))
                        yield self.finding(
                            source, node.lineno, node.col_offset,
                            f"per-lane Python loop in a cooperative "
                            f"driver round ({subject} touches a lane "
                            f"collection); move the work into a shared "
                            f"bank entry point or justify with "
                            f"'# repro: noqa(hot-loop)'")
                        break
