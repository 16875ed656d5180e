"""Rule ``float-eq`` — no float equality in timing/EAB-model code.

The timing model (queueing delays, EAB bandwidth accounting, epoch
settlement) works in float cycles; ``==``/``!=`` against a float is a
latent bug there because algebraically-equal quantities computed along
different execution paths (batched vs serial) differ by round-off.
The rule flags comparisons where either side is a float literal inside
the designated timing modules.  Threshold comparisons (``<``, ``<=``,
...) are the correct tool and are not flagged; the rare deliberate
sentinel check (e.g. "scale factor is exactly the default 1.0")
carries an inline ``# repro: noqa(float-eq)`` justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, Rule, Severity, register
from ..source import SourceFile
from ._common import module_matches

#: Timing/EAB-model modules subject to the rule.
TIMING_MODULES = (
    "repro/sim/engine.py",
    "repro/sim/run.py",
    "repro/sim/eventsim.py",
    "repro/core/eab.py",
    "repro/core/sac.py",
    "repro/core/overhead.py",
    "repro/noc/crossbar.py",
    "repro/noc/ring.py",
    "repro/memory/dram.py",
)


@register
class FloatEqRule(Rule):
    name = "float-eq"
    severity = Severity.ERROR
    description = "== / != against a float literal in timing-model code"
    contract = ("quantities computed along different execution paths "
                "agree only to round-off; timing code must use "
                "thresholds, not float equality")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if not module_matches(source, TIMING_MODULES):
            return
        for node in source.walk():
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[i], operands[i + 1]):
                    if isinstance(side, ast.Constant) and \
                            isinstance(side.value, float):
                        yield self.finding(
                            source, node.lineno, node.col_offset,
                            f"float equality against {side.value!r}; use a "
                            f"threshold (or justify a deliberate sentinel "
                            f"with '# repro: noqa(float-eq)')")
                        break
