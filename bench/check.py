"""Correctness gate: result digests, seed-independent invariants, golden.

A result is *correct* when it satisfies every invariant, equals the
golden digest where one applies (paper seed, default sizes), and equals
the same result of every other pass of the run.  ``bench/golden.json``
is written by ``python -m bench golden`` only after every result it
records was checked against the serial oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(stats: Any) -> str:
    """sha256 of the canonical JSON of ``stats.comparable_dict()``."""
    payload = json.dumps(stats.comparable_dict(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def invariant_errors(stats: Any) -> List[str]:
    """Accounting identities that hold for any seed and organization."""
    errors = []
    responses = sum(stats.responses_by_origin.values())
    if responses != stats.accesses:
        errors.append(f"response origins sum to {responses}, "
                      f"not {stats.accesses} accesses")
    cycles = sum(k.cycles for k in stats.kernels)
    if not math.isclose(cycles, stats.cycles, rel_tol=1e-9):
        errors.append(f"kernel cycles sum to {cycles!r}, "
                      f"not {stats.cycles!r}")
    accesses = sum(k.accesses for k in stats.kernels)
    if accesses != stats.accesses:
        errors.append(f"kernel accesses sum to {accesses}, "
                      f"not {stats.accesses}")
    return errors


def load_golden(workload: str, scale: float,
                density: int) -> Optional[Dict[str, str]]:
    """Golden digests of ``workload`` at the paper seed, if recorded for
    exactly these sizes."""
    if not GOLDEN_PATH.exists():
        return None
    section = json.loads(GOLDEN_PATH.read_text())["workloads"].get(workload)
    if (section is None or section["scale"] != scale
            or section["density"] != density):
        return None
    digests: Dict[str, str] = section["digests"]
    return digests


def score(passes: List[Dict[str, Any]],
          golden: Optional[Dict[str, str]]) -> Dict[str, Any]:
    """Count attempted and failed results over ``passes``.

    The first digest seen for a label is the run's reference; a later
    pass that differs from it is nondeterministic and fails.  Returns
    the counts plus the reference digests.
    """
    attempted = failed = 0
    reference: Dict[str, str] = {}
    problems: List[str] = []
    for number, result in enumerate(passes):
        attempted += result["attempted"]
        missing = result["attempted"] - len(result["results"])
        if result["error"]:
            missing = max(missing, 1)
            problems.append(f"pass {number}: {result['error']}")
        failed += missing
        for label, entry in result["results"].items():
            first = reference.setdefault(label, entry["digest"])
            why = list(entry["errors"])
            if golden is not None and entry["digest"] != golden.get(label):
                why.append("digest differs from golden")
            if entry["digest"] != first:
                why.append("digest differs from an earlier pass")
            if why:
                failed += 1
                problems.append(f"pass {number} {label}: {'; '.join(why)}")
    return {"attempted": attempted, "failed": failed, "digests": reference,
            "problems": problems}
