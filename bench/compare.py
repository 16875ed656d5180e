"""Summaries of per-pass samples and the verdict between two runs.

A change is judged per (workload, end-to-end metric) against the bound
``BENCHMARK.json`` fixes for the metric:

* ``worse``: the change's median is worse than the parent's by more
  than the bound (``error_rate``: by anything at all);
* ``better``: there are at least 10 index-paired passes, the change wins
  at least 9 of every 10 pairs, and the medians differ by more than the
  parent's own quartile spread.  Fewer pairs never claim a gain;
* ``unresolved``: neither, but the spread of either side is wider than
  the bound and some pass of the change reads worse than some pass of
  the parent, so "no change" cannot be claimed;
* ``ok``: none of the above.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Sequence

#: Paired passes from which the 9-of-10 win rule applies.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and sample count."""
    if not values:
        raise ValueError("no samples to summarize")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """Judge ``change`` against ``parent`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = summarize(parent), summarize(change)
    if relative_delta(a["median"], b["median"], better) > bound:
        return "worse"
    if (abs(b["median"] - a["median"]) > a["q3"] - a["q1"]
            and _wins(parent, change, sign)):
        return "better"
    spread = max(_share(a["q3"] - a["q1"], a["median"]),
                 _share(b["q3"] - b["q1"], b["median"]))
    some_worse = any(sign * (y - x) > 0 for x in parent for y in change)
    if spread > bound and some_worse:
        return "unresolved"
    return "ok"


def relative_delta(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of the
    parent (negative when it is better)."""
    sign = 1.0 if better == "lower" else -1.0
    if parent == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, sign * change)
    return sign * (change - parent) / abs(parent)


def _wins(parent: Sequence[float], change: Sequence[float],
          sign: float) -> bool:
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return False
    won = sum(sign * (x - y) > 0 for x, y in pairs)
    return won >= WIN_SHARE * len(pairs)


def _share(spread: float, median: float) -> float:
    return spread / abs(median) if median else 0.0


def compare_runs(parent: Dict[str, Any], change: Dict[str, Any],
                 end_to_end: List[Dict[str, Any]]) -> List[List[str]]:
    """Table rows comparing two results files (see ``bench/README.md``)."""
    rows = []
    workloads_a = parent["workloads"]
    workloads_b = change["workloads"]
    metrics = [(str(m["name"]), str(m["better"]), float(m["bound"]))
               for m in end_to_end]
    metrics.append(("error_rate", "lower", 0.0))
    for workload in workloads_a:
        if workload not in workloads_b:
            continue
        samples_a = workloads_a[workload]["samples"]
        samples_b = workloads_b[workload]["samples"]
        for name, better, bound in metrics:
            a, b = samples_a[name], samples_b[name]
            sa, sb = summarize(a), summarize(b)
            delta = relative_delta(sa["median"], sb["median"], better)
            rows.append([
                workload, name, _fmt(sa), _fmt(sb), f"{delta:+.1%}",
                f"{bound:.0%}", verdict(a, b, better, bound)])
    return rows


def _fmt(s: Dict[str, float]) -> str:
    return (f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
            f"n={int(s['n'])}")
