"""Terminal bar charts for experiment reports.

Dependency-free horizontal bars (Figure 8's speedups) for a terminal.
The renderer returns a string; the experiment report prints it.
"""

from __future__ import annotations

from typing import Mapping, Optional

FULL = "#"
PARTIAL = "-"


def _bar(value: float, scale: float, width: int) -> str:
    """A bar of ``value`` at ``scale`` units per ``width`` chars."""
    if value <= 0 or scale <= 0:
        return ""
    cells = value / scale * width
    whole = int(cells)
    fraction = cells - whole
    bar = FULL * whole
    if fraction >= 0.5 and whole < width:
        bar += PARTIAL
    return bar[:width]


def bar_chart(values: Mapping[str, float], width: int = 40,
              reference: Optional[float] = None,
              value_format: str = "{:.2f}") -> str:
    """Horizontal bars, one per entry; optional reference line value.

    ``reference`` (e.g. 1.0 for speedups) is marked with ``|`` at its
    position on each bar's ruler.
    """
    if not values:
        raise ValueError("nothing to chart")
    peak = max(max(values.values()), reference or 0.0)
    if peak <= 0:
        raise ValueError("chart needs a positive value")
    label_width = max(len(str(k)) for k in values)
    lines = []
    ref_pos = None
    if reference is not None and reference > 0:
        ref_pos = min(width - 1, int(reference / peak * width))
    for key, value in values.items():
        bar = _bar(value, peak, width).ljust(width)
        if ref_pos is not None:
            marker = "|" if bar[ref_pos] == " " else bar[ref_pos]
            bar = bar[:ref_pos] + marker + bar[ref_pos + 1:]
        rendered_value = value_format.format(value)
        lines.append(f"{str(key).ljust(label_width)}  {bar} {rendered_value}")
    return "\n".join(lines)

