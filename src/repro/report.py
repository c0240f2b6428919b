"""Text rendering of study results: tables and ASCII charts.

The benchmarks regenerate the paper's *figures*; without a plotting
dependency, grouped bar charts render as unicode block rows so the shape
of Figure 4(a)/5(b) is visible directly in the bench output.
"""

from __future__ import annotations

from collections.abc import Mapping

_BLOCKS = " ▏▎▍▌▋▊▉█"


def bar(value: float, max_value: float, width: int = 32) -> str:
    """Render ``value`` as a block bar scaled to ``max_value``."""
    if max_value <= 0:
        return ""
    fraction = max(0.0, min(1.0, value / max_value))
    cells = fraction * width
    full = int(cells)
    remainder = cells - full
    partial = _BLOCKS[int(remainder * (len(_BLOCKS) - 1))].rstrip()
    return "█" * full + (partial if full < width else "")


def grouped_bar_chart(
    data: Mapping[str, Mapping[str, float]],
    title: str = "",
    width: int = 32,
    value_format: str = "{:.2f}",
) -> str:
    """Render ``{group: {series: value}}`` as grouped ASCII bars.

    Groups are the outer keys (e.g. applications); series the inner keys
    (e.g. configurations).  All bars share one scale.
    """
    lines = [f"=== {title} ===" if title else ""]
    max_value = max(
        (v for series in data.values() for v in series.values()),
        default=0.0,
    )
    series_width = max(
        (len(s) for series in data.values() for s in series), default=0
    )
    for group, series in data.items():
        lines.append(f"{group}")
        for name, value in series.items():
            rendered = bar(value, max_value, width)
            lines.append(
                f"  {name:<{series_width}} {rendered:<{width}} "
                f"{value_format.format(value)}"
            )
    return "\n".join(line for line in lines if line != "")

