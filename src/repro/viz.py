"""Terminal visualization: unicode charts for experiment results.

Pure-text renderings used by the CLI (``--chart``) and examples; no
plotting dependency.  Two forms:

* :func:`bar_chart` — horizontal bars for one series;
* :func:`grouped_bars` — several named series side by side (the shape
  of the paper's speedup figures).
"""

from __future__ import annotations

from typing import Mapping, Optional

_BLOCKS = " ▏▎▍▌▋▊▉█"


def _bar(fraction: float, width: int) -> str:
    """A left-aligned bar of ``fraction`` of ``width`` cells."""
    fraction = max(0.0, min(1.0, fraction))
    cells = fraction * width
    full = int(cells)
    rem = cells - full
    partial = _BLOCKS[round(rem * 8)] if full < width else ""
    return "█" * full + partial


def bar_chart(values: Mapping[str, float], width: int = 40,
              unit: str = "", reference: Optional[float] = None) -> str:
    """Horizontal bars, scaled to the largest value.

    ``reference`` draws a marker column (e.g. the single-thread line of
    Fig. 9) at its position.
    """
    if not values:
        return "(no data)"
    peak = max(max(values.values()), reference or 0.0)
    if peak <= 0:
        peak = 1.0
    label_width = max(len(str(k)) for k in values)
    lines = []
    for name, value in values.items():
        bar = _bar(value / peak, width)
        line = f"{str(name):>{label_width}} |{bar:<{width}}| " \
               f"{value:g}{unit}"
        if reference is not None and reference > 0:
            pos = min(width - 1, int(reference / peak * width))
            body = list(line[label_width + 2 : label_width + 2 + width])
            if body[pos] == " ":
                body[pos] = "┆"
                line = (line[: label_width + 2] + "".join(body)
                        + line[label_width + 2 + width:])
        lines.append(line)
    return "\n".join(lines)


def grouped_bars(series: Mapping[str, Mapping[str, float]],
                 width: int = 32, unit: str = "x") -> str:
    """Rows = outer keys (e.g. sizes); one bar per inner series."""
    if not series:
        return "(no data)"
    peak = max((v for row in series.values() for v in row.values()),
               default=1.0)
    if peak <= 0:
        peak = 1.0
    names = []
    for row in series.values():
        for name in row:
            if name not in names:
                names.append(name)
    row_width = max(len(str(k)) for k in series)
    name_width = max(len(str(n)) for n in names)
    lines = []
    for row_key, row in series.items():
        for i, name in enumerate(names):
            value = row.get(name)
            label = str(row_key) if i == 0 else ""
            if value is None:
                continue
            bar = _bar(value / peak, width)
            lines.append(
                f"{label:>{row_width}} {str(name):>{name_width}} "
                f"|{bar:<{width}}| {value:.2f}{unit}")
        lines.append("")
    return "\n".join(lines).rstrip()
