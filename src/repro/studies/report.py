"""ASCII rendering helpers shared by the study drivers."""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np


def table(headers: Sequence[str], rows: Iterable[Sequence],
          title: str = "") -> str:
    """A fixed-width ASCII table."""
    rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i])
                           for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i]) if _numeric(cell)
                               else cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        if value and abs(value) < 0.01:
            return f"{value:.4f}"
        return f"{value:,.2f}" if abs(value) < 1000 else f"{value:,.0f}"
    if isinstance(value, (int, np.integer)):
        return f"{int(value):,}"
    return str(value)


def _numeric(cell: str) -> bool:
    return bool(cell) and cell.replace(",", "").replace(".", "") \
        .replace("-", "").replace("x", "").replace("%", "").isdigit()


def bar_chart(labels: Sequence[str], values: Sequence[float],
              title: str = "", width: int = 40, unit: str = "") -> str:
    """Horizontal ASCII bars (the textual Figure 5/10 analog)."""
    peak = max(values) if len(values) else 1.0
    peak = peak or 1.0
    lines: List[str] = [title] if title else []
    label_width = max((len(l) for l in labels), default=0)
    for label, value in zip(labels, values):
        bar = "#" * max(0, int(round(width * value / peak)))
        lines.append(f"{label.ljust(label_width)} |{bar} "
                     f"{value:,.2f}{unit}")
    return "\n".join(lines)


def stacked_rows(labels: Sequence[str],
                 series: Sequence[Sequence[float]],
                 categories: Sequence[str],
                 title: str = "") -> str:
    """Per-row percentage breakdown (the Figure 10 stacked bars)."""
    headers = ["benchmark", *categories]
    rows = []
    for label, values in zip(labels, series):
        rows.append([label, *[f"{100 * v:.1f}%" for v in values]])
    return table(headers, rows, title=title)


def pmf_sparkline(pmf: np.ndarray, buckets=(1, 2, 4, 8, 16, 32)) -> str:
    """Compact PMF summary: probability mass at key unique-line counts."""
    parts = []
    previous = 0
    for bucket in buckets:
        mass = float(pmf[previous:bucket].sum())
        parts.append(f"{previous + 1}-{bucket}:{100 * mass:.0f}%")
        previous = bucket
    return " ".join(parts)


def heatmap(matrix: np.ndarray, title: str = "") -> str:
    """Log-scale character heat map of the 32×32 Figure 8 matrix
    (x = warp occupancy, y = unique lines, as in the paper)."""
    glyphs = " .:-=+*#%@"
    lines: List[str] = [title] if title else []
    display = matrix.T[::-1]  # rows: unique lines (top = 32)
    logs = np.log10(np.maximum(display.astype(np.float64), 0.1))
    top = max(logs.max(), 1.0)
    for row_index, row in enumerate(logs):
        scaled = np.clip((row / top) * (len(glyphs) - 1), 0,
                         len(glyphs) - 1).astype(int)
        scaled[display[row_index] == 0] = 0
        label = 32 - row_index
        lines.append(f"{label:>3} |" + "".join(glyphs[g] for g in scaled))
    lines.append("    +" + "-" * 32)
    lines.append("     occupancy 1..32 ->")
    return "\n".join(lines)


# ----------------------------------------------------- sampled counters

def sampling_ci(count, rate: int, z: float = 1.96):
    """A normal-approximation confidence interval for a 1/``rate``
    sampled counter whose *scaled* estimate is ``count * rate``.

    Each retained firing contributes ``rate`` to the estimate; modeling
    retained firings as Poisson with the observed mean gives a standard
    error of ``rate * sqrt(count)``.  Returns ``(low, high)`` clamped at
    zero.  At rate 1 the interval collapses onto the exact count.
    """
    count = int(count)
    rate = int(rate)
    estimate = count * rate
    if rate <= 1:
        return float(estimate), float(estimate)
    half = z * rate * float(np.sqrt(count))
    return max(0.0, estimate - half), estimate + half


def render_sampled_counters(names: Sequence[str], counts: Sequence[int],
                            rate: int, z: float = 1.96) -> str:
    """An ASCII table of scaled estimates with confidence intervals."""
    rows = []
    for name, count in zip(names, counts):
        low, high = sampling_ci(count // max(rate, 1), rate, z=z)
        rows.append([name, int(count), f"[{low:,.0f}, {high:,.0f}]"])
    return table(["counter", f"estimate (x{rate})", f"{z:.2f}-sigma CI"],
                 rows, title=f"sampled counters at rate 1/{rate}")
