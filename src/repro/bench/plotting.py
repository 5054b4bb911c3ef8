"""Dependency-free ASCII charts for benchmark reports.

Every figure report embeds a small text rendering of its curves (latency
CDFs, scaling lines) so the *shape* — who is left/above of whom, where
curves cross — is visible straight from ``bench_results/*.txt`` without
any plotting stack.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

__all__ = ["ascii_plot", "ascii_cdf"]

_MARKERS = "*o+x#@%&"


def ascii_plot(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    *,
    width: int = 68,
    height: int = 16,
    logx: bool = False,
    logy: bool = False,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Render named (x, y) series on one character grid.

    Each series gets a marker from ``* o + x ...``; the legend maps them
    back.  Log axes use base-10.  Points outside a degenerate range are
    centred.
    """
    if not series:
        raise ValueError("ascii_plot needs at least one series")
    if width < 8 or height < 4:
        raise ValueError("plot area too small")

    def tx(v: float) -> float:
        if logx:
            if v <= 0:
                raise ValueError("logx requires positive x values")
            return math.log10(v)
        return float(v)

    def ty(v: float) -> float:
        if logy:
            if v <= 0:
                raise ValueError("logy requires positive y values")
            return math.log10(v)
        return float(v)

    pts = {
        name: (np.array([tx(v) for v in xs]), np.array([ty(v) for v in ys]))
        for name, (xs, ys) in series.items()
    }
    for name, (xs, ys) in pts.items():
        if xs.size != ys.size or xs.size == 0:
            raise ValueError(f"series {name!r} has mismatched or empty data")

    all_x = np.concatenate([p[0] for p in pts.values()])
    all_y = np.concatenate([p[1] for p in pts.values()])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for k, (name, (xs, ys)) in enumerate(pts.items()):
        marker = _MARKERS[k % len(_MARKERS)]
        for x, y in zip(xs, ys):
            col = int(round((x - x_lo) / x_span * (width - 1)))
            row = height - 1 - int(round((y - y_lo) / y_span * (height - 1)))
            grid[row][col] = marker

    def fmt(v: float, is_log: bool) -> str:
        raw = 10**v if is_log else v
        return f"{raw:.3g}"

    lines = []
    if title:
        lines.append(title)
    top_label = fmt(y_hi, logy)
    bottom_label = fmt(y_lo, logy)
    label_w = max(len(top_label), len(bottom_label), len(ylabel))
    for r, row in enumerate(grid):
        if r == 0:
            prefix = top_label.rjust(label_w)
        elif r == height - 1:
            prefix = bottom_label.rjust(label_w)
        elif r == height // 2 and ylabel:
            prefix = ylabel[:label_w].rjust(label_w)
        else:
            prefix = " " * label_w
        lines.append(f"{prefix} |{''.join(row)}")
    lines.append(" " * label_w + " +" + "-" * width)
    x_axis = fmt(x_lo, logx) + (xlabel and f"  [{xlabel}]  " or " " * 4)
    lines.append(
        " " * label_w + "  " + x_axis + fmt(x_hi, logx).rjust(max(0, width - len(x_axis)))
    )
    legend = "   ".join(
        f"{_MARKERS[k % len(_MARKERS)]} {name}" for k, name in enumerate(pts)
    )
    lines.append(" " * label_w + "  " + legend)
    return "\n".join(lines)


def ascii_cdf(latencies_by_label: Mapping[str, np.ndarray], **kwargs) -> str:
    """CDF chart of latency arrays in seconds, drawn in ms (log-x by default)."""
    from .metrics import cdf

    series = {}
    for label, lat in latencies_by_label.items():
        xs, fs = cdf(np.asarray(lat), n_points=80)
        series[label] = (xs / 1e-3, fs)
    kwargs.setdefault("logx", True)
    kwargs.setdefault("xlabel", "ms")
    kwargs.setdefault("ylabel", "CDF")
    return ascii_plot(series, **kwargs)
