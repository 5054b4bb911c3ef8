"""Paper-style text tables and result persistence for the benchmarks."""

from __future__ import annotations

import json
import os
from typing import Any, Optional, Sequence

__all__ = ["render_table", "write_report", "results_dir"]


def results_dir() -> str:
    """Where benchmark reports land (created on demand)."""
    path = os.environ.get("REPRO_RESULTS_DIR", os.path.join(os.getcwd(), "bench_results"))
    os.makedirs(path, exist_ok=True)
    return path


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width table (right-aligned numbers, left-aligned first column)."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]

    def line(row):
        out = []
        for i, cell in enumerate(row):
            if i == 0:
                out.append(cell.ljust(widths[i]))
            else:
                out.append(cell.rjust(widths[i]))
        return "  ".join(out)

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    parts = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(cells[0]))
    parts.append(sep)
    parts.extend(line(r) for r in cells[1:])
    return "\n".join(parts)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def write_report(name: str, text: str, data: Optional[dict] = None) -> str:
    """Persist a benchmark report (text + optional JSON) and echo it."""
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text.rstrip() + "\n")
    if data is not None:
        with open(os.path.join(results_dir(), f"{name}.json"), "w") as fh:
            json.dump(data, fh, indent=2, default=_json_default)
    print(f"\n{text}\n[report written to {path}]")
    return path


def _json_default(obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return str(obj)
