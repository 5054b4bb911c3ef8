"""Metric helpers for the evaluation harness: CDFs, percentiles, geomeans,
and per-stage data-plane timing summaries."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..core import FETCH_STAGES

__all__ = [
    "FETCH_STAGES",
    "percentile",
    "cdf",
    "geomean",
    "speedup_table",
    "merge_stage_seconds",
]


def percentile(values: np.ndarray, q: float) -> float:
    """q-th percentile (0-100) with linear interpolation."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of empty array")
    return float(np.percentile(arr, q))


def cdf(values: np.ndarray, n_points: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: (sorted values, cumulative fraction), optionally
    thinned to ``n_points`` for plotting."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ValueError("cdf of empty array")
    frac = np.arange(1, arr.size + 1, dtype=np.float64) / arr.size
    if n_points is not None and arr.size > n_points:
        pick = np.linspace(0, arr.size - 1, n_points).astype(np.int64)
        return arr[pick], frac[pick]
    return arr, frac


def geomean(values) -> float:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geomean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geomean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


def speedup_table(throughputs: dict[str, float], baseline: str) -> dict[str, float]:
    """Normalise method -> throughput to the given baseline (Fig 4 style)."""
    if baseline not in throughputs:
        raise KeyError(f"baseline {baseline!r} missing from {sorted(throughputs)}")
    base = throughputs[baseline]
    if base <= 0:
        raise ValueError("baseline throughput must be positive")
    return {k: v / base for k, v in throughputs.items()}


def merge_stage_seconds(
    stage_dicts: Iterable[Mapping[str, float]],
) -> dict[str, float]:
    """Sum per-stage second dicts (e.g. across ranks or fetches).

    Keys are ordered canonically (:data:`FETCH_STAGES` first, then any
    transport-specific extras alphabetically).
    """
    totals: dict[str, float] = {}
    for d in stage_dicts:
        for k, v in d.items():
            totals[k] = totals.get(k, 0.0) + float(v)
    known = [s for s in FETCH_STAGES if s in totals]
    extra = sorted(k for k in totals if k not in FETCH_STAGES)
    return {k: totals[k] for k in known + extra}

