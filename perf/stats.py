"""Order statistics shared by the runner and the tests."""

from __future__ import annotations

import statistics

__all__ = ["quartiles"]


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them
    — the definition the driver applies to the ten seeds of a metric."""
    data = list(values)
    if not data:
        raise ValueError("quartiles of no values")
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3
