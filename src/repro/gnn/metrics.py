"""Regression evaluation metrics for trained models.

HydraGNN papers report mean-squared error; downstream users usually also
want MAE, RMSE, and R².  These operate on prediction/target arrays of any
matching shape and are exact (no mini-batch approximation), with a
streaming accumulator for evaluation loops that cannot hold all
predictions at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["mae", "rmse", "r_squared", "max_error", "RegressionMetrics"]


def _check(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("empty prediction array")
    return pred, target


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _check(pred, target)
    return float(np.mean(np.abs(pred - target)))


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _check(pred, target)
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def max_error(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _check(pred, target)
    return float(np.max(np.abs(pred - target)))


def r_squared(pred: np.ndarray, target: np.ndarray) -> float:
    """Coefficient of determination; 1 is perfect, 0 matches mean-predictor."""
    pred, target = _check(pred, target)
    ss_res = float(np.sum((target - pred) ** 2))
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


@dataclass
class RegressionMetrics:
    """Streaming accumulator: feed batches, read exact corpus metrics.

    Uses sufficient statistics (sums and cross-moments), so results equal
    the whole-corpus formulas regardless of batching.
    """

    n: int = 0
    sum_abs_err: float = 0.0
    sum_sq_err: float = 0.0
    worst: float = 0.0
    # target mean / centered second moment, merged batch-by-batch with
    # Chan's parallel update — the naive sum_t2 - sum_t²/n form loses all
    # significant digits when the target mean dwarfs its spread.
    mean_t: float = 0.0
    m2_t: float = 0.0

    def update(self, pred: np.ndarray, target: np.ndarray) -> None:
        pred, target = _check(pred, target)
        err = pred - target
        nb = err.size
        self.sum_abs_err += float(np.abs(err).sum())
        self.sum_sq_err += float((err**2).sum())
        self.worst = max(self.worst, float(np.abs(err).max()))
        mb = float(target.mean())
        m2b = float(((target - mb) ** 2).sum())
        delta = mb - self.mean_t
        total = self.n + nb
        self.m2_t += m2b + delta * delta * self.n * nb / total
        self.mean_t += delta * nb / total
        self.n = total

    def _require_data(self) -> None:
        if self.n == 0:
            raise ValueError("no data accumulated")

    @property
    def mae(self) -> float:
        self._require_data()
        return self.sum_abs_err / self.n

    @property
    def mse(self) -> float:
        self._require_data()
        return self.sum_sq_err / self.n

    @property
    def rmse(self) -> float:
        return float(np.sqrt(self.mse))

    @property
    def max_error(self) -> float:
        self._require_data()
        return self.worst

    @property
    def r_squared(self) -> float:
        self._require_data()
        ss_tot = self.m2_t
        if ss_tot <= 0.0:
            return 1.0 if self.sum_sq_err == 0.0 else 0.0
        return 1.0 - self.sum_sq_err / ss_tot

    def summary(self) -> dict[str, float]:
        return dict(
            n=self.n,
            mae=self.mae,
            rmse=self.rmse,
            mse=self.mse,
            max_error=self.max_error,
            r_squared=self.r_squared,
        )
