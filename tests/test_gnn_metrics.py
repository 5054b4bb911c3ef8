"""Tests for regression metrics (exactness, streaming equivalence)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.gnn.metrics import RegressionMetrics, mae, max_error, r_squared, rmse


def test_perfect_prediction():
    t = np.arange(10.0)
    assert mae(t, t) == 0.0
    assert rmse(t, t) == 0.0
    assert max_error(t, t) == 0.0
    assert r_squared(t, t) == 1.0


def test_known_values():
    pred = np.array([1.0, 2.0, 3.0])
    target = np.array([2.0, 2.0, 5.0])
    assert mae(pred, target) == pytest.approx(1.0)
    assert rmse(pred, target) == pytest.approx(np.sqrt(5 / 3))
    assert max_error(pred, target) == 2.0


def test_r_squared_mean_predictor_is_zero():
    target = np.array([1.0, 2.0, 3.0, 4.0])
    pred = np.full(4, target.mean())
    assert r_squared(pred, target) == pytest.approx(0.0)


def test_r_squared_constant_target_edge_case():
    t = np.ones(5)
    assert r_squared(t, t) == 1.0
    assert r_squared(t + 0.5, t) == 0.0


def test_validation():
    with pytest.raises(ValueError, match="shape"):
        mae(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="empty"):
        rmse(np.zeros(0), np.zeros(0))
    with pytest.raises(ValueError, match="no data"):
        _ = RegressionMetrics().mae


@given(
    n=st.integers(min_value=2, max_value=200),
    chunks=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
)
@example(n=2, chunks=2, seed=92)  # |R^2| ~ 2e7: one float64 ulp there is 3.7e-9
@settings(max_examples=50, deadline=None)
def test_streaming_equals_batch(n, chunks, seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=n)
    target = rng.normal(size=n)
    acc = RegressionMetrics()
    for part in np.array_split(np.arange(n), min(chunks, n)):
        if part.size:
            acc.update(pred[part], target[part])
    assert acc.mae == pytest.approx(mae(pred, target))
    assert acc.rmse == pytest.approx(rmse(pred, target))
    assert acc.max_error == pytest.approx(max_error(pred, target))
    # Two near-equal targets make |R^2| huge; compare relative to its size.
    assert acc.r_squared == pytest.approx(r_squared(pred, target), rel=1e-9, abs=1e-9)


def test_summary_keys():
    acc = RegressionMetrics()
    acc.update(np.array([1.0, 2.0]), np.array([1.5, 2.5]))
    s = acc.summary()
    assert set(s) == {"n", "mae", "rmse", "mse", "max_error", "r_squared"}
    assert s["n"] == 2


def test_metrics_on_trained_model_predictions():
    # End-to-end: a trained model must beat the mean predictor (R^2 > 0).
    from repro.gnn import AdamW, HydraGNN, HydraGNNConfig
    from repro.graphs import IsingGenerator, collate

    gen = IsingGenerator(48, seed=0)
    batch = collate([gen.make(i) for i in range(48)])
    model = HydraGNN(
        HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=16, n_conv_layers=2),
        seed=2,
    )
    opt = AdamW(model.params(), lr=3e-3, weight_decay=0.0)
    for _ in range(100):
        opt.zero_grad()
        model.train_step_loss(batch)
        opt.step()
    pred = model.forward_batch(batch)[0][:, 0]
    assert r_squared(pred, batch.y[:, 0].astype(np.float64)) > 0.5
