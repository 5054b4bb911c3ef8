"""Tests for PNA convolution and the HydraGNN model (incl. gradient checks)."""

import numpy as np
import pytest

from repro.gnn import HydraGNN, HydraGNNConfig, PNAConv, mse_loss
from repro.graphs import IsingGenerator, MoleculeGenerator, collate


def _ring_graph(n=6, f=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, f))
    src = np.concatenate([np.arange(n), (np.arange(n) + 1) % n])
    dst = np.concatenate([(np.arange(n) + 1) % n, np.arange(n)])
    return x, np.stack([src, dst]).astype(np.int32)


# ---------------------------------------------------------------------------
# PNAConv
# ---------------------------------------------------------------------------

def test_pna_forward_shape():
    x, ei = _ring_graph(n=6, f=3)
    conv = PNAConv(3, 5)
    out = conv.forward_graph(x, ei)
    assert out.shape == (6, 5)


def test_pna_isolated_node_is_finite():
    x = np.random.default_rng(0).normal(size=(3, 2))
    ei = np.array([[0], [1]])  # node 2 receives nothing
    conv = PNAConv(2, 4)
    out = conv.forward_graph(x, ei)
    assert np.all(np.isfinite(out))


def test_pna_aggregation_values_mean_max_min():
    # Node 0 receives from nodes 1 (value 2) and 2 (value 4).
    x = np.array([[0.0], [2.0], [4.0]])
    ei = np.array([[1, 2], [0, 0]])
    conv = PNAConv(1, 1)
    conv.forward_graph(x, ei)
    c = conv._cache
    assert c["mean"][0, 0] == pytest.approx(3.0)
    assert c["mx"][0, 0] == pytest.approx(4.0)
    assert c["mn"][0, 0] == pytest.approx(2.0)
    assert c["std"][0, 0] == pytest.approx(1.0, abs=1e-3)


def test_pna_input_gradient_numeric():
    x, ei = _ring_graph(n=5, f=2, seed=4)
    conv = PNAConv(2, 3, rng_key=("gc",))
    t = np.random.default_rng(5).normal(size=(5, 3))

    conv.zero_grad()
    out = conv.forward_graph(x, ei)
    _, grad = mse_loss(out, t)
    gin = conv.backward(grad)

    def loss():
        return mse_loss(conv.forward_graph(x, ei), t)[0]

    eps = 1e-6
    num = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            old = x[i, j]
            x[i, j] = old + eps
            fp = loss()
            x[i, j] = old - eps
            fm = loss()
            x[i, j] = old
            num[i, j] = (fp - fm) / (2 * eps)
    assert np.allclose(gin, num, atol=1e-5)


def test_pna_weight_gradient_numeric():
    x, ei = _ring_graph(n=4, f=2, seed=6)
    conv = PNAConv(2, 2, rng_key=("gw",))
    t = np.random.default_rng(7).normal(size=(4, 2))

    conv.zero_grad()
    out = conv.forward_graph(x, ei)
    _, grad = mse_loss(out, t)
    conv.backward(grad)

    W = conv.mix.W.value
    got = conv.mix.W.grad

    def loss():
        return mse_loss(conv.forward_graph(x, ei), t)[0]

    eps = 1e-6
    rng = np.random.default_rng(8)
    # Check a random subset of the (26 x 2) weight matrix.
    for _ in range(20):
        i = rng.integers(0, W.shape[0])
        j = rng.integers(0, W.shape[1])
        old = W[i, j]
        W[i, j] = old + eps
        fp = loss()
        W[i, j] = old - eps
        fm = loss()
        W[i, j] = old
        assert got[i, j] == pytest.approx((fp - fm) / (2 * eps), abs=1e-5)


def test_pna_backward_without_forward():
    with pytest.raises(RuntimeError):
        PNAConv(2, 2).backward(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# HydraGNN
# ---------------------------------------------------------------------------

def _batch(gen_cls=IsingGenerator, n=4, **kw):
    gen = gen_cls(n, **kw)
    return collate([gen.make(i) for i in range(n)]), gen


def test_model_forward_shapes_single_head():
    batch, _ = _batch()
    model = HydraGNN(HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=16, n_conv_layers=2))
    outs = model.forward_batch(batch)
    assert len(outs) == 1
    assert outs[0].shape == (4, 1)


def test_model_multihead_shapes():
    batch, _ = _batch(MoleculeGenerator, seed=0)
    model = HydraGNN(
        HydraGNNConfig(feature_dim=7, head_dims=(1, 3), hidden_dim=12, n_conv_layers=2)
    )
    outs = model.forward_batch(batch)
    assert outs[0].shape == (4, 1)
    assert outs[1].shape == (4, 3)


def test_model_param_count_matches_architecture():
    cfg = HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=10, n_conv_layers=2, n_fc_layers=2)
    model = HydraGNN(cfg)
    embed = 1 * 10 + 10
    mix_in = 10 * (1 + 12)
    convs = 2 * (mix_in * 10 + 10)
    head = (10 * 10 + 10) + (10 * 1 + 1)
    assert model.n_params() == embed + convs + head


def test_model_training_reduces_loss_on_ising():
    from repro.gnn import AdamW

    gen = IsingGenerator(32, seed=0)
    batch = collate([gen.make(i) for i in range(32)])
    model = HydraGNN(
        HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=24, n_conv_layers=2),
        seed=1,
    )
    opt = AdamW(model.params(), lr=3e-3, weight_decay=0.0)
    first = None
    last = None
    for _ in range(60):
        opt.zero_grad()
        loss = model.train_step_loss(batch)
        opt.step()
        first = loss if first is None else first
        last = loss
    assert last < 0.5 * first  # the spin->energy map is learnable
    # ...and the fit beats the mean predictor by a margin (R^2 > 0.5).
    pred = model.forward_batch(batch)[0][:, 0]
    y = batch.y[:, 0].astype(np.float64)
    assert 1.0 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2) > 0.5


def test_model_deterministic_init():
    cfg = HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=8, n_conv_layers=1)
    a = HydraGNN(cfg, seed=3)
    b = HydraGNN(cfg, seed=3)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.value, pb.value)
    c = HydraGNN(cfg, seed=4)
    assert not all(
        np.array_equal(pa.value, pc.value) for pa, pc in zip(a.params(), c.params())
    )


def test_model_flat_grads_roundtrip():
    batch, _ = _batch()
    model = HydraGNN(HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=8, n_conv_layers=1))
    model.zero_grad()
    model.train_step_loss(batch)
    flat = model.flat_grads()
    assert flat.size == model.n_params()
    model.set_flat_grads(flat * 2)
    assert np.allclose(model.flat_grads(), flat * 2)
    with pytest.raises(ValueError):
        model.set_flat_grads(flat[:-1])


def test_model_rejects_no_heads():
    with pytest.raises(ValueError):
        HydraGNN(HydraGNNConfig(feature_dim=1, head_dims=()))


def test_model_head_weights_validation():
    cfg = HydraGNNConfig(feature_dim=1, head_dims=(1, 2), head_weights=(1.0,))
    with pytest.raises(ValueError):
        HydraGNN(cfg).config.weights()


def test_evaluate_loss_no_grad_side_effect():
    batch, _ = _batch()
    model = HydraGNN(HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=8, n_conv_layers=1))
    model.zero_grad()
    model.evaluate_loss(batch)
    assert np.all(model.flat_grads() == 0)
