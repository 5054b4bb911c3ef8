"""Tests for NumPy NN modules: shapes, gradients (numeric checks), optimiser."""

import numpy as np
import pytest

from repro.gnn import MLP, AdamW, Linear, MeanPool, Param, ReduceLROnPlateau, ReLU, Sequential, mse_loss


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = f()
        x[i] = old - eps
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


# ---------------------------------------------------------------------------
# Param / Module basics
# ---------------------------------------------------------------------------

def test_param_zero_grad():
    p = Param(np.ones((2, 2)))
    p.grad += 5.0
    p.zero_grad()
    assert np.all(p.grad == 0)
    assert p.size == 4


def test_linear_forward_shape_and_params():
    lin = Linear(3, 5)
    x = np.random.default_rng(0).normal(size=(7, 3))
    y = lin.forward(x)
    assert y.shape == (7, 5)
    assert lin.n_params() == 3 * 5 + 5


def test_linear_backward_before_forward():
    with pytest.raises(RuntimeError):
        Linear(2, 2).backward(np.zeros((1, 2)))


def test_linear_weight_gradient_numeric():
    rng = np.random.default_rng(1)
    lin = Linear(4, 3)
    x = rng.normal(size=(6, 4))
    t = rng.normal(size=(6, 3))

    def loss():
        return mse_loss(x @ lin.W.value + lin.b.value, t)[0]

    lin.zero_grad()
    out = lin.forward(x)
    _, grad = mse_loss(out, t)
    lin.backward(grad)
    num = numeric_grad(loss, lin.W.value)
    assert np.allclose(lin.W.grad, num, atol=1e-6)
    num_b = numeric_grad(loss, lin.b.value)
    assert np.allclose(lin.b.grad, num_b, atol=1e-6)


def test_linear_input_gradient_numeric():
    rng = np.random.default_rng(2)
    lin = Linear(3, 2)
    x = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 2))

    def loss():
        return mse_loss(lin.W.value.T.T.__rmatmul__(x) + lin.b.value, t)[0]

    out = lin.forward(x)
    _, grad = mse_loss(out, t)
    gin = lin.backward(grad)

    def loss_x():
        return mse_loss(x @ lin.W.value + lin.b.value, t)[0]

    num = numeric_grad(loss_x, x)
    assert np.allclose(gin, num, atol=1e-6)


def test_relu_forward_backward():
    r = ReLU()
    x = np.array([[-1.0, 2.0], [3.0, -4.0]])
    y = r.forward(x)
    assert np.array_equal(y, [[0, 2], [3, 0]])
    g = r.backward(np.ones_like(x))
    assert np.array_equal(g, [[0, 1], [1, 0]])


def test_sequential_composes_and_collects_params():
    seq = Sequential(Linear(3, 4), ReLU(), Linear(4, 2))
    assert seq.n_params() == (3 * 4 + 4) + (4 * 2 + 2)
    x = np.random.default_rng(0).normal(size=(5, 3))
    assert seq.forward(x).shape == (5, 2)


def test_mlp_structure():
    mlp = MLP([3, 8, 8, 2])
    x = np.random.default_rng(0).normal(size=(4, 3))
    assert mlp.forward(x).shape == (4, 2)
    with pytest.raises(ValueError):
        MLP([3])


def test_mlp_end_to_end_gradient_numeric():
    rng = np.random.default_rng(3)
    mlp = MLP([3, 6, 2], rng_key=("t",))
    x = rng.normal(size=(5, 3))
    t = rng.normal(size=(5, 2))

    mlp.zero_grad()
    out = mlp.forward(x)
    _, grad = mse_loss(out, t)
    mlp.backward(grad)

    first = mlp.layers[0]

    def loss():
        return mse_loss(mlp.forward(x), t)[0]

    num = numeric_grad(loss, first.W.value)
    assert np.allclose(first.W.grad, num, atol=1e-5)


def test_meanpool_forward_and_backward():
    pool = MeanPool()
    x = np.array([[1.0], [3.0], [10.0]])
    node_graph = np.array([0, 0, 1])
    out = pool.forward_pool(x, node_graph, 2)
    assert np.allclose(out, [[2.0], [10.0]])
    g = pool.backward(np.array([[1.0], [1.0]]))
    assert np.allclose(g, [[0.5], [0.5], [1.0]])


def test_mse_loss_value_and_grad():
    pred = np.array([[1.0, 2.0]])
    target = np.array([[0.0, 0.0]])
    loss, grad = mse_loss(pred, target)
    assert loss == pytest.approx((1 + 4) / 2)
    assert np.allclose(grad, [[1.0, 2.0]])
    with pytest.raises(ValueError):
        mse_loss(pred, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def test_adamw_minimises_quadratic():
    p = Param(np.array([5.0, -3.0]))
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    for _ in range(300):
        opt.zero_grad()
        p.grad += 2 * p.value  # d/dx of x^2
        opt.step()
    assert np.all(np.abs(p.value) < 1e-2)


def test_adamw_weight_decay_shrinks_weights():
    p = Param(np.array([1.0]))
    opt = AdamW([p], lr=0.01, weight_decay=0.5)
    opt.zero_grad()  # zero gradient: only decay acts
    opt.step()
    assert p.value[0] < 1.0


def test_adamw_validation():
    with pytest.raises(ValueError):
        AdamW([Param(np.zeros(1))], lr=-1)
    with pytest.raises(ValueError):
        AdamW([], lr=0.1)


# ---------------------------------------------------------------------------
# ReduceLROnPlateau
# ---------------------------------------------------------------------------

def test_plateau_reduces_after_patience():
    p = Param(np.zeros(1))
    opt = AdamW([p], lr=1e-3)
    sched = ReduceLROnPlateau(opt, factor=0.5, patience=2)
    assert not sched.step(1.0)  # new best
    for _ in range(2):
        assert not sched.step(1.0)  # stagnating, within patience
    assert sched.step(1.0)  # patience exceeded -> reduce
    assert opt.lr == pytest.approx(5e-4)


def test_plateau_improvement_resets_counter():
    opt = AdamW([Param(np.zeros(1))], lr=1e-3)
    sched = ReduceLROnPlateau(opt, factor=0.5, patience=1)
    sched.step(1.0)
    sched.step(0.5)  # improvement
    sched.step(0.49999)  # below threshold of improvement -> bad epoch 1
    assert opt.lr == 1e-3  # not yet reduced (patience=1 allows one)
    sched.step(0.49999)
    assert opt.lr == pytest.approx(5e-4)


def test_plateau_respects_min_lr():
    opt = AdamW([Param(np.zeros(1))], lr=2e-6)
    sched = ReduceLROnPlateau(opt, factor=0.5, patience=0)  # floor: MIN_LR = 1e-6
    sched.step(1.0)
    sched.step(1.0)  # reduce -> 1e-6
    sched.step(1.0)  # clamped
    assert opt.lr == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        ReduceLROnPlateau(opt, factor=1.5)
