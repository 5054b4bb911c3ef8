"""HydraGNN-like multi-headed graph network (paper §4.2 configuration).

Architecture: node-feature embedding, six PNA layers (hidden 200) with
ReLU, global mean pooling, then one fully-connected head per predicted
property (three hidden FC layers of 200 neurons, ReLU).  The output layer
width follows the dataset: 1 (energy / HOMO-LUMO gap), 100 (discrete
UV-vis), 37,500 or 351 (smoothed UV-vis).

The multi-head design is HydraGNN's signature: several properties share
one message-passing trunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs import GraphBatch
from .modules import Linear, MeanPool, Module, MLP, ReLU
from .pna import AGGREGATORS, SCALERS

__all__ = ["HydraGNNConfig", "HydraGNN", "mse_loss"]


@dataclass(frozen=True)
class HydraGNNConfig:
    """Shape of the model; defaults match the paper's setup section."""

    feature_dim: int
    head_dims: tuple[int, ...]  # one output width per head
    hidden_dim: int = 200
    n_conv_layers: int = 6
    n_fc_layers: int = 3
    delta: float = 1.6  # mean log-degree normaliser for PNA scalers
    head_weights: tuple[float, ...] = ()
    conv_type: str = "pna"  # message-passing policy: pna | gin | sage

    def weights(self) -> tuple[float, ...]:
        if self.head_weights:
            if len(self.head_weights) != len(self.head_dims):
                raise ValueError("head_weights must match head_dims")
            return self.head_weights
        return tuple(1.0 for _ in self.head_dims)

    @property
    def n_params(self) -> int:
        """Parameter count from the layer shapes alone, no weights built:
        ``a*b + b`` per ``Linear(a, b)``, plus one ``eps`` per GIN layer.
        Equals ``HydraGNN(self).n_params()``."""
        h = self.hidden_dim

        def linear(a: int, b: int) -> int:
            return a * b + b

        convs = {
            "pna": linear(h * (1 + len(AGGREGATORS) * len(SCALERS)), h),
            "gin": 1 + 2 * linear(h, h),
            "sage": 2 * linear(h, h),
        }
        if self.conv_type not in convs:
            raise ValueError(f"unknown conv_type {self.conv_type!r}; options: {tuple(convs)}")
        fc = [h] * max(self.n_fc_layers - 1, 0)
        heads = sum(
            linear(a, b) for d in self.head_dims for a, b in zip([h] + fc, fc + [d])
        )
        return linear(self.feature_dim, h) + self.n_conv_layers * convs[self.conv_type] + heads


class HydraGNN(Module):
    def __init__(self, config: HydraGNNConfig, *, seed: int = 0) -> None:
        if not config.head_dims:
            raise ValueError("model needs at least one output head")
        self.config = config
        h = config.hidden_dim
        key = ("hydragnn", seed)
        self.embed = Linear(config.feature_dim, h, rng_key=key + ("embed",))
        self.embed_act = ReLU()
        from .convs import make_conv

        self.convs = [
            make_conv(
                config.conv_type, h, h, delta=config.delta, rng_key=key + ("conv", i)
            )
            for i in range(config.n_conv_layers)
        ]
        self.conv_acts = [ReLU() for _ in range(config.n_conv_layers)]
        self.pool = MeanPool()
        # Heads: (n_fc_layers - 1) hidden layers of width h, then the output.
        self.heads = [
            MLP(
                [h] + [h] * max(config.n_fc_layers - 1, 0) + [out_dim],
                rng_key=key + ("head", k),
            )
            for k, out_dim in enumerate(config.head_dims)
        ]
        self._cache: Optional[dict] = None

    # ------------------------------------------------------------------
    def forward_batch(self, batch: GraphBatch) -> list[np.ndarray]:
        """Predictions per head, each of shape (n_graphs, head_dim)."""
        x = self.embed_act.forward(self.embed.forward(batch.node_features.astype(np.float64)))
        for conv, act in zip(self.convs, self.conv_acts):
            x = act.forward(conv.forward_graph(x, batch.edge_index))
        pooled = self.pool.forward_pool(x, batch.node_graph, batch.n_graphs)
        outs = [head.forward(pooled) for head in self.heads]
        self._cache = dict(n_graphs=batch.n_graphs)
        return outs

    def backward_batch(self, grad_outs: list[np.ndarray]) -> None:
        """Backprop from per-head output gradients (accumulates grads)."""
        if self._cache is None:
            raise RuntimeError("backward before forward")
        if len(grad_outs) != len(self.heads):
            raise ValueError(f"expected {len(self.heads)} head gradients")
        grad_pooled = None
        for head, g in zip(self.heads, grad_outs):
            gp = head.backward(g)
            grad_pooled = gp if grad_pooled is None else grad_pooled + gp
        grad_x = self.pool.backward(grad_pooled)
        for conv, act in zip(reversed(self.convs), reversed(self.conv_acts)):
            grad_x = conv.backward(act.backward(grad_x))
        self.embed.backward(self.embed_act.backward(grad_x))
        self._cache = None

    # ------------------------------------------------------------------
    def train_step_loss(self, batch: GraphBatch) -> float:
        """Forward + MSE loss + backward over one batch (grads accumulate).

        Targets come from ``batch.y``: columns are split across heads in
        declaration order.
        """
        outs = self.forward_batch(batch)
        grads: list[np.ndarray] = []
        total = 0.0
        col = 0
        weights = self.config.weights()
        for out, w in zip(outs, weights):
            dim = out.shape[1]
            target = batch.y[:, col : col + dim].astype(np.float64)
            col += dim
            loss, grad = mse_loss(out, target)
            total += w * loss
            grads.append(w * grad)
        self.backward_batch(grads)
        return total

    def evaluate_loss(self, batch: GraphBatch) -> float:
        """Forward-only loss (no gradient bookkeeping kept)."""
        outs = self.forward_batch(batch)
        total = 0.0
        col = 0
        for out, w in zip(outs, self.config.weights()):
            dim = out.shape[1]
            target = batch.y[:, col : col + dim].astype(np.float64)
            col += dim
            loss, _ = mse_loss(out, target)
            total += w * loss
        self._cache = None
        return total

    # -- gradient transport for DDP ---------------------------------------
    def flat_grads(self) -> np.ndarray:
        return np.concatenate([p.grad.ravel() for p in self.params()])

    def set_flat_grads(self, flat: np.ndarray) -> None:
        off = 0
        for p in self.params():
            n = p.size
            p.grad[...] = flat[off : off + n].reshape(p.grad.shape)
            off += n
        if off != flat.size:
            raise ValueError(f"flat gradient size mismatch: {flat.size} != {off}")


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. ``pred``."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff**2))
    grad = 2.0 * diff / diff.size
    return loss, grad
