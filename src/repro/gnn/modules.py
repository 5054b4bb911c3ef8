"""Minimal NumPy neural-network modules with manual backpropagation.

HydraGNN is a PyTorch model; absent torch, we implement the pieces it is
built from — linear layers, ReLU, MLPs, mean pooling — as explicit
forward/backward modules.  Each module caches what its backward pass needs
and accumulates parameter gradients into :class:`Param.grad`, so a
training step is ``out = m.forward(x); m.backward(dL/dout); opt.step()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..sim.rng import stream

__all__ = ["Param", "Module", "Linear", "ReLU", "Sequential", "MLP", "MeanPool"]


@dataclass
class Param:
    """One trainable tensor with its gradient accumulator."""

    value: np.ndarray
    grad: np.ndarray = field(init=False)
    name: str = ""

    def __post_init__(self) -> None:
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Module:
    """Base class: parameter bookkeeping + the forward/backward contract."""

    def params(self) -> list[Param]:
        found: list[Param] = []
        for attr in vars(self).values():
            if isinstance(attr, Param):
                found.append(attr)
            elif isinstance(attr, Module):
                found.extend(attr.params())
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        found.extend(item.params())
                    elif isinstance(item, Param):
                        found.append(item)
        return found

    def n_params(self) -> int:
        return sum(p.size for p in self.params())

    def zero_grad(self) -> None:
        for p in self.params():
            p.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with Glorot initialisation."""

    def __init__(self, in_dim: int, out_dim: int, *, rng_key: tuple = ("linear",)) -> None:
        rng = stream(*rng_key, in_dim, out_dim)
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.W = Param(rng.uniform(-limit, limit, size=(in_dim, out_dim)), name="W")
        self.b = Param(np.zeros(out_dim), name="b")
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward before forward")
        self.W.grad += self._x.T @ grad_out
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.W.value.T


class ReLU(Module):
    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return np.where(self._mask, grad_out, 0.0)


class Sequential(Module):
    def __init__(self, *layers: Module) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out


class MLP(Sequential):
    """Fully connected stack with ReLU between layers (paper: 3 FC x 200)."""

    def __init__(self, dims: Sequence[int], *, rng_key: tuple = ("mlp",)) -> None:
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        layers: list[Module] = []
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(a, b, rng_key=rng_key + (i,)))
            if i < len(dims) - 2:
                layers.append(ReLU())
        super().__init__(*layers)


class MeanPool(Module):
    """Global mean pooling of node features into per-graph vectors."""

    def __init__(self) -> None:
        self._node_graph: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None

    def forward_pool(self, x: np.ndarray, node_graph: np.ndarray, n_graphs: int) -> np.ndarray:
        self._node_graph = node_graph
        pooled = np.zeros((n_graphs, x.shape[1]), dtype=x.dtype)
        np.add.at(pooled, node_graph, x)
        counts = np.bincount(node_graph, minlength=n_graphs).astype(x.dtype)
        self._counts = counts
        return pooled / counts[:, None]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._node_graph is None or self._counts is None:
            raise RuntimeError("backward before forward")
        per_node = grad_out / self._counts[:, None]
        return per_node[self._node_graph]

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise TypeError("use forward_pool(x, node_graph, n_graphs)")
