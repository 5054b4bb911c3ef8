"""Alternative message-passing layers: GIN and GraphSAGE.

HydraGNN's object-oriented design supports multiple message-passing
policies behind one interface; the paper's experiments use PNA
(:mod:`.pna`), and these two cover the other ends of the
expressiveness/cost spectrum:

* :class:`GINConv` — Graph Isomorphism Network (Xu et al. 2019):
  ``h_i' = MLP((1 + eps) * h_i + sum_{j in N(i)} h_j)`` with a learnable
  ``eps``.  Maximally expressive among sum-aggregators, cheapest to run.
* :class:`SAGEConv` — GraphSAGE (Hamilton et al. 2017), mean aggregator:
  ``h_i' = W_self h_i + W_neigh mean_{j in N(i)} h_j``.

All layers share the graph-conv interface of :class:`~.pna.PNAConv`
(``forward_graph(x, edge_index)`` / ``backward(grad)``), so
:class:`~.model.HydraGNN` can swap policies via its ``conv_type`` config.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .modules import Linear, Module, Param, ReLU

__all__ = ["GINConv", "SAGEConv", "CONV_TYPES", "make_conv"]


class GINConv(Module):
    """GIN layer: sum aggregation + 2-layer MLP + learnable epsilon."""

    def __init__(self, in_dim: int, out_dim: int, *, rng_key: tuple = ("gin",)) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.eps = Param(np.zeros(1), name="eps")
        self.lin1 = Linear(in_dim, out_dim, rng_key=rng_key + ("l1",))
        self.act = ReLU()
        self.lin2 = Linear(out_dim, out_dim, rng_key=rng_key + ("l2",))
        self._cache: Optional[dict] = None

    def forward_graph(self, x: np.ndarray, edge_index: np.ndarray) -> np.ndarray:
        src, dst = edge_index[0], edge_index[1]
        agg = np.zeros_like(x)
        np.add.at(agg, dst, x[src])
        mixed = (1.0 + self.eps.value[0]) * x + agg
        self._cache = dict(x=x, src=src, dst=dst, mixed_input=mixed)
        return self.lin2.forward(self.act.forward(self.lin1.forward(mixed)))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        c = self._cache
        grad_mixed = self.lin1.backward(self.act.backward(self.lin2.backward(grad_out)))
        # d mixed / d eps = x  (summed over all entries)
        self.eps.grad += np.sum(grad_mixed * c["x"])
        grad_x = (1.0 + self.eps.value[0]) * grad_mixed
        # sum aggregation: each message contributes grad_mixed[dst] to x[src]
        np.add.at(grad_x, c["src"], grad_mixed[c["dst"]])
        self._cache = None
        return grad_x

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise TypeError("use forward_graph(x, edge_index)")


class SAGEConv(Module):
    """GraphSAGE (mean) layer: separate self and neighbour transforms."""

    def __init__(self, in_dim: int, out_dim: int, *, rng_key: tuple = ("sage",)) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.lin_self = Linear(in_dim, out_dim, rng_key=rng_key + ("self",))
        self.lin_neigh = Linear(in_dim, out_dim, rng_key=rng_key + ("neigh",))
        self._cache: Optional[dict] = None

    def forward_graph(self, x: np.ndarray, edge_index: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        src, dst = edge_index[0], edge_index[1]
        deg = np.bincount(dst, minlength=n).astype(np.float64)
        safe = np.maximum(deg, 1.0)
        agg = np.zeros_like(x)
        np.add.at(agg, dst, x[src])
        mean = agg / safe[:, None]
        self._cache = dict(src=src, dst=dst, safe=safe)
        return self.lin_self.forward(x) + self.lin_neigh.forward(mean)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward before forward")
        c = self._cache
        grad_x = self.lin_self.backward(grad_out)
        grad_mean = self.lin_neigh.backward(grad_out)
        per_msg = grad_mean[c["dst"]] / c["safe"][c["dst"]][:, None]
        np.add.at(grad_x, c["src"], per_msg)
        self._cache = None
        return grad_x

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise TypeError("use forward_graph(x, edge_index)")


def make_conv(conv_type: str, in_dim: int, out_dim: int, *, rng_key: tuple = ()):
    """Factory over the supported message-passing policies."""
    from .pna import PNAConv

    if conv_type == "pna":
        return PNAConv(in_dim, out_dim, rng_key=rng_key or ("pna",))
    if conv_type == "gin":
        return GINConv(in_dim, out_dim, rng_key=rng_key or ("gin",))
    if conv_type == "sage":
        return SAGEConv(in_dim, out_dim, rng_key=rng_key or ("sage",))
    raise ValueError(f"unknown conv_type {conv_type!r}; options: {CONV_TYPES}")


CONV_TYPES = ("pna", "gin", "sage")
