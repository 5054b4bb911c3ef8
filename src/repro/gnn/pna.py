"""Principal Neighbourhood Aggregation convolution (Corso et al. 2020).

The paper's HydraGNN configuration stacks six PNA layers with hidden
dimension 200.  PNA aggregates incoming neighbour messages with several
aggregators (mean, min, max, std) and rescales each with degree-dependent
scalers (identity, amplification, attenuation), then mixes the
concatenation — together with the node's own state — through a linear
layer.

All scatter/gather steps are vectorised NumPy (``np.add.at`` /
``np.maximum.at``), with exact manual gradients, including the fiddly
cases: gradient routing to arg-max/min sources with tie splitting, and the
std gradient through the variance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .modules import Linear, Module

__all__ = ["PNAConv", "AGGREGATORS", "SCALERS", "DELTA"]

AGGREGATORS = ("mean", "min", "max", "std")
SCALERS = ("identity", "amplification", "attenuation")
#: Mean log-degree of the training graphs: the degree scalers' normaliser.
DELTA = 1.6
_EPS = 1e-8


class PNAConv(Module):
    """One PNA layer: in_dim -> out_dim over a directed edge list."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        rng_key: tuple = ("pna",),
    ) -> None:
        # Mixing layer input: own state + |aggregators| x |scalers| blocks.
        self.in_dim = in_dim
        self.out_dim = out_dim
        mix_in = in_dim * (1 + len(AGGREGATORS) * len(SCALERS))
        self.mix = Linear(mix_in, out_dim, rng_key=rng_key + ("mix",))
        self._cache: Optional[dict] = None

    # ------------------------------------------------------------------
    def forward_graph(self, x: np.ndarray, edge_index: np.ndarray) -> np.ndarray:
        """Forward over one (batched) graph; x is (N, in_dim)."""
        n = x.shape[0]
        src, dst = edge_index[0], edge_index[1]
        msgs = x[src]  # (E, F) incoming messages
        deg = np.bincount(dst, minlength=n).astype(np.float64)
        safe_deg = np.maximum(deg, 1.0)

        # -- aggregators ------------------------------------------------
        s1 = np.zeros_like(x)
        np.add.at(s1, dst, msgs)
        mean = s1 / safe_deg[:, None]

        s2 = np.zeros_like(x)
        np.add.at(s2, dst, msgs * msgs)
        var = np.maximum(s2 / safe_deg[:, None] - mean**2, 0.0)
        std = np.sqrt(var + _EPS)

        big = np.finfo(np.float64).max
        mx = np.full_like(x, -big)
        np.maximum.at(mx, dst, msgs)
        mx = np.where(deg[:, None] > 0, mx, 0.0)
        mn = np.full_like(x, big)
        np.minimum.at(mn, dst, msgs)
        mn = np.where(deg[:, None] > 0, mn, 0.0)

        # -- scalers ------------------------------------------------------
        log_deg = np.log(deg + 1.0)
        amp = (log_deg / DELTA)[:, None]
        att = (DELTA / np.maximum(log_deg, _EPS))[:, None]
        att = np.where(deg[:, None] > 0, att, 0.0)  # isolated nodes: no signal
        scalers = (np.ones((n, 1)), amp, att)

        blocks = [x]
        for agg in (mean, mn, mx, std):
            for s in scalers:
                blocks.append(agg * s)
        stacked = np.concatenate(blocks, axis=1)

        self._cache = dict(
            x=x,
            src=src,
            dst=dst,
            msgs=msgs,
            deg=deg,
            safe_deg=safe_deg,
            mean=mean,
            std=std,
            mx=mx,
            mn=mn,
            scalers=scalers,
            n=n,
        )
        return self.mix.forward(stacked)

    # ------------------------------------------------------------------
    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward; returns gradient w.r.t. the input node features."""
        if self._cache is None:
            raise RuntimeError("backward before forward")
        c = self._cache
        grad_stacked = self.mix.backward(grad_out)
        F = self.in_dim
        n = c["n"]
        src, dst = c["src"], c["dst"]
        msgs, deg, safe_deg = c["msgs"], c["deg"], c["safe_deg"]
        scalers = c["scalers"]

        grad_x = grad_stacked[:, :F].copy()

        # Per-aggregator gradient wrt the aggregated tensor (sum over the
        # three scaled copies, each scaled by its scaler).
        agg_grads = []
        for a in range(len(AGGREGATORS)):
            g = np.zeros((n, F))
            for s_idx in range(len(SCALERS)):
                block = grad_stacked[:, F * (1 + a * len(SCALERS) + s_idx) :][:, :F]
                g += block * scalers[s_idx]
            agg_grads.append(g)
        g_mean, g_min, g_max, g_std = agg_grads

        grad_msgs = np.zeros_like(msgs)

        # mean: each incoming message receives g_mean[dst] / deg[dst].
        grad_msgs += g_mean[dst] / safe_deg[dst][:, None]

        # std: d std / d msg_e = (msg_e - mean[dst]) / (deg[dst] * std[dst]).
        centred = msgs - c["mean"][dst]
        grad_msgs += g_std[dst] * centred / (safe_deg[dst][:, None] * c["std"][dst])

        # max/min: route to arg extremes, splitting ties evenly.
        for g_ext, ext in ((g_max, c["mx"]), (g_min, c["mn"])):
            is_ext = msgs == ext[dst]
            ties = np.zeros((n, F))
            np.add.at(ties, dst, is_ext.astype(np.float64))
            ties = np.maximum(ties, 1.0)
            grad_msgs += np.where(is_ext, g_ext[dst] / ties[dst], 0.0)

        # messages are x[src]: scatter back.
        np.add.at(grad_x, src, grad_msgs)
        self._cache = None
        return grad_x

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise TypeError("use forward_graph(x, edge_index)")
