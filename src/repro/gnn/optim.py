"""Optimisers and LR scheduling: AdamW + ReduceLROnPlateau (paper §4.2)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .modules import Param

__all__ = ["AdamW", "ReduceLROnPlateau"]

#: AdamW's moment decay rates and denominator epsilon, torch.optim.AdamW's.
BETAS = (0.9, 0.999)
EPS = 1e-8
#: ReduceLROnPlateau never lowers the learning rate below this.
MIN_LR = 1e-6


class AdamW:
    """AdamW with decoupled weight decay (Loshchilov & Hutter), defaults
    matching PyTorch's ``torch.optim.AdamW``."""

    def __init__(
        self,
        params: Sequence[Param],
        lr: float = 1e-3,
        weight_decay: float = 1e-2,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimiser needs at least one parameter")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2 = BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            # Decoupled decay: applied to the weights, not the gradient.
            if self.weight_decay:
                p.value *= 1.0 - self.lr * self.weight_decay
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


class ReduceLROnPlateau:
    """Halve-style LR scheduler keyed on a monitored metric (val loss)."""

    def __init__(
        self,
        optimizer: AdamW,
        factor: float = 0.5,
        patience: int = 5,
        threshold: float = 1e-4,
    ) -> None:
        if not 0 < factor < 1:
            raise ValueError("factor must be in (0, 1)")
        self.optimizer = optimizer
        self.factor = factor
        self.patience = patience
        self.threshold = threshold
        self.best = float("inf")
        self.bad_epochs = 0
        self.lr_history: list[float] = [optimizer.lr]

    def step(self, metric: float) -> bool:
        """Feed one epoch's metric; returns True when the LR was reduced."""
        reduced = False
        if metric < self.best * (1.0 - self.threshold):
            self.best = metric
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs > self.patience:
                new_lr = max(self.optimizer.lr * self.factor, MIN_LR)
                if new_lr < self.optimizer.lr:
                    self.optimizer.lr = new_lr
                    reduced = True
                self.bad_epochs = 0
        self.lr_history.append(self.optimizer.lr)
        return reduced
