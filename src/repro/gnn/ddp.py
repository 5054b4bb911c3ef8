"""Distributed data parallelism: gradient averaging over the simulated MPI.

Mirrors ``torch.nn.parallel.DistributedDataParallel`` at the level the
paper uses it: after local backward, gradients are summed across ranks
with an allreduce and divided by the world size, so every rank applies the
same update (step iv of Fig 1).

A modelled-compute trainer (``real_compute=False``) needs only the
model's shape: ``DistributedModel(None, comm, config=cfg)`` holds no
weights and prices the allreduce from the closed-form parameter count.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..mpi import Comm
from .model import HydraGNN, HydraGNNConfig

__all__ = ["DistributedModel", "GradPayload"]


class GradPayload:
    """Size-carrying stand-in for a gradient buffer.

    Used by modelled (non-numerical) training runs so the allreduce is
    charged for the real fp32 gradient volume without allocating it.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes

    def __add__(self, other: "GradPayload") -> "GradPayload":
        return GradPayload(self.nbytes)

    def __radd__(self, other):  # pragma: no cover - symmetry
        return self


class DistributedModel:
    """Wraps a model with a communicator for synchronised training.

    ``model=None`` with a ``config`` wraps the shape alone: the modelled
    allreduce and optimiser pricing work, the numerical methods do not.
    """

    def __init__(
        self,
        model: Optional[HydraGNN],
        comm: Comm,
        *,
        config: Optional[HydraGNNConfig] = None,
    ) -> None:
        if (model is None) == (config is None):
            raise ValueError("pass a model, or model=None and its config")
        self.model = model
        self.comm = comm
        self.config = config if model is None else model.config
        #: Scalar parameter count, taken once: the module tree is fixed for
        #: the model's lifetime and the trainer asks every step.
        self.n_params = config.n_params if model is None else model.n_params()

    @property
    def grad_nbytes(self) -> int:
        """Wire volume of one gradient exchange (fp32, as PyTorch DDP)."""
        return self.n_params * 4

    def sync_gradients(self) -> Generator:
        """Allreduce-average the accumulated gradients (collective)."""
        flat = self.model.flat_grads()
        total = yield from self.comm.allreduce(flat, op="sum")
        self.model.set_flat_grads(total / self.comm.size)

    def sync_gradients_modelled(self) -> Generator:
        """Charge the allreduce cost without moving numerical gradients."""
        yield from self.comm.allreduce(GradPayload(self.grad_nbytes), op="sum")

    def broadcast_parameters(self) -> Generator:
        """Make rank 0's weights authoritative (DDP initialisation)."""
        params = self.model.params()
        flat = np.concatenate([p.value.ravel() for p in params])
        flat = yield from self.comm.bcast(flat, root=0)
        off = 0
        for p in params:
            n = p.size
            p.value[...] = flat[off : off + n].reshape(p.value.shape)
            off += n

    def assert_synchronised(self) -> Generator:
        """Debug collective: verify all ranks hold identical weights."""
        digest = float(sum(np.abs(p.value).sum() for p in self.model.params()))
        digests = yield from self.comm.allgather(digest)
        if not all(abs(d - digests[0]) < 1e-6 * max(abs(digests[0]), 1.0) for d in digests):
            raise RuntimeError(f"ranks diverged: {digests}")
