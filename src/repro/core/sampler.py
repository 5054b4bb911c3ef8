"""Distributed samplers: who trains on which samples, in what order.

Three strategies — the first two from the paper's §2.2:

* :class:`GlobalShuffleSampler` — a fresh global permutation every epoch,
  sliced across ranks.  Maintains model generality (every rank sees fresh
  data each epoch) but requires fetching arbitrary remote samples: the
  access pattern DDStore exists to serve.
* :class:`LocalShuffleSampler` — classic data sharding: each rank owns a
  static contiguous shard and only shuffles within it.  Cheap (all
  accesses local) but known to hurt generalisation and to require
  re-sharding whenever the GPU count changes.
* :class:`SampledShuffleSampler` — skewed sampling *with replacement*
  over the global id space, modelling sampling-based mini-batch GNN
  training (neighbourhood samplers hit hub vertices far more often than
  leaves).  Every rank draws independently from the same per-epoch
  hotness ranking, so node-local ranks request heavily overlapping id
  sets — the reuse-heavy pattern node-scope fetch aggregation dedups.

All three drop the tail so every rank sees the same number of samples
per epoch, which distributed data parallelism requires for its
lock-step collectives, and all three are pure functions of
``(seed, epoch, rank)`` — any rank can reconstruct any peer's schedule
with zero communication.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..sim.rng import stream
from .chunking import balanced_partition

__all__ = [
    "GlobalShuffleSampler",
    "LocalShuffleSampler",
    "SampledShuffleSampler",
    "iter_batches",
]


@lru_cache(maxsize=16, typed=True)
def _epoch_permutation(name: str, seed, epoch: int, n_samples: int) -> np.ndarray:
    """One epoch's permutation of the whole dataset: a pure function of its
    arguments, so it is drawn once and shared — read-only — by every rank's
    sampler and every peer schedule a rank reconstructs, instead of each
    permuting the whole dataset again."""
    perm = stream(name, seed, epoch).permutation(n_samples)
    perm.setflags(write=False)
    return perm


class GlobalShuffleSampler:
    """Epoch-seeded global permutation, partitioned evenly across ranks."""

    def __init__(self, n_samples: int, n_ranks: int, rank: int, seed: int = 0) -> None:
        if not 0 <= rank < n_ranks:
            raise ValueError(f"rank {rank} out of range for {n_ranks} ranks")
        if n_samples < n_ranks:
            raise ValueError(
                f"cannot shard {n_samples} samples over {n_ranks} ranks"
            )
        self.n_samples = n_samples
        self.n_ranks = n_ranks
        self.rank = rank
        self.seed = seed
        self.per_rank = n_samples // n_ranks  # tail dropped

    def epoch_indices(self, epoch: int) -> np.ndarray:
        """This rank's sample ids for the given epoch (same permutation on
        every rank thanks to the shared (seed, epoch) RNG key)."""
        perm = _epoch_permutation("global-shuffle", self.seed, epoch, self.n_samples)
        lo = self.rank * self.per_rank
        return perm[lo : lo + self.per_rank]


class LocalShuffleSampler:
    """Static contiguous shard per rank, shuffled locally each epoch."""

    def __init__(self, n_samples: int, n_ranks: int, rank: int, seed: int = 0) -> None:
        if not 0 <= rank < n_ranks:
            raise ValueError(f"rank {rank} out of range for {n_ranks} ranks")
        if n_samples < n_ranks:
            raise ValueError(
                f"cannot shard {n_samples} samples over {n_ranks} ranks"
            )
        self.n_samples = n_samples
        self.n_ranks = n_ranks
        self.rank = rank
        self.seed = seed
        bounds = balanced_partition(n_samples, n_ranks)
        self._lo, self._hi = int(bounds[rank]), int(bounds[rank + 1])
        self.per_rank = n_samples // n_ranks  # equalised with tail drop

    def epoch_indices(self, epoch: int) -> np.ndarray:
        shard = np.arange(self._lo, self._hi, dtype=np.int64)
        order = stream("local-shuffle", self.seed, self.rank, epoch).permutation(
            shard.size
        )
        return shard[order][: self.per_rank]


class SampledShuffleSampler:
    """Deterministic skewed sampling with replacement over all samples.

    Each epoch draws a fresh hotness permutation shared by every rank
    (``stream("sampled-hotness", seed, epoch)``), then each rank maps
    its own uniform stream through a power transform
    ``id = hot[floor(n * u**SKEW)]`` — a power above 1 concentrates mass
    on the epoch's hot ids, mimicking hub-vertex reuse in sampling-based
    GNN workloads.
    """

    SKEW = 4.0

    def __init__(self, n_samples: int, n_ranks: int, rank: int, seed: int = 0) -> None:
        if not 0 <= rank < n_ranks:
            raise ValueError(f"rank {rank} out of range for {n_ranks} ranks")
        if n_samples < n_ranks:
            raise ValueError(
                f"cannot shard {n_samples} samples over {n_ranks} ranks"
            )
        self.n_samples = n_samples
        self.n_ranks = n_ranks
        self.rank = rank
        self.seed = seed
        self.per_rank = n_samples // n_ranks  # equalised with other samplers

    def epoch_indices(self, epoch: int) -> np.ndarray:
        hot = _epoch_permutation("sampled-hotness", self.seed, epoch, self.n_samples)
        u = stream("sampled-shuffle", self.seed, epoch, self.rank).random(
            self.per_rank
        )
        pos = np.minimum(
            (u**self.SKEW * self.n_samples).astype(np.int64), self.n_samples - 1
        )
        return hot[pos]


def iter_batches(indices: np.ndarray, batch_size: int):
    """Split an epoch's index stream into full mini-batches (the partial
    tail is dropped)."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    stop = (indices.size // batch_size) * batch_size
    for lo in range(0, stop, batch_size):
        yield indices[lo : lo + batch_size]
