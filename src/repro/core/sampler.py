"""Distributed sampling: who trains on which samples, in what order.

:func:`epoch_indices` spells three strategies — the first two from the
paper's §2.2:

* ``"global"`` — a fresh global permutation every epoch, sliced across
  ranks.  Maintains model generality (every rank sees fresh data each
  epoch) but requires fetching arbitrary remote samples: the access
  pattern DDStore exists to serve.
* ``"local"`` — classic data sharding: each rank owns a static
  contiguous shard and only shuffles within it.  Cheap (all accesses
  local) but known to hurt generalisation and to require re-sharding
  whenever the GPU count changes.
* ``"sampled"`` — skewed sampling *with replacement* over the global id
  space, modelling sampling-based mini-batch GNN training (neighbourhood
  samplers hit hub vertices far more often than leaves).  Every rank
  draws independently from the same per-epoch hotness ranking, so
  node-local ranks request heavily overlapping id sets — the reuse-heavy
  pattern node-scope fetch aggregation dedups.

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

__all__ = ["epoch_indices", "iter_batches"]

#: Power of the ``"sampled"`` transform ``id = hot[floor(n * u**SKEW)]``:
#: above 1 it concentrates mass on the epoch's hot ids, mimicking hub-vertex
#: reuse in sampling-based GNN workloads.
SKEW = 4.0


@lru_cache(maxsize=16, typed=True)
def _epoch_permutation(name: str, seed, epoch: int, n_samples: int) -> np.ndarray:
    """One epoch's permutation of the whole dataset: a pure function of its
    arguments, so it is drawn once and shared — read-only — by every rank's
    schedule and every peer schedule a rank reconstructs, instead of each
    permuting the whole dataset again."""
    perm = stream(name, seed, epoch).permutation(n_samples)
    perm.setflags(write=False)
    return perm


def epoch_indices(
    shuffle: str, n_samples: int, n_ranks: int, rank: int, seed, epoch: int
) -> np.ndarray:
    """Rank ``rank``'s sample ids for ``epoch``: ``n_samples // n_ranks``
    of them (the tail dropped) under the ``shuffle`` strategy."""
    if not 0 <= rank < n_ranks:
        raise ValueError(f"rank {rank} out of range for {n_ranks} ranks")
    per_rank = n_samples // n_ranks
    if shuffle == "global":
        # Same permutation on every rank thanks to the shared (seed, epoch)
        # RNG key; each rank takes its slice.
        perm = _epoch_permutation("global-shuffle", seed, epoch, n_samples)
        lo = rank * per_rank
        return perm[lo : lo + per_rank]
    if shuffle == "local":
        bounds = balanced_partition(n_samples, n_ranks)
        shard = np.arange(int(bounds[rank]), int(bounds[rank + 1]), dtype=np.int64)
        order = stream("local-shuffle", seed, rank, epoch).permutation(shard.size)
        return shard[order][:per_rank]
    if shuffle == "sampled":
        # A fresh hotness permutation shared by every rank, through which
        # each rank maps its own uniform stream.
        hot = _epoch_permutation("sampled-hotness", seed, epoch, n_samples)
        u = stream("sampled-shuffle", seed, epoch, rank).random(per_rank)
        pos = np.minimum((u**SKEW * n_samples).astype(np.int64), n_samples - 1)
        return hot[pos]
    raise ValueError(f"unknown shuffle {shuffle!r}")


def iter_batches(indices: np.ndarray, batch_size: int):
    """Split an epoch's index stream into full mini-batches (the partial
    tail is dropped)."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    stop = (indices.size // batch_size) * batch_size
    for lo in range(0, stop, batch_size):
        yield indices[lo : lo + batch_size]
