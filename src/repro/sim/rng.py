"""Deterministic named random-number streams.

Every stochastic choice in the reproduction (dataset generation, shuffling,
latency jitter) draws from a :class:`numpy.random.Generator` obtained
through :func:`stream`, keyed by a tuple of hashable labels.  The same key
always yields the same stream, independent of creation order, so entire
experiments are bit-reproducible.

Hot paths that draw one scalar per event (PFS jitter, cache churn) read
through :class:`BlockDraws`, which fetches a block of draws per numpy call
and hands them out one by one — the same values in the same order.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Hashable

import numpy as np

__all__ = ["stream", "derive_seed", "RngRegistry", "BlockDraws"]

_GLOBAL_SALT = b"repro-ddstore-v1"


def derive_seed(*key: Hashable) -> int:
    """Map an arbitrary hashable key to a stable 64-bit seed."""
    h = hashlib.blake2b(_GLOBAL_SALT, digest_size=8)
    for part in key:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def stream(*key: Hashable) -> np.random.Generator:
    """Return a fresh Generator deterministically derived from ``key``."""
    return np.random.default_rng(np.random.SeedSequence(derive_seed(*key)))


class RngRegistry:
    """Caches streams per key so repeated lookups advance a single stream.

    Use this when a component draws incrementally (e.g. per-request latency
    jitter) and the *sequence* of draws must be stable across runs.
    """

    def __init__(self, *base_key: Hashable) -> None:
        self._base = tuple(base_key)
        self._streams: dict[tuple, np.random.Generator] = {}

    def get(self, *key: Hashable) -> np.random.Generator:
        full = self._base + tuple(key)
        gen = self._streams.get(full)
        if gen is None:
            gen = stream(*full)
            self._streams[full] = gen
        return gen


class BlockDraws:
    """One distribution's draws from one stream, fetched ``block`` at a time.

    A :class:`numpy.random.Generator` fills an array element by element from
    the same bit stream one scalar call per draw would consume, so
    :meth:`draw` and :meth:`take` return exactly the values, in exactly the
    order, of unbuffered ``gen.<dist>(**params)`` calls — provided nothing
    else draws from ``gen`` (the helper owns its stream).
    ``tests/test_edge_cases.py`` pins the invariant for every buffered
    distribution.
    """

    __slots__ = ("_fill", "_buf", "_pos")

    def __init__(self, gen: np.random.Generator, dist: str, block: int = 256, **params) -> None:
        self._fill = functools.partial(getattr(gen, dist), size=block, **params)
        self._buf: list[float] = []
        self._pos = 0

    def draw(self) -> float:
        """The next draw."""
        pos = self._pos
        if pos == len(self._buf):
            self._buf = self._fill().tolist()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def take(self, k: int) -> list[float]:
        """The next ``k`` draws (a take may span blocks)."""
        return [self.draw() for _ in range(k)]
