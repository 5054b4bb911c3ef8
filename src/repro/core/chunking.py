"""Chunk layout: striping a dataset over the ranks of one replica group.

Samples keep their global ids; the layout holds each group member's id
range, from which :class:`~repro.core.registry.ChunkRegistry` reads a
sample's owner.  The split is the balanced contiguous partition MPI codes
use: the first ``T mod w`` members get one extra sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ChunkLayout", "balanced_partition"]


def balanced_partition(n_samples: int, n_parts: int) -> np.ndarray:
    """Boundaries of a balanced contiguous split; shape (n_parts + 1,).

    Part ``p`` owns ``[bounds[p], bounds[p+1])``; sizes differ by <= 1.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    if n_parts < 1:
        raise ValueError("n_parts must be positive")
    base, extra = divmod(n_samples, n_parts)
    sizes = np.full(n_parts, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(n_parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


@dataclass(frozen=True)
class ChunkLayout:
    """The chunk map of one replica group (width ``w`` members)."""

    n_samples: int
    width: int
    bounds: np.ndarray  # (width + 1,)

    @classmethod
    def build(cls, n_samples: int, width: int) -> "ChunkLayout":
        if n_samples < 1:
            raise ValueError("dataset must contain at least one sample")
        return cls(
            n_samples=n_samples,
            width=width,
            bounds=balanced_partition(n_samples, width),
        )

    def chunk_range(self, group_rank: int) -> tuple[int, int]:
        if not 0 <= group_rank < self.width:
            raise IndexError(f"group rank {group_rank} out of range")
        return int(self.bounds[group_rank]), int(self.bounds[group_rank + 1])

