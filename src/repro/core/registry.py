"""Data registry: the global index of chunks (paper §3.2, component 2).

After preloading, every group member holds its chunk as one contiguous
byte buffer of variable-size packed samples.  The registry — replicated on
every member after a collective exchange — maps a global sample id to
``(owner group-rank, byte offset, byte size)`` so the data loader can
issue one-sided reads without touching the target process.

The table is one flat CSR over the *global* sample range: chunks are
contiguous id ranges laid end to end in member order, so a sample's global
id indexes every column directly and the member ``bounds`` recover its
owner.  One host copy is built per replica group and shared read-only by
the member coroutines; the virtual allgather is still charged per rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chunking import ChunkLayout

__all__ = ["ChunkRegistry", "ShapeTable"]


@dataclass
class ShapeTable:
    """Replicated per-sample shape index for the columnar (arena) path.

    Holds what the arena planner needs to compute scatter destinations
    *before* the bytes arrive: every sample's id and node/edge counts
    (flat columns indexed by global sample id, like the offset table) plus
    the dataset-wide feature/output dims.  Built from an untimed header
    sweep of each member's local chunk and one allgather alongside the
    size exchange — only when the columnar data plane is enabled.
    """

    sample_ids: np.ndarray  # (n_samples,) int64
    n_nodes: np.ndarray  # (n_samples,) int64
    n_edges: np.ndarray  # (n_samples,) int64
    feature_dim: int
    output_dim: int

    def __post_init__(self) -> None:
        columns = (self.sample_ids, self.n_nodes, self.n_edges)
        if not (columns[0].shape == columns[1].shape == columns[2].shape):
            raise ValueError("shape table columns disagree in length")
        for column in columns:
            column.setflags(write=False)


@dataclass
class ChunkRegistry:
    """Replicated location table of every sample in one replica group."""

    layout: ChunkLayout
    offsets: np.ndarray  # (n_samples + 1,) cumulative packed bytes, global id order
    shapes: Optional[ShapeTable] = None  # present only on the columnar path
    #: Size of the largest packed sample in the replica group.
    max_sample_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        off = self.offsets
        expect = (self.layout.n_samples + 1,)
        if off.shape != expect:
            raise ValueError(f"offset table has shape {off.shape}, expected {expect}")
        sizes = np.diff(off)
        if off[0] != 0 or (sizes < 0).any():
            raise ValueError("offset table is not monotone from 0")
        off.setflags(write=False)
        self.max_sample_bytes = int(sizes.max())
        # Byte position of each member's buffer inside the global table.
        self._base = off[self.layout.bounds]

    @classmethod
    def from_sample_sizes(
        cls, layout: ChunkLayout, sizes_by_member: Sequence[np.ndarray]
    ) -> "ChunkRegistry":
        counts = np.fromiter(map(len, sizes_by_member), np.int64, len(sizes_by_member))
        expect = np.diff(layout.bounds)
        if counts.size != layout.width:
            raise ValueError(
                f"registry needs one size table per member: {counts.size} != {layout.width}"
            )
        if (counts != expect).any():
            r = int(np.flatnonzero(counts != expect)[0])
            raise ValueError(
                f"member {r} reported {counts[r]} sample sizes for a chunk of {expect[r]}"
            )
        offsets = np.zeros(layout.n_samples + 1, dtype=np.int64)
        np.cumsum(np.concatenate(sizes_by_member), out=offsets[1:])
        return cls(layout=layout, offsets=offsets)

    # -- lookups ---------------------------------------------------------
    def _checked(self, global_indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(global_indices, dtype=np.int64).reshape(-1)
        n = self.layout.n_samples
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(f"sample index out of range [0, {n}): {global_indices}")
        return idx

    def locate_batch(
        self, global_indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(owner group-rank, byte offset, byte size) of each sample."""
        idx = self._checked(global_indices)
        owners = np.searchsorted(self.layout.bounds, idx, side="right") - 1
        starts = self.offsets[idx]
        return owners, starts - self._base[owners], self.offsets[idx + 1] - starts

    def shape_batch(
        self, global_indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised (sample_id, n_nodes, n_edges) lookup over an index array.

        Requires a :class:`ShapeTable` (columnar path); raises otherwise.
        """
        shapes = self.shapes
        if shapes is None:
            raise ValueError("registry has no shape table (columnar data plane disabled)")
        idx = self._checked(global_indices)
        return shapes.sample_ids[idx], shapes.n_nodes[idx], shapes.n_edges[idx]

    def buffer_bytes(self, group_rank: int) -> int:
        return int(self._base[group_rank + 1] - self._base[group_rank])
