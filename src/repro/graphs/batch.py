"""Mini-batch collation: many small graphs into one block-diagonal graph.

The paper's "CPU-Batching" phase (Fig 5) is exactly this operation: the
samples fetched by the data loader are concatenated into one disjoint
union so a single message-passing pass covers the whole batch.

Two ways to build that union:

* the classic **row path** — a list of :class:`AtomicGraph` objects is
  concatenated field by field (one fresh allocation per sample per field);
* the **arena path** — a :class:`BatchArena` preallocates one flat buffer
  per field; the fetch layer records where each sample's bytes are, the
  first field read scatters them straight into the buffers, and
  :func:`collate` merely wraps the arena's views into a
  :class:`GraphBatch` (zero per-sample allocations).  A reader of the
  shape table alone (the modelled-compute loader) copies no payload byte.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .graph import AtomicGraph, field_nbytes

__all__ = [
    "GraphBatch",
    "collate",
    "BatchArena",
    "ArenaPool",
    "AllocationCounter",
    "SAMPLE_ALLOCATIONS",
]


class AllocationCounter:
    """Counts per-sample row blobs produced on the fetch/collate path.

    One per sample-sized ndarray the row path hands out — a private copy
    (local, cache hit, stitched, decoded), or a read-only view of a read
    payload for a wire sample that arrived whole (no second buffer, still
    one blob).  The columnar scatter path must stay at zero, which is
    what the ``ablation-columnar`` bench asserts in ``--check`` mode.
    """

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


#: Process-global counter shared by the store's row path and the benches.
SAMPLE_ALLOCATIONS = AllocationCounter()


@dataclass
class GraphBatch:
    """A disjoint union of graphs with per-node graph membership.

    ``ptr`` is the CSR-style boundary array: nodes of graph ``i`` occupy
    rows ``ptr[i]:ptr[i+1]``.
    """

    positions: np.ndarray  # (N, 3)
    node_features: np.ndarray  # (N, f)
    edge_index: np.ndarray  # (2, E) with shifted node ids
    y: np.ndarray  # (B, out_dim)
    node_graph: np.ndarray  # (N,) graph index of every node
    ptr: np.ndarray  # (B + 1,)
    sample_ids: np.ndarray  # (B,)

    @property
    def n_graphs(self) -> int:
        return int(self.y.shape[0])

    @property
    def n_nodes(self) -> int:
        return int(self.positions.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edge_index.shape[1])

    def graph(self, i: int) -> AtomicGraph:
        """Recover the i-th constituent graph (inverse of collate)."""
        lo, hi = int(self.ptr[i]), int(self.ptr[i + 1])
        mask = (self.edge_index[0] >= lo) & (self.edge_index[0] < hi)
        return AtomicGraph(
            positions=self.positions[lo:hi],
            node_features=self.node_features[lo:hi],
            edge_index=self.edge_index[:, mask] - lo,
            y=self.y[i],
            sample_id=int(self.sample_ids[i]),
        )


def _read_through(name: str) -> property:
    """A field of the batch, copied in on its first read."""
    return property(lambda self: self._fill()[name], doc=f"The batch's ``{name}`` (read-through).")


class BatchArena:
    """Preallocated per-field buffers that one batch is assembled into.

    Backing stores are flat ``uint8`` arrays that only ever grow (2x
    headroom on resize), so a recycled arena serves any batch whose field
    sizes fit without touching the allocator.  Each lives in its own
    anonymous ``mmap``, so the pages go back to the OS when the arena is
    dropped instead of staying in the allocator's free lists.

    ``reset`` records the batch's shape table (``ptr``, ``edge_ptr``,
    ``node_counts``, ``sample_ids``, ``node_graph``).  The four fields and
    ``field_bytes`` are read-through: the first read cuts typed views over
    buffer prefixes.  A pipeline fill (``reset`` with ``plan=``) copies no
    byte while it fetches: it :meth:`record`-s where each sample's bytes
    are, and the first field read runs them through the plan's
    :class:`~repro.dataplane.planner.ArenaScatterMap` and shifts the
    edges, so a reader of the shape table alone moves no payload byte.  A
    hand fill writes ``field_bytes`` itself and calls :meth:`shift_edges`.
    :meth:`as_batch` wraps the views into a :class:`GraphBatch` — no
    per-sample arrays anywhere.
    """

    _FIELDS = ("positions", "node_features", "edge_index", "y")

    positions = _read_through("positions")
    node_features = _read_through("node_features")
    edge_index = _read_through("edge_index")
    y = _read_through("y")

    def __init__(self) -> None:
        self._stores: dict[str, np.ndarray] = {
            name: np.empty(0, np.uint8) for name in self._FIELDS
        }
        self.node_counts = self.edge_counts = self.sample_ids = np.zeros(0, np.int64)
        self.ptr = self.edge_ptr = np.zeros(1, np.int64)
        self.node_graph = np.zeros(0, np.int64)
        self._dims = (0, 0)
        self.drop_sources()

    def _backing(self, name: str, nbytes: int) -> np.ndarray:
        store = self._stores[name]
        if store.nbytes < nbytes:
            store = np.frombuffer(mmap.mmap(-1, max(nbytes, 2 * store.nbytes)), np.uint8)
            self._stores[name] = store
        return store

    def presize(
        self, n_graphs: int, n_nodes: int, n_edges: int, feature_dim: int, output_dim: int
    ) -> dict:
        """Grow backings for a batch of the given total shape; returns each
        field's byte prefix for that batch."""
        sizes = field_nbytes(n_nodes, n_edges, feature_dim, output_dim, n_graphs)
        return {name: self._backing(name, nb)[:nb] for name, nb in zip(self._FIELDS, sizes)}

    def reset(
        self,
        node_counts: np.ndarray,
        edge_counts: np.ndarray,
        feature_dim: int,
        output_dim: int,
        sample_ids: np.ndarray,
        plan: Optional[Callable] = None,
    ) -> None:
        """Shape the arena for one batch; previous views become invalid and
        recorded sources are dropped.  ``plan`` (a
        :meth:`~repro.dataplane.planner.FetchPlanner.plan_arena`) makes this
        a pipeline fill: :meth:`record` sources, read back with
        batch-global edge ids."""
        self.node_counts = np.asarray(node_counts, np.int64)
        self.edge_counts = np.asarray(edge_counts, np.int64)
        b = int(self.node_counts.size)
        self.ptr = np.zeros(b + 1, np.int64)
        np.cumsum(self.node_counts, out=self.ptr[1:])
        self.edge_ptr = np.zeros(b + 1, np.int64)
        np.cumsum(self.edge_counts, out=self.edge_ptr[1:])
        self.sample_ids = np.asarray(sample_ids, np.int64)
        self.node_graph = np.repeat(np.arange(b, dtype=np.int64), self.node_counts)
        self._dims = (feature_dim, output_dim)
        self.drop_sources()
        self._plan = plan

    def drop_sources(self) -> None:
        """Forget the recorded sources, the plan and the cut views (the
        pool calls this on release, so a pooled arena pins no payload)."""
        self._plan: Optional[Callable] = None
        self._sources: list[tuple] = []
        self._views: Optional[dict] = None
        self._shifted = False

    def record(self, position: int, sample_lo: int, sample_hi: int, src) -> None:
        """Note that ``src`` holds bytes ``[sample_lo, sample_hi)`` of the
        packed record of sample ``position``; they are copied in on the
        first field read, so ``src`` must not change until then: a
        writable one is a ``ValueError``."""
        if not memoryview(src).readonly:
            raise ValueError(f"arena source for position {position} is writable")
        self._sources.append((position, sample_lo, sample_hi, src))

    def _fill(self) -> dict:
        """The typed field views, cut on first read; a pipeline fill's
        recorded sources are copied in and its edges shifted then."""
        if self._views is None:
            feature_dim, output_dim = self._dims
            n, e, b = int(self.ptr[-1]), int(self.edge_ptr[-1]), int(self.node_counts.size)
            self._bytes = fields = self.presize(b, n, e, feature_dim, output_dim)
            self._views = {
                "positions": fields["positions"].view(np.float32).reshape(n, 3),
                "node_features": fields["node_features"].view(np.float32).reshape(n, feature_dim),
                "edge_index": fields["edge_index"].view(np.int32).reshape(2, e),
                "y": fields["y"].view(np.float32).reshape(b, output_dim),
            }
            if self._plan is not None:
                smap = self._plan(self.node_counts, self.edge_counts, feature_dim, output_dim)
                dest = tuple(fields[name] for name in self._FIELDS)
                for position, lo, hi, src in self._sources:
                    smap.scatter(position, lo, hi, src, dest)
                self._sources = []
                self.shift_edges()
        return self._views

    @property
    def field_bytes(self) -> dict:
        """Each field's flat ``uint8`` bytes for this batch (read-through)."""
        self._fill()
        return self._bytes

    def shift_edges(self) -> None:
        """Vectorised edge-index shift to batch-global node ids (idempotent).

        Matches the row collate's per-graph ``edge_index + ptr[i]`` shift
        exactly, so arena batches are byte-identical to row batches.
        """
        edge_index = self._fill()["edge_index"]
        if self._shifted:
            return
        self._shifted = True
        if edge_index.size:
            offs = np.repeat(self.ptr[:-1], self.edge_counts).astype(np.int32)
            np.add(edge_index, offs, out=edge_index)

    def as_batch(self) -> GraphBatch:
        """Wrap the arena views into a GraphBatch (no copies)."""
        return GraphBatch(
            positions=self.positions,
            node_features=self.node_features,
            edge_index=self.edge_index,
            y=self.y,
            node_graph=self.node_graph,
            ptr=self.ptr,
            sample_ids=self.sample_ids,
        )


class ArenaPool:
    """Free-list of recycled arenas, one in flight per prefetch slot."""

    def __init__(self) -> None:
        self._free: list[BatchArena] = []
        self.created = 0

    def acquire(self) -> BatchArena:
        if self._free:
            return self._free.pop()
        self.created += 1
        return BatchArena()

    def release(self, arena: BatchArena) -> None:
        arena.drop_sources()
        self._free.append(arena)

    def warm(
        self,
        n_arenas: int,
        n_graphs: int,
        n_nodes: int,
        n_edges: int,
        feature_dim: int,
        output_dim: int,
    ) -> None:
        """Pre-size ``n_arenas`` arenas so steady state never reallocates."""
        grown = [self.acquire() for _ in range(n_arenas)]
        for arena in grown:
            arena.presize(n_graphs, n_nodes, n_edges, feature_dim, output_dim)
            self.release(arena)


def collate(
    graphs: Sequence[AtomicGraph] = (), *, arena: BatchArena | None = None
) -> GraphBatch:
    """Concatenate graphs into one batch, shifting edge indices.

    With ``arena=`` the fast path runs instead: the arena's first field
    read scatters the batch field-wise into it, so only that, the
    vectorised edge shift and a view-wrapping remain.
    """
    if arena is not None:
        arena.shift_edges()
        return arena.as_batch()
    if not graphs:
        raise ValueError("cannot collate an empty batch")
    out_dim = graphs[0].output_dim
    feat_dim = graphs[0].feature_dim
    for g in graphs:
        if g.output_dim != out_dim or g.feature_dim != feat_dim:
            raise ValueError(
                "inconsistent feature/output dims within one batch: "
                f"({g.feature_dim}, {g.output_dim}) vs ({feat_dim}, {out_dim})"
            )
    node_counts = np.fromiter((g.n_nodes for g in graphs), dtype=np.int64, count=len(graphs))
    ptr = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum(node_counts, out=ptr[1:])

    positions = np.concatenate([g.positions for g in graphs], axis=0)
    feats = np.concatenate([g.node_features for g in graphs], axis=0)
    edges = [g.edge_index + off for g, off in zip(graphs, ptr[:-1])]
    edge_index = (
        np.concatenate(edges, axis=1)
        if any(g.n_edges for g in graphs)
        else np.zeros((2, 0), dtype=np.int32)
    )
    y = np.stack([g.y for g in graphs], axis=0)
    node_graph = np.repeat(np.arange(len(graphs), dtype=np.int64), node_counts)
    sample_ids = np.fromiter((g.sample_id for g in graphs), dtype=np.int64, count=len(graphs))
    return GraphBatch(
        positions=positions,
        node_features=feats,
        edge_index=edge_index.astype(np.int32),
        y=y,
        node_graph=node_graph,
        ptr=ptr,
        sample_ids=sample_ids,
    )
