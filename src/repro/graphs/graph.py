"""Atomistic graph samples.

An :class:`AtomicGraph` is one training sample: a molecule or crystal
configuration with atoms as nodes and bonds/interactions as directed edges,
plus a graph-level target vector (energy, HOMO-LUMO gap, or UV-vis
spectrum).  The layout mirrors PyTorch-Geometric's ``Data`` object, which
is what HydraGNN consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AtomicGraph", "GraphStats", "field_nbytes"]


def field_nbytes(n_nodes, n_edges, feature_dim, output_dim, n_graphs=1) -> tuple:
    """Byte sizes of the four fields of ``n_graphs`` samples with
    ``n_nodes`` nodes and ``n_edges`` edges in all, in packed-record order:
    positions, node features, edge index, y — 4 bytes an element.
    Elementwise over array counts."""
    return 12 * n_nodes, 4 * feature_dim * n_nodes, 8 * n_edges, 4 * output_dim * n_graphs


@dataclass
class AtomicGraph:
    """One atomic structure as a graph sample.

    Attributes
    ----------
    positions:
        ``(n_nodes, 3)`` float32 atom coordinates.
    node_features:
        ``(n_nodes, f)`` float32 per-atom features (spin, species one-hot…).
    edge_index:
        ``(2, n_edges)`` int32 directed edges, row 0 = source, row 1 = target.
    y:
        ``(out_dim,)`` float32 graph-level target.
    sample_id:
        Global index of the sample within its dataset (for provenance
        checks across the distributed store).
    """

    positions: np.ndarray
    node_features: np.ndarray
    edge_index: np.ndarray
    y: np.ndarray
    sample_id: int = -1

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float32)
        self.node_features = np.ascontiguousarray(self.node_features, dtype=np.float32)
        self.edge_index = np.ascontiguousarray(self.edge_index, dtype=np.int32)
        self.y = np.ascontiguousarray(self.y, dtype=np.float32).reshape(-1)
        self.validate()

    @classmethod
    def trusted(
        cls,
        positions: np.ndarray,
        node_features: np.ndarray,
        edge_index: np.ndarray,
        y: np.ndarray,
        sample_id: int = -1,
    ) -> "AtomicGraph":
        """Wrap arrays already known to satisfy the invariants, as they are:
        no dtype coercion, no :meth:`validate` (for a generator whose constant
        arrays were checked once and whose per-sample ones are right by
        construction)."""
        graph = cls.__new__(cls)
        graph.positions = positions
        graph.node_features = node_features
        graph.edge_index = edge_index
        graph.y = y
        graph.sample_id = sample_id
        return graph

    # -- shape handles ------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return int(self.positions.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.edge_index.shape[1])

    @property
    def feature_dim(self) -> int:
        return int(self.node_features.shape[1])

    @property
    def output_dim(self) -> int:
        return int(self.y.shape[0])

    @property
    def nbytes(self) -> int:
        return int(
            self.positions.nbytes
            + self.node_features.nbytes
            + self.edge_index.nbytes
            + self.y.nbytes
        )

    # -- invariants ----------------------------------------------------------
    def validate(self) -> None:
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {self.positions.shape}")
        n = self.positions.shape[0]
        if n == 0:
            raise ValueError("graph must contain at least one atom")
        if self.node_features.ndim != 2 or self.node_features.shape[0] != n:
            raise ValueError(
                f"node_features must be ({n}, f), got {self.node_features.shape}"
            )
        if self.edge_index.ndim != 2 or self.edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must be (2, e), got {self.edge_index.shape}")
        if self.edge_index.size and (
            self.edge_index.min() < 0 or self.edge_index.max() >= n
        ):
            raise ValueError("edge_index references nonexistent nodes")
        if self.y.ndim != 1 or self.y.size == 0:
            raise ValueError("y must be a non-empty vector")

    # -- comparisons -----------------------------------------------------------
    def allclose(self, other: "AtomicGraph", rtol: float = 1e-6) -> bool:
        return (
            self.n_nodes == other.n_nodes
            and self.n_edges == other.n_edges
            and np.allclose(self.positions, other.positions, rtol=rtol)
            and np.allclose(self.node_features, other.node_features, rtol=rtol)
            and np.array_equal(self.edge_index, other.edge_index)
            and np.allclose(self.y, other.y, rtol=rtol)
            and self.sample_id == other.sample_id
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AtomicGraph(id={self.sample_id}, nodes={self.n_nodes}, "
            f"edges={self.n_edges}, f={self.feature_dim}, out={self.output_dim})"
        )


@dataclass
class GraphStats:
    """Aggregate statistics of a dataset (drives Table 1 and GPU costing)."""

    n_graphs: int = 0
    n_nodes: int = 0
    n_edges: int = 0
    feature_dim: int = 0
    output_dim: int = 0
    total_bytes: int = 0
    min_nodes: int = field(default=2**62)
    max_nodes: int = 0

    def add(self, g: AtomicGraph) -> None:
        self.n_graphs += 1
        self.n_nodes += g.n_nodes
        self.n_edges += g.n_edges
        self.feature_dim = g.feature_dim
        self.output_dim = g.output_dim
        self.total_bytes += g.nbytes
        self.min_nodes = min(self.min_nodes, g.n_nodes)
        self.max_nodes = max(self.max_nodes, g.n_nodes)

    @property
    def mean_nodes(self) -> float:
        return self.n_nodes / self.n_graphs if self.n_graphs else 0.0

    @property
    def mean_edges(self) -> float:
        return self.n_edges / self.n_graphs if self.n_graphs else 0.0

    @property
    def mean_bytes(self) -> float:
        return self.total_bytes / self.n_graphs if self.n_graphs else 0.0
