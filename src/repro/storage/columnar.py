"""AGRC v1: a structure-of-arrays (columnar) shard codec beside AGRF rows.

Where AGRF packs one graph per record (header + four field payloads), AGRC
packs *many* graphs per shard with each field stored as one contiguous
column — the read-optimised layout Atompack uses for atomistic training
data.  A shard is self-describing and versioned:

    magic       4s   b"AGRC"
    version     u16
    flags       u16  (reserved)
    n_samples   u32
    f_dim       u32
    y_dim       u32
    4 x field descriptor:
        field   16s  zero-padded ascii field name
        codec   16s  zero-padded ascii codec name (always ``raw``)
        enc     u64  encoded payload bytes
        raw     u64  raw payload bytes
    sample_id   i64[n_samples]
    n_nodes     u32[n_samples]
    n_edges     u32[n_samples]
    positions    column payload   (raw: f32[N_total * 3])
    node_features column payload  (raw: f32[N_total * f_dim])
    edge_index   column payload   (raw: i32[2 * E_total], per-sample local
                                   indices, stored as two planes)
    y            column payload   (raw: f32[n_samples * y_dim])

Every column is stored ``raw``: the descriptor keeps a codec-name slot,
and a shard naming any other codec is refused on unpack.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..graphs import AtomicGraph
from .serialization import _HEADER as _ROW_HEADER
from .serialization import CodecError, _as_memoryview

__all__ = [
    "MAGIC",
    "VERSION",
    "FIELDS",
    "ColumnarShard",
    "pack_shard",
    "pack_columns",
    "unpack_shard",
    "peek_shard_header",
    "shard_packed_size",
    "row_field_layout",
]

MAGIC = b"AGRC"
VERSION = 1
_SHARD_HEADER = struct.Struct("<4sHHIII")  # magic, version, flags, n, f_dim, y_dim
_FIELD_DESC = struct.Struct("<16s16sQQ")  # field name, codec name, enc bytes, raw bytes

#: Column order inside a shard, and field ids used by the arena scatter maps.
FIELDS = ("positions", "node_features", "edge_index", "y")

_FIELD_DTYPE = {
    "positions": np.float32,
    "node_features": np.float32,
    "edge_index": np.int32,
    "y": np.float32,
}

# ---------------------------------------------------------------------------
# shard size / layout helpers
# ---------------------------------------------------------------------------


def shard_packed_size(
    n_samples: int,
    n_nodes_total: int,
    n_edges_total: int,
    feature_dim: int,
    output_dim: int,
) -> int:
    """Exact byte size of a shard."""
    return (
        _SHARD_HEADER.size
        + len(FIELDS) * _FIELD_DESC.size
        + 16 * n_samples  # i64 sample_id + u32 n_nodes + u32 n_edges
        + 4 * (n_nodes_total * 3)
        + 4 * (n_nodes_total * feature_dim)
        + 4 * (2 * n_edges_total)
        + 4 * (n_samples * output_dim)
    )


def row_field_layout(
    n_nodes: int, n_edges: int, feature_dim: int, output_dim: int
) -> dict[str, tuple[int, int]]:
    """Byte span of each field inside one packed AGRF *row* record
    (the arena planner computes the same spans for a whole batch at once,
    in :meth:`~repro.dataplane.planner.FetchPlanner.plan_arena`)."""
    lo = _ROW_HEADER.size
    spans: dict[str, tuple[int, int]] = {}
    for name, nbytes in (
        ("positions", 4 * n_nodes * 3),
        ("node_features", 4 * n_nodes * feature_dim),
        ("edge_index", 4 * 2 * n_edges),
        ("y", 4 * output_dim),
    ):
        spans[name] = (lo, lo + nbytes)
        lo += nbytes
    return spans


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------


def pack_columns(
    sample_ids: np.ndarray,
    n_nodes: np.ndarray,
    n_edges: np.ndarray,
    positions: np.ndarray,
    node_features: np.ndarray,
    edge_index: np.ndarray,
    y: np.ndarray,
) -> bytes:
    """Serialise already-concatenated columns into one AGRC shard.

    ``edge_index`` is ``(2, E_total)`` with per-sample *local* node indices
    (no batch shift baked in), so samples slice out independently.
    """
    sample_ids = np.asarray(sample_ids, np.int64)
    n_nodes = np.asarray(n_nodes, np.uint32)
    n_edges = np.asarray(n_edges, np.uint32)
    n = int(sample_ids.size)
    if not (n_nodes.size == n and n_edges.size == n):
        raise CodecError("sample_ids/n_nodes/n_edges length mismatch")
    positions = np.asarray(positions, np.float32).reshape(-1, 3)
    node_features = np.asarray(node_features, np.float32)
    edge_index = np.asarray(edge_index, np.int32).reshape(2, -1)
    y = np.asarray(y, np.float32)
    total_nodes = int(n_nodes.sum())
    total_edges = int(n_edges.sum())
    f_dim = int(node_features.shape[1]) if node_features.ndim == 2 else 0
    node_features = node_features.reshape(total_nodes, f_dim)
    y_dim = int(y.shape[1]) if y.ndim == 2 else 0
    y = y.reshape(n, y_dim)
    if positions.shape[0] != total_nodes:
        raise CodecError(f"positions rows {positions.shape[0]} != total nodes {total_nodes}")
    if edge_index.shape[1] != total_edges:
        raise CodecError(f"edge_index cols {edge_index.shape[1]} != total edges {total_edges}")

    payloads = [
        np.ascontiguousarray(positions).tobytes(),
        np.ascontiguousarray(node_features).tobytes(),
        np.ascontiguousarray(edge_index).tobytes(),
        np.ascontiguousarray(y).tobytes(),
    ]
    parts = [_SHARD_HEADER.pack(MAGIC, VERSION, 0, n, f_dim, y_dim)]
    for name, raw in zip(FIELDS, payloads):
        parts.append(_FIELD_DESC.pack(name.encode("ascii"), b"raw", len(raw), len(raw)))
    parts.append(sample_ids.tobytes())
    parts.append(n_nodes.tobytes())
    parts.append(n_edges.tobytes())
    parts.extend(payloads)
    return b"".join(parts)


def pack_shard(graphs: Sequence[AtomicGraph] | Iterable[AtomicGraph]) -> bytes:
    """Serialise a sequence of graphs into one columnar shard."""
    graphs = list(graphs)
    if not graphs:
        raise CodecError("cannot pack an empty shard")
    f_dim = graphs[0].feature_dim
    y_dim = graphs[0].output_dim
    for g in graphs:
        if g.feature_dim != f_dim or g.output_dim != y_dim:
            raise CodecError("all graphs in a shard must share feature/output dims")
    n_nodes = np.fromiter((g.n_nodes for g in graphs), np.uint32, len(graphs))
    n_edges = np.fromiter((g.n_edges for g in graphs), np.uint32, len(graphs))
    return pack_columns(
        np.fromiter((g.sample_id for g in graphs), np.int64, len(graphs)),
        n_nodes,
        n_edges,
        np.concatenate([g.positions for g in graphs], axis=0)
        if graphs
        else np.zeros((0, 3), np.float32),
        np.concatenate([g.node_features for g in graphs], axis=0),
        np.concatenate([g.edge_index for g in graphs], axis=1)
        if int(n_edges.sum())
        else np.zeros((2, 0), np.int32),
        np.stack([g.y for g in graphs], axis=0),
    )


def peek_shard_header(buf) -> tuple[int, int, int]:
    """Return (n_samples, feature_dim, output_dim) of a packed shard."""
    mv = _as_memoryview(buf)
    if len(mv) < _SHARD_HEADER.size:
        raise CodecError(f"buffer too small for shard header: {len(mv)} bytes")
    magic, version, _flags, n, f_dim, y_dim = _SHARD_HEADER.unpack_from(mv, 0)
    if magic != MAGIC:
        raise CodecError(f"bad shard magic {magic!r}")
    if version != VERSION:
        raise CodecError(f"unsupported shard version {version}")
    return n, f_dim, y_dim


@dataclass
class ColumnarShard:
    """Decoded SoA view of one AGRC shard."""

    sample_ids: np.ndarray  # (n,) i64
    n_nodes: np.ndarray  # (n,) u32
    n_edges: np.ndarray  # (n,) u32
    feature_dim: int
    output_dim: int
    positions: np.ndarray  # (N_total, 3) f32
    node_features: np.ndarray  # (N_total, f) f32
    edge_index: np.ndarray  # (2, E_total) i32, per-sample local indices
    y: np.ndarray  # (n, y) f32

    @property
    def n_samples(self) -> int:
        return int(self.sample_ids.size)

    @property
    def node_ptr(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.n_nodes.astype(np.int64))))

    @property
    def edge_ptr(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.n_edges.astype(np.int64))))

    def graph(self, i: int) -> AtomicGraph:
        nptr, eptr = self.node_ptr, self.edge_ptr
        return AtomicGraph(
            positions=self.positions[nptr[i] : nptr[i + 1]].copy(),
            node_features=self.node_features[nptr[i] : nptr[i + 1]].copy(),
            edge_index=self.edge_index[:, eptr[i] : eptr[i + 1]].copy(),
            y=self.y[i].copy(),
            sample_id=int(self.sample_ids[i]),
        )

    def graphs(self) -> list[AtomicGraph]:
        return [self.graph(i) for i in range(self.n_samples)]


def unpack_shard(buf) -> ColumnarShard:
    """Deserialise an AGRC shard; validates magic, descriptors, and sizes."""
    mv = _as_memoryview(buf)
    n, f_dim, y_dim = peek_shard_header(mv)
    off = _SHARD_HEADER.size
    descs: list[tuple[str, str, int, int]] = []
    for _ in FIELDS:
        if len(mv) < off + _FIELD_DESC.size:
            raise CodecError("truncated shard: missing field descriptor")
        fname, cname, enc_nbytes, raw_nbytes = _FIELD_DESC.unpack_from(mv, off)
        descs.append(
            (
                fname.rstrip(b"\x00").decode("ascii"),
                cname.rstrip(b"\x00").decode("ascii"),
                enc_nbytes,
                raw_nbytes,
            )
        )
        off += _FIELD_DESC.size
    if tuple(d[0] for d in descs) != FIELDS:
        raise CodecError(f"unexpected field order {[d[0] for d in descs]}")

    def take(count: int, dtype) -> np.ndarray:
        nonlocal off
        arr = np.frombuffer(mv, dtype=dtype, count=count, offset=off)
        off += arr.nbytes
        return arr

    sample_ids = take(n, np.int64).copy()
    n_nodes = take(n, np.uint32).copy()
    n_edges = take(n, np.uint32).copy()
    total_nodes = int(n_nodes.sum())
    total_edges = int(n_edges.sum())
    expected_raw = {
        "positions": 4 * total_nodes * 3,
        "node_features": 4 * total_nodes * f_dim,
        "edge_index": 4 * 2 * total_edges,
        "y": 4 * n * y_dim,
    }
    columns: dict[str, np.ndarray] = {}
    for fname, cname, enc_nbytes, raw_nbytes in descs:
        if cname != "raw":
            raise CodecError(f"field {fname!r}: unknown codec {cname!r}; columns are raw")
        if not enc_nbytes == raw_nbytes == expected_raw[fname]:
            raise CodecError(
                f"field {fname!r}: descriptor says {enc_nbytes}/{raw_nbytes} bytes, "
                f"shapes imply {expected_raw[fname]}"
            )
        if len(mv) < off + raw_nbytes:
            raise CodecError(f"truncated shard: field {fname!r} payload")
        columns[fname] = np.frombuffer(bytes(mv[off : off + raw_nbytes]), _FIELD_DTYPE[fname])
        off += raw_nbytes
    return ColumnarShard(
        sample_ids=sample_ids,
        n_nodes=n_nodes,
        n_edges=n_edges,
        feature_dim=f_dim,
        output_dim=y_dim,
        positions=columns["positions"].reshape(total_nodes, 3),
        node_features=columns["node_features"].reshape(total_nodes, f_dim),
        edge_index=columns["edge_index"].reshape(2, total_edges),
        y=columns["y"].reshape(n, y_dim),
    )
