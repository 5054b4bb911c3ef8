"""Binary codec for :class:`~repro.graphs.AtomicGraph` samples.

A compact, self-describing, versioned format (stand-in for Python pickle
in PFF and for ADIOS variable blocks in CFF).  Layout, little-endian:

    magic   4s   b"AGRF"
    version u16
    flags   u16  (reserved)
    id      i64  sample_id
    n_nodes u32
    n_edges u32
    f_dim   u32
    y_dim   u32
    positions   f32[n_nodes * 3]
    features    f32[n_nodes * f_dim]
    edge_index  i32[2 * n_edges]
    y           f32[y_dim]

All readers accept ``bytes``/``memoryview``/``np.uint8`` buffers, so RMA
payloads decode without extra copies.
"""

from __future__ import annotations

import struct

import numpy as np

from ..graphs import AtomicGraph
from ..graphs.graph import field_nbytes

__all__ = [
    "pack_graph",
    "unpack_graph",
    "packed_size",
    "peek_header",
    "peek_headers",
    "CodecError",
    "HEADER_NBYTES",
]

MAGIC = b"AGRF"
VERSION = 1
# The one AGRF header layout, (field, struct code) in order: read per blob
# through ``_HEADER`` and per batch through ``_HEADER_DTYPE``.
_HEADER_FIELDS = (
    ("magic", "4s"), ("version", "H"), ("flags", "H"), ("sample_id", "q"),
    ("n_nodes", "I"), ("n_edges", "I"), ("feature_dim", "I"), ("output_dim", "I"),
)
_HEADER = struct.Struct("<" + "".join(code for _, code in _HEADER_FIELDS))
_HEADER_DTYPE = np.dtype(
    [(name, "S4" if code == "4s" else "<" + code) for name, code in _HEADER_FIELDS]
)
assert _HEADER_DTYPE.itemsize == _HEADER.size
#: Size of the AGRF record header every packed row starts with — the one
#: owner of that number (column payloads are rows with it stripped).
HEADER_NBYTES = _HEADER.size


class CodecError(ValueError):
    """Raised when a buffer does not contain a valid packed graph."""


def packed_size(n_nodes: int, n_edges: int, feature_dim: int, output_dim: int) -> int:
    """Exact byte size of a packed graph with the given shape."""
    return _HEADER.size + sum(field_nbytes(n_nodes, n_edges, feature_dim, output_dim))


def pack_graph(graph: AtomicGraph) -> bytes:
    """Serialise a graph to bytes."""
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        0,
        graph.sample_id,
        graph.n_nodes,
        graph.n_edges,
        graph.feature_dim,
        graph.output_dim,
    )
    return b"".join(
        (
            header,
            graph.positions.tobytes(),
            graph.node_features.tobytes(),
            graph.edge_index.tobytes(),
            graph.y.tobytes(),
        )
    )


def peek_header(buf) -> tuple[int, int, int, int, int]:
    """Return (sample_id, n_nodes, n_edges, feature_dim, output_dim).

    Unpacks straight from ``buf`` (any C-contiguous buffer): no view or
    copy is made."""
    try:
        magic, version, _flags, sid, n_nodes, n_edges, f_dim, y_dim = _HEADER.unpack_from(buf)
    except (struct.error, ValueError, BufferError):
        mv = _as_memoryview(buf)  # a non-contiguous ndarray raises here
        raise CodecError(f"buffer too small for header: {len(mv)} bytes") from None
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CodecError(f"unsupported codec version {version}")
    return sid, n_nodes, n_edges, f_dim, y_dim


def peek_headers(bufs) -> np.ndarray:
    """The headers of many packed graphs in one pass: one structured record
    per buffer (fields as in the layout above), from one view of their
    concatenated ``HEADER_NBYTES`` prefixes.  Raises what
    :func:`peek_header` raises for the first bad buffer."""
    heads = b"".join([b[:HEADER_NBYTES] for b in bufs])
    if len(heads) == len(bufs) * HEADER_NBYTES:
        rec = np.frombuffer(heads, _HEADER_DTYPE)
        if ((rec["magic"] == MAGIC) & (rec["version"] == VERSION)).all():
            return rec
    for buf in bufs:
        peek_header(buf)
    raise AssertionError("unreachable: some header failed the batch check")


def unpack_graph(buf, copy: bool = True) -> AtomicGraph:
    """Deserialise a packed graph; validates sizes and magic.

    ``copy=False`` returns *read-only views* into ``buf`` instead of fresh
    arrays: no per-field allocation, but the graph is only valid while the
    underlying buffer is, and its arrays cannot be written.  Callers that
    own the buffer for the graph's lifetime (the arena fast path, one-shot
    inspection) use this to skip four allocations per sample.
    """
    mv = _as_memoryview(buf)
    sid, n_nodes, n_edges, f_dim, y_dim = peek_header(mv)
    expected = packed_size(n_nodes, n_edges, f_dim, y_dim)
    if len(mv) < expected:
        raise CodecError(f"truncated graph: {len(mv)} < {expected} bytes")
    off = _HEADER.size

    def take(count: int, dtype) -> np.ndarray:
        nonlocal off
        nbytes = count * 4
        arr = np.frombuffer(mv, dtype=dtype, count=count, offset=off)
        off += nbytes
        return arr

    positions = take(n_nodes * 3, np.float32).reshape(n_nodes, 3)
    features = take(n_nodes * f_dim, np.float32).reshape(n_nodes, f_dim)
    edge_index = take(2 * n_edges, np.int32).reshape(2, n_edges)
    y = take(y_dim, np.float32)
    if copy:
        positions = positions.copy()
        features = features.copy()
        edge_index = edge_index.copy()
        y = y.copy()
    else:
        for arr in (positions, features, edge_index, y):
            arr.flags.writeable = False
    return AtomicGraph(
        positions=positions,
        node_features=features,
        edge_index=edge_index,
        y=y,
        sample_id=sid,
    )


def _as_memoryview(buf) -> memoryview:
    if isinstance(buf, np.ndarray):
        if not buf.flags.c_contiguous:
            raise CodecError(
                "non-contiguous ndarray buffer: making it contiguous would "
                "allocate a hidden copy behind the caller's back, defeating "
                "the codec's zero-copy contract — pass a C-contiguous array"
            )
        return memoryview(buf.view(np.uint8)).cast("B")
    return memoryview(buf).cast("B")
