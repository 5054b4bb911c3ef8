"""PFF and CFF: the two baseline on-disk formats the paper compares against.

* **PFF (per-object file format)** — one file per sample (the "pickle"
  baseline): every access pays a metadata open plus a small read, and a
  million samples means a million files hammering the MDS.
* **CFF (containerized file format)** — ADIOS-like: samples are packed
  into a few large subfiles plus an index; training-time access is a
  random read inside a huge container, contended by every rank.

Both readers implement the :class:`SampleReader` interface consumed by the
training data loaders and the DDStore preloader, returning real graphs and
virtual-time completion stamps.  The fetch path's two host-CPU cost models
sit here too: :func:`decode_time` (per-sample deserialise) and
:func:`scatter_time` (the columnar path's strided copy into an arena).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..graphs import AtomicGraph
from ..hardware import MachineSpec
from ..sim.rng import BlockDraws, stream
from .serialization import peek_header, peek_headers, unpack_graph
from .vfs import VirtualFS

# I/O-library software path (pickle.load / ADIOS inquiry+get) jitter: the
# lognormal sigma of the observed call-time distribution.
_SOFTWARE_JITTER_SIGMA = 0.25

__all__ = [
    "SampleReader",
    "SampleStats",
    "decode_time",
    "scatter_time",
    "write_pff",
    "PFFReader",
    "write_cff",
    "CFFReader",
    "CFFIndex",
]


class SampleStats:
    """Header-only view of a packed sample (stats-mode pipelines).

    Carries exactly what the performance path needs — graph sizes for the
    GPU cost model and the byte count for CPU costing — without paying the
    wall-clock price of a full deserialisation.  Virtual-time charges are
    identical either way.  A plain record (demand calls build one per
    sample, so it skips a frozen dataclass's per-field ``__setattr__``);
    ``vars()`` of it is its fields.
    """

    _FIELDS = ("sample_id", "n_nodes", "n_edges", "feature_dim", "output_dim", "nbytes")

    def __init__(
        self, sample_id: int, n_nodes: int, n_edges: int, feature_dim: int, output_dim: int,
        nbytes: int,
    ) -> None:
        self.sample_id = sample_id
        self.n_nodes = n_nodes
        self.n_edges = n_edges
        self.feature_dim = feature_dim
        self.output_dim = output_dim
        self.nbytes = nbytes

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other) -> bool:
        if type(other) is not SampleStats:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"SampleStats({args})"

    @classmethod
    def from_blob(cls, blob) -> "SampleStats":
        return cls(*peek_header(blob), len(blob))

    @classmethod
    def from_blobs(cls, blobs) -> "list[SampleStats]":
        """``[from_blob(b) for b in blobs]``, every header parsed in one pass."""
        rec = peek_headers(blobs)
        return list(map(
            cls, *(rec[f].tolist() for f in ("sample_id", "n_nodes", "n_edges",
                                             "feature_dim", "output_dim")),
            map(len, blobs),
        ))


class SampleReader(Protocol):
    """Timed random access to one dataset's samples."""

    n_samples: int

    def read_sample(
        self, index: int, node_index: int, arrival: float
    ) -> tuple[AtomicGraph, float]:
        """Return (graph, virtual completion time incl. decode)."""
        ...

    def read_sample_raw(
        self, index: int, node_index: int, arrival: float
    ) -> "tuple[bytes | memoryview, float]":
        """Return (packed bytes — read-only, possibly a view of the stored
        copy — and the completion time without decode)."""
        ...

    def read_sample_stats(
        self, index: int, node_index: int, arrival: float
    ) -> "tuple[SampleStats, float]":
        """Same timing as read_sample, header-only wall work."""
        ...


def _software_jitter(kind: str, root: str) -> BlockDraws:
    """Per-read I/O-library jitter (mean 1) of one reader of ``root``."""
    return BlockDraws(
        stream(kind, root, "sw"), "lognormal",
        mean=-0.5 * _SOFTWARE_JITTER_SIGMA**2, sigma=_SOFTWARE_JITTER_SIGMA,
    )


def decode_time(machine: MachineSpec, nbytes: int) -> float:
    """CPU cost of deserialising one packed sample (pickle.loads analogue)."""
    return machine.pickle_load_base_s + nbytes * machine.pickle_load_s_per_byte


# Scatter cost model: one strided-copy pass per batch.  The base covers the
# vectorised offset computation; each segment pays a setup (bounds check +
# slice dispatch); bytes stream at intra-node memory bandwidth.
_SCATTER_BASE_S = 2.0e-5
_SCATTER_SEG_S = 3.0e-8


def scatter_time(machine: MachineSpec, nbytes: int, n_segments: int) -> float:
    """CPU cost of scattering ``nbytes`` over ``n_segments`` arena segments
    (the columnar fetch path's strided copy into a batch arena, which
    replaces per-sample decode)."""
    return (
        _SCATTER_BASE_S
        + _SCATTER_SEG_S * n_segments
        + nbytes / machine.intra_node_bandwidth_Bps
    )


# ---------------------------------------------------------------------------
# PFF
# ---------------------------------------------------------------------------


def _pff_path(root: str, index: int) -> str:
    return f"{root}/{index:09d}.pkl"  # zero-padded flat layout


def write_pff(vfs: VirtualFS, root: str, blobs: list) -> None:
    """Lay packed ``blobs`` out as a PFF dataset: one file per sample."""
    for i, blob in enumerate(blobs):
        vfs.create(_pff_path(root, i), blob)


@dataclass
class PFFReader:
    """Training-time PFF access: open + read + decode per sample."""

    vfs: VirtualFS
    root: str
    n_samples: int
    machine: MachineSpec

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("PFFReader needs at least one sample")
        probe = _pff_path(self.root, 0)
        if not self.vfs.exists(probe):
            raise FileNotFoundError(f"PFF dataset not found under {self.root!r}")
        self._sw_jitter = _software_jitter("pff-reader", self.root)

    def read_sample_raw(
        self, index: int, node_index: int, arrival: float
    ) -> tuple[memoryview, float]:
        """Timed open + read of the packed sample (decode not included)."""
        f, t_open = self.vfs.open_timed(_pff_path(self.root, index), arrival)
        data, timing = self.vfs.read_timed(f, node_index, 0, len(f.data), t_open)
        return data, timing.completion + self.machine.file_read_software_s * self._sw_jitter.draw()

    def read_sample(
        self, index: int, node_index: int, arrival: float
    ) -> tuple[AtomicGraph, float]:
        data, done = self.read_sample_raw(index, node_index, arrival)
        return unpack_graph(data), done + decode_time(self.machine, len(data))

    def read_sample_stats(
        self, index: int, node_index: int, arrival: float
    ) -> tuple[SampleStats, float]:
        """Same timing as :meth:`read_sample`, header-only wall-clock work."""
        data, done = self.read_sample_raw(index, node_index, arrival)
        return SampleStats.from_blob(data), done + decode_time(self.machine, len(data))


# ---------------------------------------------------------------------------
# CFF
# ---------------------------------------------------------------------------

_CFF_INDEX_HEADER = struct.Struct("<4sIQ")  # magic, n_subfiles, n_samples
_CFF_MAGIC = b"CFX1"


@dataclass
class CFFIndex:
    """Per-sample location table: (subfile, offset, size)."""

    subfile: np.ndarray  # (n,) int32
    offset: np.ndarray  # (n,) int64
    size: np.ndarray  # (n,) int64
    n_subfiles: int

    @property
    def n_samples(self) -> int:
        return int(self.subfile.size)

    def to_bytes(self) -> bytes:
        header = _CFF_INDEX_HEADER.pack(_CFF_MAGIC, self.n_subfiles, self.n_samples)
        return b"".join(
            (
                header,
                self.subfile.astype(np.int32).tobytes(),
                self.offset.astype(np.int64).tobytes(),
                self.size.astype(np.int64).tobytes(),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CFFIndex":
        magic, n_subfiles, n = _CFF_INDEX_HEADER.unpack_from(data, 0)
        if magic != _CFF_MAGIC:
            raise ValueError(f"bad CFF index magic {magic!r}")
        off = _CFF_INDEX_HEADER.size
        subfile = np.frombuffer(data, np.int32, n, off)
        off += 4 * n
        offset = np.frombuffer(data, np.int64, n, off)
        off += 8 * n
        size = np.frombuffer(data, np.int64, n, off)
        return cls(
            subfile=subfile.copy(), offset=offset.copy(), size=size.copy(), n_subfiles=n_subfiles
        )


def _cff_subfile_path(root: str, k: int) -> str:
    return f"{root}/data.{k}.bin"


def _cff_index_path(root: str) -> str:
    return f"{root}/index.bin"


def write_cff(
    vfs: VirtualFS, root: str, blobs: list, *, n_subfiles: int, logical_scale: float
) -> CFFIndex:
    """Lay packed ``blobs`` out as a CFF dataset: sample ``i`` goes to
    subfile ``i % n_subfiles`` (round-robin, like ADIOS aggregators), and
    each subfile is built by one join the file adopts.  ``logical_scale``
    makes a scaled-down container *time* like the paper's full-size one
    (see :mod:`repro.storage.vfs`)."""
    n = len(blobs)
    n_subfiles = max(1, min(n_subfiles, n))
    sizes = np.fromiter(map(len, blobs), np.int64, n)
    subfiles = (np.arange(n) % n_subfiles).astype(np.int32)
    offsets = np.empty(n, np.int64)
    for k in range(n_subfiles):
        offsets[k::n_subfiles] = np.cumsum(sizes[k::n_subfiles]) - sizes[k::n_subfiles]
        vfs.create(
            _cff_subfile_path(root, k), b"".join(blobs[k::n_subfiles]),
            logical_scale=logical_scale,
        )
    index = CFFIndex(subfile=subfiles, offset=offsets, size=sizes, n_subfiles=n_subfiles)
    vfs.create(_cff_index_path(root), index.to_bytes())
    return index


class CFFReader:
    """Training-time CFF access: random reads inside shared containers."""

    def __init__(self, vfs: VirtualFS, root: str, machine: MachineSpec) -> None:
        self.vfs = vfs
        self.root = root
        self.machine = machine
        index_file = vfs.stat(_cff_index_path(root))
        self.index = CFFIndex.from_bytes(index_file.data)
        self.n_samples = self.index.n_samples
        self._subfile_handles = [
            vfs.stat(_cff_subfile_path(root, k)) for k in range(self.index.n_subfiles)
        ]
        self._sw_jitter = _software_jitter("cff-reader", root)

    def load_index_timed(self, node_index: int, arrival: float) -> float:
        """Charge the one-time index load performed at startup."""
        _data, done = self.vfs.read_whole_timed(_cff_index_path(self.root), node_index, arrival)
        return done

    def read_sample_raw(
        self, index: int, node_index: int, arrival: float
    ) -> tuple[memoryview, float]:
        """Timed random read inside the container (decode not included)."""
        loc = self.index
        data, timing = self.vfs.read_timed(
            self._subfile_handles[loc.subfile.item(index)], node_index,
            loc.offset.item(index), loc.size.item(index), arrival,
        )
        return data, timing.completion + self.machine.file_read_software_s * self._sw_jitter.draw()

    def read_chunk_raw(
        self, lo: int, hi: int, node_index: int, arrival: float
    ) -> tuple[list[memoryview], float]:
        """Bulk sequential read of samples [lo, hi) — the preload fast path.

        Round-robin placement makes a contiguous id range occupy one
        contiguous byte span per subfile, so the whole chunk streams in
        ``n_subfiles`` large sequential reads instead of per-sample ones.
        Samples come back as read-only views of the subfiles themselves
        (no copy of a span, none per sample).
        """
        if not 0 <= lo <= hi <= self.n_samples:
            raise IndexError(f"chunk [{lo}, {hi}) out of range")
        blobs: dict[int, memoryview] = {}
        t = arrival
        ids = np.arange(lo, hi)
        for k in np.unique(self.index.subfile[lo:hi]) if hi > lo else []:
            sel = ids[self.index.subfile[lo:hi] == k]
            offs = self.index.offset[sel]
            sizes = self.index.size[sel]
            span_lo = int(offs.min())
            span_hi = int((offs + sizes).max())
            f = self._subfile_handles[int(k)]
            span, timing = self.vfs.read_timed(
                f, node_index, span_lo, span_hi - span_lo, t, sequential=True
            )
            t = timing.completion + self.machine.file_read_software_s * self._sw_jitter.draw()
            for i, off, size in zip(sel.tolist(), (offs - span_lo).tolist(), sizes.tolist()):
                blobs[i] = span[off : off + size]
        return [blobs[i] for i in range(lo, hi)], t

    def read_sample(
        self, index: int, node_index: int, arrival: float
    ) -> tuple[AtomicGraph, float]:
        data, done = self.read_sample_raw(index, node_index, arrival)
        return unpack_graph(data), done + decode_time(self.machine, len(data))

    def read_sample_stats(
        self, index: int, node_index: int, arrival: float
    ) -> tuple[SampleStats, float]:
        """Same timing as :meth:`read_sample`, header-only wall-clock work."""
        data, done = self.read_sample_raw(index, node_index, arrival)
        return SampleStats.from_blob(data), done + decode_time(self.machine, len(data))
