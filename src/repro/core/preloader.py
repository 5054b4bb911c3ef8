"""Data preloader: fill one rank's chunk buffer from a data source.

Paper §3.2, component 1: "reads data in various formats from a parallel
file system and loads it into the memory of deep learning applications.
DDStore provides plugins for reading different data formats."

Two plugins are provided:

* :class:`ReaderSource` — preload from PFF or CFF files through the timed
  virtual filesystem (what the paper's experiments do: the dataset already
  sits on GPFS/Lustre in some format),
* :class:`GeneratorSource` — synthesize samples directly in memory (the
  in-situ path used by unit tests and the Ising quick-start), charging
  only serialisation CPU time.

Both are coroutines: they yield simulation timeouts as the chunk streams
in, so shared-filesystem queueing stations observe every rank's reads in
chronological order, and return the chunk's packed samples as pieces (views
of the bytes the source already holds) plus the per-sample size table the
registry is built from.  :class:`PreloadResult` lays the pieces back to back
only when its ``buffer`` is first read — which
:meth:`~repro.core.store.DDStore.create` does for a chunk's first copy
alone: every replica of that chunk compares its pieces with the first copy
and shares it instead.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Protocol, Sequence

import numpy as np

from ..graphs.datasets import GraphGenerator
from ..hardware import MachineSpec
from ..sim import Engine
from ..storage import SampleReader, decode_time, pack_graph

__all__ = ["PreloadResult", "DataSource", "ReaderSource", "GeneratorSource"]

# Yield back to the engine every this many per-sample reads, bounding how
# far one rank's analytic queue entries can run ahead of other ranks.
_YIELD_EVERY = 8


class PreloadResult:
    """One rank's loaded chunk: its packed samples and their size table.

    ``sizes`` is the ``(n_local,)`` int64 per-sample byte table.  The bytes
    are ``pieces``, uint8 arrays whose concatenation is the chunk: views of
    bytes their source owns (VFS file, generated blob, an old store's
    window).  Reading ``buffer`` concatenates them once into a new buffer
    — the physical PFS→DRAM copy, which a store's window then owns.  A
    store reads ``buffer`` only for a chunk's first copy; replicas compare
    ``pieces`` with it and share it.
    """

    __slots__ = ("pieces", "sizes", "_buffer")

    def __init__(self, pieces: list, sizes: np.ndarray) -> None:
        self.pieces = pieces
        self.sizes = sizes
        self._buffer = None

    def adopt(self, buffer: np.ndarray) -> None:
        """Hold ``buffer`` — a copy of this chunk's bytes that a replica
        already owns — in place of the pieces, which are dropped."""
        self._buffer = buffer
        self.pieces = [buffer]

    @property
    def nbytes(self) -> int:
        return sum(int(p.nbytes) for p in self.pieces)

    @property
    def buffer(self) -> np.ndarray:
        """The chunk as one contiguous uint8 buffer (built once, here: one
        copy of each piece into a buffer ``np.concatenate`` sizes up front)."""
        if self._buffer is None:
            pieces = self.pieces
            self._buffer = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.uint8)
            self.pieces = [self._buffer]  # the source's views are no longer needed
        return self._buffer


class DataSource(Protocol):
    """A preload plugin: materialise packed samples for an index range.

    ``read_chunk_raw`` is the bulk reader of the files behind the source
    (:meth:`~repro.storage.CFFReader.read_chunk_raw`), which a store stages
    its NVMe tier from, or ``None`` for a source without one.
    """

    n_samples: int
    read_chunk_raw: Optional[Callable]

    def load_chunk(
        self, indices: Sequence[int], node_index: int, engine: Engine
    ) -> Generator:
        """Coroutine returning a :class:`PreloadResult`."""
        ...


class ReaderSource:
    """Preload through a timed PFF/CFF reader."""

    def __init__(self, reader: SampleReader) -> None:
        self.reader = reader
        self.n_samples = reader.n_samples
        self.read_chunk_raw = reader.read_chunk_raw

    def load_chunk(
        self, indices: Sequence[int], node_index: int, engine: Engine
    ) -> Generator:
        # The stored format already matches the in-memory layout, so the
        # preloader streams raw packed samples without a decode/re-encode
        # round trip (what the real DDStore's format plugins do).  Readers
        # with a bulk path (CFF) stream the whole contiguous chunk.
        indices = list(indices)
        bulk = self.read_chunk_raw
        if bulk is not None and indices and indices == list(range(indices[0], indices[-1] + 1)):
            blobs, t = bulk(indices[0], indices[-1] + 1, node_index, engine.now)
            yield engine.timeout(max(0.0, t - engine.now))
            return _pack_result(blobs)
        blobs: list[bytes] = []
        for k, i in enumerate(indices):
            blob, t = self.reader.read_sample_raw(int(i), node_index, engine.now)
            blobs.append(blob)
            if (k + 1) % _YIELD_EVERY == 0 or k + 1 == len(indices):
                yield engine.timeout(max(0.0, t - engine.now))
        return _pack_result(blobs)


class GeneratorSource:
    """Preload by direct synthesis (no filesystem involved)."""

    read_chunk_raw = None

    def __init__(self, generator: GraphGenerator, machine: MachineSpec) -> None:
        self.generator = generator
        self.machine = machine
        self.n_samples = len(generator)

    def load_chunk(
        self, indices: Sequence[int], node_index: int, engine: Engine
    ) -> Generator:
        blobs = [pack_graph(self.generator.make(int(i))) for i in indices]
        cpu = sum(decode_time(self.machine, len(b)) for b in blobs)
        yield engine.timeout(cpu)
        return _pack_result(blobs)


def _pack_result(blobs: list) -> PreloadResult:
    """The chunk of packed samples ``blobs`` (any ``B``-format buffers, which
    their source keeps owning): one piece per sample, nothing copied yet."""
    sizes = np.fromiter((len(b) for b in blobs), dtype=np.int64, count=len(blobs))
    return PreloadResult([np.frombuffer(b, dtype=np.uint8) for b in blobs], sizes)
