"""Data preloader: load one rank's chunk from a data source.

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
chronological order, and return the chunk as a :class:`~repro.mpi.Pieces`
table: one read-only piece per packed sample, each a view of the bytes the
source already holds, so ``np.diff(chunk.starts)`` is the per-sample size
table the registry is built from.  Nothing copies the pieces: the store's
window exposes the table as it is, so on the harness path the window views
the packed image and the host holds the dataset once.  Every replica of a
chunk shares the first replica's table.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Protocol, Sequence

from ..graphs.datasets import GraphGenerator
from ..hardware import MachineSpec
from ..mpi import Pieces
from ..sim import Engine
from ..storage import SampleReader, decode_time, pack_graph

__all__ = ["DataSource", "ReaderSource", "GeneratorSource"]

# Yield back to the engine every this many per-sample reads, bounding how
# far one rank's analytic queue entries can run ahead of other ranks.
_YIELD_EVERY = 8


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
        """Coroutine returning the chunk: a :class:`~repro.mpi.Pieces`
        table with one piece per sample of ``indices``."""
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
            return Pieces(blobs)
        blobs: list[bytes] = []
        for k, i in enumerate(indices):
            blob, t = self.reader.read_sample_raw(int(i), node_index, engine.now)
            blobs.append(blob)
            if (k + 1) % _YIELD_EVERY == 0 or k + 1 == len(indices):
                yield engine.timeout(max(0.0, t - engine.now))
        return Pieces(blobs)


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
        return Pieces(blobs)

