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
chronological order, and return the chunk as one contiguous byte buffer of
packed samples plus the per-sample size table the registry is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Protocol, Sequence

import numpy as np

from ..graphs.datasets import GraphGenerator
from ..hardware import MachineSpec
from ..sim import Engine
from ..storage import SampleReader, decode_time, pack_graph

__all__ = ["PreloadResult", "DataSource", "ReaderSource", "GeneratorSource"]

# Yield back to the engine every this many per-sample reads, bounding how
# far one rank's analytic queue entries can run ahead of other ranks.
_YIELD_EVERY = 8


@dataclass
class PreloadResult:
    buffer: np.ndarray  # uint8, all packed samples back to back
    sizes: np.ndarray  # (n_local,) int64 per-sample byte sizes


class DataSource(Protocol):
    """A preload plugin: materialise packed samples for an index range."""

    n_samples: int

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

    def load_chunk(
        self, indices: Sequence[int], node_index: int, engine: Engine
    ) -> Generator:
        # The stored format already matches the in-memory layout, so the
        # preloader streams raw packed samples without a decode/re-encode
        # round trip (what the real DDStore's format plugins do).  Readers
        # exposing a bulk path (CFF) stream the whole contiguous chunk.
        indices = list(indices)
        bulk = getattr(self.reader, "read_chunk_raw", None)
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
    """Lay packed samples (any ``B``-format buffers) back to back: one copy
    each, into a buffer ``np.concatenate`` sizes up front — the physical
    PFS→DRAM copy, whose result the rank's window then owns."""
    sizes = np.fromiter((len(b) for b in blobs), dtype=np.int64, count=len(blobs))
    pieces = [np.frombuffer(b, dtype=np.uint8) for b in blobs]
    buffer = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.uint8)
    return PreloadResult(buffer=buffer, sizes=sizes)
