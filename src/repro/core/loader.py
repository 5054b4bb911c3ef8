"""Dataset/DataLoader layer: the ``torch.utils.data`` face of the system.

The paper integrates DDStore into PyTorch by subclassing
``torch.utils.data.Dataset`` so the stock ``DataLoader`` drives it.  We
mirror that architecture: a :class:`SimDataset` answers index fetches (in
virtual time, as a coroutine), and :class:`DataLoader` runs the sampler,
fetch, and collation pipeline while timing each phase — the numbers Fig 5
("CPU-Loading" vs "CPU-Batching") breaks out.

Three dataset backends cover the paper's comparison matrix:

* :class:`DDStoreDataset` — fetch through the distributed store,
* :class:`FileDataset` — fetch straight from PFF or CFF files every
  access (the baselines), and
* both deliver identical graphs, which the integration tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Protocol, Sequence

import numpy as np

from ..graphs import ArenaPool, AtomicGraph, GraphBatch, collate
from ..mpi import RankContext
from ..storage import SampleReader, SampleStats
from .sampler import (
    GlobalShuffleSampler,
    LocalShuffleSampler,
    SampledShuffleSampler,
    iter_batches,
)
from .store import DDStore

__all__ = [
    "FetchResult",
    "SimDataset",
    "DDStoreDataset",
    "FileDataset",
    "BatchStats",
    "LoadedBatch",
    "DataLoader",
]


@dataclass(frozen=True)
class BatchStats:
    """Collated-batch shape summary (stats-mode stand-in for GraphBatch)."""

    n_graphs: int
    n_nodes: int
    n_edges: int
    nbytes: int

    @classmethod
    def from_samples(cls, samples: Sequence[SampleStats]) -> "BatchStats":
        return cls(
            n_graphs=len(samples),
            n_nodes=sum(s.n_nodes for s in samples),
            n_edges=sum(s.n_edges for s in samples),
            nbytes=sum(s.nbytes for s in samples),
        )

# Collation is a NumPy concatenate pass over the batch payload: cheaper
# than deserialisation but still linear in bytes.
_BATCHING_BASE_S = 2.0e-5
_BATCHING_S_PER_BYTE = 1.1e-10


@dataclass
class FetchResult:
    graphs: list[AtomicGraph]
    per_sample_latency: np.ndarray  # seconds, one entry per requested sample
    load_time: float  # wall (virtual) duration of the whole fetch


class SimDataset(Protocol):
    """Index-addressable dataset living in simulation time."""

    n_samples: int

    def fetch(self, indices: Sequence[int]) -> Generator:
        """Coroutine returning a :class:`FetchResult`."""
        ...


class DDStoreDataset:
    """Paper path: samples come out of the distributed in-memory store.

    ``n_workers`` models the PyTorch DataLoader worker threads issuing the
    fetch: RMA gets go out on that many concurrent streams and CPU-side
    decode work divides across them.
    """

    def __init__(self, store: DDStore, stats_only: bool = False, n_workers: int = 1) -> None:
        self.store = store
        self.stats_only = stats_only
        self.n_workers = max(1, n_workers)
        self.n_samples = store.n_samples
        # Columnar data plane: batches assemble in pooled arenas instead of
        # per-sample graphs (zero-copy scatter path).
        self.columnar = store.config.dataplane.columnar
        self.arena_pool: Optional[ArenaPool] = ArenaPool() if self.columnar else None

    def estimate_nbytes(self, indices: Sequence[int]) -> int:
        """Packed-payload bytes of a batch (registry lookup; no simulation
        time) — the scheduler's wave-cut and carried-launch meter."""
        return self.store.batch_nbytes(indices)

    def prefetch(
        self, batch_indices: Sequence[Sequence[int]], window=None
    ) -> Generator:
        """Coroutine: wave-prefetch upcoming batches into the store cache.

        ``window`` (a :class:`~repro.dataplane.scheduler.WaveWindow`) names
        the wave — its epoch and batch span — which is what makes it
        node-aggregatable under ``node_fetch``; ``None`` is an anonymous
        per-rank wave.
        """
        fetched = yield from self.store.prefetch_wave(
            batch_indices, n_workers=self.n_workers, window=window
        )
        return fetched

    def arena_hint(self, indices: Sequence[int]) -> tuple[int, int, int, int, int]:
        """``(n_graphs, n_nodes, n_edges, f_dim, y_dim)`` of a batch, from
        the replicated shape index — used to pre-size pooled arenas."""
        shapes = self.store.registry.shapes
        idx = np.asarray(list(indices), dtype=np.int64)
        _, nn, ne = self.store.registry.shape_batch(idx)
        return (
            int(idx.size),
            int(nn.sum()),
            int(ne.sum()),
            shapes.feature_dim,
            shapes.output_dim,
        )

    def fetch_arena(self, indices: Sequence[int]) -> Generator:
        """Coroutine: columnar fetch of one batch into a pooled arena.

        Returns ``(arena, FetchResult)`` — the result carries timings only
        (``graphs`` stays empty; the batch lives in the arena).  The caller
        owns the arena until it hands it back to ``arena_pool``.
        """
        engine = self.store.comm.engine
        t0 = engine.now
        arena = self.arena_pool.acquire()
        lat = yield from self.store.get_batch_arena(
            indices, arena, n_workers=self.n_workers
        )
        return arena, FetchResult(graphs=[], per_sample_latency=lat, load_time=engine.now - t0)

    def fetch(self, indices: Sequence[int]) -> Generator:
        """Coroutine: fetch one batch through ``get_samples``.

        The per-sample latencies are this call's own entry,
        ``stats.latencies[-1]``, even with depth-k loads in flight (see
        ``_Call.finish_demand``).  An empty batch makes no call.
        """
        engine = self.store.comm.engine
        t0 = engine.now
        graphs = yield from self.store.get_samples(
            indices, decode=not self.stats_only, n_workers=self.n_workers
        )
        lat = self.store.stats.latencies[-1] if graphs else np.zeros(0, dtype=np.float64)
        return FetchResult(graphs=graphs, per_sample_latency=lat, load_time=engine.now - t0)


class FileDataset:
    """Baseline path: every access goes to the filesystem (PFF or CFF).

    ``n_workers`` loader threads each run their own chain of sequential
    reads, concurrently (round-robin request dealing, like PyTorch's
    DataLoader workers).
    """

    def __init__(
        self,
        reader: SampleReader,
        ctx: RankContext,
        stats_only: bool = False,
        n_workers: int = 1,
    ) -> None:
        self.reader = reader
        self.ctx = ctx
        self.stats_only = stats_only
        self.n_workers = max(1, n_workers)
        self.node_index = ctx.node_index
        self.n_samples = reader.n_samples

    def _read_chain(self, indices, positions, graphs, lats) -> Generator:
        # One worker: sequential reads, yielding between them so shared-PFS
        # queueing stations see every rank's operations in chronological
        # order (pricing a whole chain at one instant would serialise
        # entire batches behind each other).
        engine = self.ctx.engine
        read = self.reader.read_sample_stats if self.stats_only else self.reader.read_sample
        for pos, i in zip(positions, indices):
            t = engine.now
            graph, done = read(int(i), self.node_index, t)
            lats[pos] = done - t
            graphs[pos] = graph
            yield engine.timeout(max(0.0, done - t))

    def fetch(self, indices: Sequence[int]) -> Generator:
        engine = self.ctx.engine
        t_start = engine.now
        n = len(indices)
        graphs: list = [None] * n
        lats = np.empty(n, dtype=np.float64)
        W = min(self.n_workers, max(n, 1))
        if W <= 1:
            yield from self._read_chain(indices, range(n), graphs, lats)
        else:
            workers = [
                engine.process(
                    self._read_chain(
                        [indices[p] for p in range(s, n, W)],
                        range(s, n, W),
                        graphs,
                        lats,
                    ),
                    name=f"loader-worker{s}",
                )
                for s in range(W)
            ]
            yield engine.all_of(workers)
        return FetchResult(
            graphs=graphs, per_sample_latency=lats, load_time=engine.now - t_start
        )


class LoadedBatch:
    """One training step's input plus its loading-phase timings.

    Arena-backed batches carry a ``release`` callback that recycles the
    arena into its pool; the trainer calls it once compute has consumed
    the batch.  Row-path batches own their arrays and release is a no-op.
    """

    def __init__(
        self,
        batch: GraphBatch,
        load_time: float,
        batching_time: float,
        per_sample_latency: np.ndarray,
        release=None,
    ) -> None:
        self.batch = batch
        self.load_time = load_time
        self.batching_time = batching_time
        self.per_sample_latency = per_sample_latency
        self._release = release

    def release(self) -> None:
        """Recycle the underlying arena (idempotent; no-op off-arena)."""
        cb, self._release = self._release, None
        if cb is not None:
            cb()


class DataLoader:
    """Sampler + fetch + collate pipeline with per-phase virtual timing."""

    def __init__(
        self,
        dataset: SimDataset,
        ctx: RankContext,
        *,
        batch_size: int,
        shuffle: str = "global",
        seed: int = 0,
        drop_last: bool = True,
        steps_per_epoch: Optional[int] = None,
    ) -> None:
        if shuffle not in ("global", "local", "sampled"):
            raise ValueError(
                f"shuffle must be 'global', 'local', or 'sampled', got {shuffle!r}"
            )
        self.dataset = dataset
        self.ctx = ctx
        self.batch_size = batch_size
        self.drop_last = drop_last
        self.steps_per_epoch = steps_per_epoch
        self._sampler_cls = {
            "global": GlobalShuffleSampler,
            "local": LocalShuffleSampler,
            "sampled": SampledShuffleSampler,
        }[shuffle]
        self._seed = seed
        self.sampler = self._sampler_cls(
            dataset.n_samples, ctx.size, ctx.rank, seed=seed
        )

    def dataplane_options(self):
        """The store's :class:`~repro.core.config.DataPlaneOptions`, or
        ``None`` for backends without a store (file baselines) — how the
        trainer discovers its prefetch depth/budget/scheduler knobs."""
        store = getattr(self.dataset, "store", None)
        return store.config.dataplane if store is not None else None

    def sample_cache(self):
        """The store's hot-sample cache (``None`` without a store)."""
        store = getattr(self.dataset, "store", None)
        return store.cache if store is not None else None

    def n_steps(self) -> int:
        full = self.sampler.per_rank // self.batch_size
        if not self.drop_last and self.sampler.per_rank % self.batch_size:
            full += 1
        return min(full, self.steps_per_epoch) if self.steps_per_epoch else full

    def epoch_batches(self, epoch: int) -> list[np.ndarray]:
        batches = list(
            iter_batches(
                self.sampler.epoch_indices(epoch), self.batch_size, self.drop_last
            )
        )
        if self.steps_per_epoch is not None:
            batches = batches[: self.steps_per_epoch]
        return batches

    def peer_epoch_batches(self, epoch: int, peer_rank: int) -> list[np.ndarray]:
        """A *peer* rank's batches for an epoch, recomputed locally.

        Every sampler is a pure function of ``(seed, epoch, rank)``, so
        this costs no communication — the determinism node-scope fetch
        aggregation builds on (each rank reconstructs its node peers'
        wave plans from this oracle).
        """
        if peer_rank == self.ctx.rank:
            return self.epoch_batches(epoch)
        peer = self._sampler_cls(
            self.dataset.n_samples, self.ctx.size, peer_rank, seed=self._seed
        )
        batches = list(
            iter_batches(peer.epoch_indices(epoch), self.batch_size, self.drop_last)
        )
        if self.steps_per_epoch is not None:
            batches = batches[: self.steps_per_epoch]
        return batches

    def load(self, indices: np.ndarray) -> Generator:
        """Coroutine: fetch + collate one batch; returns :class:`LoadedBatch`."""
        engine = self.ctx.engine
        if getattr(self.dataset, "columnar", False):
            # Columnar fast path: the batch was assembled field-wise in the
            # arena during the fetch, so "batching" is just the view wrap —
            # the per-byte concatenate term disappears (it was paid, more
            # cheaply, inside the scatter stage).
            arena, result = yield from self.dataset.fetch_arena(indices)
            t0 = engine.now
            if getattr(self.dataset, "stats_only", False):
                batch = BatchStats(
                    n_graphs=int(arena.node_counts.size),
                    n_nodes=int(arena.ptr[-1]),
                    n_edges=int(arena.edge_ptr[-1]),
                    nbytes=self.dataset.estimate_nbytes(indices),
                )
            else:
                batch = collate(arena=arena)
            yield engine.timeout(_BATCHING_BASE_S)
            pool = self.dataset.arena_pool
            return LoadedBatch(
                batch=batch,
                load_time=result.load_time,
                batching_time=engine.now - t0,
                per_sample_latency=result.per_sample_latency,
                release=lambda: pool.release(arena),
            )
        result = yield from self.dataset.fetch(indices)
        t0 = engine.now
        if getattr(self.dataset, "stats_only", False):
            batch = BatchStats.from_samples(result.graphs)
        else:
            batch = collate(result.graphs)
        payload_bytes = sum(g.nbytes for g in result.graphs)
        batching = _BATCHING_BASE_S + payload_bytes * _BATCHING_S_PER_BYTE
        yield engine.timeout(batching)
        return LoadedBatch(
            batch=batch,
            load_time=result.load_time,
            batching_time=engine.now - t0,
            per_sample_latency=result.per_sample_latency,
        )
