"""Tests for stats-mode datasets, preloader plugins, and loader parity.

The performance sweeps run with ``stats_only=True`` (no real decode or
collate); these tests pin the key invariant: *virtual time is identical
in both modes* — only wall-clock work differs.
"""

import numpy as np
import pytest

from repro.core import (
    BatchStats,
    DataLoader,
    DDStore,
    DDStoreDataset,
    FileDataset,
    GeneratorSource,
    ReaderSource,
)
from repro.graphs import IsingGenerator, MoleculeGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world
from repro.storage import (
    CFFReader, CodecError, PFFReader, SampleStats, pack_graph, write_cff, write_pff,
)

from .conftest import pack_all


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


# ---------------------------------------------------------------------------
# SampleStats / BatchStats
# ---------------------------------------------------------------------------

def test_sample_stats_from_blob_matches_graph():
    g = MoleculeGenerator(3, seed=0).make(1)
    s = SampleStats.from_blob(pack_graph(g))
    assert (s.sample_id, s.n_nodes, s.n_edges) == (1, g.n_nodes, g.n_edges)
    assert s.feature_dim == g.feature_dim
    assert s.output_dim == g.output_dim
    assert s.nbytes == len(pack_graph(g))


def test_sample_stats_from_blobs_is_from_blob_per_blob():
    gen = MoleculeGenerator(5, seed=0)
    blobs = [np.frombuffer(pack_graph(gen.make(i)), np.uint8) for i in range(5)]
    blobs.append(memoryview(pack_graph(gen.make(0))))
    got = SampleStats.from_blobs(blobs)
    assert got == [SampleStats.from_blob(b) for b in blobs]
    assert all(type(v) is int for s in got for v in vars(s).values())
    assert SampleStats.from_blobs([]) == []


@pytest.mark.parametrize("bad,match", [
    (b"NOPE" + bytes(60), "bad magic"),
    (b"AGRF\x02\x00" + bytes(58), "version 2"),
    (b"AGRF", "too small for header: 4 bytes"),
])
def test_sample_stats_from_blobs_raises_like_from_blob(bad, match):
    good = pack_graph(IsingGenerator(1).make(0))
    with pytest.raises(CodecError, match=match):
        SampleStats.from_blob(bad)
    with pytest.raises(CodecError, match=match):
        SampleStats.from_blobs([good, bad, b"NOPE" + bytes(60)])


def test_batch_stats_aggregates():
    gen = IsingGenerator(4, seed=0)
    samples = [SampleStats.from_blob(pack_graph(gen.make(i))) for i in range(4)]
    b = BatchStats.from_samples(samples)
    assert b.n_graphs == 4
    assert b.n_nodes == 4 * 125
    assert b.n_edges == 4 * 600
    assert b.nbytes == sum(s.nbytes for s in samples)


# ---------------------------------------------------------------------------
# stats-only fetch parity (virtual time identical, content is headers)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["pff", "cff"])
def test_file_dataset_stats_mode_same_virtual_time(fmt):
    def main(ctx, stats_only):
        vfs = ctx.world.vfs
        gen = IsingGenerator(16, seed=1)
        if ctx.rank == 0:
            blobs = pack_all(gen)
            if fmt == "pff":
                write_pff(vfs, "d", blobs)
            else:
                write_cff(vfs, "d", blobs, n_subfiles=2, logical_scale=1.0)
        yield from ctx.comm.barrier()
        reader = (
            PFFReader(vfs, "d", 16, ctx.world.machine)
            if fmt == "pff"
            else CFFReader(vfs, "d", ctx.world.machine)
        )
        ds = FileDataset(reader, ctx, stats_only=stats_only)
        result = yield from ds.fetch([0, 5, 9])
        return ctx.now, result

    t_real, res_real = run(lambda c: main(c, False), seed=2).results[0]
    t_stats, res_stats = run(lambda c: main(c, True), seed=2).results[0]
    assert t_stats == pytest.approx(t_real, rel=1e-12)
    assert np.allclose(res_stats.per_sample_latency, res_real.per_sample_latency)
    # Content: stats mode returns headers for the same samples.
    for g, s in zip(res_real.graphs, res_stats.graphs):
        assert isinstance(s, SampleStats)
        assert (s.n_nodes, s.n_edges) == (g.n_nodes, g.n_edges)


def test_ddstore_stats_mode_same_virtual_time():
    def main(ctx, stats_only):
        src = GeneratorSource(IsingGenerator(16, seed=0), ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, src)
        ds = DDStoreDataset(store, stats_only=stats_only)
        result = yield from ds.fetch([15, 3, 8])
        return ctx.now, [type(g).__name__ for g in result.graphs]

    t_real, kinds_real = run(lambda c: main(c, False), seed=1).results[0]
    t_stats, kinds_stats = run(lambda c: main(c, True), seed=1).results[0]
    assert t_stats == pytest.approx(t_real, rel=1e-12)
    assert kinds_real == ["AtomicGraph"] * 3
    assert kinds_stats == ["SampleStats"] * 3


def test_dataloader_stats_mode_yields_batch_stats():
    def main(ctx):
        src = GeneratorSource(IsingGenerator(32, seed=0), ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, src)
        loader = DataLoader(
            DDStoreDataset(store, stats_only=True), ctx, batch_size=4
        )
        loaded = yield from loader.load(loader.epoch_batches(0)[0])
        return loaded.batch

    batch = run(main).results[0]
    assert isinstance(batch, BatchStats)
    assert batch.n_graphs == 4
    assert batch.n_nodes == 4 * 125


# ---------------------------------------------------------------------------
# preloader plugins
# ---------------------------------------------------------------------------

def test_reader_source_bulk_and_scalar_paths_agree():
    # CFF has a bulk chunk read; it must deliver byte-identical blobs to
    # the per-sample path.
    def main(ctx):
        vfs = ctx.world.vfs
        gen = MoleculeGenerator(12, seed=3)
        if ctx.rank == 0:
            blobs = pack_all(gen)
            write_cff(vfs, "c", blobs, n_subfiles=3, logical_scale=1.0)
        yield from ctx.comm.barrier()
        reader = CFFReader(vfs, "c", ctx.world.machine)
        src = ReaderSource(reader)
        bulk = yield from src.load_chunk(range(3, 9), ctx.node_index, ctx.engine)
        scalar = yield from src.load_chunk([3, 4, 5, 6, 7, 8][::-1], ctx.node_index, ctx.engine)
        return bulk, scalar

    bulk, scalar = run(main).results[0]
    assert np.array_equal(np.sort(bulk.sizes), np.sort(scalar.sizes))
    # Same total content (order differs: scalar path was reversed).
    assert bulk.buffer.sum() == scalar.buffer.sum()
    assert bulk.buffer.size == scalar.buffer.size


def test_generator_source_packs_expected_sizes():
    def main(ctx):
        gen = IsingGenerator(8, seed=0)
        src = GeneratorSource(gen, ctx.world.machine)
        res = yield from src.load_chunk([0, 1, 2], ctx.node_index, ctx.engine)
        return res, len(pack_graph(gen.make(0)))

    res, expected = run(main).results[0]
    assert res.sizes.shape == (3,)
    assert np.all(res.sizes == expected)
    assert res.buffer.size == 3 * expected


def test_empty_chunk_preload():
    def main(ctx):
        src = GeneratorSource(IsingGenerator(8, seed=0), ctx.world.machine)
        res = yield from src.load_chunk([], ctx.node_index, ctx.engine)
        return res.buffer.size, res.sizes.size

    assert run(main).results[0] == (0, 0)


# ---------------------------------------------------------------------------
# per-sample latencies: one record per demand call, even with loads in flight
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("columnar", [False, True])
@pytest.mark.parametrize("prefetch_depth", [1, 4])
def test_each_load_reports_its_own_latencies(monkeypatch, prefetch_depth, columnar):
    from repro.bench.harness import ExperimentConfig, run_experiment
    from repro.dataplane import pipeline

    booked, reported = [], []
    finish_demand = pipeline._Call.finish_demand

    def book(self, span, latencies, *rest):
        booked.append(latencies.copy())
        return finish_demand(self, span, latencies, *rest)

    def reporting(fetch):
        def wrapper(self, indices):
            out = yield from fetch(self, indices)
            reported.append((out[1] if isinstance(out, tuple) else out).per_sample_latency)
            return out
        return wrapper

    monkeypatch.setattr(pipeline._Call, "finish_demand", book)
    monkeypatch.setattr(DDStoreDataset, "fetch", reporting(DDStoreDataset.fetch))
    monkeypatch.setattr(DDStoreDataset, "fetch_arena", reporting(DDStoreDataset.fetch_arena))
    cfg = ExperimentConfig(
        machine="perlmutter", n_nodes=1, dataset="ising", batch_size=32,
        steps_per_epoch=6, prefetch_depth=prefetch_depth, columnar=columnar,
    )
    r = run_experiment(cfg)
    assert r.latencies.size == r.total_samples == 768
    # Each call returns right after booking, so the two logs pair up in order.
    assert len(reported) == len(booked) == 24
    for mine, own in zip(reported, booked):
        assert mine.tobytes() == own.tobytes()
