"""Tests for the zero-copy columnar byte path.

Covers the AGRC shard codec (raw columns only), the batch
arena / pool, the arena scatter planner, the cache's column mode, and —
the tentpole invariant — byte-identical GraphBatch tensors between the
row-decode pipeline and the columnar arena-scatter pipeline over every
registry workload generator.
"""

import numpy as np
import pytest

from repro.core import DataLoader, DataPlaneOptions, DDStore, DDStoreDataset, GeneratorSource
from repro.dataplane import ArenaScatterMap, FetchPlanner
from repro.graphs import SAMPLE_ALLOCATIONS, ArenaPool, BatchArena, collate
from repro.graphs.datasets import DATASETS
from repro.hardware import TESTBOX
from repro.mpi import run_world
from repro.storage import HEADER_NBYTES, CodecError, pack_graph, unpack_graph
from repro.storage.columnar import (
    FIELDS,
    pack_shard,
    peek_shard_header,
    row_field_layout,
    shard_packed_size,
    unpack_shard,
)


def make_graphs(name="ising", n=6, seed=0):
    gen = DATASETS[name].make(n, seed)
    return [gen.make(i) for i in range(n)]


# ---------------------------------------------------------------------------
# AGRC shard codec
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(DATASETS))
def test_shard_roundtrip_every_generator(name):
    graphs = make_graphs(name, n=4)
    blob = pack_shard(graphs)
    n, f_dim, y_dim = peek_shard_header(blob)
    assert (n, f_dim, y_dim) == (4, graphs[0].feature_dim, graphs[0].output_dim)
    assert len(blob) == shard_packed_size(
        4,
        sum(g.n_nodes for g in graphs),
        sum(g.n_edges for g in graphs),
        f_dim,
        y_dim,
    )
    shard = unpack_shard(blob)
    assert shard.n_samples == 4
    for i, g in enumerate(graphs):
        assert shard.graph(i).allclose(g)


@pytest.mark.parametrize("codec", ["raw"])  # the one codec a column is stored in
def test_shard_roundtrip_chunk_codecs(codec):
    graphs = make_graphs(n=3)
    blob = pack_shard(graphs)
    # Every field descriptor names the codec: field name, then codec name.
    for name in FIELDS:
        at = blob.index(name.encode("ascii").ljust(16, b"\x00")) + 16
        assert blob[at : at + 16] == codec.encode("ascii").ljust(16, b"\x00")
    shard = unpack_shard(blob)
    for i, g in enumerate(graphs):
        assert shard.graph(i).allclose(g)


def test_shard_unknown_codec_and_field_raise():
    """A shard whose descriptor names a codec other than ``raw``, or a
    field out of :data:`FIELDS`, is refused."""
    packed = pack_shard(make_graphs(n=2))
    at = packed.index(b"edge_index".ljust(16, b"\x00"))
    for lo, name, match in ((at + 16, b"rle", "unknown codec 'rle'"), (at, b"edges", "field order")):
        blob = bytearray(packed)
        blob[lo : lo + 16] = name.ljust(16, b"\x00")
        with pytest.raises(CodecError, match=match):
            unpack_shard(bytes(blob))


def test_shard_header_validation():
    blob = bytearray(pack_shard(make_graphs(n=2)))
    with pytest.raises(CodecError):
        peek_shard_header(blob[:4])
    blob[:4] = b"NOPE"
    with pytest.raises(CodecError):
        unpack_shard(bytes(blob))


def test_row_field_layout_tiles_record():
    g = make_graphs(n=1)[0]
    blob = pack_graph(g)
    spans = row_field_layout(g.n_nodes, g.n_edges, g.feature_dim, g.output_dim)
    # Field spans tile the record body exactly, in order, ending at EOF.
    lo = spans["positions"][0]
    for name in ("positions", "node_features", "edge_index", "y"):
        assert spans[name][0] == lo
        lo = spans[name][1]
    assert lo == len(blob)
    # Slicing the payload by span reproduces the decoded fields.
    raw = np.frombuffer(blob, np.uint8)
    s = spans["positions"]
    assert np.array_equal(
        raw[s[0] : s[1]].view(np.float32).reshape(-1, 3), g.positions
    )


# ---------------------------------------------------------------------------
# satellite 1/2: unpack_graph(copy=False) views + non-contiguous rejection
# ---------------------------------------------------------------------------

def test_unpack_graph_no_copy_views_are_readonly():
    g = make_graphs(n=1)[0]
    blob = pack_graph(g)
    view = unpack_graph(blob, copy=False)
    assert view.allclose(g)
    for arr in (view.positions, view.node_features, view.edge_index, view.y):
        assert not arr.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            arr[..., 0] = 0
    # Default stays a mutable deep copy.
    full = unpack_graph(blob)
    full.positions[0, 0] = 123.0
    assert unpack_graph(blob).positions[0, 0] != 123.0


def test_unpack_graph_rejects_noncontiguous_ndarray():
    blob = pack_graph(make_graphs(n=1)[0])
    arr = np.frombuffer(blob + blob, np.uint8)
    strided = arr[::2]
    assert not strided.flags.c_contiguous
    with pytest.raises(CodecError, match="contiguous"):
        unpack_graph(strided)
    # Contiguous ndarray input still decodes.
    assert unpack_graph(arr[: len(blob)]).allclose(unpack_graph(blob))


# ---------------------------------------------------------------------------
# batch arena + pool
# ---------------------------------------------------------------------------

def _fill_arena_from_rows(arena, graphs):
    """Scatter packed rows into an arena via the planner's segment map."""
    nn = np.array([g.n_nodes for g in graphs], np.int64)
    ne = np.array([g.n_edges for g in graphs], np.int64)
    arena.reset(nn, ne, graphs[0].feature_dim, graphs[0].output_dim,
                np.array([g.sample_id for g in graphs], np.int64))
    smap = FetchPlanner().plan_arena(nn, ne, graphs[0].feature_dim, graphs[0].output_dim)
    fields = tuple(arena.field_bytes[name] for name in BatchArena._FIELDS)
    for p, g in enumerate(graphs):
        blob = pack_graph(g)
        smap.scatter(p, 0, len(blob), np.frombuffer(blob, np.uint8), fields)
    return smap


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_arena_scatter_matches_row_collate(name):
    graphs = make_graphs(name, n=5)
    arena = BatchArena()
    _fill_arena_from_rows(arena, graphs)
    got = collate(arena=arena)
    want = collate(graphs)
    for f in ("positions", "node_features", "edge_index", "y", "ptr",
              "node_graph", "sample_ids"):
        assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), f
        assert getattr(got, f).dtype == getattr(want, f).dtype, f


def test_arena_shift_edges_idempotent():
    graphs = make_graphs(n=3)
    arena = BatchArena()
    _fill_arena_from_rows(arena, graphs)
    arena.shift_edges()
    once = arena.edge_index.copy()
    arena.shift_edges()  # second call must not double-shift
    assert np.array_equal(arena.edge_index, once)
    # collate() itself calls shift_edges; composing them is still safe.
    assert np.array_equal(collate(arena=arena).edge_index, once)


def test_arena_recycles_without_reallocating():
    big = make_graphs(n=6)
    small = big[:2]
    arena = BatchArena()
    _fill_arena_from_rows(arena, big)
    stores = {k: v for k, v in arena._stores.items()}
    _fill_arena_from_rows(arena, small)  # smaller batch: same backings
    for k, v in arena._stores.items():
        assert v is stores[k], k
    assert collate(arena=arena).n_graphs == 2


def test_arena_pool_reuse_and_warm():
    pool = ArenaPool()
    a = pool.acquire()
    pool.release(a)
    assert pool.acquire() is a
    assert pool.created == 1
    pool.release(a)
    pool.warm(3, n_graphs=4, n_nodes=100, n_edges=300, feature_dim=3, output_dim=2)
    assert pool.created == 3
    warmed = pool.acquire()
    warmed_bytes = sum(s.nbytes for s in warmed._stores.values())
    assert warmed_bytes >= 4 * (100 * 3 + 100 * 3 + 2 * 300) + 4 * 4 * 2


def test_plan_arena_segment_bookkeeping():
    graphs = make_graphs(n=4)
    nn = np.array([g.n_nodes for g in graphs], np.int64)
    ne = np.array([g.n_edges for g in graphs], np.int64)
    smap = FetchPlanner().plan_arena(nn, ne, graphs[0].feature_dim, graphs[0].output_dim)
    assert isinstance(smap, ArenaScatterMap)
    # Up to 5 segments per sample (pos, feat, edge src/tgt plane, y);
    # zero-length fields are skipped.
    assert 0 < smap.n_segments <= 5 * len(graphs)
    # Partial scatter: delivering a sample in two byte-range halves lands
    # the same bytes as one whole-record delivery, and each call returns
    # the bytes it wrote (its share of the payload; the header is skipped).
    arena, arena2 = BatchArena(), BatchArena()
    _fill_arena_from_rows(arena, graphs)
    sids = np.array([g.sample_id for g in graphs], np.int64)
    arena2.reset(nn, ne, graphs[0].feature_dim, graphs[0].output_dim, sids)
    smap2 = FetchPlanner().plan_arena(nn, ne, graphs[0].feature_dim, graphs[0].output_dim)
    fields2 = tuple(arena2.field_bytes[name] for name in BatchArena._FIELDS)
    for p, g in enumerate(graphs):
        blob = np.frombuffer(pack_graph(g), np.uint8)
        cut = len(blob) // 3
        assert smap2.scatter(p, 0, cut, blob[:cut], fields2) == cut - HEADER_NBYTES
        assert smap2.scatter(p, cut, len(blob), blob[cut:], fields2) == len(blob) - cut
    for name in BatchArena._FIELDS:
        assert arena2.field_bytes[name].tobytes() == arena.field_bytes[name].tobytes()


# ---------------------------------------------------------------------------
# cache column mode
# ---------------------------------------------------------------------------

def test_cache_column_mode_segregates_entries():
    """A columnar store's cache holds column payloads only: a row read of
    the store (``decode="raw"``) neither probes the cache nor parks in it,
    and still returns the exact packed records."""
    gen = DATASETS["ising"].make(16, 0)

    def counters(cache):
        return vars(cache.stats).copy(), {t: vars(s).copy() for t, s in cache.tier_stats.items()}

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm,
            GeneratorSource(gen, ctx.world.machine),
            dataplane=DataPlaneOptions(columnar=True, cache_bytes=1 << 20),
        )
        ids = list(range(16))
        yield from store.get_batch_arena(ids, BatchArena())  # parks the remote ids' columns
        cache = store.cache
        before, resident = counters(cache), dict(cache.dram._entries)
        blobs = yield from store.get_samples(ids, decode="raw")
        same = all(b.tobytes() == pack_graph(gen.make(i)) for i, b in zip(ids, blobs))
        untouched = counters(cache) == before and dict(cache.dram._entries) == resident
        return same, untouched, len(resident)

    for same, untouched, n_resident in run_world(TESTBOX, 2, main).results:
        assert same and untouched and n_resident > 0


# ---------------------------------------------------------------------------
# end-to-end equivalence: row pipeline vs columnar pipeline
# ---------------------------------------------------------------------------

_BATCH_FIELDS = ("positions", "node_features", "edge_index", "y", "ptr",
                 "node_graph", "sample_ids")


def _epoch_batches(ctx, columnar, name, seed=0, **dp_kw):
    gen = DATASETS[name].make(24, seed)
    src = GeneratorSource(gen, ctx.world.machine)
    store = yield from DDStore.create(
        ctx.comm, src, dataplane=DataPlaneOptions(columnar=columnar, **dp_kw)
    )
    loader = DataLoader(
        DDStoreDataset(store), ctx, batch_size=4, shuffle="global", seed=seed
    )
    out = []
    for idx in loader.epoch_batches(0):
        loaded = yield from loader.load(idx)
        b = loaded.batch
        out.append(tuple(getattr(b, f).tobytes() for f in _BATCH_FIELDS))
        loaded.release()
    return out


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_columnar_batches_byte_identical_to_row(name):
    def main(ctx, columnar):
        result = yield from _epoch_batches(ctx, columnar, name)
        return result

    row = run_world(TESTBOX, 2, lambda c: main(c, False), seed=1).results
    col = run_world(TESTBOX, 2, lambda c: main(c, True), seed=1).results
    assert row == col  # every rank, every batch, every tensor, every byte


def test_columnar_equivalence_through_cache_and_waves():
    """Arena batches stay byte-identical when fed from wave-parked columns."""
    def main(ctx, columnar):
        result = yield from _epoch_batches(
            ctx,
            columnar,
            "ising",
            cache_bytes=1 << 22,
            scheduler=True,
            prefetch_depth=2,
        )
        return result

    row = run_world(TESTBOX, 2, lambda c: main(c, False), seed=3).results
    col = run_world(TESTBOX, 2, lambda c: main(c, True), seed=3).results
    assert row == col


def test_columnar_scatter_path_never_allocates_per_sample():
    def main(ctx):
        result = yield from _epoch_batches(ctx, True, "ising")
        return len(result)

    SAMPLE_ALLOCATIONS.reset()
    n = run_world(TESTBOX, 2, main, seed=1).results[0]
    assert n > 0
    assert SAMPLE_ALLOCATIONS.count == 0


def test_row_path_allocation_counter_is_live():
    def main(ctx):
        result = yield from _epoch_batches(ctx, False, "ising")
        return len(result)

    SAMPLE_ALLOCATIONS.reset()
    run_world(TESTBOX, 2, main, seed=1)
    assert SAMPLE_ALLOCATIONS.count > 0
    SAMPLE_ALLOCATIONS.reset()


def test_columnar_off_is_default_and_row_default_unchanged():
    """The row pipeline must not consult any columnar machinery by default."""
    def main(ctx):
        src = GeneratorSource(DATASETS["ising"].make(16, 0), ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, src)
        ds = DDStoreDataset(store)
        return ds.columnar, ds.arena_pool, store.registry.shapes

    columnar, pool, shapes = run_world(TESTBOX, 2, main, seed=0).results[0]
    assert columnar is False
    assert pool is None
    assert shapes is None


def test_columnar_store_replicates_shape_table():
    def main(ctx):
        gen = DATASETS["ising"].make(16, 0)
        src = GeneratorSource(gen, ctx.world.machine)
        store = yield from DDStore.create(
            ctx.comm, src, dataplane=DataPlaneOptions(columnar=True)
        )
        shapes = store.registry.shapes
        idx = np.array([1, 9, 4, 14], np.int64)
        sids, nn, ne = store.registry.shape_batch(idx)
        truth = [gen.make(int(i)) for i in idx]
        return (
            shapes is not None,
            sids.tolist(),
            nn.tolist(),
            ne.tolist(),
            [g.n_nodes for g in truth],
            [g.n_edges for g in truth],
        )

    ok, sids, nn, ne, want_nn, want_ne = run_world(TESTBOX, 2, main, seed=0).results[0]
    assert ok
    assert sids == [1, 9, 4, 14]
    assert nn == want_nn
    assert ne == want_ne


# ---------------------------------------------------------------------------
# satellite 6: traced columnar run still tiles epoch time
# ---------------------------------------------------------------------------

def test_traced_columnar_run_satisfies_critical_path_invariant():
    from repro.bench import PROFILES
    from repro.obs import run_traced

    run = run_traced("columnar", PROFILES["tiny"])
    assert run.report.ok, run.report.violations()
    # The new scatter stage is present in the canonical roll-up and the
    # decode stage is gone — the stages still tile the fetch.
    stages = run.result.fetch_stages
    assert stages.get("scatter", 0.0) > 0.0
    assert stages.get("decode", 0.0) == 0.0


def test_local_shape_row_sweeps_headers_and_rejects_mixed_dims():
    from repro.graphs import IsingGenerator, MoleculeGenerator
    from repro.mpi import Pieces

    def chunk(graphs):
        return Pieces([pack_graph(g) for g in graphs])

    ising = IsingGenerator(3, seed=0)
    graphs = [ising.make(i) for i in range(3)]
    row = DDStore._local_shape_row(chunk(graphs))
    assert row.dtype == np.int64
    assert row.tolist() == [1, 1, 0, 1, 2, *[g.n_nodes for g in graphs], *[g.n_edges for g in graphs]]
    assert DDStore._local_shape_row(chunk([])).tolist() == [-1, -1]
    mixed = graphs[:2] + [MoleculeGenerator(1, seed=0).make(0)]
    with pytest.raises(ValueError, match=r"sample 0 has \(7, 1\), chunk started with \(1, 1\)"):
        DDStore._local_shape_row(chunk(mixed))
