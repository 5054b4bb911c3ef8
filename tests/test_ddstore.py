"""Integration tests for DDStore over the simulated MPI runtime."""

import numpy as np
import pytest

from repro.core import (
    DataLoader,
    DataPlaneOptions,
    DDStore,
    DDStoreDataset,
    FileDataset,
    GeneratorSource,
    ReaderSource,
)
from repro.graphs import IsingGenerator, MoleculeGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world
from repro.storage import CFFReader, PFFReader, write_cff, write_pff

from .conftest import pack_all


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


def _source(ctx, n=32, gen_cls=IsingGenerator, seed=0):
    return GeneratorSource(gen_cls(n, seed=seed), ctx.world.machine)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_create_default_width_single_replica():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        return (store.width, store.n_replicas, store.local_range, store.memory_bytes)

    job = run(main)  # 4 ranks
    widths = {r[0] for r in job.results}
    assert widths == {4}
    assert {r[1] for r in job.results} == {1}
    ranges = [r[2] for r in job.results]
    assert ranges == [(0, 8), (8, 16), (16, 24), (24, 32)]
    assert all(r[3] > 0 for r in job.results)


def test_create_width_two_makes_two_replicas():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx), width=2)
        return (
            store.n_replicas,
            store.group_comm.size,
            store.local_range,
            store.transport.local_buffer(),
            store.memory_bytes,
        )

    job = run(main)
    assert all(r[0] == 2 for r in job.results)
    assert all(r[1] == 2 for r in job.results)
    # Ranks 0/1 form group 0, ranks 2/3 group 1; both groups hold all 32.
    assert job.results[0][2] == (0, 16)
    assert job.results[2][2] == (0, 16)
    # The host holds one buffer per distinct chunk, shared by its replicas,
    # while every rank is still charged (and reports) its own replica.
    bufs = [r[3] for r in job.results]
    assert np.shares_memory(bufs[0], bufs[2]) and np.shares_memory(bufs[1], bufs[3])
    assert not np.shares_memory(bufs[0], bufs[1])
    assert [r[4] for r in job.results] == [b.nbytes for b in bufs]
    assert job.results[0][4] == job.results[2][4] > 0

    # Replica groups must hold identical chunks: group 1 (node 1) seeding
    # its generator differently is refused at create, naming both groups.
    def mismatched(ctx):
        yield from DDStore.create(ctx.comm, _source(ctx, seed=ctx.node_index), width=2)

    with pytest.raises(ValueError, match=r"replica groups 0 and 1 .* chunk \[0, 16\)"):
        run(mismatched)


def test_every_sample_fetchable_and_correct():
    gen = IsingGenerator(32, seed=0)

    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        graphs = yield from store.get_samples(range(32))
        return [g.sample_id for g in graphs], graphs[17]

    job = run(main)
    for ids, g17 in job.results:
        assert ids == list(range(32))
        assert g17.allclose(gen.make(17))


def test_fetch_order_preserved_with_shuffled_request():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        order = [31, 0, 16, 5, 5, 9]
        graphs = yield from store.get_samples(order)
        return [g.sample_id for g in graphs]

    job = run(main)
    assert job.results[0] == [31, 0, 16, 5, 5, 9]


def test_local_fetches_do_not_touch_network():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        lo, hi = store.local_range
        yield from store.get_samples(range(lo, hi))
        return (store.stats.n_local, store.stats.n_remote)

    job = run(main)
    for n_local, n_remote in job.results:
        assert n_remote == 0 and n_local == 8


def test_remote_fetch_counts_and_bytes():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        lo, hi = store.local_range
        remote = [(hi + k) % 32 for k in range(4)]
        yield from store.get_samples(remote)
        return (store.stats.n_remote, store.stats.bytes_remote)

    job = run(main)
    for n_remote, bytes_remote in job.results:
        assert n_remote == 4
        assert bytes_remote > 0


def test_replica_groups_fetch_only_within_group():
    # With width=2 the second group's members must get correct data even
    # though group 0 holds a disjoint copy.
    gen = MoleculeGenerator(24, seed=5)

    def main(ctx):
        src = GeneratorSource(MoleculeGenerator(24, seed=5), ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, src, width=2)
        graphs = yield from store.get_samples([23, 1, 12])
        return [g.sample_id for g in graphs], graphs[0]

    job = run(main)
    for ids, g in job.results:
        assert ids == [23, 1, 12]
        assert g.allclose(gen.make(23))


def test_memory_scales_with_replication():
    def footprint(width):
        def main(ctx):
            store = yield from DDStore.create(ctx.comm, _source(ctx), width=width)
            return store.memory_bytes

        return sum(run(main).results)

    assert footprint(2) == pytest.approx(2 * footprint(4), rel=0.05)


def test_latency_recording():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        yield from store.get_samples(range(32))
        return store.stats.latency_array()

    job = run(main)
    lats = job.results[0]
    assert lats.shape == (32,)
    assert np.all(lats > 0)
    # Every demand call books its latencies; there is no knob to turn it off.
    with pytest.raises(TypeError):
        DDStore.create(None, None, record_latencies=True)


def test_empty_fetch():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        out = yield from store.get_samples([])
        return out

    job = run(main)
    assert job.results == [[]] * 4


def test_global_shuffle_epoch_covers_dataset_once():
    # Across ranks, one epoch of global shuffle + DDStore fetch must yield
    # every sample exactly once.
    def main(ctx):
        from repro.core import GlobalShuffleSampler

        store = yield from DDStore.create(ctx.comm, _source(ctx))
        sampler = GlobalShuffleSampler(32, ctx.size, ctx.rank, seed=3)
        graphs = yield from store.get_samples(sampler.epoch_indices(0))
        return [g.sample_id for g in graphs]

    job = run(main)
    seen = sorted(i for ids in job.results for i in ids)
    assert seen == list(range(32))


# ---------------------------------------------------------------------------
# preload from files
# ---------------------------------------------------------------------------

def _with_files(fmt):
    gen = IsingGenerator(16, seed=2)

    def main(ctx):
        vfs = ctx.world.vfs
        if ctx.rank == 0:  # one rank stages the dataset
            blobs = pack_all(gen)
            if fmt == "pff":
                write_pff(vfs, "ds", blobs)
            else:
                write_cff(vfs, "ds", blobs, n_subfiles=2, logical_scale=1.0)
        yield from ctx.comm.barrier()
        reader = (
            PFFReader(vfs, "ds", 16, ctx.world.machine)
            if fmt == "pff"
            else CFFReader(vfs, "ds", ctx.world.machine)
        )
        store = yield from DDStore.create(ctx.comm, ReaderSource(reader))
        graphs = yield from store.get_samples([3, 12])
        return [g.sample_id for g in graphs]

    return main, gen


def test_preload_from_pff():
    main, _gen = _with_files("pff")
    job = run(main)
    assert all(r == [3, 12] for r in job.results)


def test_preload_from_cff():
    main, _gen = _with_files("cff")
    job = run(main)
    assert all(r == [3, 12] for r in job.results)


@pytest.mark.parametrize("fmt", ["pff", "cff", "generator"])
def test_preloaded_chunk_is_the_packed_samples_back_to_back(fmt):
    gen = MoleculeGenerator(16, seed=4)  # variable sample sizes
    packed = pack_all(gen)

    def main(ctx):
        vfs = ctx.world.vfs
        if ctx.rank == 0:
            write_pff(vfs, "p", packed)
            write_cff(vfs, "c", packed, n_subfiles=3, logical_scale=1.0)
        yield from ctx.comm.barrier()
        source = {
            "pff": lambda: ReaderSource(PFFReader(vfs, "p", 16, ctx.world.machine)),
            "cff": lambda: ReaderSource(CFFReader(vfs, "c", ctx.world.machine)),
            "generator": lambda: GeneratorSource(gen, ctx.world.machine),
        }[fmt]()
        lo, hi = 3 * ctx.rank, 3 * ctx.rank + 5
        result = yield from source.load_chunk(range(lo, hi), ctx.node_index, ctx.engine)
        empty = yield from source.load_chunk(range(0), ctx.node_index, ctx.engine)
        return lo, hi, result, empty

    for lo, hi, result, empty in run(main).results:
        assert result.buffer.dtype == np.uint8 and result.buffer.flags.writeable
        assert result.buffer.tobytes() == b"".join(packed[lo:hi])
        assert result.sizes.dtype == np.int64
        assert result.sizes.tolist() == [len(b) for b in packed[lo:hi]]
        assert empty.buffer.size == 0 and empty.sizes.size == 0


def test_preload_takes_nonzero_time():
    def main(ctx):
        t0 = ctx.now
        vfs = ctx.world.vfs
        if ctx.rank == 0:
            gen = IsingGenerator(16, seed=2)
            blobs = pack_all(gen)
            write_pff(vfs, "ds", blobs)
        yield from ctx.comm.barrier()
        reader = PFFReader(vfs, "ds", 16, ctx.world.machine)
        yield from DDStore.create(ctx.comm, ReaderSource(reader))
        return ctx.now - t0

    job = run(main)
    assert min(job.results) > 0.001  # PFF preload pays metadata ops


# ---------------------------------------------------------------------------
# p2p ablation framework
# ---------------------------------------------------------------------------

def test_p2p_framework_returns_same_data():
    gen = IsingGenerator(16, seed=0)

    def main(ctx):
        src = GeneratorSource(IsingGenerator(16, seed=0), ctx.world.machine)
        store = yield from DDStore.create(
            ctx.comm, src, dataplane=DataPlaneOptions(framework="p2p")
        )
        graphs = yield from store.get_samples([15, 2])
        yield from store.shutdown()
        return graphs

    job = run(main)
    for graphs in job.results:
        assert graphs[0].allclose(gen.make(15))
        assert graphs[1].allclose(gen.make(2))


def test_p2p_fetch_honours_one_bound_per_read():
    """A per-read bound array: the read with a hopeless deadline is
    abandoned, the ``inf`` ones are waited out — past that deadline."""
    def main(ctx):
        src = GeneratorSource(IsingGenerator(16, seed=0), ctx.world.machine)
        store = yield from DDStore.create(
            ctx.comm, src, dataplane=DataPlaneOptions(framework="p2p")
        )
        target = (ctx.rank + 1) % ctx.size
        reads = np.array([(target, 64 * i, 64) for i in range(3)])
        out = yield from store.transport.fetch(
            reads, timeout_s=np.array([np.inf, 1e-12, np.inf])
        )
        yield ctx.engine.timeout(1e-2)  # let the orphaned reply land before teardown
        yield from store.shutdown()
        return list(out.timed_out), [p is None for p in out.payloads]

    for timed_out, missing in run(main).results:
        assert timed_out == [False, True, False] and missing == [False, True, False]


def test_p2p_slower_than_rma():
    def main(ctx, framework):
        src = GeneratorSource(IsingGenerator(16, seed=0), ctx.world.machine)
        store = yield from DDStore.create(
            ctx.comm, src, dataplane=DataPlaneOptions(framework=framework)
        )
        lo, hi = store.local_range
        remote = [(hi + k) % 16 for k in range(4)]
        t0 = ctx.now
        yield from store.get_samples(remote)
        dt = ctx.now - t0
        if framework == "p2p":
            yield from store.shutdown()
        return dt

    rma = max(run(lambda c: main(c, "mpi-rma"), seed=1).results)
    p2p = max(run(lambda c: main(c, "p2p"), seed=1).results)
    assert p2p > rma  # target polling delay makes two-sided slower


# ---------------------------------------------------------------------------
# DataLoader integration
# ---------------------------------------------------------------------------

def test_dataloader_ddstore_pipeline():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        loader = DataLoader(
            DDStoreDataset(store), ctx, batch_size=4, shuffle="global", seed=0
        )
        out = []
        for idx in loader.epoch_batches(0):
            loaded = yield from loader.load(idx)
            out.append(loaded)
        return out

    job = run(main)
    loaded = job.results[0]
    assert len(loaded) == 2  # 32 samples / 4 ranks / batch 4
    for lb in loaded:
        assert lb.batch.n_graphs == 4
        assert lb.load_time > 0
        assert lb.batching_time > 0
        assert lb.per_sample_latency.shape == (4,)


def test_dataloader_file_dataset_matches_ddstore_content():
    def main(ctx):
        vfs = ctx.world.vfs
        gen = IsingGenerator(16, seed=4)
        if ctx.rank == 0:
            blobs = pack_all(gen)
            write_cff(vfs, "c", blobs, n_subfiles=2, logical_scale=1.0)
        yield from ctx.comm.barrier()
        reader = CFFReader(vfs, "c", ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, ReaderSource(reader))
        dd = DDStoreDataset(store)
        fd = FileDataset(reader, ctx)
        a = yield from dd.fetch([1, 9])
        b = yield from fd.fetch([1, 9])
        return a.graphs, b.graphs

    job = run(main)
    for a, b in job.results:
        for ga, gb in zip(a, b):
            assert ga.allclose(gb)


def test_dataloader_steps_per_epoch_cap():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        loader = DataLoader(
            DDStoreDataset(store), ctx, batch_size=2, steps_per_epoch=1
        )
        assert loader.n_steps() == 1
        return len(loader.epoch_batches(0))
        yield  # pragma: no cover

    job = run(main)
    assert job.results == [1] * 4


def test_dataloader_rejects_bad_shuffle():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        DataLoader(DDStoreDataset(store), ctx, batch_size=2, shuffle="sorted")

    with pytest.raises(ValueError, match="shuffle"):
        run(main)
