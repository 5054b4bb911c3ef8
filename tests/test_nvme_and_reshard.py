"""Tests for the NVMe staging tier and DDStore elastic re-sharding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DDStore, GeneratorSource, StoreClosedError
from repro.graphs import IsingGenerator, MoleculeGenerator
from repro.hardware import NVMeDevice, TEST_NVME, TESTBOX
from repro.mpi import run_world
from repro.sim import Engine
from repro.storage import CFFReader, pack_graph, write_cff
from repro.storage.staging import stage_to_nvme

from .conftest import pack_all


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


# ---------------------------------------------------------------------------
# NVMe device
# ---------------------------------------------------------------------------

def test_nvme_capacity_accounting():
    dev = NVMeDevice(Engine(), TEST_NVME)
    dev.allocate(TEST_NVME.capacity_bytes // 2)
    assert dev.free_bytes == TEST_NVME.capacity_bytes - TEST_NVME.capacity_bytes // 2
    with pytest.raises(OSError, match="NVMe full"):
        dev.allocate(TEST_NVME.capacity_bytes)
    dev.release(TEST_NVME.capacity_bytes // 2)
    assert dev.used_bytes == 0


def test_nvme_read_latency_reasonable():
    dev = NVMeDevice(Engine(), TEST_NVME)
    done = dev.read(4096, arrival=0.0)
    # flash latency + IOPS service, well under a PFS metadata op
    assert 1e-5 < done < 1e-3


def test_nvme_queueing_under_load():
    dev = NVMeDevice(Engine(), TEST_NVME)
    finishes = [dev.read(4096, arrival=0.0) for _ in range(100)]
    assert finishes[-1] > finishes[0]  # FIFO backlog builds


def test_nvme_write_streams_at_bandwidth():
    dev = NVMeDevice(Engine(), TEST_NVME)
    t = dev.write(TEST_NVME.write_bandwidth_Bps, arrival=0.0)  # 1 second of data
    assert t == pytest.approx(1.0, rel=0.01)


def test_nvme_rejects_negative():
    dev = NVMeDevice(Engine(), TEST_NVME)
    with pytest.raises(ValueError):
        dev.read(-1, 0.0)
    with pytest.raises(ValueError):
        dev.write(-1, 0.0)
    with pytest.raises(ValueError):
        dev.allocate(-1)


# ---------------------------------------------------------------------------
# staging
# ---------------------------------------------------------------------------

def test_stage_to_nvme_roundtrip():
    gen = IsingGenerator(12, seed=0)

    def main(ctx):
        vfs = ctx.world.vfs
        if ctx.rank == 0:
            blobs = pack_all(gen)
            write_cff(vfs, "c", blobs, n_subfiles=2, logical_scale=1.0)
        yield from ctx.comm.barrier()
        if ctx.rank != 0:
            return None
        cff = CFFReader(vfs, "c", ctx.world.machine)
        dev = NVMeDevice(ctx.engine, TEST_NVME)
        staged, t_done = stage_to_nvme(cff, dev, ctx.node_index, ctx.now)
        assert t_done > ctx.now
        g, done = staged.read_sample(7, ctx.node_index, t_done)
        return g, staged.n_samples, dev.used_bytes

    g, n, used = run(main).results[0]
    assert g.allclose(gen.make(7))
    assert n == 12
    assert used > 0


def test_stage_respects_logical_capacity():
    gen = IsingGenerator(4, seed=0)

    def main(ctx):
        vfs = ctx.world.vfs
        if ctx.rank == 0:
            blobs = pack_all(gen)
            write_cff(vfs, "c", blobs, n_subfiles=1, logical_scale=1.0)
        yield from ctx.comm.barrier()
        if ctx.rank != 0:
            return None
        cff = CFFReader(vfs, "c", ctx.world.machine)
        dev = NVMeDevice(ctx.engine, TEST_NVME)
        try:
            stage_to_nvme(cff, dev, 0, ctx.now, logical_bytes=TEST_NVME.capacity_bytes * 2)
        except OSError:
            return "full"
        return "fit"

    assert run(main).results[0] == "full"


def test_staged_reader_stats_mode():
    gen = MoleculeGenerator(6, seed=1)

    def main(ctx):
        vfs = ctx.world.vfs
        if ctx.rank == 0:
            blobs = pack_all(gen)
            write_cff(vfs, "c", blobs, n_subfiles=2, logical_scale=1.0)
        yield from ctx.comm.barrier()
        if ctx.rank != 0:
            return None
        cff = CFFReader(vfs, "c", ctx.world.machine)
        dev = NVMeDevice(ctx.engine, TEST_NVME)
        staged, t = stage_to_nvme(cff, dev, 0, ctx.now)
        stats, done = staged.read_sample_stats(3, 0, t)
        return stats

    stats = run(main).results[0]
    g = gen.make(3)
    assert (stats.n_nodes, stats.n_edges) == (g.n_nodes, g.n_edges)
    assert stats.nbytes == len(pack_graph(g))


# ---------------------------------------------------------------------------
# resharding
# ---------------------------------------------------------------------------

def _src(ctx, n=24):
    return GeneratorSource(IsingGenerator(n, seed=3), ctx.world.machine)


def test_reshard_changes_width_and_preserves_data():
    gen = IsingGenerator(24, seed=3)

    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _src(ctx))  # width=4
        new = yield from store.reshard(width=2)
        graphs = yield from new.get_samples([23, 0, 11])
        return (new.width, new.n_replicas, [g.sample_id for g in graphs], graphs[0])

    job = run(main)
    for width, replicas, ids, g in job.results:
        assert (width, replicas) == (2, 2)
        assert ids == [23, 0, 11]
        assert g.allclose(gen.make(23))


def test_reshard_releases_old_memory():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _src(ctx))
        node = ctx.world.cluster.nodes[ctx.node_index]
        before = node.mem_used_bytes
        new = yield from store.reshard(width=2)
        yield from ctx.comm.barrier()
        after = node.mem_used_bytes
        # Old chunk released, new (larger, replicated) chunk charged.
        return before, after, new.memory_bytes

    job = run(main)
    for before, after, new_bytes in job.results:
        assert after > 0
        assert new_bytes > 0


def test_reshard_to_same_width_is_identity_on_data():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _src(ctx))
        new = yield from store.reshard(width=store.width)
        a = yield from new.get_samples(range(24))
        return [g.sample_id for g in a]

    job = run(main)
    assert job.results[0] == list(range(24))


def test_reshard_takes_virtual_time_but_less_than_fs_reload():
    # Memory-to-memory redistribution must cost something, but far less
    # than re-reading the dataset from the PFS.
    def main(ctx):
        from repro.core import ReaderSource
        from repro.storage import CFFReader as R

        vfs = ctx.world.vfs
        gen = IsingGenerator(24, seed=3)
        if ctx.rank == 0:
            blobs = pack_all(gen)
            write_cff(vfs, "c", blobs, n_subfiles=2, logical_scale=1.0)
        yield from ctx.comm.barrier()
        reader = R(vfs, "c", ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, ReaderSource(reader))
        t0 = ctx.now
        new = yield from store.reshard(width=2)
        reshard_time = ctx.now - t0
        ctx.world.pfs.drop_caches()  # a fresh job would find cold caches
        t0 = ctx.now
        again = yield from DDStore.create(ctx.comm, ReaderSource(reader), width=2)
        fs_time = ctx.now - t0
        return reshard_time, fs_time

    job = run(main)
    reshard_time, fs_time = job.results[0]
    assert 0 < reshard_time < fs_time


def test_reshard_n_workers_streams_bulk_reads():
    """Loader worker counts plumb through to the reshard bulk path: more
    wire streams make the memory-to-memory shuffle faster (never slower),
    and the redistributed data is identical."""
    gen = IsingGenerator(24, seed=3)

    def main(ctx, n_workers):
        store = yield from DDStore.create(ctx.comm, _src(ctx))
        t0 = ctx.now
        new = yield from store.reshard(width=2, n_workers=n_workers)
        dt = ctx.now - t0
        graphs = yield from new.get_samples([23, 0, 11])
        return dt, [g.sample_id for g in graphs], graphs[0]

    one = run(lambda c: main(c, 1))
    four = run(lambda c: main(c, 4))
    for (dt1, ids1, g1), (dt4, ids4, g4) in zip(one.results, four.results):
        assert ids1 == ids4 == [23, 0, 11]
        assert g1.allclose(gen.make(23)) and g4.allclose(gen.make(23))
        assert dt4 <= dt1
    # Streaming must actually help somewhere (the bulk spans are large).
    assert any(f[0] < o[0] for o, f in zip(one.results, four.results))


# ---------------------------------------------------------------------------
# reshard lifecycle: single-shot shutdown, stats continuity, generations
# ---------------------------------------------------------------------------

def test_shutdown_is_single_shot():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _src(ctx))
        yield from store.shutdown()
        yield from store.shutdown()  # second call: no collective, no error
        return store._shutdown_collectives, store.closed

    job = run(main)
    assert all(r == (1, True) for r in job.results)


def test_reshard_teardown_is_exactly_one_collective():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _src(ctx))
        new = yield from store.reshard(width=2)
        after_reshard = store._shutdown_collectives
        yield from store.shutdown()  # a stray late shutdown must be a no-op
        got = yield from new.get_samples([5], decode=False)
        yield from new.shutdown()
        return after_reshard, store._shutdown_collectives, store.closed, len(got)

    job = run(main)
    for before, after, closed, n in job.results:
        assert before == after == 1
        assert closed and n == 1


def test_reshard_serves_the_old_bytes_and_closes_the_old_generation():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _src(ctx))
        old = yield from store.get_samples([3, 17], decode="raw")
        new = yield from store.reshard(width=2)
        fresh = yield from new.get_samples([3, 17], decode="raw")
        identical = [a.tobytes() for a in old] == [b.tobytes() for b in fresh]
        try:
            yield from store.get_samples([3], decode="raw")
        except StoreClosedError:
            refused = True
        else:
            refused = False
        yield from new.shutdown()
        return store._shutdown_collectives, identical, refused

    job = run(main)
    assert all(r == (1, True, True) for r in job.results)


def test_reshard_carries_stats_and_generation():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _src(ctx))
        yield from store.get_samples(range(12), decode=False)
        carried = store.stats.n_total
        new = yield from store.reshard(width=2)
        after_reshard = new.stats.n_total
        yield from new.get_samples(range(12, 24), decode=False)
        later = new.stats.n_total
        newer = yield from new.reshard(width=1)
        return (
            store.generation,
            new.generation,
            newer.generation,
            carried,
            after_reshard,
            later,
            newer.stats.n_total,
        )

    job = run(main)
    for g0, g1, g2, carried, after, later, newest in job.results:
        assert (g0, g1, g2) == (0, 1, 2)
        assert carried > 0
        assert after >= carried  # old generation's totals folded in
        assert later > after  # and the counters keep climbing, never reset
        assert newest >= later  # every generation carries the counters on


def test_reshard_metric_series_tagged_with_generation():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _src(ctx))
        yield from store.get_samples(range(8), decode=False)
        new = yield from store.reshard(width=2)
        yield from new.get_samples(range(8, 16), decode=False)
        yield from new.shutdown()
        return new.generation

    from repro.mpi.comm import World
    from repro.obs import Observer

    world = World(TESTBOX, 2, seed=0)
    world.attach_observer(Observer(trace=False))
    job = run_world(TESTBOX, 2, main, seed=0, world=world)
    assert all(g == 1 for g in job.results)
    per_gen = world.obs.metrics.sum_by("ddstore.fetch", "generation", "counter")
    gens = {g for g, _counter in per_gen}
    assert gens == {0, 1}  # one series per generation, not one merged blur
    # Sample counts land under the generation that actually served them.
    for gen in (0, 1):
        served = sum(
            v
            for (g, counter), v in per_gen.items()
            if g == gen and counter in ("n_local", "n_remote", "n_cache_hits")
        )
        assert served > 0


# ---------------------------------------------------------------------------
# redistribution byte-identity: bulk spans vs per-sample fallback
# ---------------------------------------------------------------------------

class _BlobSource:
    """Raw-bytes source with zero-size samples (degenerate span shapes)."""

    def __init__(self, blobs):
        self.blobs = list(blobs)
        self.n_samples = len(self.blobs)

    def load_chunk(self, indices, node_index, engine):
        from repro.core.preloader import PreloadResult

        yield engine.timeout(1e-6)
        bs = [self.blobs[int(i)] for i in indices]
        sizes = np.fromiter((len(b) for b in bs), dtype=np.int64, count=len(bs))
        joined = b"".join(bs)
        buf = (
            np.frombuffer(joined, dtype=np.uint8).copy()
            if joined
            else np.zeros(0, np.uint8)
        )
        return PreloadResult(buffer=buf, sizes=sizes)


def _blobs_from_sizes(sizes):
    return [bytes((i * 7 + j) % 256 for j in range(s)) for i, s in enumerate(sizes)]


def _reshard_blobs(sizes, framework):
    """Reshard a _BlobSource store 4 -> 2 and read everything back raw."""
    from repro.core import DataPlaneOptions

    blobs = _blobs_from_sizes(sizes)

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm,
            _BlobSource(blobs),
            width=4,
            dataplane=DataPlaneOptions(framework=framework),
        )
        new = yield from store.reshard(width=2)
        got = yield from new.get_samples(range(len(blobs)), decode="raw")
        yield from new.shutdown()
        return [bytes(g.tobytes()) for g in got]

    job = run(main)
    return blobs, job.results


@pytest.mark.parametrize("framework", ["mpi-rma", "p2p"])
def test_reshard_paths_byte_identical_with_zero_size_samples(framework):
    # mpi-rma redistributes via one bulk span per overlapped owner;
    # p2p cannot serve arbitrary byte spans and takes the per-sample
    # fallback.  Both must reproduce every blob exactly — including the
    # zero-size samples whose spans collapse to nothing.
    sizes = [5, 0, 3, 0, 0, 7, 1, 0, 9, 2, 0, 4, 6, 0, 8, 3]
    blobs, results = _reshard_blobs(sizes, framework)
    for got in results:
        assert got == blobs


@settings(max_examples=6, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=12), min_size=8, max_size=24)
)
def test_reshard_byte_identity_property(sizes):
    # Property over arbitrary size tables (runs on the bulk path; the
    # p2p fallback gets the same tables via the parametrized test above).
    blobs, results = _reshard_blobs(sizes, "mpi-rma")
    for got in results:
        assert got == blobs


# ---------------------------------------------------------------------------
# reshard under fault plans: the retry/failover ladder stays engaged
# ---------------------------------------------------------------------------

def _faulted_reshard(plan_name):
    from repro.core import ResilienceOptions
    from repro.faults import build_fault_plan, install_faults
    from repro.mpi.comm import World

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm,
            _src(ctx),
            resilience=ResilienceOptions(
                timeout_s=1.5e-4, max_retries=2
            ),
        )
        yield from store.get_samples(range(8), decode=False)
        new = yield from store.reshard(width=2)
        graphs = yield from new.get_samples(range(24))
        stats = new.stats  # carries the old generation's fault counters
        yield from new.shutdown()
        return graphs, stats.n_timeouts, stats.n_retries, stats.n_failovers

    world = World(TESTBOX, 2, seed=0)
    install_faults(world, build_fault_plan(plan_name, 4, seed=0))
    return run_world(TESTBOX, 2, main, seed=0, world=world)


@pytest.mark.parametrize("plan", ["straggler-10x", "blackout"])
def test_reshard_under_fault_plan_returns_identical_bytes(plan):
    gen = IsingGenerator(24, seed=3)
    job = _faulted_reshard(plan)
    for graphs, _t, _r, _f in job.results:
        assert [g.sample_id for g in graphs] == list(range(24))
        for g in graphs:
            assert g.allclose(gen.make(g.sample_id))


def test_reshard_under_straggler_engages_retry_ladder():
    # Faults change timing and engage the ladder; bytes stay correct
    # (asserted above).  The final permitted attempt runs unbounded, so
    # a slow peer degrades the reshard instead of failing it.
    job = _faulted_reshard("straggler-10x")
    timeouts = sum(t for _g, t, _r, _f in job.results)
    retries = sum(r for _g, _t, r, _f in job.results)
    assert timeouts > 0 and retries > 0
