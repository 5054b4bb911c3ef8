"""The one fetch pipeline, pinned from outside.

* A differential test against a trivial reference — a dict of packed
  bytes taken straight from the generator, no planner / cache /
  transport — through every sink: demand-cold, after ``prefetch_wave``
  (cache park), after a node-aggregated wave (node publish + fan-in),
  row decode and arena scatter, every cache hierarchy in both spellings,
  with and without a straggler riding the retry/failover ladder, on
  plain stores and session views — and the cache's three residency
  probes (demand hit, stats-silent wave residency, leader peek) against
  the same reference.
* ``cache_bytes=N, cache_policy=p`` and ``cache=CacheOptions("dram:N",
  policy=p)`` are one configuration: same batches, stats and virtual time.
* Two accounting regressions the pasted copies of the pipeline had:
  node waves dropped the tenant's DRR queue wait, and wave paths charged
  stages they never traced.
"""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import client
from repro.core import (
    CacheOptions,
    DataLoader,
    DataPlaneOptions,
    DDStore,
    DDStoreDataset,
    GeneratorSource,
    ReaderSource,
    ResilienceOptions,
    ServingOptions,
    StoreClosedError,
)
from repro.dataplane import FetchOutcome, FetchPlanner, pipeline
from repro.dataplane.scheduler import EpochScheduler, WaveWindow
from repro.faults import FaultPlan, SlowRank, install_faults
from repro.graphs import SAMPLE_ALLOCATIONS, BatchArena, IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import Pieces, run_world
from repro.mpi.comm import World
from repro.obs import Observer
from repro.storage import HEADER_NBYTES, CFFReader, pack_graph, unpack_graph, write_cff

N = 32  # 4 ranks x 8 samples in the default TESTBOX world
GEN = IsingGenerator(N, seed=3)
PACKED = {i: pack_graph(GEN.make(i)) for i in range(N)}
FIELDS = ("positions", "node_features", "edge_index", "y")

CACHES = {
    "lru": dict(cache_bytes=1 << 20, cache_policy="lru"),
    "lru-tight": dict(cache_bytes=6 << 10, cache_policy="lru"),  # forces eviction
    "belady": dict(cache_bytes=1 << 20, cache_policy="belady"),
    "dram": dict(cache=CacheOptions.parse("dram:6k", policy="belady")),
    "dram+nvme": dict(cache=CacheOptions.parse("dram:8k+nvme:4m")),
    "gpu+dram+nvme": dict(cache=CacheOptions.parse("gpu:4k+dram:8k+nvme:4m")),
}


class ReferenceSource:
    """The trivial reference doubling as the preload plugin: a dict of
    packed bytes, optionally with some ids emptied (zero-size samples)."""

    read_chunk_raw = None

    def __init__(self, zero_ids=()):
        self.n_samples = N
        self.blobs = {i: (b"" if i in zero_ids else PACKED[i]) for i in range(N)}

    def load_chunk(self, indices, node_index, engine):
        blobs = [np.frombuffer(self.blobs[int(i)], np.uint8) for i in indices]
        yield engine.timeout(1e-6)
        return Pieces(blobs)


def _counters(cache) -> tuple:
    """Every counter a cache keeps: its totals and each tier's."""
    return asdict(cache.stats), {tier: dict(vars(ts)) for tier, ts in cache.tier_stats.items()}


def _empty_fast_tiers(cache) -> None:
    """Move every entry out of the per-rank tiers (the node-shared NVMe
    tier keeps what was staged), so the next wave fetches again."""
    for pool in (cache.gpu, cache.dram):
        if pool is not None:
            for key in list(pool._entries):
                pool.pop(key)


def _same_graph(got, blob) -> bool:
    ref = unpack_graph(blob)
    return got.sample_id == ref.sample_id and all(
        np.array_equal(getattr(got, f), getattr(ref, f)) for f in FIELDS
    )


def _arena_matches(arena, indices, ref) -> bool:
    ptr, eptr = arena.ptr, arena.edge_ptr
    if ptr.size != len(indices) + 1:
        return False
    for p, i in enumerate(indices):
        g = unpack_graph(ref.blobs[i])
        lo, hi = int(ptr[p]), int(ptr[p + 1])
        elo, ehi = int(eptr[p]), int(eptr[p + 1])
        if not (
            int(arena.sample_ids[p]) == g.sample_id
            and np.array_equal(arena.positions[lo:hi], g.positions)
            and np.array_equal(arena.node_features[lo:hi], g.node_features)
            and np.array_equal(arena.edge_index[:, elo:ehi], g.edge_index + lo)
            and np.array_equal(arena.y[p], g.y)
        ):
            return False
    return True


def _raises_closed(gen) -> bool:
    try:
        next(gen)
    except StoreClosedError:
        return True
    return False


@given(
    base=st.lists(
        st.lists(st.integers(0, N - 1), min_size=1, max_size=6), min_size=1, max_size=3
    ),
    cache=st.sampled_from(sorted(CACHES)),
    columnar=st.booleans(),
    faults=st.booleans(),
    session=st.booleans(),
    zero_ids=st.sets(st.integers(0, N - 1), max_size=4),
)
@settings(max_examples=12, deadline=None)
def test_every_sink_matches_the_reference(base, cache, columnar, faults, session, zero_ids):
    # Zero-size samples cannot be shape-indexed or decoded: the row path
    # serves them as raw bytes, the columnar path never sees them.
    ref = ReferenceSource(() if columnar else zero_ids)
    decode = "raw" if ref.blobs != PACKED else True

    def batches_of(rank):  # a rank-invariant schedule every rank can recompute
        return [[(i + 5 * rank) % N for i in b] for b in base]

    def main(ctx):
        opts = dict(
            width=2,  # two replica groups: the ladder has a failover target
            dataplane=DataPlaneOptions(
                columnar=columnar, scheduler=True, node_fetch=True, **CACHES[cache]
            ),
            resilience=(
                ResilienceOptions(timeout_s=2e-3, max_retries=3)
                if faults
                else None
            ),
        )
        if session:
            service = yield from client.serve(
                ctx.comm, ref, serving=ServingOptions(max_tenants=2), **opts
            )
            store = service.connect("a", qos="batch").store
        else:
            store = yield from DDStore.create(ctx.comm, ref, **opts)
        batches = batches_of(ctx.rank)
        arena = BatchArena()
        problems = []

        def demand(phase):
            for idx in batches:
                before = store.stats.n_total
                if columnar:
                    yield from store.get_batch_arena(idx, arena)
                    ok = _arena_matches(arena, idx, ref)
                else:
                    got = yield from store.get_samples(idx, decode=decode)
                    ok = len(got) == len(idx) and all(
                        g.tobytes() == ref.blobs[i] if decode == "raw"
                        else _same_graph(g, ref.blobs[i])
                        for g, i in zip(got, idx)
                    )
                if not ok:
                    problems.append(f"{phase}: batch {idx} differs from the reference")
                if store.stats.n_total - before != len(idx):
                    problems.append(f"{phase}: conservation broken on batch {idx}")

        def probes():
            """Leader peek and wave residency agree with the reference and
            with each other, stats-silently; a resident id is a demand hit.
            Peek hands out the stored entry, so this also checks the cache
            holds the store's format: column bytes on a columnar store."""
            cache = store.cache
            before = _counters(cache)
            resident = []
            for i in range(N):
                blob = cache.peek(i)
                if (blob is not None) != cache.fast_resident(i):
                    problems.append(f"peek and residency disagree on {i}")
                if blob is not None:
                    want = ref.blobs[i][HEADER_NBYTES:] if columnar else ref.blobs[i]
                    if blob.tobytes() != want:
                        problems.append(f"peeked bytes of {i} differ from the reference")
                    resident.append(i)
            if _counters(cache) != before:
                problems.append("a residency probe touched the counters")
            if resident:
                hits, reads = store.stats.n_cache_hits, store.stats.n_get_calls
                if columnar:
                    yield from store.get_batch_arena(resident[-1:], arena)
                else:
                    yield from store.get_samples(resident[-1:], decode="raw")
                if (store.stats.n_cache_hits, store.stats.n_get_calls) != (hits + 1, reads):
                    problems.append(f"resident id {resident[-1]} was not a demand hit")

        yield from demand("cold")
        yield from probes()
        _empty_fast_tiers(store.cache)
        yield from store.prefetch_wave(batches)
        yield from demand("after wave")
        _empty_fast_tiers(store.cache)
        window = WaveWindow(0, (0, len(batches)), batches_of)
        yield from store.prefetch_wave(batches, window=window)
        yield from demand("after node wave")
        n_node_waves = store.stats.n_node_waves

        store.close()
        closed = (
            _raises_closed(store.get_samples(batches[0]))
            and _raises_closed(store.get_batch_arena(batches[0], arena))
            and _raises_closed(store.prefetch_wave(batches))
        )
        return problems, closed, n_node_waves

    world = World(TESTBOX, 2, seed=0)
    if faults:
        install_faults(world, FaultPlan("t", (SlowRank(rank=2, multiplier=50.0),)))
    job = run_world(TESTBOX, 2, main, world=world)
    for problems, closed, n_node_waves in job.results:
        assert not problems, problems
        assert closed, "a closed handle must raise StoreClosedError from every entry point"
        assert n_node_waves == 1  # phase (c) really took the node path
    coords = world.shared.coordinators
    assert all(not c.entries for c in coords.values()), "a node rendezvous was left open"


# ---------------------------------------------------------------------------
# written once, read as views: nothing ever writes a dataset byte
# ---------------------------------------------------------------------------

def _sha(buf) -> str:
    digest = hashlib.sha256()
    for piece in buf.pieces if isinstance(buf, Pieces) else [buf]:
        digest.update(piece)
    return digest.hexdigest()


def _resident_digests(ctx, store) -> dict:
    """sha256 of every VFS file and of every window buffer this rank can
    see (all of them over RMA, its own under the two-sided transport)."""
    out = {("file", path): _sha(f.data) for path, f in ctx.world.vfs._files.items()}
    win = getattr(store.transport, "win", None)  # the two-sided transport has none
    buffers = win.window.buffers if win is not None else {ctx.rank: store.transport.local_buffer()}
    out.update({("window", store.generation, r): _sha(buf) for r, buf in buffers.items()})
    return out


def _refuses_writes(store) -> bool:
    """Every resident dataset byte the store can reach is behind a
    read-only handle: window buffers, cache entries of every tier, NVMe
    shards."""
    cache = store.cache
    arrays = [*store.transport.local_buffer().pieces]
    win = getattr(store.transport, "win", None)
    if win is not None:
        arrays += [piece for buf in win.window.buffers.values() for piece in buf.pieces]
    for _name, pool in cache._fast:
        arrays += pool._entries.values()
    if cache.nvme is not None:
        arrays += [payload for payload, _has_header in cache.nvme._entries.values()]
    return not any(a.flags.writeable for a in arrays)


@given(
    base=st.lists(
        st.lists(st.integers(0, N - 1), min_size=1, max_size=6), min_size=2, max_size=3
    ),
    columnar=st.booleans(),
    cache=st.sampled_from([None, "dram", "gpu+dram+nvme"]),
    framework=st.sampled_from(["mpi-rma", "p2p"]),
    node_fetch=st.booleans(),
    reshard=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_nothing_ever_writes_a_dataset_byte(base, columnar, cache, framework, node_fetch, reshard):
    """Gets, cache parks, NVMe staging and VFS reads all hand out views of
    one resident copy — which is only safe if nothing writes through any
    of them.  After an epoch of demand + wave fetches (optionally across a
    reshard) every window buffer and VFS file still has its at-create
    sha256, every delivered sample equals the reference ``pack_graph``
    bytes, and every sample requested was served exactly once."""
    ref = ReferenceSource()
    scheduled = cache is not None

    def batches_of(rank):
        return [[(i + 5 * rank) % N for i in b] for b in base]

    def main(ctx):
        vfs = ctx.world.vfs
        if ctx.rank == 0:
            blobs = list(PACKED.values())
            write_cff(vfs, "ds", blobs, n_subfiles=3, logical_scale=1.0)
        yield from ctx.comm.barrier()
        reader = CFFReader(vfs, "ds", ctx.world.machine)
        store = yield from DDStore.create(
            ctx.comm,
            ReaderSource(reader),
            dataplane=DataPlaneOptions(
                framework=framework, columnar=columnar, scheduler=scheduled,
                node_fetch=node_fetch and scheduled and framework != "p2p",
                **(CACHES[cache] if scheduled else {}),
            ),
        )
        digests = _resident_digests(ctx, store)
        batches = batches_of(ctx.rank)
        arena = BatchArena()
        problems = []

        def epoch(phase, window):
            if scheduled:
                yield from store.prefetch_wave(batches, window=window)
            for idx in batches:
                before = store.stats.n_total
                if columnar:
                    yield from store.get_batch_arena(idx, arena)
                    ok = _arena_matches(arena, idx, ref)
                else:
                    got = yield from store.get_samples(idx, decode="raw")
                    ok = [g.tobytes() for g in got] == [PACKED[i] for i in idx]
                    ok = ok and not any(g.flags.writeable for g in got)
                if not ok:
                    problems.append(f"{phase}: batch {idx} differs from the reference")
                if store.stats.n_total - before != len(idx):
                    problems.append(f"{phase}: conservation broken on batch {idx}")
            if not _refuses_writes(store):
                problems.append(f"{phase}: a resident dataset byte is writable")

        window = WaveWindow(0, (0, len(batches)), batches_of) if node_fetch else None
        yield from epoch("cold", window)
        yield from epoch("warm", None)
        if reshard:
            old = store
            store = yield from old.reshard(width=2)
            digests.update(_resident_digests(ctx, store))
            yield from epoch("resharded", None)
            now = {**_resident_digests(ctx, old), **_resident_digests(ctx, store)}
        else:
            now = _resident_digests(ctx, store)
        yield from ctx.comm.barrier()  # every rank is done reading
        blob, _timing = vfs.read_timed("ds/data.0.bin", 0, 0, 8, ctx.now)
        with pytest.raises(TypeError):
            blob[0] = 0
        return problems, now == digests, len(digests)

    SAMPLE_ALLOCATIONS.reset()
    for problems, unchanged, n_digests in run_world(TESTBOX, 2, main).results:
        assert not problems, problems
        assert n_digests >= 4 + 1  # the CFF files + at least this rank's window
        assert unchanged, "a window buffer or VFS file changed after create"
    if not scheduled:  # (a wave's row blobs count too)
        # The counter counts row blobs handed out — views included, one per
        # sample whether local or wire — and nothing else.  (A p2p reshard
        # pulls each new chunk through ``get_samples``: two groups x N.)
        rows = 0 if columnar else 4 * (2 + reshard) * sum(map(len, base))
        assert SAMPLE_ALLOCATIONS.count == rows + 2 * N * (reshard and framework == "p2p")


# ---------------------------------------------------------------------------
# accounting regressions: one helper owns stage charging, spans and metrics
# ---------------------------------------------------------------------------

def _digest(batch) -> str:
    h = hashlib.sha256()
    for name in FIELDS + ("node_graph", "ptr", "sample_ids"):
        h.update(np.ascontiguousarray(getattr(batch, name)).tobytes())
    return h.hexdigest()


def _scheduled_epochs(ctx, store, seed, epochs=1, seen=None):
    """The trainer's fetch loop minus the GPU, driven by the scheduler
    (``seen`` collects a digest of every loaded batch)."""
    loader = DataLoader(DDStoreDataset(store), ctx, batch_size=4, shuffle="global", seed=seed)
    sched = None
    for epoch in range(epochs):
        if sched is None:
            sched = EpochScheduler(
                loader, loader.epoch_batches(epoch), engine=ctx.engine, epoch=epoch, epochs=epochs
            )
        sched.start()
        for step in range(len(sched.batches)):
            loaded = yield sched.event(step)
            sched.advance(step)
            if seen is not None:
                seen.append(_digest(loaded.batch))
            release = getattr(loaded, "release", None)
            if release is not None:
                release()
        if not sched.finish():
            sched = None


def test_node_wave_queue_wait_reaches_the_tenant_metric():
    """Leader and residue reads of a node wave pass through the tenant's
    lane and book "queue" seconds; ``ddstore.tenant{queue_seconds}`` must
    report them (it used to be fed a literal 0.0 on this path)."""
    opts = DataPlaneOptions(cache_bytes=1 << 20, scheduler=True, prefetch_depth=4, node_fetch=True)
    serving = ServingOptions(max_tenants=2, max_inflight_bytes=2 << 10)
    tenants = ("a", "b")

    def main(ctx):
        source = GeneratorSource(IsingGenerator(N, seed=0), ctx.world.machine)
        service = yield from client.serve(ctx.comm, source, dataplane=opts, serving=serving)
        sessions = {t: service.connect(t, qos="batch") for t in tenants}
        procs = [
            ctx.engine.process(_scheduled_epochs(ctx, sessions[t].store, seed), name=t)
            for seed, t in enumerate(tenants)
        ]
        yield ctx.engine.all_of(procs)
        return {
            t: (
                s.store.stats.stage_seconds.get("queue", 0.0),
                s.store.stats.prefetch_stage_seconds.get("queue", 0.0),
                s.store.stats.n_node_waves,
            )
            for t, s in sessions.items()
        }

    world = World(TESTBOX, 2, seed=0)
    world.attach_observer(Observer(trace=False))
    job = run_world(TESTBOX, 2, main, world=world)
    published = world.obs.metrics.sum_by("ddstore.tenant", "tenant", "counter")
    for t in tenants:
        demand_q = sum(r[t][0] for r in job.results)
        wave_q = sum(r[t][1] for r in job.results)
        assert all(r[t][2] > 0 for r in job.results)  # node waves engaged
        assert wave_q > 0  # ...and their reads really waited in the lane
        assert published[(t, "queue_seconds")] == pytest.approx(demand_q + wave_q, rel=1e-9)


@pytest.mark.parametrize("columnar", [False, True])
def test_every_charged_stage_is_traced(columnar):
    """On a traced scheduler + tiered + node_fetch cell, each priced stage's
    ``store.stage`` spans tile exactly what was charged for it — waves
    included (they used to charge plan/fetch/promote without a span)."""
    opts = DataPlaneOptions(
        columnar=columnar, scheduler=True, prefetch_depth=4, node_fetch=True,
        cache=CacheOptions.parse("dram:12k+nvme:4m"),
    )

    def main(ctx):
        source = GeneratorSource(IsingGenerator(N, seed=0), ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, source, dataplane=opts)
        yield from _scheduled_epochs(ctx, store, seed=0, epochs=3)
        return store.stats

    world = World(TESTBOX, 2, seed=0)
    world.attach_observer(Observer(trace=True))
    job = run_world(TESTBOX, 2, main, world=world)
    spans = world.obs.tracer.spans
    seen = set()
    for rank, stats in enumerate(job.results):
        for stage in ("plan", "promote", "copy", "cache", "decode", "scatter", "fanout"):
            charged = stats.stage_seconds.get(stage, 0.0) + stats.prefetch_stage_seconds.get(
                stage, 0.0
            )
            traced = sum(
                s.duration
                for s in spans
                if s.cat == "store.stage" and s.track == rank and s.name == f"store.{stage}"
            )
            assert traced == pytest.approx(charged, abs=1e-12), (rank, stage)
            if charged:
                seen.add(stage)
    expected = {"plan", "promote", "copy", "cache", "fanout", "scatter" if columnar else "decode"}
    assert seen == expected  # the cell really exercises every stage it claims to


# ---------------------------------------------------------------------------
# one cache configuration, two spellings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("served", [False, True], ids=["store", "served"])
@pytest.mark.parametrize("scheduler", [False, True], ids=["demand", "waves"])
@pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
@pytest.mark.parametrize("policy", ["lru", "belady"])
def test_the_two_cache_spellings_are_one_configuration(policy, columnar, scheduler, served):
    """``cache_bytes=N, cache_policy=p`` is ``cache=CacheOptions("dram:N",
    policy=p)``: byte-identical batches, equal ``FetchStats`` (counters,
    stage seconds and latencies) and equal virtual elapsed.  The budget holds two batches
    of a depth-4 wave, so eviction, Belady admission and the wave byte-cap
    all get exercised."""
    nbytes = 64 << 10

    def run_with(**cache_kw):
        opts = DataPlaneOptions(
            columnar=columnar, scheduler=scheduler, prefetch_depth=4 if scheduler else 1,
            **cache_kw,
        )

        def main(ctx):
            source = GeneratorSource(IsingGenerator(4 * N, seed=0), ctx.world.machine)
            if served:
                service = yield from client.serve(
                    ctx.comm, source, dataplane=opts, serving=ServingOptions(max_tenants=2)
                )
                stores = [service.connect(t, qos="batch").store for t in ("a", "b")]
            else:
                stores = [(yield from DDStore.create(ctx.comm, source, dataplane=opts))]
            seen = [[] for _ in stores]
            procs = [
                ctx.engine.process(_scheduled_epochs(ctx, store, seed, epochs=3, seen=seen[seed]))
                for seed, store in enumerate(stores)
            ]
            yield ctx.engine.all_of(procs)
            stats = [
                dict(asdict(store.stats), latencies=store.stats.latency_array().tolist())
                for store in stores
            ]
            return seen, stats, ctx.engine.now

        return run_world(TESTBOX, 2, main, world=World(TESTBOX, 2, seed=0)).results

    shorthand = run_with(cache_bytes=nbytes, cache_policy=policy)
    hierarchy = run_with(cache=CacheOptions.parse(f"dram:{nbytes}", policy=policy))
    assert shorthand == hierarchy
    assert sum(stats[0]["n_cache_hits"] for _seen, stats, _now in shorthand)  # the cache engaged


# ---------------------------------------------------------------------------
# per-sample maxima: segment reductions equal the ufunc.at loop
# ---------------------------------------------------------------------------

@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 11), st.floats(0.0, 1e3, allow_nan=False)), min_size=1, max_size=40
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_segment_max_is_maximum_at(pairs, seed):
    """Repeated positions reduce to the bits ``np.maximum.at`` leaves;
    unique positions take the one-assignment form to the same bits."""
    position = np.array([p for p, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs])
    base = np.random.default_rng(seed).random(12) * 1e3
    want = base.copy()
    np.maximum.at(want, position, values)
    got = base.copy()
    pipeline.segment_max(got, position, values, single=False)
    assert got.tobytes() == want.tobytes()
    if np.unique(position).size == position.size:
        got = base.copy()
        pipeline.segment_max(got, position, values, single=True)
        assert got.tobytes() == want.tobytes()


@given(
    sizes=st.lists(st.integers(1, 48), min_size=1, max_size=12),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=24),
    max_read_bytes=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_assemble_matches_the_maximum_at_reference(sizes, picks, max_read_bytes, seed):
    """Small ``max_read_bytes`` splits samples across reads and repeated
    picks request one sample at several positions: ``assemble`` stitches
    every sample's bytes and leaves each position the bits
    ``np.maximum.at`` does — the max over its slices' read latencies."""
    rng = np.random.default_rng(seed)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    windows = [rng.integers(0, 256, int(starts[-1]), dtype=np.uint8) for _ in range(2)]
    for window in windows:
        window.setflags(write=False)
    sample = np.array([p % len(sizes) for p in picks])
    targets = np.array([p % 2 for p in picks])
    plan = FetchPlanner(max_read_bytes=max_read_bytes).plan(
        targets, starts[sample], np.asarray(sizes)[sample]
    )
    outcome = FetchOutcome(
        payloads=[windows[t][off : off + nb] for t, off, nb in plan.reads.tolist()],
        latencies=rng.random(plan.n_reads),
    )
    latencies = rng.random(len(picks))
    want = latencies.copy()
    np.maximum.at(want, plan.slices[:, 1], outcome.latencies[plan.slices[:, 0]])
    blobs = [None] * len(picks)
    pipeline.assemble(plan, outcome, blobs, latencies)
    assert latencies.tobytes() == want.tobytes()
    for blob, t, s in zip(blobs, targets.tolist(), sample.tolist()):
        assert blob.tobytes() == windows[t][starts[s] : starts[s + 1]].tobytes()
        assert not blob.flags.writeable
