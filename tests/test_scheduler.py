"""Epoch-ahead scheduler: depth-k windows, waves, Belady cache."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CacheOptions,
    DataLoader,
    DataPlaneOptions,
    DDStore,
    DDStoreDataset,
    GeneratorSource,
    ResilienceOptions,
)
from repro.dataplane import EpochScheduler, SampleCache
from repro.faults import FaultPlan, SlowRank, install_faults
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world
from repro.mpi.comm import World
from repro.obs import Observer
from repro.sim import Engine

from .test_node_fetch import _digest


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


def _source(ctx, n=32, seed=0):
    return GeneratorSource(IsingGenerator(n, seed=seed), ctx.world.machine)


# ---------------------------------------------------------------------------
# scheduler window mechanics (stub loader on a bare engine)
# ---------------------------------------------------------------------------


class _StubStore:
    """The store fields the scheduler reads: options and a cache (off)."""

    def __init__(self, options):
        self.config = type("Config", (), {"dataplane": options})()
        self.cache = SampleCache(0)


class _StubDataset:
    stats_only = columnar = False
    arena_pool = None

    def __init__(self, store=None):
        self.store = store


class _StubLoader:
    """Loader double: records when each batch's load coroutine starts.
    With ``options`` its dataset carries a store configured by them;
    without, it has none (a file baseline)."""

    def __init__(self, engine, load_time=0.01, options=None):
        self.engine = engine
        self.load_time = load_time
        self.dataset = _StubDataset(_StubStore(options) if options else None)
        self.launches: list[tuple[tuple, float]] = []

    def load(self, idx):
        self.launches.append((tuple(idx), self.engine.now))
        yield self.engine.timeout(self.load_time)
        return tuple(idx)


def _drive(engine, sched, n, compute=0.05):
    """Trainer-loop double following the scheduler protocol."""
    consumed = []

    def loop():
        sched.start()
        for step in range(n):
            yield sched.event(step)
            consumed.append((step, engine.now))
            sched.advance(step)
            yield engine.timeout(compute)

    engine.process(loop(), name="trainer")
    engine.run()
    return consumed


def test_depth1_launches_one_batch_ahead():
    """Depth 1 reproduces the seed pipeline: batch k+1's load starts at
    the instant batch k is consumed, never earlier."""
    engine = Engine()
    loader = _StubLoader(engine)
    batches = [np.array([i]) for i in range(4)]
    sched = EpochScheduler(loader, batches, engine=engine)
    consumed = _drive(engine, sched, len(batches))

    assert [b for b, _t in loader.launches] == [(0,), (1,), (2,), (3,)]
    assert loader.launches[0][1] == 0.0
    for k in range(3):
        assert loader.launches[k + 1][1] == consumed[k][1]


def test_depth4_launches_initial_window_immediately():
    engine = Engine()
    loader = _StubLoader(engine, options=DataPlaneOptions(prefetch_depth=4))
    batches = [np.array([i]) for i in range(6)]
    sched = EpochScheduler(loader, batches, engine=engine)
    _drive(engine, sched, len(batches))

    t0_launches = [b for b, t in loader.launches if t == 0.0]
    assert t0_launches == [(0,), (1,), (2,), (3,)]


# ---------------------------------------------------------------------------
# Belady (farthest-reuse) eviction
# ---------------------------------------------------------------------------


def test_belady_evicts_farthest_reuse_lru_evicts_oldest():
    pay = np.zeros(8, dtype=np.uint8)
    lru = SampleCache(16, policy="lru")
    bel = SampleCache(16, policy="belady")
    bel.set_future([7, 5, 9, 5])  # 7 used at 0, 5 at 1 and 3, 9 at 2

    for c in (lru, bel):
        c.put(5, pay)
        c.put(7, pay)

    bel.advance_to(1)  # access 0 (key 7's only use) is in the past
    for c in (lru, bel):
        c.put(9, pay)

    assert 5 not in lru and 7 in lru  # oldest insertion evicted
    assert 7 not in bel and 5 in bel  # consumed entry evicted first


def test_belady_prefers_never_used_then_farthest():
    pay = np.zeros(8, dtype=np.uint8)
    c = SampleCache(16, policy="belady")
    c.set_future([1, 2, 1])  # key 3 never appears
    c.put(3, pay)
    c.put(1, pay)
    c.put(2, pay)  # evicts 3 (no future use), not 1 (used at 0 and 2)
    assert 3 not in c and 1 in c and 2 in c


def test_belady_without_future_degrades_to_lru():
    pay = np.zeros(8, dtype=np.uint8)
    c = SampleCache(16, policy="belady")
    c.put(1, pay)
    c.put(2, pay)
    c.put(3, pay)
    assert 1 not in c and 2 in c and 3 in c


def test_cache_rejects_unknown_policy():
    with pytest.raises(ValueError, match="policy"):
        SampleCache(16, policy="clairvoyant")


def test_scheduler_requires_cache_for_waves():
    with pytest.raises(ValueError, match="cache_bytes"):
        DataPlaneOptions(scheduler=True)


# ---------------------------------------------------------------------------
# wave prefetch through a real store
# ---------------------------------------------------------------------------


def test_prefetch_wave_cross_batch_dedup_and_counters():
    """An index repeated across two scheduled batches is fetched once;
    the demand loads then hit the cache for both destinations, and the
    FetchStats counters agree on every axis."""

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm,
            _source(ctx),
            dataplane=DataPlaneOptions(
                cache_bytes=1 << 20, scheduler=True, prefetch_depth=2
            ),
        )
        lo, hi = store.local_range
        a = [hi % 32, (hi + 1) % 32]
        b = [(hi + 1) % 32, (hi + 2) % 32]  # (hi+1) appears in both batches
        n = yield from store.prefetch_wave([a, b])
        ga = yield from store.get_samples(a)
        gb = yield from store.get_samples(b)
        return n, store.stats, [g.sample_id for g in ga], [g.sample_id for g in gb]

    job = run(main)
    for n, stats, ids_a, ids_b in job.results:
        # 4 requested slots, 3 distinct remote samples: the duplicate is
        # fetched exactly once.
        assert n == 3
        assert stats.n_prefetched == 3
        assert stats.n_prefetch_waves == 1
        # Three contiguous samples from one owner coalesce into one read.
        assert stats.n_get_calls == 1
        # Every demand fetch (both scatter destinations of the duplicate
        # included) became a cache hit; no remote demand traffic at all.
        assert stats.n_remote == 0
        assert stats.n_cache_hits == 4
        assert stats.bytes_transferred == stats.bytes_prefetched > 0
        # The payloads are the right samples, in request order.
        lo_next = (ids_a[0] // 8) * 8
        assert ids_a == [lo_next % 32, (lo_next + 1) % 32]
        assert ids_b == [(lo_next + 1) % 32, (lo_next + 2) % 32]


def test_prefetch_wave_skips_cached_and_local():
    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm,
            _source(ctx),
            dataplane=DataPlaneOptions(
                cache_bytes=1 << 20, scheduler=True, prefetch_depth=2
            ),
        )
        lo, hi = store.local_range
        remote = [hi % 32, (hi + 1) % 32]
        n1 = yield from store.prefetch_wave([remote])
        # Second wave over the same ids plus local ones: nothing to fetch.
        n2 = yield from store.prefetch_wave([remote, [lo, lo + 1]])
        return n1, n2, store.stats.n_prefetch_waves

    job = run(main)
    for n1, n2, waves in job.results:
        assert n1 == 2
        assert n2 == 0
        assert waves == 1  # the empty wave is not counted


def test_wave_scheduled_training_is_deterministic():
    """Two fresh simulations of a wave-scheduled config agree exactly."""
    from repro.bench.harness import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        machine="perlmutter",
        n_nodes=2,
        dataset="ising",
        batch_size=8,
        steps_per_epoch=3,
        epochs=2,
        prefetch_depth=4,
        scheduler=True,
        cache_bytes=1 << 22,
        cache_policy="belady",
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.elapsed == b.elapsed
    assert a.data_wait == b.data_wait
    assert a.overlap_efficiency == b.overlap_efficiency
    assert a.fetch_counters == b.fetch_counters


# ---------------------------------------------------------------------------
# the run-long window: carried across epoch boundaries vs refilled per epoch
# ---------------------------------------------------------------------------


def test_belady_future_extends_without_orphaning_the_unconsumed_tail():
    """The next epoch's accesses are appended on the same absolute clock:
    the current epoch's unconsumed tail keeps its nearer next use, where a
    replaced future would read it as never-used and evict it first."""
    pay = np.zeros(8, dtype=np.uint8)
    c = SampleCache(16, policy="belady")
    c.set_future([1, 2])  # this epoch: 1 at position 0, 2 at position 1
    c.put(2, pay)  # the unconsumed tail
    c.advance_to(1)
    c.extend_future([3, 4], start=2)  # next epoch arrives mid-epoch
    c.put(4, pay)
    c.put(3, pay)  # full: evicts 4 (used at 3), keeps 2 (used at 1)
    assert 2 in c and 3 in c and 4 not in c

    r = SampleCache(16, policy="belady")
    r.put(2, pay)
    r.set_future([3, 4])  # replacing instead orphans key 2
    r.put(4, pay)
    r.put(3, pay)
    assert 2 not in r


class _SpyLoader(DataLoader):
    """Records which epochs' schedules anyone asked for."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.asked: set[int] = set()

    def epoch_batches(self, epoch):
        self.asked.add(epoch)
        return super().epoch_batches(epoch)

    def peer_epoch_batches(self, epoch, peer_rank):
        self.asked.add(epoch)
        return super().peer_epoch_batches(epoch, peer_rank)


def _run_epochs(ctx, carried, *, columnar, policy, tiered, node_fetch, depth,
                steps, epochs, resilience):
    """The trainer's fetch loop minus the GPU, over a whole run: one
    run-long scheduler when ``carried``, a fresh one per epoch otherwise."""
    if tiered:
        cache_kw = dict(cache=CacheOptions.parse("gpu:8k+dram:16k+nvme:4m", policy=policy))
    else:
        cache_kw = dict(cache=CacheOptions.dram_only(1 << 20, policy))
    store = yield from DDStore.create(
        ctx.comm,
        _source(ctx, n=64),
        width=2,  # two replica groups: gives the ladder a failover target
        dataplane=DataPlaneOptions(
            scheduler=True,
            prefetch_depth=depth,
            columnar=columnar,
            node_fetch=node_fetch,
            **cache_kw,
        ),
        resilience=resilience,
    )
    dataset = DDStoreDataset(store)
    loader = _SpyLoader(
        dataset, ctx, batch_size=4, shuffle="global", seed=0, steps_per_epoch=steps
    )
    digests = []
    epoch_ends = []
    sched = None
    for epoch in range(epochs):
        if sched is None:
            sched = EpochScheduler(
                loader,
                loader.epoch_batches(epoch),
                engine=ctx.engine,
                obs=ctx.world.obs,
                track=ctx.rank,
                epoch=epoch,
                epochs=epochs if carried else None,
            )
        assert sched.epoch == epoch
        sched.start()
        for step in range(len(sched.batches)):
            loaded = yield sched.event(step)
            sched.advance(step)
            digests.append(_digest(loaded.batch))
            yield ctx.engine.timeout(2e-4)  # "compute" the carried head hides under
            loaded.release()
        if not sched.finish():
            sched = None
        epoch_ends.append(ctx.engine.now)
    pool = dataset.arena_pool
    return dict(
        digests=digests,
        epoch_ends=epoch_ends,
        window_live=sched is not None,
        arenas=(pool.created, len(pool._free)) if pool is not None else None,
        asked=max(loader.asked),
    )


@given(
    columnar=st.booleans(),
    policy=st.sampled_from(["lru", "belady"]),
    tiered=st.booleans(),
    node_fetch=st.booleans(),
    depth=st.sampled_from([1, 2, 8]),
    steps=st.sampled_from([1, 2, 3]),
    epochs=st.sampled_from([1, 3]),
    straggler=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_carried_window_delivers_identical_batches_and_leaves_nothing_behind(
    columnar, policy, tiered, node_fetch, depth, steps, epochs, straggler
):
    def job(carried):
        world = World(TESTBOX, 2, seed=0)
        resilience = None
        if straggler:
            install_faults(world, FaultPlan("t", (SlowRank(rank=2, multiplier=50.0),)))
            resilience = ResilienceOptions(timeout_s=2e-3, max_retries=3)
        launched = []
        spawn = world.engine.process

        def process(gen, name=""):
            proc = spawn(gen, name=name)
            if name.startswith("prefetch"):
                launched.append(proc)
            return proc

        world.engine.process = process
        out = run(
            lambda c: _run_epochs(
                c, carried, columnar=columnar, policy=policy, tiered=tiered,
                node_fetch=node_fetch, depth=depth, steps=steps, epochs=epochs,
                resilience=resilience,
            ),
            world=world,
        )
        return out, world, launched

    base, _, _ = job(False)
    carry, world, launched = job(True)
    for rank, (b, c) in enumerate(zip(base.results, carry.results)):
        assert b["digests"] == c["digests"], f"rank {rank}: batches diverge"
        assert len(c["digests"]) == steps * epochs
        assert not c["window_live"]  # the window ends with the run
        assert c["asked"] == epochs - 1  # nothing scheduled past the run
        if c["arenas"] is not None:
            assert c["arenas"][0] == c["arenas"][1]  # every arena back in its pool
    assert launched and all(p.triggered for p in launched)  # nothing in flight
    for coord in world.shared.coordinators.values():
        assert not coord.entries  # every node rendezvous closed


def test_carried_window_fetches_the_next_epoch_head_under_tail_compute():
    """The structural claim: with a known run length the next epoch's step
    0 is launched (and its wave fetched) before the current epoch's last
    batch is done computing, so only the run's first step is a cold fill."""

    def traced(carried):
        world = World(TESTBOX, 2, seed=0)
        obs = Observer(trace=True)
        world.attach_observer(obs)
        job = run(
            lambda c: _run_epochs(
                c, carried, columnar=False, policy="belady", tiered=False,
                node_fetch=False, depth=2, steps=3, epochs=3, resilience=None,
            ),
            world=world,
        )
        waves = [s for s in obs.tracer.spans if s.name == "store.prefetch_wave"]
        carried_launches = obs.metrics.sum_by("sched.carried_launches", "epoch")
        return job.results, waves, carried_launches

    results, waves, carried_launches = traced(True)
    assert set(carried_launches) == {1, 2}  # counted under the epoch they serve
    for rank, out in enumerate(results):
        for epoch in (1, 2):
            head = min(
                w.start
                for w in waves
                if w.track == rank and dict(w.args)["epoch"] == epoch
            )
            assert head < out["epoch_ends"][epoch - 1]  # fetched under the tail
    results, waves, carried_launches = traced(False)
    assert not carried_launches  # the per-epoch window never crosses a boundary
    for rank, out in enumerate(results):
        for w in waves:
            if w.track == rank and dict(w.args)["epoch"] > 0:
                assert w.start >= out["epoch_ends"][dict(w.args)["epoch"] - 1]
