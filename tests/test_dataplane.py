"""Data-plane layer tests: planner coalescing, sample cache, transport
table, and the DDStore integration (seed-parity counters, cache hits,
per-stage instrumentation)."""

import json
import os

import numpy as np
import pytest

from repro import client
from repro.core import (
    FRAMEWORKS,
    DataPlaneOptions,
    DDStore,
    DDStoreConfig,
    GeneratorSource,
    ServingOptions,
)
from repro.dataplane import TRANSPORTS, FetchPlanner, RmaTransport, SampleCache
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import Pieces, run_world


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


def _source(ctx, n=32, seed=0):
    return GeneratorSource(IsingGenerator(n, seed=seed), ctx.world.machine)


# ---------------------------------------------------------------------------
# FetchPlanner
# ---------------------------------------------------------------------------

def _reads(plan):
    """The plan's wire reads as ``(target, offset, nbytes)`` tuples."""
    assert plan.reads.dtype == np.int64 and plan.reads.shape == (plan.n_reads, 3)
    return [tuple(row) for row in plan.reads.tolist()]


def _slices(plan, read=None):
    """``(position, sample_offset, read_offset, nbytes)`` of every slice
    (of read ``read`` only, when given), in plan order."""
    assert plan.slices.dtype == np.int64 and plan.slices.shape[1:] == (5,)
    return [tuple(row[1:]) for row in plan.slices.tolist() if read in (None, row[0])]


def test_planner_merges_adjacent_ranges():
    plan = FetchPlanner().plan(targets=[1, 1, 1], offsets=[0, 10, 20], sizes=[10, 10, 10])
    assert plan.n_reads == 1
    assert _reads(plan) == [(1, 0, 30)]
    slices = _slices(plan, 0)
    assert [s[0] for s in slices] == [0, 1, 2]
    assert [(s[2], s[3]) for s in slices] == [(0, 10), (10, 10), (20, 10)]


def test_planner_keeps_gapped_ranges_separate():
    plan = FetchPlanner().plan(targets=[1, 1], offsets=[0, 100], sizes=[10, 10])
    assert plan.n_reads == 2
    assert _reads(plan) == [(1, 0, 10), (1, 100, 10)]


def test_planner_groups_per_target():
    # Adjacent offsets on *different* targets must not merge.
    plan = FetchPlanner().plan(targets=[1, 2, 1], offsets=[0, 10, 10], sizes=[10, 10, 10])
    assert plan.n_reads == 2
    assert np.unique(plan.reads[:, 0]).tolist() == [1, 2]
    nbytes_by_target = {t: nb for t, _off, nb in _reads(plan)}
    assert nbytes_by_target[1] == 20  # positions 0 and 2 merged
    assert nbytes_by_target[2] == 10


def test_planner_deduplicates_overlapping_requests():
    # The same sample requested twice moves its bytes once.
    plan = FetchPlanner().plan(targets=[3, 3], offsets=[40, 40], sizes=[8, 8])
    assert plan.n_reads == 1
    assert plan.total_bytes == 8
    assert sorted(s[0] for s in _slices(plan, 0)) == [0, 1]


def test_planner_splits_oversized_spans():
    plan = FetchPlanner(max_read_bytes=16).plan(
        targets=[0, 0], offsets=[0, 16], sizes=[16, 16]
    )
    assert plan.n_reads == 2
    assert all(nb == 16 for _t, _off, nb in _reads(plan))
    # One single sample bigger than the cap is also split...
    plan = FetchPlanner(max_read_bytes=10).plan(targets=[0], offsets=[0], sizes=[25])
    assert [nb for _t, _off, nb in _reads(plan)] == [10, 10, 5]
    # ...and its scatter records reassemble the full payload.
    covered = sorted((s[1], s[1] + s[3]) for s in _slices(plan))
    assert covered == [(0, 10), (10, 20), (20, 25)]
    assert plan.total_bytes == 25


def test_planner_coalesce_off_is_one_read_per_request():
    plan = FetchPlanner(coalesce=False).plan(
        targets=[1, 1, 2], offsets=[10, 0, 5], sizes=[4, 10, 6]
    )
    # Request order preserved, nothing merged.
    assert _reads(plan) == [(1, 10, 4), (1, 0, 10), (2, 5, 6)]
    assert all(
        len(_slices(plan, i)) == 1 and _slices(plan, i)[0][0] == i for i in range(plan.n_reads)
    )


def test_planner_positions_label_slices():
    plan = FetchPlanner().plan(
        targets=[1, 1], offsets=[0, 10], sizes=[10, 10], positions=[7, 3]
    )
    assert sorted(s[0] for s in _slices(plan, 0)) == [3, 7]


def test_planner_partially_overlapping_ranges_merge_once():
    # Two samples sharing bytes [5, 10): the wire moves [0, 15) once and
    # each sample scatters from its own offset within the merged read.
    plan = FetchPlanner().plan(targets=[1, 1], offsets=[0, 5], sizes=[10, 10])
    assert plan.n_reads == 1
    assert _reads(plan) == [(1, 0, 15)]
    assert plan.total_bytes == 15
    slices = sorted(_slices(plan, 0))
    assert [(s[2], s[3]) for s in slices] == [(0, 10), (5, 10)]


def test_planner_zero_length_blob():
    # A zero-byte sample still gets a (degenerate) read so its position is
    # accounted for, but moves nothing on the wire.
    plan = FetchPlanner().plan(targets=[1], offsets=[0], sizes=[0])
    assert plan.n_reads == 1
    assert _reads(plan)[0][2] == 0
    assert plan.total_bytes == 0
    assert _slices(plan, 0) == []


def test_planner_sample_spanning_many_split_reads():
    # One 19-byte sample under a 4-byte read cap: five wire reads whose
    # scatter records tile the sample exactly.
    plan = FetchPlanner(max_read_bytes=4).plan(targets=[0], offsets=[0], sizes=[19])
    assert [nb for _t, _off, nb in _reads(plan)] == [4, 4, 4, 4, 3]
    covered = sorted((s[1], s[1] + s[3]) for s in _slices(plan))
    assert covered == [(0, 4), (4, 8), (8, 12), (12, 16), (16, 19)]


def _corpus():
    path = os.path.join(os.path.dirname(__file__), "data", "planner_corpus.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", _corpus(), ids=lambda case: case["name"])
def test_planner_reproduces_the_frozen_object_planner_corpus(case):
    """``tests/data/planner_corpus.json`` holds what the per-read object
    planner (deleted in PR 21) emitted at commit 59d3716 for these inputs:
    coalesce on/off, duplicates, partial overlaps, zero-size requests,
    samples split by ``max_read_bytes``, ``fair_interleave`` and
    ``plan_batches`` windows.  The array planner must emit the same reads
    and slices in the same order."""
    planner = FetchPlanner(**case["planner"])
    if case["via"] == "plan":
        plan = planner.plan(*case["groups"][0], positions=case["positions"])
    elif case["positions"] is None:
        plan = planner.plan_batches([tuple(group) for group in case["groups"]])
    else:  # a window with labelled positions: its requests concatenated, planned as one
        requests = [np.concatenate(column) for column in zip(*case["groups"])]
        plan = planner.plan(*requests, positions=case["positions"])
    assert plan.n_requests == case["n_requests"]
    assert plan.reads.tolist() == case["reads"]
    assert plan.slices.tolist() == case["slices"]


def test_planner_empty_and_validation():
    assert FetchPlanner().plan([], [], []).n_reads == 0
    with pytest.raises(ValueError, match="equal length"):
        FetchPlanner().plan([1], [0, 1], [4])
    with pytest.raises(ValueError, match="max_read_bytes"):
        FetchPlanner(max_read_bytes=0)


# ---------------------------------------------------------------------------
# SampleCache
# ---------------------------------------------------------------------------

def test_cache_disabled_by_default():
    cache = SampleCache()
    assert not cache.enabled
    assert cache.put(1, np.ones(8, np.uint8)) is False
    assert len(cache) == 0


def test_cache_hit_miss_accounting():
    cache = SampleCache(capacity_bytes=64)
    payload = np.arange(16, dtype=np.uint8)
    assert cache.get(1) is None
    assert cache.put(1, payload) is True
    got = cache.get(1)
    assert got is not None and np.array_equal(got, payload)
    assert cache.get(2) is None  # a miss inserts nothing
    assert len(cache) == 1 and cache.used_bytes == 16


def test_cache_evicts_lru_under_byte_budget():
    cache = SampleCache(capacity_bytes=32)
    cache.put(1, np.zeros(16, np.uint8))
    cache.put(2, np.zeros(16, np.uint8))
    cache.get(1)  # refresh key 1: key 2 is now least recently used
    victims = []
    assert cache.put_owned(3, np.zeros(16, np.uint8), victims) is True
    assert 1 in cache and 3 in cache and 2 not in cache
    assert [(k, p.nbytes) for k, p in victims] == [(2, 16)]
    assert cache.used_bytes == 32


def test_cache_rejects_oversized_payload():
    cache = SampleCache(capacity_bytes=8)
    assert cache.put(1, np.zeros(9, np.uint8)) is False
    assert len(cache) == 0


def test_cache_accounts_bytes_of_non_uint8_payloads():
    # Regression: put() used to take nbytes from the *input* array but store
    # a value-cast uint8 copy — a float64 payload was billed at 1/8 of what
    # a byte-preserving store needs, and round-tripped with clipped values.
    cache = SampleCache(capacity_bytes=64)
    payload = np.array([0.5, 1e9, -3.25, 7.0], dtype=np.float64)  # 32 bytes
    assert cache.put(1, payload) is True
    assert cache.used_bytes == 32
    got = cache.get(1)
    assert got is not None and got.dtype == np.uint8 and got.nbytes == 32
    assert np.array_equal(got.view(np.float64), payload)


def test_cache_duplicate_put_refreshes_payload():
    # Regression: a duplicate-key put used to double-bill used_bytes while
    # keeping the stale payload.
    cache = SampleCache(capacity_bytes=64)
    cache.put(1, np.zeros(16, np.uint8))
    newer = np.arange(8, dtype=np.uint8)
    assert cache.put(1, newer) is True
    assert np.array_equal(cache.get(1), newer)
    assert cache.used_bytes == 8
    assert len(cache) == 1  # a refresh is not a new entry


def test_cache_eviction_keeps_stats_invariant():
    cache = SampleCache(capacity_bytes=64)
    cache.put(1, np.zeros(16, np.uint8))
    cache.put(2, np.zeros(8, np.uint8))
    victims = []
    assert cache.put_owned(3, np.zeros(64, np.uint8), victims) is True  # forces both out
    assert len(cache) == 1 and cache.used_bytes == 64
    assert [k for k, _ in victims] == [1, 2]  # inserted 3, evicted 2: one left
    assert sum(p.nbytes for _, p in victims) == 24
    # A pop is a tier move, not an eviction: the cache stays usable.
    assert cache.pop(3) is not None and cache.used_bytes == 0
    assert cache.put(4, np.zeros(4, np.uint8)) is True
    assert cache.used_bytes == 4


# ---------------------------------------------------------------------------
# transport table
# ---------------------------------------------------------------------------

def test_transport_table_names_exactly_the_frameworks():
    assert tuple(TRANSPORTS) == FRAMEWORKS
    assert all(cls.name == name for name, cls in TRANSPORTS.items())


def test_unknown_framework_error_mentions_framework():
    with pytest.raises(ValueError, match="framework"):
        DDStoreConfig(4, dataplane=DataPlaneOptions(framework="carrier-pigeon"))


def test_third_party_transport_pluggable_without_touching_store(monkeypatch):
    """The store names no transport class: a third-party transport swapped
    into the table is the fetch path of every store created afterwards."""

    class TracingRma(RmaTransport):
        fetch_reads: list = []

        def fetch(self, reads, n_streams=1):
            type(self).fetch_reads.append(len(reads))
            out = yield from super().fetch(reads, n_streams=n_streams)
            return out

    monkeypatch.setitem(TRANSPORTS, "mpi-rma", TracingRma)

    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        assert type(store.transport) is TracingRma
        lo, hi = store.local_range
        graphs = yield from store.get_samples([(hi + 1) % 32, lo])
        return [g.sample_id for g in graphs]

    job = run(main)
    assert all(len(r) == 2 for r in job.results)
    assert len(TracingRma.fetch_reads) > 0  # the table's fetch path ran


# ---------------------------------------------------------------------------
# DDStore integration: counters, parity, cache, stages
# ---------------------------------------------------------------------------

def _contiguous_remote_fetch(ctx, **create_kw):
    """Fetch the 8 contiguous samples owned by the next rank over."""
    store = yield from DDStore.create(ctx.comm, _source(ctx), **create_kw)
    lo, hi = store.local_range
    remote = [(hi + k) % 32 for k in range(8)]
    graphs = yield from store.get_samples(remote)
    return store.stats, [g.sample_id for g in graphs]


def test_coalescing_reduces_get_calls_for_contiguous_batch():
    job = run(lambda c: _contiguous_remote_fetch(c))
    for stats, _ids in job.results:
        assert stats.n_remote == 8
        # One lock epoch + one merged read instead of 8 gets.
        assert stats.n_get_calls < stats.n_remote
        assert stats.n_get_calls == 1
        # Adjacent (non-overlapping) ranges: wire bytes == logical bytes.
        assert stats.bytes_transferred == stats.bytes_remote


def test_coalesce_off_matches_one_get_per_sample():
    job = run(lambda c: _contiguous_remote_fetch(
        c, dataplane=DataPlaneOptions(coalesce=False)))
    for stats, _ids in job.results:
        assert stats.n_get_calls == stats.n_remote == 8


def test_default_config_preserves_seed_counters():
    """Cache off + coalescing on must not change what was fetched."""
    on = run(lambda c: _contiguous_remote_fetch(c)).results
    off = run(lambda c: _contiguous_remote_fetch(
        c, dataplane=DataPlaneOptions(coalesce=False))).results
    for (s_on, ids_on), (s_off, ids_off) in zip(on, off):
        assert ids_on == ids_off
        assert s_on.n_local == s_off.n_local == 0
        assert s_on.n_remote == s_off.n_remote
        assert s_on.bytes_remote == s_off.bytes_remote
        assert s_on.n_cache_hits == s_off.n_cache_hits == 0
        assert s_on.n_total == s_off.n_total == 8


def test_coalesced_fetch_returns_identical_graphs():
    gen = IsingGenerator(32, seed=0)

    def main(ctx, coalesce):
        store = yield from DDStore.create(
            ctx.comm, _source(ctx), dataplane=DataPlaneOptions(coalesce=coalesce)
        )
        order = [31, 0, 16, 5, 5, 9, 10, 11]
        graphs = yield from store.get_samples(order)
        return graphs

    a = run(lambda c: main(c, True)).results[0]
    b = run(lambda c: main(c, False)).results[0]
    for ga, gb, want in zip(a, b, [31, 0, 16, 5, 5, 9, 10, 11]):
        assert ga.sample_id == gb.sample_id == want
        assert ga.allclose(gen.make(want))


def test_sample_cache_serves_repeat_fetches():
    gen = IsingGenerator(32, seed=0)

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm, _source(ctx), dataplane=DataPlaneOptions(cache_bytes=1 << 20)
        )
        lo, hi = store.local_range
        remote = [(hi + k) % 32 for k in range(8)]
        first = yield from store.get_samples(remote)
        after_first = (store.stats.n_remote, store.stats.n_cache_hits)
        second = yield from store.get_samples(remote)
        after_second = (store.stats.n_remote, store.stats.n_cache_hits)
        return remote, first, second, after_first, after_second

    job = run(main)
    for remote, first, second, (rem1, hits1), (rem2, hits2) in job.results:
        assert (rem1, hits1) == (8, 0)
        assert rem2 == 8  # the second pass went to the cache, not the wire
        assert hits2 == 8
        for g1, g2, want in zip(first, second, remote):
            assert g1.sample_id == g2.sample_id == want
            assert g1.allclose(gen.make(want))


def test_cache_disabled_takes_no_hits():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        lo, hi = store.local_range
        remote = [(hi + k) % 32 for k in range(4)]
        yield from store.get_samples(remote)
        yield from store.get_samples(remote)
        return store.stats.n_remote, store.stats.n_cache_hits, len(store.cache)

    job = run(main)
    for n_remote, hits, cached in job.results:
        assert (n_remote, hits, cached) == (8, 0, 0)


def test_session_drr_quantum_splits_wire_reads():
    def main(ctx):
        # A session caps each read at its DRR quantum: 8 KiB holds the
        # largest Ising sample (~6.8 KiB) but not a merged 8-sample span,
        # so coalesced reads split on the wire.
        service = yield from client.serve(
            ctx.comm, _source(ctx), serving=ServingOptions(drr_quantum_bytes=8192)
        )
        session = service.connect("a")
        assert session.store.planner.max_read_bytes == 8192
        lo, hi = service.store.local_range
        remote = [(hi + k) % 32 for k in range(8)]
        graphs = yield from session.get_samples(remote)
        # The cap is the service's quantum, so a migrated session keeps it.
        yield from service.reshard(width=2)
        migrated = session.store.planner.max_read_bytes
        return session.store.stats, [g.sample_id for g in graphs], migrated

    job = run(main)
    for stats, ids, migrated in job.results:
        assert migrated == 8192
        assert len(ids) == 8
        assert stats.n_get_calls > 1  # the merged span exceeds 8 KiB
        assert stats.bytes_transferred == stats.bytes_remote


def test_fetch_stage_seconds_recorded():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        lo, hi = store.local_range
        mixed = [lo, (hi + 1) % 32, (hi + 2) % 32]
        yield from store.get_samples(mixed)
        return dict(store.stats.stage_seconds)

    job = run(main)
    for stages in job.results:
        for stage in ("plan", "get", "copy", "decode"):
            assert stages.get(stage, 0.0) > 0.0
        # An intra-node shared lock can be free in virtual time; when it
        # does cost anything, it must be accounted under "lock".
        assert stages.get("lock", 0.0) >= 0.0
        assert "cache" not in stages  # cache disabled -> no cache stage


def test_reshard_with_cache_and_coalescing():
    gen = IsingGenerator(32, seed=0)

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm, _source(ctx), dataplane=DataPlaneOptions(cache_bytes=1 << 20)
        )
        store2 = yield from store.reshard(width=2)
        assert store2.config.dataplane.cache_bytes == 1 << 20
        graphs = yield from store2.get_samples([30, 3])
        return graphs

    job = run(main)
    for graphs in job.results:
        assert graphs[0].allclose(gen.make(30))
        assert graphs[1].allclose(gen.make(3))


# ---------------------------------------------------------------------------
# up-front config validation
# ---------------------------------------------------------------------------

def test_failed_rma_fetch_closes_its_lock_epochs():
    """Regression: ``RmaTransport.fetch`` used to unlock only on success, so
    one out-of-window read left the handle holding every target (the next
    fetch died with "already holds a lock") and every window lock with a
    reader that would block an exclusive locker forever."""
    from repro.mpi import RMAError

    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        transport, win = store.transport, store.transport.win
        near, far = (ctx.rank + 1) % ctx.size, (ctx.rank + 2) % ctx.size
        bad = np.array([(far, 0, 8), (near, win.window.buffers[near].size, 8)])
        with pytest.raises(RMAError, match="exceeds window"):
            yield from transport.fetch(bad)
        held = dict(win._held)
        yield from ctx.comm.barrier()  # every rank's failed fetch is over
        readers = [lock.readers for lock in win.window.locks]
        yield from ctx.comm.barrier()
        again = yield from transport.fetch(np.array([(near, 0, 8), (far, 0, 8)]))
        return held, readers, [p.size for p in again.payloads]

    for held, readers, sizes in run(main).results:
        assert held == {}
        assert readers == [0, 0, 0, 0]
        assert sizes == [8, 8]


@pytest.mark.parametrize("width, n_groups", [(2, 2), (None, 1)])
def test_one_registry_is_built_per_replica_group(monkeypatch, width, n_groups):
    """The size (and shape) exchange is charged to every rank, but its host
    result — the flat registry — is built once per replica group and shared
    by the members."""
    from repro.core import ChunkRegistry

    built = []
    post_init = ChunkRegistry.__post_init__
    monkeypatch.setattr(
        ChunkRegistry, "__post_init__", lambda self: built.append(self) or post_init(self)
    )

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm, _source(ctx), width=width, dataplane=DataPlaneOptions(columnar=True)
        )
        allgathers = ctx.stats.count_by_call["MPI_Allgather"]
        return store.registry, store._my_group, allgathers, ctx.stats.time_by_call["MPI_Allgather"]

    results = run(main).results
    assert len(built) == n_groups
    by_group = {}
    for registry, group, allgathers, seconds in results:
        by_group.setdefault(group, registry)
        assert registry is by_group[group]  # one object per group, shared
        assert registry.shapes is not None and not registry.offsets.flags.writeable
        assert allgathers == 2 and seconds > 0  # sizes + shape rows, per rank
    assert len({id(r) for r in by_group.values()}) == n_groups == len(by_group)


def test_wave_demand_keeps_the_first_occurrence_of_each_remote_id():
    """``_remote_demand`` against the obvious loop: own and zero-size
    samples dropped, an id asked by several batches of the wave (or twice
    by one) kept where it is first asked, empty batches skipped."""
    import types

    from repro.core import ChunkLayout, ChunkRegistry
    from repro.dataplane.pipeline import _remote_demand

    rng = np.random.default_rng(5)
    sizes = rng.integers(0, 3, 64) * 100  # a third of the samples are empty
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    registry = ChunkRegistry(layout=ChunkLayout.build(64, 4), offsets=offsets)
    h = types.SimpleNamespace(registry=registry)
    batches = [rng.integers(0, 64, 24).tolist(), [], range(10, 40), rng.integers(0, 64, 24)]

    for me in range(4):
        seen, expect = set(), []
        for batch in batches:
            keep = []
            for key in batch:
                owner, _offset, nbytes = (int(a[0]) for a in registry.locate_batch([key]))
                if owner != me and nbytes and key not in seen:
                    seen.add(key)
                    keep.append(int(key))
            if len(batch):
                expect.append(keep)
        got = _remote_demand(h, batches, me)
        assert [ids.tolist() for ids, *_ in got] == expect
        for ids, owners, offs, nbytes in got:
            located = registry.locate_batch(ids)
            assert all(np.array_equal(a, b) for a, b in zip((owners, offs, nbytes), located))
    assert _remote_demand(h, [[], []], 0) == []


def test_a_bad_registry_exchange_still_fails_the_run():
    """The registry is validated where it is built — in the last member to
    arrive — and the error still comes out of ``run``: mismatched
    feature dims across members on the columnar plane, and a member whose
    size table does not match its chunk."""
    import dataclasses

    class Wider:  # an extra feature column from sample 16 on (members 2, 3)
        def __init__(self, inner):
            self.inner = inner

        def __len__(self):
            return len(self.inner)

        def make(self, i):
            g = self.inner.make(i)
            if i < 16:
                return g
            wide = np.hstack([g.node_features, g.node_features[:, :1]])
            return dataclasses.replace(g, node_features=wide)

    def mixed_dims(ctx):
        source = GeneratorSource(Wider(IsingGenerator(32, seed=0)), ctx.world.machine)
        yield from DDStore.create(ctx.comm, source, dataplane=DataPlaneOptions(columnar=True))

    with pytest.raises(ValueError, match=r"uniform feature/output dims across members"):
        run(mixed_dims)

    class Short(GeneratorSource):  # member 1 loses its last sample
        def load_chunk(self, indices, node_index, engine):
            indices = list(indices)
            if indices[0] == 8:
                indices = indices[:-1]
            return super().load_chunk(indices, node_index, engine)

    def short_table(ctx):
        yield from DDStore.create(ctx.comm, Short(IsingGenerator(32, seed=0), ctx.world.machine))

    with pytest.raises(ValueError, match=r"member 1 reported 7 sample sizes for a chunk of 8"):
        run(short_table)


def test_collective_bytes_count_what_travels():
    """``fuse`` books the value a rank contributes, not the host-side
    combine function: the registry exchange costs an allgather's bytes."""

    def main(ctx):
        yield from ctx.comm.allgather(np.zeros(5, np.int64))
        plain = ctx.stats.bytes_by_call["MPI_Allgather"]
        yield from ctx.comm.fuse(lambda _c, values: len(values), np.zeros(5, np.int64),
                                 call_name="MPI_Allgather")
        return plain, ctx.stats.bytes_by_call["MPI_Allgather"]

    assert all(r == (40, 80) for r in run(main).results)


def test_raw_blobs_are_readonly_views_of_the_one_resident_copy():
    """``get_samples(decode="raw")`` hands every sample out as a read-only
    view of its owner's window piece — local, wire and (on the second call)
    cached alike: the zero-copy is real, and safe because nothing can write
    through any handle on those bytes.  Every blob, cache entry and window
    piece refuses a write *and* refuses to be made writable; the window
    holds its at-create bytes after the run — including when the batch asks
    for one id twice."""

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm, _source(ctx), dataplane=DataPlaneOptions(cache_bytes=1 << 20)
        )
        buffers = store.transport.win.window.buffers
        assert all(isinstance(buf, Pieces) for buf in buffers.values())
        at_create = {r: b"".join(p.tobytes() for p in buf.pieces) for r, buf in buffers.items()}
        lo, hi = store.local_range
        ids = [hi % 32, lo, hi % 32, (hi + 1) % 32, (hi + 9) % 32]  # twice, local, coalesced
        owners, offsets, sizes = store.registry.locate_batch(np.asarray(ids))

        def check(blobs):
            for blob, owner, off, nb in zip(blobs, owners, offsets, sizes):
                rank = int(owner) + store._group_base
                piece = buffers[rank].whole[int(off)]  # the sample's piece of the window
                assert blob.tobytes() == at_create[rank][off : off + nb]
                assert blob.size == piece.size == nb
                assert blob.ctypes.data == piece.ctypes.data  # *the* bytes, in place

        blobs = yield from store.get_samples(ids, decode="raw")
        check(blobs)
        hits = store.stats.n_cache_hits
        again = yield from store.get_samples(ids, decode="raw")
        assert store.stats.n_cache_hits - hits == len(ids) - 1  # all but the local one
        check(again)
        cached = list(store.cache.dram._entries.values())
        assert len(cached) == 3
        pieces = [p for buf in buffers.values() for p in buf.pieces]
        for arr in [*blobs, *again, *cached, *pieces]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[:] = 0xA0
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.setflags(write=True)
        yield from ctx.comm.barrier()  # every rank has read and poked at every window
        for r, buf in buffers.items():
            assert b"".join(p.tobytes() for p in buf.pieces) == at_create[r]
        # decode= is True, False (NumPy's bool_ too) or "raw", nothing else:
        # "RAW" is not a spelling of raw that silently decodes.
        stats = yield from store.get_samples([lo], decode=np.False_)
        assert stats[0].n_nodes > 0
        for bad in ("RAW", 1, None):
            with pytest.raises(TypeError, match="decode must be"):
                yield from store.get_samples([lo], decode=bad)
        return True

    assert all(run(main).results)


def test_width_error_lists_valid_divisors():
    with pytest.raises(ValueError, match=r"must divide") as exc:
        DDStoreConfig(8, width=3)
    assert "[1, 2, 4, 8]" in str(exc.value)


def test_cache_bytes_validated():
    with pytest.raises(ValueError, match="cache_bytes"):
        DDStoreConfig(4, dataplane=DataPlaneOptions(cache_bytes=-1))


def test_experiment_config_validates_width_up_front():
    from repro.bench import ExperimentConfig

    with pytest.raises(ValueError, match="must divide"):
        ExperimentConfig(
            machine="perlmutter", n_nodes=2, method="ddstore", width=3
        )
    with pytest.raises(ValueError, match="cache_bytes"):
        ExperimentConfig(
            machine="perlmutter", n_nodes=2, method="ddstore", cache_bytes=-5
        )


def test_plan_batches_cross_batch_dedup_single_read():
    """A sample requested by two consecutive batches is planned as ONE
    wire read with one scatter slice per requesting position."""
    plan = FetchPlanner().plan_batches(
        [
            ([1, 1], [0, 64], [16, 16]),  # batch k: samples A, B
            ([1, 2], [64, 0], [16, 32]),  # batch k+1: B again, C
        ]
    )
    assert plan.n_requests == 4
    # B's byte range [64, 80) on target 1 appears in exactly one read...
    b_reads = [i for i, (t, off, _nb) in enumerate(_reads(plan)) if t == 1 and off == 64]
    assert len(b_reads) == 1
    # ...with two scatter destinations: position 1 (batch k) and 2 (k+1).
    assert sorted(s[0] for s in _slices(plan, b_reads[0])) == [1, 2]
    # Wire bytes are deduplicated: A + B + C moved once each.
    assert plan.total_bytes == 16 + 16 + 32


def test_plan_batches_coalesces_across_batch_boundary():
    """Ranges adjacent across a batch boundary merge into one read."""
    plan = FetchPlanner().plan_batches(
        [
            ([1], [0], [16]),
            ([1], [16], [16]),  # touches the previous batch's range
        ]
    )
    assert plan.n_reads == 1
    assert _reads(plan) == [(1, 0, 32)]
    assert [s[0] for s in _slices(plan, 0)] == [0, 1]


def test_plan_batches_empty_groups():
    assert FetchPlanner().plan_batches([]).n_reads == 0
    plan = FetchPlanner().plan_batches([([], [], []), ([1], [0], [8])])
    assert plan.n_reads == 1
    assert plan.n_requests == 1
