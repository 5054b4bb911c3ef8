"""Tests for the multi-tenant serving layer and the client facade.

Covers the session lifecycle (double close, fetch-after-close), the
admission controller (reject under pressure, qos validated first), DRR
arbiter/lane mechanics (per-class pools, weight-major grants, no engine
state on the uncontended path), and the cross-tenant isolation property:
concurrent tenants always receive exactly their own bytes, from private
cache partitions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import client
from repro.core import (
    CacheOptions,
    DataPlaneOptions,
    GeneratorSource,
    ServingOptions,
    StoreClosedError,
)
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world
from repro.serving import AdmissionError, DrrArbiter, TenantLane
from repro.sim import Engine


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


def _source(ctx, n=32, seed=0):
    return GeneratorSource(IsingGenerator(n, seed=seed), ctx.world.machine)


def _serve(ctx, serving=None, n=32, **kw):
    return client.serve(ctx.comm, _source(ctx, n=n), serving=serving, **kw)


# ---------------------------------------------------------------------------
# session lifecycle
# ---------------------------------------------------------------------------

def test_served_session_fetches_then_service_close_closes_it_and_the_store():
    gen = IsingGenerator(32, seed=0)

    def main(ctx):
        service = yield from _serve(ctx)
        session = service.connect("a")
        graphs = yield from session.get_samples([3, 17])
        ok = graphs[0].allclose(gen.make(3)) and graphs[1].allclose(gen.make(17))
        service.close()
        return ok, session.store.closed, service.store.closed

    job = run(main)
    for ok, sess_closed, store_closed in job.results:
        assert ok
        assert sess_closed and store_closed  # the service owns the store


def test_session_close_is_idempotent_and_keeps_the_store_open():
    def main(ctx):
        service = yield from _serve(ctx)
        session = service.connect("a")
        session.close()
        session.close()  # double close: a no-op, not an error
        return session.store.closed, service.store.closed, service.connect("a").name

    job = run(main)
    for sess_closed, store_closed, reconnected in job.results:
        assert sess_closed
        assert not store_closed  # closing a session never closes the store
        assert reconnected == "a"  # the closed session freed its name


def test_fetch_after_close_raises_store_closed():
    def main(ctx):
        service = yield from _serve(ctx)
        session = service.connect("a")
        session.close()
        try:
            yield from session.get_samples([0])
        except StoreClosedError:
            ok_fetch = True
        else:
            ok_fetch = False
        try:
            with session:
                pass
        except StoreClosedError:
            ok_enter = True
        else:
            ok_enter = False
        return ok_fetch, ok_enter

    job = run(main)
    assert all(r == (True, True) for r in job.results)


def test_service_close_closes_every_session_and_the_store():
    def main(ctx):
        service = yield from _serve(ctx)
        a, b = service.connect("a"), service.connect("b")
        service.close()
        return a.store.closed, b.store.closed, service.store.closed

    job = run(main)
    assert all(r == (True, True, True) for r in job.results)


def test_tenant_names_must_be_unique_among_live_sessions():
    def main(ctx):
        service = yield from _serve(ctx)
        a = service.connect("a")
        try:
            service.connect("a")
        except ValueError:
            dup_rejected = True
        else:
            dup_rejected = False
        a.close()
        reusable = service.connect("a") is not None  # freed name is reusable
        return dup_rejected, reusable

    job = run(main)
    assert all(r == (True, True) for r in job.results)


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

def test_admission_reject_when_full():
    def main(ctx):
        service = yield from _serve(ctx, ServingOptions(max_tenants=2))
        service.connect("a")
        service.connect("b")
        try:
            service.connect("c")
        except AdmissionError as e:
            return str(e)
        return None

    job = run(main)
    for msg in job.results:
        assert msg is not None and "rejected" in msg and "2" in msg


def test_full_service_rejects_without_closing_an_idle_tenant():
    def main(ctx):
        service = yield from _serve(ctx, ServingOptions(max_tenants=2))
        a = service.connect("a")
        yield ctx.engine.timeout(1.0)  # a sits idle for a long while
        b = service.connect("b")
        yield from b.get_samples([0], decode=False)
        try:
            service.connect("c")
        except AdmissionError:
            return a.store.closed, b.store.closed
        return None

    job = run(main)
    assert all(r == (False, False) for r in job.results)


def test_unknown_qos_class_is_a_key_error():
    def main(ctx):
        service = yield from _serve(ctx)
        try:
            service.connect("a", qos="platinum")
        except KeyError as e:
            return "platinum" in str(e)
        return False

    job = run(main)
    assert all(job.results)


def _observed(main):
    from repro.mpi.comm import World
    from repro.obs import Observer

    world = World(TESTBOX, 2, seed=0)
    world.attach_observer(Observer(trace=False))
    job = run_world(TESTBOX, 2, main, seed=0, world=world)
    return job, world.obs.metrics


def test_unknown_qos_on_a_full_service_books_no_rejection():
    def main(ctx):
        service = yield from _serve(ctx, ServingOptions(max_tenants=1))
        service.connect("a")
        try:
            service.connect("b", qos="platinum")
        except KeyError as e:
            return "platinum" in str(e)
        return False

    job, metrics = _observed(main)
    assert all(job.results)
    counters = metrics.sum_by("ddstore.tenant", "counter")
    assert "session_rejected" not in counters
    assert counters["session_connected"] == 4  # one tenant on each rank


def test_unknown_qos_does_not_consume_an_auto_tenant_name():
    def main(ctx, named):
        service = yield from _serve(ctx)
        if named:
            service.connect(named)
        first = service.connect().name
        try:
            service.connect(qos="platinum")
        except KeyError:
            pass
        return first, service.connect().name

    # An auto name is the first ``tenant<N>`` no live session holds, so it
    # steps over a live tenant that was named explicitly.
    for named, expected in ((None, ("tenant0", "tenant1")), ("tenant1", ("tenant0", "tenant2"))):
        job = run(lambda ctx: main(ctx, named))
        assert all(r == expected for r in job.results)


# ---------------------------------------------------------------------------
# cross-tenant isolation
# ---------------------------------------------------------------------------

def test_concurrent_tenants_get_exactly_their_own_bytes():
    n = 32
    gen = IsingGenerator(n, seed=0)

    def main(ctx):
        service = yield from _serve(
            ctx,
            ServingOptions(
                max_tenants=3,
                qos=(("interactive", 4), ("batch", 1)),
                drr_quantum_bytes=4 << 10,
                target_inflight_bytes=8 << 10,
                max_inflight_bytes=64 << 10,
            ),
            n=n,
        )
        specs = [("t0", "interactive"), ("t1", "batch"), ("t2", "batch")]
        sessions = {name: service.connect(name, qos=qos) for name, qos in specs}
        out = {}

        def job_(name, session, seed):
            rng = np.random.default_rng(seed)
            got = []
            for _ in range(4):
                idx = rng.integers(0, n, size=6)
                graphs = yield from session.get_samples(idx)
                got.append((idx, graphs))
            out[name] = got

        procs = [
            ctx.engine.process(job_(name, sessions[name], i), name=name)
            for i, (name, _qos) in enumerate(specs)
        ]
        yield ctx.engine.all_of(procs)
        ok = all(
            g.sample_id == int(i) and g.allclose(gen.make(int(i)))
            for got in out.values()
            for idx, graphs in got
            for i, g in zip(idx, graphs)
        )
        caches = [sessions[name].store.cache for name, _ in specs]
        distinct = len({id(c) for c in caches}) == len(caches)
        return ok, distinct

    job = run(main)
    assert all(r == (True, True) for r in job.results)


@pytest.mark.parametrize(
    "dataplane, policy",
    [
        (DataPlaneOptions(cache_bytes=1 << 20), "lru"),
        (DataPlaneOptions(cache_bytes=1 << 20, cache_policy="belady"), "belady"),
        # The hierarchy carries its own policy; ``cache_policy`` stays "lru".
        (DataPlaneOptions(cache=CacheOptions.parse("dram:1m+nvme:4m", policy="belady")), "belady"),
    ],
    ids=["cache_bytes", "cache_bytes-belady", "cache-belady"],
)
def test_cache_partitions_are_private_and_sized_by_policy(dataplane, policy):
    def main(ctx):
        opts = ServingOptions(max_tenants=2, qos=(("interactive", 4), ("batch", 1)))
        service = yield from _serve(ctx, opts, dataplane=dataplane)
        a = service.connect("a", qos="interactive")
        b = service.connect("b", qos="batch")
        yield from a.get_samples([0, 1], decode=False)
        return (
            a.store.cache.dram.capacity_bytes,
            b.store.cache.dram.capacity_bytes,
            a.store.cache is not b.store.cache,
            len(b.store.cache) == 0,  # a's fetches never land in b's partition
            {service.store.cache.policy, a.store.cache.policy, b.store.cache.policy},
        )

    job = run(main)
    for cap_a, cap_b, distinct, b_empty, policies in job.results:
        # every slot gets budget / max_tenants, whatever its class
        assert cap_a == cap_b == (1 << 20) // 2
        assert distinct and b_empty
        assert policies == {policy}  # one resolved policy, parent and partitions


def test_tenant_metrics_partition_the_wire_bytes():
    def main(ctx):
        service = yield from _serve(ctx)
        a, b = service.connect("a"), service.connect("b")
        yield from a.get_samples(range(8), decode=False)
        yield from b.get_samples(range(8, 16), decode=False)
        return (a.store.stats.n_local + a.store.stats.n_remote,
                b.store.stats.n_local + b.store.stats.n_remote)

    job, metrics = _observed(main)
    assert all(r == (8, 8) for r in job.results)
    per_tenant = metrics.sum_by("ddstore.tenant", "tenant", "counter")
    assert per_tenant[("a", "n_samples")] == 8 * 4  # every rank fetched 8
    assert per_tenant[("b", "n_samples")] == 8 * 4
    assert per_tenant[("a", "wire_bytes")] > 0
    assert per_tenant[("b", "wire_bytes")] > 0


# ---------------------------------------------------------------------------
# DRR arbiter / lane mechanics (engine-level unit tests)
# ---------------------------------------------------------------------------

class _Read:
    def __init__(self, target, nbytes):
        self.target = target
        self.nbytes = nbytes


def test_uncontended_acquire_touches_no_engine_state():
    engine = Engine()
    arb = DrrArbiter(engine, quantum_bytes=1024)
    # An uncontended acquire completes synchronously: the generator
    # yields nothing, schedules nothing.
    assert list(arb.acquire("a", 1, 512, "interactive", 1024)) == []
    assert arb.inflight["interactive"] == 512
    arb.release(512, "interactive")
    assert arb.inflight["interactive"] == 0


def test_per_class_pools_isolate_the_latency_class():
    engine = Engine()
    arb = DrrArbiter(engine, quantum_bytes=1024)
    order = []

    def batch(name):
        yield from arb.acquire(name, 1, 1024, "batch", 1024)
        order.append(name)

    def interactive():
        yield from arb.acquire("fg", 4, 512, "interactive", 1024)
        order.append("fg")

    # Saturate the batch pool, then queue one more batch tenant behind it.
    engine.process(batch("bg0"))
    engine.process(batch("bg1"))
    # The interactive class has its own pool: it must be granted
    # immediately even though the batch class is saturated and queued.
    engine.process(interactive())
    engine.run()
    assert order[:2] == ["bg0", "fg"]  # fg never waits behind bg1
    assert arb.inflight["interactive"] == 512


def test_drr_grants_are_weight_major_within_a_class():
    engine = Engine()
    arb = DrrArbiter(engine, quantum_bytes=1024)
    granted = []

    def tenant(name, weight, nbytes):
        yield from arb.acquire(name, weight, nbytes, "batch", 1024)
        granted.append(name)

    def scenario():
        # Saturate the pool so both contenders queue, low-weight first.
        yield from arb.acquire("hold", 1, 1024, "batch", 1024)
        engine.process(tenant("light", 1, 512))
        engine.process(tenant("heavy", 4, 512))
        yield engine.timeout(1.0)
        arb.release(1024, "batch")  # frees the pool: one pump, both fit

    engine.process(scenario())
    engine.run()
    assert granted == ["heavy", "light"]  # weight 4 outranks weight 1


def test_oversized_request_is_admitted_alone_not_starved():
    engine = Engine()
    arb = DrrArbiter(engine, quantum_bytes=64)
    done = []

    def whale():
        yield from arb.acquire("whale", 1, 10_000, "batch", 1024)
        done.append("whale")

    engine.process(whale())
    engine.run()
    assert done == ["whale"]  # larger than the whole pool, still granted


def test_interactive_grant_is_immediate_while_batch_is_backlogged():
    """The non-blocking grant is per class: a batch backlog at the target
    must not push an interactive read (own pool empty) through an Event
    and a pump."""
    engine = Engine()
    arb = DrrArbiter(engine, quantum_bytes=1024)
    assert arb.try_acquire(1024, "batch", 1024)  # saturate the batch pool
    engine.process(arb.acquire("bg", 1, 1024, "batch", 1024))  # ...and queue behind it
    engine.run()
    scheduled = engine._seq
    assert list(arb.acquire("fg", 4, 512, "interactive", 1024)) == []  # no Event
    assert engine._seq == scheduled and arb.inflight["interactive"] == 512


def test_non_blocking_grant_never_barges_its_own_class():
    engine = Engine()
    arb = DrrArbiter(engine, quantum_bytes=1024)
    order = []

    def queued():
        yield from arb.acquire("first", 1, 800, "batch", 1024)
        order.append("first")

    assert arb.try_acquire(1024, "batch", 1024)
    engine.process(queued())
    engine.run()
    arb.release(512, "batch")  # 512 in flight: a 400-byte read would fit...
    assert not arb.try_acquire(400, "batch", 1024)  # ...but "first" is ahead of it
    arb.release(512, "batch")
    engine.run()
    assert order == ["first"] and arb.try_acquire(200, "batch", 1024)


def _lane(engine, arbiter_for, cap=None, share=None, tenant="t"):
    return TenantLane(tenant, 1, engine, arbiter_for, max_inflight_bytes=cap,
                      qos="batch", target_share=share)


def test_lane_grants_what_is_grantable_and_waits_holding_nothing():
    engine = Engine()
    arbiters = {t: DrrArbiter(engine, quantum_bytes=1 << 20) for t in range(3)}
    lane = _lane(engine, arbiters.__getitem__, share=1000)
    other = _lane(engine, arbiters.__getitem__, share=1000, tenant="other")
    log = []

    def blocker():  # saturates targets 0 and 1 for a while
        held = yield from other.acquire({0: 1000, 1: 1000})
        yield engine.timeout(1.0)
        other.release(held)

    def fetcher():
        first = yield from lane.acquire({0: 600, 1: 600, 2: 600})
        log.append((engine.now, dict(first), dict(lane.held)))
        lane.release(first)  # that sub-fetch "landed" at once
        # Nothing left is grantable: queue on ONE arbiter, holding nothing.
        second = yield from lane.acquire({0: 600, 1: 600})
        log.append((engine.now, dict(second), dict(lane.held)))
        lane.release(second)

    engine.process(blocker())
    engine.process(fetcher())
    engine.run(until=0.5)
    assert log == [(0.0, {2: 600}, {2: 600})]  # only the free target was taken
    assert lane.held == {} and lane.inflight == 0  # blocked, and holding nothing
    assert [len(a._queues) for a in arbiters.values()] == [1, 0, 0]
    engine.run()
    # Woken by target 0's release; target 1 freed at the same instant and is
    # swept up by the same grant round.
    assert log[1] == (1.0, {0: 600, 1: 600}, {0: 600, 1: 600})
    assert lane.queue_seconds == 1.0
    assert all(not a.leaks() for a in arbiters.values()) and not lane.leaks()


def test_lane_per_tenant_cap_queues_and_wakes():
    engine = Engine()
    arb = DrrArbiter(engine, quantum_bytes=1 << 20)
    lane = _lane(engine, lambda target: arb, cap=1024)
    order = []

    def a():
        held = yield from lane.acquire({0: 800})
        order.append("a")
        yield engine.timeout(1.0)
        lane.release(held)

    def b():
        held = yield from lane.acquire({0: 800})  # 800+800 > 1024: must wait for a
        order.append("b")
        lane.release(held)

    engine.process(a())
    engine.process(b())
    engine.run()
    assert order == ["a", "b"]
    assert lane.inflight == 0
    assert lane.queue_seconds > 0  # b's wait was accounted


def test_lane_cap_admits_an_oversized_head_and_splits_the_rest():
    engine = Engine()
    arbiters = {}

    def arbiter_for(target):
        return arbiters.setdefault(target, DrrArbiter(engine, quantum_bytes=1 << 20))

    lane = _lane(engine, arbiter_for, cap=1000)
    rounds = []

    def go():
        want = {0: 5000, 1: 400, 2: 400}
        while want:
            held = yield from lane.acquire(want)
            rounds.append(dict(held))
            for target in held:
                del want[target]
            lane.release(held)

    engine.process(go())
    engine.run()
    # The head exceeds the cap alone and is admitted alone (never starved);
    # the rest fits under the cap together.
    assert rounds == [{0: 5000}, {1: 400, 2: 400}]


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 4096)), min_size=1, max_size=8
    )
)
@settings(max_examples=25, deadline=None)
def test_lane_release_always_restores_arbiter_inflight(reads):
    engine = Engine()
    arbiters = {}

    def arbiter_for(target):
        return arbiters.setdefault(target, DrrArbiter(engine, quantum_bytes=1 << 30))

    lane = _lane(engine, arbiter_for, share=2048)
    want = {}
    for target, nbytes in reads:
        want[target] = want.get(target, 0) + nbytes

    def go():
        lane.enter()
        while want:
            held = yield from lane.acquire(want)
            assert lane.held == held
            for target in held:
                del want[target]
            lane.release(held)
        lane.leave()

    engine.process(go())
    engine.run()
    assert lane.inflight == 0 and not lane.leaks()
    assert all(not arb.leaks() for arb in arbiters.values())


def test_target_share_partitions_by_weight():
    opts = ServingOptions(
        qos=(("interactive", 4), ("batch", 1)), target_inflight_bytes=1000
    )
    assert opts.target_share("interactive") == 800
    assert opts.target_share("batch") == 200
    assert ServingOptions(target_inflight_bytes=None).target_share("batch") is None


def test_a_plain_store_has_no_lane_or_tenant_labels():
    def main(ctx):
        from repro.core import DDStore

        store = yield from DDStore.create(ctx.comm, _source(ctx))
        graphs = yield from store.get_samples([5], decode=False)
        return store._lane, store._tenant, store._qos, len(graphs)

    job = run(main)
    assert all(r == (None, None, None, 1) for r in job.results)


# ---------------------------------------------------------------------------
# live-session reshard: atomic migration regression
# ---------------------------------------------------------------------------

def test_service_reshard_migrates_live_sessions_atomically():
    """Regression for the live-session reshard bug: resharding under a
    running StoreService used to leave every session pointing at the
    closed old store, so the next fetch died with StoreClosedError.
    Migration must carry each tenant's stats, cache partition, and DRR
    lane onto the new generation."""
    gen = IsingGenerator(32, seed=0)

    def main(ctx):
        service = yield from _serve(ctx)
        a, b = service.connect("a", qos="interactive"), service.connect("b")
        yield from a.get_samples(range(8), decode=False)
        yield from b.get_samples(range(8, 16), decode=False)
        old_a, old_b = a.store, b.store
        pre_a, pre_b = a.store.stats.n_total, b.store.stats.n_total
        new = yield from service.reshard(width=2)

        same_stats = a.store.stats is old_a.stats and b.store.stats is old_b.stats
        same_cache = a.store.cache is old_a.cache
        same_lane = a.lane is a.store._lane and a.lane.tenant == "a"
        old_dead = old_a.closed and old_b.closed
        try:
            yield from old_a.get_samples([0], decode=False)
            old_raises = False
        except StoreClosedError:
            old_raises = True

        # Post-migration fetches run against the new generation, and the
        # per-tenant counters keep climbing from their old totals.
        graphs = yield from a.get_samples(range(16, 24))
        bytes_ok = all(g.allclose(gen.make(g.sample_id)) for g in graphs)
        yield from b.get_samples(range(24, 32), decode=False)
        return (
            service.store is new,
            new.generation,
            a.store.generation,
            same_stats,
            same_cache,
            same_lane,
            old_dead,
            old_raises,
            bytes_ok,
            a.store.stats.n_total - pre_a,
            b.store.stats.n_total - pre_b,
        )

    job = run(main)
    for repointed, gen_new, gen_view, stats, cache, lane, dead, raises, ok, da, db in job.results:
        assert repointed
        assert gen_new == 1 and gen_view == 1
        assert stats and cache and lane
        assert dead and raises
        assert ok
        assert da == 8 and db == 8  # counters monotone, never reset


def test_service_reshard_on_closed_service_raises():
    import pytest

    def main(ctx):
        service = yield from _serve(ctx)
        yield from service.store.shutdown()
        service.close()
        return service

    job = run(main)
    for service in job.results:
        with pytest.raises(ValueError, match="closed StoreService"):
            next(service.reshard(width=2), None)
