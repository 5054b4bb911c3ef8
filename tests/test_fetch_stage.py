"""The fetch stage under contention: admission tracks the wire.

World-level tests of ``pipeline.fetch`` behind tenant lanes — a grant is
held only for bytes that are on the wire (no hold-and-wait convoy), a
session between two sub-fetches is still busy (quiesce / evict / reshard
wait for it), a failing sub-fetch gives back exactly what it held, leaked
grants are loud at shutdown, the queue accounting still tiles a fetch
that was split, and the whole thing replays bit for bit.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import client
from repro.core import (
    DataPlaneOptions,
    GeneratorSource,
    ResilienceOptions,
    ServingOptions,
)
from repro.dataplane import FetchOutcome, FetchTimeoutError
from repro.faults import FaultPlan, SlowRank, install_faults
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world
from repro.mpi.comm import World
from repro.obs import Observer
from repro.storage import pack_graph

N = 64
SAMPLE_BYTES = 6836  # every packed Ising sample
SLOW_RANK = 3
TENANTS = (("dash", "interactive"), ("bulk1", "batch"), ("bulk2", "batch"))

#: Per-target pools of 4 (interactive) and 2 (batch) samples: two bulk
#: tenants per rank, on four ranks, saturate every target's batch pool.
TIGHT = ServingOptions(
    max_tenants=3,
    drr_quantum_bytes=2 * SAMPLE_BYTES,
    target_inflight_bytes=10 * SAMPLE_BYTES,
)


def _world(slow=True, trace=None):
    world = World(TESTBOX, 2, seed=0)  # 4 ranks = 4 RMA targets
    if slow:
        install_faults(world, FaultPlan("slow", (SlowRank(rank=SLOW_RANK, multiplier=10.0),)))
    if trace is not None:
        world.attach_observer(Observer(trace=trace))
    return world


def _serve(ctx, **kw):
    source = GeneratorSource(IsingGenerator(N, seed=0), ctx.world.machine)
    kw.setdefault("serving", TIGHT)
    return client.serve(ctx.comm, source, **kw)


def _batches(ctx, t_index, batch, steps):
    rng = np.random.default_rng((7, t_index, ctx.rank))
    return [rng.integers(0, N, size=batch) for _ in range(steps)]


def _tenant_job(ctx, session, t_index, out, steps=4):
    """A closed loop of raw fetches; keeps every payload for the byte check."""
    batch = 4 if session.qos == "interactive" else 16
    got = out.setdefault(session.name, [])
    for idx in _batches(ctx, t_index, batch, steps):
        blobs = yield from session.get_samples(idx, decode="raw")
        got.append((idx, [b.tobytes() for b in blobs]))
        yield ctx.engine.timeout(1e-5)


def _bytes_ok(out) -> bool:
    gen = IsingGenerator(N, seed=0)
    ref = [bytes(pack_graph(gen.make(i))) for i in range(N)]
    return all(
        blob == ref[int(i)]
        for got in out.values()
        for idx, blobs in got
        for i, blob in zip(idx, blobs)
    )


# ---------------------------------------------------------------------------
# (i) no convoy: a grant only for bytes that are on the wire
# ---------------------------------------------------------------------------

def test_grants_cover_exactly_the_reads_on_the_wire():
    """3 tenants x 4 targets, one target 10x slow.  At every instant each
    lane holds grants on exactly the targets it has a sub-fetch outstanding
    to, for exactly those bytes, and every arbiter's class pool holds
    exactly the bytes issued toward its target — so a session queued for
    the slow target pins nothing on the healthy ones."""
    lanes = []  # (lane, outstanding: target -> bytes) world-wide
    arbiters = {}
    problems = []
    samples = [0]

    def check(engine):
        samples[0] += 1
        issued = {}
        for lane, outstanding in lanes:
            if lane.held != outstanding:
                problems.append((engine.now, lane.tenant, dict(lane.held), dict(outstanding)))
            for target, nbytes in outstanding.items():
                key = (target, lane.qos)
                issued[key] = issued.get(key, 0) + nbytes
        for target, arb in arbiters.items():
            for cls, nbytes in arb.inflight.items():
                if nbytes != issued.get((target, cls), 0):
                    problems.append((engine.now, "pool", target, cls, nbytes))

    def watch(store, lane):
        outstanding = {}
        lanes.append((lane, outstanding))
        inner = store.transport.fetch

        def fetch(reads, n_streams=1, timeout_s=None):
            for target, _offset, nbytes in reads.tolist():
                outstanding[target] = outstanding.get(target, 0) + nbytes
            check(store.comm.engine)
            try:
                return (yield from inner(reads, n_streams=n_streams))
            finally:
                for target, _offset, nbytes in reads.tolist():
                    outstanding[target] -= nbytes
                    if not outstanding[target]:
                        del outstanding[target]

        store.transport.fetch = fetch

    def sampler(engine, done):
        while not done.triggered:
            check(engine)
            yield engine.timeout(2e-6)

    def main(ctx):
        service = yield from _serve(ctx)
        arbiters.update(service._arbiters)
        sessions = [service.connect(name, qos=qos) for name, qos in TENANTS]
        for s in sessions:
            watch(s.store, s.lane)
        out = {}
        yield from ctx.comm.barrier()
        procs = [
            ctx.engine.process(_tenant_job(ctx, s, i, out)) for i, s in enumerate(sessions)
        ]
        done = ctx.engine.all_of(procs)
        if ctx.rank == 0:
            ctx.engine.process(sampler(ctx.engine, done))
        yield done
        queued = sum(s.lane.queue_seconds for s in sessions)
        yield from ctx.comm.barrier()
        arbiters.update(service._arbiters)
        service.close()
        return _bytes_ok(out), queued

    job = run_world(TESTBOX, 2, main, world=_world())
    assert all(ok for ok, _ in job.results)
    assert sum(q for _, q in job.results) > 0  # the pools really were contended
    assert samples[0] > 1000 and len(arbiters) == 4
    assert problems == []


# ---------------------------------------------------------------------------
# "idle" means "no fetch inside the lane"
# ---------------------------------------------------------------------------

def test_reshard_waits_for_a_wave_queued_behind_a_saturated_pool():
    """A reshard issued while a bulk fetch is queued — zero bytes on the
    wire, but mid-fetch — must wait for it: quiescing (or evicting) it on
    'no bytes in flight' would close the store under the fetch."""

    def main(ctx):
        service = yield from _serve(ctx, dataplane=DataPlaneOptions(cache_bytes=1 << 20))
        old = service.store
        sessions = [service.connect(name, qos="batch") for name in ("bulk1", "bulk2")]
        out = {}
        yield from ctx.comm.barrier()
        procs = [
            ctx.engine.process(_tenant_job(ctx, s, i, out, steps=2))
            for i, s in enumerate(sessions)
        ]
        seen_queued = False
        while not seen_queued and not all(p.triggered for p in procs):
            yield ctx.engine.timeout(1e-6)
            seen_queued = any(s.lane.inflight == 0 and s.lane.active for s in sessions)
        # Everybody agrees to reshard now; this rank has a fetch queued.
        t0 = ctx.now
        new = yield from service.reshard(width=2)
        mid_fetch_at_reshard = any(not p.triggered for p in procs)  # they kept going after
        yield ctx.engine.all_of(procs)
        return (
            seen_queued,
            _bytes_ok(out),
            old._shutdown_collectives,
            old.closed and not new.closed,
            all(s.store.generation == 1 for s in sessions),
            ctx.now - t0 > 0,
            mid_fetch_at_reshard,
        )

    job = run_world(TESTBOX, 2, main, world=_world(slow=False))
    for seen_queued, ok, shutdowns, swapped, migrated, waited, _ in job.results:
        assert ok  # byte-identical batches, before, across and after the reshard
        assert shutdowns == 1  # exactly one shutdown collective
        assert swapped and migrated and waited
    assert any(r[0] for r in job.results)  # some rank really had a queued fetch


def test_quiesce_waits_on_the_lane_not_on_a_poll():
    def main(ctx):
        service = yield from _serve(ctx)
        a = service.connect("a", qos="batch")
        waited0 = yield from service.quiesce()  # nothing to wait for: no event at all
        out = {}
        proc = ctx.engine.process(_tenant_job(ctx, a, 0, out, steps=1))
        while not a.lane.active:  # past the plan stage, into the lane
            yield ctx.engine.timeout(1e-7)
        scheduled = ctx.engine._seq
        waited = yield from service.quiesce()
        return waited0, waited, proc.triggered or not a.lane.active, ctx.engine._seq - scheduled

    for waited0, waited, drained, events in run_world(TESTBOX, 1, main).results:
        assert waited0 == 0.0 and waited > 0 and drained
        # One wake-up when the lane drains — not a timeout every 1e-5 s
        # (everything else scheduled meanwhile is the fetch itself, on both ranks).
        assert events < waited / 1e-5


# ---------------------------------------------------------------------------
# the exception path and the shutdown leak check
# ---------------------------------------------------------------------------

class _Boom(RuntimeError):
    pass


def test_a_failing_sub_fetch_releases_exactly_what_it_held():
    def main(ctx):
        service = yield from _serve(ctx)
        a, b = service.connect("a", qos="batch"), service.connect("b", qos="batch")
        inner = a.store.transport.fetch
        calls = []

        def fetch(reads, n_streams=1, timeout_s=None):
            calls.append(np.unique(reads[:, 0]).tolist())
            if len(calls) == 2:  # the second sub-fetch of the plan
                n = len(reads)
                yield ctx.engine.timeout(1e-6)
                return FetchOutcome(payloads=[None] * n, timed_out=np.ones(n, dtype=bool))
            if len(calls) == 3:
                raise _Boom("wire fell out")
            return (yield from inner(reads, n_streams=n_streams))

        a.store.transport.fetch = fetch
        idx = np.arange(N)  # every target
        # Each rank's b sits on one target's batch pool, for a different
        # while: the pools free up one at a time, so a's plan cannot go out
        # in one piece and splits into at least two sub-fetches.
        pinned = yield from b.lane.acquire({(ctx.rank + 1) % ctx.size: SAMPLE_BYTES})
        ctx.engine.schedule_call((ctx.rank + 1) * 1e-4, lambda: b.lane.release(pinned))
        errors = []
        for _ in range(2):
            try:
                yield from a.get_samples(idx, decode="raw")
            except (FetchTimeoutError, _Boom) as exc:
                errors.append(type(exc).__name__)
            # Whatever the failed sub-fetch held is back; nothing else moved.
            assert a.lane.held == {} and not a.lane.active, (a.lane.held, a.lane.active)
        yield from b.get_samples(idx, decode="raw")  # the pools are usable
        yield from ctx.comm.barrier()
        leaks = [w for arb in service._arbiters.values() for w in arb.leaks()]
        service.close()  # the leak check passes
        return errors, len(calls), leaks

    for errors, n_calls, leaks in run_world(TESTBOX, 2, main, world=_world(slow=False)).results:
        assert errors == ["FetchTimeoutError", "_Boom"] and n_calls == 3
        assert leaks == []


def test_leaked_grants_are_loud_at_close_and_shutdown():
    from types import SimpleNamespace

    from repro.dataplane.nodeagg import node_coordinator

    def main(ctx):
        service = yield from _serve(ctx)
        a = service.connect("a", qos="batch")
        other = (ctx.rank + 1) % ctx.size
        # Simulate the bug class: a grant taken and never given back, by a
        # fetch that never left its lane...
        a.lane.enter()
        yield from a.lane.acquire({other: 123})
        # ...and a node wave this rank entered but never finished.
        node_coordinator(a.store).register((0, 1, 2), SimpleNamespace(led={}), ctx.rank)
        yield from ctx.comm.barrier()
        with pytest.raises(RuntimeError) as at_shutdown:
            yield from service.store.shutdown()
        with pytest.raises(RuntimeError) as at_close:
            service.close()
        return str(at_close.value), str(at_shutdown.value), other, a.store.closed, a.store._node_index

    for at_close, at_shutdown, other, closed, node in run_world(TESTBOX, 2, main).results:
        # Names tenant, class and target; the sessions are closed regardless.
        assert "tenant 'a' (class 'batch')" in at_close
        assert f"123 byte(s) still granted on target {other}" in at_close
        assert "1 fetch(es) still inside the lane" in at_close and closed
        assert f"target {other}: 123 byte(s) in flight in class 'batch'" in at_shutdown
        assert f"node {node}, tenant 'a': wave (0, 1, 2) still open" in at_shutdown


# ---------------------------------------------------------------------------
# (v) queue accounting still tiles a fetch that was split into sub-fetches
# ---------------------------------------------------------------------------

def test_queue_spans_tile_the_queue_stage_of_split_fetches():
    def main(ctx):
        service = yield from _serve(ctx, dataplane=DataPlaneOptions(cache_bytes=1 << 20))
        sessions = [service.connect(name, qos=qos) for name, qos in TENANTS]
        out = {}
        yield from ctx.comm.barrier()
        procs = [
            ctx.engine.process(_tenant_job(ctx, s, i, out)) for i, s in enumerate(sessions)
        ]
        yield ctx.engine.all_of(procs)
        return {
            s.name: (s.lane.queue_seconds, s.store.stats.stage_seconds.get("queue", 0.0))
            for s in sessions
        }

    world = _world(trace=True)
    job = run_world(TESTBOX, 2, main, world=world)
    spans = world.obs.tracer.spans
    fetches = [s for s in spans if s.name == "store.fetch"]
    queues = [s for s in spans if s.name == "store.queue"]
    gets = [s for s in spans if s.name == "rma.get_batch"]
    assert len(gets) > len(fetches)  # some fetches really were split
    published = world.obs.metrics.sum_by("ddstore.tenant", "tenant", "counter")
    for name, _qos in TENANTS:
        lane_q = sum(r[name][0] for r in job.results)
        stage_q = sum(r[name][1] for r in job.results)
        span_q = sum(s.duration for s in queues if dict(s.args)["tenant"] == name)
        # One number, four books: the lane, the "queue" stage, the
        # store.queue spans and the ddstore.tenant metric.
        assert stage_q == pytest.approx(lane_q, rel=1e-9)
        assert span_q == pytest.approx(lane_q, rel=1e-9)
        assert published.get((name, "queue_seconds"), 0.0) == pytest.approx(lane_q, rel=1e-9)
    assert sum(s.duration for s in queues) > 0
    # Every queue wait lies inside the fetch span of the call that waited.
    for q in queues:
        assert any(
            f.track == q.track and f.start <= q.start and q.end <= f.end for f in fetches
        )


# ---------------------------------------------------------------------------
# (iv) same seed twice: identical stats, latencies and event count
# ---------------------------------------------------------------------------

def _replay():
    def main(ctx):
        service = yield from _serve(
            ctx,
            width=2,
            dataplane=DataPlaneOptions(cache_bytes=1 << 20),
            resilience=ResilienceOptions(timeout_s=2e-5, max_retries=2),
        )
        sessions = [service.connect(name, qos=qos) for name, qos in TENANTS]
        out = {}
        yield from ctx.comm.barrier()
        procs = [
            ctx.engine.process(_tenant_job(ctx, s, i, out)) for i, s in enumerate(sessions)
        ]
        yield ctx.engine.all_of(procs)
        yield from service.reshard(width=4)
        procs = [
            ctx.engine.process(_tenant_job(ctx, s, i, out)) for i, s in enumerate(sessions)
        ]
        yield ctx.engine.all_of(procs)
        return _bytes_ok(out), {
            s.name: (
                s.store.stats.counters(),
                dict(s.store.stats.stage_seconds),
                s.store.stats.latency_array().tolist(),
                s.lane.queue_seconds,
            )
            for s in sessions
        }

    world = _world()
    job = run_world(TESTBOX, 2, main, world=world)
    return job.results, world.engine._seq, world.engine.now


#: ``_replay``'s engine event count, horizon (``float.hex``) and the sha256
#: of its per-tenant stats/stages/latencies as JSON, recorded before the
#: read path's per-fetch work was cut: a serving-path event that moves,
#: appears or disappears fails here, not only in a perf ledger row.
REPLAY_GOLDEN = (
    776,
    "0x1.076f0a100f7dbp-6",
    "902cd70adb37d46189783c6b78de09f20e2d507334da7d3470cd99c37a2a9508",
)


def test_same_seed_replays_bit_for_bit():
    first, second = _replay(), _replay()
    assert first == second  # FetchStats, stages, latencies, events, horizon
    results, events, now = first
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert (events, now.hex(), digest) == REPLAY_GOLDEN
    assert all(ok for ok, _ in results)
    total = lambda name: sum(  # noqa: E731
        stats[0][name] for _, per_tenant in results for stats in per_tenant.values()
    )
    # The cell exercises what it claims to: the straggler was struck,
    # routed around, and retried reads moved (n_retries == n_timeouts).
    assert total("n_timeouts") > 0 and total("n_retries") == total("n_timeouts")
    assert total("n_failovers") > total("n_retries")  # steered first attempts on top
