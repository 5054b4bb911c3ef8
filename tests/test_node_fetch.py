"""Node-aggregated wave fetch: byte-identity, resilience, and composition.

The tentpole property: with ``node_fetch=True`` every rank receives batches
*byte-identical* to the per-rank wave path — across row/columnar layouts,
cache policies, shuffle samplers, prefetch depths, and fault plans
(including a straggler under the leader's wire read, which must ride the
same retry/failover ladder as per-rank fetches).  Composition tests cover
the reshard fence mid-wave and per-tenant byte isolation on the serving
layer.
"""

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
    ResilienceOptions,
    ServingOptions,
)
from repro.dataplane.planner import FetchPlanner
from repro.dataplane.scheduler import EpochScheduler
from repro.faults import FaultPlan, SlowRank, install_faults
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world
from repro.mpi.comm import World


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


def _source(ctx, n=32, seed=0):
    return GeneratorSource(IsingGenerator(n, seed=seed), ctx.world.machine)


def _digest(batch) -> bytes:
    """Canonical bytes of a collated batch, layout-independent."""
    parts = []
    for j in range(batch.n_graphs):
        g = batch.graph(j)
        parts.append(np.int64(g.sample_id).tobytes())
        for arr in (g.positions, g.node_features, g.edge_index, g.y):
            parts.append(np.ascontiguousarray(arr).tobytes())
    return b"".join(parts)


def _epoch(ctx, node_fetch, *, columnar=False, cache_policy="lru",
           shuffle="global", depth=4, resilience=None, n=32, batch_size=4,
           width=2):
    """Scheduler-driven epoch (the trainer's fetch loop, minus the GPU);
    returns each step's batch digest plus the store's fetch stats."""
    store = yield from DDStore.create(
        ctx.comm,
        _source(ctx, n=n),
        width=width,  # 2 = two replica groups: gives the ladder a failover target
        dataplane=DataPlaneOptions(
            cache=CacheOptions.dram_only(1 << 20, cache_policy),
            scheduler=True,
            prefetch_depth=depth,
            columnar=columnar,
            node_fetch=node_fetch,
        ),
        resilience=resilience,
    )
    loader = DataLoader(
        DDStoreDataset(store), ctx, batch_size=batch_size, shuffle=shuffle, seed=0
    )
    batches = loader.epoch_batches(0)
    sched = EpochScheduler(loader, batches, engine=ctx.engine, epoch=0)
    sched.start()
    digests = []
    for step in range(len(batches)):
        loaded = yield sched.event(step)
        sched.advance(step)
        digests.append(_digest(loaded.batch))
        release = getattr(loaded, "release", None)
        if release is not None:
            release()
    return digests, store.stats


def _spy_node_plans(monkeypatch) -> list:
    """Record every node plan with the width it was elected on."""
    plans = []
    plan_node_wave = FetchPlanner.plan_node_wave

    def spy(self, demands, participants, width):
        plan = plan_node_wave(self, demands, participants, width)
        plans.append((plan, width))
        return plan

    monkeypatch.setattr(FetchPlanner, "plan_node_wave", spy)
    return plans


def _assert_elections(plans) -> set:
    """Every sample's leader is the owner of its member among the node's
    participants, else round-robin by member.  Returns the rules used."""
    used = set()
    for plan, width in plans:
        P = plan.participants
        for key, leader in plan.leader_of.items():
            m = plan.meta[key][0]
            owners = [p for p in P if p % width == m]
            if owners:
                used.add("owner")
                assert leader == owners[m % len(owners)]
            else:
                used.add("round-robin")
                assert leader == P[m % len(P)]
    return used


# ---------------------------------------------------------------------------
# the tentpole property: aggregation changes timing and wire traffic, never bytes
# ---------------------------------------------------------------------------

@given(
    columnar=st.booleans(),
    cache_policy=st.sampled_from(["lru", "belady"]),
    shuffle=st.sampled_from(["global", "sampled"]),
    depth=st.integers(min_value=2, max_value=6),
    straggler=st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_node_fetch_batches_byte_identical(columnar, cache_policy, shuffle, depth, straggler):
    def job(node_fetch):
        kw = dict(
            columnar=columnar, cache_policy=cache_policy,
            shuffle=shuffle, depth=depth,
        )
        if straggler:
            # Rank 2 (a remote owner for node 0) is slow; both paths must
            # absorb it through the same retry/failover ladder.  The exact
            # timeout does not matter for byte identity — the final attempt
            # runs unbounded, so the ladder always terminates.
            world = World(TESTBOX, 2, seed=0)
            install_faults(
                world, FaultPlan("t", (SlowRank(rank=2, multiplier=50.0),))
            )
            kw["resilience"] = ResilienceOptions(
                timeout_s=2e-3, max_retries=3
            )
            return run(lambda c: _epoch(c, node_fetch, **kw), world=world)
        return run(lambda c: _epoch(c, node_fetch, **kw))

    base = job(False)
    agg = job(True)
    for rank, ((d0, s0), (d1, s1)) in enumerate(zip(base.results, agg.results)):
        assert d0 == d1, f"rank {rank}: batch bytes diverge under node_fetch"
        assert s0.n_node_waves == 0
        assert s1.n_node_waves > 0  # aggregation actually engaged


# ---------------------------------------------------------------------------
# leader straggler: the aggregated wire read rides the retry/failover ladder
# ---------------------------------------------------------------------------

def test_node_fetch_leader_read_rides_retry_ladder(monkeypatch):
    plans = _spy_node_plans(monkeypatch)
    # Calibrate: healthy wave latencies bound the timeout.
    healthy = run(lambda c: _epoch(c, True))
    h_digests = [d for d, _s in healthy.results]
    # Width 2 on 2-GPU nodes: each node is a whole replica group, so every
    # member's owner is a node participant and leads it.
    assert plans and _assert_elections(plans) == {"owner"}
    # On 2-rank nodes at widths 2 and 4 the two rules pick the same
    # leaders, so also elect node 2 of a 3-node world at width 3: ranks 4
    # and 5 are group 1's members 1 and 2, and member 0 has no owner.
    keys = np.arange(3, dtype=np.int64)
    plan = FetchPlanner().plan_node_wave({4: (keys, [0, 1, 2], [0] * 3, [8] * 3)}, (4, 5), 3)
    assert plan.leader_of == {0: 4, 1: 4, 2: 5}
    assert _assert_elections([(plan, 3)]) == {"owner", "round-robin"}

    def faulted():
        world = World(TESTBOX, 2, seed=0)
        install_faults(
            world, FaultPlan("t", (SlowRank(rank=2, multiplier=1000.0),))
        )
        res = ResilienceOptions(timeout_s=2e-3, max_retries=2)
        return run(lambda c: _epoch(c, True, resilience=res), world=world)

    job = faulted()
    timeouts = sum(s.n_timeouts for _d, s in job.results)
    failovers = sum(s.n_failovers for _d, s in job.results)
    # The leader reads hitting the slow owner blew their deadline and were
    # re-routed to a replica — the same ladder demand fetches ride.
    assert timeouts > 0 and failovers > 0
    assert all(s.n_node_waves > 0 for _d, s in job.results)
    # ...and the payloads the node fanned out are still the right bytes.
    for (d, _s), h in zip(job.results, h_digests):
        assert d == h

    # Bit-determinism: the same faulted world replays identically.
    again = faulted()
    for (d1, s1), (d2, s2) in zip(job.results, again.results):
        assert d1 == d2
        assert s1.n_timeouts == s2.n_timeouts
        assert s1.n_failovers == s2.n_failovers
        assert s1.bytes_node_wire == s2.bytes_node_wire


# ---------------------------------------------------------------------------
# wire accounting: dedup saves bytes, fan-out delivers them
# ---------------------------------------------------------------------------

def test_node_fetch_dedups_wire_bytes_under_overlap(monkeypatch):
    plans = _spy_node_plans(monkeypatch)
    # The sampled shuffler draws with replacement from a skewed hotness
    # ranking, so node-local ranks request overlapping id sets — exactly
    # the traffic node aggregation exists to dedup.  A single replica
    # group spanning both nodes (width=None) keeps the node-mates' demand
    # on shared remote targets; with width == ranks-per-node the group
    # coincides with the node and their target ranges are disjoint.
    base = run(lambda c: _epoch(c, False, shuffle="sampled", depth=6, width=None))
    agg = run(lambda c: _epoch(c, True, shuffle="sampled", depth=6, width=None))
    # At w = N (the resolved width, not None) a member on this node leads
    # itself, and a member on the other node goes round-robin.
    assert plans and all(width == 4 for _p, width in plans)
    assert _assert_elections(plans) == {"owner", "round-robin"}
    base_wire = sum(s.bytes_prefetched for _d, s in base.results)
    agg_wire = sum(s.bytes_node_wire for _d, s in agg.results)
    requested = sum(s.bytes_node_requested for _d, s in agg.results)
    fanned = sum(s.bytes_fanout for _d, s in agg.results)
    assert 0 < agg_wire < base_wire  # strictly fewer wire bytes
    assert agg_wire < requested  # dedup: wire < sum of per-rank demand
    assert fanned > 0  # subscribers were fed over the intra-node path
    for _d, s in agg.results:
        # Fan-out time is priced and attributed to the new stage.
        assert s.n_fanout == 0 or s.prefetch_stage_seconds.get("fanout", 0.0) > 0


# ---------------------------------------------------------------------------
# composition: reshard fence mid-wave
# ---------------------------------------------------------------------------

def test_node_fetch_reshard_mid_wave_resumes_cleanly():
    n = 32
    gen = IsingGenerator(n, seed=0)

    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm,
            _source(ctx, n=n),
            dataplane=DataPlaneOptions(
                cache_bytes=1 << 20, prefetch_depth=4, scheduler=True,
                node_fetch=True,
            ),
        )
        dataset = DDStoreDataset(store)
        loader = DataLoader(dataset, ctx, batch_size=4, shuffle="global", seed=0)
        batches = loader.epoch_batches(0)
        sched = EpochScheduler(loader, batches, engine=ctx.engine, epoch=0)
        sched.start()
        first = yield sched.event(0)
        sched.advance(0)
        # Fence mid-wave: in-flight node waves must resolve (or abort to
        # the residue path) before the reshard tears the transport down.
        drained = yield from sched.drain()
        new = yield from store.reshard(width=2)
        dataset.store = new
        got = [first]
        for step in range(1, len(batches)):
            loaded = yield sched.event(step)
            sched.advance(step)
            got.append(loaded)
        ok = all(
            loaded.batch.graph(j).allclose(gen.make(int(i)))
            for loaded, idx in zip(got, batches)
            for j, i in enumerate(idx)
        )
        yield from new.shutdown()
        return drained, len(got), ok

    job = run(main)
    for drained, n_batches, ok in job.results:
        assert drained > 0
        assert n_batches > 1
        assert ok


# ---------------------------------------------------------------------------
# composition: multi-tenant serving — per-tenant byte isolation
# ---------------------------------------------------------------------------

def _tenant_epoch(ctx, session, seed):
    loader = DataLoader(
        DDStoreDataset(session.store), ctx, batch_size=4, shuffle="global", seed=seed
    )
    batches = loader.epoch_batches(0)
    sched = EpochScheduler(loader, batches, engine=ctx.engine, epoch=0)
    sched.start()
    digests = []
    for step in range(len(batches)):
        loaded = yield sched.event(step)
        sched.advance(step)
        digests.append(_digest(loaded.batch))
    return digests


def test_node_fetch_tenant_byte_isolation():
    opts = DataPlaneOptions(
        cache_bytes=1 << 20, scheduler=True, prefetch_depth=4, node_fetch=True
    )
    serving = ServingOptions(max_tenants=2)

    def main(ctx, tenants):
        service = yield from client.serve(
            ctx.comm, _source(ctx), dataplane=opts, serving=serving
        )
        sessions = {t: service.connect(t, qos="batch") for t in tenants}
        out = {}

        def job_(name, session, seed):
            out[name] = yield from _tenant_epoch(ctx, session, seed)

        # Seed is a function of the tenant *name*, not its spawn order, so
        # solo and concurrent runs of one tenant share a permutation.
        seeds = {"a": 10, "b": 11}
        procs = [
            ctx.engine.process(job_(t, sessions[t], seeds[t]), name=t)
            for t in tenants
        ]
        yield ctx.engine.all_of(procs)
        return {
            t: (out[t], sessions[t].store.stats.counters()) for t in tenants
        }

    both = run(lambda c: main(c, ("a", "b")))
    solo_a = run(lambda c: main(c, ("a",)))
    solo_b = run(lambda c: main(c, ("b",)))
    for r_both, r_a, r_b in zip(both.results, solo_a.results, solo_b.results):
        for t, solo in (("a", r_a), ("b", r_b)):
            digests, counters = r_both[t]
            solo_digests, solo_counters = solo[t]
            # Exactly its own bytes, whether or not a neighbour shares the
            # store: batch payloads and every byte counter match the solo
            # run — tenants never share a rendezvous (coordinator keys
            # carry the tenant), so no wave, wire read, or fan-out of one
            # tenant is billed to the other.
            assert digests == solo_digests
            assert counters["n_node_waves"] == solo_counters["n_node_waves"] > 0
            for key in (
                "bytes_node_requested",
                "bytes_node_wire",
                "bytes_fanout",
                "bytes_prefetched",
                "bytes_transferred",
            ):
                assert counters[key] == solo_counters[key], (t, key)


def test_node_fetch_requires_a_coalescing_transport(monkeypatch):
    """``node_fetch`` on a transport that does not coalesce is refused
    where the framework is checked, not quietly run as per-rank waves."""
    from repro.bench import ExperimentConfig
    from repro.dataplane import TRANSPORTS, RmaTransport

    kw = dict(scheduler=True, cache_bytes=1 << 20, node_fetch=True)
    with pytest.raises(ValueError, match="does not coalesce"):
        DataPlaneOptions(framework="p2p", **kw)
    with pytest.raises(ValueError, match="does not coalesce"):
        ExperimentConfig(n_nodes=1, method="ddstore-p2p", **kw)
    assert DataPlaneOptions(framework="mpi-rma", **kw).node_fetch
    # The check reads the transport table, so a swapped entry is honoured.
    monkeypatch.setitem(TRANSPORTS, "p2p", RmaTransport)
    assert DataPlaneOptions(framework="p2p", **kw).node_fetch
