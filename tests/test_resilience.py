"""Resilient fetch-path tests: the retry ladder, replica failover, the
store lifecycle, and the nested-options config API (deprecation shims)."""

import collections
import types

import numpy as np
import pytest

from repro.core import (
    DataPlaneOptions,
    DDStore,
    DDStoreConfig,
    GeneratorSource,
    ResilienceOptions,
    ServingOptions,
    StoreClosedError,
)
from repro.dataplane import (
    FetchOutcome,
    FetchTimeoutError,
    RetryPolicy,
    TargetHealth,
    fetch_with_retry,
)
from repro.faults import Blackout, FaultPlan, SlowRank, install_faults
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world
from repro.mpi.comm import World
from repro.sim import Engine


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


def _source(ctx, n=32, seed=0):
    return GeneratorSource(IsingGenerator(n, seed=seed), ctx.world.machine)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

def test_retry_policy_validation():
    """A policy's values are checked once, by the options it is built from."""
    with pytest.raises(ValueError, match="timeout_s"):
        RetryPolicy.from_options(ResilienceOptions(timeout_s=0.0))
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy.from_options(ResilienceOptions(timeout_s=1.0, max_retries=0))


def test_options_refuse_non_integers_and_non_finite_timeouts():
    """What used to be accepted and then failed mid-run (a float retry
    budget, a float width) or never fired (a NaN timeout) or was misread
    (a ``True`` QoS weight as 1) is refused at construction."""
    for bad in (1.5, 2.0, True):
        with pytest.raises(TypeError, match="max_retries"):
            ResilienceOptions(timeout_s=1e-6, max_retries=bad)
    for bad in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(ValueError, match="timeout_s"):
            ResilienceOptions(timeout_s=bad)
    with pytest.raises(TypeError, match="width"):
        DDStoreConfig(4, width=2.0)
    with pytest.raises(TypeError, match="prefetch_depth"):
        DataPlaneOptions(prefetch_depth=2.0)
    with pytest.raises(TypeError, match="qos weight"):
        ServingOptions(qos=(("a", True),))
    assert DDStoreConfig(4, width=np.int64(2)).n_replicas == 2  # numpy ints are integers


@pytest.mark.parametrize("group", ["dataplane", "resilience"])
def test_on_off_options_refuse_non_bools(group):
    """An on/off option takes a bool, naming the field otherwise: ``"no"``
    is truthy and used to switch the option on."""
    build, flags = {
        "dataplane": (DataPlaneOptions, ("coalesce", "scheduler", "columnar", "node_fetch")),
        "resilience": (lambda **kw: ResilienceOptions(timeout_s=1e-3, **kw), ("failover",)),
    }[group]
    for name in flags:
        for bad in ("no", "yes", 0, None):
            with pytest.raises(TypeError, match=name):
                build(**{name: bad})
    # NumPy's bool_ is a bool, as NumPy integers are integers.
    assert getattr(build(**{flags[0]: np.False_}), flags[0]) is np.False_


def test_backoff_schedule_is_exact_and_capped():
    policy = RetryPolicy(timeout_s=1.0)
    assert (RetryPolicy.BACKOFF_S, RetryPolicy.BACKOFF_FACTOR) == (1e-4, 2.0)
    assert policy.backoff(1) == 1e-4
    assert policy.backoff(2) == 2e-4
    assert policy.backoff(3) == 4e-4
    # Capped at 16 doublings: attempt 100 costs the same as attempt 17.
    assert policy.backoff(100) == policy.backoff(17) == 1e-4 * 2**16


def test_policy_from_options_requires_enabled():
    with pytest.raises(ValueError, match="timeout_s"):
        RetryPolicy.from_options(ResilienceOptions())
    policy = RetryPolicy.from_options(ResilienceOptions(timeout_s=2e-3, max_retries=3))
    assert (policy.timeout_s, policy.max_retries) == (2e-3, 3)


# ---------------------------------------------------------------------------
# fetch_with_retry against a scripted transport
# ---------------------------------------------------------------------------

class ScriptedTransport:
    """Yields one scripted outcome per fetch call; records what it saw.

    Each script entry is ``(delay_s, timed_out_flags)``; payloads are
    filled with the read's (possibly rerouted) target so tests can tell
    where the bytes "came from".
    """

    def __init__(self, engine, script):
        self.engine = engine
        self.script = list(script)
        self.calls = []  # (targets, timeout_s) per fetch

    def fetch(self, reads, n_streams=1, timeout_s=None):
        delay, timed_out = self.script[len(self.calls)]
        assert reads.shape == (len(reads), 3) and reads.dtype == np.int64
        self.calls.append((reads[:, 0].tolist(), timeout_s))
        if delay:
            yield self.engine.timeout(delay)
        flags = np.array(timed_out[: len(reads)], dtype=bool)
        payloads = [
            None if flags[i] else np.full(nbytes, target, np.uint8)
            for i, (target, _offset, nbytes) in enumerate(reads.tolist())
        ]
        return FetchOutcome(
            payloads=payloads,
            latencies=np.full(len(reads), delay, np.float64),
            stage_seconds={"get": delay},
            timed_out=flags,
        )


def _reads(n, target=1, nbytes=4):
    """``(target, offset, nbytes)`` rows, the array transports consume."""
    return np.array([(target, 16 * i, nbytes) for i in range(n)], dtype=np.int64)


def _drive(engine, gen):
    return engine.run(until=engine.process(gen))


def _always(rank):
    """A reroute hook that sends every read to ``rank``."""
    return lambda target: rank


def test_no_reroute_is_one_unbounded_attempt():
    # Single replica / failover off: nowhere better to go, so the read is
    # never abandoned — one transport call, no deadline, no counters.
    engine = Engine()
    transport = ScriptedTransport(engine, [(5.0, [False, False])])
    policy = RetryPolicy(timeout_s=1.0, max_retries=2)
    out = _drive(
        engine,
        fetch_with_retry(transport, _reads(2), policy=policy, engine=engine),
    )
    assert transport.calls == [([1, 1], None)]
    assert out.attempts == 1
    assert (out.n_timeouts, out.n_retries, out.n_failovers) == (0, 0, 0)
    assert "retry" not in out.outcome.stage_seconds


@pytest.mark.parametrize("answer", [None, 1])
def test_a_reroute_that_cannot_move_the_read_leaves_it_unbounded(answer):
    # ``None`` or the read's own rank is "nowhere better to go".
    engine = Engine()
    transport = ScriptedTransport(engine, [(5.0, [False])])
    policy = RetryPolicy(timeout_s=1.0, max_retries=2)
    out = _drive(
        engine,
        fetch_with_retry(
            transport, _reads(1, target=1), policy=policy, engine=engine,
            reroute=_always(answer),
        ),
    )
    assert transport.calls == [([1], None)]
    assert out.attempts == 1 and out.n_timeouts == 0


def test_retry_completes_timed_out_reads_and_accounts():
    engine = Engine()
    # Attempt 0: read 1 of 2 times out.  Attempt 1: it completes elsewhere.
    transport = ScriptedTransport(
        engine, [(1.0, [False, True]), (0.25, [False])]
    )
    policy = RetryPolicy(timeout_s=1.0, max_retries=2)
    out = _drive(
        engine,
        fetch_with_retry(
            transport, _reads(2), policy=policy, engine=engine, reroute=_always(7)
        ),
    )
    assert out.n_timeouts == 1 and out.n_retries == 1 and out.n_failovers == 1
    assert out.attempts == 2
    assert all(p is not None for p in out.outcome.payloads)
    # First-attempt read keeps its per-read latency; the retried read is
    # charged everything since the batch was first issued.
    assert out.outcome.latencies[0] == 1.0
    assert out.outcome.latencies[1] == pytest.approx(1.0 + 0.25)
    # The read moved to another rank, so it went at once: backoff is only
    # for hitting the same rank again.  Fetch time merges into "get".
    assert "retry" not in out.outcome.stage_seconds
    assert out.outcome.stage_seconds["get"] == pytest.approx(1.25)
    # The first attempt carried the deadline (rank 7 was somewhere to go);
    # only the pending read was retried, and once it sits on rank 7 it has
    # nowhere better left, so its attempt is unbounded.
    assert transport.calls == [([1, 1], 1.0), ([7], None)]
    assert out.outcome.payloads[1][0] == 7  # the bytes came from rank 7


def test_reroute_hook_sees_the_timed_out_read():
    engine = Engine()
    transport = ScriptedTransport(engine, [(1.0, [True]), (0.1, [False])])
    policy = RetryPolicy(timeout_s=1.0, max_retries=2)
    seen = []

    def reroute(target):
        seen.append(target)
        return 7

    out = _drive(
        engine,
        fetch_with_retry(
            transport, _reads(1, target=1), policy=policy, engine=engine,
            reroute=reroute,
        ),
    )
    # Asked before the attempt (is there somewhere to go?), after its
    # timeout (where to?), and again before the retry.
    assert seen == [1, 1, 7]
    assert out.n_failovers == 1
    assert [targets for targets, _ in transport.calls] == [[1], [7]]


def test_final_attempt_runs_unbounded():
    engine = Engine()
    transport = ScriptedTransport(
        engine, [(1.0, [True]), (1.0, [True]), (5.0, [False])]
    )
    policy = RetryPolicy(timeout_s=1.0, max_retries=2)
    out = _drive(
        engine,
        fetch_with_retry(
            transport, _reads(1, target=1), policy=policy, engine=engine,
            reroute=lambda target: target + 1,  # always one more rank
        ),
    )
    assert out.n_timeouts == 2 == out.n_retries and out.attempts == 3
    assert out.n_failovers == 2
    # The last permitted attempt never carries a timeout (degrade, don't
    # fail), even though there would still be somewhere to go.
    assert transport.calls == [([1], 1.0), ([2], 1.0), ([3], None)]


def test_timeouts_strike_the_health_table_before_rerouting():
    engine = Engine()
    policy = RetryPolicy(timeout_s=1.0, max_retries=2)
    health = TargetHealth(policy)
    # Reads to ranks 1 and 2 both time out; each one's only alternative is
    # the other.  Strikes land before re-routing, so neither fails over to
    # the rank that just timed out: both stay put and finish unbounded.
    reads = np.array([(1, 0, 4), (2, 0, 4)])

    def reroute(target):
        other = 3 - target
        return None if health.suspect(other, engine.now) else other

    transport = ScriptedTransport(engine, [(1.0, [True, True]), (9.0, [False, False])])
    out = _drive(
        engine,
        fetch_with_retry(
            transport, reads, policy=policy, engine=engine, reroute=reroute, health=health
        ),
    )
    assert transport.calls == [([1, 2], 1.0), ([1, 2], None)]
    assert out.n_timeouts == out.n_retries == 2 and out.n_failovers == 0
    assert health.suspect(1, 1.5) and health.suspect(2, 1.5)
    # Re-issued to the same ranks, so the first backoff (BACKOFF_S) was
    # waited out ("retry" stage) and is part of the retried reads' observed
    # latency.
    assert out.outcome.stage_seconds["retry"] == pytest.approx(1e-4)
    assert list(out.outcome.latencies) == pytest.approx([1.0 + 1e-4 + 9.0] * 2)


def test_mixed_batch_bounds_only_the_reads_that_can_move():
    engine = Engine()
    reads = np.array([
        (1, 0, 4),  # rank 7 can serve it
        (2, 0, 4),  # nowhere else to go
        (1, 16, 4),
    ])
    transport = ScriptedTransport(engine, [(1.0, [True, False, False]), (0.5, [False])])
    policy = RetryPolicy(timeout_s=1.0, max_retries=2)
    out = _drive(
        engine,
        fetch_with_retry(
            transport, reads, policy=policy, engine=engine,
            reroute=lambda target: 7 if target == 1 else None,
        ),
    )
    (targets, bounds), (retry_targets, retry_bound) = transport.calls
    # One bound per read: the stuck read is waited out, never abandoned.
    assert targets == [1, 2, 1] and list(bounds) == [1.0, np.inf, 1.0]
    assert retry_targets == [7] and retry_bound is None
    assert (out.n_timeouts, out.n_retries, out.n_failovers) == (1, 1, 1)


def test_timeouts_without_a_deadline_raise():
    engine = Engine()
    # A transport that reports timeouts even on an unbounded attempt
    # (possible for third-party transports) must surface a typed error.
    transport = ScriptedTransport(engine, [(0.1, [True])])
    policy = RetryPolicy(timeout_s=1.0, max_retries=2)
    with pytest.raises(FetchTimeoutError, match="1 read"):
        _drive(
            engine,
            fetch_with_retry(transport, _reads(1), policy=policy, engine=engine),
        )


def test_exhausted_retries_raise():
    engine = Engine()
    transport = ScriptedTransport(
        engine, [(0.1, [True]), (0.1, [True]), (0.1, [True])]
    )
    policy = RetryPolicy(timeout_s=1.0, max_retries=2)
    with pytest.raises(FetchTimeoutError, match="after 3 attempt"):
        _drive(
            engine,
            fetch_with_retry(
                transport, _reads(1, target=1), policy=policy, engine=engine,
                reroute=lambda target: target + 1,
            ),
        )


def test_empty_batch_is_a_noop():
    engine = Engine()
    transport = ScriptedTransport(engine, [])
    policy = RetryPolicy(timeout_s=1.0)
    out = _drive(
        engine, fetch_with_retry(transport, [], policy=policy, engine=engine)
    )
    assert out.outcome.payloads == [] and out.attempts == 1
    assert transport.calls == []


# ---------------------------------------------------------------------------
# TargetHealth: strike -> suspect -> probation (one probe at a time) -> forgotten
# ---------------------------------------------------------------------------

def test_health_table_state_machine():
    policy = RetryPolicy(timeout_s=1.0)
    health = TargetHealth(policy)
    assert not health and not health.avoid(5, 0.0)

    health.strike(5, 10.0)  # strike 1: suspect for timeout_s * 2 = 2 s
    assert health and health.suspect(5, 11.9) and not health.suspect(5, 12.0)
    assert health.avoid(5, 11.0)
    health.strike(5, 11.0)  # a straggler of the same batch: not a new strike
    health.ok(5, 11.5)  # nor does a read from before the mark clear it
    assert health.suspect(5, 11.9) and not health.suspect(5, 12.0)

    # Probation, however long after: the first read asking is the probe and
    # re-arms the mark for one timeout_s, so everyone else keeps going
    # around while it reports.
    assert not health.avoid(5, 50.0)
    assert health.avoid(5, 50.1) and health.avoid(5, 50.9)
    health.strike(5, 51.0)  # the probe timed out: strike 2, 4 s this time
    assert health.suspect(5, 54.9) and not health.suspect(5, 55.0)

    # A clean probe takes one strike off and lets the next read probe at
    # once; the rank whose strikes are all worked off is forgotten.
    assert not health.avoid(5, 60.0) and health.avoid(5, 60.1)
    health.ok(5, 60.2)
    assert health and not health.avoid(5, 60.2)
    health.ok(5, 60.4)
    assert not health and not health.avoid(5, 60.4)
    health.strike(5, 70.0)  # ...and the next strike starts over at 2 s
    assert not health.suspect(5, 72.0)


def test_suspect_window_grows_per_strike_and_is_capped():
    policy = RetryPolicy(timeout_s=2e-3)
    assert policy.suspect_window(1) == 4e-3
    assert policy.suspect_window(3) == 16e-3
    assert policy.suspect_window(40) == policy.suspect_window(16)
    # What the discovery cost scales the window when it exceeds timeout_s.
    assert policy.suspect_window(2, cost_s=3e-3) == 12e-3


@pytest.mark.parametrize("marked, probation", [(0, 2), (2, 0)])
@pytest.mark.parametrize("spare", [False, True])
def test_steering_sends_nothing_but_the_probe_to_a_rank_on_probation(marked, probation, spare):
    """Two replicas of one member among the reads still to issue, one
    suspect and one whose mark just ran out: the outcome does not depend on
    which of the two has the lower rank."""
    from repro.dataplane.pipeline import _steer

    health = TargetHealth(RetryPolicy(timeout_s=1.0))
    health.strike(probation, 0.0)  # suspect until 2.0: on probation at 5.0
    health.strike(marked, 4.0)  # suspect until 6.0
    now = 5.0
    replicas = [0, 2, 4] if spare else [0, 2]

    def reroute(target):
        return next((r for r in replicas if r != target and not health.suspect(r, now)), None)

    h = types.SimpleNamespace(
        comm=types.SimpleNamespace(engine=types.SimpleNamespace(now=now)),
        _health=health,
        _reroute=reroute,
    )
    reads = np.array([[0, 0, 8], [2, 0, 8], [0, 8, 8], [2, 8, 8], [1, 0, 8]], dtype=np.int64)
    ladder = {}
    out = _steer(h, reads, np.arange(1, 5), ladder)  # row 0 is already issued

    expect = reads.copy()
    if spare:  # everything but the probe goes to the healthy third replica
        expect[1:4, 0] = 4
        probe = 1 if probation == 2 else 2
        expect[probe, 0] = probation
    assert out.tolist() == expect.tolist()
    assert ladder == ({"n_failovers": 2} if spare else {})
    assert health.suspect(probation, now)  # re-armed for the probe
    assert reads[:, 0].tolist() == [0, 2, 0, 2, 1]  # the plan itself is not written to


# ---------------------------------------------------------------------------
# the health table end to end: a blackout is discovered once, routed around,
# probed one read at a time, and the primary is used again afterwards
# ---------------------------------------------------------------------------

_DARK_RANK, _T_DARK, _DARK_FOR = 1, 0.05, 0.02


def _spy_gets(store):
    """Wrap ``store``'s window handle so every ``get_batch`` logs
    ``(issue time, target)`` per read; returns that log."""
    win, log = store.transport.win, []
    get_batch = win.get_batch

    def spy(requests, *args, **kwargs):
        now = win.engine.now
        log.extend((now, t) for t in np.asarray(requests).reshape(-1, 3)[:, 0].tolist())
        return (yield from get_batch(requests, *args, **kwargs))

    win.get_batch = spy
    return log


def _served_by(log, since):
    """Target ranks of the logged gets issued at or after ``since``."""
    return [target for at, target in log if at >= since]


def _blackout_main(ctx):
    gen = IsingGenerator(32, seed=0)
    store = yield from DDStore.create(
        ctx.comm, _source(ctx), width=2,
        resilience=ResilienceOptions(timeout_s=2e-4, max_retries=2),
    )
    gets = _spy_gets(store)
    if ctx.rank != 0:
        yield from ctx.comm.barrier()
        return None
    # Rank 0 owns chunk 0 of its group; chunk 1 (samples 16..31) lives on
    # rank 1 (primary, same group) and rank 3 (the other group's owner).
    # Every other sample, so each batch is eight separate wire reads.
    ids = list(range(16, 32, 2))
    report = {}

    def fetch_until(t_end):
        ok = True
        while ctx.now < t_end:
            graphs = yield from store.get_samples(ids)
            ok = ok and all(g.allclose(gen.make(i)) for g, i in zip(graphs, ids))
            yield ctx.engine.timeout(2.5e-4)
        return ok

    before = yield from fetch_until(_T_DARK - 1e-3)
    report["before"] = (before, store.stats.n_timeouts, store.stats.n_failovers,
                        set(_served_by(gets, 0.0)))
    yield ctx.engine.timeout(_T_DARK + 1e-4 - ctx.now)
    t_dark = ctx.now
    n_gets = store.stats.n_get_calls
    during = yield from fetch_until(_T_DARK + _DARK_FOR - 1e-3)
    report["during"] = (during, store.stats.n_timeouts, store.stats.n_failovers,
                        store.stats.n_get_calls - n_gets,
                        collections.Counter(_served_by(gets, t_dark)))
    # After the outage (and past the last mark): every batch lets one read
    # through as a probe; each clean probe works a strike off.
    yield ctx.engine.timeout(_T_DARK + 3 * _DARK_FOR - ctx.now)
    timeouts = store.stats.n_timeouts
    recovering = yield from fetch_until(ctx.now + 1e-2)
    t_healed = ctx.now
    failovers = store.stats.n_failovers
    healed = yield from fetch_until(t_healed + 2e-3)
    report["after"] = (
        recovering and healed,
        store.stats.n_timeouts - timeouts,
        store.stats.n_failovers - failovers,
        set(_served_by(gets, t_healed)),
        bool(store._health),
    )
    yield from ctx.comm.barrier()
    return report


def _run_blackout():
    world = World(TESTBOX, 2, seed=0)
    install_faults(
        world,
        FaultPlan("dark", (Blackout(rank=_DARK_RANK, start_s=_T_DARK, duration_s=_DARK_FOR),)),
    )
    return run(_blackout_main, world=world)


def test_blackout_is_struck_steered_around_probed_and_recovered_from():
    report = _run_blackout().results[0]

    ok, timeouts, failovers, served = report["before"]
    assert ok and timeouts == 0 and failovers == 0 and served == {_DARK_RANK}

    ok, timeouts, failovers, n_gets, served = report["during"]
    assert ok  # faults change timing, never bytes
    # Discovered by the first batch, then re-probed by ONE read per expiry:
    # a handful of timeouts against hundreds of reads routed around.
    assert 8 <= timeouts <= 8 + 6
    assert n_gets > 80 and failovers == n_gets
    assert served[3] == n_gets and served[_DARK_RANK] == timeouts

    ok, new_timeouts, late_failovers, served, still_marked = report["after"]
    assert ok and new_timeouts == 0  # every probe after the outage was clean
    assert late_failovers == 0 and served == {_DARK_RANK}  # the primary is used again
    assert not still_marked  # and the mark is forgotten


def test_all_replicas_suspect_falls_back_to_the_primary_unbounded():
    def main(ctx):
        store = yield from DDStore.create(
            ctx.comm, _source(ctx), width=2,
            resilience=ResilienceOptions(timeout_s=1e-9, max_retries=2),
        )
        gets = _spy_gets(store)
        # Every owner of the remote chunk is marked: nowhere better to go.
        # The read stays on its primary and is issued without a deadline —
        # with this timeout_s any bounded attempt would time out.
        group = store.comm.rank // 2
        primary = 2 * group + (1 - store.comm.rank % 2)
        for rank in (primary, (primary + 2) % 4):
            store._health.strike(rank, ctx.now, cost_s=1.0)  # suspect for 2 s
        t0 = ctx.now
        lo, hi = store.layout.chunk_range(1 - store.group_comm.rank)
        yield from store.get_samples(range(lo, lo + 4))
        s = store.stats
        return (s.n_timeouts, s.n_retries, s.n_failovers, set(_served_by(gets, t0)) == {primary})

    assert all(r == (0, 0, 0, True) for r in run(main).results)


def test_health_table_is_per_generation_and_shared_by_session_views():
    from repro import client

    def main(ctx):
        service = yield from client.serve(
            ctx.comm, _source(ctx), width=2,
            resilience=ResilienceOptions(timeout_s=1e-3),
        )
        a, b = service.connect("a"), service.connect("b")
        old = service.store
        shared = a.store._health is old._health is b.store._health
        old._health.strike(3, ctx.now)
        new = yield from service.reshard(width=2)
        return (
            shared,
            new._health is not old._health and not new._health,  # dropped at reshard
            a.store._health is new._health,
            a.store._retry_policy is new._retry_policy,
        )

    assert all(r == (True, True, True, True) for r in run(main).results)


def test_no_health_table_without_somewhere_to_go():
    def main(ctx):
        res = ResilienceOptions(timeout_s=1e-3)
        solo = yield from DDStore.create(ctx.comm, _source(ctx), resilience=res)
        off = yield from DDStore.create(
            ctx.comm, _source(ctx), width=2,
            resilience=ResilienceOptions(timeout_s=1e-3, failover=False),
        )
        plain = yield from DDStore.create(ctx.comm, _source(ctx), width=2)
        return (
            solo._health is None and solo._retry_policy is not None,  # single replica
            off._health is None and off._retry_policy is not None,  # failover off
            plain._health is None and plain._retry_policy is None,  # resilience off
        )

    assert all(r == (True, True, True) for r in run(main).results)


# ---------------------------------------------------------------------------
# DDStore failover end-to-end: faults change timing, never bytes
# ---------------------------------------------------------------------------

def _epoch(ctx, resilience=None):
    store = yield from DDStore.create(
        ctx.comm, _source(ctx), width=2, resilience=resilience
    )
    graphs = yield from store.get_samples(range(32))
    return graphs, store.stats


def test_failover_returns_identical_bytes_under_straggler():
    gen = IsingGenerator(32, seed=0)
    baseline = run(_epoch)
    healthy_max = max(
        float(stats.latency_array().max()) for _g, stats in baseline.results
    )

    def faulted():
        world = World(TESTBOX, 2, seed=0)
        install_faults(
            world, FaultPlan("t", (SlowRank(rank=1, multiplier=1000.0),))
        )
        res = ResilienceOptions(timeout_s=3 * healthy_max, max_retries=2)
        return run(_epoch, world=world, resilience=res)

    job = faulted()
    timeouts = sum(s.n_timeouts for _g, s in job.results)
    failovers = sum(s.n_failovers for _g, s in job.results)
    assert timeouts > 0 and failovers > 0
    # Every rank decodes exactly the samples the fault-free run decodes.
    for (graphs, _s), (ref, _sr) in zip(job.results, baseline.results):
        for g, r in zip(graphs, ref):
            assert g.sample_id == r.sample_id
            assert g.allclose(gen.make(g.sample_id))

    # Bit-determinism: the same faulted world replays identically.
    again = faulted()
    for (g1, s1), (g2, s2) in zip(job.results, again.results):
        assert np.array_equal(s1.latency_array(), s2.latency_array())
        assert s1.n_timeouts == s2.n_timeouts
        assert s1.n_failovers == s2.n_failovers


def test_resilience_off_keeps_seed_counters():
    job = run(_epoch)  # ResilienceOptions() default: disabled
    for _graphs, stats in job.results:
        assert stats.n_timeouts == 0
        assert stats.n_retries == 0
        assert stats.n_failovers == 0
        assert "retry" not in stats.stage_seconds


# ---------------------------------------------------------------------------
# lifecycle: close(), context manager, StoreClosedError
# ---------------------------------------------------------------------------

def test_shutdown_closes_and_fetch_raises():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        yield from store.get_samples([0, 1])
        yield from store.shutdown()
        assert store.closed
        store.close()  # idempotent: a second close is a no-op
        try:
            yield from store.get_samples([2])
        except StoreClosedError:
            return True
        return False

    assert all(run(main).results)


def test_context_manager_closes_and_rejects_reentry():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        with store as s:
            assert s is store and not store.closed
        assert store.closed
        try:
            with store:
                pass
        except StoreClosedError:
            return True
        return False

    assert all(run(main).results)


# ---------------------------------------------------------------------------
# nested options API
# ---------------------------------------------------------------------------

def test_unknown_kwarg_is_a_type_error():
    with pytest.raises(TypeError, match="unexpected keyword"):
        DDStoreConfig(4, cache_bites=1)
    # A group's knob is not a DDStoreConfig keyword: it lives in its group.
    with pytest.raises(TypeError, match="unexpected keyword"):
        DDStoreConfig(4, cache_bytes=256)
    assert DDStoreConfig(4, dataplane=DataPlaneOptions(cache_bytes=256)).dataplane.cache_bytes == 256


def test_resilience_options_validation():
    with pytest.raises(ValueError, match="timeout_s"):
        ResilienceOptions(timeout_s=-1.0)
    with pytest.raises(ValueError, match="max_retries"):
        ResilienceOptions(max_retries=0)
    assert not ResilienceOptions().enabled
    assert ResilienceOptions(timeout_s=1e-3).enabled


