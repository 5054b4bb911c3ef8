"""Tests for one-sided RMA (windows, lock epochs, get/put, batching)."""

import json
import os

import numpy as np
import pytest

from repro.faults import RankFaultModel, build_fault_plan, install_faults
from repro.hardware import TESTBOX, Cluster, Interconnect, get_machine
from repro.hardware.network import JITTER_SIGMA
from repro.mpi import (
    LOCK_EXCLUSIVE,
    LOCK_SHARED,
    Pieces,
    RMAError,
    create_window,
    run_world,
)
from repro.mpi.comm import World
from repro.sim import Engine


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


def _make_local(rank, size=64):
    """Each rank exposes `size` bytes filled with its rank id."""
    return np.full(size, rank, dtype=np.uint8)


def test_get_reads_remote_bytes():
    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank))
        yield from win.fence()
        target = (ctx.rank + 1) % ctx.size
        yield from win.lock(target, LOCK_SHARED)
        data = yield from win.get(target, offset=0, nbytes=16)
        yield from win.unlock(target)
        return data

    job = run(main)
    for rank, data in enumerate(job.results):
        assert np.all(data == (rank + 1) % 4)
        assert data.dtype == np.uint8 and data.size == 16


def test_get_offset_slicing():
    def main(ctx):
        buf = np.arange(ctx.rank * 100, ctx.rank * 100 + 100, dtype=np.int32)
        win = yield from create_window(ctx.comm, buf)
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.lock(1, LOCK_SHARED)
            raw = yield from win.get(1, offset=4 * 10, nbytes=4 * 5)
            yield from win.unlock(1)
            return raw.view(np.int32)
        return None

    job = run(main)
    assert np.array_equal(job.results[0], np.arange(110, 115, dtype=np.int32))


def test_get_without_lock_raises():
    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank))
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.get(1, 0, 8)
        else:
            yield from win.fence()  # keep others parked past the failure

    with pytest.raises(RMAError, match="outside a lock epoch"):
        run(main)


def test_get_out_of_range_raises():
    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank, size=32))
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.lock(1, LOCK_SHARED)
            yield from win.get(1, offset=30, nbytes=8)
        return None

    with pytest.raises(RMAError, match="exceeds window"):
        run(main)


def test_double_lock_raises():
    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank))
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.lock(1, LOCK_SHARED)
            yield from win.lock(1, LOCK_SHARED)
        return None

    with pytest.raises(RMAError, match="already holds"):
        run(main)


def test_unlock_without_lock_raises():
    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank))
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.unlock(2)
        return None

    with pytest.raises(RMAError, match="does not hold"):
        run(main)


def test_shared_locks_allow_concurrent_readers():
    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank))
        yield from win.fence()
        if ctx.rank != 3:
            yield from win.lock(3, LOCK_SHARED)
            t0 = ctx.now
            yield from win.get(3, 0, 32)
            yield from win.unlock(3)
            return (t0, ctx.now)
        return None

    job = run(main)
    starts = [r[0] for r in job.results[:3]]
    # All readers enter their epoch immediately (no serialisation at lock).
    assert max(starts) - min(starts) < 1e-6


def test_exclusive_lock_blocks_readers_until_released():
    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank))
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.lock(2, LOCK_EXCLUSIVE)
            yield ctx.engine.timeout(1.0)
            yield from win.put(np.full(8, 99, dtype=np.uint8), 2, 0)
            yield from win.unlock(2)
            return None
        if ctx.rank == 1:
            yield ctx.engine.timeout(0.1)  # arrive while 0 holds exclusive
            yield from win.lock(2, LOCK_SHARED)
            entered = ctx.now
            data = yield from win.get(2, 0, 8)
            yield from win.unlock(2)
            return (entered, data)
        return None

    job = run(main)
    entered, data = job.results[1]
    assert entered >= 1.0  # had to wait for the exclusive epoch to end
    assert np.all(data == 99)  # and observed the completed put


def test_put_requires_exclusive_lock():
    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank))
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.lock(1, LOCK_SHARED)
            yield from win.put(b"\x01\x02", 1, 0)
        return None

    with pytest.raises(RMAError, match="exclusive"):
        run(main)


def test_put_roundtrip_visible_to_target():
    # A window over an int, an array or bytes exposes a one-piece Pieces
    # table; a put leaves every target a Pieces cut at its old piece bounds.
    def main(ctx):
        halves = Pieces([np.zeros(6, np.uint8), np.zeros(10, np.uint8)])
        wins = []
        for buf in (16, np.zeros(16, dtype=np.uint8), bytes(16), halves):
            wins.append((yield from create_window(ctx.comm, buf)))
        yield from wins[0].fence()
        if ctx.rank == 0:
            for w in wins:
                yield from w.lock(3, LOCK_EXCLUSIVE)
                yield from w.put(np.arange(16, dtype=np.uint8), 3, 0)
                yield from w.unlock(3)
        yield from wins[0].fence()
        tables = [w.local for w in wins]
        assert all(isinstance(t, Pieces) for t in tables)
        return [t.starts.tolist() for t in tables], [b"".join(t.pieces) for t in tables]

    job = run(main)
    for rank, data in ((3, bytes(range(16))), (1, bytes(16))):
        starts, contents = job.results[rank]
        assert starts == [[0, 16]] * 3 + [[0, 6, 16]]
        assert contents == [data] * 4


def test_get_batch_order_and_contents():
    # Order, contents, and each get's latency booked on the calling handle
    # only.  Over a Pieces window (three "samples" per rank, views of one
    # source blob) a whole-piece read is the piece itself, and a read across
    # pieces — over RMA and over the two-sided transport alike — is sliced
    # per piece into the pieces themselves, never gathered, and re-cut per
    # sample into them too.  A slice takes no step.
    from repro.dataplane import P2PTransport

    def main(ctx):
        blob = memoryview(bytes([ctx.rank]) * 13)
        source = [np.frombuffer(blob[a:b], np.uint8) for a, b in ((0, 4), (4, 10), (10, 13))]
        win = yield from create_window(ctx.comm, Pieces(source))
        assert all(a is b for a, b in zip(win.local.pieces, source))
        p2p = yield from P2PTransport.setup(ctx.comm, win.local)
        yield from win.fence()
        if ctx.rank != 0:
            yield from ctx.comm.barrier()
            yield from p2p.shutdown()
            return win.last_latencies
        for t in (1, 2, 3):
            yield from win.lock(t, LOCK_SHARED)
        t0 = ctx.now
        out = yield from win.get_batch([(3, 0, 4), (1, 0, 4), (2, 0, 4), (1, 0, 13)])
        waited = ctx.now - t0
        for t in (1, 2, 3):
            yield from win.unlock(t)
        pieces = win.window.buffers[1].pieces
        assert out[1] is pieces[0]
        over_p2p = yield from p2p.fetch(np.array([[1, 0, 13]]))
        for span in (out[3], over_p2p.payloads[0]):
            assert all(span[a:b] is p for (a, b), p in zip(((0, 4), (4, 10), (10, 13)), pieces))
            part = span[2:6]  # across two pieces: views of both, in place
            assert [p.ctypes.data for p in part.pieces] == [
                pieces[0].ctypes.data + 2, pieces[1].ctypes.data
            ]
            with pytest.raises(ValueError, match="step"):
                span[::2]  # an ndarray would give every other byte
            cut = span.cut([4, 0, 6, 3, 0])  # zero-size samples, one at the edge
            assert [p.size for p in cut.pieces] == [4, 0, 6, 3, 0]
            assert cut.pieces[0] is pieces[0] and cut.pieces[2] is pieces[1]
            with pytest.raises(ValueError, match="straddles"):
                span.cut([2, 11])
        yield from ctx.comm.barrier()
        yield from p2p.shutdown()
        return [int(p[0]) for p in out[:3]], win.last_latencies.tolist(), waited

    job = run(main)
    order, lat, waited = job.results[0]
    assert order == [3, 1, 2]
    assert len(lat) == 4 and all(0 < x <= waited for x in lat)
    assert all(r is None for r in job.results[1:])


def test_get_batch_empty_is_noop():
    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank))
        yield from win.fence()
        out = yield from win.get_batch([])
        return out

    job = run(main, n_nodes=1)
    assert job.results == [[], []]


def test_a_get_is_a_snapshot():
    """A get is a read-only view of the target's frozen buffer, not a copy:
    nobody can write window memory in place (so the view cannot change),
    and a ``put`` by the exclusive-lock holder swaps the buffer — an
    earlier get keeps the old bytes, a later one sees the new ones."""

    def main(ctx):
        local = _make_local(ctx.rank)
        win = yield from create_window(ctx.comm, local)
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.lock(1, LOCK_SHARED)
            early = yield from win.get(1, 0, 8)
            yield from win.unlock(1)
            assert not early.flags.writeable
            (exposed,) = win.window.buffers[1].pieces  # an array window is one piece
            assert np.shares_memory(early, exposed)
            with pytest.raises(ValueError, match="read-only"):
                exposed[:] = 255
            with pytest.raises(ValueError, match="read-only"):
                early[:] = 255
            with pytest.raises(ValueError, match="read-only"):
                local[:] = 255  # the array handed to create_window is the window's now
            with pytest.raises(ValueError):
                early.setflags(write=True)
            yield from win.lock(1, LOCK_EXCLUSIVE)
            yield from win.put(np.full(4, 255, dtype=np.uint8), 1, 2)
            yield from win.unlock(1)
            yield from win.lock(1, LOCK_SHARED)
            late = yield from win.get(1, 0, 8)
            yield from win.unlock(1)
            assert not any(p.flags.writeable for p in win.window.buffers[1].pieces)
            return early.tolist(), late.tolist()
        return None

    early, late = run(main).results[0]
    assert early == [1] * 8
    assert late == [1, 1, 255, 255, 255, 255, 1, 1]


def test_window_from_int_allocates_zeroed():
    def main(ctx):
        win = yield from create_window(ctx.comm, 32)
        yield from win.fence()
        if ctx.rank == 1:
            yield from win.lock(0, LOCK_SHARED)
            data = yield from win.get(0, 0, 32)
            yield from win.unlock(0)
            return int(data.sum())
        return None

    job = run(main)
    assert job.results[1] == 0


def test_remote_get_slower_than_local_get():
    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank, 4096))
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.lock(1, LOCK_SHARED)  # same node on TESTBOX
            t0 = ctx.now
            yield from win.get(1, 0, 4096)
            local_dt = ctx.now - t0
            yield from win.unlock(1)
            yield from win.lock(2, LOCK_SHARED)  # remote node
            t0 = ctx.now
            yield from win.get(2, 0, 4096)
            remote_dt = ctx.now - t0
            yield from win.unlock(2)
            return (local_dt, remote_dt)
        return None

    job = run(main)
    local_dt, remote_dt = job.results[0]
    assert local_dt < remote_dt


def test_get_batch_all_requests_timeout():
    """When every get blows its deadline: all payloads None, the timeout
    mask is all-True, and each read's observed latency is exactly the
    timeout window (the origin abandons the gets at issue + timeout)."""

    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank, 256))
        yield from win.fence()
        if ctx.rank == 0:
            timeout = 1e-12  # far below any wire latency: all must trip
            requests = [(2, 0, 64), (2, 64, 64), (3, 0, 64)]
            yield from win.lock(2, LOCK_SHARED)
            yield from win.lock(3, LOCK_SHARED)
            t0 = ctx.now
            payloads = yield from win.get_batch(requests, timeout_s=timeout)
            waited = ctx.now - t0
            timed_out = win.last_timeouts.copy()
            latencies = win.last_latencies.copy()
            yield from win.unlock(2)
            yield from win.unlock(3)

            yield from win.lock(2, LOCK_SHARED)
            full = yield from win.get_batch([(2, 0, 64)])  # sanity: data exists
            yield from win.unlock(2)
            return (
                payloads,
                bool(timed_out.all()),
                latencies,
                waited,
                timeout,
                full[0],
            )
        return None

    job = run(main, n_nodes=2)
    payloads, all_timed_out, latencies, waited, timeout, full = job.results[0]
    assert payloads == [None, None, None]
    assert all_timed_out
    # Abandonment caps each observed latency at exactly the window.
    assert np.allclose(latencies, timeout)
    # The origin's total wait spans the last issue plus the window — far
    # below what the transfers themselves would have taken.
    assert waited >= timeout
    assert np.all(full == 2)  # the untimed re-read still sees the bytes


def test_get_batch_per_request_bounds():
    """An array of bounds gives each get its own deadline: ``inf`` waits the
    get out, a hopeless bound abandons it — in one batch."""

    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank, 256))
        yield from win.fence()
        if ctx.rank == 0:
            requests = [(2, 0, 64), (2, 64, 64), (3, 0, 64)]
            yield from win.lock(2, LOCK_SHARED)
            yield from win.lock(3, LOCK_SHARED)
            bounds = np.array([np.inf, 1e-12, np.inf])
            payloads = yield from win.get_batch(requests, timeout_s=bounds)
            timed_out = win.last_timeouts.copy()
            latencies = win.last_latencies.copy()
            yield from win.unlock(2)
            yield from win.unlock(3)
            return payloads, timed_out, latencies
        return None

    payloads, timed_out, latencies = run(main, n_nodes=2).results[0]
    assert list(timed_out) == [False, True, False]
    assert payloads[1] is None and np.all(payloads[0] == 2) and np.all(payloads[2] == 3)
    assert np.isclose(latencies[1], 1e-12) and latencies[0] > 1e-9 and latencies[2] > 1e-9


# ---------------------------------------------------------------------------
# frozen RMA timing corpus
# ---------------------------------------------------------------------------

RMA_CORPUS = os.path.join(os.path.dirname(__file__), "data", "rma_corpus.json")


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _nic_state(cluster) -> list:
    """Every NIC station's full state: ``[jobs_served, busy_time,
    bytes_served, cur_bucket, used, carry]`` per station, nodes in order,
    outbound before inbound."""
    return [
        [s.jobs_served, s.busy_time.hex(), int(s.bytes_served), s.cur_bucket,
         s.used.hex(), s.carry.hex()]
        for node in cluster.nodes
        for s in (node.nic_out, node.nic_in)
    ]


def replay_rma_script(script: dict) -> dict:
    """Run a scripted sequence of batched RMA gets and return what the
    timing model said about each, exactly.

    ``interconnect`` ops price ``Interconnect.rma_get_batch`` calls on a
    bare cluster (``["faults", plan_name | None]`` swaps the fault model);
    each call records its issue and completion times as ``float.hex`` and
    every NIC station's state after it.  ``window`` ops run
    ``WinHandle.get_batch`` from two origins of a live world under a fault
    plan, with no, scalar and per-read timeouts; each records the timed-out
    flags, per-read latencies, payload sizes and the clock after it."""
    machine = get_machine(script["machine"])
    seed = script["seed"]
    cluster = Cluster(Engine(), machine, script["n_nodes"])
    assert script["jitter_sigma"] == JITTER_SIGMA  # the corpus's network
    net = Interconnect(cluster, seed=seed)
    priced = []
    for op, *args in script["interconnect"]:
        if op == "faults":
            plan = args[0]
            net.faults = (
                None if plan is None
                else RankFaultModel(build_fault_plan(plan, cluster.n_ranks, seed).events)
            )
            continue
        origin, targets, nbytes, arrival, n_streams = args
        timing = net.rma_get_batch(
            origin, np.array(targets, np.int64), np.array(nbytes, np.float64), arrival,
            n_streams=n_streams,
        )
        n_perturbed = 0 if net.faults is None else net.faults.n_perturbed
        priced.append([
            _hex(timing.issues), _hex(timing.completions), _nic_state(cluster), n_perturbed,
        ])

    win_script = script["window"]
    world = World(machine, win_script["n_nodes"], seed=seed)
    install_faults(world, build_fault_plan(win_script["fault_plan"], world.n_ranks, seed))

    def main(ctx):
        win = yield from create_window(ctx.comm, _make_local(ctx.rank, win_script["nbytes"]))
        yield from win.fence()
        log = []
        for requests, timeout_s, pause in win_script["ops"].get(str(ctx.rank), []):
            yield ctx.engine.timeout(pause)
            targets = sorted({t for t, _, _ in requests})
            for t in targets:
                yield from win.lock(t, LOCK_SHARED)
            bound = np.array(timeout_s, np.float64) if isinstance(timeout_s, list) else timeout_s
            payloads = yield from win.get_batch(requests, n_streams=2, timeout_s=bound)
            for t in targets:
                yield from win.unlock(t)
            flags = win.last_timeouts
            log.append([
                None if flags is None else flags.tolist(),
                _hex(win.last_latencies),
                [None if p is None else [int(p.size), int(p[0]) if p.size else None]
                 for p in payloads],
                ctx.now.hex(),
            ])
        return log

    job = run_world(machine, win_script["n_nodes"], main, world=world)
    return dict(
        interconnect=priced,
        window=[job.results, _nic_state(world.cluster), world.engine._seq],
    )


def test_rma_timing_matches_the_frozen_corpus():
    """``tests/data/rma_corpus.json`` holds what the RMA timing chain
    returned before its per-get work moved from array passes to Python
    lists: batched gets over same-node and cross-node targets, one to
    three issuing streams, zero-byte reads, arrivals in an already-closed
    NIC bucket and after idle gaps, under no faults, a 10x straggler and a
    blackout; then windowed ``get_batch`` calls with no, scalar and
    per-read timeouts.  Every issue and completion time, NIC station
    state, timed-out flag and latency must repeat exactly."""
    with open(RMA_CORPUS) as fh:
        corpus = json.load(fh)
    assert replay_rma_script(corpus["script"]) == corpus["expected"]
