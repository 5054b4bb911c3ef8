"""Unit tests for repro.sim.resources."""

import numpy as np
import pytest

from repro.sim import Engine, QueueStation, RWLock, SimulationError


# ---------------------------------------------------------------------------
# RWLock
# ---------------------------------------------------------------------------

def test_rwlock_concurrent_readers():
    eng = Engine()
    lock = RWLock(eng)
    active = []
    peak = []

    def reader():
        yield lock.acquire_shared()
        active.append(1)
        peak.append(len(active))
        yield eng.timeout(1)
        active.pop()
        lock.release_shared()

    for _ in range(4):
        eng.process(reader())
    eng.run()
    assert max(peak) == 4
    assert eng.now == pytest.approx(1.0)


def test_rwlock_writer_excludes_readers():
    eng = Engine()
    lock = RWLock(eng)
    trace = []

    def writer():
        yield lock.acquire_exclusive()
        trace.append(("w-in", eng.now))
        yield eng.timeout(2)
        trace.append(("w-out", eng.now))
        lock.release_exclusive()

    def reader():
        yield eng.timeout(0.5)  # arrive while the writer holds the lock
        yield lock.acquire_shared()
        trace.append(("r-in", eng.now))
        lock.release_shared()

    eng.process(writer())
    eng.process(reader())
    eng.run()
    assert trace == [("w-in", 0.0), ("w-out", 2.0), ("r-in", 2.0)]


def test_rwlock_writer_priority_over_later_readers():
    eng = Engine()
    lock = RWLock(eng)
    order = []

    def long_reader():
        yield lock.acquire_shared()
        yield eng.timeout(2)
        lock.release_shared()
        order.append("r0")

    def writer():
        yield eng.timeout(0.1)
        yield lock.acquire_exclusive()
        order.append("w")
        lock.release_exclusive()

    def late_reader():
        yield eng.timeout(0.2)
        yield lock.acquire_shared()
        order.append("r1")
        lock.release_shared()

    eng.process(long_reader())
    eng.process(writer())
    eng.process(late_reader())
    eng.run()
    assert order == ["r0", "w", "r1"]


def test_rwlock_release_errors():
    eng = Engine()
    lock = RWLock(eng)
    with pytest.raises(SimulationError):
        lock.release_shared()
    with pytest.raises(SimulationError):
        lock.release_exclusive()


# ---------------------------------------------------------------------------
# QueueStation
# ---------------------------------------------------------------------------

def test_station_idle_server_serves_immediately():
    eng = Engine()
    q = QueueStation(eng)
    assert q.serve(arrival=1.0, service_time=0.5) == pytest.approx(1.5)


def test_station_back_to_back_jobs_queue():
    eng = Engine()
    q = QueueStation(eng)
    f1 = q.serve(0.0, 1.0)
    f2 = q.serve(0.0, 1.0)
    f3 = q.serve(2.5, 1.0)  # arrives after the backlog drains
    assert (f1, f2, f3) == (1.0, 2.0, 3.5)


def test_station_batch_matches_sequential_serves():
    eng = Engine()
    q1, q2 = QueueStation(eng), QueueStation(eng)
    services = np.array([0.3, 0.1, 0.4, 0.2])
    batch = q2.serve_batch(5.0, services)
    seq = [q1.serve(5.0, s) for s in services]
    assert np.allclose(batch, seq)
    assert q1.busy_until == q2.busy_until


def test_station_batch_empty():
    eng = Engine()
    q = QueueStation(eng)
    out = q.serve_batch(0.0, np.array([]))
    assert out.size == 0
    assert q.busy_until == 0.0


def test_station_rejects_negative_service():
    eng = Engine()
    q = QueueStation(eng)
    with pytest.raises(ValueError):
        q.serve(0.0, -1.0)
    with pytest.raises(ValueError):
        q.serve_batch(0.0, np.array([0.1, -0.1]))


def test_station_utilisation_and_reset():
    eng = Engine()
    q = QueueStation(eng)
    q.serve(0.0, 3.0)
    assert q.utilisation(horizon=6.0) == pytest.approx(0.5)
    q.reset()
    assert q.jobs_served == 0
    assert q.busy_until == 0.0


def test_event_labels_are_built_on_read():
    """Hot-path events carry a (template, arg) label formatted only when
    read; the text is what the eager f-strings produced."""
    eng = Engine()

    def worker():
        yield eng.timeout(10)

    def newest():  # the event scheduled last
        return max(eng._heap, key=lambda entry: entry[1])[2]

    proc = eng.process(worker(), name="worker")
    assert repr(newest()) == "<Event 'init:worker' triggered>"
    eng.run(until=1)
    proc.interrupt()
    assert repr(newest()) == "<Event 'interrupt:worker' triggered>"
    assert repr(eng.timeout(1.5)) == "<Timeout 'timeout(1.5)' triggered>"
    assert eng.timeout(2.5e-7).name == "timeout(2.5e-07)"

    lock = RWLock(eng, name="win[3]")
    assert repr(lock.acquire_exclusive()) == "<Event 'win[3]:exclusive' triggered>"
    shared = lock.acquire_shared()
    assert repr(shared) == "<Event 'win[3]:shared' pending>"
    lock.name = "win[4]"  # the label reads the lock's name when it is read
    lock.release_exclusive()
    assert repr(shared) == "<Event 'win[4]:shared' triggered>"
    assert repr(eng.event("plain")) == "<Event 'plain' pending>"
