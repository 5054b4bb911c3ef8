"""Shared-resource primitives for the discrete-event kernel.

The three building blocks the simulated machine uses:

* :class:`RWLock` — a reader-writer lock with a FIFO wait queue per
  class, the model of an MPI RMA window lock.
* :class:`QueueStation` - an *analytic* single-server FIFO queue that hands
  out completion times in O(1) without creating events, used on hot paths
  (per-sample RMA gets, per-file PFS reads) where creating a heap event per
  request would dominate runtime.  This follows the hpc-parallel guidance of
  vectorising inner loops: batched arrivals are served with one NumPy pass.
* :class:`FluidStation` — a bucketed fluid queue for links priced
  batch-at-a-time out of call order (the NICs).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from .engine import Engine, Event, SimulationError

__all__ = ["QueueStation", "FluidStation", "RWLock"]


class RWLock:
    """Reader-writer lock with writer priority, as an MPI RMA lock model.

    ``MPI_LOCK_SHARED`` maps to reader acquisition and ``MPI_LOCK_EXCLUSIVE``
    to writer acquisition.  All waits are FIFO within their class, writers
    jump ahead of later readers (matching typical MPI implementations that
    avoid writer starvation).
    """

    def __init__(self, engine: Engine, name: str = "rwlock") -> None:
        self.engine = engine
        self.name = name
        self.readers = 0
        self.writer = False
        self._wait_readers: deque[Event] = deque()
        self._wait_writers: deque[Event] = deque()

    def acquire_shared(self) -> Event:
        ev = Event(self.engine, name=("{.name}:shared", self))
        if not self.writer and not self._wait_writers:
            self.readers += 1
            ev.succeed(self)
        else:
            self._wait_readers.append(ev)
        return ev

    def acquire_exclusive(self) -> Event:
        ev = Event(self.engine, name=("{.name}:exclusive", self))
        if not self.writer and self.readers == 0:
            self.writer = True
            ev.succeed(self)
        else:
            self._wait_writers.append(ev)
        return ev

    def release_shared(self) -> None:
        if self.readers <= 0:
            raise SimulationError(f"release_shared on {self.name!r} with no readers")
        self.readers -= 1
        self._dispatch()

    def release_exclusive(self) -> None:
        if not self.writer:
            raise SimulationError(f"release_exclusive on {self.name!r} with no writer")
        self.writer = False
        self._dispatch()

    def _dispatch(self) -> None:
        if self.writer or self.readers:
            if self.readers and not self.writer and not self._wait_writers:
                while self._wait_readers:
                    self.readers += 1
                    self._wait_readers.popleft().succeed(self)
            return
        if self._wait_writers:
            self.writer = True
            self._wait_writers.popleft().succeed(self)
            return
        while self._wait_readers:
            self.readers += 1
            self._wait_readers.popleft().succeed(self)


class QueueStation:
    """Analytic single-server FIFO queue (no events created).

    ``serve(arrival, service_time)`` returns the completion time of a job
    arriving at ``arrival`` needing ``service_time`` of exclusive service,
    assuming FIFO order of calls.  ``serve_batch`` vectorises the recurrence

        finish[i] = max(arrival[i], finish[i-1]) + service[i]

    which models back-to-back requests hitting the same NIC, OST, or
    metadata server.  This is exact for a work-conserving single server fed
    in call order.
    """

    __slots__ = ("engine", "name", "busy_until", "jobs_served", "busy_time")

    def __init__(self, engine: Engine, name: str = "station") -> None:
        self.engine = engine
        self.name = name
        self.busy_until = 0.0
        self.jobs_served = 0
        self.busy_time = 0.0

    def serve(self, arrival: float, service_time: float) -> float:
        if service_time < 0:
            raise ValueError("negative service time")
        start = arrival if arrival > self.busy_until else self.busy_until
        finish = start + service_time
        self.busy_until = finish
        self.jobs_served += 1
        self.busy_time += service_time
        return finish

    def serve_batch(self, arrival: float, service_times: np.ndarray) -> np.ndarray:
        """Serve a batch of jobs all arriving at ``arrival``; returns finish times."""
        service_times = np.asarray(service_times, dtype=np.float64)
        if service_times.size == 0:
            return service_times.copy()
        if np.any(service_times < 0):
            raise ValueError("negative service time in batch")
        start = arrival if arrival > self.busy_until else self.busy_until
        finishes = start + np.cumsum(service_times)
        self.busy_until = float(finishes[-1])
        self.jobs_served += int(service_times.size)
        self.busy_time += float(service_times.sum())
        return finishes

    def utilisation(self, horizon: Optional[float] = None) -> float:
        horizon = self.engine.now if horizon is None else horizon
        return 0.0 if horizon <= 0 else min(1.0, self.busy_time / horizon)

    def reset(self) -> None:
        self.busy_until = 0.0
        self.jobs_served = 0
        self.busy_time = 0.0


class FluidStation:
    """Order-insensitive congestion model for links/NICs (fluid queue).

    :class:`QueueStation` is exact but requires chronological calls — one
    caller pricing a whole batch of future arrivals "reserves" the server
    far into the future and spuriously delays other callers whose arrivals
    interleave.  NIC traffic in this simulator is priced batch-at-a-time
    per rank, so NICs use this model instead: time is split into buckets
    of width ``bucket_s``; each request books ``service`` seconds of link
    occupancy into its arrival bucket, overload carries over to later
    buckets, and a request's queueing delay is the backlog standing in its
    bucket when it arrives.  Requests in the past of the current bucket
    are treated as current-bucket arrivals (bounded, bucket-sized error),
    and an idle link genuinely has zero delay regardless of what any other
    caller booked for later times.
    """

    __slots__ = ("engine", "name", "bucket_s", "cur_bucket", "used", "carry",
                 "jobs_served", "busy_time", "bytes_served")

    def __init__(self, engine: Engine, bucket_s: float = 2.5e-4, name: str = "fluid") -> None:
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        self.engine = engine
        self.name = name
        self.bucket_s = bucket_s
        self.cur_bucket = 0
        self.used = 0.0  # service booked into the current bucket
        self.carry = 0.0  # backlog carried into the current bucket
        self.jobs_served = 0
        self.busy_time = 0.0
        self.bytes_served = 0  # payload bytes, when the caller knows them

    def _advance(self, bucket: int) -> None:
        if bucket <= self.cur_bucket:
            return
        # Close the current bucket: unserved work spills into the carry,
        # and each elapsed empty bucket drains up to bucket_s of backlog.
        self.carry = max(0.0, self.carry + self.used - self.bucket_s)
        gap = bucket - self.cur_bucket - 1
        if gap > 0:
            self.carry = max(0.0, self.carry - gap * self.bucket_s)
        self.used = 0.0
        self.cur_bucket = bucket

    def serve(self, arrival: float, service_time: float, nbytes: int = 0) -> float:
        if service_time < 0:
            raise ValueError("negative service time")
        bucket = int(arrival / self.bucket_s)
        if bucket > self.cur_bucket:
            self._advance(bucket)
        if bucket < self.cur_bucket:
            offset = 0.0  # late-priced past arrival: charge as "now"
        else:
            offset = arrival - self.cur_bucket * self.bucket_s
            if offset < 0.0:
                offset = 0.0
        queue = self.carry + self.used - offset
        if not queue > 0.0:
            queue = 0.0
        self.used += service_time
        self.jobs_served += 1
        self.busy_time += service_time
        self.bytes_served += nbytes
        return arrival + queue + service_time

    def utilisation(self, horizon: Optional[float] = None) -> float:
        horizon = self.engine.now if horizon is None else horizon
        return 0.0 if horizon <= 0 else min(1.0, self.busy_time / horizon)

    def reset(self) -> None:
        self.cur_bucket = 0
        self.used = 0.0
        self.carry = 0.0
        self.jobs_served = 0
        self.busy_time = 0.0
        self.bytes_served = 0
