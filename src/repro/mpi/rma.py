"""One-sided RMA: MPI windows with lock/unlock epochs and Get/Put.

This is the communication layer DDStore is built on (paper §3.2).  Each
rank exposes a byte buffer through a collectively-created
:class:`Window`; remote ranks read it with ``MPI_Get`` under a shared lock
without involving the target process — the target only pays NIC occupancy,
which the interconnect model charges.

Semantic checks mirror MPI rules: access outside a lock epoch, puts under a
shared lock, and out-of-range transfers all raise :class:`RMAError` instead
of corrupting memory.

The vectorised :meth:`WinHandle.get_batch` is the DDStore hot path: it
prices a whole mini-batch of gets in one NumPy pass (per-target FIFO
queueing included), slices the payloads out of the target buffers, and
yields once.

Window memory is written once and then only read.  A window *owns* its
ranks' buffers and freezes them (``writeable=False``), so a get is a
read-only view of the target's bytes, not a memcpy; the rare
:meth:`WinHandle.put` replaces the target's buffer (copy-on-write), which
keeps every earlier get the snapshot MPI says it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

import numpy as np

from ..sim import RWLock
from .comm import Comm, Communicator
from .errors import RMAError

__all__ = [
    "LOCK_SHARED", "LOCK_EXCLUSIVE", "Window", "WinHandle", "create_window", "freeze_buffer",
]

LOCK_SHARED = "shared"
LOCK_EXCLUSIVE = "exclusive"


@dataclass
class _GetRecord:
    """One completed get, kept for latency-distribution experiments."""

    origin: int
    target: int
    nbytes: int
    issued_at: float
    completed_at: float

    @property
    def latency(self) -> float:
        return self.completed_at - self.issued_at


class Window:
    """Shared state of one RMA window across all ranks of a communicator."""

    def __init__(self, communicator: Communicator, buffers: dict[int, np.ndarray]) -> None:
        self.communicator = communicator
        if set(buffers) != set(range(communicator.size)):
            raise RMAError("window requires exactly one buffer per rank")
        # rank -> its exposed bytes: frozen, replaced (never written) by put.
        self.buffers: dict[int, np.ndarray] = {}
        for rank, buf in buffers.items():
            self.buffers[rank] = freeze_buffer(buf)
        # Per-rank columns the batched get checks and prices against.
        ranks = range(communicator.size)
        self.sizes = np.array([self.buffers[r].size for r in ranks], dtype=np.int64)
        self.world_ranks = np.array([communicator.world_rank(r) for r in ranks], dtype=np.int64)
        self.locks = [
            RWLock(communicator.engine, name=f"win-lock[{r}]")
            for r in range(communicator.size)
        ]
        self.get_log: list[_GetRecord] = []
        self.record_gets = False

    def buffer_size(self, rank: int) -> int:
        return int(self.buffers[rank].size)


class WinHandle:
    """Per-rank handle on a window (tracks this rank's lock epochs)."""

    def __init__(self, window: Window, comm: Comm) -> None:
        self.window = window
        self.comm = comm
        self._held: dict[int, str] = {}  # target rank -> lock type
        # Per-request latencies of this handle's most recent get_batch
        # (rank-local; the shared window.get_log interleaves ranks).
        self.last_latencies: Optional[np.ndarray] = None
        # Per-request timeout flags of the most recent get_batch (None when
        # the batch ran without a timeout).
        self.last_timeouts: Optional[np.ndarray] = None

    @property
    def engine(self):
        return self.comm.engine

    @property
    def local(self) -> np.ndarray:
        """This rank's exposed buffer (a read-only uint8 view)."""
        return self.window.buffers[self.comm.rank]

    # -- lock epochs -------------------------------------------------------
    def lock(self, target: int, lock_type: str = LOCK_SHARED) -> Generator:
        self._check_target(target)
        if target in self._held:
            raise RMAError(f"rank {self.comm.rank} already holds a lock on {target}")
        start = self.engine.now
        rwlock = self.window.locks[target]
        if lock_type == LOCK_SHARED:
            yield rwlock.acquire_shared()
        elif lock_type == LOCK_EXCLUSIVE:
            yield rwlock.acquire_exclusive()
        else:
            raise RMAError(f"unknown lock type {lock_type!r}")
        self._held[target] = lock_type
        self.comm.stats.record("MPI_Win_lock", self.engine.now - start)
        obs = self.comm.communicator.world.obs
        if obs.tracing:
            obs.tracer.record(
                "rma.lock",
                cat="mpi.rma",
                track=self.comm.world_rank,
                lane=1,
                start=start,
                end=self.engine.now,
                target=target,
                kind=lock_type,
            )

    def unlock(self, target: int) -> Generator:
        held = self._held.pop(target, None)
        if held is None:
            raise RMAError(f"rank {self.comm.rank} does not hold a lock on {target}")
        rwlock = self.window.locks[target]
        if held == LOCK_SHARED:
            rwlock.release_shared()
        else:
            rwlock.release_exclusive()
        self.comm.stats.record("MPI_Win_unlock", 0.0)
        return
        yield  # pragma: no cover - makes this a generator for API symmetry

    def fence(self) -> Generator:
        """Collective synchronisation (MPI_Win_fence)."""
        start = self.engine.now
        yield from self.comm.barrier()
        self.comm.stats.record("MPI_Win_fence", self.engine.now - start)

    # -- data movement -----------------------------------------------------
    def get(self, target: int, offset: int, nbytes: int) -> Generator:
        """Read ``nbytes`` at ``offset`` from the target's buffer.

        Returns the bytes as a read-only ``np.uint8`` view of the target's
        buffer after yielding for the modelled transfer time.
        """
        out = yield from self.get_batch([(target, offset, nbytes)])
        return out[0]

    def get_batch(
        self,
        requests: "np.ndarray | Sequence[tuple[int, int, int]]",
        n_streams: int = 1,
        timeout_s: "Optional[float | np.ndarray]" = None,
    ) -> Generator:
        """Issue many gets back-to-back; wait for all (DDStore hot path).

        ``requests`` is one ``(target_rank, offset, nbytes)`` row per get (an
        ``(n, 3)`` integer array — a :class:`~repro.dataplane.FetchPlan`'s
        ``reads`` — or a sequence of triples); ``n_streams`` models
        concurrent issuing threads (loader workers).  Returns the payloads
        in request order, each a read-only view of the target's buffer as
        it is now (a later ``put`` replaces that buffer, it never writes it).
        Per-request latencies are appended to the window's ``get_log`` when
        recording is enabled.

        ``timeout_s`` bounds each get's observed latency: a get that has
        not completed ``timeout_s`` virtual seconds after being issued is
        abandoned — its payload slot comes back ``None`` and its flag in
        ``last_timeouts`` is set.  The origin only waits for the
        non-abandoned gets (plus the timeout window of abandoned ones).
        One value bounds every get alike; an array gives each get its own
        bound (``inf`` = wait this one out).
        """
        requests = np.asarray(requests, dtype=np.int64).reshape(-1, 3)
        if not len(requests):
            self.last_timeouts = None
            return []
        comm = self.comm
        window = self.window
        engine = self.engine
        targets, offsets, sizes = requests[:, 0], requests[:, 1], requests[:, 2]
        ends = offsets + sizes

        # MPI's semantic checks, once per batch.
        self._check_target(int(targets.min()))
        self._check_target(int(targets.max()))
        target_list = targets.tolist()
        unlocked = set(target_list) - self._held.keys()
        if unlocked:
            raise RMAError(
                f"rank {comm.rank} issued MPI_Get to {min(unlocked)} outside a lock epoch"
            )
        bad = (sizes < 0) | (offsets < 0) | (ends > window.sizes[targets])
        if bad.any():
            t, off, nb = requests[np.flatnonzero(bad)[0]].tolist()
            raise RMAError(
                f"get of [{off}, {off + nb}) exceeds window of rank {t} "
                f"({window.buffer_size(t)} bytes)"
            )

        # The data: views of the frozen target buffers.
        buffers = window.buffers
        payloads = [
            buffers[t][lo:hi]
            for t, lo, hi in zip(target_list, offsets.tolist(), ends.tolist())
        ]

        # Timing: one vectorised pass through the interconnect model.
        issued = engine.now
        timing = comm.communicator.net.rma_get_batch(
            comm.world_rank, window.world_ranks[targets], sizes.astype(np.float64), issued,
            n_streams=n_streams,
        )
        completions = timing.completions
        if timeout_s is None:
            waited = completions
            timed_out = None
            self.last_timeouts = None
        else:
            # A get that blows its deadline is abandoned at issue+timeout:
            # the origin stops waiting for it (the in-flight transfer still
            # occupied the NICs — abandonment does not reclaim wire time).
            deadlines = timing.issues + np.asarray(timeout_s, dtype=np.float64)
            timed_out = completions > deadlines
            waited = np.minimum(completions, deadlines)
            self.last_timeouts = timed_out
            for i in np.flatnonzero(timed_out).tolist():
                payloads[i] = None
        finish = float(waited.max()) if waited.size else 0.0
        self.last_latencies = waited - timing.issues
        if window.record_gets:
            for t, nb, iss, done in zip(targets, sizes, timing.issues, waited):
                window.get_log.append(
                    _GetRecord(
                        origin=comm.rank,
                        target=int(t),
                        nbytes=int(nb),
                        issued_at=float(iss),
                        completed_at=float(done),
                    )
                )
        total_bytes = int(sizes.sum())
        yield engine.timeout(max(0.0, finish - issued))
        comm.stats.record("MPI_Get", engine.now - issued, total_bytes)
        obs = comm.communicator.world.obs
        if obs.tracing:
            obs.tracer.record(
                "rma.get_batch",
                cat="mpi.rma",
                track=comm.world_rank,
                lane=1,
                start=issued,
                end=engine.now,
                n_reads=len(requests),
                nbytes=total_bytes,
                n_timeouts=int(timed_out.sum()) if timed_out is not None else 0,
            )
        return payloads

    def put(self, data: np.ndarray | bytes, target: int, offset: int) -> Generator:
        """Write ``data`` into the target's window (requires exclusive lock).

        Copy-on-write: the target's buffer is replaced by an updated copy,
        so gets issued before the put keep the bytes they were given.
        """
        self._check_target(target)
        held = self._held.get(target)
        if held != LOCK_EXCLUSIVE:
            raise RMAError(
                f"MPI_Put by rank {self.comm.rank} on {target} requires an "
                f"exclusive lock (held: {held!r})"
            )
        payload = np.frombuffer(data, dtype=np.uint8) if isinstance(
            data, (bytes, bytearray, memoryview)
        ) else np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        buf = self.window.buffers[target]
        if offset < 0 or offset + payload.size > buf.size:
            raise RMAError(
                f"put of [{offset}, {offset + payload.size}) exceeds window "
                f"of rank {target} ({buf.size} bytes)"
            )
        comm = self.comm
        engine = self.engine
        issued = engine.now
        timing = comm.communicator.net.rma_get(
            comm.world_rank,
            comm.communicator.world_rank(target),
            int(payload.size),
            issued,
        )
        yield engine.timeout(max(0.0, timing.completion - issued))
        updated = buf.copy()  # still the target's buffer: this rank holds its exclusive lock
        updated[offset : offset + payload.size] = payload
        self.window.buffers[target] = freeze_buffer(updated)
        comm.stats.record("MPI_Put", engine.now - issued, int(payload.size))

    # -- helpers -----------------------------------------------------------
    def _check_target(self, target: int) -> None:
        if not 0 <= target < self.comm.size:
            raise RMAError(f"target rank {target} out of range (size {self.comm.size})")


def create_window(comm: Comm, local_buffer: np.ndarray | bytes | int) -> Generator:
    """Collectively create a window (MPI_Win_create).

    ``local_buffer`` is this rank's exposed memory: a NumPy array, raw
    bytes, or an integer byte count (allocated zeroed).  The window takes
    ownership: an array (and every array it is a view of) becomes
    read-only, and only :meth:`WinHandle.put` changes what the window
    exposes.  Returns this rank's :class:`WinHandle`.
    """
    if isinstance(local_buffer, int):
        buf = np.zeros(local_buffer, dtype=np.uint8)
    elif isinstance(local_buffer, (bytes, bytearray, memoryview)):
        buf = np.frombuffer(local_buffer, dtype=np.uint8)
    else:
        buf = np.ascontiguousarray(local_buffer)
    window = yield from comm.fuse(_build_window, buf, call_name="MPI_Win_create")
    return WinHandle(window, comm)


def freeze_buffer(buf: np.ndarray) -> np.ndarray:
    """Take ownership of ``buf``: return it as a flat ``uint8`` view, with
    that view and every array it is a view of made read-only."""
    flat = np.ascontiguousarray(buf).view(np.uint8).reshape(-1)
    arr = flat
    while isinstance(arr, np.ndarray):
        arr.setflags(write=False)
        arr = arr.base
    return flat


def _build_window(communicator: Communicator, buffers: list) -> Window:
    return Window(communicator, dict(enumerate(buffers)))
