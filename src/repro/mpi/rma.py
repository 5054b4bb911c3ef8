"""One-sided RMA: MPI windows with lock/unlock epochs and Get/Put.

This is the communication layer DDStore is built on (paper §3.2).  Each
rank exposes a byte buffer through a collectively-created
:class:`Window`; remote ranks read it with ``MPI_Get`` under a shared lock
without involving the target process — the target only pays NIC occupancy,
which the interconnect model charges.

Semantic checks mirror MPI rules: access outside a lock epoch, puts under a
shared lock, and out-of-range transfers all raise :class:`RMAError` instead
of corrupting memory.

The batched :meth:`WinHandle.get_batch` is the DDStore hot path.  Per
read, in one pass, it applies MPI's checks (target in range, locked,
bytes inside the window) and slices the payload view out of the target
buffer; per batch it makes one call into the interconnect model (which
prices each read's software path and NIC serves, see
:mod:`repro.hardware.network`), applies the timeouts, and yields once.
Lock epochs are taken per target by the caller (:meth:`WinHandle.lock`).

A rank's window memory is a :class:`Pieces` table: read-only arrays laid
back to back, each a view of bytes someone else already holds.  DDStore
exposes its chunk as one piece per sample, so the host keeps one copy of
the dataset; a plain array, bytes or a byte count handed to
:func:`create_window` becomes a one-piece table.  The memory is written
once and then only read: a get is a read-only view of the target's
pieces, not a memcpy, and the rare :meth:`WinHandle.put` replaces the
target's table (copy-on-write), which keeps every earlier get the
snapshot MPI says it is.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional, Sequence

import numpy as np

from ..sim import RWLock
from .comm import Comm, Communicator
from .errors import RMAError

__all__ = ["LOCK_SHARED", "LOCK_EXCLUSIVE", "Pieces", "Window", "WinHandle", "create_window"]

LOCK_SHARED = "shared"
LOCK_EXCLUSIVE = "exclusive"


class Pieces:
    """Read-only bytes held as pieces laid back to back, none of them copied.

    ``pieces`` are flat read-only ``uint8`` arrays, ``starts`` their byte
    offsets (``starts[-1] == size``) and ``whole`` maps the offset of each
    nonempty piece to it.  A table takes ownership of what it is handed:
    each piece, and every array it is a view of, is made read-only.  A
    slice (step 1 only) that is exactly one piece is that piece; one
    inside a piece is a view of it; one across pieces is a ``Pieces`` of
    views.  Nothing here ever gathers the pieces into one buffer.
    """

    __slots__ = ("pieces", "starts", "whole", "size")

    def __init__(self, pieces: Iterable) -> None:
        flat = []
        for piece in pieces:
            if isinstance(piece, Pieces):
                flat += piece.pieces
            else:
                flat.append(self._freeze(piece))
        self._lay(flat)

    @staticmethod
    def _freeze(buf: "np.ndarray | bytes") -> np.ndarray:
        """``buf`` as a flat ``uint8`` view, with that view and every array
        it is a view of made read-only (so neither can be flipped back)."""
        if isinstance(buf, (bytes, bytearray, memoryview)):
            buf = np.frombuffer(buf, dtype=np.uint8)
        flat = buf if buf.dtype == np.uint8 and buf.ndim == 1 and buf.flags.c_contiguous else (
            np.ascontiguousarray(buf).view(np.uint8).reshape(-1)
        )
        arr = flat
        while isinstance(arr, np.ndarray):
            arr.setflags(write=False)
            arr = arr.base
        return flat

    def _lay(self, flat: list) -> "Pieces":
        """Lay the frozen pieces ``flat`` back to back."""
        self.pieces = flat
        starts = np.zeros(len(flat) + 1, dtype=np.int64)
        np.cumsum(np.fromiter((p.size for p in flat), np.int64, len(flat)), out=starts[1:])
        self.starts = starts
        self.size = int(starts[-1])
        self.whole = {at: p for at, p in zip(starts.tolist(), flat) if p.size}
        return self

    @property
    def nbytes(self) -> int:
        return self.size

    def __getitem__(self, key: slice) -> "np.ndarray | Pieces":
        lo, hi, step = key.indices(self.size)
        if step != 1:
            raise ValueError(f"a Pieces slice takes no step (got {step})")
        piece = self.whole.get(lo)
        if piece is not None and piece.size == hi - lo:
            return piece
        if hi <= lo:
            return _EMPTY
        # The pieces holding the first and the last byte.
        starts, pieces = self.starts, self.pieces
        i, j = (np.searchsorted(starts, (lo, hi - 1), side="right") - 1).tolist()
        at_i, at_j, end_j = int(starts[i]), int(starts[j]), int(starts[j + 1])
        if i == j:
            return pieces[i][lo - at_i : hi - at_i]
        first = pieces[i] if lo == at_i else pieces[i][lo - at_i :]
        last = pieces[j] if hi == end_j else pieces[j][: hi - at_j]
        # Views of frozen pieces are read-only: nothing to freeze again.
        return Pieces.__new__(Pieces)._lay([first, *pieces[i + 1 : j], last])

    def views(self, offsets: Sequence[int], sizes: Sequence[int]) -> list:
        """``[self[o : o + n] for o, n in zip(offsets, sizes)]``, with a
        whole piece found by one dict lookup and no call."""
        whole, out = self.whole, []
        for off, nb in zip(offsets, sizes):
            piece = whole.get(off)
            out.append(piece if piece is not None and piece.size == nb else self[off : off + nb])
        return out

    def cut(self, sizes: np.ndarray) -> "Pieces":
        """This table cut again into one piece per entry of ``sizes`` (a
        reshard's spans, one per old owner, into samples): views, nothing
        copied.  A sample straddling two pieces is a ``ValueError``."""
        sizes = np.asarray(sizes, dtype=np.int64)
        if self.size != int(sizes.sum()):
            raise ValueError(f"pieces hold {self.size} bytes, the size table {int(sizes.sum())}")
        ends = np.cumsum(sizes)
        samples = self.views((ends - sizes).tolist(), sizes.tolist())
        if any(isinstance(v, Pieces) for v in samples):
            raise ValueError("a sample straddles two pieces")
        return Pieces.__new__(Pieces)._lay(samples)


_EMPTY = np.zeros(0, dtype=np.uint8)
_EMPTY.setflags(write=False)


class Window:
    """Shared state of one RMA window across all ranks of a communicator."""

    def __init__(self, communicator: Communicator, buffers: dict) -> None:
        self.communicator = communicator
        if set(buffers) != set(range(communicator.size)):
            raise RMAError("window requires exactly one buffer per rank")
        # rank -> its exposed Pieces table, replaced (never written) by put.
        self.buffers: dict[int, Pieces] = buffers
        # comm rank -> world rank, the batched get's pricing key.
        self.world_ranks = [communicator.world_rank(r) for r in range(communicator.size)]
        self.locks = [
            RWLock(communicator.engine, name=f"win-lock[{r}]")
            for r in range(communicator.size)
        ]


class WinHandle:
    """Per-rank handle on a window (tracks this rank's lock epochs)."""

    def __init__(self, window: Window, comm: Comm) -> None:
        self.window = window
        self.comm = comm
        # Fixed for the handle's life, bound once for the per-get paths.
        self._engine = comm.engine
        self._world = comm.communicator.world
        self._stats = comm.stats  # this rank's MPI call accounting
        self._held: dict[int, str] = {}  # target rank -> lock type
        # Per-request latencies of this handle's most recent get_batch.
        self.last_latencies: Optional[np.ndarray] = None
        # Per-request timeout flags of the most recent get_batch (None when
        # the batch ran without a timeout).
        self.last_timeouts: Optional[np.ndarray] = None

    @property
    def engine(self):
        return self._engine

    @property
    def local(self) -> Pieces:
        """This rank's exposed bytes."""
        return self.window.buffers[self.comm.rank]

    # -- lock epochs -------------------------------------------------------
    def lock(self, target: int, lock_type: str = LOCK_SHARED) -> Generator:
        held, engine = self._held, self._engine
        self._check_target(target)
        if target in held:
            raise RMAError(f"rank {self.comm.rank} already holds a lock on {target}")
        start = engine.now
        rwlock = self.window.locks[target]
        if lock_type == LOCK_SHARED:
            yield rwlock.acquire_shared()
        elif lock_type == LOCK_EXCLUSIVE:
            yield rwlock.acquire_exclusive()
        else:
            raise RMAError(f"unknown lock type {lock_type!r}")
        held[target] = lock_type
        end = engine.now
        self._stats.record("MPI_Win_lock", end - start)
        obs = self._world.obs
        if obs.tracing:
            obs.tracer.record(
                "rma.lock",
                cat="mpi.rma",
                track=self.comm.world_rank,
                lane=1,
                start=start,
                end=end,
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
        self._stats.record("MPI_Win_unlock", 0.0)
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

        Returns the bytes as a read-only view of the target's buffer (see
        :meth:`get_batch`) after yielding for the modelled transfer time.
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
        it is now (a later ``put`` replaces that buffer, it never writes it):
        a read of exactly one piece is that piece, a read inside one a view
        of it and a read across pieces a ``Pieces`` of views.
        Per-request latencies land in ``last_latencies``.

        ``timeout_s`` bounds each get's observed latency: a get that has
        not completed ``timeout_s`` virtual seconds after being issued is
        abandoned — its payload slot comes back ``None`` and its flag in
        ``last_timeouts`` is set.  The origin only waits for the
        non-abandoned gets (plus the timeout window of abandoned ones).
        One value bounds every get alike; an array gives each get its own
        bound (``inf`` = wait this one out).
        """
        rows = np.asarray(requests, dtype=np.int64).reshape(-1, 3).tolist()
        if not rows:
            self.last_timeouts = None
            return []
        comm = self.comm
        window = self.window
        engine = self._engine

        # One pass: MPI's semantic checks per get, in issue order, and the
        # data — views of the frozen target pieces, a whole piece by one
        # dict lookup (most reads are one whole sample).
        n_ranks, held, buffers, world_rank = comm.size, self._held, window.buffers, window.world_ranks
        world_ranks, payloads, sizes = [], [], []
        for t, off, nb in rows:
            if not 0 <= t < n_ranks:
                self._check_target(t)
            if t not in held:
                raise RMAError(f"rank {comm.rank} issued MPI_Get to {t} outside a lock epoch")
            buf = buffers[t]
            if nb < 0 or off < 0 or off + nb > buf.size:
                raise RMAError(
                    f"get of [{off}, {off + nb}) exceeds window of rank {t} "
                    f"({buf.size} bytes)"
                )
            piece = buf.whole.get(off)
            if piece is None or piece.size != nb:
                piece = buf[off : off + nb]
            payloads.append(piece)
            world_ranks.append(world_rank[t])
            sizes.append(nb)

        # Timing: one pass through the interconnect model.
        issued = engine.now
        timing = comm.communicator.net.rma_get_batch(
            comm.world_rank, world_ranks, sizes, issued, n_streams=n_streams
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
            for i in timed_out.nonzero()[0].tolist():
                payloads[i] = None
        finish = float(waited.max())
        self.last_latencies = waited - timing.issues
        total_bytes = sum(sizes)
        yield engine.timeout(max(0.0, finish - issued))
        self._stats.record("MPI_Get", engine.now - issued, total_bytes)
        obs = self._world.obs
        if obs.tracing:
            obs.tracer.record(
                "rma.get_batch",
                cat="mpi.rma",
                track=comm.world_rank,
                lane=1,
                start=issued,
                end=engine.now,
                n_reads=len(rows),
                nbytes=total_bytes,
                n_timeouts=int(timed_out.sum()) if timed_out is not None else 0,
            )
        return payloads

    def put(self, data: np.ndarray | bytes, target: int, offset: int) -> Generator:
        """Write ``data`` into the target's window (requires exclusive lock).

        Copy-on-write: the target's table is replaced by an updated copy
        cut at the same piece bounds, so gets issued before the put keep
        the bytes they were given.
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
        # Still the target's buffer: this rank holds its exclusive lock.
        updated = np.concatenate([_EMPTY, *buf.pieces])
        updated[offset : offset + payload.size] = payload
        ends = buf.starts.tolist()
        self.window.buffers[target] = Pieces(updated[a:b] for a, b in zip(ends, ends[1:]))
        comm.stats.record("MPI_Put", engine.now - issued, int(payload.size))

    # -- helpers -----------------------------------------------------------
    def _check_target(self, target: int) -> None:
        if not 0 <= target < self.comm.size:
            raise RMAError(f"target rank {target} out of range (size {self.comm.size})")


def create_window(comm: Comm, local_buffer: "Pieces | np.ndarray | bytes | int") -> Generator:
    """Collectively create a window (MPI_Win_create).

    ``local_buffer`` is this rank's exposed memory: a :class:`Pieces`
    table, or a NumPy array, raw bytes or an integer byte count (allocated
    zeroed), any of which becomes a one-piece table.  The window takes
    ownership: an array (and every array it is a view of) becomes
    read-only, and only :meth:`WinHandle.put` changes what the window
    exposes.  Returns this rank's :class:`WinHandle`.
    """
    if isinstance(local_buffer, int):
        local_buffer = np.zeros(local_buffer, dtype=np.uint8)
    if not isinstance(local_buffer, Pieces):
        local_buffer = Pieces([local_buffer])
    window = yield from comm.fuse(_build_window, local_buffer, call_name="MPI_Win_create")
    return WinHandle(window, comm)


def _build_window(communicator: Communicator, buffers: list) -> Window:
    return Window(communicator, dict(enumerate(buffers)))
