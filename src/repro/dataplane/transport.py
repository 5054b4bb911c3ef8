"""Data-plane transports: how one rank reads bytes out of another's chunk.

The paper's framework knob ``f`` (§3.1) selects between a one-sided MPI
RMA design (shipped) and a two-sided message exchange (rejected; kept as
an ablation).  Both live here as :class:`Transport` implementations so
:class:`~repro.core.store.DDStore` holds no communication code of its
own — it plans reads (see :mod:`.planner`) and hands them to the
transport :data:`TRANSPORTS` maps ``config.dataplane.framework`` to.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, Generator, Optional

import numpy as np

from ..mpi import LOCK_SHARED, Comm, Pieces, WinHandle, create_window, waitall
from ..sim import RngRegistry
from ..sim.engine import Event

__all__ = ["FetchOutcome", "Transport", "RmaTransport", "P2PTransport", "TRANSPORTS"]

_TAG_FETCH_REQ = 71001
_TAG_REPLY_BASE = 72000
_SHUTDOWN = ("__ddstore_shutdown__",)
_P2P_POLL_WINDOW_S = 1.0e-3  # how long a busy target takes to notice a request


@dataclass
class FetchOutcome:
    """What a transport hands back for one batch of planned reads."""

    # One read-only payload per read, in read order (None = timed out): a
    # np.uint8 array, or a Pieces of views for a read across a window's pieces.
    payloads: list
    latencies: Optional[np.ndarray] = None  # per-read seconds, when known
    stage_seconds: dict[str, float] = field(default_factory=dict)  # e.g. lock/get
    timed_out: Optional[np.ndarray] = None  # per-read bool mask (None = no timeout)


class Transport(abc.ABC):
    """One rank's handle on the replica group's data plane.

    Implementations are listed in :data:`TRANSPORTS` under their ``name``
    and resolved through the ``framework`` field of
    :class:`~repro.core.config.DDStoreConfig`.
    """

    #: the config ``framework`` value selecting this class
    name: ClassVar[str]
    #: False puts the planner in one-read-per-sample mode and refuses
    #: ``node_fetch``.  Every transport serves any byte span either way
    #: (a reshard reads one span per overlapped old chunk).
    supports_coalescing: ClassVar[bool] = True

    @classmethod
    @abc.abstractmethod
    def setup(cls, group_comm: Comm, buffer: Pieces) -> Generator:
        """Collectively wire the transport over a replica group.

        Every group member calls this with its own chunk ``buffer``, the
        read-only :class:`~repro.mpi.Pieces` table a store exposes (what a
        fetch returns are views of its pieces); returns this rank's
        transport instance.
        """

    @abc.abstractmethod
    def fetch(
        self,
        reads: np.ndarray,
        n_streams: int = 1,
        timeout_s: "Optional[float | np.ndarray]" = None,
    ) -> Generator:
        """Coroutine executing remote reads; returns a :class:`FetchOutcome`.

        ``reads`` is an ``(n, 3)`` int64 array, one ``(target, offset,
        nbytes)`` row per read (a :class:`~.planner.FetchPlan`'s ``reads``).
        ``timeout_s`` (when the transport honours it) bounds each read's
        wait: reads still incomplete after that many virtual seconds come
        back with a ``None`` payload and their ``timed_out`` flag set, so
        the retry layer (:mod:`.retry`) can fail them over.  It is one
        number when every read of the batch is bounded alike, or an array
        with one bound per read when only some are (``inf`` = wait this
        read out: it has nowhere better to go).  The retry layer only
        passes ``timeout_s`` when a read can fail over, so transports with
        the pre-resilience two-argument signature keep working in the
        default configuration.
        """

    @abc.abstractmethod
    def local_buffer(self) -> Pieces:
        """This rank's exposed chunk bytes, read-only, as handed to ``setup``."""

    def shutdown(self) -> Generator:
        """Stop any target-side service machinery (default: nothing to do)."""
        return
        yield  # pragma: no cover - generator for API symmetry

    def session_clone(self) -> "Transport":
        """A handle for one tenant session of the serving layer.

        A multi-tenant service runs N logically independent client jobs
        on one store; each behaves like its own process, so per-client
        serialisation state (e.g. RMA lock-epoch tracking) must not be
        shared between sessions.  Transports with no such state — like
        the two-sided P2P design, which is re-entrant — return ``self``.
        """
        return self


class _EpochGate:
    """Serialises one rank's RMA lock epochs.

    MPI forbids a rank holding two concurrent locks on the same target
    window, and with depth-k prefetch several ``fetch`` coroutines can be
    in flight at once on one rank.  The gate makes each lock→get→unlock
    epoch exclusive per rank.  An uncontended acquire touches no engine
    state (no events, no virtual time), so single-in-flight callers —
    the depth-1 default — are bit-for-bit unaffected.  Contended waiters
    queue FIFO for determinism.
    """

    __slots__ = ("engine", "_held", "_waiters")

    def __init__(self, engine) -> None:
        self.engine = engine
        self._held = False
        self._waiters: deque = deque()

    def acquire(self) -> Generator:
        while self._held:
            ev = Event(self.engine)
            self._waiters.append(ev)
            yield ev
        self._held = True

    def release(self) -> None:
        self._held = False
        if self._waiters:
            self._waiters.popleft().succeed()


class RmaTransport(Transport):
    """The paper's data plane: shared-lock epochs + batched ``MPI_Get``."""

    name = "mpi-rma"
    supports_coalescing = True

    def __init__(self, win: WinHandle) -> None:
        self.win = win
        self._gate = _EpochGate(win.engine)

    @classmethod
    def setup(cls, group_comm: Comm, buffer: Pieces) -> Generator:
        win = yield from create_window(group_comm, buffer)
        return cls(win)

    def local_buffer(self) -> Pieces:
        return self.win.local

    def session_clone(self) -> "RmaTransport":
        """Per-tenant handle: own epoch gate and lock bookkeeping.

        MPI's one-epoch-per-process rule binds a *process*, and each
        tenant of the serving layer models an independent client job —
        so a session gets its own :class:`~repro.mpi.rma.WinHandle`
        (its own ``_held`` map) and its own :class:`_EpochGate`, while
        the :class:`~repro.mpi.rma.Window` itself — the exposed buffers
        and the modelled NIC contention behind every get — stays shared.
        Without this, an interactive tenant's fetch convoys behind a
        bulk tenant's entire lock→get→unlock epoch on the same rank.
        """
        return type(self)(WinHandle(self.win.window, self.win.comm))

    def fetch(
        self,
        reads: np.ndarray,
        n_streams: int = 1,
        timeout_s: "Optional[float | np.ndarray]" = None,
    ) -> Generator:
        if not len(reads):
            return FetchOutcome(payloads=[])
        win = self.win
        engine = win.engine
        targets = sorted(set(reads[:, 0].tolist()))  # lock order: ascending rank
        t0 = engine.now
        # Gate wait is charged to the lock stage: it is lock-epoch
        # contention on this rank's own side of the window.
        yield from self._gate.acquire()
        locked = []
        try:
            for t in targets:
                yield from win.lock(t, LOCK_SHARED)
                locked.append(t)
            t_locked = engine.now
            payloads = yield from win.get_batch(reads, n_streams=n_streams, timeout_s=timeout_s)
            t_got = engine.now
            latencies = win.last_latencies
            timed_out = win.last_timeouts
        finally:
            # Close the epoch on every exit: a failed get (or lock) must
            # not leave this handle holding targets it can never re-lock.
            for t in locked:
                yield from win.unlock(t)
            self._gate.release()
        return FetchOutcome(
            payloads=payloads,
            latencies=latencies,
            stage_seconds={"lock": t_locked - t0, "get": t_got - t_locked},
            timed_out=timed_out,
        )


class P2PTransport(Transport):
    """Two-sided ablation: ask the owner, wait for it to notice and reply.

    Every fetch needs the *target's* cooperation, which costs a polling
    delay while the target is busy training — the §3.1 argument for RMA.
    Planned reads stay one-per-sample (``supports_coalescing = False``) to
    match the rejected design's request/reply granularity; the responder
    still serves any span it is asked for, as a reshard's bulk reads are.
    """

    name = "p2p"
    supports_coalescing = False

    def __init__(self, group_comm: Comm, buffer: Pieces) -> None:
        self.group_comm = group_comm
        self._buffer = buffer
        self._reply_seq = 0
        self._rng = RngRegistry("ddstore-p2p", group_comm.world_rank)
        self._responder = group_comm.engine.process(
            self._respond_loop(), name=f"ddstore-responder[{group_comm.world_rank}]"
        )

    @classmethod
    def setup(cls, group_comm: Comm, buffer: Pieces) -> Generator:
        return cls(group_comm, buffer)
        yield  # pragma: no cover - generator for API symmetry

    def local_buffer(self) -> Pieces:
        return self._buffer

    def fetch(
        self,
        reads: np.ndarray,
        n_streams: int = 1,
        timeout_s: "Optional[float | np.ndarray]" = None,
    ) -> Generator:
        if not len(reads):
            return FetchOutcome(payloads=[])
        comm = self.group_comm
        engine = comm.engine
        issue = engine.now
        reply_reqs = []
        for target, offset, nbytes in reads.tolist():
            self._reply_seq += 1
            reply_tag = _TAG_REPLY_BASE + self._reply_seq
            req = (offset, nbytes, reply_tag, comm.rank)
            yield from comm.send(req, dest=target, tag=_TAG_FETCH_REQ)
            reply_reqs.append(comm.irecv(source=target, tag=reply_tag))
        if timeout_s is None:
            payloads = yield from waitall(reply_reqs)
            timed_out = None
        else:
            # Wait for all replies or the deadline, whichever first; a read
            # that carries no deadline (``inf``) is then waited out.  Reply
            # tags are unique per request, so a stale reply to an abandoned
            # request just satisfies its orphaned irecv — no cross-talk
            # with the retry's fresh requests.
            limits = np.broadcast_to(np.asarray(timeout_s, dtype=np.float64), len(reads))
            bounded = np.isfinite(limits)
            deadline = engine.timeout(float(limits[bounded].max()))
            yield engine.any_of([engine.all_of(reply_reqs), deadline])
            timed_out = np.fromiter(
                (b and not req.triggered for req, b in zip(reply_reqs, bounded)),
                dtype=bool,
                count=len(reads),
            )
            yield engine.all_of([req for req, b in zip(reply_reqs, bounded) if not b])
            payloads = [
                None if late else req.value for req, late in zip(reply_reqs, timed_out)
            ]
        done = engine.now
        latencies = np.full(len(reads), (done - issue) / max(len(reads), 1))
        return FetchOutcome(
            payloads=list(payloads),
            latencies=latencies,
            stage_seconds={"get": done - issue},
            timed_out=timed_out,
        )

    def _respond_loop(self) -> Generator:
        """Target-side service loop of the two-sided design."""
        comm = self.group_comm
        engine = comm.engine
        rng = self._rng.get("poll")
        while True:
            msg = yield comm.irecv(tag=_TAG_FETCH_REQ)
            if msg == _SHUTDOWN:
                return
            offset, nbytes, reply_tag, requester = msg
            # The target is busy computing; it notices the request at its
            # next data-loader poll point.
            yield engine.timeout(float(rng.uniform(0.0, _P2P_POLL_WINDOW_S)))
            payload = self._buffer[offset : offset + nbytes]
            yield from comm.send(payload, dest=requester, tag=reply_tag)

    def shutdown(self) -> Generator:
        yield from self.group_comm.send(
            _SHUTDOWN, dest=self.group_comm.rank, tag=_TAG_FETCH_REQ
        )


#: ``DataPlaneOptions.framework`` -> the transport class it selects (the
#: keys are :data:`repro.core.config.FRAMEWORKS`).
TRANSPORTS: dict[str, type[Transport]] = {
    RmaTransport.name: RmaTransport,
    P2PTransport.name: P2PTransport,
}
