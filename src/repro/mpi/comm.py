"""Simulated MPI communicators: point-to-point and collective operations.

Each simulated process ("rank") is a coroutine on the discrete-event
engine.  A rank sees MPI through a per-rank :class:`Comm` handle — the
analogue of an ``MPI_Comm`` in one OS process — while the shared
:class:`Communicator` object holds match lists and collective rendezvous
state for all ranks of that communicator.

Blocking calls are generators used with ``yield from``; non-blocking calls
return :class:`~repro.sim.Event` requests to be awaited with ``yield`` or
:func:`waitall`.

Semantics follow MPI where it matters for DDStore:

* standard-mode sends are *buffered*: a send completes when the payload has
  crossed the network into the destination's unexpected-message queue,
  whether or not a receive is posted (no send-send deadlock),
* message matching is FIFO per (source, tag) with ``ANY_SOURCE`` /
  ``ANY_TAG`` wildcards,
* all ranks must call collectives in the same order; divergence raises
  :class:`CollectiveMismatch` instead of deadlocking silently,
* every call books its virtual-time cost into per-rank :class:`MPIStats`,
  which the Fig-7-style profiling experiments read back.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from ..hardware import Cluster, Interconnect, MachineSpec, ParallelFileSystem
from ..obs import NULL_OBSERVER
from ..sim import Engine, Event
from ..storage.vfs import VirtualFS
from .datatypes import reduce_values, sizeof
from .errors import CollectiveMismatch, MPIError

if TYPE_CHECKING:  # the layers above mpi that own the tables' values
    from ..dataplane.nodeagg import NodeFetchCoordinator
    from ..serving.drr import DrrArbiter
    from ..storage.staging import NVMeShardStore

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "World",
    "HostShared",
    "Communicator",
    "Comm",
    "MPIStats",
    "waitall",
]

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class MPIStats:
    """Per-rank accounting of virtual time spent inside MPI calls."""

    time_by_call: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    count_by_call: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_call: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, call: str, elapsed: float, nbytes: int = 0) -> None:
        self.time_by_call[call] += elapsed
        self.count_by_call[call] += 1
        self.bytes_by_call[call] += nbytes

    def merged(self, other: "MPIStats") -> "MPIStats":
        out = MPIStats()
        for src in (self, other):
            for k, v in src.time_by_call.items():
                out.time_by_call[k] += v
            for k, v in src.count_by_call.items():
                out.count_by_call[k] += v
            for k, v in src.bytes_by_call.items():
                out.bytes_by_call[k] += v
        return out


@dataclass
class HostShared:
    """State all simulated ranks of one world share on the host (real ranks
    would keep it per node or per job), declared in one place:
    ``World.shared``.  A store is keyed by ``(Communicator.id, create)``:
    the id is never reused, and ``create`` is the :attr:`Comm.collective_seq`
    its ``DDStore.create`` started at."""

    chunks: dict[tuple, list] = field(default_factory=dict)
    """Replica chunk piece tables by ``(*store, lo, hi)``; an entry is
    dropped when the last replica group adopts its table."""

    nvme_stores: dict[int, NVMeShardStore] = field(default_factory=dict)
    """The NVMe tier by node index; lives as long as the world (a reshard
    reuses the staged bytes)."""

    coordinators: dict[tuple, NodeFetchCoordinator] = field(default_factory=dict)
    """Node-fetch rendezvous by ``(*store, node, tenant)``; dropped by the
    store's collective ``shutdown``, left to the world by a bare ``close``."""

    arbiters: dict[int, dict[int, DrrArbiter]] = field(default_factory=dict)
    """DRR arbiters by communicator id, then target; live as long as the
    world (lanes keep them across a reshard's ``migrate``)."""


class World:
    """The simulated machine plus the set of ranks running on it.

    One rank runs per GPU, so the rank grid is the machine's: a different
    ranks-per-node is a different machine,
    ``dataclasses.replace(spec, gpus_per_node=k)``.
    """

    def __init__(
        self,
        machine: MachineSpec,
        n_nodes: int,
        *,
        seed: int = 0,
    ) -> None:
        self.engine = Engine()
        self.machine = machine
        self.cluster = Cluster(self.engine, machine, n_nodes)
        self.net = Interconnect(self.cluster, seed=seed)
        self.pfs = ParallelFileSystem(self.engine, machine.pfs, n_nodes, seed=seed)
        self.vfs = VirtualFS(self.pfs)  # the shared parallel filesystem namespace
        self.n_ranks = self.cluster.n_ranks
        self.stats = [MPIStats() for _ in range(self.n_ranks)]
        self.comm_world = Communicator(self, list(range(self.n_ranks)), name="COMM_WORLD")
        self.seed = seed
        self.obs = NULL_OBSERVER
        self.shared = HostShared()

    def attach_observer(self, observer) -> None:
        """Wire an :class:`repro.obs.Observer` through every instrumented
        layer of this world (MPI, RMA, data plane, store, trainer)."""
        self.obs = observer

    def comm_handle(self, rank: int) -> "Comm":
        return Comm(self.comm_world, rank)


# ---------------------------------------------------------------------------
# message matching
# ---------------------------------------------------------------------------


@dataclass
class _Msg:
    src: int  # communicator rank
    dst: int
    tag: int
    data: Any
    nbytes: int
    arrival: float


@dataclass
class _PostedRecv:
    dst: int
    src: int  # may be ANY_SOURCE
    tag: int  # may be ANY_TAG
    event: Event


def _matches(msg: _Msg, recv: _PostedRecv) -> bool:
    return (
        msg.dst == recv.dst
        and (recv.src == ANY_SOURCE or recv.src == msg.src)
        and (recv.tag == ANY_TAG or recv.tag == msg.tag)
    )


# ---------------------------------------------------------------------------
# collective rendezvous
# ---------------------------------------------------------------------------


@dataclass
class _CollState:
    op: str
    event: Event
    arrivals: dict[int, tuple[float, Any]] = field(default_factory=dict)


class Communicator:
    """Shared state of one communicator (all ranks' view)."""

    _next_id = 0

    def __init__(self, world: World, world_ranks: list[int], name: str = "") -> None:
        if len(set(world_ranks)) != len(world_ranks):
            raise ValueError("duplicate world ranks in communicator")
        self.world = world
        self.world_ranks = list(world_ranks)
        Communicator._next_id += 1
        self.id = Communicator._next_id
        self.name = name or f"comm{self.id}"
        self.size = len(world_ranks)
        self._unexpected: deque[_Msg] = deque()
        self._posted: deque[_PostedRecv] = deque()
        self._coll_seq = [0] * self.size
        self._pending_coll: dict[int, _CollState] = {}

    # -- infrastructure shortcuts -----------------------------------------
    @property
    def engine(self) -> Engine:
        return self.world.engine

    @property
    def net(self) -> Interconnect:
        return self.world.net

    def world_rank(self, comm_rank: int) -> int:
        return self.world_ranks[comm_rank]

    def stats(self, comm_rank: int) -> MPIStats:
        return self.world.stats[self.world_rank(comm_rank)]

    # -- p2p internals ------------------------------------------------------
    def _deliver(self, msg: _Msg) -> None:
        for recv in list(self._posted):
            if _matches(msg, recv):
                self._posted.remove(recv)
                recv.event.succeed(msg)
                return
        self._unexpected.append(msg)

    def _post_recv(self, recv: _PostedRecv) -> None:
        for msg in list(self._unexpected):
            if _matches(msg, recv):
                self._unexpected.remove(msg)
                recv.event.succeed(msg)
                return
        self._posted.append(recv)

    # -- collective internals -----------------------------------------------
    def _enter_collective(self, comm_rank: int, op: str, payload: Any) -> _CollState:
        seq = self._coll_seq[comm_rank]
        self._coll_seq[comm_rank] += 1
        state = self._pending_coll.get(seq)
        if state is None:
            state = _CollState(op=op, event=self.engine.event(f"{self.name}:{op}@{seq}"))
            self._pending_coll[seq] = state
        if state.op != op:
            raise CollectiveMismatch(
                f"rank {comm_rank} of {self.name} called {op!r} at sequence "
                f"{seq} while other ranks called {state.op!r}"
            )
        if comm_rank in state.arrivals:
            raise MPIError(f"rank {comm_rank} re-entered collective {op}@{seq}")
        state.arrivals[comm_rank] = (self.engine.now, payload)
        if len(state.arrivals) == self.size:
            del self._pending_coll[seq]
            self._complete_collective(state)
        return state

    def _complete_collective(self, state: _CollState) -> None:
        op = state.op
        payloads = {r: p for r, (_t, p) in state.arrivals.items()}
        results, volume = _COLLECTIVE_IMPLS[op](self, payloads)
        duration = self.net.collective_time(_COLLECTIVE_COST_OP[op], volume, self.size)
        self.engine.schedule_call(duration, lambda: state.event.succeed(results))


def _impl_barrier(comm: Communicator, payloads: dict[int, Any]):
    return {r: None for r in payloads}, 0


def _impl_bcast(comm: Communicator, payloads: dict[int, Any]):
    roots = {r: p for r, p in payloads.items() if p is not _NO_DATA}
    if len(roots) != 1:
        raise MPIError(f"bcast expects exactly one root payload, got {len(roots)}")
    ((_root, value),) = roots.items()
    return {r: value for r in payloads}, sizeof(value)


def _impl_gather(comm: Communicator, payloads: dict[int, Any]):
    root, items = None, [None] * comm.size
    for r, (root_rank, value) in payloads.items():
        items[r] = value
        root = root_rank
    per_rank = max(sizeof(v) for v in items)
    return {r: (items if r == root else None) for r in payloads}, per_rank


def _impl_allgather(comm: Communicator, payloads: dict[int, Any]):
    items = [payloads[r] for r in range(comm.size)]
    per_rank = max(sizeof(v) for v in items)
    return {r: list(items) for r in payloads}, per_rank


def _impl_scatter(comm: Communicator, payloads: dict[int, Any]):
    roots = {r: p for r, p in payloads.items() if p is not _NO_DATA}
    if len(roots) != 1:
        raise MPIError(f"scatter expects exactly one root payload, got {len(roots)}")
    ((_root, seq),) = roots.items()
    seq = list(seq)
    if len(seq) != comm.size:
        raise MPIError(f"scatter payload has {len(seq)} items for {comm.size} ranks")
    per_rank = max(sizeof(v) for v in seq)
    return {r: seq[r] for r in payloads}, per_rank


def _impl_reduce(comm: Communicator, payloads: dict[int, Any]):
    root, op = None, None
    values = [None] * comm.size
    for r, (root_rank, opname, value) in payloads.items():
        values[r] = value
        root, op = root_rank, opname
    combined = reduce_values(values, op)
    return {r: (combined if r == root else None) for r in payloads}, sizeof(values[0])


def _impl_allreduce(comm: Communicator, payloads: dict[int, Any]):
    op = None
    values = [None] * comm.size
    for r, (opname, value) in payloads.items():
        values[r] = value
        op = opname
    combined = reduce_values(values, op)
    return {r: combined for r in payloads}, sizeof(values[0])


def _impl_alltoall(comm: Communicator, payloads: dict[int, Any]):
    size = comm.size
    for r, seq in payloads.items():
        if len(seq) != size:
            raise MPIError(f"alltoall payload of rank {r} has {len(seq)} != {size} items")
    results = {r: [payloads[src][r] for src in range(size)] for r in payloads}
    per_rank = max(sizeof(v) for seq in payloads.values() for v in seq)
    return results, per_rank * size


def _impl_fuse(comm: Communicator, payloads: dict[int, Any]):
    # payload: (combine_fn, value). Every rank passes the same pure function;
    # the last arrival runs it once over all values and the single shared
    # result is handed to every rank. Used to build shared objects such as
    # RMA windows without a circular import.
    fn = next(iter(payloads.values()))[0]
    values = [payloads[r][1] for r in range(comm.size)]
    shared = fn(comm, values)
    return {r: shared for r in payloads}, max(sizeof(v) for v in values)


def _impl_split(comm: Communicator, payloads: dict[int, Any]):
    # payload: (color, key). Build one child communicator per color.
    groups: dict[Any, list[tuple[Any, int]]] = defaultdict(list)
    for r, (color, key) in payloads.items():
        if color is not None:
            groups[color].append((key, r))
    children: dict[int, Communicator] = {}
    for color, members in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        members.sort()
        ranks = [comm.world_rank(r) for _k, r in members]
        child = Communicator(comm.world, ranks, name=f"{comm.name}/split:{color}")
        for new_rank, (_k, r) in enumerate(members):
            children[r] = Comm(child, new_rank)
    return {r: children.get(r) for r in payloads}, 16


_NO_DATA = object()

_COLLECTIVE_IMPLS: dict[str, Callable] = {
    "barrier": _impl_barrier,
    "bcast": _impl_bcast,
    "gather": _impl_gather,
    "allgather": _impl_allgather,
    "scatter": _impl_scatter,
    "reduce": _impl_reduce,
    "allreduce": _impl_allreduce,
    "alltoall": _impl_alltoall,
    "split": _impl_split,
    "fuse": _impl_fuse,
}

_COLLECTIVE_COST_OP = {
    "barrier": "barrier",
    "bcast": "bcast",
    "gather": "gather",
    "allgather": "allgather",
    "scatter": "scatter",
    "reduce": "reduce",
    "allreduce": "allreduce",
    "alltoall": "alltoall",
    "split": "allgather",
    "fuse": "allgather",
}


class Comm:
    """Per-rank communicator handle (what a real process holds)."""

    def __init__(self, communicator: Communicator, rank: int) -> None:
        if not 0 <= rank < communicator.size:
            raise ValueError(f"rank {rank} out of range for {communicator.name}")
        self._c = communicator
        self.rank = rank

    # -- inspection ----------------------------------------------------------
    @property
    def size(self) -> int:
        return self._c.size

    @property
    def communicator(self) -> Communicator:
        return self._c

    @property
    def engine(self) -> Engine:
        return self._c.engine

    @property
    def world_rank(self) -> int:
        return self._c.world_rank(self.rank)

    @property
    def stats(self) -> MPIStats:
        return self._c.stats(self.rank)

    @property
    def collective_seq(self) -> int:
        """Sequence number of this rank's next collective here: the same on
        every rank at one call, since all enter collectives in one order."""
        return self._c._coll_seq[self.rank]

    # -- point to point --------------------------------------------------------
    def isend(self, data: Any, dest: int, tag: int = 0) -> Event:
        """Post a buffered send; the returned request triggers at delivery."""
        if not 0 <= dest < self.size:
            raise MPIError(f"isend to invalid rank {dest} (size {self.size})")
        c = self._c
        engine = c.engine
        nbytes = sizeof(data)
        deliver_at = c.net.send_time(
            self.world_rank, c.world_rank(dest), nbytes, engine.now
        )
        msg = _Msg(
            src=self.rank, dst=dest, tag=tag, data=data, nbytes=nbytes, arrival=deliver_at
        )
        start = engine.now
        done = engine.event(f"isend:{self.rank}->{dest}")
        def _arrive() -> None:
            c._deliver(msg)
            done.succeed(None)
        engine.schedule_call(max(0.0, deliver_at - engine.now), _arrive)
        done.add_callback(
            lambda _e: self.stats.record("MPI_Send", engine.now - start, nbytes)
        )
        obs = c.world.obs
        if obs.tracing:
            track = self.world_rank
            done.add_callback(
                lambda _e: obs.tracer.record(
                    "mpi.MPI_Send",
                    cat="mpi.p2p",
                    track=track,
                    lane=1,
                    start=start,
                    end=engine.now,
                    dest=dest,
                    nbytes=nbytes,
                )
            )
        return done

    def send(self, data: Any, dest: int, tag: int = 0) -> Generator:
        yield self.isend(data, dest, tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Event:
        """Post a receive; the request's value is the received data."""
        c = self._c
        engine = c.engine
        start = engine.now
        ev = engine.event(f"irecv:{self.rank}<-{source}")
        c._post_recv(_PostedRecv(dst=self.rank, src=source, tag=tag, event=ev))
        out = engine.event(f"recv-data:{self.rank}")

        obs = c.world.obs

        def _complete(trigger: Event) -> None:
            msg: _Msg = trigger.value
            self.stats.record("MPI_Recv", engine.now - start, msg.nbytes)
            if obs.tracing:
                obs.tracer.record(
                    "mpi.MPI_Recv",
                    cat="mpi.p2p",
                    track=self.world_rank,
                    lane=1,
                    start=start,
                    end=engine.now,
                    source=msg.src,
                    nbytes=msg.nbytes,
                )
            out.succeed(msg.data)

        ev.add_callback(_complete)
        return out

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        data = yield self.irecv(source, tag)
        return data

    def sendrecv(self, data: Any, dest: int, source: int = ANY_SOURCE, tag: int = 0) -> Generator:
        req = self.isend(data, dest, tag)
        incoming = yield self.irecv(source, tag)
        yield req
        return incoming

    # -- collectives -------------------------------------------------------------
    def _collective(
        self, op: str, payload: Any, call_name: str, sent: Any = _NO_DATA
    ) -> Generator:
        c = self._c
        engine = c.engine
        start = engine.now
        state = c._enter_collective(self.rank, op, payload)
        results = yield state.event
        nbytes = sizeof(payload if sent is _NO_DATA else sent)
        self.stats.record(call_name, engine.now - start, nbytes)
        obs = c.world.obs
        if obs.tracing:
            obs.tracer.record(
                f"mpi.{call_name}",
                cat="mpi.collective",
                track=self.world_rank,
                lane=1,
                start=start,
                end=engine.now,
                comm=c.name,
            )
        return results[self.rank]

    def barrier(self) -> Generator:
        return (yield from self._collective("barrier", None, "MPI_Barrier"))

    def bcast(self, data: Any = None, root: int = 0) -> Generator:
        payload = data if self.rank == root else _NO_DATA
        return (yield from self._collective("bcast", payload, "MPI_Bcast"))

    def gather(self, data: Any, root: int = 0) -> Generator:
        return (yield from self._collective("gather", (root, data), "MPI_Gather"))

    def allgather(self, data: Any) -> Generator:
        return (yield from self._collective("allgather", data, "MPI_Allgather"))

    def scatter(self, data: Optional[Iterable[Any]] = None, root: int = 0) -> Generator:
        payload = data if self.rank == root else _NO_DATA
        return (yield from self._collective("scatter", payload, "MPI_Scatter"))

    def reduce(self, data: Any, op: str = "sum", root: int = 0) -> Generator:
        return (yield from self._collective("reduce", (root, op, data), "MPI_Reduce"))

    def allreduce(self, data: Any, op: str = "sum") -> Generator:
        return (yield from self._collective("allreduce", (op, data), "MPI_Allreduce"))

    def alltoall(self, data: list[Any]) -> Generator:
        return (yield from self._collective("alltoall", list(data), "MPI_Alltoall"))

    def split(self, color: Any, key: int = 0) -> Generator:
        """Collective split; returns this rank's new Comm handle (or None
        when ``color`` is None, mirroring MPI_UNDEFINED)."""
        return (yield from self._collective("split", (color, key), "MPI_Comm_split"))

    def fuse(self, combine_fn: Callable[[Communicator, list[Any]], Any], value: Any,
             call_name: str = "MPI_Fuse") -> Generator:
        """Collective that builds ONE shared object from all ranks' values.

        ``combine_fn(communicator, values)`` runs exactly once; its result is
        returned to every rank. This is the substrate for window creation
        and for the store's replicated registry.  Only ``value`` travels,
        so only its size is booked under ``call_name``; an exception out of
        ``combine_fn`` is raised in the last rank to arrive.
        """
        return (yield from self._collective("fuse", (combine_fn, value), call_name, sent=value))

    def dup(self) -> Generator:
        new = yield from self.split(color=0, key=self.rank)
        return new


def waitall(requests: list[Event]) -> Generator:
    """Wait for all requests; returns their values in order."""
    if not requests:
        return []
    engine = requests[0].engine
    values = yield engine.all_of(requests)
    return values
