"""DDStore: the distributed in-memory data store (paper §3).

Construction (collective, via :meth:`DDStore.create`):

1. split the job's ranks into ``N/w`` replica groups of width ``w``
   (``MPI_Comm_split``),
2. each group member preloads its chunk — a contiguous slice of the global
   sample range — as a :class:`~repro.mpi.Pieces` table, one read-only
   piece per packed sample, each a view of the bytes its source holds
   (data preloader); the replica groups of a chunk share the first
   group's table after checking it matches,
3. members exchange per-sample size tables (``np.diff`` of the table's
   ``starts``, over ``MPI_Allgather``) and build
   the replicated :class:`~.registry.ChunkRegistry`,
4. every member wires the replica group's data plane: the transport
   resolved from ``config.dataplane.framework`` (the paper's ``mpi-rma``
   exposes the table through an RMA window).

This module is layout + lifecycle: create/preload, tier assembly,
session views, failover topology, shutdown/close and reshard.  **The
store holds no fetch code** and no communication code.  Training-time
fetch — :meth:`DDStore.get_samples`, :meth:`~DDStore.get_batch_arena`,
:meth:`~DDStore.prefetch_wave` — is three thin entry points into the one
``resolve → plan → fetch → sink`` pipeline of
:mod:`repro.dataplane.pipeline`, which reads the per-handle state wired
here (registry, planner, cache, transport, lane, stats, retry policy and
target-health table).  Reads normally stay inside the replica group;
with :class:`~.config.ResilienceOptions` failover enabled — and chunk
contents being identical across replica groups — a read whose owner
recently timed out is steered, and a read that times out is *failed
over*, to the same chunk's owner in another group
(:meth:`DDStore._reroute` supplies that topology).
Transports live in :mod:`repro.dataplane`; ``framework`` picks one from
:data:`repro.dataplane.TRANSPORTS`.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Generator, Optional, Sequence

import numpy as np

from ..dataplane import (
    FETCH_STAGES,
    FetchPlanner,
    TRANSPORTS,
    FetchStats,
    TieredCache,
    pipeline,
)
from ..dataplane.retry import RetryPolicy, TargetHealth
from ..dataplane.transport import Transport
from ..graphs import BatchArena
from ..mpi import Comm, Pieces
from ..storage import peek_headers
from .chunking import ChunkLayout
from .config import DataPlaneOptions, DDStoreConfig, ResilienceOptions
from .preloader import DataSource
from .registry import ChunkRegistry, ShapeTable

__all__ = ["DDStore", "FetchStats", "FETCH_STAGES", "StoreClosedError"]

class StoreClosedError(RuntimeError):
    """Raised when a closed/shut-down DDStore handle is asked for samples."""


def _build_registry(layout: ChunkLayout, _communicator, sizes_by_member: list) -> ChunkRegistry:
    return ChunkRegistry.from_sample_sizes(layout, sizes_by_member)


def _attach_shape_table(registry: ChunkRegistry, _communicator, shape_rows: list) -> None:
    """Merge the members' ``_local_shape_row`` rows into the group's
    :class:`ShapeTable` (rows arrive in member order = global id order)."""
    dims = np.stack([row[:2] for row in shape_rows])
    dims = dims[dims[:, 0] != -1]  # members with empty chunks report no dims
    if dims.size and (dims != dims[0]).any():
        other = dims[(dims != dims[0]).any(axis=1)][0]
        raise ValueError(
            "columnar data plane requires uniform feature/output dims across "
            f"members: got {tuple(other.tolist())} and {tuple(dims[0].tolist())}"
        )
    f_dim, y_dim = dims[0].tolist() if dims.size else (0, 0)
    sids, nn, ne = np.concatenate([row[2:].reshape(3, -1) for row in shape_rows], axis=1)
    registry.shapes = ShapeTable(
        sample_ids=sids, n_nodes=nn, n_edges=ne, feature_dim=f_dim, output_dim=y_dim
    )


def _same_bytes(mine: list, theirs: list) -> bool:
    """Whether two chunks' equal-sized per-sample pieces hold the same
    bytes.  Pieces over the same memory are equal unread — every replica of
    a harness chunk views the same image bytes — so only pieces at other
    addresses (a generator's fresh blobs, say) are compared byte by byte."""
    return all(
        a is b or a.ctypes.data == b.ctypes.data or np.array_equal(a, b)
        for a, b in zip(mine, theirs)
        if a.size
    )


def _share_chunk(
    table: dict, key: tuple, group: int, n_replicas: int, chunk: Pieces
) -> Pieces:
    """The one piece table of chunk ``key = (*store, lo, hi)`` that every
    replica group of that store exposes, given this group's ``chunk``
    (``table`` is the world's ``HostShared.chunks``).

    The first group to load the chunk registers its table; each later
    group checks that its pieces hold the same bytes and gets the first
    group's."""
    if n_replicas == 1:
        return chunk
    entry = table.get(key)
    if entry is None:
        table[key] = [group, chunk, n_replicas - 1]
        return chunk
    owner, first, _ = entry
    if not (
        np.array_equal(first.starts, chunk.starts) and _same_bytes(chunk.pieces, first.pieces)
    ):
        *_, lo, hi = key
        raise ValueError(
            f"replica groups {owner} and {group} loaded different bytes for chunk "
            f"[{lo}, {hi}): failover and node fetch need identical replicas"
        )
    entry[2] -= 1
    if not entry[2]:
        del table[key]
    return first


class DDStore:
    """Per-rank handle on the distributed store.

    Use :meth:`create` (a collective coroutine) — the constructor wires an
    already-initialised state.
    """

    def __init__(
        self,
        *,
        comm: Comm,
        group_comm: Comm,
        config: DDStoreConfig,
        layout: ChunkLayout,
        registry: ChunkRegistry,
        transport: Transport,
        node_index: int,
        charged_bytes: int,
        store_key: tuple[int, int],
    ) -> None:
        self.comm = comm
        self.group_comm = group_comm
        self.config = config
        self.layout = layout
        self.registry = registry
        self.transport = transport
        self.stats = FetchStats()
        self.planner = FetchPlanner(
            coalesce=config.dataplane.coalesce and transport.supports_coalescing
        )
        machine = comm.communicator.world.machine
        self._machine = machine
        self._local_copy_base = machine.intra_node_latency_s
        self._local_copy_bw = machine.intra_node_bandwidth_Bps
        self.cache = self.build_cache(config.dataplane.cache_options)
        # The transport is wired over the whole job (a dup of ``comm``), so
        # plan targets are comm ranks: group rank + this group's base.
        self._my_group = config.group_of_rank(comm.rank)
        self._group_base = self._my_group * config.effective_width
        self._replica_order: dict[int, list[int]] = {}
        # The fetch stage's resilience state, built once per store
        # generation and shared by every session view (a reshard builds a
        # new store, which starts with a clean table): the retry schedule,
        # and — only when a read has somewhere else to go — which ranks
        # recently timed out.
        res = config.resilience
        self._retry_policy = RetryPolicy.from_options(res) if res.enabled else None
        self._health = (
            TargetHealth(self._retry_policy)
            if res.enabled and res.failover and config.n_replicas > 1
            else None
        )
        # Snapshots of the cache's cumulative counters (its stats at the
        # last demand call, its tiers' at the last call) — FetchStats and
        # the metrics accumulate *deltas* against them, so resetting
        # ``store.stats`` mid-run cannot resurrect old cache hits.
        self._cache_base, self._tier_base = pipeline.counter_marks(self.cache)
        # (metrics registry, its counters this handle has published to).
        self._published: tuple = (None, {})
        self._closed = False
        # The node DRAM this rank's chunk is charged to; ``close`` releases it.
        self._node_index = node_index
        self._charged_bytes = charged_bytes
        # Reshard lineage: 0 for a freshly created store, +1 per reshard.
        # Session views inherit it; metric series carry it as a label so
        # roll-ups can attribute work to the width regime that did it.
        self.generation = 0
        # How many collective shutdowns this handle has run — reshard
        # asserts the teardown collective happened exactly once.
        self._shutdown_collectives = 0
        # Multi-tenant serving hooks: a plain store has no lane and no
        # tenant identity, which keeps the whole serving layer off the
        # single-job fetch path (bit-identical defaults).  Session views
        # built by ``session_view`` carry a TenantLane (the DRR/admission
        # gate the pipeline's fetch stage consults) and a tenant/qos label pair
        # for the ``ddstore.tenant`` metric family.
        self._lane = None
        self._tenant: Optional[str] = None
        self._qos: Optional[str] = None
        # ``(communicator id, create)``, identical on every rank: how the
        # host-shared tables (``HostShared``) name this store.  Session
        # views inherit it.
        self._store_key = store_key

    def build_cache(self, cache_opts) -> TieredCache:
        """Assemble the sample cache ``cache_opts`` describes on this rank
        — the one constructor behind a store's own cache and every
        tenant partition carved from it.

        The NVMe tier is node-shared: all local ranks resolve the same
        :class:`~repro.storage.staging.NVMeShardStore` (and device queue)
        through the world's ``HostShared.nvme_stores``, keyed by node index.
        """
        machine = self._machine
        comm = self.comm
        shard_store = None
        nvme_tier = cache_opts.tier("nvme")
        if nvme_tier is not None:
            if machine.nvme is None:
                raise ValueError(
                    f"machine {machine.name!r} has no node-local NVMe; drop "
                    "the nvme tier from CacheOptions"
                )
            node_index = machine.node_of_rank(comm.world_rank)
            stores = comm.communicator.world.shared.nvme_stores
            if node_index not in stores:
                from ..hardware.nvme import NVMeDevice
                from ..storage.staging import NVMeShardStore

                device = NVMeDevice(
                    comm.engine, machine.nvme, name=f"nvme{node_index}"
                )
                stores[node_index] = NVMeShardStore(
                    device, nvme_tier.capacity_bytes
                )
            shard_store = stores[node_index]
        engine = comm.engine
        return TieredCache(
            cache_opts,
            columnar=self.config.dataplane.columnar,
            nvme=shard_store,
            gpu_spec=machine.gpu if cache_opts.tier("gpu") is not None else None,
            dram_hit_base_s=self._local_copy_base,
            dram_hit_Bps=self._local_copy_bw,
            now_fn=lambda: engine.now,
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        comm: Comm,
        source: DataSource,
        *,
        width: Optional[int] = None,
        dataplane: Optional[DataPlaneOptions] = None,
        resilience: Optional[ResilienceOptions] = None,
    ) -> Generator:
        """Collectively build the store over ``comm`` (all ranks call this).

        ``source`` supplies the packed samples (a preloader plugin).
        Data-plane tuning (framework, coalescing, cache) comes in through
        ``dataplane`` and fault handling (timeout/retry/failover) through
        ``resilience`` — see :class:`~.config.DataPlaneOptions` and
        :class:`~.config.ResilienceOptions`.  Returns this rank's
        :class:`DDStore`.
        """
        config = DDStoreConfig(
            comm.size, width=width, dataplane=dataplane, resilience=resilience
        )
        # Every rank's k-th create on ``comm`` enters the same collective
        # (the split below) at the same sequence number, so it names this
        # create on every rank.
        store_key = (comm.communicator.id, comm.collective_seq)
        group = config.group_of_rank(comm.rank)
        group_comm = yield from comm.split(color=group, key=comm.rank)
        layout = ChunkLayout.build(source.n_samples, config.effective_width)

        # Preload this member's chunk (timed filesystem / CPU work).
        lo, hi = layout.chunk_range(group_comm.rank)
        engine = comm.engine
        world = comm.communicator.world
        node_index = world.machine.node_of_rank(comm.world_rank)
        chunk = yield from source.load_chunk(range(lo, hi), node_index, engine)

        # Account the chunk against the node's DRAM (MemoryError here is the
        # legitimate "width too large for this machine" failure mode): every
        # rank is charged its replica, though the host holds its bytes once
        # (the window views them where the source holds them).
        buffer_nbytes = chunk.size
        world.cluster.charge_memory(node_index, buffer_nbytes)
        chunk = _share_chunk(
            world.shared.chunks, (*store_key, lo, hi), group, config.n_replicas, chunk
        )

        # Exchange size tables and build the replicated registry: every
        # member is charged the allgather, the last arrival builds the one
        # host copy the whole replica group shares read-only.
        registry = yield from group_comm.fuse(
            partial(_build_registry, layout), np.diff(chunk.starts), call_name="MPI_Allgather"
        )
        if config.dataplane.columnar:
            # The arena scatter path needs every sample's shape *before*
            # its bytes arrive.  Sweep the local chunk's record headers
            # (pure wall-clock work over already-resident DRAM) and
            # replicate the triples with one extra allgather riding the
            # same create-time collective phase as the size exchange.
            yield from group_comm.fuse(
                partial(_attach_shape_table, registry),
                cls._local_shape_row(chunk),
                call_name="MPI_Allgather",
            )

        # Wire the data plane over the whole job (a private dup of ``comm``,
        # so concurrent stores never cross-match traffic).  Chunk contents
        # are identical across replica groups, which is what lets a timed-out
        # read fail over to rank ``group * width + owner`` of another group.
        plane_comm = yield from comm.dup()
        transport_cls = TRANSPORTS[config.dataplane.framework]
        transport = yield from transport_cls.setup(plane_comm, chunk)
        store = cls(
            comm=comm,
            group_comm=group_comm,
            config=config,
            layout=layout,
            registry=registry,
            transport=transport,
            node_index=node_index,
            charged_bytes=buffer_nbytes,
            store_key=store_key,
        )
        if store.cache.nvme is not None:
            yield from store._stage_nvme_tier(source, node_index)
        yield from comm.barrier()
        return store

    def _stage_nvme_tier(self, source: DataSource, node_index: int) -> Generator:
        """Pre-stage the dataset onto this node's NVMe tier at create time.

        The burst-buffer recipe: one bulk PFS read per node, written to
        the local SSD and *pinned* (never evicted).  Charged to preload,
        so training-time demotions of staged samples become clean drops
        and the steady state pays zero NVMe writes.  The first local rank
        to get here does the work; capacity permitting a prefix of the
        dataset is staged, the rest of the tier fills via demotion.
        Sources without a bulk reader (e.g. synthetic generators) skip
        staging entirely.
        """
        shard = self.cache.nvme
        if shard.staged:
            return
        shard.staged = True
        bulk = source.read_chunk_raw
        if bulk is None:
            return
        engine = self.comm.engine
        n = int(source.n_samples)
        blobs, t = bulk(0, n, node_index, engine.now)
        done = shard.stage(list(range(n)), blobs, t)
        if done > engine.now:
            yield engine.timeout(done - engine.now)

    @staticmethod
    def _local_shape_row(chunk: Pieces) -> np.ndarray:
        """Header-sweep this member's chunk into one allgatherable row:
        ``[f_dim, y_dim, sample_ids..., n_nodes..., n_edges...]``."""
        rec = peek_headers(chunk.pieces)
        fd, yd = rec["feature_dim"], rec["output_dim"]
        f_dim, y_dim = (int(fd[0]), int(yd[0])) if rec.size else (-1, -1)
        odd = np.flatnonzero((fd != f_dim) | (yd != y_dim))
        if odd.size:
            i = odd[0]
            raise ValueError(
                "columnar data plane requires uniform feature/output dims: "
                f"sample {rec['sample_id'][i]} has ({fd[i]}, {yd[i]}), chunk started with "
                f"({f_dim}, {y_dim})"
            )
        return np.concatenate(
            ([f_dim, y_dim], rec["sample_id"], rec["n_nodes"], rec["n_edges"])
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return self.layout.n_samples

    @property
    def width(self) -> int:
        return self.config.effective_width

    @property
    def n_replicas(self) -> int:
        return self.config.n_replicas

    @property
    def local_range(self) -> tuple[int, int]:
        return self.layout.chunk_range(self.group_comm.rank)

    @property
    def memory_bytes(self) -> int:
        """Bytes of dataset this rank holds in DRAM."""
        return self.registry.buffer_bytes(self.group_comm.rank)

    def batch_nbytes(self, indices: Sequence[int]) -> int:
        """Total packed bytes of ``indices`` — free (registry lookup only);
        the prefetch scheduler meters its carried launches and cuts its
        waves with it."""
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size == 0:
            return 0
        _, _, sizes = self.registry.locate_batch(idx)
        return int(sizes.sum())

    # ------------------------------------------------------------------
    # the data loader hot path
    # ------------------------------------------------------------------
    def _check_open(self, doing: str) -> None:
        if self._closed:
            raise StoreClosedError(
                "this DDStore handle has been closed/shut down; create a new "
                f"store (or reshard) before {doing} samples"
            )

    def get_samples(
        self, indices: Sequence[int], decode: bool = True, n_workers: int = 1
    ) -> Generator:
        """Fetch the graphs for ``indices`` (global ids), in order.

        Local samples are copied from the own chunk, repeat remote ids are
        served from the hot-sample cache (when enabled), and the rest are
        planned into coalesced reads executed by the configured transport.
        ``n_workers`` models concurrent loader threads: wire reads issue
        from that many streams and CPU-side copy/decode work divides
        across them.  Returns ``list[AtomicGraph]`` — or
        ``list[SampleStats]`` when ``decode=False`` (identical
        virtual-time charges, header-only wall-clock work; used by large
        performance sweeps), or raw packed ``np.uint8`` payloads, all
        read-only, when ``decode="raw"`` (no deserialisation charged; the
        resharding path).  Any other ``decode`` is a ``TypeError``.
        """
        if not (isinstance(decode, (bool, np.bool_)) or decode == "raw"):
            raise TypeError(f'decode must be True, False or "raw", got {decode!r}')
        self._check_open("fetching")
        idx = pipeline.sample_ids(indices)
        if idx.size == 0:
            return []
        return (yield from pipeline.get_rows(self, idx, decode, n_workers))

    def get_batch_arena(
        self, indices: Sequence[int], arena: BatchArena, n_workers: int = 1
    ) -> Generator:
        """Fetch ``indices`` scattering payload bytes straight into ``arena``.

        The columnar hot path: no per-sample ndarray is ever allocated and
        the "decode" stage disappears; in its place one vectorised
        "scatter" pass (segment copies + the edge-index shift) is charged
        via :func:`~repro.storage.scatter_time`.  Requires the columnar
        data plane (``DataPlaneOptions(columnar=True)``), which replicates
        the shape index at create time.  Returns the per-sample latency
        array; the batch itself is read out of ``arena``
        (``collate(arena=...)``).
        """
        self._check_open("fetching")
        if self.registry.shapes is None:
            raise ValueError(
                "get_batch_arena needs the columnar data plane: create the "
                "store with DataPlaneOptions(columnar=True)"
            )
        idx = pipeline.sample_ids(indices)
        return (yield from pipeline.get_arena(self, idx, arena, n_workers))

    def prefetch_wave(
        self,
        batch_indices: Sequence[Sequence[int]],
        n_workers: int = 1,
        window=None,
    ) -> Generator:
        """Fetch a *wave* of upcoming batches' remote samples into the cache.

        ``batch_indices`` is one index sequence per scheduled batch.  The
        whole wave is planned as a single cross-batch window
        (:meth:`~repro.dataplane.FetchPlanner.plan_batches`): a sample id
        appearing in several of the wave's batches is fetched once, byte
        ranges coalesce across batch boundaries, and the transport executes
        the wave with **one lock epoch per target** instead of one per
        ``get_samples`` call.  Payloads are parked in the hot-sample cache,
        so the subsequent per-batch ``get_samples`` calls are cache hits.

        Requires an enabled cache (the epoch-ahead scheduler guarantees
        this via config validation).  Already-cached, local, and zero-size
        samples are skipped.  Returns the number of distinct samples
        fetched.  Rides the same retry/failover ladder as the demand path.

        With ``DataPlaneOptions(node_fetch=True)`` and a rank-invariant
        ``window`` (a :class:`~repro.dataplane.scheduler.WaveWindow` from
        the scheduler), the wave is aggregated at *node* scope instead:
        overlapping remote ranges across the node's ranks are fetched
        once by a per-target leader and fanned out intra-node.  Without
        ``node_fetch`` the window only names the wave: its epoch — the
        one the wave *serves*, which a carried wave is fetched ahead of —
        tags the ``store.prefetch_wave`` span.
        """
        self._check_open("prefetching")
        return (yield from pipeline.wave(self, batch_indices, n_workers, window))

    def _reroute(self, target: int) -> Optional[int]:
        """Where else a read aimed at rank ``target`` can be served right
        now: the nearest owner of the same chunk, other than ``target``,
        that the health table does not hold suspect.  ``None`` when there
        is nowhere better to go (every other replica suspect).  Only wired
        into the fetch stage when failover is on and the layout has
        replicas (``_health`` is not None).  Chunk layouts and contents are
        identical across replica groups, so a rerouted read returns
        byte-identical payloads.
        """
        now = self.comm.engine.now
        suspect = self._health.suspect
        for rank in self._replica_ranks(target % self.width):
            if rank != target and not suspect(rank, now):
                return rank
        return None

    def _replica_ranks(self, member: int) -> list[int]:
        """Every owner of replica-group member ``member``'s window, this
        rank's own group first, then nearest first: same-node owners (the
        shared-memory get path is ~7x cheaper than a cross-node one, the
        same locality Table 3's width sweep exploits), then by ring
        distance from this rank's group.  Deterministic for a fixed layout.
        """
        cached = self._replica_order.get(member)
        if cached is not None:
            return cached
        c = self.comm.communicator
        machine = c.world.machine
        my_node = machine.node_of_rank(c.world_rank(self.comm.rank))
        w, r = self.width, self.n_replicas

        def distance(group: int) -> tuple[int, int, int]:
            owner_node = machine.node_of_rank(c.world_rank(group * w + member))
            return (
                group != self._my_group,
                0 if owner_node == my_node else 1,
                (group - self._my_group) % r,
            )

        ranks = [g * w + member for g in sorted(range(r), key=distance)]
        self._replica_order[member] = ranks
        return ranks

    # ------------------------------------------------------------------
    # multi-tenant session views
    # ------------------------------------------------------------------
    def session_view(
        self,
        *,
        tenant: str,
        qos: str,
        cache,
        lane,
        drr_quantum_bytes: int,
    ) -> "DDStore":
        """A re-entrant, session-scoped handle on this store's data plane.

        The view shares the immutable heavy state — registry, layout,
        transport (and its RMA windows), config, communicators — but owns
        everything a concurrent tenant must not share: its
        :class:`FetchStats`, its partition of the sample cache
        (``cache``), and its :class:`~repro.serving.TenantLane` (``lane``,
        the DRR/in-flight-byte gate the pipeline's fetch stage consults
        before wire issue).  ``drr_quantum_bytes`` is the service's DRR
        quantum, which caps the view's wire reads.  Closing a view never
        releases the parent's DRAM accounting; closing the parent store
        invalidates every view's wire path the usual way (the transport is
        shared).

        Built by :class:`repro.serving.StoreService` — single-job callers
        never need one.
        """
        clone = copy.copy(self)
        clone.stats = FetchStats()
        clone.cache = cache
        clone._cache_base, clone._tier_base = pipeline.counter_marks(cache)
        clone._closed = False
        clone._lane = lane
        clone._tenant = tenant
        clone._qos = qos
        clone._charged_bytes = 0  # the parent owns the DRAM accounting
        # Each session acts as its own RMA client: an independent epoch
        # gate and lock bookkeeping over the shared window, so one
        # tenant's lock→get→unlock epoch never convoys another tenant's
        # fetch on the same rank (the shared NIC is still contended —
        # that lives in the interconnect model).
        clone.transport = self.transport.session_clone()
        # Session fetch plans interleave their reads round-robin across
        # targets so one tenant's wave releases each target's DRR grant as
        # early as possible for the other tenants, and cap each read at
        # the DRR quantum (never below the largest sample): grants — and
        # the head-of-line blocking a small interactive read can suffer at
        # a target's wire FIFO — stay quantum-sized instead of
        # whole-batch-sized.
        clone.planner = FetchPlanner(
            coalesce=self.planner.coalesce,
            max_read_bytes=max(drr_quantum_bytes, self.registry.max_sample_bytes),
            fair_interleave=True,
        )
        return clone

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self) -> Generator:
        """Collectively stop the data plane's service machinery.

        All ranks must call this together (it barriers).  The handle is
        closed afterwards: further ``get_samples`` calls raise
        :class:`StoreClosedError`.

        Single-shot: a second call on an already-closed handle returns
        without communicating.  Re-running the teardown collective would
        send a second shutdown sentinel into a p2p responder that already
        exited (and barrier against ranks that are long gone) — the exact
        failure the old reshard double-close used to mask.
        """
        if self._closed:
            return
        yield from self.transport.shutdown()
        yield from self.comm.barrier()
        self._shutdown_collectives += 1
        self.close()
        self._assert_quiet()

    def _assert_quiet(self) -> None:
        """Past the shutdown barrier the job's data plane is quiet, so a DRR
        grant, a queued waiter or an active fetch still found on one of the
        job's serving arbiters or on this view's lane, or a wave entry
        still open in a node rendezvous of this store, has leaked — raise
        naming it instead of passing silently.  Then drop the store's
        rendezvous (``HostShared.coordinators``)."""
        c = self.comm.communicator
        shared = c.world.shared
        coords = [key for key in shared.coordinators if key[:2] == self._store_key]
        leaks = [
            f"target {target}: {what}"
            for target, arbiter in sorted(shared.arbiters.get(c.id, {}).items())
            for what in arbiter.leaks()
        ]
        leaks += [
            f"node {key[2]}, tenant {key[3]!r}: wave {wave} still open"
            for key in coords
            for wave in shared.coordinators[key].entries
        ]
        if self._lane is not None:
            leaks += self._lane.leaks()
        if leaks:
            raise RuntimeError("DDStore shut down with leaks: " + "; ".join(leaks))
        for key in coords:
            del shared.coordinators[key]

    def close(self) -> None:
        """Release this rank's DRAM accounting and mark the handle closed.

        Idempotent and rank-local (no communication) — safe from
        ``__exit__``.  Transports with target-side service machinery (p2p)
        additionally need the collective :meth:`shutdown` first.
        """
        if self._closed:
            return
        self._closed = True
        if self._charged_bytes:
            self.comm.communicator.world.cluster.release_memory(
                self._node_index, self._charged_bytes
            )
            self._charged_bytes = 0

    def __enter__(self) -> "DDStore":
        if self._closed:
            raise StoreClosedError("cannot enter a closed DDStore")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # elastic re-sharding
    # ------------------------------------------------------------------
    def reshard(self, width: Optional[int] = None, n_workers: int = 1) -> Generator:
        """Collectively rebuild the store with a new width — in memory.

        The paper's §2.2 names the pain point: with classic data sharding,
        changing the GPU count (or replication factor) forces a slow
        re-partitioning through the filesystem.  With DDStore the data
        already lives in the job's DRAM, so redistribution is a pure
        memory-to-memory shuffle: every rank fetches its *new* chunk
        from the old replica group, then the group structure, registry,
        and data plane are rebuilt.  ``n_workers`` spreads the bulk reads
        over that many wire streams (loaders pass their configured worker
        count through so reshard parallelism matches fetch parallelism).

        The new store is generation ``old + 1`` and starts from the old
        handle's cumulative :class:`FetchStats`, so fetch/cache counters
        stay monotone across the width change instead of silently
        resetting.  The old handle is shut down (one collective) and
        closed.  Returns the new :class:`DDStore`.
        """
        source = _StoreSource(self, n_workers=n_workers)
        new_store = yield from DDStore.create(
            self.comm,
            source,
            width=width,
            dataplane=self.config.dataplane,
            resilience=self.config.resilience,
        )
        new_store.generation = self.generation + 1
        new_store.stats.merge_from(self.stats)
        before = self._shutdown_collectives
        yield from self.shutdown()
        after = self._shutdown_collectives
        if after - before != 1 or not self._closed:
            raise RuntimeError(
                f"reshard teardown ran {after - before} shutdown "
                "collective(s); expected exactly one (was the old store "
                "already closed underneath the reshard?)"
            )
        return new_store


class _StoreSource:
    """Preload plugin that pulls packed samples out of an existing store.

    A new contiguous chunk ``[lo, hi)`` overlaps at most a handful of old
    owners' contiguous ranges, so redistribution issues ONE large read
    per overlapped owner (bulk memory-to-memory streaming) instead of one
    read per sample — the same trick the CFF preloader uses on files.
    Each read comes back as views of the old window's pieces, which
    :meth:`~repro.mpi.Pieces.cut` cuts per sample: the new store exposes
    the old store's pieces, copying nothing.  Both transports serve any
    byte span, so this is the one path on either.
    """

    read_chunk_raw = None  # no files behind it

    def __init__(self, store: DDStore, n_workers: int = 1) -> None:
        self.store = store
        self.n_samples = store.n_samples
        self.n_workers = max(1, int(n_workers))

    def load_chunk(self, indices: range, node_index: int, engine) -> Generator:
        """``indices`` is the new chunk's ``range(lo, hi)`` (what
        :meth:`DDStore.create` hands every source)."""
        store = self.store
        if not indices:
            return Pieces([])
        lo, hi = indices.start, indices.stop
        reg, bounds = store.registry, store.layout.bounds
        # One byte span per overlapped old chunk: ``[lo, hi)`` cut at the
        # old chunk boundaries that fall strictly inside it.
        first, last = np.searchsorted(bounds, [lo, hi - 1], side="right") - 1
        owners = np.arange(first, last + 1)
        cuts = np.concatenate(([lo], bounds[first + 1 : last + 1], [hi]))
        b_lo = reg.offsets[cuts[:-1]] - reg.offsets[bounds[owners]]
        nbytes = reg.offsets[cuts[1:]] - reg.offsets[cuts[:-1]]
        me = store.group_comm.rank
        # An overlapped span of all-zero-size samples moves no bytes:
        # satisfy it locally instead of spending a wire read (and, under
        # faults, a retry ladder) on nothing.
        remote = np.flatnonzero((nbytes != 0) & (owners != me))
        parts = [np.zeros(0, dtype=np.uint8)] * owners.size
        if first <= me <= last and nbytes[me - first]:
            off = int(b_lo[me - first])
            parts[me - first] = store.transport.local_buffer()[
                off : off + int(nbytes[me - first])
            ]
        # The bulk reads go through the same fetch stage as training-time
        # reads: a reshard under a straggler/dark peer retries and fails
        # over (or, without resilience, raises) instead of silently
        # stitching None payloads into the new chunk.
        if remote.size:
            reads = np.stack(
                [owners[remote] + store._group_base, b_lo[remote], nbytes[remote]], axis=1
            )
            outcome, ladder = yield from pipeline.fetch(store, reads, self.n_workers)
            pipeline.book(store, ladder)
            for i, payload in zip(remote.tolist(), outcome.payloads):
                parts[i] = payload
        return Pieces(parts).cut(np.diff(reg.offsets[lo : hi + 1]))
