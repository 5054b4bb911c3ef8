"""DDStore: the distributed in-memory data store (paper §3).

Construction (collective, via :meth:`DDStore.create`):

1. split the job's ranks into ``N/w`` replica groups of width ``w``
   (``MPI_Comm_split``),
2. each group member preloads its chunk — a contiguous slice of the global
   sample range — into one packed byte buffer (data preloader),
3. members exchange per-sample size tables (``MPI_Allgather``) and build
   the replicated :class:`~.registry.ChunkRegistry`,
4. every member wires the replica group's data plane: the transport
   resolved from ``config.framework`` (the paper's ``mpi-rma`` exposes
   the buffer through an RMA window).

Training-time fetch (:meth:`DDStore.get_samples`): look the requested
global ids up in the registry, copy local ones straight out of the own
buffer, serve repeat remote ids from the optional hot-sample cache, and
hand the rest to the :class:`~repro.dataplane.FetchPlanner`, which groups
them by owner and coalesces adjacent byte ranges into the wire reads the
transport executes — never touching the filesystem.  Reads normally stay
inside the replica group; with :class:`~.config.ResilienceOptions`
enabled, a read that times out is retried with exponential backoff
(:mod:`repro.dataplane.retry`) and — since chunk contents are identical
across replica groups — can *fail over* to the same chunk's owner in
another group, so one straggling or dark peer degrades throughput instead
of stalling every consumer.

The store itself holds *no* communication code: transports live in
:mod:`repro.dataplane` and anything registered there is a valid
``framework`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

import numpy as np

from ..dataplane import (
    FetchPlanner,
    FetchTimeoutError,
    PlannedRead,
    RetryPolicy,
    SampleCache,
    TieredCache,
    fetch_with_retry,
    get_transport,
    node_coordinator,
)
from ..dataplane.transport import Transport
from ..graphs import SAMPLE_ALLOCATIONS, AtomicGraph, BatchArena
from ..mpi import Comm
from ..storage import SampleStats, decode_time, peek_header, scatter_time, unpack_graph
from .chunking import ChunkLayout
from .config import (
    DataPlaneOptions,
    DDStoreConfig,
    ElasticOptions,
    ResilienceOptions,
    ServingOptions,
)
from .preloader import DataSource
from .registry import ChunkRegistry, ShapeTable

__all__ = ["DDStore", "FetchStats", "FETCH_STAGES", "StoreClosedError"]

#: The instrumented stages of one ``get_samples`` call, in pipeline order
#: ("queue" is the multi-tenant serving layer's DRR/admission wait before
#: wire issue — zero on single-tenant stores; "retry" charges the backoff
#: waits between fetch re-issues; "promote" is the tiered cache's
#: NVMe→DRAM batched-read wall time; "scatter" is the columnar path's
#: arena assembly, which replaces "decode"; "fanout" is the node-fetch
#: intra-node copy of leader-read payloads into subscriber caches).
FETCH_STAGES = ("plan", "queue", "lock", "get", "retry", "copy", "cache", "promote", "decode", "scatter", "fanout")


class StoreClosedError(RuntimeError):
    """Raised when a closed/shut-down DDStore handle is asked for samples."""

# Modelled CPU cost of building a fetch plan (numpy sort + merge sweep).
_PLAN_BASE_S = 1.0e-6
_PLAN_S_PER_REQ = 1.0e-8


@dataclass
class FetchStats:
    """Cumulative fetch accounting of one DDStore handle."""

    n_local: int = 0
    n_remote: int = 0
    bytes_local: int = 0
    bytes_remote: int = 0
    fetch_time: float = 0.0
    decode_time: float = 0.0
    latencies: list[float] = field(default_factory=list)
    # data-plane counters
    n_get_calls: int = 0  # wire reads issued (== n_remote when not coalescing)
    bytes_transferred: int = 0  # deduplicated wire bytes actually moved
    n_cache_hits: int = 0
    n_cache_misses: int = 0
    n_cache_evictions: int = 0
    bytes_cache_hits: int = 0
    # resilience counters (all zero unless ResilienceOptions are enabled)
    n_timeouts: int = 0  # wire reads that blew their deadline
    n_retries: int = 0  # wire reads re-issued after a timeout
    n_failovers: int = 0  # retries re-routed to another replica group
    # epoch-ahead scheduler counters (zero unless scheduler waves run)
    n_prefetch_waves: int = 0  # prefetch_wave calls that hit the wire
    n_prefetched: int = 0  # distinct samples parked in the cache by waves
    bytes_prefetched: int = 0  # deduplicated wire bytes moved by waves
    # node-aggregated fetch counters (zero unless node_fetch waves run)
    n_node_waves: int = 0  # node-aggregated prefetch_wave calls
    n_fanout: int = 0  # samples received over the intra-node fan-out
    bytes_fanout: int = 0  # payload bytes fanned in from node leaders
    bytes_node_requested: int = 0  # this rank's plan-time remote demand
    bytes_node_wire: int = 0  # bytes this rank wire-read as a leader
    # virtual seconds spent per fetch stage (keys from FETCH_STAGES)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    # wave-prefetch stage seconds, kept apart from the demand-fetch path:
    # wave time overlaps compute, so folding it into stage_seconds would
    # double-charge the breakdown figures.
    prefetch_stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def n_total(self) -> int:
        return self.n_local + self.n_remote + self.n_cache_hits

    def add_stage(self, stage: str, seconds: float) -> None:
        if seconds:
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def add_prefetch_stage(self, stage: str, seconds: float) -> None:
        if seconds:
            self.prefetch_stage_seconds[stage] = (
                self.prefetch_stage_seconds.get(stage, 0.0) + seconds
            )

    def counters(self) -> dict[str, int]:
        """The integer counters as a dict (for the bench layer)."""
        return dict(
            n_local=self.n_local,
            n_remote=self.n_remote,
            bytes_local=self.bytes_local,
            bytes_remote=self.bytes_remote,
            n_get_calls=self.n_get_calls,
            bytes_transferred=self.bytes_transferred,
            n_cache_hits=self.n_cache_hits,
            n_cache_misses=self.n_cache_misses,
            n_cache_evictions=self.n_cache_evictions,
            bytes_cache_hits=self.bytes_cache_hits,
            n_timeouts=self.n_timeouts,
            n_retries=self.n_retries,
            n_failovers=self.n_failovers,
            n_prefetch_waves=self.n_prefetch_waves,
            n_prefetched=self.n_prefetched,
            bytes_prefetched=self.bytes_prefetched,
            n_node_waves=self.n_node_waves,
            n_fanout=self.n_fanout,
            bytes_fanout=self.bytes_fanout,
            bytes_node_requested=self.bytes_node_requested,
            bytes_node_wire=self.bytes_node_wire,
        )

    def latency_array(self) -> np.ndarray:
        return np.asarray(self.latencies, dtype=np.float64)

    def merge_from(self, other: "FetchStats") -> None:
        """Fold another handle's cumulative accounting into this one.

        The reshard stats-continuity path: a new-generation store starts
        from the old generation's totals, so bench roll-ups and monotone
        cumulative counters survive a width change (the same discipline as
        the delta-accumulated cache counters).
        """
        for name, val in other.counters().items():
            setattr(self, name, getattr(self, name) + val)
        self.fetch_time += other.fetch_time
        self.decode_time += other.decode_time
        self.latencies.extend(other.latencies)
        for stage, seconds in other.stage_seconds.items():
            self.add_stage(stage, seconds)
        for stage, seconds in other.prefetch_stage_seconds.items():
            self.add_prefetch_stage(stage, seconds)


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
        record_latencies: bool,
    ) -> None:
        self.comm = comm
        self.group_comm = group_comm
        self.config = config
        self.layout = layout
        self.registry = registry
        self.transport = transport
        self.record_latencies = record_latencies
        self.stats = FetchStats()
        self.planner = FetchPlanner(
            coalesce=config.coalesce and transport.supports_coalescing,
            max_read_bytes=config.max_read_bytes,
        )
        machine = comm.communicator.world.machine
        self._machine = machine
        self._local_copy_base = machine.intra_node_latency_s
        self._local_copy_bw = machine.intra_node_bandwidth_Bps
        if config.dataplane.cache is not None:
            self.cache = self._build_tiered_cache(config.dataplane.cache)
        else:
            self.cache = SampleCache(
                config.cache_bytes, policy=config.dataplane.cache_policy
            )
        self._tiered = bool(getattr(self.cache, "tiered", False))
        # Snapshot of per-tier counters for delta-based metric publishing.
        self._tier_base = self.cache.tier_counters() if self._tiered else {}
        # The transport is wired over the whole job (a dup of ``comm``), so
        # plan targets are comm ranks: group rank + this group's base.
        self._my_group = config.group_of_rank(comm.rank)
        self._group_base = self._my_group * config.effective_width
        self._failover_order: dict[int, list[int]] = {}
        # Snapshot of the cache's cumulative counters at the last
        # get_samples sync — FetchStats accumulates *deltas* against it, so
        # resetting ``store.stats`` mid-run cannot resurrect old cache hits.
        self._cache_base = self.cache.stats.as_dict()
        self._closed = False
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
        # gate consulted in ``_fetch_reads``) and a tenant/qos label pair
        # for the ``ddstore.tenant`` metric family.
        self._lane = None
        self._tenant: Optional[str] = None
        self._qos: Optional[str] = None
        # Node-fetch rendezvous identity: ranks of one store fleet must
        # agree on "which store" without sharing per-rank objects, so each
        # store carries its rank's creation ordinal — identical across
        # ranks because every rank opens its stores in the same order.
        # Session views inherit it (the coordinator key adds the tenant,
        # so tenants never share rendezvous entries).
        world = comm.communicator.world
        seq = world.__dict__.setdefault("_store_seq_by_rank", {})
        self._store_seq = seq.get(comm.world_rank, 0)
        seq[comm.world_rank] = self._store_seq + 1

    def _build_tiered_cache(self, cache_opts) -> TieredCache:
        """Assemble the GPU→DRAM→NVMe hierarchy for this rank.

        The NVMe tier is node-shared: all local ranks resolve the same
        :class:`~repro.storage.staging.NVMeShardStore` (and device queue)
        through a registry on the world object, keyed by node index.
        """
        from ..hardware.nvme import NVMeDevice
        from ..storage.staging import NVMeShardStore

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
            world = comm.communicator.world
            node_index = machine.node_of_rank(comm.world_rank)
            stores = world.__dict__.setdefault("_tier_nvme_stores", {})
            if node_index not in stores:
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
            nvme=shard_store,
            gpu_spec=machine.gpu if cache_opts.tier("gpu") is not None else None,
            dram_hit_base_s=self._local_copy_base,
            dram_hit_Bps=self._local_copy_bw,
            now_fn=lambda: engine.now,
        )

    def _publish_tier_metrics(self, m, track: int) -> None:
        """Publish per-tier counter deltas to the ``ddstore.tier`` family
        (labels: tier, counter, rank), snapshot-style like the cache stats."""
        if not self._tiered:
            return
        counters = self.cache.tier_counters()
        for key, value in counters.items():
            delta = value - self._tier_base.get(key, 0)
            if delta:
                tier, counter = key.split(".", 1)
                m.counter(
                    "ddstore.tier", tier=tier, counter=counter, rank=track
                ).inc(delta)
        self._tier_base = counters

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
        serving: Optional[ServingOptions] = None,
        elastic: Optional[ElasticOptions] = None,
        record_latencies: bool = False,
        **flat,
    ) -> Generator:
        """Collectively build the store over ``comm`` (all ranks call this).

        ``source`` supplies the packed samples (a preloader plugin).
        Data-plane tuning (framework, coalescing, cache) comes in through
        ``dataplane``, fault handling (timeout/retry/failover) through
        ``resilience``, and multi-tenant admission/fairness through
        ``serving`` — see :class:`~.config.DataPlaneOptions`,
        :class:`~.config.ResilienceOptions`, and
        :class:`~.config.ServingOptions`.  Flat keywords of the old API
        (``framework=``, ``cache_bytes=``, ...) were removed after their
        deprecation cycle and raise :class:`TypeError` with a migration
        hint.  Returns this rank's :class:`DDStore`.
        """
        config = DDStoreConfig(
            comm.size,
            width=width,
            dataplane=dataplane,
            resilience=resilience,
            serving=serving,
            elastic=elastic,
            **flat,
        )
        group_comm = yield from comm.split(
            color=config.group_of_rank(comm.rank), key=comm.rank
        )
        layout = ChunkLayout.build(source.n_samples, config.effective_width)

        # Preload this member's chunk (timed filesystem / CPU work).
        lo, hi = layout.chunk_range(group_comm.rank)
        engine = comm.engine
        node_index = comm.communicator.world.machine.node_of_rank(comm.world_rank)
        result = yield from source.load_chunk(range(lo, hi), node_index, engine)

        # Account the chunk against the node's DRAM (MemoryError here is the
        # legitimate "width too large for this machine" failure mode).
        buffer_nbytes = int(result.buffer.nbytes)
        comm.communicator.world.cluster.charge_memory(node_index, buffer_nbytes)

        # Exchange size tables and build the replicated registry.
        sizes_all = yield from group_comm.allgather(result.sizes)
        registry = ChunkRegistry.from_sample_sizes(layout, sizes_all)
        if config.dataplane.columnar:
            # The arena scatter path needs every sample's shape *before*
            # its bytes arrive.  Sweep the local chunk's record headers
            # (pure wall-clock work over already-resident DRAM) and
            # replicate the triples with one extra allgather riding the
            # same create-time collective phase as the size exchange.
            shape_row = cls._local_shape_row(result)
            shape_rows = yield from group_comm.allgather(shape_row)
            registry.shapes = cls._build_shape_table(shape_rows)
        largest = registry.max_sample_bytes()
        if config.max_read_bytes is not None and config.max_read_bytes < largest:
            raise ValueError(
                f"dataplane.max_read_bytes={config.max_read_bytes} is smaller "
                f"than the largest packed sample in this dataset ({largest} "
                f"bytes); every read of that sample would degenerate into "
                f"max-size fragments. Raise max_read_bytes to at least "
                f"{largest} (or leave it None for unbounded reads)."
            )

        # Wire the data plane over the whole job (a private dup of ``comm``,
        # so concurrent stores never cross-match traffic).  Chunk contents
        # are identical across replica groups, which is what lets a timed-out
        # read fail over to rank ``group * width + owner`` of another group.
        plane_comm = yield from comm.dup()
        transport_cls = get_transport(config.framework)
        transport = yield from transport_cls.setup(
            plane_comm, result.buffer, record_latencies=record_latencies
        )
        store = cls(
            comm=comm,
            group_comm=group_comm,
            config=config,
            layout=layout,
            registry=registry,
            transport=transport,
            record_latencies=record_latencies,
        )
        store._node_index = node_index
        store._charged_bytes = buffer_nbytes
        if (
            store._tiered
            and store.cache.nvme is not None
            and config.dataplane.cache.stage_nvme
        ):
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
        if getattr(shard, "_staged_once", False):
            return
        shard._staged_once = True
        reader = getattr(source, "reader", None)
        bulk = getattr(reader, "read_chunk_raw", None) if reader is not None else None
        if bulk is None:
            return
        engine = self.comm.engine
        n = int(source.n_samples)
        blobs, t = bulk(0, n, node_index, engine.now)
        done = shard.stage(list(range(n)), blobs, t)
        if done > engine.now:
            yield engine.timeout(done - engine.now)

    @staticmethod
    def _local_shape_row(result) -> np.ndarray:
        """Header-sweep this member's chunk into one allgatherable row:
        ``[f_dim, y_dim, sample_ids..., n_nodes..., n_edges...]``."""
        k = int(result.sizes.size)
        sids = np.empty(k, np.int64)
        nn = np.empty(k, np.int64)
        ne = np.empty(k, np.int64)
        f_dim = y_dim = -1
        buf = result.buffer
        off = 0
        for i in range(k):
            nb = int(result.sizes[i])
            sid, n_nodes, n_edges, fd, yd = peek_header(buf[off : off + nb])
            sids[i], nn[i], ne[i] = sid, n_nodes, n_edges
            if f_dim == -1:
                f_dim, y_dim = fd, yd
            elif (fd, yd) != (f_dim, y_dim):
                raise ValueError(
                    "columnar data plane requires uniform feature/output dims: "
                    f"sample {sid} has ({fd}, {yd}), chunk started with "
                    f"({f_dim}, {y_dim})"
                )
            off += nb
        return np.concatenate(([f_dim, y_dim], sids, nn, ne)).astype(np.int64)

    @staticmethod
    def _build_shape_table(shape_rows: list[np.ndarray]) -> ShapeTable:
        sids_all: list[np.ndarray] = []
        nn_all: list[np.ndarray] = []
        ne_all: list[np.ndarray] = []
        f_dim = y_dim = -1
        for row in shape_rows:
            row = np.asarray(row, np.int64)
            fd, yd = int(row[0]), int(row[1])
            k = (row.size - 2) // 3
            if fd != -1:  # members with empty chunks report no dims
                if f_dim == -1:
                    f_dim, y_dim = fd, yd
                elif (fd, yd) != (f_dim, y_dim):
                    raise ValueError(
                        "columnar data plane requires uniform feature/output "
                        f"dims across members: got ({fd}, {yd}) and "
                        f"({f_dim}, {y_dim})"
                    )
            sids_all.append(row[2 : 2 + k].copy())
            nn_all.append(row[2 + k : 2 + 2 * k].copy())
            ne_all.append(row[2 + 2 * k : 2 + 3 * k].copy())
        return ShapeTable(
            sample_ids=sids_all,
            n_nodes=nn_all,
            n_edges=ne_all,
            feature_dim=max(f_dim, 0),
            output_dim=max(y_dim, 0),
        )

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

    @property
    def win(self):
        """Back-compat: the RMA window handle, when the transport has one."""
        return getattr(self.transport, "win", None)

    def batch_nbytes(self, indices: Sequence[int]) -> int:
        """Total packed bytes of ``indices`` — free (registry lookup only);
        the prefetch scheduler uses it to meter its in-flight byte budget."""
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size == 0:
            return 0
        _, _, sizes = self.registry.locate_batch(idx)
        return int(sizes.sum())

    def _local_buffer_view(self) -> np.ndarray:
        return self.transport.local_buffer()

    # ------------------------------------------------------------------
    # the data loader hot path
    # ------------------------------------------------------------------
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
        performance sweeps), or raw packed ``np.uint8`` payloads when
        ``decode="raw"`` (no deserialisation charged; the resharding path).
        """
        if self._closed:
            raise StoreClosedError(
                "this DDStore handle has been closed/shut down; create a new "
                "store (or reshard) before fetching samples"
            )
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size == 0:
            return []
        engine = self.comm.engine
        stats = self.stats
        obs = self.comm.communicator.world.obs
        track = self.comm.world_rank
        # Per-call stage accounting: with depth-k prefetch several
        # get_samples coroutines interleave, so metric deltas must come
        # from this call's own charges, not a snapshot of the shared dict.
        call_stages: dict[str, float] = {}

        def charge(stage: str, seconds: float) -> None:
            if seconds:
                stats.add_stage(stage, seconds)
                call_stages[stage] = call_stages.get(stage, 0.0) + seconds

        t_start = engine.now
        owners, offsets, sizes = self.registry.locate_batch(idx)
        me = self.group_comm.rank
        local_mask = owners == me

        blobs: list[Optional[np.ndarray]] = [None] * idx.size
        latencies = np.zeros(idx.size, dtype=np.float64)

        # -- local samples: straight memcpy out of the own buffer ----------
        local_positions = np.nonzero(local_mask)[0]
        local_time = 0.0
        if local_positions.size:
            buf = self.transport.local_buffer()
            for p in local_positions:
                off, nb = int(offsets[p]), int(sizes[p])
                blobs[p] = buf[off : off + nb].copy()
            SAMPLE_ALLOCATIONS.bump(int(local_positions.size))
            copy_times = self._local_copy_base + sizes[local_positions] / self._local_copy_bw
            latencies[local_positions] = copy_times
            local_time = float(copy_times.sum())

        # -- remote samples: cache probe, then plan + transport fetch -------
        remote_positions = np.nonzero(~local_mask)[0]
        fetch_positions = remote_positions
        cache_time = 0.0
        promote_keys: list[int] = []
        promote_positions: list[int] = []
        if self.cache.enabled and remote_positions.size:
            missed = []
            if self._tiered:
                for p in remote_positions:
                    key = int(idx[p])
                    hit = self.cache.fast_get(key, column=False)
                    if hit is not None:
                        payload, _, hit_cost = hit
                        blobs[p] = payload.copy()
                        SAMPLE_ALLOCATIONS.bump()
                        latencies[p] = hit_cost
                        cache_time += hit_cost
                    elif self.cache.nvme_resident(key, column=False):
                        promote_keys.append(key)
                        promote_positions.append(int(p))
                    else:
                        self.cache.count_miss(column=False)
                        missed.append(p)
            else:
                for p in remote_positions:
                    entry = self.cache.get(int(idx[p]))
                    if entry is None:
                        missed.append(p)
                        continue
                    blobs[p] = entry.copy()
                    SAMPLE_ALLOCATIONS.bump()
                    # A hit still costs the DRAM copy out of the cache.
                    hit_cost = self._local_copy_base + entry.nbytes / self._local_copy_bw
                    latencies[p] = hit_cost
                    cache_time += hit_cost
            fetch_positions = np.asarray(missed, dtype=np.int64)

        # -- tiered cache: batched NVMe→DRAM demand promotion ----------------
        if promote_keys:
            t_promote = engine.now
            results, promote_wall = self.cache.promote_batch(
                promote_keys, engine.now, column=False
            )
            if promote_wall:
                yield engine.timeout(promote_wall)
            charge("promote", promote_wall)
            for key, p in zip(promote_keys, promote_positions):
                payload, _ = results[key]
                blobs[p] = payload.copy()
                SAMPLE_ALLOCATIONS.bump()
                latencies[p] = promote_wall
            if obs.tracing:
                obs.tracer.record(
                    "store.promote",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_promote,
                    end=engine.now,
                    n=len(promote_keys),
                )

        # Zero-size samples need no bytes on the wire, but they are still
        # remote samples this call served — count them as such.
        n_zero = 0
        if fetch_positions.size:
            empty = fetch_positions[sizes[fetch_positions] == 0]
            for p in empty:
                blobs[p] = np.zeros(0, dtype=np.uint8)
            if empty.size:
                n_zero = int(empty.size)
                fetch_positions = fetch_positions[sizes[fetch_positions] > 0]

        plan = None
        d_timeouts = d_retries = d_failovers = 0
        if fetch_positions.size:
            plan = self.planner.plan(
                owners[fetch_positions] + self._group_base,
                offsets[fetch_positions],
                sizes[fetch_positions],
                positions=fetch_positions,
            )
            plan_s = _PLAN_BASE_S + _PLAN_S_PER_REQ * int(fetch_positions.size)
            t_plan = engine.now
            yield engine.timeout(plan_s)
            charge("plan", plan_s)
            if obs.tracing:
                obs.tracer.record(
                    "store.plan",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_plan,
                    end=engine.now,
                    n_reads=plan.n_reads,
                )
            t_fetch = engine.now
            outcome, d_timeouts, d_retries, d_failovers = yield from self._fetch_reads(
                plan.reads, n_streams=max(1, n_workers)
            )
            if obs.tracing:
                obs.tracer.record(
                    "store.fetch",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_fetch,
                    end=engine.now,
                    n_reads=plan.n_reads,
                    nbytes=plan.total_bytes,
                )
            self._scatter(plan, outcome, blobs, latencies)
            for stage, seconds in outcome.stage_seconds.items():
                charge(stage, seconds)
            if self.cache.enabled:
                for p in fetch_positions:
                    self.cache.put(int(idx[p]), blobs[p])

        if local_time:
            local_wait = local_time / max(1, n_workers)
            t_copy = engine.now
            yield engine.timeout(local_wait)
            charge("copy", local_wait)
            if obs.tracing:
                obs.tracer.record(
                    "store.copy",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_copy,
                    end=engine.now,
                    n=int(local_positions.size),
                )
        if cache_time:
            cache_wait = cache_time / max(1, n_workers)
            t_cache = engine.now
            yield engine.timeout(cache_wait)
            charge("cache", cache_wait)
            if obs.tracing:
                obs.tracer.record(
                    "store.cache",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_cache,
                    end=engine.now,
                )

        # -- deserialise (CPU) ----------------------------------------------
        if decode == "raw":
            dec = np.zeros(idx.size)
            graphs = blobs
        else:
            dec = np.fromiter(
                (decode_time(self._machine, int(s)) for s in sizes),
                dtype=np.float64,
                count=idx.size,
            )
            decode_wait = float(dec.sum()) / max(1, n_workers)
            t_decode = engine.now
            yield engine.timeout(decode_wait)
            charge("decode", decode_wait)
            if obs.tracing:
                obs.tracer.record(
                    "store.decode",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_decode,
                    end=engine.now,
                    n=int(idx.size),
                )
            latencies += dec
            if decode:
                graphs = [unpack_graph(b) for b in blobs]
                SAMPLE_ALLOCATIONS.bump(len(blobs))
            else:
                graphs = [SampleStats.from_blob(b) for b in blobs]

        # -- bookkeeping ------------------------------------------------------
        n_fetched = int(fetch_positions.size) if plan is not None else 0
        n_remote_served = n_fetched + n_zero
        bytes_local = int(sizes[local_positions].sum()) if local_positions.size else 0
        bytes_remote = int(sizes[fetch_positions].sum()) if n_fetched else 0
        stats.n_local += int(local_positions.size)
        stats.n_remote += n_remote_served
        stats.bytes_local += bytes_local
        stats.bytes_remote += bytes_remote
        if plan is not None:
            stats.n_get_calls += plan.n_reads
            stats.bytes_transferred += plan.total_bytes
        # Cache counters accumulate as deltas against the last snapshot: the
        # cache's own stats are cumulative and shared across stats resets.
        cs = self.cache.stats.as_dict()
        base = self._cache_base
        d_hits = cs["hits"] - base["hits"]
        d_misses = cs["misses"] - base["misses"]
        d_evictions = cs["evictions"] - base["evictions"]
        d_hit_bytes = cs["hit_bytes"] - base["hit_bytes"]
        stats.n_cache_hits += d_hits
        stats.n_cache_misses += d_misses
        stats.n_cache_evictions += d_evictions
        stats.bytes_cache_hits += d_hit_bytes
        self._cache_base = cs
        stats.fetch_time += engine.now - t_start - float(dec.sum())
        stats.decode_time += float(dec.sum())
        if self.record_latencies:
            stats.latencies.extend(latencies.tolist())

        m = obs.metrics
        if m.enabled:
            for cname, val in (
                ("n_local", int(local_positions.size)),
                ("n_remote", n_remote_served),
                ("bytes_local", bytes_local),
                ("bytes_remote", bytes_remote),
                ("n_get_calls", plan.n_reads if plan is not None else 0),
                ("bytes_transferred", plan.total_bytes if plan is not None else 0),
                ("n_cache_hits", d_hits),
                ("n_cache_misses", d_misses),
                ("n_cache_evictions", d_evictions),
                ("bytes_cache_hits", d_hit_bytes),
                ("n_timeouts", d_timeouts),
                ("n_retries", d_retries),
                ("n_failovers", d_failovers),
            ):
                if val:
                    m.counter(
                        "ddstore.fetch",
                        counter=cname,
                        rank=track,
                        generation=self.generation,
                    ).inc(val)
            for stage, seconds in call_stages.items():
                m.counter(
                    "ddstore.stage_seconds",
                    stage=stage,
                    rank=track,
                    generation=self.generation,
                ).inc(seconds)
            self._publish_tier_metrics(m, track)
            self._publish_tenant(
                m,
                track,
                int(idx.size),
                engine.now - t_start,
                plan.total_bytes if plan is not None else 0,
                call_stages.get("queue", 0.0),
            )
        if obs.tracing:
            obs.tracer.record(
                "store.get_samples",
                cat="store",
                track=track,
                lane=1,
                start=t_start,
                end=engine.now,
                n=int(idx.size),
                n_local=int(local_positions.size),
                n_remote=n_remote_served,
                n_cache_hits=d_hits,
                **({"tenant": self._tenant, "qos": self._qos} if self._tenant else {}),
            )
        return graphs

    def get_batch_arena(
        self, indices: Sequence[int], arena: BatchArena, n_workers: int = 1
    ) -> Generator:
        """Fetch ``indices`` scattering payload bytes straight into ``arena``.

        The columnar hot path: scatter destinations — ``(field, offset)``
        pairs inside the arena's preallocated buffers — are computed from
        the registry's shape index *before* any bytes move, so local
        copies, cache hits, and wire payloads all land directly in their
        final batch position.  No per-sample ndarray is ever allocated and
        the "decode" stage disappears; in its place one vectorised
        "scatter" pass (segment copies + the edge-index shift) is charged
        via :func:`~repro.storage.scatter_time`.  Requires the columnar
        data plane (``DataPlaneOptions(columnar=True)``), which replicates
        the shape index at create time.  Returns the per-sample latency
        array; the batch itself is read out of ``arena``
        (``collate(arena=...)``).
        """
        if self._closed:
            raise StoreClosedError(
                "this DDStore handle has been closed/shut down; create a new "
                "store (or reshard) before fetching samples"
            )
        if self.registry.shapes is None:
            raise ValueError(
                "get_batch_arena needs the columnar data plane: create the "
                "store with DataPlaneOptions(columnar=True)"
            )
        idx = np.asarray(list(indices), dtype=np.int64)
        engine = self.comm.engine
        stats = self.stats
        obs = self.comm.communicator.world.obs
        track = self.comm.world_rank
        call_stages: dict[str, float] = {}

        def charge(stage: str, seconds: float) -> None:
            if seconds:
                stats.add_stage(stage, seconds)
                call_stages[stage] = call_stages.get(stage, 0.0) + seconds

        t_start = engine.now
        shapes = self.registry.shapes
        sids, nn, ne = self.registry.shape_batch(idx)
        arena.reset(nn, ne, shapes.feature_dim, shapes.output_dim, sids)
        if idx.size == 0:
            return np.zeros(0, dtype=np.float64)
        owners, offsets, sizes = self.registry.locate_batch(idx)
        me = self.group_comm.rank
        local_mask = owners == me
        smap = self.planner.plan_arena(nn, ne, shapes.feature_dim, shapes.output_dim)
        fields = tuple(arena.field_bytes[name] for name in BatchArena._FIELDS)
        latencies = np.zeros(idx.size, dtype=np.float64)

        # -- local samples: scatter straight out of the own buffer ----------
        local_positions = np.nonzero(local_mask)[0]
        local_time = 0.0
        if local_positions.size:
            buf = self.transport.local_buffer()
            for p in local_positions:
                off, nb = int(offsets[p]), int(sizes[p])
                smap.scatter(int(p), 0, nb, buf[off : off + nb], fields)
            copy_times = self._local_copy_base + sizes[local_positions] / self._local_copy_bw
            latencies[local_positions] = copy_times
            local_time = float(copy_times.sum())

        # -- remote samples: column-cache probe, then plan + fetch ----------
        remote_positions = np.nonzero(~local_mask)[0]
        fetch_positions = remote_positions
        cache_time = 0.0
        promote_keys: list[int] = []
        promote_positions: list[int] = []
        if self.cache.enabled and remote_positions.size:
            missed = []
            if self._tiered:
                for p in remote_positions:
                    key = int(idx[p])
                    hit = self.cache.fast_get(key, column=True)
                    if hit is not None:
                        entry, has_header, hit_cost = hit
                        if has_header:
                            # Whole blob: scatter from byte 0 (the map
                            # skips the header bytes itself).
                            smap.scatter(int(p), 0, int(entry.nbytes), entry, fields)
                        else:
                            smap.scatter(
                                int(p), 32, 32 + int(entry.nbytes), entry, fields
                            )
                        latencies[p] = hit_cost
                        cache_time += hit_cost
                    elif self.cache.nvme_resident(key, column=True):
                        promote_keys.append(key)
                        promote_positions.append(int(p))
                    else:
                        self.cache.count_miss(column=True)
                        missed.append(p)
            else:
                for p in remote_positions:
                    entry = self.cache.get_columns(int(idx[p]))
                    if entry is None:
                        missed.append(p)
                        continue
                    # Cached column payloads are header-stripped: their bytes
                    # start at sample offset 32 (the AGRF record header).
                    smap.scatter(int(p), 32, 32 + int(entry.nbytes), entry, fields)
                    hit_cost = self._local_copy_base + entry.nbytes / self._local_copy_bw
                    latencies[p] = hit_cost
                    cache_time += hit_cost
            fetch_positions = np.asarray(missed, dtype=np.int64)

        # -- tiered cache: batched NVMe promotion, scattered zero-copy ------
        if promote_keys:
            t_promote = engine.now
            results, promote_wall = self.cache.promote_batch(
                promote_keys, engine.now, column=True
            )
            if promote_wall:
                yield engine.timeout(promote_wall)
            charge("promote", promote_wall)
            for key, p in zip(promote_keys, promote_positions):
                payload, has_header = results[key]
                # NVMe shards scatter straight into the arena buffers —
                # no per-sample ndarray is ever allocated on this path.
                if has_header:
                    smap.scatter(p, 0, int(payload.nbytes), payload, fields)
                else:
                    smap.scatter(p, 32, 32 + int(payload.nbytes), payload, fields)
                latencies[p] = promote_wall
            if obs.tracing:
                obs.tracer.record(
                    "store.promote",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_promote,
                    end=engine.now,
                    n=len(promote_keys),
                )

        n_zero = 0
        if fetch_positions.size:
            empty = fetch_positions[sizes[fetch_positions] == 0]
            if empty.size:
                n_zero = int(empty.size)
                fetch_positions = fetch_positions[sizes[fetch_positions] > 0]

        plan = None
        d_timeouts = d_retries = d_failovers = 0
        if fetch_positions.size:
            plan = self.planner.plan(
                owners[fetch_positions] + self._group_base,
                offsets[fetch_positions],
                sizes[fetch_positions],
                positions=fetch_positions,
            )
            plan_s = _PLAN_BASE_S + _PLAN_S_PER_REQ * int(fetch_positions.size)
            t_plan = engine.now
            yield engine.timeout(plan_s)
            charge("plan", plan_s)
            if obs.tracing:
                obs.tracer.record(
                    "store.plan",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_plan,
                    end=engine.now,
                    n_reads=plan.n_reads,
                )
            t_fetch = engine.now
            outcome, d_timeouts, d_retries, d_failovers = yield from self._fetch_reads(
                plan.reads, n_streams=max(1, n_workers)
            )
            if obs.tracing:
                obs.tracer.record(
                    "store.fetch",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_fetch,
                    end=engine.now,
                    n_reads=plan.n_reads,
                    nbytes=plan.total_bytes,
                )
            read_lat = outcome.latencies
            for r, (read, payload) in enumerate(zip(plan.reads, outcome.payloads)):
                lat = float(read_lat[r]) if read_lat is not None else 0.0
                for sl in read.slices:
                    piece = payload[sl.read_offset : sl.read_offset + sl.nbytes]
                    smap.scatter(
                        sl.position,
                        sl.sample_offset,
                        sl.sample_offset + sl.nbytes,
                        piece,
                        fields,
                    )
                    latencies[sl.position] = max(latencies[sl.position], lat)
                    if (
                        self.cache.enabled
                        and sl.sample_offset == 0
                        and sl.nbytes == int(sizes[sl.position])
                    ):
                        # Whole sample in one slice: park its column bytes
                        # (header stripped) for future arena batches.
                        self.cache.put_columns(
                            int(idx[sl.position]),
                            payload[sl.read_offset + 32 : sl.read_offset + sl.nbytes],
                        )
            for stage, seconds in outcome.stage_seconds.items():
                charge(stage, seconds)

        if local_time:
            local_wait = local_time / max(1, n_workers)
            t_copy = engine.now
            yield engine.timeout(local_wait)
            charge("copy", local_wait)
            if obs.tracing:
                obs.tracer.record(
                    "store.copy",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_copy,
                    end=engine.now,
                    n=int(local_positions.size),
                )
        if cache_time:
            cache_wait = cache_time / max(1, n_workers)
            t_cache = engine.now
            yield engine.timeout(cache_wait)
            charge("cache", cache_wait)
            if obs.tracing:
                obs.tracer.record(
                    "store.cache",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_cache,
                    end=engine.now,
                )

        # -- arena assembly (replaces per-sample decode) --------------------
        arena.shift_edges()
        scatter_nbytes = int(sizes.sum()) + int(arena.edge_index.nbytes)
        scatter_wait = scatter_time(
            self._machine, scatter_nbytes, smap.n_segments
        ) / max(1, n_workers)
        t_scatter = engine.now
        yield engine.timeout(scatter_wait)
        charge("scatter", scatter_wait)
        if obs.tracing:
            obs.tracer.record(
                "store.scatter",
                cat="store.stage",
                track=track,
                lane=1,
                start=t_scatter,
                end=engine.now,
                n=int(idx.size),
                n_segments=smap.n_segments,
            )
        latencies += scatter_wait / idx.size

        # -- bookkeeping ----------------------------------------------------
        n_fetched = int(fetch_positions.size) if plan is not None else 0
        n_remote_served = n_fetched + n_zero
        bytes_local = int(sizes[local_positions].sum()) if local_positions.size else 0
        bytes_remote = int(sizes[fetch_positions].sum()) if n_fetched else 0
        stats.n_local += int(local_positions.size)
        stats.n_remote += n_remote_served
        stats.bytes_local += bytes_local
        stats.bytes_remote += bytes_remote
        if plan is not None:
            stats.n_get_calls += plan.n_reads
            stats.bytes_transferred += plan.total_bytes
        cs = self.cache.stats.as_dict()
        base = self._cache_base
        d_hits = cs["hits"] - base["hits"]
        d_misses = cs["misses"] - base["misses"]
        d_evictions = cs["evictions"] - base["evictions"]
        d_hit_bytes = cs["hit_bytes"] - base["hit_bytes"]
        stats.n_cache_hits += d_hits
        stats.n_cache_misses += d_misses
        stats.n_cache_evictions += d_evictions
        stats.bytes_cache_hits += d_hit_bytes
        self._cache_base = cs
        stats.fetch_time += engine.now - t_start
        if self.record_latencies:
            stats.latencies.extend(latencies.tolist())

        m = obs.metrics
        if m.enabled:
            for cname, val in (
                ("n_local", int(local_positions.size)),
                ("n_remote", n_remote_served),
                ("bytes_local", bytes_local),
                ("bytes_remote", bytes_remote),
                ("n_get_calls", plan.n_reads if plan is not None else 0),
                ("bytes_transferred", plan.total_bytes if plan is not None else 0),
                ("n_cache_hits", d_hits),
                ("n_cache_misses", d_misses),
                ("n_cache_evictions", d_evictions),
                ("bytes_cache_hits", d_hit_bytes),
                ("n_timeouts", d_timeouts),
                ("n_retries", d_retries),
                ("n_failovers", d_failovers),
            ):
                if val:
                    m.counter(
                        "ddstore.fetch",
                        counter=cname,
                        rank=track,
                        generation=self.generation,
                    ).inc(val)
            for stage, seconds in call_stages.items():
                m.counter(
                    "ddstore.stage_seconds",
                    stage=stage,
                    rank=track,
                    generation=self.generation,
                ).inc(seconds)
            self._publish_tier_metrics(m, track)
            self._publish_tenant(
                m,
                track,
                int(idx.size),
                engine.now - t_start,
                plan.total_bytes if plan is not None else 0,
                call_stages.get("queue", 0.0),
            )
        if obs.tracing:
            obs.tracer.record(
                "store.get_batch",
                cat="store",
                track=track,
                lane=1,
                start=t_start,
                end=engine.now,
                n=int(idx.size),
                n_local=int(local_positions.size),
                n_remote=n_remote_served,
                n_cache_hits=d_hits,
                **({"tenant": self._tenant, "qos": self._qos} if self._tenant else {}),
            )
        return latencies

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
        ``window`` (a :class:`~repro.dataplane.nodeagg.WaveWindow` from
        the scheduler), the wave is aggregated at *node* scope instead:
        overlapping remote ranges across the node's ranks are fetched
        once by a per-target leader and fanned out intra-node.  Without
        ``node_fetch`` the window only names the wave: its epoch — the
        one the wave *serves*, which a carried wave is fetched ahead of —
        tags the ``store.prefetch_wave`` span.
        """
        if self._closed:
            raise StoreClosedError(
                "this DDStore handle has been closed/shut down; create a new "
                "store (or reshard) before prefetching samples"
            )
        if not self.cache.enabled:
            return 0
        if (
            window is not None
            and self.config.dataplane.node_fetch
            and self.transport.supports_coalescing
        ):
            n = yield from self._prefetch_wave_nodeagg(
                batch_indices, n_workers, window
            )
            return n
        engine = self.comm.engine
        stats = self.stats
        obs = self.comm.communicator.world.obs
        track = self.comm.world_rank
        me = self.group_comm.rank
        t_start = engine.now

        groups = []
        keys: list[int] = []
        stage_keys: list[int] = []
        seen: set[int] = set()
        columnar = self.config.dataplane.columnar
        tiered = self._tiered
        for batch in batch_indices:
            idx = np.asarray(list(batch), dtype=np.int64)
            if idx.size == 0:
                continue
            owners, offsets, sizes = self.registry.locate_batch(idx)
            want = []
            for p in range(idx.size):
                key = int(idx[p])
                if owners[p] == me or sizes[p] == 0 or key in seen:
                    continue
                if tiered:
                    if self.cache.fast_resident(key):
                        continue
                    if self.cache.nvme_resident(key, column=columnar):
                        # Resident one tier down: no wire read needed —
                        # stage the bytes upward ahead of demand instead.
                        seen.add(key)
                        stage_keys.append(key)
                        continue
                elif key in self.cache:
                    continue
                seen.add(key)
                want.append(p)
                keys.append(key)
            if want:
                w = np.asarray(want, dtype=np.int64)
                groups.append(
                    (owners[w] + self._group_base, offsets[w], sizes[w])
                )
        if not groups and not stage_keys:
            return 0

        # -- tier-aware staging: lift NVMe-resident future samples ----------
        n_promoted = 0
        if stage_keys:
            t_stage = engine.now
            n_promoted, stage_wall = self.cache.stage_up(
                stage_keys, engine.now, column=columnar
            )
            if stage_wall:
                yield engine.timeout(stage_wall)
                stats.add_prefetch_stage("promote", stage_wall)
            if obs.tracing and n_promoted:
                obs.tracer.record(
                    "store.promote",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_stage,
                    end=engine.now,
                    n=n_promoted,
                )

        plan = None
        d_timeouts = d_retries = d_failovers = 0
        wave_queue_wait = 0.0
        if groups:
            plan = self.planner.plan_batches(groups)
            plan_s = _PLAN_BASE_S + _PLAN_S_PER_REQ * plan.n_requests
            yield engine.timeout(plan_s)
            stats.add_prefetch_stage("plan", plan_s)

            # One issuing stream per wave batch (times the per-batch worker
            # count): the wave replaces that many concurrent ``get_samples``
            # pipelines, so it gets the same software-path concurrency.
            n_streams = max(1, n_workers) * len(groups)

            outcome, d_timeouts, d_retries, d_failovers = yield from self._fetch_reads(
                plan.reads, n_streams=n_streams
            )
            wave_queue_wait = outcome.stage_seconds.get("queue", 0.0)
            for stage, seconds in outcome.stage_seconds.items():
                stats.add_prefetch_stage(stage, seconds)

            blobs: list[Optional[np.ndarray]] = [None] * plan.n_requests
            lat = np.zeros(plan.n_requests, dtype=np.float64)
            self._scatter(plan, outcome, blobs, lat)
            for key, blob in zip(keys, blobs):
                if columnar:
                    # Arena-mode consumers scatter cache hits straight into
                    # field buffers, so park the header-stripped column bytes.
                    self.cache.put_columns(key, blob[32:])
                else:
                    self.cache.put(key, blob)
            stats.n_get_calls += plan.n_reads
            stats.bytes_transferred += plan.total_bytes

        n_wired = plan.n_requests if plan is not None else 0
        wire_bytes = plan.total_bytes if plan is not None else 0
        n_parked = n_wired + n_promoted
        stats.n_prefetch_waves += 1
        stats.n_prefetched += n_parked
        stats.bytes_prefetched += wire_bytes

        m = obs.metrics
        if m.enabled:
            for cname, val in (
                ("n_prefetch_waves", 1),
                ("n_prefetched", n_parked),
                ("n_promoted", n_promoted),
                ("bytes_prefetched", wire_bytes),
                ("n_get_calls", plan.n_reads if plan is not None else 0),
                ("bytes_transferred", wire_bytes),
                ("n_timeouts", d_timeouts),
                ("n_retries", d_retries),
                ("n_failovers", d_failovers),
            ):
                if val:
                    m.counter(
                        "ddstore.prefetch",
                        counter=cname,
                        rank=track,
                        generation=self.generation,
                    ).inc(val)
            self._publish_tier_metrics(m, track)
            self._publish_tenant(
                m,
                track,
                n_parked,
                engine.now - t_start,
                wire_bytes,
                wave_queue_wait,
            )
        if obs.tracing:
            obs.tracer.record(
                "store.prefetch_wave",
                cat="store",
                track=track,
                lane=1,
                start=t_start,
                end=engine.now,
                n=n_parked,
                n_reads=plan.n_reads if plan is not None else 0,
                nbytes=wire_bytes,
                n_batches=len(groups),
                **({"epoch": window.epoch} if window is not None else {}),
                **({"tenant": self._tenant, "qos": self._qos} if self._tenant else {}),
            )
        return n_parked

    # -- node-aggregated wave fetch -----------------------------------------
    def _node_coordinator(self):
        """The node-local wave rendezvous shared with this node's peers
        (per tenant — sessions of one tenant share leader reads, tenants
        never share entries)."""
        world = self.comm.communicator.world
        node = self._node_index
        machine = self._machine
        participants = tuple(
            r
            for r in range(self.comm.size)
            if machine.node_of_rank(r) == node
        )
        return node_coordinator(
            world,
            node,
            self._store_seq,
            self._tenant,
            self.comm.engine,
            participants,
        )

    def nodeagg_abort(self) -> None:
        """Force-wake node-fetch subscribers of this store's coordinator
        (the scheduler's drain fence — see ``NodeFetchCoordinator.abort``).
        Synchronous bookkeeping; safe to call with no coordinator live."""
        world = self.comm.communicator.world
        table = world.__dict__.get("_node_fetch_coords")
        if not table:
            return
        key = (int(self._node_index), int(self._store_seq), self._tenant)
        coord = table.get(key)
        if coord is not None:
            coord.abort()

    def _peer_wave_demand(self, peer: int, window):
        """A node peer's remote nonzero demand for one wave, recomputed
        locally from the shared deterministic schedule (zero
        communication).  Deliberately ignores all cache state — the plan
        must be a pure function of (schedule, layout) so every rank
        derives the identical node plan."""
        peer_group_rank = self.config.group_rank(peer)
        seen: set[int] = set()
        keys: list[int] = []
        members: list[int] = []
        offs: list[int] = []
        szs: list[int] = []
        for batch in window.peer_batches(peer):
            idx = np.asarray(list(batch), dtype=np.int64)
            if idx.size == 0:
                continue
            owners, offsets, sizes = self.registry.locate_batch(idx)
            for p in range(idx.size):
                key = int(idx[p])
                if owners[p] == peer_group_rank or sizes[p] == 0 or key in seen:
                    continue
                seen.add(key)
                keys.append(key)
                members.append(int(owners[p]))
                offs.append(int(offsets[p]))
                szs.append(int(sizes[p]))
        return (
            np.asarray(keys, np.int64),
            np.asarray(members, np.int64),
            np.asarray(offs, np.int64),
            np.asarray(szs, np.int64),
        )

    def _peek_cached_payload(self, key: int, columnar: bool):
        """Wire-format payload for ``key`` from a fast tier, or None.

        A stats-silent peek (no hit/miss accounting, no recency touch):
        leader duty serves resident samples to node peers without
        perturbing the demand-path cache counters.  Columnar mode wants
        header-stripped column bytes (a resident whole blob serves by
        stripping); row mode needs the whole blob, header included.
        """
        cache = self.cache
        tiers = (cache.gpu, cache.dram) if self._tiered else (cache,)
        for tier in tiers:
            if tier is None:
                continue
            entry = tier._entries.get(key)
            if entry is None:
                continue
            is_col = key in tier._column_keys
            if columnar:
                return entry if is_col else entry[32:]
            if not is_col:
                return entry
        return None

    def _park_payload(self, key: int, blob, columnar: bool) -> None:
        if columnar:
            self.cache.put_columns(key, blob)
        else:
            self.cache.put(key, blob)

    def _prefetch_wave_nodeagg(
        self, batch_indices, n_workers: int, window
    ) -> Generator:
        """One rank's share of a node-aggregated wave fetch.

        Protocol (deadlock-free by construction — leader duty never waits
        on another rank, and subscribers only wait on leaders whose
        publish depends on no one):

        1. first arrival builds the node plan from the peers'
           deterministic schedules; every rank pays the modelled plan CPU
           (real deployments recompute it locally),
        2. leader duty: wire-read the led samples this rank cannot serve
           from its fast tiers or the node-shared NVMe tier (one
           coalesced read per target, riding the retry/failover ladder),
           publish the payloads, and trigger this rank's leader event,
        3. subscribe: wait for the other leaders this rank's own demand
           needs, then copy their payloads over the intra-node path into
           the local cache — the ``"fanout"`` stage,
        4. if the wave was aborted mid-wait (live-reshard drain), fetch
           the unpublished residue over the normal per-rank wire path.
        """
        engine = self.comm.engine
        stats = self.stats
        obs = self.comm.communicator.world.obs
        track = self.comm.world_rank
        rank = self.comm.rank
        t_start = engine.now
        columnar = self.config.dataplane.columnar
        coord = self._node_coordinator()
        key = (self.generation, window.epoch, window.wave)
        entry = coord.lookup(key, rank)
        if entry is None:
            demands = {
                p: self._peer_wave_demand(p, window) for p in coord.participants
            }
            plan = self.planner.plan_node_wave(
                demands,
                coord.participants,
                width=self.config.width,
                node_of=self._machine.node_of_rank,
                node=self._node_index,
            )
            entry = coord.register(key, plan, rank)
        plan = entry.plan
        # Modelled CPU of the node-scope merge: every rank recomputes the
        # full plan locally (that is what makes it communication-free).
        plan_s = _PLAN_BASE_S + _PLAN_S_PER_REQ * max(1, plan.n_union)
        yield engine.timeout(plan_s)
        stats.add_prefetch_stage("plan", plan_s)

        # -- leader duty -----------------------------------------------------
        led = plan.led.get(rank, ())
        publish: dict[int, np.ndarray] = {}
        wire_keys: list[int] = []
        for k in led:
            blob = self._peek_cached_payload(k, columnar)
            if blob is not None:
                publish[k] = blob
            else:
                wire_keys.append(k)
        n_promoted = 0
        if wire_keys and self._tiered:
            stage_keys = [
                k for k in wire_keys if self.cache.nvme_resident(k, column=columnar)
            ]
            if stage_keys:
                n_promoted, stage_wall = self.cache.stage_up(
                    stage_keys, engine.now, column=columnar
                )
                if stage_wall:
                    yield engine.timeout(stage_wall)
                    stats.add_prefetch_stage("promote", stage_wall)
                still = []
                for k in wire_keys:
                    blob = self._peek_cached_payload(k, columnar)
                    if blob is not None:
                        publish[k] = blob
                    else:
                        still.append(k)
                wire_keys = still
        d_timeouts = d_retries = d_failovers = 0
        wire_bytes = 0
        n_reads = 0
        if wire_keys:
            arr = np.asarray(wire_keys, np.int64)
            owners, offsets, sizes = self.registry.locate_batch(arr)
            wplan = self.planner.plan_batches(
                [(owners + self._group_base, offsets, sizes)]
            )
            n_streams = max(1, n_workers) * max(1, len(batch_indices))
            outcome, d_timeouts, d_retries, d_failovers = yield from self._fetch_reads(
                wplan.reads, n_streams=n_streams
            )
            for stage, seconds in outcome.stage_seconds.items():
                stats.add_prefetch_stage(stage, seconds)
            blobs: list[Optional[np.ndarray]] = [None] * wplan.n_requests
            self._scatter(wplan, outcome, blobs, np.zeros(wplan.n_requests))
            for k, blob in zip(wire_keys, blobs):
                publish[k] = blob[32:] if columnar else blob
            wire_bytes = wplan.total_bytes
            n_reads = wplan.n_reads
            stats.n_get_calls += n_reads
            stats.bytes_transferred += wire_bytes
        coord.publish(key, rank, publish)
        led_bytes = sum(int(b.nbytes) for b in publish.values())

        # -- subscribe + fan in ---------------------------------------------
        my_demand = plan.demand.get(rank, ())
        need = [k for k in my_demand if not self._wave_resident(k)]
        n_parked = 0
        for k in need:
            if plan.leader_of[k] == rank and k in publish:
                self._park_payload(k, publish[k], columnar)
                n_parked += 1
        sub = [k for k in need if plan.leader_of[k] != rank]
        for leader in dict.fromkeys(plan.leader_of[k] for k in sub):
            ev = entry.events.get(leader)
            if ev is not None and not ev.triggered:
                yield ev
        fan_keys = [k for k in sub if k in entry.blobs]
        residue = [k for k in sub if k not in entry.blobs]
        fan_bytes = 0
        if fan_keys:
            t_fan = engine.now
            fan_bytes = sum(int(entry.blobs[k].nbytes) for k in fan_keys)
            fan_s = self._local_copy_base + fan_bytes / self._local_copy_bw
            yield engine.timeout(fan_s)
            stats.add_prefetch_stage("fanout", fan_s)
            for k in fan_keys:
                self._park_payload(k, entry.blobs[k], columnar)
            n_parked += len(fan_keys)
            if obs.tracing:
                obs.tracer.record(
                    "store.fanout",
                    cat="store.stage",
                    track=track,
                    lane=1,
                    start=t_fan,
                    end=engine.now,
                    n=len(fan_keys),
                    nbytes=fan_bytes,
                    **(
                        {"tenant": self._tenant, "qos": self._qos}
                        if self._tenant
                        else {}
                    ),
                )
        if residue:
            # Aborted leaders (drain fence): self-fetch over the normal
            # per-rank path — correct bytes, just without the savings.
            arr = np.asarray(residue, np.int64)
            owners, offsets, sizes = self.registry.locate_batch(arr)
            rplan = self.planner.plan_batches(
                [(owners + self._group_base, offsets, sizes)]
            )
            outcome, r_t, r_r, r_f = yield from self._fetch_reads(
                rplan.reads, n_streams=max(1, n_workers)
            )
            d_timeouts += r_t
            d_retries += r_r
            d_failovers += r_f
            for stage, seconds in outcome.stage_seconds.items():
                stats.add_prefetch_stage(stage, seconds)
            blobs = [None] * rplan.n_requests
            self._scatter(rplan, outcome, blobs, np.zeros(rplan.n_requests))
            for k, blob in zip(residue, blobs):
                self._park_payload(k, blob[32:] if columnar else blob, columnar)
            n_parked += len(residue)
            wire_bytes += rplan.total_bytes
            n_reads += rplan.n_reads
            stats.n_get_calls += rplan.n_reads
            stats.bytes_transferred += rplan.total_bytes
        coord.finish(key, rank)

        # -- accounting ------------------------------------------------------
        requested = plan.demand_bytes.get(rank, 0)
        stats.n_prefetch_waves += 1
        stats.n_prefetched += n_parked
        stats.bytes_prefetched += wire_bytes
        stats.n_node_waves += 1
        stats.n_fanout += len(fan_keys)
        stats.bytes_fanout += fan_bytes
        stats.bytes_node_requested += requested
        stats.bytes_node_wire += wire_bytes

        m = obs.metrics
        if m.enabled:
            for cname, val in (
                ("n_prefetch_waves", 1),
                ("n_prefetched", n_parked),
                ("n_promoted", n_promoted),
                ("bytes_prefetched", wire_bytes),
                ("n_get_calls", n_reads),
                ("bytes_transferred", wire_bytes),
                ("n_timeouts", d_timeouts),
                ("n_retries", d_retries),
                ("n_failovers", d_failovers),
                # FetchStats-named node counters, so the harness roll-up
                # (which sums the fetch/prefetch families) sees them.
                ("n_node_waves", 1),
                ("n_fanout", len(fan_keys)),
                ("bytes_fanout", fan_bytes),
                ("bytes_node_requested", requested),
                ("bytes_node_wire", wire_bytes),
            ):
                if val:
                    m.counter(
                        "ddstore.prefetch",
                        counter=cname,
                        rank=track,
                        generation=self.generation,
                    ).inc(val)
            for cname, val in (
                ("n_node_waves", 1),
                ("requested_bytes", requested),
                ("wire_bytes", wire_bytes),
                ("wire_bytes_saved", fan_bytes),
                ("fanout_bytes", fan_bytes),
                ("n_fanout", len(fan_keys)),
                ("n_leader_reads", n_reads),
                ("led_bytes", led_bytes),
            ):
                if val:
                    m.counter(
                        "ddstore.node",
                        counter=cname,
                        rank=track,
                        node=self._node_index,
                        generation=self.generation,
                    ).inc(val)
            self._publish_tier_metrics(m, track)
            self._publish_tenant(
                m, track, n_parked, engine.now - t_start, wire_bytes, 0.0
            )
        if obs.tracing:
            obs.tracer.record(
                "store.prefetch_wave",
                cat="store",
                track=track,
                lane=1,
                start=t_start,
                end=engine.now,
                n=n_parked,
                n_reads=n_reads,
                nbytes=wire_bytes,
                n_batches=len(batch_indices),
                nodeagg=1,
                epoch=window.epoch,
                **({"tenant": self._tenant, "qos": self._qos} if self._tenant else {}),
            )
        return n_parked

    def _wave_resident(self, key: int) -> bool:
        """Is ``key`` already servable from this rank's fast tiers (the
        wave-prefetch skip test — no stats side effects)?"""
        if self._tiered:
            return self.cache.fast_resident(key)
        return key in self.cache

    def _fetch_reads(self, reads, n_streams: int) -> Generator:
        """Execute planned reads through the configured resilience ladder.

        The single wire-issue point shared by the demand path, the wave
        prefetcher, and the arena path: with resilience enabled reads ride
        the timeout/retry/failover machinery, otherwise they go straight
        to the transport.  Session-scoped handles additionally pass the
        reads through their :class:`~repro.serving.TenantLane` first —
        the per-target DRR grant plus the per-tenant in-flight byte cap —
        and charge the wait to the ``"queue"`` stage.  Returns
        ``(outcome, n_timeouts, n_retries, n_failovers)`` with the
        cumulative stats counters already updated.
        """
        lane = self._lane
        queue_wait = 0.0
        if lane is not None:
            engine = self.comm.engine
            t_queue = engine.now
            yield from lane.acquire(reads)
            queue_wait = engine.now - t_queue
            if queue_wait:
                obs = self.comm.communicator.world.obs
                if obs.tracing:
                    obs.tracer.record(
                        "store.queue",
                        cat="store.stage",
                        track=self.comm.world_rank,
                        lane=1,
                        start=t_queue,
                        end=engine.now,
                        tenant=self._tenant,
                    )
        try:
            res = self.config.resilience
            if res.enabled:
                reroute = (
                    self._reroute if res.failover and self.n_replicas > 1 else None
                )
                retry_out = yield from fetch_with_retry(
                    self.transport,
                    reads,
                    policy=RetryPolicy.from_options(res),
                    engine=self.comm.engine,
                    n_streams=n_streams,
                    reroute=reroute,
                    obs=self.comm.communicator.world.obs,
                    track=self.comm.world_rank,
                )
                self.stats.n_timeouts += retry_out.n_timeouts
                self.stats.n_retries += retry_out.n_retries
                self.stats.n_failovers += retry_out.n_failovers
                outcome = retry_out.outcome
                counters = (
                    retry_out.n_timeouts,
                    retry_out.n_retries,
                    retry_out.n_failovers,
                )
            else:
                outcome = yield from self.transport.fetch(reads, n_streams=n_streams)
                counters = (0, 0, 0)
        finally:
            if lane is not None:
                lane.release(reads)
        if queue_wait:
            outcome.stage_seconds["queue"] = (
                outcome.stage_seconds.get("queue", 0.0) + queue_wait
            )
        return (outcome,) + counters

    @staticmethod
    def _scatter(plan, outcome, blobs, latencies) -> None:
        """Reassemble per-sample payloads out of the reads' payloads."""
        read_lat = outcome.latencies
        totals: dict[int, int] = {}
        for read in plan.reads:
            for sl in read.slices:
                end = sl.sample_offset + sl.nbytes
                if end > totals.get(sl.position, 0):
                    totals[sl.position] = end
        for r, (read, payload) in enumerate(zip(plan.reads, outcome.payloads)):
            lat = float(read_lat[r]) if read_lat is not None else 0.0
            for sl in read.slices:
                p = sl.position
                piece = payload[sl.read_offset : sl.read_offset + sl.nbytes]
                if sl.sample_offset == 0 and sl.nbytes == totals[p]:
                    blobs[p] = piece.copy()  # whole sample in one slice
                    SAMPLE_ALLOCATIONS.bump()
                else:
                    if blobs[p] is None:
                        blobs[p] = np.empty(totals[p], dtype=np.uint8)
                        SAMPLE_ALLOCATIONS.bump()
                    blobs[p][sl.sample_offset : sl.sample_offset + sl.nbytes] = piece
                latencies[p] = max(latencies[p], lat)

    def _reroute(self, read: PlannedRead, attempt: int) -> Optional[int]:
        """Failover target for a timed-out read: the same chunk's owner in
        another replica group, nearest first.

        Returns ``None`` when there is nowhere else to go (single replica).
        Chunk layouts and contents are identical across replica groups, so
        the rerouted read returns byte-identical payloads.
        """
        if self.n_replicas < 2:
            return None
        ranks = self._failover_ranks(read.target % self.width)
        return ranks[(attempt - 1) % len(ranks)]

    def _failover_ranks(self, member: int) -> list[int]:
        """Owners of replica-group member ``member``'s window outside this
        rank's own group, ordered nearest first: same-node owners (the
        shared-memory get path is ~7x cheaper than a cross-node one, the
        same locality Table 3's width sweep exploits), then by ring
        distance from this rank's group.  Deterministic for a fixed layout.
        """
        cached = self._failover_order.get(member)
        if cached is not None:
            return cached
        c = self.comm.communicator
        machine = c.world.machine
        my_node = machine.node_of_rank(c.world_rank(self.comm.rank))
        w, r = self.width, self.n_replicas

        def distance(group: int) -> tuple[int, int]:
            owner_node = machine.node_of_rank(c.world_rank(group * w + member))
            return (0 if owner_node == my_node else 1, (group - self._my_group) % r)

        groups = sorted((g for g in range(r) if g != self._my_group), key=distance)
        ranks = [g * w + member for g in groups]
        self._failover_order[member] = ranks
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
        record_latencies: Optional[bool] = None,
    ) -> "DDStore":
        """A re-entrant, session-scoped handle on this store's data plane.

        The view shares the immutable heavy state — registry, layout,
        transport (and its RMA windows), config, communicators — but owns
        everything a concurrent tenant must not share: its
        :class:`FetchStats`, its partition of the sample cache
        (``cache``), and its :class:`~repro.serving.TenantLane` (``lane``,
        the DRR/in-flight-byte gate ``_fetch_reads`` consults before wire
        issue).  Closing a view never releases the parent's DRAM
        accounting; closing the parent store invalidates every view's
        wire path the usual way (the transport is shared).

        Built by :class:`repro.serving.StoreService` — single-job callers
        never need one.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.stats = FetchStats()
        clone.cache = cache
        clone._tiered = bool(getattr(cache, "tiered", False))
        clone._tier_base = cache.tier_counters() if clone._tiered else {}
        clone._cache_base = cache.stats.as_dict()
        clone._closed = False
        clone._lane = lane
        clone._tenant = tenant
        clone._qos = qos
        clone._charged_bytes = 0  # the parent owns the DRAM accounting
        clone._failover_order = dict(self._failover_order)
        if record_latencies is not None:
            clone.record_latencies = record_latencies
        if lane is not None:
            # Each session acts as its own RMA client: an independent
            # epoch gate and lock bookkeeping over the shared window, so
            # one tenant's lock→get→unlock epoch never convoys another
            # tenant's fetch on the same rank (the shared NIC is still
            # contended — that lives in the interconnect model).
            clone.transport = self.transport.session_clone()
            # Session fetch plans interleave their reads round-robin
            # across targets so one tenant's wave releases each target's
            # DRR grant as early as possible for the other tenants, and
            # cap each read at the DRR quantum (never below the largest
            # sample): grants — and the head-of-line blocking a small
            # interactive read can suffer at a target's wire FIFO — stay
            # quantum-sized instead of whole-batch-sized.
            quantum = max(
                self.config.serving.drr_quantum_bytes,
                self.registry.max_sample_bytes(),
            )
            mrb = self.planner.max_read_bytes
            clone.planner = FetchPlanner(
                coalesce=self.planner.coalesce,
                max_read_bytes=quantum if mrb is None else min(mrb, quantum),
                fair_interleave=True,
            )
        return clone

    def _publish_tenant(
        self, m, track: int, n_samples: int, seconds: float,
        wire_bytes: int, queue_seconds: float,
    ) -> None:
        """Roll this call up into the ``ddstore.tenant`` metric family
        (labels: tenant, qos, counter, rank).  No-op on plain stores."""
        if self._tenant is None:
            return
        for cname, val in (
            ("n_samples", n_samples),
            ("fetch_seconds", seconds),
            ("wire_bytes", wire_bytes),
            ("queue_seconds", queue_seconds),
        ):
            if val:
                m.counter(
                    "ddstore.tenant",
                    tenant=self._tenant,
                    qos=self._qos or "default",
                    counter=cname,
                    rank=track,
                ).inc(val)

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

    def close(self) -> None:
        """Release this rank's DRAM accounting and mark the handle closed.

        Idempotent and rank-local (no communication) — safe from
        ``__exit__``.  Transports with target-side service machinery (p2p)
        additionally need the collective :meth:`shutdown` first.
        """
        if self._closed:
            return
        self._closed = True
        charged = getattr(self, "_charged_bytes", 0)
        node = getattr(self, "_node_index", None)
        if charged and node is not None:
            self.comm.communicator.world.cluster.release_memory(node, charged)
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
    def reshard(
        self,
        width: Optional[int] = None,
        close_old: bool = True,
        n_workers: int = 1,
        carry_stats: bool = True,
    ) -> Generator:
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

        The new store is generation ``old + 1`` and — with ``carry_stats``
        (the default) — starts from the old handle's cumulative
        :class:`FetchStats`, so fetch/cache counters stay monotone across
        the width change instead of silently resetting.  Returns the new
        :class:`DDStore`.
        """
        source = _StoreSource(self, n_workers=n_workers)
        new_store = yield from DDStore.create(
            self.comm,
            source,
            width=width,
            dataplane=self.config.dataplane,
            resilience=self.config.resilience,
            serving=self.config.serving,
            elastic=self.config.elastic,
            record_latencies=self.record_latencies,
        )
        new_store.generation = self.generation + 1
        if carry_stats:
            new_store.stats.merge_from(self.stats)
        if close_old:
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
    Transports that cannot serve arbitrary byte spans (two-sided p2p)
    fall back to per-sample fetches.
    """

    def __init__(self, store: DDStore, n_workers: int = 1) -> None:
        self.store = store
        self.n_samples = store.n_samples
        self.n_workers = max(1, int(n_workers))

    def load_chunk(self, indices, node_index: int, engine) -> Generator:
        from .preloader import PreloadResult

        indices = list(indices)
        store = self.store
        # An empty chunk is trivially contiguous: it must not fall into the
        # per-sample path (which would pay a get_samples round for nothing)
        # — the bulk path below yields the same empty PreloadResult free.
        contiguous = not indices or indices == list(
            range(indices[0], indices[-1] + 1)
        )
        if not indices:
            return PreloadResult(
                buffer=np.zeros(0, dtype=np.uint8),
                sizes=np.zeros(0, dtype=np.int64),
            )
        if not contiguous or not store.transport.supports_coalescing:
            blobs = yield from store.get_samples(
                indices, decode="raw", n_workers=self.n_workers
            )
            # b.size (elements == bytes for uint8) keeps zero-size samples
            # in the size table — they occupy registry slots even though
            # they contribute no buffer bytes.
            sizes = np.fromiter((b.size for b in blobs), dtype=np.int64, count=len(blobs))
            buffer = np.concatenate(blobs) if blobs else np.zeros(0, dtype=np.uint8)
            return PreloadResult(buffer=buffer, sizes=sizes)

        lo, hi = indices[0], indices[-1] + 1
        reg, layout = store.registry, store.layout
        # One (owner, byte-span) request per overlapped old chunk.
        requests = []
        sizes_parts = []
        for owner in range(layout.width):
            c_lo, c_hi = layout.chunk_range(owner)
            s_lo, s_hi = max(lo, c_lo), min(hi, c_hi)
            if s_lo >= s_hi:
                continue
            table = reg.offsets[owner]
            b_lo = int(table[s_lo - c_lo])
            b_hi = int(table[s_hi - c_lo])
            requests.append((owner, b_lo, b_hi - b_lo))
            sizes_parts.append(np.diff(table[s_lo - c_lo : s_hi - c_lo + 1]))
        me = store.group_comm.rank
        local_parts = []
        remote_owners = []
        remote_reads = []
        for owner, off, nb in requests:
            if nb == 0:
                # An overlapped span of all-zero-size samples moves no
                # bytes: satisfy it locally instead of spending a wire
                # read (and, under faults, a retry ladder) on nothing.
                local_parts.append((owner, np.zeros(0, dtype=np.uint8)))
            elif owner == me:
                local_parts.append(
                    (owner, store.transport.local_buffer()[off : off + nb].copy())
                )
            else:
                remote_owners.append(owner)
                remote_reads.append(
                    PlannedRead(
                        target=owner + store._group_base,
                        offset=off,
                        nbytes=nb,
                        slices=(),
                    )
                )
        # The bulk reads go through the same resilience ladder as the
        # training-time fetch path: a reshard under a straggler/dark peer
        # retries and fails over instead of silently stitching None
        # payloads into the new chunk.
        payloads: list = []
        if remote_reads:
            res = store.config.resilience
            if res.enabled:
                reroute = (
                    store._reroute
                    if res.failover and store.n_replicas > 1
                    else None
                )
                retry_out = yield from fetch_with_retry(
                    store.transport,
                    remote_reads,
                    policy=RetryPolicy.from_options(res),
                    engine=engine,
                    n_streams=self.n_workers,
                    reroute=reroute,
                    obs=store.comm.communicator.world.obs,
                    track=store.comm.world_rank,
                )
                outcome = retry_out.outcome
                store.stats.n_timeouts += retry_out.n_timeouts
                store.stats.n_retries += retry_out.n_retries
                store.stats.n_failovers += retry_out.n_failovers
            else:
                outcome = yield from store.transport.fetch(
                    remote_reads, n_streams=self.n_workers
                )
                timed_out = outcome.timed_out
                if timed_out is not None and timed_out.any():
                    raise FetchTimeoutError(
                        f"{int(timed_out.sum())} bulk reshard read(s) timed "
                        "out (resilience disabled; no retry budget)"
                    )
            payloads = outcome.payloads
        by_owner = dict(local_parts)
        by_owner.update({o: p for o, p in zip(remote_owners, payloads)})
        buffer = (
            np.concatenate([by_owner[r[0]] for r in requests])
            if requests
            else np.zeros(0, dtype=np.uint8)
        )
        sizes = (
            np.concatenate(sizes_parts).astype(np.int64)
            if sizes_parts
            else np.zeros(0, dtype=np.int64)
        )
        return PreloadResult(buffer=buffer, sizes=sizes)
