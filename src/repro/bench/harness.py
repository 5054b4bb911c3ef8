"""Experiment harness: stage a dataset, run a training job, collect metrics.

One :class:`ExperimentConfig` describes a single cell of the paper's
evaluation matrix — machine x node count x dataset x data-management
method (PFF / CFF / DDStore) x batch/width settings.  :func:`run_experiment`
simulates it end to end and returns an :class:`ExperimentResult` with the
quantities the figures plot: global training throughput, per-phase time
breakdown, per-graph loading latencies, preload cost, and MPI-call time.

The harness runs one mode, the performance mode the figures measure:
data movement is real, GPU arithmetic is modelled (the trainer's
``real_compute=False``), and batches are shape summaries, not decoded
graphs.  The trainer gets the model's shape, not its weights: a
:class:`~repro.gnn.HydraGNNConfig` whose closed-form parameter count
prices the modelled allreduce and optimiser step, so no cell builds a
``HydraGNN``.  Real-numerics training (Fig 13, the shuffle and conv
ablations) has its own recipe, :func:`repro.bench.sweep.real_trainer`.

Scaled-down sizing: sample counts are reduced (the harness sizes the
dataset to exactly cover ``ranks x batch x steps``), per-sample bytes stay
honest, and container files carry a ``logical_scale`` so page-cache
behaviour matches the paper's full-size datasets (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..core import (
    DataLoader,
    DataPlaneOptions,
    DDStore,
    DDStoreConfig,
    DDStoreDataset,
    FileDataset,
    ReaderSource,
    ResilienceOptions,
)
from ..core.config import _check
from ..gnn import DistributedModel, HydraGNNConfig, PhaseTimes, Trainer
from ..graphs.datasets import DATASETS
from ..hardware import get_machine
from ..mpi import MPIStats, run_world
from ..storage import CFFReader, PFFReader, SampleStats, write_cff, write_pff
from ..storage.formats import _cff_index_path, CFFIndex

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "packed_blobs",
    "clear_blob_cache",
]

METHODS = ("pff", "cff", "ddstore", "ddstore-p2p", "nvme")

# ---------------------------------------------------------------------------
# packed-sample cache (samples are deterministic per (dataset, seed, index),
# so one growing blob list serves every scale point and method)
# ---------------------------------------------------------------------------

_BLOB_CACHE: dict[tuple[str, int], list[bytes]] = {}


def packed_blobs(dataset: str, seed: int, n: int) -> list[bytes]:
    """First ``n`` packed samples of a registry dataset (cached)."""
    from ..storage import pack_graph

    key = (dataset, seed)
    blobs = _BLOB_CACHE.setdefault(key, [])
    if len(blobs) < n:
        gen = DATASETS[dataset].make(n, seed)
        for i in range(len(blobs), n):
            blobs.append(pack_graph(gen.make(i)))
    return blobs[:n]


def clear_blob_cache() -> None:
    _BLOB_CACHE.clear()


# ---------------------------------------------------------------------------
# configuration / result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    machine: str = "perlmutter"
    n_nodes: int = 16
    dataset: str = "aisd-ex-discrete"
    method: str = "ddstore"
    batch_size: int = 128
    epochs: int = 1
    steps_per_epoch: int = 2
    width: Optional[int] = None  # DDStore width (None = N, paper default)
    shuffle: str = "global"
    seed: int = 0
    warm_page_cache: bool = True  # emulate steady-state epochs (>1st)
    n_samples: Optional[int] = None  # default: ranks * batch * steps
    hidden_dim: int = 200  # paper architecture; sizes modelled GPU + allreduce cost
    n_workers: int = 1  # effective concurrent loader workers per rank
    cache_bytes: int = 0  # DRAM sample-cache budget (0 = off): shorthand for tiers="dram:N"
    coalesce: bool = True  # DDStore fetch-request coalescing
    # epoch-ahead data-plane scheduling (see DataPlaneOptions)
    prefetch_depth: int = 1  # batches kept in flight ahead of compute
    scheduler: bool = False  # wave scheduling (needs a cache)
    node_fetch: bool = False  # node-aggregated wave fetch (needs scheduler)
    cache_policy: str = "lru"  # "lru" or "belady" (of tiers too, when set)
    columnar: bool = False  # zero-copy columnar batch assembly (arenas)
    # the cache hierarchy spelled out, e.g. "gpu:2m+dram:4m+nvme:256m";
    # None reads the cache_bytes shorthand instead (the two do not mix).
    tiers: Optional[str] = None
    # fault injection + resilience (see repro.faults / ResilienceOptions)
    fault_plan: Optional[str] = None  # named plan, e.g. "straggler-10x"
    timeout_s: Optional[float] = None  # per-read fetch timeout (None = off)
    failover: bool = True  # re-route timed-out reads to another replica
    # online elastic width control (see repro.control.ElasticCoordinator)
    elastic: bool = False  # retune width between epochs from obs signals

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        for name in ("n_nodes", "batch_size", "epochs", "steps_per_epoch", "hidden_dim",
                     "n_workers"):
            _check(name, getattr(self, name))
        if self.n_samples is not None:
            _check("n_samples", self.n_samples)
        if self.fault_plan is not None:
            from ..faults import available_fault_plans

            if self.fault_plan not in available_fault_plans():
                raise ValueError(
                    f"unknown fault plan {self.fault_plan!r}; "
                    f"options: {available_fault_plans()}"
                )
        # Fail at configuration time, not minutes into the run: an invalid
        # width/cache/prefetch/timeout setting raises here with the valid
        # options, whichever method the cell names (a cell's method is
        # swapped with ``with_method``, so a file cell carries them too).
        self.ddstore_config()

    def ddstore_config(self) -> DDStoreConfig:
        """The nested-options DDStore configuration this cell runs with."""
        from ..core import CacheOptions

        # One spelling reaches DataPlaneOptions: tiers (cache_bytes too,
        # so a cell that sets both is refused) or the DRAM shorthand.
        cache = (
            dict(cache=CacheOptions.parse(self.tiers, policy=self.cache_policy),
                 cache_bytes=self.cache_bytes)
            if self.tiers is not None
            else dict(cache_bytes=self.cache_bytes, cache_policy=self.cache_policy)
        )
        return DDStoreConfig(
            self.n_ranks,
            width=self.width,
            dataplane=DataPlaneOptions(
                framework="p2p" if self.method == "ddstore-p2p" else "mpi-rma",
                coalesce=self.coalesce,
                prefetch_depth=self.prefetch_depth,
                scheduler=self.scheduler,
                node_fetch=self.node_fetch,
                columnar=self.columnar,
                **cache,
            ),
            resilience=ResilienceOptions(timeout_s=self.timeout_s, failover=self.failover),
        )

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * get_machine(self.machine).gpus_per_node

    def resolved_samples(self) -> int:
        if self.n_samples is not None:
            return self.n_samples
        return self.n_ranks * self.batch_size * self.steps_per_epoch

    def with_method(self, method: str) -> "ExperimentConfig":
        return replace(self, method=method)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    elapsed: float  # virtual seconds of the measured epochs (slowest rank)
    total_samples: int  # samples processed across all ranks
    phases: PhaseTimes  # mean across ranks
    latencies: np.ndarray  # per-graph loading latency, all ranks pooled
    preload_time: float  # virtual seconds of setup (slowest rank)
    mpi_stats: MPIStats  # merged across ranks
    fetch_stages: dict = field(default_factory=dict)  # mean seconds/rank by stage
    fetch_counters: dict = field(default_factory=dict)  # summed across ranks
    data_wait: float = 0.0  # mean un-overlapped load stall per rank (s)
    overlap_efficiency: float = 0.0  # hidden-load-time / total-load-time
    epoch_seconds: list = field(default_factory=list)  # per-epoch (slowest rank)
    control: Optional[dict] = None  # elastic controller summary (None = off)
    # Per-node NIC roll-up: one dict per node with tx/rx wire bytes, busy
    # seconds, and utilisation against the run horizon (see run_experiment).
    node_nic: list = field(default_factory=list)

    @property
    def inter_node_bytes(self) -> int:
        """Total bytes injected into the inter-node fabric (sum of tx)."""
        return sum(n["tx_bytes"] for n in self.node_nic)

    @property
    def throughput(self) -> float:
        """Global training throughput in samples per virtual second."""
        return self.total_samples / self.elapsed if self.elapsed > 0 else 0.0


# ---------------------------------------------------------------------------
# staging helpers (write blobs into the shared VFS without re-generating)
# ---------------------------------------------------------------------------


def _logical_scale(cfg: ExperimentConfig, blobs: list[bytes]) -> float:
    """Make the scaled container *time* like the paper's full-size file."""
    actual = sum(len(b) for b in blobs)
    paper = DATASETS[cfg.dataset].paper_cff_bytes
    return max(1.0, paper / max(actual, 1))


def _warm_caches(world, root: str) -> None:
    """Mark the dataset's blocks resident in every node's page cache — the
    steady state after the first epoch of a multi-epoch run (the paper
    measures three).  Files whose *logical* size exceeds the cache are
    skipped: they cannot stay resident (the AISD-scale containers), which
    is exactly the asymmetry that makes CFF fast on Ising only (Table 2).
    """
    caches = world.pfs.caches
    if not caches:
        return
    capacity_bytes = caches[0].capacity_blocks * caches[0].block_bytes
    paths = world.vfs.listdir(root)
    total_logical = sum(world.vfs.stat(p).logical_size for p in paths)
    if total_logical > capacity_bytes:
        return  # the dataset cannot stay resident (the AISD-scale case)
    for path in paths:
        f = world.vfs.stat(path)
        if path.endswith(".bin") and "data." in path:
            # CFF subfile: warm the blocks its samples actually occupy.
            index = CFFIndex.from_bytes(world.vfs.stat(_cff_index_path(root)).data)
            k = int(path.rsplit(".", 2)[1])
            sel = index.subfile == k
            block = caches[0].block_bytes
            blocks = np.unique(
                (index.offset[sel].astype(np.float64) * f.logical_scale).astype(np.int64)
                // block
            )
            for cache in caches:
                for b in blocks:
                    cache.prefetch(f.file_id, int(b) * block, 1)
        else:
            for cache in caches:
                cache.prefetch(f.file_id, 0, 1)


# ---------------------------------------------------------------------------
# the experiment body (runs as every rank's coroutine)
# ---------------------------------------------------------------------------


def _model_config(cfg: ExperimentConfig, blobs: list[bytes]) -> HydraGNNConfig:
    s0 = SampleStats.from_blob(blobs[0])
    return HydraGNNConfig(
        feature_dim=s0.feature_dim,
        head_dims=(DATASETS[cfg.dataset].output_dim,),
        hidden_dim=cfg.hidden_dim,
    )


def _rank_main(ctx, cfg: ExperimentConfig, blobs: list[bytes], model_cfg: HydraGNNConfig):
    machine = ctx.world.machine
    vfs = ctx.world.vfs
    root = f"{cfg.dataset}-{cfg.method}"

    # -- stage the dataset on the shared filesystem (untimed setup) --------
    if ctx.rank == 0:
        if cfg.method == "pff":
            write_pff(vfs, root, blobs)
        else:  # cff and both ddstore variants preload from a container
            # ADIOS subfile count is fixed by the original data-production
            # run (its aggregator count), not by how many ranks later read
            # it — a key reason container reads contend at scale.
            write_cff(vfs, root, blobs, n_subfiles=8, logical_scale=_logical_scale(cfg, blobs))
        if cfg.warm_page_cache and cfg.method in ("pff", "cff"):
            _warm_caches(ctx.world, root)
    yield from ctx.comm.barrier()

    # -- build the data pipeline -------------------------------------------
    t_setup = ctx.now
    store = None
    if cfg.method == "pff":
        reader = PFFReader(vfs, root, len(blobs), machine)
        dataset = FileDataset(reader, ctx, stats_only=True, n_workers=cfg.n_workers)
    elif cfg.method == "cff":
        reader = CFFReader(vfs, root, machine)
        if ctx.rank % machine.gpus_per_node == 0:
            reader.load_index_timed(ctx.node_index, ctx.now)
        dataset = FileDataset(reader, ctx, stats_only=True, n_workers=cfg.n_workers)
    elif cfg.method == "nvme":
        # Conventional burst-buffer recipe: every node stages the whole
        # dataset from the PFS to its local SSD once, then reads locally.
        if machine.nvme is None:
            raise ValueError(f"machine {machine.name!r} has no node-local NVMe")
        shared = ctx.world.__dict__.setdefault("_nvme_readers", {})
        if ctx.rank % machine.gpus_per_node == 0:
            from ..hardware.nvme import NVMeDevice
            from ..storage.staging import stage_to_nvme

            device = NVMeDevice(ctx.engine, machine.nvme, name=f"nvme[{ctx.node_index}]")
            cff = CFFReader(vfs, root, machine)
            logical = int(sum(len(b) for b in blobs) * _logical_scale(cfg, blobs))
            staged, t_done = stage_to_nvme(
                cff, device, ctx.node_index, ctx.now, logical_bytes=logical
            )
            shared[ctx.node_index] = staged
            yield ctx.engine.timeout(max(0.0, t_done - ctx.now))
        yield from ctx.comm.barrier()
        dataset = FileDataset(shared[ctx.node_index], ctx, stats_only=True, n_workers=cfg.n_workers)
    else:
        reader = CFFReader(vfs, root, machine)
        store_cfg = cfg.ddstore_config()
        store = yield from DDStore.create(
            ctx.comm,
            ReaderSource(reader),
            width=cfg.width,
            dataplane=store_cfg.dataplane,
            resilience=store_cfg.resilience,
        )
        dataset = DDStoreDataset(store, stats_only=True, n_workers=cfg.n_workers)
    preload_time = ctx.now - t_setup

    # -- model + trainer ------------------------------------------------------
    # Modelled compute reads the model's shape and parameter count, never
    # a weight, so the wrapper holds the config alone and there is no
    # optimizer.
    dmodel = DistributedModel(None, ctx.comm, config=model_cfg)
    loader = DataLoader(
        dataset,
        ctx,
        batch_size=cfg.batch_size,
        shuffle=cfg.shuffle,
        seed=cfg.seed,
        steps_per_epoch=cfg.steps_per_epoch,
    )
    trainer = Trainer(ctx, dmodel, loader, None, real_compute=False, epochs=cfg.epochs)

    # Elastic width control: hook the coordinator between epochs.  Off by
    # default — when disabled the loop below is untouched (no coordinator,
    # no extra collectives, traces bit-identical).
    coordinator = None
    if store is not None and cfg.elastic:
        from ..control import ElasticCoordinator

        coordinator = ElasticCoordinator(ctx, loader, trainer=trainer)

    # -- measured epochs -------------------------------------------------------
    yield from ctx.comm.barrier()
    t0 = ctx.now
    phases = PhaseTimes()
    latencies = []
    n_samples = 0
    data_wait = 0.0
    epoch_seconds = []
    for epoch in range(cfg.epochs):
        report = yield from trainer.train_epoch(epoch)
        phases = phases.merged(report.phases)
        latencies.append(report.sample_latencies)
        n_samples += report.n_samples
        data_wait += report.data_wait
        epoch_seconds.append(report.elapsed)
        if coordinator is not None:
            yield from coordinator.after_epoch(report)
            store = dataset.store  # reshard may have swapped generations
    if store is not None and cfg.method == "ddstore-p2p":
        yield from store.shutdown()
    elapsed = ctx.now - t0
    return dict(
        elapsed=elapsed,
        n_samples=n_samples,
        phases=phases,
        latencies=np.concatenate(latencies) if latencies else np.empty(0),
        preload=preload_time,
        data_wait=data_wait,
        epoch_seconds=epoch_seconds,
        control=coordinator.summary() if coordinator is not None else None,
    )


def run_experiment(cfg: ExperimentConfig, observer=None) -> ExperimentResult:
    """Simulate one evaluation cell and aggregate across ranks.

    ``observer`` is an optional :class:`repro.obs.Observer`; when omitted a
    metrics-only observer is attached, so the registry roll-ups below are
    always live (the old per-rank ``fetch_stages`` plumbing is gone — the
    registry is the canonical owner of the fetch counters).  Pass an
    observer with tracing on to additionally collect spans.
    """
    import gc

    from ..obs import Observer

    gc.collect()  # drop the previous cell's world (VFS files, chunk buffers)
    blobs = packed_blobs(cfg.dataset, cfg.seed, cfg.resolved_samples())
    machine = get_machine(cfg.machine)
    # Build the world up-front so the observer (and any fault plan) is
    # armed before any rank process issues traffic.
    from ..mpi.comm import World

    world = World(machine, cfg.n_nodes, seed=cfg.seed)
    if cfg.fault_plan is not None:
        from ..faults import build_fault_plan, install_faults

        install_faults(world, build_fault_plan(cfg.fault_plan, world.n_ranks, cfg.seed))
    if observer is None:
        observer = Observer(trace=False)
    world.attach_observer(observer)
    job = run_world(
        machine,
        cfg.n_nodes,
        _rank_main,
        cfg,
        blobs,
        _model_config(cfg, blobs),
        seed=cfg.seed,
        world=world,
    )
    per_rank = job.results
    n_ranks = len(per_rank)
    elapsed = max(r["elapsed"] for r in per_rank)
    total_samples = sum(r["n_samples"] for r in per_rank)
    mean_phases = PhaseTimes()
    for r in per_rank:
        mean_phases = mean_phases.merged(r["phases"])
    for k in mean_phases.seconds:
        mean_phases.seconds[k] /= n_ranks
    latencies = np.concatenate([r["latencies"] for r in per_rank])
    from ..core import FetchStats
    from .metrics import merge_stage_seconds

    m = observer.metrics
    fetch_stages = merge_stage_seconds([m.sum_by("ddstore.stage_seconds", "stage")])
    fetch_stages = {k: v / n_ranks for k, v in fetch_stages.items()}
    fetch_counters: dict[str, int] = {}
    if cfg.method in ("ddstore", "ddstore-p2p"):
        # Same shape the old store.stats plumbing produced: every canonical
        # counter present, zero-filled, summed across ranks.  Wave-prefetch
        # traffic reports under its own metric family; its wire reads are
        # *not* in "ddstore.fetch", so adding both families counts each
        # read exactly once.
        fetch_counters = dict.fromkeys(FetchStats().counters(), 0)
        for k, v in m.sum_by("ddstore.fetch", "counter").items():
            fetch_counters[k] = int(v)
        for k, v in m.sum_by("ddstore.prefetch", "counter").items():
            fetch_counters[k] = fetch_counters.get(k, 0) + int(v)
    # Overlap efficiency pooled over ranks: the loading pipeline's total
    # cost is cpu_loading + cpu_batching (already accumulated per rank);
    # whatever was not stalled on (data_wait) was hidden under compute.
    load_totals = [
        r["phases"].seconds["cpu_loading"] + r["phases"].seconds["cpu_batching"]
        for r in per_rank
    ]
    hidden_total = sum(
        max(0.0, lt - r["data_wait"]) for lt, r in zip(load_totals, per_rank)
    )
    load_total = sum(load_totals)
    # Per-epoch time is the slowest rank's; the controller summary is
    # identical on every rank by construction (allreduced signals) except
    # for the rank-local reshard wall time, reported as the max.
    n_epochs = max(len(r["epoch_seconds"]) for r in per_rank)
    epoch_seconds = [
        max(r["epoch_seconds"][e] for r in per_rank) for e in range(n_epochs)
    ]
    control = per_rank[0].get("control")
    if control is not None:
        control = dict(
            control,
            reshard_seconds=max(r["control"]["reshard_seconds"] for r in per_rank),
        )
    # Per-node NIC roll-up over the whole run (preload included): injection
    # (tx) and reception (rx) FIFO occupancy against the run's wall clock,
    # plus the inter-node wire bytes each NIC actually carried.  This is
    # the figure of merit node-aggregated fetch moves: dedup cuts tx bytes
    # at the *owner* nodes and rx bytes at every subscriber node.
    horizon = world.engine.now
    node_nic = [
        {
            "node": i,
            "tx_bytes": int(n.nic_out.bytes_served),
            "rx_bytes": int(n.nic_in.bytes_served),
            "tx_busy_s": float(n.nic_out.busy_time),
            "rx_busy_s": float(n.nic_in.busy_time),
            "tx_util": float(n.nic_out.utilisation(horizon)),
            "rx_util": float(n.nic_in.utilisation(horizon)),
        }
        for i, n in enumerate(world.cluster.nodes)
    ]
    return ExperimentResult(
        config=cfg,
        elapsed=elapsed,
        total_samples=total_samples,
        phases=mean_phases,
        latencies=latencies,
        preload_time=max(r["preload"] for r in per_rank),
        mpi_stats=job.merged_stats(),
        fetch_stages=fetch_stages,
        fetch_counters=fetch_counters,
        data_wait=sum(r["data_wait"] for r in per_rank) / n_ranks,
        overlap_efficiency=hidden_total / load_total if load_total > 0 else 0.0,
        epoch_seconds=epoch_seconds,
        control=control,
        node_nic=node_nic,
    )
