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

import os
import signal
import threading
import traceback
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
from ..core.config import _check, _check_flag
from ..core.loader import SHUFFLES
from ..gnn import DistributedModel, HydraGNNConfig, PhaseTimes, Trainer
from ..graphs.datasets import DATASETS
from ..hardware import MACHINES, get_machine
from ..mpi import MPIStats, run_world
from ..storage import CFFImage, CFFReader, PFFReader, SampleStats, pack_graph, write_pff
from ..storage.formats import occupied_blocks

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "packed_blobs",
]

METHODS = ("pff", "cff", "ddstore", "ddstore-p2p", "nvme")

# ---------------------------------------------------------------------------
# packed-dataset images (samples are deterministic per (dataset, seed, index),
# so one growing CFF image serves every scale point and method)
# ---------------------------------------------------------------------------

# ADIOS subfile count is fixed by the original data-production run (its
# aggregator count), not by how many ranks later read it — a key reason
# container reads contend at scale.
_N_SUBFILES = 8
_IMAGES: dict[tuple[str, int], CFFImage] = {}

# Fewest new samples worth one more worker: below two such shares an image
# grows inline, since a fork, a pipe and a reap would cost more than the
# generation they split.
_MIN_SHARE = 32


def _image(dataset: str, seed: int, n: int) -> CFFImage:
    """The cached CFF image of a registry dataset, holding at least its
    first ``n`` samples: the one host copy of their bytes.  A growth
    (:func:`_generate`) appends the new samples to the image's files in
    place; views cut before it keep their old, shorter mappings, so they
    keep their bytes, and no old byte is copied."""
    key = (dataset, seed)
    image = _IMAGES.get(key)
    if image is None or image.n_samples < n:
        image = _IMAGES[key] = _generate(dataset, seed, image or CFFImage(_N_SUBFILES), n)
    return image


def _n_workers(n_new: int) -> int:
    """Processes that generate ``n_new`` samples: one per usable core, each
    with at least ``_MIN_SHARE`` samples.  One (inline) where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, or while another thread is alive,
    native ones included: a forked child gets a copy of any lock such a
    thread holds, and where it is a BLAS pool (numpy's default on a
    multi-core host) two processes each driving one over the same cores
    run ``eigh`` several times slower than one process alone."""
    if not hasattr(os, "sched_getaffinity") or _n_threads() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_new // _MIN_SHARE))


def _n_threads() -> int:
    """Threads of this process: the kernel's count, which sees threads that
    ``threading`` does not (a BLAS pool), where ``/proc`` is mounted."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _generate(dataset: str, seed: int, image: CFFImage, n: int) -> CFFImage:
    """``image`` grown to the first ``n`` samples of a registry dataset.

    Every sample is a pure function of ``(dataset, seed, index)``, so the
    new range splits into contiguous shares with no change to the bytes.
    One worker packs the range in this process an eighth at a time and
    grows the image by each eighth before packing the next: the image's
    layout does not depend on how its growth is cut, and no more than an
    eighth is held packed beside it.
    More workers each get a forked child, which writes its share's size
    table and then its bytes to a pipe.  With every size table in hand this
    process grows the image (:meth:`CFFImage.extend`) and reads each
    child's bytes straight into that child's slots, so no new byte is held
    twice.  A failed child makes this raise, naming its range; every child
    is reaped (killed first, on failure) before return.
    """
    lo, hi = image.n_samples, n
    gen = DATASETS[dataset].make(hi, seed)
    k = _n_workers(hi - lo)
    if k == 1:
        step = -(-(hi - lo) // 8)
        for a in range(lo, hi, step):
            blobs = [pack_graph(gen.make(i)) for i in range(a, min(a + step, hi))]
            image, slots = image.extend(np.fromiter(map(len, blobs), np.int64, len(blobs)))
            for slot, blob in zip(slots, blobs):
                slot[:] = blob
            del blobs  # before the next eighth is packed
        return image
    cuts = [lo + (hi - lo) * j // k for j in range(k + 1)]
    spans = list(zip(cuts[:-1], cuts[1:]))  # the children's shares
    shares = [f"generating {dataset} samples [{a}, {b})" for a, b in spans]
    pipes, pids = [], []
    try:
        for a, b in spans:
            r, w = os.pipe()
            pipes.append(open(r, "rb", buffering=0))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(gen, a, b, w, [p.fileno() for p in pipes])
            finally:
                os.close(w)
            pids.append(pid)
        sizes = np.empty(hi - lo, np.int64)
        for pipe, (a, b), share in zip(pipes, spans, shares):
            _read_into(pipe, memoryview(sizes[a - lo : b - lo]).cast("B"), share)
        image, slots = image.extend(sizes)
        for pipe, (a, b), share in zip(pipes, spans, shares):
            for slot in slots[a - lo : b - lo]:
                _read_into(pipe, slot, share)
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for code, share in zip(codes, shares):
        if code:
            raise RuntimeError(f"{share} failed in a worker (exit code {code})")
    return image


def _child(gen, lo: int, hi: int, w: int, inherited: list[int]) -> None:
    """A forked worker: pack samples ``[lo, hi)``, write their size table and
    bytes to pipe ``w`` and leave by ``os._exit``, so nothing of the parent's
    state unwinds here; a failure prints its traceback and exits 1."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        blobs = [pack_graph(gen.make(i)) for i in range(lo, hi)]
        with open(w, "wb") as pipe:
            pipe.write(np.fromiter(map(len, blobs), np.int64, hi - lo))
            pipe.writelines(blobs)
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)


def _read_into(pipe, view: memoryview, share: str) -> None:
    """Fill ``view`` from a worker's pipe; an early end means it failed."""
    while view:
        got = pipe.readinto(view)
        if not got:
            raise RuntimeError(f"{share} failed in a worker (its output ended early)")
        view = view[got:]


def packed_blobs(dataset: str, seed: int, n: int) -> list[memoryview]:
    """First ``n`` packed samples of a registry dataset: read-only views of
    its cached image."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _image(dataset, seed, n).blobs[:n] if n else []


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
        if self.machine not in MACHINES:
            raise ValueError(
                f"unknown machine {self.machine!r}; available: {sorted(MACHINES)}"
            )
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.shuffle not in SHUFFLES:
            raise ValueError(f"shuffle must be one of {SHUFFLES}, got {self.shuffle!r}")
        for name in ("warm_page_cache", "elastic"):
            _check_flag(name, getattr(self, name))
        for name in ("n_nodes", "batch_size", "epochs", "steps_per_epoch", "hidden_dim",
                     "n_workers"):
            _check(name, getattr(self, name))
        if self.n_samples is not None:
            _check("n_samples", self.n_samples)
        _check("cache_bytes", self.cache_bytes, 0)
        if self.tiers is not None and self.cache_bytes:
            raise ValueError(
                f"tiers={self.tiers!r} spells the whole hierarchy; it does not mix "
                f"with cache_bytes={self.cache_bytes}"
            )
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
        dataplane = self.ddstore_config().dataplane
        if get_machine(self.machine).nvme is None and (
            self.method == "nvme" or dataplane.cache_options.tier("nvme") is not None
        ):
            raise ValueError(
                f"machine {self.machine!r} has no node-local NVMe "
                f"(method {self.method!r}, tiers {self.tiers!r})"
            )

    def ddstore_config(self) -> DDStoreConfig:
        """The nested-options DDStore configuration this cell runs with."""
        from ..core import CacheOptions

        cache = (
            CacheOptions.dram_only(self.cache_bytes, self.cache_policy)
            if self.tiers is None
            else CacheOptions.parse(self.tiers, policy=self.cache_policy)
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
                cache=cache,
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


def _logical_scale(cfg: ExperimentConfig, nbytes: int) -> float:
    """Make a scaled container of ``nbytes`` *time* like the paper's full-size file."""
    paper = DATASETS[cfg.dataset].paper_cff_bytes
    return max(1.0, paper / max(nbytes, 1))


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
    block = caches[0].block_bytes
    occupied = occupied_blocks(world.vfs, root, block)
    if sum(f.logical_size for f, _ in occupied) > caches[0].capacity_blocks * block:
        return  # the dataset cannot stay resident (the AISD-scale case)
    for f, offsets in occupied:
        for cache in caches:
            for offset in offsets:
                cache.prefetch(f.file_id, offset, 1)


# ---------------------------------------------------------------------------
# the experiment body (runs as every rank's coroutine)
# ---------------------------------------------------------------------------


def _model_config(cfg: ExperimentConfig, image: CFFImage) -> HydraGNNConfig:
    s0 = SampleStats.from_blob(image.blob(0))
    return HydraGNNConfig(
        feature_dim=s0.feature_dim,
        head_dims=(DATASETS[cfg.dataset].output_dim,),
        hidden_dim=cfg.hidden_dim,
    )


def _rank_main(
    ctx,
    cfg: ExperimentConfig,
    image: CFFImage,
    n_samples: int,
    nbytes: int,
    model_cfg: HydraGNNConfig,
    nvme_readers: dict,
):
    machine = ctx.world.machine
    vfs = ctx.world.vfs
    root = f"{cfg.dataset}-{cfg.method}"

    # -- stage the dataset on the shared filesystem (untimed setup) --------
    if ctx.rank == 0:
        # Every staged file is a read-only view of the image: no copy.  Only
        # PFF, a file per sample, needs a view per sample.
        if cfg.method == "pff":
            write_pff(vfs, root, image.blobs[:n_samples])
        else:  # cff and both ddstore variants preload from a container
            image.stage(vfs, root, n_samples, logical_scale=_logical_scale(cfg, nbytes))
        if cfg.warm_page_cache and cfg.method in ("pff", "cff"):
            _warm_caches(ctx.world, root)
    yield from ctx.comm.barrier()

    # -- build the data pipeline -------------------------------------------
    t_setup = ctx.now
    store = None
    if cfg.method == "pff":
        reader = PFFReader(vfs, root, n_samples, machine)
        dataset = FileDataset(reader, ctx, stats_only=True, n_workers=cfg.n_workers)
    elif cfg.method == "cff":
        reader = CFFReader(vfs, root, machine)
        if ctx.rank % machine.gpus_per_node == 0:
            reader.load_index_timed(ctx.node_index, ctx.now)
        dataset = FileDataset(reader, ctx, stats_only=True, n_workers=cfg.n_workers)
    elif cfg.method == "nvme":
        # Conventional burst-buffer recipe: every node stages the whole
        # dataset from the PFS to its local SSD once, then reads locally.
        if ctx.rank % machine.gpus_per_node == 0:
            from ..hardware.nvme import NVMeDevice
            from ..storage.staging import stage_to_nvme

            device = NVMeDevice(ctx.engine, machine.nvme, name=f"nvme[{ctx.node_index}]")
            cff = CFFReader(vfs, root, machine)
            logical = int(nbytes * _logical_scale(cfg, nbytes))
            staged, t_done = stage_to_nvme(
                cff, device, ctx.node_index, ctx.now, logical_bytes=logical
            )
            nvme_readers[ctx.node_index] = staged
            yield ctx.engine.timeout(max(0.0, t_done - ctx.now))
        yield from ctx.comm.barrier()
        dataset = FileDataset(
            nvme_readers[ctx.node_index], ctx, stats_only=True, n_workers=cfg.n_workers
        )
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
    n_samples = cfg.resolved_samples()
    image = _image(cfg.dataset, cfg.seed, n_samples)
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
        image,
        n_samples,
        int(image.index.size[:n_samples].sum()),
        _model_config(cfg, image),
        {},  # each node's staged NVMe reader (method "nvme"), by node index
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
