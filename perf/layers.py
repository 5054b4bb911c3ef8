"""Metric catalogue, the callables wrapped per layer, and the per-layer roll-up.

Layer = ``src/repro/<module>``.  Virtual-clock layer numbers are read from
what the program already exports (``Observer.metrics`` families, ``MPIStats``,
NIC/PFS counters, the program's own span trace); host-clock layer numbers come
from ``spans.SpanRecorder`` wrappers installed for the traced repeat only.

A metric that does not apply to a workload (``serving.*`` off ``churn``,
``gnn.*`` on ``churn``) is reported as 0: the driver wants every per-layer
name from every workload.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "VIRTUAL_END_TO_END", "TARGETS", "layer_metrics"]

# (name, unit, better, bound) — bound is the share of the parent's median by
# which the metric may worsen.  Each is at least three times the widest
# quartile spread seen over ten *different* seeds on any workload (the driver
# requires the spread to stay inside the bound): see README.md "Bounds".
END_TO_END = [
    ("samples_per_virtual_s", "1/s", "higher", 0.15),
    ("data_wait_virtual_s", "s", "lower", 0.25),
    ("load_p50_virtual_ms", "ms", "lower", 0.05),
    ("load_p99_virtual_ms", "ms", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]
VIRTUAL_END_TO_END = [n for n, *_ in END_TO_END if "virtual" in n]

FETCH_STAGES = ("plan", "queue", "lock", "get", "retry", "copy", "cache",
                "promote", "decode", "scatter", "fanout")
TRAINER_PHASES = ("cpu_loading", "cpu_batching", "gpu_h2d", "gpu_forward",
                  "gpu_backward", "gpu_comm", "optimizer")
PROGRAM_LAYERS = ("graphs", "storage", "core", "dataplane", "mpi", "sim",
                  "hardware", "gnn", "serving", "faults", "obs")

_S, _C, _B = "s", "count", "B"
# (name, unit, better)
PER_LAYER = [
    ("graphs.generate_wall_s", _S, "lower"),
    ("graphs.generate_us_per_sample", "us", "lower"),
    ("graphs.self_wall_s", _S, "lower"),
    ("storage.pack_wall_s", _S, "lower"),
    ("storage.bytes_per_sample", _B, "lower"),
    ("storage.stage_wall_s", _S, "lower"),
    ("storage.vfs_read_wall_s", _S, "lower"),
    ("storage.vfs_read_calls", _C, "lower"),
    ("storage.vfs_read_bytes", _B, "lower"),
    ("storage.reader_wall_s", _S, "lower"),
    ("storage.decode_wall_s", _S, "lower"),
    ("storage.decode_calls", _C, "lower"),
    ("storage.columnar_encode_wall_s", _S, "lower"),
    ("storage.pff_samples_per_virtual_s", "1/s", "higher"),
    ("storage.cff_samples_per_virtual_s", "1/s", "higher"),
    ("storage.self_wall_s", _S, "lower"),
    ("core.create_wall_s", _S, "lower"),
    ("core.get_samples_wall_s", _S, "lower"),
    ("core.get_samples_calls", _C, "lower"),
    ("core.get_batch_arena_wall_s", _S, "lower"),
    ("core.get_batch_arena_calls", _C, "lower"),
    ("core.prefetch_wave_wall_s", _S, "lower"),
    ("core.prefetch_wave_calls", _C, "lower"),
    ("core.loader_wall_s", _S, "lower"),
    ("core.reshard_wall_s", _S, "lower"),
    ("core.reshard_virtual_s", _S, "lower"),
    ("core.reshard_bytes", _B, "lower"),
    ("core.n_local", _C, "higher"),
    ("core.n_remote", _C, "lower"),
    ("core.bytes_local", _B, "higher"),
    ("core.bytes_remote", _B, "lower"),
    ("core.prefetch_virtual_s", _S, "lower"),
    ("core.preload_virtual_s", _S, "lower"),
    *[(f"core.stage_virtual_s.{s}", _S, "lower") for s in FETCH_STAGES],
    ("core.self_wall_s", _S, "lower"),
    ("dataplane.plan_wall_s", _S, "lower"),
    ("dataplane.plan_calls", _C, "lower"),
    ("dataplane.plan_us_per_request", "us", "lower"),
    ("dataplane.scatter_wall_s", _S, "lower"),
    ("dataplane.scatter_bytes", _B, "lower"),
    ("dataplane.transport_fetch_wall_s", _S, "lower"),
    ("dataplane.n_get_calls", _C, "lower"),
    ("dataplane.bytes_transferred", _B, "lower"),
    ("dataplane.coalesce_ratio", "ratio", "higher"),
    ("dataplane.cache_wall_s", _S, "lower"),
    ("dataplane.cache_hit_ratio", "ratio", "higher"),
    ("dataplane.cache_evictions", _C, "lower"),
    ("dataplane.demand_misses", _C, "lower"),
    ("dataplane.tier_promotions", _C, "lower"),
    ("dataplane.n_prefetch_waves", _C, "lower"),
    ("dataplane.bytes_prefetched", _B, "lower"),
    ("dataplane.node_dedup_ratio", "ratio", "higher"),
    ("dataplane.bytes_fanout", _B, "higher"),
    ("dataplane.scheduler_wall_s", _S, "lower"),
    ("dataplane.n_timeouts", _C, "lower"),
    ("dataplane.n_retries", _C, "lower"),
    ("dataplane.n_failovers", _C, "lower"),
    ("dataplane.self_wall_s", _S, "lower"),
    ("mpi.rma_get_calls", _C, "lower"),
    ("mpi.rma_bytes", _B, "lower"),
    ("mpi.rma_virtual_s", _S, "lower"),
    ("mpi.lock_virtual_s", _S, "lower"),
    ("mpi.rma_wall_s", _S, "lower"),
    ("mpi.collective_calls", _C, "lower"),
    ("mpi.collective_virtual_s", _S, "lower"),
    ("mpi.collective_wall_s", _S, "lower"),
    ("mpi.self_wall_s", _S, "lower"),
    ("sim.events", _C, "lower"),
    ("sim.wall_us_per_event", "us", "lower"),
    ("sim.events_per_wall_s", "1/s", "higher"),
    ("sim.engine_self_wall_s", _S, "lower"),
    ("sim.virtual_horizon_s", _S, "lower"),
    ("hardware.inter_node_bytes", _B, "lower"),
    ("hardware.nic_tx_util_max", "ratio", "lower"),
    ("hardware.nic_tx_bytes_max_node", _B, "lower"),
    ("hardware.nic_busy_virtual_s", _S, "lower"),
    ("hardware.pfs_read_bytes", _B, "lower"),
    ("hardware.pfs_metadata_ops", _C, "lower"),
    ("hardware.nvme_read_bytes", _B, "lower"),
    ("hardware.model_wall_s", _S, "lower"),
    ("gnn.model_init_wall_s", _S, "lower"),
    ("gnn.model_param_mb", "MB", "lower"),
    ("gnn.train_epoch_wall_s", _S, "lower"),
    ("gnn.overlap_efficiency", "ratio", "higher"),
    *[(f"gnn.phase_virtual_s.{p}", _S, "lower") for p in TRAINER_PHASES],
    ("gnn.self_wall_s", _S, "lower"),
    ("serving.queue_virtual_s", _S, "lower"),
    ("serving.interactive_p99_virtual_ms", "ms", "lower"),
    ("serving.bulk_samples_per_virtual_s", "1/s", "higher"),
    ("serving.lane_wall_s", _S, "lower"),
    ("serving.sessions_migrated", _C, "lower"),
    ("serving.self_wall_s", _S, "lower"),
    ("faults.n_perturbed", _C, "lower"),
    ("faults.self_wall_s", _S, "lower"),
    ("obs.trace_wall_ratio", "ratio", "lower"),
    ("obs.spans", _C, "lower"),
    ("obs.critical_path_residual_virtual_s", _S, "lower"),
    ("obs.self_wall_s", _S, "lower"),
    ("bench.import_wall_s", _S, "lower"),
    ("bench.first_run_wall_s", _S, "lower"),
    ("bench.cpu_s", _S, "lower"),
    ("bench.wall_iqr_s", _S, "lower"),
    ("bench.unattributed_wall_s", _S, "lower"),
    ("bench.speedup_vs_pff", "ratio", "higher"),
    ("bench.failed_op_share", "ratio", "lower"),
]


def _nbytes_arg(index: int):
    return lambda args, _result: args[index]


_COLLECTIVES = ("barrier", "bcast", "gather", "allgather", "scatter", "reduce",
                "allreduce", "alltoall", "split", "dup")
_CACHE_OPS = ("get", "get_columns", "put", "put_columns", "put_owned", "pop",
              "set_future", "advance_to")
_TIER_OPS = ("fast_get", "put", "put_columns", "promote_batch", "stage_up",
             "set_future", "advance_to")
_READS = ("read_sample", "read_sample_raw", "read_sample_stats")

# (layer, span name, module, qualname[, tally]) — public callables only.
TARGETS = [
    ("sim", "run", "repro.sim.engine", "Engine.run"),
    ("sim", "step", "repro.sim.engine", "Engine.step"),
    ("sim", "station", "repro.sim.resources", "QueueStation.serve"),
    ("sim", "station", "repro.sim.resources", "QueueStation.serve_batch"),
    ("sim", "station", "repro.sim.resources", "FluidStation.serve"),
    ("hardware", "network", "repro.hardware.network", "Interconnect.rma_get"),
    ("hardware", "network", "repro.hardware.network", "Interconnect.rma_get_batch"),
    ("hardware", "network", "repro.hardware.network", "Interconnect.send_time"),
    ("hardware", "network", "repro.hardware.network", "Interconnect.collective_time"),
    ("hardware", "pfs", "repro.hardware.pfs", "ParallelFileSystem.read"),
    ("hardware", "pfs", "repro.hardware.pfs", "ParallelFileSystem.metadata_op"),
    ("hardware", "pfs", "repro.hardware.pfs", "ParallelFileSystem.write"),
    ("hardware", "nvme", "repro.hardware.nvme", "NVMeDevice.read", _nbytes_arg(1)),
    ("hardware", "nvme", "repro.hardware.nvme", "NVMeDevice.read_many", _nbytes_arg(2)),
    ("hardware", "nvme_write", "repro.hardware.nvme", "NVMeDevice.write"),
    *[("hardware", "gpu", "repro.hardware.gpu", f"GpuModel.{m}")
      for m in ("forward_time", "backward_time", "h2d_time", "optimizer_time")],
    *[("mpi", "rma", "repro.mpi.rma", f"WinHandle.{m}")
      for m in ("get_batch", "get", "put", "lock", "unlock", "fence")],
    ("mpi", "rma", "repro.mpi.rma", "create_window"),
    *[("mpi", "collective", "repro.mpi.comm", f"Comm.{m}") for m in _COLLECTIVES],
    *[("mpi", "p2p", "repro.mpi.comm", f"Comm.{m}")
      for m in ("send", "recv", "isend", "irecv", "sendrecv")],
    ("graphs", "generate", "repro.graphs.spectra", "SpectrumGenerator.make"),
    ("graphs", "generate", "repro.graphs.ising", "IsingGenerator.make"),
    ("graphs", "collate", "repro.graphs.batch", "collate"),
    ("graphs", "arena", "repro.graphs.batch", "ArenaPool.acquire"),
    ("graphs", "arena", "repro.graphs.batch", "ArenaPool.release"),
    ("graphs", "arena", "repro.graphs.batch", "ArenaPool.warm"),
    ("graphs", "arena", "repro.graphs.batch", "BatchArena.reset"),
    ("storage", "pack", "repro.storage.serialization", "pack_graph"),
    ("storage", "stage", "repro.storage.vfs", "VirtualFS.create"),
    ("storage", "stage", "repro.storage.vfs", "VirtualFS.append"),
    ("storage", "vfs_read", "repro.storage.vfs", "VirtualFS.read_timed"),
    ("storage", "vfs_open", "repro.storage.vfs", "VirtualFS.open_timed"),
    ("storage", "vfs_open", "repro.storage.vfs", "VirtualFS.read_whole_timed"),
    *[("storage", "reader", "repro.storage.formats", f"PFFReader.{m}") for m in _READS],
    *[("storage", "reader", "repro.storage.formats", f"CFFReader.{m}") for m in _READS],
    ("storage", "reader", "repro.storage.formats", "CFFReader.read_chunk_raw"),
    ("storage", "reader", "repro.storage.formats", "CFFReader.load_index_timed"),
    ("storage", "decode", "repro.storage.serialization", "unpack_graph"),
    ("storage", "decode", "repro.storage.formats", "SampleStats.from_blob"),
    ("storage", "decode", "repro.storage.columnar", "unpack_shard"),
    ("storage", "columnar_encode", "repro.storage.columnar", "pack_columns"),
    ("storage", "columnar_encode", "repro.storage.columnar", "pack_shard"),
    *[("storage", "nvme_store", "repro.storage.staging", f"NVMeShardStore.{m}")
      for m in ("stage", "get", "write_behind")],
    ("core", "create", "repro.core.store", "DDStore.create"),
    ("core", "get_samples", "repro.core.store", "DDStore.get_samples"),
    ("core", "get_batch_arena", "repro.core.store", "DDStore.get_batch_arena"),
    ("core", "prefetch_wave", "repro.core.store", "DDStore.prefetch_wave"),
    ("core", "reshard", "repro.core.store", "DDStore.reshard"),
    ("core", "session_view", "repro.core.store", "DDStore.session_view"),
    ("core", "loader", "repro.core.loader", "DataLoader.load"),
    ("core", "loader", "repro.core.loader", "DataLoader.epoch_batches"),
    ("core", "loader", "repro.core.loader", "DataLoader.peer_epoch_batches"),
    ("core", "dataset", "repro.core.loader", "DDStoreDataset.fetch"),
    ("core", "dataset", "repro.core.loader", "DDStoreDataset.fetch_arena"),
    ("core", "dataset", "repro.core.loader", "DDStoreDataset.prefetch"),
    ("core", "dataset", "repro.core.loader", "FileDataset.fetch"),
    ("core", "registry", "repro.core.registry", "ChunkRegistry.locate_batch"),
    ("core", "registry", "repro.core.registry", "ChunkRegistry.shape_batch"),
    ("core", "preload", "repro.core.preloader", "ReaderSource.load_chunk"),
    ("core", "preload", "repro.core.preloader", "GeneratorSource.load_chunk"),
    *[("dataplane", "plan", "repro.dataplane.planner", f"FetchPlanner.{m}")
      for m in ("plan", "plan_batches", "plan_arena", "plan_node_wave")],
    ("dataplane", "plan", "repro.dataplane.planner", "plan_promotions"),
    ("dataplane", "scatter", "repro.dataplane.planner", "ArenaScatterMap.scatter",
     lambda _args, written: written),
    ("dataplane", "transport_fetch", "repro.dataplane.transport", "RmaTransport.fetch"),
    ("dataplane", "transport_fetch", "repro.dataplane.transport", "P2PTransport.fetch"),
    ("dataplane", "retry", "repro.dataplane.retry", "fetch_with_retry"),
    *[("dataplane", "cache", "repro.dataplane.cache", f"SampleCache.{m}") for m in _CACHE_OPS],
    *[("dataplane", "cache", "repro.dataplane.cache", f"TieredCache.{m}") for m in _TIER_OPS],
    *[("dataplane", "scheduler", "repro.dataplane.scheduler", f"EpochScheduler.{m}")
      for m in ("start", "event", "advance", "drain", "finish")],
    *[("dataplane", "nodeagg", "repro.dataplane.nodeagg", f"NodeFetchCoordinator.{m}")
      for m in ("lookup", "register", "publish", "finish")],
    ("gnn", "model_init", "repro.gnn.model", "HydraGNN.__init__"),
    ("gnn", "model_init", "repro.gnn.optim", "AdamW.__init__"),
    ("gnn", "train_epoch", "repro.gnn.trainer", "Trainer.train_epoch"),
    *[("gnn", "ddp", "repro.gnn.ddp", f"DistributedModel.{m}")
      for m in ("sync_gradients", "sync_gradients_modelled", "broadcast_parameters")],
    *[("serving", "service", "repro.serving.service", f"StoreService.{m}")
      for m in ("connect", "reshard", "migrate", "quiesce", "close")],
    *[("serving", "session", "repro.serving.service", f"TenantSession.{m}")
      for m in ("get_samples", "get_batch_arena", "prefetch_wave", "close")],
    *[("serving", "lane", "repro.serving.drr", f"{c}.{m}")
      for c in ("TenantLane", "DrrArbiter") for m in ("acquire", "release")],
    ("faults", "perturb", "repro.faults.injector", "RankFaultModel.apply_batch"),
    ("faults", "perturb", "repro.faults.injector", "RankFaultModel.apply_message"),
    ("obs", "tracer", "repro.obs.tracing", "SpanCollector.record"),
    *[("obs", "registry", "repro.obs.metrics", f"MetricsRegistry.{m}")
      for m in ("counter", "gauge", "histogram")],
]


def _family(observers, name: str, *labels: str) -> dict:
    """One metric family summed over the repeat's observers."""
    out: dict = {}
    for obs in observers:
        for key, value in obs.metrics.sum_by(name, *labels).items():
            out[key] = out.get(key, 0.0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload, repeat: dict, rec, setup_rec, ctx: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` value for one traced repeat.

    ``rec`` / ``setup_rec`` are the span recorders of the traced repeat and
    of the set-up; ``ctx`` carries the runner's own numbers (walls, import
    time, oracle counts).
    """
    d = repeat["detail"]
    v = repeat["virtual"]
    observers = d["observers"]
    n_ranks = d["n_ranks"]
    worlds = d["worlds"]
    out = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)

    # ---- virtual clock: what the program exports ---------------------------
    counters = _family(observers, "ddstore.fetch", "counter")
    for key, value in _family(observers, "ddstore.prefetch", "counter").items():
        counters[key] = counters.get(key, 0.0) + value
    c = lambda key: counters.get(key, 0.0)  # noqa: E731
    stages = _family(observers, "ddstore.stage_seconds", "stage")
    for stage in FETCH_STAGES:
        out[f"core.stage_virtual_s.{stage}"] = stages.get(stage, 0.0) / n_ranks
    out["core.n_local"] = c("n_local")
    out["core.n_remote"] = c("n_remote")
    out["core.bytes_local"] = c("bytes_local")
    out["core.bytes_remote"] = c("bytes_remote")
    out["core.preload_virtual_s"] = v["preload_virtual_s"]
    out["dataplane.n_get_calls"] = c("n_get_calls")
    out["dataplane.bytes_transferred"] = c("bytes_transferred")
    # remote samples fetched over the wire (demand + waves) per wire read
    out["dataplane.coalesce_ratio"] = _ratio(c("n_remote") + c("n_prefetched"), c("n_get_calls"))
    out["dataplane.cache_hit_ratio"] = _ratio(
        c("n_cache_hits"), c("n_cache_hits") + c("n_cache_misses")
    )
    out["dataplane.cache_evictions"] = c("n_cache_evictions")
    out["dataplane.demand_misses"] = c("n_cache_misses")
    out["dataplane.tier_promotions"] = c("n_promoted")
    out["dataplane.n_prefetch_waves"] = c("n_prefetch_waves")
    out["dataplane.bytes_prefetched"] = c("bytes_prefetched")
    out["dataplane.node_dedup_ratio"] = _ratio(c("bytes_node_requested"), c("bytes_node_wire"))
    out["dataplane.bytes_fanout"] = c("bytes_fanout")
    out["dataplane.n_timeouts"] = c("n_timeouts")
    out["dataplane.n_retries"] = c("n_retries")
    out["dataplane.n_failovers"] = c("n_failovers")
    out["faults.n_perturbed"] = sum(_family(observers, "faults.n_perturbed", "kind").values())

    mpi = d["mpi"]
    rma_calls = ("MPI_Get", "MPI_Put")
    lock_calls = ("MPI_Win_lock", "MPI_Win_unlock", "MPI_Win_fence")
    p2p_calls = ("MPI_Send", "MPI_Recv")
    out["mpi.rma_get_calls"] = mpi.count_by_call.get("MPI_Get", 0)
    out["mpi.rma_bytes"] = mpi.bytes_by_call.get("MPI_Get", 0)
    out["mpi.rma_virtual_s"] = sum(mpi.time_by_call.get(k, 0.0) for k in rma_calls)
    out["mpi.lock_virtual_s"] = sum(mpi.time_by_call.get(k, 0.0) for k in lock_calls)
    collectives = [k for k in mpi.count_by_call if k not in rma_calls + lock_calls + p2p_calls]
    out["mpi.collective_calls"] = sum(mpi.count_by_call[k] for k in collectives)
    out["mpi.collective_virtual_s"] = sum(mpi.time_by_call[k] for k in collectives)

    nics = [node for cell in d["node_nic"] for node in cell]
    out["hardware.inter_node_bytes"] = v["inter_node_bytes"]
    out["hardware.nic_tx_util_max"] = max(n["tx_util"] for n in nics)
    out["hardware.nic_tx_bytes_max_node"] = max(n["tx_bytes"] for n in nics)
    out["hardware.nic_busy_virtual_s"] = sum(n["tx_busy_s"] for n in nics)
    out["hardware.pfs_read_bytes"] = sum(w.pfs.bytes_read for w in worlds)
    out["hardware.pfs_metadata_ops"] = sum(w.pfs.metadata_ops for w in worlds)
    out["storage.vfs_read_bytes"] = out["hardware.pfs_read_bytes"]
    out["sim.virtual_horizon_s"] = sum(w.engine.now for w in worlds)

    for phase in TRAINER_PHASES:
        out[f"gnn.phase_virtual_s.{phase}"] = d["phases"].get(phase, 0.0)
    out["gnn.overlap_efficiency"] = d["overlap_efficiency"]
    out["storage.pff_samples_per_virtual_s"] = d["method_throughput"].get("pff", 0.0)
    out["storage.cff_samples_per_virtual_s"] = d["method_throughput"].get("cff", 0.0)

    # the program's own virtual-clock trace (Observer(trace=True) on this repeat)
    program_spans = [s for obs in observers if obs.tracer is not None for s in obs.tracer.spans]
    out["obs.spans"] = len(program_spans)
    out["core.prefetch_virtual_s"] = (
        sum(s.duration for s in program_spans if s.name == "store.prefetch_wave") / n_ranks
    )
    out["obs.critical_path_residual_virtual_s"] = ctx["critical_path_residual_virtual_s"]

    churn = d.get("churn")
    if churn is not None:
        out["core.reshard_virtual_s"] = churn["reshard_virtual_s"]
        out["core.reshard_bytes"] = churn["reshard_bytes"]
        out["serving.queue_virtual_s"] = churn["queue_virtual_s"]
        out["serving.interactive_p99_virtual_ms"] = v["load_p99_virtual_ms"]
        out["serving.bulk_samples_per_virtual_s"] = churn["bulk_samples_per_virtual_s"]
        tenant = _family(observers, "ddstore.tenant", "counter")
        out["serving.sessions_migrated"] = tenant.get("session_migrated", 0.0)

    # ---- host clock: spans around the layers' public callables --------------
    out["graphs.generate_wall_s"] = setup_rec.busy("graphs", "generate")
    out["graphs.generate_us_per_sample"] = _ratio(
        out["graphs.generate_wall_s"] * 1e6, setup_rec.calls("graphs", "generate")
    )
    out["storage.pack_wall_s"] = setup_rec.busy("storage", "pack")
    blobs = workload.reference_blobs()
    out["storage.bytes_per_sample"] = sum(map(len, blobs)) / len(blobs)

    out["storage.stage_wall_s"] = rec.busy("storage", "stage")
    out["storage.vfs_read_wall_s"] = rec.busy("storage", "vfs_read")
    out["storage.vfs_read_calls"] = rec.calls("storage", "vfs_read")
    out["storage.reader_wall_s"] = rec.busy("storage", "reader")
    out["storage.decode_wall_s"] = rec.busy("storage", "decode")
    out["storage.decode_calls"] = rec.calls("storage", "decode")
    out["storage.columnar_encode_wall_s"] = rec.busy("storage", "columnar_encode")
    for name in ("create", "get_samples", "get_batch_arena", "prefetch_wave", "reshard"):
        out[f"core.{name}_wall_s"] = rec.busy("core", name)
    for name in ("get_samples", "get_batch_arena", "prefetch_wave"):
        out[f"core.{name}_calls"] = rec.calls("core", name)
    out["core.loader_wall_s"] = rec.busy("core", "loader")
    out["dataplane.plan_wall_s"] = rec.busy("dataplane", "plan")
    out["dataplane.plan_calls"] = rec.calls("dataplane", "plan")
    requests = c("n_remote") + c("n_prefetched")
    out["dataplane.plan_us_per_request"] = _ratio(out["dataplane.plan_wall_s"] * 1e6, requests)
    out["dataplane.scatter_wall_s"] = rec.busy("dataplane", "scatter")
    out["dataplane.scatter_bytes"] = rec.units("dataplane", "scatter")
    out["dataplane.transport_fetch_wall_s"] = rec.busy("dataplane", "transport_fetch")
    out["dataplane.cache_wall_s"] = rec.busy("dataplane", "cache")
    out["dataplane.scheduler_wall_s"] = rec.busy("dataplane", "scheduler")
    out["mpi.rma_wall_s"] = rec.busy("mpi", "rma")
    out["mpi.collective_wall_s"] = rec.busy("mpi", "collective")
    out["hardware.nvme_read_bytes"] = rec.units("hardware", "nvme")
    out["gnn.model_init_wall_s"] = rec.busy("gnn", "model_init")
    out["gnn.train_epoch_wall_s"] = rec.busy("gnn", "train_epoch")
    out["gnn.model_param_mb"] = ctx["model_param_mb"]
    out["serving.lane_wall_s"] = rec.busy("serving", "lane")

    self_s = rec.layer_self()
    for layer in PROGRAM_LAYERS:
        if f"{layer}.self_wall_s" in out:
            out[f"{layer}.self_wall_s"] = self_s.get(layer, 0.0)
    out["sim.engine_self_wall_s"] = self_s.get("sim", 0.0)
    out["hardware.model_wall_s"] = self_s.get("hardware", 0.0)
    events = rec.calls("sim", "step")
    traced_wall = ctx["traced_wall_s"]
    out["sim.events"] = events
    # the count comes from the traced repeat, the time from the untraced ones
    out["sim.wall_us_per_event"] = _ratio(ctx["untraced_wall_s"] * 1e6, events)
    out["sim.events_per_wall_s"] = _ratio(events, ctx["untraced_wall_s"])

    out["obs.trace_wall_ratio"] = _ratio(traced_wall, ctx["untraced_wall_s"])
    out["bench.import_wall_s"] = ctx["import_wall_s"]
    out["bench.first_run_wall_s"] = ctx["first_run_wall_s"]
    out["bench.cpu_s"] = ctx["cpu_s"]
    out["bench.wall_iqr_s"] = ctx["wall_iqr_s"]
    out["bench.unattributed_wall_s"] = self_s.get("bench", 0.0)
    out["bench.speedup_vs_pff"] = ctx["speedup_vs_pff"]
    out["bench.failed_op_share"] = _ratio(ctx["failed"], ctx["attempted"])
    return {k: float(x) for k, x in out.items()}
