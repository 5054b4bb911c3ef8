"""The four benchmark workloads: frozen parameters and one-repeat runners.

Every workload drives the program through public API only
(``repro.bench.harness.ExperimentConfig/run_experiment/packed_blobs``,
``repro.client.serve``, ``StoreService``, ``TenantSession``, ``repro.faults``,
``repro.obs.Observer``, ``World``/``run_world``).  Each rank (or tenant) is a
closed-loop client: its next batch is requested only after the previous one
has been consumed; client count = ranks (x tenants on ``churn``).

Sizes are frozen here and echoed into every output's provenance.  They were
cut from the issue's starting sizes to fit the driver's time cap (92 runs in
3420 s): see README.md "Frozen parameters".
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np

from repro import client
from repro.bench.harness import ExperimentConfig, packed_blobs, run_experiment
from repro.core import DataPlaneOptions, ResilienceOptions, ServingOptions
from repro.core.preloader import GeneratorSource
from repro.faults import build_fault_plan, install_faults
from repro.graphs.ising import IsingGenerator
from repro.hardware import get_machine
from repro.mpi import MPIStats, run_world
from repro.mpi.comm import World
from repro.storage import pack_graph

__all__ = ["WORKLOADS", "make_workload"]

#: The dataset is generated in this many equal slices, each timed, so that
#: ``setup_s`` can be taken from the steadiest of several set-ups' worth of
#: work without generating the dataset several times (see run.py).
SETUP_CHUNKS = 5

_PAPER_CELL = dict(
    machine="perlmutter",
    n_nodes=4,
    dataset="aisd-ex-discrete",
    batch_size=64,
    steps_per_epoch=8,
    epochs=3,
    shuffle="global",
    hidden_dim=200,
)

WORKLOADS: dict[str, dict] = {
    "paper_default": dict(
        why="Paper-faithful fig5/fig9 path, every DataPlaneOptions default: per-batch "
        "plan + RMA get; bypasses cache, waves, columnar, nodeagg, serving, retry.",
        params=dict(_PAPER_CELL, methods=["ddstore"]),
        smoke=dict(n_nodes=1, batch_size=8, steps_per_epoch=2, epochs=2, hidden_dim=4),
    ),
    "composed": dict(
        why="Composed feature cell (columnar + tiered belady cache + depth-8 waves + "
        "node-aggregated fetch, width 8 on 6-GPU nodes): arena/wave/tier/planner "
        "paths do the work, per-sample RMA little.",
        params=dict(
            machine="summit",
            n_nodes=4,
            width=8,
            dataset="aisd-ex-smooth",
            batch_size=8,
            steps_per_epoch=3,
            epochs=8,
            shuffle="global",
            hidden_dim=4,
            columnar=True,
            scheduler=True,
            prefetch_depth=8,
            cache_policy="belady",
            node_fetch=True,
            # per-rank epoch working set is 8 x 3 x ~150 KB = 3.6 MB: the DRAM
            # tier is smaller than it, the node-shared NVMe tier holds it.
            tiers="gpu:512k+dram:2m+nvme:64m",
            methods=["ddstore"],
        ),
        smoke=dict(n_nodes=2, width=4, batch_size=2, steps_per_epoch=2, epochs=2,
                   tiers="gpu:256k+dram:512k+nvme:16m"),
    ),
    "file_baseline": dict(
        why="The paper's PFF then CFF baselines back to back on the paper_default cell: "
        "vfs/formats/pfs do all the work, core/dataplane/rma none (the bypass workload).",
        params=dict(_PAPER_CELL, methods=["pff", "cff"]),
        smoke=dict(n_nodes=1, batch_size=8, steps_per_epoch=2, epochs=2, hidden_dim=4),
    ),
    "churn": dict(
        why="Three concurrent tenants on one served store under a 10x straggler, with a "
        "live reshard between two phases: sessions, DRR lanes, prefetch_wave, "
        "retry/failover and the bulk reshard shuffle.",
        params=dict(
            machine="perlmutter",
            n_nodes=4,
            n_samples=4096,
            width=16,
            reshard_width=8,
            cache_bytes=4 << 20,
            timeout_s=2e-3,
            max_retries=2,
            fault_plan="straggler-10x",
            # (name, qos, batch, steps per phase, compute s, waves ahead)
            tenants=[
                ["dash", "interactive", 8, 60, 0.2e-3, 0],
                ["bulk1", "batch", 64, 6, 1e-3, 2],
                ["bulk2", "batch", 64, 6, 1e-3, 2],
            ],
        ),
        smoke=dict(n_nodes=1, n_samples=128, width=4, reshard_width=2,
                   tenants=[["dash", "interactive", 4, 6, 0.2e-3, 0],
                            ["bulk1", "batch", 16, 2, 1e-3, 2],
                            ["bulk2", "batch", 16, 2, 1e-3, 2]]),
    ),
}


def _params(name: str, smoke: bool) -> dict:
    spec = WORKLOADS[name]
    return dict(spec["params"], **(spec["smoke"] if smoke else {}))


@contextmanager
def _captured_worlds(sink: list):
    """Collect every World the harness builds (it does not hand them back)."""
    original = World.attach_observer

    def attach_observer(self, observer):
        sink.append(self)
        return original(self, observer)

    World.attach_observer = attach_observer
    try:
        yield
    finally:
        World.attach_observer = original


def _latency_ms(latencies: np.ndarray) -> tuple[float, float]:
    p50, p99 = np.percentile(latencies, [50, 99])
    return float(p50) * 1e3, float(p99) * 1e3


class HarnessWorkload:
    """One or more ``run_experiment`` cells run back to back per repeat."""

    def __init__(self, name: str, seed: int, smoke: bool = False) -> None:
        params = _params(name, smoke)
        self.name = name
        self.seed = seed
        self.params = params
        cell = {k: v for k, v in params.items() if k != "methods"}
        self.configs = [
            ExperimentConfig(method=m, seed=seed, **cell) for m in params["methods"]
        ]
        self.dataset = params["dataset"]
        self.n_samples = self.configs[0].resolved_samples()
        self.n_ranks = self.configs[0].n_ranks
        self.has_trainer = True

    # -- set-up: generate + pack the dataset from the seed -------------------
    def setup_steps(self):
        """One callable per dataset slice (``packed_blobs`` only grows)."""
        for k in range(1, SETUP_CHUNKS + 1):
            n = self.n_samples * k // SETUP_CHUNKS
            yield lambda n=n: packed_blobs(self.dataset, self.seed, n)

    def reference_blobs(self):
        return packed_blobs(self.dataset, self.seed, self.n_samples)

    def expected_deliveries(self) -> int:
        p = self.params
        return len(self.configs) * self.n_ranks * p["batch_size"] * p["steps_per_epoch"] * p["epochs"]

    # -- one repeat -----------------------------------------------------------
    def run(self, make_observer, want_detail: bool = False) -> dict:
        results, observers, worlds = [], [], []
        with _captured_worlds(worlds) if want_detail else nullcontext():
            for cfg in self.configs:
                obs = make_observer()
                observers.append(obs)
                results.append(run_experiment(cfg, observer=obs))
        lat = np.concatenate([r.latencies for r in results])
        p50, p99 = _latency_ms(lat)
        samples = sum(r.total_samples for r in results)
        elapsed = sum(r.elapsed for r in results)
        virtual = dict(
            samples_per_virtual_s=samples / elapsed,
            data_wait_virtual_s=sum(r.data_wait for r in results),
            load_p50_virtual_ms=p50,
            load_p99_virtual_ms=p99,
            inter_node_bytes=sum(r.inter_node_bytes for r in results),
            preload_virtual_s=sum(r.preload_time for r in results),
            total_samples=samples,
            n_latencies=int(lat.size),
            elapsed_virtual_s=elapsed,
        )
        out = dict(virtual=virtual)
        if want_detail:
            mpi = MPIStats()
            for r in results:
                mpi = mpi.merged(r.mpi_stats)
            phases: dict[str, float] = {}
            for r in results:
                for k, v in r.phases.seconds.items():
                    phases[k] = phases.get(k, 0.0) + v
            load_total = sum(phases.get(k, 0.0) for k in ("cpu_loading", "cpu_batching"))
            out["detail"] = dict(
                n_ranks=self.n_ranks,
                observers=observers,
                worlds=worlds,
                mpi=mpi,
                node_nic=[r.node_nic for r in results],
                phases=phases,
                overlap_efficiency=(
                    max(0.0, load_total - virtual["data_wait_virtual_s"]) / load_total
                    if load_total > 0 else 0.0
                ),
                method_throughput={r.config.method: r.throughput for r in results},
            )
        return out


# ---------------------------------------------------------------------------
# churn: concurrent tenants + straggler + live reshard (no trainer)
# ---------------------------------------------------------------------------


def _tenant_job(ctx, session, spec, t_index, n_samples, seed, phase, out):
    """One tenant's closed loop on one rank for one phase."""
    name, _qos, batch, steps, compute_s, ahead = spec
    rng = np.random.default_rng((seed, t_index, ctx.rank, phase))
    batches = [rng.integers(0, n_samples, size=batch) for _ in range(steps)]
    rec = out.setdefault(name, dict(latencies=[], n_samples=0, blocked_s=0.0))
    for k, idx in enumerate(batches):
        t0 = ctx.now
        if ahead:
            yield from session.prefetch_wave(batches[k : k + ahead])
        got = yield from session.get_samples(idx, decode=False)
        dt = ctx.now - t0
        rec["latencies"].append(dt)
        rec["blocked_s"] += dt
        rec["n_samples"] += len(got)
        yield ctx.engine.timeout(compute_s)


def _churn_rank_main(ctx, p, seed):
    source = GeneratorSource(IsingGenerator(p["n_samples"], seed=seed), ctx.world.machine)
    t_build = ctx.now
    service = yield from client.serve(
        ctx.comm,
        source,
        width=p["width"],
        dataplane=DataPlaneOptions(cache_bytes=p["cache_bytes"], scheduler=True),
        resilience=ResilienceOptions(
            timeout_s=p["timeout_s"], max_retries=p["max_retries"], failover=True
        ),
        serving=ServingOptions(max_tenants=len(p["tenants"])),
    )
    preload = ctx.now - t_build
    sessions = [service.connect(t[0], qos=t[1]) for t in p["tenants"]]
    out: dict = {}
    yield from ctx.comm.barrier()
    t_begin = ctx.now
    reshard_s = 0.0
    reshard_bytes = 0
    for phase in (0, 1):
        procs = [
            ctx.engine.process(
                _tenant_job(ctx, sessions[i], t, i, p["n_samples"], seed, phase, out),
                name=f"{t[0]}@{ctx.rank}",
            )
            for i, t in enumerate(p["tenants"])
        ]
        yield ctx.engine.all_of(procs)
        if phase == 0:
            t0 = ctx.now
            b0 = ctx.stats.bytes_by_call.get("MPI_Get", 0)
            yield from service.reshard(width=p["reshard_width"])
            reshard_s = ctx.now - t0
            reshard_bytes = ctx.stats.bytes_by_call.get("MPI_Get", 0) - b0
    window = ctx.now - t_begin
    yield from ctx.comm.barrier()
    queue_s = sum(s.lane.queue_seconds for s in sessions)
    service.close()
    return dict(
        window=window,
        preload=preload,
        reshard_s=reshard_s,
        reshard_bytes=reshard_bytes,
        queue_s=queue_s,
        tenants=out,
    )


class ChurnWorkload:
    def __init__(self, name: str, seed: int, smoke: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.params = _params(name, smoke)
        self.machine = get_machine(self.params["machine"])
        self.n_ranks = self.params["n_nodes"] * self.machine.gpus_per_node
        self.n_samples = self.params["n_samples"]
        self.has_trainer = False
        self._blobs: list[bytes] = []

    def setup_steps(self):
        gen = IsingGenerator(self.n_samples, seed=self.seed)
        for k in range(1, SETUP_CHUNKS + 1):
            hi = self.n_samples * k // SETUP_CHUNKS

            def step(hi=hi):
                for i in range(len(self._blobs), hi):
                    self._blobs.append(pack_graph(gen.make(i)))

            yield step

    def reference_blobs(self):
        return self._blobs

    def expected_deliveries(self) -> int:
        return 2 * self.n_ranks * sum(t[2] * t[3] for t in self.params["tenants"])

    def run(self, make_observer, want_detail: bool = False) -> dict:
        p = self.params
        world = World(self.machine, p["n_nodes"], seed=self.seed)
        install_faults(world, build_fault_plan(p["fault_plan"], world.n_ranks, self.seed))
        observer = make_observer()
        world.attach_observer(observer)
        job = run_world(
            self.machine, p["n_nodes"], _churn_rank_main, p, self.seed,
            seed=self.seed, world=world,
        )
        ranks = job.results
        window = max(r["window"] for r in ranks)
        interactive = [t[0] for t in p["tenants"] if t[1] == "interactive"]
        lat = np.concatenate(
            [r["tenants"][name]["latencies"] for r in ranks for name in interactive]
        )
        p50, p99 = _latency_ms(lat)
        samples = sum(t["n_samples"] for r in ranks for t in r["tenants"].values())
        blocked = sum(t["blocked_s"] for r in ranks for t in r["tenants"].values())
        nodes = world.cluster.nodes
        virtual = dict(
            samples_per_virtual_s=samples / window,
            data_wait_virtual_s=blocked / len(ranks),
            load_p50_virtual_ms=p50,
            load_p99_virtual_ms=p99,
            inter_node_bytes=int(sum(n.nic_out.bytes_served for n in nodes)),
            preload_virtual_s=max(r["preload"] for r in ranks),
            total_samples=samples,
            n_latencies=int(lat.size),
            elapsed_virtual_s=window,
        )
        out = dict(virtual=virtual)
        if want_detail:
            horizon = world.engine.now
            bulk = sum(
                t["n_samples"]
                for r in ranks
                for name, t in r["tenants"].items()
                if name not in interactive
            )
            out["detail"] = dict(
                n_ranks=len(ranks),
                observers=[observer],
                worlds=[world],
                mpi=job.merged_stats(),
                node_nic=[[
                    dict(
                        tx_bytes=int(n.nic_out.bytes_served),
                        tx_busy_s=float(n.nic_out.busy_time),
                        tx_util=float(n.nic_out.utilisation(horizon)),
                    )
                    for n in nodes
                ]],
                phases={},
                overlap_efficiency=0.0,
                method_throughput={},
                churn=dict(
                    reshard_virtual_s=max(r["reshard_s"] for r in ranks),
                    reshard_bytes=sum(r["reshard_bytes"] for r in ranks),
                    queue_virtual_s=sum(r["queue_s"] for r in ranks),
                    bulk_samples_per_virtual_s=bulk / window,
                ),
            )
        return out


def make_workload(name: str, seed: int, smoke: bool = False):
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; options: {sorted(WORKLOADS)}")
    cls = ChurnWorkload if name == "churn" else HarnessWorkload
    return cls(name, seed, smoke)
