"""Per-figure experiment drivers: one function per table/figure of the paper.

Every driver returns ``(text, data)`` — a rendered paper-style table and a
JSON-serialisable dict — and is invoked by the corresponding file under
``benchmarks/``.  Experiment results are cached per configuration so
figures that share runs (e.g. Fig 4/5/6/Table 2 all use the 64-GPU
Perlmutter matrix) simulate each cell once per process.

Scale profiles (env ``REPRO_BENCH_SCALE``):

* ``tiny``  — smoke-test sizes (used by the test suite),
* ``small`` — default: Perlmutter cells at the paper's 64-GPU size,
  Summit and the scaling sweeps reduced to fit a laptop run,
* ``paper`` — the paper's full node counts (expensive).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..graphs import DATASETS, GraphStats
from ..storage import unpack_graph
from .harness import ExperimentConfig, ExperimentResult, packed_blobs, run_experiment
from .metrics import cdf, geomean, latency_percentiles, speedup_table
from .plotting import ascii_cdf, ascii_plot
from .reporting import render_table

__all__ = [
    "ScaleProfile",
    "current_profile",
    "cached_experiment",
    "clear_experiment_cache",
    "table1_datasets",
    "fig4_speedup",
    "fig5_breakdown",
    "fig6_latency_cdf",
    "table2_percentiles",
    "fig7_profile",
    "fig8_scaling",
    "fig9_function_breakdown",
    "fig10_global_batch",
    "fig11_width",
    "fig12_width_cdf",
    "table3_width_median",
    "fig13_convergence",
]

BASELINE = "pff"
METHOD_LABELS = {"pff": "PFF", "cff": "CFF", "ddstore": "DDStore", "ddstore-p2p": "DDStore(p2p)"}

# The four evaluation datasets of Fig 4-6 / Table 2.  The paper runs the
# 37,500-dim smooth set on Summit and the 351-dim trim on Perlmutter; we
# use the trimmed variant everywhere and model the full container size via
# logical scaling (see DESIGN.md).
EVAL_DATASETS = ("ising", "aisd", "aisd-ex-discrete", "aisd-ex-smooth-small")
DATASET_LABELS = {
    "ising": "Ising",
    "aisd": "AISD HOMO-LUMO",
    "aisd-ex-discrete": "AISD-Ex (Discrete)",
    "aisd-ex-smooth": "AISD-Ex (Smooth)",
    "aisd-ex-smooth-small": "AISD-Ex (Smooth)",
}


@dataclass(frozen=True)
class ScaleProfile:
    name: str
    summit_nodes: int  # Fig 4a (paper: 64 -> 384 GPUs)
    perlmutter_nodes: int  # Fig 4b/5/6/Table2 (paper: 16 -> 64 GPUs)
    scaling_nodes: tuple[int, ...]  # Fig 8/9/10 sweep (paper: 8..256)
    width_nodes: int  # Fig 11 (paper: 64)
    batch_size: int
    steps_per_epoch: int
    convergence_epochs: int
    convergence_samples: int
    convergence_hidden: int


_PROFILES = {
    "tiny": ScaleProfile(
        name="tiny",
        summit_nodes=1,
        perlmutter_nodes=1,
        scaling_nodes=(1, 2),
        width_nodes=1,
        batch_size=8,
        steps_per_epoch=1,
        convergence_epochs=4,
        convergence_samples=48,
        convergence_hidden=8,
    ),
    "small": ScaleProfile(
        name="small",
        summit_nodes=8,  # 48 GPUs (paper: 64 nodes / 384 GPUs)
        perlmutter_nodes=16,  # 64 GPUs — paper-exact
        scaling_nodes=(2, 4, 8, 16),
        width_nodes=8,
        batch_size=128,
        steps_per_epoch=2,
        convergence_epochs=60,
        convergence_samples=384,
        convergence_hidden=40,
    ),
    "paper": ScaleProfile(
        name="paper",
        summit_nodes=64,
        perlmutter_nodes=16,
        scaling_nodes=(8, 16, 32, 64, 128, 256),
        width_nodes=64,
        batch_size=128,
        steps_per_epoch=3,
        convergence_epochs=100,
        convergence_samples=1024,
        convergence_hidden=64,
    ),
}


def current_profile() -> ScaleProfile:
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(f"REPRO_BENCH_SCALE must be one of {sorted(_PROFILES)}") from None


# ---------------------------------------------------------------------------
# shared experiment cache
# ---------------------------------------------------------------------------

_RESULT_CACHE: dict[ExperimentConfig, ExperimentResult] = {}


def cached_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    result = _RESULT_CACHE.get(cfg)
    if result is None:
        result = run_experiment(cfg)
        _RESULT_CACHE[cfg] = result
    return result


def clear_experiment_cache() -> None:
    _RESULT_CACHE.clear()


def _matrix(
    machine: str,
    n_nodes: int,
    profile: ScaleProfile,
    datasets: Sequence[str] = EVAL_DATASETS,
    methods: Sequence[str] = ("pff", "cff", "ddstore"),
    **overrides,
) -> dict[str, dict[str, ExperimentResult]]:
    out: dict[str, dict[str, ExperimentResult]] = {}
    for ds in datasets:
        out[ds] = {}
        for method in methods:
            cfg = ExperimentConfig(
                machine=machine,
                n_nodes=n_nodes,
                dataset=ds,
                method=method,
                batch_size=profile.batch_size,
                steps_per_epoch=profile.steps_per_epoch,
                **overrides,
            )
            out[ds][method] = cached_experiment(cfg)
    return out


# ---------------------------------------------------------------------------
# Table 1 — dataset description
# ---------------------------------------------------------------------------


def table1_datasets(sample_n: int = 200, seed: int = 0):
    rows = []
    data = {}
    for key in ("ising", "aisd", "aisd-ex-discrete", "aisd-ex-smooth", "aisd-ex-smooth-small"):
        spec = DATASETS[key]
        stats = GraphStats()  # over the cached packed samples every other experiment reads
        for blob in packed_blobs(key, seed, sample_n):
            stats.add(unpack_graph(blob, copy=False))
        scale = spec.paper_n_graphs
        est_bytes = stats.mean_bytes * scale
        rows.append(
            [
                spec.title,
                f"{spec.paper_n_graphs / 1e6:.1f} M",
                f"{stats.mean_nodes * scale / 1e6:,.0f} M",
                f"{stats.mean_edges * scale / 1e6:,.0f} M",
                spec.paper_feature,
                f"{est_bytes / 1e9:,.0f} GB",
                f"{spec.paper_pff_bytes / 1e9:,.0f} GB",
            ]
        )
        data[key] = dict(
            measured_mean_nodes=stats.mean_nodes,
            measured_mean_edges=stats.mean_edges,
            measured_mean_bytes=stats.mean_bytes,
            extrapolated_bytes=est_bytes,
            paper_pff_bytes=spec.paper_pff_bytes,
            paper_cff_bytes=spec.paper_cff_bytes,
        )
    text = render_table(
        ["Dataset", "#Graphs", "#Nodes(extrap)", "#Edges(extrap)", "#Feature", "Bytes(extrap)", "Paper PFF"],
        rows,
        title=f"Table 1 — dataset description ({sample_n} samples measured, extrapolated to paper scale)",
    )
    return text, data


# ---------------------------------------------------------------------------
# Fig 4 — normalized end-to-end speedup
# ---------------------------------------------------------------------------


def fig4_speedup(profile: Optional[ScaleProfile] = None):
    profile = profile or current_profile()
    data = {}
    blocks = []
    for machine, nodes in (
        ("summit", profile.summit_nodes),
        ("perlmutter", profile.perlmutter_nodes),
    ):
        matrix = _matrix(machine, nodes, profile)
        rows = []
        per_method_speedups: dict[str, list[float]] = {m: [] for m in ("pff", "cff", "ddstore")}
        for ds in EVAL_DATASETS:
            tps = {m: r.throughput for m, r in matrix[ds].items()}
            sp = speedup_table(tps, BASELINE)
            for m, v in sp.items():
                per_method_speedups[m].append(v)
            rows.append(
                [DATASET_LABELS[ds]]
                + [f"{sp[m]:.2f}x" for m in ("pff", "cff", "ddstore")]
            )
        gm = {m: geomean(v) for m, v in per_method_speedups.items()}
        rows.append(["Geomean"] + [f"{gm[m]:.2f}x" for m in ("pff", "cff", "ddstore")])
        n_gpus = nodes * (6 if machine == "summit" else 4)
        blocks.append(
            render_table(
                ["Dataset", "PFF", "CFF", "DDStore"],
                rows,
                title=f"Fig 4 — normalized end-to-end training speedup, {machine} ({n_gpus} GPUs)",
            )
        )
        data[machine] = {
            ds: {m: r.throughput for m, r in matrix[ds].items()} for ds in EVAL_DATASETS
        }
        data[machine]["geomean_speedup"] = gm
    return "\n\n".join(blocks), data


# ---------------------------------------------------------------------------
# Fig 5 — end-to-end time breakdown (64 GPUs, Perlmutter)
# ---------------------------------------------------------------------------


def fig5_breakdown(profile: Optional[ScaleProfile] = None):
    profile = profile or current_profile()
    matrix = _matrix("perlmutter", profile.perlmutter_nodes, profile)
    rows = []
    data = {}
    for ds in EVAL_DATASETS:
        for method in ("pff", "cff", "ddstore"):
            r = matrix[ds][method]
            p = r.phases.seconds
            gpu_compute = p["gpu_h2d"] + p["gpu_forward"] + p["gpu_backward"] + p["optimizer"]
            rows.append(
                [
                    f"{DATASET_LABELS[ds]} / {METHOD_LABELS[method]}",
                    f"{p['cpu_loading'] * 1e3:.1f}",
                    f"{p['cpu_batching'] * 1e3:.1f}",
                    f"{gpu_compute * 1e3:.1f}",
                    f"{p['gpu_comm'] * 1e3:.1f}",
                    f"{r.elapsed * 1e3:.1f}",
                ]
            )
            data.setdefault(ds, {})[method] = dict(
                r.phases.seconds,
                elapsed=r.elapsed,
                fetch_stages=dict(r.fetch_stages),
                fetch_counters=dict(r.fetch_counters),
                node_nic=[dict(n) for n in r.node_nic],
            )
    text = render_table(
        ["Dataset / Method", "CPU-Load(ms)", "CPU-Batch(ms)", "GPU-Compute(ms)", "GPU-Comm(ms)", "End2End(ms)"],
        rows,
        title="Fig 5 — end-to-end training time breakdown, 64 GPUs on Perlmutter (per rank, measured epochs)",
    )
    # Fig 5b: where DDStore's own CPU-Loading time goes, stage by stage.
    from .metrics import FETCH_STAGES

    stage_rows = []
    for ds in EVAL_DATASETS:
        stages = matrix[ds]["ddstore"].fetch_stages
        stage_rows.append(
            [DATASET_LABELS[ds]]
            + [f"{stages.get(s, 0.0) * 1e3:.3f}" for s in FETCH_STAGES]
        )
    stage_text = render_table(
        ["Dataset"] + [f"{s}(ms)" for s in FETCH_STAGES],
        stage_rows,
        title="Fig 5b — DDStore data-plane stage breakdown (per rank, measured epochs)",
    )
    # Fig 5c: where the wire bytes actually go — per-node NIC injection/
    # reception utilisation and inter-node bytes (the shared-NIC pressure
    # node-aggregated fetch exists to relieve), labelled by node.
    nic_rows = []
    for ds in EVAL_DATASETS:
        for n in matrix[ds]["ddstore"].node_nic:
            nic_rows.append(
                [
                    DATASET_LABELS[ds],
                    f"node {n['node']}",
                    f"{n['tx_bytes'] / 1e6:.2f}",
                    f"{n['rx_bytes'] / 1e6:.2f}",
                    f"{n['tx_util'] * 100:.1f}",
                    f"{n['rx_util'] * 100:.1f}",
                ]
            )
    nic_text = render_table(
        ["Dataset", "Node", "TX(MB)", "RX(MB)", "TX-util(%)", "RX-util(%)"],
        nic_rows,
        title="Fig 5c — per-node NIC injection: inter-node wire bytes and utilisation (DDStore)",
    )
    return text + "\n\n" + stage_text + "\n\n" + nic_text, data


# ---------------------------------------------------------------------------
# Fig 6 / Table 2 — graph loading latency CDF and percentiles
# ---------------------------------------------------------------------------


def fig6_latency_cdf(profile: Optional[ScaleProfile] = None):
    profile = profile or current_profile()
    matrix = _matrix("perlmutter", profile.perlmutter_nodes, profile)
    data = {}
    rows = []
    points = (10, 25, 50, 75, 90, 95, 99)
    for ds in EVAL_DATASETS:
        for method in ("pff", "cff", "ddstore"):
            lat = matrix[ds][method].latencies
            xs, fs = cdf(lat, n_points=256)
            data.setdefault(ds, {})[method] = dict(x=xs, F=fs)
            pct = latency_percentiles(lat, points)
            rows.append(
                [f"{DATASET_LABELS[ds]} / {METHOD_LABELS[method]}"]
                + [f"{pct[q] * 1e3:.2f}" for q in points]
            )
    text = render_table(
        ["Dataset / Method"] + [f"p{q}(ms)" for q in points],
        rows,
        title="Fig 6 — graph loading latency CDF (64 GPUs on Perlmutter); CDF knots in JSON",
    )
    charts = []
    for ds in EVAL_DATASETS:
        charts.append(
            ascii_cdf(
                {METHOD_LABELS[m]: matrix[ds][m].latencies for m in ("pff", "cff", "ddstore")},
                title=f"CDF — {DATASET_LABELS[ds]}",
                width=60,
                height=12,
            )
        )
    return text + "\n\n" + "\n\n".join(charts), data


def table2_percentiles(profile: Optional[ScaleProfile] = None):
    profile = profile or current_profile()
    matrix = _matrix("perlmutter", profile.perlmutter_nodes, profile)
    rows = []
    data = {}
    for q in (50, 95, 99):
        row = [f"{q}th"]
        for ds in EVAL_DATASETS:
            for method in ("pff", "cff", "ddstore"):
                lat = matrix[ds][method].latencies
                val = latency_percentiles(lat, (q,))[q]
                row.append(f"{val * 1e3:.2f}")
                data.setdefault(ds, {}).setdefault(method, {})[q] = val
        rows.append(row)
    headers = ["Pct"] + [
        f"{DATASET_LABELS[ds][:8]}/{METHOD_LABELS[m]}"
        for ds in EVAL_DATASETS
        for m in ("pff", "cff", "ddstore")
    ]
    text = render_table(
        headers,
        rows,
        title="Table 2 — 50/95/99th percentile of graph loading latency (ms), 64 GPUs on Perlmutter",
    )
    return text, data


# ---------------------------------------------------------------------------
# Fig 7 — Score-P-style profile (share of MPI vs training steps)
# ---------------------------------------------------------------------------


def fig7_profile(profile: Optional[ScaleProfile] = None):
    profile = profile or current_profile()
    cfg = ExperimentConfig(
        machine="summit",
        n_nodes=profile.summit_nodes,
        dataset="aisd-ex-discrete",
        method="ddstore",
        batch_size=profile.batch_size,
        steps_per_epoch=profile.steps_per_epoch,
    )
    r = cached_experiment(cfg)
    p = r.phases.seconds
    total = r.elapsed
    mpi_rma = sum(
        r.mpi_stats.time_by_call.get(c, 0.0)
        for c in ("MPI_Get", "MPI_Win_lock", "MPI_Win_unlock", "MPI_Win_create", "MPI_Win_fence")
    ) / max(cfg.n_ranks, 1)
    mpi_coll = sum(
        r.mpi_stats.time_by_call.get(c, 0.0)
        for c in ("MPI_Allreduce", "MPI_Barrier", "MPI_Bcast", "MPI_Allgather")
    ) / max(cfg.n_ranks, 1)
    loading = p["cpu_loading"] + p["cpu_batching"]
    rows = [
        ["data loading (CPU)", f"{loading:.4f}", f"{100 * loading / total:.1f}%"],
        ["  of which MPI RMA", f"{mpi_rma:.4f}", f"{100 * mpi_rma / total:.1f}%"],
        ["gpu compute", f"{p['gpu_h2d'] + p['gpu_forward'] + p['gpu_backward']:.4f}",
         f"{100 * (p['gpu_h2d'] + p['gpu_forward'] + p['gpu_backward']) / total:.1f}%"],
        ["model sync (collectives)", f"{mpi_coll:.4f}", f"{100 * mpi_coll / total:.1f}%"],
        ["optimizer", f"{p['optimizer']:.4f}", f"{100 * p['optimizer'] / total:.1f}%"],
    ]
    text = render_table(
        ["Region", "seconds/rank", "% of epoch"],
        rows,
        title=f"Fig 7 — profile of HydraGNN+DDStore, AISD-Ex discrete, {cfg.n_nodes} Summit nodes",
    )
    data = dict(
        loading=loading,
        mpi_rma=mpi_rma,
        mpi_collectives=mpi_coll,
        total=total,
        phases=p,
    )
    return text, data


# ---------------------------------------------------------------------------
# Fig 8 / Fig 9 — scaling with a fixed per-GPU batch size
# ---------------------------------------------------------------------------


def fig8_scaling(profile: Optional[ScaleProfile] = None, datasets=("aisd-ex-discrete", "aisd-ex-smooth-small")):
    profile = profile or current_profile()
    data = {}
    blocks = []
    for machine in ("summit", "perlmutter"):
        gpn = 6 if machine == "summit" else 4
        for ds in datasets:
            rows = []
            for nodes in profile.scaling_nodes:
                row = [f"{nodes} nodes ({nodes * gpn} GPUs)"]
                for method in ("pff", "cff", "ddstore"):
                    cfg = ExperimentConfig(
                        machine=machine,
                        n_nodes=nodes,
                        dataset=ds,
                        method=method,
                        batch_size=profile.batch_size,
                        steps_per_epoch=1,
                        warm_page_cache=False,
                        record_latencies=False,
                    )
                    r = cached_experiment(cfg)
                    data.setdefault(machine, {}).setdefault(ds, {}).setdefault(method, []).append(
                        dict(nodes=nodes, gpus=nodes * gpn, throughput=r.throughput)
                    )
                    row.append(f"{r.throughput:,.0f}")
                rows.append(row)
            blocks.append(
                render_table(
                    ["Scale", "PFF (samp/s)", "CFF (samp/s)", "DDStore (samp/s)"],
                    rows,
                    title=f"Fig 8 — scaling, fixed batch {profile.batch_size}, {machine}, {DATASET_LABELS[ds]}",
                )
            )
            blocks.append(
                ascii_plot(
                    {
                        METHOD_LABELS[m]: (
                            [p["gpus"] for p in data[machine][ds][m]],
                            [p["throughput"] for p in data[machine][ds][m]],
                        )
                        for m in ("pff", "cff", "ddstore")
                    },
                    logx=True,
                    logy=True,
                    width=56,
                    height=12,
                    title=f"scaling shape — {machine} / {DATASET_LABELS[ds]}",
                    xlabel="GPUs",
                    ylabel="samp/s",
                )
            )
    return "\n\n".join(blocks), data


def fig9_function_breakdown(profile: Optional[ScaleProfile] = None):
    """Per-function durations of DDStore training across the Fig-8 sweep."""
    profile = profile or current_profile()
    rows = []
    data = {}
    for machine in ("summit", "perlmutter"):
        gpn = 6 if machine == "summit" else 4
        for nodes in profile.scaling_nodes:
            cfg = ExperimentConfig(
                machine=machine,
                n_nodes=nodes,
                dataset="aisd-ex-discrete",
                method="ddstore",
                batch_size=profile.batch_size,
                steps_per_epoch=1,
                warm_page_cache=False,
                record_latencies=False,
            )
            r = cached_experiment(cfg)
            p = r.phases.seconds
            rows.append(
                [
                    f"{machine} {nodes * gpn} GPUs",
                    f"{p['cpu_loading'] * 1e3:.2f}",
                    f"{p['cpu_batching'] * 1e3:.2f}",
                    f"{(p['gpu_h2d'] + p['gpu_forward'] + p['gpu_backward']) * 1e3:.2f}",
                    f"{p['gpu_comm'] * 1e3:.2f}",
                    f"{p['optimizer'] * 1e3:.2f}",
                ]
            )
            data.setdefault(machine, []).append(
                dict(
                    nodes=nodes,
                    phases=p,
                    fetch_stages=dict(r.fetch_stages),
                    fetch_counters=dict(r.fetch_counters),
                    node_nic=[dict(nn) for nn in r.node_nic],
                )
            )
    text = render_table(
        ["Scale", "Load(ms)", "Batch(ms)", "GPU(ms)", "Comm(ms)", "Opt(ms)"],
        rows,
        title="Fig 9 — function durations of DDStore training across scales (per rank)",
    )
    # Fig 9b: the loading column split into data-plane stages per scale.
    from .metrics import FETCH_STAGES

    stage_rows = []
    for machine in ("summit", "perlmutter"):
        gpn = 6 if machine == "summit" else 4
        for point in data[machine]:
            stages = point["fetch_stages"]
            stage_rows.append(
                [f"{machine} {point['nodes'] * gpn} GPUs"]
                + [f"{stages.get(s, 0.0) * 1e3:.3f}" for s in FETCH_STAGES]
            )
    stage_text = render_table(
        ["Scale"] + [f"{s}(ms)" for s in FETCH_STAGES],
        stage_rows,
        title="Fig 9b — DDStore fetch-stage durations across scales (per rank)",
    )
    # Fig 9c: per-node NIC injection across the sweep — inter-node wire
    # bytes and utilisation by node (full per-node detail in the JSON).
    nic_rows = []
    for machine in ("summit", "perlmutter"):
        gpn = 6 if machine == "summit" else 4
        for point in data[machine]:
            for n in point["node_nic"]:
                nic_rows.append(
                    [
                        f"{machine} {point['nodes'] * gpn} GPUs",
                        f"node {n['node']}",
                        f"{n['tx_bytes'] / 1e6:.2f}",
                        f"{n['rx_bytes'] / 1e6:.2f}",
                        f"{n['tx_util'] * 100:.1f}",
                        f"{n['rx_util'] * 100:.1f}",
                    ]
                )
    nic_text = render_table(
        ["Scale", "Node", "TX(MB)", "RX(MB)", "TX-util(%)", "RX-util(%)"],
        nic_rows,
        title="Fig 9c — per-node NIC injection: inter-node wire bytes and utilisation",
    )
    return text + "\n\n" + stage_text + "\n\n" + nic_text, data


# ---------------------------------------------------------------------------
# Fig 10 — fixed global batch size
# ---------------------------------------------------------------------------


def fig10_global_batch(profile: Optional[ScaleProfile] = None):
    profile = profile or current_profile()
    data = {}
    blocks = []
    for machine, global_batch in (("summit", 6144), ("perlmutter", 4096)):
        gpn = 6 if machine == "summit" else 4
        rows = []
        for nodes in profile.scaling_nodes:
            ranks = nodes * gpn
            local_batch = max(1, global_batch // ranks)
            row = [f"{nodes} nodes (local batch {local_batch})"]
            for method in ("pff", "cff", "ddstore"):
                cfg = ExperimentConfig(
                    machine=machine,
                    n_nodes=nodes,
                    dataset="aisd-ex-discrete",
                    method=method,
                    batch_size=local_batch,
                    steps_per_epoch=1,
                    warm_page_cache=False,
                    record_latencies=False,
                )
                r = cached_experiment(cfg)
                data.setdefault(machine, {}).setdefault(method, []).append(
                    dict(nodes=nodes, local_batch=local_batch, throughput=r.throughput)
                )
                row.append(f"{r.throughput:,.0f}")
            rows.append(row)
        blocks.append(
            render_table(
                ["Scale", "PFF (samp/s)", "CFF (samp/s)", "DDStore (samp/s)"],
                rows,
                title=f"Fig 10 — fixed global batch ({global_batch}), {machine}, AISD-Ex discrete",
            )
        )
    return "\n\n".join(blocks), data


# ---------------------------------------------------------------------------
# Fig 11 / Fig 12 / Table 3 — the width parameter
# ---------------------------------------------------------------------------


def _width_sweep_values(n_ranks: int) -> list[int]:
    widths = []
    w = 2
    while w <= n_ranks:
        if n_ranks % w == 0:
            widths.append(w)
        w *= 2
    if n_ranks not in widths:
        widths.append(n_ranks)
    return widths


def fig11_width(profile: Optional[ScaleProfile] = None):
    profile = profile or current_profile()
    data = {}
    blocks = []
    for machine in ("summit", "perlmutter"):
        gpn = 6 if machine == "summit" else 4
        nodes = profile.width_nodes
        ranks = nodes * gpn
        rows = []
        for width in _width_sweep_values(ranks):
            cfg = ExperimentConfig(
                machine=machine,
                n_nodes=nodes,
                dataset="aisd-ex-discrete",
                method="ddstore",
                width=width,
                batch_size=profile.batch_size,
                steps_per_epoch=profile.steps_per_epoch,
                record_latencies=False,
            )
            r = cached_experiment(cfg)
            rows.append([str(width), f"{r.throughput:,.0f}"])
            data.setdefault(machine, []).append(dict(width=width, throughput=r.throughput))
        blocks.append(
            render_table(
                ["Width", "Throughput (samp/s)"],
                rows,
                title=f"Fig 11 — DDStore width sweep, {machine}, {nodes} nodes ({ranks} ranks), AISD-Ex discrete",
            )
        )
    return "\n\n".join(blocks), data


def fig12_width_cdf(profile: Optional[ScaleProfile] = None):
    profile = profile or current_profile()
    nodes = profile.perlmutter_nodes
    ranks = nodes * 4
    data = {}
    rows = []
    points = (10, 25, 50, 75, 90, 95, 99)
    for ds in EVAL_DATASETS:
        for width in (ranks, 2):  # default (w = N) vs the paper's w = 2
            cfg = ExperimentConfig(
                machine="perlmutter",
                n_nodes=nodes,
                dataset=ds,
                method="ddstore",
                width=width,
                batch_size=profile.batch_size,
                steps_per_epoch=profile.steps_per_epoch,
            )
            r = cached_experiment(cfg)
            xs, fs = cdf(r.latencies, n_points=256)
            data.setdefault(ds, {})[f"width={width}"] = dict(x=xs, F=fs)
            pct = latency_percentiles(r.latencies, points)
            rows.append(
                [f"{DATASET_LABELS[ds]} / w={width}"]
                + [f"{pct[q] * 1e3:.3f}" for q in points]
            )
    text = render_table(
        ["Dataset / Width"] + [f"p{q}(ms)" for q in points],
        rows,
        title=f"Fig 12 — loading latency CDF, width={ranks} (default) vs width=2, {nodes} Perlmutter nodes",
    )
    sample = EVAL_DATASETS[1]
    chart = ascii_plot(
        {
            label: (curve["x"] / 1e-3, curve["F"])
            for label, curve in data[sample].items()
        },
        logx=True,
        width=60,
        height=12,
        title=f"CDF — {DATASET_LABELS[sample]}, default width vs width=2",
        xlabel="ms",
        ylabel="CDF",
    )
    return text + "\n\n" + chart, data


def table3_width_median(profile: Optional[ScaleProfile] = None):
    profile = profile or current_profile()
    nodes = profile.perlmutter_nodes
    ranks = nodes * 4
    rows = []
    data = {}
    for ds in EVAL_DATASETS:
        medians = {}
        for width in (ranks, 2):
            cfg = ExperimentConfig(
                machine="perlmutter",
                n_nodes=nodes,
                dataset=ds,
                method="ddstore",
                width=width,
                batch_size=profile.batch_size,
                steps_per_epoch=profile.steps_per_epoch,
            )
            r = cached_experiment(cfg)
            medians[width] = latency_percentiles(r.latencies, (50,))[50]
        reduction = 100.0 * (1.0 - medians[2] / medians[ranks])
        rows.append(
            [
                DATASET_LABELS[ds],
                f"{medians[ranks] * 1e3:.3f}",
                f"{medians[2] * 1e3:.3f}",
                f"{reduction:.2f}%",
            ]
        )
        data[ds] = dict(default=medians[ranks], w2=medians[2], reduction_pct=reduction)
    text = render_table(
        ["Dataset", f"width={ranks} (ms)", "width=2 (ms)", "reduction"],
        rows,
        title="Table 3 — 50th percentile loading latency: default width vs width=2",
    )
    return text, data


# ---------------------------------------------------------------------------
# Fig 13 — training convergence (real numerics)
# ---------------------------------------------------------------------------


def fig13_convergence(profile: Optional[ScaleProfile] = None, seed: int = 0):
    """Full real-compute HydraGNN training on the smooth UV-vis dataset
    with DDStore + ReduceLROnPlateau, tracking train/val/test MSE."""
    from ..core import DataLoader, DDStore, DDStoreDataset, GeneratorSource, GlobalShuffleSampler
    from ..gnn import AdamW, DistributedModel, HydraGNN, HydraGNNConfig, ReduceLROnPlateau, Trainer
    from ..graphs import SpectrumGenerator
    from ..hardware import SUMMIT
    from ..mpi import run_world

    profile = profile or current_profile()
    n = profile.convergence_samples
    epochs = profile.convergence_epochs
    hidden = profile.convergence_hidden
    n_train = int(n * 0.8)
    n_val = int(n * 0.1)

    def main(ctx):
        # Label noise puts an irreducible floor under the MSE (as DFTB
        # labels do), so validation genuinely plateaus and the LR schedule
        # engages mid-run as in the paper.
        gen = SpectrumGenerator(
            n, mode="smooth", grid_size=351, seed=seed, target_noise=0.03
        )
        src = GeneratorSource(gen, ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, src)
        model = HydraGNN(
            HydraGNNConfig(
                feature_dim=gen.feature_dim,
                head_dims=(gen.output_dim,),
                hidden_dim=hidden,
                n_conv_layers=3,
                n_fc_layers=2,
            ),
            seed=seed,
        )
        dmodel = DistributedModel(model, ctx.comm)
        yield from dmodel.broadcast_parameters()

        class _TrainView:
            """Restrict sampling to the training split."""

            def __init__(self, ds):
                self.ds = ds
                self.n_samples = n_train
                self.stats_only = False

            def fetch(self, indices):
                return self.ds.fetch(indices)

        dataset = DDStoreDataset(store)
        batch = max(4, min(32, n_train // ctx.size))
        loader = DataLoader(_TrainView(dataset), ctx, batch_size=batch, shuffle="global", seed=seed)
        opt = AdamW(model.params(), lr=1e-3, weight_decay=0.0)
        # Count an epoch as "improving" only when val MSE drops by >2%, so
        # the scheduler engages mid-run as in the paper (LR halves once the
        # curve flattens; Fig 13's drop is at epoch 26).
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=4, threshold=0.02)
        trainer = Trainer(ctx, dmodel, loader, opt, real_compute=True)

        def shard(lo, hi):
            ids = np.arange(lo, hi)
            return ids[ctx.rank :: ctx.size]

        val_ids = shard(n_train, n_train + n_val)
        test_ids = shard(n_train + n_val, n)

        def eval_split(ids):
            # Sample-weighted global mean; some ranks' shards may be empty.
            local = 0.0
            if len(ids):
                local = yield from trainer.evaluate(ids)
            num = yield from ctx.comm.allreduce(local * len(ids), op="sum")
            den = yield from ctx.comm.allreduce(float(len(ids)), op="sum")
            return num / max(den, 1.0)

        history = []
        for epoch in range(epochs):
            report = yield from trainer.train_epoch(epoch)
            val = yield from eval_split(val_ids)
            test = yield from eval_split(test_ids)
            sched.step(val)
            history.append(
                dict(epoch=epoch, train=report.train_loss, val=val, test=test, lr=opt.lr)
            )
        return history

    job = run_world(SUMMIT, 1, main, seed=seed)
    history = job.results[0]
    rows = [
        [h["epoch"], f"{h['train']:.4f}", f"{h['val']:.4f}", f"{h['test']:.4f}", f"{h['lr']:.1e}"]
        for h in history
        if h["epoch"] % max(1, epochs // 15) == 0 or h["epoch"] == epochs - 1
    ]
    text = render_table(
        ["Epoch", "Train MSE", "Val MSE", "Test MSE", "LR"],
        rows,
        title=f"Fig 13 — convergence, AISD-Ex smooth (351-dim), {epochs} epochs, 6 GPUs (1 Summit node)",
    )
    return text, dict(history=history)
