"""Paper artifacts: one driver per table/figure (Tables 1-3, Figs 4-13).

Every driver takes a :class:`~.cells.ScaleProfile` and returns
``(text, data)`` — a rendered paper-style table and a JSON-serialisable
dict whose ``data["checks"]`` names the shape predicates the figure must
satisfy (``python -m repro bench <key> --check`` turns a failed one into
a nonzero exit).  Cells come from the cell table (:mod:`.cells`), runs
and tables from the sweep runner (:mod:`.sweep`).
"""

from __future__ import annotations

import numpy as np

from ..graphs import DATASETS, GraphStats
from ..hardware import get_machine
from ..storage import unpack_graph
from .cells import ScaleProfile, cell
from .harness import packed_blobs
from .metrics import cdf, geomean, percentile, speedup_table
from .plotting import ascii_cdf, ascii_plot
from .reporting import render_table
from .sweep import (
    Sweep,
    cached_experiment,
    eval_split,
    ms,
    named_checks,
    nic_table,
    pct_ms,
    real_trainer,
    record,
    stage_table,
    throughput,
)

BASELINE = "pff"
COMPARED = ("pff", "cff", "ddstore")
MACHINES = ("summit", "perlmutter")
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
CDF_POINTS = (10, 25, 50, 75, 90, 95, 99)
GPU_PHASES = ("gpu_h2d", "gpu_forward", "gpu_backward")
THROUGHPUT_HEADERS = ["Scale", "PFF (samp/s)", "CFF (samp/s)", "DDStore (samp/s)"]


def _gpn(machine: str) -> int:
    return get_machine(machine).gpus_per_node


def _matrix(profile: ScaleProfile, **overrides) -> Sweep:
    """dataset x method on one machine, keyed ``(dataset, method)``."""
    return Sweep(
        "paper",
        profile,
        [
            ((ds, m), dict(dataset=ds, method=m, **overrides))
            for ds in EVAL_DATASETS
            for m in COMPARED
        ],
    )


def _ds_method(key) -> str:
    return f"{DATASET_LABELS[key[0]]} / {METHOD_LABELS[key[1]]}"


def _cdf_curves(runs: Sweep, name=str) -> dict:
    """Fig 6/12 JSON: the 256-knot latency CDF of every run of a sweep
    keyed ``(dataset, x)``, as ``{dataset: {name(x): {x, F}}}``."""
    data = {}
    for (ds, x), r in runs.results.items():
        xs, fs = cdf(r.latencies, n_points=256)
        data.setdefault(ds, {})[name(x)] = dict(x=xs, F=fs)
    return data


def _phase_ms(digits: int, *phases: str):
    """Column: the named trainer phases, summed left to right, in ms."""

    def fmt(r):
        total = 0.0
        for p in phases:
            total += r.phases.seconds[p]
        return f"{total * 1e3:.{digits}f}"

    return fmt


def _stages_ok(stages: dict, *required: str) -> bool:
    """Fig 5b/9b: the named data-plane stages were charged, none negative."""
    return all(stages.get(s, 0.0) > 0.0 for s in required) and all(
        v >= 0.0 for v in stages.values()
    )


# ---------------------------------------------------------------------------
# Table 1 — dataset description
# ---------------------------------------------------------------------------


def table1_datasets(profile: ScaleProfile, sample_n: int = 200):
    """Per-sample statistics extrapolated to paper scale: the same at
    every profile (no ``profile`` field is read)."""
    rows = []
    data = {}
    for key in ("ising", "aisd", "aisd-ex-discrete", "aisd-ex-smooth", "aisd-ex-smooth-small"):
        spec = DATASETS[key]
        stats = GraphStats()  # over the cached packed samples every other experiment reads
        for blob in packed_blobs(key, 0, sample_n):
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
    aisd = data["aisd"]
    data["checks"] = named_checks(
        # paper: 52.4 nodes/graph, ~2 edges/node
        aisd_nodes_per_graph=45 <= aisd["measured_mean_nodes"] <= 60,
        aisd_edges_per_node=1.7 <= aisd["measured_mean_edges"] / aisd["measured_mean_nodes"] <= 2.6,
        # smooth files ~20x the discrete ones (paper: 1.5-1.6 TB vs ~80 GB)
        smooth_10x_discrete=data["aisd-ex-smooth"]["measured_mean_bytes"]
        > 10 * data["aisd-ex-discrete"]["measured_mean_bytes"],
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


def fig4_speedup(profile: ScaleProfile):
    data = {}
    blocks = []
    for machine, nodes in zip(MACHINES, (profile.summit_nodes, profile.perlmutter_nodes)):
        runs = _matrix(profile, machine=machine, n_nodes=nodes)
        tps = {ds: {m: runs[ds, m].throughput for m in COMPARED} for ds in EVAL_DATASETS}
        speedups = {ds: speedup_table(tps[ds], BASELINE) for ds in EVAL_DATASETS}
        gm = {m: geomean([speedups[ds][m] for ds in EVAL_DATASETS]) for m in COMPARED}
        rows = [
            [DATASET_LABELS[ds]] + [f"{speedups[ds][m]:.2f}x" for m in COMPARED]
            for ds in EVAL_DATASETS
        ]
        rows.append(["Geomean"] + [f"{gm[m]:.2f}x" for m in COMPARED])
        blocks.append(
            render_table(
                ["Dataset", "PFF", "CFF", "DDStore"],
                rows,
                title=f"Fig 4 — normalized end-to-end training speedup, {machine} ({nodes * _gpn(machine)} GPUs)",
            )
        )
        data[machine] = {**tps, "geomean_speedup": gm}
    gms = [data[machine]["geomean_speedup"] for machine in MACHINES]
    data["checks"] = named_checks(
        # paper: DDStore geomean 2.93x (Summit) / 4.69x (Perlmutter) over PFF
        ddstore_geomean_2x=all(gm["ddstore"] > 2.0 for gm in gms),
        pff_is_baseline=all(gm["pff"] == 1.0 for gm in gms),
        ddstore_wins_every_dataset=all(
            data[machine][ds]["ddstore"]
            >= max(data[machine][ds]["pff"], data[machine][ds]["cff"]) * 0.95
            for machine in MACHINES
            for ds in EVAL_DATASETS
        ),
    )
    return "\n\n".join(blocks), data


# ---------------------------------------------------------------------------
# Fig 5 — end-to-end time breakdown (64 GPUs, Perlmutter)
# ---------------------------------------------------------------------------


def fig5_breakdown(profile: ScaleProfile):
    runs = _matrix(profile)
    text = runs.table(
        "Dataset / Method",
        (
            ("CPU-Load(ms)", _phase_ms(1, "cpu_loading")),
            ("CPU-Batch(ms)", _phase_ms(1, "cpu_batching")),
            ("GPU-Compute(ms)", _phase_ms(1, *GPU_PHASES, "optimizer")),
            ("GPU-Comm(ms)", _phase_ms(1, "gpu_comm")),
            ("End2End(ms)", ms("elapsed", 1)),
        ),
        title="Fig 5 — end-to-end training time breakdown, 64 GPUs on Perlmutter (per rank, measured epochs)",
        label=_ds_method,
    )
    data = {}
    for (ds, method), r in runs.results.items():
        data.setdefault(ds, {})[method] = dict(
            r.phases.seconds,
            **record(r, ("elapsed", "fetch_stages", "fetch_counters", "node_nic")),
        )
    ddstore = [(DATASET_LABELS[ds], runs[ds, "ddstore"]) for ds in EVAL_DATASETS]
    stage_text = stage_table(
        "Dataset",
        ddstore,
        title="Fig 5b — DDStore data-plane stage breakdown (per rank, measured epochs)",
    )
    nic_text = nic_table(
        "Dataset",
        ddstore,
        title="Fig 5c — per-node NIC injection: inter-node wire bytes and utilisation (DDStore)",
    )
    cells = [data[ds] for ds in EVAL_DATASETS]
    data["checks"] = named_checks(
        # paper: DDStore cuts CPU-Loading by ~90.7% vs PFF / ~84.3% vs CFF
        # on average; require the bulk of the reduction
        ddstore_cuts_loading=all(
            c["ddstore"]["cpu_loading"] < 0.35 * c["pff"]["cpu_loading"] for c in cells
        ),
        loading_dominates_pff_pipeline=all(
            c["pff"]["cpu_loading"] > c["pff"]["cpu_batching"] for c in cells
        ),
        ddstore_stages_charged=all(
            _stages_ok(c["ddstore"]["fetch_stages"], "get", "decode") for c in cells
        ),
    )
    return text + "\n\n" + stage_text + "\n\n" + nic_text, data


# ---------------------------------------------------------------------------
# Fig 6 / Table 2 — graph loading latency CDF and percentiles
# ---------------------------------------------------------------------------


def fig6_latency_cdf(profile: ScaleProfile):
    runs = _matrix(profile)
    data = _cdf_curves(runs)
    text = runs.table(
        "Dataset / Method",
        [(f"p{q}(ms)", pct_ms(q, 2)) for q in CDF_POINTS],
        title="Fig 6 — graph loading latency CDF (64 GPUs on Perlmutter); CDF knots in JSON",
        label=_ds_method,
    )
    charts = [
        ascii_cdf(
            {METHOD_LABELS[m]: runs[ds, m].latencies for m in COMPARED},
            title=f"CDF — {DATASET_LABELS[ds]}",
            width=60,
            height=12,
        )
        for ds in EVAL_DATASETS
    ]
    curves = [c for ds in EVAL_DATASETS for c in data[ds].values()]
    data["checks"] = named_checks(
        cdf_monotone=all(np.all(np.diff(c["x"]) >= 0) for c in curves),
        cdf_ends_at_one=all(c["F"][-1] <= 1.0 + 1e-9 for c in curves),
        # DDStore's CDF sits left of PFF's (faster at the median)
        ddstore_left_of_pff=all(
            np.median(data[ds]["ddstore"]["x"]) < np.median(data[ds]["pff"]["x"])
            for ds in EVAL_DATASETS
        ),
    )
    return text + "\n\n" + "\n\n".join(charts), data


def table2_percentiles(profile: ScaleProfile):
    runs = _matrix(profile)
    quantiles = (50, 95, 99)
    data = {}
    for (ds, method), r in runs.results.items():
        data.setdefault(ds, {})[method] = {q: percentile(r.latencies, q) for q in quantiles}
    rows = [
        [f"{q}th"] + [f"{data[ds][m][q] * 1e3:.2f}" for ds, m in runs.results]
        for q in quantiles
    ]
    headers = ["Pct"] + [f"{DATASET_LABELS[ds][:8]}/{METHOD_LABELS[m]}" for ds, m in runs.results]
    text = render_table(
        headers,
        rows,
        title="Table 2 — 50/95/99th percentile of graph loading latency (ms), 64 GPUs on Perlmutter",
    )
    checks = dict(
        # DDStore p99 stays sub-ms-ish while PFF tails into many ms
        ddstore_tail_below_pff=all(data[ds]["ddstore"][99] < data[ds]["pff"][99] for ds in data),
    )
    if profile.perlmutter_nodes >= 4:  # the bands need inter-node fetches
        ising = data["ising"]
        checks.update(
            # paper bands: DDStore medians 0.24-0.44 ms; PFF 2.2-2.8 ms
            ddstore_median_band=all(1.0e-4 <= data[ds]["ddstore"][50] <= 8.0e-4 for ds in data),
            pff_median_band=all(1.0e-3 <= data[ds]["pff"][50] <= 5.0e-3 for ds in data),
            # the Ising special case: cache-resident CFF beats everyone at
            # the median (paper: 0.19 ms) but DDStore has the shorter tail
            ising_cff_median_wins=ising["cff"][50] < ising["ddstore"][50],
            ising_ddstore_tail_wins=ising["ddstore"][99] < ising["cff"][99],
            # for the big AISD sets, CFF is the slowest at the tail (Fig 6)
            aisd_cff_slow_tail=data["aisd"]["cff"][99] > data["aisd"]["pff"][99] * 0.8,
        )
    data["checks"] = named_checks(**checks)
    return text, data


# ---------------------------------------------------------------------------
# Fig 7 — Score-P-style profile (share of MPI vs training steps)
# ---------------------------------------------------------------------------


def fig7_profile(profile: ScaleProfile):
    cfg = cell("paper", profile, machine="summit", n_nodes=profile.summit_nodes)
    r = cached_experiment(cfg)
    p = r.phases.seconds
    total = r.elapsed

    def per_rank(*calls):
        return sum(r.mpi_stats.time_by_call.get(c, 0.0) for c in calls) / max(cfg.n_ranks, 1)

    mpi_rma = per_rank(
        "MPI_Get", "MPI_Win_lock", "MPI_Win_unlock", "MPI_Win_create", "MPI_Win_fence"
    )
    mpi_coll = per_rank("MPI_Allreduce", "MPI_Barrier", "MPI_Bcast", "MPI_Allgather")
    loading = p["cpu_loading"] + p["cpu_batching"]
    gpu = p["gpu_h2d"] + p["gpu_forward"] + p["gpu_backward"]
    rows = [
        [region, f"{seconds:.4f}", f"{100 * seconds / total:.1f}%"]
        for region, seconds in (
            ("data loading (CPU)", loading),
            ("  of which MPI RMA", mpi_rma),
            ("gpu compute", gpu),
            ("model sync (collectives)", mpi_coll),
            ("optimizer", p["optimizer"]),
        )
    ]
    text = render_table(
        ["Region", "seconds/rank", "% of epoch"],
        rows,
        title=f"Fig 7 — profile of HydraGNN+DDStore, AISD-Ex discrete, {cfg.n_nodes} Summit nodes",
    )
    data = dict(loading=loading, mpi_rma=mpi_rma, mpi_collectives=mpi_coll, total=total, phases=p)
    # paper: data loading ~67% of the epoch, MPI RMA ~35% of overall time
    checks = dict(
        loading_share_bounded=0.0 < loading / total <= 0.95,
        rma_inside_loading=mpi_rma <= loading * 1.2,
    )
    if profile.summit_nodes >= 2:  # needs inter-node fetches to show up
        checks.update(
            loading_share_above_20pct=0.2 <= loading / total,
            rma_share_above_5pct=mpi_rma / total > 0.05,
        )
    data["checks"] = named_checks(**checks)
    return text, data


# ---------------------------------------------------------------------------
# Fig 8 / Fig 9 — scaling with a fixed per-GPU batch size
# ---------------------------------------------------------------------------


def fig8_scaling(profile: ScaleProfile):
    data = {}
    blocks = []
    for machine in MACHINES:
        gpn = _gpn(machine)
        for ds in ("aisd-ex-discrete", "aisd-ex-smooth-small"):
            runs = Sweep(
                "scaling",
                profile,
                [
                    ((n, m), dict(machine=machine, n_nodes=n, dataset=ds, method=m))
                    for n in profile.scaling_nodes
                    for m in COMPARED
                ],
            )
            curves = {
                m: [
                    dict(nodes=n, gpus=n * gpn, throughput=runs[n, m].throughput)
                    for n in profile.scaling_nodes
                ]
                for m in COMPARED
            }
            data.setdefault(machine, {})[ds] = curves
            blocks.append(
                runs.pivot(
                    THROUGHPUT_HEADERS,
                    {n: f"{n} nodes ({n * gpn} GPUs)" for n in profile.scaling_nodes},
                    COMPARED,
                    title=f"Fig 8 — scaling, fixed batch {profile.batch_size}, {machine}, {DATASET_LABELS[ds]}",
                )
            )
            blocks.append(
                ascii_plot(
                    {
                        METHOD_LABELS[m]: (
                            [p["gpus"] for p in curves[m]],
                            [p["throughput"] for p in curves[m]],
                        )
                        for m in COMPARED
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
    all_curves = [c for per_machine in data.values() for c in per_machine.values()]
    data["checks"] = named_checks(
        # near-linear: from first to last point DDStore throughput scales
        # by >= 60% of the ideal factor
        ddstore_scales_60pct_of_ideal=all(
            c["ddstore"][-1]["throughput"] / c["ddstore"][0]["throughput"]
            > 0.6 * c["ddstore"][-1]["gpus"] / c["ddstore"][0]["gpus"]
            for c in all_curves
        ),
        ddstore_leads_at_largest_scale=all(
            c["ddstore"][-1]["throughput"]
            > max(c["pff"][-1]["throughput"], c["cff"][-1]["throughput"])
            for c in all_curves
        ),
    )
    return "\n\n".join(blocks), data


def fig9_function_breakdown(profile: ScaleProfile):
    """Per-function durations of DDStore training across the Fig-8 sweep."""
    runs = Sweep(
        "scaling",
        profile,
        [
            ((machine, n), dict(machine=machine, n_nodes=n))
            for machine in MACHINES
            for n in profile.scaling_nodes
        ],
    )

    def label(key):
        return f"{key[0]} {key[1] * _gpn(key[0])} GPUs"

    text = runs.table(
        "Scale",
        (
            ("Load(ms)", _phase_ms(2, "cpu_loading")),
            ("Batch(ms)", _phase_ms(2, "cpu_batching")),
            ("GPU(ms)", _phase_ms(2, *GPU_PHASES)),
            ("Comm(ms)", _phase_ms(2, "gpu_comm")),
            ("Opt(ms)", _phase_ms(2, "optimizer")),
        ),
        title="Fig 9 — function durations of DDStore training across scales (per rank)",
        label=label,
    )
    data = {}
    for (machine, n), r in runs.results.items():
        data.setdefault(machine, []).append(
            dict(nodes=n, **record(r, ("phases", "fetch_stages", "fetch_counters", "node_nic")))
        )
    labelled = [(label(key), r) for key, r in runs.results.items()]
    stage_text = stage_table(
        "Scale", labelled, title="Fig 9b — DDStore fetch-stage durations across scales (per rank)"
    )
    nic_text = nic_table(
        "Scale",
        labelled,
        title="Fig 9c — per-node NIC injection: inter-node wire bytes and utilisation",
    )
    points = [p for machine in MACHINES for p in data[machine]]
    loads = {m: [p["phases"]["cpu_loading"] for p in data[m]] for m in MACHINES}
    data["checks"] = named_checks(
        phases_nonnegative=all(v >= 0 for p in points for v in p["phases"].values()),
        stages_charged=all(_stages_ok(p["fetch_stages"], "get") for p in points),
        coalescing_never_adds_gets=all(
            p["fetch_counters"]["n_get_calls"] <= p["fetch_counters"]["n_remote"] for p in points
        ),
        # with a fixed local batch, per-rank loading stays roughly flat
        # across scales (that's why DDStore scales near-linearly)
        loading_flat_across_scales=all(
            max(v) < 5.0 * max(min(v), 1e-9) for v in loads.values()
        ),
    )
    return text + "\n\n" + stage_text + "\n\n" + nic_text, data


# ---------------------------------------------------------------------------
# Fig 10 — fixed global batch size
# ---------------------------------------------------------------------------


def fig10_global_batch(profile: ScaleProfile):
    data = {}
    blocks = []
    for machine, global_batch in (("summit", 6144), ("perlmutter", 4096)):
        local = {
            n: max(1, global_batch // (n * _gpn(machine))) for n in profile.scaling_nodes
        }
        runs = Sweep(
            "scaling",
            profile,
            [
                ((n, m), dict(machine=machine, n_nodes=n, method=m, batch_size=local[n]))
                for n in profile.scaling_nodes
                for m in COMPARED
            ],
        )
        data[machine] = {
            m: [
                dict(nodes=n, local_batch=local[n], throughput=runs[n, m].throughput)
                for n in profile.scaling_nodes
            ]
            for m in COMPARED
        }
        blocks.append(
            runs.pivot(
                THROUGHPUT_HEADERS,
                {n: f"{n} nodes (local batch {local[n]})" for n in profile.scaling_nodes},
                COMPARED,
                title=f"Fig 10 — fixed global batch ({global_batch}), {machine}, AISD-Ex discrete",
            )
        )
    pairs = [
        [(d["throughput"], p["throughput"]) for d, p in zip(data[m]["ddstore"], data[m]["pff"])]
        for m in MACHINES
    ]
    data["checks"] = named_checks(
        ddstore_ahead_of_pff_everywhere=all(d > p for v in pairs for d, p in v),
        # the paper notes the gap narrows as the local batch shrinks
        gap_does_not_widen=all(
            v[-1][0] / v[-1][1] <= v[0][0] / v[0][1] * 1.5 for v in pairs
        ),
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


def fig11_width(profile: ScaleProfile):
    data = {}
    blocks = []
    nodes = profile.width_nodes
    for machine in MACHINES:
        ranks = nodes * _gpn(machine)
        runs = Sweep(
            "paper",
            profile,
            [
                (w, dict(machine=machine, n_nodes=nodes, width=w))
                for w in _width_sweep_values(ranks)
            ],
        )
        blocks.append(
            runs.table(
                "Width",
                (("Throughput (samp/s)", throughput),),
                title=f"Fig 11 — DDStore width sweep, {machine}, {nodes} nodes ({ranks} ranks), AISD-Ex discrete",
            )
        )
        data[machine] = [dict(width=w, throughput=r.throughput) for w, r in runs.results.items()]
    tps = [[p["throughput"] for p in data[machine]] for machine in MACHINES]
    data["checks"] = named_checks(
        # paper: width moves end-to-end throughput by < ~10%; allow 30%
        # spread in the scaled-down reproduction
        width_moves_throughput_under_30pct=all(max(v) / min(v) < 1.3 for v in tps),
    )
    return "\n\n".join(blocks), data


def _default_vs_width2(profile: ScaleProfile) -> tuple[Sweep, int]:
    """Every evaluation dataset at the default width (w = N) and at the
    paper's w = 2, keyed ``(dataset, width)``; also returns N."""
    ranks = profile.perlmutter_nodes * _gpn("perlmutter")
    runs = Sweep(
        "paper",
        profile,
        [((ds, w), dict(dataset=ds, width=w)) for ds in EVAL_DATASETS for w in (ranks, 2)],
    )
    return runs, ranks


def fig12_width_cdf(profile: ScaleProfile):
    runs, ranks = _default_vs_width2(profile)
    data = _cdf_curves(runs, name="width={}".format)
    text = runs.table(
        "Dataset / Width",
        [(f"p{q}(ms)", pct_ms(q)) for q in CDF_POINTS],
        title=f"Fig 12 — loading latency CDF, width={ranks} (default) vs width=2, {profile.perlmutter_nodes} Perlmutter nodes",
        label=lambda key: f"{DATASET_LABELS[key[0]]} / w={key[1]}",
    )
    sample = EVAL_DATASETS[1]
    chart = ascii_plot(
        {label: (curve["x"] / 1e-3, curve["F"]) for label, curve in data[sample].items()},
        logx=True,
        width=60,
        height=12,
        title=f"CDF — {DATASET_LABELS[sample]}, default width vs width=2",
        xlabel="ms",
        ylabel="CDF",
    )
    data["checks"] = named_checks(
        # half of the graphs load much faster at width=2 (paper Fig 12)
        width2_median_left_of_default=all(
            np.median(data[ds]["width=2"]["x"]) < np.median(data[ds][f"width={ranks}"]["x"])
            for ds in EVAL_DATASETS
        ),
    )
    return text + "\n\n" + chart, data


def table3_width_median(profile: ScaleProfile):
    runs, ranks = _default_vs_width2(profile)
    rows = []
    data = {}
    for ds in EVAL_DATASETS:
        default, w2 = (percentile(runs[ds, w].latencies, 50) for w in (ranks, 2))
        reduction = 100.0 * (1.0 - w2 / default)
        rows.append(
            [DATASET_LABELS[ds], f"{default * 1e3:.3f}", f"{w2 * 1e3:.3f}", f"{reduction:.2f}%"]
        )
        data[ds] = dict(default=default, w2=w2, reduction_pct=reduction)
    text = render_table(
        ["Dataset", f"width={ranks} (ms)", "width=2 (ms)", "reduction"],
        rows,
        title="Table 3 — 50th percentile loading latency: default width vs width=2",
    )
    # The effect needs multiple nodes: at width=2 fetches become intra-node
    # shared-memory loads.  On a single-node tiny profile everything is
    # already intra-node, so only the direction is required there.
    min_cut = 40.0 if profile.perlmutter_nodes >= 4 else 0.0
    table = [data[ds] for ds in EVAL_DATASETS]
    data["checks"] = named_checks(
        # paper: 79-87% median reduction at width=2
        median_reduction_above_bar=all(row["reduction_pct"] > min_cut for row in table),
        width2_median_below_default=all(row["w2"] < row["default"] for row in table),
    )
    return text, data


# ---------------------------------------------------------------------------
# Fig 13 — training convergence (real numerics)
# ---------------------------------------------------------------------------


def fig13_convergence(profile: ScaleProfile):
    """Full real-compute HydraGNN training on the smooth UV-vis dataset
    with DDStore + ReduceLROnPlateau, tracking train/val/test MSE."""
    from ..gnn import HydraGNNConfig, ReduceLROnPlateau
    from ..graphs import SpectrumGenerator
    from ..hardware import SUMMIT
    from ..mpi import run_world

    n = profile.convergence_samples
    epochs = profile.convergence_epochs
    n_train = int(n * 0.8)
    n_val = int(n * 0.1)

    def main(ctx):
        # Label noise puts an irreducible floor under the MSE (as DFTB
        # labels do), so validation genuinely plateaus and the LR schedule
        # engages mid-run as in the paper.
        gen = SpectrumGenerator(n, mode="smooth", grid_size=351, seed=0, target_noise=0.03)
        trainer = yield from real_trainer(
            ctx,
            gen,
            HydraGNNConfig(
                feature_dim=gen.feature_dim,
                head_dims=(gen.output_dim,),
                hidden_dim=profile.convergence_hidden,
                n_conv_layers=3,
                n_fc_layers=2,
            ),
            batch_size=max(4, min(32, n_train // ctx.size)),
            lr=1e-3,
            weight_decay=0.0,
            seed=0,
            n_train=n_train,
        )
        opt = trainer.optimizer
        # Count an epoch as "improving" only when val MSE drops by >2%, so
        # the scheduler engages mid-run as in the paper (LR halves once the
        # curve flattens; Fig 13's drop is at epoch 26).
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=4, threshold=0.02)
        history = []
        for epoch in range(epochs):
            report = yield from trainer.train_epoch(epoch)
            val = yield from eval_split(ctx, trainer, n_train, n_train + n_val)
            test = yield from eval_split(ctx, trainer, n_train + n_val, n)
            sched.step(val)
            history.append(
                dict(epoch=epoch, train=report.train_loss, val=val, test=test, lr=opt.lr)
            )
        return history

    history = run_world(SUMMIT, 1, main, seed=0).results[0]
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
    first, last = history[0], history[-1]
    checks = dict(
        train_loss_decreases=last["train"] < first["train"],
        val_loss_decreases=last["val"] < first["val"],
        test_loss_decreases=last["test"] < first["test"],
    )
    if len(history) >= 30:  # long enough to matter, and to plateau
        checks.update(
            train_loss_halves=last["train"] < 0.5 * first["train"],
            # paper: the LR drops at epoch 26
            lr_scheduler_engaged=len({h["lr"] for h in history}) >= 2,
        )
    return text, dict(history=history, checks=named_checks(**checks))
