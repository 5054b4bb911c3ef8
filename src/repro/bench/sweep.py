"""The sweep runner: what every experiment driver shares.

A driver names its variants of a base cell (:mod:`.cells`); :class:`Sweep`
simulates each once per process (:func:`cached_experiment` — figures
that share runs, e.g. Fig 4/5/6/Table 2 on the 64-GPU Perlmutter matrix,
pay for a cell once), renders table rows from a column spec and the
per-cell JSON record from a field list.  Beside it live the other pieces
the drivers used to carry private copies of: the determinism
:func:`fingerprint` and fresh-rerun probe, the per-stage and per-node-NIC
table renderers Fig 5b/5c and Fig 9b/9c share, and the real-training
recipe.  What stays in a driver is only what is its own: variants,
columns, derived ratios, checks, footer.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..core import FETCH_STAGES
from .cells import ScaleProfile, cell
from .harness import ExperimentConfig, ExperimentResult, run_experiment
from .metrics import percentile
from .reporting import render_table

__all__ = [
    "cached_experiment",
    "fingerprint",
    "rerun_matches",
    "named_checks",
    "Sweep",
    "stage_table",
    "nic_table",
    "TrainView",
    "real_trainer",
    "eval_split",
]

_RESULT_CACHE: dict[ExperimentConfig, ExperimentResult] = {}


def cached_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    result = _RESULT_CACHE.get(cfg)
    if result is None:
        result = run_experiment(cfg)
        _RESULT_CACHE[cfg] = result
    return result


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def fingerprint(r: ExperimentResult) -> tuple:
    """Every virtual quantity a from-scratch rerun must reproduce exactly:
    timings, per-epoch times, each fetch counter, the per-node NIC byte
    roll-up and the elastic controller's trajectory and decisions."""
    return (
        r.elapsed,
        r.total_samples,
        r.data_wait,
        r.overlap_efficiency,
        r.epoch_seconds,
        sorted(r.fetch_counters.items()),
        r.node_nic,
        r.control,
    )


def rerun_matches(cfg: ExperimentConfig, observer=None) -> bool:
    """Fresh-rerun determinism probe: simulate ``cfg`` from scratch
    (bypassing the result cache) and compare with the cached run.  An
    ``observer`` with tracing on makes the rerun double as a traced one —
    tracing never moves virtual time."""
    return fingerprint(run_experiment(cfg, observer=observer)) == fingerprint(
        cached_experiment(cfg)
    )


def named_checks(**checks) -> dict[str, bool]:
    """A driver's ``data["checks"]``: plain bools, so they survive JSON."""
    return {name: bool(ok) for name, ok in checks.items()}


# ---------------------------------------------------------------------------
# variants -> runs -> rows + records
# ---------------------------------------------------------------------------

#: Record fields that are not an ``ExperimentResult`` attribute of the
#: same name.
_FIELDS: dict[str, Callable[[ExperimentResult], object]] = {
    "counters": lambda r: r.fetch_counters,
    "stages": lambda r: r.fetch_stages,
    "phases": lambda r: r.phases.seconds,
    "loading": lambda r: r.phases.seconds["cpu_loading"],
    "preload": lambda r: r.preload_time,
    "p50": lambda r: percentile(r.latencies, 50),
    "p99": lambda r: percentile(r.latencies, 99),
}


def record(r: ExperimentResult, fields: Iterable[str]) -> dict:
    """The JSON record of one run: the named fields, in order."""
    return {f: _FIELDS[f](r) if f in _FIELDS else getattr(r, f) for f in fields}


class Sweep:
    """Variants of one base cell, each simulated once.

    ``variants`` is a sequence of ``(label, overrides)``; labels key
    :attr:`configs` and :attr:`results` (any hashable — the figure
    matrices use tuples) and are the first column of :meth:`table`.
    """

    def __init__(self, base: str, profile: ScaleProfile, variants) -> None:
        self.configs = {label: cell(base, profile, **kw) for label, kw in variants}
        self.results = {label: cached_experiment(c) for label, c in self.configs.items()}

    def __getitem__(self, label) -> ExperimentResult:
        return self.results[label]

    def records(self, *fields: str) -> dict:
        return {label: record(r, fields) for label, r in self.results.items()}

    def table(self, first: str, columns, title: str, label=str) -> str:
        """One row per variant; ``columns`` is ``(header, fmt(result))`` pairs."""
        return render_table(
            [first] + [h for h, _fmt in columns],
            [[label(k)] + [fmt(r) for _h, fmt in columns] for k, r in self.results.items()],
            title=title,
        )

    def pivot(self, headers, row_labels: dict, columns, title: str) -> str:
        """Throughput of a sweep keyed ``(row, column)``, one row per
        ``row_labels`` entry (``{row key: first-column text}``)."""
        rows = [
            [text] + [throughput(self[row, c]) for c in columns] for row, text in row_labels.items()
        ]
        return render_table(headers, rows, title=title)


# -- column formatters -------------------------------------------------------


def ms(attr: str, digits: int = 3):
    return lambda r: f"{getattr(r, attr) * 1e3:.{digits}f}"


def pct_ms(q: int, digits: int = 3):
    return lambda r: f"{percentile(r.latencies, q) * 1e3:.{digits}f}"


def stage_ms(stage: str):
    return lambda r: f"{r.fetch_stages.get(stage, 0.0) * 1e3:.3f}"


def count(counter: str):
    return lambda r: f"{r.fetch_counters.get(counter, 0):,}"


def count_mb(counter: str):
    return lambda r: f"{r.fetch_counters.get(counter, 0) / 1e6:.1f}"


def throughput(r: ExperimentResult) -> str:
    return f"{r.throughput:,.0f}"


# ---------------------------------------------------------------------------
# the GIDS-style breakdown tables Fig 5b/5c and Fig 9b/9c share
# ---------------------------------------------------------------------------


def stage_table(first: str, runs: Sequence[tuple[str, ExperimentResult]], title: str) -> str:
    """Where DDStore's loading time goes, data-plane stage by stage."""
    return render_table(
        [first] + [f"{s}(ms)" for s in FETCH_STAGES],
        [[label] + [stage_ms(s)(r) for s in FETCH_STAGES] for label, r in runs],
        title=title,
    )


def nic_table(first: str, runs: Sequence[tuple[str, ExperimentResult]], title: str) -> str:
    """Where the wire bytes go — per-node NIC injection/reception
    utilisation and inter-node bytes (the shared-NIC pressure
    node-aggregated fetch exists to relieve), labelled by node."""
    return render_table(
        [first, "Node", "TX(MB)", "RX(MB)", "TX-util(%)", "RX-util(%)"],
        [
            [
                label,
                f"node {n['node']}",
                f"{n['tx_bytes'] / 1e6:.2f}",
                f"{n['rx_bytes'] / 1e6:.2f}",
                f"{n['tx_util'] * 100:.1f}",
                f"{n['rx_util'] * 100:.1f}",
            ]
            for label, r in runs
            for n in r.node_nic
        ],
        title=title,
    )


# ---------------------------------------------------------------------------
# the real-training recipe (Fig 13, shuffle quality, conv policy)
# ---------------------------------------------------------------------------


class TrainView:
    """Restrict a dataset's sampling to its first ``n_train`` samples.

    A storeless view: its loads run the depth-1 pipeline, row by row."""

    store = None
    stats_only = columnar = False
    arena_pool = None

    def __init__(self, ds, n_train: int) -> None:
        self.ds = ds
        self.n_samples = n_train

    def fetch(self, indices):
        return self.ds.fetch(indices)


def real_trainer(
    ctx,
    generator,
    model_cfg,
    *,
    batch_size: int,
    lr: float,
    seed: int,
    shuffle: str = "global",
    n_train: Optional[int] = None,
    **adamw,
):
    """Real-numerics training on one rank: generator -> DDStore -> HydraGNN
    -> DistributedModel -> DataLoader -> Trainer.  Returns the trainer
    (``.dmodel.model``, ``.optimizer`` hang off it)."""
    from ..core import DataLoader, DDStore, DDStoreDataset, GeneratorSource
    from ..gnn import AdamW, DistributedModel, HydraGNN, Trainer

    store = yield from DDStore.create(ctx.comm, GeneratorSource(generator, ctx.world.machine))
    model = HydraGNN(model_cfg, seed=seed)
    dmodel = DistributedModel(model, ctx.comm)
    yield from dmodel.broadcast_parameters()
    dataset = DDStoreDataset(store)
    if n_train is not None:
        dataset = TrainView(dataset, n_train)
    loader = DataLoader(dataset, ctx, batch_size=batch_size, shuffle=shuffle, seed=seed)
    return Trainer(ctx, dmodel, loader, AdamW(model.params(), lr=lr, **adamw), real_compute=True)


def eval_split(ctx, trainer, lo: int, hi: int):
    """Sample-weighted global mean loss over samples ``[lo, hi)``, sharded
    round-robin; some ranks' shards may be empty."""
    ids = np.arange(lo, hi)[ctx.rank :: ctx.size]
    local = 0.0
    if len(ids):
        local = yield from trainer.evaluate(ids)
    num = yield from ctx.comm.allreduce(local * len(ids), op="sum")
    den = yield from ctx.comm.allreduce(float(len(ids)), op="sum")
    return num / max(den, 1.0)
