"""Benchmark harness: the cell table, the sweep runner, the experiment
registry and its drivers, metrics and reporting."""

from .cells import CELLS, PROFILES, ScaleProfile, cell, current_profile
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    clear_blob_cache,
    packed_blobs,
    run_experiment,
)
from .metrics import cdf, geomean, latency_percentiles, percentile, speedup_table
from .registry import EXPERIMENTS, Experiment
from .reporting import render_table, results_dir, write_report
from .sweep import Sweep, cached_experiment, fingerprint

# Every registered driver is importable by name: ``from repro.bench import fig4_speedup``.
_DRIVERS = {x.driver.__name__: x.driver for x in EXPERIMENTS}
globals().update(_DRIVERS)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "packed_blobs",
    "clear_blob_cache",
    "CELLS",
    "cell",
    "PROFILES",
    "ScaleProfile",
    "current_profile",
    "Sweep",
    "cached_experiment",
    "fingerprint",
    "Experiment",
    "EXPERIMENTS",
    "percentile",
    "latency_percentiles",
    "cdf",
    "geomean",
    "speedup_table",
    "render_table",
    "write_report",
    "results_dir",
    *_DRIVERS,
]
