"""Benchmark harness: the cell table, the sweep runner, metrics and
reporting.

The experiment registry (:mod:`.registry`) and its drivers
(:mod:`.experiments`, :mod:`.ablations`, :mod:`.serving`,
:mod:`.elastic`) load on first use: the CLI and ``benchmarks/`` import
``repro.bench.registry``."""

from .cells import CELLS, PROFILES, ScaleProfile, cell, current_profile
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    packed_blobs,
    run_experiment,
)
from .metrics import cdf, geomean, percentile, speedup_table
from .reporting import render_table, results_dir, write_report
from .sweep import Sweep, cached_experiment, fingerprint

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "packed_blobs",
    "CELLS",
    "cell",
    "PROFILES",
    "ScaleProfile",
    "current_profile",
    "Sweep",
    "cached_experiment",
    "fingerprint",
    "percentile",
    "cdf",
    "geomean",
    "speedup_table",
    "render_table",
    "write_report",
    "results_dir",
]
