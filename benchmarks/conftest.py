"""Shared benchmark fixtures.

``bench_experiments.py`` regenerates every table, figure and ablation of
the registry (:data:`repro.bench.registry.EXPERIMENTS`), one parametrised test
each.  Simulated experiment cells are cached per process, so artifacts
sharing a configuration (Fig 4/5/6 and Table 2 all use the 64-GPU
Perlmutter matrix) pay for it once.

Scale is controlled by ``REPRO_BENCH_SCALE`` (tiny / small / paper); the
default ``small`` keeps the Perlmutter cells at the paper's 64-GPU size
and shrinks only the Summit and sweep configurations.  Reports (text +
JSON) land in ``bench_results/`` (override with ``REPRO_RESULTS_DIR``).
"""

import pytest

from repro.bench import current_profile


@pytest.fixture(scope="session")
def profile():
    return current_profile()
