"""Every registered experiment, regenerated and self-checked.

One test per :data:`repro.bench.EXPERIMENTS` entry: run the driver once
under pytest-benchmark timing, write its report, and require every named
entry of ``data["checks"]`` — the artifact's shape predicates, defined
next to the driver — to hold.
"""

import pytest

from repro.bench import EXPERIMENTS, write_report


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda x: x.key)
def test_experiment(benchmark, profile, experiment):
    text, data = benchmark.pedantic(experiment.driver, args=(profile,), rounds=1, iterations=1)
    write_report(experiment.driver.__name__, text, data)
    assert data["checks"] and all(data["checks"].values()), data["checks"]
