"""Tests for benchmark-internal helpers (sweep values, staging, profiles)."""

import numpy as np
import pytest

from repro.bench import PROFILES, current_profile
from repro.bench.experiments import _width_sweep_values
from repro.bench.harness import (
    ExperimentConfig,
    _logical_scale,
    packed_blobs,
    run_experiment,
)
from repro.hardware import ParallelFileSystem, TESTBOX
from repro.sim import Engine
from repro.storage import CFFReader, PFFReader, VirtualFS, write_cff, write_pff


def test_width_sweep_values_divide_rank_count():
    for ranks in (8, 48, 64, 96, 256):
        widths = _width_sweep_values(ranks)
        assert widths, ranks
        assert all(ranks % w == 0 for w in widths)
        assert ranks in widths
        assert widths == sorted(widths)


def test_profiles_well_formed():
    for name, p in PROFILES.items():
        assert p.name == name
        assert p.batch_size >= 1
        assert len(p.scaling_nodes) >= 2
        assert p.convergence_epochs >= 1


def test_current_profile_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    assert current_profile().name == "tiny"
    monkeypatch.setenv("REPRO_BENCH_SCALE", "bogus")
    with pytest.raises(KeyError):
        current_profile()
    monkeypatch.delenv("REPRO_BENCH_SCALE")
    assert current_profile().name == "small"


def test_stage_helpers_roundtrip_readers():
    vfs = VirtualFS(ParallelFileSystem(Engine(), TESTBOX.pfs, 1))
    blobs = packed_blobs("ising", 0, 6)
    write_pff(vfs, "p", blobs)
    write_cff(vfs, "c", blobs, n_subfiles=2, logical_scale=2.0)
    pff = PFFReader(vfs, "p", 6, TESTBOX)
    cff = CFFReader(vfs, "c", TESTBOX)
    for i in (0, 3, 5):
        a, _ = pff.read_sample_raw(i, 0, 0.0)
        b, _ = cff.read_sample_raw(i, 0, 0.0)
        assert a == b == blobs[i]


def test_logical_scale_targets_paper_bytes():
    blobs = packed_blobs("aisd", 0, 8)
    cfg = ExperimentConfig(machine="perlmutter", n_nodes=1, dataset="aisd",
                           batch_size=2, steps_per_epoch=1)
    actual = sum(len(b) for b in blobs)
    scale = _logical_scale(cfg, actual)
    assert scale * actual == pytest.approx(60e9, rel=1e-6)  # paper CFF bytes


def test_nvme_method_requires_hardware():
    # Perlmutter has no node-local NVMe in our model: refused at construction.
    with pytest.raises(ValueError, match="no node-local NVMe"):
        ExperimentConfig(
            machine="perlmutter", n_nodes=1, dataset="ising", method="nvme",
            batch_size=2, steps_per_epoch=1,
        )


def test_nvme_method_works_on_summit():
    cfg = ExperimentConfig(
        machine="summit", n_nodes=1, dataset="ising", method="nvme",
        batch_size=2, steps_per_epoch=1,
    )
    r = run_experiment(cfg)
    assert r.throughput > 0
    assert np.all(r.latencies > 0)
