"""Tests for benchmark-internal helpers (sweep values, staging, profiles)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench import PROFILES, current_profile
from repro.bench.experiments import _width_sweep_values
from repro.bench.harness import (
    ExperimentConfig,
    _logical_scale,
    _warm_caches,
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
    pfs = ParallelFileSystem(Engine(), TESTBOX.pfs, 2)
    vfs = VirtualFS(pfs)
    blobs = packed_blobs("ising", 0, 6)
    write_pff(vfs, "p", blobs)
    write_cff(vfs, "c", blobs, n_subfiles=2, logical_scale=2.0)
    pff = PFFReader(vfs, "p", 6, TESTBOX)
    cff = CFFReader(vfs, "c", TESTBOX)
    for i in (0, 3, 5):
        a, _ = pff.read_sample_raw(i, 0, 0.0)
        b, _ = cff.read_sample_raw(i, 0, 0.0)
        assert a == b == blobs[i]

    # Warming marks a staged dataset's blocks resident in every node's page
    # cache, in path order.  A CFF container scaled to 40 MiB (of TESTBOX's
    # 64 MiB cache) puts its samples in distinct 1 MiB blocks: each subfile
    # warms the block every one of its samples starts in, the index its first.
    world = SimpleNamespace(pfs=pfs, vfs=vfs)
    block = pfs.caches[0].block_bytes
    scale = 40 * 2**20 / sum(map(len, blobs))
    write_cff(vfs, "w", blobs, n_subfiles=2, logical_scale=scale)
    want = []
    for k in (0, 1):
        starts = np.cumsum([0] + [len(b) for b in blobs[k::2]])[:-1]
        fid = vfs.stat(f"w/data.{k}.bin").file_id
        want += [(fid, b) for b in sorted({int(s * scale) // block for s in starts})]
    want.append((vfs.stat("w/index.bin").file_id, 0))
    assert len(want) == 2 * 3 + 1  # every sample starts in a block of its own
    for cache in pfs.caches:
        cache.clear()  # of the reads above
    _warm_caches(world, "w")
    assert [list(cache._lru) for cache in pfs.caches] == [want, want]
    # A PFF dataset warms each sample file's first block.
    for cache in pfs.caches:
        cache.clear()
    _warm_caches(world, "p")
    want = [(vfs.stat(p).file_id, 0) for p in vfs.listdir("p")]
    assert len(want) == 6
    assert [list(cache._lru) for cache in pfs.caches] == [want, want]
    # A dataset whose logical size exceeds the cache cannot stay resident:
    # it warms nothing.
    for cache in pfs.caches:
        cache.clear()
    write_cff(vfs, "big", blobs, n_subfiles=2, logical_scale=2 * scale)
    _warm_caches(world, "big")
    assert [list(cache._lru) for cache in pfs.caches] == [[], []]


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
