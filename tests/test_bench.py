"""Tests for the benchmark harness: metrics, reporting, experiment runs."""

import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from repro.bench import (
    ExperimentConfig,
    cdf,
    geomean,
    packed_blobs,
    percentile,
    render_table,
    run_experiment,
    speedup_table,
    write_report,
)
from repro.bench import harness
from repro.bench.harness import METHODS
from repro.gnn import HydraGNN
from repro.graphs import MoleculeGenerator
from repro.hardware import TESTBOX, ParallelFileSystem
from repro.sim import Engine
from repro.storage import CFFImage, CFFReader, VirtualFS, write_pff


# Set-up's peak resident set over the image it leaves, in a fresh process.
# ``VmHWM`` is ``ru_maxrss`` without the part an exec'd child inherits: the
# resident set of the process it was forked from.
_GROWTH_PEAK = """
import hashlib
from repro.bench import harness

def kb(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field))

harness._image("aisd-ex-discrete", 0, 8)  # the generator's first-use state
base = kb("VmRSS:")
for k in range(1, 9):
    harness._image("aisd-ex-discrete", 0, 8 + 511 * k)
image = harness._IMAGES[("aisd-ex-discrete", 0)]
for view in image.subfiles:
    hashlib.sha256(view)  # every page of the image resident
print((kb("VmHWM:") - base) * 1024 / sum(map(len, image.subfiles)))
"""


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_percentile_and_table2_summary():
    values = np.arange(1, 101, dtype=float)
    assert percentile(values, 50) == pytest.approx(50.5)
    pcts = [percentile(values, q) for q in (50, 95, 99)]
    assert pcts[2] > pcts[1] > pcts[0]
    with pytest.raises(ValueError):
        percentile(np.array([]), 50)


def test_cdf_monotone_and_thinned():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=1000)
    xs, fs = cdf(values)
    assert np.all(np.diff(xs) >= 0)
    assert fs[-1] == pytest.approx(1.0)
    xs2, fs2 = cdf(values, n_points=50)
    assert xs2.size == 50
    with pytest.raises(ValueError):
        cdf(np.array([]))


def test_geomean():
    assert geomean([1, 4, 16]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([1, -1])
    with pytest.raises(ValueError):
        geomean([])


def test_speedup_table_normalises_to_baseline():
    out = speedup_table({"pff": 10.0, "ddstore": 45.0}, "pff")
    assert out == {"pff": 1.0, "ddstore": 4.5}
    with pytest.raises(KeyError):
        speedup_table({"a": 1.0}, "pff")
    with pytest.raises(ValueError):
        speedup_table({"pff": 0.0}, "pff")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def test_render_table_alignment():
    text = render_table(["A", "B"], [["x", 1.0], ["yy", 123456.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "x" in text and "123,456" in text


def test_write_report_creates_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    path = write_report("unit", "hello table", data={"x": np.arange(3)})
    assert os.path.exists(path)
    assert os.path.exists(str(tmp_path / "unit.json"))
    assert "hello table" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    [(dict(method="zeromq"), ValueError, "method"),
     (dict(dataset="imagenet"), ValueError, "dataset"),
     (dict(machine="bogus"), ValueError, r"machine 'bogus'; available: \['perlmutter'")],
    [(dict(batch_size=0), ValueError, "batch_size"),
     (dict(batch_size=True), TypeError, "batch_size")],
    [(dict(epochs=0), ValueError, "epochs"), (dict(epochs=1.5), TypeError, "epochs")],
    [(dict(steps_per_epoch=0), ValueError, "steps_per_epoch"),
     (dict(steps_per_epoch=2.5), TypeError, "steps_per_epoch")],
    [(dict(n_samples=0), ValueError, "n_samples"),
     (dict(n_samples=-4), ValueError, "n_samples")],
    [(dict(hidden_dim=0), ValueError, "hidden_dim")],
    [(dict(n_workers=0), ValueError, "n_workers")],
    [(dict(method="pff", n_nodes=0), ValueError, "n_nodes"),
     (dict(method="cff", n_nodes=0), ValueError, "n_nodes"),
     (dict(method="pff", prefetch_depth=0), ValueError, "prefetch_depth"),
     (dict(method="pff", cache_bytes=-5), ValueError, "cache_bytes"),
     (dict(method="pff", width=3), ValueError, "width"),
     (dict(method="cff", timeout_s=-1.0), ValueError, "timeout_s")],
    [(dict(shuffle="bogus"), ValueError, "shuffle")],
    [(dict(method="nvme"), ValueError, "NVMe"),
     (dict(tiers="dram:1m+nvme:16m"), ValueError, "NVMe")],
    [(dict(warm_page_cache="yes"), TypeError, "warm_page_cache"),
     (dict(elastic=1), TypeError, "elastic"),
     (dict(coalesce="no"), TypeError, "coalesce"),
     (dict(failover="no", timeout_s=1e-3), TypeError, "failover")],
], ids=["names", "batch_size", "epochs", "steps_per_epoch", "n_samples", "hidden_dim",
        "n_workers", "file_methods", "shuffle", "nvme", "flags"])
def test_config_validation(bad):
    # Each is refused at construction, naming the field, not later in the run: a negative
    # ``n_samples`` would slice ``packed_blobs`` from the end, 0 workers would run as one,
    # NVMe on a machine without it would fail after the blobs and the world are built.
    # A file-method cell validates the DDStore settings too (``with_method`` swaps methods).
    for kwargs, exc, match in bad:
        with pytest.raises(exc, match=match):
            ExperimentConfig(**kwargs)
    assert ExperimentConfig(machine="summit", method="nvme", elastic=np.False_).method == "nvme"
    cfg = ExperimentConfig(machine="perlmutter", n_nodes=2, batch_size=4, steps_per_epoch=3)
    assert cfg.n_ranks == 8
    assert cfg.resolved_samples() == 8 * 4 * 3
    assert cfg.with_method("pff").method == "pff"
    assert set(METHODS) == {"pff", "cff", "ddstore", "ddstore-p2p", "nvme"}


def test_packed_blobs_cached_and_deterministic(monkeypatch):
    monkeypatch.setattr(harness, "_IMAGES", {})
    a = packed_blobs("ising", 0, 4)
    before = [bytes(blob) for blob in a]
    inodes = [os.fstat(f.fileno()).st_ino for f in harness._IMAGES[("ising", 0)].files]
    b = packed_blobs("ising", 0, 16)
    # Prefix stability: growing the image keeps old samples, and a list handed
    # out before the growth still holds its bytes (its views keep the old,
    # shorter mappings).  A growth copies nothing: each subfile stays the
    # same file, lengthened in place.
    assert b[:4] == a == before
    image = harness._IMAGES[("ising", 0)]
    assert [os.fstat(f.fileno()).st_ino for f in image.files] == inodes
    c = packed_blobs("ising", 0, 16)
    assert c == b
    with pytest.raises(ValueError, match="n must be >= 0"):
        packed_blobs("ising", 0, -2)  # would slice from the end

    # One host copy: blobs, PFF files and CFF subfiles staged for the whole
    # image or for a prefix of it (same offsets, or one sample per subfile)
    # are read-only views of the image's subfiles.
    vfs = VirtualFS(ParallelFileSystem(Engine(), TESTBOX.pfs, 1))
    write_pff(vfs, "p", b)
    image.stage(vfs, "full", logical_scale=1.0)
    for n, root in ((11, "part"), (5, "few")):
        assert image.stage(vfs, root, n, logical_scale=1.0).n_subfiles == min(8, n)
        reader = CFFReader(vfs, root, TESTBOX)
        assert [reader.read_sample_raw(i, 0, 0.0)[0] for i in range(n)] == b[:n]
    owners = [np.frombuffer(view, np.uint8) for view in image.subfiles]
    views = [(b[3], 3), (vfs.stat(vfs.listdir("p")[3]).data, 3)] + [
        (vfs.stat(f"{root}/data.{k}.bin").data, k)
        for root in ("full", "part", "few") for k in (0, 4)
    ]
    for view, k in views:
        assert np.shares_memory(np.frombuffer(view, np.uint8), owners[k])
        assert view.readonly
    assert all(view.readonly for view in image.subfiles)
    empty = CFFImage.pack([], 8)  # mmap refuses length 0
    assert empty.n_samples == sum(map(len, empty.subfiles)) == 0 and empty.blobs == []

    # Nor does a growth hold a second buffer: in a fresh interpreter, growing
    # an image in eight steps and then reading all of it raises the peak
    # resident set by under 1.3x the image's bytes (repacking behind a copy
    # read 2x).
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    ratio = subprocess.run(
        [sys.executable, "-c", _GROWTH_PEAK], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert float(ratio) <= 1.3, ratio

    # Both generation paths build one image, byte for byte, whatever this
    # host's core count: forked workers (three shares) and inline, each
    # growing an image twice (the second time behind a copy of the first).
    def paths(share):
        monkeypatch.setattr(harness, "_IMAGES", {})
        monkeypatch.setattr(harness, "_MIN_SHARE", share)
        monkeypatch.setattr(harness, "_n_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        return harness._n_workers(35)

    images = []
    for share, workers in ((2, 3), (10**9, 1)):
        assert paths(share) == workers
        packed_blobs("aisd", 0, 5)
        packed_blobs("aisd", 0, 40)
        images.append(harness._IMAGES[("aisd", 0)])
    forked, inline = images
    assert [bytes(s) for s in forked.subfiles] == [bytes(s) for s in inline.subfiles]
    for field in ("subfile", "offset", "size"):
        assert np.array_equal(getattr(forked.index, field), getattr(inline.index, field))

    # A worker that fails makes packed_blobs raise, naming its share, and
    # leaves no child behind.
    make = MoleculeGenerator.make

    def fail_at_30(self, index):
        if index == 30:
            raise RuntimeError("generator failed")
        return make(self, index)

    paths(2)
    monkeypatch.setattr(MoleculeGenerator, "make", fail_at_30)
    with pytest.raises(RuntimeError, match=r"samples \[26, 40\) failed in a worker"):
        packed_blobs("aisd", 0, 40)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert ("aisd", 0) not in harness._IMAGES


@pytest.mark.parametrize("method", ["pff", "cff", "ddstore"])
def test_run_experiment_tiny(method, monkeypatch):
    # Modelled compute prices the model from its shape: no cell builds weights.
    def no_weights(self, *args, **kwargs):
        raise AssertionError("a modelled-compute cell built a HydraGNN")

    monkeypatch.setattr(HydraGNN, "__init__", no_weights)
    cfg = ExperimentConfig(
        machine="perlmutter",
        n_nodes=1,
        dataset="ising",
        method=method,
        batch_size=4,
        steps_per_epoch=2,
    )
    r = run_experiment(cfg)
    assert r.total_samples == 4 * 4 * 2  # ranks * batch * steps
    assert r.elapsed > 0
    assert r.throughput > 0
    assert r.latencies.shape == (32,)
    assert np.all(r.latencies > 0)
    assert r.phases.seconds["cpu_loading"] > 0
    assert r.phases.seconds["gpu_comm"] > 0
    if method == "ddstore":
        assert r.preload_time > 0
        assert r.mpi_stats.count_by_call["MPI_Get"] > 0


def test_run_experiment_shape_ddstore_beats_pff():
    def thr(method):
        return run_experiment(
            ExperimentConfig(
                machine="perlmutter",
                n_nodes=2,
                dataset="aisd",
                method=method,
                batch_size=8,
                steps_per_epoch=2,
            )
        ).throughput

    assert thr("ddstore") > 1.3 * thr("pff")  # the headline result, in miniature


def test_run_experiment_width_parameter():
    cfg = ExperimentConfig(
        machine="perlmutter",
        n_nodes=2,
        dataset="ising",
        method="ddstore",
        width=4,
        batch_size=4,
        steps_per_epoch=1,
    )
    r = run_experiment(cfg)
    assert r.throughput > 0


def test_run_experiment_p2p_ablation_slower():
    def elapsed(method):
        return run_experiment(
            ExperimentConfig(
                machine="perlmutter",
                n_nodes=2,
                dataset="ising",
                method=method,
                batch_size=8,
                steps_per_epoch=2,
            )
        ).elapsed

    assert elapsed("ddstore-p2p") > elapsed("ddstore")


def test_experiment_deterministic():
    cfg = ExperimentConfig(
        machine="perlmutter", n_nodes=1, dataset="ising", method="ddstore",
        batch_size=4, steps_per_epoch=1,
    )
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert a.elapsed == b.elapsed
    assert np.array_equal(a.latencies, b.latencies)


def test_columnar_cell_decode_budget():
    """The columnar byte path retires the decode stage entirely.

    A columnar run must charge zero "decode" seconds, a positive (but
    small) "scatter" charge, and make zero per-sample ndarray
    allocations; the scatter charge must come in well under what the
    decode model would have priced the same samples at.
    """
    from repro.graphs import SAMPLE_ALLOCATIONS
    from repro.hardware import get_machine
    from repro.storage import decode_time

    cfg = ExperimentConfig(
        machine="perlmutter",
        n_nodes=1,
        dataset="ising",
        method="ddstore",
        batch_size=4,
        steps_per_epoch=2,
        columnar=True,
    )
    SAMPLE_ALLOCATIONS.reset()
    r = run_experiment(cfg)
    assert SAMPLE_ALLOCATIONS.count == 0
    assert r.fetch_stages.get("decode", 0.0) == 0.0
    scatter = r.fetch_stages.get("scatter", 0.0)
    assert scatter > 0.0
    # Budget: the row path would have paid at least per-sample decode base
    # cost for every sample this rank loaded; scatter must be far cheaper.
    machine = get_machine(cfg.machine)
    n_per_rank = cfg.batch_size * cfg.steps_per_epoch
    row_decode_floor = n_per_rank * decode_time(machine, 0)
    assert scatter < row_decode_floor / 2
    # The row twin of the same cell does decode and does allocate.
    SAMPLE_ALLOCATIONS.reset()
    row = run_experiment(
        ExperimentConfig(
            machine="perlmutter",
            n_nodes=1,
            dataset="ising",
            method="ddstore",
            batch_size=4,
            steps_per_epoch=2,
            epochs=2,
            cache_bytes=1 << 20,  # so the batches have a cached share too
        )
    )
    assert SAMPLE_ALLOCATIONS.count > 0
    # The counter counts row blobs handed out, views included: a batch of n
    # bumps it by n whatever share was local, cached or wire.
    assert SAMPLE_ALLOCATIONS.count == row.total_samples and row.fetch_counters["n_cache_hits"] > 0
    assert row.fetch_stages.get("decode", 0.0) > 0.0
    assert row.fetch_stages.get("scatter", 0.0) == 0.0
    SAMPLE_ALLOCATIONS.reset()


def test_a_world_releases_every_dataset_byte_at_teardown(monkeypatch):
    """Views of the VFS files and the window pieces now live as long as
    their owners — so the owners must die with the ``World``.  Every window
    piece is a view of the harness's packed image (no window owns dataset
    bytes), and after ``run_experiment`` returns nothing of that world that
    holds dataset bytes is reachable: no file, window piece, cache pool or
    NVMe shard store (a leak here makes ``peak_rss_mb`` a step function of
    the repeat count).  Dropping the image then closes its files."""
    from repro.dataplane.cache import SampleCache
    from repro.mpi.comm import World
    from repro.mpi.rma import Window
    from repro.storage.staging import NVMeShardStore
    from repro.storage.vfs import VirtualFS

    held: dict[str, list] = {}

    def watch(cls, method, pick):
        original = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            held.setdefault(f"{cls.__name__}.{method}", []).extend(
                weakref.ref(obj) for obj in pick(self, out)
            )
            return out

        monkeypatch.setattr(cls, method, wrapper)

    monkeypatch.setattr(harness, "_IMAGES", {})
    open_fds = len(os.listdir("/proc/self/fd"))
    watch(World, "__init__", lambda self, _out: [self])
    watch(VirtualFS, "create", lambda _self, f: [f])
    tables, on_image = [], []  # distinct piece tables per window; pieces viewing the image

    def window_parts(win, _out):
        tables.append(len({id(b) for b in win.buffers.values()}))
        image = [np.frombuffer(s, np.uint8) for s in harness._IMAGES[("ising", 0)].subfiles]
        pieces = [p for b in win.buffers.values() for p in b.pieces]
        on_image.extend(any(np.shares_memory(p, s) for s in image) for p in pieces)
        return [win, *pieces]

    watch(Window, "__init__", window_parts)
    watch(SampleCache, "__init__", lambda self, _out: [self])
    watch(NVMeShardStore, "__init__", lambda self, _out: [self])

    result = run_experiment(
        ExperimentConfig(
            machine="summit",
            n_nodes=2,
            width=4,
            dataset="ising",
            method="ddstore",
            batch_size=2,
            steps_per_epoch=2,
            epochs=2,
            columnar=True,
            scheduler=True,
            node_fetch=True,
            cache_policy="belady",
            tiers="gpu:16k+dram:32k+nvme:4m",  # staged from the CFF files at create
        )
    )
    assert result.fetch_counters["n_cache_hits"] > 0
    del result
    gc.collect()
    assert len(held) == 5 and len(held["Window.__init__"]) > 12  # everything was watched
    # Width 4 on 12 ranks: replica groups share one piece table per chunk,
    # and every piece is a view of the image's bytes.
    assert tables == [4]
    assert len(on_image) > 12 and all(on_image)
    alive = {what: sum(ref() is not None for ref in refs) for what, refs in held.items()}
    assert not any(alive.values()), alive
    assert len(os.listdir("/proc/self/fd")) > open_fds  # the image's memfds
    harness._IMAGES.clear()
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == open_fds

