"""Edge-case coverage across modules: RNG, reductions, stations, trainer."""

import numpy as np
import pytest

from repro.gnn import GradPayload, PhaseTimes
from repro.hardware import TESTBOX
from repro.mpi import run_world, sizeof
from repro.mpi.datatypes import REDUCTIONS, reduce_values
from repro.sim import BlockDraws, Engine, FluidStation, RngRegistry, derive_seed, stream


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def test_stream_keys_are_order_independent():
    a1 = stream("x", 1).normal(size=4)
    _ = stream("y", 2).normal(size=4)
    a2 = stream("x", 1).normal(size=4)
    assert np.array_equal(a1, a2)


def test_stream_distinct_keys_differ():
    assert not np.array_equal(stream("a").normal(size=8), stream("b").normal(size=8))


def test_derive_seed_stable_and_sensitive():
    assert derive_seed("k", 1) == derive_seed("k", 1)
    assert derive_seed("k", 1) != derive_seed("k", 2)
    assert derive_seed("k", "1") != derive_seed("k", 1)  # type-sensitive


# Every (distribution, parameters) the PFS model and the file readers draw
# through BlockDraws: MDS, OST and reader-software jitter, cache churn.
_BUFFERED = [
    ("lognormal", dict(mean=-0.02, sigma=0.2)),
    ("lognormal", dict(mean=-0.045, sigma=0.3)),
    ("lognormal", dict(mean=-0.5 * 0.25**2, sigma=0.25)),
    ("random", {}),
]


@pytest.mark.parametrize("dist,params", _BUFFERED, ids=lambda x: str(x))
@pytest.mark.parametrize("block", [1, 7, 256])
def test_block_draws_equal_scalar_draws(dist, params, block):
    """Mixed draw/take sizes, takes that cross one or several block
    boundaries: the values and their order are those of one scalar call per
    draw on the same stream."""
    draws = BlockDraws(stream("blocks", dist), dist, block=block, **params)
    scalar = stream("blocks", dist)
    sizes = [1, 2, 1, 5, 13, 1, 300, 3, 1, 600, 1]
    got, want = [], []
    for k in sizes:
        got += [draws.draw()] if k == 1 else draws.take(k)
        want += [float(getattr(scalar, dist)(**params)) for _ in range(k)]
    assert got == want
    assert all(type(x) is float for x in got)


def test_block_draws_cover_every_buffered_stream():
    from repro.hardware.machines import PERLMUTTER
    from repro.hardware.pfs import ParallelFileSystem
    from repro.storage.formats import _software_jitter

    pfs = ParallelFileSystem(Engine(), PERLMUTTER.pfs, n_client_nodes=1)
    pfs._evicted(0, 1)
    live = [pfs._mds_jitter, pfs._ost_jitter, pfs._churn[0], _software_jitter("pff-reader", "r")]
    for d in live:
        params = {k: v for k, v in d._fill.keywords.items() if k != "size"}
        assert (d._fill.func.__name__, params) in _BUFFERED


def test_rng_registry_caches_and_advances():
    reg = RngRegistry("base")
    g1 = reg.get("s")
    v1 = g1.normal()
    g2 = reg.get("s")
    assert g1 is g2  # same stream object
    v2 = g2.normal()
    assert v1 != v2  # stream advanced, not reset


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_all_named_reductions():
    assert reduce_values([2, 3, 4], "sum") == 9
    assert reduce_values([2, 3, 4], "prod") == 24
    assert reduce_values([2, 3, 4], "min") == 2
    assert reduce_values([2, 3, 4], "max") == 4
    assert reduce_values([True, False], "land") is False
    assert reduce_values([True, False], "lor") is True
    assert set(REDUCTIONS) == {"sum", "prod", "min", "max", "land", "lor"}


def test_reduce_numpy_elementwise_minmax():
    a = np.array([1.0, 5.0])
    b = np.array([3.0, 2.0])
    assert np.array_equal(reduce_values([a, b], "min"), [1.0, 2.0])
    assert np.array_equal(reduce_values([a, b], "max"), [3.0, 5.0])


def test_reduce_custom_callable_and_empty():
    assert reduce_values([1, 2, 3], lambda x, y: x * 10 + y) == 123
    with pytest.raises(ValueError):
        reduce_values([], "sum")


def test_sizeof_nested_structures():
    assert sizeof([np.zeros(10), np.zeros(10)]) > 80
    assert sizeof({"k": np.zeros(100)}) > 400
    assert sizeof("hello") > 5
    assert sizeof(GradPayload(12345)) == 12345  # nbytes attribute honoured


# ---------------------------------------------------------------------------
# FluidStation corner cases
# ---------------------------------------------------------------------------

def test_fluid_station_backlog_carries_across_buckets():
    q = FluidStation(Engine(), bucket_s=1e-3)
    # Book 5 ms of work into one 1 ms bucket.
    q.serve(0.0, 5e-3)
    # A request 1 bucket later still sees ~4 ms of backlog.
    done = q.serve(1e-3, 1e-4)
    assert done - 1e-3 > 3e-3


def test_fluid_station_backlog_drains_over_gap():
    q = FluidStation(Engine(), bucket_s=1e-3)
    q.serve(0.0, 5e-3)
    # 10 buckets later the backlog has fully drained.
    done = q.serve(10e-3, 1e-4)
    assert done == pytest.approx(10e-3 + 1e-4)


def test_fluid_station_past_arrival_tolerated():
    q = FluidStation(Engine(), bucket_s=1e-3)
    q.serve(5e-3, 1e-4)
    done = q.serve(1e-3, 1e-4)  # out-of-order pricing
    assert done >= 1e-3 + 1e-4


def test_fluid_station_validation():
    with pytest.raises(ValueError):
        FluidStation(Engine(), bucket_s=0)
    q = FluidStation(Engine())
    with pytest.raises(ValueError):
        q.serve(0.0, -1.0)
    q.serve(0.0, 1e-4)
    q.reset()
    assert q.jobs_served == 0 and q.carry == 0.0


# ---------------------------------------------------------------------------
# PhaseTimes
# ---------------------------------------------------------------------------

def test_phase_times_add_and_merge():
    a, b = PhaseTimes(), PhaseTimes()
    a.add("cpu_loading", 1.0)
    b.add("cpu_loading", 2.0)
    b.add("gpu_comm", 3.0)
    merged = a.merged(b)
    assert merged.seconds["cpu_loading"] == 3.0
    assert merged.seconds["gpu_comm"] == 3.0
    assert sum(merged.seconds.values()) == 6.0
    with pytest.raises(KeyError):
        a.add("coffee_break", 1.0)


# ---------------------------------------------------------------------------
# MPI stats / world misc
# ---------------------------------------------------------------------------

def test_world_rejects_bad_ranks_per_node():
    from repro.mpi import World
    from repro.sim import Engine

    # The rank grid is the machine's and the world owns its engine.
    with pytest.raises(TypeError, match="ranks_per_node"):
        World(TESTBOX, 1, ranks_per_node=TESTBOX.gpus_per_node)
    with pytest.raises(TypeError, match="engine"):
        World(TESTBOX, 1, engine=Engine())


def test_rank_context_properties():
    def main(ctx):
        yield ctx.engine.timeout(0)
        return (ctx.node_index, ctx.size, ctx.now >= 0)

    job = run_world(TESTBOX, 2, main)
    assert job.results[3] == (1, 4, True)  # rank 3 -> node 1


def test_collective_time_reduce_and_gather_paths():
    from repro.hardware import Cluster, Interconnect

    net = Interconnect(Cluster(Engine(), TESTBOX, 2))
    assert net.collective_time("reduce", 1024, 8) > 0
    assert net.collective_time("gather", 1024, 8) > 0
    assert net.collective_time("scatter", 1024, 8) > 0
    # small allreduce uses the tree algorithm, large the ring
    small = net.collective_time("allreduce", 64, 8)
    large = net.collective_time("allreduce", 10 * 2**20, 8)
    assert large > small


# ---------------------------------------------------------------------------
# VFS extras
# ---------------------------------------------------------------------------

def test_vfs_stat_and_read_missing():
    from repro.hardware import ParallelFileSystem
    from repro.storage import FileNotFound, VirtualFS

    vfs = VirtualFS(ParallelFileSystem(Engine(), TESTBOX.pfs, 1))
    with pytest.raises(FileNotFound):
        vfs.stat("missing")
    with pytest.raises(FileNotFound):
        vfs.read_timed("missing", 0, 0, 1, 0.0)


# ---------------------------------------------------------------------------
# spectra smoothing properties
# ---------------------------------------------------------------------------

def test_gaussian_smoothing_preserves_peak_locations():
    from repro.graphs import gaussian_smooth_spectrum

    peaks = np.array([3.0], dtype=np.float32)
    intens = np.array([1.0], dtype=np.float32)
    spec = gaussian_smooth_spectrum(peaks, intens, grid_size=701)
    grid = np.linspace(1.0, 8.0, 701)
    assert abs(grid[int(np.argmax(spec))] - 3.0) < 0.02
    assert spec.max() == pytest.approx(1.0, abs=1e-3)


def test_gaussian_smoothing_scales_with_intensity():
    from repro.graphs import gaussian_smooth_spectrum

    peaks = np.array([4.0], dtype=np.float32)
    a = gaussian_smooth_spectrum(peaks, np.array([1.0], np.float32), 101)
    b = gaussian_smooth_spectrum(peaks, np.array([2.0], np.float32), 101)
    assert np.allclose(b, 2 * a)
