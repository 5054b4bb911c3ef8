"""Unit tests for the hardware models (topology, network, PFS, GPU)."""

import numpy as np
import pytest

from repro.hardware import (
    Cluster,
    GnnWorkload,
    GpuModel,
    Interconnect,
    PageCache,
    ParallelFileSystem,
    PERLMUTTER,
    SUMMIT,
    TESTBOX,
    get_machine,
)
from repro.sim import Engine


@pytest.fixture
def cluster():
    return Cluster(Engine(), TESTBOX, n_nodes=4)


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_machine_registry():
    assert get_machine("summit") is SUMMIT
    assert get_machine("perlmutter") is PERLMUTTER
    with pytest.raises(KeyError):
        get_machine("frontier")


def test_rank_to_node_mapping(cluster):
    # TESTBOX has 2 GPUs per node.
    assert cluster.spec.node_of_rank(0) == 0
    assert cluster.spec.node_of_rank(1) == 0
    assert cluster.spec.node_of_rank(2) == 1
    assert cluster.n_ranks == 8
    assert cluster.same_node(0, 1)
    assert not cluster.same_node(1, 2)


def test_rank_outside_cluster_rejected(cluster):
    with pytest.raises(IndexError):
        cluster.node_of_rank(99)


def test_memory_accounting_overcommit(cluster):
    cluster.charge_memory(0, 2 * 2**30)
    with pytest.raises(MemoryError, match="over-committed: 5.0 GiB used"):
        cluster.charge_memory(0, 3 * 2**30)
    assert cluster.nodes[0].mem_used_bytes == 2 * 2**30  # a refused charge is not counted
    cluster.release_memory(0, 2 * 2**30)
    assert cluster.nodes[0].mem_used_bytes == 0


def test_summit_perlmutter_shape():
    assert SUMMIT.gpus_per_node == 6
    assert PERLMUTTER.gpus_per_node == 4
    assert SUMMIT.mem_per_node_bytes == 512 * 2**30
    assert PERLMUTTER.mem_per_node_bytes == 256 * 2**30


# ---------------------------------------------------------------------------
# interconnect
# ---------------------------------------------------------------------------

def test_rma_local_faster_than_remote(cluster):
    net = Interconnect(cluster)
    local = net.rma_get(0, 1, 4096, arrival=0.0)  # same node
    remote = net.rma_get(0, 2, 4096, arrival=0.0)  # different node
    assert not local.remote
    assert remote.remote
    assert local.latency < remote.latency


def test_rma_batch_shapes_and_serial_issue(cluster):
    net = Interconnect(cluster)
    targets = np.array([2, 4, 6])
    sizes = np.array([1000, 2000, 3000])
    batch = net.rma_get_batch(0, targets, sizes, arrival=0.0)
    assert batch.completions.shape == (3,)
    assert np.all(batch.completions > 0)
    assert np.all(batch.completions - batch.issues > 0)
    # Origin CPU issues the gets serially.
    assert np.all(np.diff(batch.issues) > 0)


def test_rma_contention_single_target_slower_than_spread(cluster):
    # Several origin nodes hammering ONE target node must finish later than
    # the same load spread over distinct targets: the target's outbound NIC
    # is the shared bottleneck. This is the effect DDStore's width mitigates.
    n_per_origin = 32
    size = 64 * 1024

    def run(targets_by_origin):
        net = Interconnect(Cluster(Engine(), TESTBOX, n_nodes=4))
        worst = 0.0
        for origin, target in targets_by_origin:
            done = net.rma_get_batch(
                origin, np.full(n_per_origin, target), np.full(n_per_origin, size), 0.0
            )
            worst = max(worst, float(done.completions.max()))
        return worst

    # Origins on nodes 0, 2, 3; hot case all pull from rank 2 (node 1).
    hot = run([(0, 2), (4, 2), (6, 2)])
    spread = run([(0, 2), (4, 6), (6, 4)])
    assert hot > spread


def test_rma_empty_batch(cluster):
    net = Interconnect(cluster)
    out = net.rma_get_batch(0, np.array([], dtype=np.int64), np.array([]), arrival=0.0)
    assert out.completions.size == 0 and out.issues.size == 0


def test_rma_shape_mismatch_rejected(cluster):
    net = Interconnect(cluster)
    with pytest.raises(ValueError):
        net.rma_get_batch(0, np.array([1, 2]), np.array([10]), arrival=0.0)


def test_rma_jitter_deterministic():
    def run():
        cl = Cluster(Engine(), TESTBOX, n_nodes=4)
        net = Interconnect(cl, seed=7)
        return net.rma_get_batch(0, np.full(16, 2), np.full(16, 4096), arrival=0.0)

    a, b = run(), run()
    assert np.array_equal(a.completions, b.completions)
    assert np.array_equal(a.issues, b.issues)


def test_bigger_payload_takes_longer(cluster):
    net = Interconnect(cluster)
    small = net.rma_get(0, 2, 1_000, arrival=0.0)
    big = net.rma_get(1, 4, 10_000_000, arrival=0.0)
    assert big.latency > small.latency


def test_send_time_orders_messages_through_nic(cluster):
    net = Interconnect(cluster)
    t1 = net.send_time(0, 2, 1_000_000, arrival=0.0)
    t2 = net.send_time(0, 2, 1_000_000, arrival=0.0)
    assert t2 > t1  # second message queues behind the first


def test_collective_time_scaling(cluster):
    net = Interconnect(cluster)
    t64 = net.collective_time("allreduce", 4 * 2**20, 64)
    t512 = net.collective_time("allreduce", 4 * 2**20, 512)
    assert t512 > t64
    assert net.collective_time("barrier", 0, 1) == 0.0
    with pytest.raises(ValueError):
        net.collective_time("fft", 0, 8)


# ---------------------------------------------------------------------------
# page cache
# ---------------------------------------------------------------------------

def test_page_cache_hit_after_miss():
    pc = PageCache(capacity_bytes=16 * 2**20, block_bytes=2**20)
    hit, miss = pc.access(1, 0, 100)
    assert (hit, miss) == (0, 1)
    hit, miss = pc.access(1, 0, 100)
    assert (hit, miss) == (1, 0)
    assert (pc.hits, pc.misses) == (1, 1)


def test_page_cache_eviction_lru():
    pc = PageCache(capacity_bytes=2 * 2**20, block_bytes=2**20)  # 2 blocks
    pc.access(1, 0, 1)  # block 0
    pc.access(1, 2**20, 1)  # block 1
    pc.access(1, 0, 1)  # touch block 0 -> block 1 is now LRU
    pc.access(1, 2 * 2**20, 1)  # block 2 evicts block 1
    assert pc.access(1, 0, 1) == (1, 0)  # block 0 still resident
    assert pc.access(1, 2**20, 1) == (0, 1)  # block 1 was evicted


def test_page_cache_prefetch_counts_no_hits():
    pc = PageCache(capacity_bytes=8 * 2**20, block_bytes=2**20)
    added = pc.prefetch(5, 0, 3 * 2**20)
    assert added == 3
    assert pc.hits == 0 and pc.misses == 0
    hit, miss = pc.access(5, 0, 2**20)
    assert miss == 0 and hit >= 1


def test_page_cache_spanning_read():
    pc = PageCache(capacity_bytes=64 * 2**20, block_bytes=2**20)
    hit, miss = pc.access(9, 2**20 - 10, 20)  # spans blocks 0 and 1
    assert hit + miss == 2


# ---------------------------------------------------------------------------
# PFS
# ---------------------------------------------------------------------------

def test_pfs_metadata_contention_grows_queue():
    eng = Engine()
    pfs = ParallelFileSystem(eng, TESTBOX.pfs, n_client_nodes=4)
    firsts = [pfs.metadata_op(path_hash=0, arrival=0.0) for _ in range(50)]
    # All hitting the same MDS at t=0: queueing delay accumulates, so the
    # later half of the ops completes much later than the earlier half.
    early = sum(firsts[:10]) / 10
    late = sum(firsts[-10:]) / 10
    assert late > early + 10 * TESTBOX.pfs.metadata_service_s
    assert pfs.metadata_ops == 50


def test_pfs_read_cached_second_time_faster():
    eng = Engine()
    pfs = ParallelFileSystem(eng, TESTBOX.pfs, n_client_nodes=2)
    cold = pfs.read(0, file_id=1, offset=0, nbytes=1000, arrival=0.0)
    warm = pfs.read(0, file_id=1, offset=0, nbytes=1000, arrival=cold.completion)
    assert warm.latency < cold.latency
    assert warm.cached_fraction == 1.0
    assert cold.cached_fraction == 0.0


def test_pfs_caches_are_per_node():
    eng = Engine()
    pfs = ParallelFileSystem(eng, TESTBOX.pfs, n_client_nodes=2)
    pfs.read(0, file_id=1, offset=0, nbytes=1000, arrival=0.0)
    other = pfs.read(1, file_id=1, offset=0, nbytes=1000, arrival=1.0)
    assert other.cached_fraction == 0.0  # node 1 never read this file


def test_pfs_sequential_readahead_warms_cache():
    eng = Engine()
    pfs = ParallelFileSystem(eng, TESTBOX.pfs, n_client_nodes=1)
    first = pfs.read(0, file_id=3, offset=0, nbytes=4096, arrival=0.0, sequential=True)
    nxt = pfs.read(0, file_id=3, offset=4096, nbytes=4096, arrival=first.completion)
    assert nxt.cached_fraction == 1.0


def test_pfs_drop_caches():
    eng = Engine()
    pfs = ParallelFileSystem(eng, TESTBOX.pfs, n_client_nodes=1)
    pfs.read(0, file_id=1, offset=0, nbytes=100, arrival=0.0)
    pfs.drop_caches()
    again = pfs.read(0, file_id=1, offset=0, nbytes=100, arrival=10.0)
    assert again.cached_fraction == 0.0


def test_pfs_rejects_negative_read():
    eng = Engine()
    pfs = ParallelFileSystem(eng, TESTBOX.pfs, n_client_nodes=1)
    with pytest.raises(ValueError):
        pfs.read(0, file_id=1, offset=0, nbytes=-1, arrival=0.0)


def test_pfs_write_advances_time():
    eng = Engine()
    pfs = ParallelFileSystem(eng, TESTBOX.pfs, n_client_nodes=1)
    t = pfs.write(0, file_id=7, nbytes=50 * 2**20, arrival=0.0)
    assert t > 0.0


# ---------------------------------------------------------------------------
# GPU model
# ---------------------------------------------------------------------------

def _workload(n_graphs=128):
    return GnnWorkload(
        n_graphs=n_graphs,
        n_nodes=n_graphs * 52,
        n_edges=n_graphs * 110,
        node_feature_dim=8,
        output_dim=100,
    )


def test_gpu_backward_costs_more_than_forward():
    gpu = GpuModel(SUMMIT.gpu)
    w = _workload()
    assert gpu.backward_time(w) > gpu.forward_time(w)


def test_gpu_time_scales_with_batch():
    gpu = GpuModel(PERLMUTTER.gpu)
    small, big = _workload(32), _workload(256)
    assert gpu.forward_time(big) > gpu.forward_time(small)


def test_gpu_flops_positive_and_monotone_in_output_dim():
    w_small = GnnWorkload(128, 6656, 14080, 8, output_dim=1)
    w_big = GnnWorkload(128, 6656, 14080, 8, output_dim=37500)
    assert 0 < w_small.forward_flops() < w_big.forward_flops()


def test_gpu_h2d_and_optimizer_positive():
    gpu = GpuModel(SUMMIT.gpu)
    assert gpu.h2d_time(10 * 2**20) > 0
    assert gpu.optimizer_time(1_000_000) > 0


def test_workload_batch_bytes_counts_features():
    lo = GnnWorkload(10, 520, 1100, 1, 1).batch_bytes()
    hi = GnnWorkload(10, 520, 1100, 1, 37500).batch_bytes()
    assert hi > lo
