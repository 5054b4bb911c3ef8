"""Failure/perturbation injection: stragglers, contention storms, memory caps.

These exercise the paper's systemic claims: imbalanced loading stalls the
whole job at gradient sync (the GPU-Comm inflation of Fig 5), filesystem
contention hits PFF hardest, and over-replication exhausts node memory.
"""

import numpy as np

from repro.core import DDStore, GeneratorSource
from repro.gnn import AdamW, DistributedModel, HydraGNN, HydraGNNConfig, Trainer
from repro.core import DataLoader, DDStoreDataset
from repro.graphs import IsingGenerator
from repro.hardware import Cluster, Interconnect, TESTBOX
from repro.mpi import World, run_world
from repro.sim import Engine


def test_straggler_rank_inflates_everyones_step_time():
    # One rank pauses before the allreduce; DDP's lock-step sync makes
    # every rank pay for it (the tail-latency -> GPU-Comm effect).
    def main(ctx, straggler_delay):
        yield from ctx.comm.barrier()
        t0 = ctx.now
        if ctx.rank == 2 and straggler_delay:
            yield ctx.engine.timeout(straggler_delay)
        yield from ctx.comm.allreduce(np.ones(4))
        return ctx.now - t0

    clean = run_world(TESTBOX, 2, lambda c: main(c, 0.0), seed=0).results
    slow = run_world(TESTBOX, 2, lambda c: main(c, 0.5), seed=0).results
    assert max(clean) < 0.01
    assert min(slow) >= 0.5  # every rank waited for the straggler


def test_straggler_during_training_shows_in_gpu_comm_phase():
    def main(ctx, inject):
        src = GeneratorSource(IsingGenerator(32, seed=0), ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, src)
        model = HydraGNN(
            HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=8, n_conv_layers=1),
            seed=0,
        )
        dmodel = DistributedModel(model, ctx.comm)
        loader = DataLoader(DDStoreDataset(store), ctx, batch_size=4)
        trainer = Trainer(ctx, dmodel, loader, AdamW(model.params()), real_compute=False)
        if inject and ctx.rank == 1:
            yield ctx.engine.timeout(0.05)  # late start = persistent lag
        report = yield from trainer.train_epoch(0)
        return report.phases.seconds["gpu_comm"]

    comm_clean = max(run_world(TESTBOX, 2, lambda c: main(c, False), seed=3).results)
    comm_slow = max(run_world(TESTBOX, 2, lambda c: main(c, True), seed=3).results)
    assert comm_slow > comm_clean + 0.04  # the lag surfaces as sync wait


def test_network_hotspot_storm_degrades_single_target():
    # Saturating one node's NIC with a storm slows later gets to the same
    # node but barely affects gets to an idle node.
    cluster = Cluster(Engine(), TESTBOX, n_nodes=4)
    net = Interconnect(cluster)
    # Storm: 1 MiB gets keep node 1's outbound NIC ~100% utilised (each
    # transfer takes about as long as the issuing CPU's per-get software
    # path, so the link never drains).
    net.rma_get_batch(0, np.full(500, 2), np.full(500, 2**20), 0.0)
    mid = 0.02  # well inside the storm window
    hot = net.rma_get(4, 2, 4096, arrival=mid)  # to the stormed node
    cold = net.rma_get(6, 4, 4096, arrival=mid)  # to an idle node
    assert hot.latency > 2 * cold.latency


def test_memory_exhaustion_from_overreplication():
    # TESTBOX nodes have 4 GiB; a dataset chunk too large for DRAM must
    # fail loudly at preload, not corrupt the run.
    class HugeSource:
        n_samples = 4
        read_chunk_raw = None

        def load_chunk(self, indices, node_index, engine):
            yield engine.timeout(0.0)
            from repro.mpi import Pieces

            buf = np.zeros(5 * 2**30, dtype=np.uint8)  # > node DRAM
            return Pieces([buf]).cut([buf.size // 4] * 4)

    def main(ctx):
        try:
            yield from DDStore.create(ctx.comm, HugeSource())
        except MemoryError as exc:
            return str(exc)

    # Both ranks of the one node are refused; a refusal charges nothing, so
    # neither sees the other's refused chunk and the node stays empty.
    world = World(TESTBOX, 1)
    messages = run_world(TESTBOX, 1, main, world=world).results
    assert len(messages) == 2
    assert all("over-committed: 5.0 GiB used" in m for m in messages), messages
    assert world.cluster.nodes[0].mem_used_bytes == 0


def test_pfs_contention_storm_slows_metadata():
    from repro.hardware import ParallelFileSystem

    eng = Engine()
    pfs = ParallelFileSystem(eng, TESTBOX.pfs, n_client_nodes=2)
    # Storm the MDS pool.
    for i in range(400):
        pfs.metadata_op(path_hash=i, arrival=0.0)
    victim = pfs.metadata_op(path_hash=12345, arrival=0.0)
    quiet = ParallelFileSystem(Engine(), TESTBOX.pfs, n_client_nodes=2)
    baseline = quiet.metadata_op(path_hash=12345, arrival=0.0)
    assert victim > 5 * baseline
