#!/usr/bin/env python
"""Distributed HydraGNN training on synthetic AISD HOMO-LUMO molecules.

The paper's motivating workload: predict the HOMO-LUMO gap of organic
molecules with a multi-headed PNA network trained under distributed data
parallelism, with DDStore serving globally-shuffled batches from memory.

This example runs *real* numerics (NumPy forward/backward, AdamW,
gradient allreduce through the simulated MPI) on a reduced dataset and
reports the loss trajectory plus the per-phase time breakdown of Fig 5.

Run:  python examples/train_homo_lumo.py
"""

from repro.core import DataLoader, DDStore, DDStoreDataset, GeneratorSource
from repro.gnn import AdamW, DistributedModel, HydraGNN, HydraGNNConfig, Trainer
from repro.graphs import MoleculeGenerator
from repro.hardware import PERLMUTTER
from repro.mpi import run_world

N_SAMPLES = 256
BATCH_SIZE = 16
EPOCHS = 6


def rank_main(ctx):
    generator = MoleculeGenerator(N_SAMPLES, seed=7)
    source = GeneratorSource(generator, ctx.world.machine)
    store = yield from DDStore.create(ctx.comm, source)

    # Paper architecture, scaled down: PNA trunk + one regression head.
    model = HydraGNN(
        HydraGNNConfig(
            feature_dim=generator.feature_dim,
            head_dims=(1,),  # the HOMO-LUMO gap
            hidden_dim=32,
            n_conv_layers=3,
            n_fc_layers=2,
        ),
        seed=0,
    )
    dmodel = DistributedModel(model, ctx.comm)
    yield from dmodel.broadcast_parameters()

    loader = DataLoader(
        DDStoreDataset(store), ctx, batch_size=BATCH_SIZE, shuffle="global", seed=1
    )
    optimizer = AdamW(model.params(), lr=2e-3, weight_decay=1e-4)
    trainer = Trainer(ctx, dmodel, loader, optimizer, real_compute=True)

    losses = []
    last_report = None
    for epoch in range(EPOCHS):
        report = yield from trainer.train_epoch(epoch)
        losses.append(report.train_loss)
        last_report = report
        if ctx.rank == 0:
            print(
                f"epoch {epoch}: train MSE {report.train_loss:.4f}  "
                f"({report.throughput:,.0f} samples/s virtual)"
            )
    # DDP invariant: all ranks share the same weights after training.
    yield from dmodel.assert_synchronised()
    return losses, last_report.phases.seconds


def main():
    job = run_world(PERLMUTTER, n_nodes=1, rank_main=rank_main, seed=0)
    losses, phases = job.results[0]
    assert losses[-1] < losses[0], "training must reduce the loss"
    print("\nper-phase breakdown of the last epoch (rank 0, virtual ms):")
    for phase, seconds in phases.items():
        print(f"  {phase:13s} {seconds * 1e3:8.2f} ms")
    print(f"\nfinal loss {losses[-1]:.4f} (from {losses[0]:.4f}) — "
          f"weights verified identical on all {job.world.n_ranks} ranks")


if __name__ == "__main__":
    main()
