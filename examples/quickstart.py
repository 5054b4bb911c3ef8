#!/usr/bin/env python
"""Quickstart: build a DDStore over 8 simulated ranks and fetch a shuffled epoch.

Demonstrates the core API in ~60 lines:

1. launch a simulated MPI job on a 2-node Perlmutter allocation,
2. collectively create a DDStore over a synthetic Ising dataset,
3. run one globally-shuffled epoch through the torch-like DataLoader,
4. print per-rank fetch statistics (local vs remote, latencies).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import DataLoader, DDStore, DDStoreDataset, GeneratorSource
from repro.graphs import IsingGenerator
from repro.hardware import PERLMUTTER
from repro.mpi import run_world

N_SAMPLES = 256
BATCH_SIZE = 16


def rank_main(ctx):
    """This generator runs once per simulated MPI rank."""
    # 1. Every rank sees the same deterministic dataset definition.
    generator = IsingGenerator(N_SAMPLES, seed=42)
    source = GeneratorSource(generator, ctx.world.machine)

    # 2. Collective construction: split into replica groups, preload
    #    chunks, exchange the registry, expose RMA windows.
    store = yield from DDStore.create(ctx.comm, source, width=None)
    lo, hi = store.local_range
    print(
        f"[rank {ctx.rank}] holds samples [{lo}, {hi}) "
        f"({store.memory_bytes / 1024:.0f} KiB), "
        f"{store.n_replicas} replica(s) of {store.n_samples} samples"
    )

    # 3. A globally shuffled epoch through the DataLoader.
    loader = DataLoader(
        DDStoreDataset(store), ctx, batch_size=BATCH_SIZE, shuffle="global", seed=0
    )
    seen = []
    for indices in loader.epoch_batches(epoch=0):
        loaded = yield from loader.load(indices)
        seen.extend(int(s) for s in loaded.batch.sample_ids)

    # 4. Report what happened on this rank.
    lat = store.stats.latency_array() * 1e3
    print(
        f"[rank {ctx.rank}] fetched {store.stats.n_total} graphs "
        f"({store.stats.n_local} local / {store.stats.n_remote} remote), "
        f"median latency {np.median(lat):.3f} ms, p99 {np.percentile(lat, 99):.3f} ms"
    )
    return sorted(seen)


def main():
    job = run_world(PERLMUTTER, n_nodes=2, rank_main=rank_main, seed=0)
    all_seen = sorted(i for ids in job.results for i in ids)
    assert all_seen == list(range(N_SAMPLES)), "every sample exactly once!"
    print(
        f"\nepoch covered all {N_SAMPLES} samples exactly once across "
        f"{job.world.n_ranks} ranks in {job.elapsed * 1e3:.2f} ms of simulated time"
    )


if __name__ == "__main__":
    main()
