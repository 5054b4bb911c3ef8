#!/usr/bin/env python
"""Elastic re-sharding: change the replication width without touching disk.

The paper's §2.2 motivates DDStore partly with this pain point: under
classic data sharding, any change to the process count or replication
layout forces a slow re-partitioning through the parallel filesystem.
Because DDStore already holds the dataset in the job's DRAM, the same
restructure is a memory-to-memory RMA shuffle.

This example builds a single-replica store, reshards it to four replicas
(width = ranks-per-node, making every fetch an intra-node shared-memory
load), and compares the cost against rebuilding from the filesystem.

Run:  python examples/elastic_reshard.py
"""

import numpy as np

from repro.core import DDStore, ReaderSource
from repro.graphs import MoleculeGenerator
from repro.hardware import PERLMUTTER
from repro.mpi import run_world
from repro.storage import CFFReader, CFFWriter

N_SAMPLES = 512


def rank_main(ctx):
    vfs = ctx.world.vfs
    gen = MoleculeGenerator(N_SAMPLES, seed=1)
    if ctx.rank == 0:
        CFFWriter.write(vfs, "molecules", gen, n_subfiles=4)
    yield from ctx.comm.barrier()
    reader = CFFReader(vfs, "molecules", ctx.world.machine)

    # Initial store: one replica striped over all 16 ranks.
    t0 = ctx.now
    store = yield from DDStore.create(ctx.comm, ReaderSource(reader))
    build_time = ctx.now - t0

    yield from store.get_samples(np.arange(ctx.rank, N_SAMPLES, ctx.size)[:16])
    wide_median = float(np.median(store.stats.latencies[-1]))

    # Reshard in memory: width 4 = every group lives on one node.
    t0 = ctx.now
    narrow = yield from store.reshard(width=4)
    reshard_time = ctx.now - t0

    # The new store's stats carry the old store's entries (reshard merges
    # them), so its own fetch is the last entry, not the whole log.
    yield from narrow.get_samples(np.arange(ctx.rank, N_SAMPLES, ctx.size)[:16])
    narrow_median = float(np.median(narrow.stats.latencies[-1]))

    # The honest alternative: rebuild from the filesystem with cold caches.
    ctx.world.pfs.drop_caches()
    t0 = ctx.now
    rebuilt = yield from DDStore.create(ctx.comm, ReaderSource(reader), width=4)
    rebuild_time = ctx.now - t0

    return dict(
        build=build_time,
        reshard=reshard_time,
        rebuild=rebuild_time,
        wide_median=wide_median,
        narrow_median=narrow_median,
        replicas=(store.n_replicas, narrow.n_replicas, rebuilt.n_replicas),
    )


def main():
    job = run_world(PERLMUTTER, n_nodes=4, rank_main=rank_main, seed=0)
    r = job.results[0]
    print(f"replicas: 1 -> {r['replicas'][1]} (width 16 -> 4 over 16 ranks)")
    print(f"initial build from PFS : {r['build'] * 1e3:8.1f} ms")
    print(f"in-memory reshard      : {r['reshard'] * 1e3:8.1f} ms")
    print(f"rebuild from cold PFS  : {r['rebuild'] * 1e3:8.1f} ms")
    print(
        f"median fetch latency   : {r['wide_median'] * 1e3:.3f} ms (1 replica) -> "
        f"{r['narrow_median'] * 1e3:.3f} ms (node-local replicas)"
    )
    assert r["reshard"] < r["rebuild"], "memory shuffle must beat the filesystem"


if __name__ == "__main__":
    main()
