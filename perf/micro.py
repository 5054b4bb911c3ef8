#!/usr/bin/env python3
"""Host-clock microbenches of the pure-Python hot paths (ROADMAP item 1).

    python3 perf/micro.py [--seed N] [--out FILE] [--smoke]

Inputs are generated from ``--seed``.  Each bench is calibrated so one sample
is at least 0.1 s of timed work, five samples are taken (>= 0.5 s in all) and
the median is reported.  These are reported once under a ``micro`` block of
``run.py --micro``; they are not per-workload metrics.
"""

import os
import sys

from pinenv import reexec_pinned

if __name__ == "__main__":
    reexec_pinned()  # must hold before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from repro.dataplane.planner import FetchPlanner  # noqa: E402
from repro.graphs import BatchArena  # noqa: E402
from repro.graphs.datasets import DATASETS  # noqa: E402
from repro.graphs.spectra import gaussian_smooth_spectrum  # noqa: E402
from repro.sim import Engine  # noqa: E402
from repro.storage import pack_graph, unpack_graph  # noqa: E402
from repro.storage.columnar import pack_shard, unpack_shard  # noqa: E402

SAMPLES = 5
MIN_SAMPLE_S = 0.1
BATCH = 64


def _time(fn, min_sample_s: float) -> float:
    """Median seconds per call of ``fn`` over SAMPLES calibrated samples."""
    calls = 1
    while True:
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t
        if elapsed >= min_sample_s:
            break
        calls = max(calls * 2, int(calls * min_sample_s / max(elapsed, 1e-9)) + 1)
    per_call = []
    for _ in range(SAMPLES):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t) / calls)
    return statistics.median(per_call)


def run_micro(seed: int, min_sample_s: float = MIN_SAMPLE_S) -> dict:
    rng = np.random.default_rng(seed)
    gen = DATASETS["aisd-ex-discrete"].make(BATCH, seed)
    graphs = [gen.make(i) for i in range(BATCH)]
    blobs = [pack_graph(g) for g in graphs]
    sizes = np.array([len(b) for b in blobs], np.int64)
    row_bytes = int(sizes.sum())
    out: dict[str, dict] = {}

    # one batch's remote requests: 16 owners, samples back to back per owner
    targets = rng.integers(0, 16, size=BATCH)
    offsets = np.zeros(BATCH, np.int64)
    for t in range(16):
        sel = np.nonzero(targets == t)[0]
        offsets[sel] = np.concatenate(([0], np.cumsum(sizes[sel])[:-1]))
    planner = FetchPlanner(coalesce=True)
    s = _time(lambda: planner.plan(targets, offsets, sizes), min_sample_s)
    out["dataplane.micro_plan_coalesced_us"] = dict(value=s * 1e6, unit="us")

    nn = np.array([g.n_nodes for g in graphs], np.int64)
    ne = np.array([g.n_edges for g in graphs], np.int64)
    f_dim, y_dim = graphs[0].feature_dim, graphs[0].output_dim
    s = _time(lambda: planner.plan_arena(nn, ne, f_dim, y_dim), min_sample_s)
    out["dataplane.micro_plan_arena_us"] = dict(value=s * 1e6, unit="us")

    smap = planner.plan_arena(nn, ne, f_dim, y_dim)
    arena = BatchArena()
    arena.reset(nn, ne, f_dim, y_dim, np.arange(BATCH))
    fields = tuple(arena.field_bytes[name] for name in ("positions", "node_features",
                                                        "edge_index", "y"))
    payloads = [np.frombuffer(b, np.uint8) for b in blobs]

    def scatter():
        for p, payload in enumerate(payloads):
            smap.scatter(p, 0, payload.size, payload, fields)

    s = _time(scatter, min_sample_s)
    out["dataplane.micro_scatter_mb_per_s"] = dict(value=row_bytes / s / 1e6, unit="MB/s")

    def decode():
        for b in blobs:
            unpack_graph(b)

    s = _time(decode, min_sample_s)
    out["storage.micro_agrf_decode_us"] = dict(value=s / BATCH * 1e6, unit="us")

    s = _time(lambda: pack_shard(graphs), min_sample_s)
    out["storage.micro_agrc_encode_mb_per_s"] = dict(value=row_bytes / s / 1e6, unit="MB/s")
    shard = pack_shard(graphs)
    s = _time(lambda: unpack_shard(shard), min_sample_s)
    out["storage.micro_agrc_decode_mb_per_s"] = dict(value=len(shard) / s / 1e6, unit="MB/s")

    peaks = np.sort(rng.uniform(1.0, 8.0, size=50)).astype(np.float32)
    intens = rng.uniform(0.1, 1.0, size=50).astype(np.float32)
    s = _time(lambda: gaussian_smooth_spectrum(peaks, intens, 37500), min_sample_s)
    out["graphs.micro_spectrum_us"] = dict(value=s * 1e6, unit="us")

    n_procs, n_timeouts = 16, 500
    delays = rng.uniform(1e-6, 1e-3, size=(n_procs, n_timeouts)).tolist()

    def engine_loop():
        engine = Engine()

        def proc(row):
            for d in row:
                yield engine.timeout(d)

        for row in delays:
            engine.process(proc(row))
        engine.run()

    s = _time(engine_loop, min_sample_s)
    out["sim.micro_timeout_events_per_s"] = dict(value=n_procs * n_timeouts / s, unit="1/s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="also write the block to this JSON file")
    ap.add_argument("--smoke", action="store_true", help="1 ms samples: checks the code path only")
    args = ap.parse_args()
    block = run_micro(args.seed, 1e-3 if args.smoke else MIN_SAMPLE_S)
    for name, m in block.items():
        print(f"{name:44s} {m['value']!r:>24} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(block, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
