"""Ablation studies beyond the paper's figures.

Each driver isolates one design decision DESIGN.md calls out — the
paper's rejected two-sided data plane (§3.1), global vs local shuffle,
the NVMe burst-buffer recipe, loader concurrency, page-cache state, the
message-passing policy — or one of this repo's data-plane extensions
(coalescing, epoch-ahead scheduling, columnar arenas, the tiered cache,
straggler failover, node-aggregated waves; multi-tenant serving and
elastic width control live in :mod:`.serving` / :mod:`.elastic`).

All take a :class:`~.cells.ScaleProfile` and return ``(text, data)``
like the figure drivers; ``data["checks"]`` names the acceptance bar and
``python -m repro ablation <name> --check`` turns a failed check into a
nonzero exit.  The artifacts that print their ``checks`` dict keep its
keys frozen (the reports are compared byte for byte across commits).
"""

from __future__ import annotations

import numpy as np

from .cells import (
    STRAGGLER_TIMEOUT_S,
    TIERED_DRAM,
    TIERED_FULL,
    TIERED_PROBE,
    WAVES,
    ScaleProfile,
)
from .harness import run_experiment
from .reporting import render_table
from .sweep import (
    Sweep,
    count,
    count_mb,
    eval_split,
    fingerprint,
    ms,
    named_checks,
    pct_ms,
    real_trainer,
    rerun_matches,
    stage_ms,
    throughput,
)

LATENCY_COLUMNS = (("samples/s", throughput), ("p50 (ms)", pct_ms(50)), ("p99 (ms)", pct_ms(99)))


# ---------------------------------------------------------------------------
# one-sided RMA vs two-sided message exchange
# ---------------------------------------------------------------------------


def ablation_dataplane(profile: ScaleProfile):
    runs = Sweep(
        "ablation",
        profile,
        [("one-sided RMA", dict(method="ddstore")), ("two-sided p2p", dict(method="ddstore-p2p"))],
    )
    records = runs.records("throughput", "p50", "p99")
    data = {runs.configs[label].method: rec for label, rec in records.items()}
    data["rma_speedup"] = data["ddstore"]["throughput"] / data["ddstore-p2p"]["throughput"]
    # The paper chose RMA because two-sided exchange needs the target's
    # involvement; the polling delay must show up as slower fetches.
    data["checks"] = named_checks(
        rma_faster_end_to_end=data["rma_speedup"] > 1.1,
        rma_faster_at_the_median=data["ddstore"]["p50"] < data["ddstore-p2p"]["p50"],
    )
    text = runs.table(
        "Data plane",
        LATENCY_COLUMNS,
        title="Ablation — communication framework f: RMA vs two-sided (paper §3.1's rejected design)",
    )
    return text, data


# ---------------------------------------------------------------------------
# fetch coalescing and the hot-sample cache
# ---------------------------------------------------------------------------


def ablation_coalescing(profile: ScaleProfile):
    """Data-plane knobs: request coalescing and the hot-sample cache.

    Coalescing merges adjacent remote byte ranges into single RMA gets
    (fewer, larger wire reads for the same bytes); the cache trades DRAM
    for repeat remote fetches across epochs.  Two epochs so the cache row
    sees the global shuffle revisit the same id set.
    """
    ON, OFF = "coalescing on (default)", "coalescing off (seed path)"
    CACHED = "coalescing + 64MB cache"
    runs = Sweep(
        "ablation",
        profile,
        [
            (ON, dict(epochs=2)),
            (OFF, dict(epochs=2, coalesce=False)),
            (CACHED, dict(epochs=2, cache_bytes=64 << 20)),
        ],
    )
    data = runs.records("throughput", "p50", "counters", "stages")
    on, off, cached = (data[label]["counters"] for label in (ON, OFF, CACHED))
    stages = [data[label]["stages"] for label in (ON, OFF, CACHED)]
    data["checks"] = named_checks(
        uncoalesced_is_one_get_per_sample=off["n_get_calls"] == off["n_remote"],
        # merging adjacent ranges: strictly fewer reads for the same
        # samples and the same logical bytes
        coalescing_cuts_gets=on["n_get_calls"] < off["n_get_calls"],
        same_samples_either_way=on["n_remote"] == off["n_remote"],
        same_bytes_either_way=on["bytes_remote"] == off["bytes_remote"],
        # the cache converts second-epoch remote fetches into hits
        cache_hits_second_epoch=cached["n_cache_hits"] > 0,
        cache_cuts_remote_fetches=cached["n_remote"] < on["n_remote"],
        wire_stage_charged=all(s.get("get", 0.0) > 0.0 for s in stages),
        stages_nonnegative=all(v >= 0.0 for s in stages for v in s.values()),
    )
    text = runs.table(
        "Data-plane config",
        (
            ("samples/s", throughput),
            ("p50 (ms)", pct_ms(50)),
            ("wire gets", count("n_get_calls")),
            ("remote samples", count("n_remote")),
            ("MB moved", count_mb("bytes_transferred")),
            ("cache hits", count("n_cache_hits")),
        ),
        title="Ablation — fetch coalescing and hot-sample cache (DDStore, 2 epochs)",
    )
    return text, data


# ---------------------------------------------------------------------------
# epoch-ahead fetch scheduling: depth-k prefetch x eviction policy x waves
# ---------------------------------------------------------------------------

#: ``epoch_boundary_hidden``: the mean step-0 stall of epochs >= 1 must be
#: below this fraction of epoch 0's (the run's one cold fill).
BOUNDARY_STALL_FRACTION = 0.25


def _step0_stalls(spans) -> tuple[float, float]:
    """Mean step-0 ``data_wait`` of (epoch 0, epochs >= 1) over all ranks.

    A fully hidden step records no span and counts as a zero stall.
    """
    waits = [
        s
        for s in spans
        if s.cat == "trainer.stage"
        and s.name == "data_wait"
        and dict(s.args).get("step") == 0
    ]
    first: list[float] = []
    later: list[float] = []
    for e in spans:
        if e.cat != "trainer.epoch":
            continue
        stall = sum(
            s.duration
            for s in waits
            if s.track == e.track and e.start <= s.start and s.end <= e.end
        )
        (first if dict(e.args)["epoch"] == 0 else later).append(stall)
    return float(np.mean(first)), float(np.mean(later))


def ablation_prefetch(profile: ScaleProfile):
    """Sweep the epoch-ahead data-plane scheduler's knob space.

    Grid: prefetch depth k in {1, 2, 4, 8}, plain pipeline (no cache, no
    waves) vs wave scheduling with the LRU and Belady (farthest-reuse)
    cache policies.  ``k=1`` plain is the seed pipeline.  Two epochs so
    the global shuffle revisits the id set and the cache policies
    diverge.  Checks:

    * ``deterministic`` — the depth-4 wave/Belady cell, re-run from
      scratch, reproduces the cached run's :func:`~.sweep.fingerprint`;
    * ``depth4_not_slower`` — depth-4 wave/Belady beats the depth-1 seed
      pipeline's epoch time, and by the advertised route: its waves
      prefetched, demand loads hit the cache, and — Belady knowing the
      future — no prefetched sample was evicted before use (zero demand
      remote fetches, never more than LRU's); overlap efficiencies are
      fractions and the plain depth-4 pipeline hides more load than
      depth 1;
    * ``epoch_boundary_hidden`` — on the traced rerun of that cell the
      mean step-0 stall of epochs >= 1 is below
      ``BOUNDARY_STALL_FRACTION`` of epoch 0's: the window is carried
      across the epoch boundary, so only the run's first step pays a cold
      fill.
    """
    from ..obs import Observer

    depths = (1, 2, 4, 8)
    runs = Sweep(
        "prefetch",
        profile,
        [(f"depth{k} plain", dict(prefetch_depth=k)) for k in depths]
        + [
            (f"depth{k} waves/{policy}", dict(WAVES, prefetch_depth=k, cache_policy=policy))
            for policy in ("lru", "belady")
            for k in depths
        ],
    )
    data: dict = {
        "cells": runs.records(
            "elapsed", "overlap_efficiency", "data_wait", "throughput", "counters"
        )
    }
    # The rerun is traced (tracing never moves virtual time), which also
    # yields the per-step stalls for the epoch-boundary check.
    observer = Observer(trace=True)
    deterministic = rerun_matches(runs.configs["depth4 waves/belady"], observer=observer)
    cold, carried = _step0_stalls(observer.tracer.spans)
    data["step0_stall"] = {"epoch0": cold, "later_epochs": carried}
    base, plain4 = runs["depth1 plain"], runs["depth4 plain"]
    best, lru = runs["depth4 waves/belady"], runs["depth4 waves/lru"]
    bc = best.fetch_counters
    data["checks"] = named_checks(
        deterministic=deterministic,
        depth4_not_slower=best.elapsed < base.elapsed
        and bc["n_prefetched"] > 0
        and bc["n_cache_hits"] > 0
        and bc["n_remote"] == 0
        and bc["n_remote"] <= lru.fetch_counters["n_remote"]
        and 0.0 <= base.overlap_efficiency <= 1.0
        and 0.0 <= best.overlap_efficiency <= 1.0
        and plain4.overlap_efficiency > base.overlap_efficiency,
        epoch_boundary_hidden=carried <= BOUNDARY_STALL_FRACTION * cold,
    )
    data["speedup_depth4_belady"] = (
        base.elapsed / best.elapsed if best.elapsed > 0 else float("inf")
    )
    data["overlap_efficiency"] = best.overlap_efficiency

    text = runs.table(
        "Pipeline",
        (
            ("epoch (ms)", ms("elapsed")),
            ("overlap", lambda r: f"{r.overlap_efficiency:.3f}"),
            ("stall (ms)", ms("data_wait")),
            ("prefetched", count("n_prefetched")),
            ("cache hits", count("n_cache_hits")),
            ("demand remote", count("n_remote")),
        ),
        title=(
            "Ablation — epoch-ahead fetch scheduling "
            "(depth-k prefetch x waves x eviction policy, 2 epochs, global shuffle)"
        ),
    )
    text += (
        f"\ndepth4 waves/belady speedup over depth1 plain: "
        f"{data['speedup_depth4_belady']:.2f}x"
        f"\ndepth4 waves/belady mean step-0 stall: epoch 0 {cold * 1e3:.3f} ms, "
        f"epochs >= 1 {carried * 1e3:.3f} ms "
        f"(bar: <= {BOUNDARY_STALL_FRACTION:.2f}x of epoch 0)"
        f"\nchecks: {data['checks']}"
    )
    return text, data


# ---------------------------------------------------------------------------
# zero-copy columnar batch assembly: row decode vs arena scatter
# ---------------------------------------------------------------------------


def ablation_columnar(profile: ScaleProfile):
    """Row-decode loader vs zero-copy columnar arena scatter.

    Five cells: the row/columnar pair on the decode-bound local-shard
    cell (every fetch is a cheap shared-memory copy, so per-sample decode
    *is* the row loader), the same pair under global shuffle (the wire
    path dilutes the win), and columnar composed with depth-4 wave
    scheduling (arena scatter fed from cache-parked wave payloads).
    Checks:

    * ``deterministic`` — the global columnar cell, re-run from scratch,
      reproduces the cached run's :func:`~.sweep.fingerprint`;
    * ``columnar_2x`` — columnar epoch time is at least 2x faster than
      the row pipeline on the decode-bound cell;
    * ``zero_scatter_allocs`` — that fresh global columnar run performs
      *zero* per-sample ndarray allocations (neither the local- nor the
      wire-scatter arm ever materialises a sample);
    * ``row_path_allocates`` — the instrumented row run does allocate
      (the counter itself is live, so the zero above is meaningful);
    * ``decode_iff_row`` — the "decode" stage is charged on exactly the
      row cells (arena scatter replaces it, never runs beside it).
    """
    from ..graphs import SAMPLE_ALLOCATIONS

    columnar_global = dict(columnar=True, shuffle="global")
    runs = Sweep(
        "columnar",
        profile,
        [
            ("row local (decode-bound)", dict(columnar=False)),
            ("columnar local (decode-bound)", dict(columnar=True)),
            ("row global", dict(columnar=False, shuffle="global")),
            ("columnar global", columnar_global),
            (
                "columnar global depth4 waves/belady",
                dict(WAVES, **columnar_global, prefetch_depth=4, cache_policy="belady"),
            ),
        ],
    )
    data: dict = {"cells": runs.records("elapsed", "data_wait", "throughput", "stages", "counters")}

    # Global shuffle exercises both scatter arms (local copy + wire RMA).
    SAMPLE_ALLOCATIONS.reset()
    deterministic = rerun_matches(runs.configs["columnar global"])
    columnar_allocs = SAMPLE_ALLOCATIONS.count
    SAMPLE_ALLOCATIONS.reset()
    run_experiment(runs.configs["row global"])
    row_allocs = SAMPLE_ALLOCATIONS.count

    baseline = runs["row local (decode-bound)"].elapsed
    columnar = runs["columnar local (decode-bound)"].elapsed
    data["checks"] = named_checks(
        deterministic=deterministic,
        columnar_2x=columnar > 0 and baseline / columnar >= 2.0,
        zero_scatter_allocs=columnar_allocs == 0,
        row_path_allocates=row_allocs > 0,
        decode_iff_row=all(
            (r.fetch_stages.get("decode", 0.0) == 0.0) == label.startswith("columnar")
            for label, r in runs.results.items()
        ),
    )
    data["speedup_columnar"] = baseline / columnar if columnar > 0 else float("inf")
    data["speedup_columnar_global"] = runs["row global"].elapsed / runs["columnar global"].elapsed
    data["columnar_allocations"] = int(columnar_allocs)
    data["row_allocations"] = int(row_allocs)

    text = runs.table(
        "Byte path",
        (
            ("epoch (ms)", ms("elapsed")),
            ("stall (ms)", ms("data_wait")),
            ("decode (ms)", stage_ms("decode")),
            ("scatter (ms)", stage_ms("scatter")),
            ("remote", count("n_remote")),
        ),
        title=(
            "Ablation — zero-copy columnar batch assembly "
            "(row decode vs arena scatter, decode-bound spectrum cell)"
        ),
    )
    text += (
        f"\ncolumnar speedup, decode-bound cell: {data['speedup_columnar']:.2f}x"
        f"  (global shuffle: {data['speedup_columnar_global']:.2f}x)"
        f"\nper-sample ndarray allocations — row: {row_allocs:,}, "
        f"columnar: {columnar_allocs:,}"
        f"\nchecks: {data['checks']}"
    )
    return text, data


# ---------------------------------------------------------------------------
# tiered cache hierarchy: GPU-pinned -> DRAM -> NVMe -> PFS
# ---------------------------------------------------------------------------

#: ``ablation_tiered``'s cells, as data: ``python -m repro trace tiered``
#: traces the last one.
TIERED_VARIANTS = (
    (
        "pfs demand (cff, cold)",
        dict(method="cff", warm_page_cache=False, columnar=False, scheduler=False,
             prefetch_depth=1, cache_policy="lru"),
    ),
    ("dram only (belady eviction)", dict(cache_bytes=4 << 20)),
    ("dram only (spelled as one tier)", dict(tiers=TIERED_DRAM)),
    ("dram+nvme tiered", dict(tiers=f"{TIERED_DRAM}+nvme:256m")),
    ("gpu+dram+nvme tiered", dict(tiers=TIERED_FULL)),
    ("nvme full-stage (zero-wire probe)", dict(tiers=TIERED_PROBE)),
)


def ablation_tiered(profile: ScaleProfile):
    """Tiered cache hierarchy vs flat DRAM vs demand PFS reads.

    Six cells, identical training work: demand reads from the parallel
    filesystem (CFF, cold page cache — the no-cache floor); a flat
    per-rank DRAM cache with Belady eviction (the PR-6 data plane),
    spelled ``cache_bytes=`` and again as ``tiers="dram:<same>"``; the
    DRAM tier plus a node-shared NVMe tier (packed shards staged at
    create time, Belady-fed promotion/demotion at the boundary); the
    full hierarchy with a GPU-pinned tier on top; and a full-stage probe
    whose NVMe tier holds the entire dataset.  The headline tiered cells
    stage a *prefix* of the dataset, so tier-aware waves split each
    window between flash and fabric and the two byte sources run
    concurrently — that split is the fastest configuration, because the
    node-shared SSD serializes its six ranks while RMA fetches spread
    over every remote target.  The probe trades that concurrency for a
    pure-flash byte path, which is what the zero-copy invariants are
    asserted on.  Checks:

    * ``deterministic`` — the full-hierarchy cell *and* the full-stage
      probe, re-run from scratch, reproduce their cached runs'
      :func:`~.sweep.fingerprint`;
    * ``tiered_1_3x`` — the full hierarchy beats the flat
      same-DRAM-budget baseline by >= 1.3x epoch time, and the GPU tier
      on top of dram+nvme helps too;
    * ``pfs_2x`` — it beats demand PFS reads by >= 2x (and dram+nvme
      alone already beats them: each added tier helps on this cell);
    * ``zero_promote_allocs`` — the fresh probe run performs zero
      per-sample ndarray allocations: with flash the only wave byte
      source, NVMe->arena promotion scatters device-resident bytes
      straight into batch arenas;
    * ``nvme_feeds_prefetch`` — the probe's waves promote every sample
      from NVMe (prefetched samples, zero prefetch wire bytes) and the
      headline tiered cells move strictly fewer wire bytes than the
      flat baseline, i.e. the staged tier really offloads the fabric;
    * ``flat_is_one_tier`` — the two spellings of the flat baseline are
      one configuration: same fingerprint.
    """
    from ..graphs import SAMPLE_ALLOCATIONS

    runs = Sweep("tiered", profile, TIERED_VARIANTS)
    data: dict = {
        "cells": runs.records(
            "elapsed", "data_wait", "overlap_efficiency", "throughput", "stages", "counters"
        )
    }
    deterministic = rerun_matches(runs.configs["gpu+dram+nvme tiered"])
    SAMPLE_ALLOCATIONS.reset()
    deterministic &= rerun_matches(runs.configs["nvme full-stage (zero-wire probe)"])
    promote_allocs = SAMPLE_ALLOCATIONS.count

    pfs = runs["pfs demand (cff, cold)"]
    flat = runs["dram only (belady eviction)"]
    dram_nvme = runs["dram+nvme tiered"]
    full = runs["gpu+dram+nvme tiered"]
    probe = runs["nvme full-stage (zero-wire probe)"].fetch_counters
    flat_wire = flat.fetch_counters["bytes_prefetched"]
    data["checks"] = named_checks(
        deterministic=deterministic,
        tiered_1_3x=0 < full.elapsed < dram_nvme.elapsed and flat.elapsed / full.elapsed >= 1.3,
        pfs_2x=dram_nvme.elapsed < pfs.elapsed and pfs.elapsed / full.elapsed >= 2.0,
        zero_promote_allocs=promote_allocs == 0,
        nvme_feeds_prefetch=probe["n_prefetched"] > 0
        and probe["bytes_prefetched"] == 0
        and all(0 < r.fetch_counters["bytes_prefetched"] < flat_wire for r in (dram_nvme, full)),
        flat_is_one_tier=fingerprint(flat) == fingerprint(runs["dram only (spelled as one tier)"]),
    )
    data["speedup_vs_flat"] = flat.elapsed / full.elapsed
    data["speedup_vs_pfs"] = pfs.elapsed / full.elapsed
    data["promote_allocations"] = int(promote_allocs)

    text = runs.table(
        "Cache hierarchy",
        (
            ("epoch (ms)", ms("elapsed")),
            ("stall (ms)", ms("data_wait")),
            ("promote (ms)", stage_ms("promote")),
            ("prefetched", count("n_prefetched")),
            ("fast hits", count("n_cache_hits")),
            ("wire MB prefetched", count_mb("bytes_prefetched")),
        ),
        title=(
            "Ablation — tiered cache hierarchy "
            "(GPU-pinned -> DRAM -> NVMe -> PFS, Belady-fed, Summit burst buffer)"
        ),
    )
    text += (
        f"\nfull hierarchy vs flat DRAM (same DRAM budget): "
        f"{data['speedup_vs_flat']:.2f}x"
        f"\nfull hierarchy vs demand PFS reads: {data['speedup_vs_pfs']:.2f}x"
        f"\nfull-stage probe: per-sample ndarray allocations with flash the "
        f"only wave byte source: {promote_allocs:,}"
        f"\nchecks: {data['checks']}"
    )
    return text, data


# ---------------------------------------------------------------------------
# fault injection: straggler recovery with replica failover
# ---------------------------------------------------------------------------


def ablation_resilience(profile: ScaleProfile):
    """Throughput/latency-tail recovery under an injected straggler.

    Three cells on a width-2 store (the paper's Table 3 sweet spot —
    every chunk has an owner in N/2 replica groups, several per node): a
    fault-free baseline, a 10x straggler rank with failover *off* (a read
    with nowhere else to go is never abandoned: every read to the slow
    peer is waited out, unbounded — the straggler's full cost, zero
    timeouts), and the same straggler with failover *on* (the first
    timeout marks the peer suspect; reads are steered to the nearest
    healthy replica's owner, normally on the same node, and the peer is
    re-probed one read at a time).
    DESIGN.md's extension list and the RapidGNN/Atompack arguments both
    say this is where a peer-serving store wins or loses; the paper never
    tests it.
    """
    BASE, OFF, ON = "baseline (no fault)", "straggler, failover off", "straggler, failover on"
    straggler = dict(fault_plan="straggler-10x", timeout_s=STRAGGLER_TIMEOUT_S)
    runs = Sweep(
        "resilience",
        profile,
        [(BASE, {}), (OFF, dict(straggler, failover=False)), (ON, dict(straggler, failover=True))],
    )
    data = runs.records("throughput", "p50", "p99", "counters", "stages")
    base, off, on = data[BASE], data[OFF], data[ON]
    lost = base["throughput"] - off["throughput"]
    data["recovered_fraction"] = (
        (on["throughput"] - off["throughput"]) / lost if lost > 0 else 1.0
    )
    # The fetched sample set is identical in every cell (same seed, same
    # shuffle): faults may only change *timing*, never *bytes*.
    data["bytes_match_baseline"] = all(
        d["counters"].get("bytes_remote") == base["counters"].get("bytes_remote")
        and d["counters"].get("n_remote") == base["counters"].get("n_remote")
        for d in (off, on)
    )
    data["checks"] = named_checks(
        # the straggler must actually hurt — the tail always, throughput
        # where prefetch cannot hide it
        straggler_grows_tail_2x=off["p99"] > 2 * base["p99"],
        straggler_never_helps=off["throughput"] <= base["throughput"],
        failover_cuts_tail=on["p99"] < off["p99"],
        # the resilience path fires only where a read has somewhere
        # better to go
        no_timeouts_without_failover=off["counters"]["n_timeouts"] == 0,
        failover_path_fired=on["counters"]["n_timeouts"] > 0,
        # every retry fails over, plus the steered reads
        failovers_cover_retries=on["counters"]["n_failovers"] >= on["counters"]["n_retries"],
        recovers_half_the_lost_throughput=data["recovered_fraction"] >= 0.5,
        bytes_match_baseline=data["bytes_match_baseline"],
        deterministic=rerun_matches(runs.configs[ON]),
    )
    text = runs.table(
        "Cell",
        LATENCY_COLUMNS
        + (
            ("timeouts", count("n_timeouts")),
            ("retries", count("n_retries")),
            ("failovers", count("n_failovers")),
        ),
        title=(
            "Ablation — resilience under a 10x straggler rank "
            f"(width=2, timeout={STRAGGLER_TIMEOUT_S * 1e3:.2f} ms)"
        ),
    )
    text += f"\nrecovered fraction of lost throughput: {data['recovered_fraction']:.2f}"
    return text, data


# ---------------------------------------------------------------------------
# global vs local shuffle
# ---------------------------------------------------------------------------


def ablation_shuffle(profile: ScaleProfile):
    """Loading cost (modelled) and model quality (real training) of
    global shuffling vs static sharding with local shuffle.

    The quality run uses a *size-sorted* dataset so shards are non-IID —
    the situation where local shuffling is known to bite (paper §2.2).
    """
    from ..gnn import HydraGNNConfig
    from ..graphs import MoleculeGenerator
    from ..hardware import TESTBOX
    from ..mpi import run_world

    # -- performance: fetch locality --------------------------------------
    shuffles = ("global", "local")
    runs = Sweep("ablation", profile, [(s, dict(shuffle=s)) for s in shuffles])
    records = runs.records("throughput", "p50", "loading")
    data = {f"perf_{s}": records[s] for s in shuffles}

    # -- quality: real training on a size-sorted dataset -------------------
    n = 192
    n_train = int(n * 0.8)
    epochs = max(4, profile.convergence_epochs // 8)

    class SortedGenerator:
        """Molecules reordered by size: shard 0 gets the small ones."""

        def __init__(self, n_samples: int) -> None:
            self._gen = MoleculeGenerator(n_samples, seed=0)
            sizes = [self._gen.make(i).n_nodes for i in range(n_samples)]
            self._order = np.argsort(sizes, kind="stable")
            self.n_samples = n_samples

        def __len__(self) -> int:
            return self.n_samples

        def make(self, index: int):
            return self._gen.make(int(self._order[index]))

    def main(ctx, shuffle):
        trainer = yield from real_trainer(
            ctx,
            SortedGenerator(n),
            HydraGNNConfig(feature_dim=7, head_dims=(1,), hidden_dim=16, n_conv_layers=2),
            batch_size=8,
            lr=2e-3,
            seed=0,
            shuffle=shuffle,
            n_train=n_train,
        )
        for epoch in range(epochs):
            yield from trainer.train_epoch(epoch)
        return (yield from eval_split(ctx, trainer, n_train, n))

    quality = {
        s: float(run_world(TESTBOX, 2, lambda c, s=s: main(c, s), seed=0).results[0])
        for s in shuffles
    }
    data["quality_val_mse"] = quality
    data["checks"] = named_checks(
        # Local shuffling keeps every fetch on the local chunk, so loading
        # gets cheaper — which is exactly why the paper stresses global
        # shuffling needs to be cheap rather than avoided.
        local_shuffle_loads_faster=data["perf_local"]["p50"] < data["perf_global"]["p50"],
        both_trainings_converge_sanely=all(0 < v < 100 for v in quality.values()),
    )

    text = runs.table(
        "Shuffle",
        (("samples/s", throughput), ("p50 (ms)", pct_ms(50)),
         ("CPU-load (ms)", lambda r: f"{r.phases.seconds['cpu_loading'] * 1e3:.1f}")),
        title="Ablation — shuffle strategy (performance; DDStore fetch path)",
    ) + "\n\n" + render_table(
        ["Shuffle", "val MSE (size-sorted dataset)"],
        [[k, f"{v:.4f}"] for k, v in quality.items()],
        title=f"Ablation — shuffle strategy (model quality after {epochs} epochs)",
    )
    return text, data


# ---------------------------------------------------------------------------
# NVMe staging vs DDStore
# ---------------------------------------------------------------------------


def ablation_nvme(profile: ScaleProfile):
    runs = Sweep(
        "ablation",
        profile,
        [
            (m, dict(machine="summit", n_nodes=max(2, profile.summit_nodes // 4), method=m))
            for m in ("pff", "ddstore", "nvme")
        ],
    )
    data = runs.records("throughput", "p50", "preload")
    data["checks"] = named_checks(
        # both in-memory and flash staging beat the PFS baseline end to end
        ddstore_beats_pff=data["ddstore"]["throughput"] > data["pff"]["throughput"],
        nvme_beats_pff=data["nvme"]["throughput"] > data["pff"]["throughput"],
        # and DRAM + RMA fetches are at least as fast as flash reads
        ddstore_median_near_flash=data["ddstore"]["p50"] <= data["nvme"]["p50"] * 1.5,
    )
    text = runs.table(
        "Method",
        (
            ("samples/s", throughput),
            ("p50 (ms)", pct_ms(50)),
            ("setup (ms)", ms("preload_time", 1)),
        ),
        title="Ablation — node-local NVMe staging vs DDStore (Summit burst buffer)",
    )
    return text, data


# ---------------------------------------------------------------------------
# loader workers
# ---------------------------------------------------------------------------


def ablation_workers(profile: ScaleProfile):
    workers, methods = (1, 2, 4, 8), ("pff", "ddstore")
    runs = Sweep(
        "ablation",
        profile,
        [((w, m), dict(method=m, n_workers=w)) for w in workers for m in methods],
    )
    data = {
        m: [dict(workers=w, throughput=runs[w, m].throughput) for w in workers] for m in methods
    }
    pff, dd = ([p["throughput"] for p in data[m]] for m in methods)
    # extra workers help the latency-bound baseline far more than DDStore
    data["checks"] = named_checks(
        pff_gains_from_8_workers=pff[-1] > 1.5 * pff[0],
        ddstore_not_latency_bound=dd[-1] < 3.0 * dd[0],
    )
    text = runs.pivot(
        ["Workers", "PFF (samp/s)", "DDStore (samp/s)"],
        {w: str(w) for w in workers},
        methods,
        title="Ablation — loader-worker concurrency (latency hiding)",
    )
    return text, data


# ---------------------------------------------------------------------------
# page-cache state
# ---------------------------------------------------------------------------


def ablation_cache(profile: ScaleProfile):
    runs = Sweep(
        "ablation",
        profile,
        [
            ((ds, state), dict(method="cff", dataset=ds, warm_page_cache=state == "warm"))
            for ds in ("ising", "aisd")
            for state in ("warm", "cold")
        ],
    )
    data = {}
    for (ds, state), rec in runs.records("throughput", "p50").items():
        data.setdefault(ds, {})[state] = rec
    # warm caches only help datasets that fit: big difference on Ising,
    # little on the AISD-scale container
    data["checks"] = named_checks(
        warm_cache_helps_ising=data["ising"]["warm"]["p50"] < 0.7 * data["ising"]["cold"]["p50"],
        warm_cache_cannot_hold_aisd=data["aisd"]["warm"]["p50"] > 0.5 * data["aisd"]["cold"]["p50"],
    )
    text = runs.table(
        "CFF config",
        LATENCY_COLUMNS,
        title="Ablation — OS page cache state for containerized reads",
        label=" / ".join,
    )
    return text, data


# ---------------------------------------------------------------------------
# message-passing policy (HydraGNN's pluggable conv layers)
# ---------------------------------------------------------------------------


def ablation_conv_policy(profile: ScaleProfile):
    """Train the same task with each message-passing policy (PNA/GIN/SAGE).

    HydraGNN's object-oriented layer design (paper §2.1) is exercised by
    swapping the conv type; we compare parameter counts and achieved
    training loss on the Ising energy task.
    """
    from ..gnn import CONV_TYPES, HydraGNNConfig
    from ..graphs import IsingGenerator
    from ..hardware import TESTBOX
    from ..mpi import run_world

    epochs = max(8, profile.convergence_epochs // 8)

    def main(ctx, conv_type):
        trainer = yield from real_trainer(
            ctx,
            IsingGenerator(128, seed=0),
            HydraGNNConfig(
                feature_dim=1, head_dims=(1,), hidden_dim=16, n_conv_layers=2,
                conv_type=conv_type,
            ),
            batch_size=8,
            lr=3e-3,
            seed=0,
        )
        losses = []
        for epoch in range(epochs):
            losses.append((yield from trainer.train_epoch(epoch)).train_loss)
        return dict(first=losses[0], last=losses[-1], params=trainer.dmodel.model.n_params())

    data = {
        conv_type: run_world(TESTBOX, 2, lambda c, ct=conv_type: main(c, ct), seed=0).results[0]
        for conv_type in CONV_TYPES
    }
    text = render_table(
        ["Policy", "params", "loss@epoch0", f"loss@epoch{epochs - 1}"],
        [
            [conv_type, f"{out['params']:,}", f"{out['first']:.4f}", f"{out['last']:.4f}"]
            for conv_type, out in data.items()
        ],
        title=f"Ablation — message-passing policy ({epochs} epochs, Ising energy)",
    )
    data["checks"] = named_checks(
        every_policy_learns=all(out["last"] < out["first"] for out in data.values()),
        # PNA buys its cost with capacity
        pna_has_more_parameters=data["pna"]["params"] > data["gin"]["params"],
    )
    return text, data


# ---------------------------------------------------------------------------
# node-aggregated wave fetch: dedup remote reads across node-local ranks
# ---------------------------------------------------------------------------

#: ``ablation_nodeagg``'s cells, as data: ``python -m repro trace nodeagg``
#: traces the second one.
NODEAGG_VARIANTS = (
    ("per-rank waves (global shuffle)", {}),
    ("node-aggregated (global shuffle)", dict(node_fetch=True)),
    ("per-rank waves (sampled reuse)", dict(shuffle="sampled")),
    ("node-aggregated (sampled reuse)", dict(shuffle="sampled", node_fetch=True)),
)


def _node_wire(r) -> int:
    return r.fetch_counters.get("bytes_node_wire", 0)


def _dedup_ratio(r) -> float:
    """Plan-time demand bytes over leader wire bytes (0 = no node waves)."""
    wire = _node_wire(r)
    return r.fetch_counters.get("bytes_node_requested", 0) / wire if wire else 0.0


def ablation_nodeagg(profile: ScaleProfile):
    """Node-aggregated wave fetch vs per-rank waves.

    Four cells, identical training work: the per-rank wave baseline and
    node aggregation on the straddling-width global-shuffle cell, then the
    same pair under the skewed ``sampled`` shuffler, whose with-replacement
    draws make node peers request *overlapping* ids — the workload where
    the node-scope union dedups real duplicate demand (reported as the
    dedup ratio, plan-time demand bytes over leader wire bytes).  Checks:

    * ``throughput_1_5x`` — node aggregation is >= 1.5x epoch throughput
      over the per-rank baseline on the NIC-bound global-shuffle cell;
    * ``wire_cut_2x`` — it cuts inter-node wire bytes (measured at the
      per-node NIC stations, tx side) by >= 2x;
    * ``dedup_on_reuse`` — under the sampled shuffler the node union
      moves strictly fewer leader wire bytes than the ranks' summed
      plan-time demand (dedup ratio > 1) and the intra-node fan-out
      actually delivered bytes;
    * ``deterministic`` — a fresh from-scratch rerun of the aggregated
      cell reproduces the cached run's :func:`~.sweep.fingerprint`
      (timings, every fetch counter, the per-node NIC byte roll-up);
    * ``node_waves_ran`` — the aggregated cell really took the node path
      (node waves counted, bytes delivered over the fan-out) and the
      per-rank baseline ran none.
    """
    runs = Sweep("nodeagg", profile, NODEAGG_VARIANTS)
    data: dict = {
        "cells": runs.records(
            "elapsed", "data_wait", "throughput", "inter_node_bytes", "node_nic", "counters"
        )
    }
    base = runs["per-rank waves (global shuffle)"]
    agg = runs["node-aggregated (global shuffle)"]
    reuse = runs["node-aggregated (sampled reuse)"]
    base_inter = base.inter_node_bytes
    agg_inter = agg.inter_node_bytes
    dedup = _dedup_ratio(reuse)
    data["checks"] = named_checks(
        throughput_1_5x=base.throughput > 0 and agg.throughput / base.throughput >= 1.5,
        wire_cut_2x=base_inter > 0 and 2 * agg_inter <= base_inter,
        dedup_on_reuse=dedup > 1.0 and reuse.fetch_counters.get("bytes_fanout", 0) > 0,
        deterministic=rerun_matches(runs.configs["node-aggregated (global shuffle)"]),
        node_waves_ran=agg.fetch_counters.get("n_node_waves", 0) > 0
        and agg.fetch_counters.get("bytes_fanout", 0) > 0
        and base.fetch_counters["n_node_waves"] == 0,
    )
    data["speedup"] = agg.throughput / base.throughput
    # agg_inter is exactly zero on this cell (every range has an on-node
    # replica); the reported cut then degenerates to base_inter.
    data["wire_cut"] = base_inter / max(agg_inter, 1)
    data["dedup_ratio"] = dedup
    data["inter_node_bytes"] = {"per_rank": base_inter, "node_agg": agg_inter}

    text = runs.table(
        "Wave fetch",
        (
            ("epoch (ms)", ms("elapsed")),
            ("stall (ms)", ms("data_wait")),
            ("samples/s", throughput),
            ("inter-node MB", lambda r: f"{r.inter_node_bytes / 1e6:.1f}"),
            ("node waves", count("n_node_waves")),
            ("fanout MB", count_mb("bytes_fanout")),
            ("dedup", lambda r: f"{_dedup_ratio(r):.2f}" if _node_wire(r) else "-"),
        ),
        title=(
            "Ablation — node-aggregated wave fetch "
            "(leader wire reads + intra-node fan-out, Summit, width straddling nodes)"
        ),
    )
    text += (
        f"\nnode aggregation vs per-rank waves (global shuffle): "
        f"{data['speedup']:.2f}x throughput"
        f"\ninter-node wire bytes: {base_inter:,} -> {agg_inter:,} "
        f"({data['wire_cut']:.1f}x cut)"
        f"\ndedup ratio under sampled reuse (demand bytes / leader wire bytes): "
        f"{dedup:.2f}"
        f"\nchecks: {data['checks']}"
    )
    return text, data
