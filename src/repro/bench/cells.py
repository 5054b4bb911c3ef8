"""The cell table: every experiment configuration in the repo, as data.

The paper's evaluation (Tables 1-3, Figs 4-13) and the repo's ablations
are one matrix — machine x nodes x dataset x method x data-plane knobs.
:data:`CELLS` names its base points; :func:`cell` resolves one against a
:class:`ScaleProfile` and per-variant overrides.  It is the only place
outside ``harness.py`` that constructs an :class:`ExperimentConfig`:
figures, ablations and ``python -m repro trace`` all go through it.

Scale profiles (env ``REPRO_BENCH_SCALE``):

* ``tiny``  — smoke-test sizes (used by the test suite and CI),
* ``small`` — default: Perlmutter cells at the paper's 64-GPU size,
  Summit and the scaling sweeps reduced to fit a laptop run,
* ``paper`` — the paper's full node counts (expensive).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import attrgetter

from .harness import ExperimentConfig

__all__ = ["ScaleProfile", "PROFILES", "current_profile", "CELLS", "cell"]


@dataclass(frozen=True)
class ScaleProfile:
    name: str
    summit_nodes: int  # Fig 4a (paper: 64 -> 384 GPUs)
    perlmutter_nodes: int  # Fig 4b/5/6/Table2 (paper: 16 -> 64 GPUs)
    scaling_nodes: tuple[int, ...]  # Fig 8/9/10 sweep (paper: 8..256)
    width_nodes: int  # Fig 11 (paper: 64)
    batch_size: int
    steps_per_epoch: int
    convergence_epochs: int
    convergence_samples: int
    convergence_hidden: int


PROFILES = {
    "tiny": ScaleProfile(
        name="tiny",
        summit_nodes=1,
        perlmutter_nodes=1,
        scaling_nodes=(1, 2),
        width_nodes=1,
        batch_size=8,
        steps_per_epoch=1,
        convergence_epochs=4,
        convergence_samples=48,
        convergence_hidden=8,
    ),
    "small": ScaleProfile(
        name="small",
        summit_nodes=8,  # 48 GPUs (paper: 64 nodes / 384 GPUs)
        perlmutter_nodes=16,  # 64 GPUs — paper-exact
        scaling_nodes=(2, 4, 8, 16),
        width_nodes=8,
        batch_size=128,
        steps_per_epoch=2,
        convergence_epochs=60,
        convergence_samples=384,
        convergence_hidden=40,
    ),
    "paper": ScaleProfile(
        name="paper",
        summit_nodes=64,
        perlmutter_nodes=16,
        scaling_nodes=(8, 16, 32, 64, 128, 256),
        width_nodes=64,
        batch_size=128,
        steps_per_epoch=3,
        convergence_epochs=100,
        convergence_samples=1024,
        convergence_hidden=64,
    ),
}


def current_profile() -> ScaleProfile:
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"REPRO_BENCH_SCALE must be one of {sorted(PROFILES)}") from None


# ---------------------------------------------------------------------------
# operating points shared by several cells
# ---------------------------------------------------------------------------

#: Wave scheduling on, for the prefetch / columnar cells.  The hot-sample
#: cache budget is comfortably above one depth-4 wave's working set
#: (~10 MB at batch 16 on aisd-ex-smooth) but below wave + the previous
#: wave's unconsumed tail, so eviction policy actually decides which
#: demand loads miss.
WAVES = dict(scheduler=True, cache_bytes=16 << 20)

#: Per-read fetch timeout for the width-2 straggler cells (resilience,
#: elastic).  Every replica-group read rides the intra-node shared-memory
#: path (~0.03 ms plus jitter tail), while a 10x-straggled one takes
#: ~0.3 ms — 0.15 ms sits between them, so only straggler-bound reads
#: trip it.
STRAGGLER_TIMEOUT_S = 1.5e-4

#: Per-rank DRAM budget shared by every tiered cell that has a DRAM cache:
#: the flat baseline gets exactly the same DRAM as the tiered cells' dram
#: tier, so any win is the hierarchy's, not extra memory.
TIERED_DRAM = "dram:4m"
#: The full hierarchy.  The GPU-pinned tier is a slice of HBM (a different
#: physical resource than the DRAM budget, so it is *not* granted to the
#: flat baseline); the node-shared NVMe tier is deliberately *smaller*
#: than the dataset, so create-time staging pins a Belady-hot prefix and
#: tier-aware waves split each window between the SSD (promotions) and
#: the fabric (wire fetches for the unstaged tail).
TIERED_FULL = f"gpu:2m+{TIERED_DRAM}+nvme:256m"
#: Full-stage probe: an NVMe tier large enough for the whole dataset
#: (Summit's burst buffer is 1.6 TB), so every wave byte promotes from
#: flash and the prefetch wire traffic is exactly zero — the cell that
#: proves the zero-copy, zero-wire promotion invariants.
TIERED_PROBE = f"gpu:2m+{TIERED_DRAM}+nvme:512m"


_batch = attrgetter("batch_size")
_steps = attrgetter("steps_per_epoch")


def _quarter(p: ScaleProfile) -> int:
    return max(2, p.perlmutter_nodes // 4)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

#: Field values are literals or functions of the scale profile; anything
#: not named keeps its ``ExperimentConfig`` default (DDStore, width = N,
#: ``aisd-ex-discrete``, global shuffle, every data-plane knob off).
_ABLATION = dict(machine="perlmutter", n_nodes=_quarter, batch_size=_batch, steps_per_epoch=_steps)
CELLS: dict[str, dict] = {
    # One point of the paper's evaluation matrix (Figs 4-7, 11-12, Tables
    # 2-3): callers pick machine / nodes / dataset / method / width.
    "paper": dict(
        machine="perlmutter",
        n_nodes=attrgetter("perlmutter_nodes"),
        batch_size=_batch,
        steps_per_epoch=_steps,
    ),
    # One point of the Fig 8/9/10 sweeps: a single cold step.
    "scaling": dict(batch_size=_batch, steps_per_epoch=1, warm_page_cache=False),
    # The single-knob ablations: a quarter of the Perlmutter matrix cell.
    "ablation": _ABLATION,
    # Width 2 — the paper's Table 3 sweet spot: every chunk has an owner
    # in N/2 replica groups, several per node, so failover has somewhere
    # to go.
    "resilience": dict(_ABLATION, epochs=1, width=2),
    # A fetch-bound fig5-style cell.  The spectrum dataset's ~150 KB
    # samples make loading the critical path once the model is narrowed
    # (``hidden_dim=32``), the regime the epoch-ahead scheduler targets;
    # the default profile cells are compute-bound and would show nothing.
    "prefetch": dict(
        machine="perlmutter",
        n_nodes=_quarter,
        dataset="aisd-ex-smooth",
        batch_size=16,
        steps_per_epoch=lambda p: max(6, p.steps_per_epoch),
        epochs=2,
        hidden_dim=32,
    ),
    # A decode-bound fig9-style cell.  Per-sample decode (~35 us base +
    # ~48 us of byte cost at ~3 GB/s) is the dominant loader term once
    # fetches are local (``shuffle="local"``: every rank reads its own
    # chunk over the shared-memory path); the narrow model cannot hide
    # the loader.  ``shuffle="global"`` variants add the wire path on top.
    "columnar": dict(
        machine="perlmutter",
        n_nodes=_quarter,
        dataset="aisd-ex-smooth",
        shuffle="local",
        batch_size=64,
        steps_per_epoch=lambda p: max(4, p.steps_per_epoch),
        hidden_dim=32,
    ),
    # A fetch-bound Summit cell where the memory hierarchy decides: a
    # narrow model over ~150 KB spectrum samples makes the data plane the
    # critical path; the per-rank DRAM budget (4 MiB) holds under two
    # batches, so a flat cache churns; and at >= 4 nodes the per-wave RMA
    # lock/get software path is contended enough that serving promoted
    # bytes from the node-local burst buffer is strictly cheaper than
    # re-fetching over the wire every epoch.  Node count scales with the
    # profile but never drops below the contended regime.
    "tiered": dict(
        machine="summit",
        n_nodes=lambda p: max(4, p.summit_nodes // 4),
        dataset="aisd-ex-smooth",
        batch_size=16,
        steps_per_epoch=8,
        epochs=2,
        hidden_dim=16,
        columnar=True,
        scheduler=True,
        prefetch_depth=2,
        cache_policy="belady",
    ),
    # A NIC-injection-bound Summit cell whose replica group straddles
    # nodes.  ``width=4`` on a 6-GPU-node machine puts replica group 1
    # (ranks 4-7) across the node boundary, so under plain global shuffle
    # the straddling ranks pull half their wave bytes through the shared
    # NIC pair every epoch and the DDP allreduce spreads that stall to
    # every step.  Each node still hosts a complete on-node replica of
    # every chunk (group 0 on node 0, group 2 on node 1), which is what
    # nearest-replica leader election exploits: with ``node_fetch=True``
    # every wave range is served by a leader that owns it locally and
    # fanned out over the intra-node path, taking inter-node wire bytes to
    # zero.  The cell size stays fixed across profiles because the
    # topology argument — not scale — is what the checks assert on.
    "nodeagg": dict(
        machine="summit",
        n_nodes=2,
        width=4,
        dataset="aisd-ex-smooth",
        batch_size=48,
        steps_per_epoch=4,
        epochs=2,
        hidden_dim=4,
        scheduler=True,
        prefetch_depth=8,
        cache_bytes=64 << 20,
        cache_policy="belady",
    ),
    # Width is the lever: fetch-bound on purpose (``hidden_dim=8``), one
    # rank serving 10x slow, reads armed with the straggler timeout.
    "elastic": dict(
        machine="perlmutter",
        n_nodes=lambda p: max(1, p.perlmutter_nodes // 4),
        dataset="aisd",
        batch_size=_batch,
        steps_per_epoch=lambda p: max(4, p.steps_per_epoch),
        hidden_dim=8,
        fault_plan="straggler-10x",
        timeout_s=STRAGGLER_TIMEOUT_S,
    ),
}


def cell(name: str, profile: ScaleProfile, **overrides) -> ExperimentConfig:
    """The named base cell at ``profile`` with ``overrides`` applied."""
    fields = {**CELLS[name], **overrides}
    return ExperimentConfig(
        **{k: v(profile) if callable(v) else v for k, v in fields.items()}
    )
