"""The DDStore data plane: pluggable transports, fetch planning, caching.

The paper's central contribution is the fetch path — shared-lock
``MPI_Get`` batches against replica-group windows (§3).  This package
makes that path its own layer, apart from
:class:`~repro.core.store.DDStore`:

* :class:`Transport` — the abstract data-plane backend:
  :class:`RmaTransport` (the paper's one-sided design) and
  :class:`P2PTransport` (the rejected two-sided ablation), selected by
  the ``framework`` config field through :data:`TRANSPORTS`.
* :class:`FetchPlanner` — groups requested samples by owner rank,
  coalesces adjacent byte ranges into single reads, and splits oversized
  reads (RapidGNN/Atompack-style packed remote reads).
* :class:`TieredCache` — the optional sample cache sitting in front of
  the transport: a GPU-pinned → DRAM → NVMe hierarchy of byte-budgeted
  :class:`SampleCache` pools (LRU or future-fed Belady eviction; a flat
  DRAM budget is its one-tier case), with hit/miss/eviction counters.
* :mod:`.pipeline` — the one ``resolve → plan → fetch → sink`` fetch
  path every ``DDStore`` entry point runs, with its per-call accounting
  (:class:`FetchStats`, stage spans, the ``ddstore.*`` metric families).
* :class:`EpochScheduler` — epoch-ahead scheduling of the trainer's batch
  loads: depth-k prefetch, cross-batch wave fetches, and the Belady
  cache's future feed.
"""

from . import pipeline
from .cache import CacheStats, SampleCache, TieredCache, TierStats
from .nodeagg import NodeFetchCoordinator, WaveWindow, node_coordinator
from .planner import (
    ArenaScatterMap,
    FetchPlan,
    FetchPlanner,
    NodeWavePlan,
    plan_promotions,
)
from .scheduler import EpochScheduler
from .retry import (
    FetchTimeoutError,
    RetryOutcome,
    RetryPolicy,
    TargetHealth,
    fetch_with_retry,
)
from .stats import FETCH_STAGES, FetchStats
from .transport import TRANSPORTS, FetchOutcome, P2PTransport, RmaTransport, Transport

__all__ = [
    "Transport",
    "RmaTransport",
    "P2PTransport",
    "TRANSPORTS",
    "FetchOutcome",
    "FetchPlanner",
    "FetchPlan",
    "ArenaScatterMap",
    "NodeWavePlan",
    "WaveWindow",
    "NodeFetchCoordinator",
    "node_coordinator",
    "plan_promotions",
    "SampleCache",
    "TieredCache",
    "CacheStats",
    "TierStats",
    "EpochScheduler",
    "pipeline",
    "FETCH_STAGES",
    "FetchStats",
    "RetryPolicy",
    "RetryOutcome",
    "TargetHealth",
    "FetchTimeoutError",
    "fetch_with_retry",
]
