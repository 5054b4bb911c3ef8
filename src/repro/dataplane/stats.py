"""Fetch accounting: the stage vocabulary and the per-handle counters.

Lives in the data plane (the pipeline books into it); ``repro.core``
re-exports both names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["FETCH_STAGES", "FETCH_COUNTERS", "FetchStats"]

#: The instrumented stages of one fetch call, in pipeline order
#: ("queue" is the multi-tenant serving layer's DRR/admission wait before
#: wire issue — zero on single-tenant stores; "retry" charges the backoff
#: waits before re-issues to the same rank; "promote" is the tiered cache's
#: NVMe→DRAM batched-read wall time; "scatter" is the columnar path's
#: arena assembly, which replaces "decode"; "fanout" is the node-fetch
#: intra-node copy of leader-read payloads into subscriber caches).
FETCH_STAGES = ("plan", "queue", "lock", "get", "retry", "copy", "cache", "promote", "decode", "scatter", "fanout")


@dataclass
class FetchStats:
    """Cumulative fetch accounting of one DDStore handle."""

    n_local: int = 0
    n_remote: int = 0
    bytes_local: int = 0
    bytes_remote: int = 0
    # one per-sample latency array per demand call, in completion order
    latencies: list[np.ndarray] = field(default_factory=list)
    # data-plane counters
    n_get_calls: int = 0  # wire reads issued (== n_remote when not coalescing)
    bytes_transferred: int = 0  # deduplicated wire bytes actually moved
    n_cache_hits: int = 0
    n_cache_misses: int = 0
    n_cache_evictions: int = 0
    bytes_cache_hits: int = 0
    # resilience counters (all zero unless ResilienceOptions are enabled)
    n_timeouts: int = 0  # wire reads that blew their deadline
    n_retries: int = 0  # wire reads re-issued after a timeout
    n_failovers: int = 0  # reads steered or re-routed to another replica group
    # epoch-ahead scheduler counters (zero unless scheduler waves run)
    n_prefetch_waves: int = 0  # prefetch_wave calls that hit the wire
    n_prefetched: int = 0  # distinct samples parked in the cache by waves
    bytes_prefetched: int = 0  # deduplicated wire bytes moved by waves
    # node-aggregated fetch counters (zero unless node_fetch waves run)
    n_node_waves: int = 0  # node-aggregated prefetch_wave calls
    n_fanout: int = 0  # samples received over the intra-node fan-out
    bytes_fanout: int = 0  # payload bytes fanned in from node leaders
    bytes_node_requested: int = 0  # this rank's plan-time remote demand
    bytes_node_wire: int = 0  # bytes this rank wire-read as a leader
    # virtual seconds spent per fetch stage (keys from FETCH_STAGES)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    # wave-prefetch stage seconds, kept apart from the demand-fetch path:
    # wave time overlaps compute, so folding it into stage_seconds would
    # double-charge the breakdown figures.
    prefetch_stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def n_total(self) -> int:
        return self.n_local + self.n_remote + self.n_cache_hits

    def add_stage(self, stage: str, seconds: float) -> None:
        if seconds:
            self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def add_prefetch_stage(self, stage: str, seconds: float) -> None:
        if seconds:
            self.prefetch_stage_seconds[stage] = (
                self.prefetch_stage_seconds.get(stage, 0.0) + seconds
            )

    def counters(self) -> dict[str, int]:
        """The integer counters as a dict (for the bench layer)."""
        return {name: getattr(self, name) for name in FETCH_COUNTERS}

    def latency_array(self) -> np.ndarray:
        """Every demand call's per-sample latencies, concatenated."""
        if not self.latencies:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(self.latencies)

    def merge_from(self, other: "FetchStats") -> None:
        """Fold another handle's cumulative accounting into this one.

        The reshard stats-continuity path: a new-generation store starts
        from the old generation's totals, so bench roll-ups and monotone
        cumulative counters survive a width change (the same discipline as
        the delta-accumulated cache counters).
        """
        for name, val in other.counters().items():
            setattr(self, name, getattr(self, name) + val)
        self.latencies.extend(other.latencies)
        for stage, seconds in other.stage_seconds.items():
            self.add_stage(stage, seconds)
        for stage, seconds in other.prefetch_stage_seconds.items():
            self.add_prefetch_stage(stage, seconds)


#: The integer counter fields of :class:`FetchStats`, in declaration order.
FETCH_COUNTERS = tuple(
    f.name for f in fields(FetchStats) if f.name.startswith(("n_", "bytes_"))
)
