"""Fault injection: wire a :class:`~.plan.FaultPlan` into a simulated world.

:func:`install_faults` does two things:

* attaches a :class:`RankFaultModel` to the world's interconnect
  (``world.net.faults``) — every subsequent RMA get batch and two-sided
  message consults it, so stragglers and blackouts perturb the data plane
  without the transports knowing anything about faults,
* schedules each :class:`~.plan.PfsStorm` on the engine: at the storm's
  start time, competing metadata opens are injected into the PFS MDS pool
  at a steady rate over the storm window (each op issued at its own fire
  time so the queue stations see chronological arrivals).

Perturbation semantics (vectorised, applied per message by *target* rank
for RMA gets and by both endpoints for two-sided sends):

* ``SlowRank``: the whole observed latency is scaled —
  ``completion' = start + (completion - start) * multiplier`` — because a
  degraded peer slows its software path, NIC, and memory system alike,
* ``Blackout``: service is deferred past the outage —
  ``completion' = max(completion, end_s + (completion - start))``.

Only messages whose *start* falls inside an event's window are affected,
which keeps the model simple and monotone (a later start never finishes
earlier than an earlier one at the same target).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .plan import Blackout, FaultPlan, PfsStorm, SlowRank

__all__ = ["RankFaultModel", "install_faults"]


class RankFaultModel:
    """Vectorised per-rank latency perturbation for a set of fault events."""

    def __init__(self, events: Iterable) -> None:
        self.slow: list[SlowRank] = []
        self.blackouts: list[Blackout] = []
        for ev in events:
            if isinstance(ev, SlowRank):
                self.slow.append(ev)
            elif isinstance(ev, Blackout):
                self.blackouts.append(ev)
            elif not isinstance(ev, PfsStorm):
                raise TypeError(f"unknown fault event {ev!r}")
        self._faulty = frozenset(e.rank for e in self.slow) | {e.rank for e in self.blackouts}
        self.n_perturbed = 0  # messages this model has slowed down
        self._world = None  # set by install_faults; used to publish metrics

    def apply_batch(
        self,
        target_ranks: "list[int] | np.ndarray",
        starts: np.ndarray,
        completions: np.ndarray,
    ) -> np.ndarray:
        """Perturb a batch of per-message completion times in place-safely.

        ``target_ranks`` are world ranks (a list or an array); ``starts``/
        ``completions`` are the healthy-model times.  Returns the perturbed
        completions.  A batch none of whose targets is faulty costs one set
        intersection; only the events of ranks in the batch build masks.
        """
        if isinstance(target_ranks, np.ndarray):
            target_ranks = target_ranks.tolist()
        hit = self._faulty.intersection(target_ranks)
        if not hit:
            return completions
        ranks = np.array(target_ranks, dtype=np.int64)
        out = np.array(completions, dtype=np.float64, copy=True)
        n_slow = n_blackout = 0
        for ev in self.slow:
            if ev.rank not in hit:
                continue
            mask = (
                (ranks == ev.rank)
                & (starts >= ev.start_s)
                & (starts < ev.end_s)
            )
            if mask.any():
                out[mask] = starts[mask] + (out[mask] - starts[mask]) * ev.multiplier
                n_slow += int(mask.sum())
        for ev in self.blackouts:
            if ev.rank not in hit:
                continue
            mask = (
                (ranks == ev.rank)
                & (starts >= ev.start_s)
                & (starts < ev.end_s)
            )
            if mask.any():
                out[mask] = np.maximum(
                    out[mask], ev.end_s + (out[mask] - starts[mask])
                )
                n_blackout += int(mask.sum())
        if n_slow or n_blackout:
            self.n_perturbed += n_slow + n_blackout
            if self._world is not None:
                m = self._world.obs.metrics
                if m.enabled:
                    if n_slow:
                        m.counter("faults.n_perturbed", kind="slow").inc(n_slow)
                    if n_blackout:
                        m.counter("faults.n_perturbed", kind="blackout").inc(n_blackout)
        return out

    def apply_message(
        self, src_rank: int, dst_rank: int, start: float, completion: float
    ) -> float:
        """Perturb one two-sided message (either endpoint faulty slows it)."""
        if src_rank not in self._faulty and dst_rank not in self._faulty:
            return completion
        both = self.apply_batch(
            [src_rank, dst_rank],
            np.array([start, start]),
            np.array([completion, completion]),
        )
        return float(both.max())


def install_faults(world, plan: FaultPlan) -> RankFaultModel:
    """Arm ``plan`` on a simulated world; returns the installed model.

    Must be called before the rank processes start issuing traffic (the
    bench harness calls it right after building the world).  Rank numbers
    in the plan are world ranks.
    """
    n_ranks = world.n_ranks
    for ev in plan.rank_events:
        if not 0 <= ev.rank < n_ranks:
            raise ValueError(
                f"fault plan {plan.name!r} names rank {ev.rank}, but the "
                f"world has only {n_ranks} ranks"
            )
    model = RankFaultModel(plan.events)
    model._world = world  # perturbation counts flow into world.obs.metrics
    world.net.faults = model
    for storm in plan.storms:
        _schedule_storm(world, plan, storm)
    return model


def _schedule_storm(world, plan: FaultPlan, storm: PfsStorm) -> None:
    """Emit the storm's metadata ops at a steady rate over its window.

    Each op is scheduled as its own engine callback and issued with
    ``arrival = now`` at fire time, because the MDS queue stations expect
    chronological arrivals.
    """
    from ..sim import stream

    engine = world.engine
    pfs = world.pfs
    rng = stream("faults", plan.name, "storm", storm.start_s)
    spacing = storm.duration_s / storm.n_ops
    hashes = rng.integers(0, 2**31 - 1, size=storm.n_ops)

    for i in range(storm.n_ops):
        delay = storm.start_s + i * spacing
        path_hash = int(hashes[i])
        engine.schedule_call(
            delay, lambda h=path_hash: pfs.metadata_op(h, engine.now)
        )
