"""Deterministic fault schedules: what goes wrong, where, and when.

A :class:`FaultPlan` is a named, immutable list of fault events over a
job's virtual timeline.  Three event kinds cover the failure modes the
paper's design is exposed to (every training rank doubles as a storage
server, so rank-level slowness is a *data-path* fault, not just a compute
fault):

* :class:`SlowRank` — a straggler: every message served by or sent to the
  rank takes ``multiplier``× its healthy latency for the event window,
* :class:`Blackout` — a transient dead rank: traffic touching the rank
  during the window completes only after the rank comes back,
* :class:`PfsStorm` — a burst of competing metadata traffic hammering the
  shared filesystem's MDS pool (multi-tenant contention).

Plans are built by *named builders* registered in :data:`FAULT_PLANS`.
Builders draw every random choice (which rank straggles, when a blackout
lands) from a named RNG stream derived from ``(plan name, seed)``, so a
plan instance is a pure function of ``(name, n_ranks, seed)`` and reruns
are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from ..sim import stream

__all__ = [
    "SlowRank",
    "Blackout",
    "PfsStorm",
    "FaultPlan",
    "FAULT_PLANS",
    "fault_plan_builder",
    "build_fault_plan",
    "available_fault_plans",
]


@dataclass(frozen=True)
class SlowRank:
    """Rank ``rank`` serves/sends ``multiplier``× slower during the window."""

    rank: int
    multiplier: float
    start_s: float = 0.0
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("start_s must be >= 0 and duration_s > 0")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class Blackout:
    """Rank ``rank`` is unreachable during the window; in-flight traffic
    completes only after it comes back."""

    rank: int
    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("start_s must be >= 0 and duration_s > 0")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class PfsStorm:
    """``n_ops`` competing metadata opens hit the MDS pool over the window."""

    start_s: float = 0.0
    duration_s: float = 0.5
    n_ops: int = 400

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("start_s must be >= 0 and duration_s > 0")
        if self.n_ops < 1:
            raise ValueError(f"n_ops must be positive, got {self.n_ops}")


FaultEvent = Union[SlowRank, Blackout, PfsStorm]


@dataclass(frozen=True)
class FaultPlan:
    """A named, immutable schedule of fault events."""

    name: str
    events: tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        for ev in self.events:
            if not isinstance(ev, (SlowRank, Blackout, PfsStorm)):
                raise TypeError(f"unknown fault event {ev!r}")

    @property
    def rank_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, (SlowRank, Blackout)))

    @property
    def storms(self) -> tuple[PfsStorm, ...]:
        return tuple(e for e in self.events if isinstance(e, PfsStorm))


# ---------------------------------------------------------------------------
# named plan builders
# ---------------------------------------------------------------------------

#: name -> builder(n_ranks, seed) -> FaultPlan
FAULT_PLANS: dict[str, Callable[[int, int], FaultPlan]] = {}


def fault_plan_builder(name: str):
    """Register a named plan builder (decorator)."""

    def deco(fn: Callable[[int, int], FaultPlan]):
        if name in FAULT_PLANS:
            raise ValueError(f"fault plan {name!r} already registered")
        FAULT_PLANS[name] = fn
        return fn

    return deco


def build_fault_plan(name: str, n_ranks: int, seed: int = 0) -> FaultPlan:
    """Instantiate the named plan for a job of ``n_ranks`` ranks."""
    try:
        builder = FAULT_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r}; options: {available_fault_plans()}"
        ) from None
    if n_ranks < 1:
        raise ValueError("n_ranks must be positive")
    return builder(n_ranks, seed)


def available_fault_plans() -> tuple[str, ...]:
    return tuple(sorted(FAULT_PLANS))


def _rng(name: str, seed: int):
    return stream("faults", name, seed)


@fault_plan_builder("straggler-10x")
def _straggler_10x(n_ranks: int, seed: int) -> FaultPlan:
    """One rank (drawn deterministically, never rank 0 when avoidable, so
    the job's staging rank stays healthy) serves 10x slower for the whole
    run — the paper's worst case: a permanently degraded storage peer."""
    rng = _rng("straggler-10x", seed)
    rank = int(rng.integers(1, n_ranks)) if n_ranks > 1 else 0
    return FaultPlan(
        name="straggler-10x", events=(SlowRank(rank=rank, multiplier=10.0),)
    )


@fault_plan_builder("blackout")
def _blackout(n_ranks: int, seed: int) -> FaultPlan:
    """One rank goes dark for a transient window early in the run."""
    rng = _rng("blackout", seed)
    rank = int(rng.integers(1, n_ranks)) if n_ranks > 1 else 0
    start = float(rng.uniform(0.005, 0.02))
    return FaultPlan(
        name="blackout",
        events=(Blackout(rank=rank, start_s=start, duration_s=0.05),),
    )


@fault_plan_builder("pfs-storm")
def _pfs_storm(n_ranks: int, seed: int) -> FaultPlan:
    """A competing job hammers the MDS pool from virtual t=0 — the
    multi-tenant contention the paper's PFF baseline dies under."""
    rng = _rng("pfs-storm", seed)
    n_ops = int(rng.integers(300, 600))
    return FaultPlan(
        name="pfs-storm",
        events=(PfsStorm(start_s=0.0, duration_s=0.5, n_ops=n_ops),),
    )
