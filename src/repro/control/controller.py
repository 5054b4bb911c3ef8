"""The elastic width policy: a deterministic hysteresis hill-climb.

Width (chunks per replication group, paper §3.1) trades memory for
locality: width == world size stores one copy of the dataset (every
remote fetch crosses the wire, one replica per sample — no failover),
width 1 replicates everything everywhere (all fetches local).  The right
point depends on fault behaviour and contention the user cannot know up
front, so :class:`ElasticWidthController` searches it *online* from the
signals the observability layer already collects.

Policy, in full (it is deliberately small):

* Candidate widths are the divisors of the world size — the widths
  :class:`~repro.core.config.DDStoreConfig` accepts.
* After every epoch the controller receives one :class:`EpochSignals`
  (already reduced across ranks, so every rank sees identical numbers
  and makes the identical decision — the reshard is collective).
* **Pressure** — when the data plane is hurting (stall fraction above
  :data:`STALL_THRESHOLD`, or timeouts observed, meaning a
  straggler/dark rank is on the fetch path), step one divisor *down*
  (more replication, more failover headroom).
* **Hysteresis** — the epoch after a move is compared against the
  pre-move baseline.  A move that did not pay at least :data:`MIN_GAIN`
  relative improvement is reverted and that (from, to) edge is
  blacklisted, so the controller cannot oscillate: every edge is tried
  at most once and the candidate set is finite, hence convergence.

The controller is pure bookkeeping — no engine, no comm.  Reducing the
per-rank signals and actuating the decision is the coordinator's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["EpochSignals", "Decision", "ElasticWidthController"]

#: Fraction of epoch time spent in unhidden data wait above which the
#: store counts as fetch-bound and the controller steps toward more
#: replication (smaller width).
STALL_THRESHOLD = 0.10
#: Fractional epoch-time improvement a move must show on its first epoch
#: to be kept; otherwise it is reverted and the move blacklisted.
MIN_GAIN = 0.05


@dataclass(frozen=True)
class EpochSignals:
    """One epoch's data-plane health, reduced across all ranks.

    Reductions (performed by the coordinator): times are ``max`` over
    ranks (the slowest rank is the epoch), ``overlap_efficiency`` is
    ``min`` (the worst-overlapped rank), fault counters are ``sum``.
    """

    epoch_seconds: float
    data_wait_seconds: float
    overlap_efficiency: float
    n_timeouts: int
    n_retries: int
    n_failovers: int
    fetch_p99: float = 0.0

    @property
    def stall_fraction(self) -> float:
        if self.epoch_seconds <= 0:
            return 0.0
        return self.data_wait_seconds / self.epoch_seconds


@dataclass(frozen=True)
class Decision:
    """One controller step, kept for the bench/CLI trajectory report."""

    epoch: int
    width_before: int
    width_after: int
    action: str  # "hold" | "narrow" | "keep" | "revert"
    reason: str
    stall_fraction: float
    epoch_seconds: float


class ElasticWidthController:
    """Per-rank replica of the width policy; feed identical signals."""

    def __init__(self, n_ranks: int, initial_width: int) -> None:
        if n_ranks % initial_width != 0:
            raise ValueError(
                f"initial width {initial_width} does not divide world size "
                f"{n_ranks}"
            )
        self.n_ranks = n_ranks
        self.candidates = [d for d in range(1, n_ranks + 1) if n_ranks % d == 0]
        self.width = initial_width
        self.decisions: list[Decision] = []
        self._epoch = -1
        # Pending-move state: the width we came from and the epoch seconds
        # we measured there; the next epoch judges the move.
        self._moved_from: Optional[int] = None
        self._baseline_seconds: float = 0.0
        # Edges (from_width, to_width) that failed their ``MIN_GAIN``
        # audition; never retried, which is what makes the climb terminate.
        self._rejected: set[tuple[int, int]] = set()
        self.history: list[tuple[int, EpochSignals]] = []

    # ------------------------------------------------------------------
    def _pressured(self, sig: EpochSignals) -> Optional[str]:
        """A human-readable reason to narrow, or None when healthy."""
        if sig.n_timeouts > 0:
            return f"{sig.n_timeouts} fetch timeout(s) — straggler on the wire"
        if sig.stall_fraction > STALL_THRESHOLD:
            return f"stall fraction {sig.stall_fraction:.3f} > {STALL_THRESHOLD:.3f}"
        return None

    def _next_narrower(self) -> Optional[int]:
        below = [c for c in self.candidates if c < self.width]
        if not below:
            return None
        target = max(below)
        if (self.width, target) in self._rejected:
            return None
        return target

    def _log(
        self, sig: EpochSignals, before: int, action: str, reason: str
    ) -> None:
        self.decisions.append(
            Decision(
                epoch=self._epoch,
                width_before=before,
                width_after=self.width,
                action=action,
                reason=reason,
                stall_fraction=sig.stall_fraction,
                epoch_seconds=sig.epoch_seconds,
            )
        )

    # ------------------------------------------------------------------
    def observe(self, signals: EpochSignals) -> Optional[int]:
        """Digest one epoch's signals; return the new width, or None.

        A non-None return is an instruction to reshard to that width
        before the next epoch.  Deterministic: same signal sequence, same
        decisions, on every rank.
        """
        self._epoch += 1
        self.history.append((self.width, signals))

        if self._moved_from is not None:
            # Judge the move against the pre-move baseline.
            frm = self._moved_from
            base = self._baseline_seconds
            gain = (base - signals.epoch_seconds) / base if base > 0 else 0.0
            self._moved_from = None
            if gain < MIN_GAIN:
                self._rejected.add((frm, self.width))
                before = self.width
                self.width = frm
                self._log(
                    signals, before, "revert", f"gain {gain:.3f} < min_gain {MIN_GAIN:.3f}"
                )
                return self.width
            self._log(
                signals, self.width, "keep", f"gain {gain:.3f} >= min_gain {MIN_GAIN:.3f}"
            )
            # Accepted: fall through — the same signals may justify
            # climbing further (saves one epoch per rung).

        reason = self._pressured(signals)
        if reason is not None:
            target = self._next_narrower()
            if target is not None:
                self._moved_from = self.width
                self._baseline_seconds = signals.epoch_seconds
                before = self.width
                self.width = target
                self._log(signals, before, "narrow", reason)
                return self.width
            self._log(signals, self.width, "hold", f"pressured ({reason}) but no untried narrower width")
            return None
        if not self.decisions or self.decisions[-1].epoch != self._epoch:
            self._log(signals, self.width, "hold", "healthy")
        return None

    def trajectory(self) -> list[int]:
        """Width in force *after* each observed epoch (bench reporting).

        An observe() may log several decisions for one epoch (a ``keep``
        immediately followed by a further ``narrow``); the last one wins.
        """
        by_epoch: dict[int, int] = {}
        for d in self.decisions:
            by_epoch[d.epoch] = d.width_after
        out: list[int] = []
        w = None
        for epoch in range(self._epoch + 1):
            w = by_epoch.get(epoch, w)
            out.append(w if w is not None else self.width)
        return out
