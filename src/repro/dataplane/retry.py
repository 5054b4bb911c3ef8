"""Fetch retry: bounded attempts, read re-routing, and target health.

DDStore's fetch path assumes every replica-group peer answers promptly —
one straggling or dark rank stalls every peer that routes a read to it.
Replica groups are what make that survivable (every chunk has an owner in
each group), and this module is how the fetch stage uses them:

* :func:`fetch_with_retry` wraps any :class:`~.transport.Transport` with a
  deterministic ladder whose rule is **abandon a read only when it has
  somewhere better to go**.  A read carries the ``RetryPolicy.timeout_s``
  deadline only while the ``reroute`` hook can move it to a *different*
  rank (per read: a mixed batch goes out with one bound per read); reads
  that blow the deadline move there and are re-issued at once.  A read
  with no alternative — single replica, failover off, every other replica
  suspect — is issued once, unbounded: abandoning it only to restart the
  same slow peer's latency from zero is strictly worse than waiting it
  out, which is what the ladder's own last (unbounded) attempt always
  conceded.  The exponential backoff (``BACKOFF_S * BACKOFF_FACTOR**k``
  — no jitter, so reruns are bit-identical) is waited out only before
  hitting the *same* rank again.

* :class:`TargetHealth` remembers which ranks recently timed out, so the
  next batch does not pay the discovery again: the store steers first
  attempts away from a suspect rank while its mark lasts and re-probes it
  when the mark expires.  The suspicion window is derived from the retry
  schedule itself (:meth:`RetryPolicy.suspect_window`) — there is no
  separate option for it.

Every attempt, timeout, and failover is counted in the returned
:class:`RetryOutcome` for :class:`~repro.core.store.FetchStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Generator, Optional

import numpy as np

from .transport import FetchOutcome, Transport

__all__ = [
    "FetchTimeoutError",
    "RetryPolicy",
    "RetryOutcome",
    "TargetHealth",
    "fetch_with_retry",
]


class FetchTimeoutError(RuntimeError):
    """A read could not be completed within the configured retry budget."""


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry schedule for one fetch batch.

    Its fields come from :meth:`from_options`, already checked by
    :class:`~repro.core.config.ResilienceOptions`."""

    #: Wait before the first re-issue to the same rank (virtual seconds).
    BACKOFF_S: ClassVar[float] = 1e-4
    #: Growth per further retry, and of a rank's suspect window per strike.
    BACKOFF_FACTOR: ClassVar[float] = 2.0

    timeout_s: float
    max_retries: int = 2

    @classmethod
    def from_options(cls, options) -> "RetryPolicy":
        """Build from a :class:`~repro.core.config.ResilienceOptions`."""
        if options.timeout_s is None:
            raise ValueError("ResilienceOptions.timeout_s is None (resilience off)")
        return cls(timeout_s=options.timeout_s, max_retries=options.max_retries)

    def backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): exponential, capped
        at 16 doublings so virtual time cannot overflow."""
        return self.BACKOFF_S * self.BACKOFF_FACTOR ** min(max(attempt - 1, 0), 16)

    def suspect_window(self, strikes: int, cost_s: float = 0.0) -> float:
        """How long a rank stays suspect after its ``strikes``-th
        consecutive timeout.  Finding out cost the struck fetch ``cost_s``
        (never less than one ``timeout_s``), so the k-th strike buys
        ``BACKOFF_FACTOR**k`` times that of routing around the rank
        (capped like :meth:`backoff`) — a mark always outlasts the cadence
        of the fetches that would otherwise re-discover it."""
        return max(self.timeout_s, cost_s) * self.BACKOFF_FACTOR ** min(strikes, 16)


class _Mark:
    """One rank's entry in the health table."""

    __slots__ = ("strikes", "until", "probing")

    def __init__(self, now: float) -> None:
        self.strikes = 0  # consecutive timeouts not yet worked off
        self.until = now  # suspect while now < until
        self.probing = False  # a probe read is out (until is its lease)


class TargetHealth:
    """Per-rank suspect marks: which targets recently timed out.

    One table per store generation, shared by the store's session views.
    A read that blows its deadline *strikes* its target: the rank is
    suspect for :meth:`RetryPolicy.suspect_window` seconds and first
    attempts are steered around it.  When the mark expires the rank is on
    probation: one read at a time is let through as a probe (``avoid``)
    while every other read still goes around.  A probe that times out is
    the next consecutive strike, with a longer window; one that comes back
    in time (``ok``) takes a strike off, and the rank whose strikes are
    all worked off is forgotten.
    """

    __slots__ = ("policy", "_marks")

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self._marks: dict[int, _Mark] = {}

    def __bool__(self) -> bool:
        return bool(self._marks)

    def suspect(self, rank: int, now: float) -> bool:
        """Is ``rank`` marked right now?  (Pure — for scanning candidates.)"""
        mark = self._marks.get(rank)
        return mark is not None and now < mark.until

    def avoid(self, rank: int, now: float) -> bool:
        """Should this first-attempt read go around ``rank``?

        True while the mark lasts.  On probation the read asking *is* the
        probe: it goes through, and the mark is re-armed for one
        ``timeout_s`` — just long enough for the probe to report — so an
        outage is re-discovered by one read, not by a whole batch from
        every session of the rank at once.
        """
        mark = self._marks.get(rank)
        if mark is None:
            return False
        if now < mark.until:
            return True
        mark.until, mark.probing = now + self.policy.timeout_s, True
        return False

    def strike(self, rank: int, now: float, cost_s: float = 0.0) -> None:
        """A read to ``rank`` blew its deadline; its fetch found out at
        ``now``, ``cost_s`` after it was issued."""
        mark = self._marks.get(rank)
        if mark is None:
            mark = self._marks[rank] = _Mark(now)
        if now < mark.until:
            return  # a straggler of the batch that already struck it
        mark.strikes += 1
        mark.until = now + self.policy.suspect_window(mark.strikes, cost_s)
        mark.probing = False

    def ok(self, rank: int, now: float) -> None:
        """A read to ``rank`` came back inside its deadline at ``now``."""
        mark = self._marks.get(rank)
        if mark is not None and mark.probing:
            mark.strikes -= 1
            if mark.strikes:
                mark.until, mark.probing = now, False  # next read probes
            else:
                del self._marks[rank]


@dataclass
class RetryOutcome:
    """A merged :class:`FetchOutcome` plus the retry ladder's accounting."""

    outcome: FetchOutcome
    n_timeouts: int = 0  # individual read timeouts observed (bounded attempts)
    n_retries: int = 0  # read re-issues (a read retried twice counts twice)
    n_failovers: int = 0  # retries that were re-routed to another replica
    attempts: int = 1  # transport.fetch round trips issued


def fetch_with_retry(
    transport: Transport,
    reads: np.ndarray,
    *,
    policy: RetryPolicy,
    engine,
    n_streams: int = 1,
    reroute: Optional[Callable[[int], Optional[int]]] = None,
    health: Optional[TargetHealth] = None,
    obs=None,
    track: int = 0,
) -> Generator:
    """Execute ``reads`` through ``transport`` under ``policy``.

    Coroutine; ``reads`` is the ``(n, 3)`` ``(target, offset, nbytes)``
    array transports consume.  Returns a :class:`RetryOutcome` whose
    ``outcome`` has one payload per input read, in input order.
    ``reroute(target)`` names a different rank that can serve a read aimed
    at ``target`` right now, or ``None`` when there is none.  A read carries
    ``policy.timeout_s`` only while retries remain *and* ``reroute`` can
    move it (the transport gets one number when that is every read of the
    attempt, one bound per read — ``inf`` for the rest — when it is only
    some, and no ``timeout_s`` at all when it is none: with no ``reroute``
    that is one plain transport call).  A read that blows its deadline
    strikes its target in ``health`` (when given) and is re-issued to
    wherever ``reroute`` then sends it — at once if that is another rank,
    after the policy's backoff if it has to stay.  Every decision is taken
    once per distinct target of the attempt, never per read.

    ``obs`` is an optional :class:`repro.obs.Observer`: every transport
    round trip is recorded as a ``fetch.attempt`` span on ``track``'s
    data-plane lane, so timeouts and failovers show up as distinct child
    spans under the store's fetch span.
    """
    reads = np.asarray(reads, dtype=np.int64).reshape(-1, 3)
    n = len(reads)
    if n == 0:
        return RetryOutcome(
            outcome=FetchOutcome(payloads=[], latencies=np.zeros(0), stage_seconds={})
        )

    n_timeouts = n_retries = n_failovers = 0
    merged = None  # built once some read has timed out
    pending = np.arange(n)  # input slots still without a payload
    batch = reads  # their reads, targets as currently routed
    stayed = False  # did a timed-out read have to stay on its rank?
    for attempt in range(policy.max_retries + 1):
        if stayed:
            # Back off only before hitting the same rank again; a read that
            # moved to another rank goes at once.
            delay = policy.backoff(attempt)
            if delay > 0:
                yield engine.timeout(delay)
                merged.stage_seconds["retry"] = (
                    merged.stage_seconds.get("retry", 0.0) + delay
                )
                merged.latencies[pending] += delay
        targets = batch[:, 0].tolist()
        # Abandon only with somewhere to go: a read carries the deadline
        # while a retry remains and it has another rank to move to.
        limits = None
        if reroute is not None and attempt < policy.max_retries:
            movable = {t: reroute(t) not in (None, t) for t in sorted(set(targets))}
            can_move = [movable[t] for t in targets]
            if all(can_move):
                limits = policy.timeout_s
            elif any(can_move):
                limits = np.where(can_move, policy.timeout_s, np.inf)
        t_attempt = engine.now
        if limits is None:
            outcome = yield from transport.fetch(batch, n_streams=n_streams)
        else:
            outcome = yield from transport.fetch(batch, n_streams=n_streams, timeout_s=limits)
        timed_out = outcome.timed_out
        late = (
            np.zeros(len(batch), dtype=bool) if timed_out is None else np.asarray(timed_out, bool)
        )
        n_late = int(np.count_nonzero(late))
        if obs is not None and obs.tracing:
            obs.tracer.record(
                "fetch.attempt",
                cat="dataplane",
                track=track,
                lane=1,
                start=t_attempt,
                end=engine.now,
                attempt=attempt + 1,
                n_reads=len(batch),
                n_timeouts=n_late,
                n_failovers=n_failovers,
            )
        if limits is not None and health:
            flags = late.tolist()
            for t in sorted({t for t, m, x in zip(targets, can_move, flags) if m and not x}):
                health.ok(t, engine.now)  # back inside its deadline
        # A read's observed latency is what it spent waiting, like any
        # first-attempt read's: each attempt's own wire latency (a blown
        # attempt costs exactly its deadline) plus the backoffs between.
        waited = outcome.latencies
        if waited is None:
            waited = np.full(len(batch), engine.now - t_attempt)
        if merged is None:
            if not n_late:
                # Everything landed at the first attempt: the transport's
                # outcome *is* the merged one (merging onto zeros adds
                # ``0.0 + x == x`` everywhere).
                return RetryOutcome(
                    outcome=FetchOutcome(
                        payloads=outcome.payloads,
                        latencies=waited,
                        stage_seconds=dict(outcome.stage_seconds),
                    )
                )
            merged = FetchOutcome(
                payloads=[None] * n, latencies=np.zeros(n, dtype=np.float64), stage_seconds={}
            )
        for stage, seconds in outcome.stage_seconds.items():
            merged.stage_seconds[stage] = (
                merged.stage_seconds.get(stage, 0.0) + seconds
            )
        merged.latencies[pending] += waited
        landed = (~late).nonzero()[0]
        for slot, at in zip(pending[landed].tolist(), landed.tolist()):
            merged.payloads[slot] = outcome.payloads[at]
        pending = pending[late]
        if not pending.size:
            break
        n_timeouts += pending.size
        if limits is None:
            break  # a transport that reports timeouts without a deadline
        n_retries += pending.size
        batch = batch[late]
        targets = batch[:, 0].tolist()
        distinct = sorted(set(targets))
        if health is not None:
            # Strike first, re-route after: a read must not fail over to a
            # rank another read of this very batch just timed out on.
            for t in distinct:
                health.strike(t, engine.now, engine.now - t_attempt)
        moved_to = {}  # per distinct target: where its reads go next
        for t in distinct:
            dest = reroute(t)
            moved_to[t] = t if dest is None else dest
        routed = [moved_to[t] for t in targets]
        batch[:, 0] = routed
        moves = sum(dest != t for dest, t in zip(routed, targets))
        n_failovers += moves
        stayed = moves < len(targets)

    attempts = attempt + 1
    if pending.size:
        # Unreachable through DDStore's own transports (an unbounded attempt
        # never times out), but a third-party transport could report
        # timeouts without one.
        raise FetchTimeoutError(
            f"{pending.size} read(s) still incomplete after "
            f"{attempts} attempt(s) (timeout_s={policy.timeout_s})"
        )
    return RetryOutcome(
        outcome=merged, n_timeouts=n_timeouts, n_retries=n_retries,
        n_failovers=n_failovers, attempts=attempts,
    )
