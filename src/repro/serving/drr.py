"""Deficit-round-robin fairness for the multi-tenant serving layer.

Two cooperating gates sit between a tenant session's fetch plan and the
wire (both consulted from the pipeline's fetch stage,
:func:`repro.dataplane.pipeline.fetch`, through the session's
:class:`TenantLane`):

* :class:`DrrArbiter` — one per RMA *target*, shared by every session of
  one service (across ranks: all rank coroutines run in the same engine,
  so the arbiter's grant events wake waiters anywhere in the world).  It
  bounds the bytes in flight toward its target with **per-QoS-class
  pools** (DiffServ-style): each class owns a slice of the target's
  in-flight budget proportional to its weight, so a latency-class read
  can saturate only on its *own* class's backlog — never behind a bulk
  class's.  Within a class, once the pool is saturated queued requests
  are granted in deficit-round-robin order: each scheduling round a
  backlogged tenant's deficit grows by ``quantum * qos_weight`` and its
  head request issues when the deficit covers it, so same-class tenants
  drain byte-proportionally to their weights while none is ever starved.
  Grant rounds visit backlogged tenants weight-major, giving a higher
  QoS class strict precedence at the instant capacity frees.

* The per-tenant in-flight byte cap (kept in :class:`TenantLane`) bounds
  one tenant's total outstanding wire bytes regardless of target, so a
  single bulk tenant cannot occupy every target's window at once.

**A grant covers bytes that are on the wire.**  The fetch stage asks its
lane for *whatever part of the plan is grantable right now*
(:meth:`TenantLane.acquire`), issues exactly those targets as one
sub-fetch, and releases the grants when that sub-fetch lands.  Only when
nothing is grantable does the session block — on one arbiter, **holding
nothing** — which is the whole deadlock-freedom argument: a blocked
session owns no grant another session could be waiting for, so the wait
graph has no cycle whatever order targets are visited in.

The non-blocking grant is **per class**: a request is granted without
queueing when it fits its class pool *and* no request of the same class
is queued at that target (so DRR order inside a class is never barged);
another class's backlog is irrelevant to it.  Such a grant touches no
engine state — no events, no virtual time — so a solo tenant (and every
single-job store, which has no lane at all) is bit-for-bit unaffected.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Generator, Optional

from ..sim.engine import Engine, Event

__all__ = ["DrrArbiter", "TenantLane"]


class DrrArbiter:
    """Per-class byte pools with DRR ordering for one RMA target."""

    __slots__ = ("engine", "quantum", "inflight", "_queues", "_deficit", "_queued")

    def __init__(self, engine: Engine, quantum_bytes: int) -> None:
        self.engine = engine
        self.quantum = int(quantum_bytes)
        self.inflight: dict[str, int] = {}  # qos class -> bytes in flight
        # tenant -> FIFO of (nbytes, weight, cls, cap, event); OrderedDict
        # fixes the deterministic tie-break order (first-seen first).
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._deficit: dict[str, int] = {}
        self._queued: dict[str, int] = {}  # qos class -> requests queued

    def _fits(self, cls: str, cap: Optional[int], nbytes: int) -> bool:
        """Class-pool check with head-of-line progress: a request larger
        than the whole pool is admitted alone rather than never."""
        if cap is None:
            return True
        inflight = self.inflight.get(cls, 0)
        return inflight + nbytes <= cap or inflight == 0

    def try_acquire(self, nbytes: int, cls: str, cap: Optional[int]) -> bool:
        """Grant ``nbytes`` now if that barges nobody: the request fits its
        class pool and no same-class request is queued ahead of it.
        Touches no engine state."""
        if self._queued.get(cls) or not self._fits(cls, cap, nbytes):
            return False
        self.inflight[cls] = self.inflight.get(cls, 0) + nbytes
        return True

    def acquire(
        self, tenant: str, weight: int, nbytes: int, cls: str, cap: Optional[int]
    ) -> Generator:
        """Wait for a byte grant toward this target (a generator)."""
        if nbytes <= 0 or self.try_acquire(nbytes, cls, cap):
            return
        ev = Event(self.engine, name=("drr:{}", tenant))
        self._queues.setdefault(tenant, deque()).append((nbytes, weight, cls, cap, ev))
        self._queued[cls] = self._queued.get(cls, 0) + 1
        self._pump()
        yield ev

    def release(self, nbytes: int, cls: str) -> None:
        if nbytes <= 0:
            return
        left = self.inflight.get(cls, 0) - nbytes
        if left < 0:
            raise RuntimeError("DrrArbiter released more bytes than in flight")
        self.inflight[cls] = left
        if self._queues:
            self._pump()

    def _pump(self) -> None:
        """Grant queued requests in DRR order while class pools allow.

        Each pass visits backlogged tenants weight-major (ties in
        first-queued order): a higher QoS weight takes strict precedence
        at grant time — the isolation property — while equal-weight
        tenants share byte-proportionally through their deficits.  A
        tenant whose head request exceeds its deficit earns
        ``quantum * weight`` more and waits for a later pass, so the
        loop always terminates: either a grant is made, every backlogged
        class is pool-saturated, or every deficit strictly grows toward
        its head request.  No tenant joins mid-pump and a tenant's weight
        is fixed, so the visiting order is sorted once per call.
        """
        queues = self._queues
        order = sorted(queues, key=lambda t: -queues[t][0][1])  # stable: ties first-queued
        while queues:
            granted = False
            capacity_blocked = False
            for tenant in order:
                q = queues.get(tenant)
                if q is None:
                    continue
                nbytes, weight, cls, cap, ev = q[0]
                if not self._fits(cls, cap, nbytes):
                    capacity_blocked = True
                    continue
                deficit = self._deficit.get(tenant, 0)
                if deficit < nbytes:
                    deficit += self.quantum * weight
                if deficit < nbytes:
                    self._deficit[tenant] = deficit
                    continue
                q.popleft()
                self._queued[cls] -= 1
                self._deficit[tenant] = deficit - nbytes
                self.inflight[cls] = self.inflight.get(cls, 0) + nbytes
                ev.succeed()
                granted = True
                if not q:
                    del queues[tenant]
                    del self._deficit[tenant]
            if not granted and capacity_blocked:
                return  # a release() will pump again

    def leaks(self) -> list[str]:
        """What a quiet data plane must not find here: bytes still granted
        in some class, tenants still queued."""
        found = [
            f"{nbytes} byte(s) in flight in class {cls!r}"
            for cls, nbytes in self.inflight.items()
            if nbytes
        ]
        found += [
            f"tenant {tenant!r} queued with {len(q)} request(s) of class {q[0][2]!r}"
            for tenant, q in self._queues.items()
        ]
        return found


class TenantLane:
    """One session's gate onto the wire.

    The fetch stage brackets each fetch with :meth:`enter` / :meth:`leave`
    and, inside, alternates :meth:`acquire` → issue → :meth:`release` per
    sub-fetch.  ``acquire(want)`` enforces, per target of ``want``:

    1. the per-tenant in-flight byte cap (``max_inflight_bytes``) — when
       nothing of this tenant's is in flight the first target is admitted
       even if it alone exceeds the cap, so the pipeline can never
       deadlock on its own head-of-line read,
    2. the target's :class:`DrrArbiter` class pool.

    The lane also carries the session bookkeeping the service reads:
    ``active`` (fetches entered and not yet left — a quiescable session
    has zero, whether or not any of its bytes happen to be on the wire
    this instant) and ``held`` (target → bytes currently granted to this
    lane).
    """

    __slots__ = (
        "tenant",
        "weight",
        "qos",
        "target_share",
        "engine",
        "max_inflight_bytes",
        "active",
        "held",
        "n_fetches",
        "queue_seconds",
        "_arbiter_for",
        "_waiters",
    )

    def __init__(
        self,
        tenant: str,
        weight: int,
        engine: Engine,
        arbiter_for,
        max_inflight_bytes: Optional[int],
        qos: str = "default",
        target_share: Optional[int] = None,
    ) -> None:
        self.tenant = tenant
        self.weight = int(weight)
        self.qos = qos
        self.target_share = target_share  # this class's per-target byte pool
        self.engine = engine
        self.max_inflight_bytes = max_inflight_bytes
        self.active = 0
        self.held: dict[int, int] = {}
        self.n_fetches = 0
        self.queue_seconds = 0.0
        # target rank -> DrrArbiter, resolved through the owning service
        # (arbiters are shared by every session of the service).
        self._arbiter_for = arbiter_for
        # Woken whenever this lane frees something: bytes (the per-tenant
        # cap's waiters) or its last active fetch (``drained`` waiters).
        self._waiters: deque = deque()

    @property
    def inflight(self) -> int:
        """Bytes currently granted to this lane, over all targets."""
        return sum(self.held.values())

    # -- fetch bracket ---------------------------------------------------
    def enter(self) -> None:
        self.active += 1
        self.n_fetches += 1

    def leave(self) -> None:
        self.active -= 1
        self._wake()

    def drained(self) -> Generator:
        """Wait (a generator) until no fetch is inside this lane."""
        while self.active:
            yield self._wait()

    # -- grants ------------------------------------------------------------
    def _over_cap(self, inflight: int, nbytes: int) -> bool:
        cap = self.max_inflight_bytes
        return cap is not None and inflight > 0 and inflight + nbytes > cap

    def _take(self, want: dict[int, int], granted: dict[int, int]) -> None:
        """Move every target of ``want`` that is grantable right now into
        ``granted`` (no engine state touched)."""
        inflight = self.inflight
        for target, nbytes in want.items():
            if target in granted or self._over_cap(inflight, nbytes):
                continue
            if self._arbiter_for(target).try_acquire(nbytes, self.qos, self.target_share):
                self._hold(granted, target, nbytes)
                inflight += nbytes

    def _hold(self, granted: dict[int, int], target: int, nbytes: int) -> None:
        granted[target] = nbytes
        self.held[target] = self.held.get(target, 0) + nbytes

    def acquire(self, want: dict[int, int]) -> Generator:
        """Grant whatever part of ``want`` (target → bytes still to issue)
        is grantable right now and return it as a ``{target: bytes}`` dict.

        Only when *nothing* is grantable does the caller wait — for its own
        bytes to land (per-tenant cap) or in the DRR queue of ``want``'s
        first target — and it waits holding none of ``want``.  The wait is
        added to ``queue_seconds``.
        """
        engine = self.engine
        t0 = engine.now
        granted: dict[int, int] = {}
        self._take(want, granted)
        while not granted:
            target, nbytes = next(iter(want.items()))
            if self._over_cap(self.inflight, nbytes):
                yield self._wait()
            else:
                yield from self._arbiter_for(target).acquire(
                    self.tenant, self.weight, nbytes, self.qos, self.target_share
                )
                self._hold(granted, target, nbytes)
            self._take(want, granted)
        waited = engine.now - t0
        if waited:
            self.queue_seconds += waited
        return granted

    def release(self, granted: dict[int, int]) -> None:
        """Give back exactly what one :meth:`acquire` returned."""
        held = self.held
        for target, nbytes in granted.items():
            self._arbiter_for(target).release(nbytes, self.qos)
            left = held[target] - nbytes
            if left:
                held[target] = left
            else:
                del held[target]
        self._wake()

    # -- plumbing ----------------------------------------------------------
    def _wait(self) -> Event:
        ev = Event(self.engine, name=("lane:{}", self.tenant))
        self._waiters.append(ev)
        return ev

    def _wake(self) -> None:
        while self._waiters:
            self._waiters.popleft().succeed()

    def leaks(self) -> list[str]:
        """What must be gone when the session's store shuts down."""
        found = [
            f"{nbytes} byte(s) still granted on target {target}"
            for target, nbytes in sorted(self.held.items())
        ]
        if self.active:
            found.append(f"{self.active} fetch(es) still inside the lane")
        return [f"tenant {self.tenant!r} (class {self.qos!r}): {what}" for what in found]
