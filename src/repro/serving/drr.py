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

Both gates follow the ``_EpochGate`` discipline: an *uncontended*
acquire touches no engine state — no events, no virtual time — so a
solo tenant (and every single-job store, which has no lane at all) is
bit-for-bit unaffected.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Generator, Optional, Sequence

from ..sim.engine import Engine, Event

__all__ = ["DrrArbiter", "TenantLane"]


class DrrArbiter:
    """Per-class byte pools with DRR ordering for one RMA target."""

    __slots__ = ("engine", "quantum", "inflight", "_queues", "_deficit")

    def __init__(self, engine: Engine, quantum_bytes: int) -> None:
        self.engine = engine
        self.quantum = int(quantum_bytes)
        self.inflight: dict[str, int] = {}  # qos class -> bytes in flight
        # tenant -> FIFO of (nbytes, weight, cls, cap, event); OrderedDict
        # fixes the deterministic tie-break order (first-seen first).
        self._queues: "OrderedDict[str, deque]" = OrderedDict()
        self._deficit: dict[str, int] = {}

    def _fits(self, cls: str, cap: Optional[int], nbytes: int) -> bool:
        """Class-pool check with head-of-line progress: a request larger
        than the whole pool is admitted alone rather than never."""
        if cap is None:
            return True
        inflight = self.inflight.get(cls, 0)
        return inflight + nbytes <= cap or inflight == 0

    def acquire(
        self, tenant: str, weight: int, nbytes: int, cls: str, cap: Optional[int]
    ) -> Generator:
        """Wait for a byte grant toward this target (a generator)."""
        if nbytes <= 0:
            return
        if not self._queues and self._fits(cls, cap, nbytes):
            # Uncontended: no engine state touched.
            self.inflight[cls] = self.inflight.get(cls, 0) + nbytes
            return
        ev = Event(self.engine, name=f"drr:{tenant}")
        self._queues.setdefault(tenant, deque()).append((nbytes, weight, cls, cap, ev))
        self._pump()
        yield ev

    def release(self, nbytes: int, cls: str) -> None:
        if nbytes <= 0:
            return
        left = self.inflight.get(cls, 0) - nbytes
        if left < 0:
            raise RuntimeError("DrrArbiter released more bytes than in flight")
        self.inflight[cls] = left
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
        its head request.
        """
        while self._queues:
            granted = False
            capacity_blocked = False
            order = sorted(
                self._queues, key=lambda t: -self._queues[t][0][1]
            )  # stable: ties keep first-queued order
            for tenant in order:
                q = self._queues[tenant]
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
                self._deficit[tenant] = deficit - nbytes
                self.inflight[cls] = self.inflight.get(cls, 0) + nbytes
                ev.succeed()
                granted = True
                if not q:
                    del self._queues[tenant]
                    del self._deficit[tenant]
            if not granted and capacity_blocked:
                return  # a release() will pump again
        return


class TenantLane:
    """One session's gate onto the wire.

    ``acquire(reads)`` (a generator) enforces, in order:

    1. the per-tenant in-flight byte cap (``max_inflight_bytes``) — a
       fetch larger than the cap is admitted alone so the pipeline can
       never deadlock on its own head-of-line batch,
    2. one :class:`DrrArbiter` grant per distinct target the plan
       touches, acquired in ascending target order.  The global order
       makes hold-and-wait cycles impossible: no session can hold a
       grant on target *j* while waiting on target *i < j*.

    ``release(reads)`` undoes both (called from the fetch path's
    ``finally``).  The lane also carries the session bookkeeping the
    admission controller reads: ``last_used`` (engine time of the last
    fetch — the idleness key for ``evict-idle``) and the live
    ``inflight`` byte count (an evictable session has zero).
    """

    __slots__ = (
        "tenant",
        "weight",
        "qos",
        "target_share",
        "engine",
        "max_inflight_bytes",
        "inflight",
        "last_used",
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
        self.inflight = 0
        self.last_used = engine.now
        self.n_fetches = 0
        self.queue_seconds = 0.0
        # target rank -> DrrArbiter, resolved through the owning service
        # (arbiters are shared by every session of the service).
        self._arbiter_for = arbiter_for
        self._waiters: deque = deque()

    @staticmethod
    def _per_target(reads: Sequence) -> dict[int, int]:
        totals: dict[int, int] = {}
        for read in reads:
            if read.nbytes:
                totals[read.target] = totals.get(read.target, 0) + read.nbytes
        return totals

    def acquire(self, reads: Sequence) -> Generator:
        engine = self.engine
        t0 = engine.now
        self.last_used = t0
        self.n_fetches += 1
        total = sum(r.nbytes for r in reads)
        cap = self.max_inflight_bytes
        if cap is not None:
            # Head-of-line progress: when nothing of ours is in flight the
            # fetch is admitted even if it alone exceeds the cap.
            while self.inflight > 0 and self.inflight + total > cap:
                ev = Event(engine, name=f"lane:{self.tenant}")
                self._waiters.append(ev)
                yield ev
        self.inflight += total
        for target, nbytes in sorted(self._per_target(reads).items()):
            yield from self._arbiter_for(target).acquire(
                self.tenant, self.weight, nbytes, self.qos, self.target_share
            )
        waited = engine.now - t0
        if waited:
            self.queue_seconds += waited
        self.last_used = engine.now

    def release(self, reads: Sequence) -> None:
        for target, nbytes in sorted(self._per_target(reads).items()):
            self._arbiter_for(target).release(nbytes, self.qos)
        self.inflight -= sum(r.nbytes for r in reads)
        self.last_used = self.engine.now
        while self._waiters:
            self._waiters.popleft().succeed()
