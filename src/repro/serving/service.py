"""StoreService and TenantSession: N concurrent jobs on one DDStore.

The single-job API hands every caller the same :class:`~repro.core.DDStore`
handle; the serving layer multiplexes that store between independent
tenants instead.  A :class:`StoreService` wraps one *already-created*
replicated store (creation stays the collective
:meth:`DDStore.create` / :func:`repro.client.serve` path), is configured
by its own :class:`~repro.core.ServingOptions` (a store's config carries
none), and hands out :class:`TenantSession` handles:

* **Admission control** — at most ``ServingOptions.max_tenants``
  concurrent sessions per rank.  When full, ``connect`` raises
  :class:`AdmissionError`.
* **QoS + fairness** — each session carries a QoS class from
  ``ServingOptions.qos``; its weight scales the session's DRR quantum at
  every RMA target (see :mod:`.drr`), and the quantum also caps each of
  the session's wire reads.
* **Cache partitioning** — each session owns a private DRAM-only
  :class:`~repro.dataplane.TieredCache` carved from the DRAM tier of the
  parent store's cache configuration, with the parent's policy, sized by
  :meth:`ServingOptions.partition_bytes`.  Partitions are
  static, so one tenant's working set can never evict another's bytes —
  the no-cross-contamination property the serving tests pin down.
* **Per-tenant observability** — sessions publish the
  ``ddstore.tenant`` metric family (labels: tenant, qos, counter, rank)
  and tag their store spans with the tenant name; the service itself
  counts connects, closes, migrations and rejections.

Session state machine::

    connect() ──> OPEN ──fetch──> OPEN (mid-fetch)
                   │                      │
                   │ close()              │ fetch completes
                   ▼                      ▼
                 CLOSED <──close()───── OPEN (idle)

A closed session raises :class:`~repro.core.StoreClosedError` on any
further fetch; ``close`` is idempotent.  Closing a session never touches
the parent store.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional, Sequence

from ..core.config import CacheOptions, ServingOptions
from ..core.store import DDStore
from .drr import DrrArbiter, TenantLane

__all__ = ["AdmissionError", "StoreService", "TenantSession"]


class AdmissionError(RuntimeError):
    """connect() found no free tenant slot."""


class TenantSession:
    """One tenant's rank-local handle on a shared store.

    ``session.store`` is a session-scoped :class:`DDStore` view — same
    fetch API, own stats/cache/fairness lane — so everything that
    consumes a store (datasets, loaders, the epoch scheduler, trainers)
    works unchanged on top of a session.
    """

    def __init__(
        self,
        name: str,
        qos: str,
        store: DDStore,
        lane: TenantLane,
        service: "StoreService",
    ) -> None:
        self.name = name
        self.qos = qos
        self.store = store
        self.lane = lane
        self.service = service

    # -- the fetch surface (thin delegation; the view does the work) ----
    def get_samples(self, indices: Sequence[int], decode: bool = True, n_workers: int = 1) -> Generator:
        return (yield from self.store.get_samples(indices, decode=decode, n_workers=n_workers))

    def get_batch_arena(self, indices, arena, n_workers: int = 1) -> Generator:
        return (yield from self.store.get_batch_arena(indices, arena, n_workers=n_workers))

    def prefetch_wave(self, batch_indices, n_workers: int = 1, window=None) -> Generator:
        return (
            yield from self.store.prefetch_wave(
                batch_indices, n_workers=n_workers, window=window
            )
        )

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Idempotent, rank-local: closes this session's view, never the
        service's store."""
        self.service._release(self)
        self.store.close()

    def __enter__(self) -> "TenantSession":
        if self.store.closed:
            from ..core.store import StoreClosedError

            raise StoreClosedError("cannot enter a closed TenantSession")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class StoreService:
    """Owns one replicated store; hands out per-tenant sessions.

    Rank-local (every rank of the job builds its own service over its
    own store handle); the DRR arbiters behind it are shared across the
    whole world, so fairness is enforced at each RMA *target*, not per
    initiator.
    """

    def __init__(self, store: DDStore, options: Optional[ServingOptions] = None) -> None:
        if store.closed:
            raise ValueError("cannot serve a closed store")
        self.store = store
        self.options = options if options is not None else ServingOptions()
        self._sessions: dict[str, TenantSession] = {}
        self._closed = False
        # Arbiters are per (communicator, target) and shared by all ranks
        # (``HostShared.arbiters``): every rank's coroutines run in the one
        # engine, so a single arbiter object can queue and wake waiters
        # world-wide.  The communicator is shared by exactly the ranks of
        # this store's comm, which scopes the table key.
        c = store.comm.communicator
        self._arbiters: dict[int, DrrArbiter] = c.world.shared.arbiters.setdefault(c.id, {})

    # -- internals ------------------------------------------------------
    def _arbiter_for(self, target: int) -> DrrArbiter:
        arb = self._arbiters.get(target)
        if arb is None:
            arb = DrrArbiter(
                self.store.comm.engine,
                self.options.drr_quantum_bytes,
            )
            self._arbiters[target] = arb
        return arb

    def _count(self, counter: str, tenant: str, qos: str) -> None:
        obs = self.store.comm.communicator.world.obs
        m = obs.metrics
        if m.enabled:
            m.counter(
                "ddstore.tenant",
                tenant=tenant,
                qos=qos,
                counter=counter,
                rank=self.store.comm.world_rank,
            ).inc(1)

    def _release(self, session: TenantSession) -> None:
        """Drop a session from the table (close() plumbing)."""
        live = self._sessions.get(session.name)
        if live is session:
            del self._sessions[session.name]
            self._count("session_closed", session.name, session.qos)

    # -- the public surface ---------------------------------------------
    def connect(
        self,
        tenant: Optional[str] = None,
        qos: Optional[str] = None,
    ) -> TenantSession:
        """Admit a tenant and hand it a session (rank-local, immediate).

        ``tenant`` defaults to the first ``tenant<N>`` (N = 0, 1, ...) no
        live session holds and must be unique among live sessions; ``qos``
        defaults to the first class in ``ServingOptions.qos``.  An unknown
        ``qos`` raises ``KeyError`` before anything is booked.
        """
        if self._closed:
            raise AdmissionError("this StoreService has been closed")
        if self.store.closed:
            raise AdmissionError("the underlying store has been closed")
        opts = self.options
        qos = opts.default_qos if qos is None else qos
        weight = opts.weight_of(qos)  # validates the class name
        if tenant is None:
            tenant = next(
                f"tenant{n}" for n in itertools.count() if f"tenant{n}" not in self._sessions
            )
        if tenant in self._sessions:
            raise ValueError(f"tenant {tenant!r} already has a live session")
        if len(self._sessions) >= opts.max_tenants:
            self._count("session_rejected", tenant, qos)
            raise AdmissionError(
                f"tenant {tenant!r} rejected: all {opts.max_tenants} slots taken"
            )
        parent = self.store.config.dataplane.cache_options
        cache = self.store.build_cache(
            CacheOptions.dram_only(opts.partition_bytes(parent.dram_bytes), parent.policy)
        )
        lane = TenantLane(
            tenant,
            weight,
            self.store.comm.engine,
            self._arbiter_for,
            opts.max_inflight_bytes,
            qos=qos,
            target_share=opts.target_share(qos),
        )
        view = self.store.session_view(
            tenant=tenant,
            qos=qos,
            cache=cache,
            lane=lane,
            drr_quantum_bytes=opts.drr_quantum_bytes,
        )
        session = TenantSession(tenant, qos, view, lane, service=self)
        self._sessions[tenant] = session
        self._count("session_connected", tenant, qos)
        return session

    def quiesce(self) -> Generator:
        """Wait (virtual time) until no live session has a fetch inside
        its lane; returns the seconds waited.  Rank-local; the reshard
        path barriers afterwards so every rank enters the collective
        shuffle with a quiet data plane."""
        engine = self.store.comm.engine
        t0 = engine.now
        busy = [s for s in self._sessions.values() if s.lane.active]
        while busy:
            yield from busy[0].lane.drained()
            busy = [s for s in self._sessions.values() if s.lane.active]
        return engine.now - t0

    def reshard(
        self,
        width: Optional[int] = None,
        n_workers: int = 1,
    ) -> Generator:
        """Collectively reshard the served store and migrate every session.

        The live-session reshard protocol (all ranks call this together):

        1. **quiesce** — rank-locally wait until no tenant has a fetch
           inside its lane, then barrier so no rank starts the shuffle
           while another rank's tenants still hold DRR grants,
        2. **reshard** — the usual collective memory-to-memory shuffle
           (:meth:`DDStore.reshard`, which closes the old store once), and
        3. **migrate** — atomically re-point every live session at a
           ``session_view`` of the new store.

        Without step 3 every session view would keep pointing at the
        closed old store — its next fetch dies with
        :class:`~repro.core.StoreClosedError` on the RMA plane or hangs
        against the exited p2p responder.  Migration preserves each
        tenant's cumulative :class:`~repro.core.FetchStats`, its cache
        partition (same object — entries survive, sample ids are
        width-independent), and its DRR lane state (deficits, weights,
        in-flight accounting).  Returns the new store.
        """
        if self._closed:
            raise ValueError("cannot reshard a closed StoreService")
        yield from self.quiesce()
        yield from self.store.comm.barrier()
        new_store = yield from self.store.reshard(width=width, n_workers=n_workers)
        self.migrate(new_store)
        return new_store

    def migrate(self, new_store: DDStore) -> None:
        """Rank-local: move every live session onto views of ``new_store``.

        Continuity contract: a tenant keeps its :class:`FetchStats`
        object, its cache partition with all cached payloads, its lane
        (so DRR deficits and QoS accounting carry over), and its
        delta-accumulation snapshots — cumulative counters stay monotone
        across the reshard generation.
        """
        for session in self._sessions.values():
            old_view = session.store
            view = new_store.session_view(
                tenant=session.name,
                qos=session.qos,
                cache=old_view.cache,
                lane=session.lane,
                drr_quantum_bytes=self.options.drr_quantum_bytes,
            )
            view.stats = old_view.stats
            view._cache_base = old_view._cache_base
            view._tier_base = old_view._tier_base
            session.store = view
            old_view.close()
            self._count("session_migrated", session.name, session.qos)
        self.store = new_store

    def close(self) -> None:
        """Close every live session and the parent store.
        Rank-local and idempotent; p2p-style transports still need the
        collective ``store.shutdown()`` first, exactly as without the
        service layer.  A session closed with a fetch still inside its
        lane, or a DRR grant still held, raises naming tenant, class and
        target rather than leaking silently."""
        if self._closed:
            return
        self._closed = True
        leaks = [what for s in self._sessions.values() for what in s.lane.leaks()]
        for session in list(self._sessions.values()):
            session.close()
        self.store.close()
        if leaks:
            raise RuntimeError("StoreService closed with leaked grants: " + "; ".join(leaks))
