"""Public client facade over the store: sessions in, stores out of sight.

Two entry points, both collective (every rank of ``comm`` calls them
inside its rank coroutine, exactly like :meth:`DDStore.create`):

* :func:`connect` — the single-job path.  Builds the replicated store
  and returns a solo :class:`~repro.serving.TenantSession` whose
  ``.store`` *is* the raw store: no lane, no cache partition, no extra
  simulation events, so results are bit-identical to calling
  :meth:`DDStore.create` directly.  This is what the bench harness and
  trainers use.

* :func:`serve` — the multi-tenant path.  Builds the store and wraps it
  in a :class:`~repro.serving.StoreService`; call
  ``service.connect(tenant, qos=...)`` (rank-local, immediate) to admit
  each job.

Typical two-tenant setup::

    def rank_main(ctx):
        service = yield from client.serve(
            ctx.comm, source, width=4,
            serving=ServingOptions(max_tenants=2, qos=(("interactive", 4), ("batch", 1))),
        )
        fg = service.connect("dashboard", qos="interactive")
        bg = service.connect("pretrain", qos="batch")
        ...  # drive fg.loader(...) and bg.loader(...) as engine processes
        service.close()
"""

from __future__ import annotations

from typing import Generator, Optional

from .core.config import (
    DataPlaneOptions,
    ElasticOptions,
    ResilienceOptions,
    ServingOptions,
)
from .core.store import DDStore
from .serving import StoreService, TenantSession, solo_session

__all__ = ["connect", "serve", "StoreService", "TenantSession"]


def connect(
    comm,
    source,
    *,
    width: Optional[int] = None,
    dataplane: Optional[DataPlaneOptions] = None,
    resilience: Optional[ResilienceOptions] = None,
    serving: Optional[ServingOptions] = None,
    elastic: Optional[ElasticOptions] = None,
    tenant: str = "default",
) -> Generator:
    """Collectively build a store and return a solo session on it.

    The session owns the store: ``session.close()`` (or leaving its
    ``with`` block) closes it.  For p2p-style transports the collective
    drain is still ``yield from session.store.shutdown()``, as before.
    """
    store = yield from DDStore.create(
        comm,
        source,
        width=width,
        dataplane=dataplane,
        resilience=resilience,
        serving=serving,
        elastic=elastic,
    )
    return solo_session(store, tenant=tenant)


def serve(
    comm,
    source,
    *,
    width: Optional[int] = None,
    dataplane: Optional[DataPlaneOptions] = None,
    resilience: Optional[ResilienceOptions] = None,
    serving: Optional[ServingOptions] = None,
    elastic: Optional[ElasticOptions] = None,
) -> Generator:
    """Collectively build a store and return a :class:`StoreService`.

    Admission happens later, per tenant, through ``service.connect`` —
    that part is rank-local and costs no simulated time.
    """
    store = yield from DDStore.create(
        comm,
        source,
        width=width,
        dataplane=dataplane,
        resilience=resilience,
        serving=serving,
        elastic=elastic,
    )
    return StoreService(store)
