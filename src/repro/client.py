"""Public client facade for serving one store to several jobs.

A single training job holds its store directly: ``DDStore.create`` plus
a :class:`~repro.core.DDStoreDataset` over it.  :func:`serve` is the
multi-tenant path.  It is collective (every rank of ``comm`` calls it
inside its rank coroutine, exactly like :meth:`DDStore.create`), builds
the store and wraps it in a :class:`~repro.serving.StoreService` built
with ``serving`` (the service, not the store, reads
:class:`~repro.core.ServingOptions`); call ``service.connect(tenant,
qos=...)`` (rank-local, immediate) to admit each job.

Typical two-tenant setup::

    def rank_main(ctx):
        service = yield from client.serve(
            ctx.comm, source, width=4,
            serving=ServingOptions(max_tenants=2, qos=(("interactive", 4), ("batch", 1))),
        )
        fg = service.connect("dashboard", qos="interactive")
        bg = service.connect("pretrain", qos="batch")
        ...  # drive fg.get_samples(...) and bg.get_samples(...) as engine processes
        service.close()
"""

from __future__ import annotations

from typing import Generator, Optional

from .core.config import DataPlaneOptions, ResilienceOptions, ServingOptions
from .core.store import DDStore
from .serving import StoreService, TenantSession

__all__ = ["serve", "StoreService", "TenantSession"]


def serve(
    comm,
    source,
    *,
    width: Optional[int] = None,
    dataplane: Optional[DataPlaneOptions] = None,
    resilience: Optional[ResilienceOptions] = None,
    serving: Optional[ServingOptions] = None,
) -> Generator:
    """Collectively build a store and return a :class:`StoreService`.

    Admission happens later, per tenant, through ``service.connect`` —
    that part is rank-local and costs no simulated time.
    """
    store = yield from DDStore.create(
        comm, source, width=width, dataplane=dataplane, resilience=resilience
    )
    return StoreService(store, serving)
