"""Multi-tenant serving layer: N concurrent jobs on one DDStore.

:class:`StoreService` owns one replicated store and hands out
:class:`TenantSession` handles with admission control, per-tenant cache
partitions, and deficit-round-robin fairness at every RMA target
(:class:`DrrArbiter` / :class:`TenantLane`).  A single job needs none
of this: it holds its store directly, through ``DDStore.create`` and a
:class:`~repro.core.DDStoreDataset`.
"""

from .drr import DrrArbiter, TenantLane
from .service import AdmissionError, StoreService, TenantSession

__all__ = [
    "AdmissionError",
    "DrrArbiter",
    "StoreService",
    "TenantLane",
    "TenantSession",
]
