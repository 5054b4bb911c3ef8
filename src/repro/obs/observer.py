"""The observability attachment point: one object the whole stack consults.

An :class:`Observer` bundles a :class:`~.metrics.MetricsRegistry` and an
optional :class:`~.tracing.SpanCollector`.  It is attached to a simulated
world with ``world.attach_observer(obs)``; every instrumented layer
(``mpi.comm``, ``mpi.rma``, ``dataplane``, ``core.store``,
``gnn.trainer``) reaches it through ``world.obs`` and publishes metrics
deltas and spans into it.  A span arrives already timed on the world's
virtual clock, so the observer holds no clock and attaching it binds
nothing.

The default is :data:`NULL_OBSERVER`: tracing off, a disabled metrics
registry, no tracer.  Every publisher guards on ``obs.tracing`` /
``obs.metrics.enabled``, and that guard is the whole mechanism: an
unobserved run does no label formatting, no dict lookups and no
allocation, so the seed behaviour is preserved bit-for-bit.
"""

from __future__ import annotations

from typing import Optional

from .metrics import NULL_METRICS, MetricsRegistry
from .tracing import SpanCollector

__all__ = ["Observer", "NULL_OBSERVER"]


class Observer:
    """A live observability session: metrics always, tracing when
    ``trace`` (spans capped at :class:`SpanCollector`'s default
    ``max_events``).  The tracer reads no clock: each layer records
    spans it has already timed on its world's virtual clock."""

    enabled = True

    def __init__(self, *, trace: bool = True) -> None:
        self.metrics = MetricsRegistry()
        self.tracer: Optional[SpanCollector] = SpanCollector() if trace else None

    @property
    def tracing(self) -> bool:
        return self.tracer is not None


class _NullObserver:
    """The unobserved default every world starts with: the guards'
    flags and nothing else."""

    __slots__ = ()
    enabled = False
    tracing = False
    metrics = NULL_METRICS
    tracer = None


NULL_OBSERVER = _NullObserver()
