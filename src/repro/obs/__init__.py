"""``repro.obs`` — the unified observability layer (metrics + tracing).

The paper's whole argument (§4, Figs. 5/9) is per-stage timing, so this
reproduction gives where-the-time-goes a first-class home spanning
sim → mpi → dataplane → store → trainer → bench:

* :class:`MetricsRegistry` — labelled counters/gauges/histograms; the
  canonical owner of fetch, cache, retry, trainer, and fault counters
  (:class:`~repro.core.store.FetchStats` remains the rank-local view),
* :class:`SpanCollector` — the virtual-time spans each layer measured,
  with Chrome/Perfetto trace-event JSON export
  (:func:`validate_chrome_trace` checks the shape),
* :func:`analyze` — the critical-path analyzer: attributes each epoch's
  virtual time to trainer stages and asserts the attribution sums to the
  measured epoch time, the self-check that makes fetch-accounting bugs
  structurally loud,
* :class:`Observer` — the attachment point: ``world.attach_observer``
  wires one observer through every instrumented layer.  Every publisher
  guards on ``obs.tracing`` / ``obs.metrics.enabled``, and the default
  :data:`NULL_OBSERVER` has both off, so unobserved runs pay one check
  and stay bit-identical to the seed,
* :func:`run_traced` — the ``python -m repro trace <experiment>`` engine.
"""

from .critical_path import (
    CriticalPathError,
    CriticalPathReport,
    EpochAttribution,
    analyze,
    render_report,
    stage_spans_contiguous,
)
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from .observer import NULL_OBSERVER, Observer
from .runner import TRACEABLE, TracedRun, run_traced, trace_json_bytes, traced_config
from .tracing import (
    SpanCollector,
    SpanRecord,
    chrome_trace_events,
    validate_chrome_trace,
)

__all__ = [
    "Observer",
    "NULL_OBSERVER",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "SpanCollector",
    "SpanRecord",
    "chrome_trace_events",
    "validate_chrome_trace",
    "CriticalPathReport",
    "CriticalPathError",
    "EpochAttribution",
    "analyze",
    "render_report",
    "stage_spans_contiguous",
    "TRACEABLE",
    "TracedRun",
    "run_traced",
    "traced_config",
    "trace_json_bytes",
]
