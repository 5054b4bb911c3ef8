"""Metrics registry: labelled counters, gauges, and histograms.

One :class:`MetricsRegistry` instance is the canonical home for every
quantitative signal the system emits — fetch counters, cache hit/miss
totals, retry/failover tallies, trainer phase seconds, fault-injection
perturbation counts.  Producers publish *deltas* into named metrics with
label sets (``rank``, ``stage``, ``transport``, ...); consumers read
deterministic roll-ups back out with :meth:`MetricsRegistry.sum_by` or
export everything with :meth:`MetricsRegistry.as_dict`.

Design rules:

* **Get-or-create** — ``registry.counter("x", rank=3)`` always returns the
  same :class:`Counter` for the same (name, labels) pair, so hot paths can
  publish without bookkeeping.
* **Deterministic export** — metrics are keyed by ``(name, sorted label
  items)``; exports iterate in that sorted order, so two identical runs
  serialise byte-identically.
* **Off by the guard** — every publisher checks ``registry.enabled``
  before it touches an instrument; :data:`NULL_METRICS` is the disabled
  registry and has nothing but that flag.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds-oriented log scale).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)

_LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing sum (ints or floats)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """A point-in-time value (``set`` it)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with count/sum, for latency-style signals."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    def __init__(
        self, name: str, labels: _LabelKey, bounds: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted, got {self.bounds}")
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last = +inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1


class MetricsRegistry:
    """The live registry: get-or-create instruments keyed by name+labels."""

    #: Instrumentation sites check this before doing any label/dict work.
    enabled = True

    def __init__(self) -> None:
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        # (name, *labels in call order) -> counter: hot publishers call with
        # the same labels in the same order, so they skip the sort.
        self._counter_calls: dict[tuple, Counter] = {}

    # -- instruments ------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        call = (name, *labels.items())
        inst = self._counter_calls.get(call)
        if inst is None:
            key = (name, _label_key(labels))
            inst = self._counters.get(key)
            if inst is None:
                inst = self._counters[key] = Counter(name, key[1])
            self._counter_calls[call] = inst
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, key[1])
        return inst

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        **labels: Any,
    ) -> Histogram:
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                name, key[1], bounds=buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return inst

    # -- roll-ups ---------------------------------------------------------
    def sum_by(self, name: str, *group_labels: str, **label_filter: Any) -> dict:
        """Counter totals of ``name`` grouped by one or more labels' values.

        With a single group label keys are that label's values; with
        several, keys are value tuples in label order (e.g.
        ``sum_by("ddstore.tier", "tier", "counter")`` yields
        ``{("dram", "hits"): ...}``).  Series missing any group label are
        skipped.  Keys come back in sorted order, so roll-ups are
        deterministic.
        """
        if not group_labels:
            raise TypeError("sum_by needs at least one group label")
        groups: dict[Any, float] = {}
        for (n, labels), inst in self._counters.items():
            if n != name:
                continue
            d = dict(labels)
            if any(g not in d for g in group_labels):
                continue
            if not all(d.get(k) == v for k, v in label_filter.items()):
                continue
            key = (
                d[group_labels[0]]
                if len(group_labels) == 1
                else tuple(d[g] for g in group_labels)
            )
            groups[key] = groups.get(key, 0.0) + inst.value
        return {k: groups[k] for k in sorted(groups, key=repr)}

    # -- export -----------------------------------------------------------
    def as_dict(self) -> dict:
        """Deterministic nested export (stable key ordering)."""

        def series(items, fields):
            out = []
            for (name, labels), inst in sorted(items.items()):
                row = {"name": name, "labels": dict(labels)}
                row.update({f: getattr(inst, f) for f in fields})
                out.append(row)
            return out

        return {
            "counters": series(self._counters, ("value",)),
            "gauges": series(self._gauges, ("value",)),
            "histograms": [
                dict(
                    name=name,
                    labels=dict(labels),
                    bounds=list(inst.bounds),
                    bucket_counts=list(inst.bucket_counts),
                    count=inst.count,
                    sum=inst.sum,
                )
                for (name, labels), inst in sorted(self._histograms.items())
            ],
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


class NullMetricsRegistry:
    """The default registry: disabled, so every publisher's guard skips it."""

    enabled = False


NULL_METRICS = NullMetricsRegistry()
