"""Span tracing in virtual time, with Chrome export.

A :class:`SpanCollector` keeps :class:`SpanRecord` intervals that the
instrumented layers have already measured on the virtual clock (each
passes ``start=``/``end=`` to :meth:`SpanCollector.record`; the
collector reads no clock).  Records carry

* ``name`` — what happened (``mpi.MPI_Allreduce``, ``store.fetch``,
  ``gpu_forward``, ...),
* ``cat``  — the layer that emitted it (``trainer.epoch``,
  ``trainer.stage``, ``store``, ``store.stage``, ``dataplane``,
  ``mpi.collective``, ``mpi.p2p``, ``mpi.rma``) — the critical-path
  analyzer selects on categories, never on names,
* ``track`` — the rank whose timeline the span belongs to,
* ``lane``  — 0 for the compute/trainer timeline, 1 for the data
  plane/MPI timeline; one rank's prefetch pipeline overlaps its compute
  in virtual time, and two lanes keep the Chrome rendering readable,
* ``args`` — a sorted tuple of extra key/value detail.

:meth:`SpanCollector.to_chrome` emits the Chrome/Perfetto trace-event
JSON shape (``{"traceEvents": [...]}`` with ``ph: "X"`` complete events,
timestamps in microseconds, ``pid`` = lane, ``tid`` = rank) and
:func:`validate_chrome_trace` structurally checks a document against that
shape — the CI smoke step runs it on every exported trace.

Events are recorded in engine execution order, which is deterministic,
so the export is bit-identical across reruns of the same experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

__all__ = [
    "SpanRecord",
    "SpanCollector",
    "chrome_trace_events",
    "validate_chrome_trace",
]

_LANE_NAMES = {0: "compute", 1: "dataplane"}


@dataclass(frozen=True)
class SpanRecord:
    """One closed interval of virtual time on a rank's timeline."""

    name: str
    cat: str
    track: int
    start: float
    end: float
    lane: int = 0
    args: tuple[tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanCollector:
    """Collects measured spans; bounded, deterministic, export-ready."""

    def __init__(self, max_events: int = 1_000_000) -> None:
        self.max_events = max_events
        self.spans: list[SpanRecord] = []
        self.dropped = 0

    def record(
        self,
        name: str,
        *,
        cat: str = "",
        track: int = 0,
        start: float,
        end: float,
        lane: int = 0,
        **args: Any,
    ) -> None:
        """Record an already-measured interval."""
        if len(self.spans) >= self.max_events:
            self.dropped += 1
            return
        self.spans.append(
            SpanRecord(
                name=name,
                cat=cat,
                track=track,
                start=start,
                end=end,
                lane=lane,
                args=tuple(sorted(args.items())),
            )
        )

    def to_chrome(self) -> dict:
        """The Chrome/Perfetto trace-event JSON object."""
        return {"traceEvents": chrome_trace_events(self.spans), "displayTimeUnit": "ms"}


def chrome_trace_events(spans: Sequence[SpanRecord]) -> list[dict]:
    """Chrome trace events (``ph: X`` + lane metadata) for spans."""
    events: list[dict] = []
    lanes = sorted({s.lane for s in spans}) or [0]
    for lane in lanes:
        events.append(
            dict(
                name="process_name",
                ph="M",
                pid=lane,
                tid=0,
                args={"name": _LANE_NAMES.get(lane, f"lane{lane}")},
            )
        )
    for s in spans:
        entry = dict(
            name=s.name,
            cat=s.cat or "span",
            ph="X",
            ts=s.start * 1e6,
            dur=s.duration * 1e6,
            pid=s.lane,
            tid=s.track,
        )
        if s.args:
            entry["args"] = dict(s.args)
        events.append(entry)
    return events


def validate_chrome_trace(doc: Any) -> list[str]:
    """Structural check of the Chrome trace-event JSON shape.

    Returns a list of problems (empty = valid).  Checks the container
    shape, required per-event fields by phase, and non-negative
    timestamps/durations.
    """
    problems: list[str] = []
    if isinstance(doc, list):
        events = doc
    elif isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            return ["document has no 'traceEvents' list"]
    else:
        return [f"trace document must be a list or object, got {type(doc).__name__}"]
    if not events:
        problems.append("trace contains no events")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"event {i} missing name")
        if ph not in ("X", "B", "E", "i", "I", "M", "C"):
            problems.append(f"event {i} has unknown phase {ph!r}")
            continue
        for fld in ("pid", "tid"):
            if not isinstance(ev.get(fld), int):
                problems.append(f"event {i} missing integer {fld}")
        if ph == "M":
            continue  # metadata events carry no timestamp
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i} has invalid ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i} has invalid dur {dur!r}")
        if len(problems) > 50:
            problems.append("... further problems suppressed")
            break
    return problems
