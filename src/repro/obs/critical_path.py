"""Critical-path analysis: attribute epoch time to stages, then self-check.

The paper's evaluation (§4, Figs. 5/9) argues from per-stage timing; an
accounting bug in any stage silently skews every conclusion drawn from
the breakdowns.  This analyzer makes such bugs structurally loud: the
trainer emits one ``trainer.epoch`` span per epoch per rank and a
gap-free sequence of ``trainer.stage`` child spans (``data_wait``,
``gpu_h2d``, ``gpu_forward``, ``gpu_backward``, ``gpu_comm``,
``optimizer``) that tile it, so for every epoch

    sum(stage durations)  ==  epoch duration      (within TOLERANCE)

must hold.  :func:`analyze` computes the attribution per (rank, epoch),
:meth:`CriticalPathReport.check` enforces the invariant, and
:func:`render_report` prints the roll-up the ``python -m repro trace``
CLI shows.  A counter that drifts, a stage charged twice, or virtual
time leaking outside the instrumented stages all surface as a residual
above :data:`TOLERANCE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .tracing import SpanRecord

__all__ = [
    "TOLERANCE",
    "EpochAttribution",
    "CriticalPathReport",
    "CriticalPathError",
    "analyze",
    "render_report",
]

EPOCH_CAT = "trainer.epoch"
STAGE_CAT = "trainer.stage"

#: Largest relative residual an epoch may carry: 1 % of its duration.
TOLERANCE = 0.01

#: Absolute slack (virtual seconds) granted on top of the relative
#: tolerance, so zero-length epochs don't divide by zero.
_ABS_SLACK_S = 1e-12

#: Largest gap or overlap (virtual seconds) :func:`stage_spans_contiguous`
#: lets pass between neighbouring stage spans.
_GAP_S = 1e-9


class CriticalPathError(AssertionError):
    """The per-stage attribution does not sum to the measured epoch time."""


@dataclass
class EpochAttribution:
    """One (rank, epoch)'s virtual time split across trainer stages."""

    track: int
    epoch: int
    start: float
    end: float
    stages: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def attributed(self) -> float:
        return sum(self.stages.values())

    @property
    def residual(self) -> float:
        """Epoch time the stages do not account for (signed)."""
        return self.duration - self.attributed

    @property
    def rel_residual(self) -> float:
        return abs(self.residual) / max(self.duration, _ABS_SLACK_S)


@dataclass
class CriticalPathReport:
    """All epochs' attributions plus the invariant verdict."""

    epochs: list[EpochAttribution]

    @property
    def ok(self) -> bool:
        return all(e.rel_residual <= TOLERANCE for e in self.epochs)

    @property
    def max_rel_residual(self) -> float:
        return max((e.rel_residual for e in self.epochs), default=0.0)

    def violations(self) -> list[EpochAttribution]:
        return [e for e in self.epochs if e.rel_residual > TOLERANCE]

    def check(self) -> "CriticalPathReport":
        """Raise :class:`CriticalPathError` unless the invariant holds."""
        bad = self.violations()
        if bad:
            worst = max(bad, key=lambda e: e.rel_residual)
            raise CriticalPathError(
                f"critical-path invariant violated on {len(bad)} epoch(s): "
                f"worst is rank {worst.track} epoch {worst.epoch} with "
                f"{worst.attributed:.9f}s attributed of {worst.duration:.9f}s "
                f"measured ({worst.rel_residual * 100:.3f}% residual, "
                f"tolerance {TOLERANCE * 100:.1f}%)"
            )
        return self

    def stage_totals(self) -> dict[str, float]:
        """Summed seconds per stage across all ranks and epochs."""
        out: dict[str, float] = {}
        for e in self.epochs:
            for stage, sec in e.stages.items():
                out[stage] = out.get(stage, 0.0) + sec
        return {k: out[k] for k in sorted(out)}

    def total_epoch_time(self) -> float:
        return sum(e.duration for e in self.epochs)


def analyze(spans: Iterable[SpanRecord]) -> CriticalPathReport:
    """Build the per-epoch attribution from a traced run's spans.

    Selects ``trainer.epoch`` spans and assigns each ``trainer.stage``
    span on the same track to the epoch interval containing it.  Raises
    :class:`ValueError` when the trace carries no epoch spans (an
    untraced or non-training run).
    """
    spans = list(spans)
    epochs: list[EpochAttribution] = []
    for s in spans:
        if s.cat == EPOCH_CAT:
            epochs.append(
                EpochAttribution(
                    track=s.track,
                    epoch=int(dict(s.args).get("epoch", len(epochs))),
                    start=s.start,
                    end=s.end,
                )
            )
    if not epochs:
        raise ValueError(
            "trace contains no 'trainer.epoch' spans — was the run traced "
            "through an attached Observer?"
        )
    by_track: dict[int, list[EpochAttribution]] = {}
    for e in epochs:
        by_track.setdefault(e.track, []).append(e)
    for group in by_track.values():
        group.sort(key=lambda e: e.start)

    eps = _ABS_SLACK_S
    for s in spans:
        if s.cat != STAGE_CAT:
            continue
        for e in by_track.get(s.track, ()):
            if s.start >= e.start - eps and s.end <= e.end + eps:
                e.stages[s.name] = e.stages.get(s.name, 0.0) + s.duration
                break
    epochs.sort(key=lambda e: (e.track, e.epoch, e.start))
    return CriticalPathReport(epochs=epochs)


def render_report(report: CriticalPathReport) -> str:
    """Human-readable attribution roll-up + invariant verdict."""
    totals = report.stage_totals()
    total_time = report.total_epoch_time()
    lines = ["critical-path attribution (all ranks, all epochs):", ""]
    width = max([len(s) for s in totals] + [8])
    for stage, sec in totals.items():
        frac = sec / total_time if total_time > 0 else 0.0
        lines.append(f"  {stage.ljust(width)}  {sec * 1e3:12.4f} ms  {frac * 100:6.2f}%")
    attributed = sum(totals.values())
    lines.append(f"  {'-' * width}")
    lines.append(f"  {'attributed'.ljust(width)}  {attributed * 1e3:12.4f} ms")
    lines.append(f"  {'measured'.ljust(width)}  {total_time * 1e3:12.4f} ms")
    lines.append("")
    lines.append(
        f"invariant: per-epoch attribution within {TOLERANCE * 100:.1f}% "
        f"of measured epoch time — "
        + (
            f"OK (worst residual {report.max_rel_residual * 100:.4f}%)"
            if report.ok
            else f"VIOLATED on {len(report.violations())} epoch(s) "
            f"(worst residual {report.max_rel_residual * 100:.4f}%)"
        )
    )
    return "\n".join(lines)


def stage_spans_contiguous(spans: Sequence[SpanRecord], track: int) -> bool:
    """True when one track's stage spans tile its epochs without overlap.

    A stricter diagnostic than the sum invariant (used by tests): sorted
    stage spans inside each epoch must neither overlap nor leave gaps
    larger than ``_GAP_S`` seconds.
    """
    epochs = [s for s in spans if s.cat == EPOCH_CAT and s.track == track]
    stages = sorted(
        (s for s in spans if s.cat == STAGE_CAT and s.track == track),
        key=lambda s: s.start,
    )
    for e in epochs:
        inside = [s for s in stages if s.start >= e.start - _GAP_S and s.end <= e.end + _GAP_S]
        cursor = e.start
        for s in inside:
            if abs(s.start - cursor) > _GAP_S:
                return False
            cursor = s.end
        if abs(cursor - e.end) > _GAP_S:
            return False
    return True
