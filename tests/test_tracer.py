"""Tests for the span tracer."""

import pytest

from repro.obs import SpanCollector
from repro.sim import Engine


def test_tracer_records_span_extent():
    eng = Engine()
    tracer = SpanCollector()
    tracer.bind(eng)

    def proc():
        yield eng.timeout(1.0)
        with tracer.span("work", track=3, rank=3):
            yield eng.timeout(2.5)
        tracer.mark("done", track=3)

    eng.process(proc())
    eng.run()
    (s,) = tracer.spans
    assert (s.name, s.start, s.end) == ("work", 1.0, 3.5)
    assert s.duration == 2.5
    assert dict(s.args) == {"rank": 3}
    assert tracer.marks == [(3.5, "done", 3)]


def test_tracer_totals_and_by_name():
    eng = Engine()
    tracer = SpanCollector()
    tracer.bind(eng)

    def proc():
        for _ in range(3):
            with tracer.span("load"):
                yield eng.timeout(1.0)
            with tracer.span("compute"):
                yield eng.timeout(2.0)

    eng.process(proc())
    eng.run()
    assert tracer.total("load") == pytest.approx(3.0)
    assert tracer.total("compute") == pytest.approx(6.0)
    assert tracer.total("never-recorded") == 0.0


def test_tracer_drops_beyond_max_events():
    tracer = SpanCollector(max_events=2)
    tracer.bind(Engine())
    for _ in range(5):
        tracer.mark("m")
    assert len(tracer.marks) == 2
    assert tracer.dropped == 3
    # Spans have their own bound; the marks did not use it up.
    tracer.record("s", start=0.0, end=1.0)
    assert len(tracer.spans) == 1
    assert tracer.dropped == 3


def test_tracer_manual_begin_end():
    eng = Engine()
    tracer = SpanCollector()
    tracer.bind(eng)

    def proc():
        t0 = tracer.now
        yield eng.timeout(4.0)
        tracer.record("manual", start=t0, end=tracer.now)

    eng.process(proc())
    eng.run()
    assert tracer.total("manual") == pytest.approx(4.0)
    (s,) = tracer.spans
    assert (s.start, s.end) == (0.0, 4.0)
