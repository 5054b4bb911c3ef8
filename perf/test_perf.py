"""Tests of the benchmark's own machinery (not part of the tier-1 suite).

    python -m pytest perf -q
"""

import io
import json
import os
import statistics
import subprocess
import sys
import types

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
sys.path.insert(0, PERF_DIR)

import compare  # noqa: E402
import spans  # noqa: E402
from stats import quartiles  # noqa: E402


class FakeClock:
    """A clock the test advances by hand, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


# ---------------------------------------------------------------------------
# span recorder
# ---------------------------------------------------------------------------


def test_plain_spans_nest_and_self_time_excludes_children():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)

    def inner():
        clock.tick(3.0)

    wrapped_inner = rec.wrap(inner, "low", "inner")

    def outer():
        clock.tick(1.0)
        wrapped_inner()
        wrapped_inner()
        clock.tick(2.0)

    rec.wrap(outer, "high", "outer")()
    assert rec.totals[("high", "outer")][:3] == [1, 9.0, 3.0]
    assert rec.totals[("low", "inner")][:3] == [2, 6.0, 6.0]
    assert rec.layer_self() == {"high": 3.0, "low": 6.0}
    by_name = {r[3]: r for r in rec.records}
    assert by_name["inner"][1] == by_name["outer"][0]  # parent id
    assert by_name["outer"][1] == -1


def test_generator_span_accumulates_per_resumption_only():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)

    def coroutine():
        clock.tick(1.0)
        got = yield "a"
        clock.tick(2.0)
        yield got
        clock.tick(4.0)
        return "done"

    gen = rec.wrap(coroutine, "core", "co")()
    assert next(gen) == "a"
    clock.tick(100.0)  # suspended: somebody else's time
    assert gen.send("b") == "b"
    clock.tick(100.0)
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    calls, busy, self_s, _units = rec.totals[("core", "co")]
    assert (calls, busy, self_s) == (1, 7.0, 7.0)
    (record,) = rec.records
    assert record[4] == 0.0 and record[5] == 207.0  # first resumption start, last end


def test_nested_generators_charge_child_time_to_the_child():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)

    def child():
        clock.tick(2.0)
        yield 1
        clock.tick(3.0)
        return "c"

    wrapped_child = rec.wrap(child, "dataplane", "child")

    def parent():
        clock.tick(1.0)
        got = yield from wrapped_child()
        clock.tick(4.0)
        return got

    gen = rec.wrap(parent, "core", "parent")()
    next(gen)
    clock.tick(50.0)
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "c"
    assert rec.totals[("core", "parent")][:3] == [1, 10.0, 5.0]
    assert rec.totals[("dataplane", "child")][:3] == [1, 5.0, 5.0]
    assert sum(rec.layer_self().values()) == 10.0


def test_interleaved_coroutines_do_not_nest_into_each_other():
    clock = FakeClock()
    rec = spans.SpanRecorder(clock=clock)

    def rank(cost):
        for _ in range(3):
            clock.tick(cost)
            yield

    wrapped = rec.wrap(rank, "core", "rank")
    a, b = wrapped(1.0), wrapped(10.0)
    with rec.span("sim", "loop"):
        for _ in range(3):
            next(a)
            next(b)
        for g in (a, b):
            with pytest.raises(StopIteration):
                next(g)
    assert rec.totals[("core", "rank")][:3] == [2, 33.0, 33.0]
    assert rec.totals[("sim", "loop")][:3] == [1, 33.0, 0.0]
    loop_id = next(r[0] for r in rec.records if r[3] == "loop")
    assert [r[1] for r in rec.records if r[3] == "rank"] == [loop_id, loop_id]


def test_exceptions_thrown_into_a_wrapped_generator_are_forwarded():
    rec = spans.SpanRecorder()
    seen = []

    def coroutine():
        try:
            yield 1
        except KeyError as exc:
            seen.append(exc)
            yield 2

    gen = rec.wrap(coroutine, "core", "co")()
    assert next(gen) == 1
    assert gen.throw(KeyError("boom")) == 2
    gen.close()
    assert len(seen) == 1 and rec.totals[("core", "co")][0] == 1


def test_tally_counts_units_at_the_span_boundary():
    rec = spans.SpanRecorder()
    read = rec.wrap(lambda nbytes: nbytes * 2, "hardware", "read", lambda args, result: args[0])
    assert read(10) == 20 and read(5) == 10
    assert rec.units("hardware", "read") == 15 and rec.calls("hardware", "read") == 2


def test_install_wraps_everything_and_remove_restores_it():
    mod = types.ModuleType("perf_fake_pkg")
    other = types.ModuleType("perf_fake_pkg.user")

    def helper():
        return "h"

    class Thing:
        def method(self):
            return "m"

        @classmethod
        def make(cls):
            yield cls.__name__

        @staticmethod
        def static():
            return "s"

    mod.helper, mod.Thing = helper, Thing
    other.helper = helper  # "from perf_fake_pkg import helper"
    sys.modules["perf_fake_pkg"], sys.modules["perf_fake_pkg.user"] = mod, other
    try:
        rec = spans.SpanRecorder()
        originals = dict(vars(Thing))
        undo, missing = spans.install(rec, [
            ("a", "method", "perf_fake_pkg", "Thing.method"),
            ("a", "make", "perf_fake_pkg", "Thing.make"),
            ("a", "static", "perf_fake_pkg", "Thing.static"),
            ("b", "helper", "perf_fake_pkg", "helper"),
            ("b", "gone", "perf_fake_pkg", "Thing.deleted_by_a_later_pr"),
            ("b", "gone", "perf_fake_pkg.nowhere", "f"),
        ])
        assert missing == ["perf_fake_pkg:Thing.deleted_by_a_later_pr", "perf_fake_pkg.nowhere:f"]
        assert Thing().method() == "m" and Thing.static() == "s"
        assert list(Thing.make()) == ["Thing"]
        assert mod.helper() == "h" and other.helper() == "h"
        assert other.helper is not helper
        assert {k: v[0] for k, v in rec.totals.items()} == {
            ("a", "method"): 1, ("a", "static"): 1, ("a", "make"): 1, ("b", "helper"): 2}
        spans.remove(undo)
        assert dict(vars(Thing)) == originals
        assert mod.helper is helper and other.helper is helper and undo == []
    finally:
        del sys.modules["perf_fake_pkg"], sys.modules["perf_fake_pkg.user"]


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------


def test_quartiles_are_the_drivers_definition():
    values = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0]
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        quartiles([])


# ---------------------------------------------------------------------------
# compare.py verdicts
# ---------------------------------------------------------------------------

BENCH = {
    "end_to_end": [
        {"name": "samples_per_virtual_s", "unit": "1/s", "better": "higher", "bound": 0.01},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10},
    ]
}


def _set(tput, wall, q1=None, q3=None, events=100.0, loaded=False):
    return {"workloads": {"w": {
        "end_to_end": {"samples_per_virtual_s": {"value": tput, "unit": "1/s"},
                       "wall_s": {"value": wall, "unit": "s"}},
        "per_layer": {"sim.events": {"value": events, "unit": "count"}},
        "report_t0": {"wall_q1": wall if q1 is None else q1,
                      "wall_q3": wall if q3 is None else q3,
                      "host_unresolved": loaded, "correct": True},
    }}}


def _verdicts(a, b, **kw):
    out = io.StringIO()
    status = compare.compare(a, b, BENCH, out=out, **kw)
    rows = [line.split() for line in out.getvalue().splitlines()
            if line.startswith("w ")]
    return status, {r[1]: r[-1] for r in rows}


def test_verdict_function_respects_direction_and_bound():
    assert compare.verdict(100.0, 100.0, "lower", 0.1) == "same"
    assert compare.verdict(100.0, 109.0, "lower", 0.1) == "same"
    assert compare.verdict(100.0, 111.0, "lower", 0.1) == "worse"
    assert compare.verdict(100.0, 89.0, "lower", 0.1) == "better"
    assert compare.verdict(100.0, 98.0, "higher", 0.01) == "worse"
    assert compare.verdict(100.0, 102.0, "higher", 0.01) == "better"
    with pytest.raises(ValueError):
        compare.verdict(1.0, 1.0, "sideways", 0.1)


def test_compare_same_better_worse():
    status, v = _verdicts(_set(1000.0, 2.0), _set(1000.0, 2.1))
    assert status == 0 and v == {"samples_per_virtual_s": "same", "wall_s": "same",
                                 "sim.events": "same"}
    status, v = _verdicts(_set(1000.0, 2.0), _set(1100.0, 1.0))
    assert status == 0 and v["samples_per_virtual_s"] == "better" and v["wall_s"] == "better"
    status, v = _verdicts(_set(1000.0, 2.0), _set(900.0, 2.5))
    assert status == 1 and v["samples_per_virtual_s"] == "worse" and v["wall_s"] == "worse"


def test_compare_unresolved_when_spread_exceeds_bound_or_host_loaded():
    noisy = _set(1000.0, 2.5, q1=2.0, q3=3.0)  # iqr 40 % of the median > 10 % bound
    status, v = _verdicts(_set(1000.0, 2.0), noisy)
    assert status == 0 and v["wall_s"] == "unresolved"
    status, v = _verdicts(_set(1000.0, 2.0), _set(1000.0, 2.5, loaded=True))
    assert status == 0 and v["wall_s"] == "unresolved"
    # a virtual-clock metric is never unresolved: it repeats exactly
    status, v = _verdicts(_set(1000.0, 2.0), _set(900.0, 2.0, loaded=True))
    assert status == 1 and v["samples_per_virtual_s"] == "worse"


def test_compare_determinism_break_only_when_identity_is_required():
    a, b = _set(1000.0, 2.0), _set(1000.5, 2.0, events=101.0)
    status, v = _verdicts(a, b)
    assert status == 0 and v["samples_per_virtual_s"] == "same" and v["sim.events"] == "changed"
    status, v = _verdicts(a, b, require_identical=True)
    assert status == 1
    assert v["samples_per_virtual_s"] == "determinism-break"
    assert v["sim.events"] == "determinism-break"


# ---------------------------------------------------------------------------
# the catalogue and the end-to-end smoke
# ---------------------------------------------------------------------------


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_catalogue():
    import layers

    bench = _bench_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == \
        layers.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)) and len(bench["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])


def test_smoke_runs_every_workload_with_every_metric(tmp_path):
    bench = _bench_json()
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--smoke", "--micro",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(out.read_text())
    assert result["schema"] == 1 and result["ok"] is True
    assert {"git_sha", "seed", "nproc", "python", "loadavg_start", "loadavg_end",
            "pinned_env"} <= set(result["provenance"])
    assert list(result["workloads"]) == [w["name"] for w in bench["workloads"]]
    for name, entry in result["workloads"].items():
        for block, key in (("end_to_end", "report_t0"), ("per_layer", "report_t1")):
            assert list(entry[block]) == [m["name"] for m in bench[block]], (name, block)
            for spec in bench[block]:
                metric = entry[block][spec["name"]]
                assert metric["unit"] == spec["unit"]
                assert isinstance(metric["value"], (int, float))
            report = entry[key]
            assert report["correct"] is True, (name, report["checks"], report["notes"])
            assert report["failed"] == 0 and report["attempted"] >= 1
        assert all(entry["end_to_end"][m["name"]]["value"] > 0 for m in bench["end_to_end"])
        assert entry["params"] and entry["report_t1"]["missing_targets"] == []
    assert len(result["micro"]) == 8
