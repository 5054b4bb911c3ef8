"""Observability-layer tests: metrics registry, span tracing with Chrome
export, the critical-path analyzer, and the traced-run integration
(``python -m repro trace``)."""

import json

import pytest

from repro.bench import PROFILES
from repro.core import DataLoader, DataPlaneOptions, DDStore, DDStoreDataset, GeneratorSource
from repro.gnn import AdamW, DistributedModel, HydraGNN, HydraGNNConfig, Trainer
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world
from repro.obs import (
    NULL_METRICS,
    NULL_OBSERVER,
    CriticalPathError,
    MetricsRegistry,
    Observer,
    SpanCollector,
    SpanRecord,
    analyze,
    run_traced,
    stage_spans_contiguous,
    trace_json_bytes,
    validate_chrome_trace,
)
from repro.sim import Engine

TINY = PROFILES["tiny"]


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

def test_counter_get_or_create_label_order_independent():
    m = MetricsRegistry()
    m.counter("fetch", rank=0, counter="n_local").inc(3)
    m.counter("fetch", counter="n_local", rank=0).inc(2)  # same series
    m.counter("fetch", rank=1, counter="n_local").inc(5)
    assert m.counter("fetch", rank=0, counter="n_local").value == 5
    assert m.sum_by("fetch", "counter") == {"n_local": 10.0}
    assert m.sum_by("fetch", "counter", rank=1) == {"n_local": 5.0}
    assert m.sum_by("fetch", "rank") == {0: 5.0, 1: 5.0}
    assert m.sum_by("fetch", "rank", counter="nope") == {}


def test_counter_is_monotone():
    m = MetricsRegistry()
    with pytest.raises(ValueError):
        m.counter("x").inc(-1)


def test_gauge_and_histogram():
    m = MetricsRegistry()
    g = m.gauge("cache.used_bytes", rank=0)
    g.set(100)
    g.set(75)
    assert g.value == 75
    h = m.histogram("latency", rank=0)
    for v in (1e-7, 5e-4, 2.0, 1e6):
        h.observe(v)
    assert h.count == 4
    assert h.bucket_counts[-1] == 1  # the +inf overflow bucket
    assert h.sum == pytest.approx(1e-7 + 5e-4 + 2.0 + 1e6)


def test_export_deterministic_across_insertion_order():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("f", rank=0).inc(1)
    a.counter("f", rank=1).inc(2)
    b.counter("f", rank=1).inc(2)
    b.counter("f", rank=0).inc(1)
    assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
        b.as_dict(), sort_keys=True
    )


# The null objects have no instruments and no span: a publisher that
# skipped its ``metrics.enabled`` / ``tracing`` guard raises here.
_WAVED = DataPlaneOptions(cache_bytes=1 << 20, scheduler=True, prefetch_depth=2)


def _unobserved(ctx):
    assert ctx.world.obs is NULL_OBSERVER and NULL_OBSERVER.metrics is NULL_METRICS
    assert not (NULL_OBSERVER.enabled or NULL_OBSERVER.tracing or NULL_METRICS.enabled)
    assert NULL_OBSERVER.tracer is None
    return GeneratorSource(IsingGenerator(64, seed=7), ctx.world.machine)


def test_store_fetch_and_wave_run_on_the_null_observer():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _unobserved(ctx), dataplane=_WAVED)
        remote = [(16 * (ctx.rank + 1) + i) % 64 for i in range(8)]  # the next rank's chunk
        batches = [remote[:4], remote[4:]]
        parked = yield from store.prefetch_wave(batches)
        got = yield from store.get_samples(batches[0])
        return parked, len(got), store.stats.n_cache_hits

    for parked, n, hits in run_world(TESTBOX, 2, main).results:
        assert n == 4 and parked > 0 and hits > 0


def test_trainer_epoch_runs_on_the_null_observer():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _unobserved(ctx), dataplane=_WAVED)
        model = HydraGNN(
            HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=8, n_conv_layers=1), seed=0
        )
        loader = DataLoader(DDStoreDataset(store), ctx, batch_size=4, seed=0)
        trainer = Trainer(
            ctx, DistributedModel(model, ctx.comm), loader, AdamW(model.params()),
            real_compute=False,
        )
        report = yield from trainer.train_epoch(0)
        return report.elapsed

    assert all(elapsed > 0 for elapsed in run_world(TESTBOX, 2, main).results)


# ---------------------------------------------------------------------------
# span collector + Chrome export
# ---------------------------------------------------------------------------

def test_span_collector_measures_virtual_time():
    eng = Engine()
    col = SpanCollector()

    def proc():
        yield eng.timeout(1.0)
        start = eng.now
        yield eng.timeout(0.5)
        col.record("load", cat="store", track=2, start=start, end=eng.now, lane=1, n=4)

    eng.process(proc())
    eng.run()
    (s,) = col.spans
    assert (s.start, s.end) == (1.0, 1.5)
    assert s.duration == pytest.approx(0.5)
    assert (s.track, s.lane, s.cat) == (2, 1, "store")
    assert dict(s.args) == {"n": 4}


def test_chrome_export_is_valid_and_scaled_to_us():
    col = SpanCollector()
    col.record("fetch", cat="store", track=1, start=0.0, end=1e-3, lane=1, k="v")
    doc = col.to_chrome()
    assert validate_chrome_trace(doc) == []
    (ev,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert ev["ts"] == 0.0
    assert ev["dur"] == pytest.approx(1000.0)
    assert (ev["pid"], ev["tid"]) == (1, 1)
    assert ev["args"] == {"k": "v"}
    # Lane metadata names the dataplane lane.
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert meta[0]["args"]["name"] == "dataplane"


def test_validate_chrome_trace_catches_malformed_docs():
    assert validate_chrome_trace(42)
    assert validate_chrome_trace({"notTraceEvents": []})
    assert validate_chrome_trace({"traceEvents": []})  # empty is a problem
    bad_ts = {"traceEvents": [dict(name="x", ph="X", ts=-1.0, dur=1.0, pid=0, tid=0)]}
    assert any("ts" in p for p in validate_chrome_trace(bad_ts))
    bad_ph = {"traceEvents": [dict(name="x", ph="Q", ts=0.0, pid=0, tid=0)]}
    assert any("phase" in p for p in validate_chrome_trace(bad_ph))


def test_collector_drops_beyond_max_events():
    col = SpanCollector(max_events=2)
    for i in range(5):
        col.record("s", cat="c", track=0, start=0.0, end=1.0)
    assert len(col.spans) == 2
    assert col.dropped == 3


# ---------------------------------------------------------------------------
# critical-path analyzer
# ---------------------------------------------------------------------------

def _tiled_epoch(stages, start=0.0, track=0, epoch=0):
    """Stage spans laid back to back plus the enclosing epoch span."""
    spans = []
    t = start
    for name, sec in stages:
        spans.append(
            SpanRecord(name=name, cat="trainer.stage", track=track, start=t, end=t + sec)
        )
        t += sec
    spans.append(
        SpanRecord(
            name="epoch",
            cat="trainer.epoch",
            track=track,
            start=start,
            end=t,
            args=(("epoch", epoch),),
        )
    )
    return spans, t


def test_analyzer_accepts_exact_tiling():
    stages = [("data_wait", 0.2), ("gpu_forward", 0.5), ("gpu_comm", 0.3)]
    spans, _t = _tiled_epoch(stages)
    more, _ = _tiled_epoch(stages, start=10.0, track=1, epoch=0)
    report = analyze(spans + more)
    assert report.ok
    assert report.max_rel_residual == pytest.approx(0.0)
    assert report.stage_totals() == {
        "data_wait": pytest.approx(0.4),
        "gpu_comm": pytest.approx(0.6),
        "gpu_forward": pytest.approx(1.0),
    }
    report.check()  # must not raise
    assert stage_spans_contiguous(spans + more, track=0)
    assert stage_spans_contiguous(spans + more, track=1)


def test_analyzer_flags_unattributed_time():
    spans, t = _tiled_epoch([("gpu_forward", 0.5)])
    # Stretch the epoch: 0.5s of virtual time no stage accounts for.
    leaked = [s for s in spans if s.cat == "trainer.stage"]
    leaked.append(
        SpanRecord(name="epoch", cat="trainer.epoch", track=0, start=0.0, end=t + 0.5)
    )
    report = analyze(leaked)
    assert not report.ok
    assert len(report.violations()) == 1
    with pytest.raises(CriticalPathError, match="residual"):
        report.check()


def test_analyzer_requires_epoch_spans():
    with pytest.raises(ValueError, match="trainer.epoch"):
        analyze([SpanRecord(name="x", cat="other", track=0, start=0.0, end=1.0)])


def test_stage_spans_contiguous_detects_gap():
    spans = [
        SpanRecord(name="a", cat="trainer.stage", track=0, start=0.0, end=0.4),
        SpanRecord(name="b", cat="trainer.stage", track=0, start=0.6, end=1.0),
        SpanRecord(name="epoch", cat="trainer.epoch", track=0, start=0.0, end=1.0),
    ]
    assert not stage_spans_contiguous(spans, track=0)


# ---------------------------------------------------------------------------
# traced-run integration (the acceptance criterion: a traced fig5-style run
# exports valid Chrome JSON whose per-stage attribution sums to the measured
# epoch time within 1%, bit-deterministically across reruns)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def traced_fig5():
    return run_traced("fig5", TINY)


def test_traced_run_exports_valid_chrome_json(traced_fig5):
    doc = json.loads(trace_json_bytes(traced_fig5.chrome).decode())
    assert validate_chrome_trace(doc) == []
    names = {e["name"] for e in doc["traceEvents"]}
    # Spans from every instrumented layer made it into one trace.
    assert "epoch" in names  # trainer
    assert "store.get_samples" in names  # store
    assert "rma.get_batch" in names  # rma transport
    assert any(n.startswith("mpi.MPI_") for n in names)  # collectives


def test_traced_run_attribution_sums_to_epoch_time(traced_fig5):
    report = traced_fig5.report
    assert report.epochs, "no epochs analyzed"
    assert report.ok, f"worst residual {report.max_rel_residual}"
    assert report.max_rel_residual <= 0.01
    report.check()
    for track in sorted({s.track for s in traced_fig5.observer.tracer.spans}):
        epoch_spans = [
            s for s in traced_fig5.observer.tracer.spans
            if s.cat == "trainer.epoch" and s.track == track
        ]
        if epoch_spans:
            assert stage_spans_contiguous(
                traced_fig5.observer.tracer.spans, track=track
            )


def test_traced_run_is_bit_deterministic(traced_fig5):
    rerun = run_traced("fig5", TINY)
    assert trace_json_bytes(rerun.chrome) == trace_json_bytes(traced_fig5.chrome)


def test_traced_run_metrics_match_result_counters(traced_fig5):
    m = traced_fig5.observer.metrics
    fc = traced_fig5.result.fetch_counters
    # The registry is the canonical owner; the bench roll-up is a view of it.
    by_counter = m.sum_by("ddstore.fetch", "counter")
    assert fc["n_remote"] == int(by_counter["n_remote"])
    assert fc["n_local"] == int(by_counter["n_local"])
    n_ranks = traced_fig5.result.config.n_ranks
    # Every rank trained and published its phase seconds.
    assert len(m.sum_by("trainer.phase_seconds", "rank")) == n_ranks


def test_traced_run_render_mentions_invariant(traced_fig5):
    text = traced_fig5.render()
    assert "critical-path attribution" in text
    assert "invariant" in text and "OK" in text


def test_resilience_trace_shows_retry_attempts():
    run = run_traced("resilience", TINY)
    names = {s.name for s in run.observer.tracer.spans}
    assert "fetch.attempt" in names  # per-attempt dataplane spans
    assert run.report.ok
    m = run.observer.metrics
    # The straggler fault perturbed traffic and the counters saw it.
    assert sum(m.sum_by("faults.n_perturbed", "kind").values()) > 0


def test_carried_wave_spans_cross_epochs_without_breaking_the_invariant():
    """A carried wave is fetched inside epoch e's span but tagged with the
    epoch it serves (e+1); the trainer stages still tile every epoch."""
    from repro.bench.harness import ExperimentConfig, run_experiment

    observer = Observer(trace=True)
    result = run_experiment(
        ExperimentConfig(
            machine="perlmutter",
            n_nodes=1,
            dataset="ising",
            batch_size=4,
            steps_per_epoch=3,
            epochs=3,
            prefetch_depth=2,
            scheduler=True,
            cache_bytes=1 << 20,
            cache_policy="belady",
        ),
        observer=observer,
    )
    assert validate_chrome_trace(observer.tracer.to_chrome()) == []
    spans = observer.tracer.spans
    report = analyze(spans)
    assert report.ok and report.max_rel_residual <= 1e-9
    for track in sorted({s.track for s in spans}):
        epochs = {
            dict(s.args)["epoch"]: s
            for s in spans
            if s.cat == "trainer.epoch" and s.track == track
        }
        if not epochs:
            continue
        assert stage_spans_contiguous(spans, track=track)
        served = [
            dict(s.args)["epoch"]
            for s in spans
            if s.name == "store.prefetch_wave"
            and s.track == track
            and s.start < epochs[dict(s.args)["epoch"]].start
        ]
        assert served and min(served) >= 1  # fetched ahead of the epoch served
    m = observer.metrics
    assert set(m.sum_by("sched.carried_launches", "epoch")) == {1, 2}
    assert set(m.sum_by("sched.waves", "epoch")) == {0, 1, 2}
    assert sum(m.sum_by("sched.launches", "rank").values()) == result.config.n_ranks * 9


def test_traceable_rows_resolve_to_the_cells_the_experiments_run():
    """`trace <name>` and the matching figure/ablation read one cell table,
    so the traced cell *is* the experiment's cell and cannot drift."""
    from repro.bench import PROFILES, ExperimentConfig, cell
    from repro.bench.ablations import NODEAGG_VARIANTS, TIERED_VARIANTS
    from repro.obs import TRACEABLE, traced_config

    for profile in PROFILES.values():
        for name in TRACEABLE:
            assert isinstance(traced_config(name, profile), ExperimentConfig)
        # ablation_tiered's full-stage probe, ablation_nodeagg's aggregated cell
        assert traced_config("tiered", profile) == cell(
            "tiered", profile, **dict(TIERED_VARIANTS)["nvme full-stage (zero-wire probe)"]
        )
        assert traced_config("nodeagg", profile) == cell(
            "nodeagg", profile, **dict(NODEAGG_VARIANTS)["node-aggregated (global shuffle)"]
        )
        # Fig 5's DDStore / AISD-Ex-discrete cell of the Perlmutter matrix
        assert traced_config("fig5", profile) == cell(
            "paper", profile, dataset="aisd-ex-discrete", method="ddstore"
        )


def test_run_traced_rejects_unknown_name():
    with pytest.raises(KeyError, match="unknown traceable"):
        run_traced("not-an-experiment", TINY)


def test_untraced_observer_attaches_metrics_only():
    obs = Observer(trace=False)
    assert not obs.tracing
    assert obs.metrics.enabled
    assert obs.tracer is None
