"""Tests for the span tracer and model checkpointing."""

import numpy as np
import pytest

from repro.gnn import AdamW, HydraGNN, HydraGNNConfig
from repro.gnn.checkpoint import (
    checkpoint_bytes,
    load_checkpoint,
    restore_from_bytes,
    save_checkpoint,
)
from repro.graphs import IsingGenerator, collate
from repro.hardware import ParallelFileSystem, TESTBOX
from repro.obs import SpanCollector
from repro.sim import Engine
from repro.storage import VirtualFS


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_records_span_extent():
    eng = Engine()
    tracer = SpanCollector(eng)

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
    tracer = SpanCollector(eng)

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
    tracer = SpanCollector(Engine(), max_events=2)
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
    tracer = SpanCollector(eng)

    def proc():
        t0 = tracer.now
        yield eng.timeout(4.0)
        tracer.record("manual", start=t0, end=tracer.now)

    eng.process(proc())
    eng.run()
    assert tracer.total("manual") == pytest.approx(4.0)
    (s,) = tracer.spans
    assert (s.start, s.end) == (0.0, 4.0)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def _model_and_opt(seed=0):
    model = HydraGNN(
        HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=8, n_conv_layers=1),
        seed=seed,
    )
    opt = AdamW(model.params(), lr=2e-3)
    return model, opt


def _train_steps(model, opt, batch, n):
    losses = []
    for _ in range(n):
        opt.zero_grad()
        losses.append(model.train_step_loss(batch))
        opt.step()
    return losses


def test_checkpoint_roundtrip_restores_weights_exactly():
    gen = IsingGenerator(8, seed=0)
    batch = collate([gen.make(i) for i in range(8)])
    model, opt = _model_and_opt()
    _train_steps(model, opt, batch, 3)
    blob = checkpoint_bytes(model, opt)

    model2, opt2 = _model_and_opt(seed=9)  # different init
    restore_from_bytes(blob, model2, opt2)
    for a, b in zip(model.params(), model2.params()):
        assert np.array_equal(a.value, b.value)
    assert opt2.t == opt.t and opt2.lr == opt.lr


def test_checkpoint_resume_is_bit_identical_to_uninterrupted_run():
    gen = IsingGenerator(8, seed=0)
    batch = collate([gen.make(i) for i in range(8)])

    # Uninterrupted: 6 steps.
    m_ref, o_ref = _model_and_opt()
    _train_steps(m_ref, o_ref, batch, 6)

    # Interrupted: 3 steps, checkpoint, fresh objects, resume 3 steps.
    m1, o1 = _model_and_opt()
    _train_steps(m1, o1, batch, 3)
    blob = checkpoint_bytes(m1, o1)
    m2, o2 = _model_and_opt(seed=4)
    restore_from_bytes(blob, m2, o2)
    _train_steps(m2, o2, batch, 3)

    for a, b in zip(m_ref.params(), m2.params()):
        assert np.array_equal(a.value, b.value)


def test_checkpoint_via_vfs_with_timing():
    vfs = VirtualFS(ParallelFileSystem(Engine(), TESTBOX.pfs, 1))
    model, opt = _model_and_opt()
    done = save_checkpoint(vfs, "ckpt/step3.bin", model, opt)
    assert done > 0
    model2, opt2 = _model_and_opt(seed=7)
    done2 = load_checkpoint(vfs, "ckpt/step3.bin", model2, opt2)
    assert done2 > 0
    assert np.array_equal(model.flat_grads() * 0 + 1, model2.flat_grads() * 0 + 1)
    for a, b in zip(model.params(), model2.params()):
        assert np.array_equal(a.value, b.value)


def test_checkpoint_validation_errors():
    model, opt = _model_and_opt()
    blob = checkpoint_bytes(model, opt)
    with pytest.raises(ValueError, match="magic"):
        restore_from_bytes(b"XXXX" + blob[4:], model, opt)
    other = HydraGNN(
        HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=12, n_conv_layers=1)
    )
    with pytest.raises(ValueError, match="shape mismatch"):
        restore_from_bytes(blob, other)
    weights_only = checkpoint_bytes(model)  # no optimiser
    with pytest.raises(ValueError, match="no optimiser"):
        restore_from_bytes(weights_only, model, opt)
