"""Additional trainer/loader behaviour tests (overlap, eval, reporting)."""

import itertools

import numpy as np
import pytest

from repro.core import (
    CacheOptions,
    DataLoader,
    DataPlaneOptions,
    DDStore,
    DDStoreDataset,
    GeneratorSource,
)
from repro.gnn import CONV_TYPES, AdamW, DistributedModel, HydraGNN, HydraGNNConfig, Trainer
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world


def _setup(ctx, n=64, batch=4, hidden=8, real=True):
    src = GeneratorSource(IsingGenerator(n, seed=0), ctx.world.machine)
    store = yield from DDStore.create(ctx.comm, src)
    model = HydraGNN(
        HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=hidden, n_conv_layers=1),
        seed=0,
    )
    dmodel = DistributedModel(model, ctx.comm)
    loader = DataLoader(DDStoreDataset(store), ctx, batch_size=batch, seed=0)
    trainer = Trainer(ctx, dmodel, loader, AdamW(model.params()), real_compute=real)
    return trainer, loader, store


def test_prefetch_overlaps_loading_with_compute():
    # Epoch wall time must be less than the serial sum of phases (the
    # pipeline hides loading under GPU compute).
    def main(ctx):
        trainer, _, _ = yield from _setup(ctx, real=False)
        report = yield from trainer.train_epoch(0)
        return report.elapsed, sum(report.phases.seconds.values())

    job = run_world(TESTBOX, 2, main)
    elapsed, phase_sum = job.results[0]
    assert elapsed < phase_sum


def test_dataloader_n_steps_variants():
    def main(ctx):
        _, loader, _ = yield from _setup(ctx, n=64, batch=4)
        full = len(loader.epoch_batches(0))
        capped = DataLoader(loader.dataset, ctx, batch_size=4, steps_per_epoch=2, seed=0)
        tail = DataLoader(loader.dataset, ctx, batch_size=5, seed=0)
        # A step count or batch size below 1 is refused at construction,
        # not turned into an empty epoch, a dropped batch or a later
        # ZeroDivisionError.
        for bad in (dict(batch_size=4, steps_per_epoch=0),
                    dict(batch_size=4, steps_per_epoch=-1),
                    dict(batch_size=0)):
            with pytest.raises(ValueError, match="must be >= 1"):
                DataLoader(loader.dataset, ctx, seed=0, **bad)
        with pytest.raises(TypeError, match="steps_per_epoch"):
            DataLoader(loader.dataset, ctx, batch_size=4, steps_per_epoch=2.5)
        return (full, len(capped.epoch_batches(0)), len(tail.epoch_batches(0)))

    job = run_world(TESTBOX, 2, main)
    full, capped, tail = job.results[0]
    assert full == 4  # 64 samples / 4 ranks / batch 4
    assert capped == 2
    assert tail == 3  # 16 per rank / batch 5: the remainder is dropped


def test_evaluate_batches_large_index_sets():
    def main(ctx):
        trainer, _, _ = yield from _setup(ctx)
        yield from trainer.train_epoch(0)
        loss = yield from trainer.evaluate(np.arange(20))  # five loader batches
        return loss

    job = run_world(TESTBOX, 2, main)
    assert all(np.isfinite(v) for v in job.results)


def test_epoch_report_fields_consistent():
    def main(ctx):
        trainer, loader, _ = yield from _setup(ctx)
        report = yield from trainer.train_epoch(0)
        return report, loader.batch_size

    job = run_world(TESTBOX, 2, main)
    report, bs = job.results[0]
    assert report.n_samples == report.n_steps * bs
    assert report.sample_latencies.size == report.n_samples
    assert report.throughput == pytest.approx(report.n_samples / report.elapsed)


def test_second_epoch_different_batches_same_store():
    def main(ctx):
        trainer, loader, store = yield from _setup(ctx, real=False)
        b0 = [tuple(b.tolist()) for b in loader.epoch_batches(0)]
        b1 = [tuple(b.tolist()) for b in loader.epoch_batches(1)]
        yield from trainer.train_epoch(0)
        yield from trainer.train_epoch(1)
        return b0 != b1, store.stats.n_total

    job = run_world(TESTBOX, 2, main)
    differs, fetched = job.results[0]
    assert differs  # global shuffle reshuffles across epochs
    assert fetched == 2 * 16  # two epochs x 16 samples per rank


def test_workers_speed_up_ddstore_fetch_without_changing_data():
    def main(ctx, workers):
        src = GeneratorSource(IsingGenerator(32, seed=0), ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, src)
        ds = DDStoreDataset(store, n_workers=workers)
        t0 = ctx.now
        result = yield from ds.fetch(list(range(16)))
        return ctx.now - t0, [g.sample_id for g in result.graphs]

    t1, ids1 = run_world(TESTBOX, 2, lambda c: main(c, 1), seed=5).results[0]
    t4, ids4 = run_world(TESTBOX, 2, lambda c: main(c, 4), seed=5).results[0]
    assert ids1 == ids4 == list(range(16))
    assert t4 < t1  # parallel issue + parallel decode


# ---------------------------------------------------------------------------
# wave-scheduled pipeline: stall accounting and the run-long window
# ---------------------------------------------------------------------------


def _wave_setup(ctx, epochs=None, real=False):
    src = GeneratorSource(IsingGenerator(64, seed=0), ctx.world.machine)
    store = yield from DDStore.create(
        ctx.comm,
        src,
        dataplane=DataPlaneOptions(
            cache=CacheOptions.dram_only(1 << 20, "belady"), scheduler=True, prefetch_depth=4
        ),
    )
    model = HydraGNN(
        HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=8, n_conv_layers=1),
        seed=0,
    )
    loader = DataLoader(DDStoreDataset(store), ctx, batch_size=4, seed=0)
    optimizer = AdamW(model.params()) if real else None
    return Trainer(
        ctx,
        DistributedModel(model, ctx.comm),
        loader,
        optimizer,
        real_compute=real,
        epochs=epochs,
    )


@pytest.mark.parametrize("epochs", [None, 3])
def test_wave_stall_never_exceeds_the_load_it_stalled_on(epochs):
    """A chained load's wait behind its wave fetch is booked into the
    batch's load time, so per rank and per epoch ``data_wait`` is bounded
    by the loading pipeline's own cost (it used to exceed it, clamping
    the overlap efficiency to zero on cache-hot wave cells)."""

    def main(ctx):
        trainer = yield from _wave_setup(ctx, epochs=epochs)
        reports = []
        for epoch in range(3):
            reports.append((yield from trainer.train_epoch(epoch)))
        return reports

    for reports in run_world(TESTBOX, 2, main).results:
        assert reports[0].data_wait > 0.0  # the run's first step is a cold fill
        for r in reports:
            load_total = r.phases.seconds["cpu_loading"] + r.phases.seconds["cpu_batching"]
            assert r.data_wait <= load_total
            assert r.overlap_efficiency == pytest.approx(1.0 - r.data_wait / load_total)


def test_trainer_carries_the_window_only_inside_a_known_run_length():
    def main(ctx, epochs):
        trainer = yield from _wave_setup(ctx, epochs=epochs, real=True)
        live = []
        r0 = yield from trainer.train_epoch(0)
        live.append(trainer._sched is not None)
        # An eval pass in the seam rewinds the carried window (one window
        # per cache at a time); training then refills it.
        loss = yield from trainer.evaluate(np.arange(16))
        live.append(trainer._sched is not None)
        r1 = yield from trainer.train_epoch(1)
        live.append(trainer._sched is not None)
        # Out of order: the carried window (epoch 2's head) is discarded.
        again = yield from trainer.train_epoch(1)
        live.append(trainer._sched is not None)
        r2 = yield from trainer.train_epoch(2)
        live.append(trainer._sched is not None)
        pending = yield from trainer.drain_pipeline()
        return live, pending, np.isfinite(loss), [r.n_samples for r in (r0, r1, again, r2)]

    for epochs, expect in ((None, [False] * 5), (3, [True, True, True, True, False])):
        for live, pending, finite, n_samples in run_world(TESTBOX, 2, main, epochs).results:
            assert live == expect
            assert pending == 0  # nothing launched past the final epoch
            assert finite
            assert n_samples == [16, 16, 16, 16]


def test_parameter_count_is_taken_once_not_per_step(monkeypatch):
    """The module tree is walked when the DistributedModel is built; a
    training epoch (grad volume + optimiser pricing, every step) reuses it.
    A config alone gives the same count in closed form, with no weights."""
    walks = []  # one entry per tree walk: the model walked
    n_params = HydraGNN.n_params
    monkeypatch.setattr(HydraGNN, "n_params", lambda self: walks.append(self) or n_params(self))

    def main(ctx):
        trainer, _, _ = yield from _setup(ctx, real=False)
        yield from trainer.train_epoch(0)
        return trainer.dmodel

    for dmodel in run_world(TESTBOX, 2, main).results:
        assert sum(model is dmodel.model for model in walks) == 1  # at construction
        assert dmodel.n_params == n_params(dmodel.model)
        assert dmodel.grad_nbytes == 4 * dmodel.n_params
        assert dmodel.config.n_params == dmodel.n_params

    for conv_type, head_dims, n_fc in itertools.product(CONV_TYPES, [(1,), (3, 5)], [1, 3]):
        cfg = HydraGNNConfig(feature_dim=4, head_dims=head_dims, hidden_dim=6, n_conv_layers=2,
                             n_fc_layers=n_fc, conv_type=conv_type)
        assert cfg.n_params == n_params(HydraGNN(cfg)), (conv_type, head_dims, n_fc)

    small = HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=8, n_conv_layers=1)

    def shape_only(ctx, real):
        src = GeneratorSource(IsingGenerator(16, seed=0), ctx.world.machine)
        store = yield from DDStore.create(ctx.comm, src)
        dmodel = DistributedModel(None, ctx.comm, config=small)
        loader = DataLoader(DDStoreDataset(store), ctx, batch_size=4, seed=0)
        trainer = Trainer(ctx, dmodel, loader, None, real_compute=real)
        report = yield from trainer.train_epoch(0)
        return dmodel.n_params, report.n_samples

    walks.clear()
    assert run_world(TESTBOX, 2, shape_only, False).results[0] == (small.n_params, 4)
    assert walks == []  # the shape-only run walked no module tree
    with pytest.raises(ValueError, match="real_compute=True needs a model"):
        run_world(TESTBOX, 2, shape_only, True)
    with pytest.raises(ValueError, match="model=None and its config"):
        DistributedModel(None, None)
