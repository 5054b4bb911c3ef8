"""End-to-end distributed training tests: DDP sync, trainer phases, convergence."""

import numpy as np
import pytest

from repro.bench.sweep import eval_split, real_trainer
from repro.core import DataLoader, DDStore, DDStoreDataset, GeneratorSource
from repro.gnn import (
    AdamW,
    DistributedModel,
    HydraGNN,
    HydraGNNConfig,
    Trainer,
)
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world


def _small_cfg():
    return HydraGNNConfig(feature_dim=1, head_dims=(1,), hidden_dim=12, n_conv_layers=2, n_fc_layers=2)


def _setup(ctx, n_samples=32, width=None, real=True, batch_size=4, seed=0):
    src = GeneratorSource(IsingGenerator(n_samples, seed=seed), ctx.world.machine)
    store = yield from DDStore.create(ctx.comm, src, width=width)
    model = HydraGNN(_small_cfg(), seed=7)
    dmodel = DistributedModel(model, ctx.comm)
    yield from dmodel.broadcast_parameters()
    loader = DataLoader(
        DDStoreDataset(store), ctx, batch_size=batch_size, shuffle="global", seed=seed
    )
    opt = AdamW(model.params(), lr=1e-3, weight_decay=0.0)
    trainer = Trainer(ctx, dmodel, loader, opt, real_compute=real)
    return trainer, dmodel


def test_ddp_gradients_identical_across_ranks():
    def main(ctx):
        trainer, dmodel = yield from _setup(ctx)
        yield from trainer.train_epoch(0)
        return dmodel.model.flat_grads()

    job = run_world(TESTBOX, 2, main)
    g0 = job.results[0]
    for g in job.results[1:]:
        assert np.allclose(g, g0)


def test_ddp_weights_stay_synchronised():
    def main(ctx):
        trainer, dmodel = yield from _setup(ctx)
        for epoch in range(2):
            yield from trainer.train_epoch(epoch)
        yield from dmodel.assert_synchronised()
        return float(np.abs(dmodel.model.flat_grads()).sum())

    job = run_world(TESTBOX, 2, main)
    assert len(job.results) == 4


def test_training_loss_decreases_distributed():
    def main(ctx):
        trainer, _ = yield from _setup(ctx, n_samples=64, batch_size=8)
        losses = []
        for epoch in range(8):
            report = yield from trainer.train_epoch(epoch)
            losses.append(report.train_loss)
        return losses

    job = run_world(TESTBOX, 2, main)
    losses = job.results[0]
    assert losses[-1] < losses[0]


def test_epoch_report_phase_accounting():
    def main(ctx):
        trainer, _ = yield from _setup(ctx)
        report = yield from trainer.train_epoch(0)
        return report

    job = run_world(TESTBOX, 2, main)
    r = job.results[0]
    assert r.n_steps == 2  # 32 / 4 ranks / batch 4
    assert r.n_samples == 8
    assert r.elapsed > 0
    for phase in ("cpu_loading", "cpu_batching", "gpu_forward", "gpu_backward", "gpu_comm", "optimizer"):
        assert r.phases.seconds[phase] > 0, phase
    assert r.sample_latencies.shape == (8,)
    assert r.throughput > 0


def test_modelled_mode_runs_without_numerics():
    def main(ctx):
        trainer, dmodel = yield from _setup(ctx, real=False)
        report = yield from trainer.train_epoch(0)
        # No numerical gradients in modelled mode.
        assert np.all(dmodel.model.flat_grads() == 0)
        return report

    job = run_world(TESTBOX, 2, main)
    r = job.results[0]
    assert r.train_loss is None
    assert r.phases.seconds["gpu_comm"] > 0


def test_modelled_and_real_have_similar_phase_times():
    def main(ctx, real):
        trainer, _ = yield from _setup(ctx, real=real)
        report = yield from trainer.train_epoch(0)
        return report.elapsed

    real = run_world(TESTBOX, 2, lambda c: main(c, True), seed=3).results[0]
    modelled = run_world(TESTBOX, 2, lambda c: main(c, False), seed=3).results[0]
    # Virtual time must not depend on whether numerics actually ran.
    assert modelled == pytest.approx(real, rel=0.05)


def test_evaluate_returns_finite_loss():
    def main(ctx):
        trainer, _ = yield from _setup(ctx)
        yield from trainer.train_epoch(0)
        val = yield from trainer.evaluate(np.arange(8))
        # The benches' recipe: train on the first ``n_train`` samples through
        # a storeless ``TrainView``, then score the held-out rest.
        bench = yield from real_trainer(
            ctx, IsingGenerator(32, seed=0), _small_cfg(), batch_size=4, lr=1e-3, seed=0,
            n_train=16,
        )
        report = yield from bench.train_epoch(0)
        held_out = yield from eval_split(ctx, bench, 16, 32)
        return val, report.n_steps, report.train_loss, held_out

    job = run_world(TESTBOX, 2, main)
    for val, n_steps, train_loss, held_out in job.results:
        assert n_steps == 1  # 16 training samples / 4 ranks / batch 4
        assert all(np.isfinite(v) for v in (val, train_loss, held_out))


def test_evaluate_requires_real_compute():
    def main(ctx):
        trainer, _ = yield from _setup(ctx, real=False)
        try:
            yield from trainer.evaluate(np.arange(4))
        except RuntimeError:
            return "raised"
        return "no"

    job = run_world(TESTBOX, 2, main)
    assert job.results == ["raised"] * 4


def test_width_replication_trains_identically():
    # Same data, same seeds: width=2 (two replicas) must produce the same
    # averaged gradients as width=4 (one replica) — replication is a
    # performance knob, not a semantics change.
    def main(ctx, width):
        trainer, dmodel = yield from _setup(ctx, width=width)
        yield from trainer.train_epoch(0)
        return dmodel.model.flat_grads()

    g_w4 = run_world(TESTBOX, 2, lambda c: main(c, None), seed=0).results[0]
    g_w2 = run_world(TESTBOX, 2, lambda c: main(c, 2), seed=0).results[0]
    assert np.allclose(g_w4, g_w2)


def test_mpi_stats_populated_by_training():
    def main(ctx):
        trainer, _ = yield from _setup(ctx)
        yield from trainer.train_epoch(0)
        return None

    job = run_world(TESTBOX, 2, main)
    merged = job.merged_stats()
    assert merged.count_by_call["MPI_Get"] > 0
    assert merged.count_by_call["MPI_Allreduce"] > 0
    assert merged.time_by_call["MPI_Get"] > 0
