"""Tests for the elastic width controller, coordinator, and reshard fence.

The policy layer (:class:`ElasticWidthController`) is pure bookkeeping and
is unit-tested directly with synthetic signals; the actuator
(:class:`ElasticCoordinator`) and the scheduler drain fence run inside
the simulated world.  Reshard-under-faults and the byte-identity property
live with the other reshard tests in ``test_nvme_and_reshard.py``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.control import Decision, ElasticCoordinator, ElasticWidthController, EpochSignals
from repro.control.controller import MIN_GAIN, STALL_THRESHOLD
from repro import client
from repro.core import (
    DataLoader,
    DataPlaneOptions,
    DDStore,
    DDStoreConfig,
    DDStoreDataset,
    GeneratorSource,
    ServingOptions,
)
from repro.graphs import IsingGenerator
from repro.hardware import TESTBOX
from repro.mpi import run_world


def run(fn, n_nodes=2, **kw):
    return run_world(TESTBOX, n_nodes, fn, **kw)


def _source(ctx, n=32, seed=0):
    return GeneratorSource(IsingGenerator(n, seed=seed), ctx.world.machine)


def _sig(epoch_s=1.0, wait_s=0.0, timeouts=0, overlap=1.0):
    return EpochSignals(
        epoch_seconds=epoch_s,
        data_wait_seconds=wait_s,
        overlap_efficiency=overlap,
        n_timeouts=timeouts,
        n_retries=timeouts,
        n_failovers=0,
    )


# ---------------------------------------------------------------------------
# no elastic (or serving) options on a store: the coordinator is the switch
# ---------------------------------------------------------------------------

def test_store_takes_no_elastic_or_serving_options():
    with pytest.raises(ImportError):
        from repro.core import ElasticOptions  # noqa: F401
    # Argument binding runs at call time, before the coroutine starts.
    for gone, value in (("elastic", True), ("serving", ServingOptions())):
        with pytest.raises(TypeError, match=gone):
            DDStore.create(None, None, **{gone: value})
        with pytest.raises(TypeError, match=gone):
            DDStoreConfig(4, **{gone: value})
    with pytest.raises(TypeError, match="elastic"):
        client.serve(None, None, elastic=True)


# ---------------------------------------------------------------------------
# the policy, unit-tested with synthetic signals
# ---------------------------------------------------------------------------

def _ctl(n_ranks=8, width=8):
    return ElasticWidthController(n_ranks, width)


def test_candidates_are_the_divisor_lattice():
    assert _ctl(8, 8).candidates == [1, 2, 4, 8]
    assert _ctl(12, 12).candidates == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        ElasticWidthController(8, 3)  # 3 ∤ 8


def test_healthy_signals_hold_width():
    ctl = _ctl()
    assert ctl.observe(_sig()) is None
    assert ctl.width == 8
    assert ctl.decisions[-1].action == "hold"


def test_pressure_steps_one_divisor_down():
    ctl = _ctl()
    assert ctl.observe(_sig(timeouts=5)) == 4
    assert ctl.width == 4
    assert ctl.decisions[-1].action == "narrow"


def test_stall_fraction_above_threshold_is_pressure():
    ctl = _ctl()
    assert ctl.observe(_sig(epoch_s=1.0, wait_s=0.2)) == 4  # 20% > 10%
    ctl2 = _ctl()
    assert ctl2.observe(_sig(epoch_s=1.0, wait_s=0.05)) is None  # 5% < 10%


def test_stall_fraction_at_the_threshold_is_not_pressure():
    assert STALL_THRESHOLD == 0.10
    ctl = _ctl()
    assert ctl.observe(_sig(epoch_s=1.0, wait_s=STALL_THRESHOLD)) is None
    assert ctl.decisions[-1].action == "hold"


def test_a_move_is_judged_on_the_next_epoch_at_min_gain():
    assert MIN_GAIN == 0.05
    kept = _ctl()
    assert kept.observe(_sig(epoch_s=1.0, timeouts=5)) == 4
    assert kept.decisions[-1].action == "narrow"  # the move awaits its judgement
    assert kept.observe(_sig(epoch_s=0.95)) is None  # exactly MIN_GAIN: kept
    assert kept.decisions[-1].action == "keep"
    assert kept.width == 4
    reverted = _ctl()
    assert reverted.observe(_sig(epoch_s=1.0, timeouts=5)) == 4
    assert reverted.observe(_sig(epoch_s=0.951)) == 8  # just short of it
    assert reverted.decisions[-1].action == "revert"


def test_insufficient_gain_reverts_and_blacklists():
    ctl = _ctl()
    assert ctl.observe(_sig(epoch_s=1.0, timeouts=5)) == 4
    # The move bought only 2% — below min_gain: revert to 8.
    assert ctl.observe(_sig(epoch_s=0.98, timeouts=5)) == 8
    assert ctl.width == 8
    assert ctl.decisions[-1].action == "revert"
    # Same pressure again: the (8 -> 4) edge is burned, never retried.
    assert ctl.observe(_sig(epoch_s=1.0, timeouts=5)) is None
    assert ctl.decisions[-1].action == "hold"


def test_accepted_move_can_keep_climbing_same_epoch():
    ctl = _ctl()
    assert ctl.observe(_sig(epoch_s=1.0, timeouts=9)) == 4
    # Judged (big gain) AND still pressured: narrow again immediately.
    assert ctl.observe(_sig(epoch_s=0.4, timeouts=3)) == 2
    actions = [d.action for d in ctl.decisions if d.epoch == 1]
    assert actions == ["keep", "narrow"]


def test_controller_is_deterministic():
    sigs = [
        _sig(epoch_s=1.0, timeouts=5),
        _sig(epoch_s=0.4, timeouts=2),
        _sig(epoch_s=0.2),
        _sig(epoch_s=0.2),
    ]
    a, b = _ctl(), _ctl()
    assert [a.observe(s) for s in sigs] == [b.observe(s) for s in sigs]
    assert a.decisions == b.decisions
    assert a.trajectory() == b.trajectory()


def test_trajectory_reports_width_per_epoch():
    ctl = _ctl()
    ctl.observe(_sig(timeouts=5))  # 8 -> 4
    ctl.observe(_sig(epoch_s=0.4, timeouts=2))  # keep, 4 -> 2
    ctl.observe(_sig(epoch_s=0.2))  # keep, healthy
    assert ctl.trajectory() == [4, 2, 2]
    assert isinstance(ctl.decisions[0], Decision)


# ---------------------------------------------------------------------------
# the coordinator, inside the simulated world
# ---------------------------------------------------------------------------

def _report(elapsed=1.0, wait=0.0, overlap=1.0):
    return SimpleNamespace(
        elapsed=elapsed,
        data_wait=wait,
        overlap_efficiency=overlap,
        sample_latencies=np.zeros(0),
    )


def test_coordinator_reshards_and_repoints_the_dataset():
    def main(ctx):
        old_store = yield from DDStore.create(
            ctx.comm,
            _source(ctx),
        )
        dataset = DDStoreDataset(old_store, stats_only=True)
        coord = ElasticCoordinator(ctx, SimpleNamespace(dataset=dataset))
        # A heavily stalled epoch: the controller must narrow 4 -> 2 and
        # the coordinator must actuate it live.
        new_width = yield from coord.after_epoch(_report(elapsed=1.0, wait=0.5))
        store = dataset.store
        repointed = store is not old_store and coord.store is store
        fetched = yield from store.get_samples([0, 31], decode=False)
        return (
            new_width,
            store.width,
            store.generation,
            old_store.closed,
            repointed,
            len(fetched),
            coord.summary()["reshards"],
        )

    job = run(main)
    for new_width, width, gen, old_closed, repointed, n, reshards in job.results:
        assert new_width == 2 and width == 2
        assert gen == 1
        assert old_closed  # old generation torn down exactly once
        assert repointed
        assert n == 2
        assert reshards == 1


def test_coordinator_holds_the_width_on_a_healthy_epoch():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        dataset = DDStoreDataset(store, stats_only=True)
        coord = ElasticCoordinator(ctx, SimpleNamespace(dataset=dataset))
        out = yield from coord.after_epoch(_report(elapsed=1.0, wait=0.0))
        return out, dataset.store is store, store.generation, coord.summary()

    job = run(main)
    for out, same_store, gen, summary in job.results:
        assert out is None and same_store and gen == 0
        assert set(summary) == {
            "final_width", "reshards", "reshard_seconds", "trajectory", "decisions"
        }
        assert summary["final_width"] == 4 and summary["reshards"] == 0
        assert [d["action"] for d in summary["decisions"]] == ["hold"]


def test_coordinator_decisions_identical_on_every_rank():
    def main(ctx):
        store = yield from DDStore.create(ctx.comm, _source(ctx))
        dataset = DDStoreDataset(store, stats_only=True)
        coord = ElasticCoordinator(ctx, SimpleNamespace(dataset=dataset))
        # Ranks disagree locally (only rank 3 is stalled); the allreduce
        # must still land every rank on the same verdict.
        wait = 0.5 if ctx.rank == 3 else 0.0
        yield from coord.after_epoch(_report(elapsed=1.0, wait=wait))
        yield from coord.after_epoch(_report(elapsed=0.3, wait=0.0))
        dataset.store.close()
        return coord.summary()["decisions"], dataset.store.width

    job = run(main)
    first_decisions, first_width = job.results[0]
    assert all(r == (first_decisions, first_width) for r in job.results)
    assert first_width == 2  # narrowed once, then judged healthy and kept


# ---------------------------------------------------------------------------
# the reshard fence: draining a live scheduler mid-wave, then with a carried
# window live between epochs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("node_fetch", [False, True])
def test_scheduler_drain_mid_wave_then_reshard_resumes_cleanly(node_fetch):
    n = 64
    gen = IsingGenerator(n, seed=0)

    def main(ctx):
        from repro.dataplane.scheduler import EpochScheduler

        store = yield from DDStore.create(
            ctx.comm,
            _source(ctx, n=n),
            dataplane=DataPlaneOptions(
                cache_bytes=1 << 20,
                prefetch_depth=4,
                scheduler=True,
                node_fetch=node_fetch,
            ),
        )
        dataset = DDStoreDataset(store)
        loader = DataLoader(dataset, ctx, batch_size=4, shuffle="global", seed=0)
        sched = EpochScheduler(
            loader, loader.epoch_batches(0), engine=ctx.engine, epoch=0, epochs=2
        )
        drained = []

        def drain():
            drained.append((yield from sched.drain()))

        # Every generation's key in the host-shared tables: each is shut down.
        generations = [store._store_key]
        sched.start()
        # Consume one batch, leaving the rest of the wave (and deeper
        # launches) in flight...
        first = yield sched.event(0)
        sched.advance(0)
        # ...then fence and reshard mid-wave.
        yield from drain()
        dataset.store = yield from dataset.store.reshard(width=2)
        generations.append(dataset.store._store_key)
        got = [first]
        for step in range(1, len(sched.batches)):
            loaded = yield sched.event(step)
            sched.advance(step)
            got.append(loaded)
        # Between epochs the window is carried: epoch 1's head is already
        # launched when the coordinator decides to narrow again.
        carried = sched.finish()
        coord = ElasticCoordinator(
            ctx, loader, trainer=SimpleNamespace(drain_pipeline=drain)
        )
        waves_before = dataset.store.stats.n_prefetch_waves
        width = yield from coord.after_epoch(_report(elapsed=1.0, wait=0.5))
        # The window was rewound and refills against the new generation.
        sched.start()
        for step in range(len(sched.batches)):
            loaded = yield sched.event(step)
            sched.advance(step)
            got.append(loaded)
        schedule = loader.epoch_batches(0) + loader.epoch_batches(1)
        ok = len(got) == len(schedule) and all(
            loaded.batch.graph(j).allclose(gen.make(int(i)))
            for loaded, idx in zip(got, schedule)
            for j, i in enumerate(idx)
        )
        store = dataset.store
        generations.append(store._store_key)
        refilled = store.stats.n_prefetch_waves - waves_before
        done = not sched.finish()
        yield from store.shutdown()
        return drained, carried, width, store.generation, refilled, done, ok, generations

    job = run(main)
    for drained, carried, width, generation, refilled, done, ok, gens in job.results:
        assert len(drained) == 2 and all(d > 0 for d in drained)  # both fences had launches to await
        assert carried  # ...the second one only carried ones
        assert width == 1 and generation == 2
        assert refilled > 0  # epoch 1's waves were re-opened on the new store
        assert done  # the window ends with the run
        assert ok  # every sample bit-identical across both width changes
        assert len(set(gens)) == 3
    # Every replica group adopted its chunks, and each generation's
    # shutdown dropped its node rendezvous.
    shared = job.world.shared
    assert not shared.chunks
    assert not any(key[:2] in gens for key in shared.coordinators)
