"""The elastic actuator: drain → reshard → repoint, between epochs.

:class:`ElasticCoordinator` sits in the training loop's seam between
epochs.  After each epoch it (1) reduces the per-rank health signals so
every rank holds identical numbers, (2) asks the
:class:`~.controller.ElasticWidthController` for a verdict, and (3) when
the verdict is a new width, actuates it live:

* drains the trainer's prefetch pipeline — between epochs that is the
  window *carried* into the next epoch, whose head wave is already in
  flight — so no batch load races the old store's teardown; the drain
  rewinds the window, which then refills against the new generation,
* drives the bulk memory-to-memory reshard of the loader's store
  (:meth:`~repro.core.DDStore.reshard`, over the dataset's worker
  count of wire streams),
* repoints the loader's dataset at the new generation.

Observability contract: a reshard emits a ``reshard`` span under *both*
``trainer.epoch`` and ``trainer.stage`` over the identical interval, so
the critical-path analyzer sees the reshard as a fully-attributed
pseudo-epoch (residual exactly zero) instead of unaccounted dead time
between epochs.  Nothing is emitted when no reshard runs.

Building a coordinator is the one elastic switch: a job without one
never reshards between epochs (the harness builds one when
``ExperimentConfig.elastic`` is set).  Everything here is a collective:
call :meth:`after_epoch` on every rank, every epoch, in the same order.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from .controller import ElasticWidthController, EpochSignals

__all__ = ["ElasticCoordinator"]

# FetchStats counters reduced with op="sum" into EpochSignals, in order.
_FAULT_COUNTERS = ("n_timeouts", "n_retries", "n_failovers")


class ElasticCoordinator:
    """One rank's elastic control loop; construct identically everywhere.

    Parameters
    ----------
    ctx : RankContext
        This rank's simulated-process context (engine, comm, obs).
    loader : DataLoader
        The loader feeding the trainer.  Its ``dataset.store`` is the
        store that is resharded, and the dataset is repointed at the new
        generation after each reshard.
    trainer : Trainer, optional
        When given, its live prefetch pipeline (carried window included)
        is drained and rewound before the width change (the reshard
        fence).
    """

    def __init__(self, ctx, loader, *, trainer=None) -> None:
        self.ctx = ctx
        self.loader = loader
        self.trainer = trainer
        store = loader.dataset.store
        self.controller = ElasticWidthController(ctx.size, store.width)
        self._fault_base = {
            name: getattr(store.stats, name) for name in _FAULT_COUNTERS
        }
        self.reshards = 0
        self.reshard_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def store(self):
        """The generation the loader's dataset currently reads."""
        return self.loader.dataset.store

    @property
    def width(self) -> int:
        return self.store.width

    # ------------------------------------------------------------------
    def _local_faults(self) -> list[float]:
        """Per-rank fault-counter deltas since the previous epoch.

        Deltas, not totals: stats are cumulative and (by design) carried
        across reshard generations, so the controller must see only this
        epoch's increments.
        """
        stats = self.store.stats
        out = []
        for name in _FAULT_COUNTERS:
            cur = getattr(stats, name)
            out.append(float(cur - self._fault_base[name]))
            self._fault_base[name] = cur
        return out

    def _reduce_signals(self, report) -> Generator:
        """Allreduce one epoch's health so all ranks decide identically."""
        comm = self.ctx.comm
        lat = np.asarray(report.sample_latencies, dtype=np.float64)
        p99 = float(np.percentile(lat, 99)) if lat.size else 0.0
        # Times: max over ranks (the slowest rank IS the epoch).  Overlap
        # efficiency: min over ranks, encoded as max of the negation so
        # one reduction covers all four.
        maxvec = np.array(
            [report.elapsed, report.data_wait, p99, -report.overlap_efficiency],
            dtype=np.float64,
        )
        maxred = yield from comm.allreduce(maxvec, op="max")
        sumvec = np.array(self._local_faults(), dtype=np.float64)
        sumred = yield from comm.allreduce(sumvec, op="sum")
        return EpochSignals(
            epoch_seconds=float(maxred[0]),
            data_wait_seconds=float(maxred[1]),
            fetch_p99=float(maxred[2]),
            overlap_efficiency=-float(maxred[3]),
            n_timeouts=int(sumred[0]),
            n_retries=int(sumred[1]),
            n_failovers=int(sumred[2]),
        )

    # ------------------------------------------------------------------
    def after_epoch(self, report) -> Generator:
        """Controller hook: call between epochs on every rank (collective).

        Returns the new width when a reshard ran, else None.
        """
        signals = yield from self._reduce_signals(report)
        target = self.controller.observe(signals)
        if target is None or target == self.width:
            return None
        yield from self._actuate(target)
        return target

    def _actuate(self, width: int) -> Generator:
        engine = self.ctx.engine
        obs = self.ctx.world.obs
        track = self.ctx.rank
        t0 = engine.now
        if self.trainer is not None:
            yield from self.trainer.drain_pipeline()
        dataset = self.loader.dataset
        store = yield from dataset.store.reshard(
            width=width, n_workers=dataset.n_workers
        )
        dataset.store = store
        self.reshards += 1
        self.reshard_seconds += engine.now - t0
        # Paired spans: the reshard is its own pseudo-epoch, exactly tiled
        # by one stage span, so the critical-path invariant holds with
        # zero residual and the reshard cost is fully accounted.
        if obs.tracing and engine.now > t0:
            for cat in ("trainer.epoch", "trainer.stage"):
                obs.tracer.record(
                    "reshard",
                    cat=cat,
                    track=track,
                    lane=0,
                    start=t0,
                    end=engine.now,
                    width=width,
                    generation=store.generation,
                )
        m = obs.metrics
        if m.enabled:
            m.counter("control.reshards", rank=track).inc(1)
            m.counter("control.reshard_seconds", rank=track).inc(
                engine.now - t0
            )
            m.gauge("control.width", rank=track).set(float(width))

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Rank-local trajectory report for the bench/CLI layer."""
        return {
            "final_width": self.width,
            "reshards": self.reshards,
            "reshard_seconds": self.reshard_seconds,
            "trajectory": self.controller.trajectory(),
            "decisions": [
                {
                    "epoch": d.epoch,
                    "width_before": d.width_before,
                    "width_after": d.width_after,
                    "action": d.action,
                    "reason": d.reason,
                    "stall_fraction": d.stall_fraction,
                    "epoch_seconds": d.epoch_seconds,
                }
                for d in self.controller.decisions
            ],
        }
