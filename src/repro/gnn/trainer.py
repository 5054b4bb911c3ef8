"""The instrumented DDP training loop (Fig 1's five steps, with timings).

Each step: (i) data loading — overlapped with the previous step's GPU
compute exactly as PyTorch's prefetching loader does, (ii) forward,
(iii) backward, (iv) gradient allreduce, (v) optimiser update.

The trainer accounts virtual time into the categories the paper's figures
break out: ``cpu_loading``, ``cpu_batching`` (Fig 5's CPU bars),
``gpu_h2d``, ``gpu_forward``, ``gpu_backward`` (GPU compute),
``gpu_comm`` (model-sync allreduce incl. straggler wait), ``optimizer``.

Two compute modes:

* ``real_compute=True`` — the NumPy model actually trains (used for the
  Fig 13 convergence study); GPU *time* still comes from the cost model so
  phase breakdowns stay hardware-faithful,
* ``real_compute=False`` — pure performance mode: data movement is real,
  arithmetic is skipped, the gradient allreduce is charged at full fp32
  volume.  This is what the scaling experiments run, and it needs only the
  model's shape: the harness wraps a config (``DistributedModel(None,
  comm, config=cfg)``), so a performance cell builds no weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from ..core import DataLoader
from ..dataplane.scheduler import EpochScheduler
from ..hardware import GnnWorkload, GpuModel
from ..mpi import RankContext
from .ddp import DistributedModel

__all__ = ["PhaseTimes", "EpochReport", "Trainer"]

_PHASES = (
    "cpu_loading",
    "cpu_batching",
    "gpu_h2d",
    "gpu_forward",
    "gpu_backward",
    "gpu_comm",
    "optimizer",
)


@dataclass
class PhaseTimes:
    """Accumulated virtual seconds per pipeline phase."""

    seconds: dict[str, float] = field(default_factory=lambda: {p: 0.0 for p in _PHASES})

    def add(self, phase: str, dt: float) -> None:
        if phase not in self.seconds:
            raise KeyError(f"unknown phase {phase!r}")
        self.seconds[phase] += dt

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def merged(self, other: "PhaseTimes") -> "PhaseTimes":
        out = PhaseTimes()
        for k in out.seconds:
            out.seconds[k] = self.seconds[k] + other.seconds[k]
        return out


@dataclass
class EpochReport:
    epoch: int
    n_steps: int
    n_samples: int
    elapsed: float  # virtual wall time of the epoch on this rank
    phases: PhaseTimes
    train_loss: Optional[float]  # None in modelled mode
    sample_latencies: np.ndarray  # per-graph loading latency (Fig 6 data)
    # Overlap accounting: the loading pipeline's own duration vs. how much
    # of it the compute phases actually hid.  ``data_wait`` is the summed
    # un-overlapped stall; ``overlap_efficiency`` = hidden / total load
    # time (1.0 = loading fully hidden, 0.0 = fully exposed).
    data_wait: float = 0.0
    overlap_efficiency: float = 0.0

    @property
    def throughput(self) -> float:
        """Samples per virtual second on this rank."""
        return self.n_samples / self.elapsed if self.elapsed > 0 else 0.0


class Trainer:
    """One rank's trainer; construct identically on every rank."""

    def __init__(
        self,
        ctx: RankContext,
        dmodel: DistributedModel,
        loader: DataLoader,
        optimizer,
        *,
        real_compute: bool = True,
        epochs: Optional[int] = None,
    ) -> None:
        if real_compute and dmodel.model is None:
            raise ValueError("real_compute=True needs a model with weights, not a config alone")
        self.ctx = ctx
        self.dmodel = dmodel
        self.loader = loader
        self.optimizer = optimizer
        self.real_compute = real_compute
        # Run length, when the caller knows it: epochs 0 .. epochs-1 run in
        # order, which lets a wave-scheduled prefetch window slide across
        # epoch boundaries (nothing is fetched for epoch >= epochs).  None
        # keeps the per-epoch window.
        self.epochs = epochs
        self.gpu = GpuModel(ctx.world.machine.gpu)
        cfg = dmodel.config
        self._feature_dim = cfg.feature_dim
        self._output_dim = sum(cfg.head_dims)
        self._hidden = cfg.hidden_dim
        self._n_conv = cfg.n_conv_layers
        self._n_fc = cfg.n_fc_layers
        # Live prefetch window: the running epoch's, or between epochs the
        # one carried into the next epoch (None when it ended with its
        # epoch).  The elastic coordinator drains it before a mid-training
        # reshard so no batch load races the store teardown.
        self._sched: Optional[EpochScheduler] = None

    # ------------------------------------------------------------------
    def _workload(self, batch) -> GnnWorkload:
        return GnnWorkload(
            n_graphs=batch.n_graphs,
            n_nodes=batch.n_nodes,
            n_edges=batch.n_edges,
            node_feature_dim=self._feature_dim,
            output_dim=self._output_dim,
            hidden_dim=self._hidden,
            n_conv_layers=self._n_conv,
            n_fc_layers=self._n_fc,
        )

    def train_epoch(self, epoch: int) -> Generator:
        """Run one epoch; returns an :class:`EpochReport` (collective)."""
        ctx = self.ctx
        engine = ctx.engine
        obs = ctx.world.obs
        track = ctx.rank
        phases = PhaseTimes()
        t_epoch = engine.now
        losses: list[float] = []
        latencies: list[np.ndarray] = []
        n_samples = 0

        # Stage spans tile the epoch span exactly: every virtual-time
        # interval of this coroutine is inside exactly one stage (pure-CPU
        # work takes zero virtual time), which is the critical-path
        # analyzer's invariant.  Zero-length stages are not recorded.
        def stage(name: str, start: float, **args) -> None:
            if obs.tracing and engine.now > start:
                obs.tracer.record(
                    name,
                    cat="trainer.stage",
                    track=track,
                    lane=0,
                    start=start,
                    end=engine.now,
                    **args,
                )

        # Prefetch pipeline: the epoch-ahead scheduler keeps up to
        # ``prefetch_depth`` batch loads in flight while batch k computes
        # (depth 1 — the default — is the seed pipeline, bit-for-bit).  A
        # window carried over from the previous epoch already holds this
        # epoch's head wave.
        sched = self._sched
        if sched is not None and sched.epoch != epoch:
            # Epochs ran out of order: the carried window prefetched for
            # an epoch that is not the one running now.
            yield from sched.drain()
            sched = None
        if sched is None:
            sched = EpochScheduler(
                self.loader,
                self.loader.epoch_batches(epoch),
                engine=engine,
                obs=obs,
                track=track,
                epoch=epoch,
                epochs=self.epochs,
            )
        self._sched = sched
        batches = sched.batches
        sched.start()
        data_wait_s = 0.0
        load_total_s = 0.0

        for step, idx in enumerate(batches):
            t0 = engine.now
            loaded = yield sched.event(step)  # stall only for the un-overlapped remainder
            stage("data_wait", t0, step=step)
            data_wait_s += engine.now - t0
            # Fig 5's stacked bars report the CPU pipeline's own cost
            # (whether or not it hid under GPU compute), so book the full
            # load duration, not just the stall.
            phases.add("cpu_loading", loaded.load_time)
            phases.add("cpu_batching", loaded.batching_time)
            load_total_s += loaded.load_time + loaded.batching_time
            latencies.append(loaded.per_sample_latency)
            sched.advance(step)

            batch = loaded.batch
            n_samples += batch.n_graphs
            work = self._workload(batch)

            # (ii)/(iii) forward + backward on the GPU.
            t0 = engine.now
            yield engine.timeout(self.gpu.h2d_time(work.batch_bytes()))
            phases.add("gpu_h2d", engine.now - t0)
            stage("gpu_h2d", t0, step=step)

            if self.real_compute:
                self.optimizer.zero_grad()
                loss = self.dmodel.model.train_step_loss(batch)
                losses.append(loss)
            t0 = engine.now
            yield engine.timeout(self.gpu.forward_time(work))
            phases.add("gpu_forward", engine.now - t0)
            stage("gpu_forward", t0, step=step)
            t0 = engine.now
            yield engine.timeout(self.gpu.backward_time(work))
            phases.add("gpu_backward", engine.now - t0)
            stage("gpu_backward", t0, step=step)

            # (iv) gradient aggregation (includes waiting for stragglers).
            t0 = engine.now
            if self.real_compute:
                yield from self.dmodel.sync_gradients()
            else:
                yield from self.dmodel.sync_gradients_modelled()
            phases.add("gpu_comm", engine.now - t0)
            stage("gpu_comm", t0, step=step)

            # (v) optimiser update.
            t0 = engine.now
            if self.real_compute:
                self.optimizer.step()
            yield engine.timeout(self.gpu.optimizer_time(self.dmodel.n_params))
            phases.add("optimizer", engine.now - t0)
            stage("optimizer", t0, step=step)

            # Compute is done with this batch: recycle its arena (no-op on
            # the row path).  Must come *after* the GPU stages — the batch
            # views alias the arena buffers until here.
            loaded.release()

        elapsed = engine.now - t_epoch
        self._sched = sched if sched.finish() else None
        # Overlap efficiency: how much of the loading pipeline's own time
        # the compute phases hid.  ``data_wait`` is the honest stall (the
        # pipeline-fill load of batch 0 is inherently exposed).
        hidden_s = max(0.0, load_total_s - data_wait_s)
        overlap_eff = hidden_s / load_total_s if load_total_s > 0 else 0.0
        if obs.tracing:
            obs.tracer.record(
                "epoch",
                cat="trainer.epoch",
                track=track,
                lane=0,
                start=t_epoch,
                end=engine.now,
                epoch=epoch,
                n_steps=len(batches),
                n_samples=n_samples,
            )
        m = obs.metrics
        if m.enabled:
            for phase, seconds in phases.seconds.items():
                if seconds:
                    m.counter(
                        "trainer.phase_seconds", phase=phase, rank=track
                    ).inc(seconds)
            m.counter("trainer.samples", rank=track).inc(n_samples)
            m.counter("trainer.epochs", rank=track).inc(1)
            for kind, seconds in (
                ("total", load_total_s),
                ("stalled", data_wait_s),
                ("hidden", hidden_s),
            ):
                if seconds:
                    m.counter(
                        "trainer.load_seconds", kind=kind, rank=track
                    ).inc(seconds)
            m.gauge("trainer.overlap_efficiency", rank=track).set(overlap_eff)
        return EpochReport(
            epoch=epoch,
            n_steps=len(batches),
            n_samples=n_samples,
            elapsed=elapsed,
            phases=phases,
            train_loss=float(np.mean(losses)) if losses else None,
            sample_latencies=(
                np.concatenate(latencies) if latencies else np.empty(0)
            ),
            data_wait=data_wait_s,
            overlap_efficiency=overlap_eff,
        )

    def drain_pipeline(self) -> Generator:
        """Await the live prefetch window (reshard fence; collective-free).

        Returns the number of in-flight launches awaited; 0 when no window
        is live.  The window — a carried one between epochs included — is
        rewound to the consumed point, so the next epoch (or a paused
        one's ``event``/``advance`` protocol) refills it against whatever
        store the loader then points at.
        """
        if self._sched is None:
            return 0
        n = yield from self._sched.drain()
        return n

    def evaluate(self, indices: np.ndarray, batch_size: Optional[int] = None) -> Generator:
        """Forward-only loss over ``indices`` (no parameter updates).

        Runs the same prefetch pipeline as :meth:`train_epoch`: chunk
        ``k+1`` loads while chunk ``k`` runs its forward pass, so eval
        epochs no longer pay fully-exposed fetch latency.  Loss values are
        unchanged (only virtual timing differs from the synchronous loop).
        """
        if not self.real_compute:
            raise RuntimeError("evaluate() requires real_compute=True")
        # One window per cache at a time: a carried training window is
        # rewound and refills when training resumes.
        yield from self.drain_pipeline()
        engine = self.ctx.engine
        bs = batch_size or self.loader.batch_size
        chunks = [
            np.asarray(indices[lo : lo + bs])
            for lo in range(0, len(indices), bs)
            if len(indices[lo : lo + bs])
        ]
        if not chunks:
            return float("nan")
        losses = []
        weights = []
        sched = EpochScheduler(
            self.loader,
            chunks,
            engine=engine,
            obs=self.ctx.world.obs,
            track=self.ctx.rank,
        )
        sched.start()
        for step in range(len(chunks)):
            loaded = yield sched.event(step)
            sched.advance(step)
            work = self._workload(loaded.batch)
            yield engine.timeout(self.gpu.forward_time(work))
            losses.append(self.dmodel.model.evaluate_loss(loaded.batch))
            weights.append(loaded.batch.n_graphs)
            loaded.release()
        sched.finish()
        return float(np.average(losses, weights=weights))
