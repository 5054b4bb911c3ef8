"""Epoch-ahead fetch scheduling: the run-long depth-k prefetch pipeline.

``DataLoader.epoch_batches`` returns an *entire* epoch permutation up
front — and every later epoch's too, since schedules are pure functions
of ``(seed, epoch, rank)`` — so the data plane can be scheduled against a
known future instead of reacting batch-by-batch (RapidGNN's
observation).  The :class:`EpochScheduler` consumes that schedule and
drives four coordinated optimisations:

1. **depth-k prefetch** — up to ``prefetch_depth`` batch loads run
   concurrently ahead of compute, replacing the trainer's fixed depth-1
   pipeline.  Depth 1 reproduces the seed pipeline *bit-for-bit*: one
   ``engine.process`` per batch load, launched at the same virtual times
   in the same order, whose coroutine delegates straight to
   ``loader.load`` (no wave to wait on, no Belady clock to advance), so
   default-config results are unchanged.
2. **wave scheduling** (``scheduler=True``) — consecutive batches are
   grouped into waves of up to ``prefetch_depth`` batches (cut early at
   the cache's wave byte cap, from the registry's exact per-sample sizes
   — no simulated time is spent estimating).  Each wave's remote
   samples are fetched by ONE
   :meth:`~repro.core.store.DDStore.prefetch_wave` call: one fetch plan
   spanning the wave's batch boundaries (cross-batch dedup/coalescing)
   and one RMA lock epoch per target per wave instead of per
   ``get_samples`` call.  Payloads land in the hot-sample cache; the
   wave's per-batch loads chain behind the wave fetch and hit the cache.
3. **future-fed Belady eviction** — with a ``policy="belady"`` cache the
   scheduler installs the flattened access sequence into the cache
   (:meth:`~.cache.TieredCache.set_future`) and advances its logical
   clock as batch loads start, so evictions discard the entry whose next
   use is farthest away.
4. **a run-long window** (``scheduler=True`` and a known run length) —
   the window is indexed by (epoch, step) and slides across the epoch
   boundary into ``loader.epoch_batches(epoch + 1)`` instead of being
   torn down: the next epoch's head wave is fetched under this epoch's
   tail compute, and only the first step of a run pays a cold fill.
   The Belady future becomes a rolling horizon on one absolute clock
   (:meth:`~.cache.TieredCache.extend_future`).  Waves never span an
   epoch boundary — each epoch keeps the partition it would have had on
   its own, so the node rendezvous key ``(generation, epoch, wave span)``
   and the peer-schedule oracle are untouched.  Without waves, or with
   an unknown run length, the window ends with its epoch: the seed's
   PyTorch-style per-epoch refill.

The scheduler is engine-agnostic bookkeeping: all virtual time is spent
inside the loader/store coroutines it launches.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Optional, Sequence

import numpy as np

__all__ = ["EpochScheduler", "WaveWindow"]


class WaveWindow:
    """Rank-invariant identity of one scheduled wave plus the peer oracle.

    ``epoch`` and ``wave`` (the ``[lo, hi)`` batch span inside the epoch
    schedule) are identical on every rank — the scheduler cuts waves by
    depth alone when node fetch is on.  ``peer_batches(peer_rank)``
    returns that peer's batches for this wave, recomputed locally from
    the shared deterministic permutation.
    """

    __slots__ = ("epoch", "wave", "peer_batches")

    def __init__(
        self,
        epoch: int,
        wave: tuple[int, int],
        peer_batches: Callable[[int], list],
    ) -> None:
        self.epoch = int(epoch)
        self.wave = (int(wave[0]), int(wave[1]))
        self.peer_batches = peer_batches


class _Epoch:
    """One epoch's slice of the window: batches, loads, wave partition."""

    __slots__ = (
        "epoch",
        "batches",
        "base",
        "positions",
        "nbytes",
        "events",
        "wave_of",
        "waves",
        "wave_procs",
        "peers",
        "launched",
    )

    def __init__(self, epoch: Optional[int], batches, base: int, clock: int) -> None:
        self.epoch = epoch  # None: ad-hoc index chunks (evaluate)
        self.batches = list(batches)
        self.base = base  # run-absolute index of this epoch's step 0
        n = len(self.batches)
        # Belady clock (run-absolute sample position) of each batch's
        # first access; positions[n] is where the next epoch starts.
        self.positions = np.full(n + 1, clock, dtype=np.int64)
        self.positions[1:] += np.cumsum(
            np.fromiter((len(b) for b in self.batches), dtype=np.int64, count=n)
        )
        self.nbytes: list[Optional[int]] = [None] * n
        self.events: list[Optional[object]] = [None] * n
        self.wave_of: list[int] = []
        self.waves: list[tuple[int, int]] = []  # [lo, hi) steps
        self.wave_procs: dict[int, object] = {}
        self.peers: dict[int, list] = {}  # node peer -> its batches this epoch
        self.launched = 0

    def accesses(self, lo: int = 0):
        """Sample ids in access order, from step ``lo`` on."""
        return (int(i) for b in self.batches[lo:] for i in np.asarray(b).reshape(-1))


class EpochScheduler:
    """Schedules a trainer loop's batch loads, one epoch after another.

    Protocol (mirrors the seed depth-1 pipeline)::

        sched = EpochScheduler(loader, batches, engine=engine, epoch=e, epochs=E)
        while True:
            sched.start()                      # fill the window
            for step in range(len(sched.batches)):
                loaded = yield sched.event(step)   # stall for the remainder
                sched.advance(step)            # retire + top up the window
            if not sched.finish():             # window ended with the epoch
                break                          # else: it now serves epoch e+1

    Everything it configures comes from one question,
    ``store = loader.dataset.store``: the prefetch depth, wave scheduling
    and node fetch (:class:`~repro.core.config.DataPlaneOptions`), the
    cache, and the byte meter (``store.batch_nbytes``).  A dataset with no
    store runs the seed's depth-1 pipeline.  The store is read again after
    a :meth:`drain`, since a reshard swaps it underneath the loader.
    ``epoch`` names the schedule ``batches`` came from (omit it for ad-hoc
    index chunks); ``epochs`` is the run length — with waves on, the
    window then carries into every epoch below it and nothing is ever
    launched for an epoch at or beyond it.
    """

    def __init__(
        self,
        loader,
        batches: Sequence[np.ndarray],
        *,
        engine,
        obs=None,
        track: int = 0,
        epoch: Optional[int] = None,
        epochs: Optional[int] = None,
    ) -> None:
        self.loader = loader
        self.engine = engine
        self.obs = obs
        self.track = track
        store = self._store = loader.dataset.store
        options = store.config.dataplane if store is not None else None
        cache = self._cache = store.cache if store is not None else None
        self.depth = options.prefetch_depth if options is not None else 1
        can_wave = options is not None and options.scheduler and cache.enabled
        self.waves_enabled = bool(can_wave)
        # Node-scope wave aggregation needs an epoch identity (batches
        # from the deterministic epoch schedule — trainer epochs qualify,
        # ad-hoc index chunks like evaluate()'s do not): node peers'
        # schedules are reconstructed from it locally.
        self._node_fetch = bool(can_wave and options.node_fetch and epoch is not None)
        self._carry = bool(can_wave and epoch is not None and epochs is not None)
        self._epochs = epochs
        self._belady = bool(
            cache is not None and cache.enabled and cache.policy == "belady"
        )
        # Byte budget of carried launches: the per-rank fast tiers (see
        # _admit).
        self._cache_cap = cache.fast_capacity_bytes if self._carry else 0

        # The window: run-absolute batch indices, oldest live epoch first.
        # _segs[0] is the epoch being consumed; later ones are carried.
        self._segs: deque[_Epoch] = deque()
        self._consumed = -1  # absolute index of the last retired batch
        self._next_launch = 0
        self._in_flight_bytes = 0
        self._armed = False
        first = self._append(epoch, batches)
        # Arena lifecycle: with the columnar data plane every in-flight
        # batch holds one arena, so pre-size depth+1 of them (the window
        # plus the batch compute is consuming) to the largest scheduled
        # batch — steady state then recycles without ever reallocating.
        # Done once, while no arena is out: a carried window keeps drawing
        # from the same pool (depth+1 bounds it across epoch boundaries
        # too) and later epochs only ever grow an arena in place.
        # Pure wall-clock work; the row path has no pool and is untouched.
        pool = loader.dataset.arena_pool
        if pool is not None and first.batches:
            dims = [loader.dataset.arena_hint(batch) for batch in first.batches]
            pool.warm(
                self.depth + 1,
                max(d[0] for d in dims),
                max(d[1] for d in dims),
                max(d[2] for d in dims),
                dims[0][3],
                dims[0][4],
            )

    # -- the consuming epoch --------------------------------------------------
    @property
    def epoch(self) -> Optional[int]:
        """The epoch ``event``/``advance`` steps currently index."""
        return self._segs[0].epoch

    @property
    def batches(self) -> list:
        """That epoch's batches."""
        return self._segs[0].batches

    # -- window bookkeeping -------------------------------------------------
    def _append(self, epoch: Optional[int], batches) -> _Epoch:
        last = self._segs[-1] if self._segs else None
        seg = _Epoch(
            epoch,
            batches,
            base=last.base + len(last.batches) if last else 0,
            clock=int(last.positions[-1]) if last else 0,
        )
        self._segs.append(seg)
        if self.waves_enabled:
            self._partition_waves(seg)
        if self._belady and self._armed:
            self._cache.extend_future(seg.accesses(), int(seg.positions[0]))
        return seg

    def _arm(self) -> None:
        """Re-read the loader's store and hand its cache the window's
        unconsumed accesses — at the first launch, and again after a
        :meth:`drain` (a reshard swaps the store, and its cache, underneath
        the loader)."""
        self._armed = True
        store = self._store = self.loader.dataset.store
        cache = self._cache = store.cache if store is not None else None
        if not self._belady:
            return
        install = cache.set_future
        for seg in self._segs:
            lo = min(max(0, self._consumed + 1 - seg.base), len(seg.batches))
            install(seg.accesses(lo), int(seg.positions[lo]))
            install = cache.extend_future

    def _extend(self) -> bool:
        """Slide the window into the next epoch, if the run has one."""
        if not self._carry:
            return False
        nxt = self._segs[-1].epoch + 1
        if nxt >= self._epochs:
            return False
        self._append(nxt, self.loader.epoch_batches(nxt))
        return True

    def _slot(self, b: int) -> Optional[tuple[_Epoch, int]]:
        """(epoch slice, step) of absolute batch ``b``; None past the run."""
        while True:
            for seg in self._segs:
                if b < seg.base + len(seg.batches):
                    return seg, b - seg.base
            if not self._extend():
                return None

    def _batch_bytes(self, seg: _Epoch, step: int) -> int:
        est = seg.nbytes[step]
        if est is None:
            est = seg.nbytes[step] = self._store.batch_nbytes(seg.batches[step])
        return est

    def _admit(self, seg: _Epoch, step: int) -> bool:
        """May a launch beyond the head-of-line batch go out now?"""
        # A carried launch is metered against the cache: beside everything
        # launched and not yet retired it must fit the per-rank fast tiers.
        # Any earlier the Belady admission gate would refuse its wave's
        # entries (every resident is needed sooner) and the fetch would be
        # wasted; from then on they displace only retired, Belady-dead
        # batches.
        return seg is self._segs[0] or (
            self._in_flight_bytes + self._batch_bytes(seg, step) <= self._cache_cap
        )

    def _partition_waves(self, seg: _Epoch) -> None:
        n = len(seg.batches)
        # Tier-aware cap (``TieredCache.wave_cap_bytes``): cut waves at the
        # cache's own byte cap.  Node-scope aggregation requires
        # *rank-invariant* wave cuts (the wave span is the node rendezvous
        # key), so with node_fetch the byte-based cut — which depends on
        # this rank's batch sizes — is skipped and waves are cut purely by
        # depth.
        fast_cap = self._cache.wave_cap_bytes
        lo = 0
        while lo < n:
            hi = lo + 1
            wave_bytes = self._batch_bytes(seg, lo)
            # Warmup ramp: an epoch's first wave is a single batch, so its
            # step 0 waits only behind its own fetch (cold on the first
            # epoch of a run, carried under the previous epoch's tail
            # compute afterwards); full-depth waves follow.
            limit = 1 if lo == 0 else self.depth
            while hi < n and hi - lo < limit:
                nxt = self._batch_bytes(seg, hi)
                if not self._node_fetch and fast_cap is not None and wave_bytes + nxt > fast_cap:
                    break
                wave_bytes += nxt
                hi += 1
            w = len(seg.waves)
            seg.waves.append((lo, hi))
            seg.wave_of.extend([w] * (hi - lo))
            lo = hi

    def _peer_wave_batches(self, seg: _Epoch, lo: int, hi: int):
        """The peer-schedule oracle for one wave: ``fn(peer) -> batches``.

        Peer epochs are memoized per epoch slice, so a P-rank node
        recomputes each peer permutation once, not once per wave.
        """

        def fn(peer: int):
            batches = seg.peers.get(peer)
            if batches is None:
                batches = self.loader.peer_epoch_batches(seg.epoch, peer)
                seg.peers[peer] = batches
            return batches[lo:hi]

        return fn

    def _labels(self, seg: _Epoch) -> dict:
        labels = dict(rank=self.track, depth=self.depth)
        if seg.epoch is not None:
            labels["epoch"] = seg.epoch  # the epoch the work *serves*
        return labels

    def _wave_proc(self, seg: _Epoch, w: int):
        proc = seg.wave_procs.get(w)
        if proc is None:
            lo, hi = seg.waves[w]
            # The window names the wave (epoch + span) for the store's
            # spans; with node_fetch it is also the node rendezvous key.
            window = (
                WaveWindow(seg.epoch, (lo, hi), self._peer_wave_batches(seg, lo, hi))
                if seg.epoch is not None
                else None
            )
            proc = self.engine.process(
                self.loader.dataset.prefetch(seg.batches[lo:hi], window=window),
                name="prefetch-wave",
            )
            seg.wave_procs[w] = proc
            if self.obs is not None and self.obs.metrics.enabled:
                self.obs.metrics.counter("sched.waves", **self._labels(seg)).inc(1)
        return proc

    def _chained_load(self, wave_proc, idx, position: int) -> Generator:
        t0 = self.engine.now
        if wave_proc is not None:
            yield wave_proc
        waited = self.engine.now - t0
        if self._belady:
            self._cache.advance_to(position)
        loaded = yield from self.loader.load(idx)
        if waited:
            # The wait behind the wave fetch is part of this batch's
            # loading cost, or the trainer's stall could exceed the load it
            # stalled on (per-sample latencies stay the demand path's own).
            loaded.load_time += waited
        return loaded

    def _launch(self, seg: _Epoch, step: int) -> None:
        wave = self._wave_proc(seg, seg.wave_of[step]) if self.waves_enabled else None
        gen = self._chained_load(wave, seg.batches[step], int(seg.positions[step]))
        seg.events[step] = self.engine.process(gen, name="prefetch")
        if self._carry:
            self._in_flight_bytes += self._batch_bytes(seg, step)
        seg.launched += 1
        if (
            seg is not self._segs[0]
            and self.obs is not None
            and self.obs.metrics.enabled
        ):
            self.obs.metrics.counter(
                "sched.carried_launches", **self._labels(seg)
            ).inc(1)
        self._next_launch = seg.base + step + 1

    def _top_up(self) -> None:
        if not self._armed:
            self._arm()
        while self._next_launch <= self._consumed + self.depth:
            slot = self._slot(self._next_launch)
            if slot is None:
                break
            # The head-of-line batch may always launch (no deadlock);
            # deeper launches respect the carried-launch byte gate.
            if self._next_launch != self._consumed + 1 and not self._admit(*slot):
                break
            self._launch(*slot)

    # -- the trainer-facing protocol ---------------------------------------
    def start(self) -> None:
        """Fill the window for the epoch about to be consumed: the initial
        batch 0 .. depth-1 on a fresh scheduler, the rest of the window
        behind the carried head wave on a carried one."""
        self._top_up()

    def event(self, step: int):
        """The Process computing batch ``step``'s :class:`LoadedBatch`."""
        seg = self._segs[0]
        if seg.events[step] is None:
            # Only reachable if a caller skips the protocol or right after
            # a drain; keep the pipeline sound by launching on demand.
            self._top_up()
            if seg.events[step] is None:
                self._launch(seg, step)
        return seg.events[step]

    def advance(self, step: int) -> None:
        """Retire batch ``step`` (consumed) and top up the window."""
        seg = self._segs[0]
        if self._carry:
            self._in_flight_bytes -= self._batch_bytes(seg, step)
        seg.events[step] = None  # release the retired Process
        self._consumed = seg.base + step
        self._top_up()

    def drain(self) -> Generator:
        """Quiesce the window and rewind it to the consumed point.

        The reshard fence: a width change must not leave batch loads (or
        wave fetches) racing a store teardown, so the elastic coordinator
        drains the window — carried launches for the next epoch included
        — before the memory-to-memory shuffle.  Every in-flight launch is
        awaited, then forgotten: undelivered batches hand their arenas
        back, and the next ``start``/``event``/``advance`` refills the
        window (waves, Belady future and all) against whatever store the
        loader then points at.  Every rank drains at the same consumed
        step, so every rank re-opens the same waves and the node
        rendezvous of the new generation sees all its participants.
        Returns the number of launches awaited.
        """
        if self._node_fetch:
            # Wake node-fetch subscribers first: a wave proc here may be
            # waiting on a leader whose own wave never launched (launch
            # windows differ by up to the byte gate across ranks) — the
            # abort makes every pending wave self-sufficient before we
            # await it.
            from . import nodeagg

            nodeagg.abort(self._store)
        n = 0
        for seg in self._segs:
            for step, proc in enumerate(seg.events):
                if proc is not None:
                    loaded = yield proc
                    loaded.release()
                    seg.events[step] = None
                    n += 1
            for proc in seg.wave_procs.values():
                yield proc
                n += 1
            seg.wave_procs.clear()
        self._next_launch = self._consumed + 1
        self._in_flight_bytes = 0
        self._armed = False
        return n

    def finish(self) -> bool:
        """Close the consumed epoch: emit its metrics, retire its slice.

        Returns True when the window carries on — this scheduler now
        serves the next epoch (``start`` it) — and False when it ended
        with the epoch.
        """
        seg = self._segs[0]
        if self.obs is not None and self.obs.metrics.enabled and seg.launched:
            self.obs.metrics.counter("sched.launches", **self._labels(seg)).inc(
                seg.launched
            )
        if len(self._segs) == 1:
            return False
        self._segs.popleft()
        return True
