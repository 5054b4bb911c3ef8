"""The fetch pipeline: resolve → plan → fetch → sink, written once.

The paper's fetch is one short path — registry lookup, local memcpy,
``MPI_Win_lock``/``MPI_Get``/unlock for the rest (§3).  Every way this
repo moves sample bytes is that path with a different last step
(diagram and the stage × entry-point table: DESIGN.md §4c):

* **resolve** looks ids up in the registry and sorts them into local /
  fast-tier hit / NVMe-promote / wire / zero-size (:func:`_resolve`
  asks the handle's :class:`~.cache.TieredCache`),
* **plan** is one :class:`~.planner.FetchPlanner` entry point,
* **fetch** (:func:`fetch`) is the only wire-issue point in ``src/``,
* a **sink** takes whole batches of payloads to where the caller wants
  them: :class:`_RowSink` (``get_samples``), :class:`_ArenaSink`
  (``get_batch_arena``) and :class:`_ParkSink` (``prefetch_wave``).

Node-aggregated waves (``node_fetch``) are an extension on top of this
path: their driver and sink live in :mod:`.nodeagg`, which :func:`wave`
imports only when a wave takes that branch.

:class:`_Call` owns one call's accounting: it is the only place that
charges a stage, records its ``store.stage`` span, and publishes
:class:`~.stats.FetchStats` and the ``ddstore.*`` metric families.

Entry points take the *handle* they were invoked on (a ``DDStore`` or a
``session_view`` clone of one) and read its per-handle state — stats,
cache, lane, planner, transport, tenant labels, generation — so session
views need no second pipeline type.  Nothing here imports ``repro.core``.
"""

from __future__ import annotations

import dataclasses
from typing import Generator, Optional

import numpy as np

from ..graphs import SAMPLE_ALLOCATIONS, BatchArena
from ..storage import HEADER_NBYTES, SampleStats, decode_time, scatter_time, unpack_graph
from .cache import TierStats
from .retry import FetchTimeoutError, fetch_with_retry
from .transport import FetchOutcome

__all__ = ["assemble", "book", "fetch", "get_rows", "get_arena", "wave"]

# Modelled CPU cost of building a fetch plan (numpy sort + merge sweep).
_PLAN_BASE_S = 1.0e-6
_PLAN_S_PER_REQ = 1.0e-8


def _plan_seconds(n_requests: int) -> float:
    return _PLAN_BASE_S + _PLAN_S_PER_REQ * n_requests


def sample_ids(indices) -> np.ndarray:
    """``indices`` as a fresh ``int64`` array: the one
    ``np.asarray(list(indices), np.int64)`` builds, but an ndarray is
    copied directly instead of through one Python object per id."""
    if isinstance(indices, np.ndarray):
        return np.array(indices, dtype=np.int64)
    return np.asarray(list(indices), dtype=np.int64)


def _record(h, name: str, cat: str, start: float, **args) -> None:
    """Record a data-plane span on ``h``'s rank, ending now."""
    obs = h.comm.communicator.world.obs
    if obs.tracing:
        track, end = h.comm.world_rank, h.comm.engine.now
        obs.tracer.record(name, cat=cat, track=track, lane=1, start=start, end=end, **args)


# -- fetch: the one wire-issue point -----------------------------------------
def fetch(h, reads, n_streams: int) -> Generator:
    """Execute planned reads: (steer → tenant lane → ladder → transport)*.

    ``reads`` is the ``(n, 3)`` ``(target, offset, nbytes)`` array of a
    :class:`~.planner.FetchPlan`.  Every wire read in ``src/`` is issued
    here, by one loop: take
    *whatever targets of the plan are grantable right now*, issue exactly
    those reads as one sub-fetch (one lock epoch, one ``get_batch``),
    release their grants when it lands, repeat until the plan is done.
    A handle without a :class:`~repro.serving.TenantLane` is the same loop
    with everything grantable — one transport call per plan, the reads in
    plan order.  A session handle blocks only when *nothing* is grantable,
    inside ``lane.acquire`` and holding no grant; that wait is reported as
    the outcome's ``"queue"`` stage, one ``store.queue`` span per wait.

    With failover available and some rank marked (``h._health``), reads
    not yet issued are steered off the ranks to avoid before every grant
    round (a mark may land while the session queues), so grants are taken
    on the ranks that will actually serve.
    Returns ``(outcome, ladder)`` — ``ladder`` maps the resilience
    counters (``n_timeouts``/``n_retries``/``n_failovers``) to what this
    plan added; booking them is the caller's job.
    """
    lane, health = h._lane, h._health
    ladder: dict[str, int] = {}
    engine = h.comm.engine
    queue_wait = 0.0
    parts = []  # (rows of ``reads``, sub-fetch outcome)
    left = np.arange(len(reads))  # rows not yet issued
    if lane is not None:
        lane.enter()
    try:
        while left.size:
            if health:
                reads = _steer(h, reads, left, ladder)
            if lane is None:
                at, left = left, left[:0]
            else:
                # Bytes still to issue, per target (ascending).
                rows = reads if left.size == len(reads) else reads[left]
                aimed = rows[:, 0].tolist()
                want: dict[int, int] = {}
                for t, nbytes in zip(aimed, rows[:, 2].tolist()):
                    want[t] = want.get(t, 0) + nbytes
                t_queue = engine.now
                granted = yield from lane.acquire(dict(sorted(want.items())))
                if engine.now > t_queue:
                    queue_wait += engine.now - t_queue
                    _record(h, "store.queue", "store.stage", t_queue, tenant=h._tenant)
                if len(granted) == len(want):
                    at, left = left, left[:0]
                else:
                    ok = np.array([t in granted for t in aimed])
                    at, left = left[ok], left[~ok]
            try:
                sub = reads if at.size == len(reads) else reads[at]
                parts.append((at, (yield from _issue(h, sub, n_streams, ladder))))
            finally:
                if lane is not None:
                    lane.release(granted)
    finally:
        if lane is not None:
            lane.leave()
    if len(parts) == 1:
        outcome = parts[0][1]
    else:
        outcome = FetchOutcome(
            payloads=[None] * len(reads),
            latencies=np.zeros(len(reads), dtype=np.float64),
        )
        for at, part in parts:
            for i, payload in zip(at.tolist(), part.payloads):
                outcome.payloads[i] = payload
            if part.latencies is not None:
                outcome.latencies[at] = part.latencies
            for stage, seconds in part.stage_seconds.items():
                outcome.stage_seconds[stage] = outcome.stage_seconds.get(stage, 0.0) + seconds
    if queue_wait:
        outcome.stage_seconds["queue"] = outcome.stage_seconds.get("queue", 0.0) + queue_wait
    return outcome, ladder


def _steer(h, reads, left, ladder):
    """Reads go where they will be served: the not-yet-issued reads (rows
    ``left``) aimed at a rank the health table says to avoid move to its
    nearest healthy replica (none → they stay put, and the ladder will
    issue them unbounded).  Asked once per distinct target; on probation
    exactly one read — the target's first in ``left`` — is let through as
    the probe.  Every target is asked before any read is moved, so a rank
    put on probation by this call takes its probe and nothing else,
    whatever the numbering of the ranks.  Moves are counted as failovers."""
    now = h.comm.engine.now
    health = h._health
    aimed = reads[left, 0].tolist()
    rows: dict[int, list] = {}  # target -> its rows of ``left``, in order
    for i, t in enumerate(aimed):
        rows.setdefault(t, []).append(i)
    moves = []
    for target in sorted(rows):
        if health.avoid(target, now):
            move = rows[target]
        elif health.suspect(target, now):
            move = rows[target][1:]  # just put on probation: its first read is the probe
        else:
            continue
        if move:
            moves.append((target, move))
    steered = None
    for target, move in moves:
        dest = h._reroute(target)
        if dest is not None:
            if steered is None:
                steered = reads.copy()
            steered[left[move], 0] = dest
            ladder["n_failovers"] = ladder.get("n_failovers", 0) + len(move)
    return reads if steered is None else steered


def _issue(h, reads, n_streams: int, ladder: dict) -> Generator:
    """One sub-fetch: through the retry/failover ladder when resilience is
    enabled (its counters added to ``ladder``), else straight to the
    transport — where a read reported as timed out is an error (there is
    no retry budget)."""
    policy = h._retry_policy
    if policy is None:
        outcome = yield from h.transport.fetch(reads, n_streams=n_streams)
        timed_out = outcome.timed_out
        if timed_out is not None and timed_out.any():
            raise FetchTimeoutError(
                f"{int(timed_out.sum())} read(s) timed out "
                "(resilience disabled; no retry budget)"
            )
        return outcome
    out = yield from fetch_with_retry(
        h.transport,
        reads,
        policy=policy,
        engine=h.comm.engine,
        n_streams=n_streams,
        reroute=h._reroute if h._health is not None else None,
        health=h._health,
        obs=h.comm.communicator.world.obs,
        track=h.comm.world_rank,
    )
    for name in ("n_timeouts", "n_retries", "n_failovers"):
        ladder[name] = ladder.get(name, 0) + getattr(out, name)
    return out.outcome


def assemble(plan, outcome, blobs, latencies) -> None:
    """Reassemble per-sample payloads out of the reads' payloads.

    A sample that arrived in one slice is handed out as a read-only view
    of its read's payload (for the shipped transports itself a view of the
    owner's piece of it: a read across samples is a ``Pieces`` of views,
    sliced here per sample, never gathered) — no copy; one split across
    reads is stitched into a fresh buffer.
    """
    read, position, sample_offset, read_offset, nbytes = plan.slices.T
    if not read.size:
        return
    payloads = outcome.payloads
    n_slices = np.bincount(position, minlength=len(blobs))
    whole = n_slices[position] == 1
    stitching = np.count_nonzero(whole) < whole.size
    if stitching:
        totals = np.zeros(len(blobs), dtype=np.int64)
        segment_max(totals, position, sample_offset + nbytes, single=False)
    for r, p, at, lo, nb, one in zip(
        read.tolist(), position.tolist(), sample_offset.tolist(),
        read_offset.tolist(), nbytes.tolist(), whole.tolist(),
    ):
        piece = payloads[r][lo : lo + nb]
        if one:
            blobs[p] = piece
        else:
            if blobs[p] is None:
                blobs[p] = np.empty(totals[p], dtype=np.uint8)
            blobs[p][at : at + nb] = piece
    if stitching:
        for p in np.flatnonzero(n_slices > 1).tolist():
            blobs[p].setflags(write=False)  # complete now, so immutable like the rest
    SAMPLE_ALLOCATIONS.bump(np.count_nonzero(n_slices))  # row blobs, views included
    if outcome.latencies is not None:
        segment_max(latencies, position, outcome.latencies[read], single=not stitching)


def segment_max(out: np.ndarray, position: np.ndarray, values: np.ndarray, single: bool) -> None:
    """``np.maximum.at(out, position, values)`` without ``ufunc.at``.

    ``single`` says no position repeats (every sample arrived in one
    slice): then it is one fancy assignment.  Otherwise the values are
    sorted stably by position once and each position's run is reduced
    with ``np.maximum.reduceat``.  ``max`` is exact, so either way the
    result is bit-identical to the ``ufunc.at`` loop.
    """
    if single:
        out[position] = np.maximum(out[position], values)
        return
    order = np.argsort(position, kind="stable")
    ordered = position[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    first = ordered[starts]
    out[first] = np.maximum(out[first], np.maximum.reduceat(values[order], starts))


def _strip_header(blob: np.ndarray) -> np.ndarray:
    """A packed row's column bytes — what columnar stores park, publish
    and scatter from (the arena map addresses them from ``HEADER_NBYTES``)."""
    return blob[HEADER_NBYTES:]


# -- accounting: one call's stages, spans, stats and metrics -----------------
#: The ``FetchStats`` counters the deltas of :func:`_cache_mark` land in.
_CACHE_COUNTERS = ("n_cache_hits", "n_cache_misses", "n_cache_evictions", "bytes_cache_hits")
#: The ``ddstore.tier`` counters, in the order of :func:`_tier_mark`'s values.
_TIER_COUNTERS = tuple(f.name for f in dataclasses.fields(TierStats))
_NO_TIER = (0,) * len(_TIER_COUNTERS)


def _cache_mark(cache) -> tuple:
    """The cumulative cache counters a demand call books deltas of:
    hits, misses, evictions, hit bytes."""
    st = cache.stats
    return st.hits, st.misses, st.evictions, st.hit_bytes


def _tier_mark(cache) -> dict:
    """Every tier's cumulative counters, as ``{tier: values}``."""
    return {tier: tuple(vars(ts).values()) for tier, ts in cache.tier_stats.items()}


def counter_marks(cache) -> tuple:
    """What a fresh handle on ``cache`` books its first deltas against:
    ``(_cache_mark, _tier_mark)``.  The cache's counters are cumulative and
    outlive a ``FetchStats`` reset, so handles publish deltas, never
    totals."""
    return _cache_mark(cache), _tier_mark(cache)


class _Call:
    """Accounting of one pipeline call on handle ``h``.

    With depth-k prefetch several calls interleave on one handle, so
    metric deltas come from this call's own charges (``stages``) and
    counts (``counts``), never from a snapshot of the shared
    :class:`~.stats.FetchStats`.  ``wave`` calls book stage time to
    ``prefetch_stage_seconds`` and publish to ``ddstore.prefetch`` — wave
    time overlaps compute, so it stays out of the demand breakdown.
    """

    def __init__(self, h, wave: bool = False) -> None:
        self.h = h
        self.stats = h.stats
        self.engine = h.comm.engine
        obs = h.comm.communicator.world.obs
        self.metrics = obs.metrics
        self.tracer = obs.tracer  # None when tracing is off
        self.track = h.comm.world_rank
        self.t_start = self.engine.now
        self.wave = wave
        self.stages: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.labels = {"tenant": h._tenant, "qos": h._qos} if h._tenant else {}
        # The handle's published counters by (family, label values, name):
        # repeat publishes skip the registry's keyword lookup.  Started
        # afresh when the world's registry is not the one they came from.
        registry, self.published = h._published
        if registry is not self.metrics:
            self.published = {}
            h._published = (self.metrics, self.published)

    def record(self, name: str, cat: str, start: float, **args) -> None:
        """Record a span of this call's rank, ending now (tracing only)."""
        if self.tracer is not None:
            self.tracer.record(
                name, cat=cat, track=self.track, lane=1, start=start, end=self.engine.now, **args
            )

    def charge(self, stage: str, seconds: float) -> None:
        if seconds:
            book = self.stats.add_prefetch_stage if self.wave else self.stats.add_stage
            book(stage, seconds)
            self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    def count(self, name: str, n: int) -> None:
        """Add ``n`` to this call's ``name`` counter, and to the handle's
        ``FetchStats`` when it has that field (``n_promoted`` is
        metrics-only)."""
        if n:
            self.counts[name] = self.counts.get(name, 0) + n
            fields = self.stats.__dict__
            if name in fields:
                fields[name] += n

    def spend(self, stage: str, seconds: float, **args) -> Generator:
        """Wait out ``seconds`` of ``stage`` work, charge it, and record its
        ``store.stage`` span — the only place that does either."""
        t0 = self.engine.now
        yield self.engine.timeout(seconds)
        self.charge(stage, seconds)
        if self.tracer is not None:
            self.record(f"store.{stage}", "store.stage", t0, **args)

    def fetch(self, plan, n_streams: int) -> Generator:
        """The fetch stage for one plan: wire-issue, count, charge, trace."""
        t0 = self.engine.now
        outcome, ladder = yield from fetch(self.h, plan.reads, n_streams)
        n_reads, nbytes = plan.n_reads, plan.total_bytes
        self.record("store.fetch", "store.stage", t0, n_reads=n_reads, nbytes=nbytes)
        self.count("n_get_calls", n_reads)
        self.count("bytes_transferred", nbytes)
        for name, n in ladder.items():
            self.count(name, n)
        for stage, seconds in outcome.stage_seconds.items():
            self.charge(stage, seconds)
        return outcome

    def publish(self, family: str, counters, key: str = "counter", **labels) -> None:
        """Add each nonzero ``(name, value)`` of ``counters`` to the
        ``family`` series labelled ``key=name``, this rank and ``labels``."""
        m = self.metrics
        if m.enabled:
            memo, series = self.published, (family, *labels.values())
            for cname, val in counters:
                if val:
                    inst = memo.get((series, cname))
                    if inst is None:
                        inst = memo[series, cname] = m.counter(
                            family, **{key: cname}, rank=self.track, **labels
                        )
                    inst.inc(val)

    def finish(self, span: str, n_samples: int, **span_args) -> None:
        """Close the call: publish its counts (``ddstore.fetch`` |
        ``ddstore.prefetch``), the tier deltas (``ddstore.tier``), the
        tenant roll-up (``ddstore.tenant``) and the call-level span."""
        h, m = self.h, self.metrics
        family = "ddstore.prefetch" if self.wave else "ddstore.fetch"
        self.publish(family, self.counts.items(), generation=h.generation)
        if m.enabled and h.cache.enabled:
            base, marks = h._tier_base, _tier_mark(h.cache)
            for tier, values in marks.items():
                was = base.get(tier)
                if values == was:
                    continue
                deltas = [
                    (name, value - old)
                    for name, value, old in zip(_TIER_COUNTERS, values, was or _NO_TIER)
                ]
                self.publish("ddstore.tier", deltas, tier=tier)
            h._tier_base = marks
        if h._tenant is not None:
            rollup = dict(
                n_samples=n_samples,
                fetch_seconds=self.engine.now - self.t_start,
                wire_bytes=self.counts.get("bytes_transferred", 0),
                queue_seconds=self.stages.get("queue", 0.0),
            )
            qos = h._qos or "default"
            self.publish("ddstore.tenant", rollup.items(), tenant=h._tenant, qos=qos)
        self.record(span, "store", self.t_start, n=n_samples, **span_args, **self.labels)

    def finish_demand(self, span: str, latencies) -> None:
        """Book a demand call (its n_local/n_remote/bytes_* already counted).

        ``latencies`` becomes one entry of ``FetchStats.latencies``.  The
        caller returns right after this, with no engine yield in between,
        so ``stats.latencies[-1]`` read after the call is its own array
        even when depth-k prefetch interleaves other calls on the handle.
        """
        h = self.h
        # Cache counters accumulate as deltas against the last snapshot: the
        # cache's own stats are cumulative and shared across stats resets.
        marks = _cache_mark(h.cache)
        for name, value, old in zip(_CACHE_COUNTERS, marks, h._cache_base):
            self.count(name, value - old)
        h._cache_base = marks
        self.stats.latencies.append(latencies)
        self.publish("ddstore.stage_seconds", self.stages.items(), key="stage", generation=h.generation)
        got = self.counts.get
        self.finish(
            span, int(latencies.size), n_local=got("n_local", 0),
            n_remote=got("n_remote", 0), n_cache_hits=got("n_cache_hits", 0),
        )

    def finish_wave(self, n_parked: int, n_promoted: int, n_batches: int, **span_args) -> None:
        self.count("n_prefetch_waves", 1)
        self.count("n_prefetched", n_parked)
        self.count("n_promoted", n_promoted)
        wire = self.counts.get("bytes_transferred", 0)
        self.count("bytes_prefetched", wire)
        self.finish(
            "store.prefetch_wave", n_parked, n_reads=self.counts.get("n_get_calls", 0),
            nbytes=wire, n_batches=n_batches, **span_args,
        )


def book(h, counters: dict) -> None:
    """Book ``counters`` (name → n) of a fetch made outside a demand or
    wave call — a reshard's bulk reads and their retry ladder — on ``h``'s
    ``FetchStats`` and its ``ddstore.fetch`` family."""
    call = _Call(h)
    for name, n in counters.items():
        call.count(name, n)
    call.publish("ddstore.fetch", call.counts.items(), generation=h.generation)


# -- resolve -----------------------------------------------------------------
def _resolve(cache, idx, remote, latencies):
    """Sort a demand call's remote positions into fast-tier hits
    (``(position, payload)`` pairs, plus their summed cost), NVMe
    promotions (``keys, positions``) and full misses."""
    fast_get, on_nvme = cache.fast_get, cache.nvme_resident
    hits: list[tuple] = []
    hit_costs: list[float] = []
    promote: tuple[list, list] = ([], [])
    missed = []
    cache_time = 0.0
    remote = remote.tolist()
    for p, key in zip(remote, idx[remote].tolist()):
        hit = fast_get(key)
        if hit is not None:
            payload, cost = hit
            hits.append((p, payload))
            hit_costs.append(cost)
            cache_time += cost
        elif on_nvme(key):
            promote[0].append(key)
            promote[1].append(p)
        else:
            cache.count_miss()
            missed.append(p)
    if hits:
        latencies[[p for p, _ in hits]] = hit_costs
    return hits, cache_time, promote, np.asarray(missed, dtype=np.int64)


def _remote_demand(h, batches, group_rank: int):
    """Per non-empty batch, the ``(keys, owners, offsets, sizes)`` of the
    samples group member ``group_rank`` must fetch: not its own, not
    zero-size, each id once across the whole wave (first occurrence)."""
    located = []
    for batch in batches:
        idx = sample_ids(batch)
        if idx.size == 0:
            continue
        owners, offsets, sizes = h.registry.locate_batch(idx)
        want = ((owners != group_rank) & (sizes != 0)).nonzero()[0]
        located.append((idx[want], owners[want], offsets[want], sizes[want]))
    if not located:
        return []
    # One pass over the wave's ids (wave-sized work, whatever the dataset).
    ids = np.concatenate([part[0] for part in located])
    first = np.zeros(ids.size, dtype=bool)
    first[np.unique(ids, return_index=True)[1]] = True
    cuts = np.cumsum([part[0].size for part in located])[:-1]
    return [
        tuple(col[keep] for col in part)
        for part, keep in zip(located, np.split(first, cuts))
    ]


# -- sinks -------------------------------------------------------------------
#: The row blob of every zero-size sample: read-only like every other blob.
_EMPTY = np.zeros(0, dtype=np.uint8)
_EMPTY.setflags(write=False)


class _RowSink:
    """Row decode: per-sample blobs, deserialised at the end
    (``decode=False`` → header-only :class:`SampleStats`, ``"raw"`` → the
    packed bytes with no decode charged)."""

    column = False

    def __init__(self, h, idx, decode) -> None:
        self.h, self.idx, self.decode = h, idx, decode
        self.blobs: list[Optional[np.ndarray]] = [None] * idx.size
        self.sizes = None  # set by the demand driver once the batch is located

    def local(self, positions, buf, offsets) -> None:
        blobs = self.blobs
        views = buf.views(offsets[positions].tolist(), self.sizes[positions].tolist())
        for p, view in zip(positions.tolist(), views):
            blobs[p] = view
        SAMPLE_ALLOCATIONS.bump(int(positions.size))

    def place(self, found) -> None:
        for p, payload in found:
            self.blobs[p] = payload
        SAMPLE_ALLOCATIONS.bump(len(found))

    def empty(self, positions) -> None:
        for p in positions:
            self.blobs[p] = _EMPTY

    def wire(self, plan, outcome, latencies, positions) -> None:
        assemble(plan, outcome, self.blobs, latencies)
        cache = self.h.cache
        if cache.enabled and not cache.columnar:  # whole records park in a row cache only
            blobs = self.blobs
            cache.put_many(self.idx[positions].tolist(), [blobs[p] for p in positions.tolist()])

    def finish(self, call: _Call, latencies, workers: int) -> Generator:
        if self.decode == "raw":
            return self.blobs
        machine = self.h._machine
        dec = decode_time(machine, self.sizes)  # elementwise: one float per sample
        yield from call.spend("decode", float(dec.sum()) / workers, n=int(self.idx.size))
        latencies += dec
        if self.decode:
            SAMPLE_ALLOCATIONS.bump(len(self.blobs))
            return [unpack_graph(b) for b in self.blobs]
        return SampleStats.from_blobs(self.blobs)


class _ArenaSink:
    """Arena scatter: scatter destinations — ``(field, offset)`` pairs in
    the arena's preallocated buffers — derive from the registry's shape
    index *before* any bytes move, so local copies, cache hits, promoted
    shards and wire payloads all land directly in their final batch
    position.  No per-sample ndarray is ever allocated."""

    column = True

    def __init__(self, h, idx, arena: BatchArena) -> None:
        shapes = h.registry.shapes
        sids, nn, ne = h.registry.shape_batch(idx)
        arena.reset(nn, ne, shapes.feature_dim, shapes.output_dim, sids)
        self.h, self.idx, self.arena = h, idx, arena
        self.smap = h.planner.plan_arena(nn, ne, shapes.feature_dim, shapes.output_dim)
        self.fields = tuple(arena.field_bytes[name] for name in BatchArena._FIELDS)
        self.sizes = None  # set by the demand driver once the batch is located

    def local(self, positions, buf, offsets) -> None:
        scatter, fields, sizes = self.smap.scatter, self.fields, self.sizes[positions].tolist()
        views = buf.views(offsets[positions].tolist(), sizes)
        for p, nb, view in zip(positions.tolist(), sizes, views):
            scatter(p, 0, nb, view, fields)

    def place(self, found) -> None:
        # Column payloads start where the record header would end.
        scatter, fields = self.smap.scatter, self.fields
        for p, payload in found:
            scatter(p, HEADER_NBYTES, HEADER_NBYTES + int(payload.nbytes), payload, fields)

    def empty(self, positions) -> None:
        pass

    def wire(self, plan, outcome, latencies, positions) -> None:
        scatter, fields = self.smap.scatter, self.fields
        cache, keys, payloads = self.h.cache, self.idx, outcome.payloads
        read, position, sample_offset, read_offset, nbytes = plan.slices.T
        # A whole sample in one slice parks its column bytes for future
        # arena batches.
        whole = (sample_offset == 0) & (nbytes == self.sizes[position])
        park_keys, park_payloads = [], []
        for r, p, at, lo, nb, one in zip(
            read.tolist(), position.tolist(), sample_offset.tolist(),
            read_offset.tolist(), nbytes.tolist(), whole.tolist(),
        ):
            piece = payloads[r][lo : lo + nb]
            scatter(p, at, at + nb, piece, fields)
            if one:
                park_keys.append(int(keys[p]))
                park_payloads.append(_strip_header(piece))
        if cache.enabled:
            cache.put_many(park_keys, park_payloads)
        if outcome.latencies is not None:
            segment_max(latencies, position, outcome.latencies[read], single=bool(whole.all()))

    def finish(self, call: _Call, latencies, workers: int) -> Generator:
        arena, smap, n = self.arena, self.smap, self.idx.size
        arena.shift_edges()
        nbytes = int(self.sizes.sum()) + int(arena.edge_index.nbytes)
        wait = scatter_time(self.h._machine, nbytes, smap.n_segments) / workers
        yield from call.spend("scatter", wait, n=int(n), n_segments=smap.n_segments)
        latencies += wait / n
        return latencies


class _ParkSink:
    """Cache park: wave payloads land in the handle's cache in its one
    format — whole blobs on row stores, header-stripped column bytes on
    columnar ones."""

    def __init__(self, h) -> None:
        self.h = h
        self.columnar = h.cache.columnar
        self.n_parked = 0

    def stage_up(self, call: _Call, keys) -> Generator:
        """Lift NVMe-resident ``keys`` into the fast tiers ahead of demand
        (the wave paths' "promote" stage).  Returns how many moved."""
        n, wall = self.h.cache.stage_up(keys, call.engine.now)
        if wall:
            yield from call.spend("promote", wall, n=n)
        return n

    def payloads(self, plan, outcome) -> list:
        blobs: list = [None] * plan.n_requests
        assemble(plan, outcome, blobs, np.zeros(plan.n_requests))
        return [_strip_header(b) for b in blobs] if self.columnar else blobs

    def park(self, keys, payloads) -> None:
        self.h.cache.put_many(keys, payloads)
        self.n_parked += len(keys)

    def wire(self, keys, plan, outcome) -> None:
        self.park(keys, self.payloads(plan, outcome))


# -- entry points ------------------------------------------------------------
def _demand(h, idx, sink, n_workers: int, span: str) -> Generator:
    """One demand call: promote → plan → fetch → copy → cache → decode|scatter."""
    call = _Call(h)
    workers = max(1, n_workers)
    owners, offsets, sizes = h.registry.locate_batch(idx)
    sink.sizes = sizes
    local_mask = owners == h.group_comm.rank
    latencies = np.zeros(idx.size, dtype=np.float64)

    # -- local samples: straight memcpy out of the own pieces --------------
    local = local_mask.nonzero()[0]
    local_time = 0.0
    if local.size:
        sink.local(local, h.transport.local_buffer(), offsets)
        copy_times = h._local_copy_base + sizes[local] / h._local_copy_bw
        latencies[local] = copy_times
        local_time = float(copy_times.sum())

    # -- remote samples: resolve against the cache -------------------------
    # A read in the other format than the cache's (a row read of a
    # columnar store) goes straight to the wire.
    wanted = (~local_mask).nonzero()[0]
    cache_time = 0.0
    if h.cache.enabled and sink.column == h.cache.columnar and wanted.size:
        hits, cache_time, (promote_keys, promote_at), wanted = _resolve(
            h.cache, idx, wanted, latencies
        )
        if hits:
            sink.place(hits)
        if promote_keys:
            # One batched NVMe→DRAM read for the whole call.
            results, wall = h.cache.promote_batch(promote_keys, call.engine.now)
            if wall:
                yield from call.spend("promote", wall, n=len(promote_keys))
            sink.place([(p, results[k]) for p, k in zip(promote_at, promote_keys)])
            latencies[promote_at] = wall

    # Zero-size samples need no bytes on the wire, but they are still
    # remote samples this call served — count them as such.
    n_zero = 0
    if wanted.size:
        zero = sizes[wanted] == 0
        if np.count_nonzero(zero):
            sink.empty(wanted[zero])
            n_zero = int(zero.sum())
            wanted = wanted[~zero]

    if wanted.size:
        plan = h.planner.plan(
            owners[wanted] + h._group_base, offsets[wanted], sizes[wanted], positions=wanted
        )
        yield from call.spend("plan", _plan_seconds(int(wanted.size)), n_reads=plan.n_reads)
        outcome = yield from call.fetch(plan, workers)
        sink.wire(plan, outcome, latencies, wanted)

    if local_time:
        yield from call.spend("copy", local_time / workers, n=int(local.size))
    if cache_time:
        yield from call.spend("cache", cache_time / workers)
    result = yield from sink.finish(call, latencies, workers)
    call.count("n_local", int(local.size))
    call.count("n_remote", int(wanted.size) + n_zero)
    call.count("bytes_local", int(sizes[local].sum()))
    call.count("bytes_remote", int(sizes[wanted].sum()))
    call.finish_demand(span, latencies)
    return result


def get_rows(h, idx, decode, n_workers: int) -> Generator:
    """``DDStore.get_samples`` for a non-empty id array."""
    return (yield from _demand(h, idx, _RowSink(h, idx, decode), n_workers, "store.get_samples"))


def get_arena(h, idx, arena: BatchArena, n_workers: int) -> Generator:
    """``DDStore.get_batch_arena``: resets ``arena`` to the batch's shape,
    fills it, returns the per-sample latency array."""
    sink = _ArenaSink(h, idx, arena)
    if idx.size == 0:
        return np.zeros(0, dtype=np.float64)
    return (yield from _demand(h, idx, sink, n_workers, "store.get_batch"))


def wave(h, batch_indices, n_workers: int, window) -> Generator:
    """``DDStore.prefetch_wave``: promote → plan → fetch → park."""
    if not h.cache.enabled:
        return 0
    if window is not None and h.config.dataplane.node_fetch:
        from . import nodeagg  # the extension imports this module

        return (yield from nodeagg.node_wave(h, batch_indices, n_workers, window))
    call = _Call(h, wave=True)
    sink = _ParkSink(h)
    resident, on_nvme = h.cache.fast_resident, h.cache.nvme_resident
    groups, keys, stage_keys = [], [], []
    for ids, owners, offsets, sizes in _remote_demand(h, batch_indices, h.group_comm.rank):
        want = []
        for i, key in enumerate(ids.tolist()):
            if resident(key):
                continue
            if on_nvme(key):
                # Resident one tier down: no wire read needed — stage the
                # bytes upward ahead of demand instead.
                stage_keys.append(key)
                continue
            want.append(i)
            keys.append(key)
        if want:
            groups.append((owners[want] + h._group_base, offsets[want], sizes[want]))
    if not groups and not stage_keys:
        return 0

    n_promoted = 0
    if stage_keys:
        n_promoted = yield from sink.stage_up(call, stage_keys)
    if groups:
        plan = h.planner.plan_batches(groups)
        yield from call.spend("plan", _plan_seconds(plan.n_requests), n_reads=plan.n_reads)
        # One issuing stream per wave batch (times the per-batch worker
        # count): the wave replaces that many concurrent ``get_samples``
        # pipelines, so it gets the same software-path concurrency.
        outcome = yield from call.fetch(plan, max(1, n_workers) * len(groups))
        sink.wire(keys, plan, outcome)
    n_parked = sink.n_parked + n_promoted
    span_args = {"epoch": window.epoch} if window is not None else {}
    call.finish_wave(n_parked, n_promoted, len(groups), **span_args)
    return n_parked
