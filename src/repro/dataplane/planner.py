"""Fetch planning: group by owner, coalesce adjacent ranges, split big reads.

The seed issued one logical get per requested sample.  Globally-shuffled
mini-batches still contain runs of samples that are contiguous in their
owner's chunk buffer (and resharding fetches whole spans), so the planner
turns a batch of per-sample ``(target, offset, nbytes)`` requests into a
smaller set of wire reads — one array-valued :class:`FetchPlan`:

1. requests are grouped per target rank (one lock epoch per target),
2. byte ranges that touch or overlap are merged into one read — duplicate
   requests for the same sample collapse into a single transfer,
3. merged spans larger than ``max_read_bytes`` are cut back into several
   reads so one giant get cannot monopolise a NIC stream.

The plan's ``slices`` rows are scatter records mapping each read's payload
bytes back to the requesting positions, so callers can reassemble samples
in request order (including samples split across reads).  Planning is a
fixed number of array operations — no Python object per read or slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..graphs.graph import field_nbytes
from ..storage.serialization import HEADER_NBYTES

__all__ = [
    "FetchPlan",
    "FetchPlanner",
    "NodeWavePlan",
    "ArenaScatterMap",
    "arena_segments",
    "plan_promotions",
]

#: Field order shared with the batch arena: id is the index into this tuple.
ARENA_FIELDS = ("positions", "node_features", "edge_index", "y")


class ArenaScatterMap:
    """Precomputed (field, arena_offset) destinations for one batch.

    For every request position the map holds byte segments
    ``(src_lo, src_hi, field_id, dest_lo)``: bytes ``[src_lo, src_hi)`` of
    that sample's packed row record land at ``dest_lo`` inside arena field
    ``field_id``.  A sample contributes up to five segments — positions,
    features, edge sources, edge targets (the two edge planes interleave
    across samples in the arena), and y.  Because destinations are pure
    functions of the batch's shape table, the payload views a fetch
    recorded on a :class:`~repro.graphs.BatchArena` scatter straight into
    it, on its first field read, with no per-sample decode or allocation.

    Segments are stored CSR-style in four parallel columns bounded by
    ``_ptr`` (one row span per position), as :meth:`FetchPlanner.plan_arena`
    builds them: building the map is a handful
    of vectorized array ops plus one bulk ``tolist`` instead of a
    per-position Python loop.  The columns live as plain Python lists —
    :meth:`scatter` runs per (position, payload slice) over rows of at
    most five segments, where native ints beat numpy's per-call
    overhead.
    """

    def __init__(
        self,
        ptr: np.ndarray,
        src_lo: np.ndarray,
        src_hi: np.ndarray,
        field_id: np.ndarray,
        dest_lo: np.ndarray,
    ) -> None:
        self._ptr = np.asarray(ptr).tolist()
        self._src_lo = np.asarray(src_lo).tolist()
        self._src_hi = np.asarray(src_hi).tolist()
        self._field_id = np.asarray(field_id).tolist()
        self._dest_lo = np.asarray(dest_lo).tolist()
        self.n_segments = len(self._src_lo)

    def scatter(
        self,
        position: int,
        sample_lo: int,
        sample_hi: int,
        src,
        fields: Sequence[np.ndarray],
    ) -> int:
        """Scatter sample bytes ``[sample_lo, sample_hi)`` into the arena.

        ``src`` holds exactly that byte range of the packed sample (a
        payload slice — possibly a partial sample when a planned read was
        split); ``fields`` are the arena's flat uint8 field buffers in
        :data:`ARENA_FIELDS` order.  Returns bytes written (header bytes
        and out-of-range spans are skipped).
        """
        src_arr = src if isinstance(src, np.ndarray) else np.frombuffer(src, np.uint8)
        a, b = self._ptr[position], self._ptr[position + 1]
        src_lo, src_hi = self._src_lo, self._src_hi
        written = 0
        for i in range(a, b):
            lo = src_lo[i]
            if lo < sample_lo:
                lo = sample_lo
            hi = src_hi[i]
            if hi > sample_hi:
                hi = sample_hi
            if lo >= hi:
                continue
            dest = self._dest_lo[i] + (lo - src_lo[i])
            fields[self._field_id[i]][dest : dest + (hi - lo)] = src_arr[
                lo - sample_lo : hi - sample_lo
            ]
            written += hi - lo
        return written


def _segment_nbytes(nn: np.ndarray, ne: np.ndarray, feature_dim: int, output_dim: int):
    """Byte length of each sample's five candidate arena segments, a
    ``(P, 5)`` table in packed-record order: positions, features, edge
    sources, edge targets, y.  A zero entry is a segment that does not
    exist."""
    pos_nb, feat_nb, edge_nb, y_nb = field_nbytes(nn, ne, feature_dim, output_dim)
    edge_nb = edge_nb // 2  # one plane: sources, then targets
    return np.stack(
        [pos_nb, feat_nb, edge_nb, edge_nb, np.full(nn.size, y_nb, np.int64)], axis=1
    )


def arena_segments(node_counts, edge_counts, feature_dim: int, output_dim: int) -> int:
    """How many segments a batch of this shape scatters through its
    :class:`ArenaScatterMap` — the count the ``scatter`` stage is charged
    for, read without building the map."""
    nn = np.asarray(node_counts, dtype=np.int64)
    ne = np.asarray(edge_counts, dtype=np.int64)
    return int(np.count_nonzero(_segment_nbytes(nn, ne, feature_dim, output_dim)))


@dataclass(frozen=True, eq=False)
class FetchPlan:
    """The full set of reads covering one batch of sample requests.

    ``reads`` is what transports consume — one ``(target, offset, nbytes)``
    row per wire operation, in issue order.  ``slices`` maps payload bytes
    back to requests: row ``(read, position, sample_offset, read_offset,
    nbytes)`` says bytes ``[read_offset, read_offset + nbytes)`` of read
    ``read``'s payload are bytes ``[sample_offset, ...)`` of the sample the
    caller labelled ``position``.  Rows are sorted by ``read`` (CSR order)
    and every row moves at least one byte.
    """

    reads: np.ndarray  # (n_reads, 3) int64
    slices: np.ndarray  # (n_slices, 5) int64
    n_requests: int

    @property
    def n_reads(self) -> int:
        return len(self.reads)

    @property
    def total_bytes(self) -> int:
        """Bytes actually moved over the wire (deduplicated)."""
        return int(self.reads[:, 2].sum())


def _columns(*columns) -> np.ndarray:
    """Row-major int64 table with the given columns (a scalar broadcasts)."""
    table = np.empty((columns[0].size, len(columns)), np.int64)
    for i, column in enumerate(columns):
        table[:, i] = column
    return table


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Boolean mask of where a new run of equal ``keys`` begins."""
    starts = np.empty(keys.size, bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


@dataclass(frozen=True)
class NodeWavePlan:
    """The node-scope merge of one wave's per-rank fetch plans.

    Built once per (node, wave) from the peers' deterministic schedules —
    no cache or arrival-order state, so every rank would compute the
    identical plan.  ``leader_of`` assigns each deduplicated sample to
    the participant elected for its owner *member* (the owner itself
    first, see :meth:`FetchPlanner.plan_node_wave`): that leader issues
    the single wire read against its own replica group's member — chunk
    contents are identical across groups, so any subscriber's batch sees
    the same bytes.
    """

    participants: tuple[int, ...]
    demand: dict  # rank -> tuple of sample keys it needs remotely (plan order)
    demand_bytes: dict  # rank -> total bytes of that demand
    leader_of: dict  # sample key -> leader rank
    led: dict  # leader rank -> list of sample keys it reads + publishes
    meta: dict  # sample key -> (owner_member, offset, nbytes)
    n_union: int  # deduplicated node-scope sample count
    union_bytes: int  # deduplicated node-scope byte demand


class FetchPlanner:
    """Plans remote fetches for a transport.

    ``coalesce=False`` reproduces the seed behaviour exactly: one read per
    request, in request order, no splitting.  ``max_read_bytes`` (only
    honoured when coalescing) bounds the size of any single read; spans —
    and single oversized samples — larger than that are split.

    ``fair_interleave=True`` reorders the finished plan round-robin
    across targets (read 0 of every target, then read 1, ...) instead of
    the grouped-by-owner order.  The multi-tenant serving layer plans
    with this on: a tenant's fetch then finishes with — and releases the
    DRR grant of — each target as early as possible, instead of holding
    its last target's grant while the first targets sit drained.  The
    read *set* is identical either way; only issue order changes.
    """

    def __init__(
        self,
        coalesce: bool = True,
        max_read_bytes: Optional[int] = None,
        fair_interleave: bool = False,
    ) -> None:
        if max_read_bytes is not None and max_read_bytes < 1:
            raise ValueError(f"max_read_bytes must be positive, got {max_read_bytes}")
        self.coalesce = coalesce
        self.max_read_bytes = max_read_bytes
        self.fair_interleave = fair_interleave

    def plan(
        self,
        targets: Sequence[int] | np.ndarray,
        offsets: Sequence[int] | np.ndarray,
        sizes: Sequence[int] | np.ndarray,
        positions: Optional[Sequence[int] | np.ndarray] = None,
    ) -> FetchPlan:
        """Build a plan for per-request ``(target, offset, size)`` arrays.

        ``positions`` labels each request for the scatter records (default:
        its index in the input arrays).  Zero-size requests produce no
        slices; callers should pre-fill their payloads as empty.
        """
        targets = np.asarray(targets, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        n = targets.size
        if not (offsets.size == n and sizes.size == n):
            raise ValueError("targets/offsets/sizes must have equal length")
        if positions is None:
            positions = np.arange(n, dtype=np.int64)
        else:
            positions = np.asarray(positions, dtype=np.int64)
            if positions.size != n:
                raise ValueError("positions must match the request arrays")
        if n == 0:
            return FetchPlan(np.zeros((0, 3), np.int64), np.zeros((0, 5), np.int64), 0)
        if self.coalesce:
            reads, slices = self._coalesced(targets, offsets, sizes, positions)
        else:
            # One read per request, in request order.  Zero-size requests
            # keep their degenerate read (position accounting) but carry no
            # slice, matching the coalescing path.
            reads = _columns(targets, offsets, sizes)
            member = sizes.nonzero()[0]
            slices = _columns(member, positions[member], 0, 0, sizes[member])
        return FetchPlan(*self._interleaved(reads, slices), n)

    def _interleaved(self, reads: np.ndarray, slices: np.ndarray):
        """Apply the fairness interleave (round-robin across targets):
        reads sort by (depth within their target, target)."""
        n = len(reads)
        if not self.fair_interleave or n < 3:
            return reads, slices
        target = reads[:, 0]
        index = np.arange(n)
        by_target = target.argsort(kind="stable")
        run_first = np.maximum.accumulate(index * _run_starts(target[by_target]))
        depth = np.empty(n, np.int64)
        depth[by_target] = index - run_first
        order = np.lexsort((target, depth))
        moved_to = np.empty(n, np.int64)
        moved_to[order] = index
        read = moved_to[slices[:, 0]]
        by_read = read.argsort(kind="stable")
        slices = slices[by_read]
        slices[:, 0] = read[by_read]
        return reads[order], slices

    def plan_batches(
        self,
        groups: Sequence[
            tuple[
                Sequence[int] | np.ndarray,
                Sequence[int] | np.ndarray,
                Sequence[int] | np.ndarray,
            ]
        ],
    ) -> FetchPlan:
        """Plan several upcoming batches' requests as one cross-batch window.

        ``groups`` is one ``(targets, offsets, sizes)`` triple per batch;
        the window is planned as a single coalescing pass, so byte ranges
        that touch or overlap *across batch boundaries* merge into one wire
        read, and a sample requested by two different batches is fetched
        once with one scatter slice per requesting position.  A request's
        position is its index within the concatenation, so callers can map
        payloads back to (batch, slot).
        """
        if not groups:
            return self.plan((), (), ())
        targets = np.concatenate(
            [np.asarray(g[0], dtype=np.int64).reshape(-1) for g in groups]
        )
        offsets = np.concatenate(
            [np.asarray(g[1], dtype=np.int64).reshape(-1) for g in groups]
        )
        sizes = np.concatenate(
            [np.asarray(g[2], dtype=np.int64).reshape(-1) for g in groups]
        )
        return self.plan(targets, offsets, sizes)

    def plan_node_wave(
        self,
        demands: dict,
        participants: Sequence[int],
        width: int,
    ) -> NodeWavePlan:
        """Merge node peers' per-rank wave demands into one node plan.

        ``demands`` maps each participant rank to its
        ``(keys, owner_members, offsets, sizes)`` arrays — the samples
        that rank must fetch remotely this wave, already deduplicated and
        in its deterministic request order.  Overlapping demands collapse
        to one entry and a per-(node, owner-member) leader is elected.

        Election is *owner first* over the replica groups (``width`` =
        the resolved replica-group width): chunk contents are identical
        across groups, so a leader reads member ``m`` from its *own*
        group's copy — and a participant that **is** its group's member
        ``m`` (a self-copy, no wire at all) leads it; otherwise the
        leader is round-robin over the participants.  The participants
        are every rank of the node, so a group replica of ``m`` on this
        node is itself a participant and the owner rule already picks it.
        Ties break by ``m`` modulo the candidate count, so leader load
        stays balanced.  The election is a pure function of the static
        topology and the member index — every rank derives it
        identically with zero communication.
        """
        participants = tuple(sorted(int(p) for p in participants))
        P = len(participants)

        def elect(m: int) -> int:
            owner = [p for p in participants if p - p % width + m == p]
            if owner:
                return owner[m % len(owner)]
            return participants[m % P]

        demand: dict[int, tuple] = {}
        demand_bytes: dict[int, int] = {}
        leader_of: dict[int, int] = {}
        led: dict[int, list[int]] = {}
        meta: dict[int, tuple[int, int, int]] = {}
        for p in participants:
            keys, members, offsets, sizes = demands.get(p) or ((), (), (), ())
            keys = np.asarray(keys, np.int64)
            demand[p] = tuple(int(k) for k in keys)
            demand_bytes[p] = int(np.asarray(sizes, np.int64).sum()) if len(sizes) else 0
            for k, m, o, s in zip(keys, members, offsets, sizes):
                k = int(k)
                if k in meta:
                    continue
                meta[k] = (int(m), int(o), int(s))
                leader = elect(int(m))
                leader_of[k] = leader
                led.setdefault(leader, []).append(k)
        return NodeWavePlan(
            participants=participants,
            demand=demand,
            demand_bytes=demand_bytes,
            leader_of=leader_of,
            led=led,
            meta=meta,
            n_union=len(meta),
            union_bytes=sum(m[2] for m in meta.values()),
        )

    def plan_arena(
        self,
        node_counts: Sequence[int] | np.ndarray,
        edge_counts: Sequence[int] | np.ndarray,
        feature_dim: int,
        output_dim: int,
    ) -> ArenaScatterMap:
        """Compute per-position arena scatter destinations for one batch.

        Destinations derive purely from the batch's shape table (the
        registry's shape index), so the payloads recorded on an arena
        scatter without any decode.  Edge planes: the packed row stores
        sources then targets contiguously; the arena stores the batch's
        full source plane then the full target plane, so each sample's
        edge bytes split into two segments.
        """
        nn = np.asarray(node_counts, dtype=np.int64)
        ne = np.asarray(edge_counts, dtype=np.int64)
        if nn.size != ne.size:
            raise ValueError("node_counts/edge_counts must have equal length")
        P = nn.size
        ptr = np.zeros(P + 1, np.int64)
        np.cumsum(nn, out=ptr[1:])
        eptr = np.zeros(P + 1, np.int64)
        np.cumsum(ne, out=eptr[1:])
        e_total = int(eptr[-1])
        # All five candidate segments of every position at once: a (P, 5)
        # table of source spans and destinations, masked where zero-length.
        nb = _segment_nbytes(nn, ne, feature_dim, output_dim)
        src_lo = HEADER_NBYTES + np.cumsum(nb, axis=1) - nb  # each segment's record offset
        y_nb = 4 * output_dim
        dest = np.stack(
            [
                12 * ptr[:-1],
                4 * feature_dim * ptr[:-1],
                4 * eptr[:-1],
                4 * e_total + 4 * eptr[:-1],
                y_nb * np.arange(P, dtype=np.int64),
            ],
            axis=1,
        )
        field = np.broadcast_to(
            np.asarray([0, 1, 2, 2, 3], np.int64), (P, 5)
        )
        keep = nb > 0
        row_ptr = np.zeros(P + 1, np.int64)
        np.cumsum(keep.sum(axis=1), out=row_ptr[1:])
        flat = keep.reshape(-1)
        src_lo = src_lo.reshape(-1)[flat]
        return ArenaScatterMap(
            row_ptr,
            src_lo,
            src_lo + nb.reshape(-1)[flat],
            field.reshape(-1)[flat],
            dest.reshape(-1)[flat],
        )

    def _coalesced(
        self,
        targets: np.ndarray,
        offsets: np.ndarray,
        sizes: np.ndarray,
        positions: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        # Merge sweep over the (target, offset)-sorted requests.  A new read
        # starts where the target changes or where an offset clears the
        # furthest byte requested so far in its target run.  That running
        # maximum is segmented per target by biasing every run into its own
        # value band (wider than any offset..end distance), which turns it
        # into one ``maximum.accumulate`` over the whole batch.
        order = np.lexsort((offsets, targets))
        t = targets[order]
        o = offsets[order]
        nb = sizes[order]
        e = o + nb
        pos = positions[order]
        breaks = _run_starts(t)
        run = np.add.accumulate(breaks, dtype=np.int64)  # 1-based target run
        band = int(e.max() - o.min()) + 1
        if (int(run[-1]) + 1) * band >= 2**62:
            raise OverflowError("request offsets too far apart to plan in int64")
        run *= band
        reach = np.maximum.accumulate(e + run)
        breaks[1:] |= o[1:] + run[1:] > reach[:-1]
        starts = breaks.nonzero()[0]
        span = np.add.accumulate(breaks, dtype=np.int64)  # span of every request
        span -= 1
        lo = o[starts]
        hi = np.maximum.reduceat(e, starts)
        max_nb = self.max_read_bytes
        if max_nb is None or not np.count_nonzero(hi - lo > max_nb):
            # Every span is one read and every member lies entirely inside
            # it: sample_offset is 0, read_offset the distance from the
            # span start.
            member = nb.nonzero()[0]
            read = span[member]
            slices = _columns(read, pos[member], 0, o[member] - lo[read], nb[member])
            return _columns(t[starts], lo, hi - lo), slices

        # Cut oversized spans into ``max_nb`` pieces (a zero-length span
        # keeps its one degenerate read); request ``i`` then overlaps
        # ``count[i]`` pieces of its span from ``k_first[i]`` on, one slice
        # per piece.
        n_pieces = np.maximum(1, -((lo - hi) // max_nb))
        first_read = np.cumsum(n_pieces) - n_pieces
        span_of = np.repeat(np.arange(starts.size), n_pieces)
        r_lo = lo[span_of] + (np.arange(span_of.size) - first_read[span_of]) * max_nb
        r_hi = np.minimum(r_lo + max_nb, hi[span_of])
        rel = o - lo[span]
        k_first = rel // max_nb
        count = np.where(nb > 0, (rel + nb - 1) // max_nb - k_first + 1, 0)
        member = np.repeat(np.arange(t.size), count)
        k = np.arange(member.size) - np.repeat(np.cumsum(count) - count, count)
        read = first_read[span[member]] + k_first[member] + k
        s_lo = np.maximum(r_lo[read], o[member])
        slices = _columns(
            read,
            pos[member],
            s_lo - o[member],
            s_lo - r_lo[read],
            np.minimum(r_hi[read], e[member]) - s_lo,
        )
        # Slices were generated request-major; a stable sort by read keeps
        # each read's slices in (target, offset)-sorted request order.
        slices = slices[np.argsort(read, kind="stable")]
        return _columns(t[starts][span_of], r_lo, r_hi - r_lo), slices


#: Largest batched NVMe promotion submission, in bytes.
MAX_PROMOTION_IO_BYTES = 8 << 20


def plan_promotions(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """Group NVMe promotion requests into bounded batched IO submissions.

    ``sizes`` are the per-entry byte counts of the shards to promote, in
    request order.  Returns ``[lo, hi)`` index spans: each span becomes
    one queue-depth>1 submission (:meth:`NVMeDevice.read_many`), paying
    the flash latency once for the whole group while keeping any single
    submission under ``MAX_PROMOTION_IO_BYTES`` so one giant promotion
    cannot monopolise the node-shared device queue.  An entry larger than
    the cap still gets its own span — it must move somehow.
    """
    spans: list[tuple[int, int]] = []
    lo = 0
    acc = 0
    for i, nbytes in enumerate(sizes):
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("negative promotion size")
        if i > lo and acc + nbytes > MAX_PROMOTION_IO_BYTES:
            spans.append((lo, i))
            lo = i
            acc = 0
        acc += nbytes
    if lo < len(sizes):
        spans.append((lo, len(sizes)))
    return spans
