"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import ChunkLayout, ChunkRegistry, DDStoreConfig, balanced_partition, epoch_indices
from repro.graphs import AtomicGraph, collate
from repro.mpi.datatypes import sizeof
from repro.sim import Engine, QueueStation, FluidStation
from repro.storage import pack_graph, packed_size, unpack_graph


# ---------------------------------------------------------------------------
# graph codec
# ---------------------------------------------------------------------------

@st.composite
def atomic_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    f = draw(st.integers(min_value=1, max_value=6))
    out = draw(st.integers(min_value=1, max_value=16))
    e = draw(st.integers(min_value=0, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = (
        rng.integers(0, n, size=(2, e)) if e else np.zeros((2, 0), dtype=np.int32)
    )
    return AtomicGraph(
        positions=rng.normal(size=(n, 3)),
        node_features=rng.normal(size=(n, f)),
        edge_index=edges,
        y=rng.normal(size=out),
        sample_id=draw(st.integers(min_value=0, max_value=2**40)),
    )


@given(atomic_graphs())
@settings(max_examples=50, deadline=None)
def test_codec_roundtrip_arbitrary_graphs(g):
    blob = pack_graph(g)
    assert len(blob) == packed_size(g.n_nodes, g.n_edges, g.feature_dim, g.output_dim)
    back = unpack_graph(blob)
    assert back.allclose(g)


@given(atomic_graphs(), atomic_graphs())
@settings(max_examples=25, deadline=None)
def test_codec_concatenated_blobs_recoverable(g1, g2):
    # DDStore stores blobs back to back; slicing by size must recover each.
    b1, b2 = pack_graph(g1), pack_graph(g2)
    buf = b1 + b2
    assert unpack_graph(buf[: len(b1)]).allclose(g1)
    assert unpack_graph(buf[len(b1) :]).allclose(g2)


# ---------------------------------------------------------------------------
# columnar (AGRC) shard codec
# ---------------------------------------------------------------------------

@st.composite
def columnar_shards(draw):
    """Raw column arrays for a shard, including degenerate shapes.

    The array-level ``pack_columns`` API permits shapes AtomicGraph
    forbids — samples with zero nodes, zero feature dims, zero output
    dims — so the codec is exercised over its full domain.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    f = draw(st.integers(min_value=0, max_value=5))
    out = draw(st.integers(min_value=0, max_value=6))
    n_nodes = np.array(
        draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)), np.uint32
    )
    n_edges = np.array(
        draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)), np.uint32
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    N, E = int(n_nodes.sum()), int(n_edges.sum())
    codec = draw(st.sampled_from(["raw", "byteshuffle", "rle"]))
    return dict(
        sample_ids=rng.integers(0, 2**40, size=n).astype(np.int64),
        n_nodes=n_nodes,
        n_edges=n_edges,
        positions=rng.normal(size=(N, 3)).astype(np.float32),
        node_features=rng.normal(size=(N, f)).astype(np.float32),
        edge_index=rng.integers(0, max(N, 1), size=(2, E)).astype(np.int32),
        y=rng.normal(size=(n, out)).astype(np.float32),
        codec=codec,
    )


@given(columnar_shards())
@settings(max_examples=60, deadline=None)
def test_columnar_shard_roundtrip_including_degenerates(case):
    from repro.storage.columnar import pack_columns, shard_packed_size, unpack_shard

    codec = case.pop("codec")
    blob = pack_columns(**case, codecs=codec)
    if codec == "raw":
        # packed_size cross-check only holds for the identity codec.
        assert len(blob) == shard_packed_size(
            case["sample_ids"].size,
            int(case["n_nodes"].sum()),
            int(case["n_edges"].sum()),
            case["node_features"].shape[1],
            case["y"].shape[1],
        )
    shard = unpack_shard(blob)
    assert np.array_equal(shard.sample_ids, case["sample_ids"])
    assert np.array_equal(shard.n_nodes, case["n_nodes"])
    assert np.array_equal(shard.n_edges, case["n_edges"])
    assert np.array_equal(shard.positions, case["positions"])
    assert np.array_equal(shard.node_features, case["node_features"])
    assert np.array_equal(shard.edge_index, case["edge_index"])
    assert np.array_equal(shard.y, case["y"])


@given(atomic_graphs(), st.sampled_from(["raw", "byteshuffle", "rle"]))
@settings(max_examples=40, deadline=None)
def test_columnar_shard_agrees_with_row_codec(g, codec):
    # The same graph through both codecs round-trips to the same values;
    # the raw shard size and the sum of row packed sizes differ only by
    # the layout overhead (shard header/descriptors/index vs row headers).
    from repro.storage.columnar import pack_shard, shard_packed_size, unpack_shard

    shard = unpack_shard(pack_shard([g, g], codecs=codec))
    assert shard.graph(0).allclose(unpack_graph(pack_graph(g)))
    assert shard.graph(1).allclose(g)
    raw_size = shard_packed_size(2, 2 * g.n_nodes, 2 * g.n_edges, g.feature_dim, g.output_dim)
    rows_size = 2 * packed_size(g.n_nodes, g.n_edges, g.feature_dim, g.output_dim)
    assert raw_size - (20 + 4 * 48 + 2 * 16) == rows_size - 2 * 32


@given(atomic_graphs())
@settings(max_examples=30, deadline=None)
def test_row_codec_no_copy_views_match_copy(g):
    blob = pack_graph(g)
    assert unpack_graph(blob, copy=False).allclose(unpack_graph(blob))


# ---------------------------------------------------------------------------
# chunk layout / registry
# ---------------------------------------------------------------------------

@given(
    n_samples=st.integers(min_value=1, max_value=5000),
    width=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=100, deadline=None)
def test_layout_partition_invariants(n_samples, width):
    layout = ChunkLayout.build(n_samples, width)
    sizes = np.diff(layout.bounds)
    assert sizes.sum() == n_samples
    assert sizes.min() >= 0
    assert sizes.max() - sizes.min() <= 1  # balanced
    # Ownership is consistent with ranges.
    idx = np.arange(n_samples)
    reg = ChunkRegistry.from_sample_sizes(layout, [np.ones(n, np.int64) for n in sizes])
    owners, _local, _sizes = reg.locate_batch(idx)
    for r in range(width):
        lo, hi = layout.chunk_range(r)
        assert np.all(owners[lo:hi] == r)


@given(
    width=st.integers(min_value=1, max_value=8),
    sizes=st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=64),
)
@settings(max_examples=60, deadline=None)
def test_registry_locate_consistency(width, sizes):
    n = len(sizes)
    if n < width:
        width = n
    layout = ChunkLayout.build(n, width)
    by_member = [
        np.array(sizes[layout.chunk_range(r)[0] : layout.chunk_range(r)[1]], dtype=np.int64)
        for r in range(width)
    ]
    reg = ChunkRegistry.from_sample_sizes(layout, by_member)
    # Every sample's (owner, offset, size) is self-consistent.
    owners, offs, got_sizes = reg.locate_batch(np.arange(n))
    for g, (owner, off, size) in enumerate(zip(owners.tolist(), offs.tolist(),
                                               got_sizes.tolist())):
        assert size == sizes[g]
        lo, _hi = layout.chunk_range(owner)
        assert off == sum(sizes[lo:g])
    assert int(reg.offsets[-1]) == sum(sizes)


# ---------------------------------------------------------------------------
# DDStore config
# ---------------------------------------------------------------------------

@given(n_ranks=st.integers(min_value=1, max_value=4096))
@settings(max_examples=60, deadline=None)
def test_config_groups_partition_ranks(n_ranks):
    # pick a valid width: any divisor
    divisors = [w for w in range(1, n_ranks + 1) if n_ranks % w == 0]
    width = divisors[len(divisors) // 2]
    cfg = DDStoreConfig(n_ranks=n_ranks, width=width)
    assert cfg.n_replicas * cfg.effective_width == n_ranks
    groups = [cfg.group_of_rank(r) for r in range(n_ranks)]
    # each group has exactly `width` members
    counts = np.bincount(groups)
    assert np.all(counts == width)
    # group-rank is a bijection within each group
    for g in range(cfg.n_replicas):
        members = [r for r in range(n_ranks) if groups[r] == g]
        assert sorted(cfg.group_rank(r) for r in members) == list(range(width))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@given(
    n_samples=st.integers(min_value=8, max_value=2000),
    n_ranks=st.integers(min_value=1, max_value=8),
    epoch=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_global_shuffle_is_partition_of_prefix(n_samples, n_ranks, epoch, seed):
    if n_samples < n_ranks:
        n_samples = n_ranks
    chunks = [
        epoch_indices("global", n_samples, n_ranks, r, seed, epoch)
        for r in range(n_ranks)
    ]
    allv = np.concatenate(chunks)
    # no duplicates, all in range
    assert len(set(allv.tolist())) == allv.size
    assert allv.min() >= 0 and allv.max() < n_samples
    per = n_samples // n_ranks
    assert all(c.size == per for c in chunks)


@given(
    n_samples=st.integers(min_value=8, max_value=2000),
    n_ranks=st.integers(min_value=1, max_value=8),
    rank_seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=50, deadline=None)
def test_local_shuffle_is_shard_permutation(n_samples, n_ranks, rank_seed):
    rank = rank_seed % n_ranks
    lo, hi = balanced_partition(n_samples, n_ranks)[rank : rank + 2]
    idx = epoch_indices("local", n_samples, n_ranks, rank, 3, rank_seed)
    assert idx.size == n_samples // n_ranks
    assert set(idx.tolist()) <= set(range(lo, hi))
    assert len(set(idx.tolist())) == idx.size


# ---------------------------------------------------------------------------
# collation
# ---------------------------------------------------------------------------

@given(st.lists(atomic_graphs(), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_collate_roundtrip_property(graphs):
    # normalise dims so the batch is well-formed
    f = graphs[0].feature_dim
    out = graphs[0].output_dim
    usable = [g for g in graphs if g.feature_dim == f and g.output_dim == out]
    batch = collate(usable)
    assert batch.n_nodes == sum(g.n_nodes for g in usable)
    assert batch.n_edges == sum(g.n_edges for g in usable)
    for i, g in enumerate(usable):
        assert batch.graph(i).allclose(g)


# ---------------------------------------------------------------------------
# queueing stations
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=10),  # inter-arrival gap
            st.floats(min_value=0, max_value=1),  # service
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=60, deadline=None)
def test_queue_station_conservation_properties(jobs):
    eng = Engine()
    q = QueueStation(eng)
    t = 0.0
    prev_finish = 0.0
    for gap, service in jobs:
        t += gap
        finish = q.serve(t, service)
        # completion after arrival + service; FIFO monotone completions
        assert finish >= t + service - 1e-12
        assert finish >= prev_finish - 1e-12
        prev_finish = finish
    assert q.jobs_served == len(jobs)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=0.01),
            st.floats(min_value=0, max_value=0.002),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=60, deadline=None)
def test_fluid_station_sanity(jobs):
    eng = Engine()
    q = FluidStation(eng, bucket_s=1e-3)
    t = 0.0
    for gap, service in jobs:
        t += gap
        finish = q.serve(t, service)
        assert finish >= t + service - 1e-12  # never faster than service
    # total booked work conserved
    assert q.busy_time >= 0
    assert q.jobs_served == len(jobs)


@given(st.floats(min_value=1e-5, max_value=0.5))
@settings(max_examples=30, deadline=None)
def test_fluid_station_idle_is_free(service):
    # A lone request on an idle station is never queued.
    eng = Engine()
    q = FluidStation(eng, bucket_s=1e-3)
    assert q.serve(100.0, service) == 100.0 + service


# ---------------------------------------------------------------------------
# sizeof
# ---------------------------------------------------------------------------

@given(
    st.recursive(
        st.one_of(
            st.integers(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=20),
            st.booleans(),
            st.none(),
        ),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=5), children, max_size=4),
        max_leaves=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_sizeof_positive_for_python_objects(obj):
    assert sizeof(obj) > 0


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_sizeof_numpy_is_exact(n):
    arr = np.zeros(n, dtype=np.float32)
    assert sizeof(arr) == 4 * n


# ---------------------------------------------------------------------------
# fetch planner / scatter round trip
# ---------------------------------------------------------------------------

@st.composite
def fetch_requests(draw):
    """Per-target byte buffers plus a request list over them.

    Requests deliberately include duplicate sample ids, zero-size samples,
    and (sometimes) a max_read_bytes cap near the span sizes, so coalescing,
    splitting, and slice bookkeeping all get exercised.
    """
    n_targets = draw(st.integers(min_value=1, max_value=4))
    buf_len = draw(st.integers(min_value=64, max_value=512))
    buffers = {
        t: (np.arange(buf_len, dtype=np.int64) * (t + 7) % 251).astype(np.uint8)
        for t in range(n_targets)
    }
    n_req = draw(st.integers(min_value=1, max_value=24))
    requests = []
    for _ in range(n_req):
        target = draw(st.integers(min_value=0, max_value=n_targets - 1))
        size = draw(st.sampled_from([0, 0, 1, 7, 16, 33, 64]))
        offset = draw(st.integers(min_value=0, max_value=buf_len - max(size, 1)))
        requests.append((target, offset, size))
    # Duplicate ids: repeat a prefix of the request list.
    n_dup = draw(st.integers(min_value=0, max_value=min(4, n_req)))
    requests.extend(requests[:n_dup])
    max_read = draw(st.sampled_from([None, None, 48, 64, 128]))
    return buffers, requests, max_read


def _requested_runs(requests, target, buf_len):
    """Brute force: the maximal runs of bytes of ``target`` any request
    touches, straight off a per-byte coverage mask."""
    mask = np.zeros(buf_len + 2, dtype=bool)
    for t, off, size in requests:
        if t == target:
            mask[1 + off : 1 + off + size] = True
    edges = np.flatnonzero(mask[1:] != mask[:-1])
    return [(int(lo), int(hi)) for lo, hi in zip(edges[::2], edges[1::2])]


@given(fetch_requests(), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_planner_scatter_roundtrip_byte_identical(case, coalesce, fair_interleave):
    from repro.dataplane import FetchOutcome, FetchPlanner
    from repro.dataplane.pipeline import assemble

    buffers, requests, max_read = case
    targets = [r[0] for r in requests]
    offsets = [r[1] for r in requests]
    sizes = [r[2] for r in requests]
    plan = FetchPlanner(
        coalesce=coalesce, max_read_bytes=max_read, fair_interleave=fair_interleave
    ).plan(targets, offsets, sizes)
    reads = plan.reads.tolist()
    assert plan.n_requests == len(requests)
    assert plan.total_bytes == sum(nbytes for _t, _off, nbytes in reads)
    assert np.all(np.diff(plan.slices[:, 0]) >= 0)  # CSR order: sorted by read
    assert np.all(plan.slices[:, 4] > 0)  # every slice moves bytes
    if coalesce:
        buf_len = len(buffers[0])
        for target in set(targets):
            mine = [(off, off + nbytes) for t, off, nbytes in reads if t == target]
            # Each target's reads stay sorted and disjoint (whatever the
            # interleave across targets) ...
            assert mine == sorted(mine)
            assert all(a[1] <= b[0] for a, b in zip(mine, mine[1:]))
            # ... and, glued back together, are exactly the byte runs the
            # requests touch: nothing fetched twice, nothing extra.
            moved = [span for span in mine if span[1] > span[0]]
            if max_read is None:
                assert moved == _requested_runs(requests, target, buf_len)
            else:
                # The read cap only binds on the coalescing path
                # (non-coalescing is one verbatim read per request).
                assert all(hi - lo <= max_read for lo, hi in moved)
                glued = []
                for lo, hi in moved:
                    if glued and glued[-1][1] == lo:
                        glued[-1] = (glued[-1][0], hi)
                    else:
                        glued.append((lo, hi))
                assert glued == _requested_runs(requests, target, buf_len)
    # Serve every planned read out of the per-target buffers as a private
    # copy, read-only as the Transport contract says every payload is.
    payloads = [buffers[t][off : off + nbytes].copy() for t, off, nbytes in reads]
    for payload in payloads:
        payload.setflags(write=False)
    outcome = FetchOutcome(
        payloads=payloads,
        latencies=np.zeros(len(payloads), dtype=np.float64),
        stage_seconds={},
    )
    blobs = [None] * len(requests)
    assemble(plan, outcome, blobs, np.zeros(len(requests)))
    for i, (t, off, size) in enumerate(requests):
        if size == 0:
            assert blobs[i] is None  # zero-size ids never reach the plan
            continue
        expected = buffers[t][off : off + size]
        assert blobs[i] is not None
        assert np.array_equal(blobs[i], expected)
        # A sample handed out as a view of a read payload is read-only, so
        # duplicates sharing one payload cannot corrupt each other.
        assert blobs[i].base is None or not blobs[i].flags.writeable
