"""Tests for the storage substrate: codec, VFS, PFF, CFF."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.graphs import IsingGenerator, MoleculeGenerator
from repro.hardware import ParallelFileSystem, TESTBOX
from repro.hardware.machines import PERLMUTTER
from repro.sim import Engine
from repro.storage import (
    CFFIndex,
    CFFReader,
    CodecError,
    FileExists,
    FileSealed,
    FileNotFound,
    PFFReader,
    VirtualFS,
    pack_graph,
    packed_size,
    peek_header,
    unpack_graph,
    write_cff,
    write_pff,
)

from .conftest import pack_all


@pytest.fixture
def vfs():
    eng = Engine()
    pfs = ParallelFileSystem(eng, TESTBOX.pfs, n_client_nodes=4)
    return VirtualFS(pfs)


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def test_pack_unpack_roundtrip_ising():
    g = IsingGenerator(3, seed=1).make(2)
    blob = pack_graph(g)
    assert len(blob) == packed_size(g.n_nodes, g.n_edges, g.feature_dim, g.output_dim)
    back = unpack_graph(blob)
    assert back.allclose(g)


def test_pack_unpack_roundtrip_molecule():
    g = MoleculeGenerator(3, seed=1).make(0)
    back = unpack_graph(pack_graph(g))
    assert back.allclose(g)
    assert back.sample_id == 0


def test_peek_header_without_full_decode():
    g = IsingGenerator(1).make(0)
    sid, n_nodes, n_edges, f_dim, y_dim = peek_header(pack_graph(g))
    assert (sid, n_nodes, n_edges, f_dim, y_dim) == (0, 125, 600, 1, 1)


def test_unpack_rejects_bad_magic():
    with pytest.raises(CodecError, match="magic"):
        unpack_graph(b"NOPE" + b"\x00" * 100)


def test_unpack_rejects_truncation():
    blob = pack_graph(IsingGenerator(1).make(0))
    with pytest.raises(CodecError, match="truncated"):
        unpack_graph(blob[:-10])
    with pytest.raises(CodecError, match="too small"):
        unpack_graph(blob[:4])


def test_unpack_accepts_numpy_buffer():
    g = IsingGenerator(1).make(0)
    arr = np.frombuffer(pack_graph(g), dtype=np.uint8)
    assert unpack_graph(arr).allclose(g)


# ---------------------------------------------------------------------------
# VFS
# ---------------------------------------------------------------------------

def test_vfs_create_stat(vfs):
    vfs.create("a/b.bin", b"hello")
    assert vfs.exists("a/b.bin")
    assert vfs.stat("a/b.bin").size == 5
    assert not vfs.exists("a/c.bin")
    with pytest.raises(FileNotFound):
        vfs.stat("a/c.bin")


def test_vfs_create_duplicate_rejected(vfs):
    vfs.create("x", b"1")
    with pytest.raises(FileExists):
        vfs.create("x", b"2")
    vfs.create("x", b"2", overwrite=True)
    assert bytes(vfs.stat("x").data) == b"2"


def test_vfs_append_returns_offsets(vfs):
    vfs.create("log", b"")
    assert vfs.append("log", b"abc") == 0
    assert vfs.append("log", b"de") == 3
    assert bytes(vfs.stat("log").data) == b"abcde"


def test_vfs_listdir_prefix(vfs):
    vfs.create("d/1", b"")
    vfs.create("d/2", b"")
    vfs.create("e/3", b"")
    assert vfs.listdir("d") == ["d/1", "d/2"]


def test_vfs_read_timed_returns_real_bytes(vfs):
    vfs.create("f", bytes(range(100)))
    data, timing = vfs.read_timed("f", 0, 10, 20, arrival=0.0)
    assert data == bytes(range(10, 30))
    assert timing.completion > 0


def test_vfs_read_out_of_range(vfs):
    vfs.create("f", b"12345")
    with pytest.raises(ValueError, match="out of range"):
        vfs.read_timed("f", 0, 3, 10, arrival=0.0)


def test_vfs_open_timed_charges_metadata(vfs):
    vfs.create("f", b"x")
    _f, done = vfs.open_timed("f", arrival=0.0)
    assert done >= TESTBOX.pfs.metadata_latency_s * 0.5


def test_vfs_read_whole_timed(vfs):
    payload = bytes(np.random.default_rng(0).integers(0, 256, 3 * 2**20, dtype=np.uint8))
    vfs.create("big", payload)
    data, done = vfs.read_whole_timed("big", 0, arrival=0.0)
    assert data == payload
    assert done > 0


def test_vfs_read_whole_timed_spans_chunks(vfs):
    payload = bytes(np.random.default_rng(1).integers(0, 256, 17 * 2**20 + 5, dtype=np.uint8))
    vfs.create("huge3", payload)  # three 8 MiB chunks
    data, _ = vfs.read_whole_timed("huge3", 0, arrival=0.0)
    assert isinstance(data, bytes) and data == payload
    vfs.create("empty", b"")
    assert vfs.read_whole_timed("empty", 0, arrival=0.0)[0] == b""


@pytest.mark.parametrize("whole", [False, True])
def test_vfs_reads_are_readonly_views_and_seal_the_file(vfs, whole):
    """Written once, read as views: a read is a read-only view of the file
    (no copy), the first read seals the file against ``append``, and
    ``create(overwrite=True)`` swaps the file object so a reader keeps the
    bytes it was given."""
    vfs.create("log", b"abc")
    assert vfs.append("log", b"def") == 3  # appendable until first read
    if whole:
        data, _ = vfs.read_whole_timed("log", 0, arrival=0.0)
    else:
        data, _ = vfs.read_timed("log", 0, 0, 6, arrival=0.0)
    assert isinstance(data, memoryview) and data.readonly
    assert data == b"abcdef"
    assert data.obj is vfs.stat("log").data  # a view of the file, not a copy
    with pytest.raises(TypeError):
        data[0] = 0
    with pytest.raises(FileSealed, match="sealed"):
        vfs.append("log", b"ghi")
    vfs.create("log", b"XYZdefghi", overwrite=True)
    assert data == b"abcdef"
    assert vfs.read_timed("log", 0, 0, 9, arrival=0.0)[0] == b"XYZdefghi"


def test_vfs_logical_scale_validation(vfs):
    with pytest.raises(ValueError):
        vfs.create("s", b"x", logical_scale=0.5)


def test_vfs_logical_scale_defeats_page_cache(vfs):
    # Same physical file; scaled addressing spreads reads over a huge
    # logical extent so repeated nearby reads stop hitting the cache.
    blob = bytes(2**20)
    vfs.create("small", blob)
    vfs.create("huge", blob, logical_scale=100_000.0)
    # Touch more distinct offsets than the page cache holds blocks for
    # (TESTBOX: 64 MiB cache, 1 MiB blocks) under scaled addressing.
    offs = [i * 4096 for i in range(0, 256)]
    for path, node in (("small", 0), ("huge", 1)):
        for o in offs:
            vfs.read_timed(path, node, o, 512, arrival=0.0)
    small_second = [vfs.read_timed("small", 0, o, 512, 1.0)[1].cached_fraction for o in offs]
    huge_second = [vfs.read_timed("huge", 1, o, 512, 1.0)[1].cached_fraction for o in offs]
    assert np.mean(small_second) > np.mean(huge_second)


# ---------------------------------------------------------------------------
# PFF
# ---------------------------------------------------------------------------

def test_pff_write_read_roundtrip(vfs):
    gen = IsingGenerator(10, seed=0)
    write_pff(vfs, "pff/ising", pack_all(gen))
    assert len(vfs.listdir("pff/ising")) == 10
    reader = PFFReader(vfs, "pff/ising", 10, TESTBOX)
    g, done = reader.read_sample(7, node_index=0, arrival=0.0)
    assert g.allclose(gen.make(7))
    assert done > 0


def test_pff_reader_missing_dataset(vfs):
    with pytest.raises(FileNotFoundError):
        PFFReader(vfs, "nowhere", 5, TESTBOX)


def test_pff_file_holds_the_packed_sample(vfs):
    gen = MoleculeGenerator(4, seed=0)
    write_pff(vfs, "pff/mol", pack_all(gen))
    reader = PFFReader(vfs, "pff/mol", 4, TESTBOX)
    assert bytes(reader.read_sample_raw(2, 0, 0.0)[0]) == pack_graph(gen.make(2))


def test_pff_every_access_pays_metadata(vfs):
    gen = IsingGenerator(4, seed=0)
    write_pff(vfs, "p", pack_all(gen))
    reader = PFFReader(vfs, "p", 4, TESTBOX)
    before = vfs.pfs.metadata_ops
    reader.read_sample(0, 0, 0.0)
    reader.read_sample(1, 0, 0.0)
    assert vfs.pfs.metadata_ops == before + 2


# ---------------------------------------------------------------------------
# CFF
# ---------------------------------------------------------------------------

def test_cff_write_read_roundtrip(vfs):
    gen = MoleculeGenerator(20, seed=3)
    write_cff(vfs, "cff/mol", pack_all(gen), n_subfiles=4, logical_scale=1.0)
    reader = CFFReader(vfs, "cff/mol", TESTBOX)
    assert reader.n_samples == 20
    for i in (0, 7, 19):
        g, done = reader.read_sample(i, node_index=1, arrival=0.0)
        assert g.allclose(gen.make(i))
        assert done > 0
    # Every reader of one file views the same index bytes, read-only: one
    # host copy, however many ranks open it.
    other = CFFReader(vfs, "cff/mol", TESTBOX)
    assert np.shares_memory(reader.index.offset, other.index.offset)
    for index in (reader.index, other.index):
        for arr in (index.subfile, index.offset, index.size):
            assert not arr.flags.writeable


def test_cff_index_roundtrip():
    idx = CFFIndex(
        subfile=np.array([0, 1, 0], np.int32),
        offset=np.array([0, 0, 100], np.int64),
        size=np.array([100, 50, 100], np.int64),
        n_subfiles=2,
    )
    back = CFFIndex.from_bytes(idx.to_bytes())
    assert np.array_equal(back.subfile, idx.subfile)
    assert np.array_equal(back.offset, idx.offset)
    assert np.array_equal(back.size, idx.size)
    assert back.n_subfiles == 2


def test_cff_index_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        CFFIndex.from_bytes(b"XXXX" + b"\x00" * 32)


def test_cff_subfile_count_clamped(vfs):
    gen = IsingGenerator(3, seed=0)
    index = write_cff(vfs, "c", pack_all(gen), n_subfiles=10, logical_scale=1.0)
    assert index.n_subfiles == 3  # clamped to sample count


def test_cff_no_metadata_op_per_sample(vfs):
    gen = IsingGenerator(6, seed=0)
    write_cff(vfs, "c6", pack_all(gen), n_subfiles=2, logical_scale=1.0)
    reader = CFFReader(vfs, "c6", TESTBOX)
    before = vfs.pfs.metadata_ops
    reader.read_sample(0, 0, 0.0)
    reader.read_sample(5, 0, 0.0)
    assert vfs.pfs.metadata_ops == before  # container stays open


def test_cff_index_load_timed(vfs):
    gen = IsingGenerator(4, seed=0)
    write_cff(vfs, "ct", pack_all(gen), n_subfiles=8, logical_scale=1.0)
    reader = CFFReader(vfs, "ct", TESTBOX)
    done = reader.load_index_timed(0, arrival=0.0)
    assert done > 0


def test_pff_slower_than_cff_for_repeated_random_access(vfs):
    # The per-sample metadata op makes PFF pay more than CFF once the
    # container is cache-resident — the Table 2 Ising situation.
    gen = IsingGenerator(32, seed=0)
    blobs = pack_all(gen)
    write_pff(vfs, "pf", blobs)
    write_cff(vfs, "cf", blobs, n_subfiles=2, logical_scale=1.0)
    pff = PFFReader(vfs, "pf", 32, TESTBOX)
    cff = CFFReader(vfs, "cf", TESTBOX)
    rng = np.random.default_rng(0)
    order = rng.permutation(32)
    # Warm both caches with one pass.
    for i in order:
        pff.read_sample(int(i), 0, 0.0)
        cff.read_sample(int(i), 0, 0.0)
    t_pff = t_cff = 0.0
    for i in order:
        _, d1 = pff.read_sample(int(i), 0, 100.0)
        _, d2 = cff.read_sample(int(i), 0, 100.0)
        t_pff += d1 - 100.0
        t_cff += d2 - 100.0
    assert t_pff > t_cff


def test_cff_read_chunk_raw_bulk_matches_per_sample(vfs):
    gen = MoleculeGenerator(15, seed=7)
    write_cff(vfs, "bulk", pack_all(gen), n_subfiles=4, logical_scale=1.0)
    reader = CFFReader(vfs, "bulk", TESTBOX)
    blobs, done = reader.read_chunk_raw(2, 11, node_index=0, arrival=0.0)
    assert done > 0
    assert len(blobs) == 9
    for k, i in enumerate(range(2, 11)):
        expected, _ = reader.read_sample_raw(i, 0, 0.0)
        assert isinstance(expected, memoryview) and expected.readonly
        assert blobs[k] == expected
        assert blobs[k].readonly and blobs[k].format == "B"
    # the pieces are views of the container, which reading sealed
    with pytest.raises(FileSealed):
        vfs.append("bulk/data.0.bin", b"tail")
    assert blobs[0] == reader.read_sample_raw(2, 0, 0.0)[0]


def test_cff_read_chunk_raw_bounds(vfs):
    gen = IsingGenerator(4, seed=0)
    write_cff(vfs, "b2", pack_all(gen), n_subfiles=2, logical_scale=1.0)
    reader = CFFReader(vfs, "b2", TESTBOX)
    with pytest.raises(IndexError):
        reader.read_chunk_raw(0, 5, 0, 0.0)
    blobs, _ = reader.read_chunk_raw(2, 2, 0, 0.0)  # empty range ok
    assert blobs == []


# ---------------------------------------------------------------------------
# frozen PFS/VFS timing corpus
# ---------------------------------------------------------------------------

PFS_CORPUS = os.path.join(os.path.dirname(__file__), "data", "pfs_corpus.json")


def replay_pfs_script(script: dict) -> list:
    """Run a scripted sequence of PFF/CFF reads on a fresh two-node PFS and
    return, per op, ``[completion.hex(), hits, misses, metadata_ops]``
    (cache counters summed over both nodes)."""
    spec = replace(PERLMUTTER.pfs, **script["pfs"])
    machine = replace(PERLMUTTER, pfs=spec)
    pfs = ParallelFileSystem(Engine(), spec, n_client_nodes=2, seed=script["seed"])
    vfs = VirtualFS(pfs)
    gen = IsingGenerator(script["n_samples"], seed=script["seed"])
    blobs = pack_all(gen)
    write_pff(vfs, "pff", blobs)
    write_cff(vfs, "cff", blobs, **script["cff"])
    pff = PFFReader(vfs, "pff", len(gen), machine)
    cff = CFFReader(vfs, "cff", machine)
    out = []
    for op, *args in script["ops"]:
        if op == "drop":
            pfs.drop_caches()
            done = 0.0
        elif op == "index":
            done = cff.load_index_timed(*args)
        elif op == "chunk":
            done = cff.read_chunk_raw(*args)[1]
        else:
            done = (pff if op == "pff" else cff).read_sample_raw(*args)[1]
        out.append([
            float(done).hex(),
            sum(c.hits for c in pfs.caches),
            sum(c.misses for c in pfs.caches),
            pfs.metadata_ops,
        ])
    return out


def test_pfs_timing_matches_the_frozen_corpus():
    """``tests/data/pfs_corpus.json`` holds what the PFS/VFS read chain
    returned, before its per-read work was hoisted and block-drawn, for a
    seed-0 script over two nodes with cache churn on: PFF opens + reads
    (repeats included), CFF random and sequential chunk reads, an index
    load and a cache drop, on a small page cache with 16 KiB blocks so
    reads span blocks and stripes and evict.  Every completion time,
    cache hit/miss count and metadata-op count must repeat exactly."""
    with open(PFS_CORPUS) as fh:
        corpus = json.load(fh)
    assert replay_pfs_script(corpus["script"]) == corpus["expected"]
