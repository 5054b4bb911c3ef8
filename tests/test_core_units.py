"""Unit tests for DDStore building blocks: config, chunking, registry, samplers."""

import ast
import dataclasses
import os
import re
import types

import numpy as np
import pytest

from repro.core import (
    ChunkLayout,
    ChunkRegistry,
    DataPlaneOptions,
    DataLoader,
    DDStoreConfig,
    balanced_partition,
    epoch_indices,
    iter_batches,
)

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# Extensions a paper run must not load (DESIGN.md "Paper path").
_EXTENSIONS = re.compile(
    r"repro\.(serving|control|faults)(\..*)?|repro\.client"
    r"|repro\.storage\.(columnar|staging)|repro\.dataplane\.nodeagg"
    r"|repro\.bench\.(registry|experiments|ablations|serving|elastic|plotting)"
)

_PAPER_RUN = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "repro")

import repro
alone = loaded()
from repro.bench import PROFILES, cell, run_experiment
for method in ("ddstore", "pff"):
    run_experiment(cell("paper", PROFILES["tiny"], method=method))
print((alone, loaded()))
"""


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_every_module_export_resolves():
    """Each name a ``repro`` module lists in ``__all__`` exists, so a
    deletion that leaves a stale export fails here, not at a user's import.

    And a paper run loads only the paper: in a fresh interpreter, ``import
    repro`` loads no subpackage, and a tiny paper cell (DDStore, then the
    PFF baseline) loads at most 65 ``repro`` modules, none an extension."""
    import importlib
    import pkgutil
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _PAPER_RUN], env=env, capture_output=True, text=True, check=True
    ).stdout
    alone, loaded = ast.literal_eval(out.splitlines()[-1])
    assert alone == ["repro"]
    assert len(loaded) <= 65 and [m for m in loaded if _EXTENSIONS.fullmatch(m)] == []

    names = ["repro"] + [
        m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
        if m.name != "repro.__main__"  # importing it runs the CLI
    ]
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += [f"{name}.{x}" for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert len(names) > 80 and stale == []


def test_readme_option_block_lists_every_field():
    """The README's fenced ``DataPlaneOptions``/``ResilienceOptions`` block
    (under "groups its tuning surface") spells out every field of both."""
    from repro.core import ResilienceOptions

    with open(README) as fh:
        text = fh.read()
    after = text[text.index("groups its"):]
    block = re.search(r"```python\n(.*?)```", after, re.S).group(1)
    # The block is a rank-program fragment: wrap it so it parses.
    tree = ast.parse("def _():\n" + "".join("    " + line + "\n" for line in block.splitlines()))
    calls = {
        node.func.id: {kw.arg for kw in node.keywords}
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    for cls in (DataPlaneOptions, ResilienceOptions):
        assert calls[cls.__name__] == {f.name for f in dataclasses.fields(cls)}


def test_store_option_groups_have_eighteen_settable_fields():
    """Only knobs some workload sets to a non-default value are options;
    the rest are constants and their old keywords are refused.  A store's
    config carries the DS = (c, w, f) triple's groups only."""
    from repro.core import CacheOptions, ResilienceOptions, ServingOptions

    groups = (DataPlaneOptions, CacheOptions, ResilienceOptions, ServingOptions)
    assert sum(len(dataclasses.fields(cls)) for cls in groups) == 18
    assert {f.name for f in dataclasses.fields(DDStoreConfig)} == {
        "n_ranks", "width", "dataplane", "resilience"
    }
    for cls, gone in (
        (DataPlaneOptions, "max_read_bytes"),
        (DataPlaneOptions, "prefetch_budget_bytes"),
        (DataPlaneOptions, "cache_policy"),
        (CacheOptions, "stage_nvme"),
        (ResilienceOptions, "backoff_s"),
        (ResilienceOptions, "backoff_factor"),
        (ServingOptions, "admission"),
        (ServingOptions, "cache_partition"),
    ):
        with pytest.raises(TypeError, match=gone):
            cls(**{gone: 1})


def test_experiment_config_forwards_no_default_only_fields():
    from repro.bench.harness import ExperimentConfig

    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert len(names) == 26
    assert not names & {
        "stats_only",
        "max_retries",
        "jitter_sigma",
        "record_latencies",
        "prefetch_budget_bytes",
        "elastic_cooldown",
        "elastic_min_gain",
        "elastic_stall_threshold",
        "elastic_min_width",
    }


def test_config_default_width_is_single_replica():
    cfg = DDStoreConfig(n_ranks=64)
    assert cfg.effective_width == 64
    assert cfg.n_replicas == 1


def test_config_paper_example_1024_ranks_width_128():
    # Paper 3.1: N=1024, w=128 -> 8 groups of 128.
    cfg = DDStoreConfig(n_ranks=1024, width=128)
    assert cfg.n_replicas == 8
    assert cfg.group_of_rank(0) == 0
    assert cfg.group_of_rank(127) == 0
    assert cfg.group_of_rank(128) == 1
    assert cfg.group_of_rank(1023) == 7
    assert cfg.group_rank(129) == 1


def test_config_width_must_divide_ranks():
    with pytest.raises(ValueError, match="must divide"):
        DDStoreConfig(n_ranks=10, width=3)


def test_config_width_bounds():
    with pytest.raises(ValueError):
        DDStoreConfig(n_ranks=4, width=8)
    with pytest.raises(ValueError):
        DDStoreConfig(n_ranks=4, width=0)
    with pytest.raises(ValueError):
        DDStoreConfig(n_ranks=0)


def test_config_unknown_framework():
    with pytest.raises(ValueError, match="framework"):
        DDStoreConfig(n_ranks=4, dataplane=DataPlaneOptions(framework="smoke-signals"))


def test_config_rank_range_checks():
    cfg = DDStoreConfig(n_ranks=8, width=4)
    with pytest.raises(ValueError):
        cfg.group_of_rank(8)


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------

def test_balanced_partition_exact_division():
    b = balanced_partition(100, 4)
    assert np.array_equal(b, [0, 25, 50, 75, 100])


def test_balanced_partition_remainder_spreads():
    b = balanced_partition(10, 3)
    assert np.array_equal(b, [0, 4, 7, 10])
    sizes = np.diff(b)
    assert sizes.max() - sizes.min() <= 1


def test_balanced_partition_errors():
    with pytest.raises(ValueError):
        balanced_partition(-1, 2)
    with pytest.raises(ValueError):
        balanced_partition(10, 0)


def _unit_registry(layout):
    """A registry of one byte per sample: offsets are local indices."""
    return ChunkRegistry.from_sample_sizes(
        layout, [np.ones(n, np.int64) for n in np.diff(layout.bounds)]
    )


def test_layout_owner_and_local_offset():
    layout = ChunkLayout.build(10, 3)  # bounds [0,4,7,10]
    owners, local, _sizes = _unit_registry(layout).locate_batch(np.array([0, 3, 4, 5, 9]))
    assert owners.tolist() == [0, 0, 1, 1, 2]
    assert local.tolist() == [0, 3, 0, 1, 2]
    assert layout.chunk_range(1) == (4, 7)
    assert np.diff(layout.bounds).tolist() == [4, 3, 3]


def test_layout_vectorised_owner():
    layout = ChunkLayout.build(10, 3)
    owners, _local, _sizes = _unit_registry(layout).locate_batch(np.array([0, 4, 9]))
    assert np.array_equal(owners, [0, 1, 2])


def test_layout_out_of_range():
    layout = ChunkLayout.build(10, 3)
    reg = _unit_registry(layout)
    with pytest.raises(IndexError):
        reg.locate_batch(np.array([10]))
    with pytest.raises(IndexError):
        reg.locate_batch(np.array([-1]))
    with pytest.raises(IndexError):
        layout.chunk_range(3)


def test_layout_every_sample_owned_exactly_once():
    layout = ChunkLayout.build(1013, 7)  # awkward prime size
    seen = []
    for r in range(7):
        lo, hi = layout.chunk_range(r)
        seen.extend(range(lo, hi))
    assert seen == list(range(1013))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _registry():
    layout = ChunkLayout.build(7, 2)  # chunks: [0,4), [4,7)
    sizes = [np.array([10, 20, 30, 40]), np.array([5, 6, 7])]
    return ChunkRegistry.from_sample_sizes(layout, sizes)


def test_registry_locate_single():
    reg = _registry()
    owners, offs, sizes = reg.locate_batch(np.array([0, 2, 4, 6]))
    assert list(zip(owners.tolist(), offs.tolist(), sizes.tolist())) == [
        (0, 0, 10), (0, 30, 30), (1, 0, 5), (1, 11, 7)
    ]


def test_registry_locate_batch_keeps_order_and_duplicates():
    # A batch is looked up as drawn: unsorted, with repeats, one row per index.
    reg = _registry()
    owners, offs, sizes = reg.locate_batch(np.array([6, 0, 6, 3, 5, 0]))
    assert list(zip(owners.tolist(), offs.tolist(), sizes.tolist())) == [
        (1, 11, 7), (0, 0, 10), (1, 11, 7), (0, 60, 40), (1, 5, 6), (0, 0, 10)
    ]


def test_registry_buffer_bytes():
    reg = _registry()
    assert reg.buffer_bytes(0) == 100
    assert reg.buffer_bytes(1) == 18
    assert int(reg.offsets[-1]) == 118


def test_registry_size_table_validation():
    layout = ChunkLayout.build(7, 2)
    with pytest.raises(ValueError, match="sample sizes"):
        ChunkRegistry.from_sample_sizes(layout, [np.array([1, 2]), np.array([3, 4, 5])])
    with pytest.raises(ValueError, match="one size table per member"):
        ChunkRegistry.from_sample_sizes(layout, [np.arange(7)])
    with pytest.raises(ValueError, match="shape"):
        ChunkRegistry(layout=layout, offsets=np.array([0, 1, 2, 3, 4]))
    with pytest.raises(ValueError, match="monotone from 0"):
        ChunkRegistry(layout=layout, offsets=np.array([0, 1, 2, 3, 2, 5, 6, 7]))
    with pytest.raises(ValueError, match="monotone from 0"):
        ChunkRegistry(layout=layout, offsets=np.arange(1, 9))


def test_registry_is_flat_and_read_only():
    reg = _registry()
    assert reg.offsets.tolist() == [0, 10, 30, 60, 100, 105, 111, 118]
    assert reg.max_sample_bytes == 40
    assert not reg.offsets.flags.writeable
    with pytest.raises(IndexError):
        reg.locate_batch(np.array([0, 7]))
    with pytest.raises(IndexError):
        reg.locate_batch(np.array([-1]))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

# sha256 of every rank's schedule over the grid in
# test_global_shuffle_changes_across_epochs, recorded when each shuffle
# was a sampler class: the function draws the same streams and slices.
_SCHEDULE_DIGESTS = {
    "global": "65ebc83c4bc41cb5eedf195aaf9ede000d2d3fc870e887b6e3f2038e84c813c5",
    "local": "7ae2dc97d41a6675bb38d2ce332bed690e18da402170a9ccc43208660a9e3baf",
    "sampled": "5640dff6b48e5d682380afce48275dad36a35cb28a287f44deefa5a88487bdd5",
}


class _Samples:
    """A storeless dataset of ``n_samples`` ids (the loader's schedule
    reads nothing else)."""

    store = None
    stats_only = columnar = False
    arena_pool = None

    def __init__(self, n_samples):
        self.n_samples = n_samples


def _rank(size, rank):
    return types.SimpleNamespace(size=size, rank=rank)


@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("epoch", [0, 1, 5])
def test_epoch_permutation_is_shared_and_bit_identical(seed, epoch):
    """One permutation per (seed, epoch, n) serves every rank: the slices
    are those of the per-rank permutation the samplers used to draw, and
    the shared array cannot be written through any of them.  Every rank's
    loader reconstructs each peer's batches exactly (the node-fetch
    oracle), under all three shuffles."""
    from repro.sim.rng import stream

    n, ranks = 103, 4
    per_rank = n // ranks
    reference = stream("global-shuffle", seed, epoch).permutation(n)
    hot = stream("sampled-hotness", seed, epoch).permutation(n)
    bases = set()
    for r in range(ranks):
        idx = epoch_indices("global", n, ranks, r, seed, epoch)
        assert idx.dtype == reference.dtype
        assert np.array_equal(idx, reference[r * per_rank : (r + 1) * per_rank])
        assert not idx.flags.writeable and not idx.base.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            idx[0] = 0
        bases.add(id(idx.base))
        u = stream("sampled-shuffle", seed, epoch, r).random(per_rank)
        pos = np.minimum((u**4.0 * n).astype(np.int64), n - 1)
        sampled = epoch_indices("sampled", n, ranks, r, seed, epoch)
        assert np.array_equal(sampled, hot[pos])
    assert len(bases) == 1  # every rank sliced the same array
    for shuffle in ("global", "local", "sampled"):
        loaders = [
            DataLoader(_Samples(n), _rank(ranks, r), batch_size=4, shuffle=shuffle, seed=seed)
            for r in range(ranks)
        ]
        for loader in loaders:
            for peer in range(ranks):
                theirs = loader.peer_epoch_batches(epoch, peer)
                own = loaders[peer].epoch_batches(epoch)
                assert len(theirs) == len(own) == per_rank // 4
                assert all(np.array_equal(a, b) for a, b in zip(theirs, own))


def test_global_shuffle_partitions_whole_dataset():
    n, ranks = 100, 4
    all_ids = np.concatenate(
        [epoch_indices("global", n, ranks, r, 1, 0) for r in range(ranks)]
    )
    assert sorted(all_ids.tolist()) == list(range(100))


def test_global_shuffle_changes_across_epochs():
    e0, e1 = (epoch_indices("global", 100, 4, 0, 1, e) for e in (0, 1))
    assert not np.array_equal(e0, e1)
    assert np.array_equal(e0, epoch_indices("global", 100, 4, 0, 1, 0))
    # Every shuffle's schedules are bit-identical to the recorded ones.
    import hashlib

    for shuffle, digest in _SCHEDULE_DIGESTS.items():
        h = hashlib.sha256()
        for n, ranks in ((103, 4), (1000, 8)):
            for seed in (0, 7, 2024):
                for epoch in (0, 1, 5):
                    for r in range(ranks):
                        idx = epoch_indices(shuffle, n, ranks, r, seed, epoch)
                        h.update(np.asarray(idx, dtype=np.int64).tobytes())
        assert h.hexdigest() == digest, shuffle


def test_global_shuffle_rank_sees_fresh_data_each_epoch():
    # With global shuffling a rank's epoch sets differ — the generality
    # motivation of the paper.
    e0, e1 = (epoch_indices("global", 1000, 8, 3, 0, e) for e in (0, 1))
    overlap = np.intersect1d(e0, e1).size
    assert overlap < (1000 // 8) * 0.5


def test_global_shuffle_tail_dropped():
    assert epoch_indices("global", 103, 4, 0, 0, 0).size == 25


def test_local_shuffle_stays_in_shard():
    lo, hi = balanced_partition(100, 4)[2:4]
    idx = epoch_indices("local", 100, 4, 2, 0, 5)
    assert idx.min() >= lo and idx.max() < hi


def test_local_shuffle_same_shard_every_epoch():
    e0, e7 = (epoch_indices("local", 100, 4, 1, 0, e) for e in (0, 7))
    assert set(e0.tolist()) == set(e7.tolist())


def test_sampler_rank_validation():
    with pytest.raises(ValueError):
        epoch_indices("global", 10, 2, 2, 0, 0)
    with pytest.raises(ValueError):
        epoch_indices("local", 10, 2, -1, 0, 0)
    with pytest.raises(ValueError, match="unknown shuffle"):
        epoch_indices("sorted", 10, 2, 0, 0, 0)
    with pytest.raises(ValueError, match="cannot shard 1 samples over 2 ranks"):
        DataLoader(_Samples(1), _rank(2, 0), batch_size=1)


def test_iter_batches_drop_last():
    idx = np.arange(10)
    batches = list(iter_batches(idx, 3))
    assert [b.tolist() for b in batches] == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    with pytest.raises(ValueError):
        list(iter_batches(idx, 0))
