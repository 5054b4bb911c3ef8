"""Tests for the tiered cache hierarchy: GPU-pinned -> DRAM -> NVMe -> PFS.

Covers the tier plumbing (config parsing, per-mode cache stats, the
promotion IO planner, strict NVMe release accounting) and the two
hierarchy invariants the design leans on:

* bytes survive promotion/demotion cycles bit-identically — an entry
  that is still anywhere in the hierarchy always reads back exactly the
  bytes that went in;
* every tier respects its byte budget at all times.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CacheOptions, DataPlaneOptions, TierSpec
from repro.dataplane import SampleCache, TieredCache, plan_promotions
from repro.dataplane.planner import MAX_PROMOTION_IO_BYTES
from repro.hardware import NVMeDevice, TEST_NVME, SUMMIT
from repro.sim import Engine
from repro.storage.staging import NVMeShardStore


# ---------------------------------------------------------------------------
# NVMe device: strict release accounting (regression)
# ---------------------------------------------------------------------------


def test_nvme_release_over_release_raises():
    dev = NVMeDevice(Engine(), TEST_NVME)
    dev.allocate(1024)
    with pytest.raises(ValueError, match="over-release"):
        dev.release(2048)
    with pytest.raises(ValueError):
        dev.release(-1)
    dev.release(1024)  # exact release is fine
    assert dev.used_bytes == 0
    with pytest.raises(ValueError, match="over-release"):
        dev.release(1)  # nothing left to free


def test_nvme_read_many_batches_latency():
    dev = NVMeDevice(Engine(), TEST_NVME)
    # One batched read of n requests pays one flash latency, not n.
    batched = dev.read_many(8, 8 * 4096, arrival=0.0)
    dev2 = NVMeDevice(Engine(), TEST_NVME)
    serial = max(dev2.read(4096, arrival=0.0) for _ in range(8))
    assert batched < serial
    with pytest.raises(ValueError):
        dev.read_many(0, 4096, 0.0)
    with pytest.raises(ValueError):
        dev.read_many(1, -1, 0.0)


# ---------------------------------------------------------------------------
# CacheOptions / TierSpec parsing
# ---------------------------------------------------------------------------


def test_cache_options_parse():
    opts = CacheOptions.parse("gpu:2m+dram:4m+nvme:256m")
    assert [t.kind for t in opts.tiers] == ["gpu", "dram", "nvme"]
    assert opts.tier("gpu").capacity_bytes == 2 << 20
    assert opts.dram_bytes == 4 << 20
    assert opts.tier("nvme").capacity_bytes == 256 << 20
    assert CacheOptions.parse("dram:8k").dram_bytes == 8 << 10


def test_cache_options_rejects_bad_specs():
    with pytest.raises(ValueError):
        CacheOptions.parse("gpu:2m")  # dram tier is mandatory
    with pytest.raises(ValueError):
        CacheOptions.parse("dram:4m+gpu:2m")  # order must be fastest-first
    with pytest.raises(ValueError):
        CacheOptions.parse("dram:4m+dram:8m")  # duplicate kind
    with pytest.raises(ValueError):
        CacheOptions.parse("tape:1g+dram:4m")  # unknown kind
    with pytest.raises(ValueError):
        CacheOptions.parse("dram:0")  # capacity must be positive
    with pytest.raises(ValueError):
        TierSpec(kind="dram", capacity_bytes=-1)
    with pytest.raises(ValueError):
        CacheOptions.parse("dram:4m", policy="mru")


def test_cache_bytes_is_shorthand_for_a_dram_only_hierarchy():
    flat = DataPlaneOptions(cache_bytes=1 << 20)
    assert flat.cache_options == CacheOptions.parse("dram:1m") == CacheOptions.dram_only(1 << 20)
    off = DataPlaneOptions().cache_options  # cache-off is the empty hierarchy
    assert off.tiers == () and off.dram_bytes == 0
    cache = CacheOptions.parse("dram:4m")
    opts = DataPlaneOptions(cache=cache, scheduler=True, prefetch_depth=2)
    assert opts.cache is cache and opts.cache_options is cache


def test_cache_spellings_do_not_mix():
    """``cache=`` is the whole hierarchy, its policy included: the
    shorthand beside it is refused, never silently dropped."""
    cache = CacheOptions.parse("dram:4m")
    with pytest.raises(ValueError, match="does not mix"):
        DataPlaneOptions(cache_bytes=1 << 20, cache=cache)
    belady = CacheOptions.parse("dram:4m", policy="belady")
    assert DataPlaneOptions(cache=belady).cache_options.policy == "belady"
    from repro.bench import ExperimentConfig

    with pytest.raises(ValueError, match="does not mix"):
        ExperimentConfig(n_nodes=1, tiers="dram:4m", cache_bytes=1 << 20)
    with pytest.raises(ValueError, match="cache_bytes"):
        ExperimentConfig(n_nodes=1, cache_bytes=-1)
    # A cell hands the store one spelling, cache=, whichever fields it sets.
    tiered = ExperimentConfig(n_nodes=1, tiers="dram:4m", cache_policy="belady")
    flat = ExperimentConfig(n_nodes=1, cache_bytes=4 << 20, cache_policy="belady")
    for cfg in (tiered, flat):
        dataplane = cfg.ddstore_config().dataplane
        assert dataplane.cache == belady and dataplane.cache_bytes == 0


# ---------------------------------------------------------------------------
# CacheStats: one counter per event, both access modes
# ---------------------------------------------------------------------------


def test_sample_cache_counts_each_mode_access_once():
    """A pool holds one payload format, so each columnar name is its row
    twin, and the hierarchy above it counts every call of either once."""
    cache = SampleCache(capacity_bytes=1 << 20)
    blob = np.arange(64, dtype=np.uint8)
    assert cache.put(1, blob) and cache.put_columns(2, blob)
    assert len(cache) == 2 and cache.used_bytes == 128
    for key in (1, 2):
        assert cache.get(key) is cache.get_columns(key) is not None
    assert cache.get(3) is None and cache.get_columns(4) is None
    tiered = TieredCache(CacheOptions.parse("dram:1m"))
    assert tiered.put(1, blob) and tiered.put_columns(2, blob)
    assert len(tiered) == 2
    assert all(tiered.fast_get(key) is not None for key in (1, 2, 1, 2))
    assert tiered.fast_get(3) is None
    tiered.count_miss()
    assert (tiered.stats.hits, tiered.stats.misses) == (4, 1)


# ---------------------------------------------------------------------------
# promotion IO planner
# ---------------------------------------------------------------------------


def test_plan_promotions_bounds_spans():
    u = MAX_PROMOTION_IO_BYTES // 8
    assert plan_promotions([]) == []
    assert plan_promotions([u, u, u]) == [(0, 3)]
    assert plan_promotions([5 * u, 5 * u, 5 * u]) == [(0, 1), (1, 2), (2, 3)]
    assert plan_promotions([4 * u, 4 * u]) == [(0, 2)]  # filling the cap exactly is one span
    assert plan_promotions([0, u]) == [(0, 2)]  # an empty entry is no error
    assert plan_promotions([20 * u]) == [(0, 1)]  # oversize gets its own span
    spans = plan_promotions([3 * u] * 5)
    assert spans == [(0, 2), (2, 4), (4, 5)]
    covered = [i for lo, hi in spans for i in range(lo, hi)]
    assert covered == list(range(5))
    with pytest.raises(ValueError):
        plan_promotions([-1])


# ---------------------------------------------------------------------------
# hierarchy invariants (hypothesis)
# ---------------------------------------------------------------------------


def _make_tiered(gpu_kib, dram_kib, nvme_kib):
    tiers = []
    if gpu_kib:
        tiers.append(f"gpu:{gpu_kib}k")
    tiers.append(f"dram:{dram_kib}k")
    if nvme_kib:
        tiers.append(f"nvme:{nvme_kib}k")
    opts = CacheOptions.parse("+".join(tiers), policy="lru")
    nvme = None
    if nvme_kib:
        device = NVMeDevice(Engine(), TEST_NVME)
        nvme = NVMeShardStore(device, nvme_kib << 10)
    return TieredCache(
        opts,
        nvme=nvme,
        gpu_spec=SUMMIT.gpu if gpu_kib else None,
        now_fn=lambda: 0.0,
    )


def _check_budgets(cache):
    if cache.gpu is not None:
        assert 0 <= cache.gpu.used_bytes <= cache.gpu.capacity_bytes
    assert 0 <= cache.dram.used_bytes <= cache.dram.capacity_bytes
    if cache.nvme is not None:
        assert 0 <= cache.nvme.used_bytes <= cache.nvme.capacity_bytes
        assert cache.nvme.used_bytes == cache.nvme.device.used_bytes


def _anywhere(cache, key: int) -> bool:
    """Is ``key`` resident in any tier of the hierarchy?"""
    return cache.fast_resident(key) or key in cache.nvme


def _payload_for(key: int, content_seed: int) -> np.ndarray:
    """Sample bytes are immutable per id in the store, so a key's payload
    is a pure function of (key, run seed): re-inserting a key always
    re-inserts identical bytes, as production does."""
    rng = np.random.default_rng((content_seed << 8) ^ key)
    nbytes = int(rng.integers(64, 2048))
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8)


@given(
    gpu_kib=st.sampled_from([0, 2, 4]),
    dram_kib=st.sampled_from([2, 4, 8]),
    keys=st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=40),
    content_seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=60, deadline=None)
def test_tier_cycles_never_corrupt_bytes(gpu_kib, dram_kib, keys, content_seed):
    """Put payloads through wire-admission, demotion (DRAM->NVMe
    write-behind), promotion (NVMe->DRAM->GPU stage-up), and demand
    promotion; any key still resident anywhere must read back the exact
    bytes that were inserted, and no tier may exceed its budget."""
    cache = _make_tiered(gpu_kib, dram_kib, nvme_kib=64)
    truth = {}
    for key in keys:
        payload = _payload_for(key, content_seed)
        if cache.put(key, payload):
            truth[key] = payload.copy()
        _check_budgets(cache)

    # Wave stage-up pulls NVMe residents back into the fast tiers.
    cache.stage_up(sorted(truth), now=0.0)
    _check_budgets(cache)

    for key, expected in truth.items():
        if not _anywhere(cache, key):
            continue  # fully evicted (budget pressure) — a legal outcome
        served = cache.fast_get(key)
        if served is None:
            results, _ = cache.promote_batch([key], now=0.0)
            payload = results[key]
        else:
            payload, _cost = served
        np.testing.assert_array_equal(
            np.asarray(payload).reshape(-1), expected.reshape(-1)
        )
        _check_budgets(cache)


@given(
    keys=st.lists(st.integers(min_value=0, max_value=11), min_size=4, max_size=24),
    content_seed=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=40, deadline=None)
def test_four_tier_round_trip_bit_identical(keys, content_seed):
    """Explicit full-cycle: PFS(wire) -> DRAM -> NVMe (demotion) ->
    DRAM -> GPU (stage-up) must preserve every byte."""
    cache = _make_tiered(gpu_kib=8, dram_kib=2, nvme_kib=64)
    truth = {}
    for key in keys:
        payload = _payload_for(key, content_seed)
        if cache.put(key, payload):
            truth[key] = payload.copy()
    # The 2 KiB DRAM tier churns, pushing earlier entries to NVMe; every
    # inserted key must still be somewhere in the hierarchy.
    for key in truth:
        assert _anywhere(cache, key)
    cache.stage_up(sorted(truth), now=0.0)
    for key, expected in truth.items():
        served = cache.fast_get(key)
        if served is None:
            results, _ = cache.promote_batch([key], now=0.0)
            payload = results[key]
        else:
            payload = served[0]
        np.testing.assert_array_equal(
            np.asarray(payload).reshape(-1), expected.reshape(-1)
        )
    _check_budgets(cache)


def test_belady_admission_refuses_farther_entries():
    opts = CacheOptions.parse("dram:1k+nvme:64k", policy="belady")
    nvme = NVMeShardStore(NVMeDevice(Engine(), TEST_NVME), 64 << 10)
    cache = TieredCache(opts, nvme=nvme)
    cache.set_future([1, 2, 3])
    a = np.full(600, 7, dtype=np.uint8)
    assert cache.put(1, a)
    # 2 is needed sooner than nothing; but inserting it would evict 1
    # (needed at position 0 vs 2's position 1) — admission refuses.
    assert not cache.put(2, a)
    assert cache.tier_stats["dram"].dropped == 1
    # A key with no future use is always refused when full.
    assert not cache.put(9, a)
    assert 1 in cache.dram
    # The mirror: a hierarchy that ends at DRAM admits unconditionally
    # (evicting as needed) and puts no byte cap on a prefetch wave.
    flat = TieredCache(CacheOptions.parse("dram:1k", policy="belady"))
    flat.set_future([1, 2, 3])
    assert flat.put(1, a) and flat.put(2, a) and flat.put(9, a)
    assert flat.tier_stats["dram"].dropped == 0
    assert 9 in flat.dram and 1 not in flat.dram
    assert flat.wave_cap_bytes is None and cache.wave_cap_bytes == 1 << 10


@pytest.mark.parametrize("gpu_kib, nvme_kib", [(0, 0), (4, 64)], ids=["dram", "gpu+dram+nvme"])
def test_a_dropped_cache_frees_its_payloads_by_refcount(gpu_kib, nvme_kib):
    """The demotion chain is acyclic: nothing in the hierarchy points back
    at it, so the last reference going away frees every cached payload at
    once — not whenever the cyclic collector next runs (a dropped store
    used to keep its whole cache alive until then)."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        cache = _make_tiered(gpu_kib, dram_kib=8, nvme_kib=nvme_kib)
        for key in range(12):  # > 8 KiB: evictions run the demotion chain
            assert cache.put(key, _payload_for(key, 0))
        cache.stage_up(list(range(12)), now=0.0)
        assert len(cache.dram) and (cache.gpu is None or len(cache.gpu))
        payload = cache.dram.peek(next(k for k in range(12) if k in cache.dram))
        dead = weakref.ref(cache), weakref.ref(payload)
        del cache, payload
        assert dead[0]() is None and dead[1]() is None
    finally:
        if was_enabled:
            gc.enable()


def test_nvme_shard_store_pinned_entries_survive_pressure():
    device = NVMeDevice(Engine(), TEST_NVME)
    store = NVMeShardStore(device, 4096)
    blob = bytes(range(256)) * 8  # 2 KiB
    store.stage([1], [blob], arrival=0.0)
    assert 1 in store and store.resident(1, column=False)
    # Fill with write-behind demotions; the pinned stage must survive.
    p = np.zeros(1500, dtype=np.uint8)
    assert store.write_behind(2, p, True, 0.0) is not None
    assert store.write_behind(3, p, True, 0.0) is not None  # evicts 2
    assert 1 in store
    payload, has_header = store.get(1)
    assert has_header
    assert bytes(payload) == blob
