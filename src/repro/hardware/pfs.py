"""Parallel-filesystem timing model with per-node OS page cache.

Models the phenomena the paper's baselines suffer from:

* **Metadata storms** (PFF): every per-object file open is a metadata
  operation served by a small pool of MDS stations shared by *all* ranks;
  at scale the queueing delay dominates, producing multi-millisecond opens.
* **Random container reads** (CFF): reads land on the OSTs holding the
  requested stripes; random small reads pay the per-read positioning
  latency and contend with every other rank reading the same container.
* **Page-cache residency** (CFF on the small Ising set): a container that
  fits in a node's OS page cache is served at memory latency after the
  first epoch — the reason Table 2 shows CFF beating PFF on Ising only.

The cache stores timing metadata only; the real bytes live in
:mod:`repro.storage.vfs`.
"""

from __future__ import annotations

from collections import OrderedDict

from ..sim import BlockDraws, Engine, QueueStation, RngRegistry
from .topology import PFSSpec

__all__ = ["ParallelFileSystem", "PageCache", "IoTiming"]

_MEM_READ_LATENCY_S = 1.2e-6  # page-cache hit: one memcpy + syscall


class IoTiming:
    """Timing of one PFS read."""

    __slots__ = ("completion", "latency", "cached_fraction")

    def __init__(self, completion: float, latency: float, cached_fraction: float) -> None:
        self.completion = completion
        self.latency = latency
        self.cached_fraction = cached_fraction  # fraction of requested bytes served from cache


class PageCache:
    """LRU block cache of one node's OS page cache (timing only)."""

    def __init__(self, capacity_bytes: int, block_bytes: int = 2**20) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.capacity_blocks = max(1, capacity_bytes // block_bytes)
        self.block_bytes = block_bytes
        self._lru: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, file_id: int, offset: int, nbytes: int) -> tuple[int, int]:
        """Touch the blocks covering [offset, offset+nbytes); returns
        (hit_blocks, miss_blocks) and inserts missing blocks, evicting the
        least recently used block past capacity."""
        block = self.block_bytes
        b = offset // block
        last = (offset + (nbytes if nbytes > 1 else 1) - 1) // block
        lru = self._lru
        hit = miss = 0
        while b <= last:
            key = (file_id, b)
            if key in lru:
                lru.move_to_end(key)
                hit += 1
            else:
                lru[key] = None
                miss += 1
                if len(lru) > self.capacity_blocks:
                    lru.popitem(last=False)
            b += 1
        self.hits += hit
        self.misses += miss
        return hit, miss

    def prefetch(self, file_id: int, offset: int, nbytes: int) -> int:
        """Insert blocks without counting hits (read-ahead); returns the
        number of blocks that were not already resident."""
        hits, misses = self.hits, self.misses
        _, added = self.access(file_id, offset, nbytes)
        self.hits, self.misses = hits, misses
        return added

    def clear(self) -> None:
        """Evict every block (the hit/miss counters are kept)."""
        self._lru.clear()


class ParallelFileSystem:
    """Shared PFS: MDS pool + OST pool, one page cache per client node.
    Jitter and churn are drawn in blocks (:class:`BlockDraws`)."""

    def __init__(self, engine: Engine, spec: PFSSpec, n_client_nodes: int, seed: int = 0) -> None:
        self.engine = engine
        self.spec = spec
        self.mds = [
            QueueStation(engine, name=f"mds[{i}]") for i in range(spec.n_metadata_servers)
        ]
        self.osts = [QueueStation(engine, name=f"ost[{i}]") for i in range(spec.n_osts)]
        self.caches = [
            PageCache(spec.page_cache_bytes, block_bytes=min(spec.stripe_size_bytes, 2**20))
            for _ in range(n_client_nodes)
        ]
        self._rng = RngRegistry("pfs", spec.name, seed)
        self._mds_jitter = BlockDraws(self._rng.get("mds"), "lognormal", mean=-0.02, sigma=0.2)
        self._ost_jitter = BlockDraws(self._rng.get("ost"), "lognormal", mean=-0.045, sigma=0.3)
        self._churn: dict[int, BlockDraws] = {}  # node -> uniforms, made on first hit
        self.metadata_ops = 0
        self.read_ops = 0
        self.bytes_read = 0

    # -- metadata ----------------------------------------------------------
    def metadata_op(self, path_hash: int, arrival: float) -> float:
        """One open/stat; returns its completion time."""
        self.metadata_ops += 1
        jit = self._mds_jitter.draw()
        spec = self.spec
        finish = self.mds[path_hash % len(self.mds)].serve(arrival, spec.metadata_service_s * jit)
        return finish + spec.metadata_latency_s * jit

    # -- data --------------------------------------------------------------
    def _ost_of(self, file_id: int, stripe_index: int) -> QueueStation:
        # A file is striped over `stripe_count` OSTs (Lustre layout), so one
        # hot container concentrates load on few servers even when the
        # filesystem has many — a key source of the CFF contention tail.
        within = stripe_index % max(1, self.spec.stripe_count)
        return self.osts[(file_id * 131 + within) % len(self.osts)]

    def _evicted(self, node_index: int, hit_blocks: int) -> int:
        """How many of ``hit_blocks`` resident blocks competing jobs evicted."""
        draws = self._churn.get(node_index)
        if draws is None:
            draws = self._churn[node_index] = BlockDraws(
                self._rng.get("churn", node_index), "random"
            )
        p = self.spec.cache_churn
        if hit_blocks == 1:
            return 1 if draws.draw() < p else 0
        return sum(u < p for u in draws.take(hit_blocks))

    def read(
        self,
        node_index: int,
        file_id: int,
        offset: int,
        nbytes: int,
        arrival: float,
        sequential: bool = False,
    ) -> IoTiming:
        """Read ``nbytes`` at ``offset``; page cache first, then OSTs.

        ``sequential=True`` engages OS read-ahead: the cache prefetches the
        read-ahead window past the request so subsequent sequential reads
        hit memory (this is what makes the containerized Ising set fast).
        """
        if nbytes < 0:
            raise ValueError("negative read size")
        self.read_ops += 1
        self.bytes_read += nbytes
        spec = self.spec
        cache = self.caches[node_index]
        hit_blocks, miss_blocks = cache.access(file_id, offset, nbytes)
        # Multi-tenant churn: even a "resident" dataset occasionally finds
        # its blocks evicted by competing jobs sharing the node — the tail
        # the paper observes on the otherwise cache-friendly Ising set.
        if hit_blocks and spec.cache_churn > 0.0:
            evicted = self._evicted(node_index, hit_blocks)
            hit_blocks -= evicted
            miss_blocks += evicted
        total_blocks = hit_blocks + miss_blocks
        cached_fraction = hit_blocks / total_blocks if total_blocks else 1.0

        latency = _MEM_READ_LATENCY_S + nbytes * 2e-11  # memcpy from cache
        completion = arrival + latency
        if miss_blocks:
            miss_bytes = miss_blocks * cache.block_bytes
            if sequential:
                ra = spec.readahead_bytes
                cache.prefetch(file_id, offset + nbytes, ra)
                miss_bytes += ra  # the drive streams the read-ahead window too
            stripe = spec.stripe_size_bytes
            s = offset // stripe
            last_stripe = (offset + (nbytes if nbytes > 1 else 1) - 1) // stripe
            jit = self._ost_jitter.draw()
            bytes_per_stripe = miss_bytes / (last_stripe - s + 1)
            service = (spec.ost_read_latency_s + bytes_per_stripe / spec.ost_bandwidth_Bps) * jit
            osts, n_osts = self.osts, len(self.osts)
            stripe_count = spec.stripe_count if spec.stripe_count > 1 else 1
            base = file_id * 131
            finish = arrival
            while s <= last_stripe:
                done = osts[(base + s % stripe_count) % n_osts].serve(arrival, service)
                if done > finish:
                    finish = done
                s += 1
            completion = finish + latency
        return IoTiming(completion, completion - arrival, cached_fraction)

    def write(self, node_index: int, file_id: int, nbytes: int, arrival: float) -> float:
        """Buffered write: charge OST bandwidth, return completion time."""
        stripe = self.spec.stripe_size_bytes
        n_stripes = max(1, (nbytes + stripe - 1) // stripe)
        finish = arrival
        for s in range(n_stripes):
            station = self._ost_of(file_id, s)
            per = nbytes / n_stripes
            finish = max(
                finish,
                station.serve(arrival, self.spec.ost_read_latency_s + per / self.spec.ost_bandwidth_Bps),
            )
        return finish

    def drop_caches(self) -> None:
        for cache in self.caches:
            cache.clear()
