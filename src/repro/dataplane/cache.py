"""The sample cache: one hierarchy of byte pools in front of the transport.

RapidGNN-style observation: with deterministic sampling, a modest DRAM
budget spent on recently fetched *remote* samples slashes repeat remote
traffic across epochs.  A store handle, session view or tenant partition
holds exactly one :class:`TieredCache` — GPU-pinned → DRAM → NVMe, of
which only the DRAM pool is mandatory: ``cache_bytes=N`` is the
hierarchy ``dram:N``, and cache-off (the default everywhere, the seed
fetch behaviour bit-for-bit) is the same class over a zero-byte DRAM
pool.  Each per-rank tier is a :class:`SampleCache`: a byte-budgeted pool
of packed (still-serialised) payloads keyed by global sample id.  The
hierarchy's hit/miss/eviction counters are what
:class:`~repro.core.store.FetchStats` surfaces to the bench layer.

Two eviction policies, applied at every tier:

* ``"lru"`` (default) — least-recently-used, the seed behaviour,
* ``"belady"`` — farthest-reuse: because ``DataLoader.epoch_batches``
  returns the whole epoch permutation up front, the epoch-ahead scheduler
  can hand the cache its *future* access sequence (:meth:`set_future`,
  rolled forward one epoch at a time by :meth:`extend_future`)
  and advance a logical clock (:meth:`advance_to`) as batches are
  consumed.  The victim is then the resident entry whose next use lies
  farthest in the future (entries with no future use at all go first) —
  Belady's MIN, which is optimal for a known reference string.  Until a
  future is supplied the policy degrades to LRU order, so a "belady"
  cache without a scheduler behaves exactly like an LRU one.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from ..storage.serialization import HEADER_NBYTES

__all__ = [
    "CacheStats",
    "TierStats",
    "SampleCache",
    "TieredCache",
    "CACHE_POLICIES",
]

CACHE_POLICIES = ("lru", "belady")

_NEVER = float("inf")  # next-use distance of an entry the future never touches


@dataclass
class CacheStats:
    """Cumulative counters of one :class:`TieredCache` (one counter per event)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    hit_bytes: int = 0


@dataclass
class TierStats:
    """Per-tier counters of a :class:`TieredCache` level.

    * ``hits``/``hit_bytes`` — demand requests served by this tier,
    * ``promotions``/``promoted_bytes`` — entries copied up out of this
      tier (NVMe→DRAM reads, DRAM→GPU pins),
    * ``demotions`` — entries pushed down *into* the next tier when this
      one evicted them; ``clean_demotions`` are the free subset (bytes
      already resident below, no write needed),
    * ``evictions``/``dropped`` — entries that left the hierarchy from
      this tier (``dropped`` = demotion attempted but the lower tier
      could not take it),
    * ``stall_seconds`` — demand-path wall time spent waiting on this
      tier's device.
    """

    hits: int = 0
    hit_bytes: int = 0
    promotions: int = 0
    promoted_bytes: int = 0
    demotions: int = 0
    clean_demotions: int = 0
    evictions: int = 0
    dropped: int = 0
    stall_seconds: float = 0.0


def _adopt(payload: np.ndarray) -> np.ndarray:
    """``payload`` as read-only flat bytes the cache may keep: itself when
    it already is a read-only flat ``uint8`` array (every payload the data
    plane delivers — nothing can change under the cache), a read-only flat
    view of it when it is read-only in another shape, else a private
    frozen copy.  Byte-preserving — a view, never ``astype`` — so what is
    charged is exactly what is resident."""
    flags = payload.flags
    if payload.dtype == np.uint8 and payload.ndim == 1 and flags.c_contiguous and not flags.writeable:
        return payload
    flat = np.ascontiguousarray(payload).view(np.uint8).reshape(-1)
    if flat.flags.writeable:
        flat = flat.copy()
        flat.setflags(write=False)
    return flat


class SampleCache:
    """One tier's pool of packed sample payloads under a byte budget.

    Every entry is in the one payload format of the owning hierarchy
    (whole records, or header-stripped columns on a columnar store), so
    the pool keeps no per-entry format.  :meth:`put_owned` takes an
    optional ``victims`` list: every entry the byte budget forces out
    (not pop/refresh) is appended to it as ``(key, payload)``, so the
    owning hierarchy demotes them itself and the pool never holds a
    reference back to its owner.
    """

    def __init__(self, capacity_bytes: int = 0, policy: str = "lru") -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        if policy not in CACHE_POLICIES:
            raise ValueError(
                f"policy must be one of {CACHE_POLICIES}, got {policy!r}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self.policy = policy
        self.used_bytes = 0
        self._entries: "OrderedDict[int, np.ndarray]" = OrderedDict()
        # Belady state: per-key FIFO of future access positions plus the
        # logical clock (position of the access currently being served).
        self._future: dict[int, deque] = {}
        self._clock = 0

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    # -- future-knowledge plumbing (belady) --------------------------------
    def set_future(self, sequence: Iterable[int], start: int = 0) -> None:
        """Install the known future access sequence (epoch-ahead schedule).

        ``sequence`` lists sample ids in the order they will be accessed;
        its first access sits at absolute position ``start``, which is
        "now".  Replaces any previous future and sets the logical clock
        to ``start``.  A no-op for the LRU policy.
        """
        if self.policy != "belady":
            return
        self._future = {}
        self._clock = int(start)
        self.extend_future(sequence, start)

    def extend_future(self, sequence: Iterable[int], start: int) -> None:
        """Append accesses at positions ``start, start + 1, ...`` to the
        installed future — the rolling horizon of a run-long schedule.

        The clock and every not-yet-consumed access stay as they are, so
        the current epoch's unconsumed tail keeps its (nearer) next-use
        distances when the next epoch's accesses arrive; replacing the
        future instead would make that tail read as "never used" and
        evict it first.  ``start`` must not precede any installed
        position (per-key queues stay sorted).  A no-op for LRU.
        """
        if self.policy != "belady":
            return
        future = self._future
        clock = self._clock
        for pos, key in enumerate(sequence, int(start)):
            key = int(key)
            q = future.get(key)
            if q is None:
                q = future[key] = deque()
            while q and q[0] < clock:
                q.popleft()  # consumed accesses: keeps a run-long queue bounded
            q.append(pos)

    def advance_to(self, position: int) -> None:
        """Move the logical clock: accesses before ``position`` are past."""
        if position > self._clock:
            self._clock = int(position)

    def _next_use(self, key: int) -> float:
        q = self._future.get(key)
        if q is None:
            return _NEVER
        while q and q[0] < self._clock:
            q.popleft()
        return float(q[0]) if q else _NEVER

    def _victim(self) -> int:
        """Key to evict next.  LRU order unless a Belady future is armed."""
        if self.policy == "belady" and self._future:
            worst_key = None
            worst_dist = -1.0
            # Insertion order iteration makes ties deterministic (the
            # stalest of equally-distant entries goes first).
            for key in self._entries:
                dist = self._next_use(key)
                if dist == _NEVER:
                    return key
                if dist > worst_dist:
                    worst_key, worst_dist = key, dist
            return worst_key  # type: ignore[return-value]
        return next(iter(self._entries))

    # -- the cache proper ---------------------------------------------------
    def get(self, key: int) -> Optional[np.ndarray]:
        """Payload for ``key`` (refreshing its recency), or None on a miss.

        The returned array is the cached storage itself (read-only).
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def peek(self, key: int) -> Optional[np.ndarray]:
        """The payload of a resident ``key``, else None.

        Recency-neutral: residency probes (the tiered cache's tier walk,
        node-leader duty) must not perturb the eviction order.
        """
        return self._entries.get(key)

    def put(self, key: int, payload: np.ndarray) -> bool:
        """Insert a payload, evicting entries to fit the byte budget.

        Returns False when the cache is disabled or the payload alone
        exceeds the budget.  A read-only payload — every payload the data
        plane delivers — is parked as it is, a view of its owner's bytes;
        a writable one is copied first.
        """
        return self.put_owned(key, _adopt(payload))

    # A pool holds its hierarchy's one payload format, so the columnar
    # names are the same operations (kept: the perf ledger wraps them).
    get_columns = get
    put_columns = put

    def put_owned(self, key: int, stored: np.ndarray, victims: Optional[list] = None) -> bool:
        """Insert a flat ``uint8`` payload *without copying* and freeze it.

        The one insert: tier moves hand the same storage array from tier
        to tier, and :meth:`put` lands here once its payload is safe to
        keep.  The caller cedes ownership — the array
        is made read-only, and the budget is charged its ``nbytes``
        whatever it shares memory with.
        """
        if not self.enabled:
            return False
        if stored.dtype != np.uint8 or stored.ndim != 1:
            raise ValueError("put_owned requires a flat uint8 payload")
        stored.setflags(write=False)
        return self._insert(key, stored, victims)

    def pop(self, key: int) -> Optional[np.ndarray]:
        """Remove and return the payload of ``key``, or None if absent.

        A tier *move*, not an eviction: nothing lands in ``victims``.
        """
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.used_bytes -= int(entry.nbytes)
        return entry

    def _insert(self, key: int, stored: np.ndarray, victims: Optional[list]) -> bool:
        nbytes = stored.nbytes
        capacity = self.capacity_bytes
        if nbytes > capacity:
            return False
        entries = self._entries
        used = self.used_bytes
        old = entries.pop(key, None)
        if old is not None:
            used -= old.nbytes
        if used + nbytes > capacity:
            lru = self.policy != "belady" or not self._future
            while used + nbytes > capacity:
                if lru:
                    victim_key, victim = entries.popitem(last=False)
                else:
                    victim_key = self._victim()
                    victim = entries.pop(victim_key)
                used -= victim.nbytes
                if victims is not None:
                    victims.append((victim_key, victim))
        entries[key] = stored
        self.used_bytes = used + nbytes
        return True


class TieredCache:
    """GPU-pinned → DRAM → NVMe cache hierarchy (PFS is the miss path).

    A hierarchy holds one payload format, its store's: whole packed
    records, or with ``columnar`` the records' header-stripped column
    bytes (what the arena scatter reads from ``HEADER_NBYTES``).  The
    fast tiers (``gpu``, ``dram``) are per-rank :class:`SampleCache`
    pools — an *exclusive* pair: an entry lives in one or the other,
    and moves between them by handing over the same storage array
    (:meth:`SampleCache.pop` → :meth:`SampleCache.put_owned`, zero
    copies).  The ``nvme`` tier is a node-shared
    :class:`~repro.storage.staging.NVMeShardStore` holding packed bytes,
    *inclusive* below the fast tiers: entries staged or demoted there
    stay resident after promotion, so re-demoting them later is a clean
    drop instead of a write.  Only the DRAM pool always exists; with no
    tier configured at all it holds zero bytes and the cache is off.

    Every boundary runs the same policy.  Under ``belady`` the epoch
    future installed by the scheduler (:meth:`set_future` /
    :meth:`advance_to`) drives both eviction (farthest next use leaves
    first) and *admission*: a full tier refuses an incoming entry whose
    next use lies beyond its current victim's, so deep prefetch can
    never churn out sooner-needed bytes.  Under ``lru`` admission is
    unconditional and eviction is least-recent, per tier.

    Two rules depend on whether anything sits below DRAM (both stated
    once, here: :meth:`put_many` and :attr:`wave_cap_bytes`; the
    measurements that keep them apart are in DESIGN.md §4c.3): a
    hierarchy that ends at DRAM admits every wire payload and puts no
    byte cap on a prefetch wave; one with an NVMe tier gates wire
    payloads like any other boundary and caps a wave at its fast tiers.

    Demotion chain: each pool insert returns the entries its byte budget
    forced out and the hierarchy demotes them inline — a GPU eviction
    falls into DRAM; a DRAM eviction is a clean drop when the bytes are
    already NVMe-resident, a plain exit when Belady knows the entry is
    never used again, and a write-behind to NVMe otherwise (occupying
    the device queue but never charged to the demand path).  Promotions
    out of NVMe are batched (``read_many``), and the promoted payload is
    lifted into the hierarchy's format and handed to DRAM as a view — no
    per-sample allocation, which is what lets the arena scatter path stay
    zero-copy end to end.
    """

    def __init__(
        self,
        options,  # core.config.CacheOptions (untyped to avoid an import cycle)
        *,
        columnar: bool = False,
        nvme=None,  # storage.staging.NVMeShardStore | None
        gpu_spec=None,  # hardware.topology.GpuSpec | None
        dram_hit_base_s: float = 0.0,
        dram_hit_Bps: float = float("inf"),
        now_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        gpu_tier = options.tier("gpu")
        nvme_tier = options.tier("nvme")
        if gpu_tier is not None and gpu_spec is None:
            raise ValueError("a gpu tier needs a GpuSpec to price pinned copies")
        if nvme_tier is not None and nvme is None:
            raise ValueError("an nvme tier needs an NVMeShardStore")
        self.options = options
        self.policy = options.policy
        self.columnar = columnar
        self.gpu_spec = gpu_spec
        self.gpu = (
            SampleCache(gpu_tier.capacity_bytes, options.policy)
            if gpu_tier is not None
            else None
        )
        self.dram = SampleCache(options.dram_bytes, options.policy)
        self.nvme = nvme if nvme_tier is not None else None
        # The per-rank pools, fastest first.
        tiers = (("gpu", self.gpu), ("dram", self.dram))
        self._fast = [(name, pool) for name, pool in tiers if pool is not None]
        self.dram_hit_base_s = dram_hit_base_s
        self.dram_hit_Bps = dram_hit_Bps
        self._now = now_fn if now_fn is not None else (lambda: 0.0)
        self.stats = CacheStats()
        self.tier_stats: dict[str, TierStats] = {"dram": TierStats()}
        if self.gpu is not None:
            self.tier_stats["gpu"] = TierStats()
        if self.nvme is not None:
            self.tier_stats["nvme"] = TierStats()

    # -- store-facing surface ------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.dram.enabled

    @property
    def fast_capacity_bytes(self) -> int:
        """Combined byte budget of the per-rank (gpu+dram) tiers — what
        the scheduler's carried launches must fit beside."""
        return sum(pool.capacity_bytes for _, pool in self._fast)

    @property
    def wave_cap_bytes(self) -> Optional[int]:
        """Byte cap on one prefetch wave, or None for no cap.  Above an
        NVMe tier a wave bigger than the fast tiers would demote its own
        head before the trailing batches consume it; a hierarchy that
        ends at DRAM cuts waves by depth alone."""
        return self.fast_capacity_bytes if self.nvme is not None else None

    def __len__(self) -> int:
        return sum(len(pool) for _, pool in self._fast)

    def set_future(self, sequence: Iterable[int], start: int = 0) -> None:
        seq = [int(k) for k in sequence]
        for _, pool in self._fast:
            pool.set_future(seq, start)

    def extend_future(self, sequence: Iterable[int], start: int) -> None:
        seq = [int(k) for k in sequence]
        for _, pool in self._fast:
            pool.extend_future(seq, start)

    def advance_to(self, position: int) -> None:
        for _, pool in self._fast:
            pool.advance_to(position)

    def put(self, key: int, payload: np.ndarray) -> bool:
        """Park one wire-fetched payload (lands in DRAM)."""
        return self.put_many((key,), (payload,)) == 1

    put_columns = put  # one payload format per hierarchy (a perf-ledger name)

    def put_many(self, keys, payloads) -> int:
        """Park wire-fetched payloads, in the hierarchy's format, in DRAM,
        in order.  Returns how many were admitted.

        The one admission loop.  Gated only when an NVMe tier sits below
        (:meth:`_admit_ok`); a hierarchy that ends at DRAM admits every
        payload that fits.  What the inserts force out of DRAM is demoted
        afterwards, in eviction order: DRAM admission never looks below
        DRAM, so that is the order-preserving equivalent of demoting after
        each insert.
        """
        dram = self.dram
        if not dram.enabled:
            return 0
        gated = self.nvme is not None
        dropped = admitted = 0
        victims: list = []
        for key, payload in zip(keys, payloads):
            if gated and not self._admit_ok(dram, key, int(payload.nbytes)):
                dropped += 1
                continue
            if dram._insert(key, _adopt(payload), victims):
                admitted += 1
        if victims:
            self._demote_from_dram(victims)
        if dropped:
            self.tier_stats["dram"].dropped += dropped
        return admitted

    # -- demand path ---------------------------------------------------------
    def fast_get(self, key: int) -> Optional[tuple[np.ndarray, float]]:
        """Serve ``key`` from a per-rank tier, GPU first.

        Returns ``(payload, cost_s)`` or None.  The returned array is tier
        storage (read-only).
        """
        for name, pool in self._fast:
            entry = pool.get(key)
            if entry is None:
                continue
            nbytes = int(entry.nbytes)
            ts = self.tier_stats[name]
            ts.hits += 1
            ts.hit_bytes += nbytes
            self.stats.hits += 1
            self.stats.hit_bytes += nbytes
            if name == "gpu":
                from ..hardware.gpu import pinned_read_time

                cost = pinned_read_time(self.gpu_spec, nbytes)
            else:
                # A hit still costs the DRAM copy out of the cache.
                cost = self.dram_hit_base_s + nbytes / self.dram_hit_Bps
            return entry, cost
        return None

    def fast_resident(self, key: int) -> bool:
        """Is ``key`` in a per-rank tier (no device IO needed to serve)?"""
        return key in self.dram._entries or (self.gpu is not None and key in self.gpu._entries)

    def peek(self, key: int) -> Optional[np.ndarray]:
        """Payload for ``key`` from a per-rank tier, or None.

        Stats-silent and recency-neutral, so node-leader duty can serve
        peers without touching the demand-path counters.
        """
        for _, pool in self._fast:
            entry = pool.peek(key)
            if entry is not None:
                return entry
        return None

    def count_miss(self) -> None:
        """Record a full-hierarchy miss (the sample goes to the wire)."""
        self.stats.misses += 1

    def nvme_resident(self, key: int) -> bool:
        """Is ``key`` promotable from NVMe into this hierarchy's format?"""
        return self.nvme is not None and self.nvme.resident(key, self.columnar)

    def _lift(self, key: int) -> tuple[np.ndarray, np.ndarray]:
        """``(staged, payload)``: NVMe's bytes for ``key`` and a view of
        them in the hierarchy's format (a columnar one strips a staged
        whole record's header)."""
        staged, has_header = self.nvme.get(key)
        return staged, staged[HEADER_NBYTES:] if self.columnar and has_header else staged

    def promote_batch(self, keys: list, now: float) -> tuple[dict, float]:
        """Demand-promote NVMe-resident entries.

        Issues bounded batched reads (one flash latency per IO group, not
        per sample), parks each payload in DRAM for reuse (Belady-gated,
        as a view — zero copies), and returns ``({key: payload},
        wall_seconds)``.  The caller charges ``wall_seconds`` to the new
        "promote" fetch stage.
        """
        if self.nvme is None or not keys:
            return {}, 0.0
        entries = [(int(k), *self._lift(int(k))) for k in keys]
        wall = self._read_batched([int(p.nbytes) for _, p, _ in entries], now)
        ts = self.tier_stats["nvme"]
        ts.stall_seconds += wall
        results = {}
        for k, staged, payload in entries:
            nbytes = int(staged.nbytes)
            ts.hits += 1
            ts.hit_bytes += nbytes
            ts.promotions += 1
            ts.promoted_bytes += nbytes
            self.stats.hits += 1
            self.stats.hit_bytes += nbytes
            results[k] = payload
            if self._admit_ok(self.dram, k, int(payload.nbytes)):
                self._move_to_dram(k, payload)
        return results, wall

    # -- prefetch path -------------------------------------------------------
    def stage_up(self, keys: list, now: float) -> tuple[int, float]:
        """Wave prefetch: stage NVMe-resident future-window entries into
        the fast tiers ahead of demand.

        Batched reads park admission-approved entries in DRAM; when a GPU
        tier exists, entries it will take are then lifted DRAM→GPU at
        pinned-copy cost.  Returns ``(n_promoted, wall_seconds)``.
        """
        if self.nvme is None or not keys:
            return 0, 0.0
        picked = []
        for k in keys:
            k = int(k)
            if self.fast_resident(k) or not self.nvme_resident(k):
                continue
            staged, payload = self._lift(k)
            if not self._admit_ok(self.dram, k, int(payload.nbytes)):
                continue
            picked.append((k, staged, payload))
        if not picked:
            return 0, 0.0
        wall = self._read_batched([int(p.nbytes) for _, p, _ in picked], now)
        ts = self.tier_stats["nvme"]
        for k, staged, payload in picked:
            ts.promotions += 1
            ts.promoted_bytes += int(staged.nbytes)
            self._move_to_dram(k, payload)
        if self.gpu is not None:
            from ..hardware.gpu import pinned_write_time

            gpu_ts = self.tier_stats["gpu"]
            for k, _staged, payload in picked:
                if not self._admit_ok(self.gpu, k, int(payload.nbytes)):
                    continue
                stored = self.dram.pop(k)
                if stored is None:
                    continue  # DRAM already demoted it; leave it be
                victims: list = []
                self.gpu.put_owned(k, stored, victims)
                self._demote_from_gpu(victims)
                wall += pinned_write_time(self.gpu_spec, int(stored.nbytes))
                gpu_ts.promotions += 1
                gpu_ts.promoted_bytes += int(stored.nbytes)
        return len(picked), wall

    # -- internals -----------------------------------------------------------
    def _read_batched(self, sizes: list, now: float) -> float:
        """Issue the NVMe reads for ``sizes`` as bounded IO groups (one
        flash latency per group, ``MAX_PROMOTION_IO_BYTES`` each) at
        ``now``; returns the wall seconds until the last one lands."""
        from .planner import plan_promotions

        done = now
        for lo, hi in plan_promotions(sizes):
            done = max(done, self.nvme.device.read_many(hi - lo, sum(sizes[lo:hi]), now))
        return max(0.0, done - now)

    def _admit_ok(self, cache: SampleCache, key: int, nbytes: int) -> bool:
        """Belady admission gate: a full tier refuses an entry whose next
        use is farther than its current victim's (or unknown)."""
        if not cache.enabled or nbytes > cache.capacity_bytes:
            return False
        if key in cache:
            return True  # refresh
        if cache.used_bytes + nbytes <= cache.capacity_bytes:
            return True
        if cache.policy != "belady" or not cache._future:
            return True  # LRU admits unconditionally (evicting as needed)
        incoming = cache._next_use(key)
        if incoming == _NEVER:
            return False
        return incoming < cache._next_use(cache._victim())

    def _move_to_dram(self, key: int, stored: np.ndarray) -> None:
        """Tier move into DRAM (zero-copy); what it displaces falls below."""
        victims: list = []
        self.dram.put_owned(key, stored, victims)
        self._demote_from_dram(victims)

    def _demote_from_gpu(self, victims: list) -> None:
        ts = self.tier_stats["gpu"]
        for key, payload in victims:
            ts.demotions += 1
            if self._admit_ok(self.dram, key, int(payload.nbytes)):
                self._move_to_dram(key, payload)
            else:
                self._fall_below_dram([(key, payload)], ts)

    def _demote_from_dram(self, victims: list) -> None:
        ts = self.tier_stats["dram"]
        ts.demotions += len(victims)
        self._fall_below_dram(victims, ts)

    def _fall_below_dram(self, victims: list, ts: TierStats) -> None:
        """Let ``(key, payload)`` victims of a fast tier fall below DRAM,
        in order, booking each on ``ts``."""
        nvme, stats, dram = self.nvme, self.stats, self.dram
        horizon = self.policy == "belady" and dram._future
        if nvme is None and not horizon:
            # Nothing below DRAM and no Belady horizon: every victim leaves.
            ts.evictions += len(victims)
            stats.evictions += len(victims)
            return
        whole = not self.columnar
        for key, payload in victims:
            if nvme is not None and key in nvme:
                # Bytes already resident below (pinned stage or an earlier
                # demotion): dropping the fast copy costs nothing.
                ts.clean_demotions += 1
                continue
            if horizon and dram._next_use(key) == _NEVER:
                # Belady says this entry is never referenced again inside
                # the known horizon: an NVMe write would be pure waste.
                ts.evictions += 1
            elif nvme is not None:
                if nvme.write_behind(key, payload, whole, self._now()) is not None:
                    continue  # write-behind queued; bytes stay in the hierarchy
                ts.dropped += 1
            else:
                ts.evictions += 1
            stats.evictions += 1
