"""DDStore configuration: the DS = (c, w, f) triple of paper §3.1.

* ``c`` — number of chunks the dataset is striped into (derived:
  ``c = T / w`` samples per chunk over each replica group's members),
* ``w`` — the store *width*: ranks per replica group.  ``N/w`` replica
  groups each hold a full copy of the dataset.  Width = N (one replica)
  is the default, exactly as in the paper,
* ``f`` — the communication framework.  The paper ships MPI RMA and
  discusses rejected alternatives; we implement ``mpi-rma`` plus a
  two-sided ``p2p`` data plane as the ablation of §3.1's rejected design
  (message exchange requiring the target's involvement).

A store's tuning surface is two nested, individually-validated option
dataclasses:

* :class:`DataPlaneOptions` — the fetch path: framework, request
  coalescing, hot-sample cache budget, epoch-ahead prefetch,
* :class:`ResilienceOptions` — how a fetch behaves when a peer is slow or
  dead: per-read virtual-time timeout, retry budget, and replica
  failover.

Every knob is passed inside its group::

    DDStoreConfig(n, width=w,
                  dataplane=DataPlaneOptions(framework="mpi-rma", cache_bytes=1 << 20),
                  resilience=ResilienceOptions(timeout_s=1e-3, failover=True))

:class:`ServingOptions` — the multi-tenant serving layer's tenant limit,
QoS classes and DRR fairness quanta — is not part of a store's
configuration: it goes to :func:`repro.client.serve` /
:class:`repro.serving.StoreService`, the only readers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "TierSpec",
    "CacheOptions",
    "DataPlaneOptions",
    "ResilienceOptions",
    "ServingOptions",
    "DDStoreConfig",
    "FRAMEWORKS",
    "TIER_KINDS",
]

#: The data-plane frameworks ``DataPlaneOptions.framework`` accepts; each
#: names one transport class in :data:`repro.dataplane.transport.TRANSPORTS`.
FRAMEWORKS = ("mpi-rma", "p2p")

#: Recognised cache tiers, fastest first.  ``gpu`` and ``dram`` are
#: per-rank byte pools; ``nvme`` is the node-shared burst buffer.  The
#: parallel file system is not a tier — it is what a full hierarchy miss
#: falls back to.
TIER_KINDS = ("gpu", "dram", "nvme")

_SIZE_SUFFIXES = {
    "k": 1 << 10,
    "m": 1 << 20,
    "g": 1 << 30,
    "t": 1 << 40,
}


def _check(field: str, value, least: Optional[int] = 1) -> None:
    """The one number check of every option group.

    ``least`` an int: ``value`` must be an integer (``bool`` is not one)
    no smaller than it.  ``least=None``: ``value`` must be a finite,
    positive real (a NaN timeout would never fire).  Failing here, at
    construction, beats a ``TypeError`` mid-fetch.
    """
    if least is None:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{field} must be a number, got {value!r}")
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{field} must be finite and positive, got {value!r}")
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{field} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{field} must be >= {least}, got {value}")


def _check_flag(field: str, value) -> None:
    """The one on/off check: ``value`` must be a ``bool`` (NumPy's
    ``bool_`` too, as :func:`_check` takes NumPy integers).  A string is
    refused: ``"no"`` is truthy and would switch the option on."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{field} must be True or False, got {value!r}")


def _parse_size(text: str) -> int:
    """``"4m"`` -> 4 MiB; bare integers are bytes."""
    text = text.strip().lower()
    if not text:
        raise ValueError("empty size")
    mult = 1
    if text[-1] in _SIZE_SUFFIXES:
        mult = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"unparseable size {text!r}") from None
    return value * mult


@dataclass(frozen=True)
class TierSpec:
    """One level of the cache hierarchy.

    ``capacity_bytes`` is per *rank* for ``gpu`` and ``dram`` tiers and
    per *node* for the ``nvme`` tier (the burst buffer is a node-shared
    device; all local ranks stage into the same pool).
    """

    kind: str
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.kind not in TIER_KINDS:
            raise ValueError(
                f"unknown tier kind {self.kind!r}; options: {TIER_KINDS}"
            )
        _check(f"tier {self.kind!r} capacity_bytes", self.capacity_bytes)


@dataclass(frozen=True)
class CacheOptions:
    """The sample cache hierarchy: GPU-pinned → DRAM → NVMe (→ PFS).

    * ``tiers`` — ordered fastest-first.  No tiers at all is the cache
      switched off.  Otherwise a DRAM tier is mandatory (it is the
      landing zone for wire fetches and the source/sink of every
      promotion and demotion); GPU and NVMe tiers are optional.
    * ``policy`` — eviction/admission policy applied at *every* boundary:
      ``"belady"`` reuses the epoch-future feed so each tier evicts its
      farthest-reuse entry and refuses admissions that would displace a
      sooner-needed one; ``"lru"`` admits always and evicts least-recent.

    A hierarchy with an NVMe tier pre-stages the dataset onto it
    (capacity permitting) at store-create time, charged to preload;
    staged entries are pinned, so DRAM demotions of staged samples are
    clean drops instead of write-backs.

    ``CacheOptions.parse("gpu:2m+dram:4m+nvme:256m")`` builds one from
    the CLI/bench string form.
    """

    tiers: tuple = ()
    policy: str = "lru"

    def __post_init__(self) -> None:
        if not isinstance(self.tiers, tuple):
            object.__setattr__(self, "tiers", tuple(self.tiers))
        for t in self.tiers:
            if not isinstance(t, TierSpec):
                raise TypeError(f"tiers must be TierSpec, got {type(t)!r}")
        kinds = [t.kind for t in self.tiers]
        if len(set(kinds)) != len(kinds):
            raise ValueError(f"duplicate tier kinds: {kinds}")
        order = [k for k in TIER_KINDS if k in kinds]
        if kinds != order:
            raise ValueError(
                f"tiers must be ordered fastest-first {TIER_KINDS}, got {kinds}"
            )
        if kinds and "dram" not in kinds:
            raise ValueError(
                "CacheOptions requires a dram tier (wire fetches land there)"
            )
        if self.policy not in ("lru", "belady"):
            raise ValueError(
                f"policy must be 'lru' or 'belady', got {self.policy!r}"
            )

    @classmethod
    def parse(cls, text: str, policy: str = "lru") -> "CacheOptions":
        """Parse ``"gpu:2m+dram:4m+nvme:256m"`` into a :class:`CacheOptions`."""
        tiers = []
        for part in text.split("+"):
            part = part.strip()
            if not part:
                continue
            kind, sep, size = part.partition(":")
            if not sep:
                raise ValueError(
                    f"tier {part!r} must be '<kind>:<size>', e.g. 'dram:4m'"
                )
            tiers.append(TierSpec(kind=kind.strip().lower(), capacity_bytes=_parse_size(size)))
        if not tiers:
            raise ValueError(f"tier spec {text!r} names no tier")
        return cls(tiers=tuple(tiers), policy=policy)

    @classmethod
    def dram_only(cls, nbytes: int, policy: str = "lru") -> "CacheOptions":
        """A hierarchy that ends at a ``nbytes`` DRAM tier (0 = cache off)."""
        tiers = (TierSpec("dram", nbytes),) if nbytes else ()
        return cls(tiers=tiers, policy=policy)

    def tier(self, kind: str) -> Optional[TierSpec]:
        for t in self.tiers:
            if t.kind == kind:
                return t
        return None

    @property
    def dram_bytes(self) -> int:
        t = self.tier("dram")
        return t.capacity_bytes if t is not None else 0


@dataclass(frozen=True)
class DataPlaneOptions:
    """How bytes move: transport selection and fetch-path tuning.

    All defaults are seed-equivalent: ``mpi-rma`` with coalescing on,
    unsplit coalesced reads, the sample cache off, and a depth-1 prefetch
    pipeline (no epoch-ahead scheduling).

    The sample cache has one configuration, :attr:`cache_options` (a
    :class:`CacheOptions`), spelled one of two ways:

    * ``cache`` — the :class:`CacheOptions` itself, any hierarchy
      (GPU-pinned → DRAM → NVMe) with its own ``policy`` (``"lru"`` or
      ``"belady"``),
    * ``cache_bytes=N`` — shorthand for an LRU cache of one ``N``-byte
      DRAM tier, ``CacheOptions.dram_only(N)``; the default
      ``cache_bytes=0`` is the cache switched off.

    ``cache=`` beside ``cache_bytes > 0`` is refused, never half-read.

    The epoch-ahead knobs:

    * ``prefetch_depth`` — how many batches the trainer keeps in flight
      ahead of compute (1 = the seed pipeline, bit-stable),
    * ``scheduler`` — enable epoch-ahead *wave* scheduling: upcoming
      batches are grouped into waves whose remote samples are planned and
      fetched together (one lock epoch per target per wave, cross-batch
      dedup/coalescing) and parked in the sample cache, so
      ``scheduler=True`` requires a cache (``cache_bytes > 0`` or
      ``cache=``),
    * ``columnar`` — enable the zero-copy columnar batch path: the store
      replicates a per-sample shape index at create time and demand
      fetches scatter wire bytes straight into preallocated batch arenas
      (no per-sample decode or allocation).  Off by default; the row path
      stays bit-identical.
    * ``node_fetch`` — aggregate wave fetches at *node* scope: the ranks
      of a node merge their per-rank wave plans (each computed locally
      from the shared deterministic epoch permutation — zero extra
      communication), dedup and coalesce overlapping remote ranges, and
      a per-(node, target) leader issues the single wire read; payloads
      fan out over the cheap intra-node path into every subscriber's
      cache, priced as a ``"fanout"`` fetch stage and counted in the
      ``ddstore.node`` metric family.  Requires ``scheduler=True`` (node
      aggregation is a wave-scope operation) and a coalescing transport
      (``supports_coalescing`` of the framework's entry in
      :data:`repro.dataplane.TRANSPORTS`), both checked here.  Off by
      default; disabled traces stay bit-identical.
    """

    framework: str = "mpi-rma"
    coalesce: bool = True
    cache_bytes: int = 0
    prefetch_depth: int = 1
    scheduler: bool = False
    columnar: bool = False
    cache: Optional[CacheOptions] = None
    node_fetch: bool = False

    def __post_init__(self) -> None:
        if self.framework not in FRAMEWORKS:
            raise ValueError(
                f"unknown framework {self.framework!r}; options: {FRAMEWORKS}"
            )
        for name in ("coalesce", "scheduler", "columnar", "node_fetch"):
            _check_flag(name, getattr(self, name))
        _check("prefetch_depth", self.prefetch_depth)
        _check("cache_bytes", self.cache_bytes, 0)
        if self.cache is not None:
            if not isinstance(self.cache, CacheOptions):
                raise TypeError(f"cache must be CacheOptions, got {type(self.cache)!r}")
            if self.cache_bytes:
                raise ValueError(
                    "cache= spells the whole hierarchy; it does not mix with "
                    f"cache_bytes, got cache_bytes={self.cache_bytes}"
                )
        cache = self.cache_options
        if self.scheduler and not cache.dram_bytes:
            raise ValueError(
                "scheduler=True parks wave-prefetched samples in the sample "
                "cache and therefore requires cache_bytes > 0 or a "
                "cache=CacheOptions(...)"
            )
        if self.node_fetch and not self.scheduler:
            raise ValueError(
                "node_fetch=True aggregates *wave* fetches at node scope and "
                "therefore requires scheduler=True (which in turn needs a "
                "sample cache to park the fanned-out payloads in)"
            )
        if self.node_fetch:
            from ..dataplane.transport import TRANSPORTS  # dataplane imports this module

            if not TRANSPORTS[self.framework].supports_coalescing:
                raise ValueError(
                    f"node_fetch=True merges reads into coalesced leader reads; "
                    f"framework {self.framework!r} does not coalesce"
                )

    @property
    def cache_options(self) -> CacheOptions:
        """The sample-cache configuration both spellings resolve to."""
        if self.cache is not None:
            return self.cache
        return CacheOptions.dram_only(self.cache_bytes)


@dataclass(frozen=True)
class ResilienceOptions:
    """How a fetch behaves when a replica-group peer is slow or dark.

    ``timeout_s=None`` (the default) disables the whole subsystem and
    preserves seed fetch behaviour bit-for-bit.  With a timeout set and
    ``failover=True`` (width permitting: more than one replica group), a
    wire read that has not completed within ``timeout_s`` virtual seconds
    of being issued is abandoned, marks its target suspect, and is
    re-issued to the same chunk's owner in the nearest healthy replica
    group; while the mark lasts — ``timeout_s * 2**k`` after the k-th
    consecutive timeout, scaled up to what the discovery cost — first
    attempts are steered around the slow peer.  A read with nowhere else
    to go (failover off, a single replica, every replica suspect) is
    never abandoned: it is issued once, without a deadline, as is the
    final permitted attempt of any read, so a degraded-but-alive peer
    cannot stall a read forever.  The exponential backoff
    (``1e-4 s * 2**k``, :class:`~repro.dataplane.retry.RetryPolicy`'s
    constants) is waited out only before re-issuing to the *same* rank.
    """

    timeout_s: Optional[float] = None
    max_retries: int = 2
    failover: bool = True

    def __post_init__(self) -> None:
        if self.timeout_s is not None:
            _check("timeout_s", self.timeout_s, None)
        # >= 1: the final attempt runs without a timeout.
        _check("max_retries", self.max_retries)
        _check_flag("failover", self.failover)

    @property
    def enabled(self) -> bool:
        return self.timeout_s is not None


@dataclass(frozen=True)
class ServingOptions:
    """The multi-tenant serving layer: many jobs, one replicated store.

    Passed to :class:`repro.serving.StoreService` (through
    :func:`repro.client.serve`), never to a store: a plain single-job
    :class:`~.store.DDStore` has no serving layer to configure.

    * ``max_tenants`` — concurrent sessions a rank's service admits;
      ``connect`` on a full service raises
      :class:`~repro.serving.AdmissionError`, and each session's cache
      partition is ``budget / max_tenants`` of the parent's DRAM tier
      (static, so a late tenant can never shrink an admitted one's),
    * ``max_inflight_bytes`` — per-tenant cap on wire bytes in flight; a
      fetch wave larger than the cap is admitted alone (head-of-line
      progress), everything else queues,
    * ``drr_quantum_bytes`` — the deficit-round-robin quantum: each
      service turn a tenant's deficit grows by ``quantum * qos_weight``
      and its queued reads issue while the deficit covers them,
    * ``target_inflight_bytes`` — cap on the bytes in flight toward any
      single RMA target, partitioned between QoS *classes* in proportion
      to their weights (DiffServ-style: a latency class never queues
      behind a throughput class's backlog — see
      :meth:`target_share`); once a class's share of a target is
      saturated, that class's further reads queue there in DRR order.
      ``None`` disables the per-target gate (DRR then never engages —
      grants are immediate),
    * ``qos`` — the QoS classes as ``(name, weight)`` pairs; weights
      scale the DRR quantum and the class's per-target byte pool.
    """

    max_tenants: int = 4
    max_inflight_bytes: Optional[int] = None
    drr_quantum_bytes: int = 256 << 10
    target_inflight_bytes: Optional[int] = 1 << 20
    qos: tuple = (("interactive", 4), ("batch", 1))

    def __post_init__(self) -> None:
        _check("max_tenants", self.max_tenants)
        _check("drr_quantum_bytes", self.drr_quantum_bytes)
        for name in ("max_inflight_bytes", "target_inflight_bytes"):
            if getattr(self, name) is not None:
                _check(name, getattr(self, name))
        if not isinstance(self.qos, tuple):
            object.__setattr__(self, "qos", tuple(self.qos))
        if not self.qos:
            raise ValueError("qos needs at least one (name, weight) class")
        names = []
        for entry in self.qos:
            if (
                not isinstance(entry, tuple)
                or len(entry) != 2
                or not isinstance(entry[0], str)
            ):
                raise TypeError(
                    f"qos entries must be (name, weight) pairs, got {entry!r}"
                )
            name, weight = entry
            _check(f"qos weight for {name!r}", weight)
            names.append(name)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate qos class names: {names}")

    @property
    def default_qos(self) -> str:
        """The first listed class — what ``connect`` uses when unspecified."""
        return self.qos[0][0]

    def weight_of(self, qos_class: str) -> int:
        for name, weight in self.qos:
            if name == qos_class:
                return weight
        raise KeyError(
            f"unknown qos class {qos_class!r}; options: "
            f"{[name for name, _ in self.qos]}"
        )

    def target_share(self, qos_class: str) -> Optional[int]:
        """This QoS class's slice of the per-target in-flight byte cap.

        Classes get private pools proportional to their weights, so a
        latency-class read can never wait on a throughput class's
        in-flight bytes — only on its own class's.  Within a class,
        tenants share the pool in DRR order.  ``None`` when the
        per-target gate is disabled.
        """
        if self.target_inflight_bytes is None:
            return None
        total_weight = sum(weight for _, weight in self.qos)
        return max(
            1, self.target_inflight_bytes * self.weight_of(qos_class) // total_weight
        )

    def partition_bytes(self, total_bytes: int) -> int:
        """One tenant slot's slice of a ``total_bytes`` cache budget."""
        return max(0, total_bytes) // self.max_tenants


@dataclass(frozen=True)
class DDStoreConfig:
    """Validated DDStore parameters for a given job size.

    ``width=None`` means the paper default ``w = N`` (single replica
    striped over all ranks).  Data-plane and resilience knobs live in the
    nested :class:`DataPlaneOptions` / :class:`ResilienceOptions` groups;
    passing ``None`` for a group means its defaults.
    """

    n_ranks: int
    width: Optional[int] = None
    dataplane: Optional[DataPlaneOptions] = None
    resilience: Optional[ResilienceOptions] = None

    def __post_init__(self) -> None:
        _check("n_ranks", self.n_ranks)
        if self.width is not None:
            _check("width", self.width)
        w = self.effective_width
        if w < 1 or w > self.n_ranks:
            raise ValueError(
                f"width {w} must be in [1, n_ranks={self.n_ranks}]"
            )
        if self.n_ranks % w != 0:
            valid = [d for d in range(1, self.n_ranks + 1) if self.n_ranks % d == 0]
            raise ValueError(
                f"width {w} must divide the number of ranks {self.n_ranks} "
                f"(every replica group must be complete); valid widths: {valid}"
            )
        for name, group in (
            ("dataplane", DataPlaneOptions),
            ("resilience", ResilienceOptions),
        ):
            value = getattr(self, name)
            if value is None:
                object.__setattr__(self, name, group())
            elif not isinstance(value, group):
                raise TypeError(f"{name} must be {group.__name__}, got {type(value)!r}")
        # failover=True with a single replica has nowhere to fail over to
        # (reads are issued unbounded): "width permitting" is part of the
        # ResilienceOptions contract.

    # -- derived quantities -------------------------------------------------
    @property
    def effective_width(self) -> int:
        return self.n_ranks if self.width is None else self.width

    @property
    def n_replicas(self) -> int:
        """r = N / w (paper eq. 2)."""
        return self.n_ranks // self.effective_width

    def group_of_rank(self, rank: int) -> int:
        """Replica group index of a rank (contiguous blocks of w ranks,
        keeping groups node-aligned for cheap intra-group fetches)."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return rank // self.effective_width

    def group_rank(self, rank: int) -> int:
        """This rank's position inside its replica group."""
        return rank % self.effective_width
