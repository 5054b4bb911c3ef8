"""Node-scope fetch aggregation: one wire read per (node, target), fanned out.

The width parameter exists because the per-node NIC injection FIFO is the
bottleneck — yet every rank of a node independently pulls its own wire
bytes through that shared NIC.  Epoch schedules are deterministic pure
functions of ``(seed, epoch, rank)``, so each rank can reconstruct its
node peers' wave plans with **zero communication** (the RapidGNN
observation, extended across ranks), merge them at node scope, and fetch
every remote range once per *node* instead of once per *rank* (the
communication-avoiding move of Tripathy et al.).

This module is the whole extension, layered on the paper's fetch path
(:mod:`.pipeline` imports it only when a wave takes the ``node_fetch``
branch):

* :func:`node_wave` — one rank's share of a node-aggregated wave, and
  :class:`_NodeSink`, the sink that publishes a leader's payloads and
  fans other leaders' in.  Both reuse the pipeline's call accounting,
  park sink and wave demand.
* :class:`NodeFetchCoordinator` — one per (communicator, store, node,
  tenant) (:func:`_coordinator_key`), shared by the node's ranks through
  the world's ``HostShared.coordinators``.  It
  keeps per-wave entries: the node plan (built once by the
  first-arriving rank — every rank still *pays* the modelled plan CPU,
  since in a real deployment each rank recomputes it locally), the
  per-leader completion events subscribers wait on, and the published
  payload blobs the intra-node fan-out copies from.
  :func:`node_coordinator` resolves it, :func:`abort` wakes it.

The wave itself arrives as a :class:`~.scheduler.WaveWindow` — the
scheduler's rank-invariant key (epoch, batch span) plus the
peer-schedule oracle.

Determinism and liveness:

* The plan is a pure function of the shared epoch schedule and the store
  layout — no cache state, no arrival order — so which rank builds it is
  unobservable.  Leaders are elected per owner *group member* (one
  leader read per (node, target) wave: a single lock epoch and one
  coalesced wire read): a participant that *is* an owner of the member
  serves it from its own shard (zero wire); else round-robin over the
  node's sorted participants.  The participants are every rank of the
  node, so any on-node replica of the member is an owner among them and
  a read leaves the node only when the node holds no copy (chunk
  contents are identical across groups).  Ties break by member index for
  load balance.  Both rules are pure functions of the static (width,
  rank-set) topology, so every rank elects identical leaders with zero
  messages.
* Every rank performs its leader duty (wire reads + publish) *before*
  subscribing to other leaders, so the wait graph is acyclic: a
  subscriber only waits on leaders whose publish requires no other rank.
* A mid-epoch drain (the live-reshard fence) may leave subscribers
  waiting on a leader whose wave never launches.  :func:`abort` force-
  triggers the outstanding events; woken subscribers consume whatever
  was already published and self-fetch the residue over the normal
  per-rank wire path — correct bytes, just without the savings.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from .pipeline import _Call, _ParkSink, _plan_seconds, _remote_demand

__all__ = ["NodeFetchCoordinator", "abort", "node_coordinator", "node_wave"]


class _WaveEntry:
    """Rendezvous state of one wave on one node."""

    __slots__ = ("plan", "events", "blobs", "arrived", "done", "aborted")

    def __init__(self, plan, events: dict) -> None:
        self.plan = plan
        self.events = events  # leader rank -> completion Event
        self.blobs: dict[int, object] = {}  # sample key -> published payload
        self.arrived: set[int] = set()
        self.done: set[int] = set()
        self.aborted = False


class NodeFetchCoordinator:
    """Node-local wave rendezvous shared by the node's ranks.

    Lives in the world's ``HostShared.coordinators`` (single-process
    simulation: all ranks are coroutines of one engine), keyed by
    (communicator, store, node, tenant) — see :func:`_coordinator_key`.
    All methods are synchronous bookkeeping; virtual time is spent only
    in the store coroutines that consult it.
    """

    def __init__(self, engine, participants: tuple[int, ...]) -> None:
        self.engine = engine
        self.participants = tuple(sorted(int(p) for p in participants))
        self.entries: dict[tuple, _WaveEntry] = {}

    def lookup(self, key: tuple, rank: int) -> Optional[_WaveEntry]:
        entry = self.entries.get(key)
        if entry is not None:
            entry.arrived.add(rank)
        return entry

    def register(self, key: tuple, plan, rank: int) -> _WaveEntry:
        """First arrival installs the shared plan and the leader events."""
        events = {
            leader: self.engine.event(f"nodeagg-{key}-r{leader}")
            for leader, keys in plan.led.items()
            if keys
        }
        entry = _WaveEntry(plan, events)
        entry.arrived.add(rank)
        self.entries[key] = entry
        return entry

    def publish(self, key: tuple, rank: int, blobs: dict) -> None:
        """Leader duty done: expose payloads and wake subscribers."""
        entry = self.entries.get(key)
        if entry is None:
            return
        entry.blobs.update(blobs)
        ev = entry.events.get(rank)
        if ev is not None and not ev.triggered:
            ev.succeed()

    def finish(self, key: tuple, rank: int) -> None:
        """Rank ``rank`` is done with the wave; GC the entry when everyone
        is (aborted entries wait only for the ranks that actually came)."""
        entry = self.entries.get(key)
        if entry is None:
            return
        entry.done.add(rank)
        quorum = entry.arrived if entry.aborted else set(self.participants)
        if entry.done >= quorum:
            del self.entries[key]

    def abort(self) -> None:
        """Force-wake every outstanding subscriber (the drain fence).

        Triggered events stay triggered; leaders that publish afterwards
        find their event already succeeded and skip it.  Woken
        subscribers self-fetch whatever was not yet published.
        """
        for entry in self.entries.values():
            entry.aborted = True
            for ev in entry.events.values():
                if not ev.triggered:
                    ev.succeed()


def _coordinator_key(h) -> tuple:
    """Which coordinator store handle ``h`` rendezvouses on.

    Keyed per (communicator, store, node, tenant) — see
    ``HostShared.coordinators``: node-local sessions of one tenant share
    leader reads, while tenants never share entries (per-tenant byte
    isolation by construction).  Every rank holds its own store instance,
    so the key names the store by values identical on every rank, never
    an object id.  Each store generation (a reshard is a create) gets its
    own coordinator, which its collective ``shutdown`` drops.
    """
    return (*h._store_key, h._node_index, h._tenant)


def node_coordinator(h) -> NodeFetchCoordinator:
    """Resolve (or create) the coordinator shared by ``h``'s node ranks."""
    table, key = h.comm.communicator.world.shared.coordinators, _coordinator_key(h)
    coord = table.get(key)
    if coord is None:
        machine = h._machine
        coord = NodeFetchCoordinator(
            h.comm.engine,
            tuple(r for r in range(h.comm.size) if machine.node_of_rank(r) == h._node_index),
        )
        table[key] = coord
    return coord


def abort(h) -> None:
    """Force-wake node-fetch subscribers of ``h``'s coordinator (the
    scheduler's drain fence — see :meth:`NodeFetchCoordinator.abort`).
    Synchronous bookkeeping; safe to call with no coordinator live."""
    coord = h.comm.communicator.world.shared.coordinators.get(_coordinator_key(h))
    if coord is not None:
        coord.abort()


# -- the node wave -----------------------------------------------------------
class _NodeSink(_ParkSink):
    """Node publish + fan-in: a leader's payloads go to the node
    rendezvous instead of its own cache; subscribers park what other
    leaders published, at the intra-node copy rate."""

    def __init__(self, h, coord, key, entry) -> None:
        super().__init__(h)
        self.coord, self.key, self.entry = coord, key, entry
        self.published: dict[int, np.ndarray] = {}

    def offer(self, keys) -> list:
        """Publish what this rank's fast tiers already hold; return the rest."""
        peek, rest = self.h.cache.peek, []
        for k in keys:
            blob = peek(k)
            if blob is None:
                rest.append(k)
            else:
                self.published[k] = blob
        return rest

    def lead(self, keys, plan, outcome) -> None:
        self.published.update(zip(keys, self.payloads(plan, outcome)))

    def publish(self) -> int:
        """Leader duty done: wake subscribers.  Returns the bytes led."""
        self.coord.publish(self.key, self.h.comm.rank, self.published)
        return sum(int(b.nbytes) for b in self.published.values())

    def fan_in(self, call: _Call, keys) -> Generator:
        """Copy other leaders' payloads for ``keys`` into the local cache
        (the ``"fanout"`` stage).  Returns the bytes copied."""
        blobs = self.entry.blobs
        nbytes = sum(int(blobs[k].nbytes) for k in keys)
        seconds = self.h._local_copy_base + nbytes / self.h._local_copy_bw
        yield from call.spend("fanout", seconds, n=len(keys), nbytes=nbytes, **call.labels)
        self.park(keys, [blobs[k] for k in keys])
        return nbytes


def node_wave(h, batch_indices, n_workers: int, window) -> Generator:
    """One rank's share of a node-aggregated wave:
    plan → promote → leader fetch → publish → wait → fanout → residue.

    The first arrival builds the node plan from the peers' deterministic
    schedules (every rank pays the modelled plan CPU — real deployments
    recompute it locally).  Each rank then does its leader duty — wire-read
    what it leads and cannot serve from its own tiers, publish — *before*
    it subscribes to other leaders, so the wait graph is acyclic.  A wave
    aborted mid-wait (live-reshard drain) self-fetches the unpublished
    residue over the normal per-rank path.
    """
    call = _Call(h, wave=True)
    rank = h.comm.rank
    coord = node_coordinator(h)
    key = (h.generation, window.epoch, window.wave)
    entry = coord.lookup(key, rank)
    if entry is None:
        # Peer demand is recomputed locally from the shared deterministic
        # schedule and ignores all cache state: the plan must be a pure
        # function of (schedule, layout) so every rank derives it alike.
        demands = {}
        for peer in coord.participants:
            parts = list(_remote_demand(h, window.peer_batches(peer), h.config.group_rank(peer)))
            demands[peer] = (
                tuple(np.concatenate(col) for col in zip(*parts))
                if parts
                else (np.zeros(0, np.int64),) * 4
            )
        plan = h.planner.plan_node_wave(demands, coord.participants, width=h.width)
        entry = coord.register(key, plan, rank)
    plan = entry.plan
    yield from call.spend("plan", _plan_seconds(max(1, plan.n_union)), n_union=plan.n_union)

    sink = _NodeSink(h, coord, key, entry)
    cache = h.cache

    def fetch_keys(keys, n_streams: int) -> Generator:
        """plan → fetch for explicit ids; returns ``(keys, plan, outcome)``."""
        owners, offsets, sizes = h.registry.locate_batch(np.asarray(keys, np.int64))
        wplan = h.planner.plan_batches([(owners + h._group_base, offsets, sizes)])
        return keys, wplan, (yield from call.fetch(wplan, n_streams))

    # -- leader duty ---------------------------------------------------------
    wire_keys = sink.offer(plan.led.get(rank, ()))
    n_promoted = 0
    stage_keys = [k for k in wire_keys if cache.nvme_resident(k)]
    if stage_keys:
        n_promoted = yield from sink.stage_up(call, stage_keys)
        wire_keys = sink.offer(wire_keys)
    if wire_keys:
        n_streams = max(1, n_workers) * max(1, len(batch_indices))
        sink.lead(*(yield from fetch_keys(wire_keys, n_streams)))
    led_bytes = sink.publish()

    # -- subscribe + fan in --------------------------------------------------
    need = [k for k in plan.demand.get(rank, ()) if not cache.fast_resident(k)]
    own = [k for k in need if plan.leader_of[k] == rank and k in sink.published]
    sink.park(own, [sink.published[k] for k in own])
    sub = [k for k in need if plan.leader_of[k] != rank]
    for leader in dict.fromkeys(plan.leader_of[k] for k in sub):
        ev = entry.events.get(leader)
        if ev is not None and not ev.triggered:
            yield ev
    fan_keys = [k for k in sub if k in entry.blobs]
    residue = [k for k in sub if k not in entry.blobs]
    fan_bytes = 0
    if fan_keys:
        fan_bytes = yield from sink.fan_in(call, fan_keys)
    if residue:
        # Aborted leaders (drain fence): self-fetch over the normal
        # per-rank path — correct bytes, just without the savings.
        sink.wire(*(yield from fetch_keys(residue, max(1, n_workers))))
    coord.finish(key, rank)

    requested = plan.demand_bytes.get(rank, 0)
    wire = call.counts.get("bytes_transferred", 0)
    # FetchStats-named node counters ride the prefetch family too, so the
    # harness roll-up (which sums fetch + prefetch) sees them.
    call.count("n_node_waves", 1)
    call.count("n_fanout", len(fan_keys))
    call.count("bytes_fanout", fan_bytes)
    call.count("bytes_node_requested", requested)
    call.count("bytes_node_wire", wire)
    node = dict(
        n_node_waves=1,
        requested_bytes=requested,
        wire_bytes=wire,
        wire_bytes_saved=fan_bytes,
        fanout_bytes=fan_bytes,
        n_fanout=len(fan_keys),
        n_leader_reads=call.counts.get("n_get_calls", 0),
        led_bytes=led_bytes,
    )
    call.publish("ddstore.node", node.items(), node=h._node_index, generation=h.generation)
    call.finish_wave(sink.n_parked, n_promoted, len(batch_indices), nodeagg=1, epoch=window.epoch)
    return sink.n_parked
