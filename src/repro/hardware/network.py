"""Interconnect timing model: point-to-point, RMA, and collective costs.

The model has three ingredients:

* a latency/bandwidth (alpha-beta) cost per message,
* FIFO queueing at each node's injection/reception NIC
  (:class:`~repro.sim.QueueStation`), which produces contention when many
  origins target one node — the bottleneck DDStore's *width* parameter
  exists to mitigate,
* multiplicative lognormal jitter from deterministic per-origin RNG
  streams, giving realistic latency tails.

A batch of RMA gets (:meth:`Interconnect.rma_get_batch`) is priced per
batch, per target and per read: the origin's jitter is drawn once per
batch as one block; the fault model is asked once per batch and perturbs
only the reads aimed at a faulty target; each read then walks the
software path of its issuing stream and, when its target sits on another
node, makes one serve at the target node's outbound NIC and one at the
origin node's inbound NIC.  Per-read arithmetic runs over Python floats
in read order, the same operations in the same order as an array pass
would do them, so the times are bit-identical to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim import RngRegistry
from .topology import Cluster

__all__ = ["Interconnect", "RmaTiming"]

#: Sigma of the lognormal service jitter every transfer is scaled by.
JITTER_SIGMA = 0.18
# Lognormal location that gives the jitter a mean of 1.0.
_JITTER_MU = -0.5 * JITTER_SIGMA**2


def _int_list(values) -> list:
    """``values`` as a list of Python ints (a list is taken as it is)."""
    if type(values) is list:
        return values
    return np.asarray(values, dtype=np.int64).tolist()


@dataclass(frozen=True)
class RmaTiming:
    """Timing of one remote get: when it completed and its total latency."""

    completion: float
    latency: float
    remote: bool  # False when served from the origin's own node


@dataclass(frozen=True)
class RmaBatchTiming:
    """Timing of a batch of gets issued back-to-back by one origin.

    ``issues[i]`` is when the origin CPU finished the software critical
    path of get ``i`` and handed it to the NIC (gets are issued serially);
    ``completions[i]`` is when its payload landed in origin memory.  The
    per-get latency the paper's Fig 6 plots is ``completions - issues``.
    """

    issues: np.ndarray
    completions: np.ndarray


class Interconnect:
    def __init__(self, cluster: Cluster, seed: int = 0) -> None:
        self.cluster = cluster
        self.spec = cluster.spec
        self._rng = RngRegistry("interconnect", cluster.spec.name, seed)
        # Optional fault model (repro.faults): perturbs per-message timing
        # for ranks declared slow or dark.  None = healthy cluster.
        self.faults = None

    # -- basic costs -------------------------------------------------------
    def wire_time(self, nbytes: int | np.ndarray, intra_node: bool = False):
        """Pure alpha-beta transfer time without queueing."""
        if intra_node:
            return self.spec.intra_node_latency_s + np.asarray(nbytes) / self.spec.intra_node_bandwidth_Bps
        nic = self.spec.nic
        return nic.latency_s + np.asarray(nbytes) / nic.bandwidth_Bps

    def _jitter(self, origin_rank: int, n: int) -> np.ndarray:
        rng = self._rng.get("jitter", origin_rank)
        return rng.lognormal(mean=_JITTER_MU, sigma=JITTER_SIGMA, size=n)

    # -- point-to-point ----------------------------------------------------
    def send_time(self, src_rank: int, dst_rank: int, nbytes: int, arrival: float) -> float:
        """Completion time of a two-sided message posted at ``arrival``."""
        if self.cluster.same_node(src_rank, dst_rank):
            jit = float(self._jitter(src_rank, 1)[0])
            arrived = arrival + float(self.wire_time(nbytes, intra_node=True)) * jit
        else:
            nic = self.spec.nic
            src_node = self.cluster.node_of_rank(src_rank)
            dst_node = self.cluster.node_of_rank(dst_rank)
            service = nic.message_overhead_s + nbytes / nic.bandwidth_Bps
            jit = self._jitter(src_rank, 2)
            injected = src_node.nic_out.serve(
                arrival, service * float(jit[0]), nbytes=int(nbytes)
            )
            arrived = dst_node.nic_in.serve(
                injected + nic.latency_s, service * float(jit[1]), nbytes=int(nbytes)
            )
        if self.faults is not None:
            arrived = self.faults.apply_message(src_rank, dst_rank, arrival, arrived)
        return arrived

    # -- one-sided RMA -----------------------------------------------------
    def rma_get(self, origin_rank: int, target_rank: int, nbytes: int, arrival: float) -> RmaTiming:
        out = self.rma_get_batch(
            origin_rank, np.array([target_rank]), np.array([nbytes]), arrival
        )
        return RmaTiming(
            completion=float(out.completions[0]),
            latency=float(out.completions[0] - arrival),
            remote=not self.cluster.same_node(origin_rank, target_rank),
        )

    def rma_get_batch(
        self,
        origin_rank: int,
        target_ranks: "list[int] | np.ndarray",
        nbytes: "list[int] | np.ndarray",
        arrival: float,
        n_streams: int = 1,
    ) -> RmaBatchTiming:
        """Timing of a batch of MPI_Get calls issued back-to-back.

        ``target_ranks`` are world ranks and ``nbytes`` whole byte counts,
        one per get, as lists of ints or integer arrays.  The origin CPU runs the per-get software critical path (lock/get/
        unlock inside the MPI library and its Python binding) serially
        within each of ``n_streams`` issuing threads (PyTorch DataLoader
        workers), requests dealt round-robin; with one stream, get ``i``
        is *issued* at ``arrival + cumsum(software)[i]``.  Each get then
        pays the request wire latency, FIFO service at the target node's
        outbound NIC (where the payload is injected), and FIFO service at
        the origin node's inbound NIC.  Gets to ranks on the origin's own
        node use the shared-memory path and skip the NICs.
        """
        target_ranks = _int_list(target_ranks)
        nbytes = _int_list(nbytes)
        if len(target_ranks) != len(nbytes):
            raise ValueError("target_ranks and nbytes must have matching shapes")
        n = len(target_ranks)
        if n == 0:
            empty = np.empty(0, dtype=np.float64)
            return RmaBatchTiming(issues=empty, completions=empty.copy())

        spec = self.spec
        nic = spec.nic
        gpus_per_node = spec.gpus_per_node
        origin_node_idx = spec.node_of_rank(origin_rank)
        nodes = self.cluster.nodes
        origin_in = nodes[origin_node_idx].nic_in
        # Same-node targets go through the shared-memory window fast path,
        # which skips the network lock round trip (paper Table 3: width=2
        # medians drop to ~0.05 ms because fetches become intra-node).
        sw_local, sw_remote = spec.rma_software_local_s, spec.rma_software_overhead_s
        copy_lat, copy_bw = spec.intra_node_latency_s, spec.intra_node_bandwidth_Bps
        wire_lat, overhead, bw = nic.latency_s, nic.message_overhead_s, nic.bandwidth_Bps
        jit = self._jitter(origin_rank, n).tolist()
        # Get i's software section runs [starts[i], ready[i]); the observed
        # per-get latency (completion - start) therefore includes it.
        # With W worker streams, stream s issues gets s, s+W, s+2W, ...
        # serially while the streams run concurrently: each stream keeps
        # the running sum of its own software times (a left fold, as
        # ``arrival + np.cumsum(software[s::W])`` adds), per get in order.
        n_streams = max(1, int(n_streams))
        elapsed = [0.0] * n_streams
        starts = [0.0] * n
        completions = [0.0] * n
        for i in range(n):
            target = target_ranks[i]
            tnode = target // gpus_per_node
            local = tnode == origin_node_idx
            software = (sw_local if local else sw_remote) * jit[i]
            s = i % n_streams
            elapsed[s] += software
            ready = arrival + elapsed[s]
            starts[i] = ready - software
            nb = nbytes[i]
            if local:
                # Local (same-node) get: shared-memory copy, no NIC.
                completions[i] = ready + (copy_lat + nb / copy_bw)
                continue
            # Remote get: the request crosses the wire, the payload is
            # injected at the target node's outbound NIC, then drains
            # through the origin node's inbound NIC.  Both NICs are fluid
            # congestion stations, so contention (many origins hammering
            # one target - the hotspot DDStore's width mitigates)
            # accumulates while idle gaps cost nothing regardless of
            # pricing order across ranks.
            service = (overhead + nb / bw) * jit[i]
            injected = nodes[tnode].nic_out.serve(ready + wire_lat, service, nbytes=nb)
            completions[i] = origin_in.serve(injected + wire_lat, service, nbytes=nb)

        issues = np.array(starts)
        done = np.array(completions)
        if self.faults is not None:
            done = self.faults.apply_batch(target_ranks, issues, done)
        return RmaBatchTiming(issues=issues, completions=done)

    # -- collectives -------------------------------------------------------
    def collective_time(self, op: str, nbytes: int, n_ranks: int) -> float:
        """Alpha-beta cost model for a collective over ``n_ranks`` ranks.

        Standard algorithm costs (Thakur et al.): binomial tree for
        bcast/barrier/small reduce, ring for large allreduce/allgather.
        """
        if n_ranks <= 1:
            return 0.0
        nic = self.spec.nic
        alpha = nic.latency_s + nic.message_overhead_s
        beta = 1.0 / nic.bandwidth_Bps
        p = n_ranks
        log_p = int(np.ceil(np.log2(p)))
        if op == "barrier":
            return 2 * log_p * alpha
        if op in ("bcast", "reduce"):
            return log_p * (alpha + nbytes * beta)
        if op == "allreduce":
            if nbytes <= 4096:
                return log_p * (alpha + nbytes * beta)
            # ring reduce-scatter + allgather
            return 2 * (p - 1) * alpha + 2 * (p - 1) / p * nbytes * beta
        if op in ("allgather", "alltoall", "gather", "scatter"):
            # nbytes here is the per-rank contribution
            return (p - 1) * alpha + (p - 1) * nbytes * beta
        raise ValueError(f"unknown collective op {op!r}")
