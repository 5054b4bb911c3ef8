"""Machine topology descriptions: nodes, GPUs, NICs, and their wiring.

A :class:`MachineSpec` is a pure-data description of one supercomputer
(Summit, Perlmutter, or a synthetic test machine).  A :class:`Cluster`
instantiates the spec for a given node count on a simulation engine,
creating the per-node queueing stations that the network and filesystem
models feed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim import Engine, FluidStation
from .nvme import NVMeSpec

__all__ = ["MachineSpec", "NicSpec", "PFSSpec", "GpuSpec", "Node", "Cluster"]


@dataclass(frozen=True)
class NicSpec:
    """Injection NIC of one compute node."""

    latency_s: float  # one-way small-message latency (software + wire)
    bandwidth_Bps: float  # injection bandwidth, bytes/second
    message_overhead_s: float  # per-message CPU/NIC processing cost


@dataclass(frozen=True)
class GpuSpec:
    name: str
    peak_flops: float  # peak FP32 throughput
    mem_bytes: int
    achievable_fraction: float  # sustained fraction of peak for GNN kernels
    kernel_launch_s: float  # per-kernel launch latency
    h2d_bandwidth_Bps: float  # host-to-device copy bandwidth


@dataclass(frozen=True)
class PFSSpec:
    """Parallel filesystem (GPFS/Lustre) characteristics."""

    name: str
    metadata_latency_s: float  # base cost of one metadata op (open/stat)
    metadata_service_s: float  # MDS service time per op (queueing)
    n_metadata_servers: int
    n_osts: int  # object storage targets
    ost_bandwidth_Bps: float  # per-OST streaming bandwidth
    ost_read_latency_s: float  # per-read positioning latency at an OST
    stripe_size_bytes: int
    stripe_count: int  # OSTs one file is striped across (Lustre default ~8)
    page_cache_bytes: int  # per-node OS page cache available for file data
    readahead_bytes: int  # OS read-ahead window for sequential access
    cache_churn: float = 0.0  # P(resident block was evicted by other tenants)


@dataclass(frozen=True)
class MachineSpec:
    name: str
    gpus_per_node: int
    cpu_cores_per_node: int
    mem_per_node_bytes: int
    nic: NicSpec
    gpu: GpuSpec
    pfs: PFSSpec
    intra_node_latency_s: float  # shared-memory transfer latency
    intra_node_bandwidth_Bps: float  # shared-memory copy bandwidth
    # Software constants of the training stack (Python + MPI library), which
    # dominate small-message RMA latency in practice.
    rma_software_overhead_s: float  # per MPI_Get: lock + get + unlock path
    rma_software_local_s: float  # same-node MPI_Get via shared-memory window
    file_read_software_s: float  # per file-format read: syscall + I/O library
    pickle_load_s_per_byte: float  # deserialisation cost
    pickle_load_base_s: float  # per-object deserialisation fixed cost
    nvme: Optional[NVMeSpec] = None  # node-local burst buffer, if any

    def node_of_rank(self, rank: int) -> int:
        return rank // self.gpus_per_node


@dataclass
class Node:
    """One compute node: a NIC queue pair plus memory accounting.

    NICs use the order-insensitive :class:`~repro.sim.FluidStation` model
    because RMA batches are priced rank-at-a-time (see that class's
    docstring); the PFS keeps exact FIFO stations since its callers are
    chronological."""

    index: int
    nic_in: FluidStation
    nic_out: FluidStation
    mem_used_bytes: int = 0


@dataclass
class Cluster:
    """A machine spec instantiated at a concrete node count."""

    engine: Engine
    spec: MachineSpec
    n_nodes: int
    nodes: list[Node] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if not self.nodes:
            self.nodes = [
                Node(
                    index=i,
                    nic_in=FluidStation(self.engine, name=f"nic_in[{i}]"),
                    nic_out=FluidStation(self.engine, name=f"nic_out[{i}]"),
                )
                for i in range(self.n_nodes)
            ]

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.spec.gpus_per_node

    def node_of_rank(self, rank: int) -> Node:
        node_idx = self.spec.node_of_rank(rank)
        if not 0 <= node_idx < self.n_nodes:
            raise IndexError(f"rank {rank} maps to node {node_idx} outside cluster")
        return self.nodes[node_idx]

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.spec.node_of_rank(rank_a) == self.spec.node_of_rank(rank_b)

    def charge_memory(self, node_index: int, nbytes: int) -> None:
        """Account for dataset bytes resident on a node; raises when the
        node's DRAM would be exhausted (the failure mode that motivates
        DDStore's width parameter).  A refused charge leaves the node's
        accounting untouched."""
        node = self.nodes[node_index]
        used = node.mem_used_bytes + nbytes
        if used > self.spec.mem_per_node_bytes:
            raise MemoryError(
                f"node {node_index} of {self.spec.name} over-committed: "
                f"{used / 2**30:.1f} GiB used, "
                f"{self.spec.mem_per_node_bytes / 2**30:.1f} GiB available"
            )
        node.mem_used_bytes = used

    def release_memory(self, node_index: int, nbytes: int) -> None:
        node = self.nodes[node_index]
        node.mem_used_bytes = max(0, node.mem_used_bytes - nbytes)
