"""GPU compute-cost model for GNN training steps.

The paper's performance experiments overlap CPU-side data preparation with
GPU-side compute; what matters for reproducing the end-to-end figures is a
credible per-step GPU time, not a cycle-accurate GPU.  We derive it from a
FLOP estimate of the HydraGNN architecture (six PNA layers + three FC
layers, hidden dim 200) on the batch's node/edge counts, divided by the
sustained throughput of the GPU, plus kernel-launch overheads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .topology import GpuSpec

__all__ = ["GpuModel", "GnnWorkload", "pinned_read_time", "pinned_write_time"]


def pinned_write_time(spec: GpuSpec, nbytes: int) -> float:
    """Admit bytes into the GPU-pinned staging pool.

    Pinning pageable memory goes through the driver (one launch-scale
    setup) and the copy into the page-locked region moves at the PCIe
    link rate — the same bandwidth h2d transfers see.
    """
    return spec.kernel_launch_s + nbytes / spec.h2d_bandwidth_Bps


def pinned_read_time(spec: GpuSpec, nbytes: int) -> float:
    """Serve bytes out of the GPU-pinned pool on the demand path.

    Pinned pages are DMA-ready: no page faults and no driver round trip,
    so the read costs only the copy, which sustains roughly twice the
    pageable-path rate.
    """
    return nbytes / (2.0 * spec.h2d_bandwidth_Bps)


@dataclass(frozen=True)
class GnnWorkload:
    """Per-batch graph workload statistics driving the FLOP estimate."""

    n_graphs: int
    n_nodes: int
    n_edges: int
    node_feature_dim: int
    output_dim: int
    hidden_dim: int = 200
    n_conv_layers: int = 6
    n_fc_layers: int = 3
    N_AGGREGATORS: ClassVar[int] = 4  # PNA: mean/min/max/std
    N_SCALERS: ClassVar[int] = 3  # PNA: identity/amplification/attenuation

    def forward_flops(self) -> float:
        """FLOPs of one forward pass over the batch."""
        h = self.hidden_dim
        # Message construction + aggregation touch every edge per layer,
        # once per aggregator; the post-aggregation dense mix is
        # (N_AGGREGATORS * N_SCALERS * h) -> h per node.
        edge_work = 2.0 * self.n_edges * h * self.N_AGGREGATORS
        node_mix = 2.0 * self.n_nodes * (self.N_AGGREGATORS * self.N_SCALERS * h) * h
        embed = 2.0 * self.n_nodes * self.node_feature_dim * h
        conv = embed + self.n_conv_layers * (edge_work + node_mix)
        fc_hidden = 2.0 * self.n_graphs * h * h * max(0, self.n_fc_layers - 1)
        fc_out = 2.0 * self.n_graphs * h * self.output_dim
        return conv + fc_hidden + fc_out

    def backward_flops(self) -> float:
        """Backward is ~2x forward (grad wrt inputs and weights)."""
        return 2.0 * self.forward_flops()

    def n_kernels(self) -> int:
        # One launch per aggregator per conv layer plus dense/activation
        # kernels; a coarse but stable count for launch-overhead costing.
        return self.n_conv_layers * (self.N_AGGREGATORS + 4) + self.n_fc_layers * 2 + 4

    def batch_bytes(self) -> int:
        """Host-to-device transfer volume of the collated batch (fp32)."""
        per_node = 4 * (self.node_feature_dim + 3)  # features + positions
        per_edge = 4 * 2  # index pairs (int32 here for costing)
        per_graph = 4 * self.output_dim
        return int(
            self.n_nodes * per_node + self.n_edges * per_edge + self.n_graphs * per_graph
        )


class GpuModel:
    def __init__(self, spec: GpuSpec) -> None:
        self.spec = spec

    def _sustained_flops(self) -> float:
        return self.spec.peak_flops * self.spec.achievable_fraction

    def forward_time(self, workload: GnnWorkload) -> float:
        return (
            workload.forward_flops() / self._sustained_flops()
            + workload.n_kernels() * self.spec.kernel_launch_s
        )

    def backward_time(self, workload: GnnWorkload) -> float:
        return (
            workload.backward_flops() / self._sustained_flops()
            + workload.n_kernels() * self.spec.kernel_launch_s
        )

    def h2d_time(self, nbytes: int) -> float:
        return self.spec.kernel_launch_s + nbytes / self.spec.h2d_bandwidth_Bps

    def optimizer_time(self, n_params: int) -> float:
        """AdamW update: ~12 flops/param, memory-bound; model as bandwidth
        over 4 arrays of fp32 params (p, g, m, v) read+write."""
        bytes_moved = n_params * 4 * 8
        effective_bw = 0.6 * self.spec.h2d_bandwidth_Bps * 10  # HBM >> PCIe
        return self.spec.kernel_launch_s * 3 + bytes_moved / effective_bw
