"""Dataset registry and Table-1 bookkeeping.

Maps the paper's four evaluation datasets to our synthetic generators and
records the paper-scale statistics (Table 1) so benchmarks can report
"paper vs. reproduced" rows and extrapolate scaled-down measurements to
full-dataset sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from .graph import AtomicGraph
from .ising import IsingGenerator
from .molecules import MoleculeGenerator
from .spectra import SpectrumGenerator

__all__ = [
    "GraphGenerator",
    "DatasetSpec",
    "DATASETS",
]


class GraphGenerator(Protocol):
    """On-demand deterministic sample factory (what all generators satisfy)."""

    n_samples: int

    def make(self, index: int) -> AtomicGraph: ...
    def __len__(self) -> int: ...


@dataclass(frozen=True)
class DatasetSpec:
    key: str
    title: str
    factory: Callable[[int, int], GraphGenerator]  # (n_samples, seed) -> generator
    output_dim: int
    # Paper Table 1 columns (full-scale ground truth we reproduce in shape):
    paper_n_graphs: float
    paper_n_nodes: float
    paper_n_edges: float
    paper_feature: str
    paper_pff_bytes: float
    paper_cff_bytes: float
    default_scaled_n: int = 2048  # sample count used by scaled-down benches

    def make(self, n_samples: int, seed: int = 0) -> GraphGenerator:
        return self.factory(n_samples, seed)


GB = 1e9
TB = 1e12
M = 1e6
B = 1e9

DATASETS: dict[str, DatasetSpec] = {
    spec.key: spec
    for spec in [
        DatasetSpec(
            key="ising",
            title="Ising",
            factory=lambda n, seed: IsingGenerator(n, seed=seed),
            output_dim=1,
            paper_n_graphs=1.2 * M,
            paper_n_nodes=151 * M,
            paper_n_edges=840 * M,
            paper_feature="3584",
            paper_pff_bytes=24 * GB,
            paper_cff_bytes=19 * GB,
        ),
        DatasetSpec(
            key="aisd",
            title="AISD HOMO-LUMO",
            factory=lambda n, seed: MoleculeGenerator(n, seed=seed),
            output_dim=1,
            paper_n_graphs=10.5 * M,
            paper_n_nodes=550.6 * M,
            paper_n_edges=1.1 * B,
            paper_feature="1",
            paper_pff_bytes=90 * GB,
            paper_cff_bytes=60 * GB,
        ),
        DatasetSpec(
            key="aisd-ex-discrete",
            title="AISD-Ex (Discrete)",
            factory=lambda n, seed: SpectrumGenerator(n, mode="discrete", seed=seed),
            output_dim=100,
            paper_n_graphs=10.5 * M,
            paper_n_nodes=550.6 * M,
            paper_n_edges=1.1 * B,
            paper_feature="2x50",
            paper_pff_bytes=83 * GB,
            paper_cff_bytes=64 * GB,
        ),
        DatasetSpec(
            key="aisd-ex-smooth",
            title="AISD-Ex (Smooth)",
            factory=lambda n, seed: SpectrumGenerator(
                n, mode="smooth", grid_size=37500, seed=seed
            ),
            output_dim=37500,
            paper_n_graphs=10.5 * M,
            paper_n_nodes=550.6 * M,
            paper_n_edges=1.1 * B,
            paper_feature="37500",
            paper_pff_bytes=1.6 * TB,
            paper_cff_bytes=1.5 * TB,
            default_scaled_n=512,
        ),
        DatasetSpec(
            key="aisd-ex-smooth-small",
            title="AISD-Ex (Smooth & Small)",
            factory=lambda n, seed: SpectrumGenerator(
                n, mode="smooth", grid_size=351, seed=seed
            ),
            output_dim=351,
            paper_n_graphs=10.5 * M,
            paper_n_nodes=550.6 * M,
            paper_n_edges=1.1 * B,
            paper_feature="351",
            paper_pff_bytes=114 * GB,
            paper_cff_bytes=74 * GB,
        ),
    ]
}

