"""Atomistic graph datasets: structures, collation, and synthetic generators."""

from .batch import (
    SAMPLE_ALLOCATIONS,
    AllocationCounter,
    ArenaPool,
    BatchArena,
    GraphBatch,
    collate,
)
from .datasets import (
    DATASETS,
    DatasetSpec,
    GraphGenerator,
)
from .graph import AtomicGraph, GraphStats
from .ising import IsingGenerator, ising_energy
from .molecules import MoleculeGenerator, synthetic_gap
from .spectra import SpectrumGenerator, dftb_surrogate_spectrum, gaussian_smooth_spectrum

__all__ = [
    "AtomicGraph",
    "GraphStats",
    "GraphBatch",
    "collate",
    "BatchArena",
    "ArenaPool",
    "AllocationCounter",
    "SAMPLE_ALLOCATIONS",
    "IsingGenerator",
    "ising_energy",
    "MoleculeGenerator",
    "synthetic_gap",
    "SpectrumGenerator",
    "dftb_surrogate_spectrum",
    "gaussian_smooth_spectrum",
    "DATASETS",
    "DatasetSpec",
    "GraphGenerator",
]
