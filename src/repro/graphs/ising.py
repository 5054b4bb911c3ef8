"""Synthetic Ising dataset (paper dataset #1).

Each sample is a 5x5x5 simple-cubic lattice (125 atoms) in a unit cube.
Every atom carries a spin drawn uniformly from {-1, +1} and the target is
the total energy of the classical Ising Hamiltonian

    E = -J * sum_{<i,j>} s_i s_j  -  H * sum_i s_i

over nearest-neighbour pairs, exactly as the paper describes ("the energy
is calculated with the closed analytical Hamiltonian formula").  Sample
``i`` of a given seed is always the same graph, so the dataset can be
materialised independently (and in parallel) by every rank.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..sim.rng import stream
from .graph import AtomicGraph

__all__ = ["IsingGenerator", "ising_energy", "LATTICE_SIDE", "N_ATOMS"]

LATTICE_SIDE = 5
N_ATOMS = LATTICE_SIDE**3  # 125, as in the paper
# Ferromagnetic coupling (J > 0) and external field of the Hamiltonian.
J = 1.0
H = 0.1
_SPIN_VALUES = np.array([-1.0, 1.0], dtype=np.float32)


@lru_cache(maxsize=None)
def _lattice_topology(side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions and nearest-neighbour directed edges of a side^3 lattice."""
    coords = np.stack(
        np.meshgrid(range(side), range(side), range(side), indexing="ij"), axis=-1
    ).reshape(-1, 3)
    positions = coords.astype(np.float32) / max(side - 1, 1)  # unit cube
    index = {tuple(c): i for i, c in enumerate(coords)}
    src, dst = [], []
    for i, c in enumerate(coords):
        for axis in range(3):
            for step in (-1, 1):
                nb = c.copy()
                nb[axis] += step
                j = index.get(tuple(nb))
                if j is not None:
                    src.append(i)
                    dst.append(j)
    edge_index = np.array([src, dst], dtype=np.int32)
    # Undirected neighbour pairs (i < j) for the Hamiltonian sum; a transposed
    # view, so each column is one contiguous index array.
    pairs = edge_index[:, edge_index[0] < edge_index[1]].T
    # Every sample of this lattice shares these arrays: check them here, once.
    AtomicGraph(positions, np.zeros((len(positions), 1)), edge_index, np.zeros(1))
    for a in (positions, edge_index, pairs):
        a.flags.writeable = False
    return positions, edge_index, pairs


def ising_energy(spins: np.ndarray, pairs: np.ndarray, J: float, H: float) -> float:
    """Closed-form Ising Hamiltonian over the provided neighbour pairs."""
    interaction = float(np.sum(spins.take(pairs[:, 0]) * spins.take(pairs[:, 1])))
    return -J * interaction - H * float(spins.sum())


class IsingGenerator:
    """Deterministic on-demand generator of Ising samples on the paper's
    ``LATTICE_SIDE``^3 lattice, with coupling ``J`` and field ``H``.

    The energy is standardised by fixed constants (not per-split statistics)
    so train and test targets live on the same scale.
    """

    name = "ising"

    def __init__(self, n_samples: int, *, seed: int = 0) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be positive")
        self.n_samples = n_samples
        self.seed = seed
        self._positions, self._edge_index, self._pairs = _lattice_topology(LATTICE_SIDE)
        # E[interaction term] = 0; scale by std of the pair sum for a
        # roughly unit-variance target.
        self._energy_scale = float(np.sqrt(self._pairs.shape[0]) * J)

    @property
    def output_dim(self) -> int:
        return 1

    @property
    def feature_dim(self) -> int:
        return 1

    def __len__(self) -> int:
        return self.n_samples

    def make(self, index: int) -> AtomicGraph:
        if not 0 <= index < self.n_samples:
            raise IndexError(f"sample {index} out of range [0, {self.n_samples})")
        rng = stream("ising", self.seed, index)
        spins = _SPIN_VALUES.take(rng.integers(0, 2, size=N_ATOMS))
        energy = ising_energy(spins, self._pairs, J, H) / self._energy_scale
        return AtomicGraph.trusted(
            self._positions,
            spins[:, None],
            self._edge_index,
            np.array([energy], dtype=np.float32),
            index,
        )
