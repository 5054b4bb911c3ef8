"""Synthetic organic-molecule graphs standing in for AISD HOMO-LUMO.

The real AISD HOMO-LUMO set (10.5M molecules) is proprietary-scale data we
cannot ship; what DDStore's behaviour depends on is the *distribution of
sample sizes* and a *learnable* target.  This generator matches the
paper's reported statistics — 5 to 71 heavy atoms per molecule, mean ≈52
nodes and ≈105 directed edges per graph (550.6M nodes / 1.1B edges over
10.5M graphs) — and produces a HOMO-LUMO-gap-like scalar computed from the
molecular graph's spectral properties, which a GNN can genuinely learn.

Molecules are built as a random spanning tree (bond skeleton) plus a few
ring-closing edges, which reproduces the sparse, nearly-tree-like topology
of organic molecules.
"""

from __future__ import annotations

import numpy as np

from ..sim.rng import stream
from .graph import AtomicGraph

__all__ = ["MoleculeGenerator", "ELEMENTS", "synthetic_gap"]

# Heavy elements with toy electronegativity/valence-like descriptors.
ELEMENTS = {
    "C": (0, 2.55, 4.0),
    "N": (1, 3.04, 3.0),
    "O": (2, 3.44, 2.0),
    "S": (3, 2.58, 2.0),
    "F": (4, 3.98, 1.0),
}
_ELEMENT_PROBS = np.array([0.62, 0.13, 0.15, 0.05, 0.05])
_ELEMENT_ELECTRONEG = np.array([v[1] for v in ELEMENTS.values()], dtype=np.float32)
_ELEMENT_VALENCE = np.array([v[2] for v in ELEMENTS.values()], dtype=np.float32)
N_ELEMENTS = len(ELEMENTS)
_ELEMENT_CDF = _ELEMENT_PROBS.cumsum()
_ELEMENT_CDF /= _ELEMENT_CDF[-1]
# Per-species feature row: one-hot species + electronegativity + valence.
_FEATURE_ROWS = np.column_stack(
    [np.eye(N_ELEMENTS, dtype=np.float32), _ELEMENT_ELECTRONEG, _ELEMENT_VALENCE]
)

# Heavy atoms per molecule (paper Table 1: 5 to 71, mean ~52) and the
# standard deviation of the label noise on the gap.
MIN_ATOMS = 5
MAX_ATOMS = 71
MEAN_ATOMS = 52.0
TARGET_NOISE = 0.01
# The size draw's Beta(a, b), whose mean puts MEAN_ATOMS in [MIN_ATOMS, MAX_ATOMS].
_MEAN_FRAC = (MEAN_ATOMS - MIN_ATOMS) / (MAX_ATOMS - MIN_ATOMS)
_BETA_A = 4.0 * _MEAN_FRAC
_BETA_B = 4.0 * (1.0 - _MEAN_FRAC)
# Skeleton atom i attaches to one of atoms [max(0, i - 8), i).
_CHILDREN = np.arange(1, MAX_ATOMS)
_ATTACH_LO = np.maximum(_CHILDREN - 8, 0)
_CHILDREN.flags.writeable = _ATTACH_LO.flags.writeable = False  # shared by every molecule


def synthetic_gap(degrees: np.ndarray, species: np.ndarray, n_rings: int) -> float:
    """A DFT-like HOMO-LUMO gap surrogate.

    Monotone-decreasing in conjugation proxies (molecule size, ring count)
    and shifted by composition — qualitatively how real gaps behave, and a
    deterministic function of the graph so a GNN can learn it.
    """
    n = degrees.size
    mean_en = float(_ELEMENT_ELECTRONEG[species].mean())
    mean_deg = float(degrees.mean())
    gap = 9.0 / (1.0 + 0.04 * n) + 0.6 * (mean_en - 2.9) - 0.35 * n_rings / max(n / 10, 1)
    gap += 0.25 * (2.1 - mean_deg)
    return float(max(gap, 0.3))


class MoleculeGenerator:
    """Deterministic on-demand generator of molecule-like graphs."""

    name = "aisd-homo-lumo"

    def __init__(self, n_samples: int, *, seed: int = 0) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be positive")
        self.n_samples = n_samples
        self.seed = seed

    @property
    def output_dim(self) -> int:
        return 1

    @property
    def feature_dim(self) -> int:
        return _FEATURE_ROWS.shape[1]

    def __len__(self) -> int:
        return self.n_samples

    # -- structure building -------------------------------------------------
    def _sample_size(self, rng: np.random.Generator) -> int:
        # Beta-shaped distribution stretched over [MIN_ATOMS, MAX_ATOMS] with
        # mean MEAN_ATOMS: matches the paper's skew toward mid-size molecules.
        return int(round(MIN_ATOMS + rng.beta(_BETA_A, _BETA_B) * (MAX_ATOMS - MIN_ATOMS)))

    def make(self, index: int) -> AtomicGraph:
        positions, features, edge_index, species, n_rings, rng = self._structure(index)
        degrees = np.bincount(edge_index[1], minlength=species.size)
        gap = synthetic_gap(degrees, species, n_rings)
        gap += float(rng.normal(0.0, TARGET_NOISE))
        y = np.array([gap], dtype=np.float32)
        return AtomicGraph(positions, features, edge_index, y, index)

    def _structure(self, index: int):
        """Sample ``index`` short of its target: ``(positions, features,
        edge_index)`` in :class:`AtomicGraph`'s dtypes, then what the gap is
        computed from (species, ring count, the stream after the last draw)."""
        if not 0 <= index < self.n_samples:
            raise IndexError(f"sample {index} out of range [0, {self.n_samples})")
        rng = stream("molecule", self.seed, index)
        n = self._sample_size(rng)

        # Random bond skeleton: node i>0 attaches to a previous node with a
        # preference for recent atoms (chain-like growth, like SMILES walks).
        # One array-bounds draw consumes the stream exactly as n-1 scalar ones.
        children = _CHILDREN[: n - 1]
        parents = rng.integers(_ATTACH_LO[: n - 1], children)

        # Ring closures: ~1 ring per 12 atoms, joining nearby skeleton atoms
        # (none below five atoms, though the count is drawn all the same).
        # The second draw's bound depends on the first, so these stay scalar.
        n_rings = int(rng.poisson(n / 12.0))
        if n < 5:
            n_rings = 0
        ring_a = np.empty(n_rings, dtype=np.int64)
        ring_b = np.empty(n_rings, dtype=np.int64)
        for r in range(n_rings):
            a = int(rng.integers(0, n - 4))
            ring_a[r] = a
            ring_b[r] = a + int(rng.integers(3, min(7, n - a)))
        edge_index = np.empty((2, 2 * (n - 1 + n_rings)), dtype=np.int32)
        np.concatenate((children, parents, ring_a, ring_b), out=edge_index[0])
        np.concatenate((parents, children, ring_b, ring_a), out=edge_index[1])

        # rng.choice(N_ELEMENTS, size=n, p=...) is this uniform draw + cdf search
        species = _ELEMENT_CDF.searchsorted(rng.random(n), side="right")
        features = _FEATURE_ROWS.take(species, axis=0)

        # 3D embedding: random walk positions, scaled to ~1.5 A bonds.
        positions = np.cumsum(rng.normal(0.0, 0.9, size=(n, 3)), axis=0).astype(np.float32)
        return positions, features, edge_index, species, n_rings, rng
