"""Synthetic UV-vis spectra datasets standing in for ORNL AISD-Ex.

The real AISD-Ex datasets attach DFTB-computed UV-vis excitation spectra
to the AISD molecules, in two encodings the paper evaluates separately:

* **discrete** — 50 peak energies + 50 oscillator strengths (output 2x50),
* **smooth** — the peaks Gaussian-broadened onto a dense energy grid
  (37,500 points on Summit; a 351-point trimmed variant on Perlmutter).

We reuse the molecule generator for structures and compute a *DFTB-like
surrogate spectrum* from the molecular graph: excitation energies are
derived from the spectral gaps of the graph Laplacian (a tight-binding
caricature — transition energies track eigenvalue differences) and the
intensities from eigenvector localisation.  The mapping is deterministic
per molecule, smooth in graph structure, and therefore learnable, while
keeping per-sample byte sizes faithful to Table 1.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..sim.rng import stream
from .graph import AtomicGraph
from .molecules import MoleculeGenerator

__all__ = ["SpectrumGenerator", "gaussian_smooth_spectrum"]

N_PEAKS = 50
ENERGY_MIN_EV = 1.0
ENERGY_MAX_EV = 8.0
# np.exp(-0.5 * z * z) is exactly 0.0 in float64 for |z| beyond this
_ZERO_BEYOND_SIGMAS = math.sqrt(2 * 745.14)
# the first pass sums only |z| <= this: every term it skips is below |w_k| * e**-40.5
_FAST_SIGMAS = 9.0
_U = 2.0**-53  # float64 unit roundoff


def _surrogate_spectrum(
    edge_index: np.ndarray, node_features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``N_PEAKS`` peak energies and intensities from a tight-binding caricature.

    Builds the (dense) graph Laplacian weighted by electronegativity,
    takes its eigendecomposition, and reads excitation energies off the
    low-lying eigenvalue gaps.  Complexity is O(n^3) with n <= 71 —
    a few hundred microseconds per molecule, nearly all of it ``eigh``.
    """
    n = node_features.shape[0]
    # Laplacian D + onsite/2 - A of the symmetrised, de-duplicated adjacency.
    lap = np.zeros((n, n))
    lap[edge_index[0], edge_index[1]] = -1.0
    lap[edge_index[1], edge_index[0]] = -1.0
    onsite = np.multiply(node_features[:, -2], 0.5, dtype=np.float64)  # electronegativity column
    onsite -= lap.sum(axis=1)
    lap.reshape(-1)[:: n + 1] += onsite
    # eigh, not eigvalsh: the values-only driver rounds the last bits differently.
    evals = np.linalg.eigh(lap)[0]

    lo, hi, weights = _transitions(n)
    peaks = evals[hi] - evals[lo]
    # Map raw gaps into the UV-vis window.
    floor = peaks.min()
    raw_span = peaks.max() - floor + 1e-9
    peaks = ENERGY_MIN_EV + (peaks - floor) / raw_span * (ENERGY_MAX_EV - ENERGY_MIN_EV)
    order = np.argsort(peaks)
    return peaks[order].astype(np.float32), weights[order]


@functools.lru_cache(maxsize=256)
def _transitions(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``N_PEAKS`` "occupied -> virtual" level pairs around the middle of
    an ``n``-level spectrum, and the float32 intensity of each (DESIGN.md,
    "Generation kernels")."""
    k = np.arange(N_PEAKS)
    mid = n // 2
    fold = max(mid, 1)
    lo = np.maximum(mid - 1 - k % fold, 0)
    hi = np.minimum(mid + k // fold + k % 3, n - 1)
    # Intensity (0.2 + |<lo|hi>|) / (1 + k): eigenvectors of a symmetric matrix
    # are orthonormal, so the overlap is 1 for lo == hi (n == 1 only) and
    # rounding residue (~1e-15) otherwise, which the float32 cast erases.
    weights = ((0.2 + (lo == hi)) * (1.0 / (1.0 + k))).astype(np.float32)
    for a in (lo, hi, weights):
        a.flags.writeable = False  # shared by every molecule of this size
    return lo, hi, weights


@functools.lru_cache(maxsize=8)
def _energy_grid(grid_size: int) -> np.ndarray:
    grid = np.linspace(ENERGY_MIN_EV, ENERGY_MAX_EV, grid_size)
    grid.flags.writeable = False  # shared by every later call of this size
    return grid


@functools.lru_cache(maxsize=8)
def _scratch(grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(spectrum, row)`` float64 work buffers of one grid size, reused
    by every call (the result leaves as a float32 copy)."""
    return np.empty(grid_size), np.empty(grid_size)


def gaussian_smooth_spectrum(
    peaks: np.ndarray,
    intensities: np.ndarray,
    grid_size: int,
    sigma_ev: float = 0.15,
) -> np.ndarray:
    """Broaden discrete peaks onto a regular energy grid (the 'smooth' set).

    Bit-identical to the float32 cast of the dense float64 formula
    ``(w[:, None] * exp(-0.5 * ((grid - p[:, None]) / sigma) ** 2)).sum(axis=0)``.
    A first pass sums each peak, in the formula's operations and ascending
    order, over only the grid within ``_FAST_SIGMAS`` sigma of it.  A bound
    on how far that sum can be from the dense one certifies its float32
    rounding at almost every grid point; the few points it cannot certify
    are summed again over the window outside which every term is exactly
    zero, which is the dense formula (DESIGN.md, "Spectrum kernel").
    """
    p = np.asarray(peaks, dtype=np.float64)
    w = np.asarray(intensities, dtype=np.float64)
    sigma = float(sigma_ev)
    if p.ndim != 1 or p.shape != w.shape:
        raise ValueError(
            f"peaks and intensities must be 1-D and the same length, got {p.shape} and {w.shape}"
        )
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma_ev must be positive and finite, got {sigma_ev}")
    if not (np.isfinite(p).all() and np.isfinite(w).all()):
        raise ValueError("peaks and intensities must be finite")
    grid = _energy_grid(grid_size)
    spectrum, row = _scratch(grid_size)
    spectrum.fill(0.0)  # +0.0, np.sum's start value: never turns into -0.0
    _accumulate(spectrum, row, grid, p, w, sigma, sigma * _FAST_SIGMAS)
    # The dense sum lies within delta of this one and float32 rounding is
    # monotone: where both ends of that interval round to the same bits, so
    # does the dense sum.  The ends are written into the row buffer's bytes.
    delta = _pass_gap(p, w, sigma)
    ends = row.view(np.float32)
    np.subtract(spectrum, delta, out=ends[:grid_size])
    np.add(spectrum, delta, out=ends[grid_size:])
    ambiguous = np.flatnonzero(ends[:grid_size].view(np.int32) != ends[grid_size:].view(np.int32))
    if ambiguous.size:
        exact = np.zeros(ambiguous.size)
        _accumulate(exact, row, grid[ambiguous], p, w, sigma, sigma * _ZERO_BEYOND_SIGMAS)
        spectrum[ambiguous] = exact
    return spectrum.astype(np.float32)


def _accumulate(spectrum, row, grid, p, w, sigma: float, reach: float) -> None:
    """``spectrum += w_k * exp(-0.5 * ((grid - p_k) / sigma) ** 2)`` peak by
    peak in ascending ``k``, each over only ``|grid - p_k| <= reach`` of the
    sorted ``grid``, every step in place in the buffer ``row``."""
    lo = np.searchsorted(grid, p - reach, side="left").tolist()
    hi = np.searchsorted(grid, p + reach, side="right").tolist()
    for p_k, w_k, a, b in zip(p.tolist(), w.tolist(), lo, hi):
        term = np.subtract(grid[a:b], p_k, out=row[a:b])
        term /= sigma
        np.square(term, out=term)
        term *= -0.5
        np.exp(term, out=term)
        term *= w_k
        np.add(spectrum[a:b], term, out=spectrum[a:b])


def _pass_gap(p: np.ndarray, w: np.ndarray, sigma: float) -> float:
    """Bound on |dense sum - narrow-window sum| at every grid point, doubled
    to cover the rounding of the bound itself and of ``sum -+ bound``
    (DESIGN.md, "Spectrum kernel")."""
    total = float(np.abs(w).sum())
    # how far, in sigmas, the rounded window edges can sit inside _FAST_SIGMAS
    inset = 4 * _U * (_FAST_SIGMAS + float(np.abs(p).max(initial=0.0)) / sigma)
    skipped = total * math.exp(-0.5 * max(_FAST_SIGMAS - inset, 0.0) ** 2) * (1 + 1e-12)
    return 2 * (skipped + 2 * p.size * _U * total)


class SpectrumGenerator:
    """AISD-Ex-like dataset: molecules + UV-vis targets.

    ``mode='discrete'`` yields y = [peaks(50), intensities(50)] (dim 100);
    ``mode='smooth'`` yields the broadened spectrum at ``grid_size`` points
    (37,500 for the full set, 351 for the Perlmutter-trimmed variant).
    """

    def __init__(
        self,
        n_samples: int,
        *,
        mode: str = "discrete",
        grid_size: int = 351,
        seed: int = 0,
        target_noise: float = 0.0,
    ) -> None:
        if mode not in ("discrete", "smooth"):
            raise ValueError(f"mode must be 'discrete' or 'smooth', got {mode!r}")
        if mode == "smooth" and grid_size < 2:
            raise ValueError("smooth mode needs grid_size >= 2")
        if target_noise < 0:
            raise ValueError("target_noise must be non-negative")
        self.mode = mode
        self.grid_size = grid_size
        self.seed = seed
        # Label noise (the DFTB labels of the real dataset are themselves
        # approximate); sets an irreducible MSE floor so training exhibits
        # a genuine plateau for LR scheduling studies.
        self.target_noise = target_noise
        self._molecules = MoleculeGenerator(n_samples, seed=seed)
        self.name = f"aisd-ex-{mode}" + (
            f"-{grid_size}" if mode == "smooth" else ""
        )

    @property
    def n_samples(self) -> int:
        return self._molecules.n_samples

    @property
    def output_dim(self) -> int:
        return 2 * N_PEAKS if self.mode == "discrete" else self.grid_size

    @property
    def feature_dim(self) -> int:
        return self._molecules.feature_dim

    def __len__(self) -> int:
        return self.n_samples

    def make(self, index: int) -> AtomicGraph:
        # the molecule without its HOMO-LUMO target, which a spectrum replaces
        positions, features, edge_index, *_ = self._molecules._structure(index)
        peaks, intens = _surrogate_spectrum(edge_index, features)
        if self.mode == "discrete":
            y = np.concatenate([peaks, intens])
        else:
            y = gaussian_smooth_spectrum(peaks, intens, self.grid_size)
        if self.target_noise > 0.0:
            rng = stream("spectrum-noise", self.seed, index)
            y = y + rng.normal(0.0, self.target_noise, size=y.shape).astype(np.float32)
        # every array is in AtomicGraph's dtypes and contiguous by construction
        return AtomicGraph.trusted(positions, features, edge_index, y, index)
