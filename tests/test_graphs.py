"""Tests for graph structures, collation, and dataset generators."""

import hashlib
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    AtomicGraph,
    DATASETS,
    GraphStats,
    IsingGenerator,
    MoleculeGenerator,
    SpectrumGenerator,
    collate,
    ising_energy,
    gaussian_smooth_spectrum,
)
from repro.bench import harness
from repro.bench.harness import packed_blobs
from repro.graphs import ising, molecules, spectra
from repro.graphs.ising import _lattice_topology
from repro.graphs.molecules import N_ELEMENTS, _ELEMENT_ELECTRONEG, _ELEMENT_PROBS, _ELEMENT_VALENCE
from repro.graphs.spectra import N_PEAKS, _surrogate_spectrum, _transitions
from repro.sim.rng import stream


def _tiny_graph(n=4, out_dim=2, sample_id=7):
    rng = np.random.default_rng(0)
    edges = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
    return AtomicGraph(
        positions=rng.normal(size=(n, 3)),
        node_features=rng.normal(size=(n, 5)),
        edge_index=edges,
        y=np.arange(out_dim, dtype=np.float32),
        sample_id=sample_id,
    )


# ---------------------------------------------------------------------------
# AtomicGraph
# ---------------------------------------------------------------------------

def test_graph_shapes_and_dtypes():
    g = _tiny_graph()
    assert g.n_nodes == 4 and g.n_edges == 4
    assert g.positions.dtype == np.float32
    assert g.edge_index.dtype == np.int32
    assert g.y.dtype == np.float32
    assert g.nbytes == g.positions.nbytes + g.node_features.nbytes + g.edge_index.nbytes + g.y.nbytes


def test_graph_validation_rejects_bad_edges():
    with pytest.raises(ValueError, match="nonexistent"):
        AtomicGraph(
            positions=np.zeros((2, 3)),
            node_features=np.zeros((2, 1)),
            edge_index=np.array([[0], [5]]),
            y=np.array([1.0]),
        )


def test_graph_validation_rejects_empty():
    with pytest.raises(ValueError):
        AtomicGraph(
            positions=np.zeros((0, 3)),
            node_features=np.zeros((0, 1)),
            edge_index=np.zeros((2, 0)),
            y=np.array([1.0]),
        )


def test_graph_validation_feature_mismatch():
    with pytest.raises(ValueError, match="node_features"):
        AtomicGraph(
            positions=np.zeros((3, 3)),
            node_features=np.zeros((2, 1)),
            edge_index=np.zeros((2, 0)),
            y=np.array([1.0]),
        )


def test_graph_allclose_detects_difference():
    a, b = _tiny_graph(), _tiny_graph()
    assert a.allclose(b)
    b.y[0] += 1.0
    assert not a.allclose(b)


# ---------------------------------------------------------------------------
# collation
# ---------------------------------------------------------------------------

def test_collate_offsets_edges():
    g1, g2 = _tiny_graph(sample_id=0), _tiny_graph(sample_id=1)
    batch = collate([g1, g2])
    assert batch.n_graphs == 2
    assert batch.n_nodes == 8
    assert batch.n_edges == 8
    # Second graph's edges shifted by 4.
    assert batch.edge_index[:, 4:].min() >= 4
    assert np.array_equal(batch.ptr, [0, 4, 8])
    assert np.array_equal(batch.node_graph, [0] * 4 + [1] * 4)


def test_collate_roundtrip_graph():
    g1, g2 = _tiny_graph(sample_id=0), _tiny_graph(sample_id=1)
    batch = collate([g1, g2])
    back = batch.graph(1)
    assert back.allclose(g2)


def test_collate_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        collate([])
    g1 = _tiny_graph(out_dim=2)
    g2 = _tiny_graph(out_dim=3)
    with pytest.raises(ValueError, match="inconsistent"):
        collate([g1, g2])


# ---------------------------------------------------------------------------
# Ising
# ---------------------------------------------------------------------------

def test_ising_lattice_counts_match_paper_shape():
    gen = IsingGenerator(10)
    g = gen.make(0)
    assert g.n_nodes == 125  # 5^3 atoms per configuration, as in the paper
    assert g.n_edges == 600  # 2 x 300 nearest-neighbour pairs, directed
    assert g.output_dim == 1
    assert np.all(np.abs(g.node_features) == 1.0)  # spins +-1
    assert g.positions.min() == 0.0 and g.positions.max() == 1.0  # unit cube


def test_ising_deterministic_per_index():
    a = IsingGenerator(10, seed=3).make(4)
    b = IsingGenerator(10, seed=3).make(4)
    assert a.allclose(b)
    c = IsingGenerator(10, seed=4).make(4)
    assert not a.allclose(c)


def test_ising_energy_ground_state():
    _pos, _ei, pairs = _lattice_topology(3)
    spins = np.ones(27, dtype=np.float32)
    e = ising_energy(spins, pairs, J=1.0, H=0.0)
    assert e == -pairs.shape[0]  # all-aligned ferromagnet minimises energy


def test_ising_energy_field_term():
    _pos, _ei, pairs = _lattice_topology(3)
    spins = np.ones(27, dtype=np.float32)
    e = ising_energy(spins, pairs, J=0.0, H=1.0)
    assert e == -27.0


def test_ising_out_of_range_index():
    gen = IsingGenerator(5)
    with pytest.raises(IndexError):
        gen.make(5)


# ---------------------------------------------------------------------------
# Molecules
# ---------------------------------------------------------------------------

def test_molecule_sizes_in_paper_band():
    gen = MoleculeGenerator(300, seed=0)
    sizes = [gen.make(i).n_nodes for i in range(300)]
    assert min(sizes) >= 5
    assert max(sizes) <= 71
    assert 45 <= float(np.mean(sizes)) <= 60  # paper mean ~52


def test_molecule_edges_roughly_twice_nodes():
    gen = MoleculeGenerator(100, seed=1)
    stats = GraphStats()
    for i in range(100):
        stats.add(gen.make(i))
    ratio = stats.mean_edges / stats.mean_nodes
    assert 1.8 <= ratio <= 2.6  # paper: 1.1B / 550.6M = 2.0


def test_molecule_connected_skeleton():
    import networkx as nx

    g = MoleculeGenerator(10, seed=2).make(3)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n_nodes))
    nxg.add_edges_from(g.edge_index.T.tolist())
    assert nx.is_connected(nxg)


def test_molecule_gap_positive_and_learnable_signal():
    gen = MoleculeGenerator(200, seed=0)
    gaps = np.array([gen.make(i).y[0] for i in range(200)])
    sizes = np.array([gen.make(i).n_nodes for i in range(200)])
    assert np.all(gaps > 0)
    # Gap must anti-correlate with size (physical trend the GNN learns).
    corr = np.corrcoef(gaps, sizes)[0, 1]
    assert corr < -0.5


def test_molecule_determinism():
    a = MoleculeGenerator(10, seed=9).make(7)
    b = MoleculeGenerator(10, seed=9).make(7)
    assert a.allclose(b)


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def test_spectrum_discrete_dims():
    gen = SpectrumGenerator(10, mode="discrete", seed=0)
    g = gen.make(0)
    assert g.output_dim == 100
    peaks = g.y[:50]
    assert np.all(np.diff(peaks) >= 0)  # sorted energies
    assert peaks.min() >= 1.0 and peaks.max() <= 8.0


def test_spectrum_smooth_dims_and_nonnegative():
    gen = SpectrumGenerator(5, mode="smooth", grid_size=351, seed=0)
    g = gen.make(0)
    assert g.output_dim == 351
    assert np.all(g.y >= 0)
    assert g.y.max() > 0


def test_spectrum_same_molecule_underneath():
    mols = MoleculeGenerator(5, seed=11)
    spec = SpectrumGenerator(5, mode="discrete", seed=11)
    m, s = mols.make(2), spec.make(2)
    assert np.array_equal(m.edge_index, s.edge_index)
    assert np.allclose(m.node_features, s.node_features)


def test_spectrum_rejects_bad_mode():
    with pytest.raises(ValueError):
        SpectrumGenerator(5, mode="fourier")


def test_smooth_bytes_dominated_by_target():
    small = SpectrumGenerator(3, mode="smooth", grid_size=351, seed=0).make(0)
    big = SpectrumGenerator(3, mode="smooth", grid_size=37500, seed=0).make(0)
    assert big.nbytes > 20 * small.nbytes  # paper: smooth ~20x discrete files


# ---------------------------------------------------------------------------
# spectrum broadening kernel
# ---------------------------------------------------------------------------

def _dense_smooth_spectrum(peaks, intensities, grid_size, sigma_ev=0.15):
    """The reference: every peak against every grid point, in float64."""
    grid = np.linspace(1.0, 8.0, grid_size)
    diff = grid[None, :] - peaks[:, None].astype(np.float64)
    spectrum = (intensities[:, None] * np.exp(-0.5 * (diff / sigma_ev) ** 2)).sum(axis=0)
    return spectrum.astype(np.float32)


# Peaks at both ends of the window (a peak at 1.0 is > 5.79 eV from the
# top of the grid, so part of the grid is skipped for it), duplicates,
# mid-window, just outside and far outside [1, 8].
_PEAK_EV = st.one_of(
    st.sampled_from([1.0, 1.0, 8.0, 8.0, 1.2, 2.2, 4.5, 6.8, 7.9, 0.5, 9.3, -6.0, 15.0]),
    st.floats(min_value=0.0, max_value=9.0, width=32),
)
_INTENSITY = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -0.5]),
    st.floats(min_value=-2.0, max_value=2.0, width=32),
)


_SPECTRUM_CASES = dict(
    peaks_intens=st.sampled_from([1, 2, 50]).flatmap(
        lambda n: st.tuples(
            st.lists(_PEAK_EV, min_size=n, max_size=n), st.lists(_INTENSITY, min_size=n, max_size=n)
        )
    ),
    grid_size=st.sampled_from([2, 351, 701, 37500]),
    sigma_ev=st.sampled_from([0.05, 0.15, 1.0]),
)


def _assert_matches_dense(peaks_intens, grid_size, sigma_ev):
    peaks = np.array(peaks_intens[0], dtype=np.float32)
    intens = np.array(peaks_intens[1], dtype=np.float32)
    got = gaussian_smooth_spectrum(peaks, intens, grid_size, sigma_ev)
    want = _dense_smooth_spectrum(peaks, intens, grid_size, sigma_ev)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from +0.0


@given(**_SPECTRUM_CASES)
@settings(max_examples=60, deadline=None)
def test_smooth_spectrum_is_bit_identical_to_the_dense_formula(peaks_intens, grid_size, sigma_ev):
    _assert_matches_dense(peaks_intens, grid_size, sigma_ev)


@given(**_SPECTRUM_CASES)
@settings(max_examples=60, deadline=None)
def test_smooth_spectrum_exact_pass_alone_is_bit_identical_to_the_dense_formula(
    peaks_intens, grid_size, sigma_ev
):
    # A 1-sigma first pass certifies nothing (its bound exceeds every |sum|),
    # so every grid point of a nonzero spectrum goes through the exact pass.
    with mock.patch.object(spectra, "_FAST_SIGMAS", 1.0):
        _assert_matches_dense(peaks_intens, grid_size, sigma_ev)


def test_smooth_spectrum_exact_cancellation_stays_plus_zero():
    peaks = np.array([4.0, 4.0], dtype=np.float32)
    intens = np.array([1.0, -1.0], dtype=np.float32)
    for grid_size in (351, 37500):
        got = gaussian_smooth_spectrum(peaks, intens, grid_size)
        assert got.tobytes() == _dense_smooth_spectrum(peaks, intens, grid_size).tobytes()
        assert got.tobytes() == bytes(4 * grid_size)  # +0.0 everywhere, never -0.0


def test_smooth_spectrum_exact_pass_visits_under_one_percent_of_the_grid(monkeypatch):
    # A loose bound would not break a single byte, only send the kernel back
    # to summing every term at every grid point.
    visited = []
    accumulate = spectra._accumulate

    def counting(spectrum, row, grid, p, w, sigma, reach):
        if reach > sigma * spectra._FAST_SIGMAS:
            visited.append(grid.size)
        accumulate(spectrum, row, grid, p, w, sigma, reach)

    monkeypatch.setattr(spectra, "_accumulate", counting)
    gen = DATASETS["aisd-ex-smooth"].make(32, 0)
    for index in range(32):
        gen.make(index)
    assert 0 < sum(visited) < 0.01 * 32 * gen.grid_size


def test_smooth_spectrum_skips_part_of_the_grid_and_stays_identical():
    # One peak at each end: each leaves > 1 eV of the grid untouched.
    peaks = np.array([1.0, 8.0], dtype=np.float32)
    for intens in (np.array([0.7, 0.3], np.float32), np.array([-0.7, -0.3], np.float32)):
        got = gaussian_smooth_spectrum(peaks, intens, 37500)
        assert got.tobytes() == _dense_smooth_spectrum(peaks, intens, 37500).tobytes()
    middle = gaussian_smooth_spectrum(peaks[:1], np.ones(1, np.float32), 37500)
    assert middle[0] == 1.0 and not middle[-5000:].any()


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(sigma_ev=0.0), "sigma_ev"),
        (dict(sigma_ev=-0.15), "sigma_ev"),
        (dict(sigma_ev=float("nan")), "sigma_ev"),
        (dict(grid_size=1), "grid_size"),
        (dict(grid_size=0), "grid_size"),
        (dict(intensities=np.ones(1, np.float32)), "same length"),
        (dict(peaks=np.ones((3, 1), np.float32)), "1-D"),
        (dict(peaks=np.array([1.0, np.nan, 2.0], np.float32)), "finite"),
        (dict(intensities=np.array([1.0, np.inf, 2.0], np.float32)), "finite"),
    ],
)
def test_smooth_spectrum_rejects_bad_input(kwargs, match):
    args = dict(
        peaks=np.array([2.0, 3.0, 4.0], np.float32),
        intensities=np.ones(3, np.float32),
        grid_size=351,
    )
    args.update(kwargs)
    with pytest.raises(ValueError, match=match):
        gaussian_smooth_spectrum(**args)


# ---------------------------------------------------------------------------
# generation kernels vs the loops they replaced
# ---------------------------------------------------------------------------

# Frozen copies of the per-atom / per-peak loop bodies as they stood at
# 283ab16, before MoleculeGenerator.make, the surrogate spectrum and
# IsingGenerator.make were rewritten as array kernels.  Reference only:
# nothing in src/ calls them.

def _loop_molecule(gen, index):
    rng = stream("molecule", gen.seed, index)
    n = gen._sample_size(rng)
    parents = np.empty(max(n - 1, 0), dtype=np.int64)
    for i in range(1, n):
        lo = max(0, i - 8)
        parents[i - 1] = rng.integers(lo, i)
    src = np.concatenate([np.arange(1, n), parents]) if n > 1 else np.empty(0, np.int64)
    dst = np.concatenate([parents, np.arange(1, n)]) if n > 1 else np.empty(0, np.int64)
    n_rings = int(rng.poisson(n / 12.0))
    ring_edges = []
    for _ in range(n_rings):
        if n < 5:
            break
        a = int(rng.integers(0, n - 4))
        b = a + int(rng.integers(3, min(7, n - a)))
        ring_edges.append((a, b))
    if ring_edges:
        ra = np.array([e[0] for e in ring_edges])
        rb = np.array([e[1] for e in ring_edges])
        src = np.concatenate([src, ra, rb])
        dst = np.concatenate([dst, rb, ra])
    edge_index = np.stack([src, dst]).astype(np.int32)
    species = rng.choice(N_ELEMENTS, size=n, p=_ELEMENT_PROBS)
    features = np.zeros((n, gen.feature_dim), dtype=np.float32)
    features[np.arange(n), species] = 1.0
    features[:, N_ELEMENTS] = _ELEMENT_ELECTRONEG[species]
    features[:, N_ELEMENTS + 1] = _ELEMENT_VALENCE[species]
    positions = np.cumsum(rng.normal(0.0, 0.9, size=(n, 3)), axis=0).astype(np.float32)
    degrees = np.zeros(n, dtype=np.int64)
    if edge_index.size:
        np.add.at(degrees, edge_index[1], 1)
    gap = molecules.synthetic_gap(degrees, species, len(ring_edges))
    gap += float(rng.normal(0.0, molecules.TARGET_NOISE))
    graph = AtomicGraph(
        positions=positions,
        node_features=features,
        edge_index=edge_index,
        y=np.array([gap], dtype=np.float32),
        sample_id=index,
    )
    return graph, rng


def _loop_surrogate_spectrum(graph, n_peaks):
    n = graph.n_nodes
    adj = np.zeros((n, n), dtype=np.float64)
    if graph.n_edges:
        adj[graph.edge_index[0], graph.edge_index[1]] = 1.0
    adj = np.maximum(adj, adj.T)
    onsite = graph.node_features[:, -2].astype(np.float64)
    lap = np.diag(adj.sum(axis=1) + 0.5 * onsite) - adj
    evals, evecs = np.linalg.eigh(lap)
    mid = n // 2
    peaks = np.empty(n_peaks)
    intens = np.empty(n_peaks)
    for k in range(n_peaks):
        lo = max(0, mid - 1 - (k % max(mid, 1)))
        hi = min(n - 1, mid + (k // max(mid, 1)) + k % 3)
        gap = float(evals[hi] - evals[lo])
        peaks[k] = gap
        overlap = float(np.abs(evecs[:, lo] @ evecs[:, hi]))
        intens[k] = (1.0 / (1.0 + k)) * (0.2 + overlap)
    raw_span = peaks.max() - peaks.min() + 1e-9
    peaks = 1.0 + (peaks - peaks.min()) / raw_span * (8.0 - 1.0)
    order = np.argsort(peaks)
    return peaks[order].astype(np.float32), intens[order].astype(np.float32)


def _loop_spectrum(gen, index):
    mol, _rng = _loop_molecule(gen._molecules, index)
    peaks, intens = _loop_surrogate_spectrum(mol, N_PEAKS)
    if gen.mode == "discrete":
        y = np.concatenate([peaks, intens])
    else:
        y = gaussian_smooth_spectrum(peaks, intens, gen.grid_size)
    return AtomicGraph(
        positions=mol.positions,
        node_features=mol.node_features,
        edge_index=mol.edge_index,
        y=y,
        sample_id=index,
    )


def _loop_ising(gen, index):
    rng = stream("ising", gen.seed, index)
    spins = rng.integers(0, 2, size=ising.N_ATOMS).astype(np.float32) * 2.0 - 1.0
    pairs = gen._pairs
    interaction = float(np.sum(spins[pairs[:, 0]] * spins[pairs[:, 1]]))
    energy = (-ising.J * interaction - ising.H * float(spins.sum())) / gen._energy_scale
    return AtomicGraph(
        positions=gen._positions,
        node_features=spins[:, None],
        edge_index=gen._edge_index,
        y=np.array([energy], dtype=np.float32),
        sample_id=index,
    )


class _SizedMolecules(MoleculeGenerator):
    """Every molecule has exactly ``n_atoms`` atoms (the size draw is still made)."""

    def __init__(self, n_samples, n_atoms, **kwargs):
        super().__init__(n_samples, **kwargs)
        self.n_atoms = n_atoms

    def _sample_size(self, rng):
        super()._sample_size(rng)
        return self.n_atoms


def _raw(graph):
    """Every field as (dtype, shape, bytes): equality is bit-for-bit."""
    fields = (graph.positions, graph.node_features, graph.edge_index, graph.y)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in fields] + [graph.sample_id]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_molecule_kernel_matches_the_loop_at_every_atom_count(seed, monkeypatch):
    streams = []

    def recording_stream(*key):
        streams.append(stream(*key))
        return streams[-1]

    monkeypatch.setattr(molecules, "stream", recording_stream)
    seen_rings = set()
    for n_atoms in range(1, 72):  # 5..71 is the paper band; 1..4 skip the ring loop
        gen = _SizedMolecules(4, n_atoms, seed=seed)
        for index in range(4):
            want, want_rng = _loop_molecule(gen, index)
            got = gen.make(index)
            assert got.n_nodes == n_atoms
            assert _raw(got) == _raw(want)
            # the stream is left where the loop left it: a desync cannot hide
            assert streams[-1].random() == want_rng.random()
            seen_rings.add((got.n_edges - 2 * (n_atoms - 1)) // 2)
    assert {0, 1, 2, 3} <= seen_rings


@pytest.mark.parametrize("mode", ["discrete", "smooth"])
def test_spectrum_kernel_matches_the_loop_at_every_atom_count(mode):
    # make() wraps its arrays with AtomicGraph.trusted: they must already be
    # what the validating constructor (used by the loop) would store.
    gen = SpectrumGenerator(3, mode=mode, grid_size=351, seed=5)
    for n_atoms in range(1, 72):
        gen._molecules = _SizedMolecules(3, n_atoms, seed=5)
        for index in range(3):
            got = gen.make(index)
            got.validate()
            assert all(a.flags.c_contiguous for a in (got.positions, got.node_features, got.edge_index, got.y))
            assert _raw(got) == _raw(_loop_spectrum(gen, index))
    noisy = SpectrumGenerator(3, mode=mode, grid_size=351, seed=5, target_noise=0.03).make(0)
    assert noisy.y.dtype == np.float32 and noisy.y.flags.c_contiguous


def test_surrogate_kernel_matches_the_loop_on_asymmetric_and_looped_graphs():
    # One-directional edges, a duplicate and a self-loop: the public kernel
    # symmetrises and de-duplicates exactly as the dense adjacency did.
    rng = np.random.default_rng(3)
    for n in (2, 3, 6, 17):
        edges = rng.integers(0, n, size=(2, 3 * n))
        g = AtomicGraph(
            positions=np.zeros((n, 3)),
            node_features=rng.uniform(1.0, 4.0, size=(n, 7)),
            edge_index=edges,
            y=np.zeros(1),
        )
        got = _surrogate_spectrum(g.edge_index, g.node_features)
        want = _loop_surrogate_spectrum(g, N_PEAKS)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert got[0].dtype == got[1].dtype == np.float32


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_ising_kernel_matches_the_loop(seed):
    gen = IsingGenerator(16, seed=seed)
    for index in range(16):
        assert _raw(gen.make(index)) == _raw(_loop_ising(gen, index))


def test_surrogate_intensities_do_not_depend_on_the_overlap_residue():
    # The loop's intensity was (0.2 + |<lo|hi>|) / (1 + k) with <lo|hi> the
    # overlap of two *distinct* eigenvectors of a symmetric matrix: zero up to
    # rounding.  (1) The residue is tiny ...
    gen = MoleculeGenerator(64, seed=0)
    worst = 0.0
    for index in range(64):
        g = gen.make(index)
        n = g.n_nodes
        lap = np.zeros((n, n))
        lap[g.edge_index[0], g.edge_index[1]] = -1.0
        lap[np.arange(n), np.arange(n)] = 0.5 * g.node_features[:, -2] - lap.sum(axis=1)
        evecs = np.linalg.eigh(lap)[1]
        lo, hi, _w = _transitions(n)
        assert not np.any(lo == hi)
        worst = max(worst, float(np.abs(np.einsum("ik,ik->k", evecs[:, lo], evecs[:, hi])).max()))
    assert worst < 1e-12
    # ... (2) and float32 cannot see a residue a thousand times larger: for
    # every peak, [0.2, 0.2 + 1e-9] / (1 + k) lies inside one rounding
    # interval (the map is monotone, so the two ends suffice) ...
    k = np.arange(N_PEAKS)
    scale = 1.0 / (1.0 + k)
    constants = (scale * 0.2).astype(np.float32)
    assert np.array_equal((scale * (0.2 + 1e-9)).astype(np.float32), constants)
    # ... (3) so the kernel ships the fifty constants, permuted by the peak sort.
    assert np.array_equal(_transitions(40)[2], constants)
    g = gen.make(0)
    _peaks, intens = _surrogate_spectrum(g.edge_index, g.node_features)
    assert sorted(intens.tolist()) == sorted(constants.tolist())
    # A one-atom "molecule" is the exception: lo == hi, overlap exactly 1.
    assert np.array_equal(_transitions(1)[2], (scale * 1.2).astype(np.float32))


def test_n_peaks_must_be_positive_and_tiny_molecules_work():
    """The generators refuse what they cannot make (the peak count is now
    the constant N_PEAKS), and the surrogate spectrum of a one- to four-atom
    molecule is N_PEAKS sorted peaks inside the UV-vis window."""
    for make in (IsingGenerator, MoleculeGenerator, SpectrumGenerator):
        with pytest.raises(ValueError, match="n_samples"):
            make(0)
        with pytest.raises(IndexError):
            make(3, seed=1).make(3)
    with pytest.raises(ValueError, match="grid_size"):
        SpectrumGenerator(4, mode="smooth", grid_size=1)
    with pytest.raises(ValueError, match="target_noise"):
        SpectrumGenerator(4, target_noise=-0.1)
    assert SpectrumGenerator(4).output_dim == 2 * N_PEAKS
    for n_atoms in (1, 2, 3, 4):
        g = _SizedMolecules(10, n_atoms, seed=1).make(9)
        assert g.n_nodes == n_atoms
        assert g.n_edges == 2 * (n_atoms - 1)  # mid == 0 at one atom; no ring below five
        peaks, intens = _surrogate_spectrum(g.edge_index, g.node_features)
        assert peaks.shape == intens.shape == (N_PEAKS,)
        assert np.all(np.diff(peaks) >= 0) and np.all(intens > 0)
        assert 1.0 <= peaks[0] and peaks[-1] <= 8.0


# ---------------------------------------------------------------------------
# golden bytes: every registry dataset, packed, at two or three seeds
# ---------------------------------------------------------------------------

# sha256 over the concatenated pack_graph() output of the first n samples,
# recorded before the generators were touched (the 256-sample prefixes at
# 283ab16; aisd-ex-smooth's 64 at b5ce3ee, the last dense-window kernel:
# 64 samples, unlike 4, send grid points through its exact pass).  Any
# change to these bytes moves every virtual-time metric and trace hash
# downstream.
_GOLDEN_PREFIX = {"ising": 256, "aisd": 256, "aisd-ex-discrete": 256, "aisd-ex-smooth": 64,
                  "aisd-ex-smooth-small": 256}
_GOLDEN_SHA256 = {
    ("ising", 0): "729d3b7145ecfe97b6b4b0cb250851c5bbebf716e2fc66e9afeaacc944c3b83c",
    ("ising", 1): "53ff40b34ef2350e456b2dd5a8803bff7c55dd491edc4ef69093ab671a922e36",
    ("ising", 2): "bf9db1512f130a58b900eb12c20ff92301e2fd69a04309f7e8b8d8efc09299d9",
    ("aisd", 0): "b2b7c8c5fcf7acaa33021ac5caa3df42a4e5f04c750fe2a02c7f3f2a11ec9aa8",
    ("aisd", 1): "6b459e20f461f43b6f1886de9cc391625c34096b1eec9e603ce450adceb59442",
    ("aisd", 2): "ea6211903b99beb79d618d57290da474eb452e24ee9d780ef99255cb9f7e7292",
    ("aisd-ex-discrete", 0): "c43ac2afdf8ffdfb70a6999cf713165ddaac2e427e8b87eef00bf53de0a3736d",
    ("aisd-ex-discrete", 1): "4a547471b8b746565292aceac1b0375693a3711eed46c9443a175a3d092017a4",
    ("aisd-ex-discrete", 2): "58abf957e24ddc7d32467819eaa9280d5add39d3a8f9bc4394c4f7324be4f956",
    ("aisd-ex-smooth-small", 0): "9e0be8be5726aa6533daadbaa2b91729bbb27ec79b912805d6d5f77292bf5d82",
    ("aisd-ex-smooth-small", 1): "84b785325ae0ee9f78a522d5401f9ad3a926345cca84034b8276a0dd9cc329c1",
    ("aisd-ex-smooth-small", 2): "abfb620efdc6ef3364322a9dc7bd48eb26dd5b4cc7c9aeab8d30aec7b2b5f5e8",
    ("aisd-ex-smooth", 0): "c333aa7984b4bdb2cd3ff5e1bf02a78667fbf29dbefc22948739fddcf687cc4d",
    ("aisd-ex-smooth", 1): "f19777867d5b2fc4262da57d1d52d5cf3bb0e201a748f1edc072847a6d57bfab",
}


@pytest.mark.parametrize("dataset, seed", sorted(_GOLDEN_SHA256))
def test_packed_dataset_bytes_match_golden_hashes(dataset, seed):
    # Generated from the first sample here: on a multi-core host by forked
    # workers, on one core (CI reruns this under ``taskset -c 0``) inline;
    # both must give these bytes.
    n = _GOLDEN_PREFIX[dataset]
    harness._IMAGES.pop((dataset, seed), None)
    if len(os.sched_getaffinity(0)) > 1:
        assert harness._n_workers(n) > 1
    digest = hashlib.sha256()
    for blob in packed_blobs(dataset, seed, n):
        digest.update(blob)
    assert digest.hexdigest() == _GOLDEN_SHA256[dataset, seed]


# ---------------------------------------------------------------------------
# golden traces: "must not move" for every virtual timestamp downstream
# ---------------------------------------------------------------------------

# sha256 of trace_json_bytes(run_traced(name, tiny).chrome), recorded at
# 59d3716 (the parent of the struct-of-arrays read path).  A traced cell's
# document holds every span of every layer with its virtual start and end,
# so one moved event, charge or counter anywhere under the fetch path shows
# up here.  A PR that means to move virtual time re-records the digests and
# says so; every other PR keeps them.  (``tiered`` takes a minute: left out.)
_GOLDEN_TRACE_SHA256 = {
    "fig5": "03d3f676045bf23f16fa57cf89be4f7820bff25235bac1bd979de249b87f653b",
    "fig9": "698cdb5609fd04358cb8bc5c3d62a650a15136039f3c0aacc57d7051396560d9",
    "resilience": "8fd0508675bb6428c6c8f9d119297caf3dd1b321a9964e25f515f80fcf8e701d",
    "columnar": "8ab669138758b10f59c3d62f2b739020ad016ba0b4368c1817340f182fac657a",
    "p2p": "5084bb7668058bbfbb2006c58d30908eea721a9fb7d2a2242f56251678aa6577",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_TRACE_SHA256))
def test_traced_cell_matches_golden_trace_hash(name):
    from repro.bench import PROFILES
    from repro.obs.runner import run_traced, trace_json_bytes

    chrome = run_traced(name, PROFILES["tiny"]).chrome
    assert hashlib.sha256(trace_json_bytes(chrome)).hexdigest() == _GOLDEN_TRACE_SHA256[name]


# ---------------------------------------------------------------------------
# registry / stats
# ---------------------------------------------------------------------------

def test_registry_has_all_paper_datasets():
    assert set(DATASETS) == {
        "ising",
        "aisd",
        "aisd-ex-discrete",
        "aisd-ex-smooth",
        "aisd-ex-smooth-small",
    }


def test_dataset_spec_makes_its_count_and_output_dim():
    # ``ExperimentConfig`` refuses an unknown key; here each spec's Table 1
    # ``output_dim`` must be what its generator's graphs carry.
    for spec in DATASETS.values():
        gen = spec.make(3, seed=1)
        assert len(gen) == 3
        assert gen.make(2).output_dim == spec.output_dim


def test_graph_stats_counts():
    gen = IsingGenerator(6)
    stats = GraphStats()
    for i in range(6):
        stats.add(gen.make(i))
    assert stats.n_graphs == 6
    assert stats.mean_nodes == 125
    assert stats.min_nodes == stats.max_nodes == 125
    assert stats.total_bytes == 6 * gen.make(0).nbytes


def test_stats_accumulator_empty():
    s = GraphStats()
    assert s.mean_nodes == 0.0 and s.mean_bytes == 0.0
