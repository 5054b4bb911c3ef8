"""Tests for graph structures, collation, and dataset generators."""

import hashlib

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
    compute_stats,
    ising_energy,
    gaussian_smooth_spectrum,
    make_generator,
)
from repro.graphs.ising import _lattice_topology
from repro.storage import pack_graph


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


def test_graph_degree():
    g = _tiny_graph()
    assert np.array_equal(g.degree(), np.ones(4, dtype=np.int64))


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
    stats = compute_stats(gen, 100)
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


@given(
    st.sampled_from([1, 2, 50]).flatmap(
        lambda n: st.tuples(
            st.lists(_PEAK_EV, min_size=n, max_size=n), st.lists(_INTENSITY, min_size=n, max_size=n)
        )
    ),
    st.sampled_from([2, 351, 701, 37500]),
    st.sampled_from([0.05, 0.15, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_smooth_spectrum_is_bit_identical_to_the_dense_formula(peaks_intens, grid_size, sigma_ev):
    peaks = np.array(peaks_intens[0], dtype=np.float32)
    intens = np.array(peaks_intens[1], dtype=np.float32)
    got = gaussian_smooth_spectrum(peaks, intens, grid_size, sigma_ev)
    want = _dense_smooth_spectrum(peaks, intens, grid_size, sigma_ev)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from +0.0


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
# golden bytes: every registry dataset, packed, at two seeds
# ---------------------------------------------------------------------------

# sha256 over the concatenated pack_graph() output of the first n samples,
# recorded at the commit before the spectrum kernel and the preload copy
# chain were rewritten (4798b5e).  Any change to these bytes moves every
# virtual-time metric and trace hash downstream.
_GOLDEN_PREFIX = {"ising": 8, "aisd": 8, "aisd-ex-discrete": 8, "aisd-ex-smooth": 4,
                  "aisd-ex-smooth-small": 8}
_GOLDEN_SHA256 = {
    ("ising", 0): "ad9fad67cbc13a340b034e01d34e56ae4d85a4b5c21a531687475f8a0d6809ee",
    ("ising", 1): "7baaf2769a09794c10128a327ae051e5fa17eb42059318a4a9b98645a9661392",
    ("aisd", 0): "97ac7c9ab0a3acba29c72e2364b2c1188dc9ef0dd12be385dc5f83ef73c530ad",
    ("aisd", 1): "755210e0c029753cec9d36a7a11b85162d1c46969e3cca905aa9a84f6cb7ee10",
    ("aisd-ex-discrete", 0): "efd198dccbdf5388cfa9b2e6bccad8f50a229791446ec56741a3d35a0646ffae",
    ("aisd-ex-discrete", 1): "c2a69c26445a4a284405ba7d634d7b604b5098960ca38bf9dfb293ce665e3465",
    ("aisd-ex-smooth", 0): "36422ace928210b5109566b0ecf1d7e665ac9915b1bc2e98f944935a9ac6a89d",
    ("aisd-ex-smooth", 1): "0a69e2fb0b43e24b277b3d2e10b28c123ab9a9ec7b19917f028330221d9c4eb2",
    ("aisd-ex-smooth-small", 0): "9b38302a5d13fbdca3000a87cddbeb2b391a0f61c04c23146a602bf2eb36499f",
    ("aisd-ex-smooth-small", 1): "b26b33815870df8c840be6ba174f13853a50a831f6653953a57509f03c7bb467",
}


@pytest.mark.parametrize("dataset, seed", sorted(_GOLDEN_SHA256))
def test_packed_dataset_bytes_match_golden_hashes(dataset, seed):
    n = _GOLDEN_PREFIX[dataset]
    gen = DATASETS[dataset].make(n, seed)
    digest = hashlib.sha256()
    for i in range(n):
        digest.update(pack_graph(gen.make(i)))
    assert digest.hexdigest() == _GOLDEN_SHA256[dataset, seed]


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


def test_make_generator_and_unknown_key():
    gen = make_generator("ising", 4)
    assert len(gen) == 4
    with pytest.raises(KeyError, match="unknown dataset"):
        make_generator("qm9", 4)


def test_compute_stats_counts():
    gen = IsingGenerator(6)
    stats = compute_stats(gen)
    assert stats.n_graphs == 6
    assert stats.mean_nodes == 125
    assert stats.min_nodes == stats.max_nodes == 125
    assert stats.total_bytes == 6 * gen.make(0).nbytes


def test_stats_accumulator_empty():
    s = GraphStats()
    assert s.mean_nodes == 0.0 and s.mean_bytes == 0.0
