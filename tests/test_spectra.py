import dataclasses
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcwalk import (
    DecompositionError,
    decomposition_residuals,
    eigendecompose_symmetric,
    eigenvalue_support,
    eigenvalue_supports,
    from_edge_list,
    graph_from_adjacency,
    probe_block,
    validate_srg,
)

from arcwalk import mixing, spectra
from arcwalk.cli import resolve_builtin
from arcwalk.spectra import TAU_SPEC, srg_decomposition

from conftest import ALL_GRAPHS, GRAPH_BUILDERS, dense_decomposition_residuals, get_bundle
from test_conjugate_storage import inputs


def srg_spectrum_oracle(n, k, a, c):
    """Eigenvalues and multiplicities from the parameter quadratic,
    independent of any matrix diagonalization."""
    disc = np.sqrt((a - c) ** 2 + 4 * (k - c))
    lam = ((a - c) + disc) / 2
    tau = ((a - c) - disc) / 2
    f = ((n - 1) - (2 * k + (n - 1) * (a - c)) / disc) / 2
    g = ((n - 1) + (2 * k + (n - 1) * (a - c)) / disc) / 2
    return (k, lam, tau), (1, round(f), round(g))


@pytest.mark.parametrize("name", ["rook3", "rook4", "petersen"])
def test_srg_spectra_match_parameter_oracle(name):
    b = get_bundle(name)
    params = validate_srg(b.graph).as_tuple()
    values, mults = srg_spectrum_oracle(*params)
    assert_allclose(b.dec.eigenvalues, values, atol=1e-9)
    assert tuple(b.dec.multiplicities) == mults


@pytest.mark.parametrize("name,n", [("k4", 4), ("k5", 5)])
def test_complete_graph_spectra(name, n):
    dec = get_bundle(name).dec
    assert_allclose(dec.eigenvalues, [n - 1, -1], atol=1e-10)
    assert tuple(dec.multiplicities) == (1, n - 1)
    assert not dec.has_minus_k


def test_cycle4_spectrum_is_bipartite():
    dec = get_bundle("c4").dec
    assert_allclose(dec.eigenvalues, [2, 0, -2], atol=1e-10)
    assert tuple(dec.multiplicities) == (1, 2, 1)
    assert dec.has_minus_k
    assert_allclose(dec.angles, [0, np.pi / 2, np.pi], atol=1e-12)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_idempotent_suite_residuals(name):
    b = get_bundle(name)
    res = decomposition_residuals(b.dec, b.graph.adjacency.astype(float))
    assert res["completeness"] < 1e-10
    for key in ("idempotency", "orthogonality", "reconstruction", "e0_vs_uniform"):
        assert res[key] < 1e-9, (key, res[key])


def adjacency_of(arcs):
    A = np.zeros((arcs.n, arcs.n))
    A[arcs.tails, arcs.heads] = 1.0
    return A


@pytest.mark.parametrize(
    "name", ALL_GRAPHS + ("cycle:8", "cycle:12", "random-20-4", "random-28-4")
)
def test_gram_bounds_cover_the_dense_suite(name):
    """``idempotency`` and ``orthogonality``, bounded from V^T V - I, are
    never below the maxima the dense suite measures over every E_r E_s, and
    the measured keys agree with it (random-28-4 has 28 classes)."""
    if name in ALL_GRAPHS:
        dec, arcs = get_bundle(name).dec, get_bundle(name).arcs
    else:
        dec, arcs, _ = inputs(name)
    A = adjacency_of(arcs)
    got, want = decomposition_residuals(dec, A), dense_decomposition_residuals(dec, A)
    assert got.keys() == want.keys()
    for key in ("idempotency", "orthogonality"):
        assert want[key] <= got[key] <= TAU_SPEC, (key, got[key], want[key])
    for key in ("completeness", "reconstruction", "e0_vs_uniform"):
        assert abs(got[key] - want[key]) <= 1e-14, (key, got[key], want[key])


def test_gram_bounds_see_eigenvectors_that_are_not_orthonormal():
    """Idempotents formed from eigenvectors skewed by 1e-6 fail idempotency
    and orthogonality in the dense suite, and the bounds stay above it."""
    dec = get_bundle("petersen").dec
    V = dec.vectors + 1e-6 * np.random.default_rng(0).standard_normal((dec.n, dec.n))
    E = [V[:, lo : lo + size] @ V[:, lo : lo + size].T
         for lo, size in zip(dec.class_starts, dec.multiplicities)]
    skewed = dataclasses.replace(dec, vectors=V, idempotents=E)
    A = get_bundle("petersen").graph.adjacency.astype(float)
    got, want = decomposition_residuals(skewed, A), dense_decomposition_residuals(skewed, A)
    for key in ("idempotency", "orthogonality"):
        assert TAU_SPEC < want[key] <= got[key], (key, got[key], want[key])


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_angle_conventions(name):
    dec = get_bundle(name).dec
    assert dec.angles[0] == 0.0
    assert np.all(np.diff(dec.angles) > 0)
    assert dec.has_minus_k == (name == "c4")
    if dec.has_minus_k:
        assert dec.angles[-1] == np.pi
    # angles are consistent with the eigenvalue ratios
    assert_allclose(
        np.cos(dec.angles), np.asarray(dec.eigenvalues) / dec.k, atol=1e-12
    )


def test_multiplicities_sum_to_n():
    for name in ALL_GRAPHS:
        b = get_bundle(name)
        assert int(b.dec.multiplicities.sum()) == b.graph.n


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_eigenvalue_support_full_on_transitive_graphs(name):
    b = get_bundle(name)
    full = tuple(range(b.dec.num_classes))
    for a in range(b.graph.n):
        assert eigenvalue_support(b.dec, a) == full


@pytest.mark.parametrize("name", ALL_GRAPHS + (8, 10, 12))
def test_supports_of_every_vertex_in_one_pass(name):
    """Against the column norms one vertex at a time. The random cubic
    graphs on 8, 10 and 12 vertices (networkx seed 0) have vertices
    outside some classes."""
    if name in GRAPH_BUILDERS:
        dec = get_bundle(name).dec
    else:
        h = nx.random_regular_graph(3, name, seed=0)
        dec = eigendecompose_symmetric(graph_from_adjacency(nx.to_numpy_array(h, dtype=np.int64)))
        assert any(len(s) < dec.num_classes for s in eigenvalue_supports(dec))
    cutoff = 1e-10 * np.sqrt(dec.n)
    oracle = [
        tuple(r for r, E in enumerate(dec.idempotents) if np.linalg.norm(E[:, a]) > cutoff)
        for a in range(dec.n)
    ]
    assert eigenvalue_supports(dec) == oracle
    assert [eigenvalue_support(dec, a) for a in range(dec.n)] == oracle


def test_eigenvalue_support_rejects_bad_vertex():
    dec = get_bundle("k4").dec
    with pytest.raises(ValueError, match="out of range"):
        eigenvalue_support(dec, 4)


def test_rejects_irregular_and_disconnected():
    path = from_edge_list([(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError, match="regular"):
        eigendecompose_symmetric(path)
    pair = from_edge_list([(0, 1), (2, 3)], 4)
    with pytest.raises(ValueError, match="connected"):
        eigendecompose_symmetric(pair)


def test_valency_zero_is_refused():
    with pytest.raises(ValueError, match="valency"):
        eigendecompose_symmetric(from_edge_list([], 1))


def test_idempotent_stack_over_the_limit_is_refused(monkeypatch):
    """Petersen has 3 classes on 10 vertices: a stack of 2400 bytes."""
    g = GRAPH_BUILDERS["petersen"]()
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", 3 * 10 * 10 * 8 - 1)
    with pytest.raises(ValueError, match="3 classes on 10 vertices"):
        eigendecompose_symmetric(g)
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", 3 * 10 * 10 * 8)
    assert eigendecompose_symmetric(g).idempotents.nbytes == 2400


def test_scheme_route_peaks_below_two_dense_arrays():
    """On hadamard-srg:16 (n = 1024) the scheme record, the Hadamard search
    and the residual for every start together peak below two n x n float64
    arrays, 16 MiB: the record holds an int8 R and the certificate its
    int64 H, where the idempotent stack alone took 24 MiB. The E_r v of the
    closed-form check on the probes, all classes at once, then peak below
    a quarter of one such array: A v is formed from R in blocks of rows."""
    g = resolve_builtin("hadamard-srg:16")
    n = g.n
    tracemalloc.start()
    try:
        dec = srg_decomposition(g)
        certificates = mixing.hadamard_search(dec)
        for cert in certificates:
            mixing._distance_to_target(dec, cert.matrix, slice(None), 7.0)
        peak = tracemalloc.get_traced_memory()[1]
        probes = probe_block(n)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        spectra.class_sums(dec, range(dec.num_classes), X=probes)
        products = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert dec.idempotents is None and certificates
    assert peak < 2 * 8 * n * n
    assert products < 8 * n * n / 4


def test_oversized_grouping_tolerance_fails_loudly():
    g = GRAPH_BUILDERS["k4"]()
    with pytest.raises(DecompositionError) as err:
        eigendecompose_symmetric(g, tau_group=100.0)
    assert err.value.residuals  # diagnostics travel with the error


def test_reasonable_grouping_tolerances_agree():
    g = GRAPH_BUILDERS["rook4"]()
    d1 = eigendecompose_symmetric(g)
    d2 = eigendecompose_symmetric(g, tau_group=1e-6)
    assert_allclose(d1.eigenvalues, d2.eigenvalues, atol=1e-12)
    for E1, E2 in zip(d1.idempotents, d2.idempotents):
        assert_allclose(E1, E2, atol=1e-12)
