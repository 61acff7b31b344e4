"""The index-array arc layer against the dense incidence oracle.

Each check rebuilds the dense T, H and R from the index arrays and compares
the O(m) helpers, the walk spectrum and the cospectrality verdicts with
their dense-matrix forms, on the curated graphs and on random regular
graphs with at most 200 arcs.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from arcwalk import (
    NOT_COSPECTRAL,
    State,
    build_arc_space,
    check_strong_cospectrality,
    check_strong_cospectrality_direct,
    eigendecompose_symmetric,
    from_edge_list,
    initial_state,
    walk_spectrum,
)
from arcwalk.walk import apply_walk, tail_sum

from conftest import (
    ALL_GRAPHS,
    dense_incidence,
    direct_cospectrality_loop,
    get_bundle,
    pair_projections,
    transition_matrix,
    walk_projections,
)

ATOL = 1e-12


def dense_walk_projections(dec, arcs):
    """Walk projections by the dense formula: F_{+theta} =
    (T^T - e^{i theta} H^T) Q Q^T (T - e^{-i theta} H) / (2k sin^2 theta) for
    an orthonormal basis Q of the range of E, taken from an eigh of E, and
    the +-1 projections split from the complement by the dense U. Returns
    the (class, theta) of each pair and the projections labelled as
    ``walk_projections`` labels them."""
    T, H, R = (M.astype(float) for M in dense_incidence(arcs))
    k, m = arcs.k, arcs.num_arcs
    classes, pairs = [], []
    for r in range(1, dec.num_classes - dec.has_minus_k):
        theta = float(dec.angles[r])
        values, vectors = np.linalg.eigh(dec.idempotents[r])
        Q = vectors[:, values > 0.5]
        F = (T.T - np.exp(1j * theta) * H.T) @ Q / (np.sqrt(2.0 * k) * np.sin(theta))
        F = F @ F.conj().T
        classes.append((r, theta))
        pairs += [(f"pair{r}+", F), (f"pair{r}-", F.conj())]
    U = R @ ((2.0 / k) * T.T @ T - np.eye(m))
    residual = np.eye(m, dtype=complex) - sum(P for _, P in pairs)
    plus1 = (residual + U @ residual) / 2.0
    return classes, [("plus1", plus1), ("minus1", residual - plus1)] + pairs


def check_tail_sum(arcs):
    T = dense_incidence(arcs)[0]
    rng = np.random.default_rng(0)
    x = rng.standard_normal(arcs.num_arcs)
    X = rng.standard_normal((arcs.num_arcs, 3)) + 1j * rng.standard_normal((arcs.num_arcs, 3))
    assert_allclose(tail_sum(arcs, x), T @ x, atol=ATOL)
    assert_allclose(tail_sum(arcs, X), T @ X, atol=ATOL)


def check_apply_walk(arcs):
    T, _, R = (M.astype(float) for M in dense_incidence(arcs))
    U = R @ ((2.0 / arcs.k) * T.T @ T - np.eye(arcs.num_arcs))
    rng = np.random.default_rng(1)
    X = rng.standard_normal((arcs.num_arcs, 3)) + 1j * rng.standard_normal((arcs.num_arcs, 3))
    assert_allclose(apply_walk(arcs, X), U @ X, atol=ATOL)
    assert_allclose(apply_walk(arcs, X[:, 0]), U @ X[:, 0], atol=ATOL)
    assert_allclose(transition_matrix(arcs), U, atol=ATOL)


def check_walk_spectrum(dec, arcs, ws):
    classes, oracle = dense_walk_projections(dec, arcs)
    assert [(index, theta) for index, theta, _ in pair_projections(ws)] == classes
    got = walk_projections(ws)
    assert [label for label, _ in got] == [label for label, _ in oracle]
    for (label, P), (_, want) in zip(got, oracle):
        assert_allclose(P, want, atol=ATOL, err_msg=label)


def check_cospectrality(g, dec, arcs, ws):
    """Verdicts on the index path agree with the direct route over the
    dense-oracle projections: start states, their evolutions, other
    vertices' start states and random states."""
    oracle = dense_walk_projections(dec, arcs)[1]
    rng = np.random.default_rng(2)
    for a in sorted({0, g.n - 1}):
        x = initial_state(arcs, a)
        evolved = x.amplitudes
        for _ in range(3):
            evolved = apply_walk(arcs, evolved)
        y = rng.standard_normal(arcs.num_arcs) + 1j * rng.standard_normal(arcs.num_arcs)
        targets = [x, State(evolved), initial_state(arcs, (a + 1) % g.n), State(y / np.linalg.norm(y))]
        for target in targets:
            want = direct_cospectrality_loop(oracle, x, target) == NOT_COSPECTRAL
            assert (check_strong_cospectrality_direct(ws, x, target) == NOT_COSPECTRAL) == want
            if not g.is_bipartite:
                got = check_strong_cospectrality(dec, arcs, a, target) == NOT_COSPECTRAL
                assert got == want
        assert direct_cospectrality_loop(oracle, x, x) != NOT_COSPECTRAL


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_tail_sum_matches_dense(name):
    check_tail_sum(get_bundle(name).arcs)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_apply_walk_and_transition_matrix_match_dense(name):
    check_apply_walk(get_bundle(name).arcs)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_walk_spectrum_matches_dense_formula(name):
    b = get_bundle(name)
    check_walk_spectrum(b.dec, b.arcs, b.ws)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_cospectrality_verdicts_match_dense_oracle(name):
    b = get_bundle(name)
    check_cospectrality(b.graph, b.dec, b.arcs, b.ws)


@st.composite
def random_regular_graphs(draw):
    n = draw(st.integers(4, 50))
    k = draw(st.integers(3, max(3, min(n - 1, 200 // n))))
    assume(k < n and n * k % 2 == 0 and n * k <= 200)
    seed = draw(st.integers(0, 2**32 - 1))
    g = from_edge_list(nx.random_regular_graph(k, n, seed=seed).edges(), n)
    assume(g.is_connected)
    return g


@settings(deadline=None, max_examples=25)
@given(g=random_regular_graphs())
def test_random_regular_graphs_match_dense_oracle(g):
    dec = eigendecompose_symmetric(g)
    arcs = build_arc_space(g)
    ws = walk_spectrum(dec, arcs)
    check_tail_sum(arcs)
    check_apply_walk(arcs)
    check_walk_spectrum(dec, arcs, ws)
    check_cospectrality(g, dec, arcs, ws)


def test_arc_index_rejects_out_of_range_tail():
    arcs = get_bundle("k4").arcs
    for u, v in ((4, 0), (-1, 0), (0, 4)):
        with pytest.raises(KeyError):
            arcs.arc_index(u, v)
