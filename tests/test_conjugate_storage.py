"""The walk spectrum stores the arc eigenvectors, not the projections.

``walk_spectrum`` keeps, for the angles in (0, pi), one read-only complex
(m, N) array W of orthonormal eigenvectors of U, N = sum m_r <= n - 1, in
which each class r takes a block W_r of adjacent columns, with the angle
and class of each column, and nothing else. No projection is formed in
the library: on random-28-4 a build stores 48,384 B where one complex
m x m array per angle took 5,619,712 B. The read path
(``evolve_operator``) and the direct cospectrality route use W and U
alone. They are checked here against independent slow paths: U stepped
by ``apply_walk``, the projections applied without being formed
(``evolve_by_projections``), and every projection formed densely.
"""

import functools
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcwalk import (
    build_arc_space,
    from_edge_list,
    check_strong_cospectrality_direct,
    eigendecompose_symmetric,
    evolve,
    evolve_by_projections,
    evolve_operator,
    initial_state,
    mixing,
    walk,
    walk_spectrum,
)
from arcwalk.cli import resolve_builtin
from arcwalk.graphs import graph_from_adjacency
from arcwalk.walk import State, apply_walk, check_closed_form

from conftest import (
    RANDOM_20_4_EDGES,
    direct_cospectrality_loop,
    get_bundle,
    walk_projections,
)


def random_regular(n, k):
    """A connected non-bipartite k-regular graph on n vertices with n
    distinct eigenvalues, so n eigenvalue classes."""
    seed = 0
    while True:
        A = nx.to_numpy_array(nx.random_regular_graph(k, n, seed=seed), dtype=np.int64)
        values = np.linalg.eigvalsh(A.astype(float))
        g = graph_from_adjacency(A)
        if g.is_connected and not g.is_bipartite and np.diff(values).min() > 1e-6:
            return g
        seed += 1


@functools.lru_cache(maxsize=None)
def inputs(name):
    """dec, arcs and the verified walk spectrum of a builtin, of the fixed
    random-20-4 graph, or of a random-n-k graph drawn by ``random_regular``."""
    if name == "random-20-4":
        g = from_edge_list(RANDOM_20_4_EDGES, 20)
    elif name.startswith("random-"):
        g = random_regular(*map(int, name.split("-")[1:]))
    else:
        g = resolve_builtin(name)
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    return dec, arcs, walk_spectrum(dec, arcs)


def test_verified_spectrum_stores_the_arc_eigenvectors_once():
    """random-28-4 has 28 classes of multiplicity 1, so W is 112 x 27
    complex, 48,384 B, and no field holds an m x m array: the two real
    +-1 projections took 200,704 B more, and one complex m x m array per
    angle 5,619,712 B."""
    dec, arcs, ws = inputs("random-28-4")
    m, d = arcs.num_arcs, len(np.unique(ws.column_classes))
    N = int(dec.multiplicities[1:].sum())
    assert (dec.num_classes, d, m, N) == (28, 27, 112, 27)
    assert ws.residuals and max(ws.residuals.values()) <= walk.TAU_WALK
    assert ws.arc_space is arcs and ws.num_arcs == m
    W = ws.factors
    assert W.shape == (m, N) and W.dtype == np.complex128
    assert not W.flags.writeable
    assert ws.column_classes.tolist() == list(range(1, 28))
    assert_allclose(W.conj().T @ W, np.eye(N), rtol=0, atol=1e-12)
    assert W.nbytes == 48_384 < (16 * d + 2 * 8) * m * m == 5_619_712


@pytest.mark.parametrize("name", ("k4", "cycle:8", "rook:6"))
def test_each_class_is_a_column_block_of_the_factor_array(name):
    """A class of multiplicity m_r takes m_r adjacent columns of W, in class
    order (rook:6 has multiplicities 1, 10 and 25, cycle:8 is bipartite),
    each with the class's angle, and W has orthonormal columns:
    eigenvectors of the unitary U for distinct eigenvalues."""
    dec, arcs, ws = inputs(name)
    live = dec.num_classes - dec.has_minus_k
    sizes = dec.multiplicities[1:live]
    W = ws.factors
    assert W.shape == (arcs.num_arcs, sizes.sum()) and W.dtype == np.complex128
    for column_array in (W, ws.column_thetas, ws.column_classes):
        assert not column_array.flags.writeable
    assert np.array_equal(ws.column_classes, np.repeat(np.arange(1, live), sizes))
    assert np.array_equal(ws.column_thetas, np.repeat(dec.angles[1:live], sizes))
    assert_allclose(W.conj().T @ W, np.eye(W.shape[1]), rtol=0, atol=1e-12)


PARITY_GRAPHS = ("cycle:8", "petersen", "random-24-3", "rook:6", "random-28-4")
INTEGER_TIMES = range(13)
HALF_TIMES = (0.5, 1.5, 2.5, 7.5, 12.5)


def vectors(arcs):
    """A start state, a real Gaussian vector and a complex one with a
    nonzero imaginary part."""
    rng = np.random.default_rng(7)
    m = arcs.num_arcs
    return [
        initial_state(arcs, 0).amplitudes,
        rng.standard_normal(m),
        rng.standard_normal(m) + 1j * rng.standard_normal(m),
    ]


def start_block(arcs):
    return np.eye(arcs.n)[arcs.tails] / np.sqrt(arcs.k)


@pytest.mark.parametrize("name", PARITY_GRAPHS)
def test_evolve_operator_matches_stepping_at_integer_times(name):
    dec, arcs, ws = inputs(name)
    for x in vectors(arcs) + [start_block(arcs)]:
        stepped = np.asarray(x, dtype=complex)
        for t in INTEGER_TIMES:
            assert_allclose(evolve_operator(ws, x, t), stepped, rtol=0, atol=1e-12)
            stepped = apply_walk(arcs, stepped)


def by_projections(dec, arcs, x, t):
    """U^t x from the projections applied without being formed, column by
    column (that path takes one vector)."""
    x = np.asarray(x)
    if x.ndim == 2:
        return np.stack([by_projections(dec, arcs, col, t) for col in x.T], axis=1)
    return evolve_by_projections(dec, arcs, x, t)


@pytest.mark.parametrize("name", PARITY_GRAPHS)
def test_evolve_operator_matches_the_unformed_projections_at_half_times(name):
    dec, arcs, ws = inputs(name)
    for x in vectors(arcs) + [start_block(arcs)]:
        for t in HALF_TIMES:
            assert_allclose(
                evolve_operator(ws, x, t), by_projections(dec, arcs, x, t), rtol=0, atol=1e-12
            )


def test_complex_states_use_both_parts():
    """A state with an imaginary part goes through as two real parts; the
    result is linear in the state."""
    dec, arcs, ws = inputs("petersen")
    rng = np.random.default_rng(1)
    re, im = rng.standard_normal((2, arcs.num_arcs))
    for t in (3, 2.5):
        whole = evolve_operator(ws, re + 1j * im, t)
        parts = evolve_operator(ws, re, t) + 1j * evolve_operator(ws, im, t)
        assert_allclose(whole, parts, rtol=0, atol=1e-14)
        x = State((re + 1j * im) / np.linalg.norm(re + 1j * im))
        assert_allclose(evolve(ws, x, t).amplitudes, whole / np.linalg.norm(re + 1j * im),
                        rtol=0, atol=1e-14)


def test_projection_route_takes_complex_vectors_by_parts():
    """evolve_by_projections on a complex vector matches evolve_operator
    (it read only the real part, 0.283 off on petersen's i x_0 at t = 2.5),
    and a real vector, or one with a zero imaginary part, gives the bits of
    the real route."""
    dec, arcs, ws = inputs("petersen")
    rng = np.random.default_rng(5)
    x0 = initial_state(arcs, 0).amplitudes
    for x in (1j * x0, rng.standard_normal(arcs.num_arcs) + 1j * rng.standard_normal(arcs.num_arcs)):
        for t in (3, 2.5, 0.3):
            assert_allclose(evolve_by_projections(dec, arcs, x, t), evolve_operator(ws, x, t),
                            rtol=0, atol=1e-12)
    real = rng.standard_normal(arcs.num_arcs)
    for t in (3, 2.5):
        once = evolve_by_projections(dec, arcs, real, t)
        assert np.array_equal(evolve_by_projections(dec, arcs, real + 0j, t), once)
        assert np.array_equal(evolve_by_projections(dec, arcs, list(real), t), once)


def test_closed_form_check_holds_under_four_block_arrays():
    """check_closed_form builds each component p and its drift in place in
    two reused complex m x c arrays; on rook:6, all 36 start columns, it
    peaks under 3.5 such arrays (5.7 when it made them afresh)."""
    g = resolve_builtin("rook:6")
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    columns = np.arange(g.n)
    check_closed_form(dec, arcs, columns)  # first calls allocate caches
    tracemalloc.start()
    try:
        residuals = check_closed_form(dec, arcs, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(residuals.values()) <= 1e-12
    assert peak < 3.5 * 16 * arcs.num_arcs * g.n


SLICED_SCANS = [
    ([2 * np.pi / 3], [0], "integer", 50_000, 1000),
    ([2 * np.pi / 3], [1], "integer", 50_000, 1000),
    ([2.0], [0], "integer", 50_000, 1000),
    ([np.pi / 2], [0], "real", 50_000, 1000),
    ([1.0, np.sqrt(2)], [0, 1], "real", 100, 50),
    ([2 * np.pi / 5, 4 * np.pi / 5], [0, 0], "integer", 100, 50),
    ([2 * np.pi / 5, 4 * np.pi / 5], [1, 1], "integer", 100, 50),
]


@pytest.mark.parametrize("angles, sigmas, mode, bound, rows", SLICED_SCANS)
def test_relation_scan_screens_a_long_coordinate_in_slices(angles, sigmas, mode, bound, rows,
                                                           monkeypatch):
    """A single coordinate's span longer than SCAN_ROWS is located in
    batches of heads: the verdict, bound, relations and violating vector are
    those of the scan at the default SCAN_ROWS, and a one-angle scan peaks
    far below one array of the whole span."""
    whole = mixing._relation_scan(angles, sigmas, mode, bound=bound)
    monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
    tracemalloc.start()
    try:
        sliced = mixing._relation_scan(angles, sigmas, mode, bound=bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (sliced.status, sliced.bound, sliced.requested_bound) == (
        whole.status, whole.bound, whole.requested_bound)
    assert sliced.relations.tolist() == whole.relations.tolist()
    assert sliced.violating == whole.violating
    if len(angles) == 1:
        assert peak < 8 * (2 * bound + 1) / 8  # an eighth of one float array of the span


def test_single_angle_scan_at_the_enumeration_cap_stays_small():
    """One angle at bound 10**7 (cut to 5,000,000) used to screen all 10^7
    sums at once (565 MB RSS); in batches of heads it holds far less than
    six int64 arrays of SCAN_ROWS."""
    tracemalloc.start()
    try:
        verdict = mixing._relation_scan([2.0], [0], "integer", bound=10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (verdict.status, verdict.bound, verdict.relations.tolist()) == (
        "inconclusive", 5_000_000, [])
    assert peak < 6 * 8 * mixing.SCAN_ROWS


@pytest.mark.parametrize("name", ("petersen", "rook:4", "cycle:8", "random-20-4"))
def test_direct_cospectrality_matches_the_loop_over_both_halves(name):
    """Targets: U^t x_a (cospectral), x_b (mostly not), and U^t x_a turned by
    a global phase, which the walk-level route accepts."""
    dec, arcs, ws = inputs(name)
    for a, b in ((0, 1), (2, 5)):
        x = initial_state(arcs, a)
        turned = State(np.exp(0.7j) * evolve(ws, x, 3).amplitudes)
        for y in (evolve(ws, x, 3), evolve(ws, x, 4.5), initial_state(arcs, b), turned):
            got = check_strong_cospectrality_direct(ws, x, y)
            want = direct_cospectrality_loop(walk_projections(ws), x, y)
            assert isinstance(got, str) == isinstance(want, str), (a, b)
            if not isinstance(got, str):
                assert got.phases.keys() == want[0].keys()
                for label, phase in want[0].items():
                    assert (got.phases[label] is None) == (phase is None), label
                    if phase is not None:
                        assert abs(np.exp(1j * got.phases[label]) - np.exp(1j * phase)) < 1e-12
                assert abs(got.max_residual - want[1]) < 1e-12


def entry_parts_loop(dec, starts, t, scale=None):
    """Reference for ``entry_parts``: the class sums one class at a time."""
    scale = np.ones(dec.num_classes) if scale is None else scale
    head = np.zeros((dec.n,) + np.shape(starts), dtype=complex)
    tail = head.copy()
    if dec.has_minus_k:
        tail += walk._minus_one_power(t) * scale[-1] * dec.idempotents[-1][:, starts]
    for r in range(dec.num_classes - dec.has_minus_k):
        theta = dec.angles[r]
        head_weight, tail_weight = (
            (0.0, 0.5) if theta == 0.0 else
            (1.0 / (2j * np.sin(theta)), -np.exp(-1j * theta) / (2j * np.sin(theta)))
        )
        phase = 2.0 * scale[r] * np.exp(1j * t * theta)
        column = dec.idempotents[r][:, starts]
        head += (phase * head_weight).real * column
        tail += (phase * tail_weight).real * column
    return tail, head


@pytest.mark.parametrize("name", ("k4", "rook:4", "hadamard-srg:2", "cycle:8", "random-20-4"))
def test_entry_parts_matches_the_loop_over_classes(name):
    dec, _, _ = inputs(name)
    for starts in (0, np.array([dec.n - 1]), np.arange(dec.n), slice(None)):
        for t in (0, 1, 7, 2.5, 663, 106389.06):
            for scale in (None, dec.eigenvalues):
                every = isinstance(starts, slice)
                want = entry_parts_loop(dec, np.arange(dec.n) if every else starts, t, scale)
                got = walk.entry_parts(dec, starts, t, scale)
                for g, w in zip(got, want):
                    assert_allclose(g, w, rtol=0, atol=1e-12 * max(1.0, abs(t)))


@pytest.mark.parametrize("name", ("rook:4", "cycle:8", "hadamard-srg:8"))
def test_entry_parts_reads_every_start_in_order_as_the_slice(name):
    """An explicit array of all n starts in order gives the bits of
    slice(None), and on hadamard-srg:8 its peak allocation stays below one
    (d, n, n) copy of the idempotent rows, which a gather would make."""
    dec = eigendecompose_symmetric(resolve_builtin(name))
    every = np.arange(dec.n)
    for t in (0, 7, 2.5, 663):
        for scale in (None, dec.eigenvalues):
            for got, want in zip(walk.entry_parts(dec, every, t, scale),
                                 walk.entry_parts(dec, slice(None), t, scale)):
                assert np.array_equal(got, want), (t, scale is None)
    if name == "hadamard-srg:8":
        live = dec.num_classes - dec.has_minus_k
        copy = live * dec.n * dec.n * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            walk.entry_parts(dec, every, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < copy
