import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from arcwalk import (
    State,
    arc_distribution,
    build_arc_space,
    eigendecompose_symmetric,
    entry_formula,
    evolve,
    evolve_operator,
    flat_arc_state,
    flatness_deficit,
    from_edge_list,
    imaginary_flatness_deficit,
    initial_state,
    realness_deficit,
    spectra,
    state_to_json,
    walk,
    walk_spectrum,
    walk_spectrum_residuals,
)
from arcwalk.cli import resolve_builtin
from arcwalk.spectra import decomposition_residuals

from conftest import (
    ALL_GRAPHS,
    NON_BIPARTITE,
    dense_incidence,
    get_bundle,
    sign_projections,
)
from test_closed_form import DENSE_TIMES
from test_conjugate_storage import random_regular


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_arc_space_shapes_and_identities(name):
    b = get_bundle(name)
    g, arcs = b.graph, b.arcs
    m = g.n * g.degree
    assert arcs.num_arcs == m
    assert list(arcs.arcs) == sorted(arcs.arcs)  # lexicographic order
    T, H, R = dense_incidence(arcs)
    k = g.degree
    assert np.array_equal(T @ T.T, k * np.eye(g.n, dtype=int))
    assert np.array_equal(H @ H.T, k * np.eye(g.n, dtype=int))
    assert np.array_equal(T @ H.T, g.adjacency)
    assert np.array_equal(R @ R, np.eye(m, dtype=int))
    assert np.array_equal(R @ T.T, H.T)


def test_arc_index_lookup():
    arcs = get_bundle("k4").arcs
    for i, (u, v) in enumerate(arcs.arcs):
        assert arcs.arc_index(u, v) == i
    with pytest.raises(KeyError):
        arcs.arc_index(0, 0)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_transition_matrix_is_orthogonal(name):
    b = get_bundle(name)
    m = b.arcs.num_arcs
    assert np.abs(b.U @ b.U.T - np.eye(m)).max() < 1e-10


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_walk_projection_suite(name):
    b = get_bundle(name)
    res = walk_spectrum_residuals(b.dec, b.arcs, b.ws)
    assert list(res) == ["gram", "eigen", "correspondence", "sign", "unitarity"]
    for key, val in res.items():
        assert val < 1e-9, (key, val)
    assert res["unitarity"] == walk.coin_unitarity(b.arcs.k)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_builders_keep_the_residuals_they_verified(name):
    b = get_bundle(name)
    assert b.dec.residuals == decomposition_residuals(b.dec, b.graph.adjacency.astype(float))
    assert b.ws.residuals == walk_spectrum_residuals(b.dec, b.arcs, b.ws)


def test_a_projection_off_its_eigenspace_fails_the_suite(monkeypatch):
    """Lifting petersen's eigenvectors with angles 1e-6 off their classes
    gives columns W whose W W^H are Hermitian, but U W = W diag(e^{i theta})
    fails: the verified build raises with the certificate's residuals. A
    NaN in the eigenvectors fails the build too, since no NaN residual is
    at most TAU_WALK."""
    b = get_bundle("petersen")
    angle_columns = walk._angle_columns

    def shifted(dec):
        V, theta, classes = angle_columns(dec)
        return V, theta + 1e-6, classes

    monkeypatch.setattr(walk, "_angle_columns", shifted)
    with pytest.raises(walk.WalkSpectrumError, match="eigen") as info:
        walk_spectrum(b.dec, b.arcs)
    assert info.value.residuals["eigen"] > 1e-7

    def poisoned(dec):
        V, theta, classes = angle_columns(dec)
        V = V.copy()
        V[0, 0] = np.nan
        return V, theta, classes

    monkeypatch.setattr(walk, "_angle_columns", poisoned)
    with pytest.raises(walk.WalkSpectrumError, match="gram=nan") as info:
        walk_spectrum(b.dec, b.arcs)
    assert np.isnan(info.value.residuals["sign"])


def test_projection_ranks_on_k4():
    # traces of the +-1 projections count lifted classes plus the
    # incidence-kernel components, computed here by an SVD rank oracle
    b = get_bundle("k4")
    m = b.arcs.num_arcs
    T, _, R = (M.astype(float) for M in dense_incidence(b.arcs))
    dim_anti = m - np.linalg.matrix_rank(np.vstack([np.eye(m) + R, T]))
    dim_sym = m - np.linalg.matrix_rank(np.vstack([np.eye(m) - R, T]))
    plus1, minus1 = sign_projections(b.ws)
    assert round(np.trace(plus1).real) == 1 + dim_anti
    assert round(np.trace(minus1).real) == 0 + dim_sym
    assert b.ws.column_classes.tolist() == [1, 1, 1]
    assert_allclose(b.ws.column_thetas, np.arccos(-1 / 3), atol=1e-12)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_evolve_is_one_column_of_evolve_operator(name):
    b = get_bundle(name)
    starts = [initial_state(b.arcs, a) for a in range(b.graph.n)]
    block = np.stack([x.amplitudes for x in starts], axis=1)
    for t in DENSE_TIMES:
        whole = evolve_operator(b.ws, block, t)
        for a, x in enumerate(starts):
            state = evolve(b.ws, x, t).amplitudes
            column = evolve_operator(b.ws, x.amplitudes[:, None], t)[:, 0]
            assert np.array_equal(state, column), (t, a)
            # a matrix-matrix product may sum in another order than a
            # matrix-vector product, so the wide block agrees to rounding
            assert_allclose(state, whole[:, a], rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["k4", "c4", "petersen"])
@pytest.mark.parametrize("t", [0, 1, 2, 3, 7])
def test_evolve_matches_matrix_power_oracle(name, t):
    b = get_bundle(name)
    x = initial_state(b.arcs, 0)
    direct = np.linalg.matrix_power(b.U, t) @ x.amplitudes
    assert_allclose(evolve(b.ws, x, t).amplitudes, direct, atol=1e-10)


def test_cycle4_u8_matches_matrix_power():
    b = get_bundle("c4")
    power = np.linalg.matrix_power(b.U, 8)
    via_phases = evolve_operator(b.ws, np.eye(b.arcs.num_arcs), 8)
    assert_allclose(via_phases, power, atol=1e-10)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_entry_formula_agrees_with_evolve(name):
    b = get_bundle(name)
    x = initial_state(b.arcs, 1)
    worst = 0.0
    for t in [0, 1, 2, 3, 4, 5, 6, 0.5, 4.7]:
        via_walk = evolve(b.ws, x, t).amplitudes
        closed = entry_formula(b.dec, b.arcs, 1, t).amplitudes
        worst = max(worst, float(np.abs(via_walk - closed).max()))
    assert worst < 1e-8


def test_entry_formula_at_time_zero_recovers_start():
    for name in ALL_GRAPHS:
        b = get_bundle(name)
        x = initial_state(b.arcs, 0)
        assert_allclose(
            entry_formula(b.dec, b.arcs, 0, 0).amplitudes, x.amplitudes, atol=1e-12
        )


@pytest.mark.parametrize("name", NON_BIPARTITE)
def test_states_stay_real_on_non_bipartite_graphs(name):
    b = get_bundle(name)
    x = initial_state(b.arcs, 0)
    for t in [0.3, 1, 4.7, 12]:
        assert realness_deficit(evolve(b.ws, x, t)) < 1e-10


def test_bipartite_integer_times_stay_real():
    b = get_bundle("c4")
    x = initial_state(b.arcs, 0)
    for t in range(9):
        assert realness_deficit(evolve(b.ws, x, t)) < 1e-12


def test_bipartite_imaginary_profile():
    b = get_bundle("c4")
    g, arcs = b.graph, b.arcs
    x = initial_state(arcs, 0)
    expected_mod = 1 / (4 * np.sqrt(2))
    xt = evolve(b.ws, x, 0.5)
    assert_allclose(np.abs(xt.amplitudes.imag), expected_mod, atol=1e-10)
    assert imaginary_flatness_deficit(g, arcs, xt, 0, 0.5) < 1e-10
    # sign of the imaginary part follows the tail color relative to the start
    chi = g.color_class
    for i, (u, _) in enumerate(arcs.arcs):
        assert np.sign(xt.amplitudes.imag[i]) == np.sign(np.sin(np.pi * 0.5)) * chi[u] * chi[0]
    # the profile tracks sin(pi t) at other fractional times too
    for t in [0.25, 1.5, 2.75]:
        xt = evolve(b.ws, x, t)
        assert imaginary_flatness_deficit(g, arcs, xt, 0, t) < 1e-10
    with pytest.raises(ValueError, match="bipartite"):
        imaginary_flatness_deficit(
            get_bundle("k4").graph, get_bundle("k4").arcs, x, 0, 0.5
        )


def test_state_validation_and_freezing():
    with pytest.raises(ValueError, match="norm"):
        State(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="vector"):
        State(np.eye(2))
    s = State(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0
    with pytest.raises(ValueError, match="norm nan"):
        State(np.full(4, np.nan))
    b = get_bundle("petersen")
    with pytest.raises(ValueError, match="t=nan is not finite"):
        entry_formula(b.dec, b.arcs, 0, float("nan"))


def test_initial_state_entries():
    b = get_bundle("petersen")
    x = initial_state(b.arcs, 3)
    k = b.graph.degree
    for i, (u, _) in enumerate(b.arcs.arcs):
        expected = 1 / np.sqrt(k) if u == 3 else 0.0
        assert x.amplitudes[i] == pytest.approx(expected)
    with pytest.raises(ValueError, match="out of range"):
        initial_state(b.arcs, 10)


def test_flat_arc_state_is_flat():
    b = get_bundle("k4")
    w = np.array([-1, 1, 1, 1])
    y = flat_arc_state(b.arcs, w)
    assert flatness_deficit(y) < 1e-15
    assert realness_deficit(y) == 0
    with pytest.raises(ValueError, match="\\+1 or -1"):
        flat_arc_state(b.arcs, np.array([2, 1, 1, 1]))


def test_deficit_functions_on_handmade_states():
    amp = np.zeros(4)
    amp[0] = 1.0
    x = State(amp)
    assert flatness_deficit(x) == pytest.approx(0.5)
    assert realness_deficit(x) == 0.0
    assert_allclose(arc_distribution(x), [1, 0, 0, 0])
    assert arc_distribution(x).sum() == pytest.approx(1.0)


def test_state_json_round_trip():
    b = get_bundle("k4")
    x = evolve(b.ws, initial_state(b.arcs, 0), 1.7)
    data = state_to_json(x)
    assert all(len(pair) == 2 for pair in data)
    back = np.array([complex(re, im) for re, im in json.loads(json.dumps(data))])
    assert_allclose(back, x.amplitudes, atol=0)


def test_arc_space_requires_regular_graph():
    path = from_edge_list([(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError, match="regular"):
        build_arc_space(path)


@settings(deadline=None, max_examples=30)
@given(
    t=st.floats(-20, 20, allow_nan=False, allow_infinity=False),
    s=st.floats(-20, 20, allow_nan=False, allow_infinity=False),
)
def test_evolution_group_property(t, s):
    b = get_bundle("k4")
    x = initial_state(b.arcs, 2)
    one_shot = evolve(b.ws, x, t + s)
    two_step = evolve(b.ws, evolve(b.ws, x, t), s)
    assert abs(np.linalg.norm(one_shot.amplitudes) - 1) < 1e-11
    assert_allclose(two_step.amplitudes, one_shot.amplitudes, atol=1e-10)


def test_spectrum_refusal_comes_before_any_array(monkeypatch):
    """complement:rook:4 (m = 144, n = 16) is refused one byte short of its
    counted size before it allocates anything like W (a 144 x 15 complex
    array); the count has no m^2 term, and the certified build fits in
    0.81 of one real m x m array."""
    g = resolve_builtin("complement:rook:4")
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    m, n, N = arcs.num_arcs, g.n, 15
    counted = 8 * m * (2 * N + walk.WORKSPACE_ARRAYS * n) + 8192
    assert counted < 0.82 * 8 * m * m
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", counted - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the limit"):
            walk_spectrum(dec, arcs)
        _, refused_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refused_peak < 16 * m * N / 8
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", counted)
    assert walk_spectrum(dec, arcs).factors.shape == (m, N)


def test_one_runtime_limit_governs_every_refusal(monkeypatch):
    """With spectra.MAX_SPECTRUM_BYTES at 1 byte, the walk spectrum, the
    closed-form check and the idempotent stack on rook:6 are all refused,
    each with its own message."""
    g = resolve_builtin("rook:6")
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", 1)
    refusals = {
        "walk spectrum on 360 arcs needs": lambda: walk_spectrum(dec, arcs),
        "closed-form check of 4 columns on 360 arcs needs":
            lambda: walk.check_closed_form(dec, arcs, walk.probe_block(g.n)),
        "idempotents of 36 classes on 36 vertices need": lambda: spectra._idempotent_stack(36, 36),
    }
    for message, call in refusals.items():
        with pytest.raises(ValueError, match=rf"^{message} \d+ MiB, over the limit of 0 MiB$"):
            call()


@pytest.mark.parametrize("name", ["cycle:8", "k4", "rook:4", "petersen", "rook:6", "random-28-4"])
def test_spectrum_build_peaks_within_its_counted_size(name, monkeypatch):
    """With the limit set to the size the refusal counts, the certified
    build is admitted and its traced peak stays within it."""
    g = random_regular(28, 4) if name == "random-28-4" else resolve_builtin(name)
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    m, n = arcs.num_arcs, g.n
    # the complex m x N factor array, the real working arrays and 8 KiB
    N = int(dec.multiplicities[1 : dec.num_classes - dec.has_minus_k].sum())
    counted = 16 * m * N + 8 * walk.WORKSPACE_ARRAYS * m * n + 8192
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", counted)
    walk_spectrum(dec, arcs)  # first calls allocate caches
    tracemalloc.start()
    try:
        walk_spectrum(dec, arcs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= counted
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", counted - 1)
    with pytest.raises(ValueError, match="over the limit"):
        walk_spectrum(dec, arcs)
