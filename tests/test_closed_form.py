"""The closed form of the mixing path against slow paths.

``entry_block`` gives U^t on the vertex start states from the adjacency
idempotents alone. It is compared with the dense walk projections
(``evolve`` and ``evolve_operator``) at integer and half-integer t and
with U stepped by ``apply_walk`` at integer t, on the curated graphs, on
the bipartite cycles C_8 and C_12 and on random regular graphs with at
most 200 arcs. Mutated closed forms must fail ``check_closed_form``, on
every start column and on the random probe columns alike.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from numpy.testing import assert_allclose

from arcwalk import (
    WalkSpectrumError,
    build_arc_space,
    eigendecompose_symmetric,
    evolve,
    evolve_by_projections,
    evolve_operator,
    hadamard_search,
    initial_state,
    local_mixing_report,
    mixing,
    probe_block,
    simultaneous_mixing_check,
    spectra,
    walk,
    walk_spectrum,
)
from arcwalk.cli import resolve_builtin
from arcwalk.walk import apply_walk, check_closed_form, entry_block

from conftest import ALL_GRAPHS, GRAPH_BUILDERS, NON_BIPARTITE, get_bundle
from test_arc_index import random_regular_graphs

ATOL = 1e-10
DENSE_TIMES = (0, 1, 2, 7, 40, 0.5, 3.5, 12.5)
MAX_STEPS = 40


def start_block(arcs):
    return np.eye(arcs.n)[arcs.tails] / np.sqrt(arcs.k)


def check_against_oracles(dec, arcs, ws):
    everyone = np.arange(arcs.n)
    residuals = check_closed_form(dec, arcs, everyone)
    assert max(residuals.values()) <= 1e-12
    X = start_block(arcs)
    vertices = sorted({0, arcs.n // 2, arcs.n - 1})
    for t in DENSE_TIMES:
        got = entry_block(dec, arcs, everyone, t)
        assert_allclose(got, evolve_operator(ws, X, t), atol=ATOL)
        for a in vertices:
            assert_allclose(got[:, a], evolve(ws, initial_state(arcs, a), t).amplitudes, atol=ATOL)
            assert_allclose(entry_block(dec, arcs, [a], t), got[:, [a]], atol=1e-14)
    stepped = X
    for t in range(MAX_STEPS + 1):
        assert_allclose(entry_block(dec, arcs, everyone, t), stepped, atol=ATOL)
        stepped = apply_walk(arcs, stepped)


@pytest.mark.parametrize("name", NON_BIPARTITE)
def test_closed_form_matches_dense_walk_and_stepping(name):
    b = get_bundle(name)
    check_against_oracles(b.dec, b.arcs, b.ws)


@settings(deadline=None, max_examples=25)
@given(g=random_regular_graphs())
def test_closed_form_on_random_regular_graphs(g):
    assume(not g.is_bipartite)
    dec = eigendecompose_symmetric(g)
    arcs = build_arc_space(g)
    check_against_oracles(dec, arcs, walk_spectrum(dec, arcs))


CLASS_WEIGHTS = walk._class_weights


def flipped_weights(theta):
    """The class weights with e^{+i theta} where the closed form has e^{-i theta}."""
    head, tail = CLASS_WEIGHTS(theta)
    return head, np.exp(2j * theta) * tail


def without_class(dec, r):
    idempotents = list(dec.idempotents)
    idempotents[r] = np.zeros_like(idempotents[r])
    return dataclasses.replace(dec, idempotents=tuple(idempotents))


@pytest.mark.parametrize("name", NON_BIPARTITE)
def test_component_check_catches_a_flipped_phase(name, monkeypatch):
    b = get_bundle(name)
    monkeypatch.setattr(walk, "_class_weights", flipped_weights)
    with pytest.raises(WalkSpectrumError) as info:
        check_closed_form(b.dec, b.arcs, np.arange(b.arcs.n))
    assert info.value.residuals["eigen"] > 1e-3


@pytest.mark.parametrize("name", NON_BIPARTITE)
def test_component_check_catches_a_dropped_fixed_part(name):
    b = get_bundle(name)
    with pytest.raises(WalkSpectrumError) as info:
        check_closed_form(without_class(b.dec, 0), b.arcs, np.arange(b.arcs.n))
    assert info.value.residuals["start"] > 1e-3


def test_component_check_catches_a_dropped_class():
    b = get_bundle("rook4")
    with pytest.raises(WalkSpectrumError, match="start"):
        check_closed_form(without_class(b.dec, 2), b.arcs, [0])


FLAT_GRAPHS = ("k4", "rook:4", "hadamard-srg:2", "complement:rook:4", "hadamard-srg:4")


def arc_distance(dec, arcs, H, starts, t):
    """gamma and || U^t X - gamma Y ||_F with both blocks on the arcs."""
    state = entry_block(dec, arcs, starts, t)
    target = H[:, starts][arcs.tails] / np.sqrt(dec.n * arcs.k)
    inner = complex(np.vdot(target, state))
    gamma = inner / abs(inner) if abs(inner) > 0 else complex(1.0)
    return gamma, float(np.linalg.norm(state - gamma * target))


@pytest.mark.parametrize("name", FLAT_GRAPHS)
def test_vertex_form_distance_matches_the_arc_form(name):
    """The n x n distance of the mix path against the arc arrays, from every
    vertex and from all vertices at once, for every certificate, within
    1e-12 absolute or relative (the simultaneous distance reaches 10.6)."""
    g = resolve_builtin(name)
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    blocks = [np.array([a]) for a in range(g.n)] + [np.arange(g.n)]
    for cert in hadamard_search(dec):
        for t in (0, 1, 7, 2.5, 663):
            for starts in blocks:
                want = arc_distance(dec, arcs, cert.matrix, starts, t)
                got = mixing._distance_to_target(dec, cert.matrix, starts, t)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "name, mode, horizon",
    [("hadamard-srg:2", "integer", {}), ("complement:rook:4", "real", {"t_max": 1.2e5})],
)
def test_vertex_form_distance_holds_near_a_hit(name, mode, horizon):
    """Near a hit the n x n square is a sum of O(1) terms that cancel, so
    its rounding could swamp a small distance. At the time search's success
    for epsilon 1e-4 (t = 32471 and t = 106389.06), where the head part b of
    U^t x_a does not vanish, it agrees with the arc form within 1e-12 from
    every vertex and from all at once."""
    g = resolve_builtin(name)
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    cert = hadamard_search(dec)[0]
    search = mixing.time_search(dec.angles[1:], cert.pattern.sigmas, 1e-4, mode, **horizon)
    assert search.success
    t = search.t
    blocks = [np.array([a]) for a in range(g.n)] + [np.arange(g.n)]
    for starts in blocks:
        head = walk.entry_parts(dec, starts, t)[1]
        assert np.abs(head).max() > 1e-6
        want_gamma, want = arc_distance(dec, arcs, cert.matrix, starts, t)
        gamma, got = mixing._distance_to_target(dec, cert.matrix, starts, t)
        assert want < 1e-3 * np.sqrt(len(starts))
        assert abs(gamma - want_gamma) < 1e-12 and abs(got - want) < 1e-12


@pytest.mark.parametrize("name", FLAT_GRAPHS[:4])
def test_simultaneous_check_catches_a_flipped_weight(name, monkeypatch):
    g = resolve_builtin(name)
    monkeypatch.setattr(walk, "_class_weights", flipped_weights)
    with pytest.raises(WalkSpectrumError, match="eigen"):
        simultaneous_mixing_check(g, 0.1, "integer")


def test_simultaneous_run_holds_no_arc_block():
    """A simultaneous run checks its closed form on the arc types (on the
    dense route, on four probe columns) and measures its distance with no
    arc array, so it peaks below a quarter of the m x n start block."""
    g = resolve_builtin("hadamard-srg:8")
    full_block = g.n * g.degree * g.n * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        report = simultaneous_mixing_check(g, 0.01, "integer")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.verdict, report.t) == ("success", 871.0)
    assert report.residual / np.sqrt(g.n) == pytest.approx(0.00968, abs=1e-5)
    assert peak < full_block / 4


def test_oversized_block_is_refused_before_allocating(monkeypatch):
    """With MAX_SPECTRUM_BYTES one byte short of four complex m x 256
    arrays, all 256 start columns of hadamard-srg:8 are refused before
    any of them is allocated."""
    g = resolve_builtin("hadamard-srg:8")
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    one_array = 16 * arcs.num_arcs * g.n
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", 4 * one_array - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the limit"):
            check_closed_form(dec, arcs, np.arange(g.n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_array / 100


def test_a_block_at_the_limit_is_accepted_and_stays_within_it(monkeypatch):
    """With MAX_SPECTRUM_BYTES at exactly four complex m x 64 arrays, all 64
    start columns of hadamard-srg:4 are checked, and the traced peak of the
    check stays under that limit; one byte less refuses them."""
    g = resolve_builtin("hadamard-srg:4")
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    limit = 4 * 16 * arcs.num_arcs * g.n
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", limit)
    tracemalloc.start()
    try:
        residuals = check_closed_form(dec, arcs, np.arange(g.n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(residuals.values()) <= walk.TAU_WALK
    assert peak <= limit
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", limit - 1)
    with pytest.raises(ValueError, match="over the limit"):
        check_closed_form(dec, arcs, np.arange(g.n))


def test_closed_form_input_checks():
    k4 = get_bundle("k4")
    with pytest.raises(ValueError, match="3 rows, expected 4"):
        check_closed_form(k4.dec, k4.arcs, np.ones((3, 2)))
    with pytest.raises(ValueError, match="out of range"):
        walk.entry_formula(k4.dec, k4.arcs, 4, 1.0)
    petersen = get_bundle("petersen")
    for vertex in (10, -1):
        with pytest.raises(ValueError, match=rf"vertex {vertex} out of range \[0, 10\)"):
            check_closed_form(petersen.dec, petersen.arcs, [0, vertex])


def test_entry_block_refuses_out_of_range_starts():
    """-1 and n, alone or inside an array of starts, are refused by
    entry_block itself (on petersen, -1 used to wrap to vertex 9)."""
    petersen = get_bundle("petersen")
    for starts in (-1, 10, np.array([0, -1]), np.array([3, 10, 4]), [2, -1]):
        bad = np.asarray(starts)
        first = bad[(bad < 0) | (bad >= 10)][0]
        with pytest.raises(ValueError, match=rf"vertex {first} out of range \[0, 10\)"):
            entry_block(petersen.dec, petersen.arcs, starts, 2.0)
    assert entry_block(petersen.dec, petersen.arcs, np.array([0, 9]), 2.0).shape == (30, 2)


@functools.lru_cache(maxsize=None)
def walk_inputs(name):
    """dec, arcs and the dense walk spectrum of a curated graph or of a
    longer cycle (both bipartite)."""
    if name in GRAPH_BUILDERS:
        b = get_bundle(name)
        return b.dec, b.arcs, b.ws
    g = resolve_builtin(name)
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    return dec, arcs, walk_spectrum(dec, arcs)


BIPARTITE = ("c4", "cycle:8", "cycle:12")
WALK_GRAPHS = ALL_GRAPHS + BIPARTITE[1:]


@pytest.mark.parametrize("name", BIPARTITE)
def test_closed_form_matches_dense_walk_on_bipartite_graphs(name):
    check_against_oracles(*walk_inputs(name))


def defects(dec, arcs, columns):
    """The closed-form defects, and whether they passed."""
    try:
        return check_closed_form(dec, arcs, columns), True
    except WalkSpectrumError as exc:
        return exc.residuals, False


@pytest.mark.parametrize("name", WALK_GRAPHS)
def test_probe_check_agrees_with_all_columns(name):
    dec, arcs, _ = walk_inputs(name)
    everyone = np.arange(arcs.n)
    columns = check_closed_form(dec, arcs, everyone)
    assert max(check_closed_form(dec, arcs, probe_block(arcs.n)).values()) <= 1e-12
    assert max(columns.values()) <= 1e-12
    # a list of start vertices stands for their one-hot columns
    assert check_closed_form(dec, arcs, np.eye(arcs.n)) == columns


def flipped(monkeypatch):
    monkeypatch.setattr(walk, "_class_weights", flipped_weights)


MUTATIONS = {
    "flipped phase": lambda dec, monkeypatch: flipped(monkeypatch) or dec,
    "dropped class": lambda dec, monkeypatch: without_class(dec, 1),
    "dropped -1 class": lambda dec, monkeypatch: without_class(dec, dec.num_classes - 1),
}
MUTATED = [(mutation, name) for mutation in MUTATIONS for name in WALK_GRAPHS
           if mutation != "dropped -1 class" or name in BIPARTITE]


@pytest.mark.parametrize("mutation, name", MUTATED)
def test_probe_check_fails_where_all_columns_fail(mutation, name, monkeypatch):
    """A probe is a unit combination of start columns, so each probe defect
    is at most sqrt(PROBES) times its all-columns (Frobenius) defect."""
    dec, arcs, _ = walk_inputs(name)
    dec = MUTATIONS[mutation](dec, monkeypatch)
    columns, columns_pass = defects(dec, arcs, np.arange(arcs.n))
    probes, probes_pass = defects(dec, arcs, probe_block(arcs.n))
    assert not columns_pass and not probes_pass
    assert max(probes.values()) > 1e-3
    for key, value in probes.items():
        assert value <= np.sqrt(walk.PROBES) * columns[key] * (1 + 1e-9) + 1e-15, key


@pytest.mark.parametrize("name", WALK_GRAPHS)
def test_projections_applied_to_a_vector_match_the_dense_ones(name):
    dec, arcs, ws = walk_inputs(name)
    rng = np.random.default_rng(3)
    vectors = [initial_state(arcs, 0).amplitudes.real, rng.standard_normal(arcs.num_arcs)]
    for x in vectors:
        for t in DENSE_TIMES:
            assert_allclose(
                evolve_by_projections(dec, arcs, x, t), evolve_operator(ws, x, t),
                rtol=0, atol=1e-12,
            )
