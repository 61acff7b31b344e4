"""The adjacency-level reads in eigenvector coordinates against their
per-class oracles.

``check_strong_cospectrality`` and ``evolve_by_projections`` take every
eigenvalue class at once from the class blocks V_r of ``dec.vectors``. The
oracles in ``conftest`` decide one class at a time on the dense
idempotents E_r = V_r V_r^T. They are compared on the curated graphs, on
the (20, 4) graph whose class 3 barely touches vertex 16, on the cycles
C_8 and C_12 (projections only: the adjacency route refuses bipartite
graphs) and on random regular graphs with at most 200 arcs.
"""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from numpy.testing import assert_allclose

from arcwalk import (
    NOT_COSPECTRAL,
    State,
    build_arc_space,
    check_strong_cospectrality,
    eigendecompose_symmetric,
    entry_formula,
    evolve_by_projections,
    flat_arc_state,
    from_edge_list,
    hadamard_search,
    initial_state,
)
from arcwalk.cli import resolve_builtin

from conftest import (
    ALL_GRAPHS,
    GRAPH_BUILDERS,
    NON_BIPARTITE,
    RANDOM_20_4_EDGES,
    per_class_cospectrality,
    per_class_evolve_by_projections,
)
from test_arc_index import random_regular_graphs

#: integer and half-integer times up to 40
TIMES = tuple(np.arange(0.0, 40.5, 0.5))


def build(name):
    if name in GRAPH_BUILDERS:
        g = GRAPH_BUILDERS[name]()
    elif name == "random-20-4":
        g = from_edge_list(RANDOM_20_4_EDGES, 20)
    else:
        g = resolve_builtin(name)
    return eigendecompose_symmetric(g), build_arc_space(g)


def cospectrality_targets(dec, arcs, starts, times, certificates, randoms, seed):
    """(a, y) pairs: U^t x_a at the given times, every vertex's start
    state, the flat targets of the certificates and random unit states."""
    rng = np.random.default_rng(seed)
    cases = []
    for a in starts:
        cases.extend((a, entry_formula(dec, arcs, a, t)) for t in times)
        cases.extend((a, initial_state(arcs, b)) for b in range(arcs.n))
        for cert in certificates:
            cases.append((a, flat_arc_state(arcs, cert.matrix[:, a])))
        for _ in range(randoms):
            z = rng.normal(size=arcs.num_arcs) + 1j * rng.normal(size=arcs.num_arcs)
            cases.append((a, State(z / np.linalg.norm(z))))
    return cases


@functools.lru_cache(maxsize=None)
def cases_of(name):
    dec, arcs = build(name)
    starts = sorted({0, 1, dec.n // 2, dec.n - 1} | ({16} if name == "random-20-4" else set()))
    certificates = hadamard_search(dec)
    return dec, arcs, cospectrality_targets(dec, arcs, starts, TIMES, certificates, 8, len(name))


def assert_same_verdict(dec, arcs, a, y):
    """Equal verdicts, sign_e0 and unconstrained classes; deltas within
    1e-9 and residuals within 1e-12. Returns whether the pair is accepted.

    A delta is an arccos, ill-conditioned where |sin delta| is small or
    the class barely touches a, and an error c in delta_r moves the head
    equation by up to c sqrt(k) ||E_r e_a||, the unit of the residuals.
    So where 1e-9 is not met the deltas must agree within 1e-12 in that
    unit (class 3 of vertex 16 on the (20, 4) graph, ||E_3 e_16|| =
    5.8e-7, differs by about 1e-8 in delta and 1e-14 in that unit), and a
    residual may differ by that shift beyond 1e-12 (a class with
    sin delta = 5.8e-6 on a random graph of order 45 differs by 5.7e-11
    in delta, 2.6e-12 in that unit, and 2.3e-12 in its residual)."""
    got = check_strong_cospectrality(dec, arcs, a, y)
    want = per_class_cospectrality(dec, arcs, a, y)
    assert (got == NOT_COSPECTRAL) == (want == NOT_COSPECTRAL), (a, got, want)
    if want == NOT_COSPECTRAL:
        return False
    assert got.sign_e0 == want.sign_e0
    assert list(got.deltas) == list(want.deltas)
    shift = np.zeros(dec.num_classes)
    for r, delta in want.deltas.items():
        assert (got.deltas[r] is None) == (delta is None), r
        if delta is not None:
            error = abs(got.deltas[r] - delta)
            shift[r] = error * np.sqrt(dec.k) * np.linalg.norm(dec.idempotents[r][:, a])
            assert error <= 1e-9 or shift[r] <= 1e-12, (r, got.deltas[r], delta)
    assert list(got.residuals) == list(want.residuals)
    for r, (key, value) in enumerate(want.residuals.items()):
        assert abs(got.residuals[key] - value) <= 1e-12 + shift[r], key
    return True


PARITY_GRAPHS = NON_BIPARTITE + ("random-20-4",)


def test_parity_cases_cover_two_thousand_checks():
    assert sum(len(cases_of(name)[2]) for name in PARITY_GRAPHS) >= 2000


@pytest.mark.parametrize("name", PARITY_GRAPHS)
def test_adjacency_route_matches_the_per_class_oracle(name):
    dec, arcs, cases = cases_of(name)
    accepted = sum(assert_same_verdict(dec, arcs, a, y) for a, y in cases)
    # every evolved state and each start state with itself is accepted
    assert accepted >= len(TIMES) * 4
    assert accepted < len(cases)


def test_class_that_barely_touches_the_start_matches_the_oracle():
    """Vertex 16 of the (20, 4) graph, ||E_3 e_16|| = 5.8e-7: all 40 steps
    of U from x_16 are accepted by both, with the same witness."""
    dec, arcs = build("random-20-4")
    for t in range(1, 41):
        assert assert_same_verdict(dec, arcs, 16, entry_formula(dec, arcs, 16, t)), t


@settings(deadline=None, max_examples=20)
@given(g=random_regular_graphs())
def test_adjacency_route_matches_the_oracle_on_random_regular_graphs(g):
    assume(not g.is_bipartite)
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    # no certificates: the search refuses most of these graphs (over 12
    # classes at an order 4u^2), and the fixed graphs cover flat targets
    cases = cospectrality_targets(dec, arcs, [0, g.n - 1], TIMES[::4], [], 4, g.n)
    for a, y in cases:
        assert_same_verdict(dec, arcs, a, y)


PROJECTION_GRAPHS = ALL_GRAPHS + ("random-20-4", "cycle:8", "cycle:12")


def assert_same_projection_states(dec, arcs, vectors, times):
    for x in vectors:
        for t in times:
            assert_allclose(
                evolve_by_projections(dec, arcs, x, t),
                per_class_evolve_by_projections(dec, arcs, x, t),
                rtol=0, atol=1e-12,
            )


@pytest.mark.parametrize("name", PROJECTION_GRAPHS)
def test_projection_route_matches_the_per_class_oracle(name):
    dec, arcs = build(name)
    rng = np.random.default_rng(7)
    vectors = [initial_state(arcs, a).amplitudes.real for a in (0, dec.n - 1)]
    vectors += [v / np.linalg.norm(v) for v in rng.standard_normal((3, arcs.num_arcs))]
    assert_same_projection_states(dec, arcs, vectors, TIMES + (7.3, 0.25))


@settings(deadline=None, max_examples=20)
@given(g=random_regular_graphs())
def test_projection_route_matches_the_oracle_on_random_regular_graphs(g):
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    x = np.random.default_rng(g.n).standard_normal(arcs.num_arcs)
    vectors = [initial_state(arcs, 0).amplitudes.real, x / np.linalg.norm(x)]
    assert_same_projection_states(dec, arcs, vectors, TIMES[::4] + (2.25,))
