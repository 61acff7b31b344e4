"""The integral LLL of ``arcwalk.lattice`` and the phase condition it
decides: exact checks of the reduction, and the lattice route of
``phase_condition_check`` against the meet-in-the-middle scan as oracle."""

import itertools
import logging
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcwalk import mixing
from arcwalk.cli import main, resolve_builtin
from arcwalk.lattice import gap_rank, lll
from arcwalk.mixing import HOLDS, VIOLATED, family_parity_check, phase_condition_check
from arcwalk.spectra import eigendecompose_symmetric


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in matrix]
    n, sign, previous = len(a), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if n else 1


def gram(rows):
    return [[sum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]


def adjugate(square):
    """(adj, det) of a square invertible integer matrix S, S adj = det I,
    by Gauss-Jordan elimination in Fractions."""
    n = len(square)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(square)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if a[i][k])
        a[k], a[pivot] = a[pivot], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    det = bareiss_det(square)
    return [[int(x * det) for x in row[n:]] for row in a], det


def span_coefficients(rows, vectors):
    """The integers c with c R = v for each v of ``vectors``, as an (m, k)
    array, R the independent integer ``rows``; None when some v is outside
    their integer span. Exact: int64 where no product can overflow, Python
    ints otherwise."""
    R = [list(map(int, row)) for row in rows]
    V = [list(map(int, v)) for v in vectors]
    k = len(R)
    if not k:
        return None if any(map(any, V)) else np.zeros((len(V), 0), dtype=np.int64)
    columns = []  # k independent columns of R
    for j in range(len(R[0])):
        trial = [[row[i] for row in R] for i in columns + [j]]
        if bareiss_det(gram(trial)):
            columns.append(j)
    assert len(columns) == k
    adj, det = adjugate([[row[j] for j in columns] for row in R])
    top = max((abs(x) for v in V for x in v), default=0)
    wide = top * k * max(abs(x) for row in adj for x in row) >= 2**62
    dtype = object if wide or max(abs(x) for row in R for x in row) >= 2**31 else np.int64
    picked = np.array([[v[j] for j in columns] for v in V], dtype=dtype).reshape(len(V), k)
    num = picked @ np.array(adj, dtype=dtype)
    if (num % det != 0).any():
        return None
    c = num // det
    if wide or (np.abs(c).max(initial=0) * k * max(abs(x) for row in R for x in row)) >= 2**62:
        c = c.astype(object)
    combined = c @ np.array(R, dtype=c.dtype)
    return c if (combined == np.array(V, dtype=c.dtype).reshape(combined.shape)).all() else None


integer_rows = st.integers(1, 6).flatmap(
    lambda n: st.integers(n, n + 2).flatmap(
        lambda dim: st.lists(
            st.lists(st.integers(-60, 60), min_size=dim, max_size=dim), min_size=n, max_size=n
        ).map(lambda rows: [row[:-1] + [row[-1] * 10**6 + row[0]] for row in rows])
    )
)


@settings(max_examples=150, deadline=None)
@given(integer_rows)
def test_lll_reduces_to_a_basis_of_the_same_lattice(rows):
    """The reduced rows span the same lattice by an integer transform of
    determinant +-1, are size-reduced and meet the Lovasz condition in
    Fractions, and D_j is the Gram determinant of the first j rows."""
    assume(bareiss_det(gram(rows)) != 0)
    basis, D = lll(rows)
    n = len(rows)
    assert len(basis) == n and D[0] == 1 and len(D) == n + 1
    for j in range(1, n + 1):
        assert D[j] == bareiss_det(gram(basis[:j]))
    # same lattice: each set of rows is an integer combination of the other
    forward = span_coefficients(rows, basis)
    assert forward is not None and span_coefficients(basis, rows) is not None
    assert abs(bareiss_det(forward.tolist())) == 1
    # Gram-Schmidt in Fractions
    star, mu = [], [[Fraction(0)] * n for _ in range(n)]
    for i, b in enumerate(basis):
        v = [Fraction(x) for x in b]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(b, star[j])) / sum(y * y for y in star[j])
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
    norms = [sum(x * x for x in v) for v in star]
    for i in range(n):
        assert norms[i] == Fraction(D[i + 1], D[i])
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2)
        if i:
            assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]


def test_lll_refuses_dependent_rows():
    with pytest.raises(ValueError, match="independent"):
        lll([[1, 2, 3], [2, 4, 6]])


def test_gap_rank_reads_the_last_short_gram_schmidt_norm():
    # |b*_j|^2 = 1, 100, 4: every j > k must pass the radius
    D = [1, 1, 100, 400]
    assert gap_rank(D, 10) == 3
    assert gap_rank(D, 3) == 1
    assert gap_rank([1, 1, 100, 40000], 10) == 1
    assert gap_rank([1, 50, 5000], 10) == 0
    assert gap_rank([1], 10) == 0


def cycle_angles(c):
    return 2.0 * np.pi * np.arange(1, (c - 1) // 2 + 1) / c


def full_bound(d):
    """The least bound at most RELATION_BOUND the scan covers whole."""
    return mixing.relation_scan_bound(mixing.RELATION_BOUND, d, mixing.MAX_ENUMERATION)


def assert_box_relations(rows, angles, mode, bound, tau=mixing.TAU_REL):
    """Each row is inside the box and its residual, with its own l_0, is
    within tau."""
    if not len(rows):
        return
    rows = np.asarray(rows, dtype=np.int64)
    d = len(angles)
    assert np.abs(rows[:, :d]).max() <= bound
    resid, l0 = mixing._relation_residuals(rows[:, :d].T.astype(float), np.asarray(angles),
                                           mode == "integer")
    assert (resid <= tau).all()
    if l0 is not None:
        assert l0.tolist() == rows[:, d].tolist()


def assert_matches_the_scan(angles, sigmas, mode, bound):
    """The lattice route and the scan on one input: the same status, rows
    and violating vector that are box relations, an odd violating vector;
    returns the verdict."""
    angles = np.asarray(angles, dtype=float)
    verdict = phase_condition_check(angles, sigmas, mode, bound=bound)
    oracle = mixing._relation_scan(angles, sigmas, mode, bound=bound)
    assert oracle.bound == bound
    assert verdict.status == oracle.status, (angles, sigmas, mode, bound)
    assert verdict.bound == verdict.requested_bound == bound
    assert_box_relations(verdict.relations, angles, mode, bound)
    bits = np.asarray(sigmas, dtype=np.int64)
    d = len(angles)
    assert not (verdict.relations[:, :d] @ bits % 2).any()
    if verdict.violating is not None:
        assert_box_relations([verdict.violating], angles, mode, bound)
        assert sum(x * s for x, s in zip(verdict.violating, bits.tolist())) % 2 == 1
    return verdict


def assert_spans_the_scan(angles, mode, bound):
    """With every sigma even both routes list relations: every relation of
    the scan is in the exact integer span of the lattice route's rows, and
    the route took the lattice (its rows are a basis)."""
    d = len(angles)
    zero = np.zeros(d, dtype=np.int64)
    assert mixing._lattice_relations(tuple(np.asarray(angles, float).tolist()), mode, bound,
                                     mixing.TAU_REL)[0] is not None
    verdict = assert_matches_the_scan(angles, zero, mode, bound)
    oracle = mixing._relation_scan(angles, zero, mode, bound=bound)
    assert verdict.status == HOLDS
    assert span_coefficients(verdict.relations.tolist(), oracle.relations.tolist()) is not None


@pytest.mark.parametrize("mode", ["integer", "real"])
@pytest.mark.parametrize("c", range(3, 18))
def test_lattice_route_matches_the_scan_on_cycle_angles(c, mode):
    """Cycle angles 2 pi j / c, c = 3..17, at the largest bound up to 20
    the scan covers whole: every sign pattern for d <= 4, the zero pattern
    and 16 drawn ones past that."""
    angles = cycle_angles(c)
    d = len(angles)
    bound = full_bound(d)
    assert_spans_the_scan(angles, mode, bound)
    if d <= 4:
        patterns = itertools.product((0, 1), repeat=d)
    else:
        rng = np.random.default_rng(c)
        patterns = [rng.integers(0, 2, d) for _ in range(16)]
    for bits in patterns:
        assert_matches_the_scan(angles, np.array(bits, dtype=np.int64), mode, bound)


INTEGER_BUILTINS = ("k3", "k4", "k5", "k6", "cycle:4", "cycle:6", "petersen", "rook:3",
                    "rook:4", "rook:5", "hadamard-srg:1", "hadamard-srg:2", "hadamard-srg:4")


def integer_spectrum_graphs():
    for name in INTEGER_BUILTINS + tuple(f"complement:{n}" for n in INTEGER_BUILTINS):
        g = resolve_builtin(name)
        if g.degree and g.is_connected:
            dec = eigendecompose_symmetric(g)
            if np.allclose(dec.eigenvalues, np.rint(dec.eigenvalues), atol=1e-9):
                yield name, np.array([float(a) for a in dec.angles[1:]])


@pytest.mark.parametrize("mode", ["integer", "real"])
def test_lattice_route_matches_the_scan_on_integer_spectra(mode):
    """The support angles of every builtin with integer eigenvalues and of
    each connected complement with an edge, under every sign pattern."""
    seen = 0
    for name, angles in integer_spectrum_graphs():
        d = len(angles)
        bound = full_bound(d)
        assert_spans_the_scan(angles, mode, bound)
        for bits in itertools.product((0, 1), repeat=d):
            assert_matches_the_scan(angles, np.array(bits, dtype=np.int64), mode, bound)
        seen += 1
    assert seen >= 20


@pytest.mark.parametrize("family", ["+", "-"])
def test_lattice_route_matches_the_scan_and_the_family_argument(family):
    """The two angles theta and pi - theta of the strongly regular
    Hadamard families, m = 1..64: both routes agree in both modes, and in
    integer mode every sign pattern holds, as family_parity_check proves
    for each member with a connected graph."""
    for m in range(1, 65):
        parity = family_parity_check(m, family)
        theta = math.acos(float(parity.cos_ratio))
        angles = [theta, math.pi - theta]
        for mode in ("integer", "real"):
            if not parity.vacuous:
                assert_spans_the_scan(angles, mode, 20)
            for bits in itertools.product((0, 1), repeat=2):
                verdict = assert_matches_the_scan(angles, np.array(bits), mode, 20)
                if not parity.vacuous:
                    assert parity.holds and verdict.status == HOLDS, (m, family, mode, bits)


def test_lattice_route_matches_the_scan_on_random_angles():
    """Random angles, a third with a planted relation, at tolerances up to
    0.1, where near relations crowd the box and the rows below the gap are
    often many: wherever the certificate holds, both routes agree on four
    sign patterns and the rows span every relation of the scan."""
    rng = np.random.default_rng(7)
    certified = 0
    for case in range(150):
        d = int(rng.integers(1, 6))
        mode = ("integer", "real")[case % 2]
        bound = int(rng.integers(1, {1: 40, 2: 20, 3: 10, 4: 6, 5: 4}[d]))
        tau = (1e-9, 1e-6, 1e-3, 0.02, 0.1)[case % 5]
        angles = rng.uniform(0.05, 3.1, d)
        if case % 3 == 0 and d > 1:
            total = rng.integers(-2, 3, d - 1) @ angles[:-1]
            angles[-1] = (total % (2 * np.pi) if mode == "integer" else abs(total)) or 1.0
        if mixing._lattice_relations(tuple(angles.tolist()), mode, bound, tau)[0] is None:
            continue
        certified += 1
        for bits in [np.zeros(d, int)] + [rng.integers(0, 2, d) for _ in range(3)]:
            verdict = phase_condition_check(angles, bits, mode, bound=bound, tau_rel=tau)
            oracle = mixing._relation_scan(angles, bits, mode, bound=bound, tau_rel=tau)
            assert verdict.status == oracle.status, (case, bits)
            assert_box_relations(verdict.relations, angles, mode, bound, tau)
            if not bits.any():
                rows, want = verdict.relations.tolist(), oracle.relations.tolist()
                assert span_coefficients(rows, want) is not None, case
    assert certified > 90


#: five generic angles: the relation lattice has no gap at bound 20 in
#: integer mode, so the call falls back to the scan
GENERIC_5 = [0.7390851332151607, 1.1141571408719302, 1.8954942670339809, 2.4048255576957728,
             2.9233300718912544]


def test_the_scan_decides_where_the_certificate_falls_short():
    """Where the certificate refuses, phase_condition_check is the scan:
    the same status, bound, relations and violating vector; with every
    sigma even it holds at the requested bound and runs no scan."""
    key = (tuple(GENERIC_5), "integer", 20, mixing.TAU_REL)
    assert mixing._lattice_relations(*key)[0] is None
    for bits in ([1, 0, 0, 0, 0], [0, 1, 1, 0, 1]):
        verdict = phase_condition_check(GENERIC_5, bits, "integer", bound=20)
        oracle = mixing._relation_scan(GENERIC_5, bits, "integer", bound=20)
        assert (verdict.status, verdict.bound, verdict.requested_bound) == (
            oracle.status, oracle.bound, oracle.requested_bound)
        assert verdict.relations.tolist() == oracle.relations.tolist()
        assert verdict.violating == oracle.violating
        assert verdict.bound < 20 or verdict.status == VIOLATED


def refuse_the_scan(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("the relation scan ran")

    monkeypatch.setattr(mixing, "_relation_scan", scan)


def test_even_sigmas_hold_at_any_bound_without_a_scan(monkeypatch):
    refuse_the_scan(monkeypatch)
    verdict = phase_condition_check(GENERIC_5, [0] * 5, "integer", bound=20)
    assert (verdict.status, verdict.bound, verdict.relations.shape) == (HOLDS, 20, (0, 6))
    start = time.perf_counter()
    verdict = phase_condition_check([math.acos(-1 / 3)], [0], "integer", bound=10**18)
    assert time.perf_counter() - start < 0.5
    assert (verdict.status, verdict.bound, verdict.requested_bound) == (HOLDS, 10**18, 10**18)
    assert verdict.relations.tolist() == [] and verdict.violating is None


def test_k4_mix_holds_at_bound_ten_million_without_a_scan(monkeypatch, capsys):
    """k4's one angle, arccos(-1/3), comes within 3.1e-9 of a relation at
    l_1 = 8,616,486: its lattice vector lies inside the gap, but neither it
    nor any multiple inside the box is a relation at tau_rel, so the
    phase condition holds at the requested bound with no scan."""
    refuse_the_scan(monkeypatch)
    assert main(["mix", "--builtin", "k4", "--relation-bound", "10000000"]) == 0
    out = capsys.readouterr().out
    assert "phase condition [integer]: holds up to bound 10000000" in out
    assert "relation scan stopped" not in out


def test_each_call_logs_its_route(caplog):
    """One debug record a call names the route, N, s, k and the least
    |b*_j|^2 / R^2 past k, and on a fallback the reason."""
    caplog.set_level(logging.DEBUG, logger="arcwalk.mixing")
    mixing._lattice_relations.cache_clear()
    phase_condition_check(cycle_angles(9), [0, 0, 0, 0], "integer")
    (line,) = [r.getMessage() for r in caplog.records]
    assert line.startswith("phase condition (integer, d=4, bound 20): N=5, s=")
    assert ", k=4, least |b*_j|^2 / R^2 over j > k " in line and line.endswith("lattice: holds")
    caplog.clear()
    phase_condition_check(GENERIC_5, [1, 0, 0, 0, 0], "integer", bound=20)
    lines = [r.getMessage() for r in caplog.records]
    assert lines[0].startswith("phase condition (integer, d=5, bound 20): N=6, s=")
    assert lines[0].endswith("; scan: a row below the gap is no box relation")
    assert lines[-1].startswith("relation scan (integer, d=5, bound 12 of 20 requested)")
