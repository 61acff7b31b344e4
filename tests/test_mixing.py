import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcwalk import (
    BUDGET_EXHAUSTED,
    NO_FLAT_TARGET,
    eigendecompose_symmetric,
    from_edge_list,
    SUCCESS,
    evolve,
    family_parity_check,
    flatness_deficit,
    hadamard_search,
    initial_state,
    local_mixing_report,
    mixing,
    phase_alignment_deficit,
    phase_condition_check,
    realness_deficit,
    simultaneous_mixing_check,
    time_search,
)
from arcwalk.graphs import check_regular_hadamard
from arcwalk.mixing import HOLDS, INCONCLUSIVE, VIOLATED, relation_scan_bound
from arcwalk.spectra import walk_regular

from arcwalk.cli import resolve_builtin

from conftest import ALL_GRAPHS, GRAPH_BUILDERS, RANDOM_20_4_EDGES, get_bundle

H4 = np.ones((4, 4), int) - 2 * np.eye(4, dtype=int)


def test_hadamard_search_k4_finds_exactly_j_minus_2i():
    b = get_bundle("k4")
    certs = hadamard_search(b.dec)
    assert len(certs) == 1
    cert = certs[0]
    assert np.array_equal(cert.matrix, H4)
    assert cert.pattern.label() == "+-"
    assert cert.row_sum == 2 and cert.symmetric and cert.order == 4


def test_hadamard_search_rook4_finds_exactly_j_minus_2a():
    b = get_bundle("rook4")
    certs = hadamard_search(b.dec)
    assert len(certs) == 1
    expected = np.ones((16, 16), int) - 2 * b.graph.adjacency
    assert np.array_equal(certs[0].matrix, expected)
    assert certs[0].pattern.label() == "+-+"
    assert certs[0].row_sum == 4


@pytest.mark.parametrize("name", ["k5", "petersen", "rook3"])
def test_hadamard_search_empty_when_no_flat_combination(name):
    assert hadamard_search(get_bundle(name).dec) == []


def test_hadamard_certificates_survive_revalidation():
    for name in ("k4", "rook4"):
        cert = hadamard_search(get_bundle(name).dec)[0]
        again, row_sum = check_regular_hadamard(cert.matrix)
        assert np.array_equal(again, cert.matrix)
        assert row_sum == cert.row_sum
        assert np.array_equal(again, again.T) == cert.symmetric


#: graphs of order 1 or 4u^2, where a regular Hadamard matrix can exist
FOUR_U2 = ("k4", "c4", "rook4", "hadamard-srg:2")


@pytest.mark.parametrize("name", ALL_GRAPHS + ("hadamard-srg:2",))
def test_hadamard_search_loose_tolerance_keeps_only_valid_certificates(name, caplog):
    # every pattern passes a flatness tolerance of 10, so at an order 4u^2
    # the exact validator alone decides, with one warning per pattern it
    # rejects; it must skip, never raise. At any other order the search
    # returns no certificate before it forms a combination, so it warns
    # about none.
    if name in GRAPH_BUILDERS:
        dec = get_bundle(name).dec
    else:
        dec = eigendecompose_symmetric(resolve_builtin(name))
    certs = hadamard_search(dec, tau_flat=10.0)
    for cert in certs:
        again, row_sum = check_regular_hadamard(cert.matrix)
        assert row_sum == cert.row_sum
        assert np.array_equal(again, again.T) == cert.symmetric
    strict = [c.pattern for c in hadamard_search(dec)]
    assert [c.pattern for c in certs] == strict
    if name in FOUR_U2:
        assert strict and len(caplog.records) == 2 ** (dec.num_classes - 1) - len(strict)
    else:
        assert certs == [] and caplog.records == []


def test_phase_condition_finds_rook4_relation():
    b = get_bundle("rook4")
    angles = b.dec.angles[1:]
    verdict = phase_condition_check(angles, [1, 0], "integer", bound=20)
    assert verdict.status == HOLDS
    assert verdict.relations.tolist() == [[2, 2, -1]]
    assert verdict.violating is None
    # the relation really holds: 2 theta_1 + 2 theta_2 = 2 pi
    assert 2 * angles[0] + 2 * angles[1] == pytest.approx(2 * np.pi, abs=1e-12)


@pytest.mark.parametrize("mode, width", [("integer", 1), ("real", 0)])
def test_phase_condition_with_no_angles_holds(mode, width):
    """With no angles there is no relation to violate: the scan holds at
    the requested bound with an empty relation array of d + 1 columns in
    integer mode (l_0 alone) and d in real mode."""
    verdict = phase_condition_check([], [], mode, bound=7)
    assert verdict.status == HOLDS and verdict.violating is None
    assert verdict.bound == verdict.requested_bound == 7
    assert verdict.relations.shape == (0, width) and verdict.relations.dtype == np.int64
    assert not verdict.relations.flags.writeable and verdict.relations.flags.c_contiguous
    assert verdict.to_json_dict()["relations"] == []


@pytest.mark.parametrize("bound", [np.int64(20), np.int32(20), True])
@pytest.mark.parametrize("angles", [[math.acos(1 / 3), math.acos(-1 / 3)], []])
def test_numpy_integer_and_bool_bounds_read_as_python_ints(bound, angles):
    """A bound given as a numpy integer or a bool is the Python int it
    equals in the verdict, so that the verdict encodes as JSON."""
    verdict = phase_condition_check(angles, [1, 0][: len(angles)], "integer", bound=bound)
    payload = json.loads(json.dumps(verdict.to_json_dict()))
    assert type(verdict.bound) is int and type(verdict.requested_bound) is int
    assert payload["requested_bound"] == verdict.requested_bound == int(bound)
    assert payload["bound"] == verdict.bound


def test_phase_condition_real_mode_has_no_rook4_relations():
    b = get_bundle("rook4")
    verdict = phase_condition_check(b.dec.angles[1:], [1, 0], "real", bound=20)
    assert verdict.status == HOLDS
    assert verdict.relations.tolist() == []


def test_phase_condition_k4_integer_mode_clean():
    b = get_bundle("k4")
    verdict = phase_condition_check(b.dec.angles[1:], [1], "integer", bound=20)
    assert verdict.status == HOLDS and verdict.relations.tolist() == []


def test_phase_condition_detects_violation():
    # 3 * (2 pi / 3) = 2 pi with an odd sign bit is a hard obstruction
    verdict = phase_condition_check([2 * np.pi / 3], [1], "integer", bound=20)
    assert verdict.status == VIOLATED
    assert verdict.violating == (3, -1)
    ok = phase_condition_check([2 * np.pi / 3], [0], "integer", bound=20)
    assert ok.status == HOLDS
    assert ok.relations.tolist() == [[3, -1]]


def test_phase_condition_keeps_primitive_relations_only():
    verdict = phase_condition_check([np.pi / 2], [0], "integer", bound=20)
    assert verdict.relations.tolist() == [[4, -1]]  # (8, -2) etc. are multiples


def test_phase_condition_inconclusive_when_bound_reduced(monkeypatch):
    monkeypatch.setattr(mixing, "MAX_ENUMERATION", 100_000)
    angles = [1.0, np.sqrt(2), np.sqrt(3), np.sqrt(5), np.sqrt(7)]
    verdict = mixing._relation_scan(angles, [0] * 5, "integer", bound=20)
    assert verdict.status == INCONCLUSIVE
    assert verdict.bound < verdict.requested_bound == 20


def test_phase_condition_huge_bound_returns_at_once(monkeypatch):
    monkeypatch.setattr(mixing, "MAX_ENUMERATION", 100_000)
    angles = [1.0, np.sqrt(2), np.sqrt(3), np.sqrt(5), np.sqrt(7)]
    verdict = mixing._relation_scan(angles, [0] * 5, "integer", bound=10**9)
    assert verdict.status == INCONCLUSIVE
    assert verdict.requested_bound == 10**9
    assert verdict.bound == relation_scan_bound(20, 5, 100_000)


def test_relation_scan_bound_matches_brute_force():
    def reference(bound, d, cap):
        effective = bound
        while effective > 1 and ((2 * effective + 1) ** d - 1) // 2 > cap:
            effective -= 1
        return effective

    for cap in (0, 1, 13, 100_000, 5_000_000):
        for d in range(1, 9):
            for bound in range(1, 41):
                assert relation_scan_bound(bound, d, cap) == reference(bound, d, cap), (
                    bound, d, cap,
                )


@pytest.mark.parametrize("rows", [1, 5, 50, 2**18])
def test_relation_scan_blocks_are_the_lexicographic_half_box(rows, monkeypatch):
    """With a tolerance that accepts every row, the scan locates each
    canonical head once, in batches of at most SCAN_ROWS heads, hands each
    row of the canonical half box to the exact residual once, and reports
    every primitive row in lexicographic order. In integer mode the window
    is wider than a turn, so this also checks that the shifted copies of the
    inner sums give no row twice; a row there is primitive with its l_0."""
    monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
    located, decided = [], []
    locate, residuals = mixing._locate, mixing._relation_residuals

    def counted_locate(lower, upper, targets, *args):
        located.append(len(targets))
        return locate(lower, upper, targets, *args)

    def counted_residuals(columns, *args):
        decided.append(len(columns[0]))
        return residuals(columns, *args)

    monkeypatch.setattr(mixing, "_locate", counted_locate)
    monkeypatch.setattr(mixing, "_relation_residuals", counted_residuals)
    angles = [0.7, 1.3, 2.9, 0.2]
    for mode in ("real", "integer"):
        for d in range(1, 5):
            for bound in range(1, 4):
                located.clear()
                decided.clear()
                verdict = mixing._relation_scan(
                    angles[:d], [0] * d, mode, bound=bound, tau_rel=np.inf
                )
                heads = (2 * bound + 1) ** (d - d // 2)
                assert all(n <= rows for n in located)
                assert sum(located) == heads - heads // 2
                assert sum(decided) == ((2 * bound + 1) ** d - 1) // 2
                box = itertools.product(range(-bound, bound + 1), repeat=d)
                canonical = np.array(
                    [v for v in box if any(v) and next(x for x in v if x) > 0], dtype=np.int64
                )
                _, l0 = residuals(canonical.T, np.array(angles[:d]), mode == "integer")
                if l0 is not None:
                    canonical = np.column_stack([canonical, l0])
                expected = [v for v in canonical.tolist() if math.gcd(*v) == 1]
                assert verdict.relations.tolist() == expected, (mode, rows, d, bound)


@pytest.mark.parametrize("rows", [81, 2**18])
@pytest.mark.parametrize("mode", ["integer", "real"])
def test_screen_keeps_a_row_at_exactly_the_tolerance(mode, rows, monkeypatch):
    """tau_rel set to one row's own exact residual, or one ulp above it: the
    row is reported, so the window never drops a row the exact test takes.
    At d = 4 and 5 a head has two and three coordinates, so the window adds
    head and inner sums in another order than the exact residual; without
    the window's margin some rows are lost in both modes. SCAN_ROWS = 81
    cuts the scan into more batches and steps."""
    monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
    rng = np.random.default_rng(5)
    for d in (4, 5):
        angles = rng.uniform(0.3, 3.0, d)
        tried = 0
        while tried < 20:
            vec = rng.integers(-4, 5, d)
            if not vec.any() or np.gcd.reduce(vec) != 1:
                continue
            vec = vec if vec[np.flatnonzero(vec)[0]] > 0 else -vec
            resid, l0 = mixing._relation_residuals(vec[:, None], angles, mode == "integer")
            resid = float(resid[0])
            want = vec.tolist() + ([] if l0 is None else [int(l0[0])])
            for tau in (resid, np.nextafter(resid, np.inf)):
                verdict = mixing._relation_scan(angles, [0] * d, mode, bound=4, tau_rel=tau)
                assert want in verdict.relations.tolist(), (want, tau)
            tried += 1


def test_relation_scan_at_the_enumeration_cap_stays_small():
    tracemalloc.start()
    try:
        verdict = mixing._relation_scan([1.0, np.sqrt(2)], [0, 0], "real", bound=10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status == INCONCLUSIVE and verdict.bound == 1580
    assert verdict.relations.tolist() == []
    assert peak < 16 * 2**20


def test_clean_integer_scan_holds_little_beyond_its_relations():
    """The clean integer scan of the cycle:17 angles (169,168 relations at
    bound 3) peaks at most 8 MB above the array it returns. As Python
    tuples the relations alone took 19.4 MB."""
    angles = 2 * np.pi * np.arange(1, 9) / 17
    tracemalloc.start()
    try:
        verdict = mixing._relation_scan(angles, [0] * 8, "integer")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status == INCONCLUSIVE and verdict.relations.shape == (169_168, 9)
    assert peak <= verdict.relations.nbytes + 8 * 2**20


def test_phase_condition_input_checks():
    with pytest.raises(ValueError, match="mode"):
        phase_condition_check([1.0], [0], "both")
    with pytest.raises(ValueError, match="matching"):
        phase_condition_check([1.0], [0, 1], "integer")
    with pytest.raises(ValueError, match="bound"):
        phase_condition_check([1.0], [0], "integer", bound=0)
    with pytest.raises(ValueError, match="angles must be finite"):
        phase_condition_check([np.nan, 1.0], [1, 1], "real")
    with pytest.raises(ValueError, match="angles must be finite"):
        phase_condition_check([np.inf], [1], "integer")
    with pytest.raises(ValueError, match="sigmas must be finite"):
        phase_condition_check([1.0], [np.nan], "integer")
    with pytest.raises(ValueError, match="angles must be 1-D"):
        phase_condition_check([[0.5, 1.0]], [[1, 1]], "real")
    with pytest.raises(ValueError, match="sigmas must be 1-D"):
        phase_condition_check([0.5], 1, "real")


def test_phase_condition_refuses_nan_or_negative_tau_rel():
    """1 + 2 - 3 = 0 has odd parity, so the scan is violated; a tolerance
    that accepts no relation would turn it into a silent `holds`."""
    assert phase_condition_check([1.0, 2.0, 3.0], [0, 1, 0], "real").status == VIOLATED
    for tau in (float("nan"), -1e-9):
        for mode in ("real", "integer"):
            with pytest.raises(ValueError, match="tau_rel"):
                phase_condition_check([1.0, 2.0, 3.0], [0, 1, 0], mode, tau_rel=tau)
    verdict = phase_condition_check([1.0, 2.0, 3.0], [0, 1, 0], "real", tau_rel=0.0)
    assert verdict.status == VIOLATED


@pytest.mark.parametrize(
    "args, kwargs, match",
    [
        (([1.0], [0], 0.1, "both"), {}, "mode"),
        (([1.0], [0, 1], 0.1, "real"), {}, "matching"),
        (([[0.5, 1.0]], [[1, 1]], 0.1, "real"), {}, "angles must be 1-D"),
        (([np.nan, 1.0], [1, 1], 0.1, "real"), {}, "angles must be finite"),
        (([1.0, 2.0], [1, np.inf], 0.1, "integer"), {}, "sigmas must be finite"),
        (([0.0, 1.0], [1, 1], 0.1, "real"), {}, "angles must be positive"),
        (([-1.0, 1.0], [1, 1], 0.1, "integer"), {}, "angles must be positive"),
        (([0.5, 1.0], [1, 1], np.nan, "real"), {}, "epsilon"),
        (([0.5, 1.0], [1, 1], np.inf, "integer"), {}, "epsilon"),
        (([0.5, 1.0], [1, 1], 0.0, "integer"), {}, "epsilon"),
        (([0.5, 1.0], [1, 1], 0.1, "integer"), {"budget": -3}, "budget"),
        (([0.5, 1.0], [1, 1], 0.1, "real"), {"t_max": 0.0}, "t_max"),
        (([0.5, 1.0], [1, 1], 0.1, "real"), {"t_max": -1.0}, "t_max"),
        (([0.5, 1.0], [1, 1], 0.1, "real"), {"t_max": np.inf}, "t_max"),
        (([0.5, 1.0], [1, 1], 0.1, "real"), {"t_max": np.nan}, "t_max"),
    ],
)
def test_time_search_input_checks(args, kwargs, match):
    with pytest.raises(ValueError, match=match):
        time_search(*args, **kwargs)


@pytest.mark.parametrize("angles, t_max, cause", [
    ([1e-300, 1.0], None, "of angle 1e-300"),
    ([5e-324, 1.0], None, "of angle 4.94066e-324"),
    ([0.5, 1.0], 1e300, "t_max 1e+300"),
    ([0.5, 1.0], 1e305, "t_max 1e+305"),
    ([0.5, 1.0], 1e308, "t_max 1e+308"),
])
def test_horizon_past_float_phase_resolution_is_refused(angles, t_max, cause):
    """A float phase t theta at the horizon is resolved to horizon max theta
    2^-52 at best; where that reaches epsilon / 8 the search would report
    deficits that say nothing at the scale of epsilon (t_max 1e300 gave a
    "best" deficit below epsilon, 1e305 and a default horizon of 1e304 an
    OverflowError, 1e308 a float infinity), so it raises ValueError naming
    t_max, or the least angle that set the default horizon."""
    with pytest.raises(ValueError) as info:
        time_search(angles, [1, 1], 0.1, "real", t_max=t_max)
    message = str(info.value)
    assert cause in message and "past float phase resolution at epsilon 0.1" in message


@pytest.mark.parametrize("angle, t_max", [(1.0, 1e300), (0.3, 1e308), (1e-300, None)])
def test_a_single_angle_past_float_phase_resolution_takes_its_closed_form(angle, t_max):
    """A single angle aligns at t = pi / theta in closed form, with no grid
    whose phases float resolution could blur, so a horizon past that
    resolution still answers it, as before the refusal."""
    got = time_search([angle], [1], 0.1, "real", t_max=t_max)
    assert got.success and got.t == float(np.pi / angle)


def test_a_huge_epsilon_over_a_long_horizon_does_not_overflow():
    """At epsilon 1e300 a horizon of 5e307 is within float phase
    resolution, and the rounding margin of the width, 1e-12 times the
    largest phase, is some 1e296 turns: the width is half a turn however
    large (an OverflowError before), and t = 0, of deficit 2, succeeds."""
    got = time_search([1.0, 2.0], [1, 0], 1e300, "real", t_max=5e307)
    assert got.success and got.deficit <= 2.0
    assert mixing._fixed_width(1e296) == mixing._fixed_width(0.5) == mixing.HALF_TURN


def test_horizon_just_inside_float_phase_resolution_is_searched():
    """The bound horizon max theta 2^-52 < epsilon / 8 is strict: just
    inside it the grid is laid out as before, just past it refused."""
    angles, epsilon = np.array([0.5, 1.0]), 0.1
    bound = epsilon / 8.0 * 2.0**52 / angles.max()
    horizon, step, points = mixing._real_grid(angles, epsilon, bound * (1 - 1e-9))
    assert horizon < bound and points == mixing.MAX_GRID_POINTS + 1
    with pytest.raises(ValueError, match="t_max"):
        mixing._real_grid(angles, epsilon, bound)


@pytest.mark.parametrize("mode", ["integer", "real"])
def test_non_integral_sigmas_are_refused(mode):
    """A sign bit of 0.5 is refused, not truncated to 0, which would report
    an alignment at t = 0 that the deficit of the same bits contradicts."""
    angles = [math.acos(1 / 3), math.acos(-1 / 3)]
    assert phase_alignment_deficit(angles, [0.5, 0], 0.0) > 1.4
    with pytest.raises(ValueError, match=r"sigmas must be integers.*0\.5"):
        time_search(angles, [0.5, 0], 0.01, mode)
    with pytest.raises(ValueError, match=r"sigmas must be integers.*1\.5"):
        phase_condition_check([1.0, 2.0], [1.5, 0], mode)
    with pytest.raises(ValueError, match="sigmas must be integers"):
        time_search(angles, [1e300, 1], 0.01, mode)


def test_integral_float_and_bool_sigmas_are_accepted():
    angles = [math.acos(1 / 3), math.acos(-1 / 3)]
    want = time_search(angles, [1, 0], 0.1, "integer")
    assert time_search(angles, [1.0, 0.0], 0.1, "integer") == want
    assert time_search(angles, [True, False], 0.1, "integer") == want
    verdicts = [phase_condition_check(angles, bits, "integer")
                for bits in ([1, 0], [1.0, 0.0], np.array([True, False]))]
    assert len({(v.status, str(v.relations.tolist())) for v in verdicts}) == 1


@pytest.mark.parametrize("bound", [3.0, 2.5, "3", None])
def test_phase_condition_refuses_a_bound_that_is_no_integer(bound):
    with pytest.raises(ValueError, match="bound must be an integer"):
        phase_condition_check([1.0, 2.0], [1, 0], "integer", bound=bound)
    assert phase_condition_check([1.0, 2.0], [1, 0], "integer", bound=np.int64(3)).bound == 3


@pytest.mark.parametrize("budget", [100.0, 1e3, "100", None])
def test_time_search_refuses_a_budget_that_is_no_integer(budget):
    with pytest.raises(ValueError, match="budget must be an integer"):
        time_search([0.5, 1.0], [1, 1], 0.1, "integer", budget=budget)
    want = time_search([0.5, 1.0], [1, 1], 0.1, "integer", budget=100)
    assert time_search([0.5, 1.0], [1, 1], 0.1, "integer", budget=np.int64(100)) == want


@pytest.mark.parametrize("family", ["+", "-"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_family_parity_holds(family, m):
    result = family_parity_check(m, family)
    assert result.holds and bool(result)
    assert result.conditions
    sign = 1 if family == "+" else -1
    assert result.srg_params == (
        4 * m * m, 2 * m * m + sign * m, m * m + sign * m, m * m + sign * m
    )
    expected_ratio = Fraction(m, 2 * m * m + sign * m)
    assert result.cos_ratio == expected_ratio
    assert result.vacuous == (family == "-" and m == 1)


def test_family_parity_vacuous_member_is_explained():
    result = family_parity_check(1, "-")
    assert result.vacuous and result.holds
    assert any("no connected member" in cond for cond in result.conditions)


def test_family_parity_agrees_with_numeric_scan():
    for family, m in [("+", 1), ("+", 3), ("-", 2), ("-", 4)]:
        result = family_parity_check(m, family)
        theta = np.arccos(float(result.cos_ratio))
        angles = [theta, np.pi - theta]
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            verdict = phase_condition_check(angles, bits, "integer", bound=20)
            assert verdict.status == HOLDS, (family, m, bits, verdict)


def test_family_parity_input_checks():
    with pytest.raises(ValueError, match="family"):
        family_parity_check(2, "x")
    with pytest.raises(ValueError, match=">= 1"):
        family_parity_check(0, "+")


def test_time_search_trivial_when_all_sigmas_zero():
    result = time_search([1.23, 2.1], [0, 0], 0.01, "integer")
    assert result.success and result.t == 0.0 and result.deficit == 0.0


def test_time_search_single_angle_closed_form():
    theta = np.arccos(-1 / 3)
    result = time_search([theta], [1], 1e-9, "real")
    assert result.success
    assert result.t == pytest.approx(np.pi / theta, rel=1e-15)
    assert result.deficit < 1e-12


@pytest.mark.parametrize("sigma, t", [(-1, np.pi), (0, 0.0), (1, np.pi), (2, 0.0), (3, np.pi)])
def test_single_angle_real_time_is_the_least_nonnegative_one(sigma, t):
    """The search reads the sign count as its bit, sigma mod 2."""
    result = time_search([1.0], [sigma], 0.1, "real")
    assert result.success and result.t == t
    assert result.deficit == phase_alignment_deficit([1.0], [sigma % 2], t) < 1e-15


@pytest.mark.parametrize("sigma", [-1, 1, 3])
def test_single_angle_real_time_past_t_max_falls_to_the_grid(sigma):
    result = time_search([1.0], [sigma], 0.1, "real", t_max=2.0)
    assert not result.success and 0.0 <= result.t <= 2.0
    assert time_search([1.0], [sigma], 0.1, "real", t_max=4.0).t == np.pi


def test_time_search_integer_mode_first_hit():
    b = get_bundle("rook4")
    angles = b.dec.angles[1:]
    sigmas = [1, 0]
    result = time_search(angles, sigmas, 0.1, "integer")
    assert result.success and result.t == 23.0
    # the scan returns the first qualifying time
    earlier = phase_alignment_deficit(angles, sigmas, np.arange(1, 23))
    assert (earlier >= 0.1).all()
    assert phase_alignment_deficit(angles, sigmas, 23.0) < 0.1


def test_time_search_real_mode_multi_angle():
    b = get_bundle("rook4")
    result = time_search(b.dec.angles[1:], [1, 0], 0.05, "real")
    assert result.success and result.deficit < 0.05
    assert phase_alignment_deficit(b.dec.angles[1:], [1, 0], result.t) == pytest.approx(
        result.deficit
    )


def test_time_search_reports_best_on_exhaustion():
    b = get_bundle("rook4")
    result = time_search(b.dec.angles[1:], [1, 0], 0.1, "integer", budget=10)
    assert not result.success
    assert 1 <= result.t <= 10
    assert result.deficit >= 0.1


@pytest.mark.parametrize(
    "angles, sigmas",
    [([0.5, 1.0], [1, 1]), ([0.5], [1]), ([0.3, 1.1, 2.9], [1, 0, 1])],
)
@pytest.mark.parametrize("t_max", [1e-3, 0.05, 1.0, 7.3, 40.0])
def test_real_time_search_stays_within_t_max(angles, sigmas, t_max):
    result = time_search(angles, sigmas, 0.1, "real", t_max=t_max)
    assert 0.0 <= result.t <= t_max
    assert result.deficit == phase_alignment_deficit(angles, sigmas, result.t)


def test_local_mixing_k4_real_mode():
    g = GRAPH_BUILDERS["k4"]()
    report = local_mixing_report(g, 0, 1e-9, "real")
    assert report.verdict == SUCCESS
    assert report.t == pytest.approx(np.pi / np.arccos(-1 / 3), rel=1e-15)
    assert report.residual < 1e-9
    assert abs(report.gamma - 1) < 1e-9
    assert report.certificate.pattern.label() == "+-"
    assert report.support == (0, 1)
    b = get_bundle("k4")
    xt = evolve(b.ws, initial_state(b.arcs, 0), report.t)
    assert flatness_deficit(xt) < 1e-9
    assert realness_deficit(xt) < 1e-9


def test_local_mixing_rook4_integer_mode():
    g = GRAPH_BUILDERS["rook4"]()
    report = local_mixing_report(g, 5, 0.1, "integer")
    assert report.verdict == SUCCESS
    assert report.t == 23.0
    assert report.residual <= 0.4
    assert report.kronecker.relations.tolist() == [[2, 2, -1]]


def test_local_mixing_petersen_has_no_flat_target():
    report = local_mixing_report(GRAPH_BUILDERS["petersen"](), 0, 0.1, "integer")
    assert report.verdict == NO_FLAT_TARGET
    assert report.certificate is None and report.t is None
    assert any("square" in note for note in report.notes)


def test_local_mixing_budget_exhausted_reports_best_effort():
    g = GRAPH_BUILDERS["rook4"]()
    report = local_mixing_report(g, 0, 0.1, "integer", budget=10)
    assert report.verdict == BUDGET_EXHAUSTED
    assert report.t is not None and report.residual is not None
    assert any("deficit" in note for note in report.notes)


def test_local_mixing_input_checks():
    g = GRAPH_BUILDERS["k4"]()
    with pytest.raises(ValueError, match="epsilon"):
        local_mixing_report(g, 0, 0.0, "integer")
    with pytest.raises(ValueError, match="mode"):
        local_mixing_report(g, 0, 0.1, "fast")
    with pytest.raises(ValueError, match="out of range"):
        local_mixing_report(g, 7, 0.1, "integer")
    with pytest.raises(ValueError, match="non-bipartite"):
        local_mixing_report(GRAPH_BUILDERS["c4"](), 0, 0.1, "integer")


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["petersen", "rook4"])
@pytest.mark.parametrize("simultaneous", [False, True])
def test_mixing_refuses_a_non_finite_epsilon_before_any_verdict(
    epsilon, name, simultaneous, monkeypatch
):
    """A non-finite epsilon is refused before the Hadamard search, also on
    petersen, whose missing flat target needs no time search to refuse
    it, and on rook:4, whose time search would refuse it only at the end."""
    searched = []
    monkeypatch.setattr(mixing, "hadamard_search", lambda *args, **kw: searched.append(args))
    g = GRAPH_BUILDERS[name]()
    run = (lambda: simultaneous_mixing_check(g, epsilon, "integer")) if simultaneous else (
        lambda: local_mixing_report(g, 0, epsilon, "integer"))
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        run()
    assert not searched


def test_simultaneous_mixing_k4_and_rook4():
    rep = simultaneous_mixing_check(GRAPH_BUILDERS["k4"](), 1e-6, "real")
    assert rep.verdict == SUCCESS and rep.vertex is None
    assert rep.residual <= 4 * 1e-6 * 2
    rep = simultaneous_mixing_check(GRAPH_BUILDERS["rook4"](), 0.1, "integer")
    assert rep.verdict == SUCCESS
    assert rep.t == 23.0
    assert rep.residual <= 4 * 0.1 * 4


def test_simultaneous_mixing_petersen_negative():
    rep = simultaneous_mixing_check(GRAPH_BUILDERS["petersen"](), 0.1, "integer")
    assert rep.verdict == NO_FLAT_TARGET


WALK_REGULAR_NOTE = "graph is walk-regular"


def walk_regular_noted(report):
    return any(note.startswith(WALK_REGULAR_NOTE) for note in report.notes)


@pytest.mark.parametrize("name", ["k4", "rook:4", "hadamard-srg:2", "complement:rook:4"])
def test_flat_srg_reports_do_not_depend_on_the_start_vertex(name):
    g = resolve_builtin(name)
    reports = [local_mixing_report(g, a, 0.05, "integer") for a in range(g.n)]
    first = reports[0]
    assert first.verdict == SUCCESS and walk_regular_noted(first)
    for report in reports[1:]:
        assert (report.verdict, report.t, report.support, report.notes) == (
            first.verdict, first.t, first.support, first.notes
        )
        assert report.certificate.pattern == first.certificate.pattern
        assert report.gamma == first.gamma
        assert report.residual == pytest.approx(first.residual, rel=1e-9)


def test_walk_regular_note_on_a_graph_that_is_not_strongly_regular():
    for report in (
        local_mixing_report(resolve_builtin("cycle:9"), 4, 0.1, "integer"),
        simultaneous_mixing_check(resolve_builtin("cycle:9"), 0.1, "integer"),
    ):
        assert walk_regular_noted(report)
    # 19 non-valency classes put this graph past the Hadamard search limit,
    # so its mix exits early; the test behind the note says no
    dec = eigendecompose_symmetric(from_edge_list(RANDOM_20_4_EDGES, 20))
    assert not walk_regular(dec)
    assert all(walk_regular(get_bundle(name).dec) for name in ALL_GRAPHS)


def hamming_3_4():
    words = list(itertools.product(range(4), repeat=3))
    edges = [(i, j) for i, j in itertools.combinations(range(64), 2)
             if sum(x != y for x, y in zip(words[i], words[j])) == 1]
    return from_edge_list(edges, 64)


def test_real_horizon_can_fall_short_of_an_integer_success():
    """The README's H(3, 4) example: the default real horizon T_MAX_FACTOR /
    min theta lies before the first integer success, and t_max lifts it."""
    g = hamming_3_4()
    horizon = mixing.T_MAX_FACTOR / eigendecompose_symmetric(g).angles[1:].min()
    integer = local_mixing_report(g, 0, 0.1, "integer")
    assert integer.verdict == SUCCESS and integer.t == 23222.0 > horizon
    real = local_mixing_report(g, 0, 0.1, "real")
    assert real.verdict == BUDGET_EXHAUSTED and real.t <= horizon
    lifted = local_mixing_report(g, 0, 0.1, "real", t_max=integer.t)
    assert lifted.verdict == SUCCESS and horizon < lifted.t <= integer.t


def test_report_json_round_trip_with_and_without_matrix():
    """The report dict is plain JSON: it comes back from text unchanged."""
    report = local_mixing_report(GRAPH_BUILDERS["rook4"](), 0, 0.1, "integer")
    for emit in (True, False):
        payload = report.to_json_dict(emit_matrix=emit)
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload
    without = report.to_json_dict(emit_matrix=False)
    assert "H" not in without["certificate"]
    with_matrix = report.to_json_dict(emit_matrix=True)
    assert np.array_equal(np.array(with_matrix["certificate"]["H"]), report.certificate.matrix)


def test_report_carries_walk_residual():
    report = local_mixing_report(GRAPH_BUILDERS["rook4"](), 0, 0.1, "integer")
    assert 0.0 <= report.walk_residual <= 1e-9
    payload = report.to_json_dict()
    assert payload["walk_residual"] == report.walk_residual
    assert payload["residual"] == report.residual and payload["t"] == report.t


def test_reports_are_deterministic():
    g1 = GRAPH_BUILDERS["rook4"]()
    g2 = GRAPH_BUILDERS["rook4"]()
    r1 = local_mixing_report(g1, 0, 0.1, "integer")
    r2 = local_mixing_report(g2, 0, 0.1, "integer")
    a = json.dumps(r1.to_json_dict(emit_matrix=True), sort_keys=True)
    b = json.dumps(r2.to_json_dict(emit_matrix=True), sort_keys=True)
    assert a == b


def test_verdict_strings_are_stable():
    from arcwalk import PHASE_OBSTRUCTION

    assert SUCCESS == "success"
    assert NO_FLAT_TARGET == "no-flat-target"
    assert PHASE_OBSTRUCTION == "phase-obstruction"
    assert BUDGET_EXHAUSTED == "budget-exhausted"


def test_budget_exhausted_note_states_the_real_grid_step(monkeypatch):
    """A real-mode failure names the grid step it scanned, and says when
    MAX_GRID_POINTS coarsened it past epsilon / (4 max theta); an integer
    failure has no grid to name."""
    g = GRAPH_BUILDERS["rook4"]()
    fine = 1e-3 / (4.0 * eigendecompose_symmetric(g).angles[1:].max())
    report = local_mixing_report(g, 0, 1e-3, "real", t_max=100.0)
    assert report.verdict == BUDGET_EXHAUSTED
    note = report.notes[-1]
    assert "deficit" in note and f"step {fine:.3e} = epsilon / (4 max theta)" in note
    assert "coarsened" not in note
    monkeypatch.setattr(mixing, "MAX_GRID_POINTS", 1000)
    report = local_mixing_report(g, 0, 1e-3, "real", t_max=100.0)
    assert report.verdict == BUDGET_EXHAUSTED
    note = report.notes[-1]
    assert f"step {100.0 / 1000:.3e} over [0, 100], coarsened" in note
    assert f"epsilon / (4 max theta) = {fine:.3e}" in note
    report = local_mixing_report(g, 0, 1e-3, "integer", budget=100)
    assert report.verdict == BUDGET_EXHAUSTED and "grid" not in report.notes[-1]


def test_integer_budget_past_the_grid_cap_is_cut(monkeypatch, caplog):
    """An integer budget too large to scan is cut to MAX_GRID_POINTS, as the
    real grid is coarsened to fit: the search is the one at that budget,
    the cut is logged, and a budget-exhausted note states it. Cycle:9
    angles with bits 1111 never align in integer mode."""
    monkeypatch.setattr(mixing, "MAX_GRID_POINTS", 10**4)
    angles, sigmas = 2.0 * np.pi * np.arange(1, 5) / 9, np.ones(4, dtype=np.int64)
    with caplog.at_level("INFO", logger="arcwalk.mixing"):
        result = time_search(angles, sigmas, 0.1, "integer", budget=10**12)
    assert "integer time budget cut 1000000000000 -> 10000" in caplog.text
    assert result == time_search(angles, sigmas, 0.1, "integer", budget=10**4)
    assert not result.success and 0 < result.t <= 10**4
    note = functools.partial(mixing._exhausted_note, angles, sigmas, 0.1, "integer")
    assert note(10**12, None, result).endswith(
        "after the integer budget 1000000000000 was cut to fit MAX_GRID_POINTS = 10000"
    )
    assert "cut" not in note(10**4, None, result)
    g = GRAPH_BUILDERS["rook4"]()
    monkeypatch.setattr(mixing, "MAX_GRID_POINTS", 100)
    report = local_mixing_report(g, 0, 1e-3, "integer", budget=10**12)
    assert report.verdict == BUDGET_EXHAUSTED
    assert report.notes[-1].endswith(
        "after the integer budget 1000000000000 was cut to fit MAX_GRID_POINTS = 100"
    )


@pytest.mark.parametrize("epsilon, t_max", [(0.1, 3.0), (1e-4, 100.0), (1e-4, 1e9)])
def test_real_grid_is_the_one_time_search_scans(epsilon, t_max, monkeypatch):
    """The grid the note states is the grid the search scans: same step,
    same number of points."""
    angles, sigmas = np.array([0.7, 1.9, 2.3]), np.array([1, 0, 1])
    scans = []
    scan = mixing._scan_times

    def recorded(angles, sigmas, epsilon, step, horizon, start, stop):
        scans.append((step, horizon, stop))
        return scan(angles, sigmas, epsilon, step, horizon, start, min(stop, 10_000))

    monkeypatch.setattr(mixing, "_scan_times", recorded)
    time_search(angles, sigmas, epsilon, "real", t_max=t_max)
    horizon, step, points = mixing._real_grid(angles, epsilon, t_max)
    assert scans == [(step, horizon, points)]
    assert (points > mixing.MAX_GRID_POINTS) == (t_max == 1e9)
