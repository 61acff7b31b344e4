import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from arcwalk import (
    BUDGET_EXHAUSTED,
    NO_FLAT_TARGET,
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
    regular_hadamard_validate,
    report_from_json,
    simultaneous_mixing_check,
    time_search,
)
from arcwalk.mixing import HOLDS, INCONCLUSIVE, VIOLATED, relation_scan_bound

from conftest import ALL_GRAPHS, GRAPH_BUILDERS, get_bundle

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
        again = regular_hadamard_validate(cert.matrix)
        assert again.row_sum == cert.row_sum
        assert again.symmetric == cert.symmetric


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_hadamard_search_loose_tolerance_keeps_only_valid_certificates(name, caplog):
    # every pattern passes a flatness tolerance of 10, so the exact
    # validator alone decides; it must skip, never raise
    dec = get_bundle(name).dec
    certs = hadamard_search(dec, tau_flat=10.0)
    for cert in certs:
        again = regular_hadamard_validate(cert.matrix)
        assert again.row_sum == cert.row_sum and again.symmetric == cert.symmetric
    strict = [c.pattern for c in hadamard_search(dec)]
    assert [c.pattern for c in certs] == strict
    assert len(caplog.records) == 2 ** (dec.num_classes - 1) - len(strict)


def test_regular_hadamard_validate_rejections():
    with pytest.raises(ValueError, match="\\+1 or -1"):
        regular_hadamard_validate(np.zeros((4, 4), int))
    with pytest.raises(ValueError, match="nI"):
        regular_hadamard_validate(np.ones((4, 4), int))
    # order-2 Hadamard matrices have row sums 2 and 0
    with pytest.raises(ValueError, match="row sums"):
        regular_hadamard_validate(np.array([[1, 1], [1, -1]]))
    assert regular_hadamard_validate(np.array([[1]])).row_sum == 1
    assert regular_hadamard_validate(np.kron(H4, H4)).row_sum == 4


def test_phase_condition_finds_rook4_relation():
    b = get_bundle("rook4")
    angles = b.dec.angles[1:]
    verdict = phase_condition_check(angles, [1, 0], "integer", bound=20)
    assert verdict.status == HOLDS
    assert verdict.relations == ((2, 2, -1),)
    assert verdict.violating is None
    # the relation really holds: 2 theta_1 + 2 theta_2 = 2 pi
    assert 2 * angles[0] + 2 * angles[1] == pytest.approx(2 * np.pi, abs=1e-12)


def test_phase_condition_real_mode_has_no_rook4_relations():
    b = get_bundle("rook4")
    verdict = phase_condition_check(b.dec.angles[1:], [1, 0], "real", bound=20)
    assert verdict.status == HOLDS
    assert verdict.relations == ()


def test_phase_condition_k4_integer_mode_clean():
    b = get_bundle("k4")
    verdict = phase_condition_check(b.dec.angles[1:], [1], "integer", bound=20)
    assert verdict.status == HOLDS and verdict.relations == ()


def test_phase_condition_detects_violation():
    # 3 * (2 pi / 3) = 2 pi with an odd sign bit is a hard obstruction
    verdict = phase_condition_check([2 * np.pi / 3], [1], "integer", bound=20)
    assert verdict.status == VIOLATED
    assert verdict.violating == (3, -1)
    ok = phase_condition_check([2 * np.pi / 3], [0], "integer", bound=20)
    assert ok.status == HOLDS
    assert ok.relations == ((3, -1),)


def test_phase_condition_keeps_primitive_relations_only():
    verdict = phase_condition_check([np.pi / 2], [0], "integer", bound=20)
    assert verdict.relations == ((4, -1),)  # (8, -2) etc. are multiples


def test_phase_condition_inconclusive_when_bound_reduced():
    angles = [1.0, np.sqrt(2), np.sqrt(3), np.sqrt(5), np.sqrt(7)]
    verdict = phase_condition_check(
        angles, [0] * 5, "integer", bound=20, max_enumeration=100_000
    )
    assert verdict.status == INCONCLUSIVE
    assert verdict.bound < verdict.requested_bound == 20


def test_phase_condition_huge_bound_returns_at_once():
    angles = [1.0, np.sqrt(2), np.sqrt(3), np.sqrt(5), np.sqrt(7)]
    verdict = phase_condition_check(
        angles, [0] * 5, "integer", bound=10**9, max_enumeration=100_000
    )
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
    monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
    for d in range(1, 5):
        for bound in range(1, 4):
            blocks = list(mixing._canonical_half_chunks(bound, d))
            assert all(len(block) <= max(rows, 2 * bound + 1) for block in blocks)
            scanned = [tuple(v) for block in blocks for v in block.tolist()]
            box = itertools.product(range(-bound, bound + 1), repeat=d)
            expected = [v for v in box if any(v) and next(x for x in v if x) > 0]
            assert scanned == expected, (rows, d, bound)


def test_relation_scan_at_the_enumeration_cap_stays_small():
    tracemalloc.start()
    try:
        verdict = phase_condition_check([1.0, np.sqrt(2)], [0, 0], "real", bound=10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.status == INCONCLUSIVE and verdict.bound == 1580
    assert verdict.relations == ()
    assert peak < 16 * 2**20


def test_phase_condition_input_checks():
    with pytest.raises(ValueError, match="mode"):
        phase_condition_check([1.0], [0], "both")
    with pytest.raises(ValueError, match="matching"):
        phase_condition_check([1.0], [0, 1], "integer")
    with pytest.raises(ValueError, match="bound"):
        phase_condition_check([1.0], [0], "integer", bound=0)


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
    assert report.kronecker.relations == ((2, 2, -1),)


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


def test_report_json_round_trip_with_and_without_matrix():
    report = local_mixing_report(GRAPH_BUILDERS["rook4"](), 0, 0.1, "integer")
    for emit in (True, False):
        payload = report.to_json_dict(emit_matrix=emit)
        text = json.dumps(payload, sort_keys=True)
        back = report_from_json(json.loads(text))
        assert json.dumps(back.to_json_dict(emit_matrix=emit), sort_keys=True) == text
    without = report.to_json_dict(emit_matrix=False)
    assert "H" not in without["certificate"]
    with_matrix = report.to_json_dict(emit_matrix=True)
    assert np.array_equal(np.array(with_matrix["certificate"]["H"]), report.certificate.matrix)


def test_report_carries_walk_residual_and_reads_old_json():
    report = local_mixing_report(GRAPH_BUILDERS["rook4"](), 0, 0.1, "integer")
    assert 0.0 <= report.walk_residual <= 1e-9
    payload = report.to_json_dict()
    assert payload["walk_residual"] == report.walk_residual
    del payload["walk_residual"]
    back = report_from_json(json.loads(json.dumps(payload)))
    assert back.walk_residual is None
    assert back.residual == report.residual and back.t == report.t


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
