"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE <nn> <name>: PASS|FAIL`` line (visible with ``pytest -s``).
"""

import contextlib
import time

import numpy as np
import pytest

from arcwalk import (
    NO_FLAT_TARGET,
    NOT_COSPECTRAL,
    SUCCESS,
    check_strong_cospectrality,
    check_strong_cospectrality_direct,
    entry_formula,
    evolve,
    family_parity_check,
    flat_arc_state,
    flatness_deficit,
    hadamard_search,
    initial_state,
    local_mixing_report,
    phase_condition_check,
    simultaneous_mixing_check,
    walk_spectrum_residuals,
)
from arcwalk.mixing import HOLDS
from arcwalk.walk import State

from conftest import (
    ALL_GRAPHS,
    GRAPH_BUILDERS,
    NON_BIPARTITE,
    dense_incidence,
    get_bundle,
    pair_projections,
    sign_projections,
)


@contextlib.contextmanager
def criterion(num, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_unitarity_and_resolution():
    with criterion(1, "unitarity-and-spectral-resolution"):
        for name in ALL_GRAPHS:
            b = get_bundle(name)
            nk = b.arcs.num_arcs
            unitarity = np.abs(b.U.T @ b.U - np.eye(nk)).max()
            assert unitarity < 1e-10, (name, unitarity)
            plus1, minus1 = sign_projections(b.ws)
            recon = plus1 - minus1
            for _, theta, plus in pair_projections(b.ws):
                recon = recon + np.exp(1j * theta) * plus
                recon = recon + np.exp(-1j * theta) * plus.conj()
            resolution = np.abs(b.U - recon).max()
            assert resolution < 1e-9, (name, resolution)


def test_criterion_02_projection_correspondence():
    with criterion(2, "idempotent-correspondence"):
        for name in ALL_GRAPHS:
            b = get_bundle(name)
            T = dense_incidence(b.arcs)[0]
            k = b.graph.degree
            for index, _, plus in pair_projections(b.ws):
                E = b.dec.idempotents[index]
                for F in (plus, plus.conj()):
                    dev = np.abs(T @ F @ T.T - (k / 2) * E).max()
                    assert dev < 1e-9, (name, index, dev)
            dev0 = np.abs(T @ sign_projections(b.ws)[0] @ T.T - k * b.dec.idempotents[0]).max()
            assert dev0 < 1e-9, (name, dev0)
        c4 = get_bundle("c4")
        T = dense_incidence(c4.arcs)[0]
        dev = np.abs(
            T @ sign_projections(c4.ws)[1] @ T.T - c4.graph.degree * c4.dec.idempotents[-1]
        ).max()
        assert dev < 1e-9, dev


def test_criterion_03_entry_formula_oracle():
    with criterion(3, "entry-formula-matches-evolution"):
        for name in ALL_GRAPHS:
            b = get_bundle(name)
            for a in (0, b.graph.n // 2):
                x0 = initial_state(b.arcs, a)
                worst = 0.0
                for t in range(51):
                    via_formula = entry_formula(b.dec, b.arcs, a, t)
                    via_evolve = evolve(b.ws, x0, t)
                    worst = max(
                        worst,
                        np.abs(via_formula.amplitudes - via_evolve.amplitudes).max(),
                    )
                assert worst < 1e-8, (name, a, worst)


def test_criterion_04_realness_dichotomy():
    with criterion(4, "real-nonbipartite-imaginary-bipartite"):
        for name in NON_BIPARTITE:
            b = get_bundle(name)
            x0 = initial_state(b.arcs, 0)
            for t in (0.3, 1, 4.7, 12):
                xt = evolve(b.ws, x0, t)
                assert np.abs(xt.amplitudes.imag).max() < 1e-10, (name, t)
        c4 = get_bundle("c4")
        xt = evolve(c4.ws, initial_state(c4.arcs, 0), 0.5)
        im = xt.amplitudes.imag
        np.testing.assert_allclose(np.abs(im), 1 / (4 * np.sqrt(2)), atol=1e-10)
        color = c4.graph.color_class
        tails = np.array([u for u, _ in c4.arcs.arcs])
        same_side = color[tails] == color[0]
        assert np.all(np.sign(im[same_side]) == np.sign(im[same_side][0]))
        assert np.all(np.sign(im[~same_side]) == -np.sign(im[same_side][0]))


def test_criterion_05_k4_uniform_mixing_instant():
    with criterion(5, "k4-uniform-mixing-time"):
        b = get_bundle("k4")
        t = np.pi / np.arccos(-1 / 3)
        xt = evolve(b.ws, initial_state(b.arcs, 0), t)
        assert flatness_deficit(xt) < 1e-9
        H = np.ones((4, 4)) - 2 * np.eye(4)
        y = dense_incidence(b.arcs)[0].T @ H[:, 0] / np.sqrt(12)
        inner = np.vdot(y, xt.amplitudes)
        gamma = inner / abs(inner)
        assert np.linalg.norm(xt.amplitudes - gamma * y) < 1e-9


def test_criterion_06_hadamard_discovery():
    with criterion(6, "hadamard-certificate-discovery"):
        k4 = get_bundle("k4")
        certs = hadamard_search(k4.dec)
        assert len(certs) == 1
        expected = np.ones((4, 4), int) - 2 * np.eye(4, dtype=int)
        assert np.array_equal(certs[0].matrix, expected)
        rook = get_bundle("rook4")
        certs = hadamard_search(rook.dec)
        assert len(certs) == 1
        expected = np.ones((16, 16), int) - 2 * rook.graph.adjacency
        assert np.array_equal(certs[0].matrix, expected)
        for cert, n in ((hadamard_search(k4.dec)[0], 4), (certs[0], 16)):
            assert np.array_equal(cert.matrix @ cert.matrix.T, n * np.eye(n, dtype=int))
        assert hadamard_search(get_bundle("petersen").dec) == []
        assert hadamard_search(get_bundle("k5").dec) == []


def test_criterion_07_parity_and_kronecker_agree():
    with criterion(7, "family-parity-and-phase-conditions"):
        for m in range(1, 6):
            for family in ("+", "-"):
                assert family_parity_check(m, family).holds, (m, family)
        k4 = get_bundle("k4")
        verdict = phase_condition_check(k4.dec.angles[1:], [1], "integer", bound=20)
        assert verdict.status == HOLDS and verdict.violating is None
        rook = get_bundle("rook4")
        verdict = phase_condition_check(
            rook.dec.angles[1:], [1, 0], "integer", bound=20
        )
        assert verdict.status == HOLDS and verdict.violating is None


def test_criterion_08_rook4_integer_mixing_every_vertex():
    with criterion(8, "rook4-integer-mixing-all-vertices"):
        g = GRAPH_BUILDERS["rook4"]()
        started = time.monotonic()
        reports = [
            local_mixing_report(g, a, 0.1, "integer", budget=10**6)
            for a in range(16)
        ]
        elapsed = time.monotonic() - started
        assert elapsed < 60, elapsed
        for report in reports:
            assert report.verdict == SUCCESS
            assert report.residual <= 0.4
        times = {report.t for report in reports}
        patterns = {report.certificate.pattern.label() for report in reports}
        assert len(times) == 1 and len(patterns) == 1


def _curated_pairs(name):
    b = get_bundle(name)
    nk = b.arcs.num_arcs
    pairs = []
    for a in (0, b.graph.n - 1):
        pairs.append((a, initial_state(b.arcs, a)))
    for a, other in ((0, 1), (0, b.graph.n - 1), (1, 2)):
        pairs.append((a, initial_state(b.arcs, other)))
    for cert in hadamard_search(b.dec):
        for a in (0, 1):
            pairs.append((a, flat_arc_state(b.arcs, cert.matrix[:, a])))
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = rng.standard_normal(nk) + 1j * rng.standard_normal(nk)
        pairs.append((0, State(y / np.linalg.norm(y))))
    return b, pairs


def test_criterion_09_cospectrality_cross_oracle():
    with criterion(9, "cospectrality-checkers-agree"):
        for name in ("k4", "petersen", "rook4"):
            b, pairs = _curated_pairs(name)
            assert len(pairs) >= 25
            for a, y in pairs:
                via_adjacency = check_strong_cospectrality(b.dec, b.arcs, a, y)
                via_walk = check_strong_cospectrality_direct(
                    b.ws, initial_state(b.arcs, a), y
                )
                assert (via_adjacency == NOT_COSPECTRAL) == (
                    via_walk == NOT_COSPECTRAL
                ), (name, a)


def test_criterion_10_simultaneous_mixing():
    with criterion(10, "simultaneous-mixing-verdicts"):
        rep = simultaneous_mixing_check(GRAPH_BUILDERS["k4"](), 1e-6, "real")
        assert rep.verdict == SUCCESS
        rep = simultaneous_mixing_check(GRAPH_BUILDERS["rook4"](), 0.1, "integer")
        assert rep.verdict == SUCCESS
        rep = simultaneous_mixing_check(GRAPH_BUILDERS["petersen"](), 0.1, "integer")
        assert rep.verdict == NO_FLAT_TARGET
