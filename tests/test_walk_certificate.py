"""The walk spectrum certificate on W against the dense projection suite.

``walk_spectrum_residuals`` checks the arc eigenvectors W themselves:
``gram``, ``eigen``, ``correspondence`` and ``sign`` (U^2 = I on the
complement of W, on seeded probes), in O(m N). The dense suite of
``conftest.full_walk_spectrum_residuals`` forms every projection, F_{+-1}
included. Both must accept the clean W and reject each corruption of it;
and no library path, the certified build included, forms an m x m array.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from arcwalk import (
    WalkSpectrum,
    build_arc_space,
    check_strong_cospectrality_direct,
    eigendecompose_symmetric,
    evolve,
    evolve_by_projections,
    evolve_operator,
    initial_state,
    spectra,
    walk_spectrum,
    walk_spectrum_residuals,
)
from arcwalk.cli import resolve_builtin
from arcwalk.walk import TAU_WALK

from conftest import (
    ALL_GRAPHS,
    full_walk_spectrum_residuals,
    pair_projections,
    walk_projections,
)
from test_arc_index import random_regular_graphs
from test_eigenvector_coordinates import build


def spectrum_of(name):
    """dec, arcs and the walk spectrum of a named graph."""
    dec, arcs = build(name)
    return dec, arcs, walk_spectrum(dec, arcs)


def rejected(residuals) -> list[str]:
    return [key for key, val in residuals.items() if not val <= TAU_WALK]


def assert_both_accept(dec, arcs, ws):
    certificate = walk_spectrum_residuals(dec, arcs, ws)
    assert not rejected(certificate), certificate
    assert not rejected(full_walk_spectrum_residuals(dec, arcs, ws))


@pytest.mark.parametrize("name", ALL_GRAPHS + ("random-20-4", "cycle:8", "cycle:12"))
def test_both_accept_the_clean_eigenvectors(name):
    assert_both_accept(*spectrum_of(name))


@settings(deadline=None, max_examples=10)
@given(g=random_regular_graphs())
def test_both_accept_the_clean_eigenvectors_on_random_regular_graphs(g):
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    assert_both_accept(dec, arcs, walk_spectrum(dec, arcs))


def spectrum(ws, W, classes, thetas):
    """A WalkSpectrum on the arcs of ws with the columns W, each of the
    given class and angle."""
    return WalkSpectrum(arc_space=ws.arc_space, factors=W, column_thetas=np.asarray(thetas),
                        column_classes=np.asarray(classes))


def drop_a_column(ws):
    """A missing eigenvector: the last column of W."""
    return spectrum(ws, ws.factors[:, :-1], ws.column_classes[:-1], ws.column_thetas[:-1])


def drop_a_middle_column(ws):
    """A missing eigenvector inside W: the last column of the first class
    of multiplicity above 1 that is not the last class."""
    classes = ws.column_classes
    ends = np.flatnonzero(np.diff(classes)) + 1  # one past each class but the last
    j = next(end - 1 for end in ends if end > 1 and classes[end - 2] == classes[end - 1])
    keep = np.arange(len(classes)) != j
    return spectrum(ws, ws.factors[:, keep], classes[keep], ws.column_thetas[keep])


def scale_a_column(ws):
    W = ws.factors.copy()
    W[:, 0] *= 1.0 + 1e-6
    return spectrum(ws, W, ws.column_classes, ws.column_thetas)


def add_noise_to_a_column(ws):
    W = ws.factors.copy()
    W[:, 0] += 1e-6 * np.random.default_rng(3).standard_normal(len(W))
    return spectrum(ws, W, ws.column_classes, ws.column_thetas)


def shift_the_angle_of_a_column(ws):
    """The first column of W with its angle 1e-6 off."""
    thetas = ws.column_thetas.copy()
    thetas[0] += 1e-6
    return spectrum(ws, ws.factors, ws.column_classes, thetas)


def copy_a_column_block(ws):
    """The first class's columns twice, the copy after the last class."""
    first = ws.column_classes == ws.column_classes[0]
    W = np.hstack([ws.factors, ws.factors[:, first]])
    return spectrum(ws, W, np.append(ws.column_classes, ws.column_classes[first]),
                    np.append(ws.column_thetas, ws.column_thetas[first]))


#: each corruption and the certificate key that must reject it
CORRUPTIONS = {
    drop_a_column: "sign",
    scale_a_column: "gram",
    add_noise_to_a_column: "eigen",
    shift_the_angle_of_a_column: "eigen",
    copy_a_column_block: "gram",
}


def assert_both_reject(dec, arcs, bad, key):
    certificate = walk_spectrum_residuals(dec, arcs, bad)
    assert key in rejected(certificate), certificate
    oracle = full_walk_spectrum_residuals(dec, arcs, bad)
    assert rejected(oracle), oracle


@pytest.mark.parametrize("name", ("k4", "petersen", "rook4", "random-20-4"))
@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
def test_both_reject_each_corruption(name, corrupt):
    dec, arcs, ws = spectrum_of(name)
    assert_both_reject(dec, arcs, corrupt(ws), CORRUPTIONS[corrupt])


@pytest.mark.parametrize("name", ("petersen", "rook4", "rook:6", "complement:rook:4"))
def test_both_reject_a_column_dropped_from_the_middle(name):
    """petersen, rook:4, rook:6 and complement:rook:4 lose the last column
    of their first angle class (multiplicity 5, 6, 10 and 9), which another
    class follows: the probes of ``sign`` see the eigenvector missing from
    the complement."""
    dec, arcs, ws = spectrum_of(name)
    bad = drop_a_middle_column(ws)
    assert bad.factors.shape[1] == ws.factors.shape[1] - 1
    assert_both_reject(dec, arcs, bad, "sign")


def test_no_library_path_forms_an_m_by_m_array(monkeypatch):
    """On rook:6 (m = 360) with the limit below one real m x m array, the
    certified build, both evolutions, the projection route and the direct
    cospectrality route run, and no field of the spectrum is m x m. Each
    call on one vector, and the build, peaks below that array; the start
    block is an m x n array itself, a tenth of one."""
    g = resolve_builtin("rook:6")
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    m = arcs.num_arcs
    square = 8 * m * m
    monkeypatch.setattr(spectra, "MAX_SPECTRUM_BYTES", square - 1)
    ws = walk_spectrum(dec, arcs)
    assert max(ws.residuals.values()) <= TAU_WALK
    for f in dataclasses.fields(ws):
        assert np.shape(getattr(ws, f.name)) != (m, m), f.name
    start_block = np.eye(arcs.n)[arcs.tails] / np.sqrt(arcs.k)
    assert evolve_operator(ws, start_block, 3).shape == (m, arcs.n)
    x = initial_state(arcs, 0)
    calls = {
        "build": lambda: walk_spectrum(dec, arcs),
        "evolve": lambda: evolve(ws, x, 2.5),
        "evolve_by_projections": lambda: evolve_by_projections(dec, arcs, x.amplitudes, 2.5),
        "direct": lambda: check_strong_cospectrality_direct(ws, x, evolve(ws, x, 3)),
    }
    for name, call in calls.items():
        call()  # first calls allocate caches
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < square, (name, peak)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_evolution_matches_the_dense_projections(name):
    """evolve, evolve_operator and evolve_by_projections against
    sum_P mu^t P x over the dense projections, at integer, half-integer and
    two other times."""
    dec, arcs, ws = spectrum_of(name)
    projections = [P for _, P in walk_projections(ws)]
    mus = [1.0, -1.0] + [np.exp(s * 1j * theta) for _, theta, _ in pair_projections(ws)
                         for s in (1, -1)]
    start_block = np.eye(arcs.n)[arcs.tails] / np.sqrt(arcs.k)
    for t in (0, 1, 4, 0.5, 3.5, 0.3, 7.7):
        # the principal branch of mu^t, with (-1)^t = e^{i pi t}
        powers = np.exp(1j * t * np.angle(mus))
        dense = sum(power * P for power, P in zip(powers, projections)) @ start_block
        np.testing.assert_allclose(evolve_operator(ws, start_block, t), dense, rtol=0, atol=1e-12)
        for a in (0, arcs.n - 1):
            x = initial_state(arcs, a)
            np.testing.assert_allclose(evolve(ws, x, t).amplitudes, dense[:, a],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(evolve_by_projections(dec, arcs, x.amplitudes, t),
                                       dense[:, a], rtol=0, atol=1e-12)


def test_a_certified_rook_16_build_is_admitted():
    """rook:16 (m = 7680, N = 255): W is 31 MB and the certificate is
    O(m N), so the build fits the default limit and passes TAU_WALK; one
    real m x m array of ``sign`` took 472 MB of the 599 MiB it was refused
    at."""
    dec, arcs = build("rook:16")
    ws = walk_spectrum(dec, arcs)
    assert ws.factors.shape == (7680, 255)
    assert list(ws.residuals) == ["gram", "eigen", "correspondence", "sign", "unitarity"]
    assert max(ws.residuals.values()) <= TAU_WALK
