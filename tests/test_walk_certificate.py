"""The walk spectrum certificate on W against the dense projection suite.

``walk_spectrum_residuals`` checks the arc eigenvectors W themselves:
``gram``, ``eigen``, ``correspondence`` and ``sign`` (U^2 = I on the
complement of W), in O(m N) but for the one real m x m array behind
``sign``. The dense suite of ``conftest.full_walk_spectrum_residuals``
forms every projection, F_{+-1} included. Both must accept the clean W
and reject each corruption of it; and no library path but ``sign`` forms
an m x m array.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from arcwalk import (
    EigenphasePair,
    WalkSpectrum,
    build_arc_space,
    check_strong_cospectrality_direct,
    eigendecompose_symmetric,
    evolve,
    evolve_by_projections,
    evolve_operator,
    initial_state,
    walk,
    walk_spectrum,
    walk_spectrum_residuals,
)
from arcwalk.cli import resolve_builtin
from arcwalk.walk import TAU_WALK

from conftest import ALL_GRAPHS, full_walk_spectrum_residuals, walk_projections
from test_arc_index import random_regular_graphs
from test_eigenvector_coordinates import build


def spectrum_of(name):
    """dec, arcs and the unverified walk spectrum of a named graph."""
    dec, arcs = build(name)
    return dec, arcs, walk_spectrum(dec, arcs, verify=False)


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
    assert_both_accept(dec, arcs, walk_spectrum(dec, arcs, verify=False))


def spectrum(ws, W, blocks):
    """A WalkSpectrum on the arcs of ws over the columns of W, cut into
    pairs by ``blocks`` of (class index, theta, column count)."""
    pairs, lo = [], 0
    for index, theta, size in blocks:
        pairs.append(EigenphasePair(index=index, theta=theta, factor=W[:, lo : lo + size]))
        lo += size
    return WalkSpectrum(arc_space=ws.arc_space, factors=W, pairs=tuple(pairs))


def blocks_of(ws):
    return [(pair.index, pair.theta, pair.factor.shape[1]) for pair in ws.pairs]


def drop_a_column(ws):
    """A missing eigenvector: the last column of W."""
    blocks = blocks_of(ws)
    index, theta, size = blocks.pop()
    return spectrum(ws, ws.factors[:, :-1], blocks + [(index, theta, size - 1)] * (size > 1))


def scale_a_column(ws):
    W = ws.factors.copy()
    W[:, 0] *= 1.0 + 1e-6
    return spectrum(ws, W, blocks_of(ws))


def add_noise_to_a_column(ws):
    W = ws.factors.copy()
    W[:, 0] += 1e-6 * np.random.default_rng(3).standard_normal(len(W))
    return spectrum(ws, W, blocks_of(ws))


def shift_the_angle_of_a_column(ws):
    """The first column of W as a pair of its own, its angle 1e-6 off."""
    (index, theta, size), *rest = blocks_of(ws)
    blocks = [(index, theta + 1e-6, 1)] + [(index, theta, size - 1)] * (size > 1) + rest
    return spectrum(ws, ws.factors, blocks)


def copy_a_column_block(ws):
    """The first pair's columns twice."""
    blocks = blocks_of(ws)
    W = np.hstack([ws.factors, ws.factors[:, : blocks[0][2]]])
    return spectrum(ws, W, blocks + blocks[:1])


#: each corruption and the certificate key that must reject it
CORRUPTIONS = {
    drop_a_column: "sign",
    scale_a_column: "gram",
    add_noise_to_a_column: "eigen",
    shift_the_angle_of_a_column: "eigen",
    copy_a_column_block: "gram",
}


@pytest.mark.parametrize("name", ("k4", "petersen", "rook4", "random-20-4"))
@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
def test_both_reject_each_corruption(name, corrupt):
    dec, arcs, ws = spectrum_of(name)
    bad = corrupt(ws)
    certificate = walk_spectrum_residuals(dec, arcs, bad)
    assert CORRUPTIONS[corrupt] in rejected(certificate), certificate
    oracle = full_walk_spectrum_residuals(dec, arcs, bad)
    assert rejected(oracle), oracle


def test_no_library_path_forms_an_m_by_m_array(monkeypatch):
    """On rook:6 (m = 360) with the limit below one real m x m array, the
    unverified build, both evolutions, the projection route and the direct
    cospectrality route run, and no field of the spectrum or of its pairs
    is m x m. Each call on one vector peaks below that array; the start
    block is an m x n array itself, a tenth of one. The verified build,
    which needs the array for ``sign``, is refused."""
    g = resolve_builtin("rook:6")
    dec, arcs = eigendecompose_symmetric(g), build_arc_space(g)
    m = arcs.num_arcs
    square = 8 * m * m
    monkeypatch.setattr(walk, "MAX_SPECTRUM_BYTES", square - 1)
    with pytest.raises(ValueError, match="over the limit"):
        walk_spectrum(dec, arcs)
    ws = walk_spectrum(dec, arcs, verify=False)
    for holder in (ws, *ws.pairs):
        for f in dataclasses.fields(holder):
            assert np.shape(getattr(holder, f.name)) != (m, m), f.name
    start_block = np.eye(arcs.n)[arcs.tails] / np.sqrt(arcs.k)
    assert evolve_operator(ws, start_block, 3).shape == (m, arcs.n)
    x = initial_state(arcs, 0)
    calls = {
        "build": lambda: walk_spectrum(dec, arcs, verify=False),
        "evolve": lambda: evolve(ws, x, 2.5),
        "evolve_by_projections": lambda: evolve_by_projections(dec, arcs, x.amplitudes.real, 2.5),
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
    mus = [1.0, -1.0] + [np.exp(s * 1j * pair.theta) for pair in ws.pairs for s in (1, -1)]
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
            np.testing.assert_allclose(evolve_by_projections(dec, arcs, x.amplitudes.real, t),
                                       dense[:, a], rtol=0, atol=1e-12)
