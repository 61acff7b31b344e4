"""The scheme route's closed-form check on the arc types against the arcs.

``walk.check_type_closed_form`` takes the residuals of
``walk.check_closed_form`` from the (d + 1)^2 arc types of a start and the
intersection numbers of the scheme record, with no arc space. Here the
arc-level check on ``build_arc_space(g)`` is the oracle, on every graph of
``test_scheme_route.SRG_BUILTINS``, the octahedron and a triangular graph
read from an edge file, and the record's intersection numbers are counted
off R and the adjacency. ``mix`` on the scheme route must reach its
verdicts with the arc space, the probes and the arc-level check refused,
and the dense route must still run them.
"""

import logging
import tracemalloc

import numpy as np
import pytest

from arcwalk import (
    DecompositionError,
    WalkSpectrumError,
    build_arc_space,
    check_closed_form,
    check_type_closed_form,
    local_mixing_report,
    mixing,
    read_edge_list,
    simultaneous_mixing_check,
    spectra,
    walk,
)
from arcwalk.cli import resolve_builtin
from arcwalk.spectra import srg_decomposition
from arcwalk.walk import TAU_WALK

from test_closed_form import FLAT_GRAPHS, flipped_weights
from test_scheme_route import SRG_BUILTINS, octahedron, triangular_edge_file

TOL = 1e-12


def graphs(tmp_path):
    yield from (resolve_builtin(name) for name in SRG_BUILTINS)
    yield octahedron()
    yield read_edge_list(triangular_edge_file(tmp_path, 6))


def test_type_residuals_match_the_arc_check(tmp_path):
    for g in graphs(tmp_path):
        dec, arcs = srg_decomposition(g), build_arc_space(g)
        got = check_type_closed_form(dec)
        assert max(got.values()) <= TAU_WALK, g.name
        for start in (0, g.n - 1):
            want = check_closed_form(dec, arcs, [start])
            assert max(want.values()) <= TAU_WALK, g.name
            for key in want:
                assert abs(got[key] - want[key]) < TOL, (g.name, start, key)


def test_intersection_numbers_are_the_neighbour_counts(tmp_path):
    """p^i_1j is the number of neighbours in relation j to a of any vertex
    in relation i to a, read off R and the adjacency at a = 0 and n - 1."""
    for g in graphs(tmp_path):
        dec = srg_decomposition(g)
        L, R, d = dec.intersections, dec.relations, dec.num_classes
        assert L.dtype == np.int64 and not L.flags.writeable
        arcs = dec.valencies[:, None] * L
        assert np.array_equal(arcs, arcs.T) and arcs.sum() == g.n * g.degree, g.name
        for a in (0, g.n - 1):
            # counts[u, j]: the neighbours of u in relation j to a
            counts = np.stack([g.adjacency @ (R[:, a] == j) for j in range(d)], axis=1)
            assert np.array_equal(counts, L[R[:, a]]), (g.name, a)


def test_an_eigenmatrix_with_fractional_intersection_numbers_is_refused():
    """P on 7 vertices with rows (1, 2, 2, 2), (1, 1, -2, 0), (1, 0, 1, -2),
    (1, -2, 0, 1): the multiplicities 1, 2, 2, 2 are integers and pass the
    orthogonality relations, but p^1_11 = -3/7."""
    rows = ((1, 2, 2, 2), (1, 1, -2, 0), (1, 0, 1, -2), (1, -2, 0, 1))
    R = np.minimum(np.abs(np.subtract.outer(np.arange(7), np.arange(7))), 3).astype(np.int8)
    with pytest.raises(ValueError, match="fractional intersection numbers"):
        spectra._scheme_record(7, 2, R, rows)


def test_intersection_numbers_that_are_not_counts_are_refused():
    """P on 21 vertices with rows (1, 4, 16), (1, 1, -2), (1, -3, 2) passes
    the orthogonality relations with integer multiplicities 1, 14, 6, but
    gives p^1_11 = -1."""
    R = np.zeros((21, 21), dtype=np.int8)
    with pytest.raises(DecompositionError, match="not counts of a graph of valency 4"):
        spectra._scheme_record(21, 4, R, ((1, 4, 16), (1, 1, -2), (1, -3, 2)))


def refuse(*args, **kwargs):
    raise AssertionError("the arc-level closed-form check ran")


@pytest.mark.parametrize("name", FLAT_GRAPHS[:4])
def test_scheme_route_runs_no_arc_check(name, monkeypatch):
    g = resolve_builtin(name)
    with monkeypatch.context() as patch:
        patch.setattr(mixing, "srg_decomposition", lambda g: None)
        dense = [local_mixing_report(g, 0, 0.1, "integer"),
                 simultaneous_mixing_check(g, 0.1, "integer")]
    for attr in ("build_arc_space", "probe_block", "check_closed_form"):
        monkeypatch.setattr(mixing, attr, refuse)
    scheme = [local_mixing_report(g, 0, 0.1, "integer"),
              simultaneous_mixing_check(g, 0.1, "integer")]
    for got, want in zip(scheme, dense):
        assert (got.route, want.route) == (mixing.ROUTE_SCHEME, mixing.ROUTE_DENSE)
        assert (got.verdict, got.t) == (want.verdict, want.t) and got.verdict == "success"
        assert abs(got.walk_residual - want.walk_residual) < TOL


@pytest.mark.parametrize("name", FLAT_GRAPHS[:4])
def test_dense_route_still_runs_the_arc_check(name, monkeypatch):
    calls = []
    for attr in ("build_arc_space", "probe_block", "check_closed_form"):
        def counted(*args, attr=attr, real=getattr(mixing, attr)):
            calls.append(attr)
            return real(*args)
        monkeypatch.setattr(mixing, attr, counted)
    monkeypatch.setattr(mixing, "srg_decomposition", lambda g: None)
    g = resolve_builtin(name)
    local_mixing_report(g, 0, 0.1, "integer")
    assert calls == ["build_arc_space", "check_closed_form"]
    simultaneous_mixing_check(g, 0.1, "integer")
    assert calls[2:] == ["probe_block", "build_arc_space", "check_closed_form"]


@pytest.mark.parametrize("name", SRG_BUILTINS)
def test_type_check_catches_a_flipped_weight(name, monkeypatch):
    dec = srg_decomposition(resolve_builtin(name))
    monkeypatch.setattr(walk, "_class_weights", flipped_weights)
    with pytest.raises(WalkSpectrumError, match="eigen") as info:
        check_type_closed_form(dec)
    assert info.value.residuals["eigen"] > 1e-3


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_simultaneous_run_peaks_as_a_local_run():
    """On hadamard-srg:16 (m = 540672) every start is checked at the cost of
    one: the simultaneous run peaks within 10% of the local run."""
    g = resolve_builtin("hadamard-srg:16")
    local = traced_peak(lambda: local_mixing_report(g, 0, 0.01, "integer"))
    every = traced_peak(lambda: simultaneous_mixing_check(g, 0.01, "integer"))
    assert every <= 1.1 * local


def test_debug_log_shows_the_arc_types(caplog):
    g = resolve_builtin("rook:4")
    caplog.set_level(logging.INFO, logger="arcwalk.mixing")
    local_mixing_report(g, 0, 0.1, "integer")
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="arcwalk.mixing")
    report = simultaneous_mixing_check(g, 0.1, "integer")
    (line,) = [r.getMessage() for r in caplog.records if "arc types" in r.getMessage()]
    table, residuals = line.split(": ", 1)[1].split("; ")
    assert table == "(0, 1): 6, (1, 0): 6, (1, 1): 12, (1, 2): 18, (2, 1): 18, (2, 2): 36"
    eigen, start = (float(part.split("=")[1]) for part in residuals.split())
    assert max(eigen, start) == pytest.approx(report.walk_residual, rel=1e-3)
