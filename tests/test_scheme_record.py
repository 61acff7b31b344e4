"""The scheme record's fast paths against the idempotent stack.

A record of :func:`arcwalk.spectra.srg_decomposition` holds the relation
matrix R and the eigenmatrix P, and no idempotent. Here every reader of it
is compared, on every graph of ``test_scheme_route.scheme_graphs``, with the
same reader on the (d + 1, n, n) stack built from R and P
(``conftest.scheme_stack``), which takes the branch of a record of eigh:

- the P h certificates of the Hadamard search pass the exact validator and
  give the dense search's patterns, H and row sums;
- the O(d) gamma and residual match the n x n ones, summed exactly
  (``conftest.stack_distance_to_target``), within 1e-12, from vertex 0,
  from vertex n // 2 and from every vertex at once;
- ``entry_parts``, ``relation_parts`` and ``check_closed_form`` match
  within 1e-12.

Also pinned: ``mix`` answers from the order of regular Hadamard matrices
when the decomposition is refused for its size, the scheme route's debug
log, and that ``idempotents`` alone decides the route of a record.
"""

import json

import networkx as nx
import numpy as np
import pytest

from arcwalk import (
    DecompositionError,
    build_arc_space,
    check_closed_form,
    eigendecompose_symmetric,
    graph_from_adjacency,
    hadamard_search,
    mixing,
    probe_block,
    spectra,
    write_edge_list,
)
from arcwalk.cli import configure_logging, main, resolve_builtin
from arcwalk.graphs import check_regular_hadamard
from arcwalk.spectra import class_sums, srg_decomposition
from arcwalk.walk import entry_parts, relation_parts

from conftest import stack_distance_to_target, stack_record
from test_scheme_route import scheme_graphs

TOL = 1e-12
TIMES = (0, 1, 2.5, 171, 4331, 31884)


def records(tmp_path):
    """(graph, scheme record, the record of its stack oracle)."""
    for g in scheme_graphs(tmp_path):
        dec = srg_decomposition(g)
        yield g, dec, stack_record(dec)


def start_blocks(n):
    return (np.array([0]), np.array([n // 2]), slice(None))


def test_certificates_are_the_dense_search_certificates(tmp_path):
    certified = 0
    for g, dec, _ in records(tmp_path):
        got, want = hadamard_search(dec), hadamard_search(eigendecompose_symmetric(g))
        assert [c.pattern for c in got] == [c.pattern for c in want], g.name
        for a, b in zip(got, want):
            H, row_sum = check_regular_hadamard(a.matrix)
            assert np.array_equal(H, b.matrix) and row_sum == a.row_sum == b.row_sum, g.name
            assert a.symmetric and b.symmetric and not a.matrix.flags.writeable
        certified += bool(got)
    assert certified >= 6


def test_relation_distance_matches_the_dense_distance(tmp_path):
    checked = 0
    for g, dec, oracle in records(tmp_path):
        for cert in hadamard_search(dec):
            for starts in start_blocks(g.n):
                for t in TIMES:
                    gamma, residual = mixing._distance_to_target(dec, cert.matrix, starts, t)
                    want_gamma, want = stack_distance_to_target(oracle, cert.matrix, starts, t)
                    assert abs(gamma - want_gamma) < TOL, (g.name, t)
                    assert abs(residual - want) < TOL, (g.name, t)
                    checked += 1
    assert checked >= 6 * 3 * len(TIMES)


def test_entry_parts_match_the_stack(tmp_path):
    for g, dec, oracle in records(tmp_path):
        for starts in (0, g.n // 2, np.array([1, g.n - 1]), slice(None)):
            for t in TIMES:
                for scale in (None, dec.eigenvalues):
                    got = entry_parts(dec, starts, t, scale)
                    want = entry_parts(oracle, starts, t, scale)
                    for x, y in zip(got, want):
                        assert x.shape == y.shape
                        assert np.abs(x - y).max() < TOL, (g.name, t)


def test_closed_form_check_matches_the_stack(tmp_path):
    for g, dec, oracle in records(tmp_path):
        arcs = build_arc_space(g)
        for columns in (np.array([0]), np.array([g.n // 2]), probe_block(g.n)):
            got, want = check_closed_form(dec, arcs, columns), check_closed_form(oracle, arcs, columns)
            for key in want:
                assert abs(got[key] - want[key]) < TOL, (g.name, key)


def test_class_sums_match_the_stack(tmp_path):
    """Rows and products of a record against the stack, and the values of
    ``relation_parts`` gathered at R against ``entry_parts`` on the stack."""
    for g, dec, oracle in list(records(tmp_path))[:8]:
        classes = range(dec.num_classes)
        stack = oracle.idempotents
        assert np.abs(class_sums(dec, classes, starts=slice(None)) - stack).max() < TOL
        X = np.random.default_rng(2).standard_normal((g.n, 3))
        assert np.abs(class_sums(dec, classes, X=X) - stack @ X).max() < TOL
        weights = np.arange(2 * len(classes), dtype=float).reshape(2, -1)
        want = np.tensordot(weights, stack[:, [0, 2]], axes=1)
        assert np.abs(class_sums(dec, classes, weights, starts=[0, 2]) - want).max() < TOL
        for t in TIMES:
            tail, head, a_head = relation_parts(dec, t)[:, dec.relations]
            want_tail, want_head = entry_parts(oracle, slice(None), t)
            _, want_a_head = entry_parts(oracle, slice(None), t, dec.eigenvalues)
            for x, y in ((tail, want_tail), (head, want_head), (a_head, want_a_head)):
                assert np.abs(x - y).max() < TOL, (g.name, t)


def test_relation_products_come_in_blocks_of_rows(monkeypatch):
    """E_r X on a record forms A X from R a block of rows at a time; every
    block size matches the stack."""
    dec = srg_decomposition(resolve_builtin("rook:4"))
    n, classes = dec.n, range(dec.num_classes)
    X = np.random.default_rng(3).standard_normal((n, 2))
    want = stack_record(dec).idempotents @ X
    for rows in (1, 3, n - 1):
        monkeypatch.setattr(spectra, "RELATION_BLOCK_BYTES", 8 * n * rows)
        assert np.abs(class_sums(dec, classes, X=X) - want).max() < TOL


@pytest.mark.parametrize("rows, message", [
    (((1, 6, 9), (1, 1, -3), (1, -2, 1)), "fractional multiplicities"),
    (((1, 6, 9), (1, 0, -3), (1, -2, 1)), "fails the orthogonality relations"),
])
def test_an_eigenmatrix_off_the_scheme_is_refused(rows, message):
    """rook:4's P, (1, 6, 9), (1, 2, -3), (1, -2, 1), with one entry moved:
    the multiplicities it gives are not integers, or they are and Q P = nI
    fails."""
    R = srg_decomposition(resolve_builtin("rook:4")).relations.copy()
    with pytest.raises(DecompositionError, match=message):
        spectra._scheme_record(16, 6, R, rows)


def cubic_512_file(tmp_path):
    h = nx.random_regular_graph(3, 512, seed=1)
    path = tmp_path / "cubic-512.edges"
    path.write_text(write_edge_list(graph_from_adjacency(nx.to_numpy_array(h, dtype=np.int64))))
    return path


REFUSED = ("the spectral decomposition was refused for its size: idempotents of 512 classes "
           "on 512 vertices need 1024 MiB, over the limit of 512 MiB")
ORDER = ("order 512 is not 1 or an even square 4u^2, the orders of regular Hadamard matrices, "
         "so no flat sign combination can exist")


def test_mix_answers_from_the_order_when_the_decomposition_is_refused(tmp_path, capsys):
    path = str(cubic_512_file(tmp_path))
    assert main(["mix", "--edges", path]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        f"graph {path}: verdict no-flat-target",
        "mode=integer epsilon=0.01 vertex=0",
        "route: dense",
        "support: None",
        f"note: {REFUSED}",
        f"note: {ORDER}",
    ]
    assert main(["mix", "--edges", path, "--simultaneous", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "graph": path, "vertex": None, "mode": "integer", "epsilon": 0.01,
        "certificate": None, "kronecker": None, "t": None, "gamma": None, "residual": None,
        "walk_residual": None, "verdict": "no-flat-target", "support": None,
        "notes": [REFUSED, ORDER], "route": "dense",
    }


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_debug_log_shows_the_record_and_each_pattern(fmt, capsys):
    argv = ["mix", "--builtin", "rook:4", "--format", fmt, "--epsilon", "0.1"]
    assert main(argv) == 0
    quiet = capsys.readouterr()
    try:
        assert main([*argv, "--log-level", "debug"]) == 0
    finally:
        configure_logging("warning")
    loud = capsys.readouterr()
    assert loud.out == quiet.out and quiet.err == ""
    lines = loud.err.splitlines()
    assert ("DEBUG arcwalk.spectra: scheme record of rook:4: n=16 k=6 lambda=2 mu=2 "
            "P=[[1, 6, 9], [1, 2, -3], [1, -2, 1]] multiplicities=[1, 6, 9]") in lines
    patterns = [line for line in lines if line.startswith("DEBUG arcwalk.mixing: pattern ")]
    assert len(patterns) == 4
    assert sum(line.endswith(", accepted") for line in patterns) == 1
    assert all("h = [" in line and "P h = [" in line for line in patterns)


@pytest.mark.parametrize("simultaneous", [False, True])
def test_a_record_with_idempotents_takes_the_dense_route_throughout(simultaneous, monkeypatch):
    """Whether a record holds idempotents alone decides its route. The stack
    oracle's record keeps the scheme's intersection numbers and has no
    eigenvectors, and mix reads it as a record of eigh at every step: the
    dense route, with the closed form checked on the arc space, and the
    scheme record's certificate, time and verdict."""
    g = resolve_builtin("rook:4")

    def run():
        if simultaneous:
            return mixing.simultaneous_mixing_check(g, 0.1, "integer")
        return mixing.local_mixing_report(g, 0, 0.1, "integer")

    want = run()
    oracle = stack_record(srg_decomposition(g))
    assert oracle.vectors is None and oracle.intersections is not None
    monkeypatch.setattr(mixing, "srg_decomposition", lambda _: oracle)
    calls = []
    for name in ("check_closed_form", "check_type_closed_form"):
        def counted(*args, _name=name, _original=getattr(mixing, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(mixing, name, counted)
    got = run()
    assert (want.route, got.route) == ("scheme", "dense")
    assert calls == ["check_closed_form"]
    assert got.certificate.pattern == want.certificate.pattern
    assert (got.verdict, got.t) == (want.verdict, want.t) == ("success", 23.0)
    assert abs(got.residual - want.residual) < TOL
