"""``mix`` on a strongly regular or complete graph with integer eigenvalues
takes the scheme route: its decomposition comes from the SRG parameters,
with no eigh.

The dense route, over eigh, is the oracle. ``test_mix_output_parity.py``
pins its bytes with the scheme route switched off; here the same command
lines run on the scheme route must print the same output except for the
residuals and gamma, which are float sums taken over other idempotents.
"""

import itertools
import json
import re

import networkx as nx
import numpy as np
import pytest

from arcwalk import (
    NOT_SRG,
    build_arc_space,
    eigendecompose_symmetric,
    from_edge_list,
    graph_from_adjacency,
    hadamard_search,
    initial_state,
    mixing,
    read_edge_list,
    spectra,
    validate_srg,
    walk_spectrum,
    write_edge_list,
)
from arcwalk.cli import main, resolve_builtin
from arcwalk.cospec import check_strong_cospectrality
from arcwalk.spectra import COMPLETENESS_TOL, TAU_SPEC, srg_decomposition
from arcwalk.walk import evolve_by_projections
from conftest import scheme_stack
from test_mix_output_parity import FROZEN, mix_argvs, split_route

#: how far the scheme route's residuals and gamma may lie from the dense route's
TOL = 1e-12
FLOAT_FIELDS = ("residual", "walk_residual", "gamma")
FLOAT_LINES = ("gamma = ", "residual = ", "walk residual = ")
NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")

#: the strongly regular and complete builtins of order <= 256, with their complements
SRG_BUILTINS = (
    ["k4", "k5", "k16", "k36"]
    + [f"rook:{q}" for q in range(3, 17)]
    + ["petersen"]
    + [f"hadamard-srg:{m}" for m in (2, 4, 8)]
    + [f"complement:rook:{q}" for q in range(3, 17)]
    + ["complement:petersen"]
    + [f"complement:hadamard-srg:{m}" for m in (2, 4, 8)]
)


def octahedron():
    """K_{2,2,2}: K_6 less a perfect matching, SRG(6, 4, 2, 4)."""
    matching = np.kron(np.eye(3, dtype=np.int64), 1 - np.eye(2, dtype=np.int64))
    return graph_from_adjacency(1 - np.eye(6, dtype=np.int64) - matching, name="octahedron")


def triangular_edge_file(tmp_path, q):
    """The line graph of K_q, SRG(q(q-1)/2, 2(q-2), q-2, 4), as an edge-list file."""
    g = nx.convert_node_labels_to_integers(nx.line_graph(nx.complete_graph(q)))
    path = tmp_path / f"triangular-{q}.txt"
    path.write_text(write_edge_list(from_edge_list(g.edges(), g.number_of_nodes())))
    return path


def refuse(g, tau_group=None):
    raise AssertionError("the dense eigendecomposition ran")


@pytest.fixture
def no_eigh(monkeypatch):
    monkeypatch.setattr(mixing, "eigendecompose_symmetric", refuse)


def assert_same_output(argv, out, dense):
    """``out`` is ``dense`` up to TOL in the residuals and gamma."""
    if "json" in argv:
        got, want = json.loads(out), json.loads(dense)
        for key in FLOAT_FIELDS:
            a, b = got.pop(key), want.pop(key)
            assert (a is None) == (b is None), key
            if a is not None:
                assert np.allclose(a, b, rtol=0.0, atol=TOL), key
        assert got == want
        return
    got, want = out.splitlines(), dense.splitlines()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if a.startswith(FLOAT_LINES):
            assert a.split("=")[0] == b.split("=")[0]
            x, y = (np.array(NUMBER.findall(s.split("=")[1]), dtype=float) for s in (a, b))
            assert np.allclose(x, y, rtol=0.0, atol=TOL), (a, b)
        else:
            assert a == b


@pytest.mark.parametrize("argv", list(mix_argvs()), ids=" ".join)
def test_scheme_route_matches_the_frozen_dense_output(argv, capsys, no_eigh):
    frozen = FROZEN[" ".join(argv)]
    code = main(argv)
    route, out = split_route(capsys.readouterr().out)
    assert route == mixing.ROUTE_SCHEME
    assert code == frozen["code"]
    assert_same_output(argv, out, frozen["stdout"])


@pytest.mark.parametrize("q", range(4, 10))
@pytest.mark.parametrize("start", [["--vertex", "3"], ["--simultaneous"]])
@pytest.mark.parametrize("fmt", [["--format", "json", "--emit-matrix"], ["--format", "text"]])
def test_line_graphs_of_complete_graphs_read_from_edges(q, start, fmt, tmp_path, capsys,
                                                        monkeypatch):
    """T(q) read through ``--edges`` takes the scheme route with no eigh and
    prints what the dense route prints."""
    argv = ["mix", "--edges", str(triangular_edge_file(tmp_path, q)), "--epsilon", "0.05",
            *start, *fmt]
    with monkeypatch.context() as patch:
        patch.setattr(mixing, "srg_decomposition", lambda g: None)
        dense_code = main(argv)
        dense_route, dense = split_route(capsys.readouterr().out)
    assert dense_route == mixing.ROUTE_DENSE
    monkeypatch.setattr(mixing, "eigendecompose_symmetric", refuse)
    code = main(argv)
    route, out = split_route(capsys.readouterr().out)
    assert (route, code) == (mixing.ROUTE_SCHEME, dense_code)
    assert code in (0, 1)
    assert_same_output(argv, out, dense)


def scheme_graphs(tmp_path):
    yield from (resolve_builtin(name) for name in SRG_BUILTINS)
    yield octahedron()
    for q in range(4, 10):
        yield read_edge_list(triangular_edge_file(tmp_path, q))


def test_scheme_search_matches_the_dense_search(tmp_path):
    """On every scheme graph the record agrees with eigh's: the idempotent
    stack built from its R and P (``scheme_stack``) is eigh's stack, and
    hadamard_search on the record gives the same patterns and the same H
    as over the dense idempotents."""
    certified = 0
    for g in scheme_graphs(tmp_path):
        scheme, dense = srg_decomposition(g), eigendecompose_symmetric(g)
        assert scheme is not None and scheme.vectors is None, g.name
        assert scheme.idempotents is None, g.name
        assert np.array_equal(scheme.multiplicities, dense.multiplicities), g.name
        assert np.allclose(scheme.eigenvalues, dense.eigenvalues, rtol=0.0, atol=1e-9)
        assert np.allclose(scheme_stack(scheme), dense.idempotents, rtol=0.0, atol=1e-12)
        assert scheme.residuals["completeness"] <= COMPLETENESS_TOL
        assert scheme.residuals["reconstruction"] <= TAU_SPEC
        got, want = hadamard_search(scheme), hadamard_search(dense)
        assert [c.pattern for c in got] == [c.pattern for c in want], g.name
        for a, b in zip(got, want):
            assert np.array_equal(a.matrix, b.matrix) and a.row_sum == b.row_sum, g.name
        certified += bool(got)
    assert certified >= 6


def paley(q):
    """Paley(q) for a prime q = 1 mod 4, a conference graph
    SRG(q, (q-1)/2, (q-5)/4, (q-1)/4) with eigenvalues (-1 +- sqrt q) / 2."""
    squares = {x * x % q for x in range(1, q)}
    return from_edge_list([(u, v) for u, v in itertools.combinations(range(q), 2)
                           if (v - u) % q in squares], q)


@pytest.mark.parametrize("q", [5, 13, 17, 29])
def test_conference_graphs_skip_the_exact_product(q, monkeypatch):
    """Their discriminant q is not a square, and it is read from the column
    screen: no record, and the O(n^3) SRG identity is never formed."""
    def refuse(*args):
        raise AssertionError("the full product A^2 was formed")

    g = paley(q)
    assert validate_srg(g) != NOT_SRG
    monkeypatch.setattr(spectra, "srg_identity", refuse)
    assert srg_decomposition(g) is None


def test_paley_13_stays_on_the_dense_route(tmp_path, capsys):
    """Paley(13), SRG(13, 6, 2, 3): no scheme record, and ``mix`` answers
    as before."""
    g = paley(13)
    assert srg_decomposition(g) is None
    path = tmp_path / "paley13.txt"
    path.write_text(write_edge_list(g))
    assert main(["mix", "--edges", str(path)]) == 1
    route, out = split_route(capsys.readouterr().out)
    assert route == mixing.ROUTE_DENSE
    assert out.splitlines()[1:] == [
        "mode=integer epsilon=0.01 vertex=0",
        "support: [0, 1, 2]",
        "note: graph is walk-regular (every spectral idempotent has a constant diagonal), "
        "so the certificate, mixing time and residual do not depend on the start vertex",
        "note: order 13 is not 1 or an even square 4u^2, the orders of regular Hadamard "
        "matrices, so no flat sign combination can exist",
    ]


@pytest.mark.parametrize("name", ["cycle:5", "cycle:6", "rook:2", "c7"])
def test_no_record_off_the_certified_graphs(name):
    """C_5 has irrational eigenvalues, C_6 and rook:2 = C_4 are bipartite,
    and C_7 is not strongly regular."""
    assert srg_decomposition(resolve_builtin(name)) is None


def test_a_record_without_eigenvectors_is_refused_where_they_are_read():
    g = resolve_builtin("rook:4")
    dec, arcs = srg_decomposition(g), build_arc_space(g)
    x = initial_state(arcs, 0)
    calls = (
        lambda: walk_spectrum(dec, arcs),
        lambda: evolve_by_projections(dec, arcs, x.amplitudes.real, 1.0),
        lambda: check_strong_cospectrality(dec, arcs, 0, x),
    )
    for call in calls:
        with pytest.raises(ValueError, match="SRG parameters holds no eigenvectors"):
            call()
