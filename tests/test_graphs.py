import itertools
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcwalk import (
    COMPLETE,
    NOT_SRG,
    SRGParams,
    complement,
    complete_graph,
    cycle_graph,
    from_edge_list,
    graph_from_adjacency,
    parse_edge_list,
    petersen_graph,
    read_edge_list,
    rook_graph,
    srg_from_regular_hadamard,
    validate_srg,
    write_edge_list,
)
from arcwalk import graphs
from arcwalk.cli import resolve_builtin
from conftest import full_srg_check, loop_builtin_adjacency, loop_rook_adjacency


def count_srg_params(g):
    """Independent oracle: common-neighbor counting over adjacency sets."""
    nbrs = [set(np.flatnonzero(g.adjacency[v]).tolist()) for v in range(g.n)]
    a_counts, c_counts = set(), set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = len(nbrs[u] & nbrs[v])
            if g.adjacency[u, v]:
                a_counts.add(common)
            else:
                c_counts.add(common)
    if len(a_counts) != 1 or len(c_counts) != 1:
        return None
    return (g.n, g.degree, a_counts.pop(), c_counts.pop())


def test_complete_graph_structure():
    g = complete_graph(4)
    assert g.n == 4 and g.degree == 3
    assert g.is_connected and not g.is_bipartite
    assert g.num_edges == 6
    assert np.array_equal(g.adjacency, np.ones((4, 4), int) - np.eye(4, dtype=int))


def test_cycle_graph_structure():
    g = cycle_graph(4)
    assert g.degree == 2 and g.is_connected and g.is_bipartite
    chi = g.color_class
    assert chi is not None
    # endpoints of every edge get opposite colors
    for u, v in zip(*np.nonzero(g.adjacency)):
        assert chi[u] * chi[v] == -1
    assert not cycle_graph(5).is_bipartite


def test_petersen_structure():
    g = petersen_graph()
    assert g.n == 10 and g.degree == 3
    assert g.is_connected and not g.is_bipartite
    assert g.num_edges == 15


def test_rook_graph_structure():
    g = rook_graph(4)
    assert g.n == 16 and g.degree == 6 and g.is_connected
    # cells (0,0) and (0,1) share a row; (0,0) and (1,1) share nothing
    assert g.adjacency[0, 1] == 1
    assert g.adjacency[0, 5] == 0


def test_adjacency_is_frozen():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: rook_graph(4), (16, 6, 2, 2)),
        (lambda: rook_graph(3), (9, 4, 1, 2)),
        (petersen_graph, (10, 3, 0, 1)),
        (lambda: cycle_graph(4), (4, 2, 0, 2)),
    ],
)
def test_validate_srg_against_counting_oracle(build, expected):
    g = build()
    assert count_srg_params(g) == expected
    verdict = validate_srg(g)
    assert isinstance(verdict, SRGParams)
    assert verdict.as_tuple() == expected


def test_validate_srg_complete_and_negative():
    assert validate_srg(complete_graph(4)) == COMPLETE
    assert validate_srg(complete_graph(5)) == COMPLETE
    assert validate_srg(cycle_graph(6)) == NOT_SRG
    assert count_srg_params(cycle_graph(6)) is None


def test_validate_srg_rejects_irregular_and_disconnected():
    path = from_edge_list([(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError, match="regular"):
        validate_srg(path)
    two_edges = from_edge_list([(0, 1), (2, 3)], 4)
    with pytest.raises(ValueError, match="connected"):
        validate_srg(two_edges)


def test_complement_parameters():
    g = rook_graph(4)
    params = validate_srg(g).as_tuple()
    n, k, a, c = params
    expected = (n, n - k - 1, n - 2 - 2 * k + c, n - 2 * k + a)
    co = complement(g)
    assert validate_srg(co).as_tuple() == expected == (16, 9, 4, 6)
    assert count_srg_params(co) == expected


def test_complement_involution():
    g = petersen_graph()
    assert np.array_equal(complement(complement(g)).adjacency, g.adjacency)
    # complement of a complete graph has no edges at all
    assert complement(complete_graph(4)).num_edges == 0


def test_from_edge_list_rejects_bad_edges():
    with pytest.raises(ValueError, match=r"\(0, 4\)"):
        from_edge_list([(0, 4)], 3)
    with pytest.raises(ValueError, match=r"self-loop"):
        from_edge_list([(1, 1)], 3)


def test_from_edge_list_collapses_duplicates():
    g1 = from_edge_list([(0, 1), (1, 0), (0, 1), (1, 2)], 3)
    g2 = from_edge_list([(0, 1), (1, 2)], 3)
    assert np.array_equal(g1.adjacency, g2.adjacency)


def test_graph_from_adjacency_validation():
    with pytest.raises(ValueError, match="symmetric"):
        graph_from_adjacency([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="0 or 1"):
        graph_from_adjacency([[0, 2], [2, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        graph_from_adjacency([[1, 0], [0, 1]])


def test_parse_edge_list_round_trip():
    g = petersen_graph()
    text = write_edge_list(g)
    n, edges = parse_edge_list(text)
    assert n == g.n
    assert np.array_equal(from_edge_list(edges, n).adjacency, g.adjacency)


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="<string>:3"):
        parse_edge_list("3 2\n0 1\n1 2 9\n")
    with pytest.raises(ValueError, match="<string>:2"):
        parse_edge_list("# comment\nnot numbers\n")
    with pytest.raises(ValueError, match="declares 5"):
        parse_edge_list("3 5\n0 1\n")
    with pytest.raises(ValueError, match="empty"):
        parse_edge_list("# only comments\n")


def test_read_edge_list(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("4 4\n# a square\n0 1\n1 2\n2 3\n3 0\n")
    g = read_edge_list(path)
    assert np.array_equal(g.adjacency, cycle_graph(4).adjacency)


def test_srg_from_regular_hadamard_order_4():
    H = np.ones((4, 4), int) - 2 * np.eye(4, dtype=int)
    g = srg_from_regular_hadamard(H)
    assert np.array_equal(g.adjacency, complete_graph(4).adjacency)
    assert validate_srg(g) == COMPLETE


def test_srg_from_regular_hadamard_order_16():
    H4 = np.ones((4, 4), int) - 2 * np.eye(4, dtype=int)
    H = np.kron(H4, H4)
    g = srg_from_regular_hadamard(H)
    assert validate_srg(g).as_tuple() == (16, 6, 2, 2)
    assert count_srg_params(g) == (16, 6, 2, 2)


def test_check_regular_hadamard_rejections():
    H4 = np.ones((4, 4), int) - 2 * np.eye(4, dtype=int)
    with pytest.raises(ValueError, match="\\+1 or -1"):
        graphs.check_regular_hadamard(np.zeros((4, 4), int))
    with pytest.raises(ValueError, match="nI"):
        graphs.check_regular_hadamard(np.ones((4, 4), int))
    # order-2 Hadamard matrices have row sums 2 and 0
    with pytest.raises(ValueError, match="row sums"):
        graphs.check_regular_hadamard(np.array([[1, 1], [1, -1]]))
    assert graphs.check_regular_hadamard(np.array([[1]]))[1] == 1
    H, row_sum = graphs.check_regular_hadamard(np.kron(H4, H4))
    assert row_sum == 4 and H.dtype == np.int64 and not H.flags.writeable


def test_srg_from_regular_hadamard_rejections():
    H4 = np.ones((4, 4), int) - 2 * np.eye(4, dtype=int)
    with pytest.raises(ValueError, match="symmetric"):
        srg_from_regular_hadamard(np.array([[1, 1, 1, -1]] * 3 + [[1, -1, 1, 1]]))
    with pytest.raises(ValueError, match="nI"):
        srg_from_regular_hadamard(np.ones((4, 4), int))
    bad_diag = H4.copy()
    bad_diag[0, 0] = 1
    with pytest.raises(ValueError):
        srg_from_regular_hadamard(bad_diag)
    # order-2 Hadamard matrices are never regular
    with pytest.raises(ValueError, match="row sums"):
        srg_from_regular_hadamard(np.array([[1, 1], [1, -1]]))
    with pytest.raises(ValueError, match="\\+1 or -1"):
        srg_from_regular_hadamard(np.zeros((4, 4), int))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_from_edge_list_properties(data):
    n = data.draw(st.integers(3, 8))
    possible = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    g = from_edge_list(edges, n)
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert np.trace(g.adjacency) == 0
    assert set(np.unique(g.adjacency)) <= {0, 1}
    assert g.num_edges == len(set(edges))
    # ingestion is idempotent under duplication
    again = from_edge_list(edges + edges, n)
    assert np.array_equal(again.adjacency, g.adjacency)
    # serialize and re-ingest
    n2, edges2 = parse_edge_list(write_edge_list(g))
    assert np.array_equal(from_edge_list(edges2, n2).adjacency, g.adjacency)


def queue_color_components(adj):
    """Oracle for ``graphs._color_components``: a BFS with a Python queue,
    one vertex at a time."""
    n = adj.shape[0]
    colors = np.zeros(n, dtype=np.int64)
    bipartite = True
    components = 0
    for start in range(n):
        if colors[start] != 0:
            continue
        components += 1
        colors[start] = 1
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(adj[u]):
                if colors[v] == 0:
                    colors[v] = -colors[u]
                    queue.append(int(v))
                elif colors[v] == colors[u]:
                    bipartite = False
    return components == 1, bipartite, colors


def disjoint_union(*adjacencies):
    n = sum(len(A) for A in adjacencies)
    out, at = np.zeros((n, n), dtype=np.int64), 0
    for A in adjacencies:
        out[at : at + len(A), at : at + len(A)] = A
        at += len(A)
    return out


BFS_BUILTINS = (
    "k2", "k4", "k5", "cycle:3", "cycle:4", "cycle:9", "cycle:12", "rook:3", "rook:4",
    "rook:8", "petersen", "hadamard-srg:1", "hadamard-srg:2", "hadamard-srg:4",
    "hadamard-srg:8", "complement:k4", "complement:cycle:4", "complement:cycle:6",
    "complement:rook:3", "complement:petersen",
)


def bfs_cases():
    for name in BFS_BUILTINS:
        yield name, resolve_builtin(name).adjacency
    for n, k, seed in ((12, 3, 0), (16, 3, 1), (20, 4, 2), (24, 3, 3), (28, 4, 4), (10, 2, 5)):
        A = nx.to_numpy_array(nx.random_regular_graph(k, n, seed=seed), nodelist=range(n))
        yield f"random-{n}-{k}-{seed}", A.astype(np.int64)
    yield "odd-and-even-cycles", disjoint_union(*(cycle_graph(n).adjacency for n in (4, 5, 6)))
    yield "isolated-vertices", disjoint_union(np.zeros((2, 2), dtype=np.int64),
                                              cycle_graph(4).adjacency)
    yield "rook-and-petersen", disjoint_union(rook_graph(3).adjacency, petersen_graph().adjacency)


BFS_CASES = dict(bfs_cases())


@pytest.mark.parametrize("name", BFS_CASES)
def test_frontier_bfs_matches_the_queue_bfs(name):
    adjacency = BFS_CASES[name]
    connected, bipartite, colors = graphs._color_components(adjacency)
    want_connected, want_bipartite, want_colors = queue_color_components(adjacency)
    assert (connected, bipartite) == (want_connected, want_bipartite)
    assert np.array_equal(colors, want_colors)
    g = graph_from_adjacency(adjacency)
    assert (g.is_connected, g.is_bipartite) == (connected, bipartite)


@pytest.mark.parametrize("q", range(2, 13))
def test_rook_graph_matches_the_loop_form(q):
    assert np.array_equal(rook_graph(q).adjacency, loop_rook_adjacency(q))


BUILTIN_LABELS = (
    [f"k{n}" for n in range(2, 7)] + [f"cycle:{n}" for n in range(3, 10)]
    + [f"rook:{q}" for q in range(2, 9)] + ["petersen"]
    + [f"hadamard-srg:{m}" for m in (1, 2, 4, 8, 16)]
)


#: the builtins whose builder moved off the loop form: rook graphs, and every
#: complement (built once, under its own name), hadamard-srg:16 left out for size
LOOP_FORM_LABELS = (
    [label for label in BUILTIN_LABELS if label.startswith("rook:")]
    + [f"complement:{label}" for label in BUILTIN_LABELS if label != "hadamard-srg:16"]
)


@pytest.mark.parametrize("label", LOOP_FORM_LABELS)
def test_builtins_match_the_loop_form(label):
    g = resolve_builtin(label)
    want = loop_builtin_adjacency(label)
    assert g.adjacency.dtype == want.dtype and np.array_equal(g.adjacency, want)
    assert g.name == label and not g.adjacency.flags.writeable


def switched_rook4():
    """rook:4 with a degree-preserving 2-switch among the cells off vertex
    0's row and column: A^2 e_0 is unchanged, but the graph is not strongly
    regular."""
    A = rook_graph(4).adjacency.copy()
    # cell (i, j) is 4i + j: (1,1)-(1,2) and (2,3)-(3,3) become (1,1)-(3,3) and (1,2)-(2,3)
    for u, v, on in ((5, 6, 0), (11, 15, 0), (5, 15, 1), (6, 11, 1)):
        A[u, v] = A[v, u] = on
    return graph_from_adjacency(A, name="switched-rook:4")


def srg_check_cases():
    for label in BUILTIN_LABELS:
        for name in (label, f"complement:{label}"):
            g = resolve_builtin(name)
            if g.degree is not None and g.is_connected:
                yield name, g
    for n in range(16, 65, 8):
        for k, seed in ((3, n), (4, n + 1), (6, n + 2)):
            if n * k % 2 == 0:
                A = nx.to_numpy_array(nx.random_regular_graph(k, n, seed=seed), nodelist=range(n))
                g = graph_from_adjacency(A.astype(np.int64), name=f"random-{n}-{k}")
                if g.is_connected:
                    yield g.name, g
    yield "switched-rook:4", switched_rook4()


SRG_CHECK_CASES = dict(srg_check_cases())


@pytest.mark.parametrize("name", SRG_CHECK_CASES)
def test_validate_srg_matches_the_full_check(name):
    g = SRG_CHECK_CASES[name]
    assert validate_srg(g) == full_srg_check(g)


def test_the_full_product_decides_past_the_screen(monkeypatch):
    """The switched rook passes the column screen, so only the exact full
    product finds that it is not strongly regular."""
    g = switched_rook4()
    A = g.adjacency
    assert np.array_equal(A @ A[:, 0], rook_graph(4).adjacency @ rook_graph(4).adjacency[:, 0])
    assert validate_srg(g) == NOT_SRG
    monkeypatch.setattr(graphs, "srg_identity", lambda *args: True)
    assert validate_srg(g) != NOT_SRG


def test_a_non_srg_graph_of_order_512_never_reaches_the_full_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("the full product A^2 was formed")

    A = nx.to_numpy_array(nx.random_regular_graph(5, 512, seed=3), nodelist=range(512))
    g = graph_from_adjacency(A.astype(np.int64))
    assert g.is_connected
    monkeypatch.setattr(graphs, "srg_identity", refuse)
    assert validate_srg(g) == NOT_SRG
