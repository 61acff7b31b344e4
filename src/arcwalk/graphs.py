"""Construction, ingestion, and validation of simple regular graphs.

Vertices are dense integers ``0..n-1``. Adjacency matrices are symmetric
0/1 ``int64`` arrays with zero diagonal, frozen (read-only) once the graph
is built so instances can be shared freely. Regularity, connectivity, and
a bipartition (when one exists) are computed at construction time.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

#: string verdicts returned by :func:`validate_srg` alongside ``SRGParams``
COMPLETE = "complete"
NOT_SRG = "not SRG"
#: most vertices a graph builder accepts
MAX_ORDER = 4096


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple undirected graph with cached structural metadata.

    Attributes
    ----------
    n : int
        Number of vertices.
    adjacency : numpy.ndarray
        Symmetric 0/1 matrix with zero diagonal, read-only.
    degree : int or None
        Common valency when the graph is regular, otherwise ``None``.
    is_connected : bool
    is_bipartite : bool
    color_class : numpy.ndarray or None
        A +-1 vector describing a proper 2-coloring when bipartite.
    name : str
        Identifier used in reports; empty for anonymous graphs.
    """

    n: int
    adjacency: np.ndarray
    degree: int | None
    is_connected: bool
    is_bipartite: bool
    color_class: np.ndarray | None = None
    name: str = ""

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2


@dataclass(frozen=True)
class SRGParams:
    """Parameter tuple (n, k, a, c) of a strongly regular graph.

    ``a`` counts common neighbors of adjacent pairs, ``c`` of distinct
    non-adjacent pairs.
    """

    n: int
    k: int
    a: int
    c: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.a, self.c)


def _color_components(adj: np.ndarray) -> tuple[bool, bool, np.ndarray]:
    """BFS 2-coloring over all components.

    Returns (is_connected, is_bipartite, colors) where colors is a +-1
    vector; the coloring is proper only when the graph is bipartite.
    """
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


def graph_from_adjacency(adjacency: np.ndarray, name: str = "") -> Graph:
    """Validate an adjacency matrix and build a :class:`Graph` around it.

    Raises
    ------
    ValueError
        If the matrix is not square symmetric 0/1 with zero diagonal.
    """
    adj = np.array(adjacency, dtype=np.int64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {adj.shape}")
    n = adj.shape[0]
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if not np.array_equal(adj, adj.T):
        raise ValueError("adjacency matrix must be symmetric")
    if not np.isin(adj, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    if np.trace(adj) != 0:
        raise ValueError("adjacency matrix must have zero diagonal (no self-loops)")

    row_sums = adj.sum(axis=1)
    degree = int(row_sums[0]) if np.all(row_sums == row_sums[0]) else None
    connected, bipartite, colors = _color_components(adj)

    adj.setflags(write=False)
    color_class: np.ndarray | None = None
    if bipartite:
        colors.setflags(write=False)
        color_class = colors
    return Graph(
        n=n,
        adjacency=adj,
        degree=degree,
        is_connected=connected,
        is_bipartite=bipartite,
        color_class=color_class,
        name=name,
    )


def _check_order(n: int) -> None:
    """Refuse, before any n x n allocation, an order above MAX_ORDER."""
    if n > MAX_ORDER:
        raise ValueError(f"graph order {n} exceeds the limit of {MAX_ORDER} vertices")


def from_edge_list(edges, n: int, name: str = "") -> Graph:
    """Build a graph from an iterable of (u, v) pairs on vertices 0..n-1.

    Duplicate edges are collapsed (a count is logged). Self-loops and
    out-of-range endpoints are rejected with the offending edge named.
    """
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    _check_order(n)
    adj = np.zeros((n, n), dtype=np.int64)
    duplicates = 0
    for edge in edges:
        u, v = int(edge[0]), int(edge[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}): vertex out of range [0, {n})")
        if u == v:
            raise ValueError(f"edge ({u}, {v}): self-loops are not allowed")
        if adj[u, v]:
            duplicates += 1
        adj[u, v] = adj[v, u] = 1
    if duplicates:
        logger.info("from_edge_list: collapsed %d duplicate edge(s)", duplicates)
    return graph_from_adjacency(adj, name=name)


def complete_graph(n: int, name: str = "") -> Graph:
    if n < 2:
        raise ValueError(f"complete graph needs at least 2 vertices, got {n}")
    _check_order(n)
    adj = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return graph_from_adjacency(adj, name=name or f"kn:{n}")


def cycle_graph(n: int, name: str = "") -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    _check_order(n)
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1
    return graph_from_adjacency(adj, name=name or f"cycle:{n}")


def rook_graph(q: int, name: str = "") -> Graph:
    """Line graph of K_{q,q}: vertices are cells of a q x q grid, adjacent
    when they share a row or a column. Regular of valency 2(q-1)."""
    if q < 2:
        raise ValueError(f"rook graph needs q >= 2, got {q}")
    n = q * q
    _check_order(n)
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            u = i * q + j
            for jj in range(q):
                if jj != j:
                    adj[u, i * q + jj] = 1
            for ii in range(q):
                if ii != i:
                    adj[u, ii * q + j] = 1
    return graph_from_adjacency(adj, name=name or f"rook:{q}")


def petersen_graph(name: str = "petersen") -> Graph:
    """Kneser graph K(5, 2): vertices are 2-subsets of a 5-set, adjacent
    when disjoint."""
    subsets = list(combinations(range(5), 2))
    n = len(subsets)
    adj = np.zeros((n, n), dtype=np.int64)
    for i, s in enumerate(subsets):
        for j, t in enumerate(subsets):
            if i != j and not set(s) & set(t):
                adj[i, j] = 1
    return graph_from_adjacency(adj, name=name)


def check_regular_hadamard(H: np.ndarray) -> tuple[np.ndarray, int]:
    """Check exactly that H is a regular Hadamard matrix; return it as a
    read-only int64 copy with its row sum.

    Conditions, each reported by name in a ValueError: square and integer
    valued, +-1 entries, H H^T = nI, order 1, 2 or divisible by 4,
    constant row sums, and |row sum| = sqrt(n), which forces a square
    order.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"Hadamard matrix must be square, got shape {H.shape}")
    if not np.all(H == H.astype(np.int64)):
        raise ValueError("Hadamard matrix must be integer valued")
    H = H.astype(np.int64)
    n = H.shape[0]
    if not np.isin(H, (-1, 1)).all():
        raise ValueError("Hadamard matrix entries must be +1 or -1")
    # float64 (BLAS) products are exact: every entry is an integer of size <= n
    F = H.astype(float)
    if not np.array_equal(F @ F.T, n * np.eye(n)):
        raise ValueError("matrix fails H H^T = nI, not a Hadamard matrix")
    if n not in (1, 2) and n % 4 != 0:
        raise ValueError(f"order {n} is not 1, 2, or divisible by 4")
    row_sums = H.sum(axis=1)
    if not np.all(row_sums == row_sums[0]):
        raise ValueError("row sums are not constant, matrix is not regular")
    s = int(row_sums[0])
    if s * s != n:
        raise ValueError(
            f"regular Hadamard matrix of order {n} must have |row sum| sqrt(n), got {s}"
        )
    H.setflags(write=False)
    return H, s


def srg_from_regular_hadamard(H: np.ndarray, name: str = "") -> Graph:
    """Build the graph with adjacency (J - delta*H) / 2 from a regular
    symmetric Hadamard matrix H with constant diagonal delta.

    Symmetry is checked first, then :func:`check_regular_hadamard`, then
    the constant diagonal; each violation is reported by name.
    """
    H = np.asarray(H)
    if H.ndim == 2 and not np.array_equal(H, H.T):
        raise ValueError("Hadamard matrix must be symmetric")
    H, _ = check_regular_hadamard(H)
    n = H.shape[0]
    diag = np.diag(H)
    if not np.all(diag == diag[0]):
        raise ValueError("Hadamard matrix must have constant diagonal")
    delta = int(diag[0])

    J = np.ones((n, n), dtype=np.int64)
    adj = (J - delta * H) // 2
    g = graph_from_adjacency(adj, name=name or f"hadamard-srg:{n}")
    # Guaranteed by the construction; a failure here means the input
    # slipped past the checks above.
    if validate_srg(g) == NOT_SRG:
        raise ValueError("constructed graph is not strongly regular")
    return g


def validate_srg(g: Graph):
    """Classify a connected regular graph as strongly regular.

    Returns ``SRGParams`` when A^2 = kI + aA + c(J - I - A) holds exactly,
    the string ``"complete"`` for complete graphs (no non-adjacent pairs,
    so c is undefined), and ``"not SRG"`` otherwise.
    """
    if g.degree is None:
        raise ValueError("validate_srg requires a regular graph")
    if not g.is_connected:
        raise ValueError("validate_srg requires a connected graph")
    A = g.adjacency.astype(np.int64)
    n, k = g.n, g.degree
    # float64 (BLAS) product, exact: every entry is an integer of size <= n
    F = g.adjacency.astype(float)
    A2 = (F @ F).astype(np.int64)
    adjacent = A == 1
    nonadjacent = (A == 0) & ~np.eye(n, dtype=bool)
    if not nonadjacent.any():
        return COMPLETE
    a_values = A2[adjacent]
    c_values = A2[nonadjacent]
    if a_values.size == 0 or a_values.min() != a_values.max():
        return NOT_SRG
    if c_values.min() != c_values.max():
        return NOT_SRG
    a = int(a_values[0])
    c = int(c_values[0])
    J = np.ones((n, n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    if not np.array_equal(A2, k * eye + a * A + c * (J - eye - A)):
        return NOT_SRG
    return SRGParams(n=n, k=k, a=a, c=c)


def complement(g: Graph) -> Graph:
    adj = np.ones((g.n, g.n), dtype=np.int64) - np.eye(g.n, dtype=np.int64) - g.adjacency
    name = f"complement:{g.name}" if g.name else ""
    return graph_from_adjacency(adj, name=name)


def parse_edge_list(text: str, source: str = "<string>") -> tuple[int, list[tuple[int, int]]]:
    """Parse the plain edge-list format: a header line ``n m`` followed by
    m lines ``u v`` with 0-based endpoints. Lines starting with ``#`` are
    comments. Malformed input is rejected with the line number."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{source}:{lineno}: expected two integers, got {raw!r}")
        try:
            x, y = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: expected two integers, got {raw!r}") from None
        if header is None:
            if x < 1 or y < 0:
                raise ValueError(f"{source}:{lineno}: invalid header 'n m' = {raw!r}")
            header = (x, y)
        else:
            edges.append((x, y))
    if header is None:
        raise ValueError(f"{source}: empty edge list, missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise ValueError(f"{source}: header declares {m} edges, found {len(edges)}")
    return n, edges


def read_edge_list(path: str | Path, name: str = "") -> Graph:
    """Read a graph from an edge-list file (see :func:`parse_edge_list`)."""
    path = Path(path)
    n, edges = parse_edge_list(path.read_text(), source=str(path))
    return from_edge_list(edges, n, name=name or str(path))


def write_edge_list(g: Graph) -> str:
    """Serialize a graph in the edge-list format accepted by
    :func:`parse_edge_list`."""
    lines = [f"{g.n} {g.num_edges}"]
    rows, cols = np.nonzero(np.triu(g.adjacency))
    lines.extend(f"{int(u)} {int(v)}" for u, v in zip(rows, cols))
    return "\n".join(lines) + "\n"
