"""Spectral decomposition of regular-graph adjacency matrices.

For a connected k-regular graph the adjacency matrix is resolved as
A = sum_r lambda_r E_r with orthogonal spectral idempotents E_r, ordered
by decreasing eigenvalue so that lambda_0 = k and E_0 = J/n. Each
eigenvalue carries an angle theta_r = arccos(lambda_r / k) in [0, pi];
theta = pi is present exactly when the graph is bipartite.

Two routes build the decomposition. :func:`eigendecompose_symmetric` runs
a dense eigh on any connected regular graph and stores the idempotents.
:func:`srg_decomposition` takes a strongly regular or complete graph from
its parameters alone: its idempotents are fixed by the eigenmatrix P of
the association scheme (Delsarte, Philips Res. Rep. Suppl. 10, 1973;
Brouwer, Cohen and Neumaier, *Distance-Regular Graphs*, 1989), so the
record holds the relation matrix and P, and neither an eigenvector nor an
idempotent is formed. :func:`class_sums` reads the idempotents of either.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import COMPLETE, NOT_SRG, Graph, srg_identity, srg_screen

logger = logging.getLogger(__name__)

#: default tolerance for the idempotent suite (idempotency, orthogonality,
#: reconstruction of A)
TAU_SPEC = 1e-9
#: tighter tolerance for completeness, sum of idempotents vs identity
COMPLETENESS_TOL = 1e-10
#: relative eigenvalue grouping tolerance, scaled by the valency
TAU_GROUP_FACTOR = 1e-8
#: support cutoff factor, scaled by sqrt(n)
TAU_SUPPORT_FACTOR = 1e-10
#: most bytes an idempotent stack, a walk spectrum build or a closed-form check takes
MAX_SPECTRUM_BYTES = 2**29


class DecompositionError(ValueError):
    """Raised when the computed idempotents fail their invariant suite.

    Carries the offending residuals so the caller can judge whether the
    grouping tolerance was too tight or too loose.
    """

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class SizeLimitError(ValueError):
    """An allocation over MAX_SPECTRUM_BYTES, refused before it is made."""


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues, multiplicities, angles, and idempotents of A.

    Index 0 always refers to the valency eigenvalue k. ``has_minus_k``
    marks a bipartite graph, in which case the last index carries
    eigenvalue -k and angle pi. ``residuals`` is the idempotent suite it
    passed. The idempotents are read through :func:`class_sums`, which
    serves both kinds of record.

    A record of eigh (:func:`eigendecompose_symmetric`) holds ``vectors``,
    the read-only n x n array of orthonormal eigenvectors, its columns
    grouped by class in index order (``multiplicities[r]`` columns from
    ``class_starts[r]`` on, V_r), and ``idempotents``, one read-only
    (d, n, n) array, E_r = ``idempotents[r]`` = V_r V_r^T (a sequence of
    n x n arrays is stacked into one).

    A record of an association scheme (:func:`srg_decomposition`) holds
    neither (both None). It holds the read-only int8 n x n ``relations``
    R, R[x, y] = i when (x, y) lies in relation i of the scheme, whose 0/1
    matrix is A_i (on a strongly regular graph 0, 1, 2 for equal, adjacent
    and non-adjacent, the distance), and the read-only int64
    (d + 1) x (d + 1) eigenmatrix P, ``eigenmatrix[r, i]`` the eigenvalue
    of A_i on E_r, and its float dual ``dual_eigenmatrix`` Q,
    Q[i, r] = m_r P[r, i] / v_i (P Q = nI). Then

        E_r = (1/n) sum_i Q[i, r] A_i,   E_r[x, y] = Q[R[x, y], r] / n,

    so (E_r)_aa = m_r / n at every vertex. Its read-only int64
    ``intersections`` L holds the intersection numbers of the graph
    relation, L[i, j] = p^i_1j: a vertex in relation i to any vertex a
    has L[i, j] neighbours in relation j to a. Another scheme whose
    relations are the distances of its graph supplies only R and P
    (:func:`_scheme_record`).
    """

    n: int
    k: int
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    angles: np.ndarray
    vectors: np.ndarray | None
    idempotents: np.ndarray | None
    has_minus_k: bool
    residuals: dict[str, float] = field(default_factory=dict)
    relations: np.ndarray | None = None
    eigenmatrix: np.ndarray | None = None
    dual_eigenmatrix: np.ndarray | None = None
    intersections: np.ndarray | None = None

    def __post_init__(self):
        for name, dtype in (("vectors", float), ("idempotents", float), ("relations", np.int8),
                            ("eigenmatrix", np.int64), ("dual_eigenmatrix", float),
                            ("intersections", np.int64)):
            X = getattr(self, name)
            if X is None:
                continue
            if not (isinstance(X, np.ndarray) and X.dtype == dtype and not X.flags.writeable):
                X = np.array(X, dtype=dtype)
                X.setflags(write=False)
                object.__setattr__(self, name, X)

    @property
    def num_classes(self) -> int:
        return len(self.eigenvalues)

    @property
    def class_starts(self) -> np.ndarray:
        """First column of each class in ``vectors``."""
        return np.cumsum(self.multiplicities) - self.multiplicities

    @property
    def valencies(self) -> np.ndarray:
        """v_i = P[0, i], the entries of relation i in each row of R."""
        return self.eigenmatrix[0]


def eigenvectors(dec: SpectralDecomposition, what: str) -> np.ndarray:
    """``dec.vectors``, or a ValueError saying that ``what`` needs the
    eigenvectors, which a record built from SRG parameters does not hold."""
    if dec.vectors is None:
        raise ValueError(
            f"{what}: a decomposition built from SRG parameters holds no "
            "eigenvectors; use eigendecompose_symmetric"
        )
    return dec.vectors


def decomposition_residuals(dec: SpectralDecomposition, adjacency: np.ndarray) -> dict[str, float]:
    """Max-norm residuals of the idempotent suite against an adjacency
    matrix, in O(n^3) once.

    ``completeness`` (sum E_r - I), ``reconstruction`` (V L V^T - A, with L
    the class eigenvalue k cos theta_r on each column of V) and
    ``e0_vs_uniform`` (E_0 - J/n) are measured. ``idempotency`` and
    ``orthogonality`` are bounds taken from the Gram defect G = V^T V - I in
    place of the d^2 products E_r E_s. For E_r = V_r V_r^T,

        E_r E_s - [r = s] E_r = V_r G_rs V_s^T,

    so each entry is at most rho_r ||G_rs||_F rho_s, with rho_r the largest
    row norm of V_r. G is measured, as the dense products were. Each block
    adds an allowance for the rounding of the stored E_r (formed and
    symmetrised from V_r V_r^T) and of a dense product E_r E_s, so neither
    bound is below the measured maximum of those products (a tier-1 test
    compares them with the dense suite).
    """
    n, V = dec.n, eigenvectors(dec, "decomposition_residuals")
    starts, sizes = dec.class_starts, dec.multiplicities
    total = dec.idempotents.sum(axis=0)
    total.flat[:: n + 1] -= 1.0
    recon = (V * np.repeat(dec.k * np.cos(dec.angles), sizes)) @ V.T
    recon -= adjacency

    gram = V.T @ V
    gram.flat[:: n + 1] -= 1.0
    gram *= gram
    blocks = np.add.reduceat(np.add.reduceat(gram, starts, axis=0), starts, axis=1)
    rows = np.add.reduceat(V * V, starts, axis=1).max(axis=0)  # rho_r^2
    own = (sizes + 2) * (np.sqrt(sizes) + 1)
    slack = np.finfo(float).eps * (n + own[:, None] + own)
    bound = np.sqrt(np.outer(rows, rows)) * (np.sqrt(blocks) + slack)
    idempotency = float(bound.diagonal().max())
    bound.flat[:: dec.num_classes + 1] = 0.0
    return {
        "completeness": float(np.abs(total).max()),
        "idempotency": idempotency,
        "orthogonality": float(bound.max()),
        "reconstruction": float(np.abs(recon).max()),
        "e0_vs_uniform": float(np.abs(dec.idempotents[0] - 1.0 / n).max()),
    }


def _within_limit(size: int, what: str) -> None:
    """A SizeLimitError "<what> <size> MiB, over the limit of ..." when
    ``size`` bytes would pass MAX_SPECTRUM_BYTES, read at call time so that
    one setting governs every allocation it bounds."""
    if size > MAX_SPECTRUM_BYTES:
        raise SizeLimitError(
            f"{what} {size >> 20} MiB, over the limit of {MAX_SPECTRUM_BYTES >> 20} MiB"
        )


def _idempotent_stack(classes: int, n: int) -> np.ndarray:
    """An empty (classes, n, n) stack, or a SizeLimitError before it is
    allocated when it would pass MAX_SPECTRUM_BYTES."""
    _within_limit(8 * classes * n**2, f"idempotents of {classes} classes on {n} vertices need")
    return np.empty((classes, n, n))


def eigendecompose_symmetric(g: Graph, tau_group: float | None = None) -> SpectralDecomposition:
    """Group the eigenvalues of g's adjacency matrix and form idempotents.

    Eigenvalues within ``tau_group`` (default 1e-8 * k) of each other are
    merged into one class; E_r is the orthogonal projector onto the span
    of the class's eigenvectors. The resulting suite is verified before
    returning: completeness within 1e-10, idempotency / orthogonality /
    reconstruction within 1e-9, angle 0 attached to the valency class,
    and angle pi present iff the graph is bipartite.

    Raises
    ------
    ValueError
        For non-regular, disconnected or edgeless input, and (as
        SizeLimitError) before a (classes, n, n) idempotent stack over
        MAX_SPECTRUM_BYTES is allocated.
    DecompositionError
        When the verification suite fails, with residual diagnostics.
    """
    if g.degree is None:
        raise ValueError("eigendecomposition requires a regular graph")
    if not g.is_connected:
        raise ValueError("eigendecomposition requires a connected graph")
    k = g.degree
    if k < 1:
        raise ValueError("eigendecomposition requires valency at least 1")
    if tau_group is None:
        tau_group = TAU_GROUP_FACTOR * k

    A = g.adjacency.astype(float)
    values, vectors = np.linalg.eigh(A)
    values = values[::-1]
    vectors = np.ascontiguousarray(vectors[:, ::-1])
    vectors.setflags(write=False)

    # Chain consecutive eigenvalues closer than tau_group into one class.
    boundaries = [0, *(np.flatnonzero(-np.diff(values) > tau_group) + 1).tolist(), g.n]
    classes = len(boundaries) - 1
    idempotents = _idempotent_stack(classes, g.n)
    eigenvalues = []
    multiplicities = []
    for E, lo, hi in zip(idempotents, boundaries[:-1], boundaries[1:]):
        block = vectors[:, lo:hi]
        S = block @ block.T
        np.add(S, S.T, out=E)
        E /= 2.0
        eigenvalues.append(float(values[lo:hi].mean()))
        multiplicities.append(hi - lo)
    idempotents.setflags(write=False)

    if abs(eigenvalues[0] - k) > tau_group:
        raise DecompositionError(
            f"largest eigenvalue {eigenvalues[0]} does not match valency {k}"
        )
    has_minus_k = abs(eigenvalues[-1] + k) <= tau_group

    angles = np.arccos(np.clip(np.array(eigenvalues) / k, -1.0, 1.0))
    angles[0] = 0.0
    if has_minus_k:
        angles[-1] = np.pi
    angles.setflags(write=False)

    dec = SpectralDecomposition(
        n=g.n,
        k=k,
        eigenvalues=np.array(eigenvalues),
        multiplicities=np.array(multiplicities, dtype=np.int64),
        angles=angles,
        vectors=vectors,
        idempotents=idempotents,
        has_minus_k=has_minus_k,
    )

    residuals = decomposition_residuals(dec, A)
    dec.residuals.update(residuals)
    failed = residuals["completeness"] > COMPLETENESS_TOL or any(
        residuals[key] > TAU_SPEC
        for key in ("idempotency", "orthogonality", "reconstruction", "e0_vs_uniform")
    )
    if failed:
        raise DecompositionError(
            "idempotent suite failed, grouping tolerance likely unsuitable: "
            + ", ".join(f"{key}={val:.3e}" for key, val in residuals.items()),
            residuals,
        )
    if np.any(np.diff(dec.angles) <= 0):
        raise DecompositionError("angles are not strictly increasing", residuals)
    if has_minus_k != g.is_bipartite:
        raise DecompositionError(
            f"eigenvalue -k present ({has_minus_k}) disagrees with bipartiteness "
            f"({g.is_bipartite})",
            residuals,
        )
    return dec


def srg_decomposition(g: Graph) -> SpectralDecomposition | None:
    """The scheme record of a strongly regular or complete graph, from its
    parameters (n, k, lambda, mu), with no eigh; None for any other graph.

    The graph must be connected, regular and non-bipartite, and pass the
    exact SRG check of :func:`arcwalk.graphs.validate_srg`, which a graph
    runs once (it keeps the parameters it certified). Its eigenvalues are
    then k > r > s, the roots of x^2 - (lambda - mu) x - (k - mu) beside k,
    or n - 1 > -1 for K_n. When the discriminant (lambda - mu)^2 +
    4 (k - mu) is not a square (a conference graph such as Paley(13)) they
    are irrational and the answer is None too, so the caller takes the
    dense route. The discriminant is read from the O(n^2)
    :func:`arcwalk.graphs.srg_screen` before the exact O(n^3) product.

    The relations are equal, adjacent and non-adjacent, R = 2 - A off the
    diagonal (the last only for an SRG), and the eigenmatrix P has rows
    (1, lambda_r, [r = 0] n - 1 - lambda_r), the eigenvalues of A_0 = I,
    A_1 = A and A_2 = J - I - A on E_r. :func:`_scheme_record` derives the
    multiplicities from P and certifies them exactly; beside the product of
    the SRG identity, no n x n float array is formed.
    """
    if g.degree is None or not g.is_connected or g.is_bipartite:
        return None
    params = srg_screen(g)
    if params == NOT_SRG:
        return None
    n, k = g.n, g.degree
    if params == COMPLETE:
        values, a, c = [k, -1], n - 2, None
    else:
        a, c = params.a, params.c
        disc = (a - c) ** 2 + 4 * (k - c)
        root = math.isqrt(disc)
        if root * root != disc or not srg_identity(g, params):
            return None
        values = [k, (a - c + root) // 2, (a - c - root) // 2]
    P = tuple((1, lam, (n if r == 0 else 0) - 1 - lam)[: len(values)]
              for r, lam in enumerate(values))
    R = np.subtract(2, g.adjacency.astype(np.int8))
    R.flat[:: n + 1] = 0
    dec = _scheme_record(n, k, R, P)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("scheme record of %s: n=%d k=%d lambda=%s mu=%s P=%s multiplicities=%s",
                     g.name or "the graph", n, k, a, c, dec.eigenmatrix.tolist(),
                     dec.multiplicities.tolist())
    return dec


def _scheme_record(n: int, k: int, R: np.ndarray, P) -> SpectralDecomposition:
    """The record of a symmetric association scheme on n vertices from its
    relation matrix R, made read-only, and its integer eigenmatrix P, rows
    in decreasing order of the eigenvalue P[r, 1] of the graph A_1 of
    valency k.

    The multiplicities come from P alone, m_r = n / sum_i P[r, i]^2 / v_i,
    in exact integer arithmetic, and must be integers. The orthogonality
    relations P^T diag(m) P = n diag(v), that is Q P = nI with
    Q[i, r] = m_r P[r, i] / v_i, must then hold exactly, else
    DecompositionError. Column 0 says sum_r E_r = I and column 1
    sum_r P[r, 1] E_r = A; their largest entry defects in the n x n sums
    are the residuals ``completeness`` and ``reconstruction``, 0.0 on a
    record that passes. The intersection numbers p^i_1j (Brouwer, Cohen
    and Neumaier, ch. 2) must then divide out exactly into counts, not
    negative and rows summing to k, else DecompositionError; the arcs
    v_i p^i_1j from relation i to relation j are a symmetric sum over n,
    so they equal the v_j p^j_1i back.
    """
    rows = [list(map(int, row)) for row in P]
    v = rows[0]
    # the norms times the least common multiple of the valencies, as exact integers
    scale = math.lcm(*v)
    norms = [sum(x * x * (scale // vi) for x, vi in zip(row, v)) for row in rows]
    if any(n * scale % norm for norm in norms):
        raise DecompositionError(f"eigenmatrix {rows} gives fractional multiplicities")
    m = np.array([n * scale // norm for norm in norms], dtype=np.int64)
    P = np.array(rows, dtype=np.int64)
    # entries up to n^3: exact in int64
    defect = P.T @ (m[:, None] * P)
    defect.flat[:: len(v) + 1] -= n * P[0]
    if defect.any():
        entry = (np.abs(defect[:, :2]) / (n * P[0, :, None])).max(axis=0)
        raise DecompositionError(
            f"scheme eigenmatrix {rows} fails the orthogonality relations by "
            f"{defect.tolist()}", dict(zip(("completeness", "reconstruction"), entry.tolist())),
        )
    # p^i_1j = sum_r m_r P[r, 1] P[r, i] P[r, j] / (n v_i); the sums are below
    # n k v_i v_j < n^4 <= 2^48 at the largest graph order: exact in int64
    sums = (P.T * (m * P[:, 1])) @ P
    divisors = n * P[0, :, None]
    if (sums % divisors).any():
        raise DecompositionError(f"eigenmatrix {rows} gives fractional intersection numbers")
    L = sums // divisors
    if any(min(line) < 0 or sum(line) != k for line in L.tolist()):
        raise DecompositionError(
            f"eigenmatrix {rows} gives intersection numbers {L.tolist()}, which are not "
            f"counts of a graph of valency {k}"
        )
    eigenvalues = P[:, 1].astype(float)
    angles = np.arccos(eigenvalues / k)
    angles[0] = 0.0
    Q = P.T * m / P[0, :, None]
    for x in (R, eigenvalues, m, angles, P, Q, L):
        x.setflags(write=False)
    return SpectralDecomposition(
        n=n, k=k, eigenvalues=eigenvalues, multiplicities=m, angles=angles,
        vectors=None, idempotents=None, has_minus_k=False,
        residuals=dict.fromkeys(("completeness", "reconstruction"), 0.0),
        relations=R, eigenmatrix=P, dual_eigenmatrix=Q, intersections=L,
    )


#: most bytes of the float copy of a block of 0/1 relation rows that
#: :func:`class_sums` multiplies at once: 2^20 is 128 rows at n = 1024
RELATION_BLOCK_BYTES = 2**20


def class_sums(dec: SpectralDecomposition, classes: range, weights=None, starts=None,
               X=None) -> np.ndarray:
    """sum_{r in classes} w_r E_r for each row w of ``weights`` (one column
    per class of ``classes``; None stands for the identity, one row per
    class), in one of two forms:

    - ``starts`` (a vertex, a 1-D int array of them or ``slice(None)``):
      the sums read on those rows, shape (rows of w,) + E_r[starts].shape;
      E_r is symmetric, so these are the columns too;
    - ``X``, an n x c block, with no weights and no starts: E_r X for each
      class, shape (classes, n, c).

    A record of eigh reads its stack: the rows of ``classes`` as a view (a
    gather for an array of starts) in one product with the weights, and
    E_r X one class at a time. A scheme record forms none: with the values
    C = w Q[:, classes]^T / n, the rows are C gathered at R[starts], and
    sum_i C_i A_i X takes A_0 X = X, each A_i X from R for 0 < i < d (on an
    SRG, A X alone) in blocks of rows of at most RELATION_BLOCK_BYTES as
    floats, and A_d X as the column sums of X less the rest, as
    sum_i A_i = J. Beside the output it holds d + 1 n x c blocks and one
    block of rows.
    """
    if dec.idempotents is not None:
        if X is not None:
            return np.stack([dec.idempotents[r] @ X for r in classes])
        rows = dec.idempotents[classes.start : classes.stop, starts]
        if weights is None:
            return rows
        return (weights @ rows.reshape(len(classes), -1)).reshape((len(weights),) + rows.shape[1:])
    Q = dec.dual_eigenmatrix[:, classes.start : classes.stop] / dec.n
    values = Q.T if weights is None else weights @ Q.T
    if X is None:
        return values[:, dec.relations[starts]]
    n, d = dec.n, len(Q) - 1
    terms = np.empty((d + 1,) + X.shape)
    terms[0] = X
    block = max(1, RELATION_BLOCK_BYTES // (8 * n))
    for i in range(1, d):
        for lo in range(0, n, block):
            np.matmul(dec.relations[lo : lo + block] == i, X, out=terms[i, lo : lo + block])
    np.subtract(X.sum(axis=0), terms[:d].sum(axis=0), out=terms[d])
    return (values @ terms.reshape(d + 1, -1)).reshape((len(values),) + X.shape)


def _supports(dec: SpectralDecomposition, columns) -> list[tuple[int, ...]]:
    tau_support = TAU_SUPPORT_FACTOR * np.sqrt(dec.n)
    if dec.idempotents is None:
        # ||E_r e_a|| = sqrt((E_r)_aa) = sqrt(m_r / n) at every vertex of a scheme
        inside = np.sqrt(dec.multiplicities / dec.n) > tau_support
        count = dec.n if isinstance(columns, slice) else len(columns)
        return [tuple(np.flatnonzero(inside).tolist())] * count
    norms = np.linalg.norm(dec.idempotents[:, :, columns], axis=1)
    return [tuple(np.flatnonzero(inside).tolist()) for inside in (norms > tau_support).T]


def eigenvalue_support(dec: SpectralDecomposition, a: int) -> tuple[int, ...]:
    """Indices r with ||E_r e_a|| above the support cutoff 1e-10 * sqrt(n).

    Index 0 is always in the support of a connected graph since
    E_0 e_a = 1/n * ones.
    """
    if not 0 <= a < dec.n:
        raise ValueError(f"vertex {a} out of range [0, {dec.n})")
    return _supports(dec, [a])[0]


def eigenvalue_supports(dec: SpectralDecomposition) -> list[tuple[int, ...]]:
    """:func:`eigenvalue_support` of every vertex, in one vectorised pass
    of column norms per idempotent, or from the multiplicities of a scheme
    record."""
    return _supports(dec, slice(None))


def walk_regular(dec: SpectralDecomposition) -> bool:
    """Whether the graph is walk-regular: every E_r has a constant diagonal
    (E_r)_aa = ||E_r e_a||^2, the norms equal within the support cutoff.
    A scheme record is: (E_r)_aa = m_r / n at every vertex."""
    if dec.idempotents is None:
        return True
    norms = np.sqrt(np.clip(np.diagonal(dec.idempotents, axis1=1, axis2=2), 0.0, None))
    return bool(np.ptp(norms, axis=1).max() <= TAU_SUPPORT_FACTOR * np.sqrt(dec.n))
