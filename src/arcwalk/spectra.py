"""Spectral decomposition of regular-graph adjacency matrices.

For a connected k-regular graph the adjacency matrix is resolved as
A = sum_r lambda_r E_r with orthogonal spectral idempotents E_r, ordered
by decreasing eigenvalue so that lambda_0 = k and E_0 = J/n. Each
eigenvalue carries an angle theta_r = arccos(lambda_r / k) in [0, pi];
theta = pi is present exactly when the graph is bipartite.

Two routes build the decomposition. :func:`eigendecompose_symmetric` runs
a dense eigh on any connected regular graph. :func:`srg_decomposition`
takes a strongly regular or complete graph from its parameters alone:
its idempotents are fixed by the eigenmatrix of the association scheme
(Delsarte, Philips Res. Rep. Suppl. 10, 1973; Brouwer, Cohen and
Neumaier, *Distance-Regular Graphs*, 1989), and no eigenvector is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import COMPLETE, NOT_SRG, Graph, srg_identity, srg_screen

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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues, multiplicities, angles, and idempotents of A.

    Index 0 always refers to the valency eigenvalue k. ``has_minus_k``
    marks a bipartite graph, in which case the last index carries
    eigenvalue -k and angle pi. ``vectors`` is the read-only n x n array of
    orthonormal eigenvectors, its columns grouped by class in index order
    (``multiplicities[r]`` columns from ``class_starts[r]`` on, V_r), and
    ``idempotents`` is one read-only (d, n, n) array, E_r = ``idempotents[r]``
    = V_r V_r^T (a sequence of n x n arrays is stacked into one).
    ``residuals`` is the idempotent suite it passed.

    A record built from SRG parameters (:func:`srg_decomposition`) has no
    ``vectors`` (None).
    """

    n: int
    k: int
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    angles: np.ndarray
    vectors: np.ndarray | None
    idempotents: np.ndarray
    has_minus_k: bool
    residuals: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("vectors", "idempotents"):
            X = getattr(self, name)
            if X is None:
                continue
            if not (isinstance(X, np.ndarray) and X.dtype == float and not X.flags.writeable):
                X = np.array(X, dtype=float)
                X.setflags(write=False)
                object.__setattr__(self, name, X)

    @property
    def num_classes(self) -> int:
        return len(self.eigenvalues)

    @property
    def class_starts(self) -> np.ndarray:
        """First column of each class in ``vectors``."""
        return np.cumsum(self.multiplicities) - self.multiplicities


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
    """A ValueError "<what> <size> MiB, over the limit of ..." when ``size``
    bytes would pass MAX_SPECTRUM_BYTES, read at call time so that one
    setting governs every allocation it bounds."""
    if size > MAX_SPECTRUM_BYTES:
        raise ValueError(
            f"{what} {size >> 20} MiB, over the limit of {MAX_SPECTRUM_BYTES >> 20} MiB"
        )


def _idempotent_stack(classes: int, n: int) -> np.ndarray:
    """An empty (classes, n, n) stack, or a ValueError before it is
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
        For non-regular, disconnected or edgeless input, and before a
        (classes, n, n) idempotent stack over MAX_SPECTRUM_BYTES is allocated.
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
    """The decomposition of a strongly regular or complete graph from its
    parameters (n, k, lambda, mu), with no eigh; None for any other graph.

    The graph must be connected, regular and non-bipartite, and pass the
    exact SRG check of :func:`arcwalk.graphs.validate_srg`. Its eigenvalues
    are then k > r > s, the roots of x^2 - (lambda - mu) x - (k - mu)
    beside k, or n - 1 > -1 for K_n. When the discriminant
    (lambda - mu)^2 + 4 (k - mu) is not a square (a conference graph such as
    Paley(13)) they are irrational and the answer is None too, so the caller
    takes the dense route. The discriminant is read from the O(n^2)
    :func:`arcwalk.graphs.srg_screen` before the exact O(n^3) product.

    The eigenmatrix P of the scheme has rows (1, lambda_r,
    [r = 0] n - 1 - lambda_r), the eigenvalues of the relations A_0 = I,
    A_1 = A and A_2 = J - I - A on E_r (the last column only for an SRG).
    The multiplicities m_r follow from sum_r m_r = n and
    trace A = sum_r m_r lambda_r = 0, and by the orthogonality relations of
    the scheme

        E_r = (1/n) sum_i Q[i, r] A_i,   Q[i, r] = m_r P[r, i] / v_i,

    with v_i = P[0, i] the valencies: each E_r is formed in O(n^2) from A.
    ``residuals`` holds ``completeness`` (sum E_r - I) and
    ``reconstruction`` (sum lambda_r E_r - A), each O(d n^2), and a value
    above the tolerances of :func:`eigendecompose_symmetric` raises
    DecompositionError. A (d + 1, n, n) stack over MAX_SPECTRUM_BYTES is
    refused with ValueError before it is allocated.
    """
    if g.degree is None or not g.is_connected or g.is_bipartite:
        return None
    params = srg_screen(g)
    if params == NOT_SRG:
        return None
    n, k = g.n, g.degree
    if params == COMPLETE:
        values, multiplicities = [k, -1], [1, n - 1]
    else:
        gap = params.a - params.c
        disc = gap * gap + 4 * (k - params.c)
        root = math.isqrt(disc)
        if root * root != disc or not srg_identity(g, params):
            return None
        r, s = (gap + root) // 2, (gap - root) // 2
        # 1 + f + g = n and k + f r + g s = trace A = 0
        values = [k, r, s]
        multiplicities = [1, (-k - (n - 1) * s) // (r - s), (k + (n - 1) * r) // (r - s)]
    d = len(values) - 1
    P = np.array([[1, lam, (n if j == 0 else 0) - 1 - lam] for j, lam in enumerate(values)],
                 dtype=np.int64)[:, : d + 1]
    m = np.array(multiplicities, dtype=np.int64)
    # row r: Q[i, r] / n, the entry of E_r at relation i (0 past the relations)
    coefficients = np.zeros((d + 1, 3))
    coefficients[:, : d + 1] = m[:, None] * P / (n * P[0])

    F = g.adjacency.astype(float)
    idempotents = _idempotent_stack(d + 1, n)
    for E, (identity, adjacent, other) in zip(idempotents, coefficients):
        np.multiply(F, adjacent - other, out=E)
        E += other
        E.flat[:: n + 1] = identity
    idempotents.setflags(write=False)
    eigenvalues = np.array(values, dtype=float)
    angles = np.arccos(eigenvalues / k)
    angles[0] = 0.0
    angles.setflags(write=False)

    total = idempotents.sum(axis=0)
    total.flat[:: n + 1] -= 1.0
    recon = (eigenvalues @ idempotents.reshape(d + 1, -1)).reshape(n, n)
    recon -= F
    residuals = {
        "completeness": float(np.abs(total).max()),
        "reconstruction": float(np.abs(recon).max()),
    }
    if residuals["completeness"] > COMPLETENESS_TOL or residuals["reconstruction"] > TAU_SPEC:
        raise DecompositionError(
            "SRG idempotents failed: "
            + ", ".join(f"{key}={val:.3e}" for key, val in residuals.items()),
            residuals,
        )
    return SpectralDecomposition(
        n=n, k=k, eigenvalues=eigenvalues, multiplicities=m, angles=angles, vectors=None,
        idempotents=idempotents, has_minus_k=False, residuals=residuals,
    )


def _supports(dec: SpectralDecomposition, columns) -> list[tuple[int, ...]]:
    tau_support = TAU_SUPPORT_FACTOR * np.sqrt(dec.n)
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
    of column norms per idempotent."""
    return _supports(dec, slice(None))


def walk_regular(dec: SpectralDecomposition) -> bool:
    """Whether the graph is walk-regular: every E_r has a constant diagonal
    (E_r)_aa = ||E_r e_a||^2, the norms equal within the support cutoff."""
    norms = np.sqrt(np.clip(np.diagonal(dec.idempotents, axis1=1, axis2=2), 0.0, None))
    return bool(np.ptp(norms, axis=1).max() <= TAU_SUPPORT_FACTOR * np.sqrt(dec.n))
