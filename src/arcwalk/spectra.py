"""Spectral decomposition of regular-graph adjacency matrices.

For a connected k-regular graph the adjacency matrix is resolved as
A = sum_r lambda_r E_r with orthogonal spectral idempotents E_r, ordered
by decreasing eigenvalue so that lambda_0 = k and E_0 = J/n. Each
eigenvalue carries an angle theta_r = arccos(lambda_r / k) in [0, pi];
theta = pi is present exactly when the graph is bipartite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph

#: default tolerance for the idempotent suite (idempotency, orthogonality,
#: reconstruction of A)
TAU_SPEC = 1e-9
#: tighter tolerance for completeness, sum of idempotents vs identity
COMPLETENESS_TOL = 1e-10
#: relative eigenvalue grouping tolerance, scaled by the valency
TAU_GROUP_FACTOR = 1e-8
#: support cutoff factor, scaled by sqrt(n)
TAU_SUPPORT_FACTOR = 1e-10


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
    eigenvalue -k and angle pi. ``residuals`` is the idempotent suite it passed.
    """

    n: int
    k: int
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    angles: np.ndarray
    idempotents: tuple[np.ndarray, ...]
    has_minus_k: bool
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def num_classes(self) -> int:
        return len(self.eigenvalues)


def decomposition_residuals(dec: SpectralDecomposition, adjacency: np.ndarray) -> dict[str, float]:
    """Max-norm residuals of the idempotent suite against an adjacency matrix."""
    n = dec.n
    total = np.zeros((n, n))
    idem = 0.0
    orth = 0.0
    for r, E in enumerate(dec.idempotents):
        total += E
        idem = max(idem, float(np.abs(E @ E - E).max()))
        for s in range(r + 1, dec.num_classes):
            orth = max(orth, float(np.abs(E @ dec.idempotents[s]).max()))
    recon = sum(
        dec.k * np.cos(dec.angles[r]) * dec.idempotents[r] for r in range(dec.num_classes)
    )
    return {
        "completeness": float(np.abs(total - np.eye(n)).max()),
        "idempotency": idem,
        "orthogonality": orth,
        "reconstruction": float(np.abs(recon - adjacency).max()),
        "e0_vs_uniform": float(np.abs(dec.idempotents[0] - np.ones((n, n)) / n).max()),
    }


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
        For non-regular or disconnected input.
    DecompositionError
        When the verification suite fails, with residual diagnostics.
    """
    if g.degree is None:
        raise ValueError("eigendecomposition requires a regular graph")
    if not g.is_connected:
        raise ValueError("eigendecomposition requires a connected graph")
    k = g.degree
    if tau_group is None:
        tau_group = TAU_GROUP_FACTOR * max(k, 1)

    A = g.adjacency.astype(float)
    values, vectors = np.linalg.eigh(A)
    values = values[::-1]
    vectors = vectors[:, ::-1]

    # Chain consecutive eigenvalues closer than tau_group into one class.
    boundaries = [0]
    for i in range(1, g.n):
        if values[i - 1] - values[i] > tau_group:
            boundaries.append(i)
    boundaries.append(g.n)

    eigenvalues = []
    multiplicities = []
    idempotents = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        block = vectors[:, lo:hi]
        E = block @ block.T
        E = (E + E.T) / 2.0
        E.setflags(write=False)
        idempotents.append(E)
        eigenvalues.append(float(values[lo:hi].mean()))
        multiplicities.append(hi - lo)

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
        idempotents=tuple(idempotents),
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


def eigenvalue_support(dec: SpectralDecomposition, a: int) -> tuple[int, ...]:
    """Indices r with ||E_r e_a|| above the support cutoff 1e-10 * sqrt(n).

    Index 0 is always in the support of a connected graph since
    E_0 e_a = 1/n * ones.
    """
    if not 0 <= a < dec.n:
        raise ValueError(f"vertex {a} out of range [0, {dec.n})")
    tau_support = TAU_SUPPORT_FACTOR * np.sqrt(dec.n)
    return tuple(
        r
        for r, E in enumerate(dec.idempotents)
        if float(np.linalg.norm(E[:, a])) > tau_support
    )
