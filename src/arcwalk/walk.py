"""Arc space, transition operator, and spectral evolution of the walk.

The walk lives on the nk arcs (ordered vertex pairs along edges) of a
connected k-regular graph. One step applies the Grover coin at each
vertex followed by arc reversal:

    U = R (2/k * T^T T - I)

where T is the n x nk tail incidence matrix and R the reversal
permutation. U decomposes into eigenprojections derived from the
adjacency spectrum: a projection for eigenvalue +1, one for -1
(nonzero on bipartite graphs and on cycles of the reversal structure),
and a conjugate pair for each adjacency angle theta in (0, pi) with
walk eigenvalues e^{+-i theta}, held as the arc eigenvectors that
span it.

Real powers U^t are taken with the principal branch, e^{i t theta} per
projection, so (-1)^t means e^{i pi t}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph
from .spectra import MAX_SPECTRUM_BYTES, SpectralDecomposition

#: tolerance for the walk projection suite and spectral resolution of U
TAU_WALK = 1e-9
#: unit-norm tolerance enforced by State
STATE_NORM_TOL = 1e-12
#: complex (m x m, m x n) arrays a build of :func:`walk_spectrum` holds beyond
#: the stored arrays at its peak, without and with verification (traced with
#: tracemalloc: m x m on rook:8, 1.0 and 3.5; m x n on cycle:4, 9.2 and 13.1
#: beside the m x m counts, fixed costs included)
WORKSPACE_ARRAYS = ((1, 10), (4, 14))


def _within_limit(size: int, what: str) -> None:
    if size > MAX_SPECTRUM_BYTES:
        raise ValueError(
            f"{what} needs {size >> 20} MiB, over the limit of {MAX_SPECTRUM_BYTES >> 20} MiB"
        )


class WalkSpectrumError(ValueError):
    """Walk projections failed verification; carries residual diagnostics."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


@dataclass(frozen=True, eq=False)
class ArcSpace:
    """Arcs of a k-regular graph as index arrays.

    Arcs are ordered lexicographically by (tail, head), so arc i has tail
    i // k and the arcs leaving vertex u fill the block u*k .. u*k + k - 1.
    ``reversal_perm[i]`` is the position of the reverse of arc i; the
    reversal operator acts on an arc vector x as x[reversal_perm].
    """

    n: int
    k: int
    tails: np.ndarray
    heads: np.ndarray
    reversal_perm: np.ndarray

    @property
    def num_arcs(self) -> int:
        return len(self.tails)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.tails.tolist(), self.heads.tolist()))

    def arc_index(self, u: int, v: int) -> int:
        """Position of arc (u, v); raises KeyError for a non-arc."""
        if 0 <= u < self.n:
            block = self.heads[u * self.k : (u + 1) * self.k]
            j = int(np.searchsorted(block, v))
            if j < self.k and block[j] == v:
                return u * self.k + j
        raise KeyError(f"({u}, {v}) is not an arc of the graph")


def build_arc_space(g: Graph) -> ArcSpace:
    """Enumerate the arcs of a regular graph as index arrays.

    The identities T T^T = H H^T = kI, T H^T = A, R^2 = I, and R T^T = H^T
    (arc reversal swaps tails with heads) of the tail incidence T, head
    incidence H and reversal R are checked exactly on the index arrays
    before returning.
    """
    if g.degree is None:
        raise ValueError("arc space requires a regular graph")
    if g.degree < 1:
        raise ValueError("arc space requires valency at least 1")
    n, k = g.n, g.degree
    A = g.adjacency
    tails, heads = np.nonzero(A)
    m = len(tails)
    # the reverse of (u, v) sits in block v at the rank of u among v's neighbours
    rank = np.cumsum(A, axis=1) - 1
    perm = heads * k + rank[heads, tails]

    checks = {
        "tail gram": np.array_equal(np.bincount(tails, minlength=n), np.full(n, k)),
        "head gram": np.array_equal(np.bincount(heads, minlength=n), np.full(n, k)),
        "tail-head product": m == n * k and bool(np.all(A[tails, heads] == 1)),
        "reversal involution": np.array_equal(perm[perm], np.arange(m)),
        "reversal swaps incidence": np.array_equal(heads[perm], tails),
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise RuntimeError(f"arc space identities failed: {', '.join(bad)}")

    for arr in (tails, heads, perm):
        arr.setflags(write=False)
    return ArcSpace(n=n, k=k, tails=tails, heads=heads, reversal_perm=perm)


def tail_sum(arc_space: ArcSpace, x: np.ndarray) -> np.ndarray:
    """T x: sum an arc vector (or the rows of an arc matrix) over each
    vertex's block of k outgoing arcs."""
    x = np.asarray(x)
    return x.reshape(arc_space.n, arc_space.k, *x.shape[1:]).sum(axis=1)


def apply_walk(arc_space: ArcSpace, x: np.ndarray) -> np.ndarray:
    """U x = R (2/k T^T T - I) x in O(m) per column: Grover coin on each
    tail block, then arc reversal."""
    x = np.asarray(x)
    spread = np.repeat(tail_sum(arc_space, x), arc_space.k, axis=0)
    return ((2.0 / arc_space.k) * spread - x)[arc_space.reversal_perm]


def transition_matrix(arc_space: ArcSpace) -> np.ndarray:
    """One-step walk operator U = R (2/k * T^T T - I), real orthogonal."""
    return apply_walk(arc_space, np.eye(arc_space.num_arcs))


@dataclass(frozen=True, eq=False)
class EigenphasePair:
    """Conjugate projection pair for walk eigenvalues e^{+-i theta}.

    ``factor`` is an m x m_r complex array with orthonormal columns that
    span the e^{i theta} eigenspace of U, a view of the spectrum's
    ``factors``, so F_{+theta} = factor factor^H. ``plus`` = F_{+theta} and
    ``minus`` = F_{-theta}, its conjugate, are formed afresh on each
    access; no library path but the residual suite reads them. ``index``
    is the position of the source eigenvalue class in the adjacency
    decomposition.
    """

    index: int
    theta: float
    factor: np.ndarray

    @property
    def plus(self) -> np.ndarray:
        return self.factor @ self.factor.conj().T

    @property
    def minus(self) -> np.ndarray:
        return self.plus.conj()


@dataclass(frozen=True, eq=False)
class WalkSpectrum:
    """Spectral projections of U: the real +-1 projections F_{+1}, F_{-1}
    (m x m) and, for each adjacency angle theta_r in (0, pi), the factor W_r
    of F_{+theta_r} = W_r W_r^H. ``residuals`` is the projection suite they
    passed, empty when they were built without verification.

    ``factors`` is the read-only complex (m, N) array W whose column blocks
    are the pairs' factors, in pair order, N = sum m_r <= n - 1 columns in
    all, and ``column_thetas`` holds the angle of each column of W. On
    random-28-4 (m = 112, N = 27) W takes 48,384 B and the two real
    projections 200,704 B.
    """

    proj_plus1: np.ndarray
    proj_minus1: np.ndarray
    factors: np.ndarray
    pairs: tuple[EigenphasePair, ...]
    residuals: dict[str, float] = field(default_factory=dict)
    column_thetas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        column_thetas = np.array(
            [pair.theta for pair in self.pairs for _ in range(pair.factor.shape[1])], dtype=float
        )
        column_thetas.setflags(write=False)
        object.__setattr__(self, "column_thetas", column_thetas)

    @property
    def num_arcs(self) -> int:
        return self.proj_plus1.shape[0]


def walk_spectrum_residuals(
    dec: SpectralDecomposition, arc_space: ArcSpace, ws: WalkSpectrum
) -> dict[str, float]:
    """Residuals of the walk projection suite, in the max norm but for
    ``eigen`` (Frobenius) and ``orthogonality`` (a bound).

    Covers unitarity of U (from the k x k coin, :func:`coin_unitarity`),
    hermiticity, idempotency, the eigen-defect, pairwise orthogonality,
    completeness, spectral resolution of U, and the tail-incidence
    correspondence T F_{+-theta} T^T = (k/2) E_r, T F_{+1} T^T = k E_0, and
    on bipartite graphs T F_{-1} T^T = k E_{-k}.

    ``eigen`` is the largest f_i = ||e_i||_F with e_i = U P_i - mu_i P_i,
    for mu_i the eigenvalue 1, -1 or e^{+-i theta} of projection P_i,
    taken in O(m^2) per projection like :func:`apply_walk`, but in place
    (:func:`_eigen_defect`). Orthogonality follows from it without the
    O(p^2 m^3) pairwise products of p projections: since
    (U P_i)^* U P_j = P_i^* U^T U P_j,

        (1 - conj(mu_i) mu_j) P_i^* P_j = conj(mu_i) P_i^* e_j + mu_j e_i^* P_j
                                          + e_i^* e_j + P_i^* (I - U^T U) P_j

    where |1 - conj(mu_i) mu_j| = |mu_i - mu_j|. With h_i = ||P_i - P_i^*||_F,
    N_i = 1 + ||P_i^2 - P_i||_F + h_i, which bounds ||P_i||_2 (from
    ||P||^2 = ||P^* P|| <= ||P^2 - P|| + ||P|| + h ||P||), and
    u = k coin_unitarity(k), which bounds ||U^T U - I||_2,

        max |P_i P_j| <= (N_i f_j + f_i N_j + f_i f_j + N_i N_j u) / |mu_i - mu_j|
                         + h_i N_j

    using P_i P_j = P_i^* P_j + (P_i - P_i^*) P_j. ``orthogonality`` is the
    largest of these bounds over the pairs i < j, except that a pair whose
    bound exceeds TAU_WALK (nearly equal eigenvalues, or theta near 0 or
    pi against +-1) contributes its measured max |P_i P_j| instead. It is
    never below the measured maximum.

    Only F_{+theta} of each conjugate pair is read, formed from its factor
    (``pair.plus``) one pair at a time, so the suite holds one complex m x m
    projection beside F_{+-1}. U, T and the E_r are real and F_{-theta} =
    conj(F_{+theta}), so each defect, product, sum and tail projection of
    F_{-theta} is the conjugate of that of F_{+theta}: h, N and f are taken
    once per pair, the bound runs over the full list with them repeated,
    and completeness and resolution add the real part of each term twice,
    as the full sums do (their imaginary parts cancel exactly). A pair is
    formed again only for a direct product where its bound fails.
    """
    k = arc_space.k

    def tail_project(P):
        # T P T^T, summing rows then columns over the tail blocks
        return tail_sum(arc_space, tail_sum(arc_space, P).T).T

    def checked(i):
        # F_{+1}, F_{-1}, then F_{+theta} of each pair, formed from its factor
        return (ws.proj_plus1, ws.proj_minus1)[i] if i < 2 else ws.pairs[i - 2].plus

    # the full list: F_{+1}, F_{-1}, then F_{+theta}, F_{-theta} per pair
    eigenvalues = np.array(
        [1.0, -1.0] + [np.exp(s * 1j * pair.theta) for pair in ws.pairs for s in (1, -1)]
    )
    count = 2 + len(ws.pairs)
    source = np.concatenate(([0, 1], np.repeat(np.arange(2, count), 2)))

    herm = idem = 0.0
    skew, norm_bound, defect = np.zeros((3, count))
    total = ws.proj_plus1 + ws.proj_minus1
    recon = ws.proj_plus1 - ws.proj_minus1
    correspondence = float(
        np.abs(tail_project(ws.proj_plus1) - k * dec.idempotents[0]).max()
    )
    for i, mu in enumerate([1.0, -1.0, *eigenvalues[2::2]]):
        P = checked(i)
        # each m x m working array is freed before the next is made, so the
        # loop holds one beside the projection and the two sums
        D = np.conjugate(P.T)
        np.subtract(P, D, out=D)
        herm = max(herm, float(np.abs(D).max()))
        skew[i] = np.linalg.norm(D)
        del D
        D = P @ P
        D -= P
        idem = max(idem, float(np.abs(D).max()))
        norm_bound[i] = 1.0 + np.linalg.norm(D) + skew[i]
        del D
        defect[i] = np.linalg.norm(_eigen_defect(arc_space, P, mu))
        if i >= 2:
            total += P.real
            total += P.real
            part = (mu * P).real
            recon += part
            recon += part
            del part
            E = dec.idempotents[ws.pairs[i - 2].index]
            correspondence = max(
                correspondence, float(np.abs(tail_project(P) - (k / 2.0) * E).max())
            )
        del P
    skew, norm_bound, defect = skew[source], norm_bound[source], defect[source]

    total -= np.eye(arc_space.num_arcs)
    completeness = float(np.abs(total).max())
    del total
    recon -= transition_matrix(arc_space)
    resolution = float(np.abs(recon).max())
    del recon

    def projection(i):
        P = checked(source[i])
        return P.conj() if i > 2 and i % 2 else P

    unitarity = coin_unitarity(k)
    gap = np.abs(eigenvalues[:, None] - eigenvalues)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (
            np.outer(norm_bound, defect) + np.outer(defect, norm_bound)
            + np.outer(defect, defect) + k * unitarity * np.outer(norm_bound, norm_bound)
        ) / gap + np.outer(skew, norm_bound)
    for i, j in zip(*np.nonzero(np.triu(~(bound <= TAU_WALK), 1))):
        bound[i, j] = np.abs(projection(i) @ projection(j)).max()
    orth = float(bound[np.triu_indices(len(eigenvalues), 1)].max())

    residuals = {
        "hermiticity": herm,
        "idempotency": idem,
        "eigen": float(defect.max()),
        "orthogonality": orth,
        "completeness": completeness,
        "resolution": resolution,
        "correspondence": correspondence,
        "unitarity": unitarity,
    }
    if dec.has_minus_k:
        residuals["minus_one_correspondence"] = float(
            np.abs(tail_project(ws.proj_minus1) - k * dec.idempotents[-1]).max()
        )
    return residuals


def _eigen_defect(
    arc_space: ArcSpace, P: np.ndarray, mu: complex, out: np.ndarray | None = None
) -> np.ndarray:
    """R (U P - mu P) = C P - mu R P, with C = 2/k T^T T - I the coin, in one
    array shaped like P (written into ``out`` if given): it has the
    Frobenius norm of U P - mu P."""
    # mode='clip' (the indices are in range) lets take write into out unbuffered
    E = np.take(P, arc_space.reversal_perm, axis=0, out=out, mode="clip")
    E *= -mu
    E -= P
    blocks = E.reshape(arc_space.n, arc_space.k, -1)
    blocks += (2.0 / arc_space.k) * tail_sum(arc_space, P)[:, None]
    return E


def _angle_columns(dec: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``dec.vectors`` whose classes have an angle theta in
    (0, pi), a view, and the angle of each column."""
    live = dec.num_classes - dec.has_minus_k
    first, stop = dec.multiplicities[0], dec.n - dec.has_minus_k * dec.multiplicities[-1]
    return dec.vectors[:, first:stop], np.repeat(dec.angles[1:live], dec.multiplicities[1:live])


def walk_spectrum(
    dec: SpectralDecomposition, arc_space: ArcSpace, verify: bool = True
) -> WalkSpectrum:
    """Build the walk spectrum from the adjacency eigenvectors.

    For each adjacency angle theta in (0, pi) with orthonormal eigenvectors
    V_r (its class's columns of ``dec.vectors``), the e^{i theta} eigenspace
    of U has the orthonormal basis

        W_r = (T - e^{i theta} H)^T V_r / (sqrt(2k) sin theta)

    (the spectral mapping theorem; Higuchi, Konno, Sato and Segawa,
    J. Funct. Anal. 267, 2014), so F_{+theta} = W_r W_r^H. The W_r fill one
    read-only complex (m, N) array W, N = sum m_r <= n - 1, in O(m N);
    neither F_{+theta} nor its conjugate F_{-theta} is stored. The +-1
    projections are recovered by splitting the residual complement
    P = I - sum(F_{+theta} + F_{-theta}) = I - 2 Re W W^H, which is real,
    into F_{+1} = (P + UP)/2 and F_{-1} = (P - UP)/2, both stored as real
    arrays; this captures both the lifts of the +-k adjacency classes and
    the kernel components of the incidence maps.

    A build whose peak, W and the two real projections plus
    WORKSPACE_ARRAYS, would take more than MAX_SPECTRUM_BYTES is refused
    with a ValueError before any array is allocated.
    """
    k, m = arc_space.k, arc_space.num_arcs
    V, theta = _angle_columns(dec)
    # the two real m x m projections are one complex array's worth
    square, workspace = WORKSPACE_ARRAYS[verify]
    _within_limit(16 * m * ((1 + square) * m + V.shape[1] + workspace * arc_space.n),
                  f"walk spectrum on {m} arcs")

    W = V[arc_space.tails] - np.exp(1j * theta) * V[arc_space.heads]
    W /= np.sqrt(2.0 * k) * np.sin(theta)
    W.setflags(write=False)
    pairs = tuple(
        EigenphasePair(index=r, theta=float(dec.angles[r]), factor=W[:, lo : lo + size])
        for r, lo, size in zip(range(1, dec.num_classes - dec.has_minus_k),
                               dec.class_starts[1:] - dec.multiplicities[0], dec.multiplicities[1:])
    )

    # Re W W^H from the real and imaginary parts, two real products
    part = np.ascontiguousarray(W.real)
    residual = part @ part.T
    part = np.ascontiguousarray(W.imag)
    residual += part @ part.T
    del part
    residual *= -2.0
    residual[np.diag_indices(m)] += 1.0
    plus1 = apply_walk(arc_space, residual)
    plus1 += residual
    plus1 /= 2.0
    residual -= plus1
    minus1 = residual
    plus1.setflags(write=False)
    minus1.setflags(write=False)

    ws = WalkSpectrum(proj_plus1=plus1, proj_minus1=minus1, factors=W, pairs=pairs)
    if verify:
        ws.residuals.update(walk_spectrum_residuals(dec, arc_space, ws))
        bad = {name: val for name, val in ws.residuals.items() if val > TAU_WALK}
        if bad:
            raise WalkSpectrumError(
                "walk projection suite failed: "
                + ", ".join(f"{name}={val:.3e}" for name, val in bad.items()),
                ws.residuals,
            )
    return ws


@dataclass(frozen=True, eq=False)
class State:
    """Unit vector over arcs, stored as a read-only complex array."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1:
            raise ValueError(f"state must be a vector, got shape {amp.shape}")
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= STATE_NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {STATE_NORM_TOL}")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def __len__(self) -> int:
        return len(self.amplitudes)


def initial_state(arc_space: ArcSpace, a: int) -> State:
    """Uniform superposition over the arcs leaving vertex a."""
    if not 0 <= a < arc_space.n:
        raise ValueError(f"vertex {a} out of range [0, {arc_space.n})")
    k = arc_space.k
    amp = np.zeros(arc_space.num_arcs, dtype=complex)
    amp[a * k : (a + 1) * k] = 1.0 / np.sqrt(k)
    return State(amp)


def flat_arc_state(arc_space: ArcSpace, w: np.ndarray) -> State:
    """Lift a +-1 vertex vector w to the flat arc state T^T w / sqrt(nk)."""
    w = np.asarray(w)
    if w.shape != (arc_space.n,):
        raise ValueError(f"sign vector must have shape ({arc_space.n},)")
    if not np.isin(w, (-1, 1)).all():
        raise ValueError("sign vector entries must be +1 or -1")
    amp = w[arc_space.tails].astype(complex)
    return State(amp / np.sqrt(arc_space.n * arc_space.k))


def _minus_one_power(t: float) -> complex:
    # exact +-1 at integer times, principal branch e^{i pi t} otherwise
    if float(t) == int(t):
        return complex((-1.0) ** (int(t) % 2))
    return np.exp(1j * np.pi * t)


def evolve(ws: WalkSpectrum, x: State, t: float) -> State:
    """Apply U^t through the spectral projections (principal branch)."""
    return State(evolve_operator(ws, x.amplitudes, t))


def evolve_operator(ws: WalkSpectrum, M: np.ndarray, t: float) -> np.ndarray:
    """Apply U^t to a vector or to each column of a matrix (principal branch).

    U is real and F_{-theta} = conj(F_{+theta}), F_{+theta} = W_r W_r^H, so
    for a real v

        U^t v = F_{+1} v + e^{i pi t} F_{-1} v + 2 Re W (e^{i t theta} . W^H v)

    with e^{i t theta} the phase of each column of W: O(m N) per column
    beside the two real m x m products, and no projection is formed. A
    complex M goes through as its real and imaginary parts side by side,
    the imaginary part only when it is not all zero.
    """
    M = np.asarray(M)
    parts = [M.real]
    if np.iscomplexobj(M) and M.imag.any():
        parts.append(M.imag)
    V = np.stack(parts, axis=-1).reshape(len(M), -1)
    W = ws.factors
    turned = W.conj().T @ V
    turned *= np.exp(1j * t * ws.column_thetas)[:, None]
    out = ws.proj_plus1 @ V
    out += 2.0 * (W @ turned).real
    out = out + _minus_one_power(t) * (ws.proj_minus1 @ V)
    out = out.reshape(M.shape + (len(parts),))
    return out[..., 0] if len(parts) == 1 else out[..., 0] + 1j * out[..., 1]


def evolve_by_projections(
    dec: SpectralDecomposition, arc_space: ArcSpace, x: np.ndarray, t: float
) -> np.ndarray:
    """:func:`evolve_operator` on one real arc vector x, with each projection
    of :func:`walk_spectrum` applied to x without being formed, in O(n N + m)
    for the N columns V of ``dec.vectors`` with an angle theta in (0, pi).
    F_{+theta_r} x = (T - e^{i theta} H)^T V_r V_r^T (T x - e^{-i theta} H x)
    / (2 k sin^2 theta), so with c = (V^T T x - e^{-i theta} V^T H x) /
    (2 k sin^2 theta), one coefficient per column,

        sum_r e^{i t theta_r} F_{+theta_r} x = (V c_t)[tails] - (V (e^{i theta} c_t))[heads]

    for c_t = e^{i t theta} c: one product of V with four columns, t = 0 and
    t. F_{-theta} x is the conjugate, and the rest P x = x - sum 2 Re F_{+theta} x
    splits into F_{+1} x = (P x + U P x) / 2 and F_{-1} x = P x - F_{+1} x.
    """
    x = np.asarray(x, dtype=float)
    V, theta = _angle_columns(dec)
    phase = np.exp(1j * theta)
    tail_c = V.T @ tail_sum(arc_space, x)
    head_c = V.T @ tail_sum(arc_space, x[arc_space.reversal_perm])  # H x = T R x
    c = (tail_c - phase.conj() * head_c) / (2.0 * arc_space.k * np.sin(theta) ** 2)
    turned = np.exp(1j * t * theta) * c
    # only real parts reach 2 Re F_{+theta} x, so the four vertex arrays are real
    tail, head, tail_t, head_t = np.stack([c, phase * c, turned, phase * turned]).real @ V.T
    tails, heads = arc_space.tails, arc_space.heads
    rest = x - 2.0 * (tail[tails] - head[heads])
    plus1 = (rest + apply_walk(arc_space, rest)) / 2.0
    return 2.0 * (tail_t[tails] - head_t[heads]) + plus1 + _minus_one_power(t) * (rest - plus1)


def _class_weights(theta: np.ndarray) -> np.ndarray:
    """Head and tail weights (rows 0 and 1) of the e^{i theta} eigen-component
    of U on the adjacency classes with angles theta in [0, pi) (a 1-D
    array): for X = E_r x it is p = (head X[heads] + tail X[tails]) / sqrt(k),
    and class r adds 2 Re(e^{i t theta} p) to U^t x. The valency class
    (theta = 0) has p = X[tails] / (2 sqrt(k)). :func:`entry_parts`
    evaluates with these weights and :func:`check_closed_form` certifies
    them. They depend on the angles alone, so each set is formed once."""
    return _weights_of(np.asarray(theta, dtype=float).tobytes())


@functools.lru_cache(maxsize=256)
def _weights_of(angles: bytes) -> np.ndarray:
    theta = np.frombuffer(angles)
    weights = np.zeros((2, len(theta)), dtype=complex)
    valency = theta == 0.0
    np.divide(-0.5j, np.sin(theta), out=weights[0], where=~valency)
    np.multiply(-np.exp(-1j * theta), weights[0], out=weights[1])
    weights[1, valency] = 0.5
    weights.setflags(write=False)
    return weights


def entry_parts(
    dec: SpectralDecomposition, starts, t: float, scale=None
) -> tuple[np.ndarray, np.ndarray]:
    """The n x c vertex arrays (tail, head) of U^t on the start vertices
    ``starts`` (one, a 1-D array, or ``slice(None)`` for all), U^t x_a = (tail[tails] + head[heads])
    / sqrt(k), in closed form. The amplitude on arc (u, v) is

        1/sqrt(k) * ( sum_{theta_r in (0, pi)} [ sin(t theta_r) (E_r)_{va}
                      - sin((t-1) theta_r) (E_r)_{ua} ] / sin(theta_r)
                      + (E_0)_{ua} + (-1)^t (E_{-k})_{ua} )

    with the bipartite term present only when -k is an eigenvalue: the
    class weights of :func:`_class_weights`, each class also scaled by
    ``scale[r]`` if given (``dec.eigenvalues`` gives (A tail, A head)),
    contracted with the rows E_r[starts] (E_r is symmetric) over all
    classes in one product. Real t uses the principal branch, like
    :func:`evolve`. An array of all n starts in order is read as
    ``slice(None)``, so the rows are a view, not a gathered (d, n, n) copy.
    """
    if isinstance(starts, np.ndarray) and starts.dtype.kind in "iu":
        if starts.shape == (dec.n,) and np.array_equal(starts, np.arange(dec.n)):
            starts = slice(None)
    live = dec.num_classes - dec.has_minus_k
    angles = dec.angles[:live]
    phase = np.exp(1j * t * angles)
    phase *= 2.0 if scale is None else 2.0 * scale[:live]
    weights = (phase * _class_weights(angles)[::-1]).real
    rows = dec.idempotents[:live, starts]
    parts = (weights @ rows.reshape(live, -1)).reshape((2,) + rows.shape[1:])
    tail, head = np.moveaxis(parts, -1, 1)
    if dec.has_minus_k:
        factor = _minus_one_power(t) * (1.0 if scale is None else scale[-1])
        tail = tail + factor * dec.idempotents[-1][:, starts]
    return tail, head


def entry_block(
    dec: SpectralDecomposition, arc_space: ArcSpace, starts, t: float
) -> np.ndarray:
    """U^t x_a in closed form from adjacency idempotents alone, for one start
    vertex a (shape (m,)) or a 1-D array of them (shape (m, c)): the
    :func:`entry_parts` gathered onto the arcs."""
    tail, head = entry_parts(dec, starts, t)
    return (tail[arc_space.tails] + head[arc_space.heads]) / np.sqrt(arc_space.k)


def entry_formula(
    dec: SpectralDecomposition, arc_space: ArcSpace, a: int, t: float
) -> State:
    """:func:`entry_block` for the single start vertex a, as a State."""
    if not 0 <= a < dec.n:
        raise ValueError(f"vertex {a} out of range [0, {dec.n})")
    return State(entry_block(dec, arc_space, a, t))


def check_closed_form(
    dec: SpectralDecomposition, arc_space: ArcSpace, columns
) -> dict[str, float]:
    """Frobenius-norm defects of the eigen-components p_r behind
    :func:`entry_block` on the arc states x = T^T v / sqrt(k) of the vertex
    vectors v in ``columns`` (an n x c block, or a 1-D list of start
    vertices standing for their one-hot columns), built one class at a time
    and checked with the O(m) :func:`apply_walk`; WalkSpectrumError when one
    exceeds TAU_WALK.

    - ``eigen``: the largest ||U p_r - mu_r p_r|| over the classes, with
      mu_r = e^{i theta_r}, and mu = -1 for the bipartite class -k, whose
      component is p = (E_{-k} v)[tails] / sqrt(k);
    - ``start``: ||sum_r 2 Re p_r + p_{-k} - x||, the t = 0 identity.

    At integer t >= 0, U^t x then differs from :func:`entry_block` by at
    most start + (2d + 1) t eigen, for d angle classes. Both identities are
    linear in v, so on the seeded random columns of :func:`probe_block`
    they check the whole start block at once (Freivalds' check). Each p_r
    and its drift are built in place in two complex m x c arrays that every
    class reuses, so the check holds about three at its peak (traced with
    tracemalloc: 2.6 to 3.3 on all start columns of rook:6, rook:8 and
    hadamard-srg:4, 3.4 to 3.8 on their four probes); a block where four
    would pass MAX_SPECTRUM_BYTES raises ValueError before any is allocated.
    """
    n, m = arc_space.n, arc_space.num_arcs
    columns = np.asarray(columns)
    if columns.ndim == 1:
        outside = columns[(columns < 0) | (columns >= n)]
        if outside.size:
            raise ValueError(f"vertex {outside[0]} out of range [0, {n})")
        columns = (np.arange(n)[:, None] == columns).astype(float)
    if columns.shape[0] != n:
        raise ValueError(f"vertex block has {columns.shape[0]} rows, expected {n}")
    _within_limit(16 * 4 * m * columns.shape[1],
                  f"closed-form check of {columns.shape[1]} columns on {m} arcs")
    tails, heads, root_k = arc_space.tails, arc_space.heads, np.sqrt(arc_space.k)
    live = dec.num_classes - dec.has_minus_k
    head_weights, tail_weights = _class_weights(dec.angles[:live])
    eigen = np.zeros(dec.num_classes)
    total = columns[tails] / -root_k
    # p and its drift are built in place, in two arrays reused by every class
    p = np.empty((m, columns.shape[1]), dtype=complex)
    drift = np.empty_like(p)
    for r in range(dec.num_classes):
        X = dec.idempotents[r] @ columns
        if r < live:
            # (head X)[heads] + (tail X)[tails], weighted on the vertices
            np.take(head_weights[r] * X, heads, axis=0, out=p, mode="clip")
            p += np.take(tail_weights[r] * X, tails, axis=0, out=drift, mode="clip")
            p /= root_k
            mu = np.exp(1j * dec.angles[r])
            total += p.real
            total += p.real
        else:
            np.take((X / root_k).astype(complex), tails, axis=0, out=p, mode="clip")
            mu = -1.0
            total += p.real
        _eigen_defect(arc_space, p, mu, out=drift)
        eigen[r] = np.vdot(drift, drift).real
    residuals = {"eigen": float(np.sqrt(eigen.max())), "start": float(np.linalg.norm(total))}
    bad = {name: val for name, val in residuals.items() if not val <= TAU_WALK}
    if bad:
        raise WalkSpectrumError(
            "closed-form certificate failed: "
            + ", ".join(f"{name}={val:.3e}" for name, val in bad.items()),
            residuals,
        )
    return residuals


#: seeded random vertex vectors on which ``analyze`` checks the closed form
PROBES = 4


def probe_block(n: int) -> np.ndarray:
    """n x PROBES block of seeded Gaussian vertex vectors of unit norm.

    Their arc states T^T w / sqrt(k) are the combinations X w of the start
    block X, so :func:`check_closed_form` on them costs O(d (n^2 + m)) per
    probe and still sees every start column: a defect map that is not zero
    has a random w in its kernel with probability 0 (R. Freivalds, IFIP
    1977).
    """
    w = np.random.default_rng(0).standard_normal((n, PROBES))
    return w / np.linalg.norm(w, axis=0)


def coin_unitarity(k: int) -> float:
    """max |U U^T - I| from the k x k Grover coin G = 2/k J - I alone.

    U = R C with the reversal R a permutation (checked exactly by
    :func:`build_arc_space`) and C block diagonal with blocks G, so
    U U^T - I = R (C C^T - I) R^T holds the entries of G G^T - I.
    """
    G = np.full((k, k), 2.0 / k) - np.eye(k)
    return float(np.abs(G @ G.T - np.eye(k)).max())


def arc_distribution(x: State) -> np.ndarray:
    """Probability vector |amplitude|^2 over arcs."""
    return np.abs(x.amplitudes) ** 2


def flatness_deficit(x: State) -> float:
    """Max deviation of |amplitude| from the uniform value 1/sqrt(num arcs)."""
    target = 1.0 / np.sqrt(len(x))
    return float(np.abs(np.abs(x.amplitudes) - target).max())


def realness_deficit(x: State) -> float:
    """Max |imaginary part| over arcs."""
    return float(np.abs(x.amplitudes.imag).max())


def imaginary_flatness_deficit(
    g: Graph, arc_space: ArcSpace, x: State, a: int, t: float
) -> float:
    """Deviation of Im(x) from the bipartite prediction.

    On a connected bipartite k-regular graph the imaginary part of
    U^t x_a is constant in modulus: the arc (u, v) carries
    sin(pi t) chi_u chi_a / (n sqrt(k)) where chi is the +-1 color class.
    Returns the max absolute deviation from that profile.
    """
    if not g.is_bipartite or g.color_class is None:
        raise ValueError("imaginary flatness profile requires a bipartite graph")
    chi = g.color_class
    predicted = (
        np.sin(np.pi * t) * chi[arc_space.tails] * chi[a] / (g.n * np.sqrt(arc_space.k))
    )
    return float(np.abs(x.amplitudes.imag - predicted).max())


def state_to_json(x: State) -> list[list[float]]:
    """Serialize amplitudes as [re, im] pairs in arc order."""
    return [[float(z.real), float(z.imag)] for z in x.amplitudes]
