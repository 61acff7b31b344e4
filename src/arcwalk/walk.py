"""Arc space, transition operator, and spectral evolution of the walk.

The walk lives on the nk arcs (ordered vertex pairs along edges) of a
connected k-regular graph. One step applies the Grover coin at each
vertex followed by arc reversal:

    U = R (2/k * T^T T - I)

where T is the n x nk tail incidence matrix and R the reversal
permutation. U decomposes into eigenprojections derived from the
adjacency idempotents: a projection for eigenvalue +1, one for -1
(nonzero on bipartite graphs and on cycles of the reversal structure),
and a conjugate pair for each adjacency angle theta in (0, pi) with
walk eigenvalues e^{+-i theta}.

Real powers U^t are taken with the principal branch, e^{i t theta} per
projection, so (-1)^t means e^{i pi t}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph
from .spectra import SpectralDecomposition

#: tolerance for the walk projection suite and spectral resolution of U
TAU_WALK = 1e-9
#: unit-norm tolerance enforced by State
STATE_NORM_TOL = 1e-12
#: most bytes the dense projections of :func:`walk_spectrum` may take
MAX_SPECTRUM_BYTES = 2**29


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

    ``index`` is the position of the source eigenvalue class in the
    adjacency decomposition.
    """

    index: int
    theta: float
    plus: np.ndarray
    minus: np.ndarray


@dataclass(frozen=True, eq=False)
class WalkSpectrum:
    """Spectral projections of U: the +-1 projections and one conjugate
    pair per adjacency angle in (0, pi). ``residuals`` is the projection
    suite they passed, empty when they were built without verification."""

    proj_plus1: np.ndarray
    proj_minus1: np.ndarray
    pairs: tuple[EigenphasePair, ...]
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def num_arcs(self) -> int:
        return self.proj_plus1.shape[0]


def walk_spectrum_residuals(
    dec: SpectralDecomposition, arc_space: ArcSpace, ws: WalkSpectrum
) -> dict[str, float]:
    """Max-norm residuals of the walk projection suite.

    Covers unitarity of U, hermiticity, idempotency, pairwise
    orthogonality, completeness, spectral resolution of U, and the
    tail-incidence correspondence T F_{+-theta} T^T = (k/2) E_r,
    T F_{+1} T^T = k E_0, and on bipartite graphs T F_{-1} T^T = k E_{-k}.
    """
    U = transition_matrix(arc_space)
    m = arc_space.num_arcs
    k = arc_space.k

    def tail_project(P):
        # T P T^T, summing rows then columns over the tail blocks
        return tail_sum(arc_space, tail_sum(arc_space, P).T).T

    projections = [ws.proj_plus1, ws.proj_minus1]
    projections.extend(p for pair in ws.pairs for p in (pair.plus, pair.minus))

    herm = max(float(np.abs(P - P.conj().T).max()) for P in projections)
    idem = max(float(np.abs(P @ P - P).max()) for P in projections)
    orth = 0.0
    for i, P in enumerate(projections):
        for Q in projections[i + 1 :]:
            orth = max(orth, float(np.abs(P @ Q).max()))
    total = sum(projections)
    completeness = float(np.abs(total - np.eye(m)).max())

    recon = ws.proj_plus1.astype(complex) - ws.proj_minus1
    for pair in ws.pairs:
        recon = recon + np.exp(1j * pair.theta) * pair.plus
        recon = recon + np.exp(-1j * pair.theta) * pair.minus
    resolution = float(np.abs(recon - U).max())

    correspondence = float(
        np.abs(tail_project(ws.proj_plus1) - k * dec.idempotents[0]).max()
    )
    for pair in ws.pairs:
        E = dec.idempotents[pair.index]
        for P in (pair.plus, pair.minus):
            correspondence = max(
                correspondence, float(np.abs(tail_project(P) - (k / 2.0) * E).max())
            )

    residuals = {
        "hermiticity": herm,
        "idempotency": idem,
        "orthogonality": orth,
        "completeness": completeness,
        "resolution": resolution,
        "correspondence": correspondence,
        "unitarity": float(np.abs(U @ U.T - np.eye(m)).max()),
    }
    if dec.has_minus_k:
        residuals["minus_one_correspondence"] = float(
            np.abs(tail_project(ws.proj_minus1) - k * dec.idempotents[-1]).max()
        )
    return residuals


def walk_spectrum(
    dec: SpectralDecomposition, arc_space: ArcSpace, verify: bool = True
) -> WalkSpectrum:
    """Build the walk projections from the adjacency decomposition.

    For each adjacency angle theta in (0, pi) with idempotent E,

        F_{+theta} = (T - e^{+i theta} H)^T E (T - e^{-i theta} H)
                     / (2 k sin^2 theta)

    and F_{-theta} is its conjugate. The +-1 projections are recovered by
    splitting the residual complement P = I - sum(F_{+theta} + F_{-theta})
    into F_{+1} = (P + UP)/2 and F_{-1} = (P - UP)/2; this captures both
    the lifts of the +-k adjacency classes and the kernel components of
    the incidence maps.

    Projections that would take more than MAX_SPECTRUM_BYTES are refused
    with a ValueError before any is allocated.
    """
    k = arc_space.k
    tails, heads = arc_space.tails, arc_space.heads
    m = arc_space.num_arcs
    # the +-1 projections and two per angle in (0, pi), complex128 m x m each
    size = 16 * (2 + 2 * (dec.num_classes - 1 - dec.has_minus_k)) * m * m
    if size > MAX_SPECTRUM_BYTES:
        raise ValueError(
            f"dense walk spectrum on {m} arcs needs {size >> 20} MiB, over the "
            f"limit of {MAX_SPECTRUM_BYTES >> 20} MiB"
        )

    pairs = []
    for r in range(1, dec.num_classes):
        theta = float(dec.angles[r])
        if dec.has_minus_k and r == dec.num_classes - 1:
            continue
        E = dec.idempotents[r]
        phase = np.exp(1j * theta)
        # rows of (T^T - e^{i theta} H^T) E, then its columns gathered by
        # (T - e^{-i theta} H)
        left = E[tails] - phase * E[heads]
        plus = (left[:, tails] - np.conj(phase) * left[:, heads]) / (
            2.0 * k * np.sin(theta) ** 2
        )
        minus = plus.conj()
        plus.setflags(write=False)
        minus.setflags(write=False)
        pairs.append(EigenphasePair(index=r, theta=theta, plus=plus, minus=minus))

    residual = np.eye(m, dtype=complex)
    for pair in pairs:
        residual = residual - pair.plus - pair.minus
    plus1 = (residual + apply_walk(arc_space, residual)) / 2.0
    minus1 = residual - plus1
    plus1.setflags(write=False)
    minus1.setflags(write=False)

    ws = WalkSpectrum(proj_plus1=plus1, proj_minus1=minus1, pairs=tuple(pairs))
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
        if abs(norm - 1.0) > STATE_NORM_TOL:
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
    """Apply U^t to a vector or to each column of a matrix (principal branch)."""
    M = np.asarray(M, dtype=complex)
    out = ws.proj_plus1 @ M + _minus_one_power(t) * (ws.proj_minus1 @ M)
    for pair in ws.pairs:
        out = out + np.exp(1j * pair.theta * t) * (pair.plus @ M)
        out = out + np.exp(-1j * pair.theta * t) * (pair.minus @ M)
    return out


def _class_weights(theta: float) -> tuple[complex, complex]:
    """Head and tail weights of the e^{i theta} eigen-component of U on the
    adjacency class with angle theta in [0, pi): for X = E_r x it is
    p = (head X[heads] + tail X[tails]) / sqrt(k), and class r adds
    2 Re(e^{i t theta} p) to U^t x. The valency class (theta = 0) has
    p = X[tails] / (2 sqrt(k)). :func:`entry_block` evaluates with these
    weights and :func:`check_closed_form` certifies them."""
    if theta == 0.0:
        return 0.0, 0.5
    head = 1.0 / (2j * np.sin(theta))
    return head, -np.exp(-1j * theta) * head


def entry_block(
    dec: SpectralDecomposition, arc_space: ArcSpace, starts, t: float
) -> np.ndarray:
    """Closed form for U^t x_a from adjacency idempotents alone, for one
    start vertex a (shape (m,)) or a 1-D array of them (shape (m, c)).

    The amplitude on arc (u, v) is

        1/sqrt(k) * ( sum_{theta_r in (0, pi)} [ sin(t theta_r) (E_r)_{va}
                      - sin((t-1) theta_r) (E_r)_{ua} ] / sin(theta_r)
                      + (E_0)_{ua} + (-1)^t (E_{-k})_{ua} )

    with the bipartite term present only when -k is an eigenvalue. The
    class sums (see :func:`_class_weights`) run on n x c vertex arrays,
    gathered to arcs once. Real t uses the principal branch, matching
    :func:`evolve`.
    """
    head_part = np.zeros((dec.n,) + np.shape(starts), dtype=complex)
    tail_part = head_part.copy()
    if dec.has_minus_k:
        tail_part += _minus_one_power(t) * dec.idempotents[-1][:, starts]
    for r in range(dec.num_classes - dec.has_minus_k):
        theta = dec.angles[r]
        phase = 2.0 * np.exp(1j * t * theta)
        head, tail = _class_weights(theta)
        column = dec.idempotents[r][:, starts]
        head_part += (phase * head).real * column
        tail_part += (phase * tail).real * column
    return (tail_part[arc_space.tails] + head_part[arc_space.heads]) / np.sqrt(arc_space.k)


def entry_formula(
    dec: SpectralDecomposition, arc_space: ArcSpace, a: int, t: float
) -> State:
    """:func:`entry_block` for the single start vertex a, as a State."""
    if not 0 <= a < dec.n:
        raise ValueError(f"vertex {a} out of range [0, {dec.n})")
    return State(entry_block(dec, arc_space, a, t))


#: most arc amplitudes (m times the start vertices) held in one block
BLOCK_ENTRIES = 2**19


def start_chunks(arc_space: ArcSpace, starts) -> list[np.ndarray]:
    """Split start vertices into chunks of at most BLOCK_ENTRIES // m (and
    at least one) vertices."""
    starts = np.atleast_1d(np.asarray(starts, dtype=np.int64))
    size = max(1, BLOCK_ENTRIES // arc_space.num_arcs)
    return [starts[i : i + size] for i in range(0, len(starts), size)]


def check_closed_form(
    dec: SpectralDecomposition, arc_space: ArcSpace, starts
) -> dict[str, float]:
    """Frobenius-norm defects of the eigen-components p_r behind
    :func:`entry_block` on the start block x_a, a in ``starts``, built one
    class and one :func:`start_chunks` chunk at a time and checked with the
    O(m) :func:`apply_walk`; WalkSpectrumError when one exceeds TAU_WALK.

    - ``eigen``: the largest ||U p_r - e^{i theta_r} p_r|| over the classes;
    - ``start``: ||sum_r 2 Re p_r - x||, the t = 0 identity.

    At integer t >= 0, U^t x then differs from :func:`entry_block` by at
    most start + (2d + 1) t eigen, for d angle classes.
    """
    if dec.has_minus_k:
        raise ValueError("closed-form check requires a non-bipartite graph")
    tails, heads, root_k = arc_space.tails, arc_space.heads, np.sqrt(arc_space.k)
    eigen_sq = np.zeros(dec.num_classes)
    start_sq = 0.0
    for chunk in start_chunks(arc_space, starts):
        total = (tails[:, None] == chunk) / -root_k
        for r in range(dec.num_classes):
            theta = dec.angles[r]
            head, tail = _class_weights(theta)
            X = dec.idempotents[r][:, chunk]
            p = (head * X[heads] + tail * X[tails]) / root_k
            drift = apply_walk(arc_space, p) - np.exp(1j * theta) * p
            eigen_sq[r] += np.linalg.norm(drift) ** 2
            total += 2.0 * p.real
        start_sq += np.linalg.norm(total) ** 2
    residuals = {"eigen": float(np.sqrt(eigen_sq.max())), "start": float(np.sqrt(start_sq))}
    bad = {name: val for name, val in residuals.items() if not val <= TAU_WALK}
    if bad:
        raise WalkSpectrumError(
            "closed-form certificate failed: "
            + ", ".join(f"{name}={val:.3e}" for name, val in bad.items()),
            residuals,
        )
    return residuals


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


def state_from_json(data) -> State:
    """Inverse of :func:`state_to_json`."""
    amp = np.array([complex(re, im) for re, im in data])
    return State(amp)
