"""Arc space, transition operator, and spectral evolution of the walk.

The walk lives on the nk arcs (ordered vertex pairs along edges) of a
connected k-regular graph. One step applies the Grover coin at each
vertex followed by arc reversal:

    U = R (2/k * T^T T - I)

where T is the n x nk tail incidence matrix and R the reversal
permutation. For each adjacency angle theta in (0, pi) the e^{i theta}
eigenspace of U is lifted from the adjacency eigenvectors and held as the
arc eigenvectors that span it; its conjugate gives e^{-i theta}. What is
left is the +-1 eigenspace of U (the lifts of the +-k adjacency classes
and the kernel components of the incidence maps). Its projections are
never stored: they are applied from the eigenvectors and U alone, and
the certificate checks that complement on seeded probe vectors. No
function here forms an m x m array; U is applied in O(m) per column
(:func:`apply_walk`).

Real powers U^t are taken with the principal branch, e^{i t theta} per
projection, so (-1)^t means e^{i pi t}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph
from .spectra import SpectralDecomposition, _within_limit, class_sums, eigenvectors

#: tolerance for the walk spectrum certificate and the closed-form check
TAU_WALK = 1e-9
#: unit-norm tolerance enforced by State
STATE_NORM_TOL = 1e-12
#: real m x n arrays a build of :func:`walk_spectrum` and its certificate
#: hold beyond W at their peak, plus 8 KiB of Python objects. Traced with
#: tracemalloc on k4, petersen, cycle:8, cycle:300, rook:4-8, hadamard-srg:2-8
#: and random regular graphs of order 16 to 100: 1.8 to 4.7. From rook:8 up
#: it is 2.0 to 2.4, one complex m x N drift and the vertex sums; below, the
#: ufunc buffers of its two broadcasts (up to 128 KiB) weigh as much as W.
WORKSPACE_ARRAYS = 5
#: bytes of the complex m x c blocks, one a class, in a batch of
#: :func:`check_closed_form`. On random-28-4, one class a batch took 353, 413
#: and 796 us on one start, the four probes and all 28; 2^17 bytes took 68,
#: 155 and 631 us, and 2^18 or 2^19 at most 10% less for twice the memory.
CLASS_BATCH_BYTES = 2**17


class WalkSpectrumError(ValueError):
    """The walk spectrum or the closed form failed its certificate; carries
    the residuals."""

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
    tail block (its sum broadcast over the block), then arc reversal."""
    x = np.asarray(x)
    blocks = x.reshape(arc_space.n, arc_space.k, *x.shape[1:])
    coin = (2.0 / arc_space.k) * tail_sum(arc_space, x)[:, None] - blocks
    return coin.reshape(x.shape)[arc_space.reversal_perm]


@dataclass(frozen=True, eq=False)
class WalkSpectrum:
    """Spectrum of U on ``arc_space`` as its arc eigenvectors.

    ``factors`` is the read-only complex (m, N) array W of orthonormal
    eigenvectors of U for the adjacency angles theta in (0, pi),
    N = sum m_r <= n - 1. Column j has eigenvalue e^{i column_thetas[j]} and
    lifts an eigenvector of the adjacency class ``column_classes[j]``; a
    class r takes adjacent columns W_r, so F_{+theta_r} = W_r W_r^H and
    F_{-theta_r} is its conjugate. Nothing m x m is stored: the rest of
    the arc space is the +-1 eigenspace of U, and F_{+1} and F_{-1} are
    applied from W and U (:func:`evolve_operator`). ``residuals`` is the
    certificate W passed (:func:`walk_spectrum_residuals`). On random-28-4
    (m = 112, N = 27) W takes 48,384 B.
    """

    arc_space: ArcSpace
    factors: np.ndarray
    column_thetas: np.ndarray
    column_classes: np.ndarray
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def num_arcs(self) -> int:
        return self.arc_space.num_arcs


def walk_spectrum_residuals(
    dec: SpectralDecomposition, arc_space: ArcSpace, ws: WalkSpectrum
) -> dict[str, float]:
    """Certificate of the arc eigenvectors W = ``ws.factors``, in the max
    norm, with theta the angle of each column:

    - ``gram``: max |W^H W - I| and max |W^T W|, so the columns of W and
      of conj(W) are orthonormal together;
    - ``eigen``: the largest column norm of U W - W diag(e^{i theta}),
      with U applied by :func:`apply_walk`;
    - ``correspondence``: max |T w - sqrt(k/2) (sin theta - i cos theta) v|
      over the columns w of W, with v the column of ``dec.vectors`` that w
      lifts: the i-th column of class r in W against column i mod m_r of
      the class's block V_r, an n x N check;
    - ``sign``: the largest column norm of (U^2 - I) rest for the part
      rest = Z - 2 Re W W^H Z of the seeded unit probes Z =
      :func:`probe_block` (m) off W and conj(W). Once ``eigen`` holds,
      this is M Z for M = (U^2 - I) - 2 Re W diag(e^{2i theta} - 1) W^H,
      and M = 0 says U^2 = I on the complement of W and conj(W), which is
      then exactly the +-1 eigenspace of U. A nonzero M has a random probe
      in its kernel with probability 0 (Freivalds' check), and a defect of
      norm delta spread over the arc space reads about delta / sqrt(m) on a
      unit probe, where the largest entry of M is about delta / m;
    - ``unitarity``: max |U U^T - I| from the k x k coin
      (:func:`coin_unitarity`).

    These imply the projection suite on F_{+-theta} = W_r W_r^H and its
    conjugate and on F_{+-1} = (P +- U P) / 2, P = I - 2 Re W W^H.
    Hermiticity and completeness hold by construction. Idempotency and
    orthogonality follow from ``gram`` and ``sign``, and the resolution of
    U from ``eigen``. The correspondences T F T^T = (k/2) E_r, k E_0 and,
    on bipartite graphs, k E_{-k} follow from ``correspondence``, the exact
    identity T U T^T = A and the adjacency completeness. ``gram`` costs
    one real product of W's m x 2N real view with itself, O(m N^2); every
    other key costs O(m N), and nothing m x m is formed.
    """
    k, m = arc_space.k, arc_space.num_arcs
    W, theta, classes = ws.factors, ws.column_thetas, ws.column_classes
    # one real product gives both Gram matrices: W's real view S holds
    # X = Re W and Y = Im W in alternate columns, and with the blocks of
    # S^T S, W^H W = X^T X + Y^T Y + i (X^T Y - Y^T X) and
    # W^T W = X^T X - Y^T Y + i (X^T Y + Y^T X); a built W is C-contiguous,
    # so the view copies nothing
    S = np.ascontiguousarray(W).view(float)
    G = S.T @ S
    XX, XY, YY = G[0::2, 0::2], G[0::2, 1::2], G[1::2, 1::2]
    gram = max(float(np.hypot(XX + YY - np.eye(W.shape[1]), XY - XY.T).max(initial=0.0)),
               float(np.hypot(XX - YY, XY + XY.T).max(initial=0.0)))
    del S, G, XX, XY, YY
    # R (U W - W diag(e^{i theta})) has the column norms of the drift (R
    # permutes rows); they are summed over a real view, with no second array
    drift = _eigen_defect(arc_space, W, np.exp(1j * theta)).view(float).reshape(m, -1, 2)
    eigen = float(np.sqrt(np.einsum("ijk,ijk->j", drift, drift).max(initial=0.0)))
    del drift
    # the rank of each column among the columns of its class, in order
    order = np.argsort(classes, kind="stable")
    rank = np.empty(len(classes), dtype=int)
    rank[order] = np.arange(len(classes)) - np.searchsorted(classes[order], classes[order])
    V = dec.vectors[:, dec.class_starts[classes] + rank % dec.multiplicities[classes]]
    lifted = np.sqrt(k / 2.0) * (np.sin(theta) - 1j * np.cos(theta)) * V
    correspondence = float(np.abs(tail_sum(arc_space, W) - lifted).max(initial=0.0))

    probes = probe_block(m)
    rest = probes - 2.0 * (W @ (W.T @ probes).conj()).real  # W^H Z for a real Z
    sign = float(np.linalg.norm(apply_walk(arc_space, apply_walk(arc_space, rest)) - rest,
                                axis=0).max())
    return {
        "gram": gram,
        "eigen": eigen,
        "correspondence": correspondence,
        "sign": sign,
        "unitarity": coin_unitarity(k),
    }


def _eigen_defect(
    arc_space: ArcSpace, P: np.ndarray, mu, out: np.ndarray | None = None
) -> np.ndarray:
    """R (U P - mu P) = C P - mu R P, with C = 2/k T^T T - I the coin, for
    arc columns P (m, c) or a stack (b, m, c) of them and mu one eigenvalue,
    one per column or one per block, in one array shaped like P (written
    into ``out`` if given): it has the Frobenius norm of U P - mu P."""
    # mode='clip' (the indices are in range) lets take write into out unbuffered
    E = np.take(P, arc_space.reversal_perm, axis=-2, out=out, mode="clip")
    E *= -mu
    E -= P
    blocks = E.reshape(*P.shape[:-2], arc_space.n, arc_space.k, P.shape[-1])
    blocks += (2.0 / arc_space.k) * P.reshape(blocks.shape).sum(axis=-2, keepdims=True)
    return E


def _angle_columns(dec: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of ``dec.vectors`` whose classes have an angle theta in
    (0, pi), a view, with the angle and the class of each column (both
    read-only); a ValueError for a record without eigenvectors."""
    live = dec.num_classes - dec.has_minus_k
    first, stop = dec.multiplicities[0], dec.n - dec.has_minus_k * dec.multiplicities[-1]
    V = eigenvectors(dec, "walk_spectrum and evolve_by_projections")
    sizes = dec.multiplicities[1:live]
    theta, classes = np.repeat(dec.angles[1:live], sizes), np.repeat(np.arange(1, live), sizes)
    theta.setflags(write=False)
    classes.setflags(write=False)
    return V[:, first:stop], theta, classes


def walk_spectrum(dec: SpectralDecomposition, arc_space: ArcSpace) -> WalkSpectrum:
    """Build the walk spectrum from the adjacency eigenvectors.

    For each adjacency angle theta in (0, pi) with orthonormal eigenvectors
    V_r (its class's columns of ``dec.vectors``), the e^{i theta} eigenspace
    of U has the orthonormal basis

        W_r = (T - e^{i theta} H)^T V_r / (sqrt(2k) sin theta)

    (the spectral mapping theorem; Higuchi, Konno, Sato and Segawa,
    J. Funct. Anal. 267, 2014), so F_{+theta} = W_r W_r^H. The W_r fill one
    read-only complex (m, N) array W, N = sum m_r <= n - 1, in O(m N);
    no projection is stored. The rest of the arc space, the complement of
    W and conj(W), is the +-1 eigenspace of U. Every build is certified,
    W and that complement alike (:func:`walk_spectrum_residuals`, with
    no m x m array), and a certificate above TAU_WALK raises
    WalkSpectrumError.

    A build whose peak, W plus WORKSPACE_ARRAYS, would take more than
    MAX_SPECTRUM_BYTES is refused with a ValueError before any array is
    allocated.
    """
    k, m = arc_space.k, arc_space.num_arcs
    V, theta, classes = _angle_columns(dec)
    _within_limit(8 * m * (2 * V.shape[1] + WORKSPACE_ARRAYS * arc_space.n) + 8192,
                  f"walk spectrum on {m} arcs needs")

    W = V[arc_space.heads] * -np.exp(1j * theta)
    W += V[arc_space.tails]
    W /= np.sqrt(2.0 * k) * np.sin(theta)
    W.setflags(write=False)
    ws = WalkSpectrum(arc_space=arc_space, factors=W, column_thetas=theta, column_classes=classes)
    ws.residuals.update(_certified("walk spectrum", walk_spectrum_residuals(dec, arc_space, ws)))
    return ws


def _certified(what: str, residuals: dict[str, float]) -> dict[str, float]:
    """``residuals``, or a WalkSpectrumError "<what> certificate failed: ..."
    naming each one above TAU_WALK (or NaN)."""
    bad = {name: val for name, val in residuals.items() if not val <= TAU_WALK}
    if bad:
        raise WalkSpectrumError(
            f"{what} certificate failed: "
            + ", ".join(f"{name}={val:.3e}" for name, val in bad.items()),
            residuals,
        )
    return residuals


@dataclass(frozen=True, eq=False)
class State:
    """Unit vector over arcs, stored as a read-only complex copy; ValueError
    for another shape or a norm off 1 by more than STATE_NORM_TOL (or NaN)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1:
            raise ValueError(f"state must be a vector, got shape {amp.shape}")
        norm = math.sqrt(np.vdot(amp, amp).real)
        if not abs(norm - 1.0) <= STATE_NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {STATE_NORM_TOL}")
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
    amp[a * k : (a + 1) * k] = 1.0 / math.sqrt(k)
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


def _time_phases(t: float, angles: np.ndarray) -> np.ndarray:
    """e^{i t theta} for the angles theta, where every read of U^t starts: a
    ValueError naming t, before any product, when t is not finite."""
    if not math.isfinite(t):
        raise ValueError(f"time t={t} is not finite")
    return np.exp(1j * t * angles)


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

        U^t v = 2 Re W (e^{i t theta} . W^H v) + F_{+1} v + e^{i pi t} F_{-1} v

    with e^{i t theta} the phase of each column of W, and F_{+-1} v split
    by :func:`_sign_parts` from the rest v - 2 Re W W^H v: O(m N) per
    column, and no m x m array. A complex M goes through as its real and
    imaginary parts, the imaginary part only when it is not all zero.
    """
    M = np.asarray(M)
    if np.iscomplexobj(M) and M.imag.any():
        return evolve_operator(ws, M.real, t) + 1j * evolve_operator(ws, M.imag, t)
    phases = _time_phases(t, ws.column_thetas)
    V, W = M.real, ws.factors
    coeffs = (W.T @ V).conj()  # W^H V for a real V, without a conjugate copy of W
    turned = W @ (coeffs.T * phases).T
    plus1, minus1 = _sign_parts(ws.arc_space, V - 2.0 * (W @ coeffs).real)
    result = _minus_one_power(t) * minus1
    result += 2.0 * turned.real + plus1
    return result


def _sign_parts(arc_space: ArcSpace, rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F_{+1} x and F_{-1} x from the part rest = x - sum_r (F_{+theta_r} +
    F_{-theta_r}) x of x (a vector or the columns of a matrix), which lies
    in the +-1 eigenspace of U: F_{+1} x = (rest + U rest) / 2 and
    F_{-1} x = rest - F_{+1} x, written over ``rest`` (x - 2 Re W W^H x for a real x)."""
    plus1 = rest + apply_walk(arc_space, rest)
    plus1 /= 2.0
    return plus1, np.subtract(rest, plus1, out=rest)


def evolve_by_projections(
    dec: SpectralDecomposition, arc_space: ArcSpace, x: np.ndarray, t: float
) -> np.ndarray:
    """:func:`evolve_operator` on one arc vector x, with each projection
    of :func:`walk_spectrum` applied to x without being formed, in O(n N + m)
    for the N columns V of ``dec.vectors`` with an angle theta in (0, pi).
    F_{+theta_r} x = (T - e^{i theta} H)^T V_r V_r^T (T x - e^{-i theta} H x)
    / (2 k sin^2 theta), so with c = (V^T T x - e^{-i theta} V^T H x) /
    (2 k sin^2 theta), one coefficient per column,

        sum_r e^{i t theta_r} F_{+theta_r} x = (V c_t)[tails] - (V (e^{i theta} c_t))[heads]

    for c_t = e^{i t theta} c: one product of V with four columns, t = 0 and
    t. F_{-theta} x is the conjugate, and the rest x - sum 2 Re F_{+theta} x
    gives F_{+-1} x by :func:`_sign_parts`. A complex x goes through as
    its real and imaginary parts, as in :func:`evolve_operator`.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x) and x.imag.any():
        return (evolve_by_projections(dec, arc_space, x.real, t)
                + 1j * evolve_by_projections(dec, arc_space, x.imag, t))
    x = np.asarray(x.real, dtype=float)
    V, theta, _ = _angle_columns(dec)
    at_t = _time_phases(t, theta)
    phase = np.exp(1j * theta)
    tail_c = V.T @ tail_sum(arc_space, x)
    head_c = V.T @ tail_sum(arc_space, x[arc_space.reversal_perm])  # H x = T R x
    c = (tail_c - phase.conj() * head_c) / (2.0 * arc_space.k * np.sin(theta) ** 2)
    turned = at_t * c
    # only real parts reach 2 Re F_{+theta} x, so the four vertex arrays are real
    tail, head, tail_t, head_t = np.stack([c, phase * c, turned, phase * turned]).real @ V.T
    tails, heads = arc_space.tails, arc_space.heads
    plus1, minus1 = _sign_parts(arc_space, x - 2.0 * (tail[tails] - head[heads]))
    return 2.0 * (tail_t[tails] - head_t[heads]) + plus1 + _minus_one_power(t) * minus1


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


def _entry_weights(dec: SpectralDecomposition, t: float, scale) -> np.ndarray:
    """The (2, live) real class weights of the head and tail parts of U^t
    x_a over the classes below -k: 2 Re(e^{i t theta_r} p) for the weights
    p of :func:`_class_weights`, each class also scaled by ``scale[r]`` if
    given."""
    live = dec.num_classes - dec.has_minus_k
    angles = dec.angles[:live]
    phase = _time_phases(t, angles)
    phase *= 2.0 if scale is None else 2.0 * scale[:live]
    return (phase * _class_weights(angles)[::-1]).real


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
    class weights of :func:`_entry_weights` (``scale=dec.eigenvalues``
    gives (A tail, A head)), contracted with the rows E_r[starts] (E_r is
    symmetric) over all classes in one :func:`arcwalk.spectra.class_sums`.
    Real t uses the principal branch, like :func:`evolve`. An array of all
    n starts in order is read as ``slice(None)``, so a record of eigh reads
    its rows as a view, not a gathered (d, n, n) copy, and tail and head
    are (n, c) views of the (2, c, n) class sums.
    """
    if isinstance(starts, np.ndarray) and starts.dtype.kind in "iu":
        if starts.shape == (dec.n,) and np.array_equal(starts, np.arange(dec.n)):
            starts = slice(None)
    live = dec.num_classes - dec.has_minus_k
    parts = class_sums(dec, range(live), _entry_weights(dec, t, scale), starts=starts)
    tail, head = parts.swapaxes(1, -1)
    if dec.has_minus_k:
        factor = _minus_one_power(t) * (1.0 if scale is None else scale[-1])
        tail = tail + factor * class_sums(dec, range(live, live + 1), starts=starts)[0].T
    return tail, head


def relation_parts(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """:func:`entry_parts` on a scheme record as one value per relation: a
    (3, d + 1) array of tail, head and A head (A E_r = lambda_r E_r), whose
    arrays on the starts S are these values gathered at R[:, S], as
    sum_r w_r E_r = sum_i (w Q^T / n)_i A_i."""
    weights = _entry_weights(dec, t, None)
    weights = np.vstack([weights, weights[1] * dec.eigenvalues])
    return weights @ (dec.dual_eigenmatrix.T / dec.n)


def entry_block(
    dec: SpectralDecomposition, arc_space: ArcSpace, starts, t: float
) -> np.ndarray:
    """U^t x_a in closed form from adjacency idempotents alone, for one start
    vertex a (shape (m,)) or a 1-D array of them (shape (m, c)): the
    :func:`entry_parts` gathered onto the arcs. A start outside [0, n)
    raises ValueError."""
    _check_vertices(starts, dec.n)
    tail, head = entry_parts(dec, starts, t)
    return (tail[arc_space.tails] + head[arc_space.heads]) / math.sqrt(arc_space.k)


def entry_formula(
    dec: SpectralDecomposition, arc_space: ArcSpace, a: int, t: float
) -> State:
    """:func:`entry_block` for the single start vertex a, as a State."""
    return State(entry_block(dec, arc_space, a, t))


def _check_vertices(starts, n: int) -> None:
    """A ValueError naming the first of the vertices ``starts`` (one, or a
    1-D array) outside [0, n); a single int is checked without numpy."""
    if isinstance(starts, (int, np.integer)):
        outside = [] if 0 <= starts < n else [starts]
    else:
        starts = np.asarray(starts)
        outside = starts[(starts < 0) | (starts >= n)]
    if len(outside):
        raise ValueError(f"vertex {outside[0]} out of range [0, {n})")


def check_closed_form(
    dec: SpectralDecomposition, arc_space: ArcSpace, columns
) -> dict[str, float]:
    """Frobenius-norm defects of the eigen-components p_r behind
    :func:`entry_block` on the arc states x = T^T v / sqrt(k) of the vertex
    vectors v in ``columns`` (an n x c block, or a 1-D list of start
    vertices standing for their one-hot columns), built in batches of
    classes and checked with the O(m) walk of :func:`_eigen_defect`;
    WalkSpectrumError when one exceeds TAU_WALK.

    - ``eigen``: the largest ||U p_r - mu_r p_r|| over the classes, with
      mu_r = e^{i theta_r}, and mu = -1 for the bipartite class -k, whose
      component is p = (E_{-k} v)[tails] / sqrt(k);
    - ``start``: ||sum_r 2 Re p_r + p_{-k} - x||, the t = 0 identity.

    At integer t >= 0, U^t x then differs from :func:`entry_block` by at
    most start + (2d + 1) t eigen, for d angle classes. Both identities are
    linear in v, so on the seeded random columns of :func:`probe_block`
    they check the whole start block at once (Freivalds' check). The
    classes go in batches, as many as fit CLASS_BATCH_BYTES at one complex
    m x c block each, or one: each numpy call but the norm of each drift
    takes a batch, with the bits of one class at a time, and the batch's
    E_r v come from one :func:`arcwalk.spectra.class_sums` (on a scheme
    record, from A v, formed from R once a batch). A batch of
    one holds about three blocks at its peak (tracemalloc: 2.6 to 3.3 on
    all start columns of rook:6, rook:8 and hadamard-srg:4, 3.4 to 3.8 on
    their four probes), a batch of b about 3b, under 0.5 MiB; ValueError,
    before any is allocated, if four blocks a class pass MAX_SPECTRUM_BYTES.
    A scheme record's A v adds a block of relation rows and its float copy,
    at most 9/8 RELATION_BLOCK_BYTES (1.1 MiB), and d + 1 n x c arrays.
    """
    n, m = arc_space.n, arc_space.num_arcs
    columns = np.asarray(columns)
    if columns.ndim == 1:
        _check_vertices(columns, n)
        columns = (np.arange(n)[:, None] == columns).astype(float)
    if columns.shape[0] != n:
        raise ValueError(f"vertex block has {columns.shape[0]} rows, expected {n}")
    c = columns.shape[1]
    live = dec.num_classes - dec.has_minus_k
    batch = min(live, max(1, CLASS_BATCH_BYTES // (16 * m * max(c, 1))))
    _within_limit(16 * 4 * m * c * batch, f"closed-form check of {c} columns on {m} arcs needs")
    tails, heads, root_k = arc_space.tails, arc_space.heads, np.sqrt(arc_space.k)
    head_weights, tail_weights = _class_weights(dec.angles[:live])
    eigen = np.zeros(dec.num_classes)
    total = columns[tails] / -root_k
    # p_r and its drift are built in place, in two stacks reused by every batch
    p = np.empty((batch, m, c), dtype=complex)
    drift = np.empty_like(p)
    for lo in range(0, live, batch):
        hi = min(lo + batch, live)
        X = class_sums(dec, range(lo, hi), X=columns)
        pb, db = p[: hi - lo], drift[: hi - lo]
        # (head X)[heads] + (tail X)[tails], weighted on the vertices
        np.take(head_weights[lo:hi, None, None] * X, heads, axis=1, out=pb, mode="clip")
        pb += np.take(tail_weights[lo:hi, None, None] * X, tails, axis=1, out=db, mode="clip")
        pb /= root_k
        # total += 2 Re p_r class by class: numpy sums an outer axis in order, over
        # total + Re p_lo, Re p_lo, Re p_lo+1, Re p_lo+1, ... set in the drifts' memory
        terms = db.reshape(-1).view(float).reshape(2 * (hi - lo), m, c)
        np.add(total, pb[0].real, out=terms[0])
        terms[1::2], terms[2::2] = pb.real, pb.real[1:]
        np.add.reduce(terms, axis=0, out=total)
        _eigen_defect(arc_space, pb, np.exp(1j * dec.angles[lo:hi])[:, None, None], out=db)
        eigen[lo:hi] = [np.vdot(d, d).real for d in db]
    if dec.has_minus_k:
        pb, db = p[0], drift[0]
        X = class_sums(dec, range(live, live + 1), X=columns)[0]
        np.take((X / root_k).astype(complex), tails, axis=0, out=pb, mode="clip")
        total += pb.real
        eigen[-1] = np.vdot(_eigen_defect(arc_space, pb, -1.0, out=db), db).real
    return _certified("closed-form", {"eigen": float(np.sqrt(eigen.max())),
                                      "start": float(np.linalg.norm(total))})


def check_type_closed_form(dec: SpectralDecomposition) -> dict[str, float]:
    """The residuals of :func:`check_closed_form` on one start column of a
    scheme record (no class -k), the same for every start, in O(d^3) with
    no arc array. Arc (u, v) has the type (i, j) = (R[u, a], R[v, a]) for
    the start a, and type (i, j) holds v_i p^i_1j arcs (``dec.intersections``)
    at every start. X_r = E_r e_a is Q[i, r] / n on relation i, so each
    p_r(i, j) = (head_r X_r[j] + tail_r X_r[i]) / sqrt(k), the coin at u
    sees p^i_1l neighbours in relation l, and the drift of
    :func:`_eigen_defect` is (2/k) sum_l p^i_1l p_r(i, l) - p_r(i, j) -
    mu_r p_r(j, i). ``eigen`` and ``start`` (against [i = 0] / sqrt(k))
    are sums over the (d + 1)^2 types weighted by their arc counts;
    WalkSpectrumError above TAU_WALK.
    """
    root_k, L = math.sqrt(dec.k), dec.intersections
    X = dec.dual_eigenmatrix.T / (dec.n * root_k)  # X[r, i]: X_r on relation i, over sqrt(k)
    head, tail = _class_weights(dec.angles)
    p = head[:, None, None] * X[:, None, :] + tail[:, None, None] * X[:, :, None]
    drift = (2.0 / dec.k) * (L * p).sum(axis=2, keepdims=True) - p
    drift -= np.exp(1j * dec.angles)[:, None, None] * p.swapaxes(1, 2)
    total = 2.0 * p.real.sum(axis=0)
    total[0] -= 1.0 / root_k
    arcs = dec.valencies[:, None] * L
    eigen = (arcs * np.abs(drift) ** 2).sum(axis=(1, 2))
    return _certified("closed-form", {"eigen": float(np.sqrt(eigen.max())),
                                      "start": float(np.sqrt((arcs * total**2).sum()))})


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
