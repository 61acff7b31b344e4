import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from arcwalk import (
    COMPLETE,
    NOT_SRG,
    Graph,
    SRGParams,
    SpectralDecomposition,
    WalkSpectrum,
    build_arc_space,
    complete_graph,
    cycle_graph,
    eigendecompose_symmetric,
    petersen_graph,
    rook_graph,
    walk_spectrum,
)
from arcwalk import cli
from arcwalk.cli import resolve_builtin
from arcwalk.cospec import NOT_COSPECTRAL, SIN_SNAP, TAU_COSP, CospectralityWitness
from arcwalk.spectra import eigenvalue_support
from arcwalk.walk import (
    TAU_WALK,
    ArcSpace,
    _class_weights,
    _eigen_defect,
    _minus_one_power,
    apply_walk,
    coin_unitarity,
    entry_parts,
    tail_sum,
)

GRAPH_BUILDERS = {
    "k4": lambda: complete_graph(4),
    "c4": lambda: cycle_graph(4),
    "k5": lambda: complete_graph(5),
    "petersen": petersen_graph,
    "rook3": lambda: rook_graph(3),
    "rook4": lambda: rook_graph(4),
}

NON_BIPARTITE = ("k4", "k5", "petersen", "rook3", "rook4")

#: a random connected 4-regular graph on 20 vertices with 20 distinct
#: eigenvalues, not walk-regular; its class 3 barely touches vertex 16
#: (||E_3 e_16|| = 5.8e-7)
RANDOM_20_4_EDGES = (
    (0, 1), (0, 6), (0, 10), (0, 15), (1, 6), (1, 17), (1, 18), (2, 6), (2, 9),
    (2, 10), (2, 13), (3, 7), (3, 8), (3, 12), (3, 16), (4, 9), (4, 11), (4, 17),
    (4, 19), (5, 11), (5, 13), (5, 14), (5, 16), (6, 12), (7, 14), (7, 17),
    (7, 19), (8, 13), (8, 14), (8, 16), (9, 10), (9, 16), (10, 12), (11, 18),
    (11, 19), (12, 15), (13, 15), (14, 19), (15, 18), (17, 18),
)
ALL_GRAPHS = tuple(GRAPH_BUILDERS)


def transition_matrix(arcs: ArcSpace) -> np.ndarray:
    """Dense oracle for the walk: the m x m orthogonal U = R (2/k T^T T - I),
    formed by ``apply_walk`` on the identity."""
    return apply_walk(arcs, np.eye(arcs.num_arcs))


def dense_incidence(arcs: ArcSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense oracle for the index arrays: the n x m tail and head incidence
    matrices T, H and the m x m reversal permutation R, all int64, with
    R x = x[reversal_perm]."""
    m = arcs.num_arcs
    cols = np.arange(m)
    T = np.zeros((arcs.n, m), dtype=np.int64)
    H = np.zeros((arcs.n, m), dtype=np.int64)
    R = np.zeros((m, m), dtype=np.int64)
    T[arcs.tails, cols] = 1
    H[arcs.heads, cols] = 1
    R[arcs.reversal_perm, cols] = 1
    return T, H, R


@dataclass(frozen=True, eq=False)
class Bundle:
    graph: Graph
    dec: SpectralDecomposition
    arcs: ArcSpace
    ws: WalkSpectrum
    U: np.ndarray


@functools.lru_cache(maxsize=None)
def get_bundle(name: str) -> Bundle:
    g = GRAPH_BUILDERS[name]()
    dec = eigendecompose_symmetric(g)
    arcs = build_arc_space(g)
    ws = walk_spectrum(dec, arcs)
    return Bundle(graph=g, dec=dec, arcs=arcs, ws=ws, U=transition_matrix(arcs))


@pytest.fixture(scope="session")
def bundle():
    return get_bundle


@pytest.fixture(autouse=True)
def fresh_builtins():
    """Every test starts with no builtin graph kept, so what one test's
    runs certified and kept on a graph (its scheme record, certificates and
    closed form) is not what the next test reads, whatever it patches."""
    cli._builtins.clear()


def dense_decomposition_residuals(
    dec: SpectralDecomposition, adjacency: np.ndarray
) -> dict[str, float]:
    """Oracle for ``decomposition_residuals``: the idempotent suite measured
    on the stored E_r, with the product E_r E_s formed for every pair of
    classes, O(d^2 n^3)."""
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


def dense_phase_alignment_deficit(angles, sigmas, t):
    """Oracle for ``phase_alignment_deficit``: the phases laid out time
    first, as (..., d), and the max over classes taken on the trailing
    axis."""
    angles = np.asarray(angles, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    ts = np.asarray(t, dtype=float)
    if angles.size == 0:
        out = np.zeros(ts.shape)
        return float(out) if ts.ndim == 0 else out
    phases = np.multiply.outer(ts, angles) + np.pi * sigmas
    out = 2.0 * np.abs(np.sin(phases / 2.0)).max(axis=-1)
    return float(out) if ts.ndim == 0 else out


def sign_projections(ws: WalkSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Dense F_{+1} and F_{-1}, real m x m: the complement P = I - 2 Re W W^H
    of the arc eigenvectors split into (P + U P) / 2 and P - F_{+1}, by the
    operations ``walk_spectrum`` used when it stored them."""
    W, m = ws.factors, ws.num_arcs
    part = np.ascontiguousarray(W.real)
    residual = part @ part.T
    part = np.ascontiguousarray(W.imag)
    residual += part @ part.T
    residual *= -2.0
    residual[np.diag_indices(m)] += 1.0
    plus1 = apply_walk(ws.arc_space, residual)
    plus1 += residual
    plus1 /= 2.0
    residual -= plus1
    return plus1, residual


def pair_projections(ws: WalkSpectrum) -> list[tuple[int, float, np.ndarray]]:
    """Dense F_{+theta} = W_r W_r^H, with its class r and angle theta, for
    each run W_r of adjacent columns of W with one class and one angle:
    the classes of a built spectrum, in order, and the blocks a corrupted
    one was cut into. F_{-theta} is the conjugate."""
    key = np.stack([ws.column_classes, ws.column_thetas])
    starts = np.flatnonzero(np.diff(key, prepend=-1.0).any(axis=0))
    return [
        (int(key[0, lo]), float(key[1, lo]), ws.factors[:, lo:hi] @ ws.factors[:, lo:hi].conj().T)
        for lo, hi in zip(starts, np.append(starts[1:], key.shape[1]))
    ]


def walk_projections(ws: WalkSpectrum) -> list[tuple[str, np.ndarray]]:
    """Every walk projection formed densely, labelled as the direct
    cospectrality route labels them: F_{+1}, F_{-1}, then F_{+theta} and
    F_{-theta} = conj(F_{+theta}) of each class (:func:`pair_projections`)."""
    plus1, minus1 = sign_projections(ws)
    projections = [("plus1", plus1), ("minus1", minus1)]
    for index, _, plus in pair_projections(ws):
        projections += [(f"pair{index}+", plus), (f"pair{index}-", plus.conj())]
    return projections


def direct_cospectrality_loop(projections, x, y, tau=TAU_COSP):
    """Oracle for ``check_strong_cospectrality_direct``: one dense
    projection at a time over a labelled list such as
    :func:`walk_projections`. Returns ``"not cospectral"`` or the phases
    and the largest residual."""
    phases, worst = {}, 0.0
    for label, P in projections:
        Px, Py = P @ x.amplitudes, P @ y.amplitudes
        nx, ny = float(np.linalg.norm(Px)), float(np.linalg.norm(Py))
        if nx <= tau and ny <= tau:
            phases[label] = None
            continue
        if min(nx, ny) <= tau < max(nx, ny):
            return NOT_COSPECTRAL
        inner = complex(np.vdot(Py, Px))
        if abs(inner) == 0.0:
            return NOT_COSPECTRAL
        phase = inner / abs(inner)
        res = float(np.linalg.norm(Px - phase * Py))
        worst = max(worst, res)
        if res > tau:
            return NOT_COSPECTRAL
        phases[label] = float(np.angle(phase))
    return phases, worst


def full_walk_spectrum_residuals(dec, arcs, ws) -> dict[str, float]:
    """Oracle for the walk spectrum certificate: the projection suite over
    the full list F_{+1}, F_{-1}, F_{+theta}, F_{-theta}, ..., each formed
    densely (:func:`walk_projections`) and checked on its own.
    ``orthogonality`` is a bound on max |P_i P_j| from the eigen-defects
    f_i = ||U P_i - mu_i P_i||_F: with h_i = ||P_i - P_i^*||_F, N_i = 1 +
    ||P_i^2 - P_i||_F + h_i and u = k coin_unitarity(k),

        max |P_i P_j| <= (N_i f_j + f_i N_j + f_i f_j + N_i N_j u) / |mu_i - mu_j|
                         + h_i N_j,

    and a pair whose bound exceeds TAU_WALK has its product measured."""
    k = arcs.k

    def tail_project(P):
        return tail_sum(arcs, tail_sum(arcs, P).T).T

    pairs = pair_projections(ws)
    projections = [*sign_projections(ws), *(P for _, _, F in pairs for P in (F, F.conj()))]
    eigenvalues = np.array(
        [1.0, -1.0] + [np.exp(s * 1j * theta) for _, theta, _ in pairs for s in (1, -1)]
    )
    herm = idem = 0.0
    skew, norm_bound, defect = np.zeros((3, len(projections)))
    for i, (P, mu) in enumerate(zip(projections, eigenvalues)):
        D = P - P.T.conj()
        herm = max(herm, float(np.abs(D).max()))
        skew[i] = np.linalg.norm(D)
        D = P @ P - P
        idem = max(idem, float(np.abs(D).max()))
        norm_bound[i] = 1.0 + np.linalg.norm(D) + skew[i]
        # the in-place eigen-defect of the suite, as R (U P - mu P)
        defect[i] = np.linalg.norm(_eigen_defect(arcs, P, mu.real if np.isrealobj(P) else mu))
    unitarity = coin_unitarity(k)
    gap = np.abs(eigenvalues[:, None] - eigenvalues)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (
            np.outer(norm_bound, defect) + np.outer(defect, norm_bound)
            + np.outer(defect, defect) + k * unitarity * np.outer(norm_bound, norm_bound)
        ) / gap + np.outer(skew, norm_bound)
    for i, j in zip(*np.nonzero(np.triu(~(bound <= TAU_WALK), 1))):
        bound[i, j] = np.abs(projections[i] @ projections[j]).max()
    orth = float(bound[np.triu_indices(len(projections), 1)].max())
    total = projections[0] + projections[1]
    for P in projections[2:]:
        total = total + P
    U = transition_matrix(arcs)
    recon = projections[0] - projections[1]
    for P, mu in zip(projections[2:], eigenvalues[2:]):
        recon = recon + mu * P
    correspondence = float(np.abs(tail_project(projections[0]) - k * dec.idempotents[0]).max())
    for (index, _, _), P in zip([pair for pair in pairs for _ in (0, 1)], projections[2:]):
        E = dec.idempotents[index]
        correspondence = max(
            correspondence, float(np.abs(tail_project(P) - (k / 2.0) * E).max())
        )
    residuals = {
        "hermiticity": herm,
        "idempotency": idem,
        "eigen": float(defect.max()),
        "orthogonality": orth,
        "completeness": float(np.abs(total - np.eye(arcs.num_arcs)).max()),
        "resolution": float(np.abs(recon - U).max()),
        "correspondence": correspondence,
        "unitarity": unitarity,
    }
    if dec.has_minus_k:
        residuals["minus_one_correspondence"] = float(
            np.abs(tail_project(projections[1]) - k * dec.idempotents[-1]).max()
        )
    return residuals


def block_relation_scan(angles, sigmas, mode, bound, tau_rel=1e-9):
    """Oracle for the relation scan: (status, relations, violating) from the
    canonical half box built in full, one int64 block per head of leading
    coordinates, in lexicographic order, each block run through
    ``block @ angles``. A block spans the most trailing coordinates (at
    least one) whose grid has at most 2^18 rows."""
    angles, sigmas = np.asarray(angles, dtype=float), np.asarray(sigmas, dtype=np.int64)
    d = len(angles)
    span = np.arange(-bound, bound + 1)
    inner = 1
    while inner < d and len(span) ** (inner + 1) <= 2**18:
        inner += 1
    outer = d - inner
    grid = np.stack(np.meshgrid(*([span] * inner), indexing="ij"), axis=-1).reshape(-1, inner)
    relations = []
    for head in itertools.product(span.tolist(), repeat=outer):
        first = next((x for x in head if x), 0)
        if first < 0:
            continue
        rows = grid if first > 0 else grid[len(grid) // 2 + 1 :]
        block = np.empty((len(rows), d), dtype=np.int64)
        block[:, :outer] = head
        block[:, outer:] = rows
        s = block @ angles
        if mode == "integer":
            l0 = -np.rint(s / (2 * np.pi)).astype(np.int64)
            resid = np.abs(s + 2 * np.pi * l0)
        else:
            resid = np.abs(s)
        hits = np.flatnonzero(resid <= tau_rel)
        found = block[hits]
        odd = np.flatnonzero((found @ sigmas) % 2)
        if mode == "integer":
            found = np.column_stack([found, l0[hits]])
        for i, vec in enumerate(found.tolist()):
            if i == (odd[0] if odd.size else -1):
                return "violated", tuple(relations), tuple(vec)
            if math.gcd(*vec) == 1:
                relations.append(tuple(vec))
    return "holds", tuple(relations), None


def _projected_ratio(E_col: np.ndarray, vec: np.ndarray) -> complex:
    """Least-squares coefficient c with vec ~ c * E_col."""
    denom = float(E_col @ E_col)
    return complex(np.vdot(E_col, vec)) / denom


def per_class_cospectrality(dec, arc_space, a, y, tau=TAU_COSP):
    """Oracle for ``check_strong_cospectrality``: the adjacency-level
    equations decided one eigenvalue class at a time on the dense
    idempotents E_r, with an early return at the first failed equation."""
    if dec.has_minus_k:
        raise ValueError("adjacency-level check is restricted to non-bipartite graphs")
    if not 0 <= a < dec.n:
        raise ValueError(f"vertex {a} out of range [0, {dec.n})")
    if len(y) != arc_space.num_arcs:
        raise ValueError("target state lives on the wrong number of arcs")
    sqrt_k = np.sqrt(dec.k)
    Ty = tail_sum(arc_space, y.amplitudes)
    # an arc's head is the tail of its reverse
    Hy = tail_sum(arc_space, y.amplitudes[arc_space.reversal_perm])
    support = set(eigenvalue_support(dec, a))
    residuals: dict[str, float] = {}

    # valency class: sqrt(k) E_0 e_a = +- E_0 T y = +- E_0 H y, same sign
    e0_col = dec.idempotents[0][:, a]
    ratio = _projected_ratio(e0_col, Ty) / sqrt_k
    if abs(ratio.imag) > tau or abs(abs(ratio.real) - 1.0) > tau:
        return NOT_COSPECTRAL
    sign_e0 = 1 if ratio.real > 0 else -1
    res_tail = float(np.linalg.norm(dec.idempotents[0] @ Ty - sign_e0 * sqrt_k * e0_col))
    res_head = float(np.linalg.norm(dec.idempotents[0] @ Hy - sign_e0 * sqrt_k * e0_col))
    residuals["class0"] = max(res_tail, res_head)
    if residuals["class0"] > tau:
        return NOT_COSPECTRAL

    deltas: dict[int, float | None] = {}
    for r in range(1, dec.num_classes):
        E = dec.idempotents[r]
        proj_tail = E @ Ty
        proj_head = E @ Hy
        if r not in support:
            # no constraint on delta_r, but the class must annihilate the
            # target's incidence images as it does e_a
            off = max(float(np.linalg.norm(proj_tail)), float(np.linalg.norm(proj_head)))
            residuals[f"class{r}"] = off
            if off > tau:
                return NOT_COSPECTRAL
            deltas[r] = None
            continue

        E_col = E[:, a]
        theta = float(dec.angles[r])
        # cosines are tested in the unit of the residuals: an error c in a
        # cosine moves its equation by c * sqrt(k) ||E_r e_a||
        scale = sqrt_k * float(np.linalg.norm(E_col))
        ct = _projected_ratio(E_col, proj_tail) / sqrt_k
        ch = _projected_ratio(E_col, proj_head) / sqrt_k
        if scale * max(abs(ct.imag), abs(ch.imag)) > tau:
            return NOT_COSPECTRAL
        cos_tail, cos_head = ct.real, ch.real
        if scale * (max(abs(cos_tail), abs(cos_head)) - 1.0) > tau:
            return NOT_COSPECTRAL
        res_tail = float(np.linalg.norm(proj_tail - sqrt_k * cos_tail * E_col))
        if res_tail > tau:
            return NOT_COSPECTRAL

        base = float(np.arccos(np.clip(cos_tail, -1.0, 1.0)))
        snap = 0.0 if cos_tail > 0 else np.pi
        err_plus, err_minus, err_snap = (
            abs(np.cos(c) - cos_tail) + abs(np.cos(c + theta) - cos_head)
            for c in (base, -base, snap)
        )
        if abs(np.sin(base)) < SIN_SNAP or err_snap < min(err_plus, err_minus):
            # sign of delta unobservable, or 0 or pi fits both equations
            # better than either sign; snap to 0 or pi
            delta = snap
        else:
            # head equation disambiguates the sign of delta
            delta = base if err_plus <= err_minus else -base
        res_head = float(np.linalg.norm(proj_head - sqrt_k * np.cos(delta + theta) * E_col))
        residuals[f"class{r}"] = max(res_tail, res_head)
        if res_head > tau:
            return NOT_COSPECTRAL
        deltas[r] = delta

    return CospectralityWitness(sign_e0=sign_e0, deltas=deltas, residuals=residuals)


def per_class_evolve_by_projections(dec, arc_space, x, t):
    """Oracle for ``evolve_by_projections``: each class's F_{+theta} x
    formed from its dense n x n idempotent, one class at a time."""
    x = np.asarray(x, dtype=float)
    k, tails, heads = arc_space.k, arc_space.tails, arc_space.heads
    tail_x = tail_sum(arc_space, x)
    head_x = tail_sum(arc_space, x[arc_space.reversal_perm])  # H x = T R x
    rest, out = x.copy(), np.zeros(len(x), dtype=complex)
    for r in range(1, dec.num_classes - dec.has_minus_k):
        theta = float(dec.angles[r])
        phase = np.exp(1j * theta)
        y = dec.idempotents[r] @ (tail_x - np.conj(phase) * head_x)
        plus = (y[tails] - phase * y[heads]) / (2.0 * k * np.sin(theta) ** 2)
        rest -= 2.0 * plus.real
        out += 2.0 * (np.exp(1j * theta * t) * plus).real
    plus1 = (rest + apply_walk(arc_space, rest)) / 2.0
    return out + plus1 + _minus_one_power(t) * (rest - plus1)


def apply_walk_repeat(arcs: ArcSpace, x: np.ndarray) -> np.ndarray:
    """Oracle for ``apply_walk``: the block sums T x repeated onto the arcs
    (T^T T x) before the coin and the reversal."""
    x = np.asarray(x)
    spread = np.repeat(tail_sum(arcs, x), arcs.k, axis=0)
    return ((2.0 / arcs.k) * spread - x)[arcs.reversal_perm]


def evolve_operator_oracle(ws: WalkSpectrum, M: np.ndarray, t: float) -> np.ndarray:
    """Oracle for ``evolve_operator``: the same product of W, with each
    intermediate array made afresh and F_{+-1} from ``apply_walk_repeat``."""
    M = np.asarray(M)
    if np.iscomplexobj(M) and M.imag.any():
        return evolve_operator_oracle(ws, M.real, t) + 1j * evolve_operator_oracle(ws, M.imag, t)
    V, W = M.real, ws.factors
    coeffs = (W.T @ V).conj()
    turned = W @ (coeffs.T * np.exp(1j * t * ws.column_thetas)).T
    rest = V - 2.0 * (W @ coeffs).real
    plus1 = (rest + apply_walk_repeat(ws.arc_space, rest)) / 2.0
    return 2.0 * turned.real + plus1 + _minus_one_power(t) * (rest - plus1)


def entry_parts_moveaxis(dec: SpectralDecomposition, starts, t: float, scale=None):
    """Oracle for ``entry_parts``: the (2, n) or (2, c, n) class sums with
    their vertex axis moved to the front by ``np.moveaxis``."""
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


def entry_block_oracle(dec: SpectralDecomposition, arcs: ArcSpace, starts, t: float):
    """Oracle for ``entry_block``: ``entry_parts_moveaxis`` on the arcs."""
    tail, head = entry_parts_moveaxis(dec, starts, t)
    return (tail[arcs.tails] + head[arcs.heads]) / np.sqrt(arcs.k)


def check_closed_form_loop(dec: SpectralDecomposition, arcs: ArcSpace, columns) -> dict:
    """Oracle for the residuals of ``check_closed_form``, raising nothing:
    one class at a time, each p_r and its drift made in two m x c arrays,
    ``total`` summed class by class."""
    n, m, k = arcs.n, arcs.num_arcs, arcs.k
    columns = np.asarray(columns)
    if columns.ndim == 1:
        columns = (np.arange(n)[:, None] == columns).astype(float)
    tails, heads, root_k = arcs.tails, arcs.heads, np.sqrt(k)
    live = dec.num_classes - dec.has_minus_k
    head_weights, tail_weights = _class_weights(dec.angles[:live])
    eigen = np.zeros(dec.num_classes)
    total = columns[tails] / -root_k
    p = np.empty((m, columns.shape[1]), dtype=complex)
    drift = np.empty_like(p)
    for r in range(dec.num_classes):
        X = dec.idempotents[r] @ columns
        if r < live:
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
        # R (U p - mu p), written into drift
        np.take(p, arcs.reversal_perm, axis=0, out=drift, mode="clip")
        drift *= -mu
        drift -= p
        blocks = drift.reshape(n, k, -1)
        blocks += (2.0 / k) * tail_sum(arcs, p)[:, None]
        eigen[r] = np.vdot(drift, drift).real
    return {"eigen": float(np.sqrt(eigen.max())), "start": float(np.linalg.norm(total))}


def loop_rook_adjacency(q: int) -> np.ndarray:
    """Oracle for ``rook_graph``: each cell i * q + j of the q x q grid joined
    to the other cells of its row and of its column, one cell at a time."""
    n = q * q
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
    return adj


def loop_builtin_adjacency(label: str) -> np.ndarray:
    """Oracle for ``resolve_builtin``'s adjacency on rook graphs
    (:func:`loop_rook_adjacency`) and complements, J - I - A of the inner
    builtin's oracle; an inner builtin of any other kind is taken as
    ``resolve_builtin`` builds it."""
    if label.startswith("complement:"):
        A = loop_builtin_adjacency(label[len("complement:"):])
        return 1 - np.eye(len(A), dtype=np.int64) - A
    if label.startswith("rook:"):
        return loop_rook_adjacency(int(label[len("rook:"):]))
    return resolve_builtin(label).adjacency


def full_srg_check(g: Graph):
    """Oracle for ``validate_srg`` without its column screen: the exact
    product A^2 is formed first, and a and c are read from all of it."""
    A = g.adjacency.astype(np.int64)
    F = A.astype(float)
    A2 = (F @ F).astype(np.int64)  # exact: every entry is an integer of size <= n
    adjacent = A == 1
    nonadjacent = (A == 0) & ~np.eye(g.n, dtype=bool)
    if not nonadjacent.any():
        return COMPLETE
    a_values, c_values = A2[adjacent], A2[nonadjacent]
    if a_values.min() != a_values.max() or c_values.min() != c_values.max():
        return NOT_SRG
    a, c = int(a_values[0]), int(c_values[0])
    J, eye = np.ones_like(A), np.eye(g.n, dtype=np.int64)
    if not np.array_equal(A2, g.degree * eye + a * A + c * (J - eye - A)):
        return NOT_SRG
    return SRGParams(n=g.n, k=g.degree, a=a, c=c)


def scheme_stack(dec: SpectralDecomposition) -> np.ndarray:
    """Oracle for the idempotents of a scheme record: the (d + 1, n, n) stack
    E_r = (1/n) sum_i Q[i, r] A_i, built from the record's relation matrix
    R and eigenmatrix P alone, with Q[i, r] = m_r P[r, i] / P[0, i] and
    A_i = [R == i], one relation at a time."""
    P, m, R = dec.eigenmatrix, dec.multiplicities, dec.relations
    stack = np.zeros((len(P), dec.n, dec.n))
    for i in range(len(P)):
        A_i = (R == i).astype(float)
        for r in range(len(P)):
            stack[r] += (m[r] * P[r, i] / P[0, i] / dec.n) * A_i
    return stack


def stack_record(dec: SpectralDecomposition) -> SpectralDecomposition:
    """A scheme record turned into one that holds the ``scheme_stack``
    oracle as its idempotents and no relations, so that every reader takes
    the branch of a record of eigh."""
    return dataclasses.replace(dec, idempotents=scheme_stack(dec), relations=None,
                               eigenmatrix=None)


def _fsum_vdot(x: np.ndarray, y: np.ndarray) -> complex:
    """<x, y> = sum conj(x) y, its terms summed exactly by ``math.fsum``."""
    terms = (np.conj(x) * y).ravel()
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def stack_distance_to_target(dec: SpectralDecomposition, H, starts, t) -> tuple[complex, float]:
    """Oracle for ``mixing._distance_to_target`` on a record of eigh: the
    same gamma and ||U^t X - gamma Y||_F from the same n x |S| arrays a, b,
    A b and y, with every inner product and the square summed term by term
    in ``math.fsum``. ``np.vdot`` over the (n, |S|) arrays rounds
    differently with the BLAS thread count, by 2e-12 of a residual near 22
    on hadamard-srg:8; the exact sums do not move with it."""
    root_k = math.sqrt(dec.k)
    a, b = (part / root_k for part in entry_parts(dec, starts, t))
    Ab = entry_parts(dec, starts, t, scale=dec.eigenvalues)[1] / root_k
    y = H[:, starts] / math.sqrt(dec.n * dec.k)
    inner = dec.k * _fsum_vdot(y, a) + _fsum_vdot(y, Ab)
    gamma = inner / abs(inner) if abs(inner) > 0 else complex(1.0)
    c = a - gamma * y
    terms = [dec.k * np.abs(c) ** 2, dec.k * np.abs(b) ** 2, 2.0 * (np.conj(c) * Ab).real]
    square = math.fsum(np.concatenate([x.ravel() for x in terms]).tolist())
    return gamma, math.sqrt(max(square, 0.0))
