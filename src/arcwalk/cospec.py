"""Strong cospectrality between a vertex start state and a target state.

Two routes are provided and must agree. The adjacency-level route checks,
for the start state x_a of vertex a and a candidate target y, the vertex
space equations

    sqrt(k) E_0 e_a            = +- E_0 T y  = +- E_0 H y
    sqrt(k) cos(delta_r) E_r e_a             = E_r T y
    sqrt(k) cos(delta_r + theta_r) E_r e_a   = E_r H y

with T, H the tail and head incidence maps, one phase delta_r per
eigenvalue class in the support of a. Classes outside the support must
annihilate T y as well. The walk-level route checks F x_a = e^{i delta}
F y directly on each walk projection F.

Targets of interest are real up to a global sign; the adjacency-level
equations are stated with real coefficients, so a target carrying a
non-real global phase is reported as not cospectral here even though
the walk-level route is phase invariant. Use the direct route when phase
freedom matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import SpectralDecomposition, eigenvalue_support
from .walk import ArcSpace, State, WalkSpectrum, tail_sum

#: tolerance for cospectrality residuals and phase consistency
TAU_COSP = 1e-8
#: below this |sin delta| the sign of delta is unobservable and it is
#: snapped to 0 or pi
SIN_SNAP = 1e-6

NOT_COSPECTRAL = "not cospectral"


@dataclass(frozen=True, eq=False)
class CospectralityWitness:
    """Accepted adjacency-level witness.

    ``deltas`` maps each non-valency class index to its phase, or None
    when the class is outside the support of a (unconstrained there).
    ``residuals`` records the worst deviation per checked equation.
    """

    sign_e0: int
    deltas: dict[int, float | None]
    residuals: dict[str, float]


@dataclass(frozen=True, eq=False)
class DirectWitness:
    """Accepted walk-level witness: one phase per walk projection with
    F x nonzero, None where both F x and F y vanish."""

    phases: dict[str, float | None]
    max_residual: float


def _projected_ratio(E_col: np.ndarray, vec: np.ndarray) -> complex:
    """Least-squares coefficient c with vec ~ c * E_col."""
    denom = float(E_col @ E_col)
    return complex(np.vdot(E_col, vec)) / denom


def check_strong_cospectrality(
    dec: SpectralDecomposition,
    arc_space: ArcSpace,
    a: int,
    y: State,
    tau: float = TAU_COSP,
):
    """Adjacency-level strong cospectrality check of (x_a, y).

    Returns a :class:`CospectralityWitness` when every equation holds
    within ``tau``, the string ``"not cospectral"`` otherwise. Bipartite
    graphs are rejected with ValueError since the head equation for the
    -k class degenerates there.
    """
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
        if abs(np.sin(base)) < SIN_SNAP:
            # sign of delta unobservable here; snap to 0 or pi
            delta = 0.0 if cos_tail > 0 else np.pi
        else:
            # head equation disambiguates the sign of delta
            err_plus = abs(np.cos(base + theta) - cos_head)
            err_minus = abs(np.cos(-base + theta) - cos_head)
            delta = base if err_plus <= err_minus else -base
        res_head = float(np.linalg.norm(proj_head - sqrt_k * np.cos(delta + theta) * E_col))
        residuals[f"class{r}"] = max(res_tail, res_head)
        if res_head > tau:
            return NOT_COSPECTRAL
        deltas[r] = delta

    return CospectralityWitness(sign_e0=sign_e0, deltas=deltas, residuals=residuals)


def check_strong_cospectrality_direct(
    ws: WalkSpectrum,
    x: State,
    y: State,
    tau: float = TAU_COSP,
):
    """Walk-level strong cospectrality: F x = e^{i delta} F y for every
    walk projection F.

    Returns a :class:`DirectWitness` or ``"not cospectral"``. Projections
    annihilating both states are unconstrained; a projection annihilating
    exactly one of them is a rejection.

    Neither half of a conjugate pair is formed. F = F_{+theta} = W_r W_r^H
    for the pair's factor W_r, so F z = W_r (W_r^H z): one product of W^H
    with the real and imaginary parts of x and y gives the coefficients of
    every pair, and each pair's images are its factor times its block of
    them, in O(m N) for all pairs. F_{-theta} z = conj(F conj(z))
    = conj(F Re z) + i conj(F Im z), so the same images give both halves,
    and all projections are tested at once.
    """
    if len(x) != ws.num_arcs or len(y) != ws.num_arcs:
        raise ValueError("states live on the wrong number of arcs")
    labels = ["plus1", "minus1"]
    labels += [f"pair{pair.index}{sign}" for pair in ws.pairs for sign in "+-"]
    d, m = len(ws.pairs), ws.num_arcs
    x, y = x.amplitudes, y.amplitudes
    V = np.stack([x.real, x.imag, y.real, y.imag], axis=1)
    signs = np.stack([ws.proj_plus1 @ V, ws.proj_minus1 @ V])
    coeffs = ws.factors.conj().T @ V
    turned = np.empty((d, m, 4), dtype=complex)
    start = 0
    for pair, out in zip(ws.pairs, turned):
        stop = start + pair.factor.shape[1]
        np.matmul(pair.factor, coeffs[start:stop], out=out)
        start = stop
    # images of x (column 0) and y (column 1) under each projection, in label order
    images = np.empty((2 + 2 * d, m, 2), dtype=complex)
    images[:2] = signs[..., 0::2] + 1j * signs[..., 1::2]
    images[2::2] = turned[..., 0::2] + 1j * turned[..., 1::2]
    images[3::2] = turned[..., 0::2].conj() + 1j * turned[..., 1::2].conj()
    Px, Py = images[..., 0], images[..., 1]

    nx, ny = np.linalg.norm(Px, axis=1), np.linalg.norm(Py, axis=1)
    free = (nx <= tau) & (ny <= tau)
    if ((np.minimum(nx, ny) <= tau) & (tau < np.maximum(nx, ny))).any():
        return NOT_COSPECTRAL
    Px, Py = Px[~free], Py[~free]
    inner = (Py.conj() * Px).sum(axis=1)
    if (np.abs(inner) == 0.0).any():
        return NOT_COSPECTRAL
    phase = inner / np.abs(inner)
    res = np.linalg.norm(Px - phase[:, None] * Py, axis=1)
    if (res > tau).any():
        return NOT_COSPECTRAL
    angles = iter(np.angle(phase).tolist())
    phases = {label: None if skip else next(angles) for label, skip in zip(labels, free)}
    return DirectWitness(phases=phases, max_residual=float(res.max(initial=0.0)))
