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
F y directly on each walk projection F, applied without being formed.

Targets of interest are real up to a global sign; the adjacency-level
equations are stated with real coefficients, so a target carrying a
non-real global phase is reported as not cospectral here even though
the walk-level route is phase invariant. Use the direct route when phase
freedom matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import SpectralDecomposition, eigenvalue_support, eigenvectors
from .walk import ArcSpace, State, WalkSpectrum, _sign_parts, tail_sum

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
    -k class degenerates there, and so is a NaN or negative ``tau``.

    Every class is decided at once in the coordinates of ``dec.vectors``:
    E_r = V_r V_r^T with V_r orthonormal, so ||E_r z|| = ||V_r^T z|| and
    <E_r e_a, E_r z> = <V_r^T e_a, V_r^T z>. The three coefficient vectors
    V^T e_a = V[a], V^T T y and V^T H y give each class's projected ratio
    (the least-squares cosine of its equation) and residual as block sums
    over the class's columns, in O(n^2 + m) for all classes.
    """
    V = eigenvectors(dec, "check_strong_cospectrality")
    if dec.has_minus_k:
        raise ValueError("adjacency-level check is restricted to non-bipartite graphs")
    if not tau >= 0:  # NaN too: no residual compares above NaN, so any target would pass
        raise ValueError(f"tau must be non-negative, got {tau}")
    if not 0 <= a < dec.n:
        raise ValueError(f"vertex {a} out of range [0, {dec.n})")
    if len(y) != arc_space.num_arcs:
        raise ValueError("target state lives on the wrong number of arcs")
    sqrt_k, starts, d = np.sqrt(dec.k), dec.class_starts, dec.num_classes
    y = y.amplitudes
    # T y and H y, an arc's head being the tail of its reverse
    images = np.stack([tail_sum(arc_space, y), tail_sum(arc_space, y[arc_space.reversal_perm])], 1)
    parts = V.T @ np.hstack([images.real, images.imag])
    coeffs = parts[:, :2] + 1j * parts[:, 2:]  # V^T T y, V^T H y
    v = V[a]
    norms = np.add.reduceat(v * v, starts)[:, None]  # ||E_r e_a||^2
    support = np.zeros(d, dtype=bool)
    support[list(eigenvalue_support(dec, a))] = True
    # per class, (tail, head) ratios c with V_r^T (T y, H y) ~ sqrt(k) c V_r^T e_a,
    # zero outside the support of a
    dots = np.add.reduceat(v[:, None] * coeffs, starts)
    ratio = np.divide(dots, sqrt_k * norms, out=np.zeros_like(dots), where=support[:, None])

    # valency class: sqrt(k) E_0 e_a = +- E_0 T y = +- E_0 H y, same sign
    lead = ratio[0, 0]
    sign_e0 = 1 if lead.real > 0 else -1
    # the other cosines are real and at most 1 in modulus, in the unit of the
    # residuals: an error c in a cosine moves its equation by c sqrt(k) ||E_r e_a||
    excess = np.maximum(np.abs(ratio[1:].imag), np.abs(ratio[1:].real) - 1.0)
    rejected = (
        abs(lead.imag) > tau or abs(abs(lead.real) - 1.0) > tau
        or (sqrt_k * np.sqrt(norms[1:]) * excess > tau).any()
    )

    ratio[0] = sign_e0  # the valency class is held to its sign, delta_0 = 0 or pi
    cos_tail, cos_head = ratio.real.T
    base = np.arccos(np.clip(cos_tail, -1.0, 1.0))
    # the head equation disambiguates the sign of delta, unless |sin delta|
    # is too small to observe it, or 0 or pi fits both equations better than
    # either sign, and delta snaps to 0 or pi: a tail cosine of +-1 up to
    # rounding has an arccos of order sqrt(eps) that neither sign fits
    snap = np.where(cos_tail > 0, 0.0, np.pi)
    err_plus, err_minus, err_snap = (
        np.abs(np.cos(c) - cos_tail) + np.abs(np.cos(c + dec.angles) - cos_head)
        for c in (base, -base, snap)
    )
    snapped = (np.abs(np.sin(base)) < SIN_SNAP) | (err_snap < np.minimum(err_plus, err_minus))
    delta = np.where(snapped, snap, np.where(err_plus <= err_minus, base, -base))
    # the images each class should have: sqrt(k) (cos delta, cos(delta + theta))
    # times V_r^T e_a on the support, zero outside it, where the class must
    # annihilate the target's incidence images as it does e_a
    expected = np.stack([cos_tail, np.cos(delta + dec.angles)], axis=1) * support[:, None]
    misfit = coeffs - sqrt_k * np.repeat(expected, dec.multiplicities, axis=0) * v[:, None]
    residual = np.sqrt(np.add.reduceat(np.abs(misfit) ** 2, starts)).max(axis=1)
    if rejected or (residual > tau).any():
        return NOT_COSPECTRAL
    deltas = dict(zip(range(1, d), np.where(support, delta, None)[1:].tolist()))
    residuals = dict(zip(map("class{}".format, range(d)), residual.tolist()))
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
    exactly one of them is a rejection. A NaN or negative ``tau`` raises
    ValueError.

    No projection is formed. F = F_{+theta} = W_r W_r^H for the block W_r
    of the columns of W in class r (``ws.column_classes``), so
    F z = W_r (W_r^H z), and F_{-theta} z = conj(W_r (W_r^H conj(z))): one
    product of W^T with x, y and their conjugates gives the coefficients
    of every class, and each class's images are its block times its
    coefficients, in O(m N) for all classes. The images under F_{+-1} are
    split from the rest z - sum (F_{+theta} + F_{-theta}) z
    (:func:`walk._sign_parts`), and all projections are tested at once.
    """
    if not tau >= 0:  # NaN too, as in check_strong_cospectrality
        raise ValueError(f"tau must be non-negative, got {tau}")
    if len(x) != ws.num_arcs or len(y) != ws.num_arcs:
        raise ValueError("states live on the wrong number of arcs")
    W, classes = ws.factors, ws.column_classes
    starts = np.flatnonzero(np.diff(classes, prepend=-1))  # each class's first column
    labels = ["plus1", "minus1"]
    labels += [f"pair{classes[lo]}{sign}" for lo in starts for sign in "+-"]
    d, m, x, y = len(starts), ws.num_arcs, x.amplitudes, y.amplitudes
    Z = np.stack([x.conj(), y.conj(), x, y], axis=1)
    # per column of W: W^H x, W^H y, conj(W^T x) and conj(W^T y), which each
    # class's block maps to F_{+theta} x, F_{+theta} y, conj(F_{-theta} x), conj(F_{-theta} y)
    coeffs = (W.T @ Z).conj()
    turned = np.empty((d, m, 4), dtype=complex)
    for lo, hi, out in zip(starts, np.append(starts[1:], len(classes)), turned):
        np.matmul(W[:, lo:hi], coeffs[lo:hi], out=out)
    lifted = W @ coeffs  # the sums over the classes
    # images of x (column 0) and y (column 1) under each projection, in label order
    images = np.empty((2 + 2 * d, m, 2), dtype=complex)
    images[:2] = _sign_parts(ws.arc_space, Z[:, 2:] - lifted[:, :2] - lifted[:, 2:].conj())
    images[2::2] = turned[..., :2]
    images[3::2] = turned[..., 2:].conj()
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
