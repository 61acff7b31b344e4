"""Certification of local and simultaneous epsilon-uniform mixing.

A flat target reachable from the vertex state x_a has the form
T^T (H e_a) / sqrt(nk) where H is a +-1 matrix assembled from a sign
pattern over the spectral idempotents, H = sqrt(n) (+-E_0 + sum_r
(-1)^{sigma_r} E_r). Such an H is automatically a regular symmetric
Hadamard matrix, which is why the search enumerates sign patterns and
keeps the ones whose combination is entrywise +-1.

Reaching the target needs the walk phases e^{i(t theta_r + sigma_r pi)}
to align near 1 for every eigenvalue class in the vertex support. An
integer-relation scan over the angles decides whether alignment to any
precision is possible (the phase condition); a grid or integer scan then
finds an explicit time within the requested epsilon.

The search runs on the n x n adjacency layer, so a graph with no flat
pattern is refused before any arc is enumerated. U^t on the start block
comes from :func:`arcwalk.walk.entry_block`, whose eigen-components are
checked once, for every t, against the O(m) walk on the arc arrays by
:func:`arcwalk.walk.check_closed_form`. Both work on chunks of start
vertices, so a simultaneous check holds O(BLOCK_ENTRIES) amplitudes, not
all m x n.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .cospec import TAU_FLAT, SignPattern
from .graphs import NOT_SRG, Graph, check_regular_hadamard, validate_srg
from .spectra import (
    SpectralDecomposition,
    eigendecompose_symmetric,
    eigenvalue_support,
)
from .walk import build_arc_space, check_closed_form, entry_block, start_chunks

logger = logging.getLogger(__name__)

#: integer-relation residual tolerance
TAU_REL = 1e-9
#: default coefficient bound for the relation scan
RELATION_BOUND = 20
#: residual slack factor: success requires residual <= C_SLACK * epsilon
#: (times sqrt(n) for the simultaneous Frobenius residual)
C_SLACK = 4.0
#: default integer-time scan budget
INTEGER_BUDGET = 10**6
#: real-time search horizon factor, T_max = T_MAX_FACTOR / min(theta)
T_MAX_FACTOR = 1e4
#: cap on enumerated lattice vectors in the relation scan
MAX_ENUMERATION = 5_000_000
#: most relation vectors the scan holds in one block
SCAN_ROWS = 2**18
#: cap on real-time grid evaluations
MAX_GRID_POINTS = 50_000_000
#: sign patterns are enumerated only up to this many non-valency classes
MAX_CLASSES = 12

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

SUCCESS = "success"
NO_FLAT_TARGET = "no-flat-target"
PHASE_OBSTRUCTION = "phase-obstruction"
BUDGET_EXHAUSTED = "budget-exhausted"

MODE_INTEGER = "integer"
MODE_REAL = "real"


@dataclass(frozen=True, eq=False)
class HadamardCertificate:
    """A +-1 matrix certifying flat targets, with its provenance pattern.

    ``matrix`` may be None on reports parsed from JSON that omitted it.
    ``row_sum`` is the constant row sum (+sqrt(n) for canonical patterns).
    """

    matrix: np.ndarray | None
    order: int
    row_sum: int
    symmetric: bool
    pattern: SignPattern | None

    def to_json_dict(self, emit_matrix: bool = False) -> dict:
        out = {
            "order": self.order,
            "row_sum": self.row_sum,
            "symmetric": self.symmetric,
            "pattern": None
            if self.pattern is None
            else {
                "sign_e0": self.pattern.sign_e0,
                "sigmas": list(self.pattern.sigmas),
                "label": self.pattern.label(),
            },
        }
        if emit_matrix and self.matrix is not None:
            out["H"] = [[int(v) for v in row] for row in self.matrix]
        return out


def certificate_from_json(data: dict) -> HadamardCertificate:
    pattern = None
    if data.get("pattern") is not None:
        pattern = SignPattern(
            sign_e0=int(data["pattern"]["sign_e0"]),
            sigmas=tuple(int(s) for s in data["pattern"]["sigmas"]),
        )
    matrix = None
    if "H" in data:
        matrix = np.array(data["H"], dtype=np.int64)
        matrix.setflags(write=False)
    return HadamardCertificate(
        matrix=matrix,
        order=int(data["order"]),
        row_sum=int(data["row_sum"]),
        symmetric=bool(data["symmetric"]),
        pattern=pattern,
    )


def regular_hadamard_validate(H: np.ndarray) -> HadamardCertificate:
    """Certify a regular Hadamard matrix. The conditions are those of
    :func:`arcwalk.graphs.check_regular_hadamard`, checked exactly; a
    failure raises ValueError naming the condition."""
    H, row_sum = check_regular_hadamard(H)
    return HadamardCertificate(
        matrix=H,
        order=H.shape[0],
        row_sum=row_sum,
        symmetric=bool(np.array_equal(H, H.T)),
        pattern=None,
    )


def hadamard_search(
    dec: SpectralDecomposition, tau_flat: float = TAU_FLAT
) -> list[HadamardCertificate]:
    """Enumerate sign patterns over the idempotents and keep the flat ones.

    Each canonical pattern (valency sign +1; the negated twin is the same
    certificate) is tested by forming M = sqrt(n) sum_r c_r E_r and
    accepting iff every entry is within ``tau_flat`` of +-1. Accepted
    matrices are rounded to integers and re-verified exactly by
    :func:`arcwalk.graphs.check_regular_hadamard`; a rounded matrix that
    fails is logged with the failed condition and skipped. Certificates
    come back ordered by pattern encoding.
    """
    d = dec.num_classes - 1
    if d > MAX_CLASSES:
        raise ValueError(
            f"{d} non-valency eigenvalue classes exceed the search limit {MAX_CLASSES}"
        )
    n = dec.n
    sqrt_n = np.sqrt(n)
    certificates: list[HadamardCertificate] = []
    for bits in itertools.product((0, 1), repeat=d):
        pattern = SignPattern(sign_e0=1, sigmas=bits)
        M = np.zeros((n, n))
        for r, coeff in enumerate(pattern.signs()):
            M = M + coeff * dec.idempotents[r]
        M = sqrt_n * M
        if float(np.abs(np.abs(M) - 1.0).max()) > tau_flat:
            continue
        try:
            cert = regular_hadamard_validate(np.rint(M))
        except ValueError as exc:
            logger.warning("pattern %s skipped: %s", pattern.label(), exc)
            continue
        certificates.append(replace(cert, pattern=pattern))
    certificates.sort(key=lambda c: c.pattern.encode())
    return certificates


@dataclass(frozen=True)
class KroneckerVerdict:
    """Outcome of the integer-relation scan over walk angles.

    ``relations`` holds primitive integer vectors: in integer mode each is
    (l_1..l_d, l_0) with sum l_r theta_r + 2 pi l_0 = 0, in real mode just
    (l_1..l_d) with sum l_r theta_r = 0. ``bound`` is the coefficient bound
    actually scanned; it is smaller than ``requested_bound`` only when the
    enumeration cap forced a reduction, in which case a clean scan reports
    ``inconclusive`` rather than ``holds``.
    """

    mode: str
    status: str
    bound: int
    requested_bound: int
    relations: tuple[tuple[int, ...], ...]
    violating: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "status": self.status,
            "bound": self.bound,
            "requested_bound": self.requested_bound,
            "relations": [list(rel) for rel in self.relations],
            "violating": None if self.violating is None else list(self.violating),
        }


def kronecker_from_json(data: dict) -> KroneckerVerdict:
    return KroneckerVerdict(
        mode=data["mode"],
        status=data["status"],
        bound=int(data["bound"]),
        requested_bound=int(data["requested_bound"]),
        relations=tuple(tuple(int(v) for v in rel) for rel in data["relations"]),
        violating=None
        if data["violating"] is None
        else tuple(int(v) for v in data["violating"]),
    )


def _canonical_half_chunks(bound: int, d: int):
    """Yield integer vectors in [-bound, bound]^d with first nonzero entry
    positive, in lexicographic order. A block fixes the leading coordinates
    and spans the most trailing ones (at least one) that fit SCAN_ROWS."""
    span = np.arange(-bound, bound + 1)
    inner = 1
    while inner < d and len(span) ** (inner + 1) <= SCAN_ROWS:
        inner += 1
    outer = d - inner
    grid = np.stack(
        np.meshgrid(*([span] * inner), indexing="ij"), axis=-1
    ).reshape(-1, inner)
    heads = itertools.product(span.tolist(), repeat=outer) if outer else [()]
    for head in heads:
        block = np.empty((grid.shape[0], d), dtype=np.int64)
        if outer:
            block[:, :outer] = head
        block[:, outer:] = grid
        nonzero = block != 0
        has_any = nonzero.any(axis=1)
        first = block[np.arange(len(block)), np.argmax(nonzero, axis=1)]
        keep = has_any & (first > 0)
        if keep.any():
            yield block[keep]


def _integer_root(x: int, d: int) -> int:
    """Largest r >= 0 with r**d <= x, exact for any integer size."""
    lo, hi = 0, 1 << (x.bit_length() // d + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**d <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def relation_scan_bound(bound: int, d: int, max_enumeration: int) -> int:
    """Largest B in [1, bound] whose half box ((2B+1)^d - 1) // 2 of
    relation vectors fits the enumeration cap, or 1 when none does.

    (2B+1)^d is odd, so the cap condition is (2B+1)^d <= 2 cap + 1.
    """
    fits = (_integer_root(2 * max_enumeration + 1, d) - 1) // 2
    return max(1, min(bound, fits))


def phase_condition_check(
    angles,
    sigmas,
    mode: str,
    bound: int = RELATION_BOUND,
    tau_rel: float = TAU_REL,
    max_enumeration: int = MAX_ENUMERATION,
) -> KroneckerVerdict:
    """Scan integer relations among the angles and test their sign parity.

    Integer mode: every (l_1..l_d, l_0) with sum l_r theta_r + 2 pi l_0 = 0
    within ``tau_rel`` must have sum l_r sigma_r even. Real mode: the same
    with exact relations sum l_r theta_r = 0 (no 2 pi slack). One violation
    makes alignment impossible at any precision; no violation up to the
    scanned bound reports ``holds`` (or ``inconclusive`` when the
    enumeration cap forced a smaller bound than requested).
    """
    if mode not in (MODE_INTEGER, MODE_REAL):
        raise ValueError(f"mode must be '{MODE_INTEGER}' or '{MODE_REAL}', got {mode!r}")
    angles = np.asarray(angles, dtype=float)
    sigmas = np.asarray(sigmas, dtype=np.int64)
    if angles.shape != sigmas.shape:
        raise ValueError("angles and sigmas must have matching length")
    d = len(angles)
    if bound < 1:
        raise ValueError(f"relation bound must be >= 1, got {bound}")
    if d == 0:
        return KroneckerVerdict(
            mode=mode, status=HOLDS, bound=bound, requested_bound=bound,
            relations=(), violating=None,
        )

    effective = relation_scan_bound(bound, d, max_enumeration)
    if effective < bound:
        logger.info(
            "relation scan bound reduced %d -> %d to respect enumeration cap",
            bound, effective,
        )

    relations: list[tuple[int, ...]] = []
    for block in _canonical_half_chunks(effective, d):
        s = block @ angles
        if mode == MODE_INTEGER:
            l0 = -np.rint(s / (2 * np.pi)).astype(np.int64)
            resid = np.abs(s + 2 * np.pi * l0)
        else:
            l0 = np.zeros(len(block), dtype=np.int64)
            resid = np.abs(s)
        hits = np.flatnonzero(resid <= tau_rel)
        if hits.size == 0:
            continue
        parity = (block[hits] @ sigmas) % 2
        for pos, j in enumerate(hits):
            vec = block[j]
            full = tuple(int(v) for v in vec)
            if mode == MODE_INTEGER:
                full = full + (int(l0[j]),)
            if parity[pos] == 1:
                return KroneckerVerdict(
                    mode=mode,
                    status=VIOLATED,
                    bound=effective,
                    requested_bound=bound,
                    relations=tuple(relations),
                    violating=full,
                )
            if math.gcd(*(abs(v) for v in full)) == 1:
                relations.append(full)
    status = HOLDS if effective == bound else INCONCLUSIVE
    return KroneckerVerdict(
        mode=mode,
        status=status,
        bound=effective,
        requested_bound=bound,
        relations=tuple(relations),
        violating=None,
    )


@dataclass(frozen=True)
class FamilyParity:
    """Parity argument for one strongly regular Hadamard family member.

    ``holds`` reports whether every integer relation among the two
    non-valency angles necessarily has even sign parity. ``vacuous`` marks
    a degenerate parameter set with no connected member; the claim then
    holds for lack of witnesses.
    """

    family: str
    m: int
    srg_params: tuple[int, int, int, int]
    cos_ratio: Fraction
    vacuous: bool
    holds: bool
    conditions: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.holds


def family_parity_check(m: int, family: str) -> FamilyParity:
    """Symbolic phase-condition check for the (4m^2, 2m^2 +- m, m^2 +- m,
    m^2 +- m) strongly regular families.

    Both non-valency eigenvalues are +-m, so the two angles are theta and
    pi - theta with cos(theta) = 1/(2m +- 1). For a ratio strictly between
    0 and 1/2, theta is an irrational multiple of pi, which forces every
    integer relation between the angles (mod 2 pi) to have both
    coefficients even; the parity sum is then even for every sign pattern.
    """
    if family not in ("+", "-"):
        raise ValueError(f"family must be '+' or '-', got {family!r}")
    if m < 1:
        raise ValueError(f"family parameter m must be >= 1, got {m}")
    sign = 1 if family == "+" else -1
    n = 4 * m * m
    k = 2 * m * m + sign * m
    a = c = m * m + sign * m
    params = (n, k, a, c)
    ratio = Fraction(m, k)

    conditions = [
        f"family {family}, m={m}: parameters {params}, non-valency eigenvalues +-{m}",
        f"cos(theta) = m/k = {ratio}, second angle is pi - theta",
    ]
    if ratio == 1:
        conditions.append(
            "degenerate member: eigenvalue m equals the valency, so every "
            "component is a single edge and no connected member exists; the "
            "phase condition holds vacuously"
        )
        return FamilyParity(
            family=family, m=m, srg_params=params, cos_ratio=ratio,
            vacuous=True, holds=True, conditions=tuple(conditions),
        )
    if not (0 < ratio < Fraction(1, 2)):
        conditions.append(
            f"ratio {ratio} falls outside (0, 1/2); the irrationality "
            "argument does not apply"
        )
        return FamilyParity(
            family=family, m=m, srg_params=params, cos_ratio=ratio,
            vacuous=False, holds=False, conditions=tuple(conditions),
        )
    conditions.extend(
        [
            f"0 < {ratio} < 1/2, so theta = arccos({ratio}) is an irrational "
            "multiple of pi",
            "a relation l1 theta + l2 (pi - theta) = 0 mod 2 pi gives "
            "(l1 - l2) theta = -pi (l2 + 2 l0); irrationality forces l1 = l2 "
            "and l2 + 2 l0 = 0, so l1 and l2 are both even",
            "even coefficients give an even parity sum for every sign "
            "assignment, so the phase condition holds for all patterns",
        ]
    )
    return FamilyParity(
        family=family, m=m, srg_params=params, cos_ratio=ratio,
        vacuous=False, holds=True, conditions=tuple(conditions),
    )


def phase_alignment_deficit(angles, sigmas, t) -> np.ndarray | float:
    """Max over classes of |e^{i(t theta + sigma pi)} - 1|, vectorized in t."""
    angles = np.asarray(angles, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    ts = np.asarray(t, dtype=float)
    if angles.size == 0:
        out = np.zeros(ts.shape)
        return float(out) if ts.ndim == 0 else out
    phases = np.multiply.outer(ts, angles) + np.pi * sigmas
    out = 2.0 * np.abs(np.sin(phases / 2.0)).max(axis=-1)
    return float(out) if ts.ndim == 0 else out


@dataclass(frozen=True)
class TimeSearchResult:
    success: bool
    t: float
    deficit: float
    mode: str

    def __bool__(self) -> bool:
        return self.success


def _refine_real_time(angles, sigmas, t0: float, radius: float) -> tuple[float, float]:
    lo, hi = max(t0 - radius, 0.0), t0 + radius
    best_t, best_val = t0, float(phase_alignment_deficit(angles, sigmas, t0))
    for _ in range(3):
        ts = np.linspace(lo, hi, 201)
        vals = phase_alignment_deficit(angles, sigmas, ts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_t, best_val = float(ts[i]), float(vals[i])
        span = (hi - lo) / 50.0
        lo, hi = max(best_t - span, 0.0), best_t + span
    return best_t, best_val


def time_search(
    angles,
    sigmas,
    epsilon: float,
    mode: str,
    budget: int = INTEGER_BUDGET,
    t_max: float | None = None,
    phase_status: str | None = None,
) -> TimeSearchResult:
    """Find t with phase alignment deficit below epsilon.

    Integer mode scans t = 0, 1, .., ``budget``. Real mode uses a closed
    form for a single angle and otherwise a coarse grid of step
    epsilon / (4 max theta) over [0, t_max] with local refinement. The
    smallest acceptable t wins. On failure the best time seen and its
    deficit are returned with ``success=False``.

    Callers are expected to have seen ``phase_condition_check`` report
    ``holds``; passing any other status only logs a warning since the scan
    itself is still well defined.
    """
    if mode not in (MODE_INTEGER, MODE_REAL):
        raise ValueError(f"mode must be '{MODE_INTEGER}' or '{MODE_REAL}', got {mode!r}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    angles = np.asarray(angles, dtype=float)
    sigmas = np.asarray(sigmas, dtype=np.int64)
    if angles.shape != sigmas.shape:
        raise ValueError("angles and sigmas must have matching length")
    if phase_status is not None and phase_status != HOLDS:
        logger.warning(
            "time_search invoked with phase condition status %r; alignment "
            "may be impossible at this precision",
            phase_status,
        )

    if angles.size == 0 or not sigmas.any():
        return TimeSearchResult(success=True, t=0.0, deficit=0.0, mode=mode)

    if mode == MODE_INTEGER:
        best_t, best_val = 0.0, float(phase_alignment_deficit(angles, sigmas, 0.0))
        chunk = 100_000
        for lo in range(1, budget + 1, chunk):
            ts = np.arange(lo, min(lo + chunk, budget + 1), dtype=float)
            vals = phase_alignment_deficit(angles, sigmas, ts)
            hits = np.flatnonzero(vals < epsilon)
            if hits.size:
                j = int(hits[0])
                return TimeSearchResult(
                    success=True, t=float(ts[j]), deficit=float(vals[j]), mode=mode
                )
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_t, best_val = float(ts[j]), float(vals[j])
        return TimeSearchResult(success=False, t=best_t, deficit=best_val, mode=mode)

    # real mode
    if angles.size == 1:
        t = float(np.pi * sigmas[0] / angles[0])
        deficit = float(phase_alignment_deficit(angles, sigmas, t))
        return TimeSearchResult(
            success=deficit < epsilon, t=t, deficit=deficit, mode=mode
        )

    horizon = t_max if t_max is not None else T_MAX_FACTOR / float(angles.min())
    step = epsilon / (4.0 * float(angles.max()))
    total = int(np.ceil(horizon / step)) + 1
    if total > MAX_GRID_POINTS:
        step = horizon / MAX_GRID_POINTS
        total = MAX_GRID_POINTS + 1
        logger.info("real-time grid coarsened to %d points over [0, %g]", total, horizon)

    best_t, best_val = 0.0, float(phase_alignment_deficit(angles, sigmas, 0.0))
    chunk = 500_000
    for lo in range(0, total, chunk):
        ts = np.arange(lo, min(lo + chunk, total), dtype=float) * step
        vals = phase_alignment_deficit(angles, sigmas, ts)
        hits = np.flatnonzero(vals < epsilon)
        if hits.size:
            j = int(hits[0])
            t_ref, val_ref = _refine_real_time(angles, sigmas, float(ts[j]), step)
            if val_ref < epsilon:
                return TimeSearchResult(
                    success=True, t=t_ref, deficit=val_ref, mode=mode
                )
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_t, best_val = float(ts[j]), float(vals[j])
    t_ref, val_ref = _refine_real_time(angles, sigmas, best_t, step)
    if val_ref < best_val:
        best_t, best_val = t_ref, val_ref
    return TimeSearchResult(
        success=best_val < epsilon, t=best_t, deficit=best_val, mode=mode
    )


@dataclass(frozen=True, eq=False)
class MixingReport:
    """Outcome of a local or simultaneous mixing certification run.

    ``vertex`` is None for simultaneous checks. ``support`` lists the
    eigenvalue classes of the start vertex (all classes when simultaneous).
    ``verdict`` is one of success, no-flat-target, phase-obstruction,
    budget-exhausted. ``walk_residual`` is the largest closed-form defect
    (:func:`arcwalk.walk.check_closed_form`), None without a certificate.
    """

    graph: str
    vertex: int | None
    mode: str
    epsilon: float
    certificate: HadamardCertificate | None
    kronecker: KroneckerVerdict | None
    t: float | None
    gamma: complex | None
    residual: float | None
    walk_residual: float | None
    verdict: str
    support: tuple[int, ...] | None
    notes: tuple[str, ...]

    def to_json_dict(self, emit_matrix: bool = False) -> dict:
        return {
            "graph": self.graph,
            "vertex": self.vertex,
            "mode": self.mode,
            "epsilon": self.epsilon,
            "certificate": None
            if self.certificate is None
            else self.certificate.to_json_dict(emit_matrix=emit_matrix),
            "kronecker": None if self.kronecker is None else self.kronecker.to_json_dict(),
            "t": self.t,
            "gamma": None
            if self.gamma is None
            else [float(self.gamma.real), float(self.gamma.imag)],
            "residual": self.residual,
            "walk_residual": self.walk_residual,
            "verdict": self.verdict,
            "support": None if self.support is None else list(self.support),
            "notes": list(self.notes),
        }


def report_from_json(data: dict) -> MixingReport:
    """Rebuild a report from its JSON dict; the certificate matrix is
    recovered only when it was emitted, and a missing ``walk_residual``
    reads as None."""
    return MixingReport(
        graph=data["graph"],
        vertex=None if data["vertex"] is None else int(data["vertex"]),
        mode=data["mode"],
        epsilon=float(data["epsilon"]),
        certificate=None
        if data["certificate"] is None
        else certificate_from_json(data["certificate"]),
        kronecker=None if data["kronecker"] is None else kronecker_from_json(data["kronecker"]),
        t=None if data["t"] is None else float(data["t"]),
        gamma=None if data["gamma"] is None else complex(data["gamma"][0], data["gamma"][1]),
        residual=None if data["residual"] is None else float(data["residual"]),
        walk_residual=None if data.get("walk_residual") is None else float(data["walk_residual"]),
        verdict=data["verdict"],
        support=None if data["support"] is None else tuple(int(r) for r in data["support"]),
        notes=tuple(data["notes"]),
    )


def _distance_to_target(dec, arcs, H, starts, t) -> tuple[complex, float]:
    """gamma and || U^t X - gamma Y ||_F for the start block X = T^T E_s /
    sqrt(k) and its lifted flat target Y = T^T H E_s / sqrt(nk), one chunk
    of start columns s at a time: one pass finds gamma, a second the norm."""

    def blocks():
        for chunk in start_chunks(arcs, starts):
            target = H[:, chunk][arcs.tails] / np.sqrt(dec.n * arcs.k)
            yield entry_block(dec, arcs, chunk, t), target

    inner = sum(complex(np.vdot(target, state)) for state, target in blocks())
    gamma = inner / abs(inner) if abs(inner) > 0 else complex(1.0)
    squares = sum(np.linalg.norm(state - gamma * target) ** 2 for state, target in blocks())
    return gamma, float(np.sqrt(squares))


def _mixing_report(
    g, a, epsilon, mode, relation_bound, budget, t_max, tau_flat, tau_rel, graph_name
) -> MixingReport:
    """The one pipeline behind :func:`local_mixing_report` (start vertex a)
    and :func:`simultaneous_mixing_check` (a is None: every vertex starts)."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if mode not in (MODE_INTEGER, MODE_REAL):
        raise ValueError(f"mode must be '{MODE_INTEGER}' or '{MODE_REAL}', got {mode!r}")
    if g.degree is None:
        raise ValueError("mixing analysis requires a regular graph")
    if not g.is_connected:
        raise ValueError("mixing analysis requires a connected graph")
    if g.is_bipartite:
        raise ValueError(
            "mixing analysis requires a non-bipartite graph; bipartite walks "
            "never reach a flat real target"
        )
    if a is not None and not 0 <= a < g.n:
        raise ValueError(f"vertex {a} out of range [0, {g.n})")
    dec = eigendecompose_symmetric(g)
    notes = []
    if validate_srg(g) != NOT_SRG:
        notes.append(
            "graph is strongly regular or complete, so the certificate and "
            "mixing time do not depend on the start vertex"
        )
    full = tuple(range(dec.num_classes))
    if a is None:
        starts, support, slack = np.arange(g.n), full, C_SLACK * epsilon * np.sqrt(g.n)
        thin = {b: s for b in range(g.n) if (s := eigenvalue_support(dec, b)) != full}
        if thin:
            notes.append(
                "per-vertex supports are not uniform: "
                + ", ".join(f"{b}: {list(s)}" for b, s in thin.items())
            )
    else:
        starts, support, slack = np.array([a]), eigenvalue_support(dec, a), C_SLACK * epsilon
        outside = [r for r in full[1:] if r not in support]
        if outside:
            notes.append(
                f"classes {outside} lie outside the support of vertex {a}; their "
                "sign bits are unconstrained"
            )
    classes = [r for r in support if r != 0]
    report = functools.partial(
        MixingReport,
        graph=graph_name if graph_name is not None else (g.name or f"n{g.n}-k{g.degree}"),
        vertex=a, mode=mode, epsilon=epsilon, support=support,
    )

    certificates = hadamard_search(dec, tau_flat=tau_flat)
    if not certificates:
        root = math.isqrt(g.n)
        if root * root != g.n:
            notes.append(
                f"order {g.n} is not a perfect square, so no flat sign "
                "combination can exist"
            )
        return report(
            certificate=None, kronecker=None, t=None, gamma=None, residual=None,
            walk_residual=None, verdict=NO_FLAT_TARGET, notes=tuple(notes),
        )

    arcs = build_arc_space(g)
    walk_residual = max(check_closed_form(dec, arcs, starts).values())
    angles = np.array([float(dec.angles[r]) for r in classes])
    fallback: MixingReport | None = None
    for cert in certificates:
        sigmas = np.array([cert.pattern.sigmas[r - 1] for r in classes], dtype=np.int64)
        kron = phase_condition_check(
            angles, sigmas, mode, bound=relation_bound, tau_rel=tau_rel
        )
        cert_notes = list(notes)
        if kron.status == INCONCLUSIVE:
            cert_notes.append(
                f"relation scan stopped at bound {kron.bound} below the "
                f"requested {kron.requested_bound}"
            )
        t = gamma = residual = None
        if kron.status == VIOLATED:
            verdict = PHASE_OBSTRUCTION
        else:
            search = time_search(
                angles, sigmas, epsilon, mode,
                budget=budget, t_max=t_max, phase_status=kron.status,
            )
            t = search.t
            gamma, residual = _distance_to_target(dec, arcs, cert.matrix, starts, t)
            verdict = SUCCESS if search.success and residual <= slack else BUDGET_EXHAUSTED
            if verdict == BUDGET_EXHAUSTED:
                cert_notes.append(f"best alignment deficit {search.deficit:.3e} at t={t}")
        outcome = report(
            certificate=cert, kronecker=kron, t=t, gamma=gamma, residual=residual,
            walk_residual=walk_residual, verdict=verdict, notes=tuple(cert_notes),
        )
        if verdict == SUCCESS:
            return outcome
        fallback = fallback or outcome
    return fallback


def local_mixing_report(
    g: Graph,
    a: int,
    epsilon: float,
    mode: str,
    relation_bound: int = RELATION_BOUND,
    budget: int = INTEGER_BUDGET,
    t_max: float | None = None,
    tau_flat: float = TAU_FLAT,
    tau_rel: float = TAU_REL,
    graph_name: str | None = None,
) -> MixingReport:
    """Decide epsilon-uniform mixing from vertex a and assemble the report.

    Pipeline: enumerate Hadamard certificates (none: ``no-flat-target``,
    before any arc work); build U^t x_a in closed form over the support of
    a and check its eigen-components against the O(m) walk; then per
    certificate, restrict the sign bits to the support, run the
    integer-relation phase check, search for an alignment time, and
    require || U^t x_a - gamma y || <= C_SLACK * epsilon for the lifted
    flat target y. The first certificate (lowest pattern encoding) that
    reaches success wins; otherwise the first certificate's failure is
    reported.
    """
    return _mixing_report(
        g, a, epsilon, mode, relation_bound, budget, t_max, tau_flat, tau_rel, graph_name
    )


def simultaneous_mixing_check(
    g: Graph,
    epsilon: float,
    mode: str,
    relation_bound: int = RELATION_BOUND,
    budget: int = INTEGER_BUDGET,
    t_max: float | None = None,
    tau_flat: float = TAU_FLAT,
    tau_rel: float = TAU_REL,
    graph_name: str | None = None,
) -> MixingReport:
    """Decide epsilon-uniform mixing simultaneously from every vertex.

    The pipeline of :func:`local_mixing_report` with every vertex as a
    start column. All eigenvalue classes constrain the alignment (a class
    is in the support of some vertex whenever its idempotent is nonzero),
    and the residual is Frobenius over all start vertices at once:
    || U^t T^T / sqrt(k) - gamma Y ||_F <= C_SLACK * epsilon * sqrt(n)
    with Y = T^T H / sqrt(nk).
    """
    return _mixing_report(
        g, None, epsilon, mode, relation_bound, budget, t_max, tau_flat, tau_rel, graph_name
    )
