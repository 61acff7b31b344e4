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
pattern is refused before any arc is enumerated. A strongly regular or
complete graph with integer eigenvalues takes the scheme route: its
decomposition comes from its parameters
(:func:`arcwalk.spectra.srg_decomposition`), with no eigh. Every other
graph takes the dense route over eigh; the rest of the pipeline is
shared. U^t on the start block
and its distance to the flat target are taken in n x n form from
:func:`arcwalk.walk.entry_parts`. Its eigen-components are checked once,
for every t, against the O(m) walk by :func:`arcwalk.walk.check_closed_form`:
on the start column of a local run, on the seeded probes of
:func:`arcwalk.walk.probe_block` for a simultaneous one.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graphs import Graph, check_regular_hadamard
from .spectra import (
    SpectralDecomposition,
    eigendecompose_symmetric,
    eigenvalue_support,
    eigenvalue_supports,
    srg_decomposition,
    walk_regular,
)
from .walk import build_arc_space, check_closed_form, entry_parts, probe_block

logger = logging.getLogger(__name__)

#: integer-relation residual tolerance
TAU_REL = 1e-9
#: flatness tolerance for sign combinations, max entrywise deviation from +-1
TAU_FLAT = 1e-6
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
#: about the most array entries the relation scan works on at once: it
#: locates heads in batches of SCAN_ROWS // 16, whose work arrays stay in
#: cache, and gathers at most about SCAN_ROWS // d candidates of d
#: coordinates a step, apart from the relations it keeps, so this also
#: bounds what the scan holds beyond its output
SCAN_ROWS = 2**17
#: candidate rows in the first step of a relation scan; later steps double,
#: so that a scan that stops at an early odd relation costs little
FIRST_ROWS = 1024
#: cap on time-search grid points: the real grid is coarsened and the
#: integer budget cut to fit it
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

#: the routes of :class:`MixingReport`: the decomposition from the SRG
#: parameters, or from a dense eigh
ROUTE_SCHEME = "scheme"
ROUTE_DENSE = "dense"


@dataclass(frozen=True)
class SignPattern:
    """Sign assignment over eigenvalue classes: a global sign on the
    valency class and a parity bit sigma_r per remaining class, encoding
    the coefficient (-1)^{sigma_r}."""

    sign_e0: int
    sigmas: tuple[int, ...]

    def __post_init__(self):
        if self.sign_e0 not in (-1, 1):
            raise ValueError(f"sign_e0 must be +1 or -1, got {self.sign_e0}")
        if any(s not in (0, 1) for s in self.sigmas):
            raise ValueError(f"sigmas must be 0/1 bits, got {self.sigmas}")
        object.__setattr__(self, "sigmas", tuple(int(s) for s in self.sigmas))

    def encode(self) -> int:
        """Total order key: sign bit then sigma bits, most significant first."""
        code = 0 if self.sign_e0 == 1 else 1
        for s in self.sigmas:
            code = (code << 1) | s
        return code

    def label(self) -> str:
        """Compact sign string, one character per class starting with E_0."""
        bits = [self.sign_e0] + [1 - 2 * s for s in self.sigmas]
        return "".join("+" if b == 1 else "-" for b in bits)

    def signs(self) -> np.ndarray:
        """Coefficients (+-1) for all classes including the valency class."""
        return np.array([self.sign_e0] + [1 - 2 * s for s in self.sigmas])


@dataclass(frozen=True, eq=False)
class HadamardCertificate:
    """A regular Hadamard matrix certifying flat targets, with the sign
    pattern it was assembled from. ``row_sum`` is the constant row sum
    (+sqrt(n), as the search fixes sign_e0 = +1). The flat target at
    vertex a is column a of ``matrix``."""

    matrix: np.ndarray
    order: int
    row_sum: int
    symmetric: bool
    pattern: SignPattern

    def to_json_dict(self, emit_matrix: bool = False) -> dict:
        out = {
            "order": self.order,
            "row_sum": self.row_sum,
            "symmetric": self.symmetric,
            "pattern": {
                "sign_e0": self.pattern.sign_e0,
                "sigmas": list(self.pattern.sigmas),
                "label": self.pattern.label(),
            },
        }
        if emit_matrix:
            out["H"] = self.matrix.tolist()
        return out


def _regular_hadamard_order(n: int) -> bool:
    """Whether a regular Hadamard matrix of order n can exist by the
    conditions of :func:`arcwalk.graphs.check_regular_hadamard`: n is 1 or
    4u^2 for an integer u. Order 1, 2 or divisible by 4 and an integer row
    sum sqrt(n) leave 1 and the even squares."""
    root = math.isqrt(n)
    return n == 1 or (root * root == n and root % 2 == 0)


def hadamard_search(
    dec: SpectralDecomposition, tau_flat: float = TAU_FLAT
) -> list[HadamardCertificate]:
    """Enumerate sign patterns over the idempotents and keep the flat ones.

    At an order other than 1 or 4u^2 (:func:`_regular_hadamard_order`) no
    pattern can pass the validator, so the answer is no certificate, at any
    class count and before any combination is formed. Otherwise more than
    MAX_CLASSES non-valency classes raise ValueError.

    Each pattern with valency sign +1 (its negated twin is the same
    certificate) is tested by forming M = sqrt(n) sum_r c_r E_r in one
    contraction and accepting iff every entry is within ``tau_flat`` of
    +-1. Accepted matrices are rounded to integers and certified exactly by
    :func:`arcwalk.graphs.check_regular_hadamard`; a rounded matrix that
    fails is logged with the failed condition and skipped. Certificates
    come back in pattern encoding order, the order of the enumeration.
    """
    n = dec.n
    d = dec.num_classes - 1
    if not _regular_hadamard_order(n):
        return []
    if d > MAX_CLASSES:
        raise ValueError(
            f"{d} non-valency eigenvalue classes exceed the search limit {MAX_CLASSES}"
        )
    sqrt_n = np.sqrt(n)
    idempotents = dec.idempotents.reshape(d + 1, n * n)
    certificates: list[HadamardCertificate] = []
    for bits in itertools.product((0, 1), repeat=d):
        pattern = SignPattern(sign_e0=1, sigmas=bits)
        M = sqrt_n * (pattern.signs() @ idempotents).reshape(n, n)
        if float(np.abs(np.abs(M) - 1.0).max()) > tau_flat:
            continue
        try:
            H, row_sum = check_regular_hadamard(np.rint(M))
        except ValueError as exc:
            logger.warning("pattern %s skipped: %s", pattern.label(), exc)
            continue
        certificates.append(HadamardCertificate(
            matrix=H, order=n, row_sum=row_sum,
            symmetric=bool(np.array_equal(H, H.T)), pattern=pattern,
        ))
    return certificates


@dataclass(frozen=True, eq=False)
class KroneckerVerdict:
    """Outcome of the integer-relation scan over walk angles.

    ``relations`` holds the primitive relations found, in lexicographic
    order, as one read-only int64 array with a relation per row (the
    transpose of the table the scan writes, one row per coordinate): in
    integer mode a row is (l_1..l_d, l_0) with
    sum l_r theta_r + 2 pi l_0 = 0, so the shape is (r, d + 1); in real
    mode it is (l_1..l_d) with sum l_r theta_r = 0, shape (r, d).
    ``violating`` is the first relation
    of odd parity as a tuple of ints, or None. ``bound`` is the coefficient
    bound actually scanned; it is smaller than ``requested_bound`` only
    when the enumeration cap forced a reduction, in which case a clean scan
    reports ``inconclusive`` rather than ``holds``. Verdicts compare by
    identity; compare ``relations.tolist()`` for their contents.
    """

    mode: str
    status: str
    bound: int
    requested_bound: int
    relations: np.ndarray
    violating: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "status": self.status,
            "bound": self.bound,
            "requested_bound": self.requested_bound,
            "relations": self.relations.tolist(),
            "violating": None if self.violating is None else list(self.violating),
        }


def _relation_residuals(columns, angles, integer):
    """|sum_j l_j theta_j| for each vector l given by its coordinates
    ``columns`` (the j-th a 1-D array of every l_j, or a (d, r) array), with
    2 pi l_0 added for the nearest integer l_0 when ``integer`` (else l_0 is
    None). The sum runs coordinate by coordinate in order, so a vector's
    residual is the same whatever vectors share its columns."""
    s = np.zeros(len(columns[0]))
    for column, theta in zip(columns, angles):
        s += column * theta
    if not integer:
        return np.abs(s), None
    l0 = -np.rint(s / (2 * np.pi)).astype(np.int64)
    return np.abs(s + 2 * np.pi * l0), l0


@functools.lru_cache(maxsize=16)
def _box_columns(start: int, stop: int, span: int, cols: int) -> np.ndarray:
    """Vectors start..stop-1, in C order, of the grid [-B, B]^cols with
    span = 2B + 1, as a read-only int64 (cols, stop - start) table: row j
    holds coordinate j of every vector, so that each coordinate is one
    contiguous array. Scans of one size ask for the same tables, so the
    last few are kept."""
    index = np.arange(start, stop, dtype=np.int64)
    table = np.empty((cols, stop - start), dtype=np.int64)
    for j in range(cols - 1, 0, -1):
        np.divmod(index, span, out=(index, table[j]))
    table[1:] -= span // 2
    if cols:
        np.subtract(index, span // 2, out=table[0])
    table.flags.writeable = False
    return table


def _table_sums(table, angles, integer):
    """sum_j table[j] theta_j for each vector of a :func:`_box_columns`
    table; in integer mode in turns (theta_j / 2 pi) less their nearest
    integer."""
    if not integer:
        return np.dot(angles, table)
    sums = np.dot(angles / (2 * np.pi), table)
    sums -= np.rint(sums)
    return sums


def _locate(lower, upper, targets, rows):
    """For each target x, the run [lo, lo + count) of the sorted sums s with
    |s - x| <= w, given ``lower`` = s + w and ``upper`` = s - w for a
    w >= 0; a run is cut to at most ``rows`` entries."""
    lo = lower.searchsorted(targets, side="left")
    count = upper.searchsorted(targets, side="right")
    count -= lo
    np.minimum(count, rows, out=count)
    return lo, count


def _candidate_steps(head_angles, sums, order, span, width, integer, step_rows):
    """The candidate vectors of the canonical half box, in lexicographic
    order.

    A vector is a head (the leading ``len(head_angles)`` coordinates) and an
    inner row; ``sums`` are minus the inner sums, sorted, and ``order``
    their rows in C order. The canonical heads are the C-order heads from
    the all-zero head on, made in batches of SCAN_ROWS // 16, and each
    head's candidates are the run of ``sums`` within ``width`` of its own
    sum (:func:`_locate`). A batch's candidates are yielded in steps of
    whole heads, sorted by (head, row): about FIRST_ROWS rows in the first
    step, twice as many in each next one up to ``step_rows``. The all-zero
    head keeps only the rows after the middle row, and a step left with no
    row is skipped. Each step is (heads, local, row, reserve): the step's
    head table (:func:`_box_columns`), each candidate's index into it and
    its inner row, and the candidate count of the whole batch on a batch's
    first step, else 0.
    """
    rows, outer = len(order), len(head_angles)
    lower, upper = sums + width, sums - width
    # the row of each entry of sums, which holds three copies in integer
    # mode; a candidate's key is its head's index in the batch above its
    # row's bits
    if integer:
        order = np.concatenate((order, order, order))
    bits = rows.bit_length()
    total, batch = span**outer, max(1, SCAN_ROWS // 16)
    zero, size = total // 2, FIRST_ROWS
    for start in range(zero, total, batch):
        heads = _box_columns(start, min(start + batch, total), span, outer)
        lo, count = _locate(lower, upper, _table_sums(heads, head_angles, integer), rows)
        if start == zero and count[0] == 1:
            count[0] = 0  # the zero vector alone; its sum 0 is always in the window
        ends = count.cumsum()
        reserve = todo = int(ends[-1])
        if not todo:
            continue
        # the batch's candidate j, counted over its heads in order, is
        # entry j + shift of the sorted sums
        shift = lo - ends + count
        done = 0
        while done < todo:
            first = int(ends.searchsorted(done, side="right"))
            cut = done + min(size, step_rows)
            last = max(first + 1, int(ends.searchsorted(cut, side="right")))
            runs = count[first:last]
            pos = shift[first:last].repeat(runs)
            pos += np.arange(done, int(ends[last - 1]))
            keys = (np.arange(last - first) << bits).repeat(runs)
            keys += order[pos]
            keys.sort()
            if start == zero and first == 0:
                keys = keys[keys.searchsorted(rows // 2, side="right") :]
            if keys.size:
                yield heads[:, first:last], keys >> bits, keys & ((1 << bits) - 1), reserve
                reserve = 0
            done, size = int(ends[last - 1]), 2 * size


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


def _phase_inputs(angles, sigmas, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Check the inputs shared by the relation scan and the time search:
    a known mode, and 1-D finite angles and sigmas of equal length."""
    if mode not in (MODE_INTEGER, MODE_REAL):
        raise ValueError(f"mode must be '{MODE_INTEGER}' or '{MODE_REAL}', got {mode!r}")
    angles, sigmas = np.asarray(angles, dtype=float), np.asarray(sigmas, dtype=float)
    for name, value in (("angles", angles), ("sigmas", sigmas)):
        if value.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {value.shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value.tolist()}")
    if len(angles) != len(sigmas):
        raise ValueError("angles and sigmas must have matching length")
    return angles, sigmas.astype(np.int64)


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
    enumeration cap forced a smaller bound than requested). Angles and
    sigmas must be 1-D, finite and of equal length, and ``tau_rel`` must be
    non-negative (inf is allowed); otherwise ValueError.

    The scan covers the canonical half of the box [-B, B]^d (first nonzero
    coefficient positive) in lexicographic order, and meets in the middle:
    the trailing d // 2 coefficients form an inner grid whose sums are
    formed once and sorted, with copies shifted by -1 and +1 turn in
    integer mode so that a window that wraps is one run. Each canonical
    head of leading coefficients then finds its candidate rows with two
    binary searches, in a window of ``tau_rel`` plus a margin of
    1e-12 (1 + B sum |theta_r|), far above the rounding of either sum. The
    candidates, sorted by (head, row), are gathered coordinate by
    coordinate from the head and inner tables, and decided by the exact
    residual over those columns (:func:`_relation_residuals`), then by
    parity (skipped when every sigma is even), a stop at the first odd
    relation, and primitivity from per-head and per-row gcds. Each
    kept relation is written once, as one row of an int64 array grown once
    per batch of heads by that batch's candidate count and cut to the kept
    rows in place at the end. So the scan costs about its output,
    (relations x d) entries, plus the inner grid.
    """
    angles, sigmas = _phase_inputs(angles, sigmas, mode)
    d = len(angles)
    if bound < 1:
        raise ValueError(f"relation bound must be >= 1, got {bound}")
    if not tau_rel >= 0:  # NaN too: a tolerance that accepts nothing says `holds`
        raise ValueError(f"tau_rel must be non-negative, got {tau_rel}")
    integer = mode == MODE_INTEGER
    verdict = functools.partial(KroneckerVerdict, mode=mode, requested_bound=bound)
    if d == 0:
        relations = np.empty((0, int(integer)), dtype=np.int64)
        relations.flags.writeable = False
        return verdict(status=HOLDS, bound=bound, relations=relations, violating=None)

    effective = relation_scan_bound(bound, d, max_enumeration)
    if effective < bound:
        logger.info(
            "relation scan bound reduced %d -> %d to respect enumeration cap",
            bound, effective,
        )

    span = 2 * effective + 1
    outer = d - d // 2
    grid = _box_columns(0, span ** (d // 2), span, d // 2)
    inner_sums = _table_sums(grid, -angles[outer:], integer)
    order = inner_sums.argsort()
    sums = inner_sums[order]
    if integer:
        sums = np.add.outer((-1.0, 0.0, 1.0), sums).ravel()
    parity = sigmas % 2
    # None when every sigma is even, so that no relation can be odd
    row_parity = parity[outer:] @ grid if parity.any() else None
    row_gcd = None  # formed at the first hit; violated scans rarely need it
    margin = 1e-12 * (1.0 + effective * float(np.abs(angles).sum()))
    width = (tau_rel / (2 * np.pi) if integer else tau_rel) + margin

    # one row per kept relation, each written there once
    relations = np.empty((0, d + integer), dtype=np.int64)
    used, violating = 0, None
    steps = _candidate_steps(
        angles[:outer], sums, order, span, width, integer, max(1, SCAN_ROWS // d)
    )
    for heads, local, row, reserve in steps:
        if used + reserve > len(relations):
            grown = np.empty((used + reserve, d + integer), dtype=np.int64)
            grown[:used] = relations[:used]
            relations = grown
        # the candidates coordinate by coordinate, l_0 last in integer mode;
        # the takes clip, as their indices are in range and a take into out=
        # in the default mode goes through a buffer
        columns = np.empty((d + integer, len(local)), dtype=np.int64)
        np.take(heads, local, axis=1, out=columns[:outer], mode="clip")
        np.take(grid, row, axis=1, out=columns[outer:d], mode="clip")
        resid, l0 = _relation_residuals(columns[:d], angles, integer)
        hit = (resid <= tau_rel).nonzero()[0]
        if hit.size == 0:
            continue
        if integer:
            columns[d] = l0
        local, row = local[hit], row[hit]
        end = hit.size
        if row_parity is not None:
            odd = (((parity[:outer] @ heads)[local] + row_parity[row]) % 2).nonzero()[0]
            if odd.size:
                end = odd[0]
                violating = tuple(columns[:, hit[end]].tolist())
        if row_gcd is None:
            row_gcd = np.gcd.reduce(np.abs(grid), axis=0)
        common = np.gcd(np.gcd.reduce(np.abs(heads), axis=0)[local[:end]], row_gcd[row[:end]])
        if integer:
            common = np.gcd(common, l0[hit[:end]])
        keep = hit[:end][common == 1]
        relations[used : used + keep.size] = np.take(columns, keep, axis=1, mode="clip").T
        used += keep.size
        if violating is not None:
            break
    relations.resize((used, d + integer), refcheck=False)
    relations.flags.writeable = False
    if violating is not None:
        status = VIOLATED
    else:
        status = HOLDS if effective == bound else INCONCLUSIVE
    return verdict(status=status, bound=effective, relations=relations, violating=violating)


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
    verdict = functools.partial(
        FamilyParity, family=family, m=m, srg_params=params, cos_ratio=ratio
    )
    if ratio == 1:
        conditions.append(
            "degenerate member: eigenvalue m equals the valency, so every "
            "component is a single edge and no connected member exists; the "
            "phase condition holds vacuously"
        )
        return verdict(vacuous=True, holds=True, conditions=tuple(conditions))
    if not (0 < ratio < Fraction(1, 2)):
        conditions.append(
            f"ratio {ratio} falls outside (0, 1/2); the irrationality "
            "argument does not apply"
        )
        return verdict(vacuous=False, holds=False, conditions=tuple(conditions))
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
    return verdict(vacuous=False, holds=True, conditions=tuple(conditions))


def _half_sines(phases) -> np.ndarray:
    """|sin(phase / 2)| in place over ``phases``; the deficit of a class is
    twice this. Every sine of the time search is taken here."""
    phases /= 2.0
    np.sin(phases, out=phases)
    return np.abs(phases, out=phases)


def _phases(angles, sigmas, ts) -> np.ndarray:
    """The phases t theta_r + sigma_r pi at the points of the 1-D ``ts`` as
    one (d, len(ts)) array, class first. :func:`_candidate_deficits` takes
    the same two elementwise steps class by class, so that the forms of
    the time search agree bit for bit."""
    phases = np.multiply.outer(angles, ts)
    phases += (np.pi * sigmas)[:, None]
    return phases


def phase_alignment_deficit(angles, sigmas, t) -> np.ndarray | float:
    """Max over classes of |e^{i(t theta + sigma pi)} - 1|, vectorized in t.

    The phases (:func:`_phases`) are laid out class first, so the max runs
    over the leading axis."""
    angles = np.asarray(angles, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    ts = np.asarray(t, dtype=float)
    if angles.size == 0:
        out = np.zeros(ts.shape)
        return float(out) if ts.ndim == 0 else out
    out = _half_sines(_phases(angles, sigmas, ts.ravel())).max(axis=0)
    return 2.0 * float(out[0]) if ts.ndim == 0 else 2.0 * out.reshape(ts.shape)


@dataclass(frozen=True)
class TimeSearchResult:
    success: bool
    t: float
    deficit: float
    mode: str

    def __bool__(self) -> bool:
        return self.success


#: points in the first chunk of a time-search grid; later chunks double up
#: to RUN_CHUNK, so an early hit costs little
FIRST_CHUNK = 1024
#: most points in a chunk taken along runs or pruned by blocks
RUN_CHUNK = 2**19
#: most points in a chunk screened at every point; its work rows stay in cache
DENSE_CHUNK = 2**16
#: runs of the slowest class are taken only when the misalignment bound is
#: at most this, since otherwise most points would survive them
RUN_WIDTH = 0.3
#: a chunk is screened by blocks only when the slowest class leaves room to
#: prune blocks of at least this many points (see :func:`_block_size`): at
#: 2 the integer searches of the search-real benchmark took 1.7x as
#: long, and 4 to 16 read the same
MIN_BLOCK = 8
#: most points in a block of the first level: 256 and 512 read the same on
#: the benchmark's real searches, 1024 and 2048 took 8-10% longer on those
#: whose bound is below 0.1
MAX_BLOCK = 2**9
#: each block left at one level of the block screen is cut into this many:
#: 2 and 4 took 45% and 6% longer on the benchmark's real searches, 16 the
#: same
BLOCK_SPLIT = 8
#: least points in a chunk screened by blocks: with 2^10 the benchmark's
#: alternating-bit early hits took 1.15-1.9x as long, and with 2^12 up to
#: 1.4x, as the calls of the levels cost more than the points they spare
BLOCK_CHUNK = 2**14
#: half a turn in the fixed-point form of the time search: a turn is 2^64
#: units, held in uint64, whose arithmetic wraps modulo whole turns
HALF_TURN = 1 << 63


def _refine_real_time(
    angles, sigmas, t0: float, val0: float, radius: float, horizon: float
) -> tuple[float, float]:
    """Zoom three times on 201 points around t0 (deficit val0), within
    [0, horizon]; only a strictly smaller deficit replaces t0."""
    lo, hi = max(t0 - radius, 0.0), min(t0 + radius, horizon)
    best_t, best_val = t0, val0
    for _ in range(3):
        ts = np.linspace(lo, hi, 201)
        vals = phase_alignment_deficit(angles, sigmas, ts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_t, best_val = float(ts[i]), float(vals[i])
        span = (hi - lo) / 50.0
        lo, hi = max(best_t - span, 0.0), min(best_t + span, horizon)
    return best_t, best_val


class _FixedGrid(NamedTuple):
    """The classes of a time-search grid of step ``step`` in fixed-point
    turns: at grid index i class r sits at i steps[r] + halves[r] units of
    2^-64 of a turn, modulo 2^64; halves[r] is 0 or HALF_TURN."""

    step: float
    steps: tuple[int, ...]
    halves: tuple[int, ...]

    @property
    def moves(self) -> tuple[int, ...]:
        """How far each class moves from one grid point to the next, in
        units, at most HALF_TURN."""
        return tuple(min(s, (1 << 64) - s) for s in self.steps)


def _fixed_grid(turns, sigmas, step: float) -> _FixedGrid:
    """The fixed-point form of the grid i step for the classes of the given
    turns (theta_r / 2 pi) and sign bits.

    steps[r] is step turn_r modulo 1 rounded to the nearest unit, so it is
    exact when that value is at least 2^-12 (its last bit is then at least
    2^-64) and within 2^-65 of it below; halves[r] is sigma_r / 2 modulo 1,
    exact. The position at grid index i is then within i 2^-65 of a turn
    of i step turn_r + sigma_r / 2, plus a few roundings of the float forms
    of order 2^-53 of the phase in turns. The time search takes at most
    MAX_GRID_POINTS + 1 points, so i 2^-65 stays under 1.4e-12, a third of
    the least margin of :func:`_scan_times`, 1e-12 (1 + pi), which holds
    because the search runs only when some sigma_r is nonzero.
    """
    steps = [round(x % 1.0 * 2.0**64) % (1 << 64) for x in (step * turns).tolist()]
    halves = [HALF_TURN * (sigma % 2) for sigma in sigmas.tolist()]
    return _FixedGrid(step, tuple(steps), tuple(halves))


def _fixed_width(width: float) -> int:
    """The largest distance in units, at most HALF_TURN, that is at most
    ``width`` turns: a point is within the width when its distance is at
    most this."""
    return min(math.floor(math.ldexp(width, 64)), HALF_TURN)


def _distance(points, steps, halves, out=None) -> np.ndarray:
    """dist(i steps + halves, Z) in units at each grid index i of the uint64
    ``points``, as uint64: the position wraps modulo whole turns, and the
    absolute value of its int64 view is its distance to the nearest
    integer. Half a turn, -2^63 as int64, negates to itself and reads 2^63
    as uint64. A step and a half as ints give one class; (d, 1) uint64
    arrays of them give (d, len(points)), class first."""
    x = np.multiply(points, steps, out=out)
    if isinstance(halves, np.ndarray) or halves:
        x += halves
    signed = x.view(np.int64)
    np.abs(signed, out=signed)
    return x


def _misalignment(points, grid, work) -> np.ndarray:
    """max_r of :func:`_distance` at every grid index of ``points``, one
    class at a time in place. With w = this value / 2^64, the phase
    alignment deficit at the point is 2 sin(pi w), so no sine is taken per
    point. ``work`` is uint64 scratch of shape (2, >= len(points)), reused
    across chunks; the result is a view of its first row."""
    worst, x = work[:, : len(points)]
    _distance(points, grid.steps[0], grid.halves[0], out=worst)
    for steps, halves in zip(grid.steps[1:], grid.halves[1:]):
        np.maximum(worst, _distance(points, steps, halves, out=x), out=worst)
    return worst


def _misalignment_at_most(deficit: float) -> float:
    """Largest w in [0, 1/2] with 2 sin(pi w) <= deficit."""
    return math.asin(min(deficit / 2.0, 1.0)) / math.pi


def _run_offsets(lo, n, steps, halves, reach) -> np.ndarray:
    """Offsets i in [0, n), ascending, at which the class of grid step
    ``steps`` and half ``halves`` (:class:`_FixedGrid`) lies within
    ``reach`` units of an integer at grid index lo + i, for
    0 < 4 steps <= reach <= 0.4 turns: the points of :func:`_distance`
    within reach, found along runs.

    Shifted up by reach, the class is within reach exactly when it lies in
    [0, 2 reach] modulo a turn. It starts at b = lo steps + halves + reach
    (modulo a turn) and moves up by steps a point, so it lies there from
    offset 0 when b <= 2 reach, and from the offset i_j = ceil((j 2^64 - b)
    / steps) at which it passes the turn j, for (2 reach - p_j) // steps
    offsets more, where p_j < steps is its position at i_j. Each i_j lies
    in [1, n), so its float estimate, a sum of two correctly rounded
    quotients of at most n, is within 1e-9 of it, and the estimate rounded
    up, less one, is i_j - 2, i_j - 1 or i_j. Two exact steps settle it:
    near i_j the position's int64 view is its signed offset from the turn
    j, which is negative just when i < i_j.
    """
    turn = 1 << 64
    b = (lo * steps + halves + reach) % turn
    passes = (b + (n - 1) * steps) // turn
    guess = np.ceil((turn - b) / steps + np.arange(passes) * (turn / steps))
    first = guess.astype(np.int64) - 1
    steps_u, b_u = np.uint64(steps), np.uint64(b)
    for _ in range(2):
        first += (first.astype(np.uint64) * steps_u + b_u).view(np.int64) < 0
    extra = (np.uint64(2 * reach) - (first.astype(np.uint64) * steps_u + b_u)) // steps_u
    last = first + np.minimum(extra, np.uint64(n)).astype(np.int64)
    if b <= 2 * reach:
        first = np.concatenate(([0], first))
        last = np.concatenate(([min((2 * reach - b) // steps, n - 1)], last))
    last = np.minimum(last, n - 1)
    counts = last - first + 1
    offsets = np.repeat(first - np.cumsum(counts) + counts, counts)
    offsets += np.arange(len(offsets))
    return offsets


def _within(points, grid, classes, reach) -> np.ndarray:
    """The grid indices of ``points`` at which every one of ``classes`` lies
    within ``reach`` units of an integer; the points past it are dropped
    one class at a time, so later classes see fewer."""
    for r in classes:
        points = points[_distance(points, grid.steps[r], grid.halves[r]) <= reach]
    return points


def _block_size(grid, reach: int) -> int:
    """The largest power of two up to MAX_BLOCK whose blocks the slowest
    class crosses by at most HALF_TURN - reach, so that it prunes the first
    level of :func:`_block_screen`; 0 when ``reach`` is half a turn and
    nothing can be pruned."""
    room, slow = HALF_TURN - reach, min(grid.moves)
    if room <= 0:
        return 0
    size = MAX_BLOCK
    while size and size * slow > room:
        size //= 2
    return size


def _block_screen(lo, n, grid, reach, size) -> tuple[np.ndarray, np.ndarray]:
    """The grid indices in [lo, lo + n), ascending, at which every class
    lies within ``reach`` units of an integer, found by pruning blocks, and
    their misalignment (:func:`_misalignment`).

    Blocks of ``size`` points, a power of two, start every ``size`` points
    from lo. A block starting at s holds the indices c + k with centre
    c = s + size // 2 and -size // 2 <= k < size // 2, and class r lies
    within |k| moves[r] of where it lies at c. So when the centre is
    farther than reach + (size // 2) moves[r] from an integer, no index of
    the block is within reach on class r, and the block goes. A level tests
    every class at once, each against that bound when it moves by at most
    half the room left, (HALF_TURN - reach) / 2, from the centre, and
    against half a turn, which keeps every block, when it moves more. The
    blocks left are cut into BLOCK_SPLIT blocks each, down to single
    points, which are kept when their misalignment is within reach. Every
    step is exact in units, so the points left are those
    :func:`_misalignment` puts within reach.
    """
    end, moves = lo + n, grid.moves
    room = (HALF_TURN - reach) // 2
    steps = np.array(grid.steps, dtype=np.uint64)[:, None]
    halves = np.array(grid.halves, dtype=np.uint64)[:, None]
    starts = np.arange(lo, end, size, dtype=np.uint64)
    while size > 1:
        half = size // 2
        bounds = [reach + half * m if half * m <= room else HALF_TURN for m in moves]
        centres = starts + np.uint64(half)
        near = _distance(centres, steps, halves) <= np.array(bounds, dtype=np.uint64)[:, None]
        part = max(size // BLOCK_SPLIT, 1)
        starts = np.add.outer(
            centres[near.all(axis=0)] - np.uint64(half), np.arange(0, size, part, dtype=np.uint64)
        ).ravel()
        size = part
    points = starts[starts < end]
    worst = _distance(points, steps, halves).max(axis=0, initial=0)
    near = worst <= reach
    return points[near], worst[near]


#: a candidate set that would take fewer sines than this takes them all:
#: picking the classes costs about 10 us more per set, which the sines it
#: saves repay only from about 3,000-4,000 sines on (d = 4, 8 and 12)
RESTRICT_SINES = 4096
#: a point whose screened misalignment exceeds this (deficit above
#: 2 sin(0.499 pi), within 2e-5 of 2) takes the sine of every class; see
#: :func:`_candidate_deficits`
FLAT_TOP = 0.499


def _candidate_deficits(angles, sigmas, grid, points, worst, margin) -> np.ndarray:
    """:func:`phase_alignment_deficit` at the grid indices ``points``, bit
    for bit, with phases and sines taken only for the classes that screen
    within 4 margins of the point's worst class; ``worst`` is each point's
    screened misalignment (:func:`_misalignment`).

    Why that is exact. At one point let s_r be the screened misalignment
    of class r (:func:`_distance` over 2^64), W = max_r s_r (at class q),
    w_r the misalignment of the phase the exact form takes and
    E_r = 2 |sin(phase_r / 2)| as computed. The margin m >= 1e-12 bounds
    |s_r - w_r| (:func:`_fixed_grid`), and libm's sine puts E_r within rho
    of 2 sin(pi w_r), rho a few units of 1e-16. Take a class with
    s_r < W - 4 m and set a = s_r + m, b = W - m: then w_r <= a, b <= w_q,
    b <= 1/2 and b - a > 2 m. 2 sin(pi x) rises and is concave on [0, 1/2],
    and cos(pi x) >= 1 - 2 x there, so
        2 sin(pi b) - 2 sin(pi a) >= (b - a) 2 pi cos(pi b) > 4 pi m (1 - 2 W).
    Hence E_r <= 2 sin(pi a) + rho < E_q + 2 rho - 4 pi m (1 - 2 W). While
    W <= FLAT_TOP = 0.499 the last term is at least 2.5e-14, far above
    2 rho, so E_r < E_q: class r is not where the max sits, and the max
    over the kept classes is the same element with the same bits. Past
    FLAT_TOP the sine flattens out and every class is kept. Each class
    takes its phases and sines at the points where it is kept, so the
    work is one sine per kept (point, class) pair. A set of points that
    would take fewer than RESTRICT_SINES sines takes them all.
    """
    ts = points * grid.step
    if len(ts) * len(angles) < RESTRICT_SINES:
        return phase_alignment_deficit(angles, sigmas, ts)
    gap = min(math.ceil(math.ldexp(4.0 * margin, 64)), HALF_TURN)
    floor = np.maximum(worst, gap)
    floor -= np.uint64(gap)
    floor[worst > _fixed_width(FLAT_TOP)] = 0
    # the phases of phase_alignment_deficit (:func:`_phases`), class by
    # class at the points where the class is kept; the others read 0
    deficits, x = np.zeros(len(ts)), np.empty_like(points)
    for angle, pi_sigma, steps, halves in zip(angles, np.pi * sigmas, grid.steps, grid.halves):
        at = np.flatnonzero(_distance(points, steps, halves, out=x) >= floor)
        phases = ts[at] * angle
        phases += pi_sigma
        deficits[at] = np.maximum(deficits[at], _half_sines(phases))
    deficits *= 2.0
    return deficits


def _chunk_best(angles, sigmas, grid, epsilon, points, worst, margin):
    """Among the grid indices ``points`` with screened misalignment
    ``worst`` (:func:`_misalignment`): the time of the first with deficit
    below epsilon and True, else of the first of least deficit and False,
    or None when there are no points. Only the points that screen within
    the margin of epsilon, or of the least screened value, are passed to
    the exact form (:func:`_candidate_deficits`)."""
    near = np.flatnonzero(worst <= _fixed_width(_misalignment_at_most(epsilon + margin) + margin))
    if near.size:
        deficits = _candidate_deficits(angles, sigmas, grid, points[near], worst[near], margin)
        below = np.flatnonzero(deficits < epsilon)
        if below.size:
            j = int(below[0])
            return float(points[near[j]]) * grid.step, float(deficits[j]), True
    if not worst.size:
        return None
    least = 2.0 * math.sin(math.pi * math.ldexp(float(worst.min()), -64))
    near = np.flatnonzero(worst <= _fixed_width(_misalignment_at_most(least + margin) + margin))
    deficits = _candidate_deficits(angles, sigmas, grid, points[near], worst[near], margin)
    j = int(np.argmin(deficits))
    return float(points[near[j]]) * grid.step, float(deficits[j]), False


def _scan_times(
    angles, sigmas, epsilon, step, horizon, start, stop
) -> tuple[float, float, bool]:
    """Scan the grid t_i = min(i step, horizon), i in [start, stop): return
    the first point with deficit below epsilon and True, or else the first
    point of least deficit (t = 0 included) and False.

    A point can matter only if its deficit is below max(epsilon, best so
    far), that is if its misalignment is within the bound w of that deficit
    on every class. The grid points are screened by grid index in the
    exact fixed-point turns of :func:`_fixed_grid`, in one of three ways:

    - a chunk of BLOCK_CHUNK points or more, whose slowest class leaves
      room for blocks of MIN_BLOCK points (:func:`_block_size`), is pruned
      by blocks (:func:`_block_screen`);
    - else, when w <= RUN_WIDTH and the slowest class moves at most w / 4
      per step, the chunk takes only the runs along which the slowest class
      is within w (:func:`_run_offsets`) and drops the points past w on
      each other class in turn (:func:`_within`);
    - else every point is screened (:func:`_misalignment`); the first chunk
      always is, since the deficit 2 at t = 0 puts w at half a turn.

    Either way :func:`_chunk_best` decides among the points left, so every
    returned deficit comes from the exact form. Chunks start at
    FIRST_CHUNK points and double up to RUN_CHUNK; a chunk screened at
    every point stops at DENSE_CHUNK. The margin, 1e-12 times
    the largest phase the chunk can reach, is far above the gap between
    the screen and the exact form; it is added on both sides of the
    conversion between deficit and w. Each route keeps exactly the points
    within w on every class, so the route changes the work and not the
    answer. The last point, when the horizon clamps it short of its place
    on the grid, is decided on the exact form alone, after the rest.
    """
    grid = _fixed_grid(angles / (2.0 * np.pi), sigmas, step)
    top, shift = float(angles.max()), np.pi * float(np.abs(sigmas).max())
    slow = min(range(len(angles)), key=grid.steps.__getitem__)
    best_t, best_val = 0.0, float(phase_alignment_deficit(angles, sigmas, 0.0))
    clamped = stop > start and float(stop - 1) * step > horizon
    stop -= clamped
    index, work = np.empty(0, dtype=np.uint64), np.empty((2, 0), dtype=np.uint64)
    lo, size = start, min(FIRST_CHUNK, RUN_CHUNK)
    while lo < stop:
        n = min(size, stop - lo)
        margin = 1e-12 * (1.0 + min(float(lo + n - 1) * step, horizon) * top + shift)
        width = _misalignment_at_most(max(epsilon, best_val) + margin) + margin
        reach = _fixed_width(width)
        if n >= BLOCK_CHUNK and (block := _block_size(grid, reach)) >= MIN_BLOCK:
            points, worst = _block_screen(lo, n, grid, reach, block)
        elif width <= RUN_WIDTH and 0 < 4 * grid.steps[slow] <= reach:
            offsets = _run_offsets(lo, n, grid.steps[slow], grid.halves[slow], reach)
            others = [r for r in range(len(angles)) if r != slow]
            points = _within(offsets.astype(np.uint64) + np.uint64(lo), grid, others, reach)
            worst = _misalignment(points, grid, np.empty((2, len(points)), dtype=np.uint64))
        else:
            n = min(n, DENSE_CHUNK)
            if work.shape[1] < n:
                # the old buffers (points and worst are views of work) go first
                index = work = points = worst = None
                index, work = np.arange(n, dtype=np.uint64), np.empty((3, n), dtype=np.uint64)
            points = np.add(index[:n], np.uint64(lo), out=work[2, :n])
            worst = _misalignment(points, grid, work[:2])
        found = _chunk_best(angles, sigmas, grid, epsilon, points, worst, margin)
        if found is not None:
            t, val, hit = found
            if hit:
                return t, val, True
            if val < best_val:
                best_t, best_val = t, val
        lo, size = lo + n, min(2 * size, RUN_CHUNK)
    if clamped:
        val = float(phase_alignment_deficit(angles, sigmas, horizon))
        if val < epsilon:
            return horizon, val, True
        if val < best_val:
            best_t, best_val = horizon, val
    return best_t, best_val, False


def _real_grid(angles, epsilon: float, t_max: float | None) -> tuple[float, float, int]:
    """(horizon, step, points) of the real-mode time grid. The horizon is
    t_max, by default T_MAX_FACTOR / min theta. The step epsilon /
    (4 max theta) resolves the deficit to epsilon / 8; when that needs more
    than MAX_GRID_POINTS points, the step is coarsened to horizon /
    MAX_GRID_POINTS and the grid has MAX_GRID_POINTS + 1 points."""
    horizon = t_max if t_max is not None else T_MAX_FACTOR / float(angles.min())
    step = epsilon / (4.0 * float(angles.max()))
    points = int(np.ceil(horizon / step)) + 1
    if points > MAX_GRID_POINTS:
        return horizon, horizon / MAX_GRID_POINTS, MAX_GRID_POINTS + 1
    return horizon, step, points


def _single_angle_time(angles, sigmas, horizon: float) -> float | None:
    """t = pi (sigma mod 2) / theta, the least time >= 0 that aligns a
    single angle, when there is one angle and that time is within the
    horizon; else None."""
    if angles.size != 1:
        return None
    t = float(np.pi * (sigmas[0] % 2) / angles[0])
    return t if t <= horizon else None


def time_search(
    angles,
    sigmas,
    epsilon: float,
    mode: str,
    budget: int = INTEGER_BUDGET,
    t_max: float | None = None,
) -> TimeSearchResult:
    """Find t with phase alignment deficit below epsilon.

    Integer mode scans t = 0, 1, .., ``budget``; a budget above
    MAX_GRID_POINTS is cut to it, as the real grid is coarsened to fit, so
    a bound too large to scan can only miss a success, never invent one.
    Real mode uses the closed form t = pi (sigma mod 2) / theta, the least
    time >= 0 that aligns a single angle, when it lies within t_max, and
    otherwise the grid of :func:`_real_grid` over [0, t_max] with local
    refinement; the result never lies past t_max (by default
    T_MAX_FACTOR / min theta). The smallest acceptable t wins. On failure
    the best time seen and its deficit are returned with ``success=False``.

    Angles must be positive and finite, epsilon positive and finite,
    ``budget`` >= 0 and ``t_max`` positive and finite; a bad value raises
    ValueError naming it. The scan is well defined whatever the phase
    condition says; a caller that searches after an ``inconclusive`` scan
    says so in its own report.
    """
    angles, sigmas = _phase_inputs(angles, sigmas, mode)
    if not (angles > 0).all():
        raise ValueError(f"angles must be positive, got {angles.tolist()}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if t_max is not None and not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be positive and finite, got {t_max}")

    if angles.size == 0 or not sigmas.any():
        return TimeSearchResult(success=True, t=0.0, deficit=0.0, mode=mode)

    if mode == MODE_INTEGER:
        if budget > MAX_GRID_POINTS:
            logger.info(
                "integer time budget cut %d -> %d to fit MAX_GRID_POINTS", budget, MAX_GRID_POINTS
            )
            budget = MAX_GRID_POINTS
        t, deficit, hit = _scan_times(
            angles, sigmas, epsilon, 1.0, float(budget), 1, budget + 1
        )
        return TimeSearchResult(success=hit, t=t, deficit=deficit, mode=mode)

    # real mode
    horizon, step, points = _real_grid(angles, epsilon, t_max)
    t = _single_angle_time(angles, sigmas, horizon)
    if t is not None:
        deficit = float(phase_alignment_deficit(angles, sigmas, t))
        return TimeSearchResult(success=deficit < epsilon, t=t, deficit=deficit, mode=mode)
    if points > MAX_GRID_POINTS:
        logger.info("real-time grid coarsened to %d points over [0, %g]", points, horizon)

    t, deficit, _ = _scan_times(angles, sigmas, epsilon, step, horizon, 0, points)
    t, deficit = _refine_real_time(angles, sigmas, t, deficit, step, horizon)
    return TimeSearchResult(success=deficit < epsilon, t=t, deficit=deficit, mode=mode)


def _exhausted_note(
    angles, sigmas, epsilon: float, mode: str, budget: int, t_max, search
) -> str:
    """The best deficit of a failed time search and where it was found; in
    integer mode also whether MAX_GRID_POINTS cut the budget, in real mode
    the grid step scanned, and whether MAX_GRID_POINTS coarsened it past
    epsilon resolution, epsilon / (4 max theta)."""
    note = f"best alignment deficit {search.deficit:.3e} at t={search.t}"
    if not sigmas.any():
        return note
    if mode == MODE_INTEGER:
        if budget > MAX_GRID_POINTS:
            note += (
                f" after the integer budget {budget} was cut to fit "
                f"MAX_GRID_POINTS = {MAX_GRID_POINTS}"
            )
        return note
    horizon, step, points = _real_grid(angles, epsilon, t_max)
    if _single_angle_time(angles, sigmas, horizon) is not None:
        return note
    fine = epsilon / (4.0 * float(angles.max()))
    if points > MAX_GRID_POINTS:
        return note + (
            f" on a real-time grid of step {step:.3e} over [0, {horizon:g}], coarsened "
            f"past epsilon / (4 max theta) = {fine:.3e} to fit MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )
    return note + (
        f" on a real-time grid of step {step:.3e} = epsilon / (4 max theta) "
        f"over [0, {horizon:g}]"
    )


@dataclass(frozen=True, eq=False)
class MixingReport:
    """Outcome of a local or simultaneous mixing certification run.

    ``vertex`` is None for simultaneous checks. ``support`` lists the
    eigenvalue classes of the start vertex (all classes when simultaneous).
    ``verdict`` is one of success, no-flat-target, phase-obstruction,
    budget-exhausted. ``walk_residual`` is the largest closed-form defect
    (:func:`arcwalk.walk.check_closed_form`) on the start column, or on the
    seeded probes of every start column when simultaneous; None without a
    certificate. ``route`` is ``"scheme"`` when the decomposition came from
    the SRG parameters, ``"dense"`` when from eigh.
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
    route: str

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
            "route": self.route,
        }


def _distance_to_target(dec, H, starts, t) -> tuple[complex, float]:
    """gamma and ||U^t X - gamma Y||_F for the start block X = T^T E_S / sqrt(k)
    and its flat target Y = T^T H E_S / sqrt(nk), in n x |S| form. With
    U^t X = a[tails] + b[heads] (:func:`entry_parts` over sqrt(k)) and
    Y = y[tails], y = H E_S / sqrt(nk): <Y, U^t X> = k <y, a> + <y, A b> and
    ||U^t X - gamma Y||^2 = k ||a - gamma y||^2 + k ||b||^2 + 2 Re <a - gamma y, A b>,
    clamped at 0, since an exact hit leaves rounding noise of either sign."""
    root_k = np.sqrt(dec.k)
    a, b = (part / root_k for part in entry_parts(dec, starts, t))
    Ab = entry_parts(dec, starts, t, scale=dec.eigenvalues)[1] / root_k
    y = H[:, starts] / np.sqrt(dec.n * dec.k)
    inner = dec.k * complex(np.vdot(y, a)) + complex(np.vdot(y, Ab))
    gamma = inner / abs(inner) if abs(inner) > 0 else complex(1.0)
    c = a - gamma * y
    square = dec.k * (np.vdot(c, c).real + np.vdot(b, b).real) + 2.0 * np.vdot(c, Ab).real
    return gamma, float(np.sqrt(max(square, 0.0)))


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
    dec = srg_decomposition(g) or eigendecompose_symmetric(g)
    notes = []
    if walk_regular(dec):
        notes.append(
            "graph is walk-regular (every spectral idempotent has a constant "
            "diagonal), so the certificate, mixing time and residual do not "
            "depend on the start vertex"
        )
    full = tuple(range(dec.num_classes))
    if a is None:
        # every start: the slice keeps entry_parts from gathering the idempotents
        starts, support, slack = slice(None), full, C_SLACK * epsilon * np.sqrt(g.n)
        thin = {b: s for b, s in enumerate(eigenvalue_supports(dec)) if s != full}
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
        route=ROUTE_SCHEME if dec.vectors is None else ROUTE_DENSE,
    )

    certificates = hadamard_search(dec, tau_flat=tau_flat)
    if not certificates:
        if not _regular_hadamard_order(g.n):
            notes.append(
                f"order {g.n} is not 1 or an even square 4u^2, the orders of "
                "regular Hadamard matrices, so no flat sign combination can exist"
            )
        return report(
            certificate=None, kronecker=None, t=None, gamma=None, residual=None,
            walk_residual=None, verdict=NO_FLAT_TARGET, notes=tuple(notes),
        )

    arcs = build_arc_space(g)
    columns = starts if a is not None else probe_block(g.n)
    walk_residual = max(check_closed_form(dec, arcs, columns).values())
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
            search = time_search(angles, sigmas, epsilon, mode, budget=budget, t_max=t_max)
            t = search.t
            gamma, residual = _distance_to_target(dec, cert.matrix, starts, t)
            verdict = SUCCESS if search.success and residual <= slack else BUDGET_EXHAUSTED
            if verdict == BUDGET_EXHAUSTED:
                cert_notes.append(
                    _exhausted_note(angles, sigmas, epsilon, mode, budget, t_max, search)
                )
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
