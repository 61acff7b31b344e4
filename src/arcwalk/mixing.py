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
precision is possible (the phase condition); a scan of a grid of times,
screened in exact fixed-point turns point by point or by blocks resolved
in closed form, of consecutive points or along a stride over which every
class nearly returns, then finds an explicit time within the requested
epsilon, or fails with the first time of least misalignment in those
turns, so that the points of a periodic orbit, tied up to rounding, take
no sine.

The search runs on the n x n adjacency layer, so a graph with no flat
pattern is refused before any arc is enumerated. A strongly regular or
complete graph with integer eigenvalues takes the scheme route: its
decomposition is a record of its relations and eigenmatrix P
(:func:`arcwalk.spectra.srg_decomposition`), with no eigh and no
idempotent, so the search and the distance to the target are sums over
the d + 1 relations, and each flat pattern is certified by P h exactly.
Every other graph takes the dense route over eigh, where U^t on the start
block and its distance to the flat target are taken in n x n form from
:func:`arcwalk.walk.entry_parts`; the rest of the pipeline is shared. A
graph whose decomposition is refused for its size is answered from the
order of regular Hadamard matrices alone when that order rules a flat
target out. U^t's eigen-components are checked once, for every t. On the
dense route :func:`arcwalk.walk.check_closed_form` checks them against the
O(m) walk on the start column of a local run, on the seeded probes of
:func:`arcwalk.walk.probe_block` for a simultaneous one. On the scheme
route :func:`arcwalk.walk.check_type_closed_form` takes the same residuals
from the arc types of a start and the intersection numbers, which every
start shares, so it checks every start at once and builds no arc space.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .graphs import Graph, check_regular_hadamard
from .lattice import gap_rank, lll
from .spectra import (
    SizeLimitError,
    SpectralDecomposition,
    eigendecompose_symmetric,
    eigenvalue_support,
    eigenvalue_supports,
    srg_decomposition,
    walk_regular,
)
from .walk import (build_arc_space, check_closed_form, check_type_closed_form, entry_parts,
                   probe_block, relation_parts)

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
#: cache, and writes at most about SCAN_ROWS // d candidates of d
#: coordinates a step into its work table (one head's window over, and
#: twice that with the kept columns), apart from the relations it keeps,
#: so this also bounds what the scan holds beyond its output
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


def _order_note(n: int) -> str:
    return (
        f"order {n} is not 1 or an even square 4u^2, the orders of "
        "regular Hadamard matrices, so no flat sign combination can exist"
    )


def hadamard_search(
    dec: SpectralDecomposition, tau_flat: float = TAU_FLAT
) -> list[HadamardCertificate]:
    """Enumerate sign patterns over the idempotents and keep the flat ones.

    At an order other than 1 or 4u^2 (:func:`_regular_hadamard_order`) no
    pattern can pass the validator, so the answer is no certificate, at any
    class count and before any combination is formed. Otherwise more than
    MAX_CLASSES non-valency classes raise ValueError.

    Each pattern c with valency sign +1 (its negated twin is the same
    certificate) stands for M = sqrt(n) sum_r c_r E_r, which is accepted
    iff every entry is within ``tau_flat`` of +-1. A record of eigh forms M
    in one contraction, rounds an accepted one to integers and certifies it
    exactly by :func:`arcwalk.graphs.check_regular_hadamard`. A scheme
    record reads M on its relations, h = sqrt(n) Q c / n, and certifies the
    rounded h exactly in int64 (:func:`_scheme_search`), with no n x n
    combination. A rounded matrix that fails is logged with the failed
    condition and skipped. Certificates come back in pattern encoding
    order, the order of the enumeration.
    """
    n = dec.n
    d = dec.num_classes - 1
    if not _regular_hadamard_order(n):
        return []
    if d > MAX_CLASSES:
        raise ValueError(
            f"{d} non-valency eigenvalue classes exceed the search limit {MAX_CLASSES}"
        )
    if dec.idempotents is None:
        return _scheme_search(dec, tau_flat)
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


def _scheme_search(dec: SpectralDecomposition, tau_flat: float) -> list[HadamardCertificate]:
    """:func:`hadamard_search` on a scheme record, every pattern at once.

    M = sqrt(n) sum_r c_r E_r = sum_i h_i A_i with h = sqrt(n) Q c / n, so M
    is flat iff h is within ``tau_flat`` of {+-1}^{d+1}. The rounded h is
    certified exactly in int64: every entry is +-1 and P h lies in
    {+-sqrt(n)}^{d+1}. As the record passed its orthogonality relations
    and the SRG identity holds, H = sum_i h_i A_i then has
    H H^T = sum_r (P h)_r^2 E_r = nI and row sum (P h)_0, a regular
    Hadamard matrix, symmetric as every A_i is; H = h[R] is formed only for
    the report. Each pattern's h, P h and verdict are logged at debug level.
    """
    n, d = dec.n, dec.num_classes - 1
    root = math.isqrt(n)  # n is 1 or 4u^2: _regular_hadamard_order passed
    bits = list(itertools.product((0, 1), repeat=d))  # encoding order
    signs = 1 - 2 * np.array([(0, *row) for row in bits], dtype=np.int64)
    h = signs @ dec.dual_eigenmatrix.T
    h /= root
    flat = np.abs(np.abs(h) - 1.0).max(axis=1) <= tau_flat
    rounded = np.rint(h).astype(np.int64)
    Ph = rounded @ dec.eigenmatrix.T
    certified = flat & (np.abs(rounded) == 1).all(axis=1) & (np.abs(Ph) == root).all(axis=1)
    if logger.isEnabledFor(logging.DEBUG):
        for row, *values in zip(bits, h, Ph, certified):
            logger.debug("pattern %s: h = %s, P h = %s, %s",
                         SignPattern(sign_e0=1, sigmas=row).label(), *values[:2],
                         "accepted" if values[2] else "rejected")
    certificates: list[HadamardCertificate] = []
    for j in np.flatnonzero(flat).tolist():
        pattern = SignPattern(sign_e0=1, sigmas=bits[j])
        if not certified[j]:
            logger.warning("pattern %s skipped: rounded h = %s, P h = %s is not in {+-%d}^%d",
                           pattern.label(), rounded[j], Ph[j], root, d + 1)
            continue
        H = rounded[j][dec.relations]
        H.setflags(write=False)
        certificates.append(HadamardCertificate(
            matrix=H, order=n, row_sum=int(Ph[j, 0]), symmetric=True, pattern=pattern,
        ))
    return certificates


@dataclass(frozen=True, eq=False)
class KroneckerVerdict:
    """Outcome of the phase condition over walk angles.

    ``relations`` holds box relations, each inside the box and within
    ``tau_rel``, whose integer span holds every box relation (see
    :func:`phase_condition_check`), first nonzero entry positive and in
    lexicographic order, as one read-only int64 array with a relation per
    row: in integer mode a row is (l_1..l_d, l_0) with
    sum l_r theta_r + 2 pi l_0 = 0, so the shape is (r, d + 1); in real
    mode it is (l_1..l_d) with sum l_r theta_r = 0, shape (r, d). The
    lattice route gives a reduced basis, the scan every primitive relation,
    which spans as well; with every sigma even and no certificate the list
    is empty, as no relation can be odd. On ``violated`` only the relations
    before ``violating`` are listed. ``violating`` is an odd box relation
    as a tuple of ints, or None. ``bound`` is the coefficient bound
    decided; it is smaller than ``requested_bound`` only when the scan's
    enumeration cap forced a reduction, in which case a clean scan reports
    ``inconclusive`` rather than ``holds``: ``inconclusive`` comes from the
    scan alone. Verdicts compare by identity; compare
    ``relations.tolist()`` for their contents.
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
    ``columns`` (the j-th a 1-D array of every l_j, or a (d, r) array,
    d >= 1), with 2 pi l_0 added for the nearest integer l_0 when
    ``integer`` (else l_0 is None). The sum runs coordinate by coordinate in
    order, in place in one sum and one term array, so a vector's residual is
    the same whatever vectors share its columns."""
    s = columns[0] * angles[0]
    term = np.empty_like(s)
    for column, theta in zip(columns[1:], angles[1:]):
        s += np.multiply(column, theta, out=term)
    if not integer:
        return np.abs(s, out=s), None
    l0 = np.rint(np.divide(s, 2 * np.pi, out=term), out=term)
    l0 = np.negative(l0, out=l0).astype(np.int64)
    s += np.multiply(l0, 2 * np.pi, out=term)
    return np.abs(s, out=s), l0


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


def _sorted_windows(order, lo, count, bits):
    """Each distinct non-empty window (lo, count) of ``order`` sorted once.

    Returns the windows' rows in ascending order, one window after another,
    and the number of windows; ``lo`` is overwritten with each head's start
    in them (an empty window keeps its ``lo``). Heads are matched to their
    window through the sorted keys lo (len(order) + 1) + count."""
    heads = count.nonzero()[0]
    key = lo[heads] * (len(order) + 1) + count[heads]
    by_key = key.argsort()
    key = key[by_key]
    new = np.empty(len(key), dtype=bool)  # a window's first head in key order
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    first = heads[by_key[new]]
    wlo, wcount = lo[first], count[first]
    wstart = wcount.cumsum() - wcount
    pos = (wlo - wstart).repeat(wcount)
    pos += np.arange(len(pos))
    rows = (np.arange(len(first)) << bits).repeat(wcount)
    rows += order[pos]
    rows.sort()
    rows &= (1 << bits) - 1
    lo[heads[by_key]] = wstart[new.cumsum() - 1]
    return rows, len(first)


def _candidate_steps(head_angles, sums, order, span, width, integer, step_rows, tally):
    """The candidate vectors of the canonical half box, in lexicographic
    order.

    A vector is a head (the leading ``len(head_angles)`` coordinates) and an
    inner row; ``sums`` are minus the inner sums, sorted, and ``order``
    their rows in C order. The canonical heads are the C-order heads from
    the all-zero head on, made in batches of SCAN_ROWS // 16, and each
    head's candidates are the rows of its window, the run of ``sums``
    within ``width`` of its own sum (:func:`_locate`), in row order. A
    batch sorts each distinct window once (:func:`_sorted_windows`) and
    gives each head a slice of them; a batch where no window holds more
    than one row is in (head, row) order as located and sorts nothing. The
    all-zero head keeps only the rows after the middle row. A batch's
    candidates are yielded in steps of whole heads: about FIRST_ROWS rows
    in the first step, twice as many in each next one up to
    ``step_rows``. Each step is (heads, runs, row, reserve): the step's
    head table (:func:`_box_columns`), each head's candidate count, each
    candidate's inner row, and the candidate count of the whole batch on a
    batch's first step, else 0. ``tally`` counts the heads located and the
    windows read.
    """
    rows, outer = len(order), len(head_angles)
    lower, upper = sums + width, sums - width
    # the row of each entry of sums, which holds three copies in integer mode
    if integer:
        order = np.concatenate((order, order, order))
    total, batch = span**outer, max(1, SCAN_ROWS // 16)
    zero, size = total // 2, FIRST_ROWS
    for start in range(zero, total, batch):
        heads = _box_columns(start, min(start + batch, total), span, outer)
        lo, count = _locate(lower, upper, _table_sums(heads, head_angles, integer), rows)
        tally["heads"] += len(lo)
        if start == zero and count[0] == 1:
            count[0] = 0  # the zero vector alone; its sum 0 is always in the window
        ends = count.cumsum()
        if not ends[-1]:
            continue
        table = order
        if count.max() > 1:
            table, windows = _sorted_windows(order, lo, count, rows.bit_length())
            tally["windows"] += windows
            if start == zero:  # the zero head keeps the rows after the middle row
                skip = table[lo[0] : lo[0] + count[0]].searchsorted(rows // 2, side="right")
                lo[0] += skip
                count[0] -= skip
                ends = count.cumsum()
        else:
            tally["windows"] += int(ends[-1])
        reserve = todo = int(ends[-1])
        # the batch's candidate j, counted over its heads in order, is
        # entry j + shift of the table
        shift = lo - ends + count
        done = 0
        while done < todo:
            first = int(ends.searchsorted(done, side="right"))
            cut = done + min(size, step_rows)
            last = max(first + 1, int(ends.searchsorted(cut, side="right")))
            runs, end = count[first:last], int(ends[last - 1])
            pos = shift[first:last].repeat(runs)
            pos += np.arange(done, end)
            yield heads[:, first:last], runs, table[pos], reserve
            reserve = 0
            done, size = end, 2 * size


def _pick(columns, index, out):
    """Columns ``index`` of the (c, n) table ``columns``, taken into the
    front of the flat buffer ``out`` as a C-contiguous (c, len(index))
    table; the take clips, as ``index`` is in range."""
    picked = out[: len(columns) * len(index)].reshape(len(columns), len(index))
    return np.take(columns, index, axis=1, out=picked, mode="clip")


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


def relation_scan_bound(bound: int, d: int, cap: int) -> int:
    """Largest B in [1, bound] whose half box ((2B+1)^d - 1) // 2 of
    relation vectors fits the enumeration cap, or 1 when none does.

    (2B+1)^d is odd, so the cap condition is (2B+1)^d <= 2 cap + 1.
    """
    fits = (_integer_root(2 * cap + 1, d) - 1) // 2
    return max(1, min(bound, fits))


def _check_count(name: str, value, least: int) -> None:
    """ValueError naming ``value`` unless it is an integer (a bool or numpy
    integer too) of at least ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _phase_inputs(angles, sigmas, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Check the inputs shared by the relation scan and the time search:
    a known mode, 1-D finite angles and sigmas of equal length, and
    integral sigmas (integral floats and bools included). Only sigma mod 2
    enters a phase, so the sigmas come back as int64 bits 0 and 1, reduced
    exactly: integer input is never read through float64."""
    if mode not in (MODE_INTEGER, MODE_REAL):
        raise ValueError(f"mode must be '{MODE_INTEGER}' or '{MODE_REAL}', got {mode!r}")
    angles, given = np.asarray(angles, dtype=float), np.asarray(sigmas)
    for name, value in (("angles", angles), ("sigmas", given)):
        if value.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {value.shape}")
    d = len(angles)
    if d != len(given):
        raise ValueError("angles and sigmas must have matching length")
    # one float table of both, checked once for finiteness
    values = np.concatenate((angles, given), dtype=float)
    if not np.isfinite(values).all():
        bad = ("angles", angles) if not np.isfinite(angles).all() else ("sigmas", values[d:])
        raise ValueError(f"{bad[0]} must be finite, got {bad[1].tolist()}")
    if given.dtype.kind in "bi":  # integral and of int64 size as given
        return angles, (given % 2).astype(np.int64)
    sigmas = values[d:]
    if not (np.abs(sigmas) < 2.0**63).all() or (sigmas % 1).any():
        raise ValueError(f"sigmas must be integers of int64 size, got {sigmas.tolist()}")
    exact = given if given.dtype.kind == "u" else sigmas
    return angles, (exact % 2).astype(np.int64)


def _relation_inputs(angles, sigmas, mode: str, bound, tau_rel):
    """The checked inputs of the phase condition: the angles and sigma bits
    of :func:`_phase_inputs`, ``bound`` as the Python int it equals (a numpy
    integer or bool too), at least 1, and ``tau_rel`` non-negative (inf is
    allowed); otherwise ValueError."""
    angles, sigmas = _phase_inputs(angles, sigmas, mode)
    _check_count("relation bound", bound, 1)
    if not tau_rel >= 0:  # NaN too: a tolerance that accepts nothing says `holds`
        raise ValueError(f"tau_rel must be non-negative, got {tau_rel}")
    return angles, sigmas, int(bound)


def phase_condition_check(
    angles,
    sigmas,
    mode: str,
    bound: int = RELATION_BOUND,
    tau_rel: float = TAU_REL,
) -> KroneckerVerdict:
    """Decide whether some integer relation among the angles has odd sign
    parity.

    Integer mode: every (l_1..l_d, l_0) with sum l_r theta_r + 2 pi l_0 = 0
    within ``tau_rel`` must have sum l_r sigma_r even. Real mode: the same
    with exact relations sum l_r theta_r = 0 (no 2 pi slack). A box
    relation is such a vector with every |l_r| <= ``bound`` whose residual
    :func:`_relation_residuals` accepts, l_0 its nearest integer. One odd
    box relation makes alignment impossible at any precision (``violated``);
    none reports ``holds``. Angles and sigmas must be 1-D, finite and of
    equal length, sigmas integral, ``bound`` an integer and ``tau_rel``
    non-negative (inf is allowed); otherwise ValueError.

    The relation lattice is reduced first (:func:`_lattice_verdict`): when
    its gap certificate holds, the box relations are the integer span of a
    few reduced rows, and their parities decide at the requested bound with
    no enumeration. Otherwise, when every sigma is even, no relation can be
    odd and the verdict ``holds`` at the requested bound, listing no
    relations; else the call runs the meet-in-the-middle scan
    (:func:`_relation_scan`), which may cut the bound to the enumeration
    cap and then reads ``inconclusive``.
    """
    angles, sigmas, bound = _relation_inputs(angles, sigmas, mode, bound, tau_rel)
    verdict = _lattice_verdict(angles, sigmas, mode, bound, tau_rel)
    if verdict is not None:
        return verdict
    if not sigmas.any():
        relations = np.empty((0, len(angles) + (mode == MODE_INTEGER)), dtype=np.int64)
        relations.flags.writeable = False
        return KroneckerVerdict(mode=mode, status=HOLDS, bound=bound, requested_bound=bound,
                                relations=relations, violating=None)
    return _relation_scan(angles, sigmas, mode, bound, tau_rel)


#: binary digits of the fixed-point pi of the lattice route
PI_BITS = 256


def _arctan_inverse(x: int, one: int) -> int:
    """atan(1 / x) in units of 1 / ``one``, by its alternating series in
    integers: each term is cut down twice, so the sum errs by at most twice
    the number of terms."""
    total = term = one // x
    k, sign = 1, 1
    while term:
        term //= x * x
        k, sign = k + 2, -sign
        total += sign * (term // k)
    return total


#: pi in units of 2^-PI_BITS by Machin's formula, 16 atan(1/5) -
#: 4 atan(1/239), with 16 guard bits: within 2 units of pi
FIXED_PI = (16 * _arctan_inverse(5, 1 << PI_BITS + 16)
            - 4 * _arctan_inverse(239, 1 << PI_BITS + 16)) >> 16
#: relative slack on the float bounds of the lattice route, far above the
#: few roundings of each
SLACK = 1.0 + 2.0**-40


def _lattice_verdict(angles, sigmas, mode: str, bound: int, tau_rel: float):
    """The verdict of :func:`phase_condition_check` at the requested bound
    from the rows of :func:`_lattice_relations`, or None where its gap
    certificate falls short. Every box relation is in the integer span of
    those rows, each itself a box relation, so an odd box relation exists
    iff an odd row does: ``violated`` at the first odd row in lexicographic
    order, with the rows before it as ``relations``, else ``holds`` with
    all of them. At debug level each call logs one record: the route, N
    (the lattice rows), s, k, the least |b*_j|^2 / R^2 over j > k, and the
    reason for a fallback.
    """
    found, record = _lattice_relations(tuple(angles.tolist()), mode, bound, tau_rel)
    if found is None:
        logger.debug("%s", record)
        return None
    bits = sigmas.tolist()
    odd = next((i for i, row in enumerate(found) if sum(map(operator.mul, row, bits)) % 2), None)
    kept, integer = found[:odd], mode == MODE_INTEGER
    relations = np.array(kept, dtype=np.int64).reshape(len(kept), len(bits) + integer)
    relations.flags.writeable = False
    status = HOLDS if odd is None else VIOLATED
    logger.debug("%s; lattice: %s", record, status)
    return KroneckerVerdict(mode=mode, status=status, bound=bound, requested_bound=bound,
                            relations=relations,
                            violating=None if odd is None else found[odd])


@functools.lru_cache(maxsize=64)
def _lattice_relations(angles: tuple, mode: str, bound: int, tau_rel: float):
    """Box relations, first nonzero entry positive and in lexicographic
    order, whose integer span holds every box relation of
    :func:`phase_condition_check`, with the call's debug record; None for
    the rows where the gap certificate falls short. The rows do not depend
    on the sigmas, so the verdicts of one set of angles share them: a mix
    run asks for the same angles once per sign pattern.

    Coordinate r gets the row e_r | a_r with a_r = round(C theta_r / 2 pi)
    in integer mode, which adds the row e_0 | C for l_0, and
    a_r = round(C theta_r) in real mode; C = 2^s, theta_r is read as the
    rational it is and pi in fixed point (FIXED_PI), so a_r is within
    1/2 + 2^-50 of its target. The vector (l, l_0) maps to (l, l_0, t),
    t = sum l_r a_r + C l_0, and |t| <= C rho / 2 pi + d B / 2 (C rho +
    d B / 2 in real mode) when its exact residual is at most rho. A box
    relation's exact residual is at most rho = tau_rel plus the rounding of
    :func:`_relation_residuals`, u ((d + 1) sum_r |l_r theta_r| + 9 |l_0| +
    tau_rel) with u = 2^-53, which covers the products, the d - 1 adds,
    2 pi in float64 and its product by l_0. So every box relation has
    squared norm at most the integer R^2 = d B^2 + L_0^2 + T^2, L_0 and T
    bounding |l_0| and |t|; these bounds are formed in floats, each raised
    by the relative SLACK, and rounded up. C is the least power of two with
    C rho / 2 pi >= B (C rho >= B in real mode), which balances t against
    l. (The scan's window margin, 1e-12 (1 + B sum |theta_r|), bounds the
    rounding too, but it is about 10^3 times larger, and with it no bound
    past about 2 10^6 could be certified even for a single angle.)

    :func:`arcwalk.lattice.lll` reduces the rows, and
    :func:`arcwalk.lattice.gap_rank` finds the least k with
    |b*_j|^2 > R^2, that is D_j > R^2 D_{j-1} in integers, for every j > k,
    so every box relation is in the integer span of b_1..b_k. Those are the
    answer when each is inside the box and is itself a box relation (within
    ``tau_rel``, with the same l_0). When k = 1 and b_1 is not, every box
    relation is a multiple c b_1, and when none of the at most FIRST_ROWS
    multiples inside the box is one, there is none: the answer is no rows.
    Otherwise it is None: at a bound past 2^52, where float64 coordinates
    stop being exact, for a residual bound that is not finite and positive,
    and for a row below the gap that is no box relation.
    """
    integer = mode == MODE_INTEGER
    d = len(angles)
    rows = d + integer
    reach = bound * math.fsum(map(abs, angles)) * SLACK  # >= sum |l_r theta_r| in the box
    l0_max = math.floor(reach * SLACK / (2 * np.pi)) + 1 if integer else 0
    rho = (tau_rel + 2.0**-53 * ((d + 1) * reach + 9 * l0_max + tau_rel)) * SLACK
    turn = 2 * np.pi if integer else 1.0
    record = f"phase condition ({mode}, d={d}, bound {bound}): N={rows}"
    if not (bound <= 2**52 and 0 < rho < math.inf and bound * turn / rho < 2.0**200):
        return None, f"{record}; scan: no exact lattice for the residual bound {rho:.3g}"
    s = max(0, math.frexp(bound * turn / rho)[1])
    T = math.ceil((2.0**s * rho / turn + d * bound / 2) * SLACK)
    radius2 = d * bound**2 + l0_max**2 + T**2
    ends = [(p << (s + PI_BITS), 2 * q * FIXED_PI) if integer else (p << s, q)
            for p, q in map(float.as_integer_ratio, angles)]
    table = [[0] * r + [1] + [0] * (rows - r - 1) + [(2 * num + den) // (2 * den)]
             for r, (num, den) in enumerate(ends)]
    if integer:
        table.append([0] * d + [1, 1 << s])
    basis, D = lll(table)
    k = gap_rank(D, radius2)
    gaps = [D[j] / (radius2 * D[j - 1]) for j in range(k + 1, rows + 1)]
    record += f", s={s}, k={k}, least |b*_j|^2 / R^2 over j > k {min(gaps, default=math.inf):.3g}"
    found = [row[:rows] if next(x for x in row if x) > 0 else [-x for x in row[:rows]]
             for row in basis[:k]]
    theta = np.array(angles)
    related = all(abs(x) <= bound for row in found for x in row[:d])
    if related and found:
        columns = np.array(found, dtype=float).T
        resid, l0 = _relation_residuals(columns[:d], theta, integer)
        related = (resid <= tau_rel).all() and (l0 is None or (l0 == columns[d]).all())
    if not related:
        top = max(map(abs, found[0][:d]))
        if k > 1 or not top or bound // top > FIRST_ROWS:
            return None, f"{record}; scan: a row below the gap is no box relation"
        # every box relation is c b_1 for an integer 0 < c <= bound // top
        multiples = np.multiply.outer(np.array(found[0][:d], dtype=float),
                                      np.arange(1, bound // top + 1))
        if (_relation_residuals(multiples, theta, integer)[0] <= tau_rel).any():
            return None, f"{record}; scan: b_1 is no box relation, but a multiple is"
        found = []
    return tuple(sorted(map(tuple, found))), record


def _relation_scan(
    angles,
    sigmas,
    mode: str,
    bound: int = RELATION_BOUND,
    tau_rel: float = TAU_REL,
) -> KroneckerVerdict:
    """Scan integer relations among the angles and test their sign parity:
    :func:`phase_condition_check` where the lattice certificate falls short
    and some sigma is odd, and the oracle of the lattice route in tests.

    Integer mode: every (l_1..l_d, l_0) with sum l_r theta_r + 2 pi l_0 = 0
    within ``tau_rel`` must have sum l_r sigma_r even. Real mode: the same
    with exact relations sum l_r theta_r = 0 (no 2 pi slack). One violation
    makes alignment impossible at any precision; no violation up to the
    scanned bound reports ``holds`` (or ``inconclusive`` when the
    enumeration cap, MAX_ENUMERATION as read at the call, forced a smaller
    bound than requested). Angles and sigmas must be 1-D, finite and of
    equal length, sigmas integral, ``bound`` an integer and ``tau_rel``
    non-negative (inf is allowed); otherwise ValueError.

    The scan covers the canonical half of the box [-B, B]^d (first nonzero
    coefficient positive) in lexicographic order, and meets in the middle:
    the trailing d // 2 coefficients form an inner grid whose sums are
    formed once and sorted, with copies shifted by -1 and +1 turn in
    integer mode so that a window that wraps is one run. Each canonical
    head of leading coefficients then finds its window of candidate rows
    with two binary searches, in a width of ``tau_rel`` plus a margin of
    1e-12 (1 + B sum |theta_r|), far above the rounding of either sum. Many
    heads share a window (on cycle angles one per residue of the head sum),
    so a batch of heads sorts the rows of each distinct window once and
    gives each head its slice (:func:`_candidate_steps`). In steps of whole
    heads, the candidates are written coordinate by coordinate into one
    reused work table, each head's coordinates repeated over its slice, and
    decided by the exact residual over those columns
    (:func:`_relation_residuals`). A step where some candidates miss is
    compacted to its hits once (columns, rows, l_0 and each head's run),
    so every step goes on down one path: parity (skipped when every sigma
    is even), a stop at the first odd relation, and primitivity. A vector
    is primitive when its head's gcd or its row's gcd is 1; only vectors
    whose head and row both share a factor take np.gcd of the two, and of
    l_0 in integer mode. The kept relations of a step are written in one
    transposed copy into an int64 array grown once per batch of heads by
    that batch's candidate count and cut to the kept rows in place at the
    end; a subset is taken first only where rows were dropped. So a clean
    scan costs about its output, (relations x d) entries, plus the inner
    grid. At debug level the scan logs one record of its counts.
    ``bound`` is read as the Python int it equals.
    """
    angles, sigmas, bound = _relation_inputs(angles, sigmas, mode, bound, tau_rel)
    d = len(angles)
    integer = mode == MODE_INTEGER
    verdict = functools.partial(KroneckerVerdict, mode=mode, requested_bound=bound)
    if d == 0:
        relations = np.empty((0, int(integer)), dtype=np.int64)
        relations.flags.writeable = False
        return verdict(status=HOLDS, bound=bound, relations=relations, violating=None)

    effective = relation_scan_bound(bound, d, MAX_ENUMERATION)
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
    margin = 1e-12 * (1.0 + effective * float(np.abs(angles).sum()))
    width = (tau_rel / (2 * np.pi) if integer else tau_rel) + margin

    # one row per kept relation, each written there once
    cols = d + integer
    relations = np.empty((0, cols), dtype=np.int64)
    used, violating = 0, None
    # the candidate columns of a step, l_0 last in integer mode, held as
    # exact float64 integers so that the residual's products cast nothing;
    # one buffer, grown with the steps, of two halves: the C-contiguous
    # (d + integer, n) table, and room for its hits or kept columns
    work, inner = np.empty(0), grid.astype(float)
    row_gcd = row_shared = row_parity = None  # formed at the first hit
    tally = dict.fromkeys(("heads", "windows", "steps", "candidates", "hits", "dropped"), 0)
    steps = _candidate_steps(
        angles[:outer], sums, order, span, width, integer, max(1, SCAN_ROWS // d), tally
    )
    for heads, runs, row, reserve in steps:
        n = len(row)
        tally["steps"] += 1
        tally["candidates"] += n
        if used + reserve > len(relations):
            grown = np.empty((used + reserve, cols), dtype=np.int64)
            if used:
                grown[:used] = relations[:used]
            relations = grown
        if work.size < 2 * cols * n:
            work = np.empty(2 * cols * n)
        columns, spare = work[: cols * n].reshape(cols, n), work[cols * n :]
        # a head's coordinates repeat over its run; the take clips, as its
        # indices are in range and a take into out= in the default mode goes
        # through a buffer
        columns[:outer] = heads.repeat(runs, axis=1)
        np.take(inner, row, axis=1, out=columns[outer:d], mode="clip")
        resid, l0 = _relation_residuals(columns[:d], angles, integer)
        ok = resid <= tau_rel
        hits = np.count_nonzero(ok)
        if not hits:
            continue
        tally["hits"] += hits
        if integer:
            columns[d] = l0
        if hits < n:
            # the step becomes its hits, each head's run its hits; the first
            # half is then free for the kept columns
            hit = ok.nonzero()[0]
            runs = np.bincount(np.arange(len(runs)).repeat(runs)[hit], minlength=len(runs))
            columns, spare, row, n = _pick(columns, hit, spare), work, row[hit], hits
            if integer:
                l0 = l0[hit]
        if row_gcd is None:
            row_gcd = np.gcd.reduce(np.abs(grid), axis=0)
            row_shared = row_gcd != 1
            # None when every sigma is even, so that no relation can be odd
            row_parity = sigmas[outer:] @ grid if sigmas.any() else None
        end = n
        if row_parity is not None:
            odd = (((sigmas[:outer] @ heads).repeat(runs) + row_parity[row]) % 2).nonzero()[0]
            if odd.size:
                end = int(odd[0])
                violating = tuple(map(int, columns[:, end]))
        # a vector is primitive when its head's gcd or its row's gcd is 1,
        # so only the others take np.gcd of the two, and of l_0 in integer
        # mode
        head_gcd = np.gcd.reduce(np.abs(heads), axis=0).repeat(runs)[:end]
        shared = ((head_gcd != 1) & row_shared[row[:end]]).nonzero()[0]
        common = np.gcd(head_gcd[shared], row_gcd[row[shared]])
        if integer:
            common = np.gcd(common, l0[shared])
        drop = shared[common != 1]
        kept = end - drop.size
        if kept == n:  # one transposed copy
            relations[used : used + n] = columns.T
        else:
            keep = np.ones(end, dtype=bool)
            keep[drop] = False
            relations[used : used + kept] = _pick(columns, keep.nonzero()[0], spare).T
        tally["dropped"] += drop.size
        used += kept
        if violating is not None:
            break
    relations.resize((used, cols), refcheck=False)
    relations.flags.writeable = False
    if violating is not None:
        status = VIOLATED
    else:
        status = HOLDS if effective == bound else INCONCLUSIVE
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("relation scan (%s, d=%d, bound %d of %d requested): %d heads, %d windows, "
                     "%d candidates in %d steps, %d hits, %d not primitive, %d relations kept; "
                     "stopped %s", mode, d, effective, bound, tally["heads"], tally["windows"],
                     tally["candidates"], tally["steps"], tally["hits"], tally["dropped"], used,
                     "at an odd relation" if violating is not None else "at the end of the box")
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
    one (d, len(ts)) array, class first. This is the exact form of the
    time search, taken at the points within a margin of epsilon and at a
    failure's one reported point; the screen and the choice of that point
    work in fixed-point turns (:func:`_scan_times`)."""
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


#: points in the first chunk of a time-search grid; later chunks double, so
#: an early hit costs little
FIRST_CHUNK = 1024
#: blocks in the first chunk screened by blocks; later ones double. 2^9
#: took the real searches of rook:4 at epsilon 0.003 1.3x as long, 2^12
#: the cycles' alternating-bit hits at 0.003 1.5x
FIRST_BLOCKS = 2**10
#: most blocks times classes in a chunk screened by blocks, beside one
#: block per residue of its stride: it bounds the chunk's work arrays and
#: so the search's peak memory; 2^13 blocks at every d took complement:rook:4's
#: failing integer searches 1.15x as long
CHUNK_WORK = 2**16
#: most points in a chunk screened at every point; its work rows stay in cache
DENSE_CHUNK = 2**16
#: a chunk is screened by blocks only when its fastest class leaves room
#: for blocks of at least this many points (see :func:`_block_size`); at
#: 64 complement:rook:4's failing integer searches took 3x as long
MIN_BLOCK = 8
#: least points in a chunk screened by blocks; smaller chunks are screened
#: at every point. At 2^11 the hits in the second to fourth chunks took
#: 2-2.6x as long; at 2^15 the alternating-bit hits at epsilon 0.003 took
#: 0.6x, the other searches of the search-real benchmark 1.07x in all
BLOCK_CHUNK = 2**14
#: largest stride along which a chunk is screened by blocks (see
#: :func:`_stride`)
MAX_STRIDE = 2**12
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

    def moves(self, stride: int = 1) -> tuple[int, ...]:
        """How far each class moves over ``stride`` grid points, in units,
        at most HALF_TURN."""
        return tuple(min(x, (1 << 64) - x) for x in (s * stride % (1 << 64) for s in self.steps))


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


def _block_size(moves, reach: int) -> int:
    """The most points of a block over which the fastest class, moving
    ``moves`` units a point, crosses at most HALF_TURN - reach, so that
    :func:`_block_screen` resolves every block its centre does not prune."""
    return (HALF_TURN - reach) // max(max(moves), 1)


def _stride(grid) -> int:
    """The least stride L in [1, MAX_STRIDE] of least max_r dist(L steps[r]),
    a simultaneous Diophantine approximation of the turns per step: on the
    angles 2 pi j / c of a cycle it is c, over which every class comes back
    to within the rounding of its turns, 2^-50 of a turn. The
    (d, MAX_STRIDE) products are laid out class first."""
    strides = np.arange(1, MAX_STRIDE + 1, dtype=np.uint64)
    steps = np.array(grid.steps, dtype=np.uint64)[:, None]
    return int(np.argmin(_distance(strides, steps, 0).max(axis=0))) + 1


def _parts(x) -> tuple:
    """An int64 array or an int x below 2^63 as two exact float64 parts,
    x - x mod 2^32 and x mod 2^32: sums of the parts of two such numbers
    are exact, and their total rounds once."""
    return (x & -(1 << 32)) * 1.0, (x & (1 << 32) - 1) * 1.0


def _block_screen(lo, n, grid, close, reach, size, stride, tally) -> tuple[np.ndarray, np.ndarray]:
    """The grid indices in [lo, lo + n) whose misalignment
    (:func:`_misalignment`) is within ``close`` units and, when some index
    is within ``reach`` >= close, the first index of least misalignment,
    ascending, with their misalignments; ``tally`` counts the blocks.

    Each residue modulo the stride L is cut into blocks of ``size``
    points (or of all its points when fewer), size moves[r] <= HALF_TURN -
    reach (:func:`_block_size`). In the block c + j L, -h <= j < size - h,
    h = size // 2, class r lies at D_r + j M_r modulo a turn, D_r its
    signed position at c and M_r its signed move (:meth:`_FixedGrid.moves`).
    If |D_r| > reach + h |M_r| no index is within reach and the block goes;
    else |D_r + j M_r| <= HALF_TURN, no class crosses half a turn, and each
    distance is the greater of the lines a_r + j |M_r| and -a_r - j |M_r|,
    a_r = D_r sign(M_r): the block is resolved in closed form. Its indices
    within w lie between max_r (-w - a_r) / |M_r| and min_r (w - a_r) /
    |M_r|, and its misalignment is convex in j, with its first least over
    the reals at max_s min_r -(a_r + a_s) / (|M_r| + |M_s|), r and s over
    the moving classes, r also over the line max |D_r| of the still ones.
    In floats with one rounding per sum (:func:`_parts`) these are within
    2^-19 of a point, so exact distances at four indices from one below the
    floor of the least (or from the first bound, when the bounds at reach
    are at most three apart) settle the first least, and from the floor of
    the first bound at ``close`` to the ceiling of the second the indices
    within it.
    """
    end, size = lo + n, min(size, -(-n // stride))
    h, L, offset = size // 2, np.uint64(stride), np.uint64(size // 2 * stride)
    steps = np.array(grid.steps, dtype=np.uint64)[:, None]
    halves = np.array(grid.halves, dtype=np.uint64)[:, None]
    starts = np.add.outer(np.arange(lo, end, size * stride, dtype=np.uint64),
                          np.arange(min(stride, n), dtype=np.uint64)).ravel()
    centres = starts[starts < end] + offset
    keep = np.ones(len(centres), dtype=bool)
    for step, half, move in zip(grid.steps, grid.halves, grid.moves(stride)):
        # a signed position x is within the bound u when x + u, wrapped, is at most 2 u
        if (bound := reach + h * move) < HALF_TURN:
            keep &= np.multiply(centres, step) + np.uint64((half + bound) % (1 << 64)) <= 2 * bound
    tally["blocks"] += len(keep)
    tally["block"], centres = max(tally["block"], size), centres[keep]
    tally["pruned"] += len(keep) - len(centres)
    moves = (steps * L).view(np.int64)[:, 0]
    moving = moves != 0
    signed = (centres * steps + halves).view(np.int64)
    heights, slopes = signed[moving] * np.sign(moves[moving])[:, None], moves[moving]
    if not moving.all():
        heights = np.vstack([heights, np.abs(signed[~moving]).max(axis=0)])
        slopes = np.append(slopes, 0)
    high, low = _parts(heights)
    slopes, m = np.abs(slopes).astype(float)[:, None], moving.sum()
    fall = -slopes[:m]
    last = np.minimum(((end - 1 - centres + offset) // L).astype(np.int64) - h, size - 1 - h)

    def span(width):
        up, down = _parts(width), _parts(-width)
        a = ((high[:m] + up[0]) + (low[:m] + up[1])) / fall
        b = ((high[:m] + down[0]) + (low[:m] + down[1])) / fall
        a = np.floor(np.minimum(a.max(axis=0, initial=-h), size)).astype(np.int64)
        b = np.ceil(np.maximum(b.min(axis=0, initial=size), -h - 1)).astype(np.int64)
        return a, np.minimum(b, last)

    def worst(points):
        return _distance(points, steps, halves).max(axis=0, initial=0)

    a, b = span(reach)
    live = a <= b
    centres, high, low, last, a, b = (
        x.compress(live, -1) for x in (centres, high, low, last, a, b))
    wide = np.flatnonzero(b - a > 3)
    if wide.size:
        up, down, top = high.take(wide, 1), low.take(wide, 1), np.full(wide.size, np.inf)
        for s in range(m):
            met = ((up + up[s]) + (down + down[s])) / (slopes + slopes[s])
            np.minimum(top, met.max(axis=0), out=top)
        a[wide] = np.floor(np.minimum(np.maximum(-top, -h - 2), size)).astype(np.int64) - 1
    tries = np.minimum(np.maximum(a + np.arange(4)[:, None], -h), last).astype(np.uint64)
    tries = centres + tries * L
    values = worst(tries.ravel()).reshape(tries.shape)
    least, first = values.min(axis=0), tries[values.argmin(axis=0), np.arange(len(centres))]
    if not least.size or least.min() > reach:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64)
    if least.min() > close:
        points = first[least == least.min()].min(keepdims=True)
        return points, worst(points)
    near = least <= close
    centres, high, low, last = (x.compress(near, -1) for x in (centres, high, low, last))
    a, b = span(close)
    counts = np.maximum(b - a + 1, 0)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    points = np.sort(np.repeat(centres, counts)
                     + (np.repeat(a, counts) + offsets).astype(np.uint64) * L)
    values = worst(points)
    return points[values <= close], values[values <= close]


def _chunk_best(angles, sigmas, grid, epsilon, points, worst, close, tally):
    """Among the grid indices ``points`` with screened misalignment
    ``worst`` (:func:`_misalignment`): (i, deficit, True) at the first
    index i with deficit below epsilon, else (i, w, False) at the first
    index i of least screened misalignment w, or None when there are no
    points. Only the points within ``close`` units, the margin of epsilon,
    take the exact form (:func:`phase_alignment_deficit`); ``tally``
    counts them. The least is taken on ``worst`` itself, in fixed-point
    turns, so a failing chunk takes no sine."""
    near = np.flatnonzero(worst <= close)
    tally["exact"] += near.size
    if near.size:
        deficits = phase_alignment_deficit(angles, sigmas, points[near] * grid.step)
        below = np.flatnonzero(deficits < epsilon)
        if below.size:
            j = int(below[0])
            return int(points[near[j]]), float(deficits[j]), True
    if not worst.size:
        return None
    j = int(np.argmin(worst))
    return int(points[j]), int(worst[j]), False


def _scan_times(
    angles, sigmas, epsilon, step, horizon, start, stop
) -> tuple[float, float, bool]:
    """Scan the grid t_i = min(i step, horizon), i in [start, stop), for
    0/1 sigmas, some of them 1: return the first point with deficit below
    epsilon and True, or else the first point of least misalignment
    (t = 0 included) with its deficit, and False. The integer grid starts
    at t = 1, the real one at t = 0.

    The grid points are screened by grid index in the exact fixed-point
    turns of :func:`_fixed_grid`, in one of two ways: a chunk of
    BLOCK_CHUNK points or more, whose fastest class leaves room for blocks
    of MIN_BLOCK points (:func:`_block_size`), is cut into blocks, each
    pruned by its centre or resolved in closed form
    (:func:`_block_screen`); every other chunk is screened at every point
    (:func:`_misalignment`). Blocks run over consecutive points, or along
    the stride of :func:`_stride` (c on the integer grids of cycle angles
    2 pi j / c) when consecutive blocks would be too short, or when the
    chunk holds one block per residue anyway and the stride's blocks are
    longer. The first chunk is always screened at every point: its least
    so far is t = 0, where the odd classes sit half a turn out, and that
    leaves blocks no room.

    A point can matter only if its misalignment is within the bound w of
    epsilon on every class, or below the least so far, best_w; blocks
    with no point within max(w, best_w - 1) are pruned. The points within
    w go to the exact form in :func:`_chunk_best`, so every hit and its
    deficit come from the exact form. A failure is decided in the
    fixed-point turns: the first point of least misalignment, carried
    across chunks as the integer best_w and replaced only by a strictly
    smaller one, so neither the chunk sizes nor the screen can move it.
    Its deficit, 2 sin(pi best_w) up to the margin, is taken once, on the
    exact form, after the scan. On a periodic orbit thousands of points
    tie up to rounding: the float form ranks them by the rounding of its
    phases, the fixed-point form by the rounding of its steps, within a
    third of the margin, so the deficit reported exceeds the float form's
    least by less than 2 pi margins, and none of the tied points needs a
    sine.

    Chunks start at FIRST_CHUNK points and double; a chunk screened at
    every point stops at DENSE_CHUNK, and chunks screened by blocks are
    sized in blocks, FIRST_BLOCKS doubling up to CHUNK_WORK / d, and at
    least one per residue of the stride. The margin, 1e-12 times the
    largest phase the grid reaches, is far above the gap between the
    screen and the exact form; it is added on both sides of the
    conversion between epsilon and w. The last point, when the horizon
    clamps it short of its place on the grid, is decided on the exact form
    alone, after the rest. At debug level each search logs one record of
    its stride, blocks, exact forms and chunks.
    """
    grid = _fixed_grid(angles / (2.0 * np.pi), sigmas, step)
    # grid index 0 is t = 0, where each class sits at its half turn
    best_i, best_w = 0, max(grid.halves)
    clamped = int(stop > start and float(stop - 1) * step > horizon)
    stop -= clamped
    margin = 1e-12 * (1.0 + min(float(stop - 1) * step, horizon) * float(angles.max()) + np.pi)
    close = _fixed_width(_misalignment_at_most(epsilon + margin) + margin)
    index, work = np.empty(0, dtype=np.uint64), np.empty((2, 0), dtype=np.uint64)
    tally = dict.fromkeys(("blocks", "pruned", "block", "exact", "chunks"), 0)
    lo, size, blocks, stride, found = start, FIRST_CHUNK, FIRST_BLOCKS, None, None
    while lo < stop:
        n = min(size, stop - lo)
        reach = max(close, best_w - 1)
        by, block = 1, _block_size(grid.moves(), reach) if n >= BLOCK_CHUNK else 0
        # the stride is sought when consecutive blocks are too short, or once
        # a chunk may hold a block per residue of it
        if n >= BLOCK_CHUNK and (block < MIN_BLOCK or blocks > FIRST_BLOCKS):
            stride = stride or _stride(grid)
            along = _block_size(grid.moves(stride), reach)
            if along > block and (block < MIN_BLOCK or blocks >= stride):
                by, block = stride, along
        if block >= MIN_BLOCK:
            n = min(stop - lo, max(blocks, by) * block)
            blocks = min(2 * max(blocks, by), CHUNK_WORK // len(angles))
            points, worst = _block_screen(lo, n, grid, close, reach, block, by, tally)
        else:
            n = min(n, DENSE_CHUNK)
            if work.shape[1] < n:
                # the old buffers (points and worst are views of work) go first
                index = work = points = worst = None
                index, work = np.arange(n, dtype=np.uint64), np.empty((3, n), dtype=np.uint64)
            points = np.add(index[:n], np.uint64(lo), out=work[2, :n])
            worst = _misalignment(points, grid, work[:2])
        tally["chunks"] += 1
        found = _chunk_best(angles, sigmas, grid, epsilon, points, worst, close, tally)
        if found is not None and found[2]:
            break
        if found is not None and found[1] < best_w:
            best_i, best_w = found[:2]
        lo, size = lo + n, 2 * size
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("time search (%s, d=%d, %d grid points): stride %d, classes move at most %d "
                     "units a stride, blocks of up to %d points; %d blocks screened, %d pruned, "
                     "%d resolved in closed form; %d points took the exact form in %d chunks",
                     "integer" if start else "real", len(angles), stop + clamped - start,
                     stride or 1, max(grid.moves(stride or 1)), tally["block"], tally["blocks"],
                     tally["pruned"], tally["blocks"] - tally["pruned"], tally["exact"],
                     tally["chunks"])
    if found is not None and found[2]:
        return float(found[0]) * step, found[1], True
    best_t = float(best_i) * step
    best_val = float(phase_alignment_deficit(angles, sigmas, best_t))
    if clamped:
        val = float(phase_alignment_deficit(angles, sigmas, horizon))
        if val < epsilon:
            return horizon, val, True
        if val < best_val:
            return horizon, val, False
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
    """t = pi sigma / theta, the least time >= 0 that aligns a single
    angle with its bit sigma, when there is one angle and that time is
    within the horizon; else None."""
    if angles.size != 1:
        return None
    t = float(np.pi * sigmas[0] / angles[0])
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
    the first grid point of least misalignment, measured in exact
    fixed-point turns, is returned with its exact deficit and
    ``success=False``, after refinement in real mode. Points that tie up
    to rounding, as on periodic orbits, differ in their deficits by a few
    rounding margins at most, so no sine is taken to rank them
    (:func:`_scan_times`).

    Angles must be positive and finite, sigmas integral (only sigma mod 2
    counts: t = 0 aligns when every sigma is even), epsilon positive
    and finite, ``budget`` an integer >= 0 and ``t_max`` positive and
    finite; a bad value raises ValueError naming it. The scan is well defined whatever the phase
    condition says; a caller that searches after an ``inconclusive`` scan
    says so in its own report.
    """
    angles, sigmas = _phase_inputs(angles, sigmas, mode)
    if not (angles > 0).all():
        raise ValueError(f"angles must be positive, got {angles.tolist()}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    _check_count("budget", budget, 0)
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
    budget-exhausted. ``walk_residual`` is the largest closed-form defect,
    on the dense route on the start column, or on the seeded probes of
    every start column when simultaneous, and on the scheme route on the
    arc types, the same at every start; None without a certificate.
    ``route`` is ``"scheme"`` when the decomposition came from the SRG
    parameters, ``"dense"`` when from eigh.
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
    clamped at 0, since an exact hit leaves rounding noise of either sign.

    On a scheme record a, b, A b and y are constant on each relation
    (:func:`arcwalk.walk.relation_parts`; y read off row 0 of H = h[R]),
    and relation i holds v_i entries of each of the |S| columns, so every
    inner product is an O(d) sum over the relations weighted by |S| v_i
    (n v_i when every vertex starts), and no n x n array is formed."""
    root_k = np.sqrt(dec.k)
    if dec.idempotents is None:
        a, b, Ab = (relation_parts(dec, t) / root_k).tolist()
        y = np.empty(dec.num_classes)
        y[dec.relations[0]] = H[0]
        y = (y / np.sqrt(dec.n * dec.k)).tolist()
        w = ((dec.n if isinstance(starts, slice) else len(starts)) * dec.valencies).tolist()
        inner = complex(sum(wi * yi * (dec.k * ai + abi) for wi, yi, ai, abi in zip(w, y, a, Ab)))
        gamma = inner / abs(inner) if abs(inner) > 0 else complex(1.0)
        c = [ai - gamma * yi for ai, yi in zip(a, y)]
        square = sum(wi * (dec.k * (abs(ci) ** 2 + bi * bi) + 2.0 * (ci.conjugate() * abi).real)
                     for wi, ci, bi, abi in zip(w, c, b, Ab))
        return gamma, math.sqrt(max(square, 0.0))
    a, b = (part / root_k for part in entry_parts(dec, starts, t))
    Ab = entry_parts(dec, starts, t, scale=dec.eigenvalues)[1] / root_k
    y = H[:, starts] / np.sqrt(dec.n * dec.k)
    inner = dec.k * complex(np.vdot(y, a)) + complex(np.vdot(y, Ab))
    gamma = inner / abs(inner) if abs(inner) > 0 else complex(1.0)
    c = a - gamma * y
    square = dec.k * (np.vdot(c, c).real + np.vdot(b, b).real) + 2.0 * np.vdot(c, Ab).real
    return gamma, float(np.sqrt(max(square, 0.0)))


def _mixing_report(
    g, a, epsilon, mode, relation_bound, budget, t_max, tau_flat, tau_rel
) -> MixingReport:
    """The one pipeline behind :func:`local_mixing_report` (start vertex a)
    and :func:`simultaneous_mixing_check` (a is None: every vertex starts)."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
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
    graph = g.name or f"n{g.n}-k{g.degree}"
    try:
        dec = srg_decomposition(g) or eigendecompose_symmetric(g)
    except SizeLimitError as exc:
        if _regular_hadamard_order(g.n):
            raise
        return MixingReport(
            graph=graph, vertex=a, mode=mode, epsilon=epsilon, certificate=None,
            kronecker=None, t=None, gamma=None, residual=None, walk_residual=None,
            verdict=NO_FLAT_TARGET, support=None, route=ROUTE_DENSE,
            notes=(f"the spectral decomposition was refused for its size: {exc}",
                   _order_note(g.n)),
        )
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
        graph=graph, vertex=a, mode=mode, epsilon=epsilon, support=support,
        route=ROUTE_SCHEME if dec.idempotents is None else ROUTE_DENSE,
    )

    certificates = hadamard_search(dec, tau_flat=tau_flat)
    if not certificates:
        if not _regular_hadamard_order(g.n):
            notes.append(_order_note(g.n))
        return report(
            certificate=None, kronecker=None, t=None, gamma=None, residual=None,
            walk_residual=None, verdict=NO_FLAT_TARGET, notes=tuple(notes),
        )

    if dec.idempotents is None:
        checked = check_type_closed_form(dec)
        walk_residual = max(checked.values())
        if logger.isEnabledFor(logging.DEBUG):
            arcs = dec.valencies[:, None] * dec.intersections
            logger.debug("closed form of %s on the arc types (i, j) of every start, with their "
                         "arcs: %s; eigen=%.3e start=%.3e", graph,
                         ", ".join(f"({i}, {j}): {c}" for (i, j), c in np.ndenumerate(arcs) if c),
                         checked["eigen"], checked["start"])
    else:
        columns = starts if a is not None else probe_block(g.n)
        walk_residual = max(check_closed_form(dec, build_arc_space(g), columns).values())
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
) -> MixingReport:
    """Decide epsilon-uniform mixing from vertex a and assemble the report.

    Pipeline: enumerate Hadamard certificates (none: ``no-flat-target``,
    before any arc work); build U^t x_a in closed form over the support of
    a and check its eigen-components, against the O(m) walk on the dense
    route and on the arc types on the scheme route; then per
    certificate, restrict the sign bits to the support, run the
    integer-relation phase check, search for an alignment time, and
    require || U^t x_a - gamma y || <= C_SLACK * epsilon for the lifted
    flat target y. The first certificate (lowest pattern encoding) that
    reaches success wins; otherwise the first certificate's failure is
    reported.
    """
    return _mixing_report(
        g, a, epsilon, mode, relation_bound, budget, t_max, tau_flat, tau_rel
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
        g, None, epsilon, mode, relation_bound, budget, t_max, tau_flat, tau_rel
    )
