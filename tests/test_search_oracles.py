"""The search layers against independent slow paths.

The relation scan is compared with exact-integer scans of the half box
on cycle angles 2 pi j / c, where sum l_j theta_j + 2 pi l_0 = 0 exactly
when sum l_j j = -c l_0: one in pure Python at small sizes, one in numpy
at the benchmark's sizes. On random angles, up to d = 12, it is compared
with the block scan it replaced (``conftest.block_relation_scan``). The time
search is compared with a dense grid that evaluates d sines at every
point in one pass, through its own (..., d) form of the deficit
(``conftest.dense_phase_alignment_deficit``), and its closed-form block
screen with the point-by-point screen on seeded strides, moves and
reaches. Work-count guards check
that the scan locates each canonical head once, passes only its hits to
the exact residual on clean cycle scans, and that a failing time search
takes sines at only a small share of its grid and none at its tied points.
"""

import functools
import itertools
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcwalk import mixing, time_search
from arcwalk.cli import resolve_builtin
from arcwalk.mixing import HOLDS, VIOLATED, TimeSearchResult, relation_scan_bound
from arcwalk.spectra import srg_decomposition

from conftest import block_relation_scan, dense_phase_alignment_deficit


def cycle_angles(c, d):
    return 2.0 * np.pi * np.arange(1, d + 1) / c


def scan_result(verdict):
    """(status, relations, violating) of a verdict, in the tuples the
    oracles return."""
    return verdict.status, tuple(map(tuple, verdict.relations.tolist())), verdict.violating


def exact_relation_scan(c, sigmas, mode, bound):
    """(status, relations, violating) over the lexicographic half box,
    decided in exact integers."""
    d = len(sigmas)
    relations = []
    for vec in itertools.product(range(-bound, bound + 1), repeat=d):
        if not any(vec) or next(x for x in vec if x) < 0:
            continue
        total = sum(l * j for j, l in enumerate(vec, start=1))
        if mode == "integer":
            if total % c:
                continue
            vec = vec + (-total // c,)
        elif total:
            continue
        if sum(l * s for l, s in zip(vec, sigmas)) % 2:
            return VIOLATED, tuple(relations), vec
        if math.gcd(*vec) == 1:
            relations.append(vec)
    return HOLDS, tuple(relations), None


@pytest.mark.parametrize("mode", ["integer", "real"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_relation_scan_matches_exact_integer_oracle(d, mode):
    rng = np.random.default_rng(d)
    patterns = [np.zeros(d, int), np.ones(d, int), np.arange(1, d + 1) % 2]
    patterns += [rng.integers(0, 2, d) for _ in range(3)]
    for c in (2 * d + 1, 2 * d + 2, 12):
        angles = cycle_angles(c, d)
        for bits in patterns:
            for bound in range(1, 5):
                verdict = mixing._relation_scan(angles, bits, mode, bound=bound)
                want = exact_relation_scan(c, bits.tolist(), mode, bound)
                assert scan_result(verdict) == want, (c, bits, mode, bound)
                assert verdict.bound == bound
                assert verdict.relations.dtype == np.int64
                assert not verdict.relations.flags.writeable
                # row-major and holding no buffer beyond the kept relations
                assert verdict.relations.flags.c_contiguous and verdict.relations.base is None
                assert all(type(v) is int for v in verdict.violating or ())


def exact_cycle_scan(c, sigmas, mode, bound):
    """(status, relations, violating) of :func:`exact_relation_scan` in int64
    numpy, one value of the leading coordinate at a time: the sums over the
    other coordinates are formed once, and only the rows that are relations
    are built."""
    sigmas = np.asarray(sigmas, dtype=np.int64)
    d = len(sigmas)
    span = np.arange(-bound, bound + 1)
    rest = np.zeros(1, dtype=np.int64)
    for j in range(2, d + 1):
        rest = np.add.outer(rest, span * j).ravel()
    relations = []
    for first in span.tolist():
        total = first + rest
        hit = np.flatnonzero(total % c == 0 if mode == "integer" else total == 0)
        tail = np.unravel_index(hit, (len(span),) * (d - 1)) if d > 1 else ()
        rows = np.column_stack([np.full(len(hit), first), *tail]).astype(np.int64)
        rows[:, 1:] -= bound
        lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
        keep = lead > 0
        rows, total = rows[keep], total[hit][keep]
        odd = np.flatnonzero((rows @ sigmas) % 2)
        if mode == "integer":
            rows = np.column_stack([rows, -total // c])
        even = rows[: odd[0]] if odd.size else rows
        primitive = np.gcd.reduce(np.abs(even), axis=1) == 1
        relations.extend(map(tuple, even[primitive].tolist()))
        if odd.size:
            return VIOLATED, tuple(relations), tuple(rows[odd[0]].tolist())
    return HOLDS, tuple(relations), None


def lattice_parity_holds(sigmas, mode):
    """Over the cycle angles the parity condition holds on the whole
    relation lattice exactly when sigma_j = j sigma_1 (mod 2) for every j,
    and in integer mode also sigma_1 = 0 (c is odd)."""
    chained = all(s == (j * sigmas[0]) % 2 for j, s in enumerate(sigmas, start=1))
    return chained and (mode == "real" or sigmas[0] == 0)


@pytest.mark.parametrize("mode", ["integer", "real"])
@pytest.mark.parametrize("c, bound", [(9, 20), (13, 6), (17, 3)])
def test_relation_scan_matches_exact_oracle_at_benchmark_sizes(c, bound, mode):
    """The benchmark's cycle scans, clean and violated, against the int64
    oracle: the whole half box at the bound the enumeration cap allows."""
    d = (c - 1) // 2
    rng = np.random.default_rng(c)
    violated = []
    while len(violated) < 2:
        bits = rng.integers(0, 2, d)
        if not lattice_parity_holds(bits.tolist(), mode):
            violated.append(bits)
    assert relation_scan_bound(bound, d, mixing.MAX_ENUMERATION) == bound
    for bits in [np.zeros(d, dtype=np.int64), *violated]:
        verdict = mixing._relation_scan(cycle_angles(c, d), bits, mode, bound=bound)
        want = exact_cycle_scan(c, bits, mode, bound)
        assert want[0] == (VIOLATED if bits.any() else HOLDS)
        assert scan_result(verdict) == want, (bits, mode)
        assert verdict.bound == bound


def test_relation_scan_matches_the_block_scan_on_random_angles():
    """Random angles, some with a planted relation, at d <= 6 and loose
    tolerances that let many rows near the threshold through the screen."""
    rng = np.random.default_rng(11)
    for case in range(80):
        d = int(rng.integers(1, 7))
        bound = int(rng.integers(1, {1: 30, 2: 12, 3: 6, 4: 4}.get(d, 3)))
        angles = rng.uniform(0.05, 3.1, d)
        mode = ("integer", "real")[case % 4 // 2]
        if case % 2 and d > 1:
            total = rng.integers(-2, 3, d - 1) @ angles[:-1]
            angles[-1] = (total % (2 * np.pi) if mode == "integer" else abs(total)) or 1.0
        bits = rng.integers(0, 2, d)
        tau = (1e-9, 1e-3, 0.05, 0.3)[case % 5 % 4]
        verdict = mixing._relation_scan(angles, bits, mode, bound=bound, tau_rel=tau)
        want = block_relation_scan(angles, bits, mode, bound, tau)
        assert scan_result(verdict) == want, case


@pytest.mark.parametrize("d", range(7, 13))
def test_relation_scan_matches_the_block_scan_past_six_angles(d):
    """Random angles at d = 7..12, each with a planted relation, against the
    block scan: at the bound the enumeration cap allows (tau_rel 1e-9, zero
    and random bits) and at bound 1 with loose tolerances."""
    rng = np.random.default_rng(100 + d)
    cap = relation_scan_bound(mixing.RELATION_BOUND, d, mixing.MAX_ENUMERATION)
    for mode in ("integer", "real"):
        angles = rng.uniform(0.05, 3.1, d)
        total = rng.integers(-1, 2, d - 1) @ angles[:-1]
        angles[-1] = (total % (2 * np.pi) if mode == "integer" else abs(total)) or 1.0
        cases = [(cap, 1e-9, np.zeros(d, int)), (cap, 1e-9, rng.integers(0, 2, d)),
                 (1, 0.05, rng.integers(0, 2, d)), (1, 0.3, np.zeros(d, int))]
        for bound, tau, bits in cases:
            verdict = mixing._relation_scan(angles, bits, mode, bound=bound, tau_rel=tau)
            want = block_relation_scan(angles, bits, mode, bound, tau)
            assert scan_result(verdict) == want, (mode, bound, tau, bits)
            assert verdict.bound == bound


#: SCAN_ROWS settings of the block-scan cross-checks: one head a batch and
#: one candidate a step, a few heads a batch, and the default
SCAN_ROW_SETTINGS = [1, 81, None]


@pytest.mark.parametrize("rows", SCAN_ROW_SETTINGS)
@pytest.mark.parametrize("mode", ["integer", "real"])
def test_relation_scan_matches_the_block_scan_on_cycle_angles(mode, rows, monkeypatch):
    """Cycle angles 2 pi j / c for c = 5..17 at bounds 1 to 4 (each box of at
    most 2^18 vectors), with zero, chained (sigma_j = j mod 2) and random
    bits, against the block scan. Here many heads share one window, and the
    all-zero head's window holds more rows than the zero row."""
    if rows is not None:
        monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
    rng = np.random.default_rng(29)
    for c in range(5, 18):
        d = (c - 1) // 2
        angles = cycle_angles(c, d)
        for bound in range(1, 5):
            if (2 * bound + 1) ** d > 2**18:
                break
            for bits in (np.zeros(d, int), np.arange(1, d + 1) % 2, rng.integers(0, 2, d)):
                verdict = mixing._relation_scan(angles, bits, mode, bound=bound)
                want = block_relation_scan(angles, bits, mode, bound)
                assert scan_result(verdict) == want, (c, bound, bits)


@pytest.mark.parametrize("rows", SCAN_ROW_SETTINGS)
def test_relation_scan_matches_the_block_scan_where_windows_differ(rows, monkeypatch):
    """Random angles, each set with a planted relation, at tolerances wide
    enough that a window often holds several rows, against the block scan.
    Heads with distinct sums rarely share a window here, so most windows
    are sorted for one head."""
    if rows is not None:
        monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
    rng = np.random.default_rng(31)
    for case in range(24):
        d = 2 + case % 4
        bound, mode = (10, 6, 4, 3)[d - 2], ("integer", "real")[case % 2]
        angles = rng.uniform(0.05, 3.1, d)
        total = rng.integers(-2, 3, d - 1) @ angles[:-1]
        angles[-1] = (total % (2 * np.pi) if mode == "integer" else abs(total)) or 1.0
        bits, tau = rng.integers(0, 2, d), (0.02, 0.1, 0.3)[case % 3]
        verdict = mixing._relation_scan(angles, bits, mode, bound=bound, tau_rel=tau)
        assert scan_result(verdict) == block_relation_scan(angles, bits, mode, bound, tau), case


@pytest.mark.parametrize("rows", SCAN_ROW_SETTINGS)
@pytest.mark.parametrize("mode", ["integer", "real"])
def test_zero_head_keeps_the_canonical_rows_of_its_window(mode, rows, monkeypatch):
    """With theta_3 = theta_4 every inner row (l, -l) sums to zero, so the
    all-zero head's window holds those rows besides the zero row. Of the
    vectors (0, 0, l, -l) only l = 1 is canonical and primitive."""
    if rows is not None:
        monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
    angles, bits = [0.7, 1.3, 0.9, 0.9], [0, 0, 0, 0]
    verdict = mixing._relation_scan(angles, bits, mode, bound=3)
    assert scan_result(verdict) == block_relation_scan(angles, bits, mode, 3)
    vectors = verdict.relations[:, :4].tolist()
    assert [0, 0, 1, -1] in vectors
    assert not [v for v in vectors if v[:2] == [0, 0] and v != [0, 0, 1, -1]]


@pytest.mark.parametrize("rows", SCAN_ROW_SETTINGS)
def test_primitivity_takes_l0_where_the_coordinates_share_a_factor(rows, monkeypatch):
    """Four angles pi / 2: sum l_j = -4 l_0 on every relation. Vectors whose
    head and inner row share a factor are decided with l_0: (0, 0, 2, 2)
    and (2, 0, 0, 2) with l_0 = -1 are primitive and kept, (0, 0, 2, -2)
    with l_0 = 0 and (4, 4, 0, 0) with l_0 = -2 are not."""
    if rows is not None:
        monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
    angles, bits = [np.pi / 2] * 4, [0] * 4
    verdict = mixing._relation_scan(angles, bits, "integer", bound=4)
    assert scan_result(verdict) == block_relation_scan(angles, bits, "integer", 4)
    relations = verdict.relations.tolist()
    assert [0, 0, 2, 2, -1] in relations and [2, 0, 0, 2, -1] in relations
    assert [0, 0, 2, -2, 0] not in relations and [4, 4, 0, 0, -2] not in relations


def relation_scan_log(caplog, *args, **kwargs):
    """The scan's verdict and the messages it logs at debug level."""
    caplog.clear()
    caplog.set_level(logging.DEBUG, logger="arcwalk.mixing")
    verdict = mixing._relation_scan(*args, **kwargs)
    return verdict, [record.getMessage() for record in caplog.records]


def test_relation_scan_logs_one_debug_record_per_scan(caplog):
    """At debug level a scan logs one record: its mode, d, effective and
    requested bound, the heads located, the windows read, its candidates
    and steps, hits, non-primitive hits, relations kept and where it
    stopped; at info level a scan within the enumeration cap logs nothing.
    Each of the 841 heads of the clean cycle:9 integer scan reads one of
    only 9 distinct windows, one per residue of the head sum mod 9, each
    sorted once."""
    angles = cycle_angles(9, 4)
    caplog.set_level(logging.INFO, logger="arcwalk.mixing")
    quiet = mixing._relation_scan(angles, [0] * 4, "integer")
    assert not caplog.records
    verdict, (line,) = relation_scan_log(caplog, angles, [0] * 4, "integer")
    assert scan_result(verdict) == scan_result(quiet)
    hits = cycle_relation_rows(9, 4, 20, "integer")
    kept = len(verdict.relations)
    head, tail = line.split(" candidates in ")
    assert head == f"relation scan (integer, d=4, bound 20 of 20 requested): 841 heads, 9 windows, {hits}"
    steps = int(tail.split()[0])
    assert tail == (f"{steps} steps, {hits} hits, {hits - kept} not primitive, {kept} "
                    "relations kept; stopped at the end of the box")
    assert 1 < steps < hits // mixing.FIRST_ROWS
    verdict, (line,) = relation_scan_log(caplog, angles, [1, 0, 1, 0], "integer", bound=3)
    assert verdict.status == VIOLATED and line.endswith("stopped at an odd relation")
    # one row per window: k4's angle at the cap, in batches, locates every
    # head and no row
    verdict, (line,) = relation_scan_log(caplog, [2.0], [0], "integer", bound=60_000)
    assert line.startswith("relation scan (integer, d=1, bound 60000 of 60000 requested): "
                           "60001 heads, 0 windows, 0 candidates in 0 steps")


@pytest.mark.parametrize("mode, turn", [("integer", 0), ("real", 0), ("integer", 1)])
@pytest.mark.parametrize("bits", [(0, 0, 0), (0, 0, 1), (1, 1, 0)])
def test_a_step_with_some_hits_keeps_exactly_its_hits(mode, turn, bits, caplog):
    """Angles (1, 1 + 1.04e-9, 2): the near relations (a, +-1, c) miss by
    1.04e-9 > tau_rel but fall inside the window, tau_rel plus its margin,
    so they share the scan's one step with the exact (2, 0, -1) and its
    non-primitive multiples. The step keeps the hits alone, with the parity
    and the gcd of each hit's own head and, with theta_3 a turn larger, of
    its own l_0 = -l_3."""
    angles = [1.0, 1.0 + 1.04e-9, 2.0 + 2 * np.pi * turn]
    verdict, (line,) = relation_scan_log(caplog, angles, bits, mode, bound=20)
    assert scan_result(verdict) == block_relation_scan(angles, bits, mode, 20)
    candidates, steps, hits = map(int, re.search(r"(\d+) candidates in (\d+) steps, (\d+) hits",
                                                 line).groups())
    assert steps == 1 and 0 < hits < candidates, line
    if bits[2]:
        assert verdict.status == VIOLATED and verdict.violating[:3] == (2, 0, -1)
    else:
        assert verdict.relations[:, :3].tolist() == [[2, 0, -1]]


#: grid points the dense oracle evaluates at once, which bounds its memory
ORACLE_BLOCK = 2**16


def dense_refine(angles, sigmas, t0, val0, radius, horizon):
    """The refinement of ``mixing._refine_real_time`` on the oracle's
    deficit: three zooms on 201 points; only a smaller deficit moves t0."""
    lo, hi = max(t0 - radius, 0.0), min(t0 + radius, horizon)
    best_t, best_val = t0, val0
    for _ in range(3):
        ts = np.linspace(lo, hi, 201)
        vals = dense_phase_alignment_deficit(angles, sigmas, ts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_t, best_val = float(ts[i]), float(vals[i])
        span = (hi - lo) / 50.0
        lo, hi = max(best_t - span, 0.0), min(best_t + span, horizon)
    return best_t, best_val


def fixed_misalignment(indices, grid):
    """max_r dist(i steps_r + halves_r, 2^64 Z) at each uint64 grid index i,
    with the steps and halves of ``mixing._fixed_grid``: the position
    modulo 2^64 and its negation, the nearer way round, in wrapping uint64
    arithmetic."""
    worst = np.zeros(len(indices), dtype=np.uint64)
    for step, half in zip(grid.steps, grid.halves):
        x = indices * np.uint64(step) + np.uint64(half)
        np.maximum(worst, np.minimum(x, np.uint64(0) - x), out=worst)
    return worst


def dense_time_search(angles, sigmas, epsilon, mode, budget, t_max, least="fixed"):
    """The time search as one dense pass with d sines per grid point, in
    blocks of ORACLE_BLOCK points made from their indices: the first point
    below epsilon, else the first point of least misalignment in the
    fixed-point turns of ``mixing._fixed_grid`` (``least="fixed"``, t = 0
    included, a horizon-clamped last point decided after the rest on its
    deficit) or of least deficit (``least="float"``, which picks the same
    point where no two points tie up to rounding). Sigmas count mod 2,
    and all-even ones align at t = 0. Integer mode scans t = 1..budget,
    the budget cut to MAX_GRID_POINTS. Real mode scans i step,
    i = 0, 1, .., clamped to the horizon t_max (by default
    T_MAX_FACTOR / min theta), with step epsilon / (4 max theta), or
    horizon / MAX_GRID_POINTS when that grid would have more than
    MAX_GRID_POINTS points; then it refines."""
    angles, sigmas = np.asarray(angles, float), np.asarray(sigmas) % 2
    if not sigmas.any():
        return TimeSearchResult(success=True, t=0.0, deficit=0.0, mode=mode)
    if mode == "integer":
        first, total, step, t_max = 1, min(budget, mixing.MAX_GRID_POINTS) + 1, 1.0, budget
    else:
        if t_max is None:
            t_max = mixing.T_MAX_FACTOR / float(angles.min())
        step = epsilon / (4.0 * float(angles.max()))
        first, total = 0, int(np.ceil(t_max / step)) + 1
        if total > mixing.MAX_GRID_POINTS:
            step, total = t_max / mixing.MAX_GRID_POINTS, mixing.MAX_GRID_POINTS + 1
    clamped = (total - 1) * step > t_max
    grid = mixing._fixed_grid(angles / (2.0 * np.pi), sigmas, step)
    best_i, best_w = 0, int(fixed_misalignment(np.zeros(1, dtype=np.uint64), grid)[0])
    best_t, best_val = 0.0, dense_phase_alignment_deficit(angles, sigmas, 0.0)
    hit = None
    for lo in range(first, total, ORACLE_BLOCK):
        indices = np.arange(lo, min(lo + ORACLE_BLOCK, total), dtype=np.uint64)
        block = indices.astype(float)
        if mode == "real":
            block = np.minimum(block * step, t_max)
        vals = dense_phase_alignment_deficit(angles, sigmas, block)
        hits = np.flatnonzero(vals < epsilon)
        if hits.size:
            hit = float(block[hits[0]]), float(vals[hits[0]])
            break
        if least == "float":
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_t, best_val = float(block[j]), float(vals[j])
            continue
        if clamped and indices[-1] == total - 1:
            indices = indices[:-1]
        worst = fixed_misalignment(indices, grid)
        j = int(np.argmin(worst)) if worst.size else None
        if j is not None and worst[j] < best_w:
            best_i, best_w = int(indices[j]), int(worst[j])
    if hit is not None:
        best_t, best_val = hit
    elif least == "fixed":
        best_t = float(best_i) * step
        best_val = dense_phase_alignment_deficit(angles, sigmas, best_t)
        if clamped and (val := dense_phase_alignment_deficit(angles, sigmas, t_max)) < best_val:
            best_t, best_val = t_max, val
    if mode == "real":
        best_t, best_val = dense_refine(angles, sigmas, best_t, best_val, step, t_max)
    return TimeSearchResult(
        success=best_val < epsilon, t=best_t, deficit=best_val, mode=mode
    )


def test_odd_sigmas_past_2_to_the_53_stay_odd():
    """Sigmas count mod 2, read exactly: 2^53 + 1 is odd, though float64
    reads it as 2^53, and -1 and 3 are the bits 1 and 1."""
    angles = [1.0, 2.0]
    got = time_search(angles, [2**53 + 1, 0], 0.1, "real")
    assert got == time_search(angles, [1, 0], 0.1, "real")
    assert got.success and abs(got.t - 3.113) < 1e-3
    assert got == dense_time_search(angles, [2**53 + 1, 0], 0.1, "real", 0, None)
    for mode in ("integer", "real"):
        got = time_search(angles, [-1, 3], 0.1, mode, budget=1000)
        assert got == time_search(angles, [1, 1], 0.1, mode, budget=1000)
        assert got == dense_time_search(angles, [-1, 3], 0.1, mode, 1000, None)


@pytest.mark.parametrize("mode", ["integer", "real"])
def test_even_sigmas_align_at_t_0(mode):
    """Sigmas (2, 0) are the bits (0, 0), which align at t = 0, in integer
    mode too, where the scan itself starts at t = 1."""
    got = time_search([1.0, 2.0], [2, 0], 0.1, mode)
    assert got == TimeSearchResult(success=True, t=0.0, deficit=0.0, mode=mode)
    assert got == dense_time_search([1.0, 2.0], [2, 0], 0.1, mode, mixing.INTEGER_BUDGET, None)


@pytest.mark.parametrize("d", range(1, 13))
def test_phase_alignment_deficit_is_the_dense_form_bit_for_bit(d):
    """The class-first layout takes the same elementwise steps as the
    (..., d) oracle, so scalar, 1-D and 2-D times give the same bits."""
    rng = np.random.default_rng(300 + d)
    angles, sigmas = rng.uniform(0.01, 3.1, d), rng.integers(-3, 4, d)
    times = [0.0, 7, float(rng.uniform(0.0, 1e6)), np.arange(0.0, 1e6, 4999.0),
             rng.uniform(0.0, 1e6, 1000), rng.uniform(0.0, 1e6, (17, 31)),
             np.arange(20.0).reshape(4, 5) * 50_000.0]
    for t in times:
        got = mixing.phase_alignment_deficit(angles, sigmas, t)
        want = dense_phase_alignment_deficit(angles, sigmas, t)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) == np.shape(t)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), t


@settings(deadline=None, max_examples=60)
@given(
    angles=st.lists(st.floats(0.05, 3.1), min_size=2, max_size=6),
    bits=st.lists(st.integers(0, 1), min_size=6, max_size=6),
    epsilon=st.floats(0.01, 0.5),
    mode=st.sampled_from(["integer", "real"]),
    budget=st.integers(0, 3000),
    t_max=st.floats(0.5, 60.0),
    first=st.sampled_from([1, 5, 1024]),
)
def test_time_search_matches_dense_grid(angles, bits, epsilon, mode, budget, t_max, first):
    """Random angles have no ties, so the float form's first point of least
    deficit is the fixed-point turns' first point of least misalignment,
    and both oracles give the search's result."""
    sigmas = bits[: len(angles)]
    want = dense_time_search(angles, sigmas, epsilon, mode, budget, t_max)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mixing, "FIRST_CHUNK", first)
        got = time_search(angles, sigmas, epsilon, mode, budget=budget, t_max=t_max)
    if any(sigmas):
        assert got == want
        assert got == dense_time_search(angles, sigmas, epsilon, mode, budget, t_max, "float")
    else:
        assert got == TimeSearchResult(success=True, t=0.0, deficit=0.0, mode=mode)


def test_search_results_do_not_depend_on_block_or_chunk_sizes(monkeypatch):
    """Scan verdicts and search results are the same at any SCAN_ROWS and
    FIRST_CHUNK. At SCAN_ROWS = 1 every batch holds one head and every step
    one head's candidates."""
    rng = np.random.default_rng(3)
    scans = [(cycle_angles(c, (c - 1) // 2), rng.integers(0, 2, (c - 1) // 2), mode, 6)
             for c in (9, 13) for mode in ("integer", "real")]
    scans += [(cycle_angles(9, 4), np.zeros(4, int), mode, 6) for mode in ("integer", "real")]
    scans += [(cycle_angles(13, 6), np.zeros(6, int), mode, 2) for mode in ("integer", "real")]
    searches = [(cycle_angles(9, 4), [1, 0, 0, 0], 0.1, "integer", {}),
                (cycle_angles(9, 4), [1, 0, 1, 0], 0.01, "real", {}),
                (cycle_angles(13, 6), [1, 1, 0, 0, 0, 0], 0.1, "real", {"t_max": 300.0}),
                ([0.7, 1.9, 2.3], [1, 0, 1], 0.05, "integer", {"budget": 50_000}),
                ([0.7, 1.9, 2.3], [1, 0, 1], 0.02, "real", {"t_max": 500.0}),
                (cycle_angles(9, 4), [1, 1, 0, 1], 0.1, "integer", {}),
                (cycle_angles(9, 4), [1, 0, 1, 0], 0.1, "integer", {})]

    def run():
        verdicts = [mixing._relation_scan(a, s, m, bound=b) for a, s, m, b in scans]
        results = [time_search(a, s, e, m, **kw) for a, s, e, m, kw in searches]
        return [(scan_result(v), v.bound, v.requested_bound) for v in verdicts], results

    reference = run()
    for rows, first in [(1, 1), (7, 3), (300, 5), (300, 10**6)]:
        monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
        monkeypatch.setattr(mixing, "FIRST_CHUNK", first)
        assert run() == reference, (rows, first)


def scan_calls(monkeypatch):
    """Patch the relation scan to record the targets of every batch of
    heads it locates, and (rows, hits at TAU_REL) of every set of candidate
    columns it hands to the exact residual, the columns stacked into rows."""
    located, decided = [], []
    locate, residuals = mixing._locate, mixing._relation_residuals

    def counted_locate(lower, upper, targets, rows):
        located.append(targets.copy())
        return locate(lower, upper, targets, rows)

    def counted_residuals(columns, angles, integer):
        resid, l0 = residuals(columns, angles, integer)
        decided.append((np.column_stack(columns), int((resid <= mixing.TAU_REL).sum())))
        return resid, l0

    monkeypatch.setattr(mixing, "_locate", counted_locate)
    monkeypatch.setattr(mixing, "_relation_residuals", counted_residuals)
    return located, decided


@pytest.mark.parametrize("c, bound", [(9, 20), (13, 20), (7, 3)])
def test_relation_scan_hands_each_half_box_row_over_once(c, bound, monkeypatch):
    """Each canonical head (first nonzero entry positive, or all zero) of
    the leading d - d // 2 coordinates is located exactly once, in batches
    of at most SCAN_ROWS heads. The rows handed to the exact residual come
    first in a small step, at most FIRST_ROWS rows and one head's run over,
    and are canonical and strictly increasing in lexicographic order, so no
    row is decided twice."""
    located, decided = scan_calls(monkeypatch)
    d = (c - 1) // 2
    angles = cycle_angles(c, d)
    verdict = mixing._relation_scan(angles, np.zeros(d, int), "real", bound=bound)
    assert verdict.status != VIOLATED
    outer = d - d // 2
    heads = [h for h in itertools.product(range(-verdict.bound, verdict.bound + 1), repeat=outer)
             if next((x for x in h if x), 0) >= 0]
    assert all(len(targets) <= mixing.SCAN_ROWS for targets in located)
    targets = np.concatenate(located)
    assert len(targets) == len(heads)
    want = sorted(float(np.dot(h, angles[:outer])) for h in heads)
    assert np.sort(targets) == pytest.approx(want, abs=1e-12)
    assert len(decided[0][0]) <= mixing.FIRST_ROWS + (2 * verdict.bound + 1) ** (d // 2)
    rows = np.concatenate([block for block, _ in decided])
    assert (rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)] > 0).all()
    as_tuples = list(map(tuple, rows.tolist()))
    assert all(a < b for a, b in zip(as_tuples, as_tuples[1:]))


def cycle_relation_rows(c, d, bound, mode):
    """Rows of the canonical half box that are relations of the cycle:c
    angles, counted from the distribution of sum l_j j: each coordinate's
    values l_j j are convolved in, then half the nonzero relation rows are
    canonical."""
    counts = np.ones(1, dtype=np.int64)
    for j in range(1, d + 1):
        values = np.zeros(2 * bound * j + 1, dtype=np.int64)
        values[::j] = 1
        counts = np.convolve(counts, values)
    totals = np.arange(len(counts)) - (len(counts) - 1) // 2
    relation = totals % c == 0 if mode == "integer" else totals == 0
    return (int(counts[relation].sum()) - 1) // 2


@pytest.mark.parametrize("mode", ["integer", "real"])
@pytest.mark.parametrize("c, bound", [(9, 20), (13, 6)])
def test_clean_scan_passes_only_its_hits_to_the_exact_residual(c, bound, mode, monkeypatch):
    """On a clean cycle scan the windows around the heads take in the
    relation rows and, within a handful, nothing else, so almost no row is
    built for the exact residual in vain."""
    _, decided = scan_calls(monkeypatch)
    d = (c - 1) // 2
    verdict = mixing._relation_scan(cycle_angles(c, d), np.zeros(d, int), mode, bound=bound)
    assert verdict.status == HOLDS
    hits = sum(found for _, found in decided)
    assert hits == cycle_relation_rows(c, d, bound, mode)
    assert sum(len(block) for block, _ in decided) <= hits + 4


def sine_calls(monkeypatch):
    """Patch the time search to record the number of sines of every call
    that takes them, and the number of times of every call of the exact
    form."""
    sines, exact = [], []
    half_sines, deficit = mixing._half_sines, mixing.phase_alignment_deficit

    def counted_sines(phases):
        sines.append(phases.size)
        return half_sines(phases)

    def counted_deficit(angles, sigmas, t):
        exact.append(np.size(t))
        return deficit(angles, sigmas, t)

    monkeypatch.setattr(mixing, "_half_sines", counted_sines)
    monkeypatch.setattr(mixing, "phase_alignment_deficit", counted_deficit)
    return sines, exact


def test_failing_real_search_confirms_few_grid_points(monkeypatch):
    sines, _ = sine_calls(monkeypatch)
    angles = cycle_angles(17, 8)
    result = time_search(angles, [1, 0, 0, 0, 0, 0, 0, 0], 0.1, "real")
    assert not result.success
    step = 0.1 / (4.0 * angles.max())
    points = math.ceil(mixing.T_MAX_FACTOR / angles.min() / step) + 1
    assert points > 10**6
    assert sum(sines) < points / 100


@pytest.mark.parametrize("bits, budget", [("1111", 20_000), ("1101", 10**6), ("1010", 10**6)])
def test_tied_points_take_no_sine(bits, budget, monkeypatch):
    """A failing integer cycle:9 search ties, up to rounding, at thousands
    of points of its periodic orbit (over 100,000 at the benchmark's
    budget of 10^6). The failure is decided in fixed-point turns, so the
    only sines are the d = 4 of one exact form, at the reported point. The
    result is the dense grid's."""
    sines, exact = sine_calls(monkeypatch)
    angles, bits = cycle_angles(9, 4), [int(b) for b in bits]
    result = time_search(angles, bits, 0.1, "integer", budget=budget)
    assert not result.success
    assert exact == [1] and sines == [4]
    assert result == dense_time_search(angles, bits, 0.1, "integer", budget, None)


def violated_bits(rng, d, mode):
    while lattice_parity_holds((bits := rng.integers(0, 2, d)).tolist(), mode):
        pass
    return bits


@functools.lru_cache(maxsize=None)
def tie_shapes(c):
    """The time-search shapes of the benchmark on cycle:c: violated bits in
    both modes at epsilon 0.1, alternating bits in real mode at 0.01 and
    0.003, on a budget of 20,000 or t_max 300, each with the dense grid's
    answer."""
    d = (c - 1) // 2
    rng = np.random.default_rng(c)
    alternating = np.arange(1, d + 1) % 2
    shapes = [(violated_bits(rng, d, "integer"), 0.1, "integer"),
              (violated_bits(rng, d, "real"), 0.1, "real"),
              (alternating, 0.01, "real"), (alternating, 0.003, "real")]
    return [(bits, epsilon, mode,
             dense_time_search(cycle_angles(c, d), bits, epsilon, mode, 20_000, 300.0))
            for bits, epsilon, mode in shapes]


@pytest.mark.parametrize("first", [1, 5, 1024])
@pytest.mark.parametrize("c", [9, 13, 17])
def test_cycle_searches_full_of_exact_ties_match_the_dense_grid(c, first, monkeypatch):
    """Periodic cycle orbits tie at thousands of grid points, and the
    rounding of the fixed-point steps decides which is the first of least:
    a point ranked by anything else, or a chunk that lost it, would show
    here as another t or deficit."""
    monkeypatch.setattr(mixing, "FIRST_CHUNK", first)
    angles = cycle_angles(c, (c - 1) // 2)
    for bits, epsilon, mode, want in tie_shapes(c):
        got = time_search(angles, bits, epsilon, mode, budget=20_000, t_max=300.0)
        assert got == want, (bits, epsilon, mode)


@pytest.mark.parametrize("bits", ["1101", "1111"])
def test_integer_cycle_search_at_the_benchmark_budget_matches_the_dense_grid(bits):
    """A failing integer cycle:9 search over the benchmark's 10^6 steps:
    the phases reach 3e6, where the exact and screened forms part by the
    most, and ties of the least deficit run through the whole orbit."""
    angles, bits = cycle_angles(9, 4), [int(b) for b in bits]
    want = dense_time_search(angles, bits, 0.1, "integer", 10**6, None)
    got = time_search(angles, bits, 0.1, "integer", budget=10**6)
    assert got == want
    assert_within_margins_of_the_float_least(got, angles, bits, 10**6)


def assert_within_margins_of_the_float_least(got, angles, bits, budget):
    """A failing integer search at epsilon 0.1: its deficit is at least the
    float form's least over its grid and exceeds it by less than 2 pi
    margins, the margin at its last point; t = 0 is the float least
    nowhere here."""
    floats = dense_time_search(angles, bits, 0.1, "integer", budget, None, "float")
    assert not got.success and not floats.success and floats.t > 0
    margin = 1e-12 * (1.0 + budget * float(np.max(angles)) + np.pi)
    assert 0.0 <= got.deficit - floats.deficit < 2.0 * np.pi * margin


@pytest.mark.parametrize("c", [9, 13, 17])
def test_tied_failures_are_within_margins_of_the_float_least(c):
    """The fixed-point turns and the float form may rank the tied points of
    a failing integer cycle search differently; the deficits of their
    choices differ by less than 2 pi margins."""
    angles = cycle_angles(c, (c - 1) // 2)
    (bits, epsilon, mode, want), = [shape for shape in tie_shapes(c) if shape[2] == "integer"]
    got = time_search(angles, bits, epsilon, mode, budget=20_000)
    assert got == want
    assert_within_margins_of_the_float_least(got, angles, bits, 20_000)


@pytest.mark.parametrize("epsilon", [1e-3, 1e-4])
def test_complement_rook_4_integer_searches_match_both_oracles(epsilon):
    """The benchmark's tight integer searches on complement:rook:4 fail over
    the whole budget of 10^6 without ties, so the float form's least and
    the fixed-point turns' least are the same point."""
    g = resolve_builtin("complement:rook:4")
    dec = srg_decomposition(g)
    (cert,) = mixing.hadamard_search(dec)
    angles, bits = dec.angles[1:], cert.pattern.sigmas
    got = time_search(angles, bits, epsilon, "integer")
    assert not got.success
    assert got == dense_time_search(angles, bits, epsilon, "integer", mixing.INTEGER_BUDGET, None)
    assert got == dense_time_search(
        angles, bits, epsilon, "integer", mixing.INTEGER_BUDGET, None, "float"
    )


def fixed_point_cases():
    """(angles, sigmas, step, grid indices) with the indices up to
    MAX_GRID_POINTS: random angles on real-mode and integer grids, turns per
    step below 2^-11 (where the fixed-point step is rounded), and a
    subnormal angle."""
    rng = np.random.default_rng(29)
    top = mixing.MAX_GRID_POINTS
    indices = np.concatenate([rng.integers(0, top + 1, 4000), [0, 1, top - 1, top]])
    cases = []
    for _ in range(6):
        angles = rng.uniform(0.05, 3.1, 5)
        cases.append((angles, rng.integers(0, 2, 5), 0.1 / (4.0 * angles.max()), indices))
        cases.append((angles, rng.integers(-3, 4, 5), 1.0, indices))
    slow = np.array([2.0 * np.pi * 2.0**-12, 1e-4, 1e-9, 3e-7, 1.7])
    cases.append((slow, np.array([1, 0, 1, 1, 0]), 1.0, indices))
    cases.append((slow, np.array([0, 1, 1, 0, 1]), 0.013, indices))
    cases.append((np.array([5e-324, 2.9]), np.array([1, 1]), 1.0, indices))
    return cases


def test_fixed_point_screen_is_within_the_margin_of_the_float_misalignment():
    """The screened misalignment of every class, in fixed-point turns, against
    the misalignment of the phase the exact form takes, in floats: within
    i 2^-65 plus the rounding of the float forms, and so within a third of
    the margin the time search allows it."""
    for angles, sigmas, step, indices in fixed_point_cases():
        turns = angles / (2.0 * np.pi)
        grid = mixing._fixed_grid(turns, sigmas, step)
        points = indices.astype(np.uint64)
        ts = points * step
        margin = 1e-12 * (1.0 + ts.max() * angles.max() + np.pi * np.abs(sigmas).max())
        for r in range(len(angles)):
            screened = mixing._distance(points, grid.steps[r], grid.halves[r])
            s = np.ldexp(screened.astype(float), -64)
            x = (ts * angles[r] + np.pi * sigmas[r]) / (2.0 * np.pi)
            w = np.abs(x - np.rint(x))
            error = np.abs(s - w)
            assert (error <= ts / step * 2.0**-65 + 1e-15 * (1.0 + np.abs(x))).all(), r
            assert (error <= margin / 3.0).all(), r


def test_fixed_point_steps_are_exact_from_a_turn_of_2_to_the_minus_12():
    """A turn per step of at least 2^-12 has its last bit at 2^-64 or above,
    so the fixed-point step is exact; below, it is rounded to the nearest
    2^-64."""
    for x in (0.5, 0.1, 2.0**-12, 2.0**-12 + 2.0**-64, 1.0 - 2.0**-53, 3.25):
        grid = mixing._fixed_grid(np.array([x]), np.array([0]), 1.0)
        assert int(grid.steps[0]) == math.ldexp(x % 1.0, 64)
    for x in (2.0**-13 + 2.0**-66, 1e-9, 5e-324):
        grid = mixing._fixed_grid(np.array([x]), np.array([1]), 1.0)
        assert abs(int(grid.steps[0]) - math.ldexp(x, 64)) <= 0.5
        assert grid.halves == (mixing.HALF_TURN,)


def test_half_a_turn_reads_half_a_turn():
    """-2^63 as int64 negates to itself; as uint64 it is 2^63, the largest
    distance there is."""
    points = np.array([0, 1, 2, 3], dtype=np.uint64)
    got = mixing._distance(points, np.uint64(mixing.HALF_TURN), 0)
    assert got.tolist() == [0, 2**63, 0, 2**63]
    got = mixing._distance(points, np.uint64(2**62), mixing.HALF_TURN)
    assert got.tolist() == [2**63, 2**62, 0, 2**62]


def assert_block_screen_matches_the_points(grid, lo, n, close, reach, size, stride, case):
    """The closed-form block screen against the point-by-point screen
    (``fixed_misalignment``) on [lo, lo + n): the same points within close,
    ascending, and the same first point of least misalignment when that
    least is within reach, with the same misalignments, and nothing else."""
    points = np.arange(lo, lo + n, dtype=np.uint64)
    worst = fixed_misalignment(points, grid)
    keep = worst <= close
    if worst.min() <= reach:
        keep[int(np.argmin(worst))] = True
    tally = dict.fromkeys(("blocks", "pruned", "block"), 0)
    got, got_worst = mixing._block_screen(lo, n, grid, close, reach, size, stride, tally)
    assert got.tolist() == points[keep].tolist(), case
    assert got_worst.tolist() == worst[keep].tolist(), case
    assert 0 <= tally["pruned"] <= tally["blocks"] <= n, case


def pick(rng, options):
    """One of ``options`` at random, as it is: Python ints past int64 too."""
    return options[int(rng.integers(0, len(options)))]


def moving_steps(rng, stride, kind):
    """A fixed-point step whose move along ``stride`` is of the given kind:
    any, none (0), one unit, or within 2^20 units of half a turn; the last
    two need an odd stride, whose inverse modulo 2^64 they use."""
    turn = 1 << 64
    if kind == "none":
        return int(rng.integers(0, stride)) * turn // stride if stride & (stride - 1) == 0 else 0
    if kind in ("unit", "half") and stride % 2:
        move = 1 if kind == "unit" else mixing.HALF_TURN - int(rng.integers(0, 1 << 20))
        return pick(rng, [-1, 1]) * move * pow(stride, -1, turn) % turn
    return int(rng.integers(0, turn, dtype=np.uint64))


def test_closed_form_block_screen_matches_the_points():
    """Seeded cases against the point-by-point screen: strides from 1 to
    MAX_STRIDE; classes that move along the stride by any amount, not at
    all, by one unit or by nearly half a turn; reaches from close to half
    a turn; the largest blocks the reach allows, or smaller; and blocks
    whose centre sits exactly at the pruning bound, so that their far end
    reaches the half turn."""
    rng = np.random.default_rng(47)
    kinds = ["any", "none", "unit", "half"]
    for case in range(400):
        d = int(rng.integers(1, 7))
        stride = pick(rng, [1, mixing.MAX_STRIDE, int(rng.integers(2, 64)) | 1,
                            int(rng.integers(2, mixing.MAX_STRIDE + 1))])
        steps = [moving_steps(rng, stride, pick(rng, kinds)) for _ in range(d)]
        grid = mixing._FixedGrid(1.0, tuple(steps), (0,) * d)
        fastest = max(grid.moves(stride))
        size = pick(rng, [1, 2, 3, int(rng.integers(1, 300)), 1 << 62])
        size = min(size, mixing.HALF_TURN // max(fastest, 1))
        room = mixing.HALF_TURN - size * fastest
        reach = pick(rng, [room, 0, int(rng.integers(0, room + 1, dtype=np.uint64))])
        close = pick(rng, [reach, 0, int(rng.integers(0, reach + 1, dtype=np.uint64))])
        n = int(rng.integers(1, 3000))
        lo = int(rng.integers(0, mixing.MAX_GRID_POINTS))
        h = min(size, -(-n // stride)) // 2
        centre = lo + h * stride
        bounds = [reach + h * move for move in grid.moves(stride)]
        halves = [int(rng.integers(0, 1 << 64, dtype=np.uint64)) for _ in range(d)]
        if case % 2:
            halves = [(pick(rng, [-1, 1]) * bound - centre * step) % (1 << 64)
                      for bound, step in zip(bounds, steps)]
        grid = grid._replace(halves=tuple(halves))
        assert size * fastest <= mixing.HALF_TURN - reach, case
        assert_block_screen_matches_the_points(grid, lo, n, close, reach, size, stride, case)


def test_block_screen_matches_the_points_on_real_and_integer_grids():
    """Random angles on integer grids and real grids of the kind the search
    scans, at stride 1 and along the stride of ``_stride``, at the largest
    block the reach allows, on chunks of up to 5000 points."""
    rng = np.random.default_rng(31)
    for case in range(200):
        d = int(rng.integers(1, 7))
        angles = rng.uniform(0.01, 3.1, d)
        step = float(rng.choice([1.0, 0.1 / (4.0 * angles.max()), 1e-4]))
        grid = mixing._fixed_grid(angles / (2.0 * np.pi), rng.integers(0, 2, d), step)
        lo, n = int(rng.integers(0, 10**7)), int(rng.integers(1, 5000))
        stride = int(rng.choice([1, mixing._stride(grid)]))
        worst = fixed_misalignment(np.arange(lo, lo + n, dtype=np.uint64), grid)
        reach = int(rng.choice([0, int(worst.min()), int(np.median(worst)),
                                int(rng.integers(0, mixing.HALF_TURN))]))
        close = int(rng.choice([0, reach, int(rng.integers(0, reach + 1))]))
        size = mixing._block_size(grid.moves(stride), reach)
        if size:
            assert_block_screen_matches_the_points(grid, lo, n, close, reach, size, stride, case)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("cross", [-3000, -40, 0, 700, 2500, 5000])
def test_a_class_that_stands_still_is_a_floor_under_the_least(stride, cross):
    """A class that does not move along the stride keeps every point at
    least 2^57 units out; a moving class comes within that of an integer
    512 strides either side of where it crosses one. The first point of
    least misalignment is where that plateau begins, not where the moving
    class crosses, in the middle of a block, at its edge or past the
    chunk."""
    lo, n, move, floor = 1000, 6000 * stride, 1 << 48, 1 << 57
    centre = lo + (3000 + cross) * stride
    step = move * pow(stride, -1, 1 << 64) % (1 << 64)
    grid = mixing._FixedGrid(1.0, (0, step), (floor, -centre * step % (1 << 64)))
    for size in (1000, 4096, 6000):
        reach = mixing._fixed_width(0.4)
        assert mixing._block_size(grid.moves(stride), reach) >= size
        assert_block_screen_matches_the_points(grid, lo, n, 0, reach, size, stride, size)
        assert_block_screen_matches_the_points(grid, lo, n, floor, reach, size, stride, size)


@pytest.mark.parametrize("c", range(5, 24))
def test_block_screen_matches_the_points_along_cycles(c):
    """The integer grids of the cycle angles 2 pi j / c, where every class
    comes back to within 2^-50 of a turn after c steps, so the stride
    chosen is c, and a block of a residue can hold all of it: along c, 2c
    and c + 1, on chunks whose length is a multiple of the stride, one
    point off it, or random."""
    rng = np.random.default_rng(c)
    d = (c - 1) // 2
    for case in range(12):
        grid = mixing._fixed_grid(cycle_angles(c, d) / (2.0 * np.pi), rng.integers(0, 2, d), 1.0)
        assert mixing._stride(grid) == c
        stride = [c, 2 * c, c + 1][case % 3]
        k = int(rng.integers(1, 200))
        n = [k * stride, k * stride + 1, k * stride - 1, int(rng.integers(1, 5000))][case % 4]
        lo = int(rng.integers(0, mixing.MAX_GRID_POINTS))
        worst = fixed_misalignment(np.arange(lo, lo + n, dtype=np.uint64), grid)
        reach = pick(rng, [int(worst.min()), int(np.median(worst)), mixing._fixed_width(0.4)])
        close = int(rng.choice([0, reach, int(worst.min())]))
        size = mixing._block_size(grid.moves(stride), reach)
        if size:
            assert_block_screen_matches_the_points(grid, lo, n, close, reach, size, stride, case)


def dense_prefix() -> int:
    """Points of the doubling chunks from FIRST_CHUNK up to BLOCK_CHUNK: the
    prefix of a grid that is screened at every point."""
    size, total = mixing.FIRST_CHUNK, 0
    while size < mixing.BLOCK_CHUNK:
        total, size = total + size, 2 * size
    return total


def screened_chunks(monkeypatch):
    """Patch the time search to record (screen, lo, n) for every chunk, in
    order: "blocks" for a chunk pruned by blocks of consecutive points,
    "stride L" for one pruned by blocks along the stride L > 1, "dense" for
    one screened at every point."""
    calls = []
    blocks, dense = mixing._block_screen, mixing._misalignment

    def counted_blocks(lo, n, grid, close, reach, size, stride, tally):
        calls.append(("blocks" if stride == 1 else f"stride {stride}", lo, n))
        return blocks(lo, n, grid, close, reach, size, stride, tally)

    def counted_dense(points, *args):
        calls.append(("dense", int(points[0]), len(points)))
        return dense(points, *args)

    monkeypatch.setattr(mixing, "_block_screen", counted_blocks)
    monkeypatch.setattr(mixing, "_misalignment", counted_dense)
    return calls


@pytest.mark.parametrize("c, bits", [(13, "001000"), (17, "00010000"), (17, "01010101")])
def test_wide_bound_chunks_are_pruned_by_blocks_and_match_the_dense_grid(c, bits, monkeypatch):
    """Failing real cycle searches whose best misalignment stays between
    0.3 and 1/2 (1/3, 1/3 and 7/18 over [0, 1500]): every chunk of
    BLOCK_CHUNK points or more is pruned by blocks, and the answer is the
    dense grid's."""
    calls = screened_chunks(monkeypatch)
    angles, bits = cycle_angles(c, len(bits)), [int(b) for b in bits]
    want = dense_time_search(angles, bits, 0.1, "real", 0, 1500.0)
    got = time_search(angles, bits, 0.1, "real", t_max=1500.0)
    assert got == want and not got.success
    blocks = [n for route, _, n in calls if route == "blocks"]
    assert blocks and min(blocks) >= mixing.BLOCK_CHUNK
    assert not [n for route, _, n in calls if route == "dense" and n >= mixing.BLOCK_CHUNK]


def test_large_chunks_are_pruned_by_blocks_under_a_narrow_bound(monkeypatch):
    """Angles 11 pi / 25 and 20 pi / 25 with bits (1, 0) align exactly at
    t = 25, some 63,000 grid points in at epsilon 0.004. Their bound falls
    below 0.1 of a turn within the chunks screened at every point, and the
    grid past them, 57,000 points, is one chunk pruned by blocks: chunks
    are sized in blocks, and FIRST_BLOCKS blocks of this bound hold it all.
    The answer is the dense grid's."""
    reaches = []
    blocks = mixing._block_screen

    def recorded(lo, n, grid, close, reach, size, stride, tally):
        reaches.append((lo, n, reach, size))
        return blocks(lo, n, grid, close, reach, size, stride, tally)

    angles, sigmas = [11 * np.pi / 25, 20 * np.pi / 25], [1, 0]
    want = dense_time_search(angles, sigmas, 0.004, "real", 0, 25.5)
    got = time_search(angles, sigmas, 0.004, "real", t_max=25.5)
    assert got == want and got.success and abs(got.t - 25.0) < 0.01
    monkeypatch.setattr(mixing, "_block_screen", recorded)
    assert real_grid_scan(angles, sigmas, 0.004, 25.5)[2]
    (lo, n, reach, size), = reaches
    step = 0.004 / (4.0 * max(angles))
    assert lo == dense_prefix() and lo + n == math.floor(25.5 / step) + 1
    assert mixing.BLOCK_CHUNK <= n < mixing.FIRST_BLOCKS * size
    assert reach < mixing._fixed_width(0.1)


def test_default_horizon_hit_on_a_coarsened_grid_matches_the_dense_grid():
    """cycle:9 with bits (1, 0, 1, 0) at epsilon 0.003 over the default
    horizon: the fine grid would pass MAX_GRID_POINTS, so both searches
    coarsen it to MAX_GRID_POINTS + 1 points, and the hit near t = 4.4994
    is the dense grid's."""
    angles, bits = cycle_angles(9, 4), [1, 0, 1, 0]
    horizon, step, points = mixing._real_grid(angles, 0.003, None)
    assert points == mixing.MAX_GRID_POINTS + 1
    assert step == horizon / mixing.MAX_GRID_POINTS > 0.003 / (4.0 * angles.max())
    want = dense_time_search(angles, bits, 0.003, "real", 0, None)
    got = time_search(angles, bits, 0.003, "real")
    assert got == want and got.success and abs(got.t - 4.4994) < 1e-3


@pytest.mark.parametrize("c", [13, 17])
def test_benchmark_failing_real_searches_match_the_dense_grid(c):
    """The benchmark's failing real searches: violated sign bits at epsilon
    0.1 over the default horizon T_MAX_FACTOR / min theta, 2.4 and 3.2
    million grid points, against the dense grid, with best misalignments
    on both sides of 0.3 of a turn."""
    d = (c - 1) // 2
    angles = cycle_angles(c, d)
    horizon = mixing.T_MAX_FACTOR / angles.min()
    patterns = {13: ["001000", "001011"], 17: ["00010000", "00000110"]}[c]
    widths = []
    for bits in patterns:
        bits = [int(b) for b in bits]
        assert not lattice_parity_holds(bits, "real")
        want = dense_time_search(angles, bits, 0.1, "real", 0, horizon)
        got = time_search(angles, bits, 0.1, "real")
        assert got == want and not got.success, bits
        widths.append(math.asin(got.deficit / 2.0) / math.pi)
    assert min(widths) < 0.3 < max(widths)


def real_grid_scan(angles, sigmas, epsilon, t_max):
    """The grid scan of a real time search called directly, on the grid of
    ``mixing._real_grid``, without the crossing route: (t, deficit, hit)
    before refinement. A real search takes its first success by crossings,
    so this is how a test reaches the grid's own chunks on a hit."""
    angles, sigmas = mixing._phase_inputs(angles, sigmas, "real")
    horizon, step, points = mixing._real_grid(angles, epsilon, t_max)
    return mixing._scan_times(angles, sigmas, epsilon, step, horizon, 0, points, crossings=False)



def aligned_angles(rng, d, t_align):
    """d angles in (0.2, 3) and sign bits, the first bit set, that align
    exactly at t_align: theta_j = (2 k_j - sigma_j) pi / t_align."""
    sigmas = rng.integers(0, 2, d)
    sigmas[0] = 1
    angles = []
    for sigma in sigmas:
        ks = [k for k in range(1, 40) if 0.2 < (2 * k - sigma) * np.pi / t_align < 3.0]
        angles.append((2 * int(rng.choice(ks)) - sigma) * np.pi / t_align)
    return np.array(angles), sigmas


@pytest.mark.parametrize("first", [1, 5, 1024])
@pytest.mark.parametrize("epsilon", [1e-3, 3e-3, 1e-2])
def test_real_hits_several_chunks_in_match_the_dense_grid(epsilon, first, monkeypatch):
    """Real-mode hits past the first two chunks: angles that align exactly
    at a time in [10, 40], with t_max a little past it. The chunks tile
    the grid from 0 up to the hit, and exactly one of them holds it."""
    monkeypatch.setattr(mixing, "FIRST_CHUNK", first)
    rng = np.random.default_rng(round(1 / epsilon) + first)
    for case in range(4):
        t_align = float(rng.uniform(10.0, 40.0))
        angles, sigmas = aligned_angles(rng, 2 + case % 3, t_align)
        t_max = t_align + float(rng.uniform(0.5, 1.0))
        want = dense_time_search(angles, sigmas, epsilon, "real", 0, t_max)
        got = time_search(angles, sigmas, epsilon, "real", t_max=t_max)
        assert got == want and got.success, case
        calls = screened_chunks(monkeypatch)
        t, _, hit = real_grid_scan(angles, sigmas, epsilon, t_max)
        step = epsilon / (4.0 * angles.max())
        i = round(t / step)
        assert hit and i * step == t and i >= 3 * first, case
        assert [lo for _, lo, _ in calls] == [0] + list(itertools.accumulate(
            n for _, _, n in calls[:-1])), case
        assert [lo <= i < lo + n for _, lo, n in calls].count(True) == 1, case


@pytest.mark.parametrize("first", [1, 5, 1024])
def test_clamped_last_point_is_decided_on_the_exact_form(first, monkeypatch):
    """t_max falls between grid points, and the deficit falls all the way to
    it, so the answer is the last grid point clamped to t = t_max. The
    screen stops one point short of it: the last point it hands on is the
    one before, and the clamped point is decided on the exact form alone."""
    monkeypatch.setattr(mixing, "FIRST_CHUNK", first)
    handed = []
    best = mixing._chunk_best

    def recorded(angles, sigmas, grid, epsilon, points, *args):
        handed.append(int(points.max()) if len(points) else -1)
        return best(angles, sigmas, grid, epsilon, points, *args)

    monkeypatch.setattr(mixing, "_chunk_best", recorded)
    angles, sigmas, epsilon, t_max = [1.0, 0.9], [1, 1], 0.01, 3.0001234
    step = epsilon / (4.0 * max(angles))
    points = math.ceil(t_max / step) + 1
    assert (points - 1) * step > t_max
    want = dense_time_search(angles, sigmas, epsilon, "real", 0, t_max)
    got = time_search(angles, sigmas, epsilon, "real", t_max=t_max)
    assert got == want
    assert not got.success and got.t == t_max
    assert max(handed) == points - 2


def test_clamped_horizon_is_the_first_aligned_time():
    """cycle:9's angles with bits 1010 at epsilon 0.01: no grid point up to
    5022 aligns, and t_max lies strictly between points 5022 and 5023, where
    the deficit has fallen below epsilon, so the search succeeds at the
    clamped horizon, t = t_max."""
    angles, sigmas, epsilon = cycle_angles(9, 4), [1, 0, 1, 0], 0.01
    step = epsilon / (4.0 * angles.max())
    t_max = 5022.75 * step
    assert dense_phase_alignment_deficit(angles, sigmas, np.arange(5023) * step).min() >= epsilon
    got = time_search(angles, sigmas, epsilon, "real", t_max=t_max)
    assert got.success and got.t == t_max and got.deficit < epsilon
    assert got == dense_time_search(angles, sigmas, epsilon, "real", 0, t_max)


@pytest.mark.parametrize("first", [1, 5, 1024])
@pytest.mark.parametrize("epsilon", [1e-4, 1e-3])
def test_failing_scans_cross_the_route_switch(epsilon, first, monkeypatch):
    """Failing scans start screening every point, while the deficit 2 at
    t = 0 puts the bound at half a turn, and go on by blocks once the best
    deficit falls: the first chunk is screened at every point, later large
    ones are pruned.
    Two angles in (1.2, 3) get both phases within 0.3 of a turn of
    alignment (deficit 1.62) early on; t_max keeps the dense oracle under
    5e5 points."""
    monkeypatch.setattr(mixing, "FIRST_CHUNK", first)
    rng = np.random.default_rng(round(1 / epsilon) + first)
    for case in range(6):
        angles = rng.uniform(1.2, 3.0, 2)
        sigmas = np.ones(2, dtype=np.int64)
        t_max = float(rng.uniform(2.5, 4.0)) * epsilon / 1e-4
        calls = screened_chunks(monkeypatch)
        want = dense_time_search(angles, sigmas, epsilon, "real", 0, t_max)
        got = time_search(angles, sigmas, epsilon, "real", t_max=t_max)
        assert got == want and not got.success, case
        assert calls[0][:2] == ("dense", 0), case
        assert "blocks" in [route for route, _, _ in calls], case


def test_where_blocks_start_moves_no_answer(monkeypatch):
    """BLOCK_CHUNK decides only which chunks are screened by blocks: on
    seeded failing and succeeding cycle searches in both modes and on the
    angles of the mix graphs, its value and twice it give the same time,
    deficit and verdict."""
    rng = np.random.default_rng(34)
    cases = [(cycle_angles(c, (c - 1) // 2), rng.integers(0, 2, (c - 1) // 2), epsilon, mode)
             for c in (9, 13, 17) for mode in ("integer", "real") for epsilon in (0.1, 0.01)
             for _ in range(3)]
    for name in ("rook:4", "complement:rook:4", "rook:5"):
        angles = np.array(srg_decomposition(resolve_builtin(name)).angles[1:])
        cases += [(angles, np.array(bits), epsilon, mode) for bits in ((0, 1), (1, 0))
                  for mode in ("integer", "real") for epsilon in (0.01, 1e-4)]
    want = [time_search(*case) for case in cases]
    assert 0 < sum(result.success for result in want) < len(want)
    monkeypatch.setattr(mixing, "BLOCK_CHUNK", 2 * mixing.BLOCK_CHUNK)
    assert [time_search(*case) for case in cases] == want


def test_integer_scans_on_coarse_grids_screen_every_point(monkeypatch):
    """In integer mode the slowest cycle:17 class moves 1/17 of a turn per
    step, more than the room blocks of MIN_BLOCK consecutive points need,
    and the chunks of a budget of one step less than the dense prefix and
    BLOCK_CHUNK are all below BLOCK_CHUNK, so every chunk is screened point
    by point, and the result is the dense grid's."""
    calls = screened_chunks(monkeypatch)
    angles = cycle_angles(17, 8)
    sigmas = [1, 0, 0, 1, 0, 0, 0, 0]
    budget = dense_prefix() + mixing.BLOCK_CHUNK - 1
    want = dense_time_search(angles, sigmas, 0.1, "integer", budget, None)
    assert time_search(angles, sigmas, 0.1, "integer", budget=budget) == want
    assert calls and {route for route, _, _ in calls} == {"dense"}


@pytest.mark.parametrize("c, bits", [(13, "001000"), (17, "00010000"), (17, "00000110")])
def test_failing_integer_cycle_searches_prune_along_the_cycle(c, bits, monkeypatch):
    """Failing integer cycle searches over the default budget of 10^6
    steps: every class comes back to within 2^-50 of a turn after c steps,
    so a block along the stride c holds a whole residue of the grid, and
    everything past the chunks screened at every point is one chunk
    pruned along c. The answer is the dense grid's."""
    calls = screened_chunks(monkeypatch)
    angles, bits = cycle_angles(c, (c - 1) // 2), [int(b) for b in bits]
    assert not lattice_parity_holds(bits, "integer")
    want = dense_time_search(angles, bits, 0.1, "integer", mixing.INTEGER_BUDGET, None)
    got = time_search(angles, bits, 0.1, "integer")
    assert got == want and not got.success
    assert sum(n for _, _, n in calls) == mixing.INTEGER_BUDGET
    dense = dense_prefix()
    assert calls[-1] == (f"stride {c}", 1 + dense, mixing.INTEGER_BUDGET - dense)
    assert {route for route, _, _ in calls[:-1]} == {"dense"}


@pytest.mark.parametrize("c, bits", [(9, "0110"), (9, "1010"), (13, "100001"), (17, "01010011")])
def test_failing_integer_cycle_searches_take_few_points_one_by_one(c, bits, monkeypatch):
    """The benchmark's failing integer cycle searches, over 10^6 steps: the
    block screen takes the distance at under 1% of the grid's points, its
    block centres and the few points it tries included (a ninth of every
    chunk for cycle:9 before blocks were resolved in closed form), and the
    answer is the dense grid's."""
    taken, inside = [], []
    blocks, distance = mixing._block_screen, mixing._distance

    def counted_blocks(*args):
        inside.append(True)
        try:
            return blocks(*args)
        finally:
            inside.pop()

    def counted_distance(points, *args, **kwargs):
        if inside:
            taken.append(len(points))
        return distance(points, *args, **kwargs)

    monkeypatch.setattr(mixing, "_block_screen", counted_blocks)
    monkeypatch.setattr(mixing, "_distance", counted_distance)
    angles, bits = cycle_angles(c, (c - 1) // 2), [int(b) for b in bits]
    assert not lattice_parity_holds(bits, "integer")
    got = time_search(angles, bits, 0.1, "integer")
    assert got == dense_time_search(angles, bits, 0.1, "integer", mixing.INTEGER_BUDGET, None)
    assert not got.success and 0 < sum(taken) < mixing.INTEGER_BUDGET / 100


def test_debug_log_has_one_record_per_search(monkeypatch, caplog):
    """At debug level a search logs one record: its mode, classes and grid
    points, its stride and the most any class moves along it, its largest
    block, the blocks screened, pruned and resolved in closed form, the
    points that took the exact form and the chunks; at info level it logs
    nothing. Along the stride 13 a block holds a whole residue."""
    calls = screened_chunks(monkeypatch)
    _, exact = sine_calls(monkeypatch)
    angles, bits = cycle_angles(13, 6), [0, 0, 1, 0, 0, 0]
    grid = mixing._fixed_grid(angles / (2.0 * np.pi), np.array(bits), 1.0)
    caplog.set_level(logging.INFO, logger="arcwalk.mixing")
    quiet = time_search(angles, bits, 0.1, "integer", budget=100_000)
    assert not caplog.records
    calls.clear()
    exact.clear()
    caplog.set_level(logging.DEBUG, logger="arcwalk.mixing")
    assert time_search(angles, bits, 0.1, "integer", budget=100_000) == quiet
    (line,) = [record.getMessage() for record in caplog.records]
    (route, lo, n), = [call for call in calls if call[0] != "dense"]
    assert route == "stride 13" and 0 < max(grid.moves(13)) < 2**14
    head, counts = line.split(" blocks screened, ")
    assert head == (f"time search (integer, d=6, 100000 grid points): stride 13, classes move "
                    f"at most {max(grid.moves(13))} units a stride, blocks of up to "
                    f"{-(-n // 13)} points; 13")
    pruned = int(counts.split()[0])
    assert counts == (f"{pruned} pruned, {13 - pruned} resolved in closed form; "
                      f"{sum(exact) - 1} points took the exact form in {len(calls)} chunks")
    assert 0 <= pruned < 13


@pytest.mark.parametrize("mode, angles, sigmas", [
    ("integer", [math.acos(1 / 3), math.acos(-1 / 3)], [1, 0]),
    ("real", cycle_angles(9, 4), [1, 0, 1, 0]),
])
def test_time_search_hit_in_the_first_chunk_allocates_little(mode, angles, sigmas):
    """An early hit (rook:4 at t = 23, cycle:9 near t = 4.5) allocates work
    for its first chunk only, not for the largest chunk (4 MB in integer
    mode and 20 MB in real mode before)."""
    angles = np.asarray(angles)
    result = time_search(angles, sigmas, 0.1, mode)
    step = 1.0 if mode == "integer" else 0.1 / (4.0 * angles.max())
    assert result.success and result.t < mixing.FIRST_CHUNK * step
    tracemalloc.start()
    try:
        assert time_search(angles, sigmas, 0.1, mode) == result
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_failing_search_over_the_largest_grid_keeps_its_memory_bound():
    """A failing real cycle:17 search whose grid has MAX_GRID_POINTS points:
    chunks screened by blocks hold at most CHUNK_WORK / d blocks, so the
    traced peak stays at or below the 1,449,158 bytes the same search
    reached when those chunks held up to 2^19 points screened point by
    point."""
    angles, bits = cycle_angles(17, 8), [0, 0, 0, 1, 0, 0, 0, 0]
    step = 0.1 / (4.0 * angles.max())
    t_max = (mixing.MAX_GRID_POINTS - 1.5) * step
    assert mixing._real_grid(angles, 0.1, t_max)[2] == mixing.MAX_GRID_POINTS
    result = time_search(angles, bits, 0.1, "real", t_max=t_max)
    assert not result.success
    tracemalloc.start()
    try:
        assert time_search(angles, bits, 0.1, "real", t_max=t_max) == result
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_449_158


def test_numpy_float_horizon_reads_as_its_float():
    """A t_max given as a numpy float clamps the last grid point as the
    same Python float does, and the chunks after it are screened by blocks
    as before."""
    angles, bits = cycle_angles(17, 8), [0, 0, 0, 1, 0, 0, 0, 0]
    t_max = 1500.0 + 0.5 * 0.1 / (4.0 * angles.max())
    want = time_search(angles, bits, 0.1, "real", t_max=t_max)
    assert time_search(angles, bits, 0.1, "real", t_max=np.float64(t_max)) == want
    assert want == dense_time_search(angles, bits, 0.1, "real", 0, t_max)


@pytest.mark.parametrize("slow", [1e-9, 1e-15, 1e-250, 5e-324])
def test_a_class_too_slow_to_leave_its_run_matches_the_dense_grid(slow, monkeypatch):
    """A slowest class that barely moves over a chunk leaves room for the
    largest blocks, so after the first chunk, screened at every point,
    every chunk of BLOCK_CHUNK points or more is pruned by blocks. From
    1e-15 down its step per grid point rounds to zero units, so it never
    moves in the fixed-point form."""
    calls = screened_chunks(monkeypatch)
    angles, sigmas = [slow, 2.1, 2.9], [0, 1, 1]
    want = dense_time_search(angles, sigmas, 1e-3, "real", 0, 30.0)
    assert time_search(angles, sigmas, 1e-3, "real", t_max=30.0) == want
    step = 1e-3 / (4.0 * max(angles))
    grid = mixing._fixed_grid(np.array(angles) / (2.0 * np.pi), np.array(sigmas), step)
    assert (grid.steps[0] > 0) == (slow > 1e-12)
    assert calls[0][:2] == ("dense", 0)
    large = [route for route, _, n in calls[1:] if n >= mixing.BLOCK_CHUNK]
    assert large and set(large) == {"blocks"}
