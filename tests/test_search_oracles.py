"""The search layers against independent slow paths.

The relation scan is compared with exact-integer scans of the half box
on cycle angles 2 pi j / c, where sum l_j theta_j + 2 pi l_0 = 0 exactly
when sum l_j j = -c l_0: one in pure Python at small sizes, one in numpy
at the benchmark's sizes. On random angles, up to d = 12, it is compared
with the block scan it replaced (``conftest.block_relation_scan``). The time
search is compared with a dense grid that evaluates d sines at every
point in one pass, through its own (..., d) form of the deficit
(``conftest.dense_phase_alignment_deficit``). Work-count guards check
that the scan locates each canonical head once, passes only its hits to
the exact residual on clean cycle scans, and that the time search takes
sines at only a small share of its grid, about one per tied point.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcwalk import mixing, phase_condition_check, time_search
from arcwalk.mixing import HOLDS, VIOLATED, TimeSearchResult, relation_scan_bound

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
                verdict = phase_condition_check(angles, bits, mode, bound=bound)
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
        verdict = phase_condition_check(cycle_angles(c, d), bits, mode, bound=bound)
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
        verdict = phase_condition_check(angles, bits, mode, bound=bound, tau_rel=tau)
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
            verdict = phase_condition_check(angles, bits, mode, bound=bound, tau_rel=tau)
            want = block_relation_scan(angles, bits, mode, bound, tau)
            assert scan_result(verdict) == want, (mode, bound, tau, bits)
            assert verdict.bound == bound


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


def dense_time_search(angles, sigmas, epsilon, mode, budget, t_max):
    """The time search as one dense pass with d sines per grid point, in
    blocks of ORACLE_BLOCK points: the first point below epsilon, else the
    first point of least deficit; real mode clamps its grid to t_max and
    then refines."""
    angles, sigmas = np.asarray(angles, float), np.asarray(sigmas)
    best_t, best_val = 0.0, dense_phase_alignment_deficit(angles, sigmas, 0.0)
    if mode == "integer":
        ts = np.arange(1, budget + 1, dtype=float)
    else:
        step = epsilon / (4.0 * float(angles.max()))
        total = int(np.ceil(t_max / step)) + 1
        ts = np.minimum(np.arange(total, dtype=float) * step, t_max)
    for lo in range(0, len(ts), ORACLE_BLOCK):
        block = ts[lo : lo + ORACLE_BLOCK]
        vals = dense_phase_alignment_deficit(angles, sigmas, block)
        hits = np.flatnonzero(vals < epsilon)
        if hits.size:
            best_t, best_val = float(block[hits[0]]), float(vals[hits[0]])
            break
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_t, best_val = float(block[j]), float(vals[j])
    if mode == "real":
        best_t, best_val = dense_refine(angles, sigmas, best_t, best_val, step, t_max)
    return TimeSearchResult(
        success=best_val < epsilon, t=best_t, deficit=best_val, mode=mode
    )


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
    sigmas = bits[: len(angles)]
    want = dense_time_search(angles, sigmas, epsilon, mode, budget, t_max)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mixing, "FIRST_CHUNK", first)
        got = time_search(angles, sigmas, epsilon, mode, budget=budget, t_max=t_max)
    if any(sigmas):
        assert got == want
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
                ([0.7, 1.9, 2.3], [1, 0, 1], 0.02, "real", {"t_max": 500.0})]

    def run():
        verdicts = [phase_condition_check(a, s, m, bound=b) for a, s, m, b in scans]
        results = [time_search(a, s, e, m, **kw) for a, s, e, m, kw in searches]
        return [(scan_result(v), v.bound, v.requested_bound) for v in verdicts], results

    reference = run()
    for rows, first in [(1, 1), (7, 3), (300, 10**6)]:
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
    verdict = phase_condition_check(angles, np.zeros(d, int), "real", bound=bound)
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
    verdict = phase_condition_check(cycle_angles(c, d), np.zeros(d, int), mode, bound=bound)
    assert verdict.status == HOLDS
    hits = sum(found for _, found in decided)
    assert hits == cycle_relation_rows(c, d, bound, mode)
    assert sum(len(block) for block, _ in decided) <= hits + 4


def sine_calls(monkeypatch):
    """Patch the time search to record the number of sines of every call
    that takes them, and the size of every candidate set handed to the
    exact form."""
    sines, candidates = [], []
    half_sines, exact = mixing._half_sines, mixing._candidate_deficits

    def counted_sines(phases):
        sines.append(phases.size)
        return half_sines(phases)

    def counted_candidates(angles, sigmas, grid, points, worst, margin):
        candidates.append(len(points))
        return exact(angles, sigmas, grid, points, worst, margin)

    monkeypatch.setattr(mixing, "_half_sines", counted_sines)
    monkeypatch.setattr(mixing, "_candidate_deficits", counted_candidates)
    return sines, candidates


def test_failing_real_search_confirms_few_grid_points(monkeypatch):
    sines, _ = sine_calls(monkeypatch)
    angles = cycle_angles(17, 8)
    result = time_search(angles, [1, 0, 0, 0, 0, 0, 0, 0], 0.1, "real")
    assert not result.success
    step = 0.1 / (4.0 * angles.max())
    points = math.ceil(mixing.T_MAX_FACTOR / angles.min() / step) + 1
    assert points > 10**6
    assert sum(sines) < points / 100


def test_tied_candidates_take_about_one_sine_each(monkeypatch):
    """A failing integer cycle:9 search ties at thousands of points of its
    periodic orbit, and each tied point is handed to the exact form; the
    sine is taken only for the classes where the max can sit, about one
    per point against d = 4 for the whole form. The result is the dense
    grid's."""
    sines, candidates = sine_calls(monkeypatch)
    angles, sigmas = cycle_angles(9, 4), [1, 1, 1, 1]
    result = time_search(angles, sigmas, 0.1, "integer", budget=20_000)
    assert result == dense_time_search(angles, sigmas, 0.1, "integer", 20_000, None)
    assert not result.success
    assert sum(candidates) > 10_000
    assert sum(sines) < 2 * sum(candidates)


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
    """Periodic cycle orbits tie at thousands of grid points, and rounding
    decides which is the first of least: a sine left out where the max
    sits would show here as another t or deficit."""
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
    assert time_search(angles, bits, 0.1, "integer", budget=10**6) == want


def test_candidate_deficits_are_the_exact_form_near_the_flat_top():
    """Grid points where several classes sit near half a turn, with deficits
    within 1e-9 of 2 where the sine is flattest, and points on cycle
    orbits: the restricted form gives the exact form's bits."""
    rng = np.random.default_rng(23)
    cases = [(np.array([1e-9, 3e-9, 2.0, 2.5e-9]), np.ones(4, dtype=np.int64), 1e-3,
              rng.integers(0, 10**4, 3000)),
             (cycle_angles(17, 8), rng.integers(0, 2, 8), 1.0, np.arange(4000)),
             (rng.uniform(0.05, 3.1, 12), rng.integers(-2, 3, 12), 1.0,
              rng.integers(0, 10**6, 500))]
    for angles, sigmas, step, points in cases:
        assert len(points) * len(angles) >= mixing.RESTRICT_SINES
        grid = mixing._fixed_grid(angles / (2.0 * np.pi), sigmas, step)
        points = points.astype(np.uint64)
        ts = points * step
        margin = 1e-12 * (1.0 + ts.max() * angles.max() + np.pi * np.abs(sigmas).max())
        worst = mixing._misalignment(points, grid, np.empty((2, len(points)), dtype=np.uint64))
        got = mixing._candidate_deficits(angles, sigmas, grid, points, worst, margin)
        want = dense_phase_alignment_deficit(angles, sigmas, ts)
        assert got.tobytes() == want.tobytes()


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


def test_block_screen_keeps_exactly_the_points_within_reach():
    """Brute force over random grids: the blocks keep exactly the points
    that the point-by-point screen puts within reach, with the same
    misalignment, at every first block size and at the edges of reach
    (0, and just under half a turn)."""
    rng = np.random.default_rng(31)
    for case in range(300):
        d = int(rng.integers(1, 7))
        angles = rng.uniform(0.01, 3.1, d)
        step = float(rng.choice([1.0, 0.1 / (4.0 * angles.max()), 1e-4]))
        grid = mixing._fixed_grid(angles / (2.0 * np.pi), rng.integers(0, 2, d), step)
        lo, n = int(rng.integers(0, 10**7)), int(rng.integers(1, 5000))
        points = np.arange(lo, lo + n, dtype=np.uint64)
        worst = mixing._misalignment(points, grid, np.empty((2, n), dtype=np.uint64))
        reach = int(rng.choice([0, int(worst.min()), int(np.median(worst)),
                                mixing.HALF_TURN - 1, int(rng.integers(0, mixing.HALF_TURN))]))
        size = 2 ** int(rng.integers(0, 12))
        got, got_worst = mixing._block_screen(lo, n, grid, reach, size)
        keep = worst <= reach
        assert got.tolist() == points[keep].tolist(), case
        assert got_worst.tolist() == worst[keep].tolist(), case


def pruned_chunks(monkeypatch):
    """Patch the time search to record (route, lo, n) for every chunk it
    takes along runs or prunes by blocks."""
    calls = []
    runs, blocks = mixing._run_offsets, mixing._block_screen

    def counted_runs(lo, n, *args):
        calls.append(("runs", lo, n))
        return runs(lo, n, *args)

    def counted_blocks(lo, n, *args):
        calls.append(("blocks", lo, n))
        return blocks(lo, n, *args)

    monkeypatch.setattr(mixing, "_run_offsets", counted_runs)
    monkeypatch.setattr(mixing, "_block_screen", counted_blocks)
    return calls


@pytest.mark.parametrize("c, bits", [(13, "001000"), (17, "00010000"), (17, "01010101")])
def test_wide_bound_chunks_are_pruned_by_blocks_and_match_the_dense_grid(c, bits, monkeypatch):
    """Failing real cycle searches whose best misalignment stays between
    the run width and 1/2 (1/3, 1/3 and 7/18 over [0, 1500]): every chunk
    of BLOCK_CHUNK points or more is pruned by blocks, and the answer is
    the dense grid's."""
    calls = pruned_chunks(monkeypatch)
    angles, bits = cycle_angles(c, len(bits)), [int(b) for b in bits]
    want = dense_time_search(angles, bits, 0.1, "real", 0, 1500.0)
    got = time_search(angles, bits, 0.1, "real", t_max=1500.0)
    assert got == want and not got.success
    blocks = [n for route, _, n in calls if route == "blocks"]
    assert blocks and min(blocks) >= mixing.BLOCK_CHUNK
    assert not [n for route, _, n in calls if route == "runs" and n >= mixing.BLOCK_CHUNK]


def test_large_chunks_are_pruned_by_blocks_under_a_narrow_bound(monkeypatch):
    """Angles 11 pi / 25 and 20 pi / 25 with bits (1, 0) align exactly at
    t = 25, some 72,000 grid points in at epsilon 0.003. Their bound falls
    below 0.1 of a turn early, where the slowest class could take runs,
    and every later chunk, all of BLOCK_CHUNK points or more, is pruned by
    blocks all the same; the answer is the dense grid's."""
    reaches = []
    blocks = mixing._block_screen

    def recorded(lo, n, grid, reach, size):
        reaches.append((n, reach))
        return blocks(lo, n, grid, reach, size)

    monkeypatch.setattr(mixing, "_block_screen", recorded)
    angles, sigmas = [11 * np.pi / 25, 20 * np.pi / 25], [1, 0]
    want = dense_time_search(angles, sigmas, 0.003, "real", 0, 25.5)
    got = time_search(angles, sigmas, 0.003, "real", t_max=25.5)
    assert got == want and got.success and abs(got.t - 25.0) < 0.01
    assert len(reaches) >= 2 and min(n for n, _ in reaches) >= mixing.BLOCK_CHUNK
    assert max(reach for _, reach in reaches) < mixing._fixed_width(0.1)


@pytest.mark.parametrize("c", [13, 17])
def test_benchmark_failing_real_searches_match_the_dense_grid(c):
    """The benchmark's failing real searches: violated sign bits at epsilon
    0.1 over the default horizon T_MAX_FACTOR / min theta, 2.4 and 3.2
    million grid points, against the dense grid, with best deficits on
    both sides of the run width."""
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
    assert min(widths) < mixing.RUN_WIDTH < max(widths)


def grid_results(monkeypatch):
    """Patch the grid scan to record what it returns, before refinement."""
    results = []
    scan = mixing._scan_times

    def recorded(*args):
        results.append(scan(*args))
        return results[-1]

    monkeypatch.setattr(mixing, "_scan_times", recorded)
    return results



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
    """Real-mode hits past the first two chunks, in a chunk taken along
    runs or pruned by blocks: angles that align exactly at a time in
    [10, 40], with t_max a little past it."""
    monkeypatch.setattr(mixing, "FIRST_CHUNK", first)
    rng = np.random.default_rng(round(1 / epsilon) + first)
    for case in range(4):
        t_align = float(rng.uniform(10.0, 40.0))
        angles, sigmas = aligned_angles(rng, 2 + case % 3, t_align)
        t_max = t_align + float(rng.uniform(0.5, 1.0))
        calls, scanned = pruned_chunks(monkeypatch), grid_results(monkeypatch)
        want = dense_time_search(angles, sigmas, epsilon, "real", 0, t_max)
        got = time_search(angles, sigmas, epsilon, "real", t_max=t_max)
        assert got == want and got.success, case
        (t, _, hit), = scanned
        step = epsilon / (4.0 * angles.max())
        i = round(t / step)
        assert hit and i * step == t and i >= 3 * first, case
        assert any(lo <= i < lo + n for _, lo, n in calls), case


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


@pytest.mark.parametrize("first", [1, 5, 1024])
@pytest.mark.parametrize("epsilon", [1e-4, 1e-3])
def test_failing_scans_cross_the_route_switch(epsilon, first, monkeypatch):
    """Failing scans start screening every point, while the deficit 2 at
    t = 0 puts the bound at half a turn, and go on along runs or by blocks
    once the best deficit falls: the first chunk is screened at every
    point, later ones are pruned.
    Two angles in (1.2, 3) get both phases within 0.3 of a turn of
    alignment (deficit 1.62) early on; t_max keeps the dense oracle under
    5e5 points."""
    monkeypatch.setattr(mixing, "FIRST_CHUNK", first)
    rng = np.random.default_rng(round(1 / epsilon) + first)
    for case in range(6):
        angles = rng.uniform(1.2, 3.0, 2)
        sigmas = np.ones(2, dtype=np.int64)
        t_max = float(rng.uniform(2.5, 4.0)) * epsilon / 1e-4
        calls = pruned_chunks(monkeypatch)
        want = dense_time_search(angles, sigmas, epsilon, "real", 0, t_max)
        got = time_search(angles, sigmas, epsilon, "real", t_max=t_max)
        assert got == want and not got.success, case
        assert calls and calls[0][1] > 0, case


def test_integer_scans_on_coarse_grids_screen_every_point(monkeypatch):
    """In integer mode the slowest cycle:17 class moves 1/17 of a turn per
    step, more than a quarter of the bound at epsilon 0.1 and more than
    the room blocks of MIN_BLOCK points need, so every chunk is screened
    point by point, and the result is the dense grid's."""
    calls = pruned_chunks(monkeypatch)
    angles = cycle_angles(17, 8)
    sigmas = [1, 0, 0, 1, 0, 0, 0, 0]
    want = dense_time_search(angles, sigmas, 0.1, "integer", 20_000, None)
    assert time_search(angles, sigmas, 0.1, "integer", budget=20_000) == want
    assert not calls


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


@pytest.mark.parametrize("slow", [1e-9, 1e-15, 1e-250, 5e-324])
def test_a_class_too_slow_to_leave_its_run_matches_the_dense_grid(slow, monkeypatch):
    """A slowest class that barely moves over a chunk lays one run across
    it. From 1e-15 down its step per grid point rounds to zero units, so
    it never moves in the fixed-point form, no runs are laid, and every
    chunk is pruned by blocks or screened point by point."""
    calls = pruned_chunks(monkeypatch)
    angles, sigmas = [slow, 2.1, 2.9], [0, 1, 1]
    want = dense_time_search(angles, sigmas, 1e-3, "real", 0, 30.0)
    assert time_search(angles, sigmas, 1e-3, "real", t_max=30.0) == want
    step = 1e-3 / (4.0 * max(angles))
    grid = mixing._fixed_grid(np.array(angles) / (2.0 * np.pi), np.array(sigmas), step)
    assert (grid.steps[0] > 0) == (slow > 1e-12)
    assert bool([lo for route, lo, _ in calls if route == "runs"]) == (grid.steps[0] > 0)


def test_runs_cover_every_point_within_the_width():
    """Brute force: the runs hold exactly the offsets at which the class
    lies within reach of an integer on the fixed-point screen
    (:func:`mixing._distance`), ascending, for steps from one unit up to a
    quarter of the reach, reaches up to 0.4 turns, grid indices up to
    MAX_GRID_POINTS and chunks up to 2^16 points."""
    # edges: a step that divides the turn puts points exactly at the reach
    # on both sides, and a reach just short of (i - 1) steps below the next
    # turn passes it a hair after an index, where a float estimate rounds
    # a whole index low
    turn = 1 << 64
    for e in (20, 40, 56, 58):
        for k in (4, 5, 9):
            for lo, halves in ((0, 0), (3, mixing.HALF_TURN), (10**7 + 1, 0)):
                points = np.arange(lo, lo + 5000, dtype=np.uint64)
                want = np.flatnonzero(mixing._distance(points, 1 << e, halves) <= k << e)
                assert mixing._run_offsets(lo, 5000, 1 << e, halves, k << e).tolist() == want.tolist()
        for i in (31, 40):
            for gap in (0, 1, 2):
                reach = turn // 2 - (i - 1) * (1 << e) - gap
                if not 4 << e <= reach <= 0.4 * turn:
                    continue
                points = np.arange(0, 100, dtype=np.uint64)
                want = np.flatnonzero(mixing._distance(points, 1 << e, mixing.HALF_TURN) <= reach)
                got = mixing._run_offsets(0, 100, 1 << e, mixing.HALF_TURN, reach)
                assert got.tolist() == want.tolist(), (e, i, gap)
    rng = np.random.default_rng(17)
    for case in range(3000):
        reach = int(rng.uniform(0.0, 0.4) * 2.0**64) if case % 4 else int(rng.integers(4, 10**4))
        steps = int(rng.choice([
            rng.integers(1, 20), max(reach // 4 - int(rng.integers(0, 3)), 1),
            rng.integers(1, reach // 4 + 1), int(rng.integers(1, reach // 4 + 1)) >> 40,
        ])) or 1
        halves = int(rng.integers(0, 2)) * mixing.HALF_TURN
        n = int(rng.integers(1, 300)) if case % 100 else 2**16
        lo = int(rng.integers(0, mixing.MAX_GRID_POINTS + 2 - n)) if case % 3 else case % 7
        points = np.arange(lo, lo + n, dtype=np.uint64)
        want = np.flatnonzero(mixing._distance(points, steps, halves) <= reach)
        got = mixing._run_offsets(lo, n, steps, halves, reach)
        assert got.dtype == np.int64 and got.tolist() == want.tolist(), case
