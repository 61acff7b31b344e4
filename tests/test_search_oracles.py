"""The search layers against independent slow paths.

The relation scan is compared with exact-integer scans of the half box
on cycle angles 2 pi j / c, where sum l_j theta_j + 2 pi l_0 = 0 exactly
when sum l_j j = -c l_0: one in pure Python at small sizes, one in numpy
at the benchmark's sizes. On random angles it is compared with the
block scan it replaced (``conftest.block_relation_scan``). The time
search is compared with a dense grid that evaluates d sines at every
point in one pass. Work-count guards check that the scan screens each
canonical head once, passes only its hits to the exact residual on clean
cycle scans, and that the time search passes only a small share of its
grid to the exact deficit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcwalk import mixing, phase_condition_check, time_search
from arcwalk.mixing import HOLDS, VIOLATED, TimeSearchResult, relation_scan_bound

from conftest import block_relation_scan


def cycle_angles(c, d):
    return 2.0 * np.pi * np.arange(1, d + 1) / c


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
                got = (verdict.status, verdict.relations, verdict.violating)
                assert got == want, (c, bits, mode, bound)
                assert verdict.bound == bound
                entries = itertools.chain(*verdict.relations, verdict.violating or ())
                assert all(type(v) is int for v in entries)


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
        assert (verdict.status, verdict.relations, verdict.violating) == want, (bits, mode)
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
        assert (verdict.status, verdict.relations, verdict.violating) == want, case


def dense_time_search(angles, sigmas, epsilon, mode, budget, t_max):
    """The time search as one dense pass with d sines per grid point: the
    first point below epsilon, else the first point of least deficit;
    real mode clamps its grid to t_max and then refines."""
    angles, sigmas = np.asarray(angles, float), np.asarray(sigmas)
    best_t, best_val = 0.0, float(mixing.phase_alignment_deficit(angles, sigmas, 0.0))
    if mode == "integer":
        ts = np.arange(1, budget + 1, dtype=float)
    else:
        step = epsilon / (4.0 * float(angles.max()))
        total = int(np.ceil(t_max / step)) + 1
        ts = np.minimum(np.arange(total, dtype=float) * step, t_max)
    vals = mixing.phase_alignment_deficit(angles, sigmas, ts)
    hits = np.flatnonzero(vals < epsilon)
    if hits.size:
        best_t, best_val = float(ts[hits[0]]), float(vals[hits[0]])
    elif ts.size and vals.min() < best_val:
        j = int(np.argmin(vals))
        best_t, best_val = float(ts[j]), float(vals[j])
    if mode == "real":
        best_t, best_val = mixing._refine_real_time(
            angles, sigmas, best_t, best_val, step, t_max
        )
    return TimeSearchResult(
        success=best_val < epsilon, t=best_t, deficit=best_val, mode=mode
    )


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
    FIRST_CHUNK. The clean cycle:13 scans at bound 2 fit one head at the
    default SCAN_ROWS and take one coordinate per screen at SCAN_ROWS = 1."""
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
        return verdicts, results

    reference = run()
    for rows, first in [(1, 1), (7, 3), (300, 10**6)]:
        monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
        monkeypatch.setattr(mixing, "FIRST_CHUNK", first)
        assert run() == reference, (rows, first)


def screen_calls(monkeypatch):
    """Patch the scan's screen to record (rows screened, shift, candidates)
    for every call."""
    calls = []
    screen = mixing._screen

    def counted(sums, shift, *args):
        rows = screen(sums, shift, *args)
        calls.append((len(sums), shift, len(rows)))
        return rows

    monkeypatch.setattr(mixing, "_screen", counted)
    return calls


@pytest.mark.parametrize("c, bound", [(9, 20), (13, 20), (7, 3)])
def test_relation_scan_hands_each_half_box_row_over_once(c, bound, monkeypatch):
    """Each canonical head (first nonzero entry positive, or all zero) is
    screened once, over the whole inner grid or, for the all-zero head, the
    rows after its middle; so the screened rows add up to the half box."""
    calls = screen_calls(monkeypatch)
    d = (c - 1) // 2
    angles = cycle_angles(c, d)
    verdict = phase_condition_check(angles, np.zeros(d, int), "real", bound=bound)
    assert verdict.status != VIOLATED
    span = 2 * verdict.bound + 1
    grid = 2 * min(rows for rows, _, _ in calls) + 1
    inner = round(math.log(grid, span))
    assert span**inner == grid <= max(mixing.SCAN_ROWS, span)
    heads = [h for h in itertools.product(range(-verdict.bound, verdict.bound + 1), repeat=d - inner)
             if next((x for x in h if x), 0) >= 0]
    assert len(calls) == len(heads)
    assert sorted(rows for rows, _, _ in calls) == sorted(
        grid if any(h) else (grid - 1) // 2 for h in heads
    )
    shifts = sorted(float(np.dot(h, angles[: d - inner])) if h else 0.0 for h in heads)
    assert sorted(shift for _, shift, _ in calls) == pytest.approx(shifts, abs=1e-12)
    assert sum(rows for rows, _, _ in calls) == (span**d - 1) // 2


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
    """On a clean cycle scan the screen lets through exactly the relation
    rows, so no row is built for the exact residual in vain."""
    calls = screen_calls(monkeypatch)
    d = (c - 1) // 2
    verdict = phase_condition_check(cycle_angles(c, d), np.zeros(d, int), mode, bound=bound)
    assert verdict.status == HOLDS
    assert sum(found for _, _, found in calls) == cycle_relation_rows(c, d, bound, mode)


def test_failing_real_search_confirms_few_grid_points(monkeypatch):
    evaluated = []
    exact = mixing.phase_alignment_deficit

    def counted(angles, sigmas, t):
        evaluated.append(np.size(t))
        return exact(angles, sigmas, t)

    monkeypatch.setattr(mixing, "phase_alignment_deficit", counted)
    angles = cycle_angles(17, 8)
    result = time_search(angles, [1, 0, 0, 0, 0, 0, 0, 0], 0.1, "real")
    assert not result.success
    step = 0.1 / (4.0 * angles.max())
    points = math.ceil(mixing.T_MAX_FACTOR / angles.min() / step) + 1
    assert points > 10**6
    assert sum(evaluated) < points / 100
