"""The search layers against independent slow paths.

The relation scan is compared with an exact-integer scan of the half box
on cycle angles 2 pi j / c, where sum l_j theta_j + 2 pi l_0 = 0 exactly
when sum l_j j = -c l_0. The time search is compared with a dense grid
that evaluates d sines at every point in one pass. Work-count guards
check that the scan hands each half-box row to its residual once and that the time search passes
only a small share of its grid to the exact deficit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcwalk import mixing, phase_condition_check, time_search
from arcwalk.mixing import HOLDS, VIOLATED, TimeSearchResult


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
    rng = np.random.default_rng(3)
    scans = [(cycle_angles(c, (c - 1) // 2), rng.integers(0, 2, (c - 1) // 2), mode)
             for c in (9, 13) for mode in ("integer", "real")]
    scans += [(cycle_angles(9, 4), np.zeros(4, int), mode) for mode in ("integer", "real")]
    searches = [(cycle_angles(9, 4), [1, 0, 0, 0], 0.1, "integer", {}),
                (cycle_angles(9, 4), [1, 0, 1, 0], 0.01, "real", {}),
                (cycle_angles(13, 6), [1, 1, 0, 0, 0, 0], 0.1, "real", {"t_max": 300.0}),
                ([0.7, 1.9, 2.3], [1, 0, 1], 0.05, "integer", {"budget": 50_000}),
                ([0.7, 1.9, 2.3], [1, 0, 1], 0.02, "real", {"t_max": 500.0})]

    def run():
        verdicts = [phase_condition_check(a, s, m, bound=6) for a, s, m in scans]
        results = [time_search(a, s, e, m, **kw) for a, s, e, m, kw in searches]
        return verdicts, results

    reference = run()
    for rows, first in [(1, 1), (7, 3), (300, 10**6)]:
        monkeypatch.setattr(mixing, "SCAN_ROWS", rows)
        monkeypatch.setattr(mixing, "FIRST_CHUNK", first)
        assert run() == reference, (rows, first)


@pytest.mark.parametrize("c, bound", [(9, 20), (13, 20), (7, 3)])
def test_relation_scan_hands_each_half_box_row_over_once(c, bound, monkeypatch):
    rows = []
    chunks = mixing._canonical_half_chunks

    def counted(b, d):
        for block in chunks(b, d):
            rows.append(len(block))
            yield block

    monkeypatch.setattr(mixing, "_canonical_half_chunks", counted)
    d = (c - 1) // 2
    verdict = phase_condition_check(cycle_angles(c, d), np.zeros(d, int), "real", bound=bound)
    assert verdict.status != VIOLATED
    assert sum(rows) == ((2 * verdict.bound + 1) ** d - 1) // 2


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
