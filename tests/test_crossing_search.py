"""The real time search by crossings against the grid it answers for.

``mixing._crossing_search`` takes the first success of a real search from
the whole-turn crossings of one pivot class, inside ``mixing._scan_times``
on a real grid unless that is called with ``crossings=False``. Its answer must be the grid
scan's first success bit for bit, so every test here compares it two
ways: the scan with the route against the scan without it on the same
grid, the route's debug record saying whether the route answered, and
``time_search`` against the dense oracle ``dense_time_search`` of
``test_search_oracles``. The inputs are cycle angles, seeded random angle
sets and grids built to break the route: a class that never moves in
fixed point, a near-stationary one, a class stepping backwards on a
coarsened grid, epsilon in [1, 2] and a point exactly at the width of
epsilon.
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from arcwalk import mixing, time_search

from test_search_oracles import aligned_angles, cycle_angles, dense_time_search


class Lines(logging.Handler):
    """Keeps the messages of the records it handles."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def route_and_grid(angles, sigmas, epsilon, t_max, step=None):
    """(routed, plain, clamped, line) on the real grid of ``time_search``,
    or on the grid of ``step`` over the same horizon: the grid scan with
    the route first and without it, whether the plain scan's hit is the
    grid's clamped last point, which the route leaves to the scan, and the
    route's one debug record."""
    angles, sigmas = mixing._phase_inputs(angles, sigmas, "real")
    horizon, fine, points = mixing._real_grid(angles, epsilon, t_max)
    if step is None:
        step = fine
    else:
        points = math.ceil(horizon / step) + 1
    logger, lines = logging.getLogger("arcwalk.mixing"), Lines()
    level = logger.level
    logger.addHandler(lines)
    logger.setLevel(logging.DEBUG)
    try:
        routed = mixing._scan_times(angles, sigmas, epsilon, step, horizon, 0, points)
    finally:
        logger.removeHandler(lines)
        logger.setLevel(level)
    plain = mixing._scan_times(angles, sigmas, epsilon, step, horizon, 0, points,
                               crossings=False)
    clamped = plain[2] and plain[0] == horizon and float(points - 1) * step > horizon
    (line,) = [line for line in lines.lines if line.startswith("time search by crossings")]
    return routed, plain, clamped, line


def assert_route_is_the_grid(angles, sigmas, epsilon, t_max, step=None):
    """The scan answers the same with the route as without it; where the
    route says it succeeded, that is the grid's hit, and where it found
    nothing, the grid's only hit is its clamped last point or there is
    none, unless it handed over before it searched. Returns the grid's hit
    (t, deficit) or None, and the route's record."""
    routed, plain, clamped, line = route_and_grid(angles, sigmas, epsilon, t_max, step)
    assert routed == plain, (routed, plain, line)
    if "pivot class" not in line:
        assert "handed over to the grid" in line, line
    elif line.endswith("; success"):
        assert plain[2] and not clamped, (plain, line)
    else:
        assert not plain[2] or clamped, (plain, line)
    return (plain[:2] if plain[2] else None), line


def assert_search_is_dense(angles, sigmas, epsilon, t_max):
    got = time_search(angles, sigmas, epsilon, "real", t_max=t_max)
    assert got == dense_time_search(angles, sigmas, epsilon, "real", 0, t_max)
    return got


@pytest.mark.parametrize("c", range(5, 18))
def test_route_matches_the_dense_grid_on_cycle_angles(c):
    """Cycle angles 2 pi j / c, every bit pattern for d <= 4 and the
    alternating one with six drawn ones past it, at epsilon 0.1, 0.01 and
    0.003 over [0, c + 0.5]: the alternating bits align at t = c / 2.
    Every grid takes the route, and every success the grid finds is the
    route's."""
    d = (c - 1) // 2
    rng = np.random.default_rng(c)
    alternating = int("01" * d, 2) & (2**d - 1)
    patterns = range(1, 2**d) if d <= 4 else [alternating, *rng.integers(1, 2**d, 6)]
    hits = 0
    for pattern in patterns:
        bits = [(int(pattern) >> j) & 1 for j in range(d)]
        for epsilon in (0.1, 0.01, 0.003):
            hit, line = assert_route_is_the_grid(cycle_angles(c, d), bits, epsilon, c + 0.5)
            assert "pivot class" in line
            hits += hit is not None
            assert_search_is_dense(cycle_angles(c, d), bits, epsilon, c + 0.5)
    assert hits >= 3


@pytest.mark.parametrize("d", range(1, 9))
def test_route_matches_the_dense_grid_on_random_angles(d):
    """Seeded angles in (0.05, 3.1), random bits and epsilon in
    [0.001, 0.3], over horizons of 20,000 to 300,000 grid points. A single
    angle is searched on the grid only short of its closed-form time
    pi / theta, at a finer epsilon over grids of the same size."""
    rng = np.random.default_rng(500 + d)
    for case in range(8):
        angles, bits = rng.uniform(0.05, 3.1, d), rng.integers(0, 2, d)
        bits[case % d] = 1
        epsilon = float(10 ** rng.uniform(-3, -0.5))
        t_max = float(10 ** rng.uniform(4.3, 5.5)) * epsilon / (4.0 * angles.max())
        if d == 1:
            # a single angle takes its closed form when it lies within t_max
            epsilon = float(10 ** rng.uniform(-4.5, -3.5))
            t_max = 0.999 * np.pi / angles[0]
        assert "pivot class" in assert_route_is_the_grid(angles, bits, epsilon, t_max)[1]
        assert_search_is_dense(angles, bits, epsilon, t_max)


@pytest.mark.parametrize("epsilon", [3e-3, 1e-2, 0.1])
def test_route_finds_aligned_hits_past_the_grid_first_chunks(epsilon):
    """Angles that align exactly at a time in [10, 40]: the route finds the
    grid's first hit, well past its first chunks, and the search is the
    dense grid's."""
    rng = np.random.default_rng(round(1 / epsilon))
    for case in range(6):
        t_align = float(rng.uniform(10.0, 40.0))
        angles, sigmas = aligned_angles(rng, 2 + case % 4, t_align)
        t_max = t_align + float(rng.uniform(0.5, 1.0))
        hit, line = assert_route_is_the_grid(angles, sigmas, epsilon, t_max)
        assert line.endswith("; success")
        assert hit[0] > mixing.FIRST_CHUNK * epsilon / (4.0 * angles.max())
        assert assert_search_is_dense(angles, sigmas, epsilon, t_max).success


@pytest.mark.parametrize("slow", [1e-9, 1e-15])
@pytest.mark.parametrize("sigmas", [[0, 1, 1], [1, 1, 0]])
def test_a_near_still_class_never_pivots(slow, sigmas):
    """A class of angle 1e-9 moves so little that its runs would span
    millions of points, and from 1e-15 its step rounds to zero units, so it
    never moves: neither can pivot, and the route walks a fast class. With
    its bit set it sits half a turn out and nothing succeeds."""
    angles = [slow, 2.1, 2.9]
    step = 1e-3 / (4.0 * max(angles))
    grid = mixing._fixed_grid(np.array(angles) / (2.0 * np.pi), np.array(sigmas), step)
    assert (grid.steps[0] == 0) == (slow < 1e-12)
    hit, line = assert_route_is_the_grid(angles, sigmas, 1e-3, 30.0)
    assert "pivot class 0" not in line and "pivot class" in line
    assert hit is None or sigmas[0] == 0
    assert_search_is_dense(angles, sigmas, 1e-3, 30.0)


def test_a_class_stepping_backwards_on_a_coarsened_grid():
    """Over t_max = 10^8 the grid is coarsened to a step of 2, so classes
    move 2 theta / 2 pi turns a point, more than half a turn for the
    angles (2 k - sigma) pi / 20 with 2 k - sigma past 10: they step
    backwards, a pivot among them in (17, 11). The angles align at
    t = 20, grid point 10, which the route finds on the coarsened grid, as
    the dense grid does. Where every class moves more than a quarter turn
    a point, (14, 7, 9), none can pivot and the route hands over."""
    for ks in ([13, 4], [3, 12, 17], [17, 11], [14, 3, 9], [14, 7, 9]):
        angles = np.array(ks) * np.pi / 20.0
        sigmas = [k % 2 for k in ks]
        horizon, step, points = mixing._real_grid(angles, 0.1, 1e8)
        assert step == 2.0 and points == mixing.MAX_GRID_POINTS + 1
        grid = mixing._fixed_grid(angles / (2.0 * np.pi), np.array(sigmas), step)
        assert any(s > mixing.HALF_TURN for s in grid.steps)
        hit, line = assert_route_is_the_grid(angles, sigmas, 0.1, 1e8)
        assert hit[0] <= 20.0
        assert line.endswith("; success") == (ks != [14, 7, 9]), line
        assert assert_search_is_dense(angles, sigmas, 0.1, 1e8).success


@pytest.mark.parametrize("step", [0.37, 1.3, 2.9, 4.1])
def test_route_matches_the_grid_at_any_step(step):
    """On grids of arbitrary steps, classes move anywhere up to half a turn
    a point, either way: the route answers as the grid scan on the same
    grid, or hands over for want of a pivot."""
    rng = np.random.default_rng(round(step * 100))
    answered = 0
    for case in range(12):
        d = 2 + case % 3
        angles, bits = rng.uniform(0.2, 3.0, d), rng.integers(0, 2, d)
        bits[0] = 1
        epsilon, t_max = float(rng.choice([0.05, 0.2, 0.5])), float(rng.uniform(2e4, 6e4)) * step
        _, line = assert_route_is_the_grid(angles, bits, epsilon, t_max, step)
        answered += "pivot class" in line
    assert answered >= 6


@pytest.mark.parametrize("epsilon", [1.0, 1.2, 1.4, 1.5, 1.9, 1.99, 2.0])
def test_wide_epsilon_matches_the_dense_grid(epsilon):
    """Epsilon in [1, 2]: below sqrt 2 the width is under a quarter turn
    and the route runs; from there on the pivot would be within it most
    of the time, and the route hands over to the grid."""
    rng = np.random.default_rng(round(epsilon * 100))
    for case in range(4):
        d = 2 + case % 3
        angles, bits = rng.uniform(0.2, 3.0, d), rng.integers(0, 2, d)
        bits[0] = 1
        t_max = 40_000 * epsilon / (4.0 * angles.max())
        _, line = assert_route_is_the_grid(angles, bits, epsilon, t_max)
        if epsilon >= 1.45:
            assert line.endswith("the width of epsilon is a quarter turn or more")
        else:
            assert "pivot class" in line
        assert_search_is_dense(angles, bits, epsilon, t_max)


@pytest.mark.parametrize("shift", [0, 1])
def test_a_point_exactly_at_the_width_is_measured(shift, monkeypatch):
    """With the width set to the exact misalignment of the grid's first hit,
    that hit lies exactly at the width and both the route and the grid take
    it; one unit narrower, both pass it by for the same later hit or none."""
    rng = np.random.default_rng(11)
    for case in range(6):
        t_align = float(rng.uniform(10.0, 40.0))
        angles, sigmas = aligned_angles(rng, 2 + case % 3, t_align)
        t_max, epsilon = t_align + 1.0, 0.01
        (t, deficit), _ = assert_route_is_the_grid(angles, sigmas, epsilon, t_max)
        horizon, step, points = mixing._real_grid(angles, epsilon, t_max)
        grid = mixing._fixed_grid(angles / (2.0 * np.pi), np.array(sigmas), step)
        index = np.array([round(t / step)], dtype=np.uint64)
        worst = max(int(mixing._distance(index, s, h)[0]) for s, h in zip(grid.steps, grid.halves))

        monkeypatch.setattr(mixing, "_fixed_width", lambda width: worst - shift)
        want, line = assert_route_is_the_grid(angles, sigmas, epsilon, t_max)
        monkeypatch.undo()
        assert "pivot class" in line
        assert (want == (t, deficit)) == (shift == 0), case


def test_runs_cover_every_point_within_the_width():
    """Every grid index within the width of the pivot lies in the run of
    the nearest integer to its crossing, c_k - H .. c_k + H, checked point
    by point over the first 200,000 indices of seeded pivots, halves and
    widths, widths that are whole multiples of the move included."""
    rng = np.random.default_rng(5)
    indices = np.arange(200_000, dtype=np.uint64)
    for case in range(40):
        move = int(2.0 ** rng.uniform(40.0, 62.0))
        half = mixing.HALF_TURN * int(rng.integers(0, 2))
        close = move * int(rng.integers(1, 6)) if case % 2 else int(rng.integers(0, 2**61))
        within = indices[mixing._distance(indices, move, half) <= close]
        reach = close // move + 1
        first, end = half >> 63, -(-((200_000 + reach) * move + half) >> 64)
        period, offset = 2.0**64 / move, half / 2.0**64
        centres = np.rint((np.arange(first, end) - offset) * period).astype(np.int64)
        covered = np.unique(np.add.outer(centres, np.arange(-reach, reach + 1)))
        assert np.isin(within.astype(np.int64), covered).all(), case


@pytest.mark.parametrize("angles, sigmas, epsilon, t_max", [
    ([1e-9, 2.1, 2.9], [0, 1, 1], 1e-3, 30.0),
    ([0.7, 1.9, 2.3], [1, 0, 1], 1.99, 300.0),
    ([0.7, 1.9, 2.3], [1, 0, 1], 1.2, 3000.0),
])
def test_route_memory_stays_bounded(angles, sigmas, epsilon, t_max):
    """A near-stationary class and a width near half a turn, where runs
    around crossings would be long: the whole search, route and grid,
    stays within 512 KiB traced. The first, a failure, peaks at about
    270 KB in the grid scan that ranks it; a route that let the slow class
    pivot would ask for its runs of millions of points at once."""
    result = time_search(angles, sigmas, epsilon, "real", t_max=t_max)
    tracemalloc.start()
    try:
        assert time_search(angles, sigmas, epsilon, "real", t_max=t_max) == result
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_route_logs_one_debug_record_per_search(caplog):
    """At debug level a real grid search logs one route record: its pivot
    and move, run length, crossings screened, survivors, points measured
    and exact forms, then success, or the reason it handed over to the
    grid, whose own record follows; at info level it logs nothing."""
    angles, bits = cycle_angles(9, 4), [1, 0, 1, 0]
    caplog.set_level(logging.INFO, logger="arcwalk.mixing")
    quiet = time_search(angles, bits, 0.01, "real", t_max=300.0)
    assert not caplog.records and quiet.success
    caplog.set_level(logging.DEBUG, logger="arcwalk.mixing")
    assert time_search(angles, bits, 0.01, "real", t_max=300.0) == quiet
    (line,) = [record.getMessage() for record in caplog.records]
    head, tail = line.split(" crossings screened, ")
    assert head.startswith("time search by crossings (real, d=4, ") and " pivot class " in head
    assert tail.endswith(" took the exact form; success")
    caplog.clear()
    failing = time_search(angles, [0, 1, 0, 0], 0.1, "real", t_max=300.0)
    route, grid = [record.getMessage() for record in caplog.records]
    assert not failing.success
    assert route.endswith("0 survived, 0 points measured, 0 took the exact form; "
                          "handed over to the grid: no success")
    assert grid.startswith("time search (real, d=4, ")
    caplog.clear()
    time_search(angles, bits, 1.9, "real", t_max=30.0)
    route, grid = [record.getMessage() for record in caplog.records]
    assert route.startswith("time search by crossings (real, d=4, ")
    assert route.endswith(" grid points): handed over to the grid: the width of epsilon is a "
                          "quarter turn or more")
    assert grid.startswith("time search (real, d=4, ")
