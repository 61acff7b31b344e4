"""The walk layer's reads and its closed-form check against their earlier
forms, kept in ``conftest`` as oracles, to the bit.

``apply_walk`` broadcasts the block sums where ``apply_walk_repeat`` repeats
them onto the arcs, ``entry_parts`` swaps its axes where
``entry_parts_moveaxis`` moves them, and ``check_closed_form`` takes the
classes in batches where ``check_closed_form_loop`` takes them one at a
time. The arithmetic of each value is the same, so States, operator
columns and residuals must be equal, not close, on the random regular
graphs of the evolve-sweep orders, on the bipartite cycles C_8 and C_12
(the -k class), and on petersen, k4, rook:4 and rook:6, whatever the batch
size. Non-finite times and bad States are refused up front.
"""

import math
import warnings

import numpy as np
import pytest

from arcwalk import (
    State,
    evolve,
    evolve_by_projections,
    evolve_operator,
    initial_state,
    probe_block,
    walk,
)
from arcwalk.walk import apply_walk, check_closed_form, entry_block, entry_formula, entry_parts

from conftest import (
    apply_walk_repeat,
    check_closed_form_loop,
    entry_block_oracle,
    entry_parts_moveaxis,
    evolve_operator_oracle,
)
from test_conjugate_storage import inputs

GRAPHS = ("random-16-3", "random-20-4", "random-24-3", "random-28-4", "cycle:8", "cycle:12",
          "petersen", "k4", "rook:4", "rook:6")
TIMES = (0, 1, 7, 40, 2.5, 12.5, 663, 106389.06)


def start_columns(arcs) -> np.ndarray:
    """The m x n block of start states x_a, as complex amplitudes."""
    return np.stack([initial_state(arcs, a).amplitudes for a in range(arcs.n)], axis=1)


@pytest.mark.parametrize("name", GRAPHS)
def test_apply_walk_matches_the_repeated_block_sums(name):
    _, arcs, _ = inputs(name)
    rng = np.random.default_rng(4)
    m = arcs.num_arcs
    for x in (rng.standard_normal(m), rng.standard_normal((m, 3)), start_columns(arcs),
              rng.standard_normal(m) + 1j * rng.standard_normal(m)):
        assert np.array_equal(apply_walk(arcs, x), apply_walk_repeat(arcs, x))


@pytest.mark.parametrize("name", GRAPHS)
def test_reads_match_their_earlier_forms(name):
    """evolve and entry_formula States, evolve_operator on vectors and on
    the start block, and entry_parts on one, some and all starts."""
    dec, arcs, ws = inputs(name)
    rng = np.random.default_rng(5)
    n, m = arcs.n, arcs.num_arcs
    block = start_columns(arcs)
    mixed = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    for t in TIMES:
        for a in (0, n // 2, n - 1):
            x = initial_state(arcs, a)
            assert np.array_equal(evolve(ws, x, t).amplitudes,
                                  evolve_operator_oracle(ws, x.amplitudes, t)), (a, t)
            assert np.array_equal(entry_formula(dec, arcs, a, t).amplitudes,
                                  entry_block_oracle(dec, arcs, a, t)), (a, t)
        for M in (block, block.real, mixed, mixed[:, 0]):
            assert np.array_equal(evolve_operator(ws, M, t), evolve_operator_oracle(ws, M, t)), t
        for starts in (n - 1, np.array([n - 1, 0]), np.arange(n), slice(None)):
            assert np.array_equal(entry_block(dec, arcs, np.arange(n)[starts], t),
                                  entry_block_oracle(dec, arcs, np.arange(n)[starts], t))
            for scale in (None, dec.eigenvalues):
                for got, want in zip(entry_parts(dec, starts, t, scale),
                                     entry_parts_moveaxis(dec, starts, t, scale)):
                    assert np.array_equal(got, want), (starts, t)


@pytest.mark.parametrize("classes", (1, 2, None), ids=("one-class", "two-classes", "every-class"))
@pytest.mark.parametrize("name", GRAPHS)
def test_closed_form_batches_match_the_loop_over_classes(name, classes, monkeypatch):
    """One start, the four probes and every start (and no start), with
    CLASS_BATCH_BYTES set so that a batch holds one class, two, or every
    angle class."""
    dec, arcs, _ = inputs(name)
    n, m = arcs.n, arcs.num_arcs
    for columns in ([n // 2], probe_block(n), np.arange(n), []):
        c = np.shape(columns)[-1]
        batch = dec.num_classes if classes is None else classes
        monkeypatch.setattr(walk, "CLASS_BATCH_BYTES", batch * 16 * m * c)
        assert check_closed_form(dec, arcs, columns) == check_closed_form_loop(dec, arcs, columns)


def count_defects(monkeypatch) -> list:
    calls = []
    defect = walk._eigen_defect

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return defect(*args, **kwargs)

    monkeypatch.setattr(walk, "_eigen_defect", counted)
    return calls


@pytest.mark.parametrize("name", ("random-28-4", "cycle:54"))
def test_probe_check_runs_the_walk_once_per_batch(name, monkeypatch):
    """With the four probes on 28 classes (cycle:54 has 27 angle classes and
    -2), the walk runs ceil(28 / b) times for batches of b classes, plus
    once for the -k class: at the shipped CLASS_BATCH_BYTES, 18 classes
    to a batch and two batches of angle classes."""
    dec, arcs, _ = inputs(name)
    assert dec.num_classes == 28
    calls = count_defects(monkeypatch)
    check_closed_form(dec, arcs, probe_block(arcs.n))
    live = dec.num_classes - dec.has_minus_k
    batch = walk.CLASS_BATCH_BYTES // (16 * arcs.num_arcs * walk.PROBES)
    assert len(calls) == math.ceil(live / batch) + dec.has_minus_k == 2 + dec.has_minus_k


def test_every_start_of_rook6_runs_one_class_at_a_time(monkeypatch):
    """All 36 start columns of rook:6 fill one m x 36 block per class, too
    large for two to share a batch, so each class runs alone."""
    dec, arcs, _ = inputs("rook:6")
    calls = count_defects(monkeypatch)
    check_closed_form(dec, arcs, np.arange(arcs.n))
    assert calls == [(1, arcs.num_arcs, arcs.n)] * dec.num_classes


READS = {
    "evolve": lambda dec, arcs, ws, t: evolve(ws, initial_state(arcs, 0), t),
    "evolve_operator": lambda dec, arcs, ws, t: evolve_operator(ws, start_columns(arcs), t),
    "evolve_by_projections": lambda dec, arcs, ws, t:
        evolve_by_projections(dec, arcs, initial_state(arcs, 0).amplitudes, t),
    "entry_formula": lambda dec, arcs, ws, t: entry_formula(dec, arcs, 0, t),
    "entry_block": lambda dec, arcs, ws, t: entry_block(dec, arcs, np.arange(arcs.n), t),
}


@pytest.mark.parametrize("t", (math.inf, -math.inf, math.nan), ids=("inf", "-inf", "nan"))
@pytest.mark.parametrize("read", READS)
@pytest.mark.parametrize("name", ("petersen", "cycle:8"))
def test_reads_refuse_a_time_that_is_not_finite(name, read, t):
    """A ValueError naming t, raised before any product could warn."""
    dec, arcs, ws = inputs(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^time t={t} is not finite$"):
            READS[read](dec, arcs, ws, t)


def test_state_contract():
    unit = np.full(4, 0.5)
    for bad in (np.nan, np.inf, -np.inf):
        amplitudes = unit.copy()
        amplitudes[1] = bad
        with pytest.raises(ValueError, match="norm"):
            State(amplitudes)
    with pytest.raises(ValueError, match="norm"):
        State(unit * (1 + 2e-12))
    assert np.array_equal(State(unit * (1 + 5e-13)).amplitudes, unit * (1 + 5e-13))
    with pytest.raises(ValueError, match=r"vector, got shape \(2, 2\)"):
        State(unit.reshape(2, 2))
    for given in (np.array([0, 1, 0]), np.array([0.6, 0.8]), [0.6, 0.8j]):
        assert State(given).amplitudes.dtype == complex
    source = np.array([0.6, 0.8])
    state = State(source)
    source[0] = 5.0
    assert state.amplitudes.tolist() == [0.6, 0.8]
    assert not state.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0
