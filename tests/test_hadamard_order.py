"""The order test in front of the Hadamard search against full enumeration.

A regular Hadamard matrix has order 1 or 4u^2, so at any other order the
search returns no certificate, even past MAX_CLASSES. Here every sign
pattern is enumerated regardless of MAX_CLASSES, and the flat ones are
compared with the search: none at the excluded orders, the same patterns
at 4u^2.
"""

import itertools

import numpy as np
import pytest

from arcwalk import eigendecompose_symmetric, graph_from_adjacency, hadamard_search, mixing
from arcwalk.cli import main, resolve_builtin
from arcwalk.mixing import TAU_FLAT

#: one enumerated product holds this many patterns
BLOCK = 1024


def flat_patterns(dec, tau=TAU_FLAT):
    """Sigma bits of every canonical pattern whose combination
    sqrt(n) (E_0 + sum_r (-1)^sigma_r E_r) is entrywise within tau of +-1,
    in encoding order, at any number of classes."""
    d = dec.num_classes - 1
    rows = np.sqrt(dec.n) * dec.idempotents.reshape(d + 1, -1)
    patterns = itertools.product((0, 1), repeat=d)
    found = []
    while block := list(itertools.islice(patterns, BLOCK)):
        bits = np.array(block, dtype=np.int64).reshape(len(block), d)
        combos = np.column_stack([np.ones(len(bits)), 1 - 2 * bits]) @ rows
        flat = np.abs(np.abs(combos) - 1.0).max(axis=1) <= tau
        found.extend(tuple(b) for b in bits[flat].tolist())
    return found


def mixable(g):
    return g.degree is not None and g.is_connected and not g.is_bipartite


def check_against_enumeration(g):
    """The search's patterns are the enumerated ones, and there are none
    at an order other than 1 or 4u^2; returns the number of classes."""
    dec = eigendecompose_symmetric(g)
    want = flat_patterns(dec)
    if not mixing._regular_hadamard_order(g.n):
        assert want == [] and hadamard_search(dec) == [], g.name
    else:
        assert [c.pattern.sigmas for c in hadamard_search(dec)] == want, g.name
    return dec.num_classes - 1


BUILTINS = (
    [f"k{n}" for n in range(3, 17)]
    + [f"cycle:{c}" for c in range(3, 32, 2)]
    + [f"rook:{q}" for q in range(2, 7)]
    + ["petersen"]
    + [f"hadamard-srg:{m}" for m in (1, 2, 4, 8)]
)


MIXABLE = [name for name in BUILTINS + [f"complement:{name}" for name in BUILTINS]
           if mixable(resolve_builtin(name))]


@pytest.mark.parametrize("name", MIXABLE)
def test_search_matches_the_enumeration_on_builtins(name):
    d = check_against_enumeration(resolve_builtin(name))
    if name == "cycle:31":
        assert d > mixing.MAX_CLASSES


def random_regular(n, k, rng):
    """A simple k-regular graph on n vertices from the pairing model."""
    while True:
        pairs = rng.permutation(np.repeat(np.arange(n), k)).reshape(-1, 2)
        u, v = pairs.min(axis=1), pairs.max(axis=1)
        if (u != v).all() and len(np.unique(u * n + v)) == len(u):
            A = np.zeros((n, n), dtype=np.int64)
            A[u, v] = A[v, u] = 1
            return graph_from_adjacency(A, name=f"random-{n}-{k}")


def random_circulant(n, k, rng):
    """A circulant k-regular graph on n vertices with drawn jumps."""
    jumps = rng.choice(np.arange(1, (n + 1) // 2), size=k // 2, replace=False)
    if k % 2:
        jumps = np.append(jumps, n // 2)
    A = np.zeros((n, n), dtype=np.int64)
    for j in jumps:
        A[np.arange(n), (np.arange(n) + j) % n] = 1
    A = A | A.T
    return graph_from_adjacency(A, name=f"circulant-{n}-{sorted(jumps.tolist())}")


def test_search_matches_the_enumeration_on_random_regular_graphs():
    """Seeded graphs with n <= 40 and degree <= 12 whose non-valency
    classes number at most MAX_CLASSES: pairing-model graphs (n <= 13, as
    their eigenvalues are simple; degree <= 5, where the pairing model
    succeeds often) and circulants (n <= 40, degree <= 12), order 16
    among them."""
    rng = np.random.default_rng(2024)
    graphs = []
    for _ in range(40):
        n = int(rng.integers(5, 14))
        k = int(rng.integers(2, min(5, n - 2) + 1))
        if n * k % 2 == 0:
            graphs.append(random_regular(n, k, rng))
    for n in list(range(5, 41)) + [16, 16, 16]:
        k = int(rng.integers(2, min(12, n - 1) + 1))
        if k % 2 == 0 or n % 2 == 0:
            graphs.append(random_circulant(n, k, rng))
    checked, orders = 0, set()
    for g in graphs:
        if not mixable(g) or eigendecompose_symmetric(g).num_classes - 1 > mixing.MAX_CLASSES:
            continue
        check_against_enumeration(g)
        checked += 1
        orders.add(g.n)
    assert checked >= 30 and 16 in orders


def test_mix_on_cycle_31_is_no_flat_target(capsys):
    """cycle:31 has 15 non-valency classes, past MAX_CLASSES; its order
    decides the verdict before the class limit is consulted."""
    assert main(["mix", "--builtin", "c31", "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert '"verdict":"no-flat-target"' in out.replace(" ", "")
    assert "order 31 is not 1 or an even square 4u^2" in out


def test_an_odd_square_order_is_noted():
    report = mixing.local_mixing_report(resolve_builtin("rook:3"), 0, 0.1, "integer")
    assert report.verdict == mixing.NO_FLAT_TARGET
    assert any(note.startswith("order 9 is not 1 or an even square 4u^2") for note in report.notes)


class NoIdempotents:
    """The sizes of a decomposition whose idempotents may not be read."""

    def __init__(self, dec):
        self.n, self.num_classes = dec.n, dec.num_classes

    @property
    def idempotents(self):
        raise AssertionError("a sign combination was formed")


@pytest.mark.parametrize("name", ["k5", "petersen", "rook:3", "cycle:25"])
def test_excluded_orders_form_no_combination(name):
    """At an order other than 1 or 4u^2 the search answers from the order
    alone, without reading an idempotent, however loose the tolerance."""
    dec = eigendecompose_symmetric(resolve_builtin(name))
    assert not mixing._regular_hadamard_order(dec.n)
    assert hadamard_search(NoIdempotents(dec), tau_flat=10.0) == []
    assert flat_patterns(dec) == []


def test_the_class_limit_still_holds_at_orders_4u2():
    """At order 16 a graph with more than MAX_CLASSES classes is refused."""
    rng = np.random.default_rng(5)
    while True:
        g = random_regular(16, 4, rng)
        if mixable(g) and eigendecompose_symmetric(g).num_classes - 1 > mixing.MAX_CLASSES:
            break
    with pytest.raises(ValueError, match="search limit"):
        hadamard_search(eigendecompose_symmetric(g))


@pytest.mark.parametrize("n, allowed", [(1, True), (2, False), (4, True), (8, False),
                                        (9, False), (16, True), (25, False), (36, True),
                                        (64, True), (100, True), (144, True), (1024, True)])
def test_regular_hadamard_orders(n, allowed):
    assert mixing._regular_hadamard_order(n) == allowed
