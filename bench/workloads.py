"""The three workloads: inputs drawn from the seed, operations and checks.

A workload runs in cycles. Every cycle holds the same multiset of
operation kinds and sizes; the seed only draws start vertices, epsilons,
sign bits, times and the random graphs, and shuffles the order. Whole
cycles are measured, so two seeds do the same amount of work.

Each operation is a call into arcwalk, through ``arcwalk.cli.main`` with
stdout captured or through a public verdict function, looked up on its
module at call time so the layer trace sees it.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import check
import expected


class CliResult(NamedTuple):
    rc: int
    stdout: str


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    #: position in the cycle before shuffling; the same slot in every cycle
    #: has the same kind and size
    slot: str = ""


def shuffled(ops: list[Op], rng, prefix: str = "") -> list[Op]:
    """Name each op's slot by its position, then shuffle the order."""
    for i, op in enumerate(ops):
        op.slot = f"{prefix}{i}"
    return [ops[i] for i in rng.permutation(len(ops))]


def cli_call(api, argv: list[str]) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = api.cli.main(argv)
    return CliResult(rc, buf.getvalue())


def mix_op(api, graph: check.GraphData, mode: str, epsilon: float, vertex: int | None) -> Op:
    """``mix`` from ``vertex``, or ``--simultaneous`` when vertex is None."""
    argv = ["mix", "--builtin", graph.name, "--mode", mode, "--epsilon", repr(epsilon),
            "--format", "json", "--emit-matrix"]
    argv += ["--simultaneous"] if vertex is None else ["--vertex", str(vertex)]
    want = expected.mix_verdict(graph.name, mode, epsilon)
    return Op("mix", lambda: cli_call(api, argv),
              lambda r: check.check_mix(r, graph, want, epsilon, vertex))


def builtin_data(api, names) -> dict[str, check.GraphData]:
    return {name: check.GraphData(api.cli.resolve_builtin(name).adjacency, name) for name in names}


class MixSrg:
    """``mix`` in integer mode at epsilon 0.1, 0.05 and 0.01 on strongly
    regular graphs. rook:6 and rook:8 run once per cycle in each of local and
    simultaneous form, at a drawn epsilon; the smaller graphs run every
    combination twice, from drawn vertices."""

    SMALL = ("k4", "hadamard-srg:1", "petersen", "rook:4", "hadamard-srg:2",
             "complement:rook:4", "rook:5")
    LARGE = ("rook:6", "rook:8")
    EPSILONS = (0.1, 0.05, 0.01)
    REPEATS = 2

    def __init__(self, api, seed: int, workdir: Path, smoke: bool):
        self.api = api
        self.small = self.SMALL[:4] if smoke else self.SMALL
        self.large = () if smoke else self.LARGE
        self.graphs = builtin_data(api, self.small + self.large)

    def warmup(self) -> list[Op]:
        k4, rook = self.graphs["k4"], self.graphs["rook:4"]
        return [mix_op(self.api, g, "integer", 0.1, v) for g in (k4, rook) for v in (0, None)]

    def cycle(self, rng) -> list[Op]:
        ops = []
        for name in self.small:
            g = self.graphs[name]
            for _ in range(self.REPEATS):
                for eps in self.EPSILONS:
                    ops.append(mix_op(self.api, g, "integer", eps, int(rng.integers(g.n))))
                    ops.append(mix_op(self.api, g, "integer", eps, None))
        for name in self.large:
            g = self.graphs[name]
            for vertex in (int(rng.integers(g.n)), None):
                ops.append(mix_op(self.api, g, "integer", float(rng.choice(self.EPSILONS)), vertex))
        return shuffled(ops, rng)


class SearchReal:
    """Real-mode ``mix`` at four epsilons and tight-epsilon integer ``mix``
    on small graphs, plus direct ``phase_condition_check`` and
    ``time_search`` calls on the angles of odd cycles with drawn sign bits.

    All-zero bits make the relation scan run to its enumeration cap. The
    bits sigma_j = j mod 2 hold in real mode, where the walk aligns at
    t = c/2. The remaining bits are drawn at random among those that
    violate the parity condition, so that every cycle does the same kinds
    of scan whatever the seed."""

    GRAPHS = ("k4", "rook:4", "hadamard-srg:2", "complement:rook:4")
    REAL_EPSILONS = (0.1, 0.03, 0.01, 0.003)
    TIGHT_EPSILONS = (1e-3, 1e-4)
    CYCLES = (9, 13, 17)
    BUDGET = 10**6

    def __init__(self, api, seed: int, workdir: Path, smoke: bool):
        self.api = api
        self.names = self.GRAPHS[:2] if smoke else self.GRAPHS
        self.real_epsilons = self.REAL_EPSILONS[:2] if smoke else self.REAL_EPSILONS
        self.cycles = self.CYCLES[:1] if smoke else self.CYCLES
        self.graphs = builtin_data(api, self.names)

    def relation_op(self, c: int, bits, mode: str) -> Op:
        angles = check.cycle_angles(c)
        holds = check.lattice_parity_holds(bits, mode)
        want = expected.CLEAN_SCAN[c] if holds else check.VIOLATED
        return Op("phase_condition",
                  lambda: self.api.mixing.phase_condition_check(angles, bits, mode),
                  lambda r: check.check_phase_condition(r, c, bits, mode, want))

    def search_op(self, c: int, bits, mode: str, epsilon: float) -> Op:
        angles = check.cycle_angles(c)
        holds = check.lattice_parity_holds(bits, mode)
        return Op("time_search",
                  lambda: self.api.mixing.time_search(angles, bits, epsilon, mode),
                  lambda r: check.check_time_search(r, angles, bits, epsilon, mode,
                                                    self.BUDGET, holds))

    def warmup(self) -> list[Op]:
        k4 = self.graphs["k4"]
        bits = np.array([1, 0, 1, 0])
        return [mix_op(self.api, k4, "real", 0.1, 0), mix_op(self.api, k4, "integer", 1e-3, 0),
                self.relation_op(9, bits, "integer"), self.search_op(9, bits, "real", 0.01)]

    def cycle(self, rng) -> list[Op]:
        ops = []
        for name in self.names:
            g = self.graphs[name]
            for eps in self.real_epsilons:
                ops.append(mix_op(self.api, g, "real", eps, int(rng.integers(g.n))))
            for eps in self.TIGHT_EPSILONS:
                ops.append(mix_op(self.api, g, "integer", eps, int(rng.integers(g.n))))

        def violated(d: int, mode: str):
            while check.lattice_parity_holds(bits := rng.integers(0, 2, d), mode):
                pass
            return bits

        for c in self.cycles:
            d = (c - 1) // 2
            alternating = np.arange(1, d + 1) % 2
            for mode in ("integer", "real"):
                ops.append(self.relation_op(c, np.zeros(d, dtype=np.int64), mode))
                ops.append(self.relation_op(c, violated(d, mode), mode))
                ops.append(self.relation_op(c, violated(d, mode), mode))
                ops.append(self.search_op(c, violated(d, mode), mode, 0.1))
            ops.append(self.search_op(c, alternating, "real", 0.01))
            ops.append(self.search_op(c, alternating, "real", 0.003))
        return shuffled(ops, rng)


def random_regular(n: int, k: int, rng) -> np.ndarray:
    """Adjacency of a connected, non-bipartite simple k-regular graph on n
    vertices with n distinct eigenvalues: the pairing model, rejecting
    loops, multi-edges and graphs without those properties. Every graph of
    a given (n, k) then has n eigenvalue classes, so its walk spectrum costs
    the same whatever the seed."""
    while True:
        pairs = rng.permutation(np.repeat(np.arange(n), k)).reshape(-1, 2)
        u, v = pairs.min(axis=1), pairs.max(axis=1)
        if (u == v).any() or len(np.unique(u * n + v)) != len(u):
            continue
        A = np.zeros((n, n), dtype=np.int64)
        A[u, v] = A[v, u] = 1
        reached = np.zeros(n, dtype=bool)
        reached[0] = True
        for _ in range(n):
            reached = reached | (A[reached].sum(axis=0) > 0)
        values = np.linalg.eigvalsh(A.astype(float))
        if reached.all() and np.diff(values).min() > 1e-6 and values[0] > -k + 1e-6:
            return A


def write_edges(A: np.ndarray, path: Path) -> None:
    u, v = np.nonzero(np.triu(A))
    lines = [f"{A.shape[0]} {len(u)}"] + [f"{a} {b}" for a, b in zip(u, v)]
    path.write_text("\n".join(lines) + "\n")


class EvolveSweep:
    """Per graph and cycle: CLI ``analyze`` and ``evolve`` through
    ``--edges`` and one API build of the walk spectrum; then READS calls of
    ``evolve`` plus ``entry_formula`` at drawn integer and half-integer
    times, one ``evolve_operator`` on the start block, and both
    cospectrality routes on (x_a, U^t x_a) and on (x_a, x_b).

    The random graphs have fixed (n, k); the seed draws their edges."""

    RANDOM = ((16, 3), (20, 4), (24, 3), (28, 4))
    BUILTIN = ("cycle:8", "cycle:12", "petersen")
    READS = 300
    COSPECTRAL = 3
    T_MAX = 40

    def __init__(self, api, seed: int, workdir: Path, smoke: bool):
        self.api = api
        rng = np.random.default_rng([seed, 1 << 20])
        adjacency = {f"random-{n}-{k}": random_regular(n, k, rng)
                     for n, k in (((12, 3),) if smoke else self.RANDOM)}
        for name in (self.BUILTIN[1:] if smoke else self.BUILTIN):
            adjacency[name] = api.cli.resolve_builtin(name).adjacency
        self.reads = 10 if smoke else self.READS
        self.graphs, self.paths = {}, {}
        for name, A in adjacency.items():
            path = workdir / f"{name.replace(':', '-')}.edges"
            write_edges(A, path)
            self.graphs[name] = check.GraphData(A, name)
            self.paths[name] = str(path)

    def draw_time(self, rng) -> float:
        return int(rng.integers(self.T_MAX + 1)) + 0.5 * int(rng.integers(2))

    def graph_ops(self, name: str, rng, reads: int) -> tuple[list[Op], list[Op]]:
        """The CLI runs and the build of one graph, and the operations that
        read the build."""
        api, g, path = self.api, self.graphs[name], self.paths[name]
        built = {}

        def build():
            graph = api.graphs.read_edge_list(path)
            dec = api.spectra.eigendecompose_symmetric(graph)
            arcs = api.walk.build_arc_space(graph)
            built["dec"], built["arcs"] = dec, arcs
            built["ws"] = api.walk.walk_spectrum(dec, arcs)
            return arcs

        def check_build(arcs):
            order = np.array(arcs.arcs).reshape(-1, 2)
            if not (np.array_equal(order[:, 0], g.tails) and np.array_equal(order[:, 1], g.heads)):
                return ["arc order differs from (tail, head) order"]
            return []

        def read_op(a: int, t: float) -> Op:
            def call():
                x = api.walk.initial_state(built["arcs"], a)
                return (api.walk.evolve(built["ws"], x, t),
                        api.walk.entry_formula(built["dec"], built["arcs"], a, t))
            return Op("read", call, lambda r: check.check_read(r, g, a, t))

        def block_op(t: float) -> Op:
            block = np.stack([g.start_state(a) for a in range(g.n)], axis=1)
            return Op("evolve_operator", lambda: api.walk.evolve_operator(built["ws"], block, t),
                      lambda r: check.check_block(r, g, t))

        def cospectral_op(a: int, target, expect) -> Op:
            def call():
                x = api.walk.initial_state(built["arcs"], a)
                y = api.walk.State(target)
                return (api.cospec.check_strong_cospectrality(built["dec"], built["arcs"], a, y),
                        api.cospec.check_strong_cospectrality_direct(built["ws"], x, y))
            return Op("cospectrality", call, lambda r: check.check_cospectral(r, expect))

        a, t = int(rng.integers(g.n)), self.draw_time(rng)
        analyze = ["analyze", "--edges", path, "--format", "json"]
        evolve = ["evolve", "--edges", path, "--vertex", str(a), "--t", repr(t), "--format", "json"]
        head = [
            Op("analyze", lambda: cli_call(api, analyze), lambda r: check.check_analyze(r, g)),
            Op("evolve_cli", lambda: cli_call(api, evolve),
               lambda r, a=a, t=t: check.check_evolve(r, g, a, t)),
            Op("build", build, check_build),
        ]
        tail = [read_op(int(rng.integers(g.n)), self.draw_time(rng)) for _ in range(reads)]
        tail.append(block_op(self.draw_time(rng)))
        if not g.bipartite:
            for _ in range(self.COSPECTRAL):
                u, v = (int(x) for x in rng.choice(g.n, size=2, replace=False))
                steps = int(rng.integers(1, self.T_MAX + 1))
                tail.append(cospectral_op(u, g.evolve(u, steps), True))
                tail.append(cospectral_op(u, g.start_state(v), None))
        for i, op in enumerate(head + tail):
            op.slot = f"{name}/{i}"
        return head, tail

    def warmup(self) -> list[Op]:
        head, tail = self.graph_ops("petersen", np.random.default_rng(0), reads=2)
        return head + tail

    def cycle(self, rng) -> list[Op]:
        """The builds of all graphs, then all reads and checks in one shuffled
        sequence, so each graph's reads are spread over the cycle."""
        heads, tails = [], []
        for name in self.graphs:
            head, tail = self.graph_ops(name, rng, self.reads)
            heads.append(head)
            tails += tail
        return ([op for i in rng.permutation(len(heads)) for op in heads[i]]
                + [tails[i] for i in rng.permutation(len(tails))])


WORKLOADS = {"mix-srg": MixSrg, "search-real": SearchReal, "evolve-sweep": EvolveSweep}
