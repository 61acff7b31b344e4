"""Output checker for the arcwalk benchmark.

Every operation's output is checked here against the benchmark's own
arithmetic, never against the package's dense walk projections:

- the arc list, one step of U = R (2/k T^T T - I) and its integer powers
  are rebuilt from the adjacency matrix in O(m) per step;
- U^t x_a for real t uses the closed form over adjacency eigenvectors,
  computed with numpy's ``eigh`` and no grouping into classes;
- Hadamard certificates are re-verified in exact integer arithmetic;
- relation vectors over the angles of the cycle C_c (theta_j = 2 pi j / c)
  are re-verified in exact integer arithmetic.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

SUCCESS = "success"
BUDGET_EXHAUSTED = "budget-exhausted"
INCONCLUSIVE = "inconclusive"
HOLDS = "holds"
VIOLATED = "violated"

#: residual slack of the mixing guarantee: residual <= C_SLACK * epsilon
C_SLACK = 4.0
#: agreement required between two evaluations of the same walk state
TAU_STATE = 1e-9
#: bound on the CLI's reported verification residuals
TAU_RESIDUAL = 1e-8


class GraphData:
    """Adjacency, arc list and eigenvectors of one connected regular graph.

    Arcs are ordered by (tail, head), so arc i has tail i // k; ``rev`` maps
    arc (u, v) to (v, u).
    """

    def __init__(self, adjacency, name: str = ""):
        A = np.asarray(adjacency, dtype=np.int64)
        self.name = name
        self.adjacency = A
        self.n = A.shape[0]
        self.k = int(A[0].sum())
        self.tails, self.heads = np.nonzero(A)
        index = {(int(u), int(v)): i for i, (u, v) in enumerate(zip(self.tails, self.heads))}
        self.rev = np.array([index[(int(v), int(u))] for u, v in zip(self.tails, self.heads)])
        self.m = len(self.tails)
        values, vectors = np.linalg.eigh(A.astype(float))
        tol = 1e-8 * self.k
        self.bipartite = bool(abs(values[0] + self.k) <= tol)
        middle = np.abs(np.abs(values) - self.k) > tol
        self.eigenvalues = values[::-1]
        self.theta = np.arccos(np.clip(values[middle] / self.k, -1.0, 1.0))
        self.vectors = vectors[:, middle]
        self.top = vectors[:, -1]
        self.bottom = vectors[:, 0] if self.bipartite else None

    def start_state(self, a: int) -> np.ndarray:
        """x_a: uniform superposition over the arcs leaving vertex a."""
        x = np.zeros(self.m, dtype=complex)
        x[a * self.k:(a + 1) * self.k] = 1.0 / math.sqrt(self.k)
        return x

    def step(self, x: np.ndarray) -> np.ndarray:
        """One application of U in O(m): Grover coin per tail block, then reversal."""
        block = x.reshape(self.n, self.k)
        coined = (2.0 / self.k) * block.sum(axis=1, keepdims=True) - block
        return coined.reshape(-1)[self.rev]

    def power(self, x: np.ndarray, t: int) -> np.ndarray:
        for _ in range(t):
            x = self.step(x)
        return x

    def evolve(self, a: int, t: float) -> np.ndarray:
        """U^t x_a by the closed form over eigenvectors (principal branch).

        Amplitude on arc (u, v) is [sum over eigenpairs with theta in (0, pi)
        of (sin(t theta) phi_v - sin((t-1) theta) phi_u) phi_a / sin(theta)
        + (E_k)_{ua} + e^{i pi t} (E_-k)_{ua}] / sqrt(k).
        """
        weights = self.vectors[a] / np.sin(self.theta)
        head = self.vectors @ (np.sin(t * self.theta) * weights)
        tail = self.top * self.top[a] - self.vectors @ (np.sin((t - 1) * self.theta) * weights)
        tail = tail.astype(complex)
        if self.bipartite:
            tail += np.exp(1j * np.pi * t) * self.bottom * self.bottom[a]
        return (tail[self.tails] + head[self.heads]) / math.sqrt(self.k)

    def flat_target(self, column: np.ndarray) -> np.ndarray:
        """Lift a +-1 vertex vector to the flat arc state T^T w / sqrt(nk)."""
        return column[self.tails].astype(complex) / math.sqrt(self.n * self.k)

    def srg_params(self):
        """(n, k, a, c) when strongly regular, "complete", or "not SRG"."""
        A = self.adjacency
        A2 = A @ A
        off = ~np.eye(self.n, dtype=bool)
        adjacent, others = A2[A == 1], A2[(A == 0) & off]
        if others.size == 0:
            return "complete"
        if adjacent.min() != adjacent.max() or others.min() != others.max():
            return "not SRG"
        return [self.n, self.k, int(adjacent[0]), int(others[0])]


def hadamard_problems(H) -> list[str]:
    """Exact checks on a certificate matrix given as nested integer lists."""
    rows = [[int(v) for v in row] for row in H]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        return ["certificate is not a square matrix"]
    if any(v not in (-1, 1) for row in rows for v in row):
        return ["certificate has an entry other than +-1"]
    for i in range(n):
        for j in range(i, n):
            dot = sum(x * y for x, y in zip(rows[i], rows[j]))
            if dot != (n if i == j else 0):
                return [f"certificate fails H H^T = nI at ({i}, {j})"]
    sums = {sum(row) for row in rows}
    if len(sums) != 1:
        return ["certificate row sums are not constant"]
    root = math.isqrt(n)
    if root * root != n or abs(sums.pop()) != root:
        return [f"certificate order {n} is not a perfect square with row sum +-sqrt(n)"]
    return []


def verdict_problems(kind: str, expected: str, actual: str, verified: bool) -> list[str]:
    """Compare a verdict with the one recorded in ``expected.py``.

    A relation status may move from inconclusive to a definite status; a
    verdict may move from budget-exhausted to a success that re-verifies.
    Every other change is a failure.
    """
    if actual == expected:
        return []
    if expected == INCONCLUSIVE and actual in (HOLDS, VIOLATED):
        return []
    if expected == BUDGET_EXHAUSTED and actual == SUCCESS and verified:
        return []
    return [f"{kind} changed from {expected!r} to {actual!r}"]


def parse_cli(result, allowed=(0,)) -> tuple[dict | None, list[str]]:
    rc, out = result
    if rc not in allowed:
        return None, [f"exit code {rc}, expected one of {allowed}"]
    try:
        return json.loads(out), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_mix(result, graph: GraphData, expected: tuple[str, str | None],
              epsilon: float, vertex: int | None) -> list[str]:
    """Check one ``mix --format json --emit-matrix`` run.

    ``expected`` is the (verdict, relation status) pair from ``expected.py``;
    ``vertex`` is None for ``--simultaneous``.
    """
    verdict, status = expected
    doc, problems = parse_cli(result, allowed=(0, 1))
    if doc is None:
        return problems
    if (result[0] == 0) != (doc["verdict"] == SUCCESS):
        return [f"exit code {result[0]} does not match verdict {doc['verdict']!r}"]
    problems = []
    if doc["verdict"] == SUCCESS:
        problems += success_problems(doc, graph, epsilon, vertex)
    problems += verdict_problems("verdict", verdict, doc["verdict"], not problems)
    kron = doc.get("kronecker")
    if status is not None and kron is not None:
        problems += verdict_problems("relation status", status, kron["status"], True)
    return problems


def success_problems(doc: dict, graph: GraphData, epsilon: float, vertex: int | None) -> list[str]:
    cert = doc.get("certificate") or {}
    if "H" not in cert or doc.get("t") is None or doc.get("gamma") is None:
        return ["success without certificate matrix, time or phase"]
    problems = hadamard_problems(cert["H"])
    if problems:
        return problems
    H = np.array(cert["H"], dtype=np.int64)
    if H.shape[0] != graph.n:
        return [f"certificate order {H.shape[0]} differs from n = {graph.n}"]
    t = float(doc["t"])
    if doc["mode"] == "integer" and t != int(t):
        return [f"integer-mode time {t} is not an integer"]
    gamma = complex(*doc["gamma"])
    if vertex is None:
        evolved = np.stack([graph.evolve(a, t) for a in range(graph.n)], axis=1)
        target = np.stack([graph.flat_target(H[:, a]) for a in range(graph.n)], axis=1)
        limit = C_SLACK * epsilon * math.sqrt(graph.n)
    else:
        evolved = graph.evolve(vertex, t)
        target = graph.flat_target(H[:, vertex])
        limit = C_SLACK * epsilon
    residual = float(np.linalg.norm(evolved - gamma * target))
    if not residual <= limit:
        return [f"residual {residual:.3e} at t={t} exceeds {limit:.3e}"]
    return []


def check_analyze(result, graph: GraphData) -> list[str]:
    doc, problems = parse_cli(result)
    if doc is None:
        return problems
    values = np.repeat(doc["eigenvalues"], doc["multiplicities"])
    if doc["n"] != graph.n or doc["k"] != graph.k or len(values) != graph.n:
        return ["n, k or multiplicities do not match the graph"]
    if np.abs(values - graph.eigenvalues).max() > TAU_RESIDUAL:
        problems.append("eigenvalues differ from numpy's eigvalsh")
    if doc["bipartite"] != graph.bipartite or doc["connected"] is not True:
        problems.append("bipartite or connected flag is wrong")
    if doc["srg"] != graph.srg_params():
        problems.append(f"SRG verdict {doc['srg']!r}, expected {graph.srg_params()!r}")
    worst = max(doc["residuals"].values())
    if not worst <= TAU_RESIDUAL:
        problems.append(f"reported residual {worst:.3e} above {TAU_RESIDUAL}")
    return problems


def check_evolve(result, graph: GraphData, a: int, t: float) -> list[str]:
    doc, problems = parse_cli(result)
    if doc is None:
        return problems
    arcs = np.array(doc["arcs"]).reshape(-1, 2)
    if not (np.array_equal(arcs[:, 0], graph.tails) and np.array_equal(arcs[:, 1], graph.heads)):
        return ["arc list differs from the (tail, head) order"]
    state = np.array([complex(re, im) for re, im in doc["state"]])
    problems = state_problems(state, graph, a, t)
    if not doc["entry_formula_agreement"] <= TAU_STATE:
        problems.append(f"entry formula disagrees by {doc['entry_formula_agreement']:.3e}")
    if graph.bipartite and not doc.get("imaginary_flatness_deficit", 1.0) <= TAU_STATE:
        problems.append("imaginary part is not flat on a bipartite graph")
    return problems


def state_problems(state: np.ndarray, graph: GraphData, a: int, t: float) -> list[str]:
    """U^t x_a against the closed form, and against stepping at integer t."""
    err = float(np.abs(state - graph.evolve(a, t)).max())
    if not err <= TAU_STATE:
        return [f"U^t x_{a} at t={t} differs from the closed form by {err:.3e}"]
    if t == int(t):
        err = float(np.abs(state - graph.power(graph.start_state(a), int(t))).max())
        if not err <= TAU_STATE:
            return [f"U^t x_{a} at t={t} differs from stepping by {err:.3e}"]
    return []


def check_read(result, graph: GraphData, a: int, t: float) -> list[str]:
    """``evolve`` and ``entry_formula`` at one (a, t): agree with each other
    and with the benchmark's own evaluation."""
    walked, closed = (np.asarray(s.amplitudes) for s in result)
    err = float(np.abs(walked - closed).max())
    if not err <= TAU_STATE:
        return [f"evolve and entry_formula disagree by {err:.3e} at t={t}"]
    return state_problems(walked, graph, a, t)


def check_block(result, graph: GraphData, t: float) -> list[str]:
    """``evolve_operator`` on the start block [x_0 .. x_{n-1}]."""
    block = np.asarray(result)
    expected = np.stack([graph.evolve(a, t) for a in range(graph.n)], axis=1)
    err = float(np.abs(block - expected).max())
    return [] if err <= TAU_STATE else [f"evolve_operator differs by {err:.3e} at t={t}"]


def check_cospectral(result, expect_witness: bool | None) -> list[str]:
    """Both strong-cospectrality routes must agree; ``expect_witness`` is
    the required verdict, or None when only agreement is required."""
    adjacency, direct = (not isinstance(r, str) for r in result)
    if adjacency != direct:
        return [f"cospectrality routes disagree: adjacency {adjacency}, direct {direct}"]
    if expect_witness is not None and adjacency != expect_witness:
        return [f"expected cospectral={expect_witness}, both routes say {adjacency}"]
    return []


# --- relations over the angles of the cycle C_c ---------------------------
#
# With theta_j = 2 pi j / c (j = 1..d), an integer-mode relation
# sum l_j theta_j + 2 pi l_0 = 0 is sum l_j j = -c l_0, and a real-mode
# relation sum l_j theta_j = 0 is sum l_j j = 0. Both are exact integer
# conditions. The parity condition holds over the whole relation lattice
# exactly when sigma_j = j sigma_1 (mod 2) for every j, and in integer mode
# also sigma_1 = 0 (c is odd). When it fails, a violating relation with
# three unit coefficients exists, which bounds the alignment deficit below
# by 2 sin(pi / 6) = 1, so no time search at epsilon < 1 can succeed.


def cycle_angles(c: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(1, (c - 1) // 2 + 1) / c


def lattice_parity_holds(sigmas, mode: str) -> bool:
    sigmas = [int(s) for s in sigmas]
    chained = all(s == (j * sigmas[0]) % 2 for j, s in enumerate(sigmas, start=1))
    return chained and (mode == "real" or sigmas[0] == 0)


def relation_problems(vec, c: int, sigmas, mode: str, parity: int) -> list[str]:
    vec = [int(v) for v in vec]
    d = len(sigmas)
    coeffs = vec[:d]
    total = sum(l * j for j, l in enumerate(coeffs, start=1))
    if mode == "integer":
        if len(vec) != d + 1 or total != -c * vec[d]:
            return [f"{vec} is not an integer relation of cycle:{c}"]
    elif len(vec) != d or total != 0:
        return [f"{vec} is not a real relation of cycle:{c}"]
    if sum(l * s for l, s in zip(coeffs, sigmas)) % 2 != parity:
        return [f"relation {vec} has the wrong parity"]
    return []


def check_phase_condition(verdict, c: int, sigmas, mode: str, expected: str) -> list[str]:
    problems = verdict_problems("relation status", expected, verdict.status, True)
    for rel in verdict.relations:
        problems += relation_problems(rel, c, sigmas, mode, parity=0)
    if verdict.status == VIOLATED:
        if verdict.violating is None:
            problems.append("violated without a violating relation")
        else:
            problems += relation_problems(verdict.violating, c, sigmas, mode, parity=1)
    return problems


def alignment_deficit(angles, sigmas, t: float) -> float:
    phases = t * np.asarray(angles) + np.pi * np.asarray(sigmas)
    return float(2.0 * np.abs(np.sin(phases / 2.0)).max())


def check_time_search(result, angles, sigmas, epsilon: float, mode: str,
                      budget: int, expect_success: bool) -> list[str]:
    deficit = alignment_deficit(angles, sigmas, result.t)
    if abs(deficit - result.deficit) > TAU_STATE:
        return [f"reported deficit {result.deficit:.3e}, recomputed {deficit:.3e}"]
    verified = False
    if result.success:
        if not deficit < epsilon:
            return [f"success at t={result.t} with deficit {deficit:.3e} >= {epsilon}"]
        if mode == "integer" and not (result.t == int(result.t) and 0 <= result.t <= budget):
            return [f"integer-mode success at t={result.t} outside 0..{budget}"]
        verified = True
    expected = SUCCESS if expect_success else BUDGET_EXHAUSTED
    actual = SUCCESS if result.success else BUDGET_EXHAUSTED
    return verdict_problems("time search", expected, actual, verified)
