"""Command line front end: analyze, mix, evolve."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import graphs as G
from . import mixing as M
from .spectra import eigendecompose_symmetric, eigenvalue_support
from .walk import (
    arc_distribution,
    build_arc_space,
    entry_formula,
    evolve,
    flatness_deficit,
    imaginary_flatness_deficit,
    initial_state,
    realness_deficit,
    state_to_json,
    walk_spectrum,
)

@dataclass(frozen=True)
class RunConfig:
    """Validated run options shared by the subcommands.

    Exactly one of ``builtin`` / ``edges`` names the graph. Numbers are
    finite, tolerances, ``epsilon`` and ``t_max`` positive, ``budget`` at
    least 0 and ``relation_bound`` at least 1.
    """

    command: str
    builtin: str | None
    edges: str | None
    fmt: str
    vertex: int
    epsilon: float
    mode: str
    simultaneous: bool
    t: float
    relation_bound: int
    budget: int
    t_max: float | None
    tau_flat: float
    tau_rel: float
    emit_matrix: bool


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if (args.builtin is None) == (args.edges is None):
        raise ValueError("specify exactly one graph source: --builtin or --edges")
    cfg = RunConfig(
        command=args.command,
        builtin=args.builtin,
        edges=args.edges,
        fmt=args.format,
        vertex=getattr(args, "vertex", 0),
        epsilon=getattr(args, "epsilon", 1e-2),
        mode=getattr(args, "mode", M.MODE_INTEGER),
        simultaneous=getattr(args, "simultaneous", False),
        t=getattr(args, "t", 1.0),
        relation_bound=getattr(args, "relation_bound", M.RELATION_BOUND),
        budget=getattr(args, "budget", M.INTEGER_BUDGET),
        t_max=getattr(args, "t_max", None),
        tau_flat=getattr(args, "tau_flat", M.TAU_FLAT),
        tau_rel=getattr(args, "tau_rel", M.TAU_REL),
        emit_matrix=getattr(args, "emit_matrix", False),
    )
    for name, positive in (
        ("epsilon", True), ("t", False), ("t_max", True), ("tau_flat", True), ("tau_rel", True)
    ):
        value = getattr(cfg, name)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
        if positive and value <= 0:
            raise ValueError(f"{flag} must be positive, got {value}")
    if cfg.budget < 0:
        raise ValueError(f"--budget must be >= 0, got {cfg.budget}")
    if cfg.relation_bound < 1:
        raise ValueError(f"--relation-bound must be >= 1, got {cfg.relation_bound}")
    return cfg


_HADAMARD_4 = np.ones((4, 4), dtype=np.int64) - 2 * np.eye(4, dtype=np.int64)


def resolve_builtin(label: str) -> G.Graph:
    """Map a builtin name to a graph.

    Recognized: k4 (or k<n>, kn:<n>), c<n> / cycle:<n>, rook:<q>,
    petersen, hadamard-srg:<m> for m in 1, 2, 4, 8, 16 (order 4 m^2, from
    Kronecker powers of the order-4 Hadamard matrix J - 2I), and
    complement:<builtin>.
    """
    s = label.strip().lower()
    if s == "petersen":
        return G.petersen_graph()
    if s.startswith("complement:"):
        inner = resolve_builtin(s[len("complement:"):])
        g = G.complement(inner)
        return G.graph_from_adjacency(g.adjacency, name=s)
    match = re.fullmatch(r"k(\d+)|kn:(\d+)", s)
    if match:
        n = int(match.group(1) or match.group(2))
        return G.complete_graph(n, name=s)
    match = re.fullmatch(r"c(\d+)|cycle:(\d+)", s)
    if match:
        n = int(match.group(1) or match.group(2))
        return G.cycle_graph(n, name=s)
    match = re.fullmatch(r"rook:(\d+)", s)
    if match:
        return G.rook_graph(int(match.group(1)), name=s)
    match = re.fullmatch(r"hadamard-srg:(\d+)", s)
    if match:
        m = int(match.group(1))
        if m not in (1, 2, 4, 8, 16):
            raise ValueError(f"hadamard-srg supports m in 1, 2, 4, 8, 16, got {m}")
        H = _HADAMARD_4
        for _ in range(m.bit_length() - 1):
            H = np.kron(H, _HADAMARD_4)
        return G.srg_from_regular_hadamard(H, name=s)
    raise ValueError(f"unknown builtin graph {label!r}")


def load_graph(cfg: RunConfig) -> G.Graph:
    if cfg.builtin is not None:
        return resolve_builtin(cfg.builtin)
    return G.read_edge_list(cfg.edges)


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_analyze(cfg: RunConfig) -> int:
    g = load_graph(cfg)
    dec = eigendecompose_symmetric(g)
    ws = walk_spectrum(dec, build_arc_space(g))
    # both suites name completeness, idempotency and orthogonality
    residuals = {**dec.residuals, **ws.residuals}
    shared = dec.residuals.keys() & ws.residuals.keys()
    residuals.update((f"adjacency_{key}", dec.residuals[key]) for key in shared)
    srg = G.validate_srg(g)
    srg_out = list(srg.as_tuple()) if isinstance(srg, G.SRGParams) else srg
    supports = {a: list(eigenvalue_support(dec, a)) for a in range(g.n)}

    payload = {
        "graph": g.name or f"n{g.n}",
        "n": g.n,
        "k": g.degree,
        "connected": g.is_connected,
        "bipartite": g.is_bipartite,
        "srg": srg_out,
        "eigenvalues": [float(v) for v in dec.eigenvalues],
        "multiplicities": [int(m) for m in dec.multiplicities],
        "angles": [float(a) for a in dec.angles],
        "supports": {str(a): s for a, s in supports.items()},
        "residuals": {key: float(val) for key, val in residuals.items()},
    }
    uniform = all(s == supports[0] for s in supports.values())
    lines = [
        f"graph {payload['graph']}: n={g.n} k={g.degree} "
        f"connected={g.is_connected} bipartite={g.is_bipartite}",
        f"strongly regular: {srg_out}",
        "eigenvalues (multiplicity, angle):",
    ]
    for val, mult, ang in zip(
        payload["eigenvalues"], payload["multiplicities"], payload["angles"]
    ):
        lines.append(f"  {val:+.12g}  x{mult}  theta={ang:.12g}")
    if uniform:
        lines.append(f"eigenvalue support (all vertices): {supports[0]}")
    else:
        for a, s in supports.items():
            lines.append(f"support[{a}]: {s}")
    lines.append("residuals:")
    for key in sorted(residuals):
        lines.append(f"  {key}: {residuals[key]:.3e}")
    _emit(payload, cfg.fmt, lines)
    return 0


def cmd_mix(cfg: RunConfig) -> int:
    g = load_graph(cfg)
    kwargs = dict(
        relation_bound=cfg.relation_bound,
        budget=cfg.budget,
        t_max=cfg.t_max,
        tau_flat=cfg.tau_flat,
        tau_rel=cfg.tau_rel,
    )
    if cfg.simultaneous:
        report = M.simultaneous_mixing_check(g, cfg.epsilon, cfg.mode, **kwargs)
    else:
        report = M.local_mixing_report(g, cfg.vertex, cfg.epsilon, cfg.mode, **kwargs)

    payload = report.to_json_dict(emit_matrix=cfg.emit_matrix)
    lines = [
        f"graph {report.graph}: verdict {report.verdict}",
        f"mode={report.mode} epsilon={report.epsilon} vertex={report.vertex}",
    ]
    if report.certificate is not None:
        cert = report.certificate
        pattern = cert.pattern.label() if cert.pattern else "?"
        lines.append(
            f"certificate: order {cert.order}, pattern {pattern}, "
            f"row sum {cert.row_sum}, symmetric {cert.symmetric}"
        )
        if cfg.emit_matrix and cert.matrix is not None and cert.order <= 20:
            for row in cert.matrix:
                lines.append("  " + " ".join(f"{int(v):+d}" for v in row))
    if report.kronecker is not None:
        kron = report.kronecker
        lines.append(
            f"phase condition [{kron.mode}]: {kron.status} up to bound {kron.bound}"
        )
        for rel in kron.relations:
            lines.append(f"  relation {rel}")
        if kron.violating is not None:
            lines.append(f"  violating relation {kron.violating}")
    if report.t is not None:
        lines.append(f"t = {report.t}")
    if report.gamma is not None:
        lines.append(f"gamma = {report.gamma.real:+.12g} {report.gamma.imag:+.12g}j")
    if report.residual is not None:
        lines.append(f"residual = {report.residual:.6e}")
    if report.walk_residual is not None:
        lines.append(f"walk residual = {report.walk_residual:.3e}")
    lines.append(f"support: {list(report.support) if report.support else None}")
    for note in report.notes:
        lines.append(f"note: {note}")
    _emit(payload, cfg.fmt, lines)
    return 0 if report.verdict == M.SUCCESS else 1


def cmd_evolve(cfg: RunConfig) -> int:
    g = load_graph(cfg)
    dec = eigendecompose_symmetric(g)
    arcs = build_arc_space(g)
    ws = walk_spectrum(dec, arcs)
    x = initial_state(arcs, cfg.vertex)
    xt = evolve(ws, x, cfg.t)
    closed = entry_formula(dec, arcs, cfg.vertex, cfg.t)
    agreement = float(np.abs(xt.amplitudes - closed.amplitudes).max())
    arc_list = arcs.arcs

    payload = {
        "graph": g.name or f"n{g.n}",
        "vertex": cfg.vertex,
        "t": cfg.t,
        "arcs": [[u, v] for u, v in arc_list],
        "state": state_to_json(xt),
        "flatness_deficit": flatness_deficit(xt),
        "realness_deficit": realness_deficit(xt),
        "entry_formula_agreement": agreement,
    }
    lines = [
        f"graph {payload['graph']}: U^t x_{cfg.vertex} at t={cfg.t}",
        f"flatness deficit:  {payload['flatness_deficit']:.6e}",
        f"realness deficit:  {payload['realness_deficit']:.6e}",
        f"entry formula agreement: {agreement:.3e}",
    ]
    if g.is_bipartite:
        payload["imaginary_flatness_deficit"] = imaginary_flatness_deficit(
            g, arcs, xt, cfg.vertex, cfg.t
        )
        lines.append(
            f"imaginary flatness deficit: {payload['imaginary_flatness_deficit']:.6e}"
        )
    dist = arc_distribution(xt)
    top = np.argsort(dist)[::-1][:5]
    lines.append("top arc probabilities:")
    for i in top:
        u, v = arc_list[i]
        lines.append(f"  ({u} -> {v}): {dist[i]:.6f}")
    _emit(payload, cfg.fmt, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcwalk",
        description=(
            "Arc-reversal Grover-coin quantum walks on regular graphs: "
            "spectra, evolution, and uniform mixing certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--builtin", help="builtin graph, e.g. k4, cycle:5, rook:4, petersen, complement:k4, hadamard-srg:M with M in 1, 2, 4, 8, 16")
        src.add_argument("--edges", help="path to an edge-list file ('n m' header, 'u v' lines)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_analyze = sub.add_parser("analyze", help="spectrum, angles, supports, SRG check, residuals")
    add_common(p_analyze)

    p_mix = sub.add_parser("mix", help="epsilon-uniform mixing certification")
    add_common(p_mix)
    p_mix.add_argument("--vertex", type=int, default=0)
    p_mix.add_argument("--epsilon", type=float, default=1e-2)
    p_mix.add_argument("--mode", choices=(M.MODE_INTEGER, M.MODE_REAL), default=M.MODE_INTEGER)
    p_mix.add_argument("--simultaneous", action="store_true", help="require one time for every start vertex")
    p_mix.add_argument("--relation-bound", dest="relation_bound", type=int, default=M.RELATION_BOUND)
    p_mix.add_argument("--budget", type=int, default=M.INTEGER_BUDGET, help="integer-time scan budget")
    p_mix.add_argument("--t-max", dest="t_max", type=float, default=None, help="real-time search horizon")
    p_mix.add_argument("--tau-flat", dest="tau_flat", type=float, default=M.TAU_FLAT)
    p_mix.add_argument("--tau-rel", dest="tau_rel", type=float, default=M.TAU_REL)
    p_mix.add_argument("--emit-matrix", dest="emit_matrix", action="store_true", help="include the Hadamard matrix in the output")

    p_evolve = sub.add_parser("evolve", help="evolve the vertex state and dump it")
    add_common(p_evolve)
    p_evolve.add_argument("--vertex", type=int, default=0)
    p_evolve.add_argument("--t", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        if cfg.command == "analyze":
            return cmd_analyze(cfg)
        if cfg.command == "mix":
            return cmd_mix(cfg)
        if cfg.command == "evolve":
            return cmd_evolve(cfg)
        raise ValueError(f"unknown command {cfg.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
