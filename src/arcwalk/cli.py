"""Command line front end: analyze, mix, evolve."""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import re
import sys

import numpy as np

from . import graphs as G
from . import mixing as M
from .spectra import eigendecompose_symmetric, eigenvalue_supports
from .walk import (
    arc_distribution,
    build_arc_space,
    check_closed_form,
    coin_unitarity,
    entry_formula,
    evolve_by_projections,
    flatness_deficit,
    imaginary_flatness_deficit,
    initial_state,
    probe_block,
    realness_deficit,
    state_to_json,
)


def check_args(args: argparse.Namespace) -> None:
    """Reject a non-finite number, a non-positive ``--epsilon``, ``--t-max``,
    ``--tau-flat`` or ``--tau-rel``, a negative ``--budget`` and a
    ``--relation-bound`` below 1 with a ValueError naming the flag. Options
    the subcommand does not take are skipped."""
    for name, positive in (
        ("epsilon", True), ("t", False), ("t_max", True), ("tau_flat", True), ("tau_rel", True)
    ):
        value = getattr(args, name, None)
        if value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
        if positive and value <= 0:
            raise ValueError(f"{flag} must be positive, got {value}")
    for name, least in (("budget", 0), ("relation_bound", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")


LOG_LEVELS = ("debug", "info", "warning", "error")

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
        return G.complement(resolve_builtin(s[len("complement:"):]), name=s)
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


def load_graph(args: argparse.Namespace) -> G.Graph:
    if args.builtin is not None:
        return resolve_builtin(args.builtin)
    return G.read_edge_list(args.edges)


def _emit(payload: dict, fmt: str, render) -> None:
    """Print the payload as JSON, or the lines ``render()`` returns as text."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in render():
            print(line)


def cmd_analyze(args: argparse.Namespace) -> int:
    g = load_graph(args)
    dec = eigendecompose_symmetric(g)
    arcs = build_arc_space(g)
    residuals = {f"adjacency_{key}": val for key, val in dec.residuals.items()}
    residuals.update(check_closed_form(dec, arcs, probe_block(g.n)))
    residuals["unitarity"] = coin_unitarity(arcs.k)
    srg = G.validate_srg(g)
    srg_out = list(srg.as_tuple()) if isinstance(srg, G.SRGParams) else srg
    supports = [list(s) for s in eigenvalue_supports(dec)]

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
        "supports": {str(a): s for a, s in enumerate(supports)},
        "residuals": {key: float(val) for key, val in residuals.items()},
    }

    def render():
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
        if all(s == supports[0] for s in supports):
            lines.append(f"eigenvalue support (all vertices): {supports[0]}")
        else:
            lines.extend(f"support[{a}]: {s}" for a, s in enumerate(supports))
        lines.append("residuals:")
        lines.extend(f"  {key}: {residuals[key]:.3e}" for key in sorted(residuals))
        return lines

    _emit(payload, args.format, render)
    return 0


def cmd_mix(args: argparse.Namespace) -> int:
    g = load_graph(args)
    kwargs = dict(
        relation_bound=args.relation_bound,
        budget=args.budget,
        t_max=args.t_max,
        tau_flat=args.tau_flat,
        tau_rel=args.tau_rel,
    )
    if args.simultaneous:
        report = M.simultaneous_mixing_check(g, args.epsilon, args.mode, **kwargs)
    else:
        report = M.local_mixing_report(g, args.vertex, args.epsilon, args.mode, **kwargs)

    payload = report.to_json_dict(emit_matrix=args.emit_matrix)

    def render():
        lines = [
            f"graph {report.graph}: verdict {report.verdict}",
            f"mode={report.mode} epsilon={report.epsilon} vertex={report.vertex}",
            f"route: {report.route}",
        ]
        if report.certificate is not None:
            cert = report.certificate
            lines.append(
                f"certificate: order {cert.order}, pattern {cert.pattern.label()}, "
                f"row sum {cert.row_sum}, symmetric {cert.symmetric}"
            )
            if args.emit_matrix and cert.order <= 20:
                for row in cert.matrix:
                    lines.append("  " + " ".join(f"{int(v):+d}" for v in row))
        if report.kronecker is not None:
            kron = report.kronecker
            lines.append(
                f"phase condition [{kron.mode}]: {kron.status} up to bound {kron.bound}"
            )
            for rel in kron.relations.tolist():
                lines.append(f"  relation {tuple(rel)}")
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
        return lines

    _emit(payload, args.format, render)
    return 0 if report.verdict == M.SUCCESS else 1


def cmd_evolve(args: argparse.Namespace) -> int:
    g = load_graph(args)
    dec = eigendecompose_symmetric(g)
    arcs = build_arc_space(g)
    xt = entry_formula(dec, arcs, args.vertex, args.t)
    residuals = check_closed_form(dec, arcs, [args.vertex])
    x = initial_state(arcs, args.vertex).amplitudes.real
    projected = evolve_by_projections(dec, arcs, x, args.t)
    agreement = float(np.abs(projected - xt.amplitudes).max())
    arc_list = arcs.arcs

    payload = {
        "graph": g.name or f"n{g.n}",
        "vertex": args.vertex,
        "t": args.t,
        "arcs": [[u, v] for u, v in arc_list],
        "state": state_to_json(xt),
        "flatness_deficit": flatness_deficit(xt),
        "realness_deficit": realness_deficit(xt),
        "entry_formula_agreement": agreement,
        "residuals": residuals,
    }
    if g.is_bipartite:
        payload["imaginary_flatness_deficit"] = imaginary_flatness_deficit(
            g, arcs, xt, args.vertex, args.t
        )

    def render():
        lines = [
            f"graph {payload['graph']}: U^t x_{args.vertex} at t={args.t}",
            f"flatness deficit:  {payload['flatness_deficit']:.6e}",
            f"realness deficit:  {payload['realness_deficit']:.6e}",
            f"entry formula agreement: {agreement:.3e}",
            f"closed-form residuals: eigen {residuals['eigen']:.3e}, start {residuals['start']:.3e}",
        ]
        if g.is_bipartite:
            lines.append(
                f"imaginary flatness deficit: {payload['imaginary_flatness_deficit']:.6e}"
            )
        dist = arc_distribution(xt)
        lines.append("top arc probabilities:")
        for i in np.argsort(dist)[::-1][:5]:
            u, v = arc_list[i]
            lines.append(f"  ({u} -> {v}): {dist[i]:.6f}")
        return lines

    _emit(payload, args.format, render)
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
        p.add_argument("--log-level", dest="log_level", choices=LOG_LEVELS, default="warning",
                       help="least severe log record written to stderr")

    p_analyze = sub.add_parser("analyze", help="spectrum, angles, supports, SRG check, residuals")
    add_common(p_analyze)

    p_mix = sub.add_parser("mix", help="epsilon-uniform mixing certification")
    add_common(p_mix)
    p_mix.add_argument("--vertex", type=int, default=0)
    p_mix.add_argument("--epsilon", type=float, default=1e-2)
    p_mix.add_argument("--mode", choices=(M.MODE_INTEGER, M.MODE_REAL), default=M.MODE_INTEGER)
    p_mix.add_argument("--simultaneous", action="store_true", help="require one time for every start vertex")
    p_mix.add_argument("--relation-bound", dest="relation_bound", type=int, default=M.RELATION_BOUND)
    p_mix.add_argument("--budget", type=int, default=M.INTEGER_BUDGET, help=f"integer-time scan budget, cut to {M.MAX_GRID_POINTS}")
    p_mix.add_argument("--t-max", dest="t_max", type=float, default=None, help="real-time search horizon")
    p_mix.add_argument("--tau-flat", dest="tau_flat", type=float, default=M.TAU_FLAT)
    p_mix.add_argument("--tau-rel", dest="tau_rel", type=float, default=M.TAU_REL)
    p_mix.add_argument("--emit-matrix", dest="emit_matrix", action="store_true", help="include the Hadamard matrix in the output")

    p_evolve = sub.add_parser("evolve", help="evolve the vertex state and dump it")
    add_common(p_evolve)
    p_evolve.add_argument("--vertex", type=int, default=0)
    p_evolve.add_argument("--t", type=float, default=1.0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


class _StderrHandler(logging.StreamHandler):
    """A stream handler that writes to ``sys.stderr`` as it is at each
    record, so output redirected after set-up still reaches the redirect."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _):
        pass


def configure_logging(level: str) -> None:
    """Send the package's log records at ``level`` and above to stderr. The
    handler is added once per process; later calls only set the level."""
    log = logging.getLogger(__package__)
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        log.addHandler(handler)
    log.setLevel(level.upper())


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    configure_logging(args.log_level)
    try:
        check_args(args)
        command = {"analyze": cmd_analyze, "mix": cmd_mix, "evolve": cmd_evolve}[args.command]
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
