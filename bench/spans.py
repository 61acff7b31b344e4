"""Layer trace taken from outside the package.

``Tracer.install`` replaces every public function of the six arcwalk
layer modules, in every arcwalk namespace that binds it by name, with a
wrapper that records a span: name, start, end, parent span and operation
id. ``mixing`` binds ``build_arc_space`` by name and ``walk_spectrum``
looks up ``walk_spectrum_residuals`` as a module global, so both calls
are seen. Spans stay in memory; ``layer_metrics`` turns them into self
times (a span's duration minus its direct children's) and counts.

Counts are computed from the arguments and return values at each layer
boundary, not measured inside the package.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time
from dataclasses import fields, is_dataclass

import numpy as np

LAYERS = ("graphs", "spectra", "walk", "cospec", "mixing", "cli")

#: function name -> self-time metric; other functions of a layer go to
#: that layer's DEFAULT metric
TIME_METRIC = {
    "validate_srg": "graphs.validate_srg_s",
    "read_edge_list": "graphs.edge_io_s",
    "parse_edge_list": "graphs.edge_io_s",
    "write_edge_list": "graphs.edge_io_s",
    "eigenvalue_support": "spectra.support_s",
    "build_arc_space": "walk.build_arc_space_s",
    "walk_spectrum": "walk.walk_spectrum_s",
    "walk_spectrum_residuals": "walk.verify_s",
    "transition_matrix": "walk.transition_matrix_s",
    "evolve": "walk.apply_s",
    "evolve_operator": "walk.apply_s",
    "entry_formula": "walk.entry_formula_s",
    "check_strong_cospectrality": "cospec.adjacency_s",
    "check_strong_cospectrality_direct": "cospec.direct_s",
    "hadamard_search": "mixing.hadamard_search_s",
    "phase_condition_check": "mixing.phase_condition_s",
    "time_search": "mixing.time_search_s",
    "phase_alignment_deficit": "mixing.time_search_s",
}
DEFAULT = {
    "graphs": "graphs.build_s",
    "spectra": "spectra.eigendecompose_s",
    "walk": "walk.other_s",
    "cospec": "cospec.other_s",
    "mixing": "mixing.report_self_s",
    "cli": "cli.self_s",
}
COUNTS = (
    "spectra.classes", "walk.arcs", "walk.dense_bytes",
    "cospec.checks", "cospec.agreeing",
    "mixing.patterns_tried", "mixing.patterns_accepted",
    "mixing.phase_condition_calls", "mixing.relation_vectors", "mixing.bound_reduced_calls",
    "mixing.time_search_calls", "mixing.time_search_successes", "mixing.time_points",
    "cli.output_bytes", "trace.observe_errors",
)

# constants of mixing.time_search when this benchmark was written, used
# only to count grid points
T_MAX_FACTOR = 1e4
MAX_GRID_POINTS = 50_000_000
REFINE_POINTS = 3 * 201


def public_functions(module):
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def square_bytes(obj, m: int) -> int:
    """Bytes of m x m arrays held by a returned array or dataclass."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.shape == (m, m) else 0
    if isinstance(obj, (tuple, list)):
        return sum(square_bytes(item, m) for item in obj)
    if is_dataclass(obj):
        return sum(square_bytes(getattr(obj, f.name), m) for f in fields(obj))
    return 0


def grid_points(args: dict, result) -> int:
    """Time points a ``time_search`` call evaluated, from its arguments and result."""
    angles = np.asarray(args["angles"], dtype=float)
    if angles.size == 0 or not np.asarray(args["sigmas"]).any():
        return 0
    if args["mode"] == "integer":
        return int(result.t) + 1 if result.success else int(args["budget"]) + 1
    if angles.size == 1:
        return 1
    step = args["epsilon"] / (4.0 * float(angles.max()))
    horizon = args["t_max"] if args["t_max"] is not None else T_MAX_FACTOR / float(angles.min())
    total = min(math.ceil(horizon / step) + 1, MAX_GRID_POINTS + 1)
    scanned = min(total, math.ceil(result.t / step) + 1) if result.success else total
    return scanned + REFINE_POINTS


class Tracer:
    """In-memory spans plus computed counts for one traced window."""

    def __init__(self, package, modules):
        self.spans: list[list] = []  # [name, start, end, parent, op id]
        self.stack: list[int] = []
        self.op_id = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.residual_ratios: list[float] = []
        self._cospec: dict[str, bool] = {}
        self._bindings = self._bind(package, modules)

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, kind: str) -> None:
        self.op_id += 1
        self._cospec = {}
        self._open(f"op.{kind}")

    def end_op(self) -> None:
        self._close(self.stack[0])
        if len(self._cospec) == 2:
            self.counts["cospec.checks"] += 1
            self.counts["cospec.agreeing"] += len(set(self._cospec.values())) == 1

    # -- wrapping --------------------------------------------------------
    def _bind(self, package, modules) -> list[tuple]:
        """(namespace, name, original, wrapper) for every public function of
        each layer module, in every arcwalk namespace that binds it."""
        wrappers = {}
        for layer in LAYERS:
            for name, fn in public_functions(modules[layer]).items():
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        return [
            (ns, key, value, wrappers[id(value)])
            for ns in (package, *modules.values())
            for key, value in vars(ns).items()
            if inspect.isfunction(value) and id(value) in wrappers
        ]

    def install(self) -> None:
        for ns, key, _, wrapper in self._bindings:
            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original, _ in self._bindings:
            setattr(ns, key, original)

    def _wrap(self, layer: str, name: str, fn):
        label = f"{layer}.{name}"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            try:
                self._observe(name, signature, args, kwargs, result)
            except (TypeError, KeyError, AttributeError):
                # a changed signature or return type must not fail the call
                self.counts["trace.observe_errors"] += 1
            return result

        return traced

    def _observe(self, name, signature, args, kwargs, result) -> None:
        c = self.counts
        if name == "eigendecompose_symmetric":
            c["spectra.classes"] += result.num_classes
        elif name == "build_arc_space":
            m = result.num_arcs
            c["walk.arcs"] += m
            c["walk.dense_bytes"] += square_bytes(result, m)
        elif name in ("transition_matrix", "walk_spectrum"):
            m = result.shape[0] if name == "transition_matrix" else result.num_arcs
            c["walk.dense_bytes"] += square_bytes(result, m)
        elif name in ("check_strong_cospectrality", "check_strong_cospectrality_direct"):
            self._cospec[name] = not isinstance(result, str)
        elif name == "hadamard_search":
            bound = signature.bind(*args, **kwargs)
            c["mixing.patterns_tried"] += 2 ** (bound.arguments["dec"].num_classes - 1)
            c["mixing.patterns_accepted"] += len(result)
        elif name == "phase_condition_check":
            bound = signature.bind(*args, **kwargs)
            d = len(bound.arguments["angles"])
            c["mixing.phase_condition_calls"] += 1
            c["mixing.relation_vectors"] += ((2 * result.bound + 1) ** d - 1) // 2
            c["mixing.bound_reduced_calls"] += result.bound < result.requested_bound
        elif name == "time_search":
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            c["mixing.time_search_calls"] += 1
            c["mixing.time_search_successes"] += bool(result.success)
            c["mixing.time_points"] += grid_points(bound.arguments, result)
        elif name in ("local_mixing_report", "simultaneous_mixing_check"):
            if result.verdict == "success":
                bound = signature.bind(*args, **kwargs)
                limit = 4.0 * bound.arguments["epsilon"]
                if name == "simultaneous_mixing_check":
                    limit *= math.sqrt(bound.arguments["g"].n)
                self.residual_ratios.append(result.residual / limit)

    # -- results ---------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Self time per metric and layer, shares of op time, and counts."""
        by_name = self.self_times()
        op_time = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
        metrics = {name: 0.0 for name in (*TIME_METRIC.values(), *DEFAULT.values())}
        layer_time = dict.fromkeys(LAYERS, 0.0)
        unattributed = 0.0
        for name, seconds in by_name.items():
            layer, _, fn = name.partition(".")
            if layer == "op":
                unattributed += seconds
                continue
            metrics[TIME_METRIC.get(fn, DEFAULT[layer])] += seconds
            layer_time[layer] += seconds
        for layer, seconds in layer_time.items():
            metrics[f"{layer}.share_pct"] = 100.0 * seconds / op_time if op_time else 0.0
        metrics["trace.unattributed_pct"] = 100.0 * unattributed / op_time if op_time else 0.0
        metrics["trace.op_time_s"] = op_time
        metrics["trace.ops"] = self.op_id + 1
        metrics["trace.spans"] = len(self.spans)
        metrics.update({k: float(v) for k, v in self.counts.items()})
        c = self.counts
        metrics["cospec.route_agreement"] = c["cospec.agreeing"] / c["cospec.checks"] if c["cospec.checks"] else 0.0
        metrics["mixing.bound_reduced"] = (
            c["mixing.bound_reduced_calls"] / c["mixing.phase_condition_calls"]
            if c["mixing.phase_condition_calls"] else 0.0
        )
        metrics["mixing.time_search_hits"] = (
            c["mixing.time_search_successes"] / c["mixing.time_search_calls"]
            if c["mixing.time_search_calls"] else 0.0
        )
        metrics["mixing.report_successes"] = float(len(self.residual_ratios))
        metrics["mixing.residual_ratio"] = (
            statistics.median(self.residual_ratios) if self.residual_ratios else 0.0
        )
        return metrics

    def write(self, path) -> None:
        """Write spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
