"""Self-tests of the benchmark: its checker must turn wrong outputs into
failed operations, and each workload must run at a tiny size.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def graph(name: str) -> check.GraphData:
    return workloads.builtin_data(worker.API, [name])[name]


def failed_count(op: workloads.Op, tamper) -> int:
    """Run ``op``, let ``tamper`` rewrite its JSON output, and count failures."""
    rc, out = op.call()
    doc = json.loads(out)
    rc = tamper(doc)
    tally = worker.Tally()
    tally.execute(workloads.Op(op.kind, lambda: workloads.CliResult(rc, json.dumps(doc)), op.check))
    return tally.failed


def test_untouched_output_passes():
    op = workloads.mix_op(worker.API, graph("rook:4"), "integer", 0.1, 3)
    assert failed_count(op, lambda doc: 0) == 0


@pytest.mark.parametrize("vertex", [0, None])
def test_flipped_certificate_entry_fails(vertex):
    op = workloads.mix_op(worker.API, graph("k4"), "integer", 0.1, vertex)

    def flip(doc):
        doc["certificate"]["H"][1][2] *= -1
        return 0

    assert failed_count(op, flip) == 1


@pytest.mark.parametrize("mode", ["integer", "real"])
def test_residual_above_bound_fails(mode):
    op = workloads.mix_op(worker.API, graph("rook:4"), mode, 0.1, 5)

    def negate_phase(doc):
        doc["gamma"] = [-doc["gamma"][0], -doc["gamma"][1]]
        return 0

    assert failed_count(op, negate_phase) == 1


@pytest.mark.parametrize("name, verdict", [("k4", "phase-obstruction"),
                                           ("petersen", "budget-exhausted")])
def test_changed_definite_verdict_fails(name, verdict):
    op = workloads.mix_op(worker.API, graph(name), "integer", 0.1, 0)

    def change(doc):
        doc["verdict"] = verdict
        return 1

    assert failed_count(op, change) == 1


def test_allowed_verdict_moves():
    assert check.verdict_problems("status", "inconclusive", "holds", True) == []
    assert check.verdict_problems("status", "inconclusive", "violated", True) == []
    assert check.verdict_problems("verdict", "budget-exhausted", "success", True) == []
    assert check.verdict_problems("verdict", "budget-exhausted", "success", False)
    assert check.verdict_problems("status", "holds", "inconclusive", True)


def test_forged_violating_relation_fails():
    bits = np.array([1, 0, 0, 0, 0, 0])
    verdict = worker.API.mixing.phase_condition_check(check.cycle_angles(13), bits, "integer")
    assert check.check_phase_condition(verdict, 13, bits, "integer", "violated") == []
    forged = dataclasses.replace(verdict, violating=(1, 0, 0, 0, 0, 0, 0))
    assert check.check_phase_condition(forged, 13, bits, "integer", "violated")


@pytest.mark.parametrize("name", ["petersen", "cycle:8", "complement:rook:4"])
def test_checker_closed_form_matches_stepping_and_package(name):
    g = graph(name)
    for t in (0, 1, 4, 9):
        np.testing.assert_allclose(g.evolve(2, t), g.power(g.start_state(2), t), atol=1e-12)
    api = worker.API
    base = api.cli.resolve_builtin(name)
    dec = api.spectra.eigendecompose_symmetric(base)
    arcs = api.walk.build_arc_space(base)
    for t in (2.5, 7.25):
        ref = api.walk.entry_formula(dec, arcs, 2, t).amplitudes
        np.testing.assert_allclose(g.evolve(2, t), ref, atol=1e-12)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(name, trace):
    out = run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.5",
                    "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in wanted]
    for m in wanted:
        assert any(line.startswith(f"{m['name']}: ") and f" {m['unit']}" in line for line in lines)


def test_fails_without_the_package_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = run_bench(bare, "--workload", "mix-srg", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
