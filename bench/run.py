"""Run one workload of the arcwalk benchmark and print its metrics.

    python3 bench/run.py --workload mix-srg --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the package from ``src``.
Every metric is printed by name with its unit and sample count, then the
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics. ``--smoke``
runs a tiny version of the workload for the benchmark's own tests.

Set-up is timed from process start to the first timed operation. It is
done SETUPS times, each in a fresh worker process, and its median is
reported; the last worker goes on to the timed run. Every worker runs with
the BLAS and OpenMP thread counts pinned before numpy is imported.

Operation timings are scaled to a reference machine speed measured by a
fixed kernel that runs between operations (``worker.Calibration``); the
raw times and the factor are printed next to each metric. Set-up time is
not scaled.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the whole run, set-ups included, is stopped after this many seconds
DEADLINE_S = 170.0

#: share of traced op time each workload was chosen for: (metrics summed, minimum %)
DOMINANCE = {
    "mix-srg": (("walk.share_pct",), 50.0),
    "search-real": (("mixing.phase_condition_s", "mixing.time_search_s"), 50.0),
    "evolve-sweep": (("walk.apply_s", "walk.entry_formula_s"), 10.0),
}


def run_worker(argv: list[str], env: dict, deadline: float):
    """Start a worker; return (seconds to its ``ready`` line, last line, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line.strip()
        rc = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    return ready, last, rc


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "arcwalk" / "__init__.py").is_file():
        return fail(f"no arcwalk sources under {ROOT / 'src'}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    threads = str(min(THREADS, os.cpu_count() or 1))
    env.update({var: threads for var in THREAD_VARS})
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    worker_argv += ["--smoke"] if args.smoke else []

    setups = []  # only --trace 0 reports set-up time
    for _ in range(SETUPS - 1 if args.trace == 0 else 0):
        ready, _, rc = run_worker(worker_argv + ["--setup-only"], env, deadline)
        if ready is None or rc != 0:
            return fail(f"set-up worker exited with code {rc}")
        setups.append(ready)
    ready, line, rc = run_worker(worker_argv, env, deadline)
    if ready is None or rc != 0 or line is None:
        return fail(f"worker exited with code {rc} without a result")
    result = json.loads(line)
    setups.append(ready)
    measured = result["metrics"]
    measured["setup_s"] = statistics.median(setups)

    print("environment: " + json.dumps(result["environment"]))
    for message in result["messages"]:
        print(f"failed operation: {message}", file=sys.stderr)
    samples = result["samples"]
    raw = result["raw"]
    scaled = (f"; raw {{:.6g}} at speed factor {result['speed']:.4f} "
              f"from {samples.get('kernels')} kernel runs")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "pass_rate": f"{result['failed']} failed of {result['attempted']} ops, "
                     f"fail_rate {result['failed'] / result['attempted']:.4g}",
        "ops_per_s": f"{samples.get('slots')} ops per cycle over the summed slot medians "
                     f"of {result['cycles']} whole cycles" + scaled.format(raw.get("ops_per_s", 0)),
        "op_p50_ms": f"{samples.get('ops')} samples" + scaled.format(raw.get("op_p50_ms", 0)),
        "op_p90_ms": f"{samples.get('ops')} samples, {samples.get('above_p90')} above"
                     + scaled.format(raw.get("op_p90_ms", 0)),
        "peak_rss_mb": "worker process, set-up and timed run, with the 8 MB of calibration arrays",
    }
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in measured:
            return fail(f"metric {name} was not measured")
        metrics[name] = {"value": measured[name], "unit": entry["unit"]}
        note = notes.get(name, "traced window" if args.trace else "")
        print(f"{name}: {measured[name]:.6g} {entry['unit']}" + (f"  ({note})" if note else ""))
    if args.trace:
        names, minimum = DOMINANCE[args.workload]
        total = sum(measured[n] for n in names)
        share = total if names[0].endswith("_pct") else 100.0 * total / measured["trace.op_time_s"]
        verdict = "confirmed" if share >= minimum else "NOT confirmed"
        if args.smoke:
            verdict = "not judged at smoke size"
        print(f"dominance: {' + '.join(names)} = {share:.1f}% of "
              f"{measured['trace.op_time_s']:.3f} s traced op time "
              f"(chosen for >= {minimum:.0f}%): {verdict}")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
