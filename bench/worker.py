"""One workload process: set up, warm up, then a closed loop with one client.

Started by ``run.py`` with the BLAS and OpenMP thread variables already
set. Prints ``ready`` just before the first timed operation, so the parent
can time set-up from process start, and a JSON result as its last line.
With ``--setup-only`` it exits after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import arcwalk  # noqa: E402
from arcwalk import cli, cospec, graphs, mixing, spectra, walk  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

API = argparse.Namespace(graphs=graphs, spectra=spectra, walk=walk, cospec=cospec,
                         mixing=mixing, cli=cli)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: failure messages kept for the report
MAX_MESSAGES = 5
#: a run measures at least this many whole cycles; each slot's median is
#: taken over them
MIN_CYCLES = 2


class Calibration:
    """A fixed kernel, timed between operations, that sets the speed factor.

    On a shared host the same code runs at different speeds from one
    stretch of seconds or minutes to the next. On the 2-vCPU Intel Xeon
    virtual machine this benchmark was written on, a small ``mix`` call
    took 16 ms or 24 ms depending on when it ran, while its ratio to a
    kernel like this one stayed within +-3 %. Operation timings are therefore reported
    at a reference speed: multiplied by ``speed()``, REFERENCE_S over the
    kernel's median time in the run. ``run.py`` prints the raw values and
    the factor too.

    The kernel has five parts of about 1 ms each, one per kind of work
    the operations do: complex BLAS, an int64 matmul (numpy's own loop),
    interpreted Python, vectorized numpy, and a pass over 8 MB of memory.
    It touches its small arrays first, so whether they are in cache does
    not depend on the operation that ran before it.
    """

    #: kernel time at the reference speed
    REFERENCE_S = 0.004
    #: after an operation, the kernel runs if this long has passed since its last run
    EVERY_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self.complex = rng.random((120, 120)) + 1j * rng.random((120, 120))
        self.integer = rng.integers(0, 2, (96, 96))
        self.vector = rng.random(50_000)
        self.memory = rng.random(1_000_000)
        self.samples: list[float] = []
        self.last = 0.0

    def kernel(self) -> None:
        self.complex.sum() + self.integer.sum() + self.vector.sum()
        start = time.perf_counter()
        for _ in range(2):
            self.complex @ self.complex
        self.integer @ self.integer
        total = 0
        for j in range(10_000):
            total += j * j
        for _ in range(3):
            np.sin(self.vector).sum()
        self.memory.sum()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def tick(self) -> None:
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.kernel()

    def speed(self) -> float:
        """Factor that scales a time measured in this run to the reference speed."""
        return self.REFERENCE_S / statistics.median(self.samples)


class Tally:
    """Latencies of checked operations, by slot, and their failures."""

    def __init__(self, calibration: Calibration | None = None):
        self.latencies: list[float] = []
        self.by_slot: dict[str, list[float]] = {}
        self.failed = 0
        self.messages: list[str] = []
        self.calibration = calibration

    def cycle_time(self) -> float:
        """Sum over slots of the slot's median latency across cycles."""
        return sum(statistics.median(v) for v in self.by_slot.values())

    def execute(self, op: workloads.Op, tracer: spans.Tracer | None = None) -> None:
        """Run one operation, time only the call, then check its output."""
        if tracer:
            tracer.begin_op(op.kind)
        start = time.perf_counter()
        try:
            result, problems = op.call(), []
        except Exception as exc:  # any raise is a failed operation
            result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self.by_slot.setdefault(op.slot, []).append(elapsed)
        if tracer:
            tracer.end_op()
            if isinstance(result, workloads.CliResult):
                tracer.counts["cli.output_bytes"] += len(result.stdout)
        if not problems:
            try:
                problems = op.check(result)
            except Exception as exc:  # malformed output
                problems = [f"checker raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"{op.kind}: {'; '.join(problems)}")
        if self.calibration:
            self.calibration.tick()


def run_cycles(workload, seed: int, seconds: float, tally: Tally) -> int:
    """Run whole cycles until ``seconds`` have passed and at least MIN_CYCLES ran.

    Whole cycles keep the work of every run the same whatever the seed."""
    start = time.perf_counter()
    done = 0
    while done < MIN_CYCLES or time.perf_counter() - start < seconds:
        for op in workload.cycle(np.random.default_rng([seed, done])):
            tally.execute(op)
        done += 1
    return done


def run_traced(workload, seed: int, seconds: float, tally: Tally, traced: Tally,
               tracer: spans.Tracer) -> int:
    """Run whole cycles, each op once untraced and once traced, alternating
    which goes first: at least one cycle, and another only while it is
    expected to end within ``seconds``."""
    start = time.perf_counter()
    done = 0
    while done < 1 or (time.perf_counter() - start) * (done + 1) / done <= seconds:
        for i, op in enumerate(workload.cycle(np.random.default_rng([seed, done]))):
            for with_trace in ((False, True) if i % 2 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        traced.execute(op, tracer)
                    finally:
                        tracer.uninstall()
                else:
                    tally.execute(op)
        done += 1
    return done


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if not Path(arcwalk.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: arcwalk imported from {arcwalk.__file__}, not from the checkout",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](API, args.seed, workdir, args.smoke)
    warm = Tally()
    for op in workload.warmup():
        warm.execute(op)
    print("ready", flush=True)
    if args.setup_only:
        return 0  # the worker that goes on to the timed run counts warm-up failures

    speed, raw, samples = 1.0, {}, {}
    if args.trace:
        tally, traced = Tally(), Tally()
        tracer = spans.Tracer(arcwalk, vars(API))
        cycles = run_traced(workload, args.seed, args.seconds, tally, traced, tracer)
        tracer.write(workdir / "spans.jsonl")
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_pct"] = 100.0 * (sum(traced.latencies) / sum(tally.latencies) - 1.0)
        tally.latencies += traced.latencies
        tally.failed += traced.failed
        tally.messages += traced.messages
    else:
        calibration = Calibration()
        tally = Tally(calibration)
        cycles = run_cycles(workload, args.seed, args.seconds, tally)
        lat = tally.latencies
        raw = {
            "ops_per_s": len(tally.by_slot) / tally.cycle_time(),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        }
        speed = calibration.speed()
        metrics = {
            "ops_per_s": raw["ops_per_s"] / speed,
            "op_p50_ms": raw["op_p50_ms"] * speed,
            "op_p90_ms": raw["op_p90_ms"] * speed,
        }
        samples = {"ops": len(lat), "slots": len(tally.by_slot), "kernels": len(calibration.samples),
                   "above_p90": sum(x > raw["op_p90_ms"] / 1e3 for x in lat)}
    attempted = len(tally.latencies) + len(warm.latencies)
    tally.failed += warm.failed
    tally.messages += warm.messages
    metrics["pass_rate"] = 1.0 - tally.failed / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "attempted": attempted,
        "failed": tally.failed,
        "cycles": cycles,
        "metrics": metrics,
        "raw": raw,
        "speed": speed,
        "samples": samples,
        "messages": tally.messages,
        "environment": environment(args.seed),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
