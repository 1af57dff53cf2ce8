"""The klcodes benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload tilt --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; klcodes is imported from its
`src/`.  With --trace 0 the last line of standard output is one JSON object
with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced run instead.  Without --workload every workload runs in
turn, each in its own process, and a combined line ends the output.

A run is: set-up (import, inputs, warm-up) repeated SETUP_REPEATS times,
then a measured phase of PASSES passes, each over its own operation list
with the same slots, then the checks of every output.  The number of
rounds in a list is fixed by --seconds (at reference speed, see speed.py),
never by how fast the machine is, so two runs with one seed do the same
work.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Importing numpy starts one BLAS thread per core; the operations are far
# too small to gain from them and they add noise on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# Seconds one round takes at reference speed (see speed.py); only used to
# turn --seconds into a whole number of rounds.
NOMINAL_ROUND_S = {"tilt": 11.9, "threshold": 10.6, "pointwise": 0.53, "cli": 0.435}
MIN_OPS = 40          # a tail percentile needs ten operations beyond it
TAIL_BEYOND = 10
SETUP_REPEATS = 5
COLD_STARTS = 5

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


# Passes of the measured phase.  Cheap operations run in three passes, a
# few seconds apart, each pass over its own inputs drawn for the same
# slots, and each slot is timed by the median of its three times, so a
# burst of host load that hits one pass cannot move it.  Fresh inputs per
# pass keep a cache in the program from turning the later passes into
# repeats.  The solves of tilt and threshold take too long to repeat
# within a run.
PASSES = {"tilt": 1, "threshold": 1, "pointwise": 3, "cli": 3}


def rounds_for(workload: str, seconds: float) -> int:
    least = math.ceil(MIN_OPS / workloads.ROUND_SIZE[workload])
    return max(least, round(seconds / (NOMINAL_ROUND_S[workload] * PASSES[workload])))


def load_program():
    """Import klcodes afresh from the checkout's src/, dropping earlier imports."""
    for name in [n for n in sys.modules if n == "klcodes" or n.startswith("klcodes.")]:
        del sys.modules[name]
    kl = importlib.import_module("klcodes")
    importlib.import_module("klcodes.cli")
    if not Path(kl.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"klcodes came from {kl.__file__}, not from {SRC}")
    return kl


def build_passes(kl, workload: str, seed: int, rounds: int, workdir: str) -> list[list]:
    """One operation list per pass, each from its own generator."""
    index = list(workloads.WORKLOADS).index(workload)
    lists = []
    for number in range(PASSES[workload]):
        rng = np.random.default_rng([seed, index, number])
        passdir = os.path.join(workdir, f"pass{number}")
        os.makedirs(passdir, exist_ok=True)
        lists.append(workloads.WORKLOADS[workload](kl, rng, rounds, seed, passdir))
    return lists


def set_up(workload: str, seed: int, rounds: int, workdir: str):
    """One set-up; returns (seconds at reference speed, operation list per pass)."""
    watch = speed.Stopwatch()
    kl = watch.call(load_program)
    passes = watch.call(build_passes, kl, workload, seed, rounds, workdir)
    for step in watch.call(workloads.warm_up_steps, kl, workload, workdir):
        watch.call(step)
    return sum(watch.scaled()), passes


def attempt(op, tracer):
    """Run one operation; an exception it raises is returned as its result."""
    try:
        return op.run() if tracer is None else tracer.call("op", op.run)
    except Exception as exc:  # an operation that raises is counted as failed
        print(f"operation failed: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc


def measure(passes: list[list], tracer=None):
    """Run each pass's operation list in turn.

    Returns (results, wall seconds and seconds at reference speed per
    operation), each a list per pass.
    """
    gc.collect()
    results, walls, scaled = [], [], []
    for ops in passes:
        watch = speed.Stopwatch()
        results.append([watch.call(attempt, op, tracer) for op in ops])
        walls.append(watch.walls)
        scaled.append(watch.scaled())
    return results, walls, scaled


def per_slot_median(times: list[list[float]]) -> list[float]:
    return [statistics.median(slot) for slot in zip(*times)]


def check_all(passes: list[list], results: list[list]) -> bool:
    correct = True
    for number, (ops, outcome) in enumerate(zip(passes, results)):
        for op, result in zip(ops, outcome):
            if isinstance(result, Exception):
                continue
            try:
                op.check(result)
            except Exception as exc:  # any error while checking is a wrong output
                correct = False
                print(f"check failed: pass {number}: {op.label}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
    return correct


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cold_start_ms() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import klcodes"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rounds = rounds_for(workload, seconds)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, op_lists = set_up(workload, seed, rounds, workdir)
            setups.append(elapsed)
        passes = len(op_lists)
        slots = len(op_lists[0])
        results, pass_walls, pass_scaled = measure(op_lists)
        failed = sum(isinstance(result, Exception) for outcome in results for result in outcome)
        walls, scaled = per_slot_median(pass_walls), per_slot_median(pass_scaled)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct = check_all(op_lists, results)
        if trace:
            # The first pass again, traced; its overhead is measured against
            # the same pass untraced.
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, traced_walls, traced_scaled = measure(op_lists[:1], tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(sum(traced_scaled[0]) / sum(traced_walls[0]))
            metrics["cli.cold_start_ms"] = cold_start_ms()
            metrics["trace.overhead_ms"] = (sum(traced_scaled[0]) - sum(pass_scaled[0])) * 1000.0
            spans = tracer.write(OUT / f"trace-{workload}-seed{seed}.npz")
            print(f"{workload}: {spans} spans written to bench/out/", file=sys.stderr)
            units = dict(tracing.per_layer_names())
        else:
            tail_value, percentile = tail(scaled)
            metrics = {
                "ops_per_s": (slots - failed / passes) / sum(scaled),
                "latency_p50_ms": statistics.median(scaled) * 1000.0,
                "latency_tail_ms": tail_value * 1000.0,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": statistics.median(setups),
            }
            units = dict(END_TO_END)
            print(f"{workload}: {slots} operations in {rounds} rounds, {passes} passes; tail is "
                  f"p{percentile:.1f} ({TAIL_BEYOND} beyond); wall {sum(walls):.2f} s, "
                  f"{sum(scaled):.2f} s at reference speed; raw wall p50 "
                  f"{statistics.median(walls) * 1000.0:.3f} ms, tail "
                  f"{tail(walls)[0] * 1000.0:.3f} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, value in metrics.items():
        print(f"{workload}  {name:36s} {value:14.6f} {units[name]}")
    return {
        "correct": correct,
        "attempted": slots * passes,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process; a combined line names metrics workload/metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
            combined["correct"] = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "klcodes" / "__init__.py").is_file():
        print(f"error: no klcodes sources under {SRC}; run from a klcodes checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
