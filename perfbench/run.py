"""Benchmark of the selfsim toolkit: three workloads, output checks, traced run.

    python3 perfbench/run.py --workload certify_profiles --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 1     # every workload once

With --trace 0 a run starts one measuring process (set-up, then whole
rounds until --seconds of round time have passed) and SETUP_SAMPLES - 1
processes that only set up, and reports medians of the end-to-end metrics.
With --trace 1 it runs one round untraced and one round traced and reports
the per-layer metrics, plus the traced-minus-untraced round time.  Every
process is a fresh interpreter started from worker.py.  The last line of
standard output is one JSON object; the exit code is 1 if any output check
failed, 2 if the run could not be made.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("shoot_branch", "certify_profiles", "rescaled_flow")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, mode: str, seconds: float,
                 deadline: float) -> dict:
    """Run worker.py to completion; setup_s is measured from its start."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} {mode} process passed the time limit") from err
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} {mode} process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux: one clock for both processes
    out["setup_s"] = out["ready"] - start
    return out


def measure(workload: str, seed: int, seconds: float, deadline: float):
    main = start_worker(workload, seed, "measure", seconds, deadline)
    setups = [main["setup_s"]] + [
        start_worker(workload, seed, "setup", 0.0, deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in main["rounds"]),
        "cpu_s": statistics.median(r["cpu_s"] for r in main["rounds"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return [main], metrics


def traced(workload: str, seed: int, deadline: float):
    import tracing   # no numpy or selfsim import: only the metric table

    plain = start_worker(workload, seed, "measure", 0.0, deadline)
    trc = start_worker(workload, seed, "trace", 0.0, deadline)
    values = dict(trc["layers"])
    values["trace.overhead_s"] = trc["rounds"][0]["wall_s"] - plain["rounds"][0]["wall_s"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in tracing.METRICS}
    return [plain, trc], metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    if trace:
        workers, metrics = traced(workload, seed, deadline)
    else:
        workers, metrics = measure(workload, seed, seconds, deadline)
    failed_checks = [line for w in workers for line in w.get("failed_checks", [])]
    failures = [line for w in workers for line in w["failures"]]
    for line in failed_checks + failures:
        print(f"{workload}: {line}")
    for name, m in metrics.items():
        print(f"{workload}  {name:36s} {m['value']:>16.6g} {m['unit']}")
    return {"correct": not failed_checks,
            "attempted": sum(w["attempted"] for w in workers),
            "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "selfsim" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'selfsim'} is missing",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": m for w, r in results.items()
                              for k, m in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
