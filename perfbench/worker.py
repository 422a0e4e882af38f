"""One benchmark process: set up a workload, run rounds, report as JSON.

    python3 perfbench/worker.py --workload certify_profiles --seed 0 \
        --mode measure --seconds 15

Modes: ``setup`` stops once the fixtures are built; ``measure`` runs whole
rounds until ``--seconds`` of round time have passed (at least one round);
``trace`` installs the wrappers of ``tracing.py`` before set-up and runs one
round.  The last line of standard output is one JSON object.  ``run.py``
starts this script in a fresh interpreter for every sample.
"""
from __future__ import annotations

import os

# BLAS/OpenMP pools size themselves when numpy is first imported, so the cap
# must be in the environment before that import; the program's own
# SELFSIM_THREADS is read too late to take effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    default="measure")
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.install()
    import numpy as np
    import selfsim
    import workloads

    if not Path(selfsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"selfsim imported from {selfsim.__file__}, "
                         f"not from {ROOT / 'src'}")
    setup, body = workloads.WORKLOADS[args.workload]
    pristine = setup()
    result = {"ready": time.perf_counter()}
    if args.mode != "setup":
        rounds, attempted, failures = [], 0, []
        while True:
            fx = workloads.fresh(pristine)
            rnd = workloads.Round()
            rng = np.random.default_rng(args.seed)
            t0, c0 = time.perf_counter(), time.process_time()
            body(fx, rnd, rng)
            rounds.append({"wall_s": time.perf_counter() - t0,
                           "cpu_s": time.process_time() - c0})
            attempted += rnd.attempted
            failures += rnd.failures
            bad = [c.line() for c in rnd.checks if not c.ok]
            if bad:
                result["failed_checks"] = bad
                break
            if args.mode == "trace" or \
                    sum(r["wall_s"] for r in rounds) >= args.seconds:
                break
        result.update(rounds=rounds, attempted=attempted, failures=failures,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        OUT.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracing.write_spans(tracer, OUT / f"{stem}-spans.csv")
        result["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
