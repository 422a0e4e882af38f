"""The benchmark's workloads call the program through names, options and
attributes of their own (FlowConfig(bc=...), eigen_smallest(..., profile=),
entropy_perturbation_experiment(..., run_flow_for=None), density, a rebound
state.w); a program change that breaks one must fail here, not only in the
benchmark."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = f"""
import sys
sys.path[:0] = [{str(ROOT / "perfbench")!r}, {str(ROOT / "src")!r}]
import numpy as np
import workloads
for name, (setup, body) in workloads.WORKLOADS.items():
    rnd = workloads.Round()
    body(workloads.fresh(setup()), rnd, np.random.default_rng(0))
    bad = [c.line() for c in rnd.checks if not c.ok]
    assert rnd.attempted and rnd.checks, name
    assert not rnd.failures and not bad, (name, rnd.failures, bad)
"""


def test_one_round_of_every_benchmark_workload_holds():
    # the workloads' own thread cap, and no bytecode written beside them
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
