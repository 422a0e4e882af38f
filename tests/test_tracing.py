"""The traced benchmark wraps names of the program by their spelling; a
program change that drops one must fail here, not only in the benchmark's
own suite."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = f"""
import sys
sys.path[:0] = [{str(ROOT / "perfbench")!r}, {str(ROOT / "src")!r}]
import numpy as np
import tracing
tr = tracing.install()
from selfsim import core, functionals
params = core.make_params(3, 7.0)
grid = np.linspace(0.01, 5.0, 50)
prof = core.RadialProfile(kind=core.KIND_TABULATED, params=params, grid=grid,
                          values=np.exp(-grid), derivs=-np.exp(-grid),
                          second_derivs=np.exp(-grid))
for x0 in (0.0, 1.0):
    functionals.f_functional(prof, x0, -1.0)
functionals.energy(core.constant_profile(params))
m = tracing.layer_metrics(tr)
assert m["functionals.f_evals"] == 2, m
assert m["core.interpolant_builds"] == 1 and m["core.interpolant_knots"] == 50, m
assert m["quadrature.offset_calls"] == 2, m
assert m["quadrature.offset_nodes"] == 1600 + 16 * 24, m
assert m["quadrature.composite_rule_builds"] == 2, m
"""


def test_the_benchmark_tracer_installs_and_counts():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
