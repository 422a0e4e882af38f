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
from selfsim import core, flow, functionals
params = core.make_params(3, 7.0)
grid = np.linspace(0.01, 5.0, 50)
prof = core.RadialProfile(kind=core.KIND_TABULATED, params=params, grid=grid,
                          values=np.exp(-grid), derivs=-np.exp(-grid))
for x0 in (0.0, 1.0):
    functionals.f_functional(prof, x0, -1.0)
functionals.energy(core.constant_profile(params))
# the library samples through RadialProfile.sample; value and deriv, its
# columns, are still counted by name
prof.value(grid)
prof.deriv(grid)
m = tracing.layer_metrics(tr)
assert m["core.eval_calls"] == 2 and m["core.eval_points"] == 100, m
assert m["functionals.f_evals"] == 2, m
assert m["core.interpolant_builds"] == 1 and m["core.interpolant_knots"] == 50, m
# the energy and both F values are timed by name
assert m["functionals.energy_calls"] == 1, m
assert m["functionals.energy_s"] > 0.0 and m["functionals.f_s"] > 0.0, m
# a flow run: one energy per accepted step, plus the rebound initial data's,
# and three solves per attempt (one whole step and two half steps)
p3 = core.make_params(3, 3.0)
state = flow.init_flow(core.constant_profile(p3), flow.FlowConfig(dt_max=0.01))
state.w = np.full_like(state.w, 1.02 * p3.kappa)
rep = flow.run(state, tau_max=0.2)
accepted = len(rep.series["tau"]) - 1
m = tracing.layer_metrics(tr)
assert accepted > 10 and m["flow.runs"] == 1, m
assert m["flow.steps_accepted"] == m["flow.step_attempts"] == accepted, m
assert m["flow.cn_solves"] == 3 * accepted, m
assert m["flow.energy_evals"] == accepted + 1, m
# a refined eigensolve: two pairs from the sector and two from its
# Richardson partner at double resolution; and one entropy search
from selfsim import spectrum
spectrum.eigen_smallest(spectrum.build_sector(prof, 0, resolution=200), 2,
                        profile=prof)
functionals.entropy(prof)
m = tracing.layer_metrics(tr)
assert m["spectrum.eigenpairs"] == 4, m
assert m["functionals.entropy_calls"] == 1, m
"""


def test_the_benchmark_tracer_installs_and_counts():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
