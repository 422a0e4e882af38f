"""Property tests of the flow's exact reaction step against an ODE solver."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from selfsim import flow

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402


def blowup_time(w0: float, p: float) -> float:
    """Blow-up time of w' = -w/(p-1) + |w|^{p-1} w from w0; inf if none."""
    v0 = abs(w0) ** (1.0 - p)
    return -math.log1p(-v0 / (p - 1.0)) if v0 < p - 1.0 else math.inf


@settings(max_examples=150, deadline=None)
@given(w0=st.floats(0.05, 5.0), negative=st.booleans(), dt=st.floats(1e-4, 1.0),
       p=st.floats(1.2, 9.0))
def test_react_exact_is_the_scalar_flow(w0, negative, dt, p):
    w0 = -w0 if negative else w0
    t_blow = blowup_time(w0, p)
    # at dt = t_blow the verdict is decided by the rounding of v_new
    assume(abs(t_blow / dt - 1.0) > 1e-9)
    out = flow._react_exact(np.array([w0]), dt, p)
    assert (out is None) == (t_blow < dt)
    # w(dt) depends on w0 with a factor that grows without bound as dt
    # approaches t_blow, so the integrator is compared only 10 % short of it
    if out is None or dt * 1.1 > t_blow:
        return
    sol = solve_ivp(lambda t, w: -w / (p - 1.0) + np.abs(w) ** (p - 1.0) * w,
                    (0.0, dt), [w0], method="DOP853", rtol=1e-13, atol=0.0)
    assert sol.success
    assert out[0] == pytest.approx(sol.y[0, -1], rel=1e-9)
