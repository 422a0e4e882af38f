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
    growth = (p - 1.0) * abs(w0) ** (p - 1.0)     # (p-1)/v0, v0 = |w0|^{1-p}
    return -math.log1p(-1.0 / growth) if growth > 1.0 else math.inf


# |w0| uniform in [0.05, 5], log-uniform from 1e-300 to 0.05, or zero (of
# either sign)
magnitudes = st.one_of(
    st.floats(0.05, 5.0),
    st.floats(-300.0, math.log10(0.05)).map(lambda e: 10.0 ** e),
    st.just(0.0))


@settings(max_examples=400, deadline=None)
@given(w0=magnitudes, negative=st.booleans(), dt=st.floats(1e-4, 1.0),
       p=st.floats(1.2, 9.0))
def test_react_exact_is_the_scalar_flow(w0, negative, dt, p):
    w0 = -w0 if negative else w0
    t_blow = blowup_time(w0, p)
    # at dt = t_blow the verdict is decided by the rounding of b
    assume(abs(t_blow / dt - 1.0) > 1e-9)
    out = flow._react_exact(np.array([w0]), dt, p)
    assert (out is None) == (t_blow < dt)
    if out is None:
        return
    w_new = out[0][0]
    if w0 == 0.0:
        assert np.array(w_new).tobytes() == np.array(0.0).tobytes()
        return
    # below rounding of e^{dt} the nonlinear term leaves the linear decay
    if (p - 1.0) * math.expm1(dt) * abs(w0) ** (p - 1.0) < 1e-17:
        assert w_new == pytest.approx(w0 * math.exp(-dt / (p - 1.0)),
                                      rel=1e-14, abs=0.0)
        return
    # w(dt) depends on w0 with a factor that grows without bound as dt
    # approaches t_blow, so the integrator is compared only 10 % short of it
    if dt * 1.1 > t_blow:
        return
    sol = solve_ivp(lambda t, w: -w / (p - 1.0) + np.abs(w) ** (p - 1.0) * w,
                    (0.0, dt), [w0], method="DOP853", rtol=1e-13, atol=0.0)
    assert sol.success
    assert w_new == pytest.approx(sol.y[0, -1], rel=1e-9, abs=0.0)
