"""Property tests of quadrature, the constant-profile functional and the
quintic interpolant."""
import math

import numpy as np
import pytest
from scipy.interpolate import BPoly

from selfsim.core import constant_profile, make_params
from selfsim.fixtures import reference_profile
from selfsim.functionals import constant_f_closed_form, f_functional
from selfsim.quadrature import radial_rule, weighted_integral

from test_quadrature import gaussian_even_moment

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), N=st.integers(2, 30), data=st.data())
def test_radial_rule_is_exact_up_to_even_degree_4N_minus_2(n, N, data):
    k = data.draw(st.integers(0, 2 * N - 1)) * 2
    val = weighted_integral(radial_rule(n, N), lambda r: r**k)
    assert val == pytest.approx(gaussian_even_moment(n, k // 2), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), p=st.floats(1.5, 9.0),
       sign=st.sampled_from(["+", "-"]), x0=st.floats(0.0, 8.0),
       log_a=st.floats(-3.0, 3.0))
def test_f_of_constants_is_the_closed_form(n, p, sign, x0, log_a):
    prof = constant_profile(make_params(n, p), sign)
    t0 = -math.exp(log_a)
    exact = constant_f_closed_form(prof, t0)
    assert abs(f_functional(prof, x0, t0) - exact) <= 1e-12 * max(1.0, abs(exact))


@pytest.fixture(scope="module")
def quintic():
    prof = reference_profile(3, 7.0)
    prof._ensure_spline()
    return prof._spline


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_quintic_interpolant_is_c2_at_its_knots(quintic, data):
    x, c = quintic.x, quintic.c
    i = data.draw(st.integers(1, len(x) - 2))
    left = BPoly(c[:, i - 1:i], x[i - 1:i + 1])
    right = BPoly(c[:, i:i + 1], x[i:i + 2])
    h = min(x[i] - x[i - 1], x[i + 1] - x[i])
    size = np.abs(c[:, i - 1:i + 1]).max()
    for nu in range(3):
        assert abs(left(x[i], nu) - right(x[i], nu)) <= 1e-13 * size / h**nu
