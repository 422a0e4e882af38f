"""Property tests of quadrature, the sphere average of offset integrals, the
constant-profile functional and the quintic interpolant."""
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.interpolate import BPoly, PPoly

from selfsim.core import constant_profile, make_params
from selfsim.fixtures import reference_profile
from selfsim.functionals import constant_f_closed_form, f_functional
from selfsim.quadrature import (_bessel_sphere_average, _sphere_average,
                                radial_rule, weighted_integral)

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


@settings(max_examples=200, deadline=None)
@given(c=st.floats(1e-12, 1e5))
def test_three_dimensional_sphere_average_is_the_closed_form(c):
    with mp.workdps(40):
        cm = mp.mpf(c)
        exact = (1 - mp.exp(-2 * cm)) / cm
    arr = np.array([c])
    closed = float(_sphere_average(arr, 3)[0])
    bessel = float(_bessel_sphere_average(arr, 3)[0])
    assert abs(closed - exact) <= 1e-15 * exact
    assert abs(bessel - exact) <= 5e-14 * exact


@pytest.fixture(scope="module")
def quintic():
    prof = reference_profile(3, 7.0)
    prof._ensure_spline()
    return prof


def test_quintic_interpolant_is_c2_at_its_knots(quintic):
    # every interior knot in one pass: the left piece at its right end
    # against the right piece at its left end, for w, w' and w''
    x, c = quintic._spline.x, quintic._spline.c[..., 0]
    dx = np.diff(x)
    h = np.minimum(dx[:-1], dx[1:])
    # the largest Bernstein coefficient of the two pieces, built from the
    # knot data: the power-basis coefficients grow like h^-5
    knots = np.column_stack([quintic.values, quintic.derivs,
                             quintic.second_derivs])
    bern = np.abs(BPoly.from_derivatives(x, knots).c).max(axis=0)
    size = np.maximum(bern[:-1], bern[1:])
    for nu in range(3):
        cn = PPoly(c, x).derivative(nu).c
        left = cn[0, :-1]
        for row in cn[1:, :-1]:
            left = left * dx[:-1] + row
        right = cn[-1, 1:]
        assert np.all(np.abs(left - right) <= 1e-13 * size / h**nu)


# the quintic Hermite basis on [0, 1], coefficients of t^0 .. t^5, for
# w0, h w0', h^2 w0''/2, w1, h w1', h^2 w1''/2
HERMITE5 = [(1, 0, 0, -10, 15, -6), (0, 1, 0, -6, 8, -3), (0, 0, 1, -3, 3, -1),
            (0, 0, 0, 10, -15, 6), (0, 0, 0, -4, 7, -3), (0, 0, 0, 1, -2, 1)]


def exact_quintic_hermite(prof, r):
    """Value and derivative at r of the quintic Hermite through the knot
    data of prof, in 40-digit arithmetic."""
    g = prof.grid
    i = min(int(np.searchsorted(g, r, side="right")) - 1, len(g) - 2)
    with mp.workdps(40):
        h = mp.mpf(g[i + 1]) - mp.mpf(g[i])
        t = (mp.mpf(r) - mp.mpf(g[i])) / h
        data = [mp.mpf(v[j]) * h**m / (2 if m == 2 else 1) for j in (i, i + 1)
                for m, v in enumerate((prof.values, prof.derivs,
                                       prof.second_derivs))]
        value = mp.fsum(d * c * t**k for d, row in zip(data, HERMITE5)
                        for k, c in enumerate(row))
        deriv = mp.fsum(d * c * k * t**(k - 1) for d, row in zip(data, HERMITE5)
                        for k, c in enumerate(row) if k) / h
    return value, deriv


def test_quintic_interpolant_matches_the_exact_hermite(quintic):
    # 400 seeded points, a uniform knot interval each, so the 1e-3-wide
    # intervals near the axis count as much as the outer ones.  Measured on
    # the (3, 7) profile: value 7.0e-16 and derivative 1.2e-15 (absolute)
    g = quintic.grid
    rng = np.random.default_rng(0)
    i = rng.integers(0, len(g) - 1, 400)
    r = g[i] + rng.uniform(0.0, 1.0, 400) * (g[i + 1] - g[i])
    exact = [exact_quintic_hermite(quintic, x) for x in r]
    value_err = max(abs(float(v - e[0])) for v, e in zip(quintic.value(r), exact))
    deriv_err = max(abs(float(v - e[1])) for v, e in zip(quintic.deriv(r), exact))
    assert value_err <= 4e-15
    assert deriv_err <= 1e-14
