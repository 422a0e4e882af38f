import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from selfsim import quadrature
from selfsim.core import (ParameterError, constant_profile, make_params,
                          singular_profile)
from selfsim.functionals import energy
from selfsim.quadrature import (QuadratureError, QuadratureRule,
                                composite_rule, offset_integral_many,
                                radial_rule, weighted_integral)
from selfsim.variations import first_variation, gaussian_bump


def gaussian_even_moment(n: int, k: int) -> float:
    """Oracle: int |y|^{2k} rho dy = 4^k Gamma(n/2+k)/Gamma(n/2)."""
    out = 1.0
    for j in range(k):
        out *= 4.0 * (n / 2.0 + j)
    return out


def test_rho_is_probability_density():
    for n in range(1, 13):
        rule = radial_rule(n, 64)
        assert weighted_integral(rule, lambda r: np.ones_like(r)) == pytest.approx(1.0, abs=1e-12)
        comp = composite_rule(n)
        assert weighted_integral(comp, lambda r: np.ones_like(r)) == pytest.approx(1.0, abs=1e-12)


def test_even_moments_exact():
    # includes the spec anchors: second moment 2n, fourth moment 4n(n+2)
    for n in (1, 2, 3, 5, 7, 10):
        rule = radial_rule(n, 48)
        assert weighted_integral(rule, lambda r: r**2) == pytest.approx(2.0 * n, rel=1e-13)
        assert weighted_integral(rule, lambda r: r**4) == pytest.approx(
            gaussian_even_moment(n, 2), rel=1e-13)
        assert weighted_integral(rule, lambda r: r**8) == pytest.approx(
            gaussian_even_moment(n, 4), rel=1e-12)
    assert gaussian_even_moment(3, 1) == 6.0
    assert gaussian_even_moment(3, 2) == 60.0
    assert gaussian_even_moment(5, 2) == 140.0


def test_constant_kappa_square_integral():
    params = make_params(3, 3.0)
    rule = radial_rule(3, 48)
    val = weighted_integral(rule, lambda r: np.full_like(r, params.kappa**2))
    assert val == pytest.approx(0.5, abs=1e-13)


def test_fractional_power_integral_matches_gamma_oracle():
    # int r^-4 rho dy in R^7 = 2^-4 Gamma(3/2)/Gamma(7/2) = 1/60 (substitution r = 2 sqrt(s))
    comp = composite_rule(7)
    assert weighted_integral(comp, lambda r: r**-4.0) == pytest.approx(1.0 / 60.0, rel=1e-12)
    # generic fractional exponent against the same substitution oracle
    import scipy.special as sps
    for n, g in [(6, -4.6), (4, -1.9), (10, -8.5)]:
        val = weighted_integral(composite_rule(n), lambda r: r**g)
        exact = 2.0**g * math.exp(sps.gammaln(n / 2.0 + g / 2.0) - sps.gammaln(n / 2.0))
        assert val == pytest.approx(exact, rel=1e-11)


def test_composite_rule_handles_singular_profile_energy_integrand():
    params = make_params(7, 3.0)
    prof = singular_profile(params)
    comp = composite_rule(7)
    val = weighted_integral(comp, lambda r: prof.value(r) ** (params.p + 1))
    assert val == pytest.approx(16.0 / 60.0, rel=1e-11)


def convergence_certificate(make_rule, f, N: int) -> dict:
    """Relative change of the integral when the node count doubles."""
    v1 = weighted_integral(make_rule(N), f)
    v2 = weighted_integral(make_rule(2 * N), f)
    return {"rel_change": abs(v2 - v1) / max(abs(v1), abs(v2), 1e-300)}


def offset_by_angular_rule(f, b: float, t0: float, n: int, M: int = 64) -> float:
    """int f(|y|) G(y - x0, t0) dy with the angular direction done by a
    Gauss-Jacobi rule in u = cos(theta) (weight (1-u^2)^{(n-3)/2}) and the
    radial one by one Gauss-Legendre rule on the kernel window."""
    a = -t0
    u, wu = roots_jacobi(M, (n - 3.0) / 2.0, (n - 3.0) / 2.0)
    lo, hi = max(0.0, b - 16.0 * math.sqrt(a)), b + 16.0 * math.sqrt(a)
    x, wx = np.polynomial.legendre.leggauss(400)
    r = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    wr = 0.5 * (hi - lo) * wx
    ang = np.exp(np.outer(r * b / (2.0 * a), u - 1.0)) @ wu
    area = 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)
    kern = (4.0 * math.pi * a) ** (-n / 2.0) * area * r ** (n - 1) \
        * np.exp(-(r - b) ** 2 / (4.0 * a)) * ang
    return float(np.dot(wr * kern, f(r)))


def test_doubling_certificate_smooth_integrand():
    cert = convergence_certificate(lambda N: composite_rule(3, N=N),
                                   lambda r: np.exp(-r) * (1 + r**2), 1600)
    assert cert["rel_change"] < 1e-10
    # the Gauss rule needs integrands smooth in s = r^2/4 (even in r)
    cert_g = convergence_certificate(lambda N: radial_rule(3, N),
                                     lambda r: np.exp(-r**2 / 3.0) * (1 + r**2), 48)
    assert cert_g["rel_change"] < 1e-10


def test_weighted_integral_rejects_nonfinite():
    rule = radial_rule(3, 16)
    with pytest.raises(QuadratureError) as err:
        with np.errstate(divide="ignore"):
            weighted_integral(rule, lambda r: 1.0 / (r - rule.nodes[3]))
    assert "node" in str(err.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rule_refuses_non_finite_nodes_and_weights(bad):
    nodes, weights = np.array([0.5, 1.0, 2.0]), np.array([0.2, 0.5, 0.3])
    for i in range(3):
        with pytest.raises(QuadratureError, match="finite"):
            QuadratureRule(nodes, np.where(np.arange(3) == i, bad, weights))
    with pytest.raises(QuadratureError, match="finite"):
        QuadratureRule(np.array([0.5, 1.0, bad]), weights)


@pytest.mark.parametrize("n", [200, 400])
def test_composite_rule_refuses_weights_beyond_the_float_range(n):
    # r^n overflows at r = 60 (n = 200), and so does the sphere area's
    # Gamma(n/2) (n = 400)
    with pytest.raises(ParameterError, match=f"n={n}"):
        composite_rule(n)


def test_offset_total_mass_is_one():
    for (b, t0) in [(0.0, -1.0), (3.0, -0.25), (1.0, -1.0), (8.0, -0.01), (5.0, -100.0)]:
        for n in (2, 3, 7):
            val = offset_integral_many(lambda r: [np.ones_like(r)], b, t0, n)[0]
            assert val == pytest.approx(1.0, abs=1e-10)
    val1 = offset_integral_many(lambda r: [np.ones_like(r)], 2.0, -0.5, 1)[0]
    assert val1 == pytest.approx(1.0, abs=1e-10)


def test_offset_reduces_to_weighted_at_zero_offset():
    n = 3
    rule = composite_rule(n)
    rng = np.random.default_rng(0)
    for _ in range(20):
        c0, c1, s = rng.uniform(0.2, 2.0, size=3)
        f = lambda r, c0=c0, c1=c1, s=s: c0 * np.exp(-s * r) + c1 / (1.0 + r**2)
        direct = offset_integral_many(lambda r: [f(r)], 0.0, -1.0, n, rule_r=rule)[0]
        ref = weighted_integral(rule, f)
        assert direct == pytest.approx(ref, rel=1e-12)
    # scale consistency at t0 != -1: weighted integral with rescaled radius
    t0 = -0.37
    f = lambda r: np.exp(-r)
    direct = offset_integral_many(lambda r: [f(r)], 0.0, t0, n, rule_r=rule)[0]
    ref = weighted_integral(rule, lambda r: f(math.sqrt(-t0) * r))
    assert direct == pytest.approx(ref, rel=1e-12)


def test_offset_nonzero_matches_bessel_free_route():
    # angular reduction via a Gauss-Jacobi rule agrees with the Bessel path
    # (valid where the exponent c = r b / (2a) stays moderate); the tiny
    # offset puts the inner nodes below the c = 1e-8 switch to S(0) e^{-c}
    f = lambda r: np.exp(-0.8 * r)
    for n in (2, 3, 4, 7):
        for b in (0.7, 1e-7):
            v_b = offset_integral_many(lambda r: [f(r)], b, -1.0, n)[0]
            assert v_b == pytest.approx(offset_by_angular_rule(f, b, -1.0, n),
                                        rel=1e-11)


def test_offset_smooth_function_random_cross_checks():
    # 20 random smooth radial functions: offset at (0, -1) equals the plain integral
    n = 5
    rule = composite_rule(n)
    rng = np.random.default_rng(12345)
    for _ in range(20):
        amp, scale, shift = rng.uniform(0.3, 1.5, size=3)
        f = lambda r, a=amp, s=scale, c=shift: a * np.exp(-s * (r - c) ** 2 / (1 + r))
        assert offset_integral_many(lambda r: [f(r)], 0.0, -1.0, n, rule_r=rule)[0] \
            == pytest.approx(weighted_integral(rule, f), rel=1e-9)


def test_default_rule_is_built_once_per_n(monkeypatch):
    built, original = [], quadrature.composite_rule
    monkeypatch.setattr(quadrature, "composite_rule",
                        lambda n, *args: built.append(n) or original(n, *args))
    quadrature.default_composite_rule.cache_clear()
    f = lambda r: [np.exp(-r), 1.0 / (1.0 + r**2)]
    for n in (3, 3, 5, 3, 5):
        got = offset_integral_many(f, 0.0, -0.7, n)
        fresh = offset_integral_many(f, 0.0, -0.7, n, rule_r=original(n))
        assert got.tobytes() == fresh.tobytes()
        # the energy and the variations integrate on the same cached rule
        prof = constant_profile(make_params(n, 3.0), "+")
        energy(prof)
        first_variation(prof, gaussian_bump(0.5, 1.0, 1.0))
    assert built == [3, 5]
    rule = quadrature.default_composite_rule(3)
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable


def test_offset_rejects_bad_t0():
    with pytest.raises(QuadratureError):
        offset_integral_many(lambda r: [r], 1.0, 0.0, 3)
    with pytest.raises(QuadratureError):
        offset_integral_many(lambda r: [r], 1.0, 1.0, 3)


def test_gaussian_kernel_moment_with_offset():
    # int |y|^2 G(y-x0, t0) dy = 2 n (-t0) + |x0|^2 (covariance + mean shift)
    n, b, t0 = 3, 2.5, -0.7
    val = offset_integral_many(lambda r: [r**2], b, t0, n)[0]
    assert val == pytest.approx(2 * n * (-t0) + b**2, rel=1e-11)


def test_offset_rules_give_one_row_per_point_of_one_kind():
    n, rule = 3, quadrature.default_composite_rule(3)
    t0s = [-0.3, -1.0, -7.5]
    nodes, weights = quadrature._offset_rules([0.0] * 3, t0s, n)
    assert nodes.shape == weights.shape == (3, len(rule.nodes))
    assert all((w == rule.weights).all() for w in weights)
    nodes, weights = quadrature._offset_rules([0.5, 2.0, 9.0], t0s, n)
    assert nodes.shape == weights.shape == (
        3, quadrature.OFFSET_PANELS * quadrature.OFFSET_GL)
    # each row is the one-point rule, bit for bit
    for k, (b, t0) in enumerate(zip([0.5, 2.0, 9.0], t0s)):
        one_nodes, one_weights = quadrature._offset_rules([b], [t0], n)
        assert one_nodes[0].tobytes() == nodes[k].tobytes()
        assert one_weights[0].tobytes() == weights[k].tobytes()
    with pytest.raises(QuadratureError, match="all at the origin or all off"):
        quadrature._offset_rules([0.0, 1.0], [-1.0, -1.0], n)
