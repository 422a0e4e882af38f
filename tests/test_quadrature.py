import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_jacobi

from selfsim import quadrature
from selfsim.core import (ParameterError, constant_profile, make_params,
                          singular_profile)
from selfsim.functionals import _f_values, energy
from selfsim.variations import first_variation, gaussian_bump
from selfsim.quadrature import (RULE_NODES, QuadratureError, RecenteringError,
                                _rules, _sums)


def gaussian_even_moment(n: int, k: int) -> float:
    """Oracle: int |y|^{2k} rho dy = 4^k Gamma(n/2+k)/Gamma(n/2)."""
    out = 1.0
    for j in range(k):
        out *= 4.0 * (n / 2.0 + j)
    return out


def kernel_integral(f, b: float, t0: float, n: int,
                    r_cut: float = math.inf) -> float:
    """int f(|y|) G(y - x0, t0) dy, |x0| = b, on the library's rule."""
    (r,), (weights,) = _rules([b], [t0], n, r_cut)
    row = np.broadcast_to(np.asarray(f(r), dtype=float), r.shape)
    return float(_sums(r, weights, (row,))[0])


def rho_integral(f, n: int, r_cut: float = math.inf) -> float:
    """int f(|y|) rho dy: the rule at (0, -1), where the kernel is rho."""
    return kernel_integral(f, 0.0, -1.0, n, r_cut)


def test_rho_is_probability_density():
    for n in range(1, 13):
        assert rho_integral(np.ones_like, n) == pytest.approx(1.0, abs=1e-12)


def test_even_moments_exact():
    # includes the spec anchors: second moment 2n, fourth moment 4n(n+2)
    for n in (1, 2, 3, 5, 7, 10):
        assert rho_integral(lambda r: r**2, n) == pytest.approx(2.0 * n, rel=1e-13)
        assert rho_integral(lambda r: r**4, n) == pytest.approx(
            gaussian_even_moment(n, 2), rel=1e-13)
        assert rho_integral(lambda r: r**8, n) == pytest.approx(
            gaussian_even_moment(n, 4), rel=1e-12)
    assert gaussian_even_moment(3, 1) == 6.0
    assert gaussian_even_moment(3, 2) == 60.0
    assert gaussian_even_moment(5, 2) == 140.0


def test_constant_kappa_square_integral():
    params = make_params(3, 3.0)
    val = rho_integral(lambda r: np.full_like(r, params.kappa**2), 3)
    assert val == pytest.approx(0.5, abs=1e-13)


def test_fractional_power_integral_matches_gamma_oracle():
    # int r^-4 rho dy in R^7 = 2^-4 Gamma(3/2)/Gamma(7/2) = 1/60 (substitution r = 2 sqrt(s))
    assert rho_integral(lambda r: r**-4.0, 7) == pytest.approx(1.0 / 60.0, rel=1e-12)
    # generic fractional exponent against the same substitution oracle
    import scipy.special as sps
    for n, g in [(6, -4.6), (4, -1.9), (10, -8.5)]:
        val = rho_integral(lambda r: r**g, n)
        exact = 2.0**g * math.exp(sps.gammaln(n / 2.0 + g / 2.0) - sps.gammaln(n / 2.0))
        assert val == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("n,g,bound", [(3, -8.0 / 3.0, 3e-9),
                                       (3, -2.7, 2e-8), (3, -2.85, 1e-4),
                                       (4, -10.0 / 3.0, 1e-13),
                                       (7, -6.6, 6e-11)])
def test_rule_resolves_an_integrable_power_singularity_at_the_axis(n, g, bound):
    # r^g r^{n-1} with g + n - 1 in (-1, 0): the singular profile's energy
    # integrands, r^{-2/3} at (3,7); the graded first panel carries the
    # mass below AXIS_R_MIN, and the error grows as g + n - 1 nears -1
    val = rho_integral(lambda r: r**g, n)
    exact = 2.0**g * math.gamma(n / 2.0 + g / 2.0) / math.gamma(n / 2.0)
    assert abs(val / exact - 1.0) <= bound


def test_composite_rule_handles_singular_profile_energy_integrand():
    # the rule is composite: Gauss-Legendre panels graded toward the axis
    params = make_params(7, 3.0)
    prof = singular_profile(params)
    val = rho_integral(lambda r: prof.value(r) ** (params.p + 1), 7,
                       prof.grid[-1])
    assert val == pytest.approx(16.0 / 60.0, rel=1e-11)


def test_no_node_sits_on_the_axis():
    # the singular profile is infinite at r = 0; clipped edges make zero-
    # width panels at the window's ends, never at the axis
    prof = singular_profile(make_params(7, 3.0))
    b = np.array([0.0, 0.0, 1e-12, 0.3, 2.0, 40.0])
    t0 = np.array([-1.0, -1e-4, -400.0, -0.01, -1.0, -1.0])
    nodes, weights = _rules(b, t0, 7, prof.grid[-1])
    assert nodes.min() > 0.0 and weights.min() >= 0.0
    assert np.isfinite(_f_values(prof, b, t0)).all()


def convergence_certificate(f, b: float, t0: float, n: int,
                            monkeypatch) -> dict:
    """Relative change of the integral when the nodes per panel double."""
    v1 = kernel_integral(f, b, t0, n)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "PANEL_NODES", 2 * quadrature.PANEL_NODES)
        v2 = kernel_integral(f, b, t0, n)
    return {"rel_change": abs(v2 - v1) / max(abs(v1), abs(v2), 1e-300)}


def test_doubling_certificate_smooth_integrand(monkeypatch):
    for b, t0 in [(0.0, -1.0), (1.5, -0.3), (6.0, -40.0)]:
        cert = convergence_certificate(lambda r: np.exp(-r) * (1 + r**2),
                                       b, t0, 3, monkeypatch)
        assert cert["rel_change"] < 1e-13


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


def test_weighted_integral_rejects_nonfinite():
    (r,), _ = _rules([0.0], [-1.0], 3)
    with pytest.raises(QuadratureError) as err:
        with np.errstate(divide="ignore"):
            rho_integral(lambda x: 1.0 / (x - r[30]), 3)
    assert "node" in str(err.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rule_refuses_non_finite_nodes_and_weights(bad):
    # the nodes and weights come from the point: a non-finite x0 or t0 is
    # refused before any is built
    for b, t0 in [(bad, -1.0), (0.5, -bad), (0.0, bad)]:
        with pytest.raises(RecenteringError, match="finite"):
            _rules([1.0, b], [-1.0, t0], 3)


@pytest.mark.parametrize("n", [200, 400])
def test_composite_rule_refuses_weights_beyond_the_float_range(n):
    # r^{n-1} overflows on the window [0, 36] at n = 200, so the weights
    # miss the unit mass; Gamma((n-1)/2) of the sphere area overflows at
    # n = 400
    with pytest.raises(ParameterError, match=f"n={n}"):
        _rules([0.0], [-1.0], n)


def test_offset_total_mass_is_one():
    for (b, t0) in [(0.0, -1.0), (3.0, -0.25), (1.0, -1.0), (8.0, -0.01), (5.0, -100.0)]:
        for n in (2, 3, 7):
            val = kernel_integral(np.ones_like, b, t0, n)
            assert val == pytest.approx(1.0, abs=1e-10)
    val1 = kernel_integral(np.ones_like, 2.0, -0.5, 1)
    assert val1 == pytest.approx(1.0, abs=1e-10)


def test_offset_reduces_to_weighted_at_zero_offset():
    n = 3
    rng = np.random.default_rng(0)
    for _ in range(20):
        c0, c1, s = rng.uniform(0.2, 2.0, size=3)
        f = lambda r, c0=c0, c1=c1, s=s: c0 * np.exp(-s * r) + c1 / (1.0 + r**2)
        ref = rho_integral(f, n)
        # the kernel at a vanishing offset is rho: no jump at x0 = 0
        assert kernel_integral(f, 1e-12, -1.0, n) == pytest.approx(ref, rel=1e-14)
        assert kernel_integral(f, 1e-5, -1.0, n) == pytest.approx(ref, rel=1e-9)
    # scale consistency at t0 != -1: weighted integral with rescaled radius
    t0 = -0.37
    f = lambda r: np.exp(-r)
    direct = kernel_integral(f, 0.0, t0, n)
    ref = rho_integral(lambda r: f(math.sqrt(-t0) * r), n)
    assert direct == pytest.approx(ref, rel=1e-12)


def test_offset_nonzero_matches_bessel_free_route():
    # angular reduction via a Gauss-Jacobi rule agrees with the Bessel path
    # (valid where the exponent c = r b / (2a) stays moderate); the tiny
    # offset puts the inner nodes below the c = 1e-8 switch to S(0) e^{-c}
    f = lambda r: np.exp(-0.8 * r)
    for n in (2, 3, 4, 7):
        for b in (0.7, 1e-7):
            v_b = kernel_integral(f, b, -1.0, n)
            assert v_b == pytest.approx(offset_by_angular_rule(f, b, -1.0, n),
                                        rel=1e-11)


def test_offset_smooth_function_random_cross_checks():
    # 20 random smooth radial functions at random offsets: the rule equals
    # the Gauss-Jacobi route
    n = 5
    rng = np.random.default_rng(12345)
    for _ in range(20):
        amp, scale, shift = rng.uniform(0.3, 1.5, size=3)
        b, t0 = rng.uniform(0.0, 3.0), -math.exp(rng.uniform(-1.0, 1.0))
        f = lambda r, a=amp, s=scale, c=shift: a * np.exp(-s * (r - c) ** 2 / (1 + r))
        assert kernel_integral(f, b, t0, n) \
            == pytest.approx(offset_by_angular_rule(f, b, t0, n), rel=1e-9)


def test_rho_rule_is_built_once_per_dimension_and_last_knot(monkeypatch):
    built, original = [], quadrature._rules
    monkeypatch.setattr(quadrature, "_rules",
                        lambda *args: built.append(args[2:]) or original(*args))
    quadrature._rho_rule.cache_clear()
    keys = []
    for n in (3, 3, 5, 3, 5):
        # the energy and the variations integrate on the same cached rule
        prof = constant_profile(make_params(n, 3.0), "+")
        energy(prof)
        first_variation(prof, gaussian_bump(0.5, 1.0, 1.0))
        keys.append((n, float(prof.grid[-1])))
    assert built == list(dict.fromkeys(keys)) and len(built) == 2
    nodes, weights = quadrature._rho_rule(*keys[-1])
    assert not nodes.flags.writeable and not weights.flags.writeable
    (fresh,), (fresh_weights,) = original([0.0], [-1.0], *keys[-1])
    assert fresh.tobytes() == nodes.tobytes()
    assert fresh_weights.tobytes() == weights.tobytes()


def test_offset_rejects_bad_t0():
    for t0 in (0.0, 1.0):
        with pytest.raises(QuadratureError):
            kernel_integral(lambda r: r, 1.0, t0, 3)


def test_gaussian_kernel_moment_with_offset():
    # int |y|^2 G(y-x0, t0) dy = 2 n (-t0) + |x0|^2 (covariance + mean shift)
    n, b, t0 = 3, 2.5, -0.7
    val = kernel_integral(lambda r: r**2, b, t0, n)
    assert val == pytest.approx(2 * n * (-t0) + b**2, rel=1e-11)


def test_rules_give_one_row_per_point():
    n, r_cut = 3, 8.3
    b, t0s = [0.0, 0.5, 0.0, 9.0], [-0.3, -1.0, -7.5, -0.01]
    nodes, weights = _rules(b, t0s, n, r_cut)
    assert nodes.shape == weights.shape == (4, RULE_NODES)
    # each row is the one-point rule, bit for bit, whatever its batch
    for k in range(4):
        one_nodes, one_weights = _rules([b[k]], [t0s[k]], n, r_cut)
        assert one_nodes[0].tobytes() == nodes[k].tobytes()
        assert one_weights[0].tobytes() == weights[k].tobytes()
    # shared: nearby points on one node set that covers all their windows
    b, t0s = [0.0, 1e-3, 2e-3], [-1.0, -1.001, -0.999]
    nodes, weights = _rules(b, t0s, n, r_cut, shared=True)
    assert nodes.shape == (1, RULE_NODES) and weights.shape == (3, RULE_NODES)
    assert nodes[0, -1] > 2e-3 + 16.0 * math.sqrt(1.001)
    for k in range(3):
        assert np.dot(weights[k], nodes[0] ** 2) == pytest.approx(
            b[k] ** 2 - 2 * n * t0s[k], rel=1e-13)
    # points too far apart for one node set miss the kernel's mass
    with pytest.raises(ParameterError, match="unit mass"):
        _rules([0.0, 9.0], [-400.0, -1e-4], n, r_cut, shared=True)


# names of the rule builder's parts: only quadrature may use them
RULE_PARTS = {"_gl_panels", "_offset_weights", "_kernel_norm",
              "_panel_fractions", "_sphere_average", "_bessel_sphere_average",
              "leggauss", "roots_genlaguerre", "roots_legendre"}


def test_no_module_but_quadrature_builds_nodes_or_weights():
    src = Path(quadrature.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        used |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not used & RULE_PARTS, (path.name, used & RULE_PARTS)
