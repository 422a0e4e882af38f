from types import SimpleNamespace

import numpy as np
import pytest

from selfsim.core import constant_profile, make_params, singular_profile
from selfsim.fixtures import reference_profile
from selfsim.variations import (MARGINAL_TOL, Variation, first_variation,
                                gaussian_bump, general_second_variation_fd,
                                lambda_field, random_variations,
                                second_variation, stability_report)

from test_quadrature import rho_integral

P33 = make_params(3, 3.0)
P37 = make_params(3, 7.0, require_supercritical=True)
P73 = make_params(7, 3.0, require_supercritical=True)


@pytest.fixture(scope="module")
def wshoot():
    return reference_profile(3, 7.0)


def test_first_variation_vanishes_at_solutions(wshoot):
    for prof in (constant_profile(P33, "+"), constant_profile(P37, "+"), wshoot):
        for var in random_variations(10, seed=3):
            scale = max(abs(var.h), abs(var.y0), 1.0)
            assert abs(first_variation(prof, var)) < 1e-6 * scale


def test_first_variation_zero_profile_zero_phi():
    prof = constant_profile(P33, "0")
    var = Variation(h=0.7, y0=1.1)
    assert first_variation(prof, var) == pytest.approx(0.0, abs=1e-14)


def test_first_variation_matches_fd_on_non_solution():
    # w = 1.1 kappa is not stationary; compare against a centered difference
    # of F along the same path
    from selfsim.core import RadialProfile, KIND_TABULATED, default_grid
    from selfsim.functionals import f_functional
    grid = default_grid()
    w0 = 1.1 * P33.kappa
    prof = RadialProfile(kind=KIND_TABULATED, params=P33, grid=grid,
                         values=np.full_like(grid, w0),
                         derivs=np.zeros_like(grid),
                         meta={"axis_value": w0})
    var = gaussian_bump(0.8, 1.0, 1.2)
    var.h = 0.4

    def F(s):
        vals = np.full_like(grid, w0) + s * var.phi(grid)
        pert = RadialProfile(kind=KIND_TABULATED, params=P33, grid=grid,
                             values=vals, derivs=s * var.dphi(grid),
                             meta={"axis_value": vals[0]})
        return f_functional(pert, 0.0, -1.0 + s * var.h)

    d = 1e-4
    fd = (F(d) - F(-d)) / (2 * d)
    an = first_variation(prof, var)
    assert an == pytest.approx(fd, rel=1e-6)


def separate_integrand_variations(profile, var):
    """First and second variation from one weighted integral per integrand,
    each evaluating the profile and the test function."""
    n, p, h = profile.params.n, profile.params.p, var.h
    w, dw, phi, dphi = profile.value, profile.deriv, var.phi, var.dphi
    lam = lambda r: 2.0 * w(r) / (p - 1.0) + r * dw(r)
    integral = lambda g: rho_integral(g, n, profile.grid[-1])
    grad2 = integral(lambda r: dw(r) ** 2)
    mass = integral(lambda r: w(r) ** 2)
    pot = integral(lambda r: np.abs(w(r)) ** (p + 1.0))
    mom = lambda total, g: h * (0.5 * n * total
                                - 0.25 * integral(lambda r: r**2 * g(r)))
    first = (-(p + 1.0) / (2.0 * (p - 1.0)) * h * grad2
             + h / (p - 1.0) * pot
             - h / (p - 1.0) ** 2 * mass
             + integral(lambda r: dw(r) * dphi(r))
             - integral(lambda r: np.abs(w(r)) ** (p - 1.0) * w(r) * phi(r))
             + integral(lambda r: w(r) * phi(r)) / (p - 1.0)
             + 0.5 * mom(grad2, lambda r: dw(r) ** 2)
             - mom(pot, lambda r: np.abs(w(r)) ** (p + 1.0)) / (p + 1.0)
             + 0.5 * mom(mass, lambda r: w(r) ** 2) / (p - 1.0))
    second = (integral(lambda r: dphi(r) ** 2)
              + integral(lambda r: phi(r) ** 2) / (p - 1.0)
              - p * integral(lambda r: np.abs(w(r)) ** (p - 1.0) * phi(r) ** 2)
              + h * integral(lambda r: lam(r) * phi(r))
              - 0.5 * var.y0 ** 2 / n * grad2
              - 0.25 * h ** 2 * integral(lambda r: lam(r) ** 2))
    return first, second


def test_variations_evaluate_the_profile_once_and_match_bit_for_bit(
        wshoot, monkeypatch):
    for prof in (constant_profile(P37, "+"), wshoot):
        for var in random_variations(10, seed=5):
            assert (first_variation(prof, var), second_variation(prof, var)) \
                == separate_integrand_variations(prof, var)
    calls = []
    sample = wshoot.sample
    monkeypatch.setattr(wshoot, "sample",
                        lambda r: calls.append("sample") or sample(r))
    var = random_variations(1, seed=5)[0]
    first_variation(wshoot, var)
    second_variation(wshoot, var)
    assert calls == ["sample"] * 2


def test_second_variation_kappa_dilation_only():
    # phi = 0, h = 1: value is -kappa^2/(p-1)^2 = -0.125 at p = 3
    prof = constant_profile(P33, "+")
    val = second_variation(prof, Variation(h=1.0))
    assert val == pytest.approx(-0.125, abs=1e-12)


def test_second_variation_kappa_constant_phi():
    # phi = 1, h = y0 = 0: 1/(p-1) - p/(p-1) = -1 for any p
    one = Variation(phi=lambda r: np.ones_like(r), dphi=lambda r: np.zeros_like(r))
    for params in (P33, P37):
        prof = constant_profile(params, "+")
        assert second_variation(prof, one) == pytest.approx(-1.0, abs=1e-10)


def test_second_variation_translation_term_nonpositive(wshoot):
    val = second_variation(wshoot, Variation(y0=1.0))
    assert val < 0.0


def test_second_variation_rejects_non_solutions():
    from selfsim.core import RadialProfile, KIND_TABULATED, default_grid
    grid = default_grid()
    prof = RadialProfile(kind=KIND_TABULATED, params=P33, grid=grid,
                         values=np.full_like(grid, 1.1 * P33.kappa),
                         derivs=np.zeros_like(grid))
    with pytest.raises(ValueError):
        second_variation(prof, Variation(h=1.0))


def test_fd_matches_closed_form_kappa_dilation():
    prof = constant_profile(P33, "+")
    fd = general_second_variation_fd(prof, Variation(h=1.0), delta=1e-3)
    assert fd == pytest.approx(-0.125, abs=1e-5)


def test_fd_richardson_consistency():
    # use a variation with visible fourth derivative so truncation dominates
    prof = constant_profile(P33, "+")
    var = gaussian_bump(0.8, 1.2, 1.0)
    var.h = 0.8
    sv = second_variation(prof, var)
    e1 = general_second_variation_fd(prof, var, delta=2e-3) - sv
    e2 = general_second_variation_fd(prof, var, delta=1e-3) - sv
    # halving delta shrinks the O(delta^2) error by about 4 (noise floor guard)
    assert abs(e2) < abs(e1) / 2.0 + 5e-8


def test_fd_agrees_with_closed_form_random_batch(wshoot):
    # the acceptance-level oracle: 20 seeded random variations on kappa and
    # on the shooting profile
    for prof in (constant_profile(P37, "+"), wshoot):
        scale_ref = abs(second_variation(
            prof, Variation(phi=lambda r: np.ones_like(r),
                            dphi=lambda r: np.zeros_like(r))))
        for var in random_variations(20, seed=42):
            sv = second_variation(prof, var)
            fd = general_second_variation_fd(prof, var, delta=2.5e-4)
            scale = max(abs(sv), 0.05 * scale_ref)
            assert abs(sv - fd) / scale < 1e-4


def test_fd_agrees_with_closed_form_small_offset(wshoot):
    # |x(s)| = |s y0| ~ 5e-7 puts the profile core below c = r b / (2a) =
    # 1e-8, where the angular factor must keep its O(c) decay: a constant
    # there jumps at the switch and the 1/delta^2 amplifies the jump
    var = gaussian_bump(0.8, 1.0, 1.0)
    var.h, var.y0 = -0.756, -0.002
    sv = second_variation(wshoot, var)
    for delta in (2.5e-4, 1.25e-4):
        fd = general_second_variation_fd(wshoot, var, delta=delta)
        assert abs(sv - fd) / abs(sv) < 1e-4


def test_fd_insensitive_to_second_order_path_data_at_solutions(wshoot):
    # h2, y02 enter only through the vanishing first variation
    var = gaussian_bump(0.5, 1.0, 1.0)
    var.h, var.y0 = 0.4, 0.8
    base = general_second_variation_fd(wshoot, var, delta=1e-3)
    var.h2, var.y02 = 0.7, -0.9
    perturbed = general_second_variation_fd(wshoot, var, delta=1e-3)
    assert perturbed == pytest.approx(base, rel=1e-4, abs=1e-7)


def test_stability_report_orthogonality_certificates(wshoot):
    from selfsim.spectrum import build_sector, eigen_smallest
    from selfsim.variations import stability_report
    op0 = build_sector(wshoot, 0, resolution=6000)
    e0 = eigen_smallest(op0, 1, refine=True, profile=wshoot)
    rep = stability_report(wshoot, e0)
    # the certificate is the second variation's own <Lam(w), f> pairing
    f, p = e0.funcs[0], wshoot.params.p
    lam = lambda r: 2.0 * wshoot.value(r) / (p - 1.0) + r * wshoot.deriv(r)
    assert rep.orthogonality_scale == rho_integral(
        lambda r: f(r) * lam(r), 3, wshoot.grid[-1])
    assert rep.second_variation_value == second_variation(
        wshoot, Variation(phi=f, dphi=f.derivative(), h=0.3, y0=0.7))
    assert rep.verdict == "unstable"
    assert rep.lambda_1 < -1.0
    assert abs(rep.orthogonality_scale) <= 1e-6
    assert rep.second_variation_value < 0.0
    # destabilizing value sits at or below lambda_1 (up to quadrature error)
    assert rep.second_variation_value <= rep.lambda_1 + 1e-2


def test_lambda_field_kappa():
    lam, sign_change = lambda_field(constant_profile(P33, "+"))
    assert np.allclose(lam, 2 * P33.kappa / (P33.p - 1.0))
    assert not sign_change


def test_lambda_field_singular_identically_zero():
    lam, sign_change = lambda_field(singular_profile(P73))
    assert np.max(np.abs(lam)) < 1e-12
    assert not sign_change


def test_lambda_field_shooting_changes_sign(wshoot):
    lam, sign_change = lambda_field(wshoot)
    assert sign_change


@pytest.mark.parametrize("lam1", [-1.0, -1.0 - 0.5 * MARGINAL_TOL, -0.5])
def test_stability_report_is_marginal_near_lambda_minus_one(wshoot, lam1):
    # no direction is needed: a marginal verdict reads lambda_1 alone
    eig0 = SimpleNamespace(lambdas=np.array([lam1]), funcs=[None])
    rep = stability_report(wshoot, eig0)
    assert rep.verdict == "marginal"
    assert rep.lambda_1 == lam1 and rep.margin == lam1 + 1.0
    assert rep.second_variation_value is None
