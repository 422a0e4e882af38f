import math

import mpmath as mp
import numpy as np
import pytest

from selfsim.closedform import (GapScanRow, gap_inequality, gap_scan,
                                kappa_energy, phi_diagnostics, singular_energy,
                                sphere_constant, supercritical_p_grid)
from selfsim.core import ParameterError, make_params, singular_profile
from selfsim.functionals import energy


def mp_singular_energy(n, p):
    """High-precision oracle straight from the radial integral."""
    with mp.workdps(40):
        n, p = mp.mpf(n), mp.mpf(p)
        alpha = 2 / (p - 1)
        beta = alpha * (n - 2 - alpha)
        coeff = beta ** (1 / (p - 1))
        # int |y|^{-2(p+1)/(p-1)} rho dy = 2^g0 Gamma(n/2 + g0/2)/Gamma(n/2)
        g0 = -2 * (p + 1) / (p - 1)
        integral = 2 ** g0 * mp.gamma(n / 2 + g0 / 2) / mp.gamma(n / 2)
        val = (mp.mpf(1) / 2 - 1 / (p + 1)) * coeff ** (p + 1) * integral
        return float(val)


def test_singular_energy_exact_values():
    assert singular_energy(make_params(7, 3.0)) == pytest.approx(1.0 / 15.0,
                                                                 rel=1e-12)
    # mpmath oracle value for (6, 5): 0.0427425879...
    oracle = mp_singular_energy(6, 5)
    assert oracle == pytest.approx(0.0427426, abs=1e-6)
    assert singular_energy(make_params(6, 5.0)) == pytest.approx(oracle, rel=1e-12)


def test_singular_energy_rejects_divergent():
    # n=4, p=3: n-2-4/(p-1) = 0, the Gamma argument vanishes
    with pytest.raises(ParameterError):
        singular_energy(make_params(4, 3.0))
    with pytest.raises(ParameterError):
        singular_energy(make_params(6, 1.9))  # subcritical: argument < 0


def test_gap_values_and_consistency():
    assert gap_inequality(make_params(7, 3.0)) == pytest.approx(1.0 / 15.0,
                                                                rel=1e-10)
    oracle = mp_singular_energy(6, 5) / kappa_energy(make_params(6, 5.0)) - 1.0
    # frozen from the 40-digit oracle; E_kappa(p=5) = 1/24 exactly
    assert oracle == pytest.approx(0.0258220218389, abs=1e-10)
    assert gap_inequality(make_params(6, 5.0)) == pytest.approx(oracle, rel=1e-10)
    # algebraic identity: 1 + gap = E_singular / E_kappa
    for (n, p) in [(7, 3.0), (6, 5.0), (9, 2.2), (5, 4.0)]:
        params = make_params(n, p)
        lhs = 1.0 + gap_inequality(params)
        ratio = singular_energy(params) / kappa_energy(params)
        assert lhs == pytest.approx(ratio, rel=1e-12)


def test_singular_energy_quadrature_cross_check():
    # (3,7), (4,3.5) and (5,2.5) have energy integrands r^g, g in (-1, 0),
    # at the axis
    for (n, p) in [(7, 3.0), (6, 5.0), (10, 3.0), (3, 7.0), (4, 3.5),
                   (5, 2.5)]:
        params = make_params(n, p)
        rep = energy(singular_profile(params))
        assert rep.energy == pytest.approx(singular_energy(params), rel=1e-8)


def test_phi_convex_decreasing_positive():
    for alpha in (0.4, 1.0, 2.3):
        xs = np.linspace(1.5 + alpha, 50.0, 160)
        phis = []
        for x in xs:
            phi, dphi, d2phi = phi_diagnostics(x, alpha)
            phis.append(phi)
            assert d2phi >= -1e-10
            assert phi > 0.0
        # decreasing on [3/2 + alpha, inf)
        assert np.all(np.diff(phis) < 1e-12)


def test_phi_diagnostics_against_mpmath():
    # phi, phi', phi'' from 40-digit log-Gamma and polygamma; the terms are
    # compared at the scale of the largest constituent (phi -> 0 at large x
    # by cancellation between log-Gamma values of size x ln x)
    with mp.workdps(40):
        for alpha in (0.3, 1.0, 2.6):
            for x in (1.05 + alpha, 1.5 + alpha, 4.0, 17.3, 150.0):
                if not x > 1.0 + alpha:
                    continue
                shift = mp.mpf(x) - 1 - alpha
                half = mp.mpf(x) - 1 - mp.mpf(alpha) / 2
                exact = (mp.loggamma(shift) - mp.loggamma(x)
                         + (1 + alpha) * mp.log(half),
                         mp.psi(0, shift) - mp.psi(0, x) + (1 + alpha) / half,
                         mp.psi(1, shift) - mp.psi(1, x) - (1 + alpha) / half**2)
                scales = (max(1.0, abs(float(mp.loggamma(x)))),
                          max(1.0, abs(float(mp.psi(0, shift)))),
                          max(1.0, float(mp.psi(1, shift))))
                for got, want, scale in zip(phi_diagnostics(x, alpha), exact,
                                            scales):
                    assert abs(got - float(want)) <= 1e-13 * scale


def test_phi_vanishes_at_infinity():
    phi, _, _ = phi_diagnostics(200.0, 1.0)
    assert abs(phi) <= 1e-2
    phi2, _, _ = phi_diagnostics(2000.0, 1.0)
    assert abs(phi2) < abs(phi)


def test_phi_matches_finite_differences():
    x, alpha = 6.0, 1.2
    h = 1e-5
    phi0, dphi, d2phi = phi_diagnostics(x, alpha)
    pp = phi_diagnostics(x + h, alpha)[0]
    pm = phi_diagnostics(x - h, alpha)[0]
    assert dphi == pytest.approx((pp - pm) / (2 * h), abs=1e-8)
    assert d2phi == pytest.approx((pp - 2 * phi0 + pm) / h**2, abs=1e-4)


def test_phi_domain_errors():
    with pytest.raises(ValueError):
        phi_diagnostics(2.0, 1.5)
    with pytest.raises(ValueError):
        phi_diagnostics(5.0, -0.5)


def test_sphere_constant_values():
    phi, in_range = sphere_constant(make_params(7, 3.0))
    assert phi == pytest.approx(2.0, abs=1e-14)
    assert not in_range  # 3 > (7+1)/(7-3) = 2
    phi65, in65 = sphere_constant(make_params(6, 5.0))
    assert phi65 == pytest.approx(1.75**0.25, rel=1e-12)
    assert not in65  # 5 > 7/3
    phi52, in52 = sphere_constant(make_params(5, 2.5))
    assert in52  # 2.5 < 6/2 = 3
    assert phi52 == pytest.approx((20.0 / 9.0) ** (2.0 / 3.0), rel=1e-12)


def test_gap_scan_all_valid_rows_positive():
    rows = gap_scan(range(4, 11), p_count=40)
    assert len(rows) == 7 * 40
    valid = [r for r in rows if r.gamma_argument_positive and r.supercritical]
    assert len(valid) == len(rows)  # the default grid stays admissible
    assert all(r.ratio > 1.0 for r in valid)
    assert all(abs(r.ratio - r.inequality_lhs) < 1e-12 * r.ratio for r in valid)


def test_gap_scan_flags_divergent_rows():
    # supercritical p always has a positive Gamma argument; divergence sets
    # in at and below the critical exponent, where rows are flagged
    rows = gap_scan([6], p_grid=[1.9, 2.01, 2.26])
    assert rows[0].flagged and math.isinf(rows[0].e_singular)
    assert rows[1].gamma_argument_positive and rows[1].e_singular > 1.0
    assert rows[2].gamma_argument_positive and rows[2].ratio > 1.0


def test_gap_scan_matches_single_point_ops():
    rows = gap_scan([7], p_grid=[3.0])
    row = rows[0]
    assert row.e_singular == pytest.approx(1.0 / 15.0, rel=1e-12)
    assert row.ratio == pytest.approx(16.0 / 15.0, rel=1e-12)
    assert not row.in_uniqueness_range
