import dataclasses
import inspect

import numpy as np
import pytest

from selfsim import spectrum
from selfsim.core import (GRID_R_MAX, ParameterError, constant_profile,
                          make_params, singular_profile)
from selfsim.fixtures import reference_profile
from selfsim.flow import FlowConfig
from selfsim.spectrum import (_radial_cells, apply_L, build_sector,
                              eigen_smallest, first_eigenfunction,
                              rayleigh_quotient)

from test_quadrature import rho_integral

P33 = make_params(3, 3.0)


@pytest.fixture(scope="module")
def wshoot():
    return reference_profile(3, 7.0)


def hermite_levels(params, ell, shift, count=4):
    """Analytic sector spectrum of the drift Laplacian plus a constant:
    lambda = (l + 2k)/2 - shift, k = 0, 1, ..."""
    return np.array([0.5 * (ell + 2 * k) - shift for k in range(count)])


def test_zero_profile_radial_spectrum():
    # w = 0: L is the drift Laplacian minus 1/(p-1); p=3 gives {0.5, 1.5, 2.5}
    prof = constant_profile(P33, "0")
    op = build_sector(prof, 0, resolution=2000)
    res = eigen_smallest(op, 3, refine=True, profile=prof)
    assert np.allclose(res.lambdas, [0.5, 1.5, 2.5], atol=1e-7)


def test_kappa_radial_and_first_sector_spectrum():
    prof = constant_profile(P33, "+")
    op0 = build_sector(prof, 0, resolution=2000)
    res0 = eigen_smallest(op0, 3, refine=True, profile=prof)
    # mass term -1/(p-1) + p kappa^{p-1} = +1 shifts all levels down by 1
    assert np.allclose(res0.lambdas, hermite_levels(P33, 0, 1.0, 3), atol=1e-6)
    op1 = build_sector(prof, 1, resolution=2000)
    res1 = eigen_smallest(op1, 2, refine=True, profile=prof)
    assert np.allclose(res1.lambdas, hermite_levels(P33, 1, 1.0, 2), atol=1e-6)


def test_doubling_certificate_small():
    prof = constant_profile(P33, "+")
    op = build_sector(prof, 0, resolution=2000)
    res = eigen_smallest(op, 2, refine=True, profile=prof)
    assert res.certificates["doubling_shift"] < 1e-6


def test_eigenfunctions_orthonormal(wshoot):
    # int u_j u_k rho = delta_jk in every sector, with rho the n-dimensional
    # weight (sector functions u = r^l v, not v, are normalized); the Gram
    # matrix of the shot profile's sectors checks the weighted symmetry of
    # the discretization on a nonconstant potential
    for prof in (constant_profile(P33, "+"), wshoot):
        for ell in (0, 1):
            op = build_sector(prof, ell, resolution=2000)
            res = eigen_smallest(op, 4, refine=True, profile=prof)
            G = res.samples @ (op.measure[None, :] * res.samples).T
            assert np.max(np.abs(G - np.eye(4))) < 1e-8
            norms = [rho_integral(lambda r, f=f: f(r) ** 2, P33.n)
                     for f in res.funcs]
            assert np.allclose(norms, 1.0, atol=1e-6)


def test_rayleigh_quotient_matches_lambda1():
    prof = constant_profile(P33, "+")
    op = build_sector(prof, 0, resolution=2000)
    res = eigen_smallest(op, 1, refine=False)
    rq = rayleigh_quotient(op, res.samples[0])
    assert rq == pytest.approx(res.lambdas[0], abs=1e-8)
    # any other direction sits above the minimum
    bump = np.exp(-((op.r - 2.0) ** 2))
    assert rayleigh_quotient(op, bump) > res.lambdas[0]


def test_sector_monotonicity(wshoot):
    lams = []
    for ell in (0, 1, 2):
        op = build_sector(wshoot, ell, resolution=2500)
        lams.append(eigen_smallest(op, 1, refine=True,
                                   profile=wshoot).lambdas[0])
    assert lams[0] < lams[1] < lams[2]


def test_shooting_profile_ground_state_below_minus_one(wshoot):
    lam1, f, cert = first_eigenfunction(wshoot, resolution=4000)
    assert lam1 < -1.0 - 1.0          # enormous margin for this profile
    assert cert["doubling_shift"] < 0.05
    # second radial eigenvalue is the scaling mode at exactly -1
    op = build_sector(wshoot, 0, resolution=4000)
    res = eigen_smallest(op, 2, refine=True, profile=wshoot)
    assert res.lambdas[1] == pytest.approx(-1.0, abs=2e-3)
    # translation mode: l=1 ground at exactly -1/2
    op1 = build_sector(wshoot, 1, resolution=4000)
    res1 = eigen_smallest(op1, 1, refine=True, profile=wshoot)
    assert res1.lambdas[0] == pytest.approx(-0.5, abs=2e-3)


def test_ground_state_positive_normalized(wshoot):
    op = build_sector(wshoot, 0, resolution=3000)
    res = eigen_smallest(op, 1, refine=False)
    f = res.samples[0]
    assert np.all(f > -1e-10 * np.abs(f).max())
    assert np.dot(op.measure, f * f) == pytest.approx(1.0, rel=1e-10)


def test_apply_L_scaling_field_eigenrelation(wshoot):
    # L Lambda(w) = Lambda(w) for stationary w (eigenvalue -1 in the
    # L f + lambda f = 0 convention)
    params = wshoot.params
    lam_fun = lambda r: (2.0 / (params.p - 1.0)) * wshoot.value(r) \
        + r * wshoot.deriv(r)
    grid = wshoot.grid
    _, Lv = apply_L(wshoot, lam_fun, ell=0, grid=grid)
    resid = Lv - lam_fun(grid)
    lam_c = lambda r: np.interp(r, grid, lam_fun(grid),
                                left=lam_fun(grid[:1])[0], right=0.0)
    res_c = lambda r: np.interp(r, grid, resid, left=0.0, right=0.0)
    num = rho_integral(lambda r: res_c(r) ** 2, params.n) ** 0.5
    den = rho_integral(lambda r: lam_c(r) ** 2, params.n) ** 0.5
    assert num <= 1e-5 and num / den <= 1e-5


def test_apply_L_translation_mode(wshoot):
    # sector l=1 on w': L_1 w' = w'/2
    grid = wshoot.grid[4:-4]
    _, Lv = apply_L(wshoot, lambda r: wshoot.deriv(r), ell=1, grid=grid)
    resid = Lv - 0.5 * wshoot.deriv(grid)
    res_c = lambda r: np.interp(r, grid, resid, left=0.0, right=0.0)
    dw_c = lambda r: np.interp(r, grid, wshoot.deriv(grid), left=0.0, right=0.0)
    num = rho_integral(lambda r: res_c(r) ** 2, wshoot.params.n) ** 0.5
    den = rho_integral(lambda r: dw_c(r) ** 2, wshoot.params.n) ** 0.5
    assert num <= 1e-5 and num / den <= 1e-4


def test_apply_L_kappa_constant():
    prof = constant_profile(P33, "+")
    c = 2.0 * P33.kappa / (P33.p - 1.0)
    grid = np.linspace(0.3, 10.0, 400)
    _, Lv = apply_L(prof, lambda r: np.full_like(r, c), ell=0, grid=grid)
    assert np.max(np.abs(Lv - c)) < 1e-10


def ground_state(prof, resolution, monkeypatch, r_max=GRID_R_MAX):
    """The radial sector's grid and unrefined ground state (lambda, samples)
    at resolution cells, on a grid truncated at r_max."""
    with monkeypatch.context() as patch:
        patch.setattr(spectrum, "GRID_R_MAX", r_max)
        op = build_sector(prof, 0, resolution=resolution)
    res = eigen_smallest(op, 1, refine=False)
    return op.r, res.lambdas[0], res.samples[0]


def decay_sup(prof, r, f):
    """sup (1+r)^{2p/(p-1)} |f| over r >= GRID_R_MAX / 2."""
    p = prof.params.p
    tail = r >= 0.5 * GRID_R_MAX
    return np.max((1.0 + r[tail]) ** (2.0 * p / (p - 1.0)) * np.abs(f[tail]))


def test_boundary_truncation_insensitivity(monkeypatch):
    # Gaussian weight makes the truncation radius invisible to the lowest
    # modes: extending the domain by 20% at fixed spacing moves lambda_1 by
    # less than 1e-9
    prof = constant_profile(P33, "+")
    _, lam, _ = ground_state(prof, 2000, monkeypatch)
    _, lam_ext, _ = ground_state(prof, 2400, monkeypatch, 1.2 * GRID_R_MAX)
    assert abs(lam_ext - lam) <= 1e-9


def test_decay_certificate_stable_under_extension(wshoot, monkeypatch):
    r, _, f = ground_state(wshoot, 3000, monkeypatch)
    r_ext, _, f_ext = ground_state(wshoot, 3600, monkeypatch,
                                   1.2 * GRID_R_MAX)
    assert r_ext[-1] > r[-1] + 3.9
    sup = decay_sup(wshoot, r, f)
    assert np.isfinite(sup)
    # the weighted tail bound must not blow up when the domain grows
    assert decay_sup(wshoot, r_ext, f_ext) <= 2.0 * sup + 1e-6


def test_first_eigenfunction_of_constants():
    lam1, f, cert = first_eigenfunction(constant_profile(P33, "+"),
                                        resolution=2000)
    assert lam1 == pytest.approx(-1.0, abs=1e-7)
    r = np.linspace(0.1, 10.0, 50)
    assert np.ptp(f(r)) < 1e-6  # constant ground state
    lam0, f0, _ = first_eigenfunction(constant_profile(P33, "0"),
                                      resolution=2000)
    assert lam0 == pytest.approx(0.5, abs=1e-7)  # 1/(p-1) at p=3


def test_first_eigenfunction_solves_each_operator_once(wshoot, monkeypatch):
    # two operators (resolution and doubled), one eigensolve each: the
    # refined eigen_smallest's lambda_1 and certificates, bit for bit
    builds, solves = [], []
    build, solve = spectrum.build_sector, spectrum.eigh_tridiagonal

    def counted_build(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectrum, "build_sector", counted_build)
    monkeypatch.setattr(spectrum, "eigh_tridiagonal", counted_solve)
    lam1, f, cert = first_eigenfunction(wshoot, resolution=4000)
    assert len(builds) == 2 and len(solves) == 2
    monkeypatch.undo()
    refined = eigen_smallest(build_sector(wshoot, 0, resolution=4000), 1,
                             refine=True, profile=wshoot)
    assert repr(lam1) == repr(float(refined.lambdas[0]))
    assert cert == refined.certificates
    r = np.linspace(0.0, GRID_R_MAX, 4001)
    assert f(r).tobytes() == refined.funcs[0](r).tobytes()


def test_the_truncation_radius_is_no_parameter():
    # GRID_R_MAX is the one radius of the sectors' and the flow's grids
    assert list(inspect.signature(build_sector).parameters) == [
        "profile", "ell", "resolution"]
    assert list(inspect.signature(_radial_cells).parameters) == ["n_eff", "N"]
    assert "r_max" not in {fld.name for fld in dataclasses.fields(FlowConfig)}
    assert not hasattr(spectrum, "R_MAX")


def test_a_grid_above_the_cell_cap_is_refused_before_allocation():
    # 1e11 cells would need 800 GB per array: the refusal names N
    prof = constant_profile(P33, "+")
    with pytest.raises(ParameterError, match="N=100000000000"):
        build_sector(prof, 0, resolution=10**11)


def test_singular_profile_rejected():
    with pytest.raises(ParameterError):
        build_sector(singular_profile(make_params(7, 3.0)), 0)


@pytest.mark.parametrize("ell,resolution,match", [
    (1.5, 100, "sector index"), (-1, 100, "sector index"),
    (0, 4.7, "resolution"), (0, 3, "resolution"),
    (0, float("nan"), "resolution")])
def test_a_sector_request_out_of_range_or_not_integral_is_refused(
        ell, resolution, match):
    prof = constant_profile(P33, "+")
    with pytest.raises(ParameterError, match=match):
        build_sector(prof, ell, resolution=resolution)


@pytest.mark.parametrize("k", [1.5, 0, 26, float("nan")])
def test_an_eigenpair_count_out_of_range_or_not_integral_is_refused(k):
    # a parameter error, not the eigensolver's numerical failure
    op = build_sector(constant_profile(P33, "+"), 0, resolution=100)
    with pytest.raises(ParameterError, match="k must be an integer"):
        eigen_smallest(op, k, refine=False)


def test_integral_floats_are_accepted_as_integers():
    prof = constant_profile(P33, "+")
    op = build_sector(prof, 1.0, resolution=100.0)
    assert op.meta["resolution"] == 100
    res = eigen_smallest(op, 2.0, refine=False)
    exact = eigen_smallest(build_sector(prof, 1, 100), 2, refine=False)
    assert res.lambdas.tolist() == exact.lambdas.tolist()


@pytest.mark.parametrize("n,ell,resolution", [(3, 33, 6000), (3, 60, 400),
                                              (300, 0, 100)])
def test_sector_weights_beyond_the_float_range_are_refused(n, ell,
                                                           resolution):
    # the centre weights' product underflows in the symmetrization (l = 33,
    # 60), or r^(n-1) overflows at r_max (n = 300)
    prof = constant_profile(make_params(n, 3.0), "+")
    with pytest.raises(ParameterError,
                       match=f"n={n}, l={ell}, resolution={resolution}"):
        build_sector(prof, ell, resolution=resolution)
