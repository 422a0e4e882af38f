import copy

import numpy as np
import pytest
from scipy.interpolate import BPoly, PPoly

from selfsim import core
from selfsim.core import (KIND_SINGULAR, KIND_TABULATED, ParameterError,
                          RadialProfile, _power_basis, constant_profile,
                          default_grid, make_params, singular_profile)
from selfsim.fixtures import reference_profile


def test_make_params_supercritical_gate():
    p = make_params(3, 7.0, require_supercritical=True)
    assert p.is_supercritical
    with pytest.raises(ParameterError):
        make_params(3, 5.0, require_supercritical=True)  # equals the critical exponent
    make_params(6, 5.0, require_supercritical=True)      # 5 > 2


def test_make_params_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        make_params(0, 3.0)
    with pytest.raises(ParameterError):
        make_params(3, 1.0)
    for p in (np.inf, -np.inf, np.nan):
        with pytest.raises(ParameterError, match=f"got {p}"):
            make_params(3, p)
    # kappa overflows at p = 1.001, kappa^{p+1} at p = 1.01
    for p in (1.001, 1.01):
        with pytest.raises(ParameterError, match=f"p={p} "):
            make_params(3, p)


def test_kappa_values():
    # oracle: mpmath mp.power(mp.mpf(1)/(p-1), mp.mpf(1)/(p-1))
    assert make_params(3, 2.0).kappa == pytest.approx(1.0, abs=1e-15)
    assert make_params(3, 3.0).kappa == pytest.approx(0.7071067811865476, abs=1e-12)
    assert make_params(3, 7.0).kappa == pytest.approx(0.7418363755904022, abs=1e-12)


def test_kappa_defining_identity_scanned():
    for p in np.linspace(1.02, 50.0, 197):
        params = make_params(4, p)
        k = params.kappa
        assert abs(k ** (p - 1.0) * (p - 1.0) - 1.0) < 1e-12


EQUATION_POINTS = [(3, 7.0), (4, 5.0), (3, 2.0), (10, 2.0)]


@pytest.mark.parametrize("n, p", EQUATION_POINTS)
def test_equation_terms_equal_the_spelled_out_equation_bit_for_bit(n, p):
    params = make_params(n, p)
    rng = np.random.default_rng(n)
    r = np.exp(rng.uniform(np.log(1e-6), np.log(30.0), 500))
    w, dw = rng.uniform(-3.0, 3.0, (2, 500))
    # the equation as test_shooting.oracle_shot spells it, plus the
    # potential and the scaling field in the same style
    drift = -((n - 1) / r - 0.5 * r)
    expect = {
        "drift": drift,
        "reaction": w / (p - 1.0) - np.abs(w) ** (p - 1.0) * w,
        "second_deriv": (-((n - 1) / r - 0.5 * r) * dw + w / (p - 1.0)
                         - np.abs(w) ** (p - 1.0) * w),
        "potential": -1.0 / (p - 1.0) + p * np.abs(w) ** (p - 1.0),
        "scaling_field": 2.0 * w / (p - 1.0) + r * dw,
    }
    got = {
        "drift": params.drift(r),
        "reaction": params.reaction(w),
        "second_deriv": params.second_deriv(params.drift(r), w, dw),
        "potential": params.potential(w),
        "scaling_field": params.scaling_field(r, w, dw),
    }
    for name in expect:
        assert got[name].tobytes() == expect[name].tobytes(), name


@pytest.mark.parametrize("n, p", EQUATION_POINTS)
def test_equation_terms_at_the_constant_solutions(n, p):
    params = make_params(n, p)
    kap = params.kappa
    assert params.reaction(0.0) == 0.0
    for level in (kap, -kap):
        # the shooting kernel's equilibrium test
        assert abs(params.reaction(level)) <= 1e-13 * kap
    assert params.potential(kap) == pytest.approx(1.0, abs=1e-14)
    assert params.scaling_field(2.5, kap, 0.0) == 2.0 * kap / (p - 1.0)
    # the potential is -g', the slope a shot's sensitivity to its height needs
    w = np.linspace(-2.0, 2.0, 41) + 0.013
    h = 1e-6
    slope = (params.reaction(w + h) - params.reaction(w - h)) / (2.0 * h)
    assert np.allclose(slope, -params.potential(w), rtol=1e-7, atol=1e-7)


def test_constant_profiles():
    params = make_params(3, 3.0)
    for sign, level in [("+", params.kappa), ("-", -params.kappa), ("0", 0.0)]:
        prof = constant_profile(params, sign)
        assert np.allclose(prof.values, level)
        assert np.allclose(prof.derivs, 0.0)
        r = np.array([0.0, 0.5, 3.0, 50.0])
        assert np.allclose(prof.value(r), level)
        assert np.allclose(prof.deriv(r), 0.0)
    prof7 = constant_profile(make_params(3, 7.0), "-")
    assert prof7.values[0] == pytest.approx(-0.7418363755904022, abs=1e-10)


def test_singular_profile_closed_form():
    prof = singular_profile(make_params(7, 3.0))
    assert prof.params.beta == pytest.approx(4.0, abs=1e-14)
    assert prof.value(1.0) == pytest.approx(2.0, abs=1e-14)
    prof65 = singular_profile(make_params(6, 5.0))
    assert prof65.params.beta == pytest.approx(1.75, abs=1e-14)
    assert prof65.value(1.0) == pytest.approx(1.75 ** 0.25, abs=1e-12)
    with pytest.raises(ParameterError):
        singular_profile(make_params(3, 2.0))  # beta = (2)(1-2) < 0


def test_singular_profile_solves_unweighted_equation():
    # w'' + (n-1)/r w' + w^p = 0 pointwise; drift and mass terms cancel exactly
    params = make_params(7, 3.0)
    prof = singular_profile(params)
    r = np.geomspace(0.05, 20.0, 300)
    w = prof.value(r)
    q = params.decay_power
    c = prof.decay_coeff
    w2 = q * (q + 1.0) * c * r ** (-q - 2.0)
    lap = w2 + (params.n - 1) / r * prof.deriv(r)
    assert np.max(np.abs(lap + w**params.p) / np.abs(w2)) < 1e-10


def test_singular_profile_full_equation_residual():
    # with exact derivatives the drift and mass terms cancel the Laplacian
    # and power parts identically; assert the full residual, not just the
    # unweighted reduction
    params = make_params(7, 3.0)
    prof = singular_profile(params)
    r = np.geomspace(0.05, 20.0, 400)
    q = params.decay_power
    c = prof.decay_coeff
    w = prof.value(r)
    dw = prof.deriv(r)
    d2w = q * (q + 1.0) * c * r ** (-q - 2.0)
    res = d2w + ((params.n - 1) / r - r / 2.0) * dw - w / (params.p - 1.0) \
        + np.abs(w) ** (params.p - 1.0) * w
    assert np.max(np.abs(res) / np.abs(d2w)) < 1e-10


def test_profile_tail_evaluation():
    params = make_params(3, 7.0)
    prof = singular_profile(params)
    r_big = np.array([30.0, 100.0])
    expect = prof.decay_coeff * r_big ** (-params.decay_power)
    assert np.allclose(prof.value(r_big), expect, rtol=1e-14)


def test_default_grid_shape():
    g = default_grid()
    assert g[0] == pytest.approx(1e-6) and g[-1] == pytest.approx(20.0)
    assert np.all(np.diff(g) > 0)


def _tabulated(grid, **fields):
    data = dict(values=np.exp(-grid), derivs=-np.exp(-grid),
                second_derivs=np.exp(-grid))
    data.update(fields)
    return RadialProfile(kind=KIND_TABULATED, params=make_params(3, 7.0),
                         grid=grid, **data)


@pytest.mark.parametrize("name", ["derivs", "second_derivs"])
def test_profile_rejects_derivative_data_that_is_not_1d(name):
    grid = np.linspace(0.1, 2.0, 20)
    with pytest.raises(ParameterError, match=name):
        _tabulated(grid, **{name: np.exp(-grid)[:, None]})


@pytest.mark.parametrize("name", ["derivs", "second_derivs"])
def test_profile_rejects_derivative_data_off_the_grid_length(name):
    grid = np.linspace(0.1, 2.0, 20)
    with pytest.raises(ParameterError, match=name):
        _tabulated(grid, **{name: np.exp(-grid)[:-1]})


@pytest.mark.parametrize("name", ["derivs", "second_derivs"])
def test_profile_rejects_nonfinite_derivative_data(name):
    grid = np.linspace(0.1, 2.0, 20)
    bad = np.exp(-grid)
    bad[7] = np.nan
    with pytest.raises(ParameterError, match=name):
        _tabulated(grid, **{name: bad})
    # the singular kind may carry non-finite data, as for its values
    sp = singular_profile(make_params(3, 7.0))
    derivs = sp.derivs.copy()
    derivs[0] = -np.inf
    RadialProfile(kind=KIND_SINGULAR, params=sp.params, grid=sp.grid,
                  values=sp.values, derivs=derivs, decay_coeff=sp.decay_coeff)


def test_profile_rejects_a_grid_of_one_knot():
    with pytest.raises(ParameterError, match="two knots"):
        _tabulated(np.array([1.0]))


def parent_quintic(grid, values, derivs, second_derivs):
    """The oracle: the quintic as scipy's per-interval
    BPoly.from_derivatives builds it, taken to the power basis."""
    bp = BPoly.from_derivatives(
        grid, np.column_stack([values, derivs, second_derivs]))
    return _power_basis(bp.c, bp.x)


def _quintic_coefficients(grid, values, derivs, second_derivs):
    prof = _tabulated(grid, values=values, derivs=derivs,
                      second_derivs=second_derivs)
    prof._ensure_spline()
    return prof._spline.c[..., 0]


def test_quintic_build_equals_scipys_per_interval_build_bit_for_bit():
    ref = reference_profile(3, 7.0)
    data = (ref.grid, ref.values, ref.derivs, ref.second_derivs)
    assert np.array_equal(_quintic_coefficients(*data),
                          parent_quintic(*data).c)
    # seeded non-uniform grids whose widths span 1e-6 to 1
    rng = np.random.default_rng(19)
    for size in (2, 3, 50, 700):
        widths = 10.0 ** rng.uniform(-6.0, 0.0, size - 1)
        grid = np.concatenate([[0.0], np.cumsum(widths)]) + rng.uniform(0, 1)
        data = (grid, *(rng.standard_normal((3, size))
                        * 10.0 ** rng.uniform(-3, 3, (3, 1))))
        assert np.array_equal(_quintic_coefficients(*data),
                              parent_quintic(*data).c)


def test_quintic_build_does_not_call_bpoly(monkeypatch):
    class Refuses:
        @staticmethod
        def from_derivatives(*args, **kwargs):
            raise AssertionError("BPoly.from_derivatives was called")

    grid = np.linspace(0.1, 2.0, 20)
    expected = parent_quintic(grid, np.exp(-grid), -np.exp(-grid),
                              np.exp(-grid)).c
    monkeypatch.setattr(core, "BPoly", Refuses)
    prof = _tabulated(grid)
    prof.value(grid)
    assert np.array_equal(prof._spline.c[..., 0], expected)


def _sampled_kinds():
    """One profile of every kind, each with the radii where its evaluation
    changes rule: below the first knot, on the knots, between them and past
    the last knot."""
    p37 = make_params(3, 7.0)
    grid = np.linspace(0.01, 5.0, 50)
    cubic = RadialProfile(kind=KIND_TABULATED, params=p37, grid=grid,
                          values=np.exp(-grid), derivs=-np.exp(-grid),
                          meta={"axis_value": 1.0})
    tailed = RadialProfile(kind=KIND_TABULATED, params=p37, grid=grid,
                           values=grid ** -0.5, derivs=-0.5 * grid ** -1.5,
                           decay_coeff=1.0)
    return {"zero": constant_profile(p37, "0"),
            "kappa": constant_profile(p37, "+"),
            "singular": singular_profile(make_params(7, 3.0)),
            "quintic": reference_profile(3, 7.0),
            "cubic": cubic, "cubic-tail": tailed}


@pytest.mark.parametrize("name", ["zero", "kappa", "singular", "quintic",
                                  "cubic", "cubic-tail"])
def test_sample_is_value_and_deriv_bit_for_bit_on_every_stretch(name):
    prof = _sampled_kinds()[name]
    g = prof.grid
    stretches = {"below": g[0] * np.array([0.0, 0.25, 0.999]),
                 "knots": g,
                 "inside": 0.5 * (g[:-1] + g[1:]),
                 "past": g[-1] * np.array([1.001, 1.5, 3.0])}
    # the singular solution's slope at r = 0 overflows to -inf
    with np.errstate(over="ignore"):
        for where, r in stretches.items():
            w, dw = prof.sample(r)
            assert w.shape == dw.shape == r.shape, where
            assert np.array_equal(w, prof.value(r)), where
            assert np.array_equal(dw, prof.deriv(r)), where
        # the radii in one call or one at a time give the same samples
        r = np.concatenate(list(stretches.values()))
        w, dw = prof.sample(r)
        one = [prof.sample(x) for x in r]
    assert np.array_equal(w, [s[0] for s in one])
    assert np.array_equal(dw, [s[1] for s in one])


@pytest.mark.parametrize("name", ["quintic", "cubic", "cubic-tail"])
def test_sample_equals_the_clipped_polynomial_with_head_and_tail_bit_for_bit(
        name):
    # the reference evaluates the polynomial at every radius clipped into the
    # grid, then overwrites the rows past the tail's start and below the
    # first knot
    prof = _sampled_kinds()[name]
    g = prof.grid
    r = np.concatenate([g[0] * np.array([0.0, 0.25, 0.999]), g,
                        0.5 * (g[:-1] + g[1:]),
                        g[-1] * np.array([1.0, 1.001, 1.5, 3.0]),
                        np.random.default_rng(3).uniform(0.0, 2 * g[-1], 200)])
    prof._ensure_spline()
    w, dw = prof._spline(r.clip(g[0], g[-1])).T.copy()
    past = r > g[-1]
    if prof.decay_coeff is not None:
        q = prof.params.decay_power
        w[past] = prof.decay_coeff * r[past] ** (-q)
        dw[past] = -q * prof.decay_coeff * r[past] ** (-q - 1.0)
    head = r < g[0]
    w0 = prof.meta.get("axis_value", prof.values[0])
    curv = 2.0 * (prof.values[0] - w0) / g[0] ** 2
    w[head], dw[head] = w0 + 0.5 * curv * r[head] ** 2, curv * r[head]
    got = prof.sample(r)
    assert np.array_equal(got[0], w) and np.array_equal(got[1], dw)
    if prof.decay_coeff is None:
        # no tail: past the last knot, the last knot's value and slope
        last = prof.sample(g[-1])
        assert np.all(got[0][past] == last[0])
        assert np.all(got[1][past] == last[1])


@pytest.mark.parametrize("name", ["quintic", "cubic", "cubic-tail"])
def test_dropping_the_interpolant_rebuilds_it_from_the_current_data(name):
    # a copy: the quintic is the shared reference profile
    prof = copy.deepcopy(_sampled_kinds()[name])
    g = prof.grid
    r = np.concatenate([g, 0.5 * (g[:-1] + g[1:])])
    before = prof.sample(r)
    prof.values = prof.values + 0.1 * np.sin(g)
    prof.derivs = prof.derivs + 0.1 * np.cos(g)
    # the cache is the interpolant of the data it was built from
    assert all(np.array_equal(a, b) for a, b in zip(prof.sample(r), before))
    prof._spline = None
    want = RadialProfile(kind=prof.kind, params=prof.params, grid=g,
                         values=prof.values, derivs=prof.derivs,
                         second_derivs=prof.second_derivs,
                         decay_coeff=prof.decay_coeff).sample(r)
    after = prof.sample(r)
    assert not np.array_equal(after[0], before[0])
    assert all(np.array_equal(a, b) for a, b in zip(after, want))


@pytest.mark.parametrize("name", ["quintic", "cubic", "cubic-tail"])
def test_sample_columns_equal_the_interpolant_and_its_derivative(name):
    # the two-column interpolant against its w column as a polynomial of
    # its own and that polynomial's derivative, each with its own interval
    # search
    prof = _sampled_kinds()[name]
    prof._ensure_spline()
    w_only = PPoly(prof._spline.c[..., 0], prof._spline.x)
    g = prof.grid
    r = np.concatenate([g, 0.5 * (g[:-1] + g[1:])])
    w, dw = prof.sample(r)
    assert np.array_equal(w, w_only(r))
    assert np.array_equal(dw, w_only.derivative()(r))
    # below the first knot: the quadratic through the axis value
    below = g[0] * np.array([0.0, 0.5])
    w0 = prof.meta.get("axis_value", prof.values[0])
    curv = 2.0 * (prof.values[0] - w0) / g[0] ** 2
    w, dw = prof.sample(below)
    assert np.array_equal(w, w0 + 0.5 * curv * below ** 2)
    assert np.array_equal(dw, curv * below)
    if prof.decay_coeff is not None:
        q = prof.params.decay_power
        past = g[-1] * np.array([1.001, 2.0])
        w, dw = prof.sample(past)
        assert np.array_equal(w, prof.decay_coeff * past ** (-q))
        assert np.array_equal(dw, -q * prof.decay_coeff * past ** (-q - 1.0))
