import math
import re

import numpy as np
import pytest

from selfsim import flow, functionals, quadrature
from selfsim.core import (KIND_TABULATED, ParameterError, RadialProfile,
                          constant_profile, make_params, singular_profile)
from selfsim.fixtures import reference_profile
from selfsim.functionals import (constant_f_closed_form, density, energy,
                                 entropy, f_functional, identities)
from selfsim.quadrature import RULE_NODES, QuadratureError, _rules, _sums

P33 = make_params(3, 3.0)
P37 = make_params(3, 7.0, require_supercritical=True)
P73 = make_params(7, 3.0, require_supercritical=True)


@pytest.fixture(scope="module")
def wshoot():
    return reference_profile(3, 7.0)


def test_energy_of_kappa_p3_exact():
    # E(kappa) = (1/2 - 1/(p+1)) kappa^{p+1}; p=3: (1/4)(1/4) = 0.0625
    rep = energy(constant_profile(P33, "+"))
    assert rep.energy == pytest.approx(0.0625, abs=1e-12)
    assert rep.energy_shortcut == pytest.approx(0.0625, abs=1e-12)
    assert not rep.flags


def test_energy_of_kappa_p7():
    # oracle: (3/8) * 6^{-4/3} = 0.03439507550931901 (mpmath)
    rep = energy(constant_profile(P37, "+"))
    assert rep.energy == pytest.approx(0.034395075509319, abs=1e-10)


def test_energy_of_zero():
    rep = energy(constant_profile(P33, "0"))
    assert rep.energy == 0.0


def test_energy_terms_sum():
    rep = energy(constant_profile(P37, "+"))
    assert rep.energy == pytest.approx(rep.grad_term + rep.mass_term
                                       - rep.potential_term, abs=1e-15)


def test_energy_of_singular_profile_is_gamma_value():
    # (7,3): E = 1/15, both forms (the profile is stationary)
    rep = energy(singular_profile(P73))
    assert rep.energy == pytest.approx(1.0 / 15.0, rel=1e-9)
    assert rep.energy_shortcut == pytest.approx(1.0 / 15.0, rel=1e-9)
    assert not rep.flags


def test_energy_of_shooting_profile(wshoot):
    rep = energy(wshoot)
    # frozen from the development bisection at rtol 1e-13 (scipy.quad oracle)
    assert rep.energy == pytest.approx(0.0443175848, rel=1e-6)
    assert abs(rep.energy - rep.energy_shortcut) / rep.energy < 1e-4
    assert rep.energy > energy(constant_profile(P37, "+")).energy


def test_f_equals_energy_at_origin():
    for prof in (constant_profile(P33, "+"), constant_profile(P37, "+"),
                 singular_profile(P73)):
        e = energy(prof).energy
        f = f_functional(prof, 0.0, -1.0)
        assert f == pytest.approx(e, rel=1e-10)


def test_energy_is_f_at_the_canonical_point_bit_for_bit(wshoot):
    # both integrate the same three terms on the rule at (0, -1) and share
    # one formula
    for prof in (constant_profile(P33, "+"), constant_profile(P37, "+"),
                 constant_profile(P37, "-"), constant_profile(P37, "0"),
                 wshoot):
        assert energy(prof).energy == f_functional(prof, 0.0, -1.0)


def test_f_of_constant_closed_form():
    # g(a) = kappa^2 a^{2/(p-1)} / (2(p-1)) - kappa^{p+1} a^{(p+1)/(p-1)}/(p+1)
    prof = constant_profile(P33, "+")
    for x0 in (0.0, 1.0, 3.0):
        assert f_functional(prof, x0, -1.0) == pytest.approx(0.0625, abs=1e-11)
    # p=3, t0=-2: g(2) = 2/8 - 4/16 = 0
    for x0 in (0.0, 2.0):
        assert f_functional(prof, x0, -2.0) == pytest.approx(0.0, abs=1e-12)
    for t0 in (-0.3, -1.7, -5.0):
        assert f_functional(prof, 1.3, t0) == pytest.approx(
            constant_f_closed_form(prof, t0), abs=1e-12)


def test_f_rejects_nonnegative_t0():
    prof = constant_profile(P33, "+")
    with pytest.raises(ValueError):
        f_functional(prof, 0.0, 0.0)


def test_entropy_of_constants():
    res = entropy(constant_profile(P33, "+"))
    assert res.lam == pytest.approx(0.0625, abs=1e-9)
    assert abs(res.x0_norm) <= 1e-4 and abs(math.log(-res.t0)) <= 1e-4
    assert res.ring_margin_t > 0.0
    assert abs(res.ring_margin_x) < 1e-10  # flat spatial direction
    res0 = entropy(constant_profile(P33, "0"))
    assert res0.lam == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_shooting_profile(wshoot):
    res = entropy(wshoot)
    e = energy(wshoot).energy
    assert res.lam == pytest.approx(e, rel=1e-8)
    assert abs(res.x0_norm) <= 1e-4
    assert abs(math.log(-res.t0)) <= 1e-4
    assert res.ring_margin_t > 0 and res.ring_margin_x > 0
    assert not res.flags


def test_entropy_search_budget(wshoot, monkeypatch):
    # one batched pass for the coarse grid, then one per stencil, snap and
    # the ring probes; no point is evaluated on its own
    one, passes = [], []
    f, many = functionals.f_functional, functionals._f_values
    monkeypatch.setattr(functionals, "f_functional",
                        lambda *args: one.append(args) or f(*args))
    monkeypatch.setattr(functionals, "_f_values", lambda prof, bs, ts: (
        passes.append(len(bs)) or many(prof, bs, ts)))
    res = entropy(wshoot)
    assert one == []
    assert passes[0] == 169 and len(passes) <= 1 + 12
    assert not res.flags


@pytest.fixture(scope="module")
def perturbed(wshoot):
    """w + s f as the perturbation experiment builds it, f the ground state
    at unit sup norm, for s = +-0.05."""
    return flow._perturbed_profiles(wshoot, (0.05, -0.05))[2]


@pytest.mark.parametrize("s", [0.0, 0.05, -0.05])
def test_entropy_is_a_local_maximum_of_f(wshoot, perturbed, s):
    prof = perturbed[s] if s else wshoot
    res = entropy(prof)
    # a 5x5 grid of spacing 1e-3 around the argmax, x0 through |x0|
    d = 1e-3 * np.arange(-2, 3)
    la = math.log(-res.t0)
    vals = functionals._f_values(prof, np.repeat(np.abs(res.x0_norm + d), 5),
                                 -np.exp(np.tile(la + d, 5)))
    assert res.lam >= vals.max() - 1e-12
    assert not res.flags


def test_entropy_rejects_singular():
    with pytest.raises(ValueError):
        entropy(singular_profile(P73))


def test_entropy_never_below_sampled_f(wshoot):
    # the tabulated cubic holds its last value past r = 5, so F grows with
    # -t0 and its coarse best is far from (0, -1)
    for name in ("shooting", "tabulated"):
        res = entropy(batched_f_profiles(wshoot)[name])
        assert all(v <= res.lam + 1e-8 for (_, _, v) in res.trace), name


def test_identities_kappa_all_zero():
    rep = identities(constant_profile(P33, "+"))
    assert abs(rep.pohozaev_residual) < 1e-13
    assert abs(rep.mass_balance_residual) < 1e-13
    assert abs(rep.moment_balance_residual) < 1e-13


def test_identities_singular_profile():
    rep = identities(singular_profile(P73))
    assert abs(rep.mass_balance_residual) < 1e-6
    assert abs(rep.pohozaev_residual) < 1e-6
    assert abs(rep.moment_balance_residual) < 1e-6


def test_identities_shooting_profile(wshoot):
    rep = identities(wshoot)
    assert abs(rep.pohozaev_residual) < 1e-5
    assert abs(rep.mass_balance_residual) < 1e-5
    assert abs(rep.moment_balance_residual) < 1e-5


def test_density_at_origin_is_energy(wshoot):
    res = density(wshoot, 0.0)
    assert res.theta == pytest.approx(energy(wshoot).energy, rel=1e-9)
    assert res.monotone


def test_density_constant_is_energy_any_offset():
    prof = constant_profile(P33, "+")
    res = density(prof, 2.0)
    assert res.theta == pytest.approx(0.0625, abs=1e-10)


def test_density_decays_with_offset(wshoot):
    e = energy(wshoot).energy
    th1 = density(wshoot, 1.0)
    th3 = density(wshoot, 3.0)
    assert th1.monotone and th3.monotone
    assert th1.theta <= e + 1e-8
    assert th3.theta < th1.theta
    assert th3.theta < 0.05 * e


def test_density_monotone_path_many_offsets(wshoot):
    rng = np.random.default_rng(7)
    for x0 in rng.uniform(0.2, 4.0, size=8):
        assert density(wshoot, float(x0)).monotone


def test_density_rejects_bad_sequence(wshoot):
    with pytest.raises(ValueError):
        density(wshoot, 1.0, s_values=np.array([-1.0, -2.0, -0.5, -0.25]))


def test_energy_flags_inconsistent_solution_claim():
    # a homogeneous profile with the wrong coefficient is not stationary, so
    # the stationary shortcut disagrees with the three-term energy
    from selfsim.core import RadialProfile, KIND_SINGULAR
    sp = singular_profile(P73)
    bad = RadialProfile(kind=KIND_SINGULAR, params=P73, grid=sp.grid,
                        values=1.5 * sp.values, derivs=1.5 * sp.derivs,
                        decay_coeff=1.5 * sp.decay_coeff)
    rep = energy(bad)
    assert rep.flags and "disagree" in rep.flags[0]


def test_density_flags_nonmonotone_path_for_non_solution():
    # a small off-center ring: the recentering sweep raises F while crossing
    # the ring, which the monotone-for-solutions property forbids
    from selfsim.core import RadialProfile, KIND_TABULATED, default_grid
    grid = default_grid()
    vals = 0.05 * np.exp(-((grid - 5.0) / 0.7) ** 2)
    prof = RadialProfile(kind=KIND_TABULATED, params=P33, grid=grid,
                         values=vals,
                         derivs=np.gradient(vals, grid, edge_order=2),
                         meta={"axis_value": vals[0]})
    res = density(prof, 1.0)
    assert not res.monotone
    assert any("not monotone" in f for f in res.flags)


@pytest.mark.parametrize("params", [P33, P37], ids=["p3", "p7"])
@pytest.mark.parametrize("sign", ["+", "-", "0"])
def test_entropy_of_constants_is_the_closed_form(params, sign):
    prof = constant_profile(params, sign)
    res = entropy(prof)
    assert (res.x0_norm, res.t0) == (0.0, -1.0)
    assert res.ring_margin_x == 0.0
    assert not res.flags
    e = energy(prof).energy
    assert abs(res.lam - e) <= 1e-12 * abs(e)
    assert len(res.trace) == 169
    for b, la, val in res.trace:
        assert val == constant_f_closed_form(prof, -math.exp(la))
        assert res.lam >= f_functional(prof, b, -math.exp(la)) - 1e-12


def separate_integrands_f(profile, x0_norm, t0):
    """F from one kernel integral per integrand, each evaluating the
    profile."""
    p, a = profile.params.p, -t0
    (r,), (weights,) = _rules([x0_norm], [t0], profile.params.n,
                              profile.grid[-1])
    grad2, pot, mass = (
        _sums(r, weights, (g(r),))[0]
        for g in (lambda r: profile.deriv(r) ** 2,
                  lambda r: np.abs(profile.value(r)) ** (p + 1.0),
                  lambda r: profile.value(r) ** 2))
    s_main = a ** ((p + 1.0) / (p - 1.0))
    s_mass = a ** (2.0 / (p - 1.0))
    return 0.5 * s_main * grad2 - s_main * pot / (p + 1.0) \
        + s_mass * mass / (2.0 * (p - 1.0))


def test_f_evaluates_the_profile_once_and_matches_bit_for_bit(wshoot,
                                                             monkeypatch):
    rng = np.random.default_rng(3)
    for x0 in [0.0] * 5 + list(rng.uniform(0.05, 5.0, 15)):
        t0 = -math.exp(rng.uniform(-2.0, 2.0))
        assert f_functional(wshoot, float(x0), t0) \
            == separate_integrands_f(wshoot, float(x0), t0)
    calls = []
    sample = wshoot.sample
    monkeypatch.setattr(wshoot, "sample",
                        lambda r: calls.append(1) or sample(r))
    for x0 in (0.0, 1.5):
        f_functional(wshoot, x0, -1.0)
    assert len(calls) == 2


@pytest.mark.parametrize("x0,t0", [(2.0, -1.0), (0.0, -4.0)],
                         ids=["offset-window", "rescaled-rule"])
def test_f_names_the_node_of_a_nonfinite_sample(x0, t0, monkeypatch):
    # a band of infinite values around r = 2 lies in the window's panels
    # around the offset x0 = 2, and in the window [0, 36] at x0 = 0, t0 = -4
    prof = constant_profile(P37, "+")
    monkeypatch.setattr(prof, "sample", lambda r: (np.where(
        np.abs(r - 2.0) < 0.05, np.inf, P37.kappa), np.zeros_like(r)))
    with pytest.raises(QuadratureError, match="not finite at node") as err:
        f_functional(prof, x0, t0)
    node = float(re.search(r"r=(\S+)", str(err.value)).group(1))
    assert abs(node - 2.0) < 0.05


def separate_integrand_reports(profile):
    """energy and identities figures from one weighted integral per
    integrand, each evaluating the profile."""
    (r,), (weights,) = _rules([0.0], [-1.0], profile.params.n,
                              profile.grid[-1])
    n, p = profile.params.n, profile.params.p
    grad2, mass, pot, y2grad2, y2mass, y2pot = (
        _sums(r, weights, (g(r),))[0] for g in (
            lambda r: profile.deriv(r) ** 2,
            lambda r: profile.value(r) ** 2,
            lambda r: np.abs(profile.value(r)) ** (p + 1.0),
            lambda r: r**2 * profile.deriv(r) ** 2,
            lambda r: r**2 * profile.value(r) ** 2,
            lambda r: r**2 * np.abs(profile.value(r)) ** (p + 1.0)))
    scale = max(grad2, mass, pot, y2grad2, y2mass, y2pot, 1e-300)
    return {
        # the library's order of terms, so that the sums round alike
        "energy": 0.5 * grad2 - pot / (p + 1.0) + mass / (2.0 * (p - 1.0)),
        "energy_shortcut": (0.5 - 1.0 / (p + 1.0)) * pot,
        "pohozaev_residual": ((n / (p + 1.0) + (2.0 - n) / 2.0) * grad2
                              + 0.5 * (0.5 - 1.0 / (p + 1.0)) * y2grad2) / scale,
        "mass_balance_residual": (grad2 - pot + mass / (p - 1.0)) / scale,
        "moment_balance_residual": (
            (2.0 - n) / 2.0 * grad2 - n / (2.0 * (p - 1.0)) * mass
            + n / (p + 1.0) * pot + 0.25 * y2grad2
            + y2mass / (4.0 * (p - 1.0)) - y2pot / (2.0 * (p + 1.0))) / scale,
    }


def test_energy_and_identities_evaluate_the_profile_once_and_match_bit_for_bit(
        wshoot, monkeypatch):
    want = separate_integrand_reports(wshoot)
    rep, ids = energy(wshoot), identities(wshoot)
    assert (rep.energy, rep.energy_shortcut) == \
        (want["energy"], want["energy_shortcut"])
    assert {k: getattr(ids, k) for k in want} == want
    calls = []
    sample = wshoot.sample
    monkeypatch.setattr(wshoot, "sample",
                        lambda r: calls.append("sample") or sample(r))
    energy(wshoot)
    identities(wshoot)
    assert calls == ["sample"] * 2


def coarse_grid():
    """The entropy's coarse grid of recentering points, in its order."""
    xs = np.linspace(0.0, functionals.X0_MAX, functionals.COARSE_POINTS)
    las = np.linspace(-functionals.LOG_A_MAX, functionals.LOG_A_MAX,
                      functionals.COARSE_POINTS)
    return (np.repeat(xs, len(las)),
            np.array([-math.exp(la) for la in las] * len(xs)))


def batched_f_profiles(wshoot):
    grid = np.linspace(0.01, 5.0, 60)
    cubic = RadialProfile(kind=KIND_TABULATED, params=P37, grid=grid,
                          values=np.exp(-grid), derivs=-np.exp(-grid))
    return {"shooting": wshoot, "tabulated": cubic,
            "constant": constant_profile(P37, "+"),
            "singular": singular_profile(P73)}


@pytest.mark.parametrize("name", ["shooting", "tabulated", "constant",
                                  "singular"])
def test_batched_f_equals_f_functional_bit_for_bit(wshoot, name):
    prof = batched_f_profiles(wshoot)[name]
    rng = np.random.default_rng(23)
    x0s = np.concatenate([np.zeros(8), rng.uniform(0.05, 6.0, 40)])
    rng.shuffle(x0s)
    t0s = -np.exp(rng.uniform(-6.0, 6.0, len(x0s)))
    want = [f_functional(prof, float(b), float(t)) for b, t in zip(x0s, t0s)]
    assert np.array_equal(functionals._f_values(prof, x0s, t0s), want)


@pytest.mark.parametrize("chunk", [1, 1600, functionals._CHUNK_NODES],
                         ids=["one-point", "one-origin-rule", "default"])
def test_batched_f_does_not_depend_on_the_chunk_bound(wshoot, monkeypatch,
                                                      chunk):
    # 1600 nodes, the size of the former origin rule, hold several rows,
    # and the coarse grid's last chunk is short
    rows = 1600 // RULE_NODES
    assert rows > 1 and 169 % rows
    x0s, t0s = coarse_grid()
    want = [f_functional(wshoot, float(b), float(t)) for b, t in zip(x0s, t0s)]
    monkeypatch.setattr(functionals, "_CHUNK_NODES", chunk)
    assert np.array_equal(functionals._f_values(wshoot, x0s, t0s), want)


def test_batched_f_names_the_node_of_a_nonfinite_sample(monkeypatch):
    prof = constant_profile(P37, "+")
    monkeypatch.setattr(prof, "sample", lambda r: (np.where(
        np.abs(r - 2.0) < 0.05, np.inf, P37.kappa), np.zeros_like(r)))
    with pytest.raises(QuadratureError, match="not finite at node") as err:
        functionals._f_values(prof, [9.0, 0.0, 2.0], [-0.01, -4.0, -1.0])
    node = float(re.search(r"r=(\S+)", str(err.value)).group(1))
    assert abs(node - 2.0) < 0.05


def test_entropy_samples_no_more_nodes_at_once_than_the_chunk_bound(
        wshoot, monkeypatch):
    sizes = []
    sample = wshoot.sample
    monkeypatch.setattr(wshoot, "sample",
                        lambda r: sizes.append(np.size(r)) or sample(r))
    entropy(wshoot)
    assert max(sizes) <= functionals._CHUNK_NODES
    # the coarse grid alone is 169 rows
    assert sum(sizes) > 169 * RULE_NODES


def test_entropy_evaluates_each_point_once(wshoot, monkeypatch):
    points = []
    one, many = functionals.f_functional, functionals._f_values
    monkeypatch.setattr(functionals, "f_functional", lambda prof, b, t0: (
        points.append((b, t0)) or one(prof, b, t0)))
    monkeypatch.setattr(functionals, "_f_values", lambda prof, bs, ts: (
        points.extend(zip(bs, ts)) or many(prof, bs, ts)))
    res = entropy(wshoot)
    assert len(points) == len(set(points)) > 169
    assert [(b, -math.exp(la)) for b, la, _ in res.trace] == points[:169]


@pytest.mark.parametrize("x0,t0,named", [
    (math.inf, -1.0, "x0_norm >= 0, got inf"),
    (math.nan, -1.0, "x0_norm >= 0, got nan"),
    (-0.5, -1.0, "x0_norm >= 0, got -0.5"),
    (0.0, -math.inf, "t0 < 0, got -inf"),
    (1.0, 0.0, "t0 < 0, got 0.0"),
    (1.0, -1e-300, "t0=-1e-300"),
    (1.0, -1e300, "t0=-1e+300"),
    (0.0, -1e300, "t0=-1e+300"),
])
def test_f_rejects_a_bad_recentering_point_naming_it(wshoot, x0, t0, named):
    for prof in (constant_profile(P37, "+"), wshoot):
        with pytest.raises(ParameterError, match=re.escape(named)):
            f_functional(prof, x0, t0)
        with pytest.raises(ParameterError, match=re.escape(named)):
            functionals._f_values(prof, [0.5, x0], [-1.0, t0])


@pytest.mark.parametrize("t0", [-1.0, -20.0, -400.0])
def test_f_is_continuous_at_the_axis(wshoot, t0):
    # one rule for every point: x0 = 0 is no special case
    at_axis, off = functionals._f_values(wshoot, [0.0, 1e-12], [t0, t0])
    assert abs(off - at_axis) <= 1e-13 * abs(at_axis)


def reference_f(profile, b, t0):
    """F on Gauss-Legendre panels with an edge at every knot of the profile
    inside the kernel's window, 256 uniform panels on the window and
    geometric ones down to r = 1e-12: each panel holds one polynomial piece
    of the interpolant, so only the weight's smoothness limits it."""
    n, p, a = profile.params.n, profile.params.p, -t0
    half = (quadrature.WINDOW + math.sqrt(2.0 * (n - 1))) * math.sqrt(a)
    lo, hi = max(b - half, 0.0), b + half
    extra = np.concatenate([profile.grid, np.geomspace(1e-12, 1.0, 25)])
    edges = np.unique(np.concatenate([np.linspace(lo, hi, 257),
                                      extra[(extra > lo) & (extra < hi)]]))
    nodes, gw = quadrature._gl_panels(edges, 16)
    norm = (4.0 * math.pi * a) ** (-n / 2.0) * quadrature._sphere_area(n - 1)
    weights = quadrature._offset_weights(nodes, gw, b, a, norm, n)
    w, dw = profile.sample(nodes)
    grad2, mass, pot = _sums(nodes, weights, (dw**2, w**2,
                                              np.abs(w) ** (p + 1.0)))
    return functionals._f_value(p, a, grad2, mass, pot)


@pytest.mark.parametrize("name,bound", [("shooting", 1e-11),
                                        ("perturbed", 1e-7),
                                        ("tabulated", 5e-6)])
def test_f_matches_a_knot_resolved_reference(wshoot, perturbed, name, bound):
    # the (3,7) profile's quintic is C^2 and close to smooth, so the rule
    # meets 1e-11.  w + 0.05 f is a quintic on the same knots and reads
    # 2.4e-8, worst at (0, -1), probably from f itself: a cubic spline
    # through the sector's cells, whose third derivative jumps (unverified).
    # The tabulated cubic is C^1 with a jump of w'' at every knot, which a
    # rule without an edge at each knot integrates only to about h^4 (F's
    # prefactors a^{(p+1)/(p-1)} amplify it at large -t0).  Those two bounds
    # pin today's levels (2.4e-8 and 9.3e-7), not the 1e-11 the rule should
    # reach (ROADMAP item 19)
    prof = {"shooting": wshoot, "perturbed": perturbed[0.05],
            "tabulated": batched_f_profiles(wshoot)["tabulated"]}[name]
    rng = np.random.default_rng(19)
    x0s = np.concatenate([[0.0, 0.0, 1e-12, 5.0], rng.uniform(0.0, 10.0, 50)])
    t0s = np.concatenate([[-1.0, -400.0, -20.0, -20.0],
                          -np.exp(rng.uniform(-6.0, 6.0, 50))])
    got = functionals._f_values(prof, x0s, t0s)
    want = np.array([reference_f(prof, b, t) for b, t in zip(x0s, t0s)])
    assert np.abs(got / want - 1.0).max() <= bound
