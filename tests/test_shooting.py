import numpy as np
import pytest

from selfsim import shooting
from selfsim.core import (KIND_SHOOTING, ParameterError, RadialProfile,
                         constant_profile, make_params, singular_profile)
from selfsim.fixtures import (A_STAR_REFERENCE, REGRESSION_LABELS,
                              SHOOTING_BRACKETS, SUBCRITICAL_SCAN,
                              supercritical_scan_grid)
from selfsim.shooting import (DECAYING, GROWING, INCONCLUSIVE,
                              INCONCLUSIVE_CONSTANT, SECTIONS, SIGN_CHANGING,
                              ShootingError, _departures, find_brackets,
                              integrate_radial, ode_residual,
                              scan_initial_values, shoot)

P37 = make_params(3, 7.0, require_supercritical=True)
P45 = make_params(4, 5.0, require_supercritical=True)
BISECT_TOL = 5e-14     # shoot's default
# a* from one-bit bisection (the method before multisection), per bracket
A_STAR_BISECTED = {
    ((3, 7.0), "recorded"): 2.302521411739617,
    ((3, 7.0), "scan"): 2.302521411739656,
    ((4, 5.0), "scan"): 2.3655797613161464,
}


@pytest.fixture(scope="module")
def profile37():
    a_lo, a_hi = SHOOTING_BRACKETS[(3, 7.0)]
    return shoot(P37, a_lo, a_hi)


def test_constant_start_is_inconclusive_constant():
    traj = integrate_radial(make_params(3, 3.0), (0.5) ** 0.5, tol=1e-10)
    assert traj.classification == INCONCLUSIVE_CONSTANT
    assert traj.departure == 0


def test_zero_start_stays_zero():
    traj = integrate_radial(make_params(3, 3.0), 0.0, tol=1e-10)
    assert np.max(np.abs(traj.w)) == 0.0


def test_regression_label_midrange_height():
    a = 1.5 * P37.kappa
    traj = integrate_radial(P37, a, tol=1e-12)
    assert traj.classification == REGRESSION_LABELS[(3, 7.0, "a=1.5kappa")]
    assert traj.departure == -1


def test_departure_flip_across_recorded_bracket():
    a_lo, a_hi = SHOOTING_BRACKETS[(3, 7.0)]
    lo = integrate_radial(P37, a_lo, tol=1e-12)
    hi = integrate_radial(P37, a_hi, tol=1e-12)
    assert lo.classification == SIGN_CHANGING and lo.departure == -1
    assert hi.classification == GROWING and hi.departure == +1


def test_shoot_finds_decaying_profile(profile37):
    prof = profile37
    assert prof.classification == DECAYING
    assert prof.meta["ode_residual"] <= 1e-7
    assert np.all(prof.values > 0)
    assert prof.meta["a"] == pytest.approx(A_STAR_REFERENCE[(3, 7.0)], abs=5e-9)
    assert prof.decay_coeff == pytest.approx(0.6255, abs=5e-3)


def test_shoot_is_deterministic(profile37):
    a_lo, a_hi = SHOOTING_BRACKETS[(3, 7.0)]
    again = shoot(P37, a_lo, a_hi)
    assert again.meta["a"] == profile37.meta["a"]
    assert np.array_equal(again.values, profile37.values)


def test_shoot_requires_departure_flip():
    with pytest.raises(ShootingError, match="no bracket"):
        shoot(P37, 1.0, 1.2)


@pytest.mark.parametrize("a_lo, a_hi", [(2.31, 2.30), (2.3, 2.3)])
def test_shoot_rejects_a_reversed_or_empty_bracket(a_lo, a_hi):
    with pytest.raises(ParameterError, match="a_lo < a_hi"):
        shoot(P37, a_lo, a_hi)


def test_taylor_start_insensitivity():
    a = 1.5 * P37.kappa
    t1 = integrate_radial(P37, a, tol=1e-12, eps=1e-6)
    t2 = integrate_radial(P37, a, tol=1e-12, eps=5e-7)
    w1, w2 = t1.sample(1.0)[0], t2.sample(1.0)[0]
    assert abs(w1 - w2) < 1e-9


def test_ode_residual_constant_and_singular():
    params = make_params(7, 3.0)
    assert ode_residual(constant_profile(params, "+")) < 1e-12
    sing = singular_profile(params, grid=np.geomspace(0.1, 20.0, 4000))
    assert ode_residual(sing) < 1e-9


def test_ode_residual_perturbed_constant_first_order():
    # w = kappa + d: first order residual d (p kappa^{p-1} - 1/(p-1)) = d for any p,
    # exact value |f(kappa+d)| with f(w) = -w/(p-1) + w^p
    d = 0.01
    for p in (3.0, 7.0, 2.5):
        params = make_params(3, p)
        prof = constant_profile(params, "+")
        prof = type(prof)(kind="tabulated", params=params, grid=prof.grid,
                          values=prof.values + d, derivs=prof.derivs)
        w = params.kappa + d
        exact = abs(-w / (p - 1.0) + w**p)
        res = ode_residual(prof)
        assert res == pytest.approx(exact, rel=1e-10)
        assert res == pytest.approx(d, rel=0.06)


@pytest.mark.parametrize("points", [5, 6, 7])
def test_ode_residual_needs_a_full_stencil_of_points(points):
    grid = np.linspace(0.5, 1.0, points)
    prof = RadialProfile(kind=KIND_SHOOTING, params=P37, grid=grid,
                         values=np.full(points, P37.kappa),
                         derivs=np.zeros(points))
    if points < 7:
        with pytest.raises(ShootingError, match="7 grid points"):
            ode_residual(prof)
    else:
        assert ode_residual(prof) < 1e-15


def test_supercritical_scan_has_exactly_one_bracket():
    grid = supercritical_scan_grid(P37.kappa)
    brackets = find_brackets(P37, grid, tol=1e-10)
    assert len(brackets) == 1
    a_lo, a_hi = brackets[0]
    assert a_lo < A_STAR_REFERENCE[(3, 7.0)] < a_hi


def test_subcritical_scan_finds_no_profile():
    params = make_params(3, 2.0)
    grid = SUBCRITICAL_SCAN[(3, 2.0)]
    rows = scan_initial_values(params, grid, tol=1e-10)
    assert all(label == SIGN_CHANGING for _, label, _ in rows)
    assert find_brackets(params, grid, tol=1e-10) == []


@pytest.mark.parametrize("n, p, grid", [
    (3, 7.0, None), (4, 5.0, None),
    (3, 2.0, SUBCRITICAL_SCAN[(3, 2.0)]), (4, 2.5, SUBCRITICAL_SCAN[(3, 2.0)]),
])
def test_kernel_departures_match_integrate_radial_on_scan_grids(n, p, grid):
    params = make_params(n, p)
    if grid is None:
        grid = supercritical_scan_grid(params.kappa)
    dep = _departures(params, grid, 30.0, 1e-10)
    ref = [integrate_radial(params, a, tol=1e-10).departure for a in grid]
    assert np.all(dep != 0)
    assert dep.tolist() == ref


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_kernel_departures_match_integrate_radial_near_a_star(tol):
    ref = A_STAR_REFERENCE[(3, 7.0)]
    heights = [ref + s * d for d in (1e-9, 1e-10, 1e-11) for s in (-1, 1)]
    dep = _departures(P37, heights, 30.0, tol)
    assert np.all(dep != 0)
    assert dep.tolist() == [integrate_radial(P37, a, tol=tol).departure
                            for a in heights]
    # a full multisection round of lanes
    heights = ref + np.linspace(-1e-9, 1e-9, SECTIONS)
    dep = _departures(P37, heights, 30.0, tol)
    assert np.all(dep != 0)
    pick = np.random.default_rng(7).choice(SECTIONS, 20, replace=False)
    assert set(dep[pick]) == {-1, 1}
    assert dep[pick].tolist() == [integrate_radial(P37, a, tol=tol).departure
                                  for a in heights[pick]]


def test_scan_rows_with_zero_and_equilibria():
    k = P37.kappa
    rows = scan_initial_values(P37, [-1.5 * k, -k, 0.0, k, 1.5 * k, 2.30, 2.31])
    assert rows == [(-1.5 * k, SIGN_CHANGING, -1), (-k, INCONCLUSIVE_CONSTANT, 0),
                    (0.0, INCONCLUSIVE_CONSTANT, 0), (k, INCONCLUSIVE_CONSTANT, 0),
                    (1.5 * k, SIGN_CHANGING, -1), (2.30, SIGN_CHANGING, -1),
                    (2.31, GROWING, 1)]


@pytest.mark.parametrize("r_max", [1.5, 5.0])
def test_scan_without_event_falls_back_to_trajectory_label(r_max):
    # near a* no event fires by a short r_max; the label needs the trajectory
    heights = [A_STAR_REFERENCE[(3, 7.0)], 1.5 * P37.kappa]
    rows = scan_initial_values(P37, heights, r_max=r_max)
    assert rows[0][1:] == (INCONCLUSIVE, 0)
    assert rows == [(a, t.classification, t.departure) for a, t in
                    ((a, integrate_radial(P37, a, r_max=r_max, tol=1e-10))
                     for a in heights)]


def test_shoot_matches_bisection_from_both_brackets(profile37):
    a_rec = profile37.meta["a"]
    assert abs(a_rec - A_STAR_BISECTED[((3, 7.0), "recorded")]) \
        <= BISECT_TOL * max(1.0, a_rec)
    lo, hi = profile37.meta["bracket"]
    assert 0 < hi - lo <= BISECT_TOL * max(1.0, hi)
    a_lo, a_hi = min(find_brackets(P37, supercritical_scan_grid(P37.kappa)))
    a_scan = shoot(P37, a_lo, a_hi).meta["a"]
    assert abs(a_scan - A_STAR_BISECTED[((3, 7.0), "scan")]) \
        <= BISECT_TOL * max(1.0, a_scan)


def test_shoot_matches_bisection_at_4_5():
    a_lo, a_hi = min(find_brackets(P45, supercritical_scan_grid(P45.kappa)))
    a = shoot(P45, a_lo, a_hi).meta["a"]
    assert abs(a - A_STAR_BISECTED[((4, 5.0), "scan")]) <= BISECT_TOL * max(1.0, a)


def test_shoot_resolves_the_lowest_flip():
    # at (4, 7) the departures flip three times in (1.61, 2.83); the lowest
    # flip lies in the lowest scan bracket
    params = make_params(4, 7.0, require_supercritical=True)
    brackets = find_brackets(params, supercritical_scan_grid(params.kappa))
    (b0, b1), _, (c0, c1) = brackets[:3]
    prof = shoot(params, b0, c1)
    lo, hi = prof.meta["bracket"]
    assert b0 < lo < hi < b1
    assert _departures(params, [lo, hi], 30.0, 1e-12).tolist() == [-1, 1]


def test_shoot_makes_one_kernel_call_per_round(monkeypatch):
    # 8 bits a round; the first round also classifies the bracket ends
    sizes = []
    real = shooting._departures
    monkeypatch.setattr(shooting, "_departures", lambda params, heights, *args:
                        sizes.append(len(heights)) or real(params, heights, *args))
    shoot(P37, *SHOOTING_BRACKETS[(3, 7.0)])
    assert SECTIONS == 255
    assert sizes == [SECTIONS + 2] + [SECTIONS] * 4


def zeroed_kernel(monkeypatch, zero, rounds=5):
    """Patch shoot's kernel to return 0 on the inner lanes k where
    zero(k, flip) holds in its first rounds calls, flip being the first lane
    that does not cross zero at the recorded (3, 7) bracket.  Returns the
    zeroed heights and the heights integrate_radial is called with."""
    a_lo, a_hi = SHOOTING_BRACKETS[(3, 7.0)]
    real_departures, real_integrate = shooting._departures, integrate_radial
    zeroed, shots, calls = [], [], []

    def departures(params, heights, r_max, tol):
        dep = real_departures(params, heights, r_max, tol)
        calls.append(len(heights))
        if len(calls) > rounds:
            return dep
        heights = np.asarray(heights)
        up = np.flatnonzero(dep != -1)
        k = np.arange(dep.size)
        mask = zero(k, up[0] if up.size else dep.size) \
            & (heights > a_lo) & (heights < a_hi)
        zeroed.extend(heights[mask].tolist())
        return np.where(mask, 0, dep)

    def integrate(params, a, **kwargs):
        shots.append(a)
        return real_integrate(params, a, **kwargs)

    monkeypatch.setattr(shooting, "_departures", departures)
    monkeypatch.setattr(shooting, "integrate_radial", integrate)
    return zeroed, shots


def test_shoot_ignores_kernel_zeros_above_the_flip(monkeypatch, profile37):
    zeroed, shots = zeroed_kernel(monkeypatch, lambda k, flip: k > flip)
    prof = shoot(P37, *SHOOTING_BRACKETS[(3, 7.0)])
    assert len(zeroed) > 500
    lo, hi = prof.meta["bracket"]
    assert shots == [lo, hi, prof.meta["a"]]     # the three dense shots only
    assert prof.meta["a"] == profile37.meta["a"]


def test_shoot_resolves_a_kernel_zero_at_the_flip_candidate(monkeypatch,
                                                            profile37):
    # the lane below the flip resolves to a crossing and the walk goes on;
    # the flip lane's own shot then decides the flip.  Only the first three
    # rounds are zeroed: within about 1e-14 of a* a trajectory shot and a
    # kernel lane may depart in opposite directions
    zeroed, shots = zeroed_kernel(monkeypatch,
                                  lambda k, flip: (k == flip - 1) | (k == flip),
                                  rounds=3)
    prof = shoot(P37, *SHOOTING_BRACKETS[(3, 7.0)])
    assert len(zeroed) == 6
    assert shots[:-3] == zeroed
    assert prof.meta["a"] == profile37.meta["a"]
    assert prof.meta["bracket"] == profile37.meta["bracket"]
