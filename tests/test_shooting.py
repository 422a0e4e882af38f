import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from selfsim import shooting
from selfsim.core import (KIND_SHOOTING, ParameterError, RadialProfile,
                         constant_profile, make_params, singular_profile)
from selfsim.fixtures import (A_STAR_REFERENCE, REGRESSION_LABELS,
                              SHOOTING_BRACKETS, SUBCRITICAL_SCAN,
                              reference_profile, supercritical_scan_grid)
from selfsim.shooting import (GROWING, INCONCLUSIVE,
                              INCONCLUSIVE_CONSTANT, R_START,
                              SECTIONS, SHOOT_TOL, SIGN_CHANGING,
                              ShootingError, _departures, find_brackets,
                              integrate_radial, ode_residual,
                              scan_initial_values, shoot)

P37 = make_params(3, 7.0, require_supercritical=True)
P45 = make_params(4, 5.0, require_supercritical=True)
P47 = make_params(4, 7.0, require_supercritical=True)
P311 = make_params(3, 11.0, require_supercritical=True)
BISECT_TOL = 5e-14     # shoot's default
# a* from one-bit bisection (the method before multisection), per bracket
A_STAR_BISECTED = {
    ((3, 7.0), "recorded"): 2.302521411739617,
    ((3, 7.0), "scan"): 2.302521411739656,
    ((4, 5.0), "scan"): 2.3655797613161464,
}
# largest gap between the kernel's dense samples of the (3,7) profile and the
# oracle's: 5.2e-12 in w and 2.0e-11 in w' at the last knot, where the two
# shots at a* start to part; below r = 6 they stay under 7.4e-14 and
# 6.3e-13.  The bound is the sandwich width that sets r_cut
DENSE_VS_ORACLE = 1e-9


def oracle_shot(params, a, tol, r_max=shooting.R_MAX, max_step=np.inf):
    """One shot as one solve_ivp(method="DOP853") call with scipy's own
    events: (departure, dense output (w, w') of r)."""
    n, p, kap = params.n, params.p, params.kappa
    cap = shooting.CAP_MULT * max(abs(a), kap)

    def rhs(r, y):
        w, dw = y
        return (dw, -((n - 1) / r - 0.5 * r) * dw + w / (p - 1.0)
                - np.abs(w) ** (p - 1.0) * w)

    rebound_below = shooting.REBOUND_FRACTION * kap
    events = [lambda r, y: y[0], lambda r, y: abs(y[0]) - cap,
              lambda r, y: y[1] if 0.0 < y[0] < rebound_below else -1.0]
    for ev, direction in zip(events, (0, 0, 1)):
        ev.terminal, ev.direction = True, direction
    w2 = (a / (p - 1.0) - np.abs(a) ** (p - 1.0) * a) / n
    y = np.array([a + 0.5 * w2 * R_START**2, w2 * R_START])
    sol = solve_ivp(rhs, (R_START, r_max), y, method="DOP853", rtol=tol,
                    atol=min(tol * 1e-2, 1e-14), events=events,
                    dense_output=True, max_step=max_step)
    zero, cap_hit, rebound = (sol.t_events[k].size for k in range(3))
    departure = -1 if zero else 1 if cap_hit or rebound else 0
    return departure, sol.sol


def lowest_scan_bracket(params):
    return min(find_brackets(params, supercritical_scan_grid(params.kappa)))


def lowest_flip_bracket_4_7():
    # at (4, 7) the departures flip three times in (1.61, 2.83); the lowest
    # flip lies in the lowest scan bracket
    brackets = find_brackets(P47, supercritical_scan_grid(P47.kappa))
    (b0, b1), _, (c0, c1) = brackets[:3]
    return (b0, c1), (b0, b1)


@pytest.fixture(scope="module")
def profile37():
    return reference_profile(3, 7.0)


@pytest.fixture(scope="module")
def spied_shoots():
    """shoot from four brackets with its kernel calls recorded: per case the
    bracket, the profile, the lane count of every call and the last call's
    trajectories."""
    cases = {
        "(3,7) recorded": (P37, SHOOTING_BRACKETS[(3, 7.0)]),
        "(3,7) scan": (P37, lowest_scan_bracket(P37)),
        "(4,5) scan": (P45, lowest_scan_bracket(P45)),
        "(4,7) lowest flip": (P47, lowest_flip_bracket_4_7()[0]),
    }
    real = shooting._departures
    out = {}
    for case, (params, bracket) in cases.items():
        calls = []

        def spy(params, heights, *args, **kwargs):
            res = real(params, heights, *args, **kwargs)
            calls.append((len(heights), res))
            return res

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shooting, "_departures", spy)
            prof = shoot(params, *bracket)
        out[case] = (bracket, prof, [size for size, _ in calls], calls[-1][1])
    return out


def test_constant_start_is_inconclusive_constant():
    traj = integrate_radial(make_params(3, 3.0), (0.5) ** 0.5, tol=1e-10)
    assert traj.classification == INCONCLUSIVE_CONSTANT
    assert traj.departure == 0


def test_zero_start_stays_zero():
    traj = integrate_radial(make_params(3, 3.0), 0.0, tol=1e-10)
    assert np.max(np.abs(traj.w)) == 0.0


def test_a_shot_that_cannot_step_ends_undecided():
    # the first steps at a = 1e3 overflow; the lane must fail, not spin on a
    # NaN step size
    traj = integrate_radial(P37, 1e3, tol=1e-10)
    assert (traj.classification, traj.departure) == (INCONCLUSIVE, 0)
    with pytest.raises(ShootingError, match="no bracket"):
        shoot(P37, 1e3, 2e3)


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
    assert prof.meta["ode_residual"] <= 1e-7
    assert np.all(prof.values > 0)
    assert prof.meta["a"] == pytest.approx(A_STAR_REFERENCE[(3, 7.0)], abs=5e-9)
    assert prof.decay_coeff == pytest.approx(0.6255, abs=5e-3)


def test_shoot_is_deterministic(profile37):
    again = shoot(P37, *SHOOTING_BRACKETS[(3, 7.0)])
    assert again.meta["a"] == profile37.meta["a"]
    assert np.array_equal(again.values, profile37.values)


def test_shoot_requires_departure_flip():
    with pytest.raises(ShootingError, match="no bracket"):
        shoot(P37, 1.0, 1.2)


@pytest.mark.parametrize("a_lo, a_hi", [(2.31, 2.30), (2.3, 2.3)])
def test_shoot_rejects_a_reversed_or_empty_bracket(a_lo, a_hi):
    with pytest.raises(ParameterError, match="a_lo < a_hi"):
        shoot(P37, a_lo, a_hi)


def test_bad_scan_heights_are_refused():
    with pytest.raises(ParameterError, match="1-D"):
        scan_initial_values(P37, [[1.0, 2.0]])
    for heights in ([3.0, 2.0, 2.5], [2.0, 2.0, 2.5]):
        with pytest.raises(ParameterError, match="increase strictly"):
            find_brackets(P37, heights)


def test_taylor_start_insensitivity(monkeypatch):
    a = 1.5 * P37.kappa
    w1 = integrate_radial(P37, a, tol=1e-12).sample(1.0)[0]
    monkeypatch.setattr(shooting, "R_START", 5e-7)
    w2 = integrate_radial(P37, a, tol=1e-12).sample(1.0)[0]
    assert abs(w1 - w2) < 1e-9


def test_sampling_a_shot_without_an_accepted_step_is_refused():
    # a = 1e3 fails its first step: no trajectory, a clean error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_radial(P37, 1e3, tol=1e-10)
        assert traj.r.size == 1
        with pytest.raises(ShootingError, match="no trajectory"):
            traj.sample(1.0)


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
    brackets = find_brackets(P37, grid)
    assert len(brackets) == 1
    a_lo, a_hi = brackets[0]
    assert a_lo < A_STAR_REFERENCE[(3, 7.0)] < a_hi


def test_subcritical_scan_finds_no_profile(monkeypatch):
    params = make_params(3, 2.0)
    grid = SUBCRITICAL_SCAN[(3, 2.0)]
    calls = []
    real = shooting._departures
    monkeypatch.setattr(shooting, "_departures", lambda params, heights, *args,
                        **kwargs: calls.append(len(heights))
                        or real(params, heights, *args, **kwargs))
    rows = scan_initial_values(params, grid)
    assert calls == [len(grid)]
    assert rows == [(float(a), SIGN_CHANGING, -1) for a in grid]
    assert find_brackets(params, grid) == []


# the oracle is the two-piece solve_ivp shot integrate_radial used to make
@pytest.mark.parametrize("n, p, grid", [
    (3, 7.0, None), (4, 5.0, None),
    (3, 2.0, SUBCRITICAL_SCAN[(3, 2.0)]), (4, 2.5, SUBCRITICAL_SCAN[(3, 2.0)]),
])
def test_kernel_departures_match_integrate_radial_on_scan_grids(n, p, grid):
    params = make_params(n, p)
    if grid is None:
        grid = supercritical_scan_grid(params.kappa)
    dep = _departures(params, grid, 30.0, 1e-10)
    assert np.all(dep != 0)
    assert dep.tolist() == [oracle_shot(params, a, 1e-10)[0] for a in grid]


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_kernel_departures_match_integrate_radial_near_a_star(tol):
    ref = A_STAR_REFERENCE[(3, 7.0)]
    heights = [ref + s * d for d in (1e-9, 1e-10, 1e-11) for s in (-1, 1)]
    dep = _departures(P37, heights, 30.0, tol)
    assert np.all(dep != 0)
    assert dep.tolist() == [oracle_shot(P37, a, tol)[0] for a in heights]
    # a full multisection round of lanes
    heights = ref + np.linspace(-1e-9, 1e-9, SECTIONS)
    dep = _departures(P37, heights, 30.0, tol)
    assert np.all(dep != 0)
    pick = np.random.default_rng(7).choice(SECTIONS, 20, replace=False)
    assert set(dep[pick]) == {-1, 1}
    assert dep[pick].tolist() == [oracle_shot(P37, a, tol)[0]
                                  for a in heights[pick]]


@pytest.mark.parametrize("n, p", [(3, 7.0), (4, 5.0), (3, 2.0), (4, 7.0)])
def test_lane_results_do_not_depend_on_the_call(n, p):
    # each seeded lane alone or in a small call takes the bit-identical steps
    # it takes among 97 lanes: same exit state (r, w, w'), same departure
    params = make_params(n, p)
    rng = np.random.default_rng(11)
    heights = rng.uniform(1.001 * params.kappa, 3.0, 97)
    many = _departures(params, heights, 30.0, 1e-10, dense=True)
    assert [t.departure for t in many] == \
        _departures(params, heights, 30.0, 1e-10).tolist()
    for size in (1, 2, 5):
        pick = rng.choice(heights.size, size, replace=False)
        few = _departures(params, heights[pick], 30.0, 1e-10, dense=True)
        for t, k in zip(few, pick):
            exit_state = (t.r[-1], t.w[-1], t.dw[-1], t.departure)
            assert exit_state == (many[k].r[-1], many[k].w[-1], many[k].dw[-1],
                                  many[k].departure)


def test_dense_samples_are_the_profile_and_match_the_oracle(profile37):
    a = profile37.meta["a"]
    r = profile37.grid
    w, dw = integrate_radial(P37, a, tol=SHOOT_TOL).sample(r)
    assert np.array_equal(w, profile37.values)
    assert np.array_equal(dw, profile37.derivs)
    w_ref, dw_ref = oracle_shot(P37, a, SHOOT_TOL)[1](r)
    assert np.max(np.abs(w - w_ref)) <= DENSE_VS_ORACLE
    assert np.max(np.abs(dw - dw_ref)) <= DENSE_VS_ORACLE


def test_negative_heights_cross_zero():
    # the upward zero crossing opens the rebound window in the same step;
    # the crossing decides
    grid = -supercritical_scan_grid(P37.kappa)
    rows = scan_initial_values(P37, grid)
    assert rows == [(a, SIGN_CHANGING, -1) for a in grid.tolist()]


def test_scan_rows_with_zero_and_equilibria(monkeypatch):
    # one non-dense kernel call labels every height as integrate_radial does,
    # the undecided ones (equilibria, and 1e3, whose first step fails) too
    k = P37.kappa
    heights = [-1.5 * k, -k, 0.0, k, 1.5 * k, 2.30, 2.31, 1e3]
    calls, real = [], shooting._departures
    monkeypatch.setattr(shooting, "_departures", lambda params, heights, *args,
                        **kwargs: calls.append((len(heights), args, kwargs))
                        or real(params, heights, *args, **kwargs))
    rows = scan_initial_values(P37, heights)
    assert calls == [(len(heights), (shooting.R_MAX, 1e-10), {})]
    assert rows == [(-1.5 * k, SIGN_CHANGING, -1), (-k, INCONCLUSIVE_CONSTANT, 0),
                    (0.0, INCONCLUSIVE_CONSTANT, 0), (k, INCONCLUSIVE_CONSTANT, 0),
                    (1.5 * k, SIGN_CHANGING, -1), (2.30, SIGN_CHANGING, -1),
                    (2.31, GROWING, 1), (1e3, INCONCLUSIVE, 0)]
    assert rows == [(a, t.classification, t.departure) for a, t in
                    ((a, integrate_radial(P37, a, tol=1e-10))
                     for a in heights)]


@pytest.mark.parametrize("r_max", [1.5, 5.0])
def test_scan_without_event_falls_back_to_trajectory_label(monkeypatch, r_max):
    # near a* no event fires by a short end of shot; the scan's one non-dense
    # call still labels each height as its trajectory does
    monkeypatch.setattr(shooting, "R_MAX", r_max)
    heights = [A_STAR_REFERENCE[(3, 7.0)], 1.5 * P37.kappa]
    calls, real = [], shooting._departures
    monkeypatch.setattr(shooting, "_departures", lambda params, heights, *args,
                        **kwargs: calls.append((args, kwargs))
                        or real(params, heights, *args, **kwargs))
    rows = scan_initial_values(P37, heights)
    assert calls == [((r_max, 1e-10), {})]
    trajs = [integrate_radial(P37, a, tol=1e-10) for a in heights]
    assert trajs[0].r[-1] == r_max and rows[0][1:] == (INCONCLUSIVE, 0)
    assert rows == [(a, t.classification, t.departure)
                    for a, t in zip(heights, trajs)]


def test_shoot_matches_bisection_from_both_brackets(profile37, spied_shoots):
    a_rec = profile37.meta["a"]
    assert abs(a_rec - A_STAR_BISECTED[((3, 7.0), "recorded")]) \
        <= BISECT_TOL * max(1.0, a_rec)
    lo, hi = profile37.meta["bracket"]
    assert 0 < hi - lo <= BISECT_TOL * max(1.0, hi)
    a_scan = spied_shoots["(3,7) scan"][1].meta["a"]
    assert abs(a_scan - A_STAR_BISECTED[((3, 7.0), "scan")]) \
        <= BISECT_TOL * max(1.0, a_scan)


def test_shoot_matches_bisection_at_4_5(spied_shoots):
    a = spied_shoots["(4,5) scan"][1].meta["a"]
    assert abs(a - A_STAR_BISECTED[((4, 5.0), "scan")]) <= BISECT_TOL * max(1.0, a)


def test_shoot_resolves_the_lowest_flip(spied_shoots):
    _, prof, _, _ = spied_shoots["(4,7) lowest flip"]
    (b0, b1) = lowest_flip_bracket_4_7()[1]
    lo, hi = prof.meta["bracket"]
    assert b0 < lo < hi < b1
    assert _departures(P47, [lo, hi], 30.0, SHOOT_TOL).tolist() == [-1, 1]


@pytest.mark.parametrize("case", ["(3,7) recorded", "(3,7) scan", "(4,5) scan",
                                  "(4,7) lowest flip"])
def test_final_bracket_lanes_sandwich_the_orbit(spied_shoots, case):
    # the lo and hi trajectories that set r_cut depart as the multisection
    # decided: lo crosses zero, hi rebounds
    _, prof, _, (lo, hi, mid) = spied_shoots[case]
    assert (lo.a, hi.a, mid.a) == (*prof.meta["bracket"], prof.meta["a"])
    assert (lo.departure, hi.departure) == (-1, 1)
    assert (lo.classification, hi.classification) == (SIGN_CHANGING, GROWING)


def test_shoot_reports_its_kernel_work(profile37, spied_shoots):
    # the counts of shoot(3, 7) from the recorded bracket are deterministic
    work = {key: profile37.meta[key] for key in
            ("kernel_calls", "lane_steps", "hidden_rebound_rejections")}
    assert work == {"kernel_calls": 6, "lane_steps": 345534,
                    "hidden_rebound_rejections": 0}
    assert work["kernel_calls"] == len(spied_shoots["(3,7) recorded"][2])


def test_shoot_figures_are_pinned_bit_for_bit(profile37, spied_shoots):
    # the lane kernel's arithmetic is fixed: a change to any rounding of a
    # step moves a*, r_cut, the knots or the step count
    assert (repr(profile37.meta["a"]), repr(float(profile37.meta["r_cut"])),
            profile37.grid.size) == ("2.3025214117395665",
                                     "8.290745971442615", 2448)
    prof45 = spied_shoots["(4,5) scan"][1]
    assert repr(prof45.meta["a"]) == "2.3655797613160674"
    assert prof45.meta["lane_steps"] == 345543


@pytest.mark.parametrize("dense", [False, True])
def test_a_mixed_call_repeats_each_lane_alone(dense):
    # one call whose lanes leave by every exit: two equilibria (kappa and 0),
    # a zero crossing, a rebound, a failed first step at 1e3 and r_max
    # without an event near a*; steps where all lanes go on and steps where
    # some stop both occur
    heights = [P37.kappa, 0.0, 1.5 * P37.kappa, 3.0, 1e3,
               A_STAR_REFERENCE[(3, 7.0)]]
    work, alone = Counter(), Counter()
    mixed = _departures(P37, heights, 5.0, 1e-10, dense=dense, work=work)
    singles = [_departures(P37, [a], 5.0, 1e-10, dense=dense, work=alone)[0]
               for a in heights]
    assert work["lane_steps"] == alone["lane_steps"] > 0
    assert work["hidden_rebound_rejections"] == \
        alone["hidden_rebound_rejections"]
    if not dense:
        assert mixed.tolist() == [int(d) for d in singles] == \
            [0, 0, -1, 1, 0, 0]
        return
    assert [(t.classification, t.departure) for t in mixed] == [
        (INCONCLUSIVE_CONSTANT, 0), (INCONCLUSIVE_CONSTANT, 0),
        (SIGN_CHANGING, -1), (GROWING, 1), (INCONCLUSIVE, 0),
        (INCONCLUSIVE, 0)]
    assert (mixed[4].r.size, mixed[5].r[-1]) == (1, 5.0)
    for t, one in zip(mixed, singles):
        assert (t.a, t.classification, t.departure) == \
            (one.a, one.classification, one.departure)
        for got, want in ((t.r, one.r), (t.w, one.w), (t.dw, one.dw)):
            assert np.array_equal(got, want)


def test_scan_catches_a_rebound_inside_one_step():
    # at (3, 11) the shot from scan height 12 has its rebound at r = 4.39;
    # one long step jumps over it unless its stage slopes reject the step
    grid = supercritical_scan_grid(P311.kappa)
    assert grid[12] == 1.4732714299672915
    rows = scan_initial_values(P311, grid)
    assert [rows[k][2] for k in (11, 12, 13)] == [-1, 1, -1]
    work = Counter()
    _departures(P311, grid[12:13], 30.0, 1e-10, work=work)
    assert work["hidden_rebound_rejections"] > 0
    assert [rows[k][2] for k in (11, 12, 13)] == [
        oracle_shot(P311, grid[k], 1e-12, max_step=0.002)[0]
        for k in (11, 12, 13)]
    bracket = min(find_brackets(P311, grid))
    assert bracket == (grid[11], grid[12])
    assert shoot(P311, *bracket).meta["a"] == pytest.approx(1.452382, abs=1e-6)


def test_shoot_makes_one_kernel_call_per_round(spied_shoots):
    # 8 bits a round; the first round also classifies the bracket ends, and
    # one 3-lane call gives the lo, hi and mid trajectories
    assert SECTIONS == 255
    sizes = spied_shoots["(3,7) recorded"][2]
    assert sizes == [SECTIONS + 2] + [SECTIONS] * 4 + [3]


def zeroed_kernel(monkeypatch, zero):
    """Patch shoot's multisection calls to return 0 on the inner lanes k
    where zero(k, flip) holds, flip being the first lane that does not cross
    zero at the recorded (3, 7) bracket.  Returns the zeroed heights."""
    a_lo, a_hi = SHOOTING_BRACKETS[(3, 7.0)]
    real = shooting._departures
    zeroed = []

    def departures(params, heights, r_max, tol, dense=False, work=None):
        dep = real(params, heights, r_max, tol, dense, work)
        if dense:
            return dep
        heights = np.asarray(heights)
        up = np.flatnonzero(dep != -1)
        k = np.arange(dep.size)
        mask = zero(k, up[0] if up.size else dep.size) \
            & (heights > a_lo) & (heights < a_hi)
        zeroed.extend(heights[mask].tolist())
        return np.where(mask, 0, dep)

    monkeypatch.setattr(shooting, "_departures", departures)
    return zeroed


def test_shoot_ignores_kernel_zeros_above_the_flip(monkeypatch, profile37):
    zeroed = zeroed_kernel(monkeypatch, lambda k, flip: k > flip)
    prof = shoot(P37, *SHOOTING_BRACKETS[(3, 7.0)])
    assert len(zeroed) > 500
    assert prof.meta["a"] == profile37.meta["a"]
    assert prof.meta["bracket"] == profile37.meta["bracket"]


def test_shoot_stops_on_an_undecided_flip_candidate(monkeypatch):
    zeroed = zeroed_kernel(monkeypatch, lambda k, flip: k == flip)
    with pytest.raises(ShootingError, match="inconclusive trajectory"):
        shoot(P37, *SHOOTING_BRACKETS[(3, 7.0)])
    assert len(zeroed) == 1


@pytest.mark.parametrize("height,label", [
    ("kappa(1 + 1e-12)", INCONCLUSIVE_CONSTANT),
    ("a*", "decaying"),
    ("a* - 1e-9", INCONCLUSIVE),
])
def test_tail_monitor_labels_a_shot_that_reaches_r_max(height, label):
    # r_max = 10 stops each shot before it departs; kappa (1 + 1e-12) is off
    # the equilibrium test, so it is integrated too.  label is what the tail
    # of r in [7.5, 10] looks like (|w| near kappa, or q = r^{2/(p-1)} w flat
    # 1 % and w falling), but only a departure labels a shot, however flat
    # its tail
    a = {"kappa(1 + 1e-12)": P37.kappa * (1.0 + 1e-12),
         "a*": A_STAR_REFERENCE[(3, 7.0)],
         "a* - 1e-9": A_STAR_REFERENCE[(3, 7.0)] - 1e-9}[height]
    traj, = _departures(P37, [a], 10.0, 1e-10, dense=True)
    assert traj.r[-1] == 10.0
    rr = np.linspace(7.5, 10.0, 80)
    w, dw = traj.dense(rr)
    q = rr ** P37.decay_power * w
    looks = (INCONCLUSIVE_CONSTANT
             if np.all(np.abs(np.abs(w) - P37.kappa) < 0.05 * P37.kappa) else
             "decaying" if np.ptp(q) < 0.01 * abs(np.mean(q)) and np.all(dw < 0)
             else INCONCLUSIVE)
    assert looks == label
    assert (traj.classification, traj.departure) == (INCONCLUSIVE, 0)
