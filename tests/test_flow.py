import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import solve_banded

from selfsim import flow
from selfsim.core import (KIND_TABULATED, ParameterError, RadialProfile,
                          constant_profile, make_params, tabulated_profile)
from selfsim.fixtures import reference_profile
from selfsim.flow import (BC_DIRICHLET, BC_NOFLUX, FlowConfig,
                          OUTCOME_BLEWUP, OUTCOME_CONVERGED, blowup_criterion,
                          energy_of_state, entropy_perturbation_experiment,
                          init_flow, run, step, weighted_average)
from selfsim.functionals import entropy
from selfsim.spectrum import first_eigenfunction

P33 = make_params(3, 3.0)
P37 = make_params(3, 7.0, require_supercritical=True)


def constant_data_state(params, level, **cfg_kwargs):
    prof = constant_profile(params, "+")
    state = init_flow(prof, FlowConfig(bc=BC_NOFLUX, **cfg_kwargs))
    state.w = np.full_like(state.w, level)
    return state


def scalar_exact(params, w0, tau):
    p = params.p
    v = (p - 1.0) + (w0 ** (1.0 - p) - (p - 1.0)) * math.exp(tau)
    return v ** (-1.0 / (p - 1.0))


def scalar_blowup_time(params, w0):
    p = params.p
    return math.log((p - 1.0) / ((p - 1.0) - w0 ** (1.0 - p)))


def test_kappa_is_preserved():
    prof = constant_profile(P33, "+")
    state = init_flow(prof, FlowConfig(bc=BC_NOFLUX, conv_tol=0.0))
    while state.tau < 5.0 and not state.exhausted:
        step(state)
    assert not state.exhausted
    assert np.abs(state.w - P33.kappa).max() < 1e-9


@pytest.mark.parametrize("n", [3, 5])
def test_kappa_is_held_to_tau_40(n):
    # kappa is unstable (rate 1), so rounding at tau = 0 would show as an
    # O(1) drift by tau = 40; D kappa = 0 exactly under no-flux, and the
    # increment-form Crank-Nicolson solve returns kappa bit for bit
    params = make_params(n, 3.0)
    state = init_flow(constant_profile(params, "+"),
                      FlowConfig(bc=BC_NOFLUX, conv_tol=0.0))
    for dt in (1.0, 0.25, 1e-3):
        again = flow._diffuse(state.machinery, state.w, dt)
        assert again.tobytes() == state.w.tobytes()
    report = run(state, tau_max=40.0)
    assert report.tau_end == 40.0
    assert np.abs(report.final_w / params.kappa - 1.0).max() < 1e-12


def test_blowup_criterion_values():
    state = init_flow(constant_profile(P33, "+"), FlowConfig(bc=BC_NOFLUX))
    assert blowup_criterion(state) == pytest.approx(0.0, abs=1e-14)
    state0 = init_flow(constant_profile(P33, "0"), FlowConfig(bc=BC_NOFLUX))
    assert blowup_criterion(state0) == pytest.approx(-P33.kappa, abs=1e-14)


@pytest.mark.parametrize("p,expected", [(3.0, math.log(2.0)),
                                        (7.0, math.log(6.0 / 5.0))])
def test_constant_data_blowup_time(p, expected):
    params = make_params(3, p)
    state = constant_data_state(params, 1.0)
    report = run(state, tau_max=10.0)
    assert report.outcome == OUTCOME_BLEWUP
    assert report.tau1 == pytest.approx(expected, rel=1e-2)
    # one row per accepted step: the step that exhausts adds none
    taus = report.series["tau"]
    assert np.all(np.diff(taus) > 0)
    assert taus.size == report.steps.accepted + 1
    assert report.criterion_exceeded  # average exceeds kappa from the start
    assert report.type1_indicator is not None and np.isfinite(report.type1_indicator)


def test_constant_run_matches_scalar_solution():
    params = make_params(3, 3.0)
    state = constant_data_state(params, 1.0)
    worst = 0.0
    while np.abs(state.w).max() < 100.0 and not state.exhausted:
        step(state)
        exact = scalar_exact(params, 1.0, state.tau)
        worst = max(worst, abs(state.w[0] - exact) / exact)
    assert not state.exhausted
    assert worst < 1e-6


def test_subkappa_constant_converges_to_zero():
    state = constant_data_state(P33, 0.9 * P33.kappa)
    report = run(state, tau_max=60.0)
    assert report.outcome == OUTCOME_CONVERGED
    assert np.abs(report.final_w).max() < 1e-5


def test_energy_monotone_on_generic_run():
    grid = np.linspace(1e-6, 20.0, 400)
    vals = 0.5 * P33.kappa * np.exp(-((grid - 3.0) / 1.5) ** 2) + 0.2
    prof = tabulated_profile(P33, grid, vals,
                             np.gradient(vals, grid, edge_order=2))
    state = init_flow(prof, FlowConfig(bc=BC_NOFLUX, dt_max=0.005))
    report = run(state, tau_max=4.0)
    assert report.energy_monotone
    assert report.max_energy_increase <= 1e-7


@pytest.mark.parametrize("level,outcome",
                         [(1.0, OUTCOME_BLEWUP),
                          (0.9 * P33.kappa, OUTCOME_CONVERGED)],
                         ids=["blowup", "converging"])
def test_report_carries_the_largest_energy_rise(level, outcome):
    report = run(constant_data_state(P33, level), tau_max=60.0)
    assert report.outcome == outcome
    rise = np.diff(report.series["energy"]).max()
    assert report.max_energy_increase == rise
    assert report.energy_monotone == (rise <= flow.ENERGY_SLACK)
    assert report.energy_monotone


def test_average_above_kappa_forces_blowup():
    # several initial levels with A(0) > kappa: all must end in blow-up
    for level in (1.01 * P33.kappa, 1.3 * P33.kappa, 2.0):
        state = constant_data_state(P33, level)
        report = run(state, tau_max=40.0)
        assert report.criterion_exceeded
        assert report.outcome == OUTCOME_BLEWUP


def test_comparison_principle_spot_check():
    grid = np.linspace(1e-6, 10.0, 200)
    base = 0.4 * np.exp(-((grid - 2.0) / 1.2) ** 2) + 0.1
    upper = base + 0.05
    reports = []
    for vals in (base, upper):
        prof = tabulated_profile(P33, grid, vals,
                                 np.gradient(vals, grid, edge_order=2))
        cfg = FlowConfig(bc=BC_NOFLUX, n_points=200, r_max=10.0, dt_max=1e-3,
                         conv_tol=0.0)
        state = init_flow(prof, cfg)
        snaps = [state.w.copy()]
        for _ in range(400):
            step(state)
            snaps.append(state.w.copy())
        reports.append(np.array(snaps))
    low, high = reports
    assert np.min(high - low) >= -1e-8


def test_flow_from_shooting_profile_short_horizon_drift():
    # the nonconstant profile is a violently unstable equilibrium (radial
    # ground state near -242, e-folding time ~ 1/242): any discretization
    # defect explodes within tau ~ 0.05.  Only a horizon short against that
    # rate measures scheme consistency; the boundary node is excluded since
    # the slowly decaying tail (w ~ r^{-1/3}) is clamped by the Dirichlet
    # condition at radii the Gaussian weight cannot see.
    prof = reference_profile(3, 7.0)
    state = init_flow(prof, FlowConfig(bc=BC_DIRICHLET, n_points=1600,
                                       conv_tol=0.0))
    while state.tau < 0.002 and not state.exhausted:
        step(state)
    inner = state.r <= 12.0
    drift = np.abs(state.w - prof.value(state.r))[inner].max()
    assert drift < 2e-2


def test_kappa_plus_ground_state_blows_up_monotonically():
    # at the constant equilibrium the radial ground state is the constant,
    # so the perturbed data is a constant above kappa: the weighted-average
    # criterion is positive, the run blows up, and the time derivative stays
    # positive throughout (the clean, fully resolved instance of the
    # monotone-increase property)
    from selfsim.flow import blowup_criterion
    from selfsim.spectrum import first_eigenfunction
    kprof = constant_profile(P33, "+")
    _, fk, _ = first_eigenfunction(kprof, resolution=2000)
    state = init_flow(kprof, FlowConfig(bc=BC_NOFLUX), eigenfunction=fk,
                      amplitude=0.05)
    assert blowup_criterion(state) == pytest.approx(0.05, abs=1e-10)
    rep = run(state, tau_max=40.0)
    assert rep.outcome == OUTCOME_BLEWUP
    assert rep.min_dtau_w >= -1e-9


def test_perturbed_shooting_run_diagnostics():
    # blow-up at the origin with bounded outer half.  The minimum of
    # dtau w, -0.0425, is read at tau = 0 at r ~ 8.30: the shot profile's
    # jump where its tail takes over at r_cut, which the flow grid sees as a
    # residual of size jump / h^2, not the continuum zero
    from selfsim.spectrum import first_eigenfunction
    prof = reference_profile(3, 7.0)
    _, f, _ = first_eigenfunction(prof, resolution=4000)
    peak = float(np.abs(f(np.linspace(0, 20, 4001))).max())
    state = init_flow(prof, FlowConfig(bc=BC_DIRICHLET, n_points=1600,
                                       conv_tol=0.0),
                      eigenfunction=lambda r: f(r) / peak, amplitude=0.05)
    rep = run(state, tau_max=20.0)
    assert rep.outcome == OUTCOME_BLEWUP
    assert rep.blowup_location == pytest.approx(0.0, abs=0.5)
    outer = rep.r >= 0.5 * rep.r[-1]
    assert np.abs(rep.final_w[outer]).max() < 1.0    # compact blow-up region
    assert rep.type1_indicator is not None and rep.type1_indicator < 10.0
    assert rep.min_dtau_w > -0.05          # the profile's jump at r_cut


def test_perturbation_experiment_entropy_drop_and_blowup():
    prof = reference_profile(3, 7.0)
    rep = entropy_perturbation_experiment(prof, s_values=(0.01, -0.01),
                                          run_flow_for=0.05)
    assert rep.base_entropy == pytest.approx(0.0443175, abs=2e-6)
    for s, margin in rep.margins.items():
        assert margin > 0.0, f"entropy did not drop at s={s}"
    assert rep.flow_outcome == OUTCOME_BLEWUP
    assert rep.flow_tau1 is not None
    assert rep.energy_plateau < rep.base_entropy + 1e-6


def test_perturbation_experiment_samples_the_profile_once_bit_for_bit(
        monkeypatch):
    prof = reference_profile(3, 7.0)
    s_values = (0.01, -0.01, 0.05, -0.05)
    grid = np.unique(np.concatenate([np.geomspace(1e-6, 19.9, 1200),
                                     prof.grid]))
    grid = grid[grid <= 19.9]
    # the oracle: each s samples w, w', f and f' on the grid on its own
    _, f_raw, _ = first_eigenfunction(prof, resolution=4000)
    scale = float(np.abs(f_raw(np.linspace(0.0, 20.0, 4001))).max())
    base = entropy(prof).lam
    want = {}
    for s in s_values:
        vals = prof.value(grid) + s * (f_raw(grid) / scale)
        ders = prof.deriv(grid) + s * (f_raw.derivative()(grid) / scale)
        want[s] = entropy(RadialProfile(
            kind=KIND_TABULATED, params=P37, grid=grid, values=vals,
            derivs=ders, decay_coeff=prof.decay_coeff,
            meta={"axis_value": float(vals[0])})).lam
    radii = []
    sample = prof.sample
    monkeypatch.setattr(prof, "sample",
                        lambda r: radii.append(np.asarray(r)) or sample(r))
    rep = entropy_perturbation_experiment(prof, s_values, run_flow_for=None)
    assert sum(np.array_equal(r, grid) for r in radii) == 1
    assert rep.base_entropy == base
    assert rep.entropies == want
    assert rep.margins == {s: base - want[s] for s in s_values}


def test_reached_max_time_outcome():
    prof = constant_profile(P33, "+")
    state = init_flow(prof, FlowConfig(bc=BC_NOFLUX, conv_tol=0.0))
    report = run(state, tau_max=0.2)
    assert report.outcome == "reached_max_time"
    assert report.tau1 is None
    assert report.tau_end >= 0.2


@pytest.mark.parametrize("p,level,dt_max,tau_max", [
    (7.0, 0.8, 1.0, 40.0),       # steps of 1 would pass 40 at the end
    (3.0, 0.5, 0.01, 1.0),       # a sum of steps of 0.01 misses 1.0
    (3.0, 0.5, 1.0, 1.0 / 3.0)])
def test_run_lands_exactly_on_tau_max(p, level, dt_max, tau_max):
    params = make_params(3, p)
    state = constant_data_state(params, level * params.kappa, dt_max=dt_max,
                                conv_tol=0.0)
    report = run(state, tau_max=tau_max)
    assert report.outcome == "reached_max_time"
    assert report.tau_end == report.series["tau"][-1] == tau_max
    assert (np.diff(report.series["tau"]) > 0.0).all()
    step(state)                 # past the run, steps go on
    assert state.tau > tau_max


def test_step_counts_match_the_series_and_the_attempts(monkeypatch):
    attempts, original = [], flow._try_step
    monkeypatch.setattr(flow, "_try_step",
                        lambda state, dt: attempts.append(original(state, dt))
                        or attempts[-1])
    grid = np.linspace(1e-6, 20.0, 400)
    vals = 0.5 * P33.kappa * np.exp(-((grid - 3.0) / 1.5) ** 2) + 0.2
    prof = tabulated_profile(P33, grid, vals,
                             np.gradient(vals, grid, edge_order=2))
    report = run(init_flow(prof, FlowConfig(bc=BC_NOFLUX)), tau_max=4.0)
    counts = report.steps
    assert counts.accepted == len(report.series["tau"]) - 1 > 0
    assert len(attempts) == counts.accepted + counts.rejected_by_error \
        + counts.rejected_by_energy + counts.rejected_by_reaction
    finished = [a for a in attempts if a is not None]
    assert counts.rejected_by_reaction == len(attempts) - len(finished)
    too_far = [a for a in finished if not a[2] <= a[3]]
    assert counts.rejected_by_error == len(too_far) > 0
    assert counts.rejected_by_energy == 0
    assert counts.max_error_estimate == max(a[2] for a in finished
                                            if a[2] <= a[3]) > 0.0


def potential_energy(state, w):
    p = state.params.p
    w2 = w**2
    return float(np.dot(state.machinery["quad_w"],
                        w2 / (2.0 * (p - 1.0)) - np.abs(w) ** (p - 1.0) * w2
                        / (p + 1.0)))


@pytest.mark.parametrize("n_points", [512, 800, 1600])
@pytest.mark.parametrize("bc", [BC_NOFLUX, BC_DIRICHLET])
@pytest.mark.parametrize("r_max", [20.0, 6.0])   # 6: the Dirichlet term counts
def test_gradient_term_is_the_diffusion_operators_quadratic_form(n_points, bc,
                                                                 r_max):
    # summation by parts: the energy's gradient term is -<w, D w> / 2 in the
    # cell-volume inner product, D the flow's own diffusion operator
    state = init_flow(constant_profile(P33, "+"),
                      FlowConfig(bc=bc, n_points=n_points, r_max=r_max))
    mach = state.machinery
    w = np.random.default_rng(7).normal(size=state.r.size)
    grad = energy_of_state(state, w) - potential_energy(state, w)
    expected = -np.dot(mach["mbar"], w * flow._apply_diffusion(mach, w)) \
        / (2.0 * mach["mbar"].sum())
    assert grad == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n_points", [512, 800, 1600])
@pytest.mark.parametrize("bc", [BC_NOFLUX, BC_DIRICHLET])
@pytest.mark.parametrize("params", [P33, P37], ids=["p3", "p7"])
def test_energy_is_the_lyapunov_functional_of_the_scheme(n_points, bc, params):
    # along the semi-discrete flow dw/dtau = F(w) the energy changes at the
    # rate -sum quad_w F^2 (measured within 2.5e-10 relative)
    state = init_flow(constant_profile(params, "+"),
                      FlowConfig(bc=bc, n_points=n_points))
    mach, r, p = state.machinery, state.r, params.p
    w = params.kappa * (1.0 + 0.3 * np.cos(r) * np.exp(-r / 5.0))
    F = flow._apply_diffusion(mach, w) - w / (p - 1.0) \
        + np.abs(w) ** (p - 1.0) * w
    eps = 1e-6
    rate = (energy_of_state(state, w + eps * F)
            - energy_of_state(state, w - eps * F)) / (2.0 * eps)
    assert rate == pytest.approx(-np.dot(mach["quad_w"], F * F), rel=1e-8)


@pytest.mark.parametrize("bc", [BC_NOFLUX, BC_DIRICHLET])
def test_rhs_is_the_energys_descent_direction(bc):
    # dE(w + eps v)/deps = -sum quad_w F v at eps = 0 for every direction v:
    # F is minus the energy's gradient in the quad_w inner product (measured
    # worst 9.6e-8 relative)
    state = init_flow(reference_profile(3, 7.0),
                      FlowConfig(bc=bc, n_points=800))
    F, w = flow._rhs(state), state.w
    quad_w, eps = state.machinery["quad_w"], 1e-6
    for v in (F, np.cos(state.r),
              np.random.default_rng(5).normal(size=w.size)):
        rate = (energy_of_state(state, w + eps * v)
                - energy_of_state(state, w - eps * v)) / (2.0 * eps)
        assert rate == pytest.approx(-np.dot(quad_w, F * v), rel=1e-6)


def test_shot_profile_is_a_steady_state_of_the_flow_to_second_order():
    # the (3,7) profile's residual on the Dirichlet flow grid, in the rho
    # norm, falls at second order (measured 0.0520, 0.0133, 0.00334 at 800,
    # 1600, 3200 points); max |F| is not bounded: past 3200 points the
    # profile's jump at r_cut sets it
    prof = reference_profile(3, 7.0)
    norms = []
    for n_points in (800, 1600, 3200):
        state = init_flow(prof, FlowConfig(bc=BC_DIRICHLET, n_points=n_points))
        F = flow._rhs(state)
        norms.append(math.sqrt(np.dot(state.machinery["quad_w"], F * F)))
    assert norms[0] < 0.06
    for coarse, fine in zip(norms, norms[1:]):
        assert coarse / fine >= 3.5, norms


@pytest.mark.parametrize("p,level,tau_max", [(3.0, 1.0, 10.0),
                                             (3.0, 0.8 * P33.kappa, 40.0)],
                         ids=["unit", "0.8kappa"])
def test_min_dtau_w_of_constant_data_is_the_scalar_rate(p, level, tau_max):
    # under no-flux D w = 0 exactly on constant data, so every row of
    # min_dtau_w is the scalar right-hand side s (s^{p-1} - 1/(p-1)) at
    # s = sup_norm, to rounding of its larger term
    report = run(constant_data_state(make_params(3, p), level), tau_max=tau_max)
    s = report.series["sup_norm"]
    got = report.series["min_dtau_w"]
    assert got.size > 10
    terms = np.maximum(s ** p, s / (p - 1.0))
    expected = s * (s ** (p - 1.0) - 1.0 / (p - 1.0))
    assert (np.abs(got - expected)
            <= 8.0 * (p + 1.0) * np.spacing(terms)).all()
    assert report.min_dtau_w == got.min()


@pytest.mark.parametrize("n_points,bound", [(800, 1e-3), (1600, 1e-4)])
def test_linearized_flow_at_kappa_grows_at_the_spectrums_rates(n_points, bound):
    # the flow from kappa + eps f_k, f_k the k-th radial eigenfunction of
    # the spectrum's operator, grows like exp(-lambda_k tau) with
    # lambda_k = -1, 0, 1 at kappa (n = 3, p = 3); measured worst
    # deviation 1.7e-4 at 800 points and 1.3e-5 at 1600 (converged in time,
    # 5.2e-5 at 1600)
    from selfsim.spectrum import build_sector, eigen_smallest
    kprof = constant_profile(P33, "+")
    eig = eigen_smallest(build_sector(kprof, 0, 2000), 3, refine=False)
    for k, f in enumerate(eig.funcs):
        state = init_flow(kprof, FlowConfig(n_points=n_points, conv_tol=0.0),
                          eigenfunction=f, amplitude=1e-7)
        quad_w = state.machinery["quad_w"]
        norm0 = math.sqrt(np.dot(quad_w, (state.w - P33.kappa) ** 2))
        rep = run(state, tau_max=1.0)
        norm1 = math.sqrt(np.dot(quad_w, (rep.final_w - P33.kappa) ** 2))
        rate = math.log(norm1 / norm0) / rep.tau_end
        assert abs(rate - (1.0 - k)) < bound, (k, rate)


def test_energy_cache_follows_a_rebound_w():
    state = init_flow(constant_profile(P33, "+"), FlowConfig(bc=BC_NOFLUX))
    run(state, tau_max=0.05)             # caches the energy of kappa data
    state.w = np.full_like(state.w, 1.02 * P33.kappa)
    expected = energy_of_state(state)
    assert expected != energy_of_state(state, np.full_like(state.w, P33.kappa))
    assert run(state, tau_max=0.1).series["energy"][0] == expected


def test_energy_evaluated_once_per_accepted_step(monkeypatch):
    calls = []
    original = flow.energy_of_state

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(flow, "energy_of_state", counted)
    report = run(constant_data_state(P33, 0.8 * P33.kappa), tau_max=40.0)
    assert report.outcome == OUTCOME_CONVERGED
    accepted = len(report.series["tau"]) - 1
    assert 0 < len(calls) <= accepted + 1


def test_reaction_keeps_zero_entries_at_zero():
    w = np.array([0.5, -0.3, 1.2, 0.8])
    moved, power = flow._react_exact(w, 0.01, 3.0)
    with_zeros, with_zeros_power = flow._react_exact(
        np.insert(w, [0, 2], [-0.0, 0.0]), 0.01, 3.0)
    assert with_zeros.tobytes() == np.insert(moved, [0, 2], 0.0).tobytes()
    assert with_zeros_power.tobytes() == np.insert(power, [0, 2], 0.0).tobytes()


@pytest.mark.parametrize("p", [1.2, 2.0, 3.0, 4.5, 7.0, 9.0])
@pytest.mark.parametrize("dt", [1e-4, 0.01, 1.0])
def test_reaction_returns_the_power_of_its_result(p, dt):
    # magnitudes whose |w|^{p-1} is a normal float, up to just below the
    # scalar blow-up over dt
    rng = np.random.default_rng(11)
    kap = (1.0 / (p - 1.0)) ** (1.0 / (p - 1.0))
    limit = kap / (1.0 - math.exp(-dt)) ** (1.0 / (p - 1.0))
    w = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(
        max(-300.0, -280.0 / (p - 1.0)), math.log10(0.999 * limit), 4000)
    w_new, power = flow._react_exact(w, dt, p)
    expected = np.abs(w_new) ** (p - 1.0)
    normal = expected > 1e-290
    assert normal.sum() > 3900
    assert (np.abs(power - expected)[normal]
            <= 2.0 * (p + 1.0) * np.spacing(expected[normal])).all()


def test_rebound_state_runs_like_fresh_data():
    # the state's record of the accepted array (energy, |w|^{p-1}, sup) must
    # follow a rebound w: the run from the rebound state equals the run
    # from init_flow on the same data, series for series
    params = make_params(3, 7.0)
    cfg = FlowConfig(bc=BC_NOFLUX)
    state = init_flow(constant_profile(params, "+"), cfg)
    run(state, tau_max=0.05)
    data = 2.0 * params.kappa * (1.0 + 0.1 * np.cos(state.r))
    fresh = init_flow(constant_profile(params, "0"), cfg,
                      eigenfunction=lambda r: data, amplitude=1.0)
    assert fresh.w.tobytes() == data.tobytes()
    state.w = data
    state.tau, state.dt = 0.0, cfg.dt_max
    rebound_series = run(state, tau_max=1.0).series
    fresh_series = run(fresh, tau_max=1.0).series
    assert len(fresh_series["tau"]) > 10
    for key, values in fresh_series.items():
        assert rebound_series[key].tobytes() == values.tobytes(), key


@pytest.mark.parametrize("kwargs", [
    {"r_max": -5.0}, {"r_max": 0.0}, {"r_max": math.nan}, {"r_max": math.inf},
    {"n_points": 800.5}, {"n_points": 1}, {"dt_max": math.inf},
    {"dt_max": 0.0}, {"dt_max": math.nan}, {"dt_max": 1e-20}],
    ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()))
def test_flow_config_refuses_a_grid_or_step_it_cannot_run(kwargs):
    with pytest.raises(ParameterError):
        FlowConfig(**kwargs)


@pytest.mark.parametrize("tau_max", [math.nan, -1.0])
def test_run_refuses_a_nan_or_negative_tau_max(tau_max):
    with pytest.raises(ParameterError, match="tau_max"):
        run(constant_data_state(P33, 0.5), tau_max=tau_max)


def test_infinite_tau_max_runs_to_convergence():
    report = run(constant_data_state(P33, 0.5), tau_max=math.inf)
    assert report.outcome == OUTCOME_CONVERGED


# 1e200 is finite, but |w|^{p+1} and so the energy overflow
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
def test_non_finite_initial_data_is_refused(bad):
    prof = constant_profile(P33, "+")
    with pytest.raises(ParameterError, match="finite"):
        init_flow(prof, FlowConfig(bc=BC_NOFLUX), amplitude=1.0,
                  eigenfunction=lambda r: np.where(r > 5.0, bad, 0.0))
    state = constant_data_state(P33, 0.5)
    state.w = np.full_like(state.w, bad)
    with pytest.raises(ParameterError, match="finite"):
        run(state, tau_max=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_solve_halves_the_step(monkeypatch, bad):
    # the first Crank-Nicolson solution (the whole step's) gets one
    # non-finite entry: the attempt ends there, and the halved one takes
    # three solves (one whole step, two half steps)
    solves, original = [], flow.solve_banded

    def spoiled_once(lu, rhs):
        out = original(lu, rhs)
        if not solves:
            out[len(out) // 2] = bad
        solves.append(1)
        return out

    monkeypatch.setattr(flow, "solve_banded", spoiled_once)
    state = constant_data_state(P33, 0.5)
    first = flow._first_try(state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step(state)
    assert len(solves) == 1 + 3 and not state.exhausted
    assert state.counts.rejected_by_reaction == 1
    assert state.dt == 0.5 * first
    assert np.isfinite(state.w).all()


def test_tiny_data_steps_at_dt_max_without_warning():
    state = constant_data_state(P33, 1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step(state)
    assert state.tau == state.dt == state.cfg.dt_max


def cn_matrix(mach, dt, bc):
    """The Crank-Nicolson matrix in scipy.linalg.solve_banded's (1, 1) layout."""
    low, mbar = mach["low"], mach["mbar"]
    diag = np.zeros(mbar.size)
    diag[:-1] += low
    diag[1:] += low
    if bc == BC_DIRICHLET:
        diag[-1] += 2.0 * mach["outer_flux"]
    ab = np.zeros((3, mbar.size))
    ab[1] = 1.0 + 0.5 * dt * diag / mbar
    ab[0, 1:] = -0.5 * dt * low / mbar[:-1]
    ab[2, :-1] = -0.5 * dt * low / mbar[1:]
    return ab


@pytest.mark.parametrize("n_points", [512, 800, 1600])
@pytest.mark.parametrize("bc", [BC_NOFLUX, BC_DIRICHLET])
def test_cn_factors_solve_like_scipy_solve_banded(n_points, bc):
    mach = init_flow(constant_profile(P33, "+"),
                     FlowConfig(bc=bc, n_points=n_points)).machinery
    rhs = np.random.default_rng(3).normal(size=n_points + 1)
    factored = {}
    # a dt seen before reuses its factors; a new dt factors its own matrix
    for dt in (0.01, 0.01, 0.005, 0.0025, 1e-6, 1e-6, 0.01, 0.005):
        lu = flow._cn_banded(mach, dt)
        assert lu is factored.setdefault(dt, lu)
        expected = solve_banded((1, 1), cn_matrix(mach, dt, bc), rhs)
        assert flow.solve_banded(lu, rhs.copy()).tobytes() == expected.tobytes()
    assert len(mach["cn"]) == len(factored) == 4


@pytest.mark.parametrize("n,p,n_points,bc", [(3, 3.0, 800, BC_NOFLUX),
                                             (5, 3.0, 800, BC_NOFLUX),
                                             (3, 3.0, 1600, BC_NOFLUX),
                                             (3, 7.0, 800, BC_DIRICHLET),
                                             (1, 3.0, 800, BC_NOFLUX),
                                             (12, 3.0, 800, BC_NOFLUX)])
def test_cell_volumes_are_exact(n, p, n_points, bc):
    # every cell's int r^{n-1} e^{-r^2/4} dr against 30-digit mpmath;
    # measured worst 6.4e-13 relative (n = 3, 1600 points)
    cfg = FlowConfig(bc=bc, n_points=n_points)
    mach = init_flow(constant_profile(make_params(n, p), "+"), cfg).machinery
    h = cfg.r_max / n_points
    faces = np.concatenate([[0.0], (np.arange(n_points) + 0.5) * h,
                            [cfg.r_max]])
    with mp.workdps(30):
        a = mp.mpf(n) / 2
        scale = mp.mpf(2) ** (n - 1) * mp.gamma(a)
        s = [mp.mpf(float(x)) ** 2 / 4 for x in faces]
        exact = np.array([float(scale * mp.gammainc(a, lo, hi, regularized=True))
                          for lo, hi in zip(s[:-1], s[1:])])
    assert (np.abs(mach["mbar"] * h - exact) <= 2e-12 * exact).all()


def decaying_constant_state():
    # 0.5 < kappa = 2^{-1/2}: the data decays, exactly and without error
    return init_flow(constant_profile(P33, "0"), eigenfunction=np.ones_like,
                     amplitude=0.5)


def test_a_step_that_raises_the_energy_is_retried_at_half_the_size(
        monkeypatch):
    state = decaying_constant_state()
    real, calls = flow.energy_of_state, []

    def rising_once(state, w=None, power=None):
        calls.append(w)
        return real(state, w, power) + (1.0 if len(calls) == 1 else 0.0)

    monkeypatch.setattr(flow, "energy_of_state", rising_once)
    first = flow._first_try(state)
    step(state)
    assert len(calls) == 2
    assert state.counts.rejected_by_energy == 1
    assert state.counts.accepted == 1
    assert state.dt == state.tau == 0.5 * first


def test_run_flags_an_exhausted_step_budget(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    report = run(decaying_constant_state(), tau_max=10.0)
    assert report.flags == ["step budget exhausted"]
    assert report.outcome == flow.OUTCOME_MAXTIME
    assert report.steps.accepted == 3 and report.tau_end < 10.0


def test_init_flow_defaults_to_the_no_flux_config():
    grid = np.linspace(0.01, 5.0, 60)
    cubic = RadialProfile(kind=KIND_TABULATED, params=P37, grid=grid,
                          values=np.exp(-grid), derivs=-np.exp(-grid))
    for prof in (cubic, constant_profile(P37, "+")):
        assert init_flow(prof).cfg == FlowConfig() == FlowConfig(bc=BC_NOFLUX)


@pytest.mark.parametrize("profile,s_values,named", [
    ("kappa", (0.05, -0.05), "non-constant profile"),
    ("zero", (0.05,), "non-constant profile"),
    ("shoot", (0.0, -0.0), "finite and nonzero, got 0.0"),
    ("shoot", (0.01, math.nan), "finite and nonzero, got nan"),
    ("shoot", (math.inf,), "finite and nonzero, got inf"),
])
def test_perturbation_experiment_refuses_a_degenerate_request(
        profile, s_values, named):
    prof = reference_profile(3, 7.0) if profile == "shoot" else \
        constant_profile(P37, {"kappa": "+", "zero": "0"}[profile])
    with pytest.raises(ParameterError, match=named):
        entropy_perturbation_experiment(prof, s_values=s_values)
