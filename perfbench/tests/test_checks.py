"""Each output check passes on a right answer and fails on a wrong one."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks as ck
import workloads as wl
from selfsim import core, fixtures, flow


def failed(rnd):
    return [c.name for c in rnd.checks if not c.ok]


def test_oracles_match_known_values():
    assert ck.kappa(3.0) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert ck.kappa_energy(3.0) == pytest.approx(0.0625, abs=1e-15)
    assert ck.singular_energy(7, 3.0) == pytest.approx(1.0 / 15.0, abs=1e-15)
    assert ck.blowup_time(1.0, 3.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert ck.blowup_time(1.0, 7.0) == pytest.approx(math.log(6.0 / 5.0), abs=1e-15)
    assert ck.scalar_v(1.6, 3.0, ck.blowup_time(1.6, 3.0)) == pytest.approx(0.0, abs=1e-12)
    assert ck.ou_levels(0, 3) == [-1.0, 0.0, 1.0]
    assert ck.ou_levels(1, 2) == [-0.5, 0.5]
    # F at (x0, -1) of a stationary constant is its energy
    assert ck.constant_f(ck.kappa(7.0), 7.0, -1.0) == pytest.approx(ck.kappa_energy(7.0))


def test_a_star_gate_is_set_by_the_integrator_tolerance():
    ref = fixtures.A_STAR_REFERENCE[(3, 7.0)]
    # the seed's shots land about 1.6e-13 from the reference (from the
    # recorded and from the scan bracket); a 1e-13 gate fails on correct code
    for got in (ref + 1.62e-13, ref + 1.64e-13):
        assert ck.close("a*", got, ref, wl.A_STAR_TOL).ok
    for got in (ref + 1e-9, ref - 1e-9, 2.30, 2.31):
        assert not ck.close("a*", got, ref, wl.A_STAR_TOL).ok


def scalar_report(c, p, taus, tau1=None):
    v = np.array([ck.scalar_v(c, p, t) for t in taus])
    blew = tau1 is not None
    return SimpleNamespace(
        series={"tau": np.asarray(taus), "sup_norm": v ** (-1.0 / (p - 1.0)),
                "energy": np.linspace(0.1, 0.0, len(taus))},
        outcome=flow.OUTCOME_BLEWUP if blew else flow.OUTCOME_CONVERGED,
        tau1=tau1, criterion_exceeded=blew)


def test_constant_run_checks():
    p, c = 3.0, 1.02 * ck.kappa(3.0)
    tau1 = ck.blowup_time(c, p)
    taus = np.linspace(0.0, 0.8 * tau1, 50)
    rnd = wl.Round()
    wl.check_constant_run(rnd, "exact", scalar_report(c, p, taus, tau1), c, p)
    assert not failed(rnd)
    # wrong tau_1
    rnd = wl.Round()
    wl.check_constant_run(rnd, "tau1", scalar_report(c, p, taus, tau1 * 1.001), c, p)
    assert failed(rnd) == ["tau1 tau_1 vs ln((p-1)/((p-1)-c^(1-p))) (rel)"]
    # a run of another kappa level than the one claimed
    rnd = wl.Round()
    wl.check_constant_run(rnd, "level", scalar_report(1.01 * c, p, taus, tau1), c, p)
    assert "level v = |w|^(1-p) vs exact" in failed(rnd)
    # data above kappa that does not blow up; data below kappa that does
    rnd = wl.Round()
    wl.check_constant_run(rnd, "above", scalar_report(c, p, taus), c, p)
    assert "above blows up" in failed(rnd)
    low = 0.8 * ck.kappa(p)
    rnd = wl.Round()
    wl.check_constant_run(rnd, "below", scalar_report(low, p, taus, 1.0), low, p)
    assert failed(rnd) == ["below does not blow up"]


def test_flow_energy_and_criterion_checks():
    rep = scalar_report(0.8 * ck.kappa(3.0), 3.0, np.linspace(0.0, 1.0, 20))
    rep.series["energy"] = rep.series["energy"].copy()
    rep.series["energy"][7] += 0.01   # one step raises the energy
    rep.criterion_exceeded = True
    rnd = wl.Round()
    wl.check_flow_common(rnd, "bad", rep)
    assert failed(rnd) == ["bad energy never rises", "bad A > kappa ends in blow-up"]


def test_perturbed_run_checks():
    blew = SimpleNamespace(series={"energy": np.array([1.0, 0.5])},
                           outcome=flow.OUTCOME_BLEWUP, criterion_exceeded=True)
    stayed = SimpleNamespace(series={"energy": np.array([1.0, 0.5])},
                             outcome=flow.OUTCOME_MAXTIME, criterion_exceeded=False)
    for rep, s, ok in ((blew, 0.05, True), (stayed, -0.05, True),
                       (stayed, 0.05, False), (blew, -0.05, False)):
        rnd = wl.Round()
        wl.check_perturbed_run(rnd, "w", rep, s)
        assert (not failed(rnd)) == ok


@pytest.fixture(scope="module")
def shooting_profile():
    return fixtures.reference_profile(3, 7.0)


def corrupted(prof, **arrays):
    bad = wl.fresh({"p": prof})["p"]
    for key, val in arrays.items():
        setattr(bad, key, val)
    bad._spline = None
    return bad


def test_shooting_profile_checks(shooting_profile):
    prof = shooting_profile
    rnd = wl.Round()
    wl.check_shooting_profile(rnd, "w", prof, np.random.default_rng(0))
    assert not failed(rnd)

    def run(bad):
        rnd = wl.Round()
        wl.check_shooting_profile(rnd, "w", bad, np.random.default_rng(0))
        return failed(rnd)

    # samples of another height: no longer a solution of the ODE
    assert "w RK4 step defect" in run(corrupted(prof, values=prof.values * 1.001))
    # a tail that is not r^{-2/(p-1)}
    outer = 0.75 * prof.grid[-1]
    ramp = np.where(prof.grid > outer, 1.0 + 0.1 * (prof.grid - outer), 1.0)
    assert "w tail r^(2/(p-1)) w flat" in run(corrupted(prof, values=prof.values * ramp))
    # a sign change
    vals = prof.values.copy()
    vals[-1] = -vals[-1]
    assert "w positive" in run(corrupted(prof, values=vals))


def test_entropy_and_spectrum_checks_reject_wrong_references():
    kap = core.constant_profile(core.make_params(3, 3.0), "+")
    rnd = wl.Round()
    wl.check_entropy(rnd, "kappa", kap, ck.kappa_energy(3.0))
    assert not failed(rnd)
    rnd = wl.Round()
    wl.check_entropy(rnd, "kappa", kap, 1.01 * ck.kappa_energy(3.0))
    assert failed(rnd) == ["kappa entropy = energy (rel)"]
    rnd = wl.Round()
    wl.check_spectrum(rnd, "kappa", kap, 0, 3, ck.ou_levels(0, 3))
    assert not failed(rnd)
    rnd = wl.Round()
    wl.check_spectrum(rnd, "kappa", kap, 0, 3, [-1.0, 0.0, 1.5])
    assert failed(rnd) == ["kappa l=0 levels"]


def test_program_errors_count_as_failed_operations():
    rnd = wl.Round()
    params = core.make_params(3, 7.0)
    assert rnd.op("no bracket", __import__("selfsim").shooting.shoot, params, 1.0, 1.1) is None
    assert rnd.attempted == 1 and len(rnd.failures) == 1
