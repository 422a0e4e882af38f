"""The acceptance suite: every release criterion as a callable check.

Each check returns a CheckResult with the measured numbers it judged, so the
CLI can print one verdict line per criterion and tests can assert them
individually.  Tolerances are pinned here, not configurable.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .closedform import (gap_inequality, gap_scan, kappa_energy,
                         phi_diagnostics, singular_energy)
from .core import constant_profile, make_params, singular_profile
from .fixtures import SUBCRITICAL_SCAN, reference_profile
from .flow import (FlowConfig, OUTCOME_BLEWUP, init_flow, run,
                   entropy_perturbation_experiment)
from .functionals import _f_values, energy, entropy, identities
from .quadrature import _rho_rule, _sums
from .shooting import SIGN_CHANGING, _brackets, scan_initial_values
from .spectrum import (apply_L, build_sector, eigen_smallest,
                       first_eigenfunction, rayleigh_quotient)
from .variations import (Variation, first_variation,
                         general_second_variation_fd, lambda_field,
                         random_variations, second_variation)

# bounds the CLI's verdicts share: criterion 6's largest identity residual of
# a constant and of any other solution, and criterion 9's largest relative
# gap between a solution's entropy and its energy
IDENTITY_TOL_CONSTANT = 1e-13
IDENTITY_TOL = 1e-5
ENTROPY_ENERGY_TOL = 1e-8


def identity_tol(prof) -> float:
    return IDENTITY_TOL_CONSTANT if prof.is_constant else IDENTITY_TOL


@dataclass
class CheckResult:
    cid: int
    name: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def verdict_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d} " \
               f"({self.seconds:6.2f}s): {self.name}"


def _timed(cid, name, fn):
    t0 = time.perf_counter()
    passed, details = fn()
    return CheckResult(cid=cid, name=name, passed=bool(passed),
                       seconds=time.perf_counter() - t0, details=details)


# ---------------------------------------------------------------------- 1
def check_gaussian_normalization():
    def body():
        worst_mass, worst_moment = 0.0, 0.0
        for n in range(3, 11):
            # rho is the recentering kernel at (0, -1)
            r, weights = _rho_rule(n)
            mass, mom = _sums(r, weights, (np.ones_like(r), r * r))
            worst_mass = max(worst_mass, abs(mass - 1.0))
            worst_moment = max(worst_moment, abs(mom - 2.0 * n))
        ok = worst_mass <= 1e-12 and worst_moment <= 1e-10
        return ok, {"max_mass_error": worst_mass,
                    "max_second_moment_error": worst_moment}
    return _timed(1, "Gaussian weight normalization and second moment", body)


# ---------------------------------------------------------------------- 2
def check_constants():
    def body():
        p33 = make_params(3, 3.0)
        p37 = make_params(3, 7.0)
        kap_err = abs(p33.kappa - 0.707107)
        e33 = energy(constant_profile(p33, "+"))
        e37 = energy(constant_profile(p37, "+"))
        closed37 = kappa_energy(p37)
        ok = (kap_err <= 5e-7
              and abs(e33.energy - 0.0625) <= 1e-12
              and abs(e37.energy - 0.034395) <= 1e-5
              and abs(closed37 - 0.034395) <= 1e-5
              and abs(e37.energy - closed37) <= 1e-10)
        return ok, {"kappa_p3_error": kap_err,
                    "energy_p3": e33.energy,
                    "energy_p7_quadrature": e37.energy,
                    "energy_p7_closed": closed37}
    return _timed(2, "constant solution values (kappa, energies)", body)


# ---------------------------------------------------------------------- 3
def check_gamma_closed_forms():
    def body():
        p73 = make_params(7, 3.0)
        e_closed = singular_energy(p73)
        ratio = 1.0 + gap_inequality(p73)
        e_quad = energy(singular_profile(p73)).energy
        rows = gap_scan(range(4, 11), p_count=40)
        valid = [r for r in rows if r.gamma_argument_positive]
        gaps_ok = all(r.ratio > 1.0 for r in valid) and len(valid) == 7 * 40
        phi_ok = True
        for alpha in (0.3, 0.75, 1.0, 1.8, 2.6):
            for x in np.linspace(1.5 + alpha, 50.0, 120):
                phi, _, d2 = phi_diagnostics(float(x), alpha)
                if d2 < -1e-10 or not phi > 0.0:
                    phi_ok = False
        ok = (abs(e_closed - 1.0 / 15.0) <= 1e-10
              and abs(ratio - 16.0 / 15.0) <= 1e-10
              and abs(e_quad - e_closed) <= 1e-8 * e_closed
              and gaps_ok and phi_ok)
        return ok, {"singular_energy_7_3": e_closed,
                    "gap_ratio_7_3": ratio,
                    "quadrature_cross_check": e_quad,
                    "scan_rows": len(rows),
                    "all_gaps_positive": gaps_ok,
                    "phi_convex_positive": phi_ok}
    return _timed(3, "Gamma-function closed forms, gap scan, phi diagnostics",
                  body)


# ---------------------------------------------------------------------- 4
def check_spectra_at_kappa():
    def body():
        prof = constant_profile(make_params(3, 3.0), "+")
        op0 = build_sector(prof, 0, resolution=2000)
        res0 = eigen_smallest(op0, 3, refine=True, profile=prof)
        op1 = build_sector(prof, 1, resolution=2000)
        res1 = eigen_smallest(op1, 2, refine=True, profile=prof)
        err0 = np.abs(res0.lambdas - np.array([-1.0, 0.0, 1.0])).max()
        err1 = np.abs(res1.lambdas - np.array([-0.5, 0.5])).max()
        raw0 = eigen_smallest(op0, 1, refine=False)
        rq = rayleigh_quotient(op0, raw0.samples[0])
        rq_err = abs(rq - raw0.lambdas[0])
        ok = err0 <= 1e-6 and err1 <= 1e-6 and rq_err <= 1e-8
        return ok, {"radial_levels": list(res0.lambdas),
                    "first_sector_levels": list(res1.lambdas),
                    "max_error_radial": err0, "max_error_first_sector": err1,
                    "rayleigh_consistency": rq_err}
    return _timed(4, "analytic spectra at the constant solution", body)


# ---------------------------------------------------------------------- 5
def check_variation_oracle():
    def body():
        profiles = [constant_profile(make_params(3, 7.0), "+"),
                    reference_profile(3, 7.0)]
        worst_fd, worst_first = 0.0, 0.0
        one = Variation(phi=lambda r: np.ones_like(r),
                        dphi=lambda r: np.zeros_like(r))
        for prof in profiles:
            scale_ref = abs(second_variation(prof, one))
            for var in random_variations(20, seed=42):
                sv = second_variation(prof, var)
                fd = general_second_variation_fd(prof, var, delta=2.5e-4)
                rel = abs(sv - fd) / max(abs(sv), 0.05 * scale_ref)
                worst_fd = max(worst_fd, rel)
            for var in random_variations(20, seed=7):
                fv = abs(first_variation(prof, var))
                scale = max(1.0, abs(var.h), abs(var.y0))
                worst_first = max(worst_first, fv / scale)
        ok = worst_fd <= 1e-4 and worst_first <= 1e-6
        return ok, {"worst_second_variation_mismatch": worst_fd,
                    "worst_first_variation": worst_first}
    return _timed(5, "closed-form vs finite-difference variation formulas",
                  body)


# ---------------------------------------------------------------------- 6
def check_identities():
    def body():
        p73 = make_params(7, 3.0)
        fixtures = {
            "kappa_p3": constant_profile(make_params(3, 3.0), "+"),
            "kappa_p7": constant_profile(make_params(3, 7.0), "+"),
            "singular_7_3": singular_profile(p73),
            "shooting_3_7": reference_profile(3, 7.0),
        }
        details, ok = {}, True
        for name, prof in fixtures.items():
            rep = identities(prof)
            res = {"pohozaev": rep.pohozaev_residual,
                   "mass_balance": rep.mass_balance_residual,
                   "moment_balance": rep.moment_balance_residual}
            ok &= all(abs(v) <= identity_tol(prof) for v in res.values())
            details[name] = res
        return ok, details
    return _timed(6, "stationary integral identities on the fixture set", body)


# ---------------------------------------------------------------------- 7
def check_eigen_relations():
    def body():
        details, ok = {}, True

        def omega_residual(prof, fun, target, ell, grid):
            """rho-norm of L fun - target on grid, taken as 0 off grid."""
            _, Lv = apply_L(prof, fun, ell=ell, grid=grid)
            r, weights = _rho_rule(prof.params.n, prof.grid[-1])
            rc = np.interp(r, grid, Lv - target(grid), left=0.0, right=0.0)
            (norm2,) = _sums(r, weights, (rc ** 2,)).tolist()
            return norm2 ** 0.5

        wshoot = reference_profile(3, 7.0)

        def lam_fun(r):
            return wshoot.params.scaling_field(r, *wshoot.sample(r))
        num = omega_residual(wshoot, lam_fun, lam_fun, 0, wshoot.grid)
        details["scaling_mode_residual"] = num
        ok &= num <= 1e-5
        dw_fun = wshoot.deriv
        grid1 = wshoot.grid[4:-4]
        num1 = omega_residual(wshoot, dw_fun, lambda r: 0.5 * dw_fun(r), 1,
                              grid1)
        details["translation_mode_residual"] = num1
        ok &= num1 <= 1e-5
        # constant: the scaling field is the constant eigenfunction
        kap_prof = constant_profile(make_params(3, 3.0), "+")
        c = kap_prof.params.scaling_field(0.0, kap_prof.constant_value, 0.0)
        grid = np.linspace(0.3, 12.0, 500)
        _, Lc = apply_L(kap_prof, lambda r: np.full_like(r, c), ell=0, grid=grid)
        details["constant_scaling_residual"] = float(np.abs(Lc - c).max())
        ok &= details["constant_scaling_residual"] <= 1e-10
        # sign structure of the scaling field
        _, sign_shoot = lambda_field(wshoot)
        _, sign_kappa = lambda_field(kap_prof)
        details["nonconstant_changes_sign"] = sign_shoot
        details["constant_changes_sign"] = sign_kappa
        ok &= sign_shoot and not sign_kappa
        return ok, details
    return _timed(7, "explicit eigenfunction relations and sign structure",
                  body)


# ---------------------------------------------------------------------- 8
def check_flow_oracle():
    def body():
        details, ok = {}, True
        runs = []
        for p, expected, label in ((3.0, math.log(2.0), "tau1_p3"),
                                   (7.0, math.log(6.0 / 5.0), "tau1_p7")):
            state = init_flow(constant_profile(make_params(3, p), "0"),
                              eigenfunction=np.ones_like, amplitude=1.0)
            report = run(state, tau_max=10.0)
            runs.append(report)
            rel = abs(report.tau1 - expected) / expected \
                if report.tau1 is not None else math.inf
            details[label] = {"estimate": report.tau1, "exact": expected,
                              "rel_error": rel}
            ok &= report.outcome == OUTCOME_BLEWUP and rel <= 1e-2
        # kappa preservation over tau in [0, 5]
        params = make_params(3, 3.0)
        prof = constant_profile(params, "+")
        report = run(init_flow(prof, FlowConfig(conv_tol=0.0)),
                     tau_max=5.0)
        drift = float(np.abs(report.final_w - params.kappa).max())
        details["kappa_drift"] = drift
        if report.flags:     # a stalled step holds kappa without evidence
            details["kappa_flags"] = report.flags
        ok &= drift <= 1e-6 and not report.flags
        # more runs for the criterion-soundness sweep
        for level in (0.8, 1.02, 1.6):
            state = init_flow(constant_profile(params, "0"),
                              eigenfunction=np.ones_like,
                              amplitude=level * params.kappa)
            runs.append(run(state, tau_max=40.0))
        # energy monotone on every run; A > kappa always ends in blow-up
        details["max_energy_increase_per_step"] = max(
            0.0, *(rep.max_energy_increase for rep in runs))
        counterexamples = sum(rep.criterion_exceeded
                              and rep.outcome != OUTCOME_BLEWUP
                              for rep in runs)
        details["criterion_counterexamples"] = counterexamples
        ok &= all(rep.energy_monotone for rep in runs) \
            and counterexamples == 0
        return ok, details
    return _timed(8, "rescaled-flow oracle (blow-up times, equilibria, "
                     "Lyapunov energy, average criterion)", body)


# ---------------------------------------------------------------------- 9
def check_entropy_structure():
    def body():
        details, ok = {}, True
        fixtures = {
            "kappa_p3": constant_profile(make_params(3, 3.0), "+"),
            "kappa_p7": constant_profile(make_params(3, 7.0), "+"),
            "shooting_3_7": reference_profile(3, 7.0),
        }
        for name, prof in fixtures.items():
            res = entropy(prof)
            e = energy(prof).energy
            arg_err = max(abs(res.x0_norm), abs(math.log(-res.t0)))
            lam_rel = abs(res.lam - e) / max(abs(e), 1e-300)
            details[name] = {"argmax_offset": arg_err,
                             "entropy_vs_energy_rel": lam_rel}
            ok &= arg_err <= 1e-4 and lam_rel <= ENTROPY_ENERGY_TOL
        # monotone recentering path at 50 sampled (x0, t0)
        wshoot = fixtures["shooting_3_7"]
        rng = np.random.default_rng(0)
        points = []
        for _ in range(50):
            x0 = float(rng.uniform(0.1, 4.0))
            t0 = -float(np.exp(rng.uniform(-1.5, 1.5)))
            T = 1.0 + 1.0 / t0
            xs = x0 * math.sqrt(-1.0 / t0)
            for s in (-(2.0**j) for j in range(0, 9)):
                denom = T + s
                points.append((xs / math.sqrt(-denom), -s / denom))
        vals = _f_values(wshoot, *zip(*points)).reshape(50, 9)
        # each path should be nondecreasing toward (0,-1)
        worst_viol = max(0.0, float(-np.diff(vals, axis=1).min()))
        details["path_samples"] = len(vals)
        details["worst_monotonicity_violation"] = worst_viol
        ok &= worst_viol <= 1e-8
        return ok, details
    return _timed(9, "entropy argmax, entropy = energy, monotone "
                     "recentering paths", body)


# --------------------------------------------------------------------- 10
def check_energy_ordering():
    def body():
        details, ok = {}, True
        params = make_params(3, 7.0, require_supercritical=True)
        wshoot = reference_profile(3, 7.0)
        e_w = energy(wshoot).energy
        e_k = kappa_energy(params)
        details["energy_margin"] = e_w - e_k
        ok &= e_w > e_k
        lam1, f, cert = first_eigenfunction(wshoot, resolution=4000)
        details["lambda_1"] = lam1
        details["lambda_1_margin"] = -(lam1 + 1.0)
        ok &= lam1 < -1.0
        pert = entropy_perturbation_experiment(
            wshoot, s_values=(0.01, -0.01, 0.05, -0.05), run_flow_for=0.05)
        details["entropy_drop_margins"] = dict(pert.margins)
        ok &= all(m > 0.0 for m in pert.margins.values())
        details["perturbed_flow_outcome"] = pert.flow_outcome
        ok &= pert.flow_outcome == OUTCOME_BLEWUP
        # subcritical scan finds no nonconstant bounded positive profile
        sub = make_params(3, 2.0)
        grid = SUBCRITICAL_SCAN[(3, 2.0)]
        rows = scan_initial_values(sub, grid)
        brackets = _brackets(rows)
        details["subcritical_all_sign_changing"] = all(
            lab == SIGN_CHANGING for _, lab, _ in rows)
        details["subcritical_brackets"] = len(brackets)
        ok &= details["subcritical_all_sign_changing"] and len(brackets) == 0
        return ok, details
    return _timed(10, "energy ordering, instability margins, entropy drop, "
                      "subcritical emptiness", body)


ALL_CHECKS = [
    check_gaussian_normalization,
    check_constants,
    check_gamma_closed_forms,
    check_spectra_at_kappa,
    check_variation_oracle,
    check_identities,
    check_eigen_relations,
    check_flow_oracle,
    check_entropy_structure,
    check_energy_ordering,
]


def run_all(verbose: bool = True) -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        res = fn()
        results.append(res)
        if verbose:
            print(res.verdict_line())
    return results
