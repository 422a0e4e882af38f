"""The three benchmark workloads: set-up, one round of operations, checks.

A round is a fixed list of operations (one certified result each: a
profile, a scan verdict, an entropy, a spectrum, a flow run, ...) followed
by checks of their outputs against ``checks``.  The seed makes the inputs;
the amount of work in a round does not depend on it, so rounds of one seed
repeat exactly and rounds of different seeds cost about the same.

The program is reached through its module objects (``shooting.shoot``, not
a name imported from it), so that the wrappers of the traced run see every
call.
"""
from __future__ import annotations

import copy
import math

import numpy as np

from selfsim import (core, fixtures, flow, functionals, shooting, spectrum,
                     variations)

import checks as ck

# errors the program raises for a result it cannot certify
PROGRAM_ERRORS = (ValueError, ArithmeticError, RuntimeError)

SHOOT_RTOL = 1e-12          # shoot()'s integrator tolerance (its default)
A_STAR_TOL = 10 * SHOOT_RTOL
IDENTITY_TOL = 1e-5         # nonconstant and singular profiles
IDENTITY_TOL_CONST = 1e-13  # constants: every integrand is a constant
ENTROPY_REL_TOL = 1e-8
ARGMAX_TOL = 1e-4
ENERGY_SLACK = 1e-7         # the flow's per-step energy slack
LEVEL_JITTER = 0.005        # relative spread of the seeded constant levels


class Round:
    """Operations attempted in one round and the checks made on them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: list[ck.Check] = []

    def op(self, label, fn, *args, **kwargs):
        """Run one operation; a program error counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except PROGRAM_ERRORS as err:
            self.failures.append(f"{label}: {type(err).__name__}: {err}")
            return None

    def add(self, *items: ck.Check):
        self.checks.extend(items)


# ------------------------------------------------------------ shoot_branch
SUPERCRITICAL = ((3, 7.0), (4, 5.0))
SUBCRITICAL = ((3, 2.0), (4, 2.5))


def setup_shoot_branch() -> dict:
    return {}


def check_shooting_profile(rnd: Round, label: str, prof, rng) -> None:
    """Positivity, flat tail, and agreement of the samples with the ODE."""
    n, p = prof.params.n, prof.params.p
    r, w, dw = prof.grid, prof.values, prof.derivs
    rnd.add(ck.holds(f"{label} positive", bool(np.all(w > 0.0))))
    tail = r >= 0.75 * r[-1]
    q = r[tail] ** (2.0 / (p - 1.0)) * w[tail]
    rnd.add(ck.at_most(f"{label} tail r^(2/(p-1)) w flat",
                       np.ptp(q) / abs(np.mean(q)), 1e-2),
            ck.holds(f"{label} tail decreasing", bool(np.all(dw[tail] < 0.0))))
    # the first interval starts at the Taylor start next to the axis, where
    # the (n-1)/r coefficient is singular; RK4 is not meant to cross it
    defect = ck.ode_step_defect(n, p, r, w, dw)
    inner = r[:-1] >= 0.01
    rnd.add(ck.at_most(f"{label} RK4 step defect", defect[inner].max(), 1e-6))
    # seeded off-grid radii: interpolant against RK4 from the stored sample
    # below each radius
    radii = np.sort(rng.uniform(0.05, 0.9 * r[-1], 48))
    j = np.searchsorted(r, radii) - 1
    w_rk, dw_rk = ck.rk4_transport(n, p, r[j], w[j], dw[j], radii)
    mismatch = np.maximum(np.abs(prof.value(radii) - w_rk),
                          np.abs(prof.deriv(radii) - dw_rk))
    rnd.add(ck.at_most(f"{label} interpolant vs RK4 at seeded radii",
                       mismatch.max(), 1e-8))


def shoot_branch(fx: dict, rnd: Round, rng) -> None:
    for n, p in SUPERCRITICAL:
        label = f"({n},{p:g})"
        params = core.make_params(n, p, require_supercritical=True)
        heights = fixtures.supercritical_scan_grid(params.kappa)
        brackets = rnd.op(f"{label} find_brackets", shooting.find_brackets,
                          params, heights)
        if brackets is None:
            continue
        rnd.add(ck.holds(f"{label} scan finds a bracket", len(brackets) > 0))
        if not brackets:
            continue
        a_lo, a_hi = min(brackets)
        ref = fixtures.A_STAR_REFERENCE.get((n, p))
        if ref is not None:
            rnd.add(ck.holds(f"{label} scan bracket contains A_STAR_REFERENCE",
                             a_lo < ref < a_hi))
        prof = rnd.op(f"{label} shoot", shooting.shoot, params, a_lo, a_hi)
        if prof is None:
            continue
        if ref is not None:
            rnd.add(ck.close(f"{label} a* vs A_STAR_REFERENCE",
                             prof.meta["a"], ref, A_STAR_TOL))
        check_shooting_profile(rnd, label, prof, rng)
        rep = rnd.op(f"{label} energy", functionals.energy, prof)
        if rep is not None:
            rnd.add(ck.holds(f"{label} E(w) > E(kappa)",
                             rep.energy > ck.kappa_energy(p)))
        check_identities(rnd, label, prof)
        eig = rnd.op(f"{label} first_eigenfunction",
                     spectrum.first_eigenfunction, prof, resolution=4000)
        if eig is not None:
            rnd.add(ck.below(f"{label} lambda_1 < -1", eig[0], -1.0))
        if rep is not None:
            check_entropy(rnd, label, prof, rep.energy)

    for n, p in SUBCRITICAL:
        label = f"({n},{p:g})"
        params = core.make_params(n, p)
        rnd.add(ck.holds(f"{label} p <= (n+2)/(n-2)",
                         p <= ck.critical_exponent(n)))
        heights = fixtures.SUBCRITICAL_SCAN[(3, 2.0)]
        rows = rnd.op(f"{label} scan", shooting.scan_initial_values,
                      params, heights)
        if rows is not None:
            rnd.add(ck.holds(f"{label} every shot changes sign",
                             all(lab == shooting.SIGN_CHANGING and dep == -1
                                 for _, lab, dep in rows)))
        brackets = rnd.op(f"{label} find_brackets", shooting.find_brackets,
                          params, heights)
        if brackets is not None:
            rnd.add(ck.holds(f"{label} no bracket", len(brackets) == 0))


def check_identities(rnd: Round, label: str, prof) -> None:
    rep = rnd.op(f"{label} identities", functionals.identities, prof)
    if rep is None:
        return
    tol = IDENTITY_TOL_CONST if prof.is_constant else IDENTITY_TOL
    for key in ("pohozaev_residual", "mass_balance_residual",
                "moment_balance_residual"):
        rnd.add(ck.at_most(f"{label} {key}", abs(getattr(rep, key)), tol))


def check_entropy(rnd: Round, label: str, prof, energy: float):
    """Entropy of a stationary profile is its energy, attained at (0, -1)."""
    res = rnd.op(f"{label} entropy", functionals.entropy, prof)
    if res is None:
        return None
    rnd.add(ck.at_most(f"{label} entropy = energy (rel)",
                       abs(res.lam - energy) / abs(energy), ENTROPY_REL_TOL),
            ck.at_most(f"{label} entropy argmax at (0,-1)",
                       max(abs(res.x0_norm), abs(math.log(-res.t0))),
                       ARGMAX_TOL))
    return res


# -------------------------------------------------------- certify_profiles
F_GRID_POINTS = 24
RECENTERING_PATHS = 20
VARIATION_BATCH = 8


def setup_certify_profiles() -> dict:
    return {
        "kappa_3_3": core.constant_profile(core.make_params(3, 3.0), "+"),
        "kappa_3_7": core.constant_profile(core.make_params(3, 7.0), "+"),
        "shoot_3_7": fixtures.reference_profile(3, 7.0),
        "singular_7_3": core.singular_profile(core.make_params(7, 3.0)),
    }


def seeded_variations(rng, count: int) -> list:
    """Gaussian bumps with random centre, width, sign and path data."""
    out = []
    for _ in range(count):
        var = variations.gaussian_bump(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]),
                                       rng.uniform(0.0, 4.0), rng.uniform(0.5, 2.0))
        var.h, var.y0 = rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5)
        var.h2, var.y02 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        out.append(var)
    return out


def check_spectrum(rnd, label, prof, ell, k, want=None):
    op = rnd.op(f"{label} sector {ell}", spectrum.build_sector, prof, ell,
                resolution=2000)
    if op is None:
        return None
    res = rnd.op(f"{label} eigen {ell}", spectrum.eigen_smallest, op, k,
                 refine=True, profile=prof)
    if res is not None and want is not None:
        rnd.add(ck.at_most(f"{label} l={ell} levels",
                           np.abs(res.lambdas - np.array(want)).max(), 1e-6))
    return res


def certify_profiles(fx: dict, rnd: Round, rng) -> None:
    energies = {}
    for name, prof in fx.items():
        p = prof.params.p
        rep = rnd.op(f"{name} energy", functionals.energy, prof)
        if rep is None:
            continue
        energies[name] = rep.energy
        if prof.is_constant:
            rnd.add(ck.at_most(f"{name} E = kappa^(p+1)(1/2-1/(p+1)) (rel)",
                               abs(rep.energy / ck.kappa_energy(p) - 1.0), 1e-12))
        check_identities(rnd, name, prof)
    if "singular_7_3" in energies:
        e_sing = ck.singular_energy(7, 3.0)
        rnd.add(ck.at_most("singular_7_3 closed form = 1/15",
                           abs(e_sing - 1.0 / 15.0), 1e-14),
                ck.at_most("singular_7_3 quadrature energy vs closed form (rel)",
                           abs(energies["singular_7_3"] / e_sing - 1.0), 1e-8))
    if "shoot_3_7" in energies:
        rnd.add(ck.holds("shoot_3_7 E(w) > E(kappa)",
                         energies["shoot_3_7"] > ck.kappa_energy(7.0)))

    # entropy, density and seeded F samples on the bounded profiles
    bounded = [k for k in ("kappa_3_3", "kappa_3_7", "shoot_3_7") if k in energies]
    for name in bounded:
        prof, e = fx[name], energies[name]
        p = prof.params.p
        check_entropy(rnd, name, prof, e)
        x0s = rng.uniform(0.0, 4.0, F_GRID_POINTS)
        t0s = -np.exp(rng.uniform(-2.0, 2.0, F_GRID_POINTS))
        vals = rnd.op(f"{name} F grid", f_samples, prof, x0s, t0s)
        if vals is not None:
            if prof.is_constant:
                c = prof.constant_value
                err = max(abs(v - ck.constant_f(c, p, float(t)))
                          / max(1.0, abs(ck.constant_f(c, p, float(t))))
                          for v, t in zip(vals, t0s))
                rnd.add(ck.at_most(f"{name} F vs closed form", err, 1e-9))
            else:
                rnd.add(ck.at_most(f"{name} F samples <= E(w)",
                                   max(vals) - e, 1e-12))
        for x0 in (0.0, float(rng.uniform(0.5, 3.0))):
            d = rnd.op(f"{name} density", functionals.density, prof, x0)
            if d is None:
                continue
            rnd.add(ck.holds(f"{name} density path monotone at x0={x0:.3f}",
                             d.monotone))
            if prof.is_constant or x0 == 0.0:
                rnd.add(ck.at_most(f"{name} density = E at x0={x0:.3f} (rel)",
                                   abs(d.theta / e - 1.0), 1e-8))
            else:
                rnd.add(ck.at_most(f"{name} density <= E at x0={x0:.3f}",
                                   d.theta - e, 1e-12))

    if "shoot_3_7" in energies:
        certify_shooting_profile(fx["shoot_3_7"], energies["shoot_3_7"], rnd, rng)
    # spectra at kappa are Ornstein-Uhlenbeck levels for every p
    for name in ("kappa_3_3", "kappa_3_7"):
        radial = check_spectrum(rnd, name, fx[name], 0, 3, ck.ou_levels(0, 3))
        check_spectrum(rnd, name, fx[name], 1, 2, ck.ou_levels(1, 2))
        rep = rnd.op(f"{name} stability", variations.stability_report,
                     fx[name], radial) if radial is not None else None
        if rep is not None:
            rnd.add(ck.holds(f"{name} stable modulo translations",
                             rep.verdict == "stable_modulo_translations"))
    check_variations(rnd, "kappa_3_7", fx["kappa_3_7"], rng)


def f_samples(prof, x0s, t0s) -> list:
    return [functionals.f_functional(prof, float(b), float(t))
            for b, t in zip(x0s, t0s)]


def certify_shooting_profile(prof, energy, rnd, rng) -> None:
    name = "shoot_3_7"
    paths = rnd.op(f"{name} recentering paths", recentering_paths, prof, rng)
    if paths is not None:
        rnd.add(ck.at_most(f"{name} recentering paths monotone",
                           paths, 1e-8))
    check_variations(rnd, name, prof, rng)
    res0 = check_spectrum(rnd, name, prof, 0, 2)
    if res0 is not None:
        rnd.add(ck.below(f"{name} lambda_1 < -1", res0.lambdas[0], -1.0),
                ck.close(f"{name} scaling mode 2w/(p-1) + r w' at -1",
                         res0.lambdas[1], -1.0, 1e-3))
    # the same modes applied pointwise: L Lam(w) = Lam(w), L_1 w' = w'/2
    p = prof.params.p
    scaling = lambda r: 2.0 * prof.value(r) / (p - 1.0) + r * prof.deriv(r)
    for ell, mode, factor, label in ((0, scaling, 1.0, "Lam(w)"),
                                     (1, prof.deriv, 0.5, "w'")):
        applied = rnd.op(f"{name} apply_L {ell}", spectrum.apply_L, prof, mode, ell=ell)
        if applied is not None:
            grid, Lv = applied
            target = factor * mode(grid)
            keep = grid >= 0.01     # one-sided stencils next to the axis
            rnd.add(ck.at_most(f"{name} L_{ell} {label} = {factor:g} {label} (rel)",
                               np.abs(Lv - target)[keep].max() / np.abs(target).max(),
                               1e-4))
    res1 = check_spectrum(rnd, name, prof, 1, 1)
    if res1 is not None:
        rnd.add(ck.close(f"{name} translation mode w' at -1/2",
                         res1.lambdas[0], -0.5, 1e-3))
    eig = rnd.op(f"{name} first_eigenfunction", spectrum.first_eigenfunction,
                 prof, resolution=4000)
    if eig is not None:
        lam1, f, _ = eig
        rnd.add(ck.below(f"{name} first_eigenfunction lambda_1 < -1", lam1, -1.0),
                ck.close(f"{name} int f^2 rho = 1 (own quadrature)",
                         ck.weighted_l2_sq(3, f), 1.0, 1e-3))
        if res0 is not None:
            rnd.add(ck.at_most(f"{name} lambda_1 across resolutions (rel)",
                               abs(lam1 / res0.lambdas[0] - 1.0), 1e-4))
    if res0 is not None:
        rep = rnd.op(f"{name} stability", variations.stability_report, prof, res0)
        if rep is not None:
            rnd.add(ck.holds(f"{name} unstable", rep.verdict == "unstable"),
                    ck.below(f"{name} second variation along f", rep.second_variation_value, 0.0),
                    ck.at_most(f"{name} <f, Lam(w)> = 0",
                               abs(rep.orthogonality_scale), 1e-4))
    pert = rnd.op(f"{name} perturbed entropies",
                  flow.entropy_perturbation_experiment, prof, run_flow_for=None)
    if pert is not None:
        rnd.add(ck.at_most(f"{name} base entropy = energy (rel)",
                           abs(pert.base_entropy / energy - 1.0), ENTROPY_REL_TOL))
        for s, lam in pert.entropies.items():
            rnd.add(ck.below(f"{name} entropy(w {s:+g} f) < entropy(w)",
                             lam - pert.base_entropy, 0.0))


def recentering_paths(prof, rng) -> float:
    """Worst decrease of F along rescaling paths towards (0, -1).

    For a point (x0, t0) the path s = -2^j, j = 0..8, recentres at
    x0 sqrt(-1/t0) / sqrt(-(T + s)) and time -s/(T + s), T = 1 + 1/t0;
    F must be nondecreasing as s -> 0 (monotonicity formula).
    """
    worst = 0.0
    for _ in range(RECENTERING_PATHS):
        x0 = float(rng.uniform(0.1, 4.0))
        t0 = -float(np.exp(rng.uniform(-1.5, 1.5)))
        T = 1.0 + 1.0 / t0
        xs = x0 * math.sqrt(-1.0 / t0)
        vals = [functionals.f_functional(prof, xs / math.sqrt(-(T + s)), -s / (T + s))
                for s in (-(2.0 ** j) for j in range(9))]
        worst = max(worst, float(-np.diff(vals).min()))
    return worst


def check_variations(rnd: Round, name: str, prof, rng) -> None:
    """The first variation vanishes at a stationary profile.

    The closed-form second variation is not compared with the
    finite-difference oracle here: on seeded paths with small |y0| the
    oracle is off by up to 5e-3 (a fault of the program, see CHANGES.md),
    so that comparison would fail on some seeds only.
    """
    batch = seeded_variations(rng, VARIATION_BATCH)

    def first():
        return max(abs(variations.first_variation(prof, var))
                   / max(1.0, abs(var.h), abs(var.y0)) for var in batch)

    worst = rnd.op(f"{name} first variation", first)
    if worst is not None:
        rnd.add(ck.at_most(f"{name} first variation = 0", worst, 1e-6))


# ----------------------------------------------------------- rescaled_flow
# (label, n, p, level, in units of kappa unless unit, tau_max, options)
CONSTANT_RUNS = (
    ("0.8kappa p=3", 3, 3.0, 0.8, "kappa", 40.0, {}),
    ("0.95kappa p=3", 3, 3.0, 0.95, "kappa", 40.0, {}),
    ("0.8kappa n=5 p=3", 5, 3.0, 0.8, "kappa", 40.0, {}),
    ("0.8kappa p=7", 3, 7.0, 0.8, "kappa", 40.0, {}),
    ("1.02kappa p=3", 3, 3.0, 1.02, "kappa", 40.0, {}),
    ("1.6kappa p=3", 3, 3.0, 1.6, "kappa", 40.0, {}),
    ("unit p=3", 3, 3.0, 1.0, "unit", 10.0, {}),
    ("unit p=7", 3, 7.0, 1.0, "unit", 10.0, {}),
    ("1.02kappa p=3 1600 points", 3, 3.0, 1.02, "kappa", 40.0, {"n_points": 1600}),
    ("unit p=3 dirichlet", 3, 3.0, 1.0, "unit", 10.0, {"bc": flow.BC_DIRICHLET}),
)
PERTURBATION = 0.05


def setup_rescaled_flow() -> dict:
    prof = fixtures.reference_profile(3, 7.0)
    _, f_raw, _ = spectrum.first_eigenfunction(prof, resolution=4000)
    # unit sup norm, as in the program's perturbation experiment
    scale = float(np.abs(f_raw(np.linspace(0.0, 20.0, 4001))).max())
    return {"shoot_3_7": prof, "ground_state": f_raw, "scale": scale}


def run_constant(n, p, c, tau_max, **cfg):
    params = core.make_params(n, p)
    state = flow.init_flow(core.constant_profile(params, "+"),
                           flow.FlowConfig(**cfg))
    state.w = np.full_like(state.w, c)
    state.history = [(0.0, state.w.copy())]
    return flow.run(state, tau_max=tau_max)


def hold_kappa(tau_end: float = 5.0) -> float:
    params = core.make_params(3, 3.0)
    state = flow.init_flow(core.constant_profile(params, "+"),
                           flow.FlowConfig(conv_tol=0.0))
    while state.tau < tau_end:
        flow.step(state)
    return float(np.abs(state.w / params.kappa - 1.0).max())


def check_flow_common(rnd: Round, label: str, rep) -> None:
    e = rep.series["energy"]
    rnd.add(ck.at_most(f"{label} energy never rises",
                       float(np.diff(e).max()) if len(e) > 1 else 0.0, ENERGY_SLACK),
            ck.holds(f"{label} A > kappa ends in blow-up",
                     not rep.criterion_exceeded or rep.outcome == flow.OUTCOME_BLEWUP))


def check_constant_run(rnd: Round, label: str, rep, c: float, p: float) -> None:
    """Constant data against the scalar solution started at c."""
    check_flow_common(rnd, label, rep)
    # the centre of constant data follows the scalar solution; compare
    # v = |w|^{1-p} relative where v is large (decay), and in units of p-1
    # where v -> 0 (blow-up)
    taus, sup = rep.series["tau"], rep.series["sup_norm"]
    v_exact = np.array([ck.scalar_v(c, p, t) for t in taus])
    rnd.add(ck.at_most(f"{label} v = |w|^(1-p) vs exact",
                       (np.abs(sup ** (1.0 - p) - v_exact)
                        / np.maximum(v_exact, p - 1.0)).max(), 1e-9))
    if c > ck.kappa(p):
        tau1 = ck.blowup_time(c, p)
        rnd.add(ck.holds(f"{label} blows up", rep.outcome == flow.OUTCOME_BLEWUP),
                ck.at_most(f"{label} tau_1 vs ln((p-1)/((p-1)-c^(1-p))) (rel)",
                           abs(rep.tau1 / tau1 - 1.0) if rep.tau1 else math.inf, 1e-6))
    else:
        rnd.add(ck.holds(f"{label} does not blow up",
                         rep.outcome != flow.OUTCOME_BLEWUP))


def check_perturbed_run(rnd: Round, label: str, rep, amplitude: float) -> None:
    """w + s f blows up for s > 0 and does not for s < 0 (f the ground state)."""
    check_flow_common(rnd, label, rep)
    blew = rep.outcome == flow.OUTCOME_BLEWUP
    rnd.add(ck.holds(f"{label} {'blows up' if amplitude > 0 else 'does not blow up'}",
                     blew == (amplitude > 0)))


def rescaled_flow(fx: dict, rnd: Round, rng) -> None:
    for label, n, p, level, unit, tau_max, cfg in CONSTANT_RUNS:
        c = level if unit == "unit" else \
            level * ck.kappa(p) * (1.0 + LEVEL_JITTER * rng.uniform(-1.0, 1.0))
        rep = rnd.op(label, run_constant, n, p, c, tau_max, **cfg)
        if rep is not None:
            check_constant_run(rnd, label, rep, c, p)
    drift = rnd.op("kappa held over tau in [0, 5]", hold_kappa)
    if drift is not None:
        rnd.add(ck.at_most("kappa held: max |w/kappa - 1|", drift, 1e-10))
    prof, f_raw, scale = fx["shoot_3_7"], fx["ground_state"], fx["scale"]
    for s in (PERTURBATION, -PERTURBATION):
        label = f"w {s:+g} f dirichlet"
        rep = rnd.op(label, run_perturbed, prof, lambda r: f_raw(r) / scale, s)
        if rep is not None:
            check_perturbed_run(rnd, label, rep, s)


def run_perturbed(prof, direction, amplitude: float, tau_max: float = 20.0):
    state = flow.init_flow(prof, flow.FlowConfig(bc=flow.BC_DIRICHLET),
                           eigenfunction=direction, amplitude=amplitude)
    return flow.run(state, tau_max=tau_max)


WORKLOADS = {
    "shoot_branch": (setup_shoot_branch, shoot_branch),
    "certify_profiles": (setup_certify_profiles, certify_profiles),
    "rescaled_flow": (setup_rescaled_flow, rescaled_flow),
}


def fresh(fx: dict) -> dict:
    """Copies of the set-up fixtures with no lazily built interpolants, so
    that every round does the same work."""
    return copy.deepcopy(fx)
