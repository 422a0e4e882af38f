"""First and second variation of the recentering functional, the scaling
field, and stability diagnostics.

Variations move three knobs at once: the profile (w + s phi with radial
phi), the recentering point x(s) with x'(0) = y0, and the recentering time
t(s) = -1 + s h + s^2 h2 / 2 with t'(0) = h.  At stationary profiles the
second variation collapses to the closed form

    Q(phi,phi) + h <Lam(w), phi> - <phi, dw.y0> - 1/2 int (dw.y0)^2 rho
    - h^2/4 int Lam(w)^2 rho,

with Q the linearized quadratic form and Lam(w) = 2w/(p-1) + r w' the
scaling field; the y0 pairings reduce through the first angular moment
(<(e.y)^2> = 1/n) since radial phi carries no l=1 component.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import ParameterError, RadialProfile
from .quadrature import _rho_rule, _rules, _sums
from .functionals import _core_terms, _f_value
from .shooting import ode_residual

# largest equation residual of a profile the closed form accepts as stationary
STATIONARY_RESIDUAL = 1e-6
# lambda_1 above -1 - MARGINAL_TOL gets the "marginal" verdict
MARGINAL_TOL = 1e-6


@dataclass
class Variation:
    """Radial test function with derivative, plus path data (h, y0, ...)."""

    phi: Callable = lambda r: np.zeros_like(r)
    dphi: Callable = lambda r: np.zeros_like(r)
    h: float = 0.0
    y0: float = 0.0
    h2: float = 0.0
    y02: float = 0.0


def gaussian_bump(c: float, r0: float, sigma: float) -> Variation:
    """Smooth localized test function c exp(-(r-r0)^2/sigma^2)."""
    def phi(r):
        return c * np.exp(-((r - r0) / sigma) ** 2)

    def dphi(r):
        return -2.0 * (r - r0) / sigma**2 * phi(r)

    return Variation(phi=phi, dphi=dphi)


def random_variations(count: int, seed: int = 0) -> list:
    """Seeded batch of bump variations with randomized path data."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0])
        r0 = rng.uniform(0.0, 4.0)
        sigma = rng.uniform(0.5, 2.0)
        v = gaussian_bump(c, r0, sigma)
        v.h = rng.uniform(-1.0, 1.0)
        v.y0 = rng.uniform(-1.5, 1.5)
        v.h2 = rng.uniform(-0.5, 0.5)
        v.y02 = rng.uniform(-0.5, 0.5)
        out.append(v)
    return out


def lambda_field(profile: RadialProfile):
    """Scaling field 2w/(p-1) + r w' on the profile grid, with a sign flag."""
    lam = profile.params.scaling_field(profile.grid, profile.values,
                                       profile.derivs)
    scale = np.abs(lam).max()
    tol = 1e-9 * max(scale, np.abs(profile.values).max())
    changes_sign = bool(np.any(lam > tol) and np.any(lam < -tol))
    return lam, changes_sign


def _samples(profile: RadialProfile, var: Variation) -> tuple:
    """The nodes and weights of the profile's rho rule (F's rule at
    (0, -1)), then w, w', phi and phi' on its nodes, w and w' from one
    sample."""
    r, weights = _rho_rule(profile.params.n, profile.grid[-1])
    return (r, weights, *profile.sample(r), var.phi(r), var.dphi(r))


def first_variation(profile: RadialProfile, var: Variation) -> float:
    """d/ds F at s=0 through the canonical point (x0=0, t0=-1), term by term."""
    params = profile.params
    n, p = params.n, params.p
    h = var.h
    r, weights, w, dw, phi, dphi = _samples(profile, var)
    (grad2, mass, pot, y2grad2, y2mass, y2pot,
     cross_grad, cross_pot, cross_mass) = _sums(
        r, weights, _core_terms(r, w, dw, p, moments=True)
        + (dw * dphi, np.abs(w) ** (p - 1.0) * w * phi, w * phi)).tolist()
    # moment kernel nh/2 + (y.y0)/2 - h|y|^2/4; odd part drops on radial pairs
    mom = lambda total, moment: h * (0.5 * n * total - 0.25 * moment)
    out = (-(p + 1.0) / (2.0 * (p - 1.0)) * h * grad2
           + h / (p - 1.0) * pot
           - h / (p - 1.0) ** 2 * mass
           + cross_grad - cross_pot + cross_mass / (p - 1.0)
           + 0.5 * mom(grad2, y2grad2)
           - mom(pot, y2pot) / (p + 1.0)
           + 0.5 * mom(mass, y2mass) / (p - 1.0))
    return float(out)


def second_variation(profile: RadialProfile, var: Variation) -> float:
    """Closed-form second variation, valid only at stationary profiles."""
    return _second_variation(profile, var)[0]


def _second_variation(profile: RadialProfile, var: Variation) -> tuple:
    """(second_variation, <Lam(w), phi>): the pairing is one of its sums."""
    res = profile.meta.get("ode_residual")
    if res is None:
        res = ode_residual(profile)
        profile.meta["ode_residual"] = res
    if not profile.is_solution or res > STATIONARY_RESIDUAL:
        raise ParameterError(
            f"second_variation needs a stationary profile "
            f"(residual {res:.2e}, solution status {profile.is_solution})")
    params = profile.params
    n, p = params.n, params.p
    r, weights, w, dw, phi, dphi = _samples(profile, var)
    lam = params.scaling_field(r, w, dw)
    dphi2, phi2, pot_phi2, cross_scale, lam2, grad2 = _sums(
        r, weights,
        (dphi ** 2, phi ** 2, np.abs(w) ** (p - 1.0) * phi ** 2, lam * phi,
         lam ** 2, dw ** 2)).tolist()
    q_form = dphi2 + phi2 / (p - 1.0) - p * pot_phi2
    # <phi, dw . y0> vanishes for radial phi; the square averages (e.y)^2 = 1/n
    out = (q_form + var.h * cross_scale
           - 0.5 * var.y0 ** 2 / n * grad2
           - 0.25 * var.h ** 2 * lam2)
    return float(out), cross_scale


def general_second_variation_fd(profile: RadialProfile, var: Variation,
                                delta: float = 1e-3) -> float:
    """Centered second difference of s -> F_{x(s),t(s)}(w + s phi).

    Path: |x(s)| = |s y0 + s^2 y02 / 2|, t(s) = -1 + s h + s^2 h2 / 2.
    Serves as the model-free oracle for the closed-form second variation.
    All three evaluations share one node set, the quadrature rule's on the
    window that covers the three points, so that quadrature error cancels in
    the difference instead of being amplified by 1/delta^2.
    """
    if not 1e-5 <= delta <= 1e-2:
        raise ParameterError("delta outside the supported window [1e-5, 1e-2]")
    params = profile.params
    n, p = params.n, params.p
    if n < 2:
        raise ParameterError("offset variations need n >= 2")

    def b_of(s):
        return abs(s * var.y0 + 0.5 * s * s * var.y02)

    def t_of(s):
        return -1.0 + s * var.h + 0.5 * s * s * var.h2

    svals = np.array([-delta, 0.0, delta])
    ts = [t_of(s) for s in svals]
    (r,), weights = _rules([b_of(s) for s in svals], ts, n, profile.grid[-1],
                           shared=True)
    wv, dwv = profile.sample(r)
    W = wv + svals[:, None] * var.phi(r)
    DW = dwv + svals[:, None] * var.dphi(r)
    grad2, pot, mass = _sums(r, weights, (DW**2, np.abs(W) ** (p + 1.0), W**2))
    F = [_f_value(p, -t, g, m, u) for t, g, m, u in zip(ts, grad2, mass, pot)]
    return (F[2] - 2.0 * F[1] + F[0]) / delta**2


@dataclass
class StabilityReport:
    verdict: str
    lambda_1: float
    margin: float
    second_variation_value: Optional[float] = None
    orthogonality_scale: Optional[float] = None
    details: dict = field(default_factory=dict)


def stability_report(profile: RadialProfile, eig0) -> StabilityReport:
    """Stability verdict from the radial ground state.

    Nonconstant profiles with lambda_1 < -1 (beyond MARGINAL_TOL) get the
    destabilizing direction f with the orthogonality certificate
    <f, Lam(w)> = 0 and the resulting negative second variation (f is
    radial, so it is orthogonal to the l = 1 translation mode w' by
    symmetry).  The positive constant is stable modulo translations after
    removing the mean mode with the optimal time reparametrization; zero is
    stable outright.
    """
    params = profile.params
    p = params.p
    lam1 = float(eig0.lambdas[0])

    if profile.is_constant and profile.constant_value == 0.0:
        return StabilityReport(verdict="stable", lambda_1=lam1,
                               margin=lam1 - 0.0,
                               details={"reason": "quadratic form bounded below "
                                                  "by 1/(p-1) > 0"})
    if profile.is_constant:
        # mean-adjusted test functions: optimal h cancels the mean mode and
        # the remaining quadratic form is nonnegative on the orthogonal part
        kap = params.kappa
        details = {"optimal_h_per_unit_mean": (p - 1.0) / kap,
                   "residual_form_lower_bound": 0.0}
        return StabilityReport(verdict="stable_modulo_translations",
                               lambda_1=lam1, margin=abs(lam1 + 1.0),
                               details=details)

    if lam1 > -1.0 - MARGINAL_TOL:
        return StabilityReport(verdict="marginal", lambda_1=lam1,
                               margin=lam1 + 1.0)

    f = eig0.funcs[0]
    var = Variation(phi=f, dphi=f.derivative(), h=0.3, y0=0.7)
    # the certificate <f, Lam(w)> is the second variation's cross term
    sv, ortho_scale = _second_variation(profile, var)
    return StabilityReport(verdict="unstable", lambda_1=lam1,
                           margin=-(lam1 + 1.0),
                           second_variation_value=sv,
                           orthogonality_scale=ortho_scale,
                           details={"direction": "radial ground state"})
