"""Closed forms for the singular-solution energy, the energy-gap inequality,
and their log-convexity diagnostics.

With alpha = 2/(p-1), beta = alpha (n - 2 - alpha) and the singular profile
w = beta^{1/(p-1)} r^{-alpha}, the weighted energy reduces to a Gamma-ratio:

    E_sing = 2^{-2-2 alpha} (1/2 - 1/(p+1)) beta^{(p+1)/(p-1)}
             Gamma((n-2)/2 - alpha) / Gamma(n/2),

finite when (n-2)/2 > alpha.  Dividing by the constant solution's energy
yields the normalized gap statement

    ((n-2)/2 - alpha/2 ... ) -> f(x) = (x - 1 - alpha/2)^{1+alpha}
                                Gamma(x-1-alpha)/Gamma(x) > 1,   x = n/2,

whose logarithm phi is convex, decreasing and positive on x > 1 within the
admissible band 0 < alpha < (n-2)/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.special import digamma, polygamma

from .core import ParameterError, Parameters, make_params, sobolev_critical

# the exponent grid starts this fraction above the critical exponent
P_GRID_MARGIN = 0.15


def _gamma_argument(params: Parameters) -> float:
    """(n - 2 - 4/(p-1)) / 2; must be positive for a finite energy."""
    return 0.5 * (params.n - 2.0 - 4.0 / (params.p - 1.0))


def singular_energy(params: Parameters) -> float:
    """Weighted energy of the homogeneous singular solution, in closed form."""
    g = _gamma_argument(params)
    if g <= 0.0:
        raise ParameterError(
            f"singular energy diverges: Gamma argument {g:.4g} <= 0 "
            f"for n={params.n}, p={params.p}")
    p = params.p
    alpha = 2.0 / (p - 1.0)
    log_val = ((-2.0 - 2.0 * alpha) * math.log(2.0)
               + (p + 1.0) / (p - 1.0) * math.log(params.beta)
               + math.lgamma(g) - math.lgamma(params.n / 2.0))
    return (0.5 - 1.0 / (p + 1.0)) * math.exp(log_val)


def kappa_energy(params: Parameters) -> float:
    """Weighted energy of the positive constant solution."""
    p = params.p
    return (0.5 - 1.0 / (p + 1.0)) * params.kappa ** (p + 1.0)


def gap_inequality(params: Parameters) -> float:
    """LHS - 1 of the normalized singular-vs-constant energy inequality.

    The LHS equals E_singular / E(kappa); positivity is the energy-gap claim
    for homogeneous solutions.
    """
    g = _gamma_argument(params)
    if g <= 0.0:
        raise ParameterError(
            f"Gamma argument {g:.4g} <= 0 for n={params.n}, p={params.p}")
    p = params.p
    base = 0.5 * (params.n - 2.0) - 1.0 / (p - 1.0)
    log_lhs = ((p + 1.0) / (p - 1.0) * math.log(base)
               + math.lgamma(g) - math.lgamma(params.n / 2.0))
    return math.exp(log_lhs) - 1.0


def phi_diagnostics(x: float, alpha: float):
    """(phi, phi', phi'') of the log-Gamma-ratio profile.

    phi(x) = ln Gamma(x-1-alpha) - ln Gamma(x) + (1+alpha) ln(x-1-alpha/2),
    defined for x > 1 + alpha with alpha in (0, x - 1).
    """
    x = float(x)
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not x > 1.0 + alpha:
        raise ParameterError(f"need x > 1 + alpha, got x={x}, alpha={alpha}")
    shift = x - 1.0 - alpha
    half = x - 1.0 - 0.5 * alpha
    phi = math.lgamma(shift) - math.lgamma(x) + (1.0 + alpha) * math.log(half)
    dphi = digamma(shift) - digamma(x) + (1.0 + alpha) / half
    d2phi = polygamma(1, shift) - polygamma(1, x) - (1.0 + alpha) / half**2
    return phi, dphi, d2phi


def sphere_constant(params: Parameters):
    """Constant branch of the angular reduction, with the uniqueness flag.

    Returns (Phi, in_uniqueness_range): Phi = beta^{1/(p-1)} and the range is
    n <= 3 (any p) or p < (n+1)/(n-3).
    """
    if params.beta <= 0.0:
        raise ParameterError(f"beta={params.beta:.4g} <= 0 "
                             f"for n={params.n}, p={params.p}")
    phi_const = params.beta ** (1.0 / (params.p - 1.0))
    if params.n <= 3:
        in_range = True
    else:
        in_range = params.p < (params.n + 1.0) / (params.n - 3.0)
    return phi_const, in_range


@dataclass
class GapScanRow:
    n: int
    p: float
    beta: float
    e_singular: float
    e_kappa: float
    ratio: float
    inequality_lhs: float
    supercritical: bool
    gamma_argument_positive: bool
    in_uniqueness_range: bool
    flagged: str = ""


def supercritical_p_grid(n: int, count: int) -> np.ndarray:
    """Geometric grid of supercritical exponents with a positive Gamma margin.

    Exponents approach neither the critical value (where the Gamma argument
    vanishes and the singular energy diverges) nor infinity; the lower end
    starts at (1 + P_GRID_MARGIN) times the critical exponent.
    """
    if n < 3:
        raise ParameterError(f"supercritical exponents need n >= 3, got {n}")
    if count < 1:
        raise ParameterError(f"exponent count must be at least 1, got {count}")
    p_crit = sobolev_critical(n)
    lo = p_crit * (1.0 + P_GRID_MARGIN)
    return np.geomspace(lo, max(4.0 * p_crit, 30.0), count)


def gap_scan(n_values: Iterable[int], p_count: int = 40,
             p_grid: Optional[Sequence[float]] = None) -> list[GapScanRow]:
    """Rows of closed-form energies over an (n, p) grid; invalid rows flagged."""
    rows = []
    for n in n_values:
        ps = np.asarray(p_grid, dtype=float) if p_grid is not None \
            else supercritical_p_grid(n, p_count)
        for p in ps:
            params = make_params(int(n), float(p))
            g_pos = _gamma_argument(params) > 0.0
            e_kap = kappa_energy(params)
            e_sing = ratio = lhs = math.inf
            flagged = "gamma argument <= 0: energy diverges"
            if g_pos:
                e_sing = singular_energy(params)
                ratio, lhs = e_sing / e_kap, gap_inequality(params) + 1.0
                flagged = "" if params.is_supercritical \
                    else "outside the supercritical hypothesis; data exploratory"
            rows.append(GapScanRow(
                n=int(n), p=float(p), beta=params.beta, e_singular=e_sing,
                e_kappa=e_kap, ratio=ratio, inequality_lhs=lhs,
                supercritical=params.is_supercritical,
                gamma_argument_positive=g_pos,
                in_uniqueness_range=params.beta > 0 and sphere_constant(params)[1],
                flagged=flagged))
    return rows

