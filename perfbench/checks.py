"""Output checks against quantities known apart from the program.

Every oracle here is computed from its closed form with the standard
library (or is a property the method must have); none reads a saved copy
of the program's output.  A check is a plain record, so the tests can hand
each one a wrong answer and see it fail.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    value: float
    limit: float

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return f"{status} {self.name}: {self.value!r} (limit {self.limit!r})"


def _num(x) -> float:
    x = float(x)
    return x if math.isfinite(x) else math.inf


def at_most(name: str, value, limit: float) -> Check:
    v = _num(value)
    return Check(name, v <= limit, v, limit)


def below(name: str, value, limit: float) -> Check:
    """Strict inequality value < limit."""
    v = _num(value)
    return Check(name, v < limit, v, limit)


def close(name: str, got, want: float, tol: float) -> Check:
    """|got - want| <= tol * max(1, |want|)."""
    err = abs(_num(got) - want) / max(1.0, abs(want))
    return Check(name, err <= tol, err, tol)


def holds(name: str, cond: bool) -> Check:
    return Check(name, bool(cond), float(bool(cond)), 1.0)


# ---------------------------------------------------------------- oracles
def kappa(p: float) -> float:
    return (1.0 / (p - 1.0)) ** (1.0 / (p - 1.0))


def kappa_energy(p: float) -> float:
    """E(kappa) = kappa^{p+1} (1/2 - 1/(p+1)); the Gaussian weight has mass 1."""
    return kappa(p) ** (p + 1.0) * (0.5 - 1.0 / (p + 1.0))


def constant_f(c: float, p: float, t0: float) -> float:
    """F_{x0,t0} of the constant c: the kernel has mass 1 for every x0."""
    a = -t0
    return (a ** (2.0 / (p - 1.0)) * c * c / (2.0 * (p - 1.0))
            - a ** ((p + 1.0) / (p - 1.0)) * abs(c) ** (p + 1.0) / (p + 1.0))


def singular_energy(n: int, p: float) -> float:
    """Energy of beta^{1/(p-1)} r^{-2/(p-1)}, from math.lgamma.

    With alpha = 2/(p-1), beta = alpha (n-2-alpha):
    E = 2^{-2-2 alpha} (1/2 - 1/(p+1)) beta^{(p+1)/(p-1)}
        Gamma((n-2)/2 - alpha) / Gamma(n/2).
    """
    alpha = 2.0 / (p - 1.0)
    beta = alpha * (n - 2.0 - alpha)
    log_e = ((-2.0 - 2.0 * alpha) * math.log(2.0)
             + (p + 1.0) / (p - 1.0) * math.log(beta)
             + math.lgamma((n - 2.0) / 2.0 - alpha) - math.lgamma(n / 2.0))
    return (0.5 - 1.0 / (p + 1.0)) * math.exp(log_e)


def ou_levels(ell: int, k: int) -> list[float]:
    """Lowest k eigenvalues of L at kappa in sector ell.

    At w = kappa the potential p kappa^{p-1} - 1/(p-1) equals 1, so
    L = (Ornstein-Uhlenbeck) + 1 and L f + lambda f = 0 gives
    lambda = (2j + ell)/2 - 1 for the degree-(2j + ell) Hermite modes.
    """
    return [(2 * j + ell) / 2.0 - 1.0 for j in range(k)]


def scalar_v(c: float, p: float, tau: float) -> float:
    """v = |w|^{1-p} of the spatially constant solution started at c."""
    return (p - 1.0) + (abs(c) ** (1.0 - p) - (p - 1.0)) * math.exp(tau)


def blowup_time(c: float, p: float) -> float:
    """tau_1 = ln((p-1)/((p-1) - c^{1-p})), the zero of scalar_v (c > kappa)."""
    return math.log((p - 1.0) / ((p - 1.0) - abs(c) ** (1.0 - p)))


def critical_exponent(n: int) -> float:
    return (n + 2.0) / (n - 2.0) if n > 2 else math.inf


# ------------------------------------------------------------- profile ODE
def rk4_transport(n: int, p: float, r0, w0, dw0, r1, substeps: int = 8):
    """(w, w') at r1 from (w, w') at r0 by classical RK4 on the profile ODE

        w'' = -((n-1)/r - r/2) w' + w/(p-1) - |w|^{p-1} w,

    elementwise over arrays of start and end radii.  Independent of the
    program's DOP853 integrator and Fornberg stencils.
    """
    def f(x, u, v):
        return v, -((n - 1.0) / x - 0.5 * x) * v + u / (p - 1.0) \
            - np.abs(u) ** (p - 1.0) * u

    x = np.array(r0, dtype=float)
    u = np.array(w0, dtype=float)
    v = np.array(dw0, dtype=float)
    h = (np.asarray(r1, dtype=float) - x) / substeps
    for _ in range(substeps):
        k1 = f(x, u, v)
        k2 = f(x + h / 2, u + h / 2 * k1[0], v + h / 2 * k1[1])
        k3 = f(x + h / 2, u + h / 2 * k2[0], v + h / 2 * k2[1])
        k4 = f(x + h, u + h * k3[0], v + h * k3[1])
        u = u + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v = v + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        x = x + h
    return u, v


def ode_step_defect(n: int, p: float, r, w, dw):
    """Per-unit-length mismatch between consecutive stored samples and the
    equation: RK4 from sample i to r_{i+1}, against sample i+1."""
    r, w, dw = (np.asarray(a, dtype=float) for a in (r, w, dw))
    u, v = rk4_transport(n, p, r[:-1], w[:-1], dw[:-1], r[1:])
    return np.maximum(np.abs(u - w[1:]), np.abs(v - dw[1:])) / (r[1:] - r[:-1])


def weighted_l2_sq(n: int, f, r_max: float = 20.0, count: int = 40001) -> float:
    """int f(|y|)^2 rho dy by the trapezoid rule in r (own quadrature)."""
    r = np.linspace(0.0, r_max, count)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    dens = (4.0 * math.pi) ** (-n / 2.0) * area * r ** (n - 1) * np.exp(-r * r / 4.0)
    return float(np.trapezoid(dens * np.asarray(f(r), dtype=float) ** 2, r))
