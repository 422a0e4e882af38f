"""Gaussian-weighted quadrature in radial and offset geometries.

All integrals are against the normalized Gaussian weight
rho = (4 pi)^{-n/2} exp(-|y|^2/4), reduced to one radial dimension:

    int f(|y|) rho dy = (1/Gamma(n/2)) int_0^inf f(2 sqrt(s)) s^{n/2-1} e^{-s} ds.

Two radial rule families are provided.  The Gauss rule (generalized
Gauss-Laguerre after s = r^2/4) is exact for even monomials and suited to
smooth integrands.  The composite rule trapezoids in log r, which resolves
both algebraic singularities at r = 0 (singular profiles) and sharp cores
of shooting profiles.

Offset integrals int f(|y|) G(y - x0, t0) dy against the recentering kernel
G(y, t) = (-4 pi t)^{-n/2} exp(|y|^2/(4t)) reduce the angular direction
exactly, in closed form for n = 1 and n = 3 and through a scaled modified
Bessel function otherwise, and integrate radially on Gauss-Legendre panels
around the kernel peak.

Every sum against a rule samples its integrands once on the nodes and goes
through one helper, _sums, which checks that each sample is finite.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ive, roots_genlaguerre

from .core import ParameterError, SelfsimError

# radial range of the composite rule
COMPOSITE_R_MIN = 1e-16
COMPOSITE_R_MAX = 60.0
# an offset rule off the origin: Gauss-Legendre panels, and nodes per panel
OFFSET_PANELS = 16
OFFSET_GL = 24


class QuadratureError(SelfsimError, ValueError):
    pass


class RecenteringError(QuadratureError, ParameterError):
    """A recentering point (x0_norm, t0) outside the offset kernel's domain:
    a bad request, so the command line exits 2 on it."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights for one reduced direction."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.nodes).all()
                and np.isfinite(self.weights).all()):
            raise QuadratureError("rule nodes and weights must be finite")
        if np.any(np.diff(self.nodes) <= 0):
            raise QuadratureError("rule nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise QuadratureError("rule weights must be strictly positive")


def _sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def radial_rule(n: int, N: int) -> QuadratureRule:
    """Gauss rule for int f(|y|) rho dy, exact for f = r^k with k even <= 4N-2."""
    if n < 1 or N < 2:
        raise QuadratureError("radial_rule needs n >= 1 and N >= 2")
    s, ws = roots_genlaguerre(N, n / 2.0 - 1.0)
    nodes = 2.0 * np.sqrt(s)
    weights = ws / math.gamma(n / 2.0)
    return QuadratureRule(nodes, weights)


def composite_rule(n: int, N: int = 1600) -> QuadratureRule:
    """Log-spaced trapezoid rule for int f(|y|) rho dy.

    Handles integrands f ~ r^g with g > -(n-1) near the origin (fractional
    powers included) and anything with structure at small radii.  Accuracy is
    limited by the truncated mass below COMPOSITE_R_MIN; for tail exponents
    g + n - 1 >= 0.5 this is below 1e-9 relative.
    """
    if n < 1 or N < 16:
        raise QuadratureError("composite_rule needs n >= 1 and N >= 16")
    x = np.linspace(math.log(COMPOSITE_R_MIN), math.log(COMPOSITE_R_MAX), N)
    h = x[1] - x[0]
    r = np.exp(x)
    try:
        coef = (4.0 * math.pi) ** (-n / 2.0) * _sphere_area(n)
    except OverflowError:
        coef = math.nan
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        w = coef * r**n * np.exp(-r * r / 4.0) * h
    if not np.isfinite(w).all():
        raise ParameterError(f"the composite rule's weights r^n e^(-r^2/4) "
                             f"leave the float range at n={n}")
    w[0] *= 0.5
    w[-1] *= 0.5
    # the trapezoid endpoint weights underflow harmlessly; keep them positive
    w = np.maximum(w, 1e-300)
    return QuadratureRule(r, w)


def _sums(nodes: np.ndarray, weights: np.ndarray, rows) -> np.ndarray:
    """Quadrature sums of each sampled integrand row against the weights.

    The one place a rho-weighted sum is taken: a non-finite sample is a
    QuadratureError naming its node.  A sum with a non-finite sample is
    itself non-finite, so only such a sum has its row searched."""
    out = np.empty(len(rows))
    for k, row in enumerate(rows):
        out[k] = np.dot(weights, row)
        if not math.isfinite(out[k]):
            bad = ~np.isfinite(row)
            if bad.any():
                i = int(np.argmax(bad))
                raise QuadratureError(f"integrand is not finite at node "
                                      f"r={float(nodes[i])!r} (index {i})")
    return out


def weighted_integral(rule: QuadratureRule, f: Callable) -> float:
    """Quadrature sum of a radial function against the rule's weight."""
    vals = np.broadcast_to(np.asarray(f(rule.nodes), dtype=float), rule.nodes.shape)
    return float(_sums(rule.nodes, rule.weights, (vals,))[0])


def _sphere_average(c: np.ndarray, n: int) -> np.ndarray:
    """S(c) = int_{-1}^{1} (1-u^2)^{(n-3)/2} e^{c (u-1)} du on the sphere of
    R^n.  In one dimension the "sphere" is the two points u = +-1, and in
    three the weight is flat, so S(c) = (1 - e^{-2c})/c.  Other dimensions
    use the scaled modified Bessel form."""
    if n == 1:
        return 1.0 + np.exp(-2.0 * c)
    if n == 3:
        # S(0) = 2 is the limit of the closed form at c = 0
        return np.divide(-np.expm1(-2.0 * c), c, out=np.full_like(c, 2.0),
                         where=c > 0.0)
    return _bessel_sphere_average(c, n)


def _bessel_sphere_average(c: np.ndarray, n: int) -> np.ndarray:
    """S(c) = sqrt(pi) Gamma((n-1)/2) (2/c)^nu ive(nu, c), nu = (n-2)/2, for
    n >= 2; below c = 1e-8 it is S(0) e^{-c} up to a relative c^2/(2n)."""
    nu = (n - 2.0) / 2.0
    pref = math.sqrt(math.pi) * math.gamma((n - 1) / 2.0)
    small = c <= 1e-8
    cb = np.where(small, 1.0, c)
    return np.where(small, pref / math.gamma(n / 2.0) * np.exp(-c),
                    pref * (2.0 / cb) ** nu * ive(nu, cb))


def _kernel_norm(b: float, t0: float, n: int) -> float:
    """(4 pi a)^{-n/2}, a = -t0, times the area of the unit sphere of R^{n-1}:
    the scalar factor of the offset weights at |x0| = b > 0, as a python
    float.  A point where it is not a positive finite float is a
    RecenteringError naming t0."""
    coef = _sphere_area(n - 1) if n > 1 else 1.0
    try:
        norm = (4.0 * math.pi * -t0) ** (-n / 2.0) * coef
    except OverflowError:
        norm = math.inf
    if not 0.0 < norm < math.inf:
        raise RecenteringError(
            f"the offset kernel's normalisation (4 pi (-t0))^(-n/2) is out of "
            f"floating-point range at t0={t0!r} (x0_norm={b!r}, n={n})")
    return norm


def _offset_weights(nodes: np.ndarray, gw: np.ndarray, b: np.ndarray,
                    a: np.ndarray, norm: np.ndarray, n: int) -> np.ndarray:
    """Weights of int f(|y|) G(y - x0, -a) dy on radial nodes, |x0| = b,
    one row per point: the kernel normalisation times r^{n-1} times the
    Gaussian in |y| - b times the angular average S(c) of _sphere_average,
    c = r b / (2a)."""
    return (norm * gw * nodes ** (n - 1)
            * np.exp(-(nodes - b) ** 2 / (4.0 * a))
            * _sphere_average(nodes * b / (2.0 * a), n))


def _offset_rules(x0s, t0s, n: int, n_panel: int = OFFSET_PANELS,
                  n_gl: int = OFFSET_GL, rule: QuadratureRule | None = None):
    """Nodes and weights of int f(|y|) G(y - x0, t0) dy at many recentering
    points of one kind, all at the origin or all off it: (k, m) arrays whose
    row k is point k's rule.

    The kernel concentrates at |y| ~ x0_norm with width sqrt(-t0); off the
    origin a row is n_panel Gauss-Legendre panels of n_gl nodes on that
    window, and at x0_norm = 0 it is the radial rule (default: the composite
    rule) at radius scaled by sqrt(-t0), all rows sharing its weights.  Each
    row equals a one-point call's bit for bit.  Every point needs a finite
    x0_norm >= 0 and a finite t0 < 0, or it is a RecenteringError naming the
    value."""
    xs = np.asarray(x0s, dtype=float).tolist()
    ts = np.asarray(t0s, dtype=float).tolist()
    for x, t in zip(xs, ts):
        if not 0.0 <= x < math.inf:
            raise RecenteringError(f"a recentering point needs a finite "
                                   f"x0_norm >= 0, got {x!r}")
        if not -math.inf < t < 0.0:
            raise RecenteringError(f"a recentering point needs a finite "
                                   f"t0 < 0, got {t!r}")
    if not any(xs):
        rule = rule if rule is not None else default_composite_rule(n)
        return (np.sqrt(-np.array(ts))[:, None] * rule.nodes,
                np.broadcast_to(rule.weights, (len(ts), len(rule.weights))))
    if not all(xs):
        raise QuadratureError("an offset rule batch takes points all at the "
                              "origin or all off it")
    b, a, norm = np.array([(x, -t, _kernel_norm(x, t, n))
                           for x, t in zip(xs, ts)]).T[:, :, None]
    lo, hi = np.maximum(b - 16.0 * np.sqrt(a), 0.0), b + 16.0 * np.sqrt(a)
    # np.linspace(lo, hi, n_panel + 1) per point, in its operation order
    # (calling np.linspace made these rule builds 27 % slower)
    edges = np.arange(n_panel + 1.0) * ((hi - lo) / n_panel) + lo
    edges[:, -1:] = hi
    nodes, gw = _gl_panels(edges, n_gl)
    return nodes, _offset_weights(nodes, gw, b, a, norm, n)


def offset_integral_many(f: Callable, x0_norm: float, t0: float,
                         n: int, rule_r: QuadratureRule | None = None,
                         n_panel: int = OFFSET_PANELS,
                         n_gl: int = OFFSET_GL) -> np.ndarray:
    """Batched int f_k(|y|) G(y-x0, t0) dy for radial integrands f_k.

    f(r) returns the rows f_k(r), so integrands that share work (one
    profile evaluation) are evaluated once per node array.  The rule is
    _offset_rules' for the one point; x0_norm = 0 integrates on rule_r
    (default: the composite rule) with rescaled radius.
    """
    nodes, weights = _offset_rules([x0_norm], [t0], n, n_panel, n_gl, rule_r)
    return _sums(nodes[0], weights[0], f(nodes[0]))


@functools.lru_cache(maxsize=None)
def default_composite_rule(n: int) -> QuadratureRule:
    """composite_rule(n) with read-only arrays, built once per n and shared
    by every caller that takes the default rule."""
    rule = composite_rule(n)
    rule.nodes.flags.writeable = rule.weights.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n_gl: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once."""
    gx, gw = np.polynomial.legendre.leggauss(n_gl)
    gx.flags.writeable = gw.flags.writeable = False
    return gx, gw


def _gl_panels(edges: np.ndarray, n_gl: int):
    """Gauss-Legendre nodes and weights on the panels between consecutive
    edges along the last axis, flattened along it."""
    gx, gw = _gauss_legendre(n_gl)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = edges.shape[:-1] + (-1,)
    nodes = (mid[..., None] + half[..., None] * gx).reshape(shape)
    weights = (half[..., None] * gw).reshape(shape)
    return nodes, weights

