"""One quadrature rule for every Gaussian-weighted integral of a profile.

Every integral is against the recentering kernel
G(y, t) = (-4 pi t)^{-n/2} exp(|y|^2/(4t)) about a point x0:

    int f(|y|) G(y - x0, t0) dy,

which at (x0, t0) = (0, -1) is the normalized Gaussian weight
rho = (4 pi)^{-n/2} exp(-|y|^2/4), so the energy, the identities and the
variations use the same rule as the recentered functional F.  The angular
direction is reduced exactly, in closed form for n = 1 and n = 3 and
through a scaled modified Bessel function otherwise (S(0) in closed form, so
x0 = 0 needs no case of its own).  The radial direction is integrated on
Gauss-Legendre panels: WINDOW_PANELS uniform panels on the kernel's window
[max(b - h, 0), b + h], b = |x0|, a = -t0 and h = (WINDOW + sqrt(2(n-1)))
sqrt(a), which reaches WINDOW sqrt(a) past the peak of the weight
r^{n-1} e^{-r^2/(4a)}; AXIS_PANELS geometric panels from AXIS_R_MIN to
AXIS_R_MAX toward the axis, where profiles have their core and singular
profiles their power law; and an edge at the profile's last knot r_cut,
where a sampled profile meets its tail.  Edges outside the window are
clipped to it, which leaves zero-width panels of zero weight.  A row's
first panel, [0, AXIS_R_MIN] whenever the window reaches the axis, has its
nodes graded toward its lower edge, r = AXIS_R_MIN s^AXIS_GRADING: that
turns a singular profile's r^g dr, g > -1, into a multiple of the smoother
s^{AXIS_GRADING (g+1) - 1} ds, and keeps every node off r = 0.  Every row
has the same number of nodes, so the rules of many points are one array,
and each rule's weights must sum to the kernel's unit mass.

Every sum against a rule samples its integrands once on the nodes and goes
through one helper, _sums, which checks that each sample is finite.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import exprel, ive

from .core import ParameterError, SelfsimError

# the kernel's window reaches WINDOW sqrt(-t0) past the weight's peak, in
# WINDOW_PANELS uniform panels
WINDOW = 16.0
WINDOW_PANELS = 12
# geometric panels from AXIS_R_MIN to AXIS_R_MAX, below them one panel to
# the axis; the last is about as wide as a window panel at t0 = -1
AXIS_PANELS = 10
AXIS_R_MIN = 1e-6
AXIS_R_MAX = 2.0
# the first panel's nodes sit at r = e0 + (e1 - e0) s^AXIS_GRADING for
# Gauss-Legendre s; its lowest node is AXIS_R_MIN * 1e-19 at the axis
AXIS_GRADING = 8
# Gauss-Legendre nodes per panel
PANEL_NODES = 18
# largest departure of a rule's total weight from the kernel's unit mass
MASS_TOL = 1e-10
# panels of every rule: the window's, the axis panels, the panel below them
# and the one that the edge at r_cut splits
RULE_PANELS = WINDOW_PANELS + AXIS_PANELS + 2
RULE_NODES = RULE_PANELS * PANEL_NODES

_AXIS_EDGES = np.geomspace(AXIS_R_MIN, AXIS_R_MAX, AXIS_PANELS + 1)
_WINDOW_FRACTIONS = np.linspace(0.0, 1.0, WINDOW_PANELS + 1)


class QuadratureError(SelfsimError, ValueError):
    pass


class RecenteringError(QuadratureError, ParameterError):
    """A recentering point (x0_norm, t0) outside the offset kernel's domain:
    a bad request, so the command line exits 2 on it."""


def _sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _sums(nodes: np.ndarray, weights: np.ndarray, rows) -> np.ndarray:
    """Quadrature sums of sampled integrands against the weights: rows
    stacks integrands shaped like the weights, (m,) for one point or (k, m)
    for k, and each sum runs along the last axis, so the result has shape
    (len(rows),) + weights.shape[:-1] and a point's sums do not depend on
    its batch.

    The one place a weighted sum is taken: a non-finite sample is a
    QuadratureError naming its node.  A sum with a non-finite sample is
    itself non-finite, so only such a sum has its row searched (an infinite
    sample makes a nan sum where its weight is 0, at coinciding edges)."""
    rows = np.asarray(rows, dtype=float)
    with np.errstate(invalid="ignore"):
        out = (rows * weights).sum(axis=-1)
    if not np.isfinite(out).all():
        bad = ~np.isfinite(rows) & ~np.isfinite(out)[..., None]
        if bad.any():
            at = np.unravel_index(np.argmax(bad), bad.shape)
            node = np.broadcast_to(nodes, rows.shape)[at]
            raise QuadratureError(f"integrand is not finite at node "
                                  f"r={float(node)!r} (index {at[-1]})")
    return out


def _sphere_average(c: np.ndarray, n: int) -> np.ndarray:
    """S(c) = int_{-1}^{1} (1-u^2)^{(n-3)/2} e^{c (u-1)} du on the sphere of
    R^n.  In one dimension the "sphere" is the two points u = +-1, and in
    three the weight is flat, so S(c) = (1 - e^{-2c})/c.  Other dimensions
    use the scaled modified Bessel form."""
    if n == 1:
        return 1.0 + np.exp(-2.0 * c)
    if n == 3:
        # exprel(x) = (e^x - 1)/x, 1 at x = 0: S(0) = 2 needs no case
        return 2.0 * exprel(-2.0 * c)
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
    the scalar factor of the weights at |x0| = b, as a python float.  A
    point where it is not a positive finite float is a RecenteringError
    naming t0."""
    try:
        coef = _sphere_area(n - 1) if n > 1 else 1.0
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
    d = nodes - b
    return (norm * gw * nodes ** (n - 1) * np.exp(d * d * (-0.25 / a))
            * _sphere_average(nodes * (0.5 * b / a), n))


def _rules(x0s, t0s, n: int, r_cut: float = math.inf, shared: bool = False):
    """Nodes and weights of int f(|y|) G(y - x0, t0) dy at each recentering
    point (x0s[k], t0s[k]): (k, m) arrays whose row k is point k's rule, the
    panels of the module docstring with an edge at r_cut (the profile's
    last knot).  Each row equals a one-point call's bit for bit.  With
    shared, the nodes are one row, on the union of the points' windows, that
    every point's weights use, so differences of the integrals keep no
    node-placement error.

    Every point needs a finite x0_norm >= 0 and a finite t0 < 0, or it is a
    RecenteringError naming the value.  A rule whose weights miss the
    kernel's unit mass by more than MASS_TOL (r^{n-1} beyond the float range,
    or shared points too far apart for one node set) is a ParameterError
    naming n."""
    xs = np.asarray(x0s, dtype=float).ravel().tolist()
    ts = np.asarray(t0s, dtype=float).ravel().tolist()
    for x, t in zip(xs, ts):
        if not 0.0 <= x < math.inf:
            raise RecenteringError(f"a recentering point needs a finite "
                                   f"x0_norm >= 0, got {x!r}")
        if not -math.inf < t < 0.0:
            raise RecenteringError(f"a recentering point needs a finite "
                                   f"t0 < 0, got {t!r}")
    b, a, norm = np.array([(x, -t, _kernel_norm(x, t, n))
                           for x, t in zip(xs, ts)]).T[:, :, None]
    half = (WINDOW + math.sqrt(2.0 * (n - 1))) * np.sqrt(a)
    lo, hi = np.maximum(b - half, 0.0), b + half
    if shared:
        lo, hi = lo.min(keepdims=True), hi.max(keepdims=True)
    # minimum/maximum, not np.clip and np.append: on these few edges their
    # per-call overhead shows in every one-point F
    edges = np.sort(np.concatenate(
        [lo + (hi - lo) * _WINDOW_FRACTIONS,
         np.minimum(np.maximum(_AXIS_EDGES, lo), hi),
         np.minimum(np.maximum(r_cut, lo), hi)], axis=-1), axis=-1)
    nodes, gw = _gl_panels(edges, PANEL_NODES)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        weights = _offset_weights(nodes, gw, b, a, norm, n)
    miss = np.abs(weights.sum(axis=-1) - 1.0).max()
    if not miss <= MASS_TOL:
        raise ParameterError(f"the quadrature weights miss the kernel's unit "
                             f"mass by {miss:.3g} at n={n}")
    return nodes, weights


@functools.lru_cache(maxsize=64)
def _rho_rule(n: int, r_cut: float = math.inf) -> tuple:
    """Read-only nodes and weights of int f(|y|) rho dy for a profile of
    dimension n and last knot r_cut: the rule at (x0, t0) = (0, -1), where
    the recentering kernel is rho, built once and shared by the energy, the
    identities and the variations."""
    (nodes,), (weights,) = _rules([0.0], [-1.0], n, r_cut)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _panel_fractions(panels: int, n_gl: int):
    """Read-only (panels, n_gl) Gauss-Legendre nodes and weights on [0, 1],
    built once, the first row graded toward 0 by s -> s^AXIS_GRADING."""
    gx, gw = np.polynomial.legendre.leggauss(n_gl)
    gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
    fx, fw = np.tile(gx, (panels, 1)), np.tile(gw, (panels, 1))
    k = AXIS_GRADING
    fx[0], fw[0] = gx ** k, k * gx ** (k - 1) * gw
    fx.flags.writeable = fw.flags.writeable = False
    return fx, fw


def _gl_panels(edges: np.ndarray, n_gl: int):
    """Gauss-Legendre nodes and weights on the panels between consecutive
    edges along the last axis, flattened along it, the first panel's graded
    toward its lower edge as the module docstring says."""
    fx, fw = _panel_fractions(edges.shape[-1] - 1, n_gl)
    width = (edges[..., 1:] - edges[..., :-1])[..., None]
    shape = edges.shape[:-1] + (-1,)
    return ((edges[..., :-1, None] + width * fx).reshape(shape),
            (width * fw).reshape(shape))
