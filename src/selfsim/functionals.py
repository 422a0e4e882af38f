"""Weighted energy, recentering functional, entropy, integral identities and
the parabolic density of radial profiles.

For a profile w the weighted energy is

    E(w) = 1/2 int |grad w|^2 rho + 1/(2(p-1)) int w^2 rho
           - 1/(p+1) int |w|^{p+1} rho,

and the recentering functional F_{x0,t0} evaluates the same three terms
against the kernel G(y-x0, t0) with prefactors (-t0)^{(p+1)/(p-1)} on the
gradient/potential terms and (-t0)^{2/(p-1)} on the mass term.  The entropy
is the supremum of F over recentering parameters; for stationary profiles it
is attained at x0 = 0, t0 = -1 and equals E.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import KIND_SINGULAR, ParameterError, RadialProfile
from .quadrature import RULE_NODES, _rho_rule, _rules, _sums

# relative disagreement of the two energy forms flagged on a solution
CONSISTENCY_TOL = 1e-4
# entropy search: coarse grid over x0_norm in [0, X0_MAX] and log(-t0) in
# [-LOG_A_MAX, LOG_A_MAX], then shrinking 3x3 stencils in the one-cell box
# around its best until both half-widths are within REFINE_TOL, ties within
# TIE_TOL (relative) broken toward the canonical point, ring probes RING_EPS
# away from the maximizer
X0_MAX = 10.0
LOG_A_MAX = 6.0
COARSE_POINTS = 13
REFINE_TOL = 1e-5
TIE_TOL = 1e-10
RING_EPS = 0.5
# tolerated increase along the density's rescaling path
MONOTONE_SLACK = 1e-8
# most quadrature nodes one batched F pass samples the profile on: bounds its
# working arrays, and so the peak memory, whatever the number of points
_CHUNK_NODES = 8192


@dataclass
class FunctionalReport:
    energy: float
    grad_term: float
    mass_term: float
    potential_term: float
    energy_shortcut: float              # (1/2 - 1/(p+1)) int |w|^{p+1} rho
    pohozaev_residual: float = math.nan
    mass_balance_residual: float = math.nan   # multiply by w rho, integrate
    moment_balance_residual: float = math.nan  # |y|^2-weighted balance
    scale: float = math.nan
    flags: list = field(default_factory=list)


@dataclass
class EntropyResult:
    lam: float
    x0_norm: float
    t0: float
    trace: list
    ring_margin_t: float = math.nan
    ring_margin_x: float = math.nan
    flags: list = field(default_factory=list)


def _core_terms(r: np.ndarray, w: np.ndarray, dw: np.ndarray, p: float,
                moments: bool = False) -> tuple:
    """|w'|^2, w^2 and |w|^{p+1} from samples of w and w' on the nodes r,
    then, with moments, the same times r^2."""
    terms = (dw ** 2, w ** 2, np.abs(w) ** (p + 1.0))
    if moments:
        terms += tuple(r**2 * v for v in terms)
    return terms


def _core_integrals(profile: RadialProfile, moments: bool = False) -> tuple:
    """rho-weighted integrals of _core_terms on _rho_rule, F's rule at
    (0, -1); one sample of w and w' serves all."""
    r, weights = _rho_rule(profile.params.n, profile.grid[-1])
    terms = _core_terms(r, *profile.sample(r), profile.params.p, moments)
    return tuple(_sums(r, weights, terms).tolist())


def _f_value(p: float, a: float, grad2: float, mass: float,
             pot: float) -> float:
    """F from its three weighted integrals at a = -t0: the gradient and
    potential terms carry a^{(p+1)/(p-1)}, the mass term a^{2/(p-1)}.  At
    a = 1 this is the energy."""
    s_main = a ** ((p + 1.0) / (p - 1.0))
    s_mass = a ** (2.0 / (p - 1.0))
    return 0.5 * s_main * grad2 - s_main * pot / (p + 1.0) \
        + s_mass * mass / (2.0 * (p - 1.0))


def _energy_fields(p: float, grad2: float, mass: float, pot: float) -> dict:
    """The energy, its three terms and the stationary shortcut form, from
    the three weighted integrals."""
    return {"energy": _f_value(p, 1.0, grad2, mass, pot),
            "grad_term": 0.5 * grad2,
            "mass_term": mass / (2.0 * (p - 1.0)),
            "potential_term": pot / (p + 1.0),
            "energy_shortcut": (0.5 - 1.0 / (p + 1.0)) * pot}


def energy(profile: RadialProfile) -> FunctionalReport:
    """Three-term weighted energy, plus the stationary shortcut form.

    The shortcut (1/2 - 1/(p+1)) int |w|^{p+1} rho is only valid for
    stationary profiles; a disagreement beyond CONSISTENCY_TOL on a profile
    claiming to solve the equation is flagged (not fatal).
    """
    report = FunctionalReport(**_energy_fields(profile.params.p,
                                               *_core_integrals(profile)))
    e3, e_short = report.energy, report.energy_shortcut
    report.scale = max(abs(e3), abs(e_short), 1e-300)
    if profile.is_solution:
        rel = abs(e3 - e_short) / report.scale
        if rel > CONSISTENCY_TOL:
            report.flags.append(f"energy forms disagree by {rel:.2e} "
                                f"on a profile claiming solution status")
    return report


def _integrands(profile: RadialProfile):
    """r -> _core_terms of the profile on the nodes r, from one sample."""
    p = profile.params.p
    return lambda r: _core_terms(r, *profile.sample(r), p)


def f_functional(profile: RadialProfile, x0_norm: float, t0: float) -> float:
    """Recentered functional F_{x0,t0}(w) at one point, t0 < 0: _f_values
    of that one point.  At (0, -1) it is the energy, bit for bit."""
    return float(_f_values(profile, [x0_norm], [t0])[0])


def _f_point(p: float, x0_norm: float, t0: float, sums) -> float:
    """F at one recentering point from its three kernel integrals.  A point
    so far out that F leaves the float range is a ParameterError naming it,
    not a silent inf or nan."""
    try:
        val = _f_value(p, -t0, *sums)
    except OverflowError:
        val = math.nan
    if not math.isfinite(val):
        raise ParameterError(f"F is not a finite float at "
                             f"x0_norm={x0_norm!r}, t0={t0!r}: the point is "
                             f"out of range")
    return val


def _f_values(profile: RadialProfile, x0s, t0s) -> np.ndarray:
    """F at each recentering point (x0s[k], t0s[k]) on the quadrature
    rule's rows, with an edge at the profile's last knot.

    The points go in chunks of as many rows as _CHUNK_NODES nodes hold (at
    least one): per chunk one rule build, one profile sample on all its
    nodes, one pass of _core_terms and one _sums.  A row does not depend on
    its chunk, so neither does F."""
    x0s = np.asarray(x0s, dtype=float).ravel()
    t0s = np.asarray(t0s, dtype=float).ravel()
    n, p = profile.params.n, profile.params.p
    integrands = _integrands(profile)
    out = np.empty(len(x0s))
    rows = max(1, _CHUNK_NODES // RULE_NODES)
    for start in range(0, len(x0s), rows):
        stop = min(start + rows, len(x0s))
        nodes, weights = _rules(x0s[start:stop], t0s[start:stop], n,
                                profile.grid[-1])
        sums = _sums(nodes, weights, integrands(nodes)).T.tolist()
        for k, point_sums in enumerate(sums, start):
            out[k] = _f_point(p, float(x0s[k]), float(t0s[k]), point_sums)
    return out


def constant_f_closed_form(profile: RadialProfile, t0: float) -> float:
    """F of a constant profile: kernel mass is 1, so only prefactors remain."""
    p = profile.params.p
    c = abs(profile.constant_value)
    return _f_value(p, -t0, 0.0, c**2, c ** (p + 1.0))


def entropy(profile: RadialProfile) -> EntropyResult:
    """Supremum of F over (x0_norm, log(-t0)): a coarse grid, then 3x3
    stencils in the one-cell box around its best, each pass's new points in
    one batched F evaluation.  A pass steps to the vertex of the stencil's
    quadratic when concave and inside, else to the best point so far, and
    shrinks fourfold, down to half-widths of REFINE_TOL.

    Not defined for the singular profile (unbounded).  The refinement
    replaces the coarse best only beyond TIE_TOL, and ties break toward
    x0 = 0 and t0 = -1 so the reported argmax is canonical.
    Constants are in closed form: F does not depend on x0, and
    a^{2/(p-1)} c^2/(2(p-1)) - a^{(p+1)/(p-1)} |c|^{p+1}/(p+1) is largest at
    a = -t0 = 1 (for c = +-kappa; for c = 0 it vanishes), so the entropy is
    F at (0, -1), the spatial ring margin is 0, and the trace holds the
    closed form on the coarse grid.
    """
    if profile.kind == KIND_SINGULAR:
        raise ParameterError("entropy is defined for bounded profiles only")
    xs = np.linspace(0.0, X0_MAX, COARSE_POINTS)
    las = np.linspace(-LOG_A_MAX, LOG_A_MAX, COARSE_POINTS)
    if profile.is_constant:
        def F_const(la):
            return constant_f_closed_form(profile, -math.exp(la))

        lam = F_const(0.0)
        result = EntropyResult(lam=lam, x0_norm=0.0, t0=-1.0,
                               trace=[(b, la, F_const(la))
                                      for b in xs for la in las],
                               ring_margin_x=0.0)
        result.ring_margin_t = lam - max(F_const(RING_EPS),
                                         F_const(-RING_EPS))
        return result

    # every point is evaluated once, each pass's new points in one batch
    seen = {}

    def F(points):
        new = [pt for pt in dict.fromkeys(points) if pt not in seen]
        if new:
            seen.update(zip(new, _f_values(
                profile, [b for b, _ in new],
                [-math.exp(la) for _, la in new])))
        return [seen[pt] for pt in points]

    def better(val, lam):
        # strict improvement beyond the tie tolerance keeps the first of
        # equal maxima: the smallest (b, la), then the coarse best
        return val > lam + TIE_TOL * max(1.0, abs(lam))

    grid = [(b, la) for b in xs for la in las]
    trace = [(b, la, val) for (b, la), val in zip(grid, F(grid))]
    b, la, lam = trace[0]
    for pb, pla, val in trace:
        if better(val, lam):
            lam, b, la = val, pb, pla

    # b is signed in the stencils: F depends on |b|, so a box reaching
    # b = 0 is mirrored through it
    span_x = X0_MAX / (COARSE_POINTS - 1)
    span_la = 2.0 * LOG_A_MAX / (COARSE_POINTS - 1)
    hi_x = min(X0_MAX, b + span_x)
    lo_x = b - span_x if b > span_x else -hi_x
    lo_la, hi_la = max(-LOG_A_MAX, la - span_la), min(LOG_A_MAX, la + span_la)
    hx, hl = 0.5 * span_x, 0.5 * span_la
    best = (lam, b, la)
    x, y = b, la
    while True:
        cx = min(max(x, lo_x + hx), hi_x - hx)
        cy = min(max(y, lo_la + hl), hi_la - hl)
        pts = [(cx + i * hx, cy + j * hl) for i in (-1, 0, 1)
               for j in (-1, 0, 1)]
        vals = F([(abs(px), py) for px, py in pts])
        for (px, py), val in zip(pts, vals):
            if val > best[0]:
                best = (val, abs(px), py)
        if hx <= REFINE_TOL and hl <= REFINE_TOL:
            break
        # the stencil's quadratic in units of (hx, hl), v[i][j] at offset
        # (i - 1, j - 1)
        v = [vals[3 * i:3 * i + 3] for i in range(3)]
        gx, gy = 0.5 * (v[2][1] - v[0][1]), 0.5 * (v[1][2] - v[1][0])
        hxx = v[2][1] - 2.0 * v[1][1] + v[0][1]
        hyy = v[1][2] - 2.0 * v[1][1] + v[1][0]
        hxy = 0.25 * (v[2][2] - v[2][0] - v[0][2] + v[0][0])
        det = hxx * hyy - hxy * hxy
        sx = sy = math.inf
        if hxx < 0.0 and det > 0.0:
            sx, sy = (hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det
        x, y = ((cx + sx * hx, cy + sy * hl) if max(abs(sx), abs(sy)) <= 1.0
                else best[1:])
        hx, hl = hx / 4.0, hl / 4.0
    if better(best[0], lam):
        lam, b, la = best

    # canonical snap for the degenerate spatial direction
    f = F([(0.0, la)])[0]
    if f >= lam - TIE_TOL * max(1.0, abs(lam)):
        b, lam = 0.0, max(lam, f)
    f = F([(b, 0.0)])[0]
    if f >= lam - TIE_TOL * max(1.0, abs(lam)):
        la, lam = 0.0, max(lam, f)

    result = EntropyResult(lam=lam, x0_norm=b, t0=-math.exp(la), trace=trace)
    up, down, out = F([(b, la + RING_EPS), (b, la - RING_EPS),
                       (b + RING_EPS, la)])
    result.ring_margin_t = lam - max(up, down)
    result.ring_margin_x = lam - out
    edge_x = X0_MAX * (1.0 - 1.0 / (len(xs) - 1))
    if b > edge_x or abs(la) > LOG_A_MAX * 0.95:
        result.flags.append("unconverged sup: maximizer near search boundary")
    return result


def identities(profile: RadialProfile) -> FunctionalReport:
    """Residuals of the three stationary integral identities.

    All residuals are reported relative to the largest constituent integral.
    (The odd first-moment identity holds termwise for radial profiles, so it
    is not reported.)
    """
    params = profile.params
    n, p = params.n, params.p
    grad2, mass, pot, y2grad2, y2mass, y2pot = _core_integrals(profile,
                                                               moments=True)
    scale = max(grad2, mass, pot, y2grad2, y2mass, y2pot, 1e-300)

    pohozaev = (n / (p + 1.0) + (2.0 - n) / 2.0) * grad2 \
        + 0.5 * (0.5 - 1.0 / (p + 1.0)) * y2grad2
    mass_balance = grad2 - pot + mass / (p - 1.0)
    moment_balance = ((2.0 - n) / 2.0 * grad2 - n / (2.0 * (p - 1.0)) * mass
                      + n / (p + 1.0) * pot + 0.25 * y2grad2
                      + y2mass / (4.0 * (p - 1.0)) - y2pot / (2.0 * (p + 1.0)))

    return FunctionalReport(
        **_energy_fields(p, grad2, mass, pot),
        pohozaev_residual=pohozaev / scale,
        mass_balance_residual=mass_balance / scale,
        moment_balance_residual=moment_balance / scale,
        scale=scale)


@dataclass
class DensityResult:
    theta: float
    values: np.ndarray
    monotone: bool
    flags: list = field(default_factory=list)


def density(profile: RadialProfile, x0_norm: float,
            s_values: Optional[np.ndarray] = None) -> DensityResult:
    """Parabolic density at spatial offset x0 via the recentering limit.

    Evaluates F_{x0/sqrt(-s), -1} along a decreasing |s| sequence
    (default s_k = -2^{-k}) and extrapolates the limit; the sequence must be
    nonincreasing toward s -> 0 up to MONOTONE_SLACK.
    """
    if s_values is None:
        s_values = -np.power(2.0, -np.arange(0, 11, dtype=float))
    s_values = np.asarray(s_values, dtype=float)
    if len(s_values) < 4 or np.any(s_values >= 0) or np.any(np.diff(-s_values) >= 0):
        raise ParameterError(
            "need a decreasing-|s| sequence of at least 4 negative s")
    vals = _f_values(profile, [x0_norm / math.sqrt(-s) for s in s_values],
                     np.full(len(s_values), -1.0))
    flags = []
    monotone = bool(np.all(np.diff(vals) <= MONOTONE_SLACK))
    if not monotone:
        flags.append("recentered energies not monotone along the rescaling path")
    # Aitken extrapolation when the tail differences still move
    d1, d2 = vals[-2] - vals[-3], vals[-1] - vals[-2]
    if abs(d2 - d1) > 1e-14 and abs(d2) > 1e-14:
        theta = vals[-1] + d2 * d2 / (d1 - d2) if abs(d1 - d2) > 1e-30 else vals[-1]
        # keep the extrapolation conservative: never above the last value
        theta = min(theta, vals[-1]) if x0_norm != 0 else vals[-1]
    else:
        theta = vals[-1]
    return DensityResult(theta=float(theta), values=vals, monotone=monotone,
                         flags=flags)
