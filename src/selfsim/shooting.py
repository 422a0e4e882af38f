"""Shooting for bounded decaying solutions of the radial profile equation.

The initial value problem

    w'' + ((n-1)/r - r/2) w' - w/(p-1) + |w|^{p-1} w = 0,
    w(0) = a,  w'(0) = 0

is integrated with an adaptive Dormand-Prince scheme from a second-order
Taylor start at r = eps.  Away from a discrete set of initial heights a the
trajectory leaves the decaying envelope w ~ C r^{-2/(p-1)} either downward
(it crosses zero) or upward (positive local minimum in the tail regime,
followed by a large excursion).  Bisecting between the two departure
directions pins the bounded positive profile.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .core import (KIND_SHOOTING, Parameters, RadialProfile)
from .numerics import derivative_on_grid

DECAYING = "decaying"
SIGN_CHANGING = "sign_changing"
GROWING = "growing"
INCONCLUSIVE = "inconclusive"
INCONCLUSIVE_CONSTANT = "inconclusive_constant"


class ShootingError(RuntimeError):
    pass


@dataclass
class OdeTrajectory:
    """One integrated shot: samples, classification and departure data."""

    a: float
    params: Parameters
    r: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    classification: str
    r_end: float
    tol: float
    departure: int = 0        # -1 crossed zero, +1 rebounded upward, 0 neither
    meta: dict = field(default_factory=dict)
    dense: object = field(default=None, repr=False)

    def sample(self, r):
        w, dw = self.dense(np.asarray(r, dtype=float))
        return w, dw


def _rhs(n: int, p: float):
    def rhs(r, y):
        w, dw = y
        return (dw,
                -((n - 1) / r - 0.5 * r) * dw + w / (p - 1.0)
                - np.abs(w) ** (p - 1.0) * w)
    return rhs


def integrate_radial(params: Parameters, a: float, r_max: float = 30.0,
                     tol: float = 1e-12, eps: float = 1e-6,
                     rebound_threshold: float = 0.75,
                     cap_mult: float = 10.0) -> OdeTrajectory:
    """Integrate one shot and classify its departure from the decaying tail."""
    if not np.isfinite(a):
        raise ShootingError("initial height must be finite")
    if not (1e-14 < tol < 1e-4):
        raise ShootingError(f"tolerance {tol} outside the supported range")
    n, p = params.n, params.p
    kap = params.kappa
    # exact equilibria: label analytically instead of amplifying roundoff
    if abs(a / (p - 1.0) - np.abs(a) ** (p - 1.0) * a) <= 1e-13 * max(abs(a), 1e-30):
        r = np.linspace(eps, r_max, 256)
        dense = lambda rr: (np.full_like(np.asarray(rr, float), a),
                            np.zeros_like(np.asarray(rr, float)))
        return OdeTrajectory(a, params, r, np.full_like(r, a), np.zeros_like(r),
                             INCONCLUSIVE_CONSTANT, r_max, tol, 0,
                             meta={"equilibrium": True}, dense=dense)
    w2 = (a / (p - 1.0) - np.abs(a) ** (p - 1.0) * a) / n
    y0 = [a + 0.5 * w2 * eps**2, w2 * eps]
    cap = cap_mult * max(abs(a), kap)

    def ev_zero(r, y):
        return y[0]
    ev_zero.terminal = True

    def ev_cap(r, y):
        return abs(y[0]) - cap
    ev_cap.terminal = True

    def ev_rebound(r, y):
        # local minimum of w inside the sub-kappa tail regime
        return y[1] if 0.0 < y[0] < rebound_threshold * kap else -1.0
    ev_rebound.terminal = True
    ev_rebound.direction = 1

    events = [ev_zero, ev_cap, ev_rebound] if a != 0.0 else [ev_cap]
    # two phases: a small max_step through the core keeps the dense-output
    # interpolant accurate enough to difference (residual checks amplify
    # interpolation noise by 1/h); the tail tolerates a coarser cap
    r_split = min(2.0, r_max)
    sol1 = solve_ivp(_rhs(n, p), (eps, r_split), y0, method="DOP853",
                     rtol=tol, atol=min(tol * 1e-2, 1e-14), events=events,
                     dense_output=True, max_step=0.01)
    pieces = [sol1]
    if sol1.success and sol1.status == 0 and r_split < r_max:
        sol2 = solve_ivp(_rhs(n, p), (r_split, r_max), sol1.y[:, -1],
                         method="DOP853", rtol=tol,
                         atol=min(tol * 1e-2, 1e-14), events=events,
                         dense_output=True, max_step=0.05)
        pieces.append(sol2)
    last = pieces[-1]
    r_all = np.concatenate([s.t for s in pieces])
    w_all = np.concatenate([s.y[0] for s in pieces])
    dw_all = np.concatenate([s.y[1] for s in pieces])

    def dense(rr, _pieces=tuple(pieces), _split=pieces[0].t[-1]):
        rr = np.asarray(rr, dtype=float)
        if len(_pieces) == 1:
            return _pieces[0].sol(rr)
        out = np.where(rr <= _split,
                       _pieces[0].sol(np.minimum(rr, _split)),
                       _pieces[1].sol(np.maximum(rr, _split)))
        return out

    if not last.success:
        return OdeTrajectory(a, params, r_all, w_all, dw_all, INCONCLUSIVE,
                             r_all[-1], tol,
                             meta={"solver_message": last.message}, dense=dense)
    ev = [np.concatenate([s.t_events[k] for s in pieces])
          for k in range(len(events))]
    departure, hit_cap = 0, False
    if a == 0.0:
        label = INCONCLUSIVE_CONSTANT
    elif ev[0].size:
        label, departure = SIGN_CHANGING, -1
    elif ev[1].size:
        label, departure, hit_cap = GROWING, +1, True
    elif ev[2].size:
        label, departure = GROWING, +1    # upward departure from the tail
    else:
        label = _tail_label(params, r_all[-1], dense, a)
    traj = OdeTrajectory(a, params, r_all, w_all, dw_all, label,
                         r_all[-1], tol, departure, dense=dense)
    if hit_cap:
        traj.meta["hit_cap"] = True
    return traj


def _tail_label(params: Parameters, r_end: float, dense, a: float) -> str:
    """Label a full-length trajectory from its tail monitor q = r^{2/(p-1)} w."""
    if r_end < 10.0:
        return INCONCLUSIVE
    rr = np.linspace(0.75 * r_end, r_end, 80)
    w, dw = dense(rr)
    kap = params.kappa
    if np.all(np.abs(np.abs(w) - kap) < 0.05 * kap):
        return INCONCLUSIVE_CONSTANT
    if a == 0.0 or np.max(np.abs(w)) == 0.0:
        return INCONCLUSIVE_CONSTANT
    q = rr ** params.decay_power * w
    flat = np.ptp(q) < 0.01 * abs(np.mean(q)) if np.mean(q) != 0 else False
    if flat and np.all(dw < 0):
        return DECAYING
    return INCONCLUSIVE


def scan_initial_values(params: Parameters, a_values,
                        r_max: float = 30.0, tol: float = 1e-10) -> list:
    """Classify a grid of initial heights; returns (a, label, departure) rows."""
    rows = []
    for a in np.asarray(a_values, dtype=float):
        traj = integrate_radial(params, a, r_max=r_max, tol=tol)
        rows.append((float(a), traj.classification, traj.departure))
    return rows


def find_brackets(params: Parameters, a_values, r_max: float = 30.0,
                  tol: float = 1e-10) -> list[tuple[float, float]]:
    """Adjacent scan pairs whose departure direction flips (shooting brackets)."""
    rows = scan_initial_values(params, a_values, r_max=r_max, tol=tol)
    out = []
    for (a0, l0, d0), (a1, l1, d1) in zip(rows[:-1], rows[1:]):
        if d0 != 0 and d1 != 0 and d0 != d1:
            out.append((a0, a1))
    return out


def shoot(params: Parameters, a_lo: float, a_hi: float,
          bisect_tol: float = 5e-14, r_max: float = 30.0,
          tol: float = 1e-12, residual_tol: float = 1e-7,
          grid_step: float = 0.004) -> RadialProfile:
    """Bisect a bracket to the bounded decaying profile.

    The two bracket trajectories sandwich the decaying orbit; the returned
    profile is the midpoint shot truncated where the sandwich width exceeds
    1e-9, with the tail coefficient fitted from q = r^{2/(p-1)} w.
    """
    lo = integrate_radial(params, a_lo, r_max=r_max, tol=tol)
    hi = integrate_radial(params, a_hi, r_max=r_max, tol=tol)
    if lo.departure == 0 or hi.departure == 0 or lo.departure == hi.departure:
        raise ShootingError(
            f"no bracket: departures are {lo.departure} at a={a_lo} "
            f"and {hi.departure} at a={a_hi}")
    lo_a, hi_a = lo.a, hi.a
    lo_dep = lo.departure
    while hi_a - lo_a > bisect_tol * max(1.0, abs(hi_a)):
        mid = 0.5 * (lo_a + hi_a)
        if mid in (lo_a, hi_a):
            break
        traj = integrate_radial(params, mid, r_max=r_max, tol=tol)
        if traj.departure == 0:
            raise ShootingError(f"inconclusive trajectory at a={mid}")
        if traj.departure == lo_dep:
            lo_a = mid
        else:
            hi_a = mid
    a_star = 0.5 * (lo_a + hi_a)

    lo = integrate_radial(params, lo_a, r_max=r_max, tol=tol)
    hi = integrate_radial(params, hi_a, r_max=r_max, tol=tol)
    mid = integrate_radial(params, a_star, r_max=r_max, tol=tol)
    r_common = min(lo.r_end, hi.r_end, mid.r_end) * 0.999
    probe = np.linspace(mid.r[0], r_common, 1500)
    gap = np.abs(lo.sample(probe)[0] - hi.sample(probe)[0])
    ok = probe[gap <= 1e-9]
    r_cut = (ok[-1] if ok.size else r_common) * 0.98

    # fine spacing through the nonlinear core (steep for large a), coarser tail
    eps = mid.r[0]
    core_end = min(0.5, 0.5 * r_cut)
    grid = np.concatenate([
        np.arange(eps, core_end, grid_step / 4.0),
        np.arange(core_end, r_cut, grid_step)])
    w, dw = mid.sample(grid)
    if np.any(w <= 0.0):
        raise ShootingError("bisected profile is not positive")
    q = grid ** params.decay_power * w
    tail = grid >= 0.75 * r_cut
    if np.ptp(q[tail]) > 0.01 * abs(np.mean(q[tail])):
        raise ShootingError("tail monitor did not flatten; not a decaying profile")
    decay_coeff = float(np.mean(q[tail][-20:]))

    # second derivatives from the equation itself make the interpolant C^2
    w2 = (-((params.n - 1) / grid - 0.5 * grid) * dw + w / (params.p - 1.0)
          - np.abs(w) ** (params.p - 1.0) * w)
    profile = RadialProfile(kind=KIND_SHOOTING, params=params, grid=grid,
                            values=w, derivs=dw, decay_coeff=decay_coeff,
                            classification=DECAYING, second_derivs=w2,
                            meta={"a": a_star, "axis_value": a_star,
                                  "bracket": (lo_a, hi_a), "r_cut": r_cut,
                                  "ode_tol": tol})
    res = ode_residual(profile)
    if res > residual_tol:
        raise ShootingError(f"profile residual {res:.3e} exceeds {residual_tol}")
    profile.meta["ode_residual"] = res
    return profile


def ode_residual(profile: RadialProfile) -> float:
    """Sup of the pointwise equation residual over interior grid points.

    w'' comes from high-order differencing of the stored first derivative,
    so the residual is an independent consistency check of (w, w').
    """
    if len(profile.grid) < 5:
        raise ShootingError("need at least 5 grid points")
    params = profile.params
    r, w, dw = profile.grid, profile.values, profile.derivs
    if profile.is_constant:
        d2 = np.zeros_like(w)
    else:
        d2 = derivative_on_grid(r, dw, order=1, stencil=7)
    res = (d2 + ((params.n - 1) / r - 0.5 * r) * dw - w / (params.p - 1.0)
           + np.abs(w) ** (params.p - 1.0) * w)
    interior = slice(3, -3) if len(r) > 12 else slice(1, -1)
    return float(np.max(np.abs(res[interior])))
