"""Shooting for bounded decaying solutions of the radial profile equation.

The initial value problem

    w'' + ((n-1)/r - r/2) w' - w/(p-1) + |w|^{p-1} w = 0,
    w(0) = a,  w'(0) = 0

is integrated with scipy's adaptive DOP853 scheme from a second-order
Taylor start at r = eps.  Away from a discrete set of initial heights a the
trajectory leaves the decaying envelope w ~ C r^{-2/(p-1)} either downward
(it crosses zero) or upward (positive local minimum in the tail regime,
followed by a large excursion).  Multisection between the two departure
directions pins the bounded positive profile: each round shoots 255 heights
(8 bits of the bracket) in one kernel call, and the first round also
classifies the two bracket ends.

Departures alone are decided by a private lane kernel that integrates a
vector of heights at once as numpy arrays.  Each lane repeats
``solve_ivp(method="DOP853")``'s steps: the same tableau and initial step,
the same error norm and step-size controller, the same two-phase
``max_step`` schedule and the same event rule at accepted-step ends.  It
stores no trajectory.  Lanes whose label needs the tail (no event by
``r_max``), lanes where the solver fails, lanes where two events fire in one
step, zero heights and exact equilibria go through ``integrate_radial``,
the one trajectory and dense-output path; ``shoot`` sends a lane there only
when it is the flip candidate of its round.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
# private scipy module: the DOP853 tableau and controller factors that
# solve_ivp itself steps with, so the lane kernel cannot drift from it
from scipy.integrate._ivp.rk import DOP853, MAX_FACTOR, MIN_FACTOR, SAFETY

from .core import (KIND_SHOOTING, ParameterError, Parameters, RadialProfile,
                   SelfsimError)
from .numerics import derivative_on_grid

DECAYING = "decaying"
SIGN_CHANGING = "sign_changing"
GROWING = "growing"
INCONCLUSIVE = "inconclusive"
INCONCLUSIVE_CONSTANT = "inconclusive_constant"

R_START = 1e-6     # radius of the Taylor start
R_MAX = 30.0       # default end of a shot
# step schedule: a small max_step through the core keeps the dense-output
# interpolant accurate enough to difference (residual checks amplify
# interpolation noise by 1/h); the tail tolerates a coarser cap
R_SPLIT = 2.0
MAX_STEP_CORE = 0.01
MAX_STEP_TAIL = 0.05
# events: a rebound is a local minimum of w below this fraction of kappa;
# the cap is this multiple of max(|a|, kappa)
REBOUND_FRACTION = 0.75
CAP_MULT = 10.0
EVENT_DIRECTIONS = np.array([0, 0, 1])    # zero, cap, rebound (EVENTS)
# heights tried per multisection round of shoot: 8 bits a round
SECTIONS = 255
_FRACTIONS = np.arange(1, SECTIONS + 1) / (SECTIONS + 1)
# shoot: integrator tolerance, relative bracket width that ends the
# multisection, largest accepted equation residual, and the tail grid step
# of the returned profile (a quarter of it through the core)
SHOOT_TOL = 1e-12
BISECT_TOL = 5e-14
RESIDUAL_TOL = 1e-7
GRID_STEP = 0.004
# nodes of the finite-difference stencil that gives w'' in ode_residual
RESIDUAL_STENCIL = 7


class ShootingError(SelfsimError, RuntimeError):
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
    departure: int = 0        # -1 crossed zero, +1 rebounded upward, 0 neither
    dense: object = field(default=None, repr=False)

    def sample(self, r):
        w, dw = self.dense(np.asarray(r, dtype=float))
        return w, dw


def _rhs(n: int, p: float):
    """Right-hand side for one state (2,) or a lane array (2, L)."""
    def rhs(r, y):
        w, dw = y
        return (dw,
                -((n - 1) / r - 0.5 * r) * dw + w / (p - 1.0)
                - np.abs(w) ** (p - 1.0) * w)
    return rhs


# terminal events, for one state or a lane array: w crosses zero, |w| reaches
# the cap, or w has a local minimum inside the sub-kappa tail regime (rebound)
EVENTS = (
    lambda w, dw, cap, kap: w,
    lambda w, dw, cap, kap: np.abs(w) - cap,
    lambda w, dw, cap, kap: np.where((0.0 < w) & (w < REBOUND_FRACTION * kap),
                                     dw, -1.0),
)


def _event_values(y, cap, kap):
    """EVENTS at lane states y (2, L): one row per event."""
    return np.array([ev(y[0], y[1], cap, kap) for ev in EVENTS])


def _fired(g, g_new):
    """solve_ivp's rule for events that fire between two accepted steps.

    g, g_new: event values, one row per event and one column per lane.
    """
    up = (g <= 0) & (g_new >= 0)
    down = (g >= 0) & (g_new <= 0)
    d = EVENT_DIRECTIONS[:, None]
    return up & (d >= 0) | down & (d <= 0)


def _cap(a, kap):
    return CAP_MULT * np.maximum(np.abs(a), kap)


def _taylor_start(a, n, p, eps):
    w2 = (a / (p - 1.0) - np.abs(a) ** (p - 1.0) * a) / n
    return np.array([a + 0.5 * w2 * eps**2, w2 * eps])


def _is_equilibrium(a: float, p: float) -> bool:
    return (abs(a / (p - 1.0) - np.abs(a) ** (p - 1.0) * a)
            <= 1e-13 * max(abs(a), 1e-30))


def _check_inputs(a, tol: float) -> None:
    if not np.all(np.isfinite(a)):
        raise ParameterError("initial height must be finite")
    if not (1e-14 < tol < 1e-4):
        raise ParameterError(f"tolerance {tol} outside the supported range")


def _atol(tol: float) -> float:
    return min(tol * 1e-2, 1e-14)


def integrate_radial(params: Parameters, a: float, r_max: float = R_MAX,
                     tol: float = 1e-12, eps: float = R_START) -> OdeTrajectory:
    """Integrate one shot and classify its departure from the decaying tail."""
    _check_inputs(a, tol)
    n, p = params.n, params.p
    kap = params.kappa
    # exact equilibria (a = 0 included): label analytically instead of
    # amplifying roundoff
    if _is_equilibrium(a, p):
        r = np.linspace(eps, r_max, 256)
        dense = lambda rr: (np.full_like(np.asarray(rr, float), a),
                            np.zeros_like(np.asarray(rr, float)))
        return OdeTrajectory(a, params, r, np.full_like(r, a), np.zeros_like(r),
                             INCONCLUSIVE_CONSTANT, r_max, 0, dense=dense)
    y0 = _taylor_start(a, n, p, eps)
    cap = _cap(a, kap)

    def event(k):
        ev = lambda r, y: float(EVENTS[k](y[0], y[1], cap, kap))
        ev.terminal = True
        ev.direction = EVENT_DIRECTIONS[k]
        return ev

    events = [event(k) for k in range(len(EVENTS))]
    r_split = min(R_SPLIT, r_max)
    sol1 = solve_ivp(_rhs(n, p), (eps, r_split), y0, method="DOP853",
                     rtol=tol, atol=_atol(tol), events=events,
                     dense_output=True, max_step=MAX_STEP_CORE)
    pieces = [sol1]
    if sol1.success and sol1.status == 0 and r_split < r_max:
        sol2 = solve_ivp(_rhs(n, p), (r_split, r_max), sol1.y[:, -1],
                         method="DOP853", rtol=tol, atol=_atol(tol),
                         events=events, dense_output=True,
                         max_step=MAX_STEP_TAIL)
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
                             r_all[-1], dense=dense)
    ev = [np.concatenate([s.t_events[k] for s in pieces])
          for k in range(len(events))]
    departure = 0
    if ev[0].size:
        label, departure = SIGN_CHANGING, -1
    elif ev[1].size or ev[2].size:
        label, departure = GROWING, +1    # cap, or upward departure from the tail
    else:
        label = _tail_label(params, r_all[-1], dense, a)
    return OdeTrajectory(a, params, r_all, w_all, dw_all, label,
                         r_all[-1], departure, dense=dense)


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


# ------------------------------------------------------------- lane kernel
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_STAGES = DOP853.n_stages
# stage weights; the step end y_new is stage _STAGES, with the weights B
_A = [DOP853.A[s, :s] for s in range(_STAGES)] + [DOP853.B]
_C, _E3, _E5 = DOP853.C, DOP853.E3, DOP853.E5


def _rms(x):
    """scipy's RMS norm over the two components of every lane."""
    return np.sqrt(np.sum(x * x, axis=0)) / x.shape[0] ** 0.5


def _initial_step(rhs, r, y, f, bound, max_step, rtol, atol):
    """scipy's select_initial_step, lane by lane."""
    interval = bound - r
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, interval)
    f1 = np.array(rhs(r + h0, y + h0 * f))
    d2 = _rms((f1 - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** -_ERROR_EXPONENT)
    return np.minimum(np.minimum(100 * h0, h1), np.minimum(interval, max_step))


@np.errstate(divide="ignore", invalid="ignore")
def _departures(params: Parameters, heights, r_max: float,
                tol: float) -> np.ndarray:
    """Departure signs of many shots at once, without trajectories.

    Every lane takes the steps integrate_radial's solve_ivp calls take and
    stops at its first accepted step where an event fires.  Returns -1
    (zero crossing) or +1 (cap or rebound) per lane, and 0 where the lane
    needs integrate_radial: no event by r_max, a failed step, or two events
    in one step.
    """
    n, p, kap = params.n, params.p, params.kappa
    rhs = _rhs(n, p)
    rtol = max(tol, 100 * np.finfo(float).eps)    # solve_ivp's rtol floor
    atol = _atol(tol)
    pm1 = p - 1.0
    a = np.asarray(heights, dtype=float)
    out = np.zeros(a.size, dtype=int)
    r_split = min(R_SPLIT, r_max)

    lane = np.arange(a.size)
    r = np.full(a.size, R_START)
    y = _taylor_start(a, n, p, R_START)
    f = np.array(rhs(r, y))
    cap = _cap(a, kap)
    g = _event_values(y, cap, kap)
    bound = np.full(a.size, r_split)
    max_step = np.full(a.size, MAX_STEP_CORE)
    h = _initial_step(rhs, r, y, f, bound, max_step, rtol, atol)
    retry = np.zeros(a.size, dtype=bool)
    while lane.size:
        min_step = 10 * np.abs(np.nextafter(r, np.inf) - r)
        h = np.where(retry, h, np.minimum(np.maximum(h, min_step), max_step))
        failed = h < min_step
        r_new = np.minimum(r + h, bound)
        h = r_new - r
        m = lane.size
        # radii of stages 1.. and of the step end, and their drift
        # coefficients, each in one array pass
        rs = np.vstack((r + _C[1:, None] * h, r_new))
        drift = -((n - 1) / rs - 0.5 * rs)
        K = np.empty((_STAGES + 1, 2 * m))     # stage s holds (w', w'') lanes
        K3 = K.reshape(_STAGES + 1, 2, m)
        K3[0] = f
        for s in range(1, _STAGES + 1):
            ys = y + (_A[s] @ K[:s]).reshape(2, m) * h
            w, dw = ys
            K3[s, 0] = dw
            K3[s, 1] = drift[s - 1] * dw + w / pm1 - np.abs(w) ** pm1 * w
        y_new, f_new = ys, K3[-1]
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        x5 = (_E5 @ K).reshape(2, m) / scale
        x3 = (_E3 @ K).reshape(2, m) / scale
        e5 = x5[0] * x5[0] + x5[1] * x5[1]
        e3 = x3[0] * x3[0] + x3[1] * x3[1]
        err = np.where((e5 == 0) & (e3 == 0), 0.0,
                       h * e5 / np.sqrt((e5 + 0.01 * e3) * 2))
        gain = SAFETY * err ** _ERROR_EXPONENT
        ok = (err < 1) & ~failed
        grow = np.where(err == 0, MAX_FACTOR, np.minimum(MAX_FACTOR, gain))
        grow = np.where(retry, np.minimum(1, grow), grow)
        h = h * np.where(ok, grow, np.maximum(MIN_FACTOR, gain))
        retry = ~ok

        r = np.where(ok, r_new, r)
        y = np.where(ok, y_new, y)
        f = np.where(ok, f_new, f)
        g_new = _event_values(y, cap, kap)
        fired = _fired(g, g_new) & ok
        g = g_new
        count = fired.sum(axis=0)
        at_bound = ok & (count == 0) & (r >= bound)
        switch = at_bound & (bound < r_max)
        if switch.any():
            # second solve_ivp call: fresh initial step, tail step cap
            bound[switch] = r_max
            max_step[switch] = MAX_STEP_TAIL
            h[switch] = _initial_step(rhs, r[switch], y[:, switch], f[:, switch],
                                      bound[switch], max_step[switch], rtol, atol)
        done = failed | (count > 0) | (at_bound & ~switch)
        if done.any():
            out[lane[done]] = np.where(count == 1, np.where(fired[0], -1, 1), 0)[done]
            keep = ~done
            lane, r, h, retry, bound, max_step, cap = (
                v[keep] for v in (lane, r, h, retry, bound, max_step, cap))
            y, f, g = y[:, keep], f[:, keep], g[:, keep]
    return out


def _lane_departures(params: Parameters, a: np.ndarray, r_max: float,
                     tol: float) -> np.ndarray:
    """Kernel departures per height; equilibria skip the kernel and read 0."""
    lanes = np.array([not _is_equilibrium(x, params.p) for x in a], dtype=bool)
    dep = np.zeros(a.size, dtype=int)
    dep[lanes] = _departures(params, a[lanes], r_max, tol)
    return dep


def _classify(params: Parameters, heights, r_max: float,
              tol: float) -> list[tuple[str, int]]:
    """(label, departure) per height: the lane kernel, else integrate_radial."""
    a = np.asarray(heights, dtype=float)
    _check_inputs(a, tol)
    rows = []
    for x, d in zip(a, _lane_departures(params, a, r_max, tol)):
        if d == 0:
            traj = integrate_radial(params, x, r_max=r_max, tol=tol)
            rows.append((traj.classification, traj.departure))
        else:
            rows.append((SIGN_CHANGING if d < 0 else GROWING, int(d)))
    return rows


def scan_initial_values(params: Parameters, a_values,
                        r_max: float = R_MAX, tol: float = 1e-10) -> list:
    """Classify a grid of initial heights; returns (a, label, departure) rows."""
    a = np.asarray(a_values, dtype=float)
    return [(float(x), label, dep)
            for x, (label, dep) in zip(a, _classify(params, a, r_max, tol))]


def find_brackets(params: Parameters, a_values,
                  tol: float = 1e-10) -> list[tuple[float, float]]:
    """Adjacent scan pairs whose departure direction flips (shooting brackets)."""
    rows = scan_initial_values(params, a_values, tol=tol)
    out = []
    for (a0, l0, d0), (a1, l1, d1) in zip(rows[:-1], rows[1:]):
        if d0 != 0 and d1 != 0 and d0 != d1:
            out.append((a0, a1))
    return out


def _sections(lo_a: float, hi_a: float) -> list[float]:
    """The heights of one multisection round; none once the bracket is done."""
    if hi_a - lo_a <= BISECT_TOL * max(1.0, abs(hi_a)):
        return []
    inner = np.unique(lo_a + (hi_a - lo_a) * _FRACTIONS)
    return inner[(inner > lo_a) & (inner < hi_a)].tolist()


def shoot(params: Parameters, a_lo: float, a_hi: float) -> RadialProfile:
    """Multisect a bracket to the bounded decaying profile.

    Each round shoots SECTIONS equally spaced heights inside the bracket in
    one lane-kernel call and keeps the lowest departure flip; the first
    round also classifies the two bracket ends.  A lane the kernel cannot
    decide goes through integrate_radial only when it is the flip candidate.
    The two final bracket trajectories sandwich the decaying orbit; the
    returned profile is the midpoint shot truncated where the sandwich width
    exceeds 1e-9, with the tail coefficient fitted from q = r^{2/(p-1)} w.
    """
    _check_inputs([a_lo, a_hi], SHOOT_TOL)
    if not a_lo < a_hi:
        raise ParameterError(f"bracket needs a_lo < a_hi, got a_lo={a_lo} "
                             f"and a_hi={a_hi}")

    def departure(a, d):
        if d == 0:
            d = integrate_radial(params, a, tol=SHOOT_TOL).departure
        return d

    inner = _sections(a_lo, a_hi)
    deps = _lane_departures(params, np.array([a_lo, *inner, a_hi]), R_MAX,
                            SHOOT_TOL).tolist()
    lo_dep, hi_dep = departure(a_lo, deps[0]), departure(a_hi, deps[-1])
    if lo_dep == 0 or hi_dep == 0 or lo_dep == hi_dep:
        raise ShootingError(
            f"no bracket: departures are {lo_dep} at a={a_lo} "
            f"and {hi_dep} at a={a_hi}")
    deps[0], deps[-1] = lo_dep, hi_dep
    lo_a, hi_a = a_lo, a_hi
    while inner:
        heights = [lo_a, *inner, hi_a]
        for k, (a, d) in enumerate(zip(heights, deps)):
            d = departure(a, d)
            if d != lo_dep:
                break
        if d == 0:
            raise ShootingError(f"inconclusive trajectory at a={heights[k]}")
        lo_a, hi_a = heights[k - 1], heights[k]
        inner = _sections(lo_a, hi_a)
        if inner:
            deps = [lo_dep, *_lane_departures(params, np.array(inner), R_MAX,
                                              SHOOT_TOL).tolist(), hi_dep]
    a_star = 0.5 * (lo_a + hi_a)

    lo = integrate_radial(params, lo_a, tol=SHOOT_TOL)
    hi = integrate_radial(params, hi_a, tol=SHOOT_TOL)
    mid = integrate_radial(params, a_star, tol=SHOOT_TOL)
    r_common = min(lo.r_end, hi.r_end, mid.r_end) * 0.999
    probe = np.linspace(mid.r[0], r_common, 1500)
    gap = np.abs(lo.sample(probe)[0] - hi.sample(probe)[0])
    ok = probe[gap <= 1e-9]
    r_cut = (ok[-1] if ok.size else r_common) * 0.98

    # fine spacing through the nonlinear core (steep for large a), coarser tail
    eps = mid.r[0]
    core_end = min(0.5, 0.5 * r_cut)
    grid = np.concatenate([
        np.arange(eps, core_end, GRID_STEP / 4.0),
        np.arange(core_end, r_cut, GRID_STEP)])
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
                                  "ode_tol": SHOOT_TOL})
    res = ode_residual(profile)
    if res > RESIDUAL_TOL:
        raise ShootingError(f"profile residual {res:.3e} exceeds {RESIDUAL_TOL}")
    profile.meta["ode_residual"] = res
    return profile


def ode_residual(profile: RadialProfile) -> float:
    """Sup of the pointwise equation residual over interior grid points.

    w'' comes from high-order differencing of the stored first derivative,
    so the residual is an independent consistency check of (w, w').
    """
    if len(profile.grid) < RESIDUAL_STENCIL:
        raise ShootingError(f"need at least {RESIDUAL_STENCIL} grid points")
    params = profile.params
    r, w, dw = profile.grid, profile.values, profile.derivs
    if profile.is_constant:
        d2 = np.zeros_like(w)
    else:
        d2 = derivative_on_grid(r, dw, order=1, stencil=RESIDUAL_STENCIL)
    res = (d2 + ((params.n - 1) / r - 0.5 * r) * dw - w / (params.p - 1.0)
           + np.abs(w) ** (params.p - 1.0) * w)
    interior = slice(3, -3) if len(r) > 12 else slice(1, -1)
    return float(np.max(np.abs(res[interior])))
