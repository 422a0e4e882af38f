"""Shooting for bounded decaying solutions of the radial profile equation.

The initial value problem

    w'' + ((n-1)/r - r/2) w' - w/(p-1) + |w|^{p-1} w = 0,
    w(0) = a,  w'(0) = 0

is integrated with the adaptive DOP853 scheme from a second-order Taylor
start at r = R_START.  Away from a discrete set of initial heights a the
trajectory leaves the decaying envelope w ~ C r^{-2/(p-1)} either downward
(it crosses zero) or upward (positive local minimum in the tail regime,
followed by a large excursion).  Multisection between the two departure
directions pins the bounded positive profile: each round shoots 255 heights
(8 bits of the bracket) in one kernel call, and the first round also
classifies the two bracket ends.

One integrator does every shot: a private lane kernel that integrates a
vector of heights at once as numpy arrays.  Each lane repeats
``solve_ivp(method="DOP853")``'s steps: the same tableau and initial step,
the same error norm and step-size controller, the same two-phase
``max_step`` schedule and the same event rule at accepted-step ends.  A
lane's arithmetic does not depend on how many lanes share its call: every
stage and error sum adds its terms in a fixed order per lane.  So the final
3-lane call of ``shoot`` repeats the multisection's decisions on the final
bracket ends bit for bit.  On request the kernel also keeps each accepted
step's dense-output rows, built as ``DOP853._dense_output_impl`` builds
them, and returns trajectories whose ``sample`` evaluates them as
``Dop853DenseOutput`` does; ``integrate_radial`` is such a one-lane call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# not called here: perfbench/tracing.py wraps shooting.solve_ivp by name
from scipy.integrate import solve_ivp  # noqa: F401
# private scipy module: the DOP853 tableau, dense-output stages and
# controller factors that solve_ivp itself steps with, so the lane kernel
# cannot drift from it
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
EVENT_DIRECTIONS = np.array([0, 0, 1])    # zero, cap, rebound
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
    """Right-hand side for a lane array (2, L)."""
    def rhs(r, y):
        w, dw = y
        return (dw,
                -((n - 1) / r - 0.5 * r) * dw + w / (p - 1.0)
                - np.abs(w) ** (p - 1.0) * w)
    return rhs


def _event_values(y, cap, kap):
    """The terminal events at lane states y (2, L), one row each: w crosses
    zero, |w| reaches the cap, or w has a local minimum inside the sub-kappa
    tail regime (rebound)."""
    w, dw = y
    return np.array([w, np.abs(w) - cap,
                     np.where((0.0 < w) & (w < REBOUND_FRACTION * kap), dw,
                              -1.0)])


def _fired(g, g_new):
    """solve_ivp's rule for events that fire between two accepted steps.

    g, g_new: event values, one row per event and one column per lane.
    """
    up = (g <= 0) & (g_new >= 0)
    down = (g >= 0) & (g_new <= 0)
    d = EVENT_DIRECTIONS[:, None]
    return up & (d >= 0) | down & (d <= 0)


def _taylor_start(a, n, p, eps):
    w2 = (a / (p - 1.0) - np.abs(a) ** (p - 1.0) * a) / n
    return np.array([a + 0.5 * w2 * eps**2, w2 * eps])


def _check_inputs(a, tol: float) -> None:
    if not np.all(np.isfinite(a)):
        raise ParameterError("initial height must be finite")
    if not (1e-14 < tol < 1e-4):
        raise ParameterError(f"tolerance {tol} outside the supported range")


def integrate_radial(params: Parameters, a: float, r_max: float = R_MAX,
                     tol: float = 1e-12) -> OdeTrajectory:
    """Integrate one shot and classify its departure from the decaying tail."""
    _check_inputs(a, tol)
    return _departures(params, [a], r_max, tol, dense=True)[0]


def _tail_label(params: Parameters, r_end: float, dense) -> str:
    """Label a full-length trajectory from its tail monitor q = r^{2/(p-1)} w."""
    if r_end < 10.0:
        return INCONCLUSIVE
    rr = np.linspace(0.75 * r_end, r_end, 80)
    w, dw = dense(rr)
    kap = params.kappa
    if np.all(np.abs(np.abs(w) - kap) < 0.05 * kap):
        return INCONCLUSIVE_CONSTANT
    q = rr ** params.decay_power * w
    flat = np.ptp(q) < 0.01 * abs(np.mean(q)) if np.mean(q) != 0 else False
    if flat and np.all(dw < 0):
        return DECAYING
    return INCONCLUSIVE


# ------------------------------------------------------------- lane kernel
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_STAGES = DOP853.n_stages
# stage weights: the step end y_new is stage _STAGES, with the weights B;
# the three stages after it feed only the dense output
_A = ([DOP853.A[s, :s] for s in range(_STAGES)] + [DOP853.B]
      + [a[:s] for s, a in enumerate(DOP853.A_EXTRA, start=_STAGES + 1)])
_C, _E3, _E5, _D = DOP853.C, DOP853.E3, DOP853.E5, DOP853.D


def _lane_sum(coeffs, K):
    """sum_j coeffs[j] K[j] per column, added in the same order whatever the
    number of columns (a BLAS product would round by call size)."""
    return np.einsum("j,jk->k", coeffs, K)


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


def _dense_output(r, y_old, F):
    """scipy's Dop853DenseOutput on every accepted step [r[k], r[k+1]]; a
    radius on a step end takes the step before it, as OdeSolution does."""
    def dense(rr):
        k = np.clip(np.searchsorted(r, rr) - 1, 0, r.size - 2)
        x = (rr - r[k]) / (r[k + 1] - r[k])
        y = np.zeros((2,) + np.shape(rr))
        for i, f in enumerate(F[::-1]):
            y += f[:, k]
            y *= x if i % 2 == 0 else 1 - x
        return y + y_old[:, k]
    return dense


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _departures(params: Parameters, heights, r_max: float, tol: float,
                dense: bool = False):
    """Departure signs of many shots at once, or with dense their trajectories.

    Every lane takes the steps of solve_ivp(method="DOP853") restarted at
    R_SPLIT, and stops at its first accepted step where an event fires.  The
    departure is -1 where w crosses zero (alone, or with the rebound that an
    upward crossing opens), +1 where the cap or the rebound fires alone, and
    0 for equilibria and where the events do not decide: no event by r_max,
    a failed step, or another pair of events in one step.  A lane's
    arithmetic does not depend on the other lanes of the call.  With dense,
    every lane also keeps its accepted steps' dense-output rows, and the
    call returns one labelled OdeTrajectory per height.
    """
    n, p, kap = params.n, params.p, params.kappa
    rhs = _rhs(n, p)
    rtol = max(tol, 100 * np.finfo(float).eps)    # solve_ivp's rtol floor
    atol = min(tol * 1e-2, 1e-14)
    pm1 = p - 1.0
    a = np.asarray(heights, dtype=float)
    out = np.zeros(a.size, dtype=int)
    reached = np.zeros(a.size, dtype=bool)        # r_max without an event
    r_split = min(R_SPLIT, r_max)
    stages = len(_A) if dense else _STAGES + 1
    # exact equilibria (a = 0 included) are labelled, not integrated: their
    # roundoff would only grow
    const = (np.abs(a / pm1 - np.abs(a) ** pm1 * a)
             <= 1e-13 * np.maximum(np.abs(a), 1e-30))
    y_start = np.where(const, [a, np.zeros_like(a)],
                       _taylor_start(a, n, p, R_START))
    # dense rows per accepted step: lane, step end r and y, interpolant F;
    # an equilibrium is one constant step to r_max
    steps = [(np.flatnonzero(const), np.full(const.sum(), r_max),
              y_start[:, const], np.zeros((3 + len(_D), 2, const.sum())))]

    lane = np.flatnonzero(~const)
    r = np.full(lane.size, R_START)
    y = y_start[:, lane]
    f = np.array(rhs(r, y))
    cap = CAP_MULT * np.maximum(np.abs(a[lane]), kap)
    g = _event_values(y, cap, kap)
    bound = np.full(lane.size, r_split)
    max_step = np.full(lane.size, MAX_STEP_CORE)
    h = _initial_step(rhs, r, y, f, bound, max_step, rtol, atol)
    retry = np.zeros(lane.size, dtype=bool)
    while lane.size:
        min_step = 10 * np.abs(np.nextafter(r, np.inf) - r)
        h = np.where(retry, h, np.minimum(np.maximum(h, min_step), max_step))
        failed = ~(h >= min_step)                  # a NaN step fails too
        r_new = np.minimum(r + h, bound)
        h = r_new - r
        m = lane.size
        # radii of every stage after the first (the step end is r_new) and
        # their drift coefficients, each in one array pass
        rs = np.vstack((r + _C[1:, None] * h, r_new,
                        r + DOP853.C_EXTRA[:, None] * h))[:stages - 1]
        drift = -((n - 1) / rs - 0.5 * rs)
        K = np.empty((stages, 2 * m))          # stage s holds (w', w'') lanes
        K3 = K.reshape(stages, 2, m)
        K3[0] = f
        for s in range(1, stages):
            ys = y + _lane_sum(_A[s], K[:s]).reshape(2, m) * h
            if s == _STAGES:
                y_new = ys
            w, dw = ys
            K3[s, 0] = dw
            K3[s, 1] = drift[s - 1] * dw + w / pm1 - np.abs(w) ** pm1 * w
        f_new = K3[_STAGES]
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        x5 = _lane_sum(_E5, K[:_STAGES + 1]).reshape(2, m) / scale
        x3 = _lane_sum(_E3, K[:_STAGES + 1]).reshape(2, m) / scale
        e5 = x5[0] * x5[0] + x5[1] * x5[1]
        e3 = x3[0] * x3[0] + x3[1] * x3[1]
        err = np.where((e5 == 0) & (e3 == 0), 0.0,
                       h * e5 / np.sqrt((e5 + 0.01 * e3) * 2))
        gain = SAFETY * err ** _ERROR_EXPONENT
        ok = (err < 1) & ~failed
        if dense and ok.any():
            # rk.DOP853._dense_output_impl's interpolant rows of the step
            dy = y_new - y
            F = np.concatenate((
                [dy, h * f - dy, 2 * dy - h * (f_new + f)],
                np.einsum("ij,jk->ik", _D, K).reshape(len(_D), 2, m) * h))
            steps.append((lane[ok], r_new[ok], y_new[:, ok], F[:, :, ok]))
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
            # a zero crossing upward opens the rebound window in its own
            # step, so a zero firing with the rebound still comes first
            out[lane[done]] = np.where(fired[0] & ~fired[1], -1,
                                       np.where(count == 1, 1, 0))[done]
            reached[lane[done]] = (at_bound & ~switch)[done]
            keep = ~done
            lane, r, h, retry, bound, max_step, cap = (
                v[keep] for v in (lane, r, h, retry, bound, max_step, cap))
            y, f, g = y[:, keep], f[:, keep], g[:, keep]
    if not dense:
        return out

    lanes, r_step, y_step, F = (np.concatenate(v, axis=-1)
                                for v in zip(*steps))
    trajs = []
    for i, x in enumerate(a):
        k = lanes == i
        r = np.concatenate(([R_START], r_step[k]))
        y = np.hstack((y_start[:, i:i + 1], y_step[:, k]))
        sampler = _dense_output(r, y[:, :-1], F[:, :, k])
        label = (INCONCLUSIVE_CONSTANT if const[i] else
                 SIGN_CHANGING if out[i] < 0 else GROWING if out[i] > 0 else
                 _tail_label(params, r[-1], sampler) if reached[i] else
                 INCONCLUSIVE)
        trajs.append(OdeTrajectory(x, params, r, y[0], y[1], label, r[-1],
                                   int(out[i]), dense=sampler))
    return trajs


def scan_initial_values(params: Parameters, a_values,
                        r_max: float = R_MAX, tol: float = 1e-10) -> list:
    """Classify a grid of initial heights; returns (a, label, departure) rows.

    Heights the events leave undecided get their label from one trajectory
    call.
    """
    a = np.asarray(a_values, dtype=float)
    _check_inputs(a, tol)
    dep = _departures(params, a, r_max, tol)
    rows = [(float(x), SIGN_CHANGING if d < 0 else GROWING, int(d))
            for x, d in zip(a, dep)]
    undecided = np.flatnonzero(dep == 0)
    for k, traj in zip(undecided, _departures(params, a[undecided], r_max, tol,
                                              dense=True)):
        rows[k] = (float(a[k]), traj.classification, traj.departure)
    return rows


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
    round also classifies the two bracket ends.  Lanes the kernel leaves
    undecided above the flip are never looked at; an undecided flip
    candidate ends the search.  One 3-lane call then gives the final bracket
    ends' trajectories, which sandwich the decaying orbit, and the midpoint
    shot; the returned profile is the midpoint shot truncated where the
    sandwich width exceeds 1e-9, with the tail coefficient fitted from
    q = r^{2/(p-1)} w.
    """
    _check_inputs([a_lo, a_hi], SHOOT_TOL)
    if not a_lo < a_hi:
        raise ParameterError(f"bracket needs a_lo < a_hi, got a_lo={a_lo} "
                             f"and a_hi={a_hi}")

    inner = _sections(a_lo, a_hi)
    deps = _departures(params, [a_lo, *inner, a_hi], R_MAX, SHOOT_TOL).tolist()
    lo_dep, hi_dep = deps[0], deps[-1]
    if lo_dep == 0 or hi_dep == 0 or lo_dep == hi_dep:
        raise ShootingError(
            f"no bracket: departures are {lo_dep} at a={a_lo} "
            f"and {hi_dep} at a={a_hi}")
    lo_a, hi_a = a_lo, a_hi
    while inner:
        heights = [lo_a, *inner, hi_a]
        k = next(k for k, d in enumerate(deps) if d != lo_dep)
        if deps[k] == 0:
            raise ShootingError(f"inconclusive trajectory at a={heights[k]}")
        lo_a, hi_a = heights[k - 1], heights[k]
        inner = _sections(lo_a, hi_a)
        if inner:
            deps = [lo_dep, *_departures(params, inner, R_MAX,
                                         SHOOT_TOL).tolist(), hi_dep]
    a_star = 0.5 * (lo_a + hi_a)

    # the final lanes repeat the multisection's own lo and hi lanes
    lo, hi, mid = _departures(params, [lo_a, hi_a, a_star], R_MAX, SHOOT_TOL,
                              dense=True)
    r_common = min(lo.r_end, hi.r_end, mid.r_end) * 0.999
    probe = np.linspace(R_START, r_common, 1500)
    gap = np.abs(lo.sample(probe)[0] - hi.sample(probe)[0])
    ok = probe[gap <= 1e-9]
    r_cut = (ok[-1] if ok.size else r_common) * 0.98

    # fine spacing through the nonlinear core (steep for large a), coarser tail
    core_end = min(0.5, 0.5 * r_cut)
    grid = np.concatenate([
        np.arange(R_START, core_end, GRID_STEP / 4.0),
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
