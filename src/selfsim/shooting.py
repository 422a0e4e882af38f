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
vector of heights at once as numpy arrays.  Each lane repeats the steps of
one ``solve_ivp(method="DOP853")`` call from R_START to r_max, with no
``max_step``: the same tableau and initial step, the same error norm and
step-size controller, and the same event rule at accepted-step ends.  So the
tolerance alone sizes the steps, and a long step could jump over a rebound
whose minimum lies inside it.  One guard closes that gap: a step whose
rebound value is negative at both ends, whose w range meets the rebound
window and one of whose stage slopes w' is positive is rejected and halved,
until the minimum lies between two step ends.  That guard is the one place
where a lane may take more steps than ``solve_ivp``.  A lane's arithmetic
does not depend on how many lanes share its call: every stage and error sum
adds its terms in a fixed order per lane.  So the final
3-lane call of ``shoot`` repeats the multisection's decisions on the final
bracket ends bit for bit.  On request the kernel also keeps each accepted
step's dense-output rows, built as ``DOP853._dense_output_impl`` builds
them, and returns trajectories whose ``sample`` evaluates them as
``Dop853DenseOutput`` does; ``integrate_radial`` is such a one-lane call.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
try:    # np.einsum's own C kernel, minus a dispatch that outweighs few lanes
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:     # numpy 1.x keeps it elsewhere; the public name works
    _einsum = np.einsum
# not called here: perfbench/tracing.py wraps shooting.solve_ivp by name
from scipy.integrate import solve_ivp  # noqa: F401
# private scipy module: the DOP853 tableau, dense-output stages and
# controller factors that solve_ivp itself steps with, so the lane kernel
# cannot drift from it
from scipy.integrate._ivp.rk import DOP853, MAX_FACTOR, MIN_FACTOR, SAFETY

from .core import (KIND_SHOOTING, ParameterError, Parameters, RadialProfile,
                   SelfsimError)
from .numerics import derivative_on_grid

SIGN_CHANGING = "sign_changing"
GROWING = "growing"
INCONCLUSIVE = "inconclusive"
INCONCLUSIVE_CONSTANT = "inconclusive_constant"

R_START = 1e-6     # radius of the Taylor start
R_MAX = 30.0       # end of every shot
# events: a rebound is a local minimum of w below this fraction of kappa;
# the cap is this multiple of max(|a|, kappa)
REBOUND_FRACTION = 0.75
CAP_MULT = 10.0
EVENT_DIRECTIONS = np.array([0, 0, 1])    # zero, cap, rebound
# integrator tolerance of a scan
SCAN_TOL = 1e-10
# heights tried per multisection round of shoot: 8 bits a round
SECTIONS = 255
_FRACTIONS = np.arange(1, SECTIONS + 1) / (SECTIONS + 1)
# shoot: integrator tolerance, relative bracket width that ends the
# multisection, largest accepted equation residual, and the tail grid step
# of the returned profile (a quarter of it through the core)
SHOOT_TOL = 3e-14
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
    r: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    classification: str
    departure: int = 0        # -1 crossed zero, +1 rebounded upward, 0 neither
    dense: object = field(default=None, repr=False)

    def sample(self, r):
        if self.r.size < 2:
            raise ShootingError(f"the shot at a={self.a} failed before its "
                                f"first accepted step; it has no trajectory "
                                f"to sample")
        w, dw = self.dense(np.asarray(r, dtype=float))
        return w, dw


def _event_signs(w, dw, cap, kap):
    """Signs of the terminal events at lane states (w, w'), one row each: w
    crosses zero, |w| reaches the cap, or w has a local minimum inside the
    sub-kappa tail regime (rebound).  The event rule reads only signs."""
    return np.sign([w, np.abs(w) - cap,
                    np.where((0.0 < w) & (w < REBOUND_FRACTION * kap), dw,
                             -1.0)])


def _fired(s, s_new):
    """solve_ivp's rule for events that fire between two accepted steps: the
    event value reaches or crosses zero, in its direction if it has one.

    s, s_new: event signs, one row per event and one column per lane; a NaN
    sign fires nothing.
    """
    return (s * s_new <= 0) & (EVENT_DIRECTIONS[:, None] * (s_new - s) >= 0)


def _hidden_rebound(w, w_new, s, s_new, slopes, kap):
    """Lanes whose step may jump over a rebound: the rebound sign is
    negative at both step ends, the step's w range meets the rebound window,
    and a stage slope w' (one row per stage) is positive."""
    return ((np.maximum(s, s_new) < 0)
            & (np.maximum(w, w_new) > 0.0)
            & (np.minimum(w, w_new) < REBOUND_FRACTION * kap)
            & (slopes > 0).any(axis=0))


def _check_inputs(a, tol: float) -> None:
    if not np.all(np.isfinite(a)):
        raise ParameterError("initial height must be finite")
    if not (1e-14 < tol < 1e-4):
        raise ParameterError(f"tolerance {tol} outside the supported range")


def _equilibria(params: Parameters, a: np.ndarray) -> np.ndarray:
    """Heights that are exact equilibria (a = 0 included): g(a) vanishes to
    rounding.  They are labelled, not integrated: their roundoff would only
    grow."""
    return np.abs(params.reaction(a)) <= 1e-13 * np.maximum(np.abs(a), 1e-30)


def _label(departure: int, equilibrium: bool) -> str:
    """A shot's label: constant at an equilibrium, else its departure's,
    inconclusive where no departure decides."""
    if equilibrium:
        return INCONCLUSIVE_CONSTANT
    return (SIGN_CHANGING if departure < 0 else GROWING if departure > 0
            else INCONCLUSIVE)


def integrate_radial(params: Parameters, a: float,
                     tol: float = 1e-12) -> OdeTrajectory:
    """Integrate one shot to R_MAX and label its departure from the decaying
    tail."""
    _check_inputs(a, tol)
    return _departures(params, [a], R_MAX, tol, dense=True)[0]


# ------------------------------------------------------------- lane kernel
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_STAGES = DOP853.n_stages
# stage weights: the step end y_new is stage _STAGES, with the weights B;
# the three stages after it feed only the dense output
_A = ([DOP853.A[s, :s] for s in range(_STAGES)] + [DOP853.B]
      + [a[:s] for s, a in enumerate(DOP853.A_EXTRA, start=_STAGES + 1)])
# stage s > 0 sits at r + _C[s - 1] h, except the step end r_new (row 1.0):
# r + h may round away from it
_C = np.concatenate((DOP853.C[1:], [1.0], DOP853.C_EXTRA))[:, None]
_E, _D = np.array([DOP853.E5, DOP853.E3]), DOP853.D


def _rms(x):
    """scipy's RMS norm over the two components of every lane."""
    return np.sqrt(np.sum(x * x, axis=0)) / x.shape[0] ** 0.5


def _initial_step(rhs, r, y, f, bound, rtol, atol):
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
    return np.minimum(np.minimum(100 * h0, h1), interval)


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
                dense: bool = False, work: Counter | None = None):
    """Departure signs of many shots at once, or with dense their trajectories.

    Every lane takes the steps of solve_ivp(method="DOP853") from R_START to
    r_max, and stops at its first accepted step where an event fires.  A step
    that may hide a rebound is rejected and halved (_hidden_rebound).  The
    departure is -1 where w crosses zero (alone, or with the rebound that an
    upward crossing opens), +1 where the cap or the rebound fires alone, and
    0 for equilibria and where the events do not decide: no event by r_max,
    a failed step, or another pair of events in one step.  A lane's
    arithmetic does not depend on the other lanes of the call.  A step costs
    numpy's per-call overhead more than arithmetic, so one that every lane
    takes with no event sign change, rising stage slope or r_max skips the
    per-lane rejection, event and drop logic.  With dense, every lane also
    keeps its accepted steps' dense-output rows, and the call returns one
    OdeTrajectory per height, labelled by _label.  A work Counter, when
    given, adds the call's kernel_calls, lane_steps (step attempts summed
    over lanes) and hidden_rebound_rejections.
    """
    rhs = lambda r, y: (y[1], params.second_deriv(params.drift(r), *y))
    kap = params.kappa
    rtol = max(tol, 100 * np.finfo(float).eps)    # solve_ivp's rtol floor
    atol = min(tol * 1e-2, 1e-14)
    a = np.asarray(heights, dtype=float)
    out = np.zeros(a.size, dtype=int)
    lane_steps = hidden_rejections = 0
    stages = len(_A) if dense else _STAGES + 1
    const = _equilibria(params, a)
    w2 = params.reaction(a) / params.n    # w''(0), for the Taylor start
    y_start = np.where(const, [a, np.zeros_like(a)],
                       [a + 0.5 * w2 * R_START**2, w2 * R_START])
    # dense rows per accepted step: lane, step end r and y, interpolant F;
    # an equilibrium is one constant step to r_max
    steps = [(np.flatnonzero(const), np.full(const.sum(), r_max),
              y_start[:, const], np.zeros((3 + len(_D), 2, const.sum())))]

    lane = np.flatnonzero(~const)
    m = lane.size
    r = np.full(m, R_START)
    y = y_start[:, lane]
    f = np.array(rhs(r, y))
    cap = CAP_MULT * np.maximum(np.abs(a[lane]), kap)
    sg = _event_signs(*y, cap, kap)
    h = _initial_step(rhs, r, y, f, r_max, rtol, atol)
    # from here a lane state is flat: the m values of w, then the m of w'
    y, f = y.ravel(), f.ravel()
    retry = None                 # lanes whose last step was rejected, if any
    while m:
        min_step = 10 * np.spacing(r)
        h = (np.maximum(h, min_step) if retry is None else
             np.where(retry, h, np.maximum(h, min_step)))
        valid = h >= min_step                      # a NaN step fails
        r_new = np.minimum(r + h, r_max)
        h = r_new - r
        h2 = np.concatenate((h, h))
        lane_steps += m
        # radii and drift coefficients of every stage after the first, each
        # in one array pass
        rs = r + _C[:stages - 1] * h
        rs[_STAGES - 1] = r_new
        drift = params.drift(rs)
        K = np.empty((stages, 2 * m))    # stage s: its w' lanes, then its w''
        K[0] = f
        for s in range(1, stages):
            # einsum adds the stages in order; a BLAS product would round by
            # the lane count
            ys = y + _einsum("j,jk->k", _A[s], K[:s]) * h2
            if s == _STAGES:
                y_new = ys
            K[s, :m] = dw = ys[m:]
            K[s, m:] = params.second_deriv(drift[s - 1], ys[:m], dw)
        f_new = K[_STAGES]
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        x = _einsum("ij,jk->ik", _E, K[:_STAGES + 1]) / scale
        x = x * x
        e5, e3 = x[:, :m] + x[:, m:]
        err = np.where(e5 + e3 == 0, 0.0,
                       h * e5 / np.sqrt((e5 + 0.01 * e3) * 2))
        gain = SAFETY * err ** _ERROR_EXPONENT
        grow = np.minimum(MAX_FACTOR, gain)        # err = 0 gives gain = inf
        if retry is not None:
            grow = np.where(retry, np.minimum(1, grow), grow)
        accept = (err < 1) & valid
        sg_new = _event_signs(y_new[:m], y_new[m:], cap, kap)
        if dense:
            # rk.DOP853._dense_output_impl's interpolant rows of the step
            dy = y_new - y
            F = np.vstack((dy, h2 * f - dy, 2 * dy - h2 * (f_new + f),
                           _einsum("ij,jk->ik", _D, K) * h2)).reshape(-1, 2, m)
        # all lanes step on when all are accepted, no event sign changes, no
        # stage slope rises (no rebound hides) and none is at r_max
        if (np.count_nonzero(accept) == m
                and not np.count_nonzero(sg * sg_new <= 0)
                and not np.count_nonzero(K[1:_STAGES, :m] > 0)
                and not np.count_nonzero(r_new >= r_max)):
            if dense:
                steps.append((lane, r_new, y_new.reshape(2, m), F))
            h = h * grow
            r, y, f, sg, retry = r_new, y_new, f_new, sg_new, None
            continue

        hidden = accept & _hidden_rebound(y[:m], y_new[:m], sg[2], sg_new[2],
                                          K[1:_STAGES, :m], kap)
        hidden_rejections += int(np.count_nonzero(hidden))
        ok = accept & ~hidden
        if dense:
            steps.append((lane[ok], r_new[ok], y_new.reshape(2, m)[:, ok],
                          F[:, :, ok]))
        h = h * np.where(ok, grow, np.where(hidden, 0.5,
                                            np.maximum(MIN_FACTOR, gain)))
        fired = _fired(sg, sg_new) & ok
        ok2 = np.concatenate((ok, ok))
        r = np.where(ok, r_new, r)
        y, f = np.where(ok2, y_new, y), np.where(ok2, f_new, f)
        sg = np.where(ok, sg_new, sg)
        retry = ~ok
        count = fired.sum(axis=0)
        at_bound = ok & (count == 0) & (r >= r_max)
        done = ~valid | (count > 0) | at_bound
        if np.count_nonzero(done):
            # a zero crossing upward opens the rebound window in its own
            # step, so a zero firing with the rebound still comes first
            out[lane[done]] = np.where(fired[0] & ~fired[1], -1,
                                       np.where(count == 1, 1, 0))[done]
            keep = ~done
            keep2 = np.concatenate((keep, keep))
            lane, r, h, retry, cap = (v[keep] for v in (lane, r, h, retry, cap))
            y, f, sg = y[keep2], f[keep2], sg[:, keep]
            m = lane.size
    if work is not None:
        work.update(kernel_calls=1, lane_steps=lane_steps,
                    hidden_rebound_rejections=hidden_rejections)
    if not dense:
        return out

    lanes, r_step, y_step, F = (np.concatenate(v, axis=-1)
                                for v in zip(*steps))
    trajs = []
    for i, x in enumerate(a):
        k = lanes == i
        r = np.concatenate(([R_START], r_step[k]))
        y = np.hstack((y_start[:, i:i + 1], y_step[:, k]))
        trajs.append(OdeTrajectory(
            x, r, y[0], y[1], _label(out[i], const[i]), int(out[i]),
            dense=_dense_output(r, y[:, :-1], F[:, :, k])))
    return trajs


def scan_initial_values(params: Parameters, a_values) -> list:
    """Classify a grid of initial heights in one kernel call at SCAN_TOL;
    returns (a, label, departure) rows, labelled as integrate_radial's."""
    a = np.asarray(a_values, dtype=float)
    if a.ndim != 1:
        raise ParameterError(f"scan heights must be 1-D, got shape {a.shape}")
    _check_inputs(a, SCAN_TOL)
    dep = _departures(params, a, R_MAX, SCAN_TOL)
    return [(float(x), _label(d, eq), int(d))
            for x, d, eq in zip(a, dep, _equilibria(params, a))]


def find_brackets(params: Parameters, a_values) -> list[tuple[float, float]]:
    """Adjacent scan pairs whose departure direction flips (shooting brackets);
    the heights must increase strictly, so every pair is a bracket."""
    if np.any(np.diff(np.ravel(a_values)) <= 0):
        raise ParameterError("scan heights must increase strictly")
    return _brackets(scan_initial_values(params, a_values))


def _brackets(rows) -> list[tuple[float, float]]:
    """Adjacent scan rows (a, label, departure) of opposite departures."""
    return [(a0, a1) for (a0, _, d0), (a1, _, d1) in zip(rows, rows[1:])
            if d0 * d1 < 0]


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
    q = r^{2/(p-1)} w.  Its meta holds the kernel work of the whole search:
    kernel_calls, lane_steps and hidden_rebound_rejections.
    """
    _check_inputs([a_lo, a_hi], SHOOT_TOL)
    if not a_lo < a_hi:
        raise ParameterError(f"bracket needs a_lo < a_hi, got a_lo={a_lo} "
                             f"and a_hi={a_hi}")

    work = Counter()
    inner = _sections(a_lo, a_hi)
    deps = _departures(params, [a_lo, *inner, a_hi], R_MAX, SHOOT_TOL,
                       work=work).tolist()
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
            deps = [lo_dep, *_departures(params, inner, R_MAX, SHOOT_TOL,
                                         work=work).tolist(), hi_dep]
    a_star = 0.5 * (lo_a + hi_a)

    # the final lanes repeat the multisection's own lo and hi lanes
    lo, hi, mid = _departures(params, [lo_a, hi_a, a_star], R_MAX, SHOOT_TOL,
                              dense=True, work=work)
    r_common = min(lo.r[-1], hi.r[-1], mid.r[-1]) * 0.999
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
    w2 = params.second_deriv(params.drift(grid), w, dw)
    profile = RadialProfile(kind=KIND_SHOOTING, params=params, grid=grid,
                            values=w, derivs=dw, decay_coeff=decay_coeff,
                            second_derivs=w2,
                            meta={"a": a_star, "axis_value": a_star,
                                  "bracket": (lo_a, hi_a), "r_cut": r_cut,
                                  **work})
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
    r, w, dw = profile.grid, profile.values, profile.derivs
    if profile.is_constant:
        d2 = np.zeros_like(w)
    else:
        d2 = derivative_on_grid(r, dw, order=1, stencil=RESIDUAL_STENCIL)
    res = d2 - profile.params.second_deriv(profile.params.drift(r), w, dw)
    interior = slice(3, -3) if len(r) > 12 else slice(1, -1)
    return float(np.max(np.abs(res[interior])))
