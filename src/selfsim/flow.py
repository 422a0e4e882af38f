"""Time stepping for the rescaled reaction-diffusion flow

    dw/dtau = w'' + ((n-1)/r - r/2) w' - w/(p-1) + |w|^{p-1} w

with blow-up detection, Lyapunov-energy monitoring and the eigenfunction
perturbation experiment.

The stepper is a Strang splitting: the reaction -w/(p-1) + |w|^{p-1} w is
advanced exactly, w(dt) = w b^{-1/(p-1)} with
b = e^{dt} - (p-1)(e^{dt}-1)|w|^{p-1} (the scalar flow of v = |w|^{1-p},
v' = v - (p-1), solved for w), and the diffusion-drift part is a
Crank-Nicolson solve of the conservative flux form (1/m)(m w')' with
m = r^{n-1} e^{-r^2/4}, taken in increment form w + (I - dt/2 D)^{-1} dt D w.
The reaction also gives |w(dt)|^{p-1} = |w|^{p-1}/b, which the next
reaction and the energy of the accepted state reuse.  Spatially constant
data under the no-flux boundary has D w = 0 exactly, so it follows the
exact scalar solution and the constant equilibrium comes back bit for bit.

Each step chooses its size from an estimate of its own local error (step
doubling): an attempt of dt takes one Strang step of dt and two of dt/2,
keeps the two halves, and accepts when their distance to the single step in
the Gaussian-weighted (quad_w) norm is at most ERROR_TOL times the norm of
w off its weighted mean (constant data is exact, so a perturbation of a
constant is resolved relative to itself), plus ERROR_FLOOR times the norm
of w for rounding.  The sizes are the levels dt_max 2^{-k}, so the
tridiagonal Crank-Nicolson matrices are LU-factored (LAPACK gttrf) once per
level and every solve reuses the factors (gttrs).  A step is also at most
REACTION_SAFETY of the scalar time to blow-up from sup |w|, and it must not
raise the energy by more than ENERGY_SLACK; the last step of a run lands on
tau_max.

The run's dtau w diagnostics (min_dtau_w and the convergence stop) read
the semi-discrete right-hand side F(w) = D w - w/(p-1) + |w|^{p-1} w in
every cell at each accepted state, which the energy falls along at the rate
sum quad_w F^2.

D's cells, couplings and diagonal are the l = 0 sector's from
spectrum._radial_cells, so F's linearization is minus build_sector's matrix
bit for bit, and the energy's gradient term is D's quadratic form in the
cell-weight inner product: the energy is the scheme's own Lyapunov functional.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .closedform import kappa_energy
from .core import (GRID_R_MAX, KIND_SINGULAR, KIND_TABULATED, ParameterError,
                   Parameters, RadialProfile, SelfsimError)
from .functionals import entropy
from .spectrum import _radial_cells, first_eigenfunction

OUTCOME_BLEWUP = "blew_up"
OUTCOME_CONVERGED = "converged_to_profile"
OUTCOME_MAXTIME = "reached_max_time"

BC_NOFLUX = "noflux"
BC_DIRICHLET = "dirichlet"

DT_MIN = 1e-13
BLOWUP_CAP_MULT = 1e3     # in units of kappa
ENERGY_SLACK = 1e-7       # tolerated per-step energy increase
REACTION_SAFETY = 0.25    # fraction of scalar time-to-blow-up
ERROR_TOL = 1e-5          # local error per step, relative to w off its mean
ERROR_FLOOR = 1e-14       # local error per step relative to w: rounding
ERROR_SAFETY = 0.8        # margin on the size the error estimate proposes
MAX_STEPS = 200000        # step budget of one run
NEWTON_STEPS = 6          # steps of the steady-state solve
NEWTON_TOL = 1e-11        # its rho-norm residual, or the rounding floor


@dataclass
class FlowConfig:
    n_points: int = 800
    bc: str = BC_NOFLUX
    dt_max: float = 1.0
    conv_tol: float = 1e-7

    def __post_init__(self):
        if self.bc not in (BC_NOFLUX, BC_DIRICHLET):
            raise ParameterError(f"boundary condition must be {BC_NOFLUX!r} "
                                 f"or {BC_DIRICHLET!r}, got {self.bc!r}")
        # three cells: scipy's gttrf takes no 2 x 2 system
        if not float(self.n_points).is_integer() or self.n_points < 3:
            raise ParameterError(f"n_points must be an integer of at least 3, "
                                 f"got {self.n_points}")
        # no step is taken below DT_MIN
        if not DT_MIN <= self.dt_max < math.inf:
            raise ParameterError(f"dt_max must be finite and at least "
                                 f"DT_MIN = {DT_MIN}, got {self.dt_max}")
        # conv_tol = 0 switches the convergence stop off
        if not self.conv_tol >= 0.0:
            raise ParameterError(f"conv_tol must be nonnegative, "
                                 f"got {self.conv_tol}")


@dataclass
class StepCounts:
    """What the steps of a run did: accepted steps, rejected attempts by
    cause, and the largest local error estimate of an accepted step."""
    accepted: int = 0
    rejected_by_error: int = 0
    rejected_by_energy: int = 0
    rejected_by_reaction: int = 0
    max_error_estimate: float = 0.0


@dataclass
class SteadyState:
    """Newton's solve of F(W) = 0 from the sampled profile w: its steps, the
    rho-norm of F(W_h) and max |W_h - w|."""
    newton_steps: int
    residual: float
    shift: float


@dataclass
class FlowState:
    params: Parameters
    cfg: FlowConfig
    tau: float
    r: np.ndarray
    w: np.ndarray
    dt: float
    machinery: dict = field(default_factory=dict)
    exhausted: bool = False
    tau_stop: float = math.inf    # steps land on it rather than pass it
    counts: StepCounts = field(default_factory=StepCounts)
    steady: Optional[SteadyState] = None   # the start's solve, if any
    # what the flow knows of the array it accepted, valid while accepted_of
    # is state.w: its energy, |w|^{p-1}, sup |w| and the step size the error
    # estimate proposes next.  Rebinding state.w invalidates all four; w is
    # never changed in place.
    accepted_of: Optional[np.ndarray] = None
    energy: float = math.nan
    power: Optional[np.ndarray] = None
    sup: float = math.nan
    dt_next: float = math.nan


@dataclass
class FlowReport:
    outcome: str
    tau_end: float
    tau1: Optional[float]
    series: dict
    final_w: np.ndarray
    r: np.ndarray
    blowup_location: Optional[float] = None
    type1_indicator: Optional[float] = None
    min_dtau_w: float = math.nan
    max_energy_increase: float = 0.0   # largest rise of the energy series
    energy_monotone: bool = True       # that rise is at most ENERGY_SLACK
    criterion_exceeded: bool = False   # weighted average went above kappa
    flags: list = field(default_factory=list)
    steps: StepCounts = field(default_factory=StepCounts)
    steady: Optional[SteadyState] = None


def _build_machinery(params: Parameters, cfg: FlowConfig) -> dict:
    r, mbar, low, faces_out, outer = _radial_cells(params.n, cfg.n_points)
    outer_flux = outer if cfg.bc == BC_DIRICHLET else 0.0
    with np.errstate(all="ignore"):
        faces_out[-1] += 2.0 * outer_flux               # -mbar D's diagonal
        quad_w = mbar / mbar.sum()
        finite = np.isfinite(faces_out / mbar).all() and \
            np.isfinite(quad_w).all()
    if not finite:
        raise ParameterError(f"the flow's cell weights r^(n-1) e^(-r^2/4) "
                             f"leave the float range at n={params.n} with "
                             f"{cfg.n_points} cells")
    return {"r": r, "low": low, "mbar": mbar, "faces_out": faces_out,
            "volume": mbar.sum(), "quad_w": quad_w, "outer_flux": outer_flux}


def _apply_diffusion(mach: dict, w: np.ndarray) -> np.ndarray:
    flux = mach["low"] * (w[1:] - w[:-1])
    out = np.empty_like(w)
    out[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=out[1:-1])
    # Dirichlet: w = 0 at the face GRID_R_MAX; no-flux has outer_flux = 0
    out[-1] = -flux[-1] - mach["outer_flux"] * w[-1] * 2.0
    out /= mach["mbar"]
    return out


def _factor(mach: dict, s, c: float) -> tuple:
    """LU factors (LAPACK gttrf) of the tridiagonal matrix diag(s) - c D:
    the Crank-Nicolson matrix (s = 1, c = dt/2) and minus Newton's Jacobian
    of F (s = 1/(p-1) - p |w|^{p-1}, c = 1)."""
    low, mbar = mach["low"], mach["mbar"]
    *lu, info = dgttrf(-c * low / mbar[1:], s + c * mach["faces_out"] / mbar,
                       -c * low / mbar[:-1])
    if info != 0:
        raise SelfsimError(f"diag(s) - {c} D is singular (gttrf info {info})")
    return tuple(lu)


def _cn_banded(mach: dict, dt: float) -> tuple:
    """_factor of the Crank-Nicolson matrix, once per dt: a run takes the
    levels dt_max 2^{-k} and its last step's remainder."""
    cache = mach.setdefault("cn", {})
    if dt not in cache:
        cache[dt] = _factor(mach, 1.0, 0.5 * dt)
    return cache[dt]


def solve_banded(lu: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solution of the system from _factor's factors.

    rhs is a temporary: the solve may overwrite it.
    """
    return dgttrs(*lu, rhs, overwrite_b=1)[0]


def _diffuse(mach: dict, w: np.ndarray, dt: float) -> np.ndarray:
    """Crank-Nicolson step of dt in increment form,
    w + (I - dt/2 D)^{-1} (dt D w): data with D w = 0 comes back exactly."""
    rhs = _apply_diffusion(mach, w)
    rhs *= dt
    return w + solve_banded(_cn_banded(mach, dt), rhs)


def _react_exact(w: np.ndarray, dt: float, p: float,
                 power: Optional[np.ndarray] = None) -> Optional[tuple]:
    """Exact reaction flow over dt: (w(dt), |w(dt)|^{p-1}), or None if an
    entry blows up inside dt.

    power is |w|^{p-1} when the caller has it.  With E = e^{dt} the flow of
    v = |w|^{1-p}, v(dt) = (p-1) + (v - (p-1)) E, reads
    w(dt) = w b^{-1/(p-1)} with b = E - (p-1)(E-1)|w|^{p-1}, and an entry
    blows up inside dt iff b <= 0 (a NaN also counts as blow-up).  b is
    formed as 1 + (E-1)(1 - (p-1)|w|^{p-1}) with E - 1 from expm1, which
    keeps a short step's full precision.  Zero entries stay +0.0, and
    entries so small that |w|^{p-1} underflows get their exact decayed value
    w e^{-dt/(p-1)}.  Callers ignore overflow.
    """
    if power is None:
        power = np.abs(w) ** (p - 1.0)
    b = 1.0 - (p - 1.0) * power
    b *= math.expm1(dt)
    b += 1.0
    if not b.min() > 0.0:
        return None
    w_new = w * b ** (-1.0 / (p - 1.0))
    w_new += 0.0        # -0.0 -> +0.0
    return w_new, power / b


def init_flow(initial: RadialProfile, cfg: Optional[FlowConfig] = None,
              eigenfunction: Optional[Callable] = None,
              amplitude: float = 0.0) -> FlowState:
    """State at tau = 0 from a profile (a non-constant solution as its
    _steady_state), optionally plus amplitude * f, under cfg (default:
    FlowConfig(), the no-flux boundary)."""
    if initial.kind == KIND_SINGULAR:
        raise ParameterError("the flow needs bounded initial data; the "
                             "singular profile is unbounded at r = 0")
    cfg = cfg if cfg is not None else FlowConfig()
    mach = _build_machinery(initial.params, cfg)
    r = mach["r"]
    w, steady = initial.value(r).copy(), None
    if initial.is_solution and not initial.is_constant:
        w, steady = _steady_state(mach, w, initial.params.p)
    if eigenfunction is not None and amplitude != 0.0:
        w = w + amplitude * np.asarray(eigenfunction(r), dtype=float)
    state = FlowState(params=initial.params, cfg=cfg, tau=0.0, r=r, w=w,
                      dt=cfg.dt_max, machinery=mach, steady=steady)
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(w) ** (initial.params.p - 1.0)
        _accept(state, w, power, _energy(mach, w, power, initial.params.p),
                cfg.dt_max)
    _require_finite(w, state.energy, "initial data")
    return state


@np.errstate(over="ignore", invalid="ignore")
def _steady_state(mach: dict, w: np.ndarray, p: float) -> tuple:
    """(W_h, its SteadyState) by Newton on F(W) = 0 from the samples w, whose
    own residual (largest in the axis cell) would grow at the rate -lambda_1
    and decide the run.  A residual above both NEWTON_TOL and the rounding
    floor of F(W) (_rounding_floor) is a SelfsimError."""
    W = w
    for steps in range(NEWTON_STEPS + 1):
        power = np.abs(W) ** (p - 1.0)
        F = _rhs(mach, W, power, p)
        residual = _norm(mach, F)
        tol = max(NEWTON_TOL, _rounding_floor(mach, W))
        if residual <= tol:
            return W, SteadyState(newton_steps=steps, residual=residual,
                                  shift=float(np.abs(W - w).max()))
        if steps < NEWTON_STEPS:
            W = W + solve_banded(
                _factor(mach, 1.0 / (p - 1.0) - p * power, 1.0), F)
    raise SelfsimError(f"the flow's steady state has residual {residual:.3g} "
                       f"> {tol:.3g} after {NEWTON_STEPS} Newton steps")


def _rounding_floor(mach: dict, w: np.ndarray) -> float:
    """eps ||D| |w||_rho, |D| the diffusion matrix with its entries' absolute
    values: the size of the rounding in D w, which grows like 1/h^2 and
    bounds how far Newton can push F(w) down (on the (3,7) profile Newton
    stalls at about an eighth of it, N = 400 to 25,600)."""
    aw = np.abs(w)
    out = mach["faces_out"] * aw
    out[:-1] += mach["low"] * aw[1:]
    out[1:] += mach["low"] * aw[:-1]
    out /= mach["mbar"]
    return np.finfo(float).eps * _norm(mach, out)


def _require_finite(w: np.ndarray, energy: float, what: str) -> None:
    if not np.isfinite(w).all():
        raise ParameterError(f"the flow needs finite data; the {what} is "
                             f"not finite")
    if not math.isfinite(energy):
        raise ParameterError(f"the flow needs data of finite energy; the "
                             f"{what} has discrete energy {energy}")


def _energy(mach: dict, w: np.ndarray, power: np.ndarray, p: float) -> float:
    dw = np.diff(w)
    w2 = w**2
    grad = np.dot(mach["low"], dw * dw) + 2.0 * mach["outer_flux"] * w2[-1]
    return float(0.5 * grad / mach["volume"]
                 + np.dot(mach["quad_w"], w2 / (2.0 * (p - 1.0))
                          - power * w2 / (p + 1.0)))


def energy_of_state(state: FlowState, w: Optional[np.ndarray] = None,
                    power: Optional[np.ndarray] = None) -> float:
    """Discrete Lyapunov energy of the grid function (state.w by default).

    power is |w|^{p-1} when the caller has it; |w|^{p+1} is taken as
    |w|^{p-1} w^2.  The gradient term is the quadratic form of the flow's
    own diffusion operator D = _apply_diffusion under the cell-weight inner
    product, -<w, D w> / (2 sum mbar) with <u, v> = sum mbar u v, so along
    the semi-discrete flow dw/dtau = F(w) the energy changes at the rate
    -sum quad_w F^2 exactly: the energy is the scheme's own Lyapunov
    functional.
    """
    w = state.w if w is None else w
    if power is None:
        power = np.abs(w) ** (state.params.p - 1.0)
    return _energy(state.machinery, w, power, state.params.p)


def _accept(state: FlowState, w: np.ndarray, power: np.ndarray,
            energy: float, dt_next: float) -> None:
    """Make w the state's array, with its record: energy, power, sup and
    the next step size to try."""
    state.w = state.accepted_of = w
    state.power, state.energy = power, energy
    state.sup = float(np.abs(w).max())
    state.dt_next = dt_next


def _accepted(state: FlowState) -> FlowState:
    """state with the record of state.w current: the flow keeps the energy,
    |w|^{p-1}, sup and proposed step of the array it accepted, and evaluates
    them afresh (the step from dt_max) only for an array bound to state.w
    from outside."""
    if state.accepted_of is not state.w:
        w = state.w
        power = np.abs(w) ** (state.params.p - 1.0)
        _accept(state, w, power, energy_of_state(state, w, power),
                state.cfg.dt_max)
    return state


def weighted_average(state: FlowState) -> float:
    return float(np.dot(state.machinery["quad_w"], state.w))


def blowup_criterion(state: FlowState) -> float:
    """Weighted average minus kappa; positive certifies finite-time blow-up."""
    return weighted_average(state) - state.params.kappa


def _norm(mach: dict, v: np.ndarray) -> float:
    return math.sqrt(np.dot(mach["quad_w"], v * v))


@np.errstate(over="ignore")
def _try_step(state: FlowState, dt: float) -> Optional[tuple]:
    """One attempt at a step of dt from the accepted state, by step
    doubling: (w, |w|^{p-1}, error, allowed error) after two Strang steps of
    dt/2, with error the quad_w-norm distance from one Strang step of dt, or
    None if the reaction blows up inside dt or the result is not finite (a
    non-finite Crank-Nicolson solution makes b NaN or -inf in the reaction
    after it).

    The splitting is exact on constant data, so the error lives in the
    part of w off its weighted mean, and the allowed error is ERROR_TOL
    times that part's norm: a small perturbation of a constant is resolved
    relative to itself.  ERROR_FLOOR times the norm of w covers rounding, so
    that an equilibrium never stalls the steps.
    """
    p, mach = state.params.p, state.machinery
    w = state.w
    whole = _react_exact(w, 0.5 * dt, p, state.power)
    if whole is not None:
        whole = _react_exact(_diffuse(mach, whole[0], dt), 0.5 * dt, p)
    if whole is None:
        return None
    # two steps of dt/2, whose inner reaction quarters make one exact half
    out = _react_exact(w, 0.25 * dt, p, state.power)
    if out is not None:
        out = _react_exact(_diffuse(mach, out[0], 0.5 * dt), 0.5 * dt, p)
    if out is not None:
        out = _react_exact(_diffuse(mach, out[0], 0.5 * dt), 0.25 * dt, p)
    if out is None or not np.isfinite(out[0]).all():
        return None
    w_new = out[0]
    off_mean = w_new - np.dot(mach["quad_w"], w_new)
    allowed = ERROR_TOL * _norm(mach, off_mean) \
        + ERROR_FLOOR * _norm(mach, w_new)
    return w_new, out[1], _norm(mach, w_new - whole[0]), allowed


def _level(state: FlowState, dt: float) -> float:
    """The largest step dt_max 2^{-k} (k >= 0) not above dt."""
    dt_max = state.cfg.dt_max
    if dt >= dt_max:
        return dt_max
    if not dt > 0.0:
        return 0.0
    return math.ldexp(dt_max, math.frexp(dt / dt_max)[1] - 1)


def _first_try(state: FlowState) -> float:
    """The first dt a step from the accepted state tries: the size the last
    error estimate proposes, at most the largest level within
    REACTION_SAFETY of the scalar time to blow-up from sup |w|, and the time
    left to state.tau_stop when less (or when less than DT_MIN would be
    left over)."""
    p = state.params.p
    sup = _accepted(state).sup
    limit = state.cfg.dt_max
    if sup > 0.0:
        try:
            limit = min(limit, REACTION_SAFETY * sup ** (1.0 - p) / (p - 1.0))
        except OverflowError:   # sup^{1-p} beyond the float range: no limit
            pass
    dt = min(state.dt_next, _level(state, limit))
    left = state.tau_stop - state.tau
    return left if left - dt < DT_MIN else dt


def _resize(error: float, allowed: float) -> float:
    """Factor on dt that brings a local error of order dt^3 to
    ERROR_SAFETY^3 times the allowed one, within [1/16, 2]."""
    if error == 0.0:
        return 2.0
    return min(2.0, max(0.0625,
                        ERROR_SAFETY * (allowed / error) ** (1.0 / 3.0)))


def step(state: FlowState) -> FlowState:
    """One step of the size the local error estimate allows, within the
    reaction limit; a rejected attempt retries at a lower level (by the
    estimate after an error rejection, halved after an in-step blow-up or an
    energy increase)."""
    dt = _first_try(state)
    e_before = state.energy
    counts = state.counts
    while dt >= DT_MIN:
        new = _try_step(state, dt)
        if new is None:
            counts.rejected_by_reaction += 1
            dt = _level(state, 0.5 * dt)
            continue
        w_new, power, error, allowed = new
        if not error <= allowed:
            counts.rejected_by_error += 1
            dt = _level(state, dt * _resize(error, allowed))
            continue
        e_new = energy_of_state(state, w_new, power)
        if not e_new <= e_before + ENERGY_SLACK:
            counts.rejected_by_energy += 1
            dt = _level(state, 0.5 * dt)
            continue
        landed = dt == state.tau_stop - state.tau
        _accept(state, w_new, power, e_new,
                _level(state, dt * _resize(error, allowed)))
        state.tau = state.tau_stop if landed else state.tau + dt
        state.dt = dt
        counts.accepted += 1
        counts.max_error_estimate = max(counts.max_error_estimate, error)
        return state
    state.exhausted = True
    return state


def _rhs(mach: dict, w: np.ndarray, power: np.ndarray,
         p: float) -> np.ndarray:
    """The semi-discrete right-hand side F(w) = D w - w/(p-1) + |w|^{p-1} w
    from power = |w|^{p-1}: dtau w, exactly."""
    return _apply_diffusion(mach, w) + w * (power - 1.0 / (p - 1.0))


def run(state: FlowState, tau_max: float) -> FlowReport:
    """Step until blow-up, convergence, or tau_max; collects diagnostics.

    tau_max = inf runs until blow-up or convergence, within MAX_STEPS steps.
    """
    if not tau_max >= 0.0:
        raise ParameterError(f"tau_max must be nonnegative, got {tau_max}")
    with np.errstate(over="ignore", invalid="ignore"):
        e0 = _accepted(state).energy
    _require_finite(state.w, e0, "state")
    params, cfg = state.params, state.cfg
    p, kap = params.p, params.kappa
    cap = BLOWUP_CAP_MULT * kap
    cols = {k: [] for k in ("tau", "sup_norm", "weighted_avg", "energy",
                            "dt", "min_dtau_w")}
    criterion_exceeded = False
    outcome, tau1 = OUTCOME_MAXTIME, None

    def record():
        """Append the accepted state; returns max |dtau w|."""
        nonlocal criterion_exceeded
        cols["tau"].append(state.tau)
        cols["sup_norm"].append(state.sup)
        avg = weighted_average(state)
        cols["weighted_avg"].append(avg)
        cols["energy"].append(state.energy)
        cols["dt"].append(state.dt)
        dtau = _rhs(state.machinery, state.w, state.power, p)
        lo, hi = float(dtau.min()), float(dtau.max())
        cols["min_dtau_w"].append(lo)
        if avg > kap + 1e-12:
            criterion_exceeded = True
        return max(-lo, hi)

    flags = []
    record()
    state.counts, state.tau_stop = StepCounts(), tau_max
    try:
        for _ in range(MAX_STEPS):
            if state.tau >= tau_max:
                break
            step(state)
            if state.exhausted:    # no step accepted: nothing new to record
                if state.sup > 10.0 * kap:
                    outcome = OUTCOME_BLEWUP
                else:
                    flags.append("step size exhausted without clear growth")
                break
            dtau_sup = record()
            sup = state.sup
            if sup > cap:
                outcome = OUTCOME_BLEWUP
                break
            if cfg.conv_tol > 0.0 and dtau_sup < cfg.conv_tol:
                outcome = OUTCOME_CONVERGED
                break
        else:
            flags.append("step budget exhausted")
    finally:
        state.tau_stop = math.inf

    if outcome == OUTCOME_BLEWUP:
        tau1 = _extrapolate_blowup_time(cols, p)

    series = {k: np.array(v) for k, v in cols.items()}
    rises = np.diff(series["energy"])
    max_inc = float(rises.max()) if len(rises) else 0.0
    report = FlowReport(outcome=outcome, tau_end=state.tau, tau1=tau1,
                        series=series, final_w=state.w.copy(), r=state.r,
                        criterion_exceeded=criterion_exceeded,
                        min_dtau_w=float(series["min_dtau_w"].min()),
                        max_energy_increase=max_inc,
                        energy_monotone=bool(max_inc <= ENERGY_SLACK),
                        flags=flags, steps=state.counts,
                        steady=state.steady)
    if outcome == OUTCOME_BLEWUP:
        report.blowup_location = float(state.r[int(np.argmax(np.abs(state.w)))])
        sup, taus = series["sup_norm"], series["tau"]
        if tau1 is not None and tau1 > taus[-1]:
            report.type1_indicator = float(
                np.max((tau1 - taus) ** (1.0 / (p - 1.0)) * sup))
    return report


def _extrapolate_blowup_time(cols: dict, p: float) -> Optional[float]:
    """Linear fit of sup_norm^{1-p} against tau over the trailing samples."""
    taus = np.asarray(cols["tau"], dtype=float)
    sups = np.asarray(cols["sup_norm"], dtype=float)
    keep = sups > 0
    taus, sups = taus[keep], sups[keep]
    if len(taus) < 3:
        return None
    v = sups ** (1.0 - p)
    k = min(8, len(taus))
    A = np.vstack([taus[-k:], np.ones(k)]).T
    slope, icpt = np.linalg.lstsq(A, v[-k:], rcond=None)[0]
    if slope >= 0.0:
        return None
    return float(-icpt / slope)


@dataclass
class PerturbationReport:
    base_entropy: float
    lambda_1: float                # the ground state's eigenvalue
    kappa_energy: float
    entropies: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    flow_outcome: Optional[str] = None
    flow_tau1: Optional[float] = None
    energy_plateau: Optional[float] = None
    flags: list = field(default_factory=list)


def _perturbed_profiles(profile: RadialProfile, s_values) -> tuple:
    """(lambda_1, f, {s: w + s f}), f the radial ground state at unit sup
    norm, so s is an amplitude relative to the profile (a sharply peaked
    unit-L2 f can leave the small-perturbation regime).  Each w + s f is the
    profile's knot data plus s (f, f', f''), the profile's own kind of
    interpolant, and its tail past the last knot (f there: 4e-24 on (3,7))."""
    lam1, f_raw, _ = first_eigenfunction(profile, resolution=4000)
    scale = float(np.abs(f_raw(np.linspace(0.0, GRID_R_MAX, 4001))).max())
    stored = (profile.values, profile.derivs, profile.second_derivs)
    fk = [f_raw.derivative(k)(profile.grid) / scale for k in range(3)]
    perturbed = {}
    for s in s_values:
        with np.errstate(over="ignore"):
            data = [d if d is None else d + s * dk
                    for d, dk in zip(stored, fk)]
            data.append(np.abs(data[0]) ** (profile.params.p + 1.0))
        if not all(np.isfinite(d).all() for d in data if d is not None):
            raise ParameterError(f"the perturbation amplitude s={s!r} "
                                 f"overflows the perturbed data w + s f "
                                 f"or its |w + s f|^(p+1)")
        perturbed[s] = RadialProfile(
            kind=KIND_TABULATED, params=profile.params, grid=profile.grid,
            values=data[0], derivs=data[1], second_derivs=data[2],
            decay_coeff=profile.decay_coeff,
            meta={"axis_value": float(data[0][0])})
    return lam1, (lambda r: f_raw(r) / scale), perturbed


def entropy_perturbation_experiment(profile: RadialProfile,
                                    s_values=(0.01, -0.01, 0.05, -0.05),
                                    run_flow_for: Optional[float] = 0.05
                                    ) -> PerturbationReport:
    """Entropy drop along the ground-state direction, plus the blow-up run.

    Computes the entropy of w + s f for each s (_perturbed_profiles: f the
    radial ground state, whose eigenvalue the report keeps as lambda_1) and
    records strict-drop margins; for s = run_flow_for > 0 the flow is run
    from the perturbed data and its outcome recorded together with the final
    resolved Lyapunov energy against the constant's energy.

    A constant profile, or an s that is zero or not finite, is a
    ParameterError: its margins would be 0 in exact arithmetic and rounding
    alone (every positive constant has kappa's entropy, by rescaling).  So is
    an s so large that w + s f or |w + s f|^{p+1} overflows, refused before
    any entropy runs.
    """
    if profile.is_constant:
        raise ParameterError("the perturbation experiment needs a non-"
                             "constant profile: a constant's ground state "
                             "is the constant direction")
    for s in s_values:
        if not (math.isfinite(s) and s != 0.0):
            raise ParameterError(f"the perturbation amplitude s must be "
                                 f"finite and nonzero, got {s!r}")
    lam1, f, perturbed = _perturbed_profiles(profile, s_values)
    base = entropy(profile).lam
    report = PerturbationReport(base_entropy=base, lambda_1=lam1,
                                kappa_energy=kappa_energy(profile.params))
    for s, pert in perturbed.items():
        res = entropy(pert)
        report.entropies[s], report.margins[s] = res.lam, base - res.lam
        report.flags += [f"s={s}: {msg}" for msg in res.flags]
    if run_flow_for is not None:
        state = init_flow(profile, eigenfunction=f,
                          amplitude=float(run_flow_for))
        flow_rep = run(state, tau_max=20.0)
        report.flow_outcome = flow_rep.outcome
        report.flow_tau1 = flow_rep.tau1
        report.energy_plateau = float(flow_rep.series["energy"][-1])
        if flow_rep.outcome != OUTCOME_BLEWUP:
            report.flags.append("perturbed flow did not blow up")
    return report
