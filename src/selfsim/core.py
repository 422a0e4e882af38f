"""Problem parameters and canonical radial profiles.

Everything downstream works with the rescaled stationary equation

    w'' + ((n-1)/r - r/2) w' - w/(p-1) + |w|^{p-1} w = 0,   r > 0,

whose constant solutions are 0 and +-kappa with kappa = (1/(p-1))^{1/(p-1)},
and which additionally admits the homogeneous singular solution
w = beta^{1/(p-1)} r^{-2/(p-1)} with beta = (2/(p-1)) (n-2-2/(p-1)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
# not called here: perfbench/tracing.py wraps core.BPoly.from_derivatives by name
from scipy.interpolate import BPoly  # noqa: F401
from scipy.interpolate import CubicHermiteSpline, PPoly
from scipy.special import comb, poch


class SelfsimError(Exception):
    """Base of every error the toolkit raises on purpose."""


class ParameterError(SelfsimError, ValueError):
    """A bad or out-of-scope request: inadmissible (n, p), a profile or
    setting outside a routine's scope, malformed input."""


def sobolev_critical(n: int) -> float:
    """Critical exponent (n+2)/(n-2); infinite for n <= 2."""
    if n <= 2:
        return np.inf
    return (n + 2.0) / (n - 2.0)


@dataclass(frozen=True)
class Parameters:
    """Dimension n and exponent p, with the terms of the profile equation
    w'' = drift(r) w' + g(w), elementwise; no other module spells them."""

    n: int
    p: float

    @property
    def kappa(self) -> float:
        return (1.0 / (self.p - 1.0)) ** (1.0 / (self.p - 1.0))

    @property
    def decay_power(self) -> float:
        """Spatial decay rate 2/(p-1) of self-similar tails."""
        return 2.0 / (self.p - 1.0)

    @property
    def beta(self) -> float:
        """Coefficient of the homogeneous singular solution (may be <= 0)."""
        return self.decay_power * (self.n - 2.0 - self.decay_power)

    @property
    def is_supercritical(self) -> bool:
        return self.p > sobolev_critical(self.n)

    def drift(self, r):
        """-((n-1)/r - r/2), the coefficient of w' in w''."""
        return -((self.n - 1) / r - 0.5 * r)

    def reaction(self, w):
        """g(w) = w/(p-1) - |w|^{p-1} w, zero at 0 and +-kappa."""
        return w / (self.p - 1.0) - np.abs(w) ** (self.p - 1.0) * w

    def second_deriv(self, drift, w, dw):
        """w'' given drift(r), its terms added left to right: as drift w' +
        g(w) it rounds once more, which moves a shot's r_cut."""
        return drift * dw + w / (self.p - 1.0) - np.abs(w) ** (self.p - 1.0) * w

    def potential(self, w):
        """-1/(p-1) + p |w|^{p-1} = -g'(w), the linearized operator's."""
        return -1.0 / (self.p - 1.0) + self.p * np.abs(w) ** (self.p - 1.0)

    def scaling_field(self, r, w, dw):
        """Lam(w) = 2w/(p-1) + r w', an eigenfunction of L at -1."""
        return 2.0 * w / (self.p - 1.0) + r * dw


def make_params(n: int, p: float,
                require_supercritical: bool = False) -> Parameters:
    """Validate and build a Parameters value.

    Raises ParameterError if n < 1, p is not finite and above 1, kappa^{p+1}
    overflows (p near 1), or p is not supercritical while the flag demands it.
    """
    if int(n) != n or n < 1:
        raise ParameterError(f"dimension must be a positive integer, got {n}")
    n = int(n)
    if not 1.0 < p < math.inf:
        raise ParameterError(f"exponent p must be finite and > 1, got {p}")
    params = Parameters(n=n, p=float(p))
    try:
        params.kappa ** (params.p + 1.0)
    except OverflowError:
        raise ParameterError(f"exponent p={p} is too close to 1: kappa or "
                             f"kappa^(p+1) overflows") from None
    if require_supercritical and not params.is_supercritical:
        raise ParameterError(
            f"p={p} is not above the critical exponent {sobolev_critical(n)} for n={n}")
    return params


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

KIND_ZERO = "constant_zero"
KIND_KAPPA = "constant_kappa"
KIND_SINGULAR = "singular_homogeneous"
KIND_SHOOTING = "shooting"
KIND_TABULATED = "tabulated"


# the Gaussian weight makes r > 20 numerically negligible for the
# dimensions handled here (n <= 12)
GRID_R_MAX = 20.0
GRID_POINTS = 800


def default_grid(r_min: float = 1e-6) -> np.ndarray:
    """Geometric-graded grid of GRID_POINTS radii on [r_min, GRID_R_MAX]."""
    return np.geomspace(r_min, GRID_R_MAX, GRID_POINTS)


@dataclass
class RadialProfile:
    """A radial candidate function with values and first derivatives.

    Derivatives are carried explicitly (never re-differenced from values) so
    functional evaluation is quadrature-limited.  ``sample`` is the
    evaluator of w and w' at arbitrary radii, ``value``/``deriv`` its two
    columns: constants and the singular solution evaluate in closed form,
    sampled kinds interpolate with a piecewise polynomial in the power basis
    (a quintic Hermite when second derivatives are stored, else a cubic
    Hermite) and follow their fitted power-law tail beyond the stored grid.
    """

    kind: str
    params: Parameters
    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    decay_coeff: Optional[float] = None
    classification: Optional[str] = None
    second_derivs: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)
    _spline: object = field(default=None, repr=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if self.second_derivs is not None:
            self.second_derivs = np.asarray(self.second_derivs, dtype=float)
        if self.grid.ndim != 1 or np.any(np.diff(self.grid) <= 0):
            raise ParameterError("profile grid must be strictly increasing")
        if len(self.grid) < 2:
            raise ParameterError("profile grid needs at least two knots")
        for name in ("values", "derivs", "second_derivs"):
            data = getattr(self, name)
            if data is None:
                continue
            if data.shape != self.grid.shape:
                raise ParameterError(
                    f"profile {name} must be 1-D with one entry per grid "
                    f"point ({len(self.grid)}), got shape {data.shape}")
            if self.kind != KIND_SINGULAR and not np.all(np.isfinite(data)):
                raise ParameterError(f"profile {name} must be finite")

    # -- closed-form data ---------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return self.kind in (KIND_ZERO, KIND_KAPPA)

    @property
    def constant_value(self) -> float:
        if not self.is_constant:
            raise ParameterError("not a constant profile")
        return float(self.values[0])

    @property
    def is_solution(self) -> bool:
        """Whether the profile claims to solve the stationary equation."""
        return self.kind in (KIND_ZERO, KIND_KAPPA, KIND_SINGULAR, KIND_SHOOTING)

    # -- evaluation ----------------------------------------------------------
    def _ensure_spline(self):
        """Build _spline, the one cache: w and w' as two columns of one
        piecewise polynomial, one interval search for both.  The derivative's
        coefficients sit under a zero leading row, whose terms add exact
        zeros, so each column equals its own polynomial bit for bit."""
        if self._spline is None:
            if self.second_derivs is not None:
                # quintic Hermite: C^2, keeps panel quadrature smooth in the
                # recentering offset
                data = np.stack([self.values, self.derivs,
                                 self.second_derivs])
                w = _power_basis(_hermite_bernstein(self.grid, data),
                                 self.grid)
            else:
                w = CubicHermiteSpline(self.grid, self.values, self.derivs)
            c, dc = w.c, w.derivative().c
            self._spline = PPoly(
                np.stack([c, np.concatenate([np.zeros_like(c[:1]), dc])],
                         axis=-1), w.x)

    def sample(self, r) -> tuple:
        """(w, w') at arbitrary radii, each shaped like r.

        Constants and the singular solution evaluate in closed form.  Sampled
        kinds interpolate inside the stored grid, follow the fitted power-law
        tail past its last knot and continue quadratically from the axis value
        below its first."""
        r = np.asarray(r, dtype=float)
        shape, r = r.shape, r.ravel()
        if self.is_constant:
            w, dw = np.full_like(r, self.constant_value), np.zeros_like(r)
        elif self.kind == KIND_SINGULAR:
            r = np.maximum(r, 1e-300)
            w, dw = self._power_law(r, 0), self._power_law(r, 1)
        else:
            self._ensure_spline()
            r0, r1 = self.grid[0], self.grid[-1]
            head = r < r0
            tail = (r > r1 if self.decay_coeff is not None
                    else np.zeros_like(head))
            # the polynomial only where its value is kept; without a tail,
            # radii past the last knot keep the last knot's value
            keep = ~(head | tail)
            w, dw = np.empty_like(r), np.empty_like(r)
            w[keep], dw[keep] = self._spline(np.minimum(r[keep], r1)).T
            if tail.any():
                rt = r[tail]
                w[tail] = self._power_law(rt, 0)
                dw[tail] = self._power_law(rt, 1)
            if head.any():
                w0 = self.meta.get("axis_value", self.values[0])
                curv = 2.0 * (self.values[0] - w0) / r0**2 if r0 > 0 else 0.0
                rh = r[head]
                w[head], dw[head] = w0 + 0.5 * curv * rh**2, curv * rh
        return w.reshape(shape), dw.reshape(shape)

    def _power_law(self, r: np.ndarray, order: int) -> np.ndarray:
        q = self.params.decay_power
        if order:
            return -q * self.decay_coeff * r ** (-q - 1.0)
        return self.decay_coeff * r ** (-q)

    def value(self, r) -> np.ndarray:
        return self.sample(r)[0]

    def deriv(self, r) -> np.ndarray:
        return self.sample(r)[1]


def _hermite_bernstein(x: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Bernstein coefficients, shape (2m, len(x) - 1), of the piecewise
    Hermite polynomial whose j-th derivative at x[i] is data[j, i], for m
    rows of data.  This is scipy's BPoly._construct_from_derivatives
    recurrence run over every interval at once, with its factors in its
    order, so the result equals BPoly.from_derivatives(x, data.T).c bit for
    bit without its Python loop over the intervals."""
    m = data.shape[0]
    k = 2 * m
    ya, yb = data[:, :-1], data[:, 1:]
    c = np.empty((k, len(x) - 1))
    # h**q as scipy's scalar power takes it, by libm pow; the array power
    # squares for q = 2, which can differ in the last bit
    h = np.diff(x)
    hq = [np.float_power(h, q) for q in range(m)]
    # walk left to right
    for q in range(m):
        c[q] = ya[q] / poch(k - q, q) * hq[q]
        for j in range(q):
            c[q] -= (-1)**(j + q) * comb(q, j) * c[j]
    # walk right to left
    for q in range(m):
        c[-q - 1] = yb[q] / poch(k - q, q) * (-1)**q * hq[q]
        for j in range(q):
            c[-q - 1] -= (-1)**(j + 1) * comb(q, j + 1) * c[-q + j]
    return c


def _power_basis(c: np.ndarray, x: np.ndarray) -> PPoly:
    """The piecewise polynomial with Bernstein coefficients c on the knots x,
    in the power basis, whose Horner evaluation costs a fraction of
    BPoly's.  On a piece of width h the coefficient of (x - x_i)^s is
    C(k, s) Delta^s b_0 / h^s, with Delta^s the s-th forward difference of
    the Bernstein coefficients b.  Differencing neighbours that nearly agree
    loses no digits; PPoly.from_bernstein_basis sums binomial multiples of
    the b instead, and on the (3, 7) profile that raised the value error
    from 9e-16 to 1.4e-14 and the derivative error from 1.1e-12 to 4.6e-11."""
    k = c.shape[0] - 1
    h = np.diff(x)
    diffs, rows = c, []
    for s in range(k + 1):
        rows.append(math.comb(k, s) * diffs[0] / h**s)
        diffs = np.diff(diffs, axis=0)
    return PPoly(np.array(rows[::-1]), x)


def constant_profile(params: Parameters,
                     sign: int | str = "+") -> RadialProfile:
    """Constant solution 0 or +-kappa sampled on the default grid."""
    sign_map = {"+": 1, "-": -1, "0": 0, 1: 1, -1: -1, 0: 0}
    if sign not in sign_map:
        raise ParameterError(f"sign must be one of +, -, 0, got {sign!r}")
    s = sign_map[sign]
    grid = default_grid()
    level = s * params.kappa if s else 0.0
    kind = KIND_KAPPA if s else KIND_ZERO
    return RadialProfile(kind=kind, params=params, grid=grid,
                         values=np.full(grid.shape, level),
                         derivs=np.zeros(grid.shape),
                         decay_coeff=None, meta={"axis_value": level})


def singular_profile(params: Parameters,
                     grid: Optional[np.ndarray] = None) -> RadialProfile:
    """Homogeneous singular solution beta^{1/(p-1)} r^{-2/(p-1)} (r=0 excluded)."""
    if params.n < 3 or params.beta <= 0.0:
        raise ParameterError(
            f"singular solution needs n >= 3 and n-2-2/(p-1) > 0; "
            f"got n={params.n}, p={params.p} (beta={params.beta:.6g})")
    if grid is None:
        grid = default_grid(r_min=1e-3)
    if grid[0] <= 0.0:
        raise ParameterError("singular profile grid must exclude r = 0")
    coeff = params.beta ** (1.0 / (params.p - 1.0))
    q = params.decay_power
    return RadialProfile(kind=KIND_SINGULAR, params=params, grid=grid,
                         values=coeff * grid ** (-q),
                         derivs=-q * coeff * grid ** (-q - 1.0),
                         decay_coeff=coeff)


def tabulated_profile(params: Parameters, grid: np.ndarray, values: np.ndarray,
                      derivs: np.ndarray) -> RadialProfile:
    return RadialProfile(kind=KIND_TABULATED, params=params, grid=grid,
                         values=values, derivs=derivs)
