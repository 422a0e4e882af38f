"""Sector-wise discretization and eigenpairs of the linearized operator

    L psi = psi'' + ((n-1)/r - r/2) psi' - l(l+n-2)/r^2 psi
            - psi/(p-1) + p |w|^{p-1} psi

in the Gaussian-weighted space.  Eigenvalues follow the convention
L f + lambda f = 0, ascending (so the ground state has the most negative
action of L).

Writing u = r^l v maps sector l to the radial sector of an effective
dimension n + 2l problem with an extra -l/2 shift; the discretization is a
conservative flux form on cell centers, symmetric under the discrete measure
r^{n_eff-1} e^{-r^2/4} h, so the matrix is tridiagonal-symmetrizable and the
solver (bisection + inverse iteration on the symmetrized tridiagonal) is
deterministic.  _radial_cells assembles the flux form, N uniform cells of
[0, core.GRID_R_MAX] (the one truncation radius) with their couplings and
diagonal, once for the sectors and the flow alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal

from .core import (GRID_CELLS_MAX, GRID_R_MAX, KIND_SINGULAR, ParameterError,
                   RadialProfile, SelfsimError)
from .numerics import derivative_on_grid
from .quadrature import _sphere_area


class SpectrumError(SelfsimError, RuntimeError):
    pass


@dataclass
class SectorOperator:
    ell: int
    r: np.ndarray                 # cell centers
    d_sym: np.ndarray             # diagonal of the symmetrized -L matrix
    e_sym: np.ndarray             # off-diagonal of the symmetrized -L matrix
    sqrt_measure: np.ndarray      # D with  S = D (-L) D^{-1}
    measure: np.ndarray           # normalized cell weights of the rho-inner product
    meta: dict = field(default_factory=dict)


@dataclass
class EigenResult:
    ell: int
    lambdas: np.ndarray
    funcs: list                    # callables u_k(r), rho-normalized
    samples: np.ndarray            # rows u_k on op.r
    r: np.ndarray
    certificates: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _radial_cells(n_eff: int, N: int) -> tuple:
    """The flux form of D = (1/m)(m v')', m = r^{n_eff-1} e^{-r^2/4}, on N
    cells of width h = GRID_R_MAX / N, as the sectors and the flow take it:
    (centres (i + 1/2) h, m there, cond = m/h^2 at the N - 1 inner faces,
    diag = each cell's sum of its cond, outer = m(GRID_R_MAX)/h^2).  m D has
    cond off the diagonal and -diag on it: no flux through the axis or
    GRID_R_MAX, where a Dirichlet face adds 2 outer to the last diag.  Callers
    check the float range; N above GRID_CELLS_MAX is refused unallocated."""
    if N > GRID_CELLS_MAX:
        raise ParameterError(f"a radial grid takes at most {GRID_CELLS_MAX} "
                             f"cells, got N={N}")
    h = GRID_R_MAX / N
    r = (np.arange(N) + 0.5) * h
    faces = np.arange(1, N + 1) * h
    with np.errstate(all="ignore"):
        weight = r ** (n_eff - 1) * np.exp(-r**2 / 4.0)
        coupling = faces ** (n_eff - 1) * np.exp(-faces**2 / 4.0) / h**2
        cond = coupling[:-1]
        diag = np.append(cond, 0.0)
        diag[1:] += cond
    return r, weight, cond, diag, coupling[-1]


def build_sector(profile: RadialProfile, ell: int,
                 resolution: int = 3000) -> SectorOperator:
    """Symmetric tridiagonal discretization of -L restricted to sector l."""
    if profile.kind == KIND_SINGULAR:
        raise ParameterError("singular profiles are outside the eigensolver "
                             "scope (potential ~ r^-2)")
    if not float(ell).is_integer() or ell < 0:
        raise ParameterError(f"sector index must be an integer >= 0, got {ell}")
    if not float(resolution).is_integer() or resolution < 4:
        raise ParameterError(f"resolution must be an integer of at least 4, "
                             f"got {resolution}")
    n = profile.params.n
    N = int(resolution)
    r, weight, cond, diag, _ = _radial_cells(n + 2 * ell, N)
    V = profile.params.potential(profile.value(r)) - 0.5 * ell
    with np.errstate(all="ignore"):
        d_sym = diag / weight - V
        e_sym = -cond / np.sqrt(weight[:-1] * weight[1:])
    if not (np.isfinite(d_sym).all() and np.isfinite(e_sym).all()):
        raise ParameterError(f"the sector weights r^(n+2l-1) e^(-r^2/4) leave "
                             f"the float range at n={n}, l={ell}, "
                             f"resolution={N}")
    # rho-weighted cell measure in the original dimension n: it weighs the
    # sector function u = r^l v, so it lacks the r^{2l} of the n_eff weight
    measure = (4.0 * math.pi) ** (-n / 2.0) * _sphere_area(n) \
        * r ** (n - 1) * np.exp(-r**2 / 4.0) * (GRID_R_MAX / N)
    return SectorOperator(ell=ell, r=r, d_sym=d_sym, e_sym=e_sym,
                          sqrt_measure=np.sqrt(weight), measure=measure,
                          meta={"resolution": N})


def _solve(op: SectorOperator, k: int):
    try:
        vals, vecs = eigh_tridiagonal(op.d_sym, op.e_sym, select="i",
                                      select_range=(0, k - 1))
    except np.linalg.LinAlgError as err:  # pragma: no cover - exotic
        raise SpectrumError(f"tridiagonal eigensolver failed: {err}") from err
    return vals, vecs


def eigen_smallest(op: SectorOperator, k: int, refine: bool = True,
                   profile: Optional[RadialProfile] = None) -> EigenResult:
    """k smallest eigenvalues and rho-normalized eigenfunctions of the sector.

    With refine=True the eigenvalues are Richardson-extrapolated from the
    operator rebuilt at double resolution (requires the profile); the
    resolution-doubling shift is recorded as the convergence certificate.
    meta["unrefined"] holds the eigenvalues of op itself either way.
    """
    if not float(k).is_integer() or not 1 <= k <= op.meta["resolution"] // 4:
        raise ParameterError(f"k must be an integer from 1 to resolution/4 "
                             f"= {op.meta['resolution'] // 4}, got {k}")
    k = int(k)
    vals, vecs = _solve(op, k)
    lam = vals.copy()
    cert = {}
    if refine:
        if profile is None:
            raise ParameterError("refine=True needs the profile to rebuild")
        op2 = build_sector(profile, op.ell, resolution=2 * op.meta["resolution"])
        vals2, _ = _solve(op2, k)
        cert["doubling_shift"] = np.abs(vals2 - vals).max()
        lam = (4.0 * vals2 - vals) / 3.0   # second-order scheme
    funcs, samples = [], []
    for j in range(k):
        v = vecs[:, j] / op.sqrt_measure          # back from symmetrized coords
        u = v * op.r ** op.ell
        norm = math.sqrt(float(np.dot(op.measure, u * u)))
        u = u / norm
        if u[int(np.argmax(np.abs(u)))] < 0:   # deterministic sign rule
            u = -u
        samples.append(u)
        funcs.append(CubicSpline(op.r, u, extrapolate=True))
    samples = np.array(samples)
    ground = samples[0]
    scale = np.abs(ground).max()
    if np.any(ground < -1e-8 * scale) and np.any(ground > 1e-8 * scale):
        raise SpectrumError("computed ground state changes sign; "
                            "discretization failure")
    meta = {"count_below_one": int(np.sum(lam < 1.0)), "unrefined": vals}
    return EigenResult(ell=op.ell, lambdas=lam, funcs=funcs, samples=samples,
                       r=op.r, certificates=cert, meta=meta)


def rayleigh_quotient(op: SectorOperator, u_samples: np.ndarray) -> float:
    """Quadratic form of -L over the squared norm, in the discrete space."""
    v = np.asarray(u_samples, dtype=float) / np.maximum(op.r ** op.ell, 1e-300)
    z = v * op.sqrt_measure
    quad = np.dot(z, op.d_sym * z)
    quad += 2.0 * np.dot(z[:-1] * op.e_sym, z[1:])
    return float(quad / np.dot(z, z))


def apply_L(profile: RadialProfile, psi, ell: int = 0,
            grid: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise L_l psi by high-order differencing; returns (grid, samples)."""
    params = profile.params
    if grid is None:
        grid = profile.grid
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(psi(grid) if callable(psi) else psi, dtype=float)
    d1 = derivative_on_grid(grid, vals, order=1, stencil=7)
    d2 = derivative_on_grid(grid, d1, order=1, stencil=7)
    cent = ell * (ell + params.n - 2.0) / grid**2 if ell else 0.0
    pot = params.potential(profile.value(grid))
    out = d2 - params.drift(grid) * d1 - cent * vals + pot * vals
    return grid, out


def first_eigenfunction(profile: RadialProfile, resolution: int = 3000):
    """Ground state of the radial sector: (lambda_1, f, certificates), from
    eigen_smallest(refine=True) on build_sector(profile, 0, resolution).

    lambda_1 is the Richardson-extrapolated eigenvalue, f is positive with
    int f^2 rho = 1, and the certificates are eigen_smallest's (the
    resolution-doubling shift).
    """
    res = eigen_smallest(build_sector(profile, 0, resolution), 1, refine=True,
                         profile=profile)
    return float(res.lambdas[0]), res.funcs[0], res.certificates
