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
deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal

from .core import KIND_SINGULAR, ParameterError, RadialProfile, SelfsimError
from .numerics import derivative_on_grid
from .quadrature import _sphere_area

R_MAX = 20.0    # truncation radius of the sector grids


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


def _radial_cells(n_eff: int, N: int, r_max: float) -> tuple:
    """N cells of width h = r_max / N in effective dimension n_eff, shared by
    the sectors and the flow: (h, centres (i + 1/2) h, m = r^{n_eff-1}
    e^{-r^2/4} at the faces i h with no flux through the axis, m at the
    centres).  Callers set the outer face and check the float range."""
    h = r_max / N
    r = (np.arange(N) + 0.5) * h
    faces = np.arange(N + 1) * h
    with np.errstate(all="ignore"):
        m_face = faces ** (n_eff - 1) * np.exp(-faces**2 / 4.0)
        m_cell = r ** (n_eff - 1) * np.exp(-r**2 / 4.0)
    m_face[0] = 0.0
    return h, r, m_face, m_cell


def build_sector(profile: RadialProfile, ell: int, resolution: int = 3000,
                 r_max: float = R_MAX) -> SectorOperator:
    """Symmetric tridiagonal discretization of -L restricted to sector l."""
    if profile.kind == KIND_SINGULAR:
        raise ParameterError("singular profiles are outside the eigensolver "
                             "scope (potential ~ r^-2)")
    if ell < 0:
        raise ParameterError(f"sector index must be nonnegative, got {ell}")
    if resolution < 4:
        raise ParameterError(f"resolution must be at least 4, got {resolution}")
    n = profile.params.n
    N = int(resolution)
    h, r, m_face, m_cell = _radial_cells(n + 2 * ell, N, r_max)
    m_face[-1] = 0.0  # no flux at the truncation radius (weight ~ e^{-r_max^2/4})
    V = profile.params.potential(profile.value(r)) - 0.5 * ell
    with np.errstate(all="ignore"):
        lower = m_face[1:-1] / h**2
        diag_flux = -(m_face[:-1] + m_face[1:]) / h**2
        d_sym = -(diag_flux / m_cell + V)
        e_sym = -lower / np.sqrt(m_cell[:-1] * m_cell[1:])
    if not (np.isfinite(d_sym).all() and np.isfinite(e_sym).all()):
        raise ParameterError(f"the sector weights r^(n+2l-1) e^(-r^2/4) leave "
                             f"the float range at n={n}, l={ell}, "
                             f"resolution={N}")
    # rho-weighted cell measure in the original dimension n: it weighs the
    # sector function u = r^l v, so it lacks the r^{2l} of the n_eff weight
    measure = (4.0 * math.pi) ** (-n / 2.0) * _sphere_area(n) \
        * r ** (n - 1) * np.exp(-r**2 / 4.0) * h
    return SectorOperator(ell=ell, r=r, d_sym=d_sym, e_sym=e_sym,
                          sqrt_measure=np.sqrt(m_cell), measure=measure,
                          meta={"resolution": N, "r_max": r_max})


def _solve(op: SectorOperator, k: int):
    try:
        vals, vecs = eigh_tridiagonal(op.d_sym, op.e_sym, select="i",
                                      select_range=(0, k - 1))
    except Exception as err:  # pragma: no cover - LAPACK failure is exotic
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
    if not 1 <= k <= op.meta["resolution"] // 4:
        raise ParameterError(f"k must be between 1 and resolution/4 = "
                             f"{op.meta['resolution'] // 4}, got {k}")
    vals, vecs = _solve(op, k)
    lam = vals.copy()
    cert = {}
    if refine:
        if profile is None:
            raise ParameterError("refine=True needs the profile to rebuild")
        op2 = build_sector(profile, op.ell, resolution=2 * op.meta["resolution"],
                           r_max=op.meta["r_max"])
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
    """Ground state of the radial sector: (lambda_1, f, certificates).

    f is positive with int f^2 rho = 1; the decay certificate records
    sup (1+r)^{2p/(p-1)} |f| over the outer half of the domain and its
    stability under extending the domain.
    """
    op = build_sector(profile, 0, resolution=resolution)
    res = eigen_smallest(op, 1, refine=True, profile=profile)
    lam1 = float(res.lambdas[0])
    f = res.funcs[0]
    power = 2.0 * profile.params.p / (profile.params.p - 1.0)
    tail = op.r >= 0.5 * R_MAX
    cert = dict(res.certificates)
    cert["decay_sup"] = float(np.max((1.0 + op.r[tail]) ** power
                                     * np.abs(res.samples[0][tail])))
    # domain sensitivity at fixed spacing: same h, r_max scaled by 1.2
    op_ext = build_sector(profile, 0, resolution=int(resolution * 1.2),
                          r_max=R_MAX * 1.2)
    res_ext = eigen_smallest(op_ext, 1, refine=False)
    tail_ext = op_ext.r >= 0.5 * R_MAX
    cert["decay_sup_extended"] = float(np.max(
        (1.0 + op_ext.r[tail_ext]) ** power * np.abs(res_ext.samples[0][tail_ext])))
    cert["lambda_shift_extended"] = abs(float(res_ext.lambdas[0])
                                        - float(res.meta["unrefined"][0]))
    return lam1, f, cert
