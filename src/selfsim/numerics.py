"""Finite-difference derivatives of sampled functions.

``derivative_on_grid`` differentiates a whole grid in one array pass:
``_fornberg_columns`` runs Fornberg's recursion once with every scalar
replaced by a length-N array, one entry per grid point, so each point gets
the weights of its own stencil.
"""
from __future__ import annotations

import numpy as np

from .core import ParameterError


def _fornberg_columns(x0: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """Fornberg's recursion for N stencils at once.

    x0 has shape (N,) and x shape (s, N), column i holding the stencil of
    x0[i]; returns shape (m+1, s, N).  The operations are those of the
    scalar recursion for one stencil, in the same order, so each column is
    bit-identical to it.
    """
    s, npts = x.shape
    c = np.zeros((m + 1, s, npts))
    c1, c4 = np.ones(npts), x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, s):
        mn = min(i, m)
        c2, c5 = np.ones(npts), c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


def derivative_on_grid(x: np.ndarray, y: np.ndarray, order: int = 1,
                       stencil: int = 7) -> np.ndarray:
    """k-th derivative of sampled y(x) with sliding Fornberg stencils.

    Point i uses the `stencil` consecutive nodes centred on it, shifted
    inward near the ends.  All weights come from one array pass of the
    recursion; the weighted sum runs over the stencil in node order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < stencil:
        raise ParameterError(f"a {stencil}-point stencil needs at least "
                             f"{stencil} grid points, got {n}")
    lo = np.clip(np.arange(n) - stencil // 2, 0, n - stencil)
    idx = lo[None, :] + np.arange(stencil)[:, None]
    w = _fornberg_columns(x, x[idx], order)[order]
    yy = y[idx]
    out = w[0] * yy[0]
    for j in range(1, stencil):
        out += w[j] * yy[j]
    return out
