"""Fornberg's recursion for one stencil, in scalars: the tests' oracle for
the program's array recursion (numerics._fornberg_columns)."""
import numpy as np


def fornberg_weights(x0: float, x: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for derivatives 0..m at x0 from nodes x.

    Returns an array of shape (m+1, len(x)); row k holds the weights of the
    k-th derivative.  Standard recursive construction, stable for the short
    stencils (<= 9 nodes) used here.
    """
    n = len(x)
    c = np.zeros((m + 1, n))
    c1, c4 = 1.0, x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5 = 1.0, c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c
