"""Recorded shooting brackets and regression anchors.

The bracket below was located by a departure-direction scan over initial
heights a in (kappa, 3] at integrator tolerance 1e-13 and then refined by
bisection; the bounded positive decaying profile for (n, p) = (3, 7) sits at
a* = 2.3025214117...  The subcritical scan grid is the fixture for the
no-nonconstant-profile check.
"""
from __future__ import annotations

import numpy as np

# (n, p) -> (a_lo, a_hi) with opposite departure directions
SHOOTING_BRACKETS = {
    (3, 7.0): (2.30, 2.31),
}

# reference bisection limit from the development scan (DOP853, rtol 1e-13)
A_STAR_REFERENCE = {
    (3, 7.0): 2.302521411739492,
}

# initial-height grid for the subcritical no-profile scan
SUBCRITICAL_SCAN = {
    (3, 2.0): np.concatenate([np.linspace(0.05, 0.999, 12),
                              np.linspace(1.0005, 8.0, 24)]),
}

# regression label: a = 1.5 kappa at (3, 7) crosses zero (integrated at 1e-12)
REGRESSION_LABELS = {
    (3, 7.0, "a=1.5kappa"): "sign_changing",
}


def supercritical_scan_grid(kappa: float):
    """40 initial heights from just above kappa to 3."""
    return np.linspace(kappa * 1.0005, 3.0, 40)


_PROFILE_CACHE: dict = {}


def reference_profile(n: int = 3, p: float = 7.0):
    """The recorded-bracket decaying profile, bisected once per process."""
    key = (n, float(p))
    if key not in _PROFILE_CACHE:
        from .core import make_params
        from .shooting import shoot
        a_lo, a_hi = SHOOTING_BRACKETS[key]
        _PROFILE_CACHE[key] = shoot(make_params(n, p, require_supercritical=True),
                                    a_lo, a_hi)
    return _PROFILE_CACHE[key]
