"""Finite-difference weights: the one-pass array recursion and its callers."""
import numpy as np
import pytest

from selfsim import numerics
from selfsim.core import ParameterError
from selfsim.numerics import derivative_on_grid

from fornberg_oracle import fornberg_weights

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

grids = st.builds(
    lambda x0, steps: x0 + np.cumsum(np.array(steps)),
    st.floats(-5.0, 5.0),
    st.lists(st.floats(0.1, 1.0), min_size=7, max_size=40))


def stencil_starts(n, stencil):
    return np.clip(np.arange(n) - stencil // 2, 0, n - stencil)


@settings(max_examples=100, deadline=None)
@given(x=grids, stencil=st.sampled_from([5, 7]), order=st.sampled_from([1, 2]))
def test_array_weights_are_fornberg_weights_bit_for_bit(x, stencil, order):
    lo = stencil_starts(len(x), stencil)
    idx = lo[None, :] + np.arange(stencil)[:, None]
    cols = numerics._fornberg_columns(x, x[idx], order)
    for i, start in enumerate(lo):
        ref = fornberg_weights(x[i], x[start:start + stencil], order)
        assert cols[:, :, i].tobytes() == ref.tobytes()


@settings(max_examples=100, deadline=None)
@given(x=grids, stencil=st.sampled_from([5, 7]), order=st.sampled_from([1, 2]),
       coef=st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7))
def test_polynomials_below_the_stencil_degree_are_exact(x, stencil, order,
                                                        coef):
    c = np.array(coef[:stencil])          # degree stencil - 1
    got = derivative_on_grid(x, np.polyval(c, x), order, stencil)
    exact = np.polyval(np.polyder(c, order), x)
    # rounding bound: the weights' sizes times the sizes of the terms summed
    lo = stencil_starts(len(x), stencil)
    size = np.polyval(np.abs(c), np.abs(x))
    scale = np.array([np.abs(fornberg_weights(x[i], x[s:s + stencil], order)[order])
                      @ size[s:s + stencil] for i, s in enumerate(lo)])
    assert np.all(np.abs(got - exact) <= 1e-12 * scale + 1e-300)


@pytest.mark.parametrize("points", [5, 6])
def test_grid_shorter_than_the_stencil_is_refused(points):
    x = np.linspace(0.0, 1.0, points)
    with pytest.raises(ParameterError, match="7 grid points"):
        derivative_on_grid(x, x**2)


def test_grid_of_stencil_length_differentiates_exactly():
    x = np.linspace(0.0, 1.0, 7)
    assert derivative_on_grid(x, x**2) == pytest.approx(2.0 * x, abs=1e-13)
