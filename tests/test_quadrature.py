import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from satwiretap.quadrature import NODES, WEIGHTS, integrate, llr_integral


def test_unit_gaussian_integrates_to_one():
    f = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    val = integrate(f, -12.0, 12.0)
    assert abs(val - 1.0) < 1e-11


def test_sine_closed_form():
    val = integrate(np.sin, 0.0, math.pi)
    assert abs(val - 2.0) < 1e-11


def test_polynomial_exact_on_single_panel():
    # order-24 Gauss-Legendre is exact for polynomials up to degree 47
    f = lambda x: 5.0 * x**9 - x**4 + 3.0
    val = integrate(f, -1.0, 3.0)
    exact = 5.0 * (3.0**10 - 1.0) / 10.0 - (3.0**5 + 1.0) / 5.0 + 3.0 * 4.0
    assert abs(val - exact) < 1e-9 * abs(exact)


def test_oscillatory_integrand_converges():
    # six periods on the fixed rule's 96 nodes
    f = lambda x: np.cos(40.0 * x)
    val = integrate(f, 0.0, 1.0)
    assert abs(val - math.sin(40.0) / 40.0) < 1e-10


def test_vectorized_calls_only():
    calls = []

    def f(x):
        calls.append(np.array(x))
        return np.ones_like(x)

    val = integrate(f, 0.5, 2.0)
    assert abs(val - 1.5) < 1e-12
    assert len(calls) == 1 and calls[0].shape == NODES.shape
    assert calls[0].min() >= 0.5 and calls[0].max() <= 2.0


def test_one_row_per_upper_limit():
    his = np.array([1.0, 2.0, 4.0])
    vals = integrate(lambda x: 3.0 * x * x, 0.0, his)
    assert vals.shape == (3,)
    assert np.allclose(vals, his**3, rtol=1e-14)


def test_rule_is_read_only():
    assert not NODES.flags.writeable and not WEIGHTS.flags.writeable
    assert abs(WEIGHTS.sum() - 1.0) < 1e-15


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=48),
    lo=st.floats(min_value=-3.0, max_value=3.0),
    width=st.floats(min_value=0.01, max_value=4.0),
)
def test_polynomial_exact_on_any_interval(coeffs, lo, width):
    # degree <= 47 is inside the order-24 rule's exactness, so only the
    # affine map onto [lo, hi] and rounding separate it from the closed form;
    # errors are measured relative to width * sum |c_i| R^i, the size of the
    # terms being summed, since the exact integral itself may cancel to ~0
    hi = lo + width
    poly = np.polynomial.Polynomial(coeffs)
    antideriv = poly.integ()
    exact = antideriv(hi) - antideriv(lo)
    reach = max(abs(lo), abs(hi))
    magnitude = width * (1.0 + sum(abs(c) * reach**i for i, c in enumerate(coeffs)))
    val = integrate(poly, lo, hi)
    assert abs(val - exact) <= 1e-9 * magnitude


def _decaying(llr):
    # a stack of two integrands, as the E0 kernel passes with derivatives
    return np.stack((np.exp(-llr), np.log1p(np.exp(-llr))))


@settings(max_examples=40, deadline=None)
@given(
    r=st.lists(st.floats(min_value=1e-3, max_value=16.0), min_size=1, max_size=12),
    t=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=5),
)
def test_llr_integral_batch_equals_single_calls(r, t):
    # the reduction rounds each row alike whatever the batch: no tolerance
    whole = llr_integral(np.array(r), _decaying)
    assert whole.shape == (2, len(r))
    for i, ri in enumerate(r):
        assert np.array_equal(whole[:, i], llr_integral(ri, _decaying))
    grid = llr_integral(np.array(r)[:, None], _decaying, np.array(t))
    assert grid.shape == (2, len(r), len(t))
    for i, ri in enumerate(r):
        assert np.array_equal(grid[:, i], llr_integral(ri, _decaying, np.array(t)))
        for j, tj in enumerate(t):
            assert np.array_equal(grid[:, i, j], llr_integral(ri, _decaying, tj))
