"""Fixed composite Gauss-Legendre rule and the folded LLR integral built on it.

The rule has 8 equal panels of 24 Gauss-Legendre nodes on [0, 1], built once
at import as read-only arrays, so it integrates polynomials up to degree 47
exactly and every call is one deterministic dot product.

llr_integral evaluates the integrals behind the capacity and exponent
kernels. For the BPSK Gaussian channel with amplitude a and noise std sigma,
the log-likelihood ratio given x = +1 is L = 2*r*u with u = z/sigma ~ N(r, 1)
and r = a/sigma, and the symmetry W(-z|+1) = e^(-L) W(z|+1) folds any
expectation E[g(L)] onto u >= 0. Every folded integrand there is smooth; it
only needs the window to stop where its LLR factor has decayed.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre

__all__ = ["NODES", "WEIGHTS", "integrate", "llr_integral"]

_ORDER = 24
_PANELS = 8
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _unit_rule() -> tuple[np.ndarray, np.ndarray]:
    base_x, base_w = legendre.leggauss(_ORDER)
    left = np.arange(_PANELS)[:, None] / _PANELS
    nodes = (left + 0.5 * (base_x + 1.0) / _PANELS).ravel()
    weights = np.tile(0.5 * base_w / _PANELS, _PANELS)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


NODES, WEIGHTS = _unit_rule()


def integrate(f, lo, hi):
    """Integrate a vectorized f over [lo, hi] on the fixed rule.

    `hi` may be an array: the result then holds one integral per entry, and
    f receives one row of nodes per entry.
    """
    width = np.subtract(hi, lo)
    return f(lo + np.multiply.outer(width, NODES)) @ WEIGHTS * width


def llr_integral(r: float, g, t=1.0):
    """Integral of phi(u - r) * g(2*r*u) over u >= 0, phi the standard normal pdf.

    The window ends where the LLR reaches 40*t, which is enough for integrands
    that decay like e^(-L/t), or at u = r + 12, past which phi holds less than
    1e-32 of its mass. `t` may be an array: g then receives one row of LLRs
    per entry and returns values of the same shape. Requires r > 0.
    """
    u_max = np.minimum(20.0 * np.asarray(t, dtype=float), r * (r + 12.0)) / r
    return integrate(
        lambda u: _INV_SQRT_2PI * np.exp(-0.5 * (u - r) ** 2) * g(2.0 * r * u), 0.0, u_max
    )
