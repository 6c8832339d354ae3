"""Deterministic 1-D quadrature shared by the capacity and exponent modules.

Composite order-24 Gauss-Legendre rule, doubling from 8 panels up to a cap of
8192 until two successive refinements agree to the requested absolute
tolerance (the doubling check plays the role of a Richardson error estimate).
Each composite rule is built once on [-1, 1] and cached; a call only maps it
onto its interval. The node count is deterministic, so identical inputs give
bit-identical results. An integral still unconverged at the cap raises
ValueError instead of returning its last estimate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["integrate_doubling"]

_ORDER = 24
_START_PANELS = 8
_MAX_PANELS = 8192


@lru_cache(maxsize=None)
def _unit_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only composite nodes and weights of `panels` equal panels on [-1, 1]."""
    base_x, base_w = np.polynomial.legendre.leggauss(_ORDER)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = (mid + half * base_x).ravel()
    weights = (half * base_w).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def integrate_doubling(f, lo: float, hi: float, abs_tol: float = 1e-11) -> float:
    """Integrate a vectorized integrand over [lo, hi].

    Parameters
    ----------
    f : callable
        Maps an ndarray of points to an ndarray of integrand values.
    lo, hi : float
        Integration limits, lo < hi.
    abs_tol : float
        Stop once two successive panel doublings agree to this absolute
        difference.

    Returns
    -------
    float
        The converged integral estimate.

    Raises
    ------
    ValueError
        On an empty interval, a non-positive tolerance, or no convergence
        within the panel cap.
    """
    if not hi > lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    if abs_tol <= 0:
        raise ValueError("abs_tol must be positive")
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    prev = None
    panels = _START_PANELS
    while panels <= _MAX_PANELS:
        nodes, weights = _unit_rule(panels)
        cur = half * float(np.dot(np.asarray(f(mid + half * nodes), dtype=float), weights))
        if prev is not None and abs(cur - prev) <= abs_tol:
            return cur
        prev = cur
        panels *= 2
    raise ValueError(
        f"integral over [{lo}, {hi}] did not converge to abs_tol={abs_tol} in {_MAX_PANELS} panels"
    )
