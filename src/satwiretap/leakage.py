"""Finite-length strong-secrecy leakage bounds for the Gaussian eavesdropper.

Exponent functions psi and E0 of the eavesdropper channel drive an upper bound
on the seed-averaged information leakage of the hashed coset code:

    leak <= (1/s) * 2^(-s*k') * exp(n * E0_max(s)),   0 < s <= 1.

Everything internal is computed in nats and in log domain; the single
conversion to log2 happens at each public boundary.

psi and E0 are expectations over Eve's log-likelihood ratio, so they depend
on the channel only through r = a/sigma. E0 is evaluated in the folded form
E0(s) = s*ln2 + ln(Phi(r) + J(s)), with Phi from channel.ndtr and J from
quadrature.llr_integral, for a whole array of s in one call; min_leakage_bound
scans its s-grid that way and refines the minimum by zooming the same call.
J vanishes as s -> 1, so the analytic limit E0_max(s->1) = ln(2*Phi(r)) is
the same formula; the minimization treats s=1 as that endpoint and flags it
through s_star=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import WiretapChannelParams, ndtr
from .quadrature import llr_integral

__all__ = [
    "CodeParams",
    "LeakageBound",
    "psi",
    "e0",
    "e0_max",
    "e0_max_s1_limit",
    "leakage_bound",
    "min_leakage_bound",
    "noiseless_main_bounds",
    "renyi_entropy",
    "nonuniform_seed_bound",
    "exponent_margin",
]

_LN2 = math.log(2.0)
_S_EPS = 1e-6
_ZOOM_POINTS = 33


@dataclass(frozen=True)
class CodeParams:
    """Wiretap code dimensions: n channel uses, k secret bits, k' sacrifice bits."""

    n: int
    k: int
    k_prime: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"block length n must be >= 1, got {self.n}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.k_prime < 0:
            raise ValueError(f"k_prime must be >= 0, got {self.k_prime}")
        if self.k + self.k_prime > self.n:
            raise ValueError(
                f"k + k_prime = {self.k + self.k_prime} exceeds block length n = {self.n}"
            )

    @property
    def rho_sec(self) -> float:
        """Wiretap coding rate k'/n."""
        return self.k_prime / self.n


@dataclass(frozen=True)
class LeakageBound:
    """Minimized leakage bound: optimizing s, its log2 value, sampled curve.

    s_star == 1.0 means the analytic s=1 endpoint won the minimization; the
    curve always carries the endpoint as its last sample.
    """

    s_star: float
    log2_bound: float
    curve: tuple[tuple[float, float], ...]


def _eve_ratio(params: WiretapChannelParams) -> float:
    return params.eve_amplitude / math.sqrt(params.eve_noise_var)


def _e0_nats(s, r: float):
    """E0(s) = s*ln2 + ln(Phi(r) + J(s)) for scalar or array s in (0, 1).

    J = integral over z >= 0 of W+(z) * ((1 + e^(-L/t))^t - 1) with t = 1 - s,
    the part of E0's integral that the folded LLR adds to Phi(r).
    """
    s = np.asarray(s, dtype=float)
    if r == 0.0:
        return np.zeros_like(s)
    t = 1.0 - s
    col = t[..., None]
    j = llr_integral(r, lambda llr: np.expm1(col * np.log1p(np.exp(-llr / col))), t)
    return s * _LN2 + np.log1p(j - ndtr(-r))


def psi(s: float, params: WiretapChannelParams) -> float:
    """Leakage exponent psi(s) = ln int sum_x q(x) W(z|x)^(1+s) W_mix(z)^(-s) dz.

    Uniform input q. Valid for s in (0, 1]; psi(s)/s -> I(X;Z) in nats as
    s -> 0. Computed as s*ln2 + ln E[(1 + e^(-L))^(-s)] over Eve's LLR L,
    folded onto L >= 0 like E0.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"psi requires s in (0, 1], got {s}")
    r = _eve_ratio(params)
    if r == 0.0:
        return 0.0

    def excess(llr):
        # (1 + e^-L)^-s * (1 + e^(-(1+s)L)) - 1: both signs of L at once
        log_lead = -s * np.log1p(np.exp(-llr))
        return np.expm1(log_lead) + np.exp(log_lead - (1.0 + s) * llr)

    return s * _LN2 + math.log1p(float(llr_integral(r, excess)) - ndtr(-r))


def e0(s: float, params: WiretapChannelParams) -> float:
    """Exponent E0(s) = ln int (sum_x q(x) W(z|x)^(1/(1-s)))^(1-s) dz, in nats.

    Uniform input q. Valid for s in (0, 1); the power 1/(1-s) diverges at
    s=1 (see e0_max_s1_limit for the analytic endpoint). The properly
    normalized Eve density is used throughout, which guarantees E0 -> 0 as
    s -> 0.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"e0 requires s in (0, 1), got {s}")
    return float(_e0_nats(s, _eve_ratio(params)))


def e0_max(s: float, params: WiretapChannelParams) -> float:
    """E0 maximized over the input distribution.

    The eavesdropper channel is symmetric, so the maximum is attained at the
    uniform input, which is what e0 evaluates.
    """
    return e0(s, params)


def e0_max_s1_limit(params: WiretapChannelParams) -> float:
    """Analytic limit of E0_max(s) as s -> 1: ln int max_x W(z|x) dz.

    For the two-Gaussian eavesdropper the envelope integrates to
    2*Phi(a/sigma), so the limit is ln2 + ln Phi(a/sigma): E0's formula with
    J = 0. It is exactly 0 when gamma_g = 0.
    """
    return _LN2 + math.log1p(-ndtr(-_eve_ratio(params)))


def leakage_bound(s: float, code: CodeParams, params: WiretapChannelParams) -> float:
    """log2 of the seed-averaged leakage bound (1/s)*2^(-s*k')*e^(n*E0_max(s)).

    Evaluated entirely in log domain, so block lengths with |exponent| up to
    about 1e6 stay finite. Linear in k' with slope -s when expressed in bits.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"leakage_bound requires s in (0, 1), got {s}")
    nats = -math.log(s) + code.n * e0_max(s, params) - s * code.k_prime * _LN2
    return nats / _LN2


def _leakage_bound_endpoint(code: CodeParams, params: WiretapChannelParams) -> float:
    # s = 1: the -ln(s) term vanishes and E0_max is replaced by its limit.
    nats = code.n * e0_max_s1_limit(params) - code.k_prime * _LN2
    return nats / _LN2


def min_leakage_bound(
    code: CodeParams,
    params: WiretapChannelParams,
    s_grid_resolution: int = 400,
) -> LeakageBound:
    """Minimize the leakage bound over s in (0, 1].

    A scan over (eps, 1-eps] brackets the minimum between the neighbours of
    the best sample; the bracket is then resampled at 33 points and narrowed
    to the neighbours of the best one until it is 1e-10 wide. E0 is convex in
    s, so the bound has a single minimum. The analytic s=1 endpoint competes
    with the interior result. The returned curve holds the scan samples plus
    the endpoint, so callers can plot or audit the minimization.
    """
    if s_grid_resolution < 100:
        raise ValueError(f"s_grid_resolution must be >= 100, got {s_grid_resolution}")
    r = _eve_ratio(params)

    def f(s: np.ndarray) -> np.ndarray:
        nats = -np.log(s) + code.n * _e0_nats(s, r) - s * code.k_prime * _LN2
        return nats / _LN2

    grid = np.linspace(_S_EPS, 1.0 - _S_EPS, s_grid_resolution)
    values = f(grid)
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, s_grid_resolution - 1)]
    while hi - lo > 1e-10:
        zoom = np.linspace(lo, hi, _ZOOM_POINTS)
        j = int(np.argmin(f(zoom)))
        lo, hi = zoom[max(j - 1, 0)], zoom[min(j + 1, _ZOOM_POINTS - 1)]
    s_star = 0.5 * (lo + hi)
    best = float(f(s_star))
    if values[i] < best:
        s_star, best = float(grid[i]), float(values[i])

    endpoint = _leakage_bound_endpoint(code, params)
    curve = [(float(s), float(v)) for s, v in zip(grid, values)]
    curve.append((1.0, endpoint))
    if endpoint <= best:
        s_star, best = 1.0, endpoint
    return LeakageBound(s_star=float(s_star), log2_bound=float(best), curve=tuple(curve))


def noiseless_main_bounds(
    s: float, n: int, k_prime: int, params: WiretapChannelParams
) -> tuple[float, float]:
    """Leakage bounds for the identity-ECC case (k + k' = n), in log2 bits.

    Returns (tight, relaxed) where, with x = 2^(-s*k') * e^(n*psi(s)),

        tight   = log2((1/s) * ln(1 + x)),
        relaxed = log2((1/s) * x),

    and tight <= relaxed always since ln(1+x) <= x. Both are evaluated in log
    domain; for very negative exponents ln(1+x) ~ x makes the two coincide.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"noiseless_main_bounds requires s in (0, 1], got {s}")
    if n < 1:
        raise ValueError(f"block length n must be >= 1, got {n}")
    if not 0 <= k_prime <= n:
        raise ValueError(f"k_prime must lie in [0, n], got {k_prime}")
    lx = n * psi(s, params) - s * k_prime * _LN2
    relaxed = (-math.log(s) + lx) / _LN2
    if lx < -37.0:
        # ln(ln(1+x)) = lx + ln1p(-x/2 + ...), correction below double precision
        ln_ln1p = lx
    elif lx > 700.0:
        # ln(1+x) ~ lx for huge x
        ln_ln1p = math.log(lx)
    else:
        ln_ln1p = math.log(math.log1p(math.exp(lx)))
    tight = (-math.log(s) + ln_ln1p) / _LN2
    return tight, relaxed


def renyi_entropy(dist: Sequence[float], order: float) -> float:
    """Renyi entropy H_order of a finite distribution, in nats.

    H_order = ln(sum p^order) / (1 - order) for order > 1; with order = 1+s
    this is -(1/s) * ln sum p^(1+s), the form the nonuniform seed bound uses.
    """
    p = np.asarray(dist, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("dist must be a non-empty 1-D distribution")
    if np.min(p) < 0 or abs(float(np.sum(p)) - 1.0) > 1e-9:
        raise ValueError("dist must be nonnegative and sum to 1")
    if order <= 1.0:
        raise ValueError(f"order must exceed 1, got {order}")
    mass = p[p > 0]
    return float(np.log(np.sum(mass**order)) / (1.0 - order))


def nonuniform_seed_bound(
    s: float,
    n: int,
    seed_dist: Sequence[float],
    params: WiretapChannelParams,
    code: CodeParams | None = None,
) -> float:
    """log2 leakage bound when the sacrifice randomness L is not uniform.

    The 2^(-s*k') term of the uniform-seed bound is replaced by
    exp(-s*H_{1+s}(L)); a uniform L on 2^k' points reproduces leakage_bound
    exactly. When `code` is given, the support size of `seed_dist` must be
    2^k_prime, tying the distribution to the declared code dimensions.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"nonuniform_seed_bound requires s in (0, 1), got {s}")
    if n < 1:
        raise ValueError(f"block length n must be >= 1, got {n}")
    if code is not None and len(seed_dist) != 2**code.k_prime:
        raise ValueError(
            f"seed_dist has {len(seed_dist)} outcomes, expected 2^{code.k_prime}"
        )
    h = renyi_entropy(seed_dist, 1.0 + s)
    nats = -math.log(s) + n * e0_max(s, params) - s * h
    return nats / _LN2


def exponent_margin(s: float, code: CodeParams, params: WiretapChannelParams) -> float:
    """Decay-regime margin (k'/n)*ln2 - E0_max(s)/s, in nats.

    Positive margin means the leakage bound decays exponentially in n at this
    s; zero or negative means the sacrifice rate is too small at this s.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"exponent_margin requires s in (0, 1), got {s}")
    return (code.k_prime / code.n) * _LN2 - e0_max(s, params) / s
