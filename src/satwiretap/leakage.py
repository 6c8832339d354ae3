"""Finite-length strong-secrecy leakage bounds for the Gaussian eavesdropper.

Exponent functions psi and E0 of the eavesdropper channel drive an upper bound
on the seed-averaged information leakage of the hashed coset code:

    leak <= (1/s) * 2^(-s*k') * exp(n * E0_max(s)),   0 < s <= 1.

Everything internal is computed in nats and in log domain; the single
conversion to log2 happens at each public boundary. E0's exponent 1/(1-s) is
singular at s=1, so the minimization over s treats s=1 as the analytic limit
E0_max(s->1) = ln(2*Phi(a/sigma)) and flags the endpoint through s_star=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr

from .channel import WiretapChannelParams
from .quadrature import integrate_doubling

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
_UNIFORM = (0.5, 0.5)


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


def _check_qx(qx: Sequence[float]) -> tuple[float, float]:
    q = tuple(float(p) for p in qx)
    if len(q) != 2 or min(q) < 0 or abs(sum(q) - 1.0) > 1e-9:
        raise ValueError(f"qx must be a distribution on the two BPSK symbols, got {qx}")
    return q


def _eve_log_densities(z: np.ndarray, params: WiretapChannelParams):
    a = params.eve_amplitude
    v = params.eve_noise_var
    c = -0.5 * math.log(2.0 * math.pi * v)
    lp = c - (z - a) ** 2 / (2.0 * v)
    lm = c - (z + a) ** 2 / (2.0 * v)
    return lp, lm


def _eve_window(params: WiretapChannelParams) -> tuple[float, float]:
    a = params.eve_amplitude
    sigma = math.sqrt(params.eve_noise_var)
    return -a - 10.0 * sigma, a + 10.0 * sigma


def psi(s: float, params: WiretapChannelParams, qx: Sequence[float] = _UNIFORM) -> float:
    """Leakage exponent psi(s) = ln int sum_x q(x) W(z|x)^(1+s) W_mix(z)^(-s) dz.

    Valid for s in (0, 1]; psi(s)/s -> I(X;Z) in nats as s -> 0. Computed by
    the shared deterministic quadrature with log-domain weighting so large
    exponents never overflow.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"psi requires s in (0, 1], got {s}")
    qp, qm = _check_qx(qx)
    if params.gamma_g == 0.0:
        return 0.0

    def integrand(z: np.ndarray) -> np.ndarray:
        lp, lm = _eve_log_densities(z, params)
        with np.errstate(divide="ignore"):
            lmix = np.logaddexp(lp + math.log(qp) if qp > 0 else -np.inf,
                                lm + math.log(qm) if qm > 0 else -np.inf)
        out = np.zeros_like(z)
        if qp > 0:
            out += qp * np.exp(lp + s * (lp - lmix))
        if qm > 0:
            out += qm * np.exp(lm + s * (lm - lmix))
        return out

    lo, hi = _eve_window(params)
    return math.log(integrate_doubling(integrand, lo, hi, abs_tol=1e-12))


def e0(s: float, params: WiretapChannelParams, qx: Sequence[float] = _UNIFORM) -> float:
    """Exponent E0(s) = ln int (sum_x q(x) W(z|x)^(1/(1-s)))^(1-s) dz, in nats.

    Valid for s in (0, 1); the power 1/(1-s) diverges at s=1 (see
    e0_max_s1_limit for the analytic endpoint). The properly normalized Eve
    density is used throughout, which guarantees E0 -> 0 as s -> 0.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"e0 requires s in (0, 1), got {s}")
    qp, qm = _check_qx(qx)
    if params.gamma_g == 0.0:
        return 0.0
    p = 1.0 / (1.0 - s)
    t = 1.0 - s
    lqp = math.log(qp) if qp > 0 else -np.inf
    lqm = math.log(qm) if qm > 0 else -np.inf

    def integrand(z: np.ndarray) -> np.ndarray:
        lp, lm = _eve_log_densities(z, params)
        inner = np.logaddexp(lqp + p * lp, lqm + p * lm)
        return np.exp(t * inner)

    lo, hi = _eve_window(params)
    return math.log(integrate_doubling(integrand, lo, hi, abs_tol=1e-12))


@lru_cache(maxsize=65536)
def e0_max(s: float, params: WiretapChannelParams) -> float:
    """E0 maximized over the input distribution.

    The eavesdropper channel is symmetric, so the maximum is attained at the
    uniform input; cached because bound minimization evaluates many s values
    for the same channel.
    """
    return e0(s, params, _UNIFORM)


def e0_max_s1_limit(params: WiretapChannelParams) -> float:
    """Analytic limit of E0_max(s) as s -> 1: ln int max_x W(z|x) dz.

    For the two-Gaussian eavesdropper the envelope integrates to
    2*Phi(a/sigma), so the limit is ln2 + ln Phi(a/sigma); it is exactly 0
    when gamma_g = 0.
    """
    ratio = params.eve_amplitude / math.sqrt(params.eve_noise_var)
    return _LN2 + float(log_ndtr(ratio))


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

    A coarse scan over (eps, 1-eps] brackets the minimum, golden-section
    refinement polishes it, and the analytic s=1 endpoint competes with the
    interior result. The returned curve holds the coarse samples plus the
    endpoint, so callers can plot or audit the minimization.
    """
    if s_grid_resolution < 100:
        raise ValueError(f"s_grid_resolution must be >= 100, got {s_grid_resolution}")

    def f(s: float) -> float:
        return leakage_bound(s, code, params)

    grid = np.linspace(_S_EPS, 1.0 - _S_EPS, s_grid_resolution)
    values = np.array([f(s) for s in grid])
    i = int(np.argmin(values))

    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, s_grid_resolution - 1)]
    inv_gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_gr * (hi - lo)
    d = lo + inv_gr * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-10:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_gr * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_gr * (hi - lo)
            fd = f(d)
    s_star = 0.5 * (lo + hi)
    best = f(s_star)
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
