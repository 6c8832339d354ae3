"""Finite-length strong-secrecy leakage bounds for the Gaussian eavesdropper.

Exponent functions psi and E0 of the eavesdropper channel drive an upper bound
on the seed-averaged information leakage of the hashed coset code:

    leak <= (1/s) * 2^(-s*k') * exp(n * E0_max(s)),   0 < s <= 1.

Everything internal is computed in nats and in log domain; the single
conversion to log2 happens at each public boundary.

psi and E0 are expectations over Eve's log-likelihood ratio, so they depend
on the channel only through r = a/sigma. E0 is evaluated in the folded form
E0(s) = s*ln2 + ln(Phi(r) + J(s)), with Phi from channel.ndtr and J from
quadrature.llr_integral, for a whole array of s in one call; the same call
can also return E0' and E0'', differentiated under the integral.

min_leakage_bound scans its s-grid once and then runs a bracketed Newton
iteration on s times the derivative of the objective,
-1 + s*(n*E0'(s) - k'*ln2); E0 is convex in s, so that derivative has one
root. The scan does not depend on k', so one scan serves every sacrifice
size of a channel, and the figures minimize all their rates in one batch.
J vanishes as s -> 1, so the analytic limit E0_max(s->1) = ln(2*Phi(r)) is
the same formula; the minimization treats s=1 as that endpoint and reports
which case supplied s*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

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
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 64
_SCAN_BLOCK = 64


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

    s_star_source says where s_star came from: "interior" for a stationary
    point inside the scanned range, "grid_edge" when the bound still falls
    towards the first or last scan sample (s = 1e-6 or 1 - 1e-6), and
    "endpoint" when the analytic s=1 endpoint won (then s_star == 1.0). The
    curve always carries the endpoint as its last sample.
    """

    s_star: float
    log2_bound: float
    curve: tuple[tuple[float, float], ...]
    s_star_source: Literal["interior", "grid_edge", "endpoint"]


def _eve_ratio(params: WiretapChannelParams) -> float:
    return params.eve_amplitude / math.sqrt(params.eve_noise_var)


def _e0_nats(s, r: float, derivatives: bool = False):
    """E0(s) = s*ln2 + ln(Phi(r) + J(s)) for scalar or array s in (0, 1).

    J = integral over z >= 0 of W+(z) * h with h = e^(t*l) - 1, t = 1 - s,
    x = L/t >= 0 and l = ln(1 + e^(-x)): the part of E0's integral that the
    folded LLR adds to Phi(r). With `derivatives`, returns (E0, E0', E0'')
    from the same integral call. With sigma = e^(-x)/(1 + e^(-x)),

        dh/dt   = (1 + h) * (l + x*sigma),
        d2h/dt2 = (1 + h) * ((l + x*sigma)^2 + x^2*sigma*(1 - sigma)/t),

    J_s = -J_t and J_ss = J_tt, so with M = Phi(r) + J,
    E0' = ln2 + J_s/M and E0'' = J_ss/M - (J_s/M)^2.
    """
    s = np.asarray(s, dtype=float)
    if r == 0.0:
        zero = np.zeros_like(s)
        return (zero, zero, zero) if derivatives else zero
    t = 1.0 - s
    col = t[..., None]

    def integrand(llr):
        if not derivatives:
            # h alone, with no named temporaries: a 64-point scan block makes
            # each of them 96 kB
            return np.expm1(col * np.log1p(np.exp(-llr / col)))
        x = llr / col
        tail = np.exp(-x)
        ell = np.log1p(tail)
        h = np.expm1(col * ell)
        sigma = tail / (1.0 + tail)
        slope = ell + x * sigma
        curvature = slope * slope + x * x * sigma * (1.0 - sigma) / col
        return np.stack((h, (1.0 + h) * slope, (1.0 + h) * curvature))

    j = llr_integral(r, integrand, t)
    if not derivatives:
        return s * _LN2 + np.log1p(j - ndtr(-r))
    j, j_t, j_tt = j
    excess = j - ndtr(-r)
    ratio = j_t / (1.0 + excess)
    return s * _LN2 + np.log1p(excess), _LN2 - ratio, j_tt / (1.0 + excess) - ratio * ratio


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


def _bound_bits(s, e0_nats, n: int, k_prime):
    return (-np.log(s) + n * e0_nats - s * k_prime * _LN2) / _LN2


def _min_bound_rows(
    n: int, params: WiretapChannelParams, k_primes, s_grid_resolution: int
):
    """Minimize the leakage bound over s in (0, 1] for every k' in `k_primes`.

    One kernel call scans the s-grid for all rows. Each row then starts from
    its best sample, bracketed by that sample's grid neighbours, and takes
    Newton steps on g(s) = s*f'(s) = -1 + s*(n*E0'(s) - k'*ln2), where
    f(s) = -ln s + n*E0(s) - s*k'*ln2. g has the sign and the root of f' but
    is nearly linear where the -1/s term dominates f': Newton on f' itself
    would only about double s per step there, up to 15 steps for a minimum
    in the first grid cell, against at most 6 on g. A step that leaves the
    bracket, or meets g' <= 0, becomes a bisection. Each iteration is one
    kernel call on the rows still moving, and a row stops once its Newton or
    bisection step is at most 1e-12, at the last point it evaluated. That
    point competes with the best grid sample and then with the analytic s=1
    endpoint.

    Returns (s, curves, s_star, log2_bound, source): the scan points with
    s=1 appended, and per row its curve over them in log2 bits, the
    minimizer, the minimum and where the minimizer came from.
    """
    if s_grid_resolution < 100:
        raise ValueError(f"s_grid_resolution must be >= 100, got {s_grid_resolution}")
    r = _eve_ratio(params)
    k_primes = np.asarray(k_primes, dtype=float)
    grid = np.linspace(_S_EPS, 1.0 - _S_EPS, s_grid_resolution)
    # in blocks of 64 values of s: each kernel temporary stays under 100 kB, so
    # it is reused from the heap instead of mapped and faulted in afresh
    blocks = np.split(grid, range(_SCAN_BLOCK, s_grid_resolution, _SCAN_BLOCK))
    e0_grid = np.concatenate([_e0_nats(block, r) for block in blocks])
    values = _bound_bits(grid, e0_grid, n, k_primes[:, None])
    i = np.argmin(values, axis=1)
    lo = grid[np.maximum(i - 1, 0)]
    hi = grid[np.minimum(i + 1, s_grid_resolution - 1)]
    s_star = grid[i]
    best = np.empty_like(s_star)
    active = np.arange(k_primes.size)
    for _ in range(_NEWTON_MAX_ITER):
        s = s_star[active]
        e, d1, d2 = _e0_nats(s, r, derivatives=True)
        best[active] = _bound_bits(s, e, n, k_primes[active])
        rate = n * d1 - k_primes[active] * _LN2
        scaled = s * rate - 1.0
        lo[active] = np.where(scaled < 0.0, s, lo[active])
        hi[active] = np.where(scaled > 0.0, s, hi[active])
        # g' = rate + s*n*E0''; where it is <= 0, rate <= 0 and g <= -1, so the
        # unit divisor throws the step past s + 1, out of the bracket
        curvature = rate + s * n * d2
        newton = s - scaled / np.where(curvature > 0.0, curvature, 1.0)
        inside = (lo[active] < newton) & (newton < hi[active])
        step = np.where(inside, newton, 0.5 * (lo[active] + hi[active]))
        # a converged Newton step may land on the bracket end it just set
        moving = np.minimum(np.abs(newton - s), np.abs(step - s)) > _NEWTON_TOL
        active = active[moving]
        s_star[active] = step[moving]
        if active.size == 0:
            break
    else:
        raise ValueError(
            f"leakage-bound minimization did not converge for k' = {k_primes[active]} "
            f"after {_NEWTON_MAX_ITER} Newton steps"
        )

    grid_best = values.min(axis=1)
    on_grid = grid_best < best
    s_star = np.where(on_grid, grid[i], s_star)
    best = np.where(on_grid, grid_best, best)
    source = np.where((s_star == grid[0]) | (s_star == grid[-1]), "grid_edge", "interior")
    endpoint = (n * e0_max_s1_limit(params) - k_primes * _LN2) / _LN2
    at_endpoint = endpoint <= best
    s_star = np.where(at_endpoint, 1.0, s_star)
    best = np.where(at_endpoint, endpoint, best)
    source = np.where(at_endpoint, "endpoint", source)
    curves = np.column_stack((values, endpoint))
    return np.append(grid, 1.0), curves, s_star, best, source


def min_leakage_bound(
    code: CodeParams,
    params: WiretapChannelParams,
    s_grid_resolution: int = 400,
) -> LeakageBound:
    """Minimize the leakage bound over s in (0, 1].

    A scan over [1e-6, 1 - 1e-6] brackets the minimum between the neighbours
    of the best sample; a safeguarded Newton iteration on s times the bound's
    derivative, with E0' and E0'' from the same kernel as E0, then refines it
    until its step is at most 1e-12. E0 is convex in s, so the bound has a
    single minimum. The refined point competes with the best scan sample,
    and the analytic s=1 endpoint with both. The returned curve holds the
    scan samples plus the endpoint, so callers can plot or audit the
    minimization. Raises ValueError if the iteration does not converge.
    """
    s, curves, s_star, best, source = _min_bound_rows(
        code.n, params, [code.k_prime], s_grid_resolution
    )
    return LeakageBound(
        s_star=float(s_star[0]),
        log2_bound=float(best[0]),
        curve=tuple(zip(s.tolist(), curves[0].tolist())),
        s_star_source=str(source[0]),
    )


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
