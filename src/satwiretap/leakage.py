"""Finite-length strong-secrecy leakage bounds for the Gaussian eavesdropper.

Exponent functions psi and E0 of the eavesdropper channel drive an upper bound
on the seed-averaged information leakage of the hashed coset code:

    leak <= (1/s) * 2^(-s*k') * exp(n * E0_max(s)),   0 < s <= 1.

Everything internal is computed in nats and in log domain; the single
conversion to log2 happens at each public boundary.

psi and E0 are expectations over Eve's log-likelihood ratio, so they depend
on the channel only through r = a/sigma. Both take the folded form
s*ln2 + ln(Phi(r) + J(s)), with Phi from channel.ndtr and J from
quadrature.llr_integral, for a whole array of s in one call; for E0 the same
call can also return E0' and E0'', differentiated under the integral.

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
from typing import Literal

import numpy as np

from .channel import WiretapChannelParams, _check_count, ndtr
from .quadrature import llr_integral

__all__ = [
    "CodeParams",
    "LeakageBound",
    "psi",
    "e0",
    "e0_max_s1_limit",
    "leakage_bound",
    "min_leakage_bound",
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
        _check_count("block length n", self.n, 1)
        _check_count("k", self.k, 0)
        _check_count("k_prime", self.k_prime, 0)
        if self.k + self.k_prime > self.n:
            raise ValueError(
                f"k + k_prime = {self.k + self.k_prime} exceeds block length n = {self.n}"
            )


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


def _s_values(name: str, s, closed: bool = False) -> np.ndarray:
    """s as a float array; ValueError naming `name` unless all s lie in (0, 1), (0, 1] if closed."""
    values = np.asarray(s, dtype=float)
    inside = (values > 0.0) & ((values <= 1.0) if closed else (values < 1.0))
    if not inside.all():
        bracket = "]" if closed else ")"
        raise ValueError(f"{name} requires s in (0, 1{bracket}, got {values[~inside].flat[0]}")
    return values


def _exponent_nats(s: np.ndarray, r: float, integrand, t, derivatives: bool = False):
    """F(s) = s*ln2 + ln(M), M = 1 + J - Phi(-r) and J = llr_integral(r, integrand, t).

    The folded form of psi and E0, exactly 0 at r = 0 (Eve sees pure noise).
    With `derivatives` the integrand stacks those of dJ/ds and d2J/ds2 behind
    J's, and the result is (F, F' = ln2 + J'/M, F'' = J''/M - (J'/M)^2).
    """
    if r == 0.0:
        zero = np.zeros_like(s)
        return (zero, zero, zero) if derivatives else zero
    j = llr_integral(r, integrand, t)
    excess = (j[0] if derivatives else j) - ndtr(-r)
    value = s * _LN2 + np.log1p(excess)
    if not derivatives:
        return value
    ratio = j[1] / (1.0 + excess)
    return value, _LN2 + ratio, j[2] / (1.0 + excess) - ratio * ratio


def _e0_nats(s: np.ndarray, r: float, derivatives: bool = False):
    """E0(s) = s*ln2 + ln(Phi(r) + J(s)) for an array of s in (0, 1).

    J = integral over z >= 0 of W+(z) * h with h = e^(t*l) - 1, t = 1 - s,
    x = L/t >= 0 and l = ln(1 + e^(-x)): the part of E0's integral that the
    folded LLR adds to Phi(r). With `derivatives`, returns (E0, E0', E0'')
    (see _exponent_nats and _e0_terms).
    """
    t = 1.0 - s
    col = t[..., None]
    terms = _e0_terms if derivatives else _e0_h
    return _exponent_nats(s, r, lambda llr: terms(llr, col), t, derivatives)


def _e0_h(llr, col):
    """h = e^(t*ln(1 + e^(-L/t))) - 1, computed in the LLR array itself."""
    np.divide(llr, col, out=llr)
    np.negative(llr, out=llr)
    np.exp(llr, out=llr)
    np.log1p(llr, out=llr)
    np.multiply(col, llr, out=llr)
    return np.expm1(llr, out=llr)


def _e0_terms(llr, col):
    """h, dh/ds and d2h/ds2 in one (3, ...) array; the LLR array holds x = L/t.

    With sigma = e^(-x)/(1 + e^(-x)) and d/ds = -d/dt,

        dh/dt   = (1 + h) * (l + x*sigma),
        d2h/dt2 = (1 + h) * ((l + x*sigma)^2 + x^2*sigma*(1 - sigma)/t).
    """
    out = np.empty((3,) + llr.shape)
    h, slope, curvature = out
    x = np.divide(llr, col, out=llr)
    # e^(-x) and l borrow the rows that end up holding the derivatives
    tail = np.negative(x, out=curvature)
    np.exp(tail, out=tail)
    ell = np.log1p(tail, out=slope)
    np.multiply(col, ell, out=h)
    np.expm1(h, out=h)
    sigma = np.add(1.0, tail)  # the one scratch buffer
    np.divide(tail, sigma, out=sigma)
    np.multiply(x, sigma, out=curvature)
    np.add(ell, curvature, out=slope)  # l + x*sigma
    np.multiply(x, x, out=curvature)
    np.multiply(curvature, sigma, out=curvature)
    np.subtract(1.0, sigma, out=sigma)
    np.multiply(curvature, sigma, out=curvature)
    np.divide(curvature, col, out=curvature)
    np.multiply(slope, slope, out=x)
    np.add(x, curvature, out=curvature)
    lift = np.add(1.0, h, out=sigma)  # 1 + h
    np.multiply(lift, curvature, out=curvature)
    np.negative(lift, out=lift)
    np.multiply(lift, slope, out=slope)
    return out


def psi(s, params: WiretapChannelParams):
    """Leakage exponent psi(s) = ln int sum_x q(x) W(z|x)^(1+s) W_mix(z)^(-s) dz.

    Uniform input q. Valid for s in (0, 1]; psi(s)/s -> I(X;Z) in nats as
    s -> 0. Computed as s*ln2 + ln E[(1 + e^(-L))^(-s)] over Eve's LLR L,
    folded onto L >= 0 like E0. A scalar s gives a float, an array of s an
    array from one kernel call.

    Certified to an absolute 1e-13 nats against a 30-digit table (tests/data/
    exponent_table.csv) at r = a/sigma from about 0.017 to 3.0. The floor is
    absolute: for a weak Eve psi is itself tiny and only the absolute error
    is small, not the relative one. psi has not been checked outside that r
    range.
    """
    s = _s_values("psi", s, closed=True)
    col = s[..., None]
    value = _exponent_nats(
        s, _eve_ratio(params), lambda llr: _psi_excess(llr, col), np.ones_like(s)
    )  # t = 1 for each s
    return value if value.ndim else float(value)


def _psi_excess(llr, col):
    """(1 + e^-L)^-s * (1 + e^(-(1+s)L)) - 1: both signs of L at once.

    One buffer besides the LLR array, which ends up holding the result.
    """
    lead = np.negative(llr)
    np.exp(lead, out=lead)
    np.log1p(lead, out=lead)
    np.multiply(-col, lead, out=lead)
    np.multiply(1.0 + col, llr, out=llr)
    np.subtract(lead, llr, out=llr)
    np.exp(llr, out=llr)
    np.expm1(lead, out=lead)
    return np.add(lead, llr, out=llr)


def e0(s, params: WiretapChannelParams):
    """Exponent E0(s) = ln int (sum_x q(x) W(z|x)^(1/(1-s)))^(1-s) dz, in nats.

    Uniform input q, which maximizes E0 on this symmetric channel: this is the
    bound's E0_max. Valid for s in (0, 1); the power 1/(1-s) diverges at s=1
    (see e0_max_s1_limit for the analytic endpoint). The properly normalized
    Eve density is used throughout, which guarantees E0 -> 0 as s -> 0. A
    scalar s gives a float, an array of s an array from one kernel call.

    Certified to an absolute 1e-13 nats against a 30-digit table (tests/data/
    exponent_table.csv) at r = a/sigma from about 0.017 to 3.0. The floor is
    absolute: for a weak Eve only the absolute error is small. Against the
    same mpmath integral, the absolute error stayed within 1.2e-16 for r from
    1e-4 to 40, but at r = 1e-4 and s = 1e-4, where E0 is about 5e-13 and
    log1p(J - Phi(-r)) cancels, the relative error reached 2.4e-4.
    """
    value = _e0_nats(_s_values("e0", s), _eve_ratio(params))
    return value if value.ndim else float(value)


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
    _s_values("leakage_bound", s)
    return float(_bound_bits(s, e0(s, params), code.n, code.k_prime))


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
    s_grid_resolution = _check_count("s_grid_resolution", s_grid_resolution, 100)
    r = _eve_ratio(params)
    k_primes = np.asarray(k_primes, dtype=float)
    grid = np.linspace(_S_EPS, 1.0 - _S_EPS, s_grid_resolution)
    # in blocks of 64 values of s: each kernel buffer stays under 100 kB, so
    # it is reused from the heap instead of mapped and faulted in afresh
    e0_grid = np.empty_like(grid)
    for start in range(0, s_grid_resolution, _SCAN_BLOCK):
        block = slice(start, start + _SCAN_BLOCK)
        e0_grid[block] = _e0_nats(grid[block], r)
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

    endpoint = (n * e0_max_s1_limit(params) - k_primes * _LN2) / _LN2
    # argmin takes the first of equal values: the endpoint wins ties, then the Newton point
    candidates = (endpoint, best, values.min(axis=1))
    pick = np.argmin(candidates, axis=0)
    s_star = np.choose(pick, (1.0, s_star, grid[i]))
    edge = (s_star == grid[0]) | (s_star == grid[-1])
    source = np.where(pick == 0, "endpoint", np.where(edge, "grid_edge", "interior"))
    curves = np.column_stack((values, endpoint))
    return np.append(grid, 1.0), curves, s_star, np.choose(pick, candidates), source


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

