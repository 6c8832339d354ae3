"""BPSK BI-AWGN wiretap channel pair: Bob's and Eve's conditional laws.

Bob observes Y = E0*x + sqrt(N0)*G; Eve observes Z = gamma_g*E0*x +
sqrt(gamma_n*N0)*G'. Both channels are real scalar Gaussians with the BPSK
symbol x in {+1, -1} (bit 0 maps to +1, bit 1 to -1, fixed project-wide).
ndtr is the standard-normal CDF that the other modules take Gaussian tail
probabilities from, and _check_count the integer-argument check they share
(here, not in code, so the leakage stack imports no coset-code module).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "WiretapChannelParams",
    "density_bob",
    "density_eve",
    "mixture_density_bob",
    "mixture_density_eve",
]

_BPSK = (1, -1)
_SQRT_HALF = math.sqrt(0.5)
_SCALE_CAP = 1e100


def ndtr(x: float) -> float:
    """Standard normal CDF Phi(x) for a scalar x, with full precision in both tails.

    Follows the branches of cephes' ndtr: 0.5 + 0.5*erf(x/sqrt2) near zero,
    otherwise the tail 0.5*erfc(|x|/sqrt2) directly, subtracted from one
    only for x > 0, so Phi(-x) never loses digits to cancellation.
    """
    y = x * _SQRT_HALF
    if abs(y) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(y)
    tail = 0.5 * math.erfc(abs(y))
    return 1.0 - tail if y > 0 else tail


@dataclass(frozen=True)
class WiretapChannelParams:
    """Four scalars that fully determine the degraded-Gaussian wiretap pair.

    Attributes
    ----------
    gamma_g : float
        Eve's amplitude degradation coefficient, >= 0.
    gamma_n : float
        Eve-to-Bob noise power ratio, > 0.
    n0 : float
        Bob's noise variance per real dimension, > 0.
    e0 : float
        Symbol amplitude scale, > 0 (kept symbolic so conditions involving
        sqrt(n0)/e0 remain testable away from the unit-scale case).

    Eve's noise variance gamma_n*n0 must not underflow to 0, and each side's
    amplitude, noise standard deviation and amplitude/sigma ratio r must be
    at most 1e100. Under that cap every kernel stays finite: r*(r+12) in
    quadrature.llr_integral, and on the density and quantizer grids the span
    2*(a + 4*sigma) and the squared offsets from the mean, at most (6e100)^2,
    or (2r + 4)^2/2 once divided by 2*sigma^2.
    """

    gamma_g: float
    gamma_n: float
    n0: float = 1.0
    e0: float = 1.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if self.gamma_g < 0:
            raise ValueError(f"gamma_g must be >= 0, got {self.gamma_g}")
        if self.gamma_n <= 0:
            raise ValueError(f"gamma_n must be > 0, got {self.gamma_n}")
        if self.n0 <= 0:
            raise ValueError(f"n0 must be > 0, got {self.n0}")
        if self.e0 <= 0:
            raise ValueError(f"e0 must be > 0, got {self.e0}")
        if self.eve_noise_var == 0.0:
            raise ValueError(
                f"gamma_n*n0 underflows to 0 (gamma_n = {self.gamma_n}, n0 = {self.n0})"
            )
        bob_sigma, eve_sigma = math.sqrt(self.n0), math.sqrt(self.eve_noise_var)
        derived = (
            ("e0", self.e0),
            ("sqrt(n0)", bob_sigma),
            ("e0/sqrt(n0)", self.e0 / bob_sigma),
            ("gamma_g*e0", self.eve_amplitude),
            ("sqrt(gamma_n*n0)", eve_sigma),
            ("gamma_g*e0/sqrt(gamma_n*n0)", self.eve_amplitude / eve_sigma),
        )
        for name, value in derived:
            if value > _SCALE_CAP:
                raise ValueError(f"{name} must be <= {_SCALE_CAP:g}, got {value:g}")

    @property
    def bob_amplitude(self) -> float:
        return self.e0

    @property
    def bob_noise_var(self) -> float:
        return self.n0

    @property
    def eve_amplitude(self) -> float:
        return self.gamma_g * self.e0

    @property
    def eve_noise_var(self) -> float:
        return self.gamma_n * self.n0


def _check_count(name: str, value, minimum: int) -> int:
    """value as an int; ValueError naming `name` unless an integer (not bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _check_symbol(x: int) -> None:
    if x not in _BPSK:
        raise ValueError(f"BPSK symbol must be +1 or -1, got {x}")


def _gauss_pdf(name: str, u, mean: float, var: float):
    """N(mean, var)'s density at u; ValueError naming `name` if any u is NaN or infinite."""
    u = np.asarray(u, dtype=float)
    finite = np.isfinite(u)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {u[~finite].flat[0]}")
    return np.exp(-((u - mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def density_bob(y, x: int, params: WiretapChannelParams):
    """Conditional density of Bob's observation given the BPSK symbol x."""
    _check_symbol(x)
    return _gauss_pdf("y", y, x * params.bob_amplitude, params.bob_noise_var)


def density_eve(z, x: int, params: WiretapChannelParams):
    """Conditional density of Eve's observation given the BPSK symbol x."""
    _check_symbol(x)
    return _gauss_pdf("z", z, x * params.eve_amplitude, params.eve_noise_var)


def mixture_density_bob(y, params: WiretapChannelParams):
    """Density of Y under the uniform input: half-half Gaussian mixture."""
    return 0.5 * (density_bob(y, 1, params) + density_bob(y, -1, params))


def mixture_density_eve(z, params: WiretapChannelParams):
    """Density of Z under the uniform input: half-half Gaussian mixture."""
    return 0.5 * (density_eve(z, 1, params) + density_eve(z, -1, params))
