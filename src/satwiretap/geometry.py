"""Large-scale satellite link geometry mapped to Eve's amplitude coefficient.

The amplitude degradation gamma_g = alpha(theta_E) * mu * beta(r, rho_B,rho_E)
collects the antenna-pattern attenuation toward Eve's off-boresight angle, the
relative antenna gain, and the relative propagation loss between Bob's and
Eve's positions. Regions with gamma_g < 1 are the ones a wiretap code can
protect.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Sequence

__all__ = [
    "GeometryConfig",
    "beta",
    "alpha",
    "gamma_g",
    "eve_stronger",
    "protected_region_map",
]


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class GeometryConfig:
    """Geometry and antenna parameters of one Alice/Bob/Eve configuration.

    Distances in km, angles in degrees. `r` is Eve's propagation power-decay
    exponent (2 = free space), `a` the antenna power-decay exponent, `mu` the
    relative antenna gain toward Eve in [0, 1]. The secrecy math depends on
    these ratios alone, so peak gains and the carrier wavelength do not enter.
    The domain is that of beta and alpha, so a config whose beta leaves the
    float range is refused.
    """

    rho_b_km: float
    rho_e_km: float
    theta_e_deg: float
    r: float = 2.0
    a: float = 2.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(**{field.name: getattr(self, field.name) for field in fields(self)})
        beta(self.r, self.rho_b_km, self.rho_e_km)
        alpha(self.theta_e_deg, self.a)
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")


def beta(r: float, rho_b_km: float, rho_e_km: float) -> float:
    """Relative propagation amplitude ratio sqrt(rho_B^2 / rho_E^r).

    For r=2 this is the plain distance ratio rho_B/rho_E. For r>2 the value
    carries mixed units and is meaningful only inside gamma_g, which is how it
    is composed here. Where rho_B^2 / rho_E^r leaves the normal float range it
    is exp(ln rho_B - (r/2) ln rho_E); past the float range, ValueError.
    """
    _require_finite(r=r, rho_b_km=rho_b_km, rho_e_km=rho_e_km)
    if rho_b_km <= 0 or rho_e_km <= 0:
        raise ValueError("distances must be strictly positive")
    if r < 2:
        raise ValueError(f"propagation exponent r must be >= 2, got {r}")
    try:
        ratio = rho_b_km**2 / rho_e_km**r
    except (OverflowError, ZeroDivisionError):  # a power left the float range
        ratio = math.inf
    if sys.float_info.min <= ratio < math.inf:
        return math.sqrt(ratio)
    log_beta = math.log(rho_b_km) - 0.5 * r * math.log(rho_e_km)
    if log_beta > math.log(sys.float_info.max):
        raise ValueError(f"beta overflows a float: r={r}, rho_b_km={rho_b_km}, rho_e_km={rho_e_km}")
    return math.exp(log_beta)


def alpha(theta_e_deg: float, a: float) -> float:
    """Antenna-pattern attenuation min(1, theta^-a) toward angle theta.

    The raw power-law 1/theta^a diverges as theta -> 0; the clamp at 1 keeps
    the boresight direction at unit attenuation (no antenna amplifies beyond
    its own peak in this normalized model).
    """
    _require_finite(theta_e_deg=theta_e_deg, a=a)
    if theta_e_deg < 0:
        raise ValueError(f"theta_e_deg must be >= 0, got {theta_e_deg}")
    if a <= 0:
        raise ValueError(f"antenna exponent a must be > 0, got {a}")
    if theta_e_deg <= 1.0:
        return 1.0
    return theta_e_deg**-a


def gamma_g(config: GeometryConfig) -> float:
    """Eve's amplitude degradation alpha(theta_E) * mu * beta(r, rho_B, rho_E)."""
    return alpha(config.theta_e_deg, config.a) * config.mu * beta(
        config.r, config.rho_b_km, config.rho_e_km
    )


def eve_stronger(config: GeometryConfig) -> bool:
    """True iff Eve receives a stronger signal amplitude than Bob.

    Equivalent formulations: alpha*mu > 1/beta, or gamma_g > 1.
    """
    return gamma_g(config) > 1.0


def protected_region_map(
    theta_grid_deg: Sequence[float],
    rho_ratio_grid: Sequence[float],
    r: float,
    a: float,
    mu: float,
    rho_b_km: float = 1.0,
) -> list[dict]:
    """Evaluate gamma_g over a (theta_E, rho_E/rho_B) grid and flag protection.

    Returns row-major records (theta outer, ratio inner), one dict per cell
    with keys theta_deg, rho_ratio, gamma_g, protected, all Python numbers.
    `protected` is 1 when gamma_g < 1. For r=2 the map depends on the distance
    ratio only; for r>2 the absolute Bob distance `rho_b_km` matters and
    defaults to 1 km. Every grid value, r, a and rho_b_km must be finite.
    """
    if len(theta_grid_deg) == 0 or len(rho_ratio_grid) == 0:
        raise ValueError("grids must be non-empty")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    ratios = [float(ratio) for ratio in rho_ratio_grid]
    betas = []
    for ratio in ratios:
        _require_finite(rho_ratio=ratio)
        if ratio <= 0:
            raise ValueError(f"distance ratios must be > 0, got {ratio}")
        betas.append(beta(r, rho_b_km, ratio * rho_b_km))
    rows = []
    for theta in theta_grid_deg:
        theta = float(theta)
        scale = alpha(theta, a) * mu
        for ratio, b in zip(ratios, betas):
            g = scale * b
            rows.append(
                {"theta_deg": theta, "rho_ratio": ratio, "gamma_g": g, "protected": int(g < 1.0)}
            )
    return rows
