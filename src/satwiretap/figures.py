"""Pinned parameter presets behind the `reproduce` CLI subcommand.

Each figure_N() returns the rows of one CSV dataset, dicts whose keys in
order are its header. Operating points and block lengths for the
leakage-bound figures (9-11) are exact; geometry and capacity figures (1-8)
use documented qualitative grids because their source plots carry no numeric
tables. Orbit presets are standard altitudes: LEO 1000 km, MEO 10000 km,
GEO 35786 km.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from .capacity import _db_sweep, cs_gamma_sweep
from .channel import WiretapChannelParams, density_eve, mixture_density_eve
from .channel import density_bob, mixture_density_bob
from .geometry import beta, protected_region_map
from .leakage import _min_bound_rows, e0

ORBITS = (("leo", 1000.0), ("meo", 10000.0), ("geo", 35786.0))

SQRT2 = math.sqrt(2.0)


def _protected_angle(mu_beta: float, a: float) -> float:
    # smallest angle theta with gamma_g < 1; 0 when Eve is weaker at every angle
    if mu_beta <= 1.0:
        return 0.0
    return mu_beta ** (1.0 / a)


def figure_1() -> List[dict]:
    """Protected angular threshold vs relative Eve distance per orbit and r."""
    ratios = np.logspace(-2, 0, 41)
    rows = []
    for orbit, rho_b in ORBITS:
        for r in (2.0, 2.2):
            for ratio in ratios:
                b = beta(r, rho_b, ratio * rho_b)
                rows.append(
                    {
                        "orbit": orbit,
                        "rho_b_km": rho_b,
                        "r": r,
                        "rho_ratio": float(ratio),
                        "beta": b,
                        "theta_star_deg": _protected_angle(b, 2.0),
                    }
                )
    return rows


def _region_rows(extra_name: str, extra_values, **kwargs) -> List[dict]:
    thetas = np.linspace(0.5, 8.0, 26)
    ratios = np.logspace(-2, 0, 21)
    rows = []
    for value in extra_values:
        params = dict(kwargs)
        params[extra_name] = value
        cells = protected_region_map(thetas, ratios, **params)
        rows += ({extra_name: value, **cell} for cell in cells)
    return rows


def figure_2() -> List[dict]:
    """Eve amplitude surfaces for favourable vs unfavourable antenna gains."""
    return _region_rows("mu", (1.0, 0.1), r=2.0, a=2.0, rho_b_km=1000.0)


def figure_3() -> List[dict]:
    """Eve amplitude surfaces for free-space vs steeper propagation, LEO."""
    return _region_rows("r", (2.0, 2.2), a=2.0, mu=1.0, rho_b_km=1000.0)


def figure_4() -> List[dict]:
    """Secrecy capacity vs gamma_g for several Eve noise ratios, E0=N0=1."""
    return cs_gamma_sweep(np.linspace(0.0, 1.5, 61), (1.0, 2.0, 4.0))


def figure_5() -> List[dict]:
    """Bob/Eve BI-AWGN capacities vs SNR with Gaussian and BSC references."""
    return _db_sweep(np.arange(-10.0, 10.01, 0.5), WiretapChannelParams(gamma_g=0.5, gamma_n=1.0))


def density_rows(side: str, params: WiretapChannelParams, points: int = 401) -> List[dict]:
    """Conditional and mixture pdfs at `points` outputs over +-(amplitude + 4 sigma).

    ValueError unless side is "bob" or "eve".
    """
    if side == "bob":
        amp, var = params.bob_amplitude, params.bob_noise_var
        one, mix = density_bob, mixture_density_bob
    elif side == "eve":
        amp, var = params.eve_amplitude, params.eve_noise_var
        one, mix = density_eve, mixture_density_eve
    else:
        raise ValueError(f"side must be 'bob' or 'eve', got {side!r}")
    span = amp + 4.0 * math.sqrt(var)
    grid = np.linspace(-span, span, points)
    columns = (grid, one(grid, +1, params), one(grid, -1, params), mix(grid, params))
    names = ("y", "pdf_plus", "pdf_minus", "pdf_mix")
    return [dict(zip(names, values)) for values in zip(*(c.tolist() for c in columns))]


def figure_6() -> List[dict]:
    """Mixture density at Bob, E0=N0=1."""
    return density_rows("bob", WiretapChannelParams(gamma_g=0.5, gamma_n=1.0))


def figure_7() -> List[dict]:
    """Mixture density at Eve for gamma_g=0.5."""
    return density_rows("eve", WiretapChannelParams(gamma_g=0.5, gamma_n=1.0))


def figure_8() -> List[dict]:
    """Positivity-condition accuracy over the (gamma_g, gamma_n) plane."""
    gn_grid = np.arange(0.25, 2.251, 0.25)
    gg_grid = np.arange(0.05, 1.501, 0.05)
    c_s = {(r["gamma_g"], r["gamma_n"]): r["c_s"] for r in cs_gamma_sweep(gg_grid, gn_grid)}
    rows = []
    for gn in gn_grid:
        for gg in gg_grid:
            cs = c_s[gg, gn]
            rows.append(
                {
                    "gamma_g": float(gg),
                    "gamma_n": float(gn),
                    "sqrt_gamma_n": math.sqrt(gn),
                    "c_s": cs,
                    "predicate": int(gg < math.sqrt(gn)),
                    "measured": int(cs > 1e-12),
                }
            )
    return rows


def figure_9() -> List[dict]:
    """Leakage exponent E0_max(s) vs s for two gamma_g and several gamma_n."""
    rows = []
    s_grid = np.linspace(0.01, 0.99, 99)
    for gg in (0.6, 0.3):
        for gn in (1.0, 2.0, 4.0):
            # E0_max is the uniform-input E0 (symmetric channel): one call per channel
            params = WiretapChannelParams(gamma_g=gg, gamma_n=gn)
            for s, value in zip(s_grid.tolist(), e0(s_grid, params).tolist()):
                rows.append({"gamma_g": gg, "gamma_n": gn, "s": s, "e0_max_nats": value})
    return rows


def _bound_sweep(n: int, points) -> List[dict]:
    rows = []
    rho_grid = np.arange(0.005, 0.3001, 0.005).tolist()
    k_primes = [round(rho * n) for rho in rho_grid]
    for gg, sqrt_gn in points:
        params = WiretapChannelParams(gamma_g=gg, gamma_n=sqrt_gn * sqrt_gn)
        # every rate of a channel in one minimization: the s-scan depends only on the channel
        *_, s_star, best, _ = _min_bound_rows(n, params, k_primes, s_grid_resolution=120)
        for rho, kp, s, bound in zip(rho_grid, k_primes, s_star.tolist(), best.tolist()):
            rows.append(
                {
                    "gamma_g": gg,
                    "sqrt_gamma_n": sqrt_gn,
                    "gamma_n": sqrt_gn * sqrt_gn,
                    "n": n,
                    "rho_sec": rho,
                    "k_prime": kp,
                    "s_star": s,
                    "log2_bound": bound,
                }
            )
    return rows


def figure_10() -> List[dict]:
    """Minimized leakage bound vs secrecy rate, n=32400 broadcast frame."""
    return _bound_sweep(32400, ((0.3, SQRT2), (0.5, SQRT2)))


def figure_11() -> List[dict]:
    """Minimized leakage bound vs secrecy rate, n=8192 deep-space frame."""
    return _bound_sweep(8192, ((0.3, 1.0), (0.3, SQRT2)))


FIGURES: Dict[int, object] = {
    1: figure_1,
    2: figure_2,
    3: figure_3,
    4: figure_4,
    5: figure_5,
    6: figure_6,
    7: figure_7,
    8: figure_8,
    9: figure_9,
    10: figure_10,
    11: figure_11,
}


def figure_data(figure: int) -> List[dict]:
    """Dataset behind one numbered figure; raises on unknown ids."""
    try:
        fn = FIGURES[figure]
    except KeyError:
        valid = ", ".join(str(i) for i in sorted(FIGURES))
        raise ValueError(f"unknown figure {figure}; valid ids: {valid}") from None
    return fn()
