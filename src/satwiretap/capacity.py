"""Infinite-length secrecy analysis: Bob's, Eve's, and the secrecy capacity.

All capacities are for the BI-AWGN channel under the uniform BPSK input,
reported in bits per channel use. The secrecy capacity of the degraded pair is
the clipped gap (C_bob - C_eve)_+, positive exactly when gamma_g < sqrt(gamma_n).
Each mutual information is one folded LLR integral on the fixed quadrature
rule (quadrature.llr_integral), the kernel that also serves psi and E0; it
depends on the channel only through amplitude/sigma. A sweep evaluates all its
cells in one kernel call, and mi_biawgn is the same call on one ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import WiretapChannelParams, ndtr
from .quadrature import llr_integral

__all__ = [
    "CapacityResult",
    "mi_biawgn",
    "capacity_bob",
    "capacity_eve",
    "secrecy_capacity",
    "positivity_condition",
    "c_separation_condition",
    "capacity_curves",
    "cs_gamma_sweep",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CapacityResult:
    """Capacities in bits per channel use; c_s = max(c_bob - c_eve, 0)."""

    c_bob: float
    c_eve: float
    c_s: float


def _folded_loss(llr):
    # log2(1 + e^-L) plus its mirror e^-L * log2(1 + e^L) at -L, written into llr
    tail = np.negative(llr)
    np.exp(tail, out=tail)
    log_term = np.log1p(tail)
    np.multiply(llr, tail, out=llr)
    np.add(1.0, tail, out=tail)
    np.multiply(tail, log_term, out=tail)
    np.add(tail, llr, out=llr)
    return np.divide(llr, _LN2, out=llr)


def _ratio(amplitude: float, noise_var: float) -> float:
    if not (math.isfinite(noise_var) and noise_var > 0):
        raise ValueError(f"noise_var must be finite and > 0, got {noise_var}")
    if not (math.isfinite(amplitude) and amplitude >= 0):
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude}")
    return amplitude / math.sqrt(noise_var)


def _mi_bits(ratios: Sequence[float]) -> np.ndarray:
    """Mutual information in bits at each amplitude/sigma ratio, in one kernel call.

    Ratio 0 gives 0. The kernel sums every entry in the same order whatever
    the batch, so an entry equals the single-ratio call on it.
    """
    r = np.asarray(ratios, dtype=float)
    mi = np.zeros_like(r)
    live = r > 0.0
    mi[live] = np.clip(1.0 - llr_integral(r[live], _folded_loss), 0.0, 1.0)
    return mi


def mi_biawgn(amplitude: float, noise_var: float) -> float:
    """Mutual information of a BI-AWGN channel with uniform binary input.

    The symbol is +-amplitude in Gaussian noise of variance noise_var. Uses
    I = E[log2(W(Y|X)/W(Y))], which for the symmetric two-point input is

        I = 1 - E[log2(1 + e^(-L))],   L = 2*a*Y/v given X = +1,

    evaluated as the folded LLR integral on the fixed quadrature rule: the
    batched kernel behind the capacity sweeps, on a single ratio.

    Parameters
    ----------
    amplitude : float
        Symbol amplitude a >= 0.
    noise_var : float
        Noise variance v > 0.

    Returns
    -------
    float
        Mutual information in bits per channel use, in [0, 1].
    """
    return float(_mi_bits([_ratio(amplitude, noise_var)])[0])


def capacity_bob(params: WiretapChannelParams) -> float:
    """Bob's capacity C^B = I at amplitude e0, noise variance n0."""
    return mi_biawgn(params.bob_amplitude, params.bob_noise_var)


def capacity_eve(params: WiretapChannelParams) -> float:
    """Eve's capacity C^E = I at amplitude gamma_g*e0, variance gamma_n*n0."""
    return mi_biawgn(params.eve_amplitude, params.eve_noise_var)


def secrecy_capacity(params: WiretapChannelParams) -> CapacityResult:
    """Secrecy capacity of the wiretap pair under the uniform BPSK input.

    The uniform input maximizes both mutual informations for these symmetric
    channels, so the weak-secrecy capacity is the clipped capacity gap.
    """
    cb = capacity_bob(params)
    ce = capacity_eve(params)
    return CapacityResult(c_bob=cb, c_eve=ce, c_s=max(cb - ce, 0.0))


def positivity_condition(params: WiretapChannelParams) -> bool:
    """True iff the secrecy capacity is strictly positive: gamma_g < sqrt(gamma_n).

    The boundary gamma_g = sqrt(gamma_n) reports False (zero capacity).
    """
    return params.gamma_g < math.sqrt(params.gamma_n)


def c_separation_condition(params: WiretapChannelParams) -> bool:
    """Eve's rescaled symbol means are less than 2-separated.

    Two Gaussians are c-separated when their means differ by at least
    c*sigma; Eve's symbols being less than 2-separated reads
    gamma_g*e0/sqrt(gamma_n) < sqrt(n0). With e0 = n0 = 1 this coincides with
    the positivity condition.
    """
    return params.gamma_g * params.e0 / math.sqrt(params.gamma_n) < math.sqrt(params.n0)


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def capacity_curves(snr_grid: Sequence[float], params: WiretapChannelParams) -> list[dict]:
    """Capacity-vs-SNR table for Bob, Eve, and two classical references.

    For each SNR value e0^2/n0 on the grid the row carries Bob's BI-AWGN
    capacity, Eve's capacity at (gamma_g, gamma_n) relative to that SNR, the
    clipped gap, the Gaussian-input reference 0.5*log2(1+SNR) per real
    dimension, and the hard-decision BSC reference 1 - h2(Q(sqrt(SNR))).

    Returns CSV-ready dict rows with keys snr_db, c_bob, c_eve, c_s,
    gauss_ref, bsc_ref.
    """
    if len(snr_grid) == 0:
        raise ValueError("snr_grid must be non-empty")
    ratios = []
    for snr in snr_grid:
        if not (math.isfinite(snr) and snr > 0):
            raise ValueError(f"SNR values must be finite and > 0, got {snr}")
        root = math.sqrt(snr)
        ratios += (_ratio(root, 1.0), _ratio(params.gamma_g * root, params.gamma_n))
    mi = _mi_bits(ratios).tolist()
    return [
        {
            "snr_db": 10.0 * math.log10(snr),
            "c_bob": cb,
            "c_eve": ce,
            "c_s": max(cb - ce, 0.0),
            "gauss_ref": 0.5 * math.log2(1.0 + snr),
            "bsc_ref": 1.0 - _binary_entropy(ndtr(-math.sqrt(snr))),
        }
        for snr, cb, ce in zip(snr_grid, mi[0::2], mi[1::2])
    ]


def _db_sweep(snr_db: np.ndarray, params: WiretapChannelParams) -> list[dict]:
    """capacity_curves at 10^(snr_db/10), with snr_db as requested, not round-tripped."""
    rows = capacity_curves(10.0 ** (snr_db / 10.0), params)
    return [{**row, "snr_db": db} for row, db in zip(rows, snr_db.tolist())]


def cs_gamma_sweep(
    gamma_g_grid: Sequence[float],
    gamma_n_grid: Sequence[float],
    n0: float = 1.0,
    e0: float = 1.0,
) -> list[dict]:
    """Secrecy capacity over a (gamma_g, gamma_n) grid, CSV-ready rows.

    Rows run gamma_g-major. Bob's capacity depends only on (n0, e0), so it is
    computed once for the whole grid, in the same kernel call as every cell.
    """
    if len(gamma_g_grid) == 0 or len(gamma_n_grid) == 0:
        raise ValueError("grids must be non-empty")
    bob = WiretapChannelParams(gamma_g=gamma_g_grid[0], gamma_n=gamma_n_grid[0], n0=n0, e0=e0)
    cells = [(gg, gn) for gg in gamma_g_grid for gn in gamma_n_grid]
    ratios = [_ratio(bob.bob_amplitude, bob.bob_noise_var)]
    for gg, gn in cells:
        eve = WiretapChannelParams(gamma_g=gg, gamma_n=gn, n0=n0, e0=e0)
        ratios.append(_ratio(eve.eve_amplitude, eve.eve_noise_var))
    c_bob, *c_eve = _mi_bits(ratios).tolist()
    return [
        {"gamma_g": gg, "gamma_n": gn, "c_s": max(c_bob - ce, 0.0)}
        for (gg, gn), ce in zip(cells, c_eve)
    ]
