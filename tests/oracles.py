"""Test oracles: dense and brute-force references that the package's fast paths
are checked against, and a Monte-Carlo cross-check of the capacity quadrature.

None of this is used by the package itself.
"""

import math
from typing import NamedTuple

import numpy as np

from satwiretap.channel import WiretapChannelParams, ndtr
from satwiretap.code import EccScheme, _check_bits, _check_count, _enumerate_bits, hash_bits
from satwiretap.leakage import CodeParams
from satwiretap.quadrature import integrate

_LN2 = math.log(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def llr_integral_reference(r, g, t=1.0):
    """quadrature.llr_integral written out of place: one fresh array per ufunc.

    The in-place kernel must match it bit for bit: same ufuncs, same order.
    """
    r = np.asarray(r, dtype=float)
    u_max = np.minimum(20.0 * np.asarray(t, dtype=float), r * (r + 12.0)) / r
    col = r[..., None]
    return integrate(
        lambda u: _INV_SQRT_2PI * np.exp(-0.5 * (u - col) ** 2) * g(2.0 * col * u), 0.0, u_max
    )


def e0_integrand_reference(llr, col, derivatives=False):
    """E0's folded integrand h (with dh/ds and d2h/ds2 stacked behind it), out of place.

    col is t = 1 - s with a trailing node axis; see leakage._e0_nats.
    """
    x = llr / col
    tail = np.exp(-x)
    ell = np.log1p(tail)
    h = np.expm1(col * ell)
    if not derivatives:
        return h
    sigma = tail / (1.0 + tail)
    slope = ell + x * sigma
    curvature = slope * slope + x * x * sigma * (1.0 - sigma) / col
    return np.stack((h, -(1.0 + h) * slope, (1.0 + h) * curvature))


def psi_excess_reference(llr, col):
    """psi's folded integrand, out of place; col is s with a trailing node axis."""
    log_lead = -col * np.log1p(np.exp(-llr))
    return np.expm1(log_lead) + np.exp(log_lead - (1.0 + col) * llr)


def folded_loss_reference(llr):
    """capacity._folded_loss out of place: log2(1 + e^-L) plus its mirror at -L."""
    tail = np.exp(-llr)
    return ((1.0 + tail) * np.log1p(tail) + llr * tail) / _LN2


def toeplitz_from_seed(seed, k: int, k_prime: int) -> np.ndarray:
    """Build the k x k' Toeplitz matrix with entry(i, j) = seed[i - j + k' - 1].

    Entries are constant along diagonals; the first row is seed[k'-1::-1] and
    the first column seed[k'-1:].
    """
    if k < 1 or k_prime < 0:
        raise ValueError("need k >= 1 and k_prime >= 0")
    seed = _check_bits("seed", seed, k + k_prime - 1)
    if k_prime == 0:
        return np.zeros((k, 0), dtype=np.uint8)
    rows = np.arange(k)[:, None]
    cols = np.arange(k_prime)[None, :]
    return seed[rows - cols + k_prime - 1]


def toeplitz_mul_naive(T: np.ndarray, x) -> np.ndarray:
    """Reference product T @ x over F2 via plain integer matmul."""
    x = _check_bits("x", x)
    if T.shape[1] != x.size:
        raise ValueError(f"matrix is {T.shape}, input has {x.size} bits")
    if x.size == 0:
        return np.zeros(T.shape[0], dtype=np.uint8)
    return (T.astype(np.int64) @ x.astype(np.int64) & 1).astype(np.uint8)


def coset_preimage_size(ecc: EccScheme, seed, m) -> int:
    """Count the inputs (m_hat, l) whose hash equals m; always 2^k'.

    Exhaustive enumeration, so the ECC message length is capped at 12 bits.
    """
    m = _check_bits("m", m)
    total = ecc.message_length
    if total > 12:
        raise ValueError(f"exhaustive enumeration capped at 12 bits, got {total}")
    k = m.size
    k_prime = total - k
    if k_prime < 0:
        raise ValueError("message longer than the ECC input")
    count = 0
    for v in _enumerate_bits(total):
        if np.array_equal(hash_bits(v, seed, k, k_prime), m):
            count += 1
    return count


class MiEstimate(NamedTuple):
    bits: float
    stderr: float
    samples: int


def mc_mutual_info(
    amplitude: float, noise_var: float, samples: int, master_seed: int
) -> MiEstimate:
    """Monte-Carlo BI-AWGN mutual information in bits with its standard error.

    Sample average of log2(W(y|x)/Wbar(y)) over uniform inputs; an independent
    cross-check for the quadrature-based capacity routine.
    """
    samples = _check_count("samples", samples, 10_000)
    master_seed = _check_count("master_seed", master_seed, 0)
    if not (math.isfinite(noise_var) and noise_var > 0.0):
        raise ValueError(f"noise_var must be finite and positive, got {noise_var}")
    if not (math.isfinite(amplitude) and amplitude >= 0.0):
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude}")
    rng = np.random.default_rng(master_seed)
    chunk = 1 << 20
    total = 0.0
    total_sq = 0.0
    done = 0
    ln2 = math.log(2.0)
    while done < samples:
        count = min(chunk, samples - done)
        x = 1.0 - 2.0 * rng.integers(0, 2, size=count)
        y = amplitude * x + math.sqrt(noise_var) * rng.standard_normal(count)
        u = 2.0 * amplitude * y * x / noise_var
        terms = 1.0 - np.logaddexp(0.0, -u) / ln2
        total += float(terms.sum())
        total_sq += float(np.square(terms).sum())
        done += count
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return MiEstimate(bits=mean, stderr=math.sqrt(var / samples), samples=samples)


class ReliabilityLaw(NamedTuple):
    fer: float
    ber: float
    pmf: np.ndarray  # pmf[c]: P(c of a frame's k message bits decode wrong)


def reliability_law(code: CodeParams, ecc: EccScheme, params: WiretapChannelParams) -> ReliabilityLaw:
    """Exact FER, BER and per-frame error-count pmf of run_reliability's frames.

    Bob's hard decisions see a BSC with p = Q(a/sigma). The decoded hash input
    is v XOR e, where e does not depend on v: iid Bern(p) for identity, iid
    Bern(3p^2 - 2p^3) for rep3 (two or three of a bit's copies flip), and
    decode_bits of the channel's flip pattern for hamming74, summed over its
    2^7 patterns. The decoded message is m XOR e_a XOR T(seed) e_b for the
    first k bits e_a and last k' bits e_b of e, and T(seed) e_b is uniform on
    k bits whenever e_b != 0 and the seed is uniform. So a frame's error count
    is |e_a| when e_b = 0 and Binomial(k, 1/2) otherwise. A pinned hash_seed
    is outside this law: T e_b is then one fixed word, not a uniform one.
    """
    k, kp = code.k, code.k_prime
    p = ndtr(-params.bob_amplitude / math.sqrt(params.bob_noise_var))
    if ecc.name == "hamming74":
        flips = _enumerate_bits(7)
        weight = flips.sum(axis=1)
        prob = p**weight * (1.0 - p) ** (7 - weight)
        e = ecc.decode_bits(flips)
        keep = ~e[:, k:].any(axis=1)
        # clean[c] = P(e_b = 0 and |e_a| = c)
        clean = np.bincount(e[keep, :k].sum(axis=1), weights=prob[keep], minlength=k + 1)
    else:
        q = p if ecc.name == "identity" else 3.0 * p * p - 2.0 * p**3
        clean = np.array([math.comb(k, c) * q**c * (1.0 - q) ** (k - c + kp) for c in range(k + 1)])
    coin = np.array([math.comb(k, c) / 2.0**k for c in range(k + 1)])
    pmf = clean + (1.0 - clean.sum()) * coin
    return ReliabilityLaw(fer=1.0 - pmf[0], ber=float(pmf @ np.arange(k + 1)) / k, pmf=pmf)
