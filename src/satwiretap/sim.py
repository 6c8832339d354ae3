"""Monte-Carlo reliability simulation and exact small-instance leakage oracles.

run_reliability estimates Bob-side bit and frame error rates for the full
encode/transmit/decode chain; its 95% intervals are Wilson score intervals.
It runs on hard decisions, with the hash and the error count on packed uint64
words at every k and k', and draws the channel noise in tiles of frames that
hold about 1 MiB of normals, so its memory does not grow with block_size * n.
exact_leakage brute-forces I(M; Z^n) on tiny instances against a quantized
Eve channel, giving an independent witness that the analytic leakage bounds
hold (quantization only discards information, so the exact quantized leakage
must sit below any valid bound on the continuous channel). The ECC is linear
and Eve's quantizer rows for +1 and -1 mirror each other, so every coset row
of one seed leaks as much as row 0: a seed's leakage is D(P_S(. | 0) || P),
with the marginal P shared by every seed. It sweeps the 2^(k+k'-1) hash
seeds as a tree that sums out one sacrifice bit per level, so seeds sharing
their last bits share the work above them, and carries only the zero-message
row: any other message's row is that row with Eve's levels mirrored. That is
k' levels of 2^(k+k'-1) * levels^n additions and one log2 per output cell of
each seed's leaf, against 2^(2k+2k'-1) * levels^n table reads for a separate
gather per seed. The outputs are swept in blocks that every mirror maps onto
themselves: a block fixes some positions no message moves to one level each,
and if need be some moved ones to a pair of levels that mirror each other.
Their root table holds at most _SWEEP_ROOT_CELLS cells (512 KiB), unless the
least a block can span holds more: 2^(k'+m-1) * levels cells for m >= 1 moved
positions (one of them whole, two levels of each other), 2^k' * levels for
none. The sweep's buffers are a few roots, so memory does not grow with the
output table.

Determinism: every stochastic routine is driven by a master seed; trial blocks
use substreams keyed by (master_seed, block_index), so results are identical
for any worker count.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .channel import WiretapChannelParams, _check_count, _check_symbol, ndtr
from .code import (
    EccScheme,
    _check_bits,
    _enumerate_bits,
    _hash_words,
    _pack_rows,
    _unpack_rows,
)
from .leakage import CodeParams, min_leakage_bound

__all__ = [
    "ReliabilityReport",
    "run_reliability",
    "EveQuantizer",
    "LeakageOracleReport",
    "exact_leakage",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# exhaustive-oracle feasibility caps
_MAX_HASH_INPUT_BITS = 10
_MAX_ORACLE_BLOCK = 12
_MAX_ORACLE_CELLS = 1 << 22
# the oracle's seed sweep runs on output blocks whose root table, one row per
# sacrifice word, holds at most this many cells (512 KiB) where the positions
# allow it: wide enough to amortize each numpy call, small enough that the
# root, the tree below it and the leaves fit a 2 MiB L2
_SWEEP_ROOT_CELLS = 1 << 16
# the reliability block's channel stage draws this many normals at a time
# (1 MiB): enough rows to amortize each numpy call, and a buffer that does
# not grow with the block
_TILE_DOUBLES = 1 << 17
_TINY = float(np.nextafter(0.0, 1.0))  # log2(_TINY) = -1074, finite


@dataclass(frozen=True)
class ReliabilityReport:
    """Error-rate tallies for a reliability run.

    ci95 fields are half-widths of the 95% Wilson score interval (Brown, Cai
    & DasGupta, Stat. Sci. 2001), z / (1 + z^2/N) * sqrt(p(1-p)/N +
    z^2/(4N^2)). For fer, N = trials. Bit errors cluster in frames (the hash
    unmixing spreads one residual error over several message bits), so for
    ber N is the effective count trials*k / deff, where the design effect
    deff >= 1 is the per-frame error count's variance over its value for
    independent bits (Kish, Survey Sampling, 1965); deff = 1 when k = 1.
    The interval is centred on (p + z^2/(2N)) /
    (1 + z^2/N), which lies between p and 1/2, so it is not p +- half-width:
    with zero errors it is [0, z^2/(N + z^2)] and the half-width is positive.
    decode_failures is always 0 and stays for the CSV schema: a DecodeFailure
    from the ECC propagates out of run_reliability.
    """

    trials: int
    message_bits: int
    bit_errors: int
    frame_errors: int
    decode_failures: int
    ber: float
    fer: float
    ber_ci95: float
    fer_ci95: float


def _half_width(p: float, n: int) -> float:
    """Half-width of the 95% Wilson score interval for a rate p over n trials."""
    z2 = _Z95 * _Z95
    return _Z95 / (1.0 + z2 / n) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))


def _design_effect(bit_errors: int, squares: int, trials: int, k: int) -> float:
    """Variance of the per-frame bit-error count over its independent-bit value.

    With S = sum e_f and Q = sum e_f^2 over T frames of k bits and p = S/(T k),
    the frames' variance Q/T - (S/T)^2 over k p (1-p) reduces to
    k (T Q - S^2) / (S (T k - S)), evaluated in exact integers so that k = 1
    (where Q = S) gives exactly 1. Clustered errors give more than 1; less
    than 1 is clipped, and so are p = 0 and p = 1, where there is no spread.
    """
    if bit_errors == 0 or bit_errors == trials * k:
        return 1.0
    ratio = k * (trials * squares - bit_errors * bit_errors) / (
        bit_errors * (trials * k - bit_errors)
    )
    return max(1.0, ratio)


def _hard_decisions(noise: np.ndarray, amplitude: float, codeword: np.ndarray) -> np.ndarray:
    """hard_decision(amplitude * bits_to_bpsk(codeword) + noise), without the sum.

    For amplitude a >= 0 the symbol is +a for bit 0 and -a for bit 1, both
    exact, and rounding to nearest keeps the sign of the exact sum a*x + w
    (a zero sum reads 0 either way). So the decision is 1 exactly when
    w < -a, or when the bit is 1 and w < a.
    """
    received = (noise < amplitude).view(np.uint8)
    received &= codeword
    received |= (noise < -amplitude).view(np.uint8)
    return received


def _uniform_bits(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """rng.integers(0, 2, size=(rows, width), dtype=np.uint8), bit for bit.

    numpy draws each of those bits as the top bit of one byte of buffered
    uint32 words, low byte first, and drops the rest of the last word. So
    ceil(rows*width/4) full-range words, read as bytes and shifted right by
    7, are the same bits and leave the generator in the same state, without
    a bounded draw per bit. (rng.bytes would not: it spends a word on zero
    bytes.)
    """
    words = rng.integers(0, 1 << 32, size=-(-rows * width // 4), dtype=np.uint32)
    bits = words.astype("<u4", copy=False).view(np.uint8)[: rows * width]
    bits >>= 7
    return bits.reshape(rows, width)


def _check_frame(code: CodeParams, ecc: EccScheme) -> None:
    """ValueError unless ecc maps a frame's k >= 1 secret and k' sacrifice bits to n bits."""
    k, kp, n = code.k, code.k_prime, code.n
    if k < 1:
        raise ValueError(f"k must be >= 1 to count message-bit errors, got {k}")
    if ecc.message_length != k + kp:
        raise ValueError(f"ECC message length {ecc.message_length} != k+k' = {k + kp}")
    if ecc.block_length != n:
        raise ValueError(f"ECC block length {ecc.block_length} != n = {n}")


def _reliability_block(
    block_index: int,
    count: int,
    code: CodeParams,
    ecc: EccScheme,
    params: WiretapChannelParams,
    master_seed: int,
    hash_seed: Optional[np.ndarray],
) -> Tuple[int, int, int]:
    """(bit errors, frame errors, sum of squared per-frame bit errors).

    Runs on decision bits; the premix, the hash and the error count run on
    packed uint64 words through one map, _hash_words. The channel stage runs
    in tiles of max(1, _TILE_DOUBLES // n) frames that reuse one buffer of
    normals, so memory does not grow with count * n. standard_normal keeps
    no state between calls, so the tiles read the same normals as one
    (count, n) draw.
    """
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(block_index,)))
    k, kp, n = code.k, code.k_prime, code.n

    # m and l, then the seeds, each packed before the next draw: with the
    # normals tiled, these one-byte-per-bit arrays are the block's largest
    words = _pack_rows(
        np.concatenate([_uniform_bits(rng, count, k), _uniform_bits(rng, count, kp)], axis=1)
    )
    if hash_seed is None:
        seed_words = _pack_rows(_uniform_bits(rng, count, k + kp - 1))
    else:
        seed_words = _pack_rows(hash_seed[None])
    premix = _hash_words(seed_words, words, k, kp)  # the words that hold the k message bits
    mixed = np.concatenate([premix, words[len(premix):]])

    sigma = math.sqrt(params.bob_noise_var)
    rows = max(1, _TILE_DOUBLES // n)
    noise = np.empty((min(rows, count), n))
    decoded = np.empty_like(words)
    for start in range(0, count, rows):
        frames = slice(start, start + rows)
        codeword = ecc.encode(_unpack_rows(mixed[:, frames], k + kp))
        tile = noise[: len(codeword)]
        rng.standard_normal(out=tile)
        tile *= sigma
        received = _hard_decisions(tile, params.bob_amplitude, codeword)
        decoded[:, frames] = _pack_rows(ecc.decode_bits(received))

    diff = _hash_words(seed_words, decoded, k, kp)
    diff ^= words[: len(diff)]
    diff[-1] &= ~np.uint64(0) << (-k % 64)  # drop the sacrifice bits after bit k
    per_frame = np.bitwise_count(diff).sum(axis=0, dtype=np.int64)
    return int(per_frame.sum()), int(np.count_nonzero(per_frame)), int(per_frame @ per_frame)


def run_reliability(
    code: CodeParams,
    ecc: EccScheme,
    params: WiretapChannelParams,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
    block_size: int = 8192,
    hash_seed=None,
) -> ReliabilityReport:
    """Estimate Bob-side error rates over `trials` independent frames.

    Each trial draws a uniform message, sacrifice word, and (by default) a
    fresh uniform hash seed, encodes, transmits over Bob's channel, and
    decodes. Pass `hash_seed` (k+k'-1 bits) to pin the hash for debugging.
    The trial stream is partitioned into fixed blocks whose RNG substreams
    depend only on (master_seed, block_index), so the report is identical for
    every `workers` value, and the threads stop at the core count. With J =
    min(workers, blocks, os.cpu_count()) threads, thread j runs blocks j,
    j+J, j+2J, ... and keeps only its integer sums, so memory does not grow
    with the number of blocks; within a block it grows with block_size *
    (k+k') bytes, not with block_size * n normals. The threads run under the
    caller's np.errstate. Propagates DecodeFailure from the ECC layer.
    """
    trials = _check_count("trials", trials, 1)
    master_seed = _check_count("master_seed", master_seed, 0)
    workers = _check_count("workers", workers, 1)
    block_size = _check_count("block_size", block_size, 1)
    _check_frame(code, ecc)
    if hash_seed is not None:
        hash_seed = _check_bits("hash_seed", hash_seed, code.k + code.k_prime - 1)

    blocks = -(-trials // block_size)
    jobs = min(workers, blocks, os.cpu_count() or 1)

    def tally(first: int) -> Tuple[int, int, int]:
        # every jobs-th block from `first`, summed as it runs
        bits = frames = squares = 0
        for b in range(first, blocks, jobs):
            count = min(block_size, trials - b * block_size)
            e, f, q = _reliability_block(b, count, code, ecc, params, master_seed, hash_seed)
            bits, frames, squares = bits + e, frames + f, squares + q
        return bits, frames, squares

    if jobs == 1:
        results = [tally(0)]
    else:
        # pool threads do not inherit the caller's context, where numpy
        # keeps np.errstate; a Context can be entered by one thread at a
        # time, so each job runs in its own copy
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(contextvars.copy_context().run, tally, j) for j in range(jobs)]
            results = [future.result() for future in futures]
    bit_errors, frame_errors, squares = map(sum, zip(*results))
    n_bits = trials * code.k
    ber = bit_errors / n_bits
    fer = frame_errors / trials
    deff = _design_effect(bit_errors, squares, trials, code.k)
    return ReliabilityReport(
        trials=trials,
        message_bits=code.k,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        decode_failures=0,
        ber=ber,
        fer=fer,
        ber_ci95=_half_width(ber, n_bits / deff),
        fer_ci95=_half_width(fer, trials),
    )


@dataclass(frozen=True)
class EveQuantizer:
    """Uniform scalar quantizer with `levels` bins on each of Eve's outputs.

    The bins split +-(eve_amplitude + 4 eve sigma) evenly and the two outer
    bins absorb the tails, so the quantizer is a proper channel (rows sum to
    one) and by data processing the quantized leakage lower-bounds the
    continuous one. The edges come from the channel in level_probs, so the
    quantizer itself is only its level count.
    """

    levels: int = 8

    def __post_init__(self):
        object.__setattr__(self, "levels", _check_count("levels", self.levels, 2))

    def level_probs(self, symbol: float, params: WiretapChannelParams) -> np.ndarray:
        """P(level | transmitted symbol) for Eve's Gaussian observation.

        A bin above the mean is a difference of upper-tail probabilities and
        a bin below it of lower-tail ones, so bins far out in either tail keep
        their relative precision. The bin holding the mean is one minus its
        tails. The edges are mirrored exactly (linspace is symmetric only to
        rounding), so the rows for +1 and -1 are exact reverses of each other.
        ValueError unless symbol is +1 or -1.
        """
        _check_symbol(symbol)
        sigma = math.sqrt(params.eve_noise_var)
        span = params.eve_amplitude + 4.0 * sigma
        edges = np.linspace(-span, span, self.levels + 1)[1:-1]
        mean = params.eve_amplitude * symbol
        z = (0.5 * (edges - edges[::-1]) - mean) / sigma
        # a bin reads at each edge only the tail away from the mean, ndtr(-|z|)
        tails = [ndtr(-abs(x)) for x in z.tolist()]
        below = np.array([0.0, *tails])  # below[j]: P(left of bin j) if that edge is below the mean
        above = np.array([*tails, 0.0])  # above[j]: P(right of bin j) if it is at or above
        # bin j lies at or above the mean, at or below it, or holds it
        right_of_mean = np.concatenate([[False], z >= 0.0])
        left_of_mean = np.concatenate([z <= 0.0, [False]])
        return np.select(
            [right_of_mean, left_of_mean],
            [np.append(0.0, above[:-1] - above[1:]), np.append(below[1:] - below[:-1], 0.0)],
            1.0 - (below + above),
        )


@dataclass(frozen=True)
class LeakageOracleReport:
    """Exact quantized leakage next to the analytic bound for one instance.

    exact_leak_bits is I(M; Z_quantized^n) in bits averaged uniformly over
    every hash seed; per_seed lists (seed_hex, leak_bits) pairs in seed order.
    bound_log2 is the minimized leakage-bound exponent (base-2 log of bits)
    and bound_bits its linear-scale value, so exact_leak_bits <= bound_bits is
    the bound-validity check whenever bound_bits <= k.
    """

    n: int
    k: int
    k_prime: int
    levels: int
    exact_leak_bits: float
    per_seed: Tuple[Tuple[str, float], ...]
    bound_log2: float
    bound_bits: float


def _kl_rows(rows: np.ndarray, log_marginal: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Per row, the sum over cells of row * (log2(row) - log_marginal), 0 where row = 0.

    A row is c * P(z | m) and log_marginal is log2(c * P(z)) for the same
    scale c > 0 on some subset of outputs z, so D(P(. | m) || P) in bits is
    the sum over all output blocks divided by c. Clamping to the smallest
    positive double keeps log2 finite at zero cells without changing any
    positive one. work is scratch space of rows' shape.
    """
    np.maximum(rows, _TINY, out=work)
    np.log2(work, out=work)
    work -= log_marginal
    work *= rows
    return work.sum(axis=1)


def _check_linear(codewords: np.ndarray, ecc: EccScheme) -> None:
    """ValueError unless the table of ECC(w), row w for every input w, is F2-linear.

    Checks ECC(w ^ b) = ECC(w) ^ ECC(b) for every w and every basis input
    b = 2^i, which also gives ECC(0) = ECC(b) ^ ECC(b) = 0.
    """
    inputs = np.arange(len(codewords))
    for i in range(ecc.message_length):
        if not np.array_equal(codewords[inputs ^ (1 << i)], codewords ^ codewords[1 << i]):
            raise ValueError(f"ECC {ecc.name!r} is not F2-linear: the oracle needs a linear code")


def _outer_rows(factors: np.ndarray) -> np.ndarray:
    """out[w, z] = prod_i factors[w, i, z_i], z numbered with its first symbol most significant.

    The first position is taken as is, and each later one grows the table as
    out[w, z * L + x] = out[w, z] * factors[w, i, x], looping in Python over x.
    """
    if factors.shape[1] == 0:
        return np.ones((len(factors), 1))
    out = factors[:, 0].copy()
    for i in range(1, factors.shape[1]):
        column = factors[:, i]
        grown = np.empty(out.shape + column.shape[1:])
        for x in range(column.shape[1]):
            np.multiply(out, column[:, x, None], out=grown[:, :, x])
        out = grown.reshape(len(factors), -1)
    return out


def exact_leakage(
    code: CodeParams,
    ecc: EccScheme,
    quantizer: EveQuantizer,
    params: WiretapChannelParams,
) -> LeakageOracleReport:
    """Exhaustively compute Eve's exact quantized leakage on a tiny instance.

    Enumerates every message, sacrifice word, hash seed, and quantized output
    n-tuple; returns the seed-averaged I(M; Z^n) together with the analytic
    minimized bound for the same (n, k, k') and channel, with Eve's outputs
    quantized by `quantizer` (EveQuantizer() for 8 levels). ValueError unless
    the frame fits the ECC, the ECC is F2-linear, and the instance is small
    enough to enumerate.

    The leakage of one seed S is a divergence from one row. The ECC is
    linear, so ECC(u, l) = ECC(0, l) ^ ECC(u, 0), and Eve's quantizer rows
    for +1 and -1 are exact mirrors, so flipping codeword bit i mirrors Eve's
    level z_i. Hence P(z | ECC(u, l)) is P(. | ECC(0, l)) with the levels
    mirrored where ECC(u, 0) has a one, and P_S(z | m), the average over l
    of P(z | ECC(m ^ T_S l, l)), is P_S(. | 0) mirrored where ECC(m, 0) has
    a one. The marginal P(z) averages P(z | ECC(w)) over all 2^(k+k') inputs
    w, does not depend on S, and is unchanged by those mirrors, so I_S(M; Z)
    = D(P_S(. | 0) || P). A small leak is a sum of small terms and keeps its
    precision, and a blind Eve reads exactly 0.

    The seeds are swept as a tree on the zero-message row alone. Let R_0[l]
    = P(z | ECC(0, l)) for every sacrifice word l. Column j of the Toeplitz
    matrix is the seed window c_j = seed[k'-1-j : k'-1-j+k], and summing out
    sacrifice bit j gives R_{j+1}[l_>j] = R_j[(0, l_>j)] + mirror_{c_j}(R_j[(1,
    l_>j)]), where mirror_u reverses Eve's levels where ECC(u, 0) has a one.
    R_j depends only on the last k+j-1 seed bits for j >= 1, so sibling seeds
    share every level above them: each of the k' levels costs 2^(k+k'-1) *
    levels^n additions of nonnegative probabilities, and each leaf R_k' =
    2^k' P_S(z | 0) one log2 per output cell. The zero seed has c_j = 0 at
    every level, so its leaf is sum_l R_0[l], and the marginal is 2^-k times
    that leaf summed over the k basis mirrors, one basis message at a time:
    every addition joins two partial sums of as many rows, so rows that are
    all equal sum exactly (a blind Eve's marginal is then each row, scaled).

    A mirror moves only the positions where some ECC(u, 0) has a one, so an
    output block is a set of outputs that every mirror maps onto itself. Eve's
    positions are ordered as the unmoved ones the block fixes to one level
    each (the heads), the moved ones as the span's leading axes, then the
    other unmoved ones, so a mirror reverses a few outer axes over a
    contiguous inner run. The span takes the most trailing unmoved positions
    whose root R_0 (2^k' rows) holds at most _SWEEP_ROOT_CELLS cells, and at
    least one position, so a huge level count is not swept a cell at a time.
    If the moved positions alone hold more, the block also fixes the leading
    ones, as few as fit and all but one at most, to a pair of levels {p, L-1-p}
    each: a two-level axis that a mirror reverses. At odd L the middle pair is
    the middle level twice, so a block counts half for each position it fixes
    there. A block's root is one column of the heads' and pairs' factors times
    one table of the span's, both built once; log2 P(z) is taken once per
    block, and the divergences of a root column's 2^(k'-1) leaves as soon as
    its subtree is done. At k' = 0 the hash ignores the seed: the root's one
    row is the one leaf, and its divergence is every seed's.
    """
    k, kp, n, levels = code.k, code.k_prime, code.n, quantizer.levels
    if k + kp > _MAX_HASH_INPUT_BITS:
        raise ValueError(f"instance too large: k+k' = {k + kp} > {_MAX_HASH_INPUT_BITS}")
    if n > _MAX_ORACLE_BLOCK:
        raise ValueError(f"instance too large: n = {n} > {_MAX_ORACLE_BLOCK}")
    _check_frame(code, ecc)
    if (1 << (k + kp)) * levels**n > _MAX_ORACLE_CELLS:
        raise ValueError("instance too large: output table exceeds the enumeration cap")

    plus = quantizer.level_probs(+1.0, params)
    rows = np.stack([plus, plus[::-1]])  # level_probs(-1) bit for bit
    codewords = ecc.encode(_enumerate_bits(k + kp))
    _check_linear(codewords, ecc)
    m_count, l_count = 1 << k, 1 << kp
    shifts = codewords[::l_count]  # shifts[u] = ECC(u, 0), input u * 2^k'
    moves = shifts.any(axis=0)
    moved, still = np.flatnonzero(moves), np.flatnonzero(~moves)

    # an output block fixes the leading unmoved positions and spans the rest:
    # one position at least, so a huge level count is not swept a cell at a time
    tail = 0 if len(moved) else 1
    while tail < len(still) and l_count * levels ** (len(moved) + tail + 1) <= _SWEEP_ROOT_CELLS:
        tail += 1
    # if the moved positions alone span more, it also fixes all but the last
    # of them, as needed, to a pair of mirrored levels (at two levels a pair
    # is the whole axis)
    paired = 0
    while (
        levels > 2
        and paired + 1 < len(moved)
        and l_count * 2**paired * levels ** (len(moved) - paired) > _SWEEP_ROOT_CELLS
    ):
        paired += 1
    heads_at, tail_at = still[: len(still) - tail], still[len(still) - tail :]
    # factors[l, i] = P(level of z_i | bit i of ECC(0, l)), input l
    factors = rows[codewords[:l_count]]
    # pair p is levels p and L-1-p; at odd L the last pair is the middle level
    # twice, so a block that fixes it counts half for each such position
    half = (levels + 1) // 2
    pair_levels = np.stack([np.arange(half), levels - 1 - np.arange(half)], axis=1).ravel()
    pair_weight = np.ones(half)
    pair_weight[-1] -= 0.5 * (levels % 2)
    # pairs[l, p_1, .., p_f, s_1, .., s_f]: the pair of each paired position,
    # then the side of each
    pairs = _outer_rows(factors[:, moved[:paired]][:, :, pair_levels])
    pairs = pairs.reshape((l_count,) + (half, 2) * paired)
    pairs = pairs.transpose([0, *range(1, 2 * paired, 2), *range(2, 2 * paired + 1, 2)])
    heads = _outer_rows(factors[:, heads_at])
    # block b = h * half^paired + p fixes head cell h and pair cell p;
    # fixed[:, b] is its factor over them, weights[b] what it counts
    fixed = (heads[:, :, None, None] * pairs.reshape(l_count, 1, -1, 2**paired)).reshape(
        l_count, -1, 2**paired
    )
    pair_weights = _outer_rows(np.broadcast_to(pair_weight, (1, paired, half)))[0]
    weights = np.tile(pair_weights, heads.shape[1])
    span = _outer_rows(factors[:, np.concatenate([moved[paired:], tail_at])])
    width = 2**paired * span.shape[1]
    shape = (2,) * paired + (levels,) * (len(moved) - paired) + (levels**tail,)
    # flips[u] reverses the moved axes where ECC(u, 0) has a one
    keep, reverse = slice(None), slice(None, None, -1)
    flips = [tuple(reverse if bit else keep for bit in shift) for shift in shifts[:, moved]]

    root = np.empty((l_count,) + shape)
    tree = [root] + [np.empty((l_count >> j,) + shape) for j in range(1, kp)]
    seed_len = k + kp - 1
    # one root column's leaves R_k' = 2^k' P_S(. | 0); at k' = 0 the root
    leaves = np.empty((l_count // 2,) + shape) if kp else root
    work = np.empty((len(leaves), width))
    log_marginal = np.empty(width)
    marginal = log_marginal.reshape(shape)  # the same buffer in the block's shape
    sums = np.zeros(1 << seed_len)
    by_column = sums.reshape(-1, m_count) if kp else sums[:, None]  # [i, c] is seed (i << k) | c

    def descend(j: int, column: int, leaf: int) -> None:
        # R_{j+1} from R_j with column c_j; leaf holds the seed bits after c_0 used so far
        src = tree[j]
        half = len(src) // 2
        out = leaves[leaf : leaf + 1] if j + 1 == kp else tree[j + 1]
        np.add(src[:half], src[(slice(half, None),) + flips[column]], out=out)
        if j + 1 < kp:
            for bit in (0, 1):
                descend(j + 1, (bit << (k - 1)) | (column >> 1), leaf | (bit << j))

    for b, weight in enumerate(weights.tolist()):
        np.multiply(fixed[:, b, :, None], span[:, None], out=root.reshape(l_count, 2**paired, -1))
        for column in range(by_column.shape[1]):
            # c_0 is the last k seed bits, the low bits of the seed's number
            if kp:
                descend(0, column, 0)
            if column == 0:
                # 2^k' P(z) = 2^-k times the zero seed's leaf summed over every
                # message's mirror; 2^-k is exact
                np.copyto(marginal, leaves[0])
                for u in range(k):
                    # numpy reads an input that overlaps the output as if copied first
                    np.add(marginal, marginal[flips[1 << u]], out=marginal)
                marginal *= 1.0 / m_count
                np.maximum(log_marginal, _TINY, out=log_marginal)
                np.log2(log_marginal, out=log_marginal)
            by_column[:, column] += weight * _kl_rows(leaves.reshape(-1, width), log_marginal, work)

    leaks = (sums / l_count).tolist()
    seed_words = np.packbits(_enumerate_bits(seed_len), axis=1)
    per_seed = tuple((word.tobytes().hex(), leak) for word, leak in zip(seed_words, leaks))
    total = 0.0
    for leak in leaks:
        total += leak

    bound = min_leakage_bound(code, params)
    bound_bits = math.inf if bound.log2_bound > 1023 else 2.0**bound.log2_bound
    return LeakageOracleReport(
        n=n,
        k=k,
        k_prime=kp,
        levels=levels,
        exact_leak_bits=total / (1 << seed_len),
        per_seed=per_seed,
        bound_log2=bound.log2_bound,
        bound_bits=bound_bits,
    )
