"""Executable wiretap code: modified-Toeplitz universal2 hash over F2 plus a
pluggable linear error-correcting layer.

The hash family is F = (I, T(S)) with T a k x k' binary Toeplitz matrix drawn
from a seed S of k+k'-1 bits: hash(v) = v[:k] XOR T @ v[k:]. The encoder
premixes the message with the sacrifice bits through [[I, T], [0, I]] (over
F2, -T = T), so hash(premix(m, l)) = m for every seed; decoding is the hash of
the ECC-decoded word. Every production product T @ x goes through
toeplitz_apply_batch, an XOR of sliding seed windows; toeplitz_mul_naive is
the dense-matmul reference that tests compare against. Desk-scale ECC
stand-ins (identity, triple repetition, Hamming(7,4)) substitute for
production LDPC/Polar codes.

Bit conventions, fixed project-wide: index 0 is the first transmitted bit;
BPSK maps bit 0 -> +1 and bit 1 -> -1; hex serialization packs 8 bits per
byte, most-significant bit first.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DecodeFailure",
    "bits_from_ints",
    "bits_to_hex",
    "hex_to_bits",
    "bits_to_bpsk",
    "hard_decision",
    "toeplitz_from_seed",
    "toeplitz_mul_naive",
    "toeplitz_mul_fast",
    "toeplitz_apply_batch",
    "hash_bits",
    "EccScheme",
    "IdentityCode",
    "Repetition3Code",
    "Hamming74Code",
    "make_ecc",
    "ECC_NAMES",
    "encode",
    "decode",
    "coset_preimage_size",
]


class DecodeFailure(Exception):
    """Raised when an ECC decoder cannot produce a message estimate."""


def bits_from_ints(values) -> np.ndarray:
    """Validate and convert a 0/1 sequence to a uint8 bit array."""
    bits = np.asarray(values, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("bit words are one-dimensional")
    if bits.size and int(bits.max(initial=0)) > 1:
        raise ValueError("bit words contain only 0 and 1")
    return bits


def bits_to_hex(bits) -> str:
    """Serialize a bit word to hex, MSB-first within each byte.

    The word is right-padded with zero bits to a byte boundary; callers must
    remember the true length to deserialize.
    """
    bits = bits_from_ints(bits)
    if bits.size == 0:
        return ""
    pad = (-bits.size) % 8
    padded = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    return np.packbits(padded).tobytes().hex()


def hex_to_bits(text: str, length: int) -> np.ndarray:
    """Parse `length` bits from a hex string produced by bits_to_hex."""
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        if text:
            raise ValueError("expected empty hex for a zero-length word")
        return np.zeros(0, dtype=np.uint8)
    raw = bytes.fromhex(text)
    if len(raw) * 8 < length:
        raise ValueError(f"hex holds {len(raw) * 8} bits, need {length}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if int(bits[length:].max(initial=0)) != 0:
        raise ValueError("nonzero padding bits past the declared length")
    return bits[:length].copy()


def bits_to_bpsk(bits) -> np.ndarray:
    """Map bits to channel symbols: 0 -> +1.0, 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


def hard_decision(y) -> np.ndarray:
    """Threshold channel reals at zero back to bits (y < 0 reads as bit 1)."""
    return (np.asarray(y, dtype=float) < 0.0).astype(np.uint8)


def _check_seed(seed: np.ndarray, k: int, k_prime: int) -> np.ndarray:
    seed = bits_from_ints(seed)
    expected = k + k_prime - 1
    if seed.size != expected:
        raise ValueError(f"seed length {seed.size}, expected k+k'-1 = {expected}")
    return seed


def toeplitz_from_seed(seed, k: int, k_prime: int) -> np.ndarray:
    """Build the k x k' Toeplitz matrix with entry(i, j) = seed[i - j + k' - 1].

    Entries are constant along diagonals; the first row is seed[k'-1::-1] and
    the first column seed[k'-1:].
    """
    if k < 1 or k_prime < 0:
        raise ValueError("need k >= 1 and k_prime >= 0")
    seed = _check_seed(seed, k, k_prime)
    if k_prime == 0:
        return np.zeros((k, 0), dtype=np.uint8)
    rows = np.arange(k)[:, None]
    cols = np.arange(k_prime)[None, :]
    return seed[rows - cols + k_prime - 1]


def toeplitz_mul_naive(T: np.ndarray, x) -> np.ndarray:
    """Reference product T @ x over F2 via plain integer matmul."""
    x = bits_from_ints(x)
    if T.shape[1] != x.size:
        raise ValueError(f"matrix is {T.shape}, input has {x.size} bits")
    if x.size == 0:
        return np.zeros(T.shape[0], dtype=np.uint8)
    return (T.astype(np.int64) @ x.astype(np.int64) & 1).astype(np.uint8)


def toeplitz_mul_fast(seed, x, k: int, k_prime: int) -> np.ndarray:
    """T(seed) @ x over F2 for one word: the B = 1 case of toeplitz_apply_batch.

    Validates the seed and input lengths. Equals
    toeplitz_mul_naive(toeplitz_from_seed(seed, k, k_prime), x) bit for bit.
    """
    if k < 1 or k_prime < 0:
        raise ValueError("need k >= 1 and k_prime >= 0")
    seed = _check_seed(seed, k, k_prime)
    x = bits_from_ints(x)
    if x.size != k_prime:
        raise ValueError(f"input has {x.size} bits, expected k' = {k_prime}")
    return toeplitz_apply_batch(seed[None], x[None], k, k_prime)[0]


def toeplitz_apply_batch(seeds: np.ndarray, xs: np.ndarray, k: int, k_prime: int) -> np.ndarray:
    """Row-wise T(seeds[b]) @ xs[b] over F2 for a batch of seeds and inputs.

    seeds is (B, k+k'-1) and xs is (B, k'), both 0/1. Column j of T(seed) is
    the contiguous window seed[k'-1-j : k'-1-j+k], so the product is the XOR
    of the windows selected by the set bits of each input row. Read-only and
    broadcast seeds are accepted.
    """
    seeds = np.asarray(seeds, dtype=np.uint8)
    xs = np.asarray(xs, dtype=np.uint8)
    out = np.zeros((xs.shape[0], k), dtype=np.uint8)
    for j in np.flatnonzero(xs.any(axis=0)):
        start = k_prime - 1 - j
        out ^= seeds[:, start : start + k] & xs[:, j, None]
    return out


def hash_bits(v, seed, k: int, k_prime: int) -> np.ndarray:
    """Universal2 hash (I, T(seed)) applied to a k+k' bit word.

    Returns v[:k] XOR T @ v[k:]. For a uniformly random seed any two distinct
    inputs collide with probability at most 2^-k.
    """
    v = bits_from_ints(v)
    if v.size != k + k_prime:
        raise ValueError(f"input has {v.size} bits, expected k+k' = {k + k_prime}")
    return v[:k] ^ toeplitz_mul_fast(seed, v[k:], k, k_prime)


class EccScheme:
    """Linear block code interface used by the wiretap encoder.

    encode maps (..., message_length) bit arrays to (..., block_length)
    codeword bits; decode maps (..., block_length) channel reals back to
    message bits, raising DecodeFailure when no estimate can be produced.
    Implementations must be injective homomorphisms with decode(encode(v)) = v
    under noiseless transmission.
    """

    name: str
    message_length: int
    block_length: int

    def encode(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decode(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IdentityCode(EccScheme):
    """No redundancy: the noiseless-main-channel special case with n = k+k'."""

    name = "identity"

    def __init__(self, message_length: int):
        if message_length < 1:
            raise ValueError("message_length must be >= 1")
        self.message_length = message_length
        self.block_length = message_length

    def encode(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.uint8)
        if v.shape[-1] != self.message_length:
            raise ValueError("message length mismatch")
        return v.copy()

    def decode(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.block_length:
            raise ValueError("block length mismatch")
        return hard_decision(y)


class Repetition3Code(EccScheme):
    """Each bit transmitted three times, majority vote on hard decisions."""

    name = "rep3"

    def __init__(self, message_length: int):
        if message_length < 1:
            raise ValueError("message_length must be >= 1")
        self.message_length = message_length
        self.block_length = 3 * message_length

    def encode(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.uint8)
        if v.shape[-1] != self.message_length:
            raise ValueError("message length mismatch")
        return np.repeat(v, 3, axis=-1)

    def decode(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.block_length:
            raise ValueError("block length mismatch")
        bits = hard_decision(y)
        triples = bits.reshape(*bits.shape[:-1], self.message_length, 3)
        return (triples.sum(axis=-1) >= 2).astype(np.uint8)


class Hamming74Code(EccScheme):
    """Classic (7,4) single-error-correcting code, syndrome decoding.

    Codeword layout is the 1-indexed standard: parity bits at positions 1, 2,
    4 and data at 3, 5, 6, 7; the syndrome value is the 1-indexed error
    position (0 = clean).
    """

    name = "hamming74"
    message_length = 4
    block_length = 7

    # positions (0-indexed) covered by each parity check
    _CHECKS = (np.array([0, 2, 4, 6]), np.array([1, 2, 5, 6]), np.array([3, 4, 5, 6]))
    _DATA_POS = np.array([2, 4, 5, 6])

    def encode(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.uint8)
        if v.shape[-1] != 4:
            raise ValueError("message length mismatch")
        c = np.zeros(v.shape[:-1] + (7,), dtype=np.uint8)
        c[..., self._DATA_POS] = v
        c[..., 0] = v[..., 0] ^ v[..., 1] ^ v[..., 3]
        c[..., 1] = v[..., 0] ^ v[..., 2] ^ v[..., 3]
        c[..., 3] = v[..., 1] ^ v[..., 2] ^ v[..., 3]
        return c

    def decode(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != 7:
            raise ValueError("block length mismatch")
        lead = y.shape[:-1]
        bits = hard_decision(y).reshape(-1, 7)
        syndrome = np.zeros(bits.shape[0], dtype=np.int64)
        for weight, check in enumerate(self._CHECKS):
            parity = (bits[:, check].sum(axis=-1) & 1).astype(np.int64)
            syndrome += parity << weight
        rows = np.nonzero(syndrome)[0]
        if rows.size:
            bits[rows, syndrome[rows] - 1] ^= 1
        return bits[:, self._DATA_POS].reshape(*lead, 4)


ECC_NAMES = ("identity", "rep3", "hamming74")


def make_ecc(name: str, message_length: int) -> EccScheme:
    """Instantiate a registered ECC scheme for a k+k' bit message."""
    if name == "identity":
        return IdentityCode(message_length)
    if name == "rep3":
        return Repetition3Code(message_length)
    if name == "hamming74":
        if message_length != 4:
            raise ValueError("hamming74 requires k + k' = 4")
        return Hamming74Code()
    raise ValueError(f"unknown ECC scheme {name!r}; choose from {ECC_NAMES}")


def encode(m, l, seed, ecc: EccScheme) -> np.ndarray:
    """Wiretap-encode message m (k bits) with sacrifice word l (k' bits).

    Premixes m with T(seed) @ l, concatenates l, and applies the ECC:
    codeword = ecc.encode((m XOR T l, l)). Injective in (m, l) for any fixed
    seed because the premix matrix [[I, T], [0, I]] is invertible.
    """
    m = bits_from_ints(m)
    l = bits_from_ints(l)
    if ecc.message_length != m.size + l.size:
        raise ValueError(
            f"ECC expects {ecc.message_length} bits, got k+k' = {m.size + l.size}"
        )
    mixed = m ^ toeplitz_mul_fast(seed, l, m.size, l.size)
    return ecc.encode(np.concatenate([mixed, l]))


def decode(y, seed, ecc: EccScheme, k: int) -> np.ndarray:
    """Recover the k message bits from channel reals y.

    Applies the ECC decoder then the hash: m_hat = (I, T) @ ecc.decode(y).
    Under a noiseless channel this returns m exactly for every (l, seed)
    because (I, T) [[I, T], [0, I]] = (I, 0) over F2. Propagates DecodeFailure
    from the ECC layer.
    """
    k_prime = ecc.message_length - k
    if k_prime < 0:
        raise ValueError(f"k = {k} exceeds ECC message length {ecc.message_length}")
    v = bits_from_ints(ecc.decode(np.asarray(y, dtype=float)))
    return hash_bits(v, seed, k, k_prime)


def coset_preimage_size(ecc: EccScheme, seed, m) -> int:
    """Count the inputs (m_hat, l) whose hash equals m; always 2^k'.

    Exhaustive enumeration, so the ECC message length is capped at 12 bits.
    """
    m = bits_from_ints(m)
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


def _enumerate_bits(length: int) -> np.ndarray:
    """All 2^length bit rows in numeric order, row i = binary of i (MSB first)."""
    if length == 0:
        return np.zeros((1, 0), dtype=np.uint8)
    values = np.arange(1 << length, dtype=np.int64)
    shifts = np.arange(length - 1, -1, -1, dtype=np.int64)
    return ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
