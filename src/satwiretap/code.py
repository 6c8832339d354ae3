"""Executable wiretap code: modified-Toeplitz universal2 hash over F2 plus a
pluggable linear error-correcting layer.

The hash family is F = (I, T(S)) with T a k x k' binary Toeplitz matrix drawn
from a seed S of k+k'-1 bits: hash(v) = v[:k] XOR T @ v[k:]. The encoder
premixes the message with the sacrifice bits through [[I, T], [0, I]] (over
F2, -T = T), so hash(premix(m, l)) = m for every seed; decoding is the hash of
the ECC-decoded word. The premix's first k bits are the hash, so one map on
rows packed into uint64 words (_hash_words) serves encode, hash_bits, decode
and the reliability simulation. T @ x is an XOR of sliding seed windows,
computed at every k and k' by one kernel (_toeplitz_words): each window is
a word-aligned slice of one of at most 64 bit-shifts of the seed.
toeplitz_apply_batch packs bits, runs it and unpacks; the tests compare it
against a dense-matmul reference in tests/oracles.py.
Desk-scale ECC stand-ins (identity, triple repetition, Hamming(7,4)) substitute
for production LDPC/Polar codes; all decide hard first and decode bits.

Bit conventions, fixed project-wide: index 0 is the first transmitted bit;
BPSK maps bit 0 -> +1 and bit 1 -> -1; hex serialization packs 8 bits per
byte, most-significant bit first.
"""

from __future__ import annotations

import numpy as np

from .channel import _check_count

__all__ = [
    "DecodeFailure",
    "bits_to_hex",
    "hex_to_bits",
    "bits_to_bpsk",
    "hard_decision",
    "toeplitz_apply_batch",
    "hash_bits",
    "EccScheme",
    "IdentityCode",
    "Repetition3Code",
    "Hamming74Code",
    "make_ecc",
    "encode",
    "decode",
]


class DecodeFailure(Exception):
    """Raised when an ECC decoder cannot produce a message estimate."""


def _check_bits(name: str, values, length=None, ndim=1) -> np.ndarray:
    """values as a uint8 array of 0s and 1s with `ndim` axes, the last of `length` bits.

    ValueError naming `name` for any other shape or value; length None takes
    any length and ndim None any number of axes from one up.
    """
    bits = np.asarray(values)
    if bits.ndim == 0 or ndim not in (None, bits.ndim):
        axes = "at least 1" if ndim is None else ndim
        raise ValueError(f"{name} must be {axes}-dimensional, got shape {bits.shape}")
    if length is not None and bits.shape[-1] != length:
        raise ValueError(f"{name} has {bits.shape[-1]} bits, expected {length}")
    if bits.dtype.kind in "bu":  # unsigned: one reduction, no array-sized temporaries
        valid = bits.max(initial=0) <= 1
    else:
        valid = ((bits == 0) | (bits == 1)).all()
    if not valid:
        raise ValueError(f"{name} must hold only 0 and 1")
    return bits.astype(np.uint8, copy=False)


def bits_to_hex(bits) -> str:
    """Serialize a bit word to hex, MSB-first within each byte.

    The word is right-padded with zero bits to a byte boundary; callers must
    remember the true length to deserialize.
    """
    return np.packbits(_check_bits("bits", bits)).tobytes().hex()


def hex_to_bits(text: str, length: int) -> np.ndarray:
    """Parse `length` bits from bits_to_hex's text: exactly 2*ceil(length/8) hex digits."""
    length = _check_count("length", length, 0)
    raw = bytes.fromhex(text)
    if len(raw) * 8 < length:
        raise ValueError(f"hex holds {len(raw) * 8} bits, need {length}")
    digits = 2 * -(-length // 8)
    if len(text) != digits:
        raise ValueError(f"expected {digits} hex digits for {length} bits, got {text!r}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if int(bits[length:].max(initial=0)) != 0:
        raise ValueError("nonzero padding bits past the declared length")
    return bits[:length].copy()


def bits_to_bpsk(bits) -> np.ndarray:
    """Map bits to channel symbols: 0 -> +1.0, 1 -> -1.0; ValueError unless all 0/1."""
    return 1.0 - 2.0 * _check_bits("bits", bits, ndim=None)


def hard_decision(y) -> np.ndarray:
    """Threshold channel reals at zero back to bits (y < 0 reads as bit 1)."""
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("channel reals y must be finite")
    return (y < 0.0).astype(np.uint8)


def toeplitz_apply_batch(seeds, xs, k: int, k_prime: int) -> np.ndarray:
    """Row-wise T(seeds[b]) @ xs[b] over F2 for a batch of seeds and inputs.

    seeds is (B, k+k'-1) and xs is (B, k'), both 0/1; one seed row is
    broadcast over every input row. Column j of T(seed) is the contiguous
    window seed[k'-1-j : k'-1-j+k], so the product is the XOR of the windows
    selected by the set bits of each input row, computed on packed words by
    _toeplitz_words. Read-only and broadcast seeds are accepted. A single
    word is the batch of one row.
    """
    k = _check_count("k", k, 1)
    k_prime = _check_count("k_prime", k_prime, 0)
    seeds = _check_bits("seeds", seeds, k + k_prime - 1, ndim=2)
    xs = _check_bits("xs", xs, k_prime, ndim=2)
    return _unpack_rows(_toeplitz_words(_pack_rows(seeds), _pack_rows(xs), k, k_prime), k)


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """(B, w) 0/1 rows as a (ceil(w/64), B) uint64 array; column b holds row b.

    Bit i of a row is bit 63 - i % 64 of its word i // 64, so each word reads
    the row MSB-first and the last word is zero-padded at the bottom.
    """
    rows, width = bits.shape
    words = -(-width // 64)
    padded = np.zeros((rows, 64 * words), dtype=np.uint8)
    padded[:, :width] = bits
    # one flat packbits: per-row packbits(axis=1) is several times slower
    packed = np.packbits(padded).view(">u8").reshape(rows, words)
    return np.ascontiguousarray(packed.T, dtype=np.uint64)


def _unpack_rows(words: np.ndarray, width: int) -> np.ndarray:
    """The first `width` bits of each _pack_rows row as a (B, width) 0/1 array."""
    big_endian = np.ascontiguousarray(words.T, dtype=">u8")
    bits = np.unpackbits(big_endian.view(np.uint8))
    # the row width spelled out: a batch of zero rows has none to infer
    return bits.reshape(words.shape[1], 64 * words.shape[0])[:, :width]


def _toeplitz_words(
    seed_words: np.ndarray, x_words: np.ndarray, k: int, k_prime: int, offset: int = 0
) -> np.ndarray:
    """Row-wise T(seed) @ x over F2 on _pack_rows words, at any k and k'.

    seed_words holds k+k'-1 bit seeds and x is read from bits offset ..
    offset+k'-1 of x_words' rows; either may have one row, broadcast over
    the other's. The k product bits come back as ceil(k/64) words per row,
    zeros below bit k. Column j's window starts at seed bit k'-1-j = 64q + r,
    so it is words q.. of the seed shifted by r: each of the at most 64
    shifts is built once. x's bit j, shifted into the sign and spread by an
    arithmetic shift, selects the window in every row.
    """
    rows = np.broadcast_shapes(seed_words.shape[1:], x_words.shape[1:])
    out_words = -(-k // 64)
    out = np.zeros((out_words,) + rows, dtype=np.uint64)
    signed = x_words.view(np.int64)
    for shift in range(min(64, k_prime)):
        shifted = seed_words
        if shift:
            # every seed row moved `shift` bits toward bit 0, across words
            shifted = seed_words << shift
            shifted[:-1] |= seed_words[1:] >> (64 - shift)
        # column k'-1-shift-64q for q = 0, 1, ...: its window starts at word q
        for q in range((k_prime - 1 - shift) // 64 + 1):
            bit = offset + k_prime - 1 - shift - 64 * q
            select = (signed[bit // 64] << (bit % 64)) >> 63
            out ^= shifted[q : q + out_words] & select.view(np.uint64)
    out[-1] &= ~np.uint64(0) << (-k % 64)  # zero the window bits past bit k
    return out


def _hash_words(seed_words: np.ndarray, words: np.ndarray, k: int, k_prime: int) -> np.ndarray:
    """The words holding bits 0..k-1 of [[I, T(seed)], [0, I]] v for k+k' bit rows v.

    words are _pack_rows rows v = (a, b) with a of k bits; either argument may
    have one row, broadcast over the other's. The first k bits of the result
    are a XOR T(seed) @ b, which is both the encoder's premixed message and
    the hash (I, T(seed)) v; the bits past k in the last word are b's own.
    """
    out = _toeplitz_words(seed_words, words, k, k_prime, offset=k)
    out ^= words[: out.shape[0]]
    return out


def hash_bits(v, seed, k: int, k_prime: int) -> np.ndarray:
    """Universal2 hash (I, T(seed)) applied to a k+k' bit word.

    Returns v[:k] XOR T @ v[k:]. For a uniformly random seed any two distinct
    inputs collide with probability at most 2^-k.
    """
    k = _check_count("k", k, 1)
    k_prime = _check_count("k_prime", k_prime, 0)
    v = _check_bits("v", v, k + k_prime)
    seed = _check_bits("seed", seed, k + k_prime - 1)
    return _unpack_rows(_hash_words(_pack_rows(seed[None]), _pack_rows(v[None]), k, k_prime), k)[0]


class EccScheme:
    """Linear block code interface used by the wiretap encoder.

    encode maps (..., message_length) bit arrays to (..., block_length)
    codeword bits. Every scheme decides hard first: decode_bits maps
    (..., block_length) hard-decision bits back to message bits, raising
    DecodeFailure when no estimate can be produced, and decode(y) on channel
    reals is decode_bits(hard_decision(y)). Implementations must be injective
    homomorphisms with decode_bits(encode(v)) = v. The built-in schemes take
    only 0/1 values and raise a ValueError naming `message` or `block` for
    any other value, a wrong last axis or a 0-d input.
    """

    name: str
    message_length: int
    block_length: int

    def encode(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decode(self, y: np.ndarray) -> np.ndarray:
        """Decode channel reals: decode_bits(hard_decision(y)); y must be finite."""
        return self.decode_bits(hard_decision(y))


class IdentityCode(EccScheme):
    """No redundancy: the noiseless-main-channel special case with n = k+k'."""

    name = "identity"

    def __init__(self, message_length: int):
        self.message_length = _check_count("message_length", message_length, 1)
        self.block_length = self.message_length

    def encode(self, v: np.ndarray) -> np.ndarray:
        return _check_bits("message", v, self.message_length, ndim=None).copy()

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        return _check_bits("block", bits, self.block_length, ndim=None).copy()


class Repetition3Code(EccScheme):
    """Each bit transmitted three times, majority vote on hard decisions."""

    name = "rep3"

    def __init__(self, message_length: int):
        self.message_length = _check_count("message_length", message_length, 1)
        self.block_length = 3 * self.message_length

    def encode(self, v: np.ndarray) -> np.ndarray:
        return np.repeat(_check_bits("message", v, self.message_length, ndim=None), 3, axis=-1)

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        bits = _check_bits("block", bits, self.block_length, ndim=None)
        a, b, c = bits[..., 0::3], bits[..., 1::3], bits[..., 2::3]
        return (a & b) | (c & (a | b))


class Hamming74Code(EccScheme):
    """Classic (7,4) single-error-correcting code, syndrome decoding.

    Built from its message length like the other schemes; 4 is the only one
    it takes. Codeword layout is the 1-indexed standard: parity bits at
    positions 1, 2, 4 and data at 3, 5, 6, 7; the syndrome value is the
    1-indexed error position (0 = clean).
    """

    name = "hamming74"
    message_length = 4
    block_length = 7

    _DATA_POS = np.array([2, 4, 5, 6])

    def __init__(self, message_length: int = 4):
        if _check_count("message_length", message_length, 1) != 4:
            raise ValueError("hamming74 requires k + k' = 4")

    def encode(self, v: np.ndarray) -> np.ndarray:
        v = _check_bits("message", v, 4, ndim=None)
        c = np.zeros(v.shape[:-1] + (7,), dtype=np.uint8)
        c[..., self._DATA_POS] = v
        c[..., 0] = v[..., 0] ^ v[..., 1] ^ v[..., 3]
        c[..., 1] = v[..., 0] ^ v[..., 2] ^ v[..., 3]
        c[..., 3] = v[..., 1] ^ v[..., 2] ^ v[..., 3]
        return c

    def decode_bits(self, bits: np.ndarray) -> np.ndarray:
        b = _check_bits("block", bits, 7, ndim=None)
        # check w covers the 1-indexed positions with bit w set
        syndrome = (
            (b[..., 0] ^ b[..., 2] ^ b[..., 4] ^ b[..., 6])
            | (b[..., 1] ^ b[..., 2] ^ b[..., 5] ^ b[..., 6]) << 1
            | (b[..., 3] ^ b[..., 4] ^ b[..., 5] ^ b[..., 6]) << 2
        )
        return b[..., self._DATA_POS] ^ (syndrome[..., None] == self._DATA_POS + 1)


_ECCS = {scheme.name: scheme for scheme in (IdentityCode, Repetition3Code, Hamming74Code)}


def make_ecc(name: str, message_length: int) -> EccScheme:
    """Instantiate a registered ECC scheme for a k+k' bit message."""
    if not isinstance(name, str) or name not in _ECCS:
        raise ValueError(f"unknown ECC scheme {name!r}; choose from {tuple(_ECCS)}")
    return _ECCS[name](message_length)


def encode(m, l, seed, ecc: EccScheme) -> np.ndarray:
    """Wiretap-encode message m (k bits) with sacrifice word l (k' bits).

    Premixes m with T(seed) @ l, concatenates l, and applies the ECC:
    codeword = ecc.encode((m XOR T l, l)). Injective in (m, l) for any fixed
    seed because the premix matrix [[I, T], [0, I]] is invertible.
    """
    m = _check_bits("m", m)
    l = _check_bits("l", l)
    k = _check_count("k", m.size, 1)
    if ecc.message_length != k + l.size:
        raise ValueError(f"ECC expects {ecc.message_length} bits, got k+k' = {k + l.size}")
    return ecc.encode(np.concatenate([hash_bits(np.concatenate([m, l]), seed, k, l.size), l]))


def decode(y, seed, ecc: EccScheme, k: int) -> np.ndarray:
    """Recover the k message bits from channel reals y.

    Applies the ECC decoder then the hash: m_hat = (I, T) @ ecc.decode(y).
    Under a noiseless channel this returns m exactly for every (l, seed)
    because (I, T) [[I, T], [0, I]] = (I, 0) over F2. Propagates DecodeFailure
    from the ECC layer.
    """
    k = _check_count("k", k, 1)
    k_prime = ecc.message_length - k
    if k_prime < 0:
        raise ValueError(f"k = {k} exceeds ECC message length {ecc.message_length}")
    return hash_bits(ecc.decode(np.asarray(y, dtype=float)), seed, k, k_prime)


def _enumerate_bits(length: int) -> np.ndarray:
    """All 2^length bit rows in numeric order, row i = binary of i (MSB first)."""
    if length == 0:
        return np.zeros((1, 0), dtype=np.uint8)
    values = np.arange(1 << length, dtype=np.int64)
    shifts = np.arange(length - 1, -1, -1, dtype=np.int64)
    return ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
