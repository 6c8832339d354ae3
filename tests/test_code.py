import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satwiretap.code import (
    DecodeFailure,
    EccScheme,
    Hamming74Code,
    IdentityCode,
    Repetition3Code,
    _pack_rows,
    _toeplitz_words,
    _unpack_rows,
    bits_to_bpsk,
    bits_to_hex,
    decode,
    encode,
    hard_decision,
    hash_bits,
    hex_to_bits,
    make_ecc,
    toeplitz_apply_batch,
)

from oracles import coset_preimage_size, toeplitz_from_seed, toeplitz_mul_naive


def _bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


def _draw_bits(data, size):
    return np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), np.uint8)


def _enumerate(length):
    for value in range(1 << length):
        yield _bits(format(value, f"0{length}b")) if length else np.zeros(0, np.uint8)


class TestSerialization:
    def test_msb_first_within_byte(self):
        assert bits_to_hex(_bits("10100001")) == "a1"
        assert bits_to_hex(_bits("1")) == "80"

    def test_round_trip_random_lengths(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            length = int(rng.integers(1, 70))
            bits = rng.integers(0, 2, length, dtype=np.uint8)
            assert np.array_equal(hex_to_bits(bits_to_hex(bits), length), bits)

    def test_empty_word(self):
        assert bits_to_hex(np.zeros(0, np.uint8)) == ""
        assert hex_to_bits("", 0).size == 0

    def test_nonzero_padding_rejected(self):
        with pytest.raises(ValueError):
            hex_to_bits("01", 7)  # declared 7 bits but bit 8 is set

    def test_short_hex_rejected(self):
        with pytest.raises(ValueError):
            hex_to_bits("ff", 9)

    @pytest.mark.parametrize(
        "text, length", [("0000", 1), ("a0 00", 9), ("00", 0), (" ", 0), ("a000", 3), ("80 ", 1)]
    )
    def test_hex_longer_than_the_word_rejected(self, text, length):
        with pytest.raises(ValueError, match=r"expected \d+ hex digits"):
            hex_to_bits(text, length)

    @pytest.mark.parametrize("bad", [[0, 2, 0.5, -1], [2], [0.5], [-1], [[0, 1], [1, 2]]])
    def test_bpsk_rejects_non_bits(self, bad):
        with pytest.raises(ValueError, match="bits must hold only 0 and 1"):
            bits_to_bpsk(bad)

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4)])
    def test_bpsk_keeps_any_batch_shape(self, shape):
        bits = np.random.default_rng(len(shape)).integers(0, 2, shape)
        want = 1.0 - 2.0 * bits.astype(float)
        for form in (bits, bits.astype(np.uint8), bits.astype(bool), bits.astype(float), bits.tolist()):
            got = bits_to_bpsk(form)
            assert got.dtype == np.float64 and np.array_equal(got, want)

    def test_bpsk_mapping(self):
        x = bits_to_bpsk(_bits("0110"))
        assert np.array_equal(x, [1.0, -1.0, -1.0, 1.0])
        assert np.array_equal(hard_decision(x * 0.3), _bits("0110"))

    def test_hard_decision_threshold(self):
        assert np.array_equal(hard_decision([1e-9, -1e-9, 0.0]), [0, 1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hard_decision_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            hard_decision([0.5, bad])


class TestToeplitz:
    def test_one_by_one(self):
        T = toeplitz_from_seed(_bits("1"), 1, 1)
        assert T.shape == (1, 1)
        assert T[0, 0] == 1

    def test_two_by_two_layout(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            s = rng.integers(0, 2, 3, dtype=np.uint8)
            T = toeplitz_from_seed(s, 2, 2)
            assert np.array_equal(T, [[s[1], s[0]], [s[2], s[1]]])

    def test_zero_seed_zero_matrix(self):
        T = toeplitz_from_seed(np.zeros(6, np.uint8), 3, 4)
        assert not T.any()

    def test_diagonal_constancy(self):
        rng = np.random.default_rng(21)
        seed = rng.integers(0, 2, 10, dtype=np.uint8)
        T = toeplitz_from_seed(seed, 6, 5)
        for i in range(5):
            for j in range(4):
                assert T[i, j] == T[i + 1, j + 1]

    def test_seed_length_checked(self):
        with pytest.raises(ValueError):
            toeplitz_from_seed(_bits("101"), 3, 3)


class TestFastMultiply:
    def test_matches_naive_small_random(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            k = int(rng.integers(1, 65))
            kp = int(rng.integers(0, 65))
            seed = rng.integers(0, 2, k + kp - 1, dtype=np.uint8)
            x = rng.integers(0, 2, kp, dtype=np.uint8)
            T = toeplitz_from_seed(seed, k, kp)
            assert np.array_equal(
                toeplitz_apply_batch(seed[None], x[None], k, kp)[0], toeplitz_mul_naive(T, x)
            )

    def test_matches_naive_large(self):
        rng = np.random.default_rng(32)
        for _ in range(3):
            k = int(rng.integers(1800, 2049))
            kp = 4096 - k
            seed = rng.integers(0, 2, 4095, dtype=np.uint8)
            x = rng.integers(0, 2, kp, dtype=np.uint8)
            T = toeplitz_from_seed(seed, k, kp)
            assert np.array_equal(
                toeplitz_apply_batch(seed[None], x[None], k, kp)[0], toeplitz_mul_naive(T, x)
            )

    def test_batch_matches_naive_row_by_row(self):
        rng = np.random.default_rng(33)
        shapes = [(1, 5, 0), (6, 4, 0), (1, 40, 17), (1, 1, 1)]
        for _ in range(40):
            shapes.append(tuple(int(v) for v in rng.integers((1, 1, 0), (20, 65, 65))))
        for case, (batch, k, kp) in enumerate(shapes):
            if case % 2:
                # one read-only seed shared by every row, as run_reliability and
                # exact_leakage pass it
                seed = rng.integers(0, 2, k + kp - 1, dtype=np.uint8)
                seeds = np.broadcast_to(seed, (batch, seed.size))
            else:
                seeds = rng.integers(0, 2, (batch, k + kp - 1), dtype=np.uint8)
            xs = rng.integers(0, 2, (batch, kp), dtype=np.uint8)
            out = toeplitz_apply_batch(seeds, xs, k, kp)
            assert out.shape == (batch, k) and out.dtype == np.uint8
            for b in range(batch):
                T = toeplitz_from_seed(seeds[b], k, kp)
                assert np.array_equal(out[b], toeplitz_mul_naive(T, xs[b]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_batch_matches_naive_across_word_edges(self, data):
        # seeds of k+k'-1 bits on and around the 64-bit word edges, k' = 0
        # included; either fresh seed rows or one row broadcast over the batch
        seed_len = data.draw(
            st.one_of(st.sampled_from([0, 63, 64, 65, 127, 128, 129]), st.integers(0, 200))
        )
        edges = [v for v in (1, 63, 64, 65, 128) if v <= seed_len] + [seed_len + 1]
        k = data.draw(st.one_of(st.sampled_from(edges), st.integers(1, seed_len + 1)))
        kp = seed_len + 1 - k
        batch = data.draw(st.integers(1, 5))
        shared = data.draw(st.booleans())
        rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if shared:
            seed = rows.integers(0, 2, seed_len, dtype=np.uint8)
            seeds = np.broadcast_to(seed, (batch, seed_len))
        else:
            seeds = rows.integers(0, 2, (batch, seed_len), dtype=np.uint8)
        xs = rows.integers(0, 2, (batch, kp), dtype=np.uint8)
        out = toeplitz_apply_batch(seeds, xs, k, kp)
        assert out.shape == (batch, k) and out.dtype == np.uint8
        for b in range(batch):
            T = toeplitz_from_seed(seeds[b], k, kp)
            assert np.array_equal(out[b], toeplitz_mul_naive(T, xs[b]))
        if shared:
            # the one seed row, broadcast inside the product
            assert np.array_equal(toeplitz_apply_batch(seed[None], xs, k, kp), out)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_packed_words_match_batch_and_naive(self, data):
        # every shape whose seed fits one word, k' = 0 included
        k = data.draw(st.integers(1, 64))
        kp = data.draw(st.integers(0, 65 - k))
        batch = data.draw(st.integers(1, 6))
        rows = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        seeds = rows.integers(0, 2, (batch, k + kp - 1), dtype=np.uint8)
        xs = rows.integers(0, 2, (batch, kp), dtype=np.uint8)
        words = _toeplitz_words(_pack_rows(seeds), _pack_rows(xs), k, kp)
        assert words.dtype == np.uint64 and words.shape == (1, batch)
        # the product sits in the top k bits, zeros below
        assert np.array_equal(_unpack_rows(words, 64)[:, k:], np.zeros((batch, 64 - k)))
        out = _unpack_rows(words, k)
        assert np.array_equal(out, toeplitz_apply_batch(seeds, xs, k, kp))
        for b in range(batch):
            T = toeplitz_from_seed(seeds[b], k, kp)
            assert np.array_equal(out[b], toeplitz_mul_naive(T, xs[b]))
        # one seed word broadcast over the batch, as a pinned hash seed is
        shared = _toeplitz_words(_pack_rows(seeds[:1]), _pack_rows(xs), k, kp)
        assert np.array_equal(
            _unpack_rows(shared, k),
            toeplitz_apply_batch(np.broadcast_to(seeds[0], seeds.shape), xs, k, kp),
        )
        # x read in place after k leading bits, as the reliability block reads it
        lead = rows.integers(0, 2, (batch, k), dtype=np.uint8)
        after = _pack_rows(np.concatenate([lead, xs], axis=1))
        assert np.array_equal(_toeplitz_words(_pack_rows(seeds), after, k, kp, offset=k), words)

    def test_packed_words_at_the_word_edges(self):
        rng = np.random.default_rng(35)
        for k, kp in [(64, 1), (64, 0), (1, 64), (1, 0), (33, 32), (2, 63)]:
            seeds = rng.integers(0, 2, (16, k + kp - 1), dtype=np.uint8)
            seeds[0] = 1
            xs = rng.integers(0, 2, (16, kp), dtype=np.uint8)
            xs[0] = 1
            words = _toeplitz_words(_pack_rows(seeds), _pack_rows(xs), k, kp)
            assert np.array_equal(_unpack_rows(words, 64)[:, k:], np.zeros((16, 64 - k)))
            out = _unpack_rows(words, k)
            for b in range(16):
                T = toeplitz_from_seed(seeds[b], k, kp)
                assert np.array_equal(out[b], toeplitz_mul_naive(T, xs[b]))

    def test_pack_rows_round_trip(self):
        rng = np.random.default_rng(34)
        for width in (0, 1, 7, 8, 9, 63, 64, 65, 128, 129, 200):
            bits = rng.integers(0, 2, (5, width), dtype=np.uint8)
            words = _pack_rows(bits)
            assert words.dtype == np.uint64 and words.shape == (-(-width // 64), 5)
            assert np.array_equal(_unpack_rows(words, width), bits)
        # bit 0 of a row is its first word's top bit, bit 64 its second word's
        one = np.zeros((1, 65), np.uint8)
        one[0, [0, 64]] = 1
        assert _pack_rows(one)[:, 0].tolist() == [1 << 63, 1 << 63]

    def test_zero_input(self):
        seed = np.ones(15, np.uint8)
        assert not toeplitz_apply_batch(seed[None], np.zeros((1, 8), np.uint8), 8, 8).any()

    @pytest.mark.parametrize("k", [1, 64, 65])
    @pytest.mark.parametrize("k_prime", [0, 2])
    def test_zero_row_batch(self, k, k_prime):
        seeds, xs = np.zeros((0, k + k_prime - 1)), np.zeros((0, k_prime))
        assert toeplitz_apply_batch(seeds, xs, k, k_prime).shape == (0, k)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_apply_batch(np.ones((1, 7), np.uint8), np.ones((1, 3), np.uint8), 4, 4)


class TestValidationNamesTheField:
    def test_batch_product_checks_its_shapes(self):
        # a 3-bit seed where k+k'-1 = 7 bits are needed
        with pytest.raises(ValueError, match="seeds has 3 bits, expected 7"):
            toeplitz_apply_batch(np.ones((1, 3)), np.ones((1, 2)), 4, 4)
        with pytest.raises(ValueError, match="xs has 3 bits, expected 4"):
            toeplitz_apply_batch(np.ones((1, 7)), np.ones((1, 3)), 4, 4)
        with pytest.raises(ValueError, match="seeds must be 2-dimensional"):
            toeplitz_apply_batch(np.ones(7), np.ones((1, 4)), 4, 4)
        with pytest.raises(ValueError, match="xs must hold only 0 and 1"):
            toeplitz_apply_batch(np.ones((1, 7)), np.full((1, 4), 2), 4, 4)
        with pytest.raises(ValueError, match="k_prime must be an integer"):
            toeplitz_apply_batch(np.ones((1, 7)), np.ones((1, 4)), 4, 4.0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            toeplitz_apply_batch(np.ones((1, 3)), np.ones((1, 4)), 0, 4)

    @pytest.mark.parametrize("bits", [[0.5, 1], [-1, 1], [2, 0], [np.nan], [[0, 1]]])
    def test_bits_to_hex_rejects_non_bits(self, bits):
        with pytest.raises(ValueError, match="bits must"):
            bits_to_hex(bits)

    def test_bits_to_hex_is_the_zero_padded_integer(self):
        rng = np.random.default_rng(36)
        for length in range(70):
            bits = rng.integers(0, 2, length, dtype=np.uint8)
            nbytes = -(-length // 8)
            text = "".join(map(str, bits.tolist())).ljust(8 * nbytes, "0")
            assert bits_to_hex(bits) == int(text or "0", 2).to_bytes(nbytes, "big").hex()

    @pytest.mark.parametrize("length", [2.5, 2.0, True, None, -1])
    def test_hex_length_must_be_a_count(self, length):
        with pytest.raises(ValueError, match="length must be"):
            hex_to_bits("ff", length)

    def test_hash_names_each_bad_argument(self):
        v, seed = np.zeros(4, np.uint8), np.zeros(3, np.uint8)
        with pytest.raises(ValueError, match="k_prime must be an integer"):
            hash_bits(v, seed, 2, 2.0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            hash_bits(v, seed, 0, 4)
        with pytest.raises(ValueError, match="v has 3 bits, expected 4"):
            hash_bits(v[:3], seed, 2, 2)
        with pytest.raises(ValueError, match="v must hold only 0 and 1"):
            hash_bits([0, 1, 0.5, 0], seed, 2, 2)
        with pytest.raises(ValueError, match="seed has 2 bits, expected 3"):
            hash_bits(v, seed[:2], 2, 2)

    def test_encode_and_decode_name_each_bad_argument(self):
        ecc = make_ecc("identity", 4)
        seed = np.zeros(3, np.uint8)
        with pytest.raises(ValueError, match="k must be an integer"):
            decode(np.ones(4), seed, ecc, 1.5)
        with pytest.raises(ValueError, match="m must hold only 0 and 1"):
            encode([0, -1], [1, 0], seed, ecc)
        with pytest.raises(ValueError, match="k must be >= 1"):
            encode([], [1, 0, 1, 1], seed, ecc)
        with pytest.raises(ValueError, match="seed has 4 bits, expected 3"):
            encode([0, 1], [1, 0], np.zeros(4), ecc)
        with pytest.raises(ValueError, match="k = 5 exceeds ECC message length 4"):
            decode(np.ones(4), seed, ecc, 5)


class TestHash:
    def test_single_bit_collision_probability(self):
        # k=1, k'=1: (0,0) vs (0,1) collide iff the 1x1 Toeplitz entry is 0
        collisions = []
        for seed in ([0], [1]):
            a = hash_bits(_bits("00"), np.array(seed, np.uint8), 1, 1)
            b = hash_bits(_bits("01"), np.array(seed, np.uint8), 1, 1)
            collisions.append(bool((a == b).all()))
        assert collisions == [True, False]

    def test_zero_vector_fixed_point(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            seed = rng.integers(0, 2, 6, dtype=np.uint8)
            assert not hash_bits(np.zeros(7, np.uint8), seed, 4, 3).any()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16), st.integers(0, 16), st.data())
    def test_linearity(self, k, k_prime, data):
        seed = _draw_bits(data, k + k_prime - 1)
        u = _draw_bits(data, k + k_prime)
        v = _draw_bits(data, k + k_prime)
        left = hash_bits(u ^ v, seed, k, k_prime)
        right = hash_bits(u, seed, k, k_prime) ^ hash_bits(v, seed, k, k_prime)
        assert np.array_equal(left, right)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            hash_bits(np.zeros(6, np.uint8), np.zeros(6, np.uint8), 4, 3)


class TestEccSchemes:
    def test_identity_round_trip(self):
        ecc = make_ecc("identity", 5)
        v = _bits("10110")
        assert np.array_equal(ecc.decode(bits_to_bpsk(ecc.encode(v))), v)

    def test_rep3_majority_corrects_one_flip_per_triple(self):
        ecc = make_ecc("rep3", 4)
        v = _bits("1010")
        cw = ecc.encode(v)
        assert cw.size == 12
        y = bits_to_bpsk(cw)
        y[0] = -y[0]
        y[5] = -y[5]
        assert np.array_equal(ecc.decode(y), v)

    def test_hamming_corrects_any_single_flip(self):
        ecc = make_ecc("hamming74", 4)
        for v in _enumerate(4):
            cw = ecc.encode(v)
            for pos in range(7):
                y = bits_to_bpsk(cw)
                y[pos] = -y[pos]
                assert np.array_equal(ecc.decode(y), v)

    def test_hamming_linear(self):
        ecc = make_ecc("hamming74", 4)
        rng = np.random.default_rng(14)
        for _ in range(16):
            u = rng.integers(0, 2, 4, dtype=np.uint8)
            v = rng.integers(0, 2, 4, dtype=np.uint8)
            assert np.array_equal(ecc.encode(u ^ v), ecc.encode(u) ^ ecc.encode(v))

    def test_batched_shapes(self):
        ecc = make_ecc("rep3", 2)
        batch = np.array([[0, 1], [1, 1], [0, 0]], dtype=np.uint8)
        cw = ecc.encode(batch)
        assert cw.shape == (3, 6)
        assert np.array_equal(ecc.decode(bits_to_bpsk(cw)), batch)

    def test_hamming_decodes_every_word_to_its_nearest_codeword(self):
        # the (7,4) code is perfect: each of the 128 words lies within
        # distance 1 of exactly one codeword
        ecc = make_ecc("hamming74", 4)
        messages = np.array(list(_enumerate(4)))
        codewords = ecc.encode(messages)
        words = np.array(list(_enumerate(7)))
        distance = (words[:, None, :] ^ codewords[None, :, :]).sum(axis=-1)
        assert ((distance <= 1).sum(axis=1) == 1).all()
        nearest = messages[distance.argmin(axis=1)]
        assert np.array_equal(ecc.decode_bits(words), nearest)

    def test_rep3_majority_every_triple(self):
        ecc = make_ecc("rep3", 1)
        for triple in _enumerate(3):
            assert ecc.decode_bits(triple).tolist() == [int(triple.sum() >= 2)]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["identity", "rep3", "hamming74"]), st.data())
    def test_decode_is_decode_bits_of_hard_decision(self, name, data):
        ecc = make_ecc(name, 4 if name == "hamming74" else data.draw(st.integers(1, 12)))
        batch = data.draw(st.integers(1, 4))
        reals = st.one_of(
            st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        y = np.array(
            data.draw(st.lists(reals, min_size=batch * ecc.block_length, max_size=batch * ecc.block_length))
        ).reshape(batch, ecc.block_length)
        assert np.array_equal(ecc.decode(y), ecc.decode_bits(hard_decision(y)))
        assert np.array_equal(ecc.decode(y[0]), ecc.decode_bits(hard_decision(y[0])))

    @pytest.mark.parametrize("name", ["identity", "rep3", "hamming74"])
    def test_decode_bits_checks_block_length(self, name):
        ecc = make_ecc(name, 4)
        n = ecc.block_length
        with pytest.raises(ValueError, match=f"block has {n + 1} bits, expected {n}"):
            ecc.decode_bits(np.zeros(n + 1, np.uint8))
        with pytest.raises(ValueError, match="finite"):
            ecc.decode(np.full(ecc.block_length, np.nan))

    @staticmethod
    def _method(name, side):
        ecc = make_ecc(name, 4)
        if side == "message":
            return ecc.encode, ecc.message_length
        return ecc.decode_bits, ecc.block_length

    @pytest.mark.parametrize("name", ["identity", "rep3", "hamming74"])
    @pytest.mark.parametrize("side", ["message", "block"])
    @pytest.mark.parametrize("bad", [5, 0.7, -1, np.uint8(2)])
    def test_methods_accept_only_bits(self, name, side, bad):
        method, length = self._method(name, side)
        word = np.zeros((2, length), np.asarray(bad).dtype)
        word[1, -1] = bad
        with pytest.raises(ValueError, match=f"{side} must hold only 0 and 1"):
            method(word)

    @pytest.mark.parametrize("name", ["identity", "rep3", "hamming74"])
    @pytest.mark.parametrize("side", ["message", "block"])
    def test_methods_name_a_bad_shape(self, name, side):
        method, length = self._method(name, side)
        with pytest.raises(ValueError, match=f"{side} has {length - 1} bits, expected {length}"):
            method(np.zeros((2, length - 1), np.uint8))
        with pytest.raises(ValueError, match=rf"{side} must be at least 1-dimensional, got shape \(\)"):
            method(np.uint8(0))

    @pytest.mark.parametrize("length", [2.5, 2.0, True, "3", None])
    def test_message_length_must_be_an_integer(self, length):
        for build in (IdentityCode, Repetition3Code):
            with pytest.raises(ValueError, match="message_length"):
                build(length)
        for name in ("identity", "rep3", "hamming74"):
            with pytest.raises(ValueError, match="message_length"):
                make_ecc(name, length)

    def test_message_length_accepts_numpy_integers(self):
        assert make_ecc("rep3", np.int64(3)).block_length == 9
        assert type(make_ecc("identity", np.int32(5)).message_length) is int

    def test_hamming_requires_four_bits(self):
        with pytest.raises(ValueError, match="hamming74 requires k \\+ k' = 4"):
            make_ecc("hamming74", 5)
        with pytest.raises(ValueError, match="hamming74 requires"):
            Hamming74Code(3)
        with pytest.raises(ValueError, match="message_length"):
            make_ecc("hamming74", 4.0)
        assert Hamming74Code().message_length == Hamming74Code(4).message_length == 4

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            make_ecc("turbo", 4)
        # the name is checked before the length
        with pytest.raises(ValueError, match="unknown ECC scheme 'turbo'; choose from"):
            make_ecc("turbo", 0)
        with pytest.raises(ValueError, match=r"unknown ECC scheme \['rep3'\]"):
            make_ecc(["rep3"], 3)

    def test_base_scheme_has_no_code(self):
        with pytest.raises(NotImplementedError):
            EccScheme().encode(np.zeros(4, np.uint8))
        with pytest.raises(NotImplementedError):
            EccScheme().decode_bits(np.zeros(4, np.uint8))


class TestEncodeDecode:
    def test_zero_matrix_concatenates(self):
        ecc = make_ecc("identity", 4)
        cw = encode(_bits("10"), _bits("11"), np.zeros(3, np.uint8), ecc)
        assert np.array_equal(cw, _bits("1011"))

    def test_hand_computed_premix(self):
        ecc = make_ecc("identity", 2)
        cw = encode(_bits("1"), _bits("1"), _bits("1"), ecc)
        assert np.array_equal(cw, _bits("01"))

    def test_injective_exhaustive(self):
        ecc = make_ecc("identity", 6)
        seed = _bits("10110")
        seen = set()
        for m in _enumerate(3):
            for l in _enumerate(3):
                cw = encode(m, l, seed, ecc)
                seen.add(bits_to_hex(cw))
        assert len(seen) == 64

    def test_premix_is_self_inverse(self):
        rng = np.random.default_rng(17)
        k, kp = 5, 4
        for _ in range(20):
            seed = rng.integers(0, 2, k + kp - 1, dtype=np.uint8)
            m = rng.integers(0, 2, k, dtype=np.uint8)
            l = rng.integers(0, 2, kp, dtype=np.uint8)
            once = hash_bits(np.concatenate([m, l]), seed, k, kp)
            twice = hash_bits(np.concatenate([once, l]), seed, k, kp)
            assert np.array_equal(twice, m)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["identity", "rep3", "hamming74"]), st.data())
    def test_noiseless_round_trip_all_schemes(self, name, data):
        if name == "hamming74":
            k = data.draw(st.integers(1, 4))
            kp = 4 - k
        else:
            k = data.draw(st.integers(1, 12))
            kp = data.draw(st.integers(0, 12))
        ecc = make_ecc(name, k + kp)
        seed = _draw_bits(data, k + kp - 1)
        m = _draw_bits(data, k)
        l = _draw_bits(data, kp)
        y = bits_to_bpsk(encode(m, l, seed, ecc))
        assert np.array_equal(decode(y, seed, ecc, k), m)

    def test_single_flip_still_recovers_with_hamming(self):
        ecc = make_ecc("hamming74", 4)
        rng = np.random.default_rng(19)
        for _ in range(40):
            seed = rng.integers(0, 2, 3, dtype=np.uint8)
            m = rng.integers(0, 2, 2, dtype=np.uint8)
            l = rng.integers(0, 2, 2, dtype=np.uint8)
            y = bits_to_bpsk(encode(m, l, seed, ecc))
            y[int(rng.integers(0, 7))] *= -1.0
            assert np.array_equal(decode(y, seed, ecc, 2), m)

    def test_double_flip_returns_value_or_failure(self):
        ecc = make_ecc("hamming74", 4)
        seed = _bits("101")
        y = bits_to_bpsk(encode(_bits("10"), _bits("01"), seed, ecc))
        y[0] *= -1.0
        y[3] *= -1.0
        try:
            out = decode(y, seed, ecc, 2)
            assert out.shape == (2,)
        except DecodeFailure:
            pass

    def test_dimension_mismatch_rejected(self):
        ecc = make_ecc("identity", 4)
        with pytest.raises(ValueError):
            encode(_bits("10"), _bits("110"), np.zeros(3, np.uint8), ecc)


class TestCosetPreimage:
    def test_single_sacrifice_bit(self):
        ecc = make_ecc("identity", 2)
        for seed in ([0], [1]):
            assert coset_preimage_size(ecc, np.array(seed, np.uint8), _bits("1")) == 2

    def test_balanced_for_random_seeds(self):
        ecc = make_ecc("identity", 5)
        rng = np.random.default_rng(23)
        for _ in range(5):
            seed = rng.integers(0, 2, 4, dtype=np.uint8)
            for m in _enumerate(3):
                assert coset_preimage_size(ecc, seed, m) == 4

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_balanced_property(self, data):
        # every message has exactly 2^k' preimages under (I, T(seed))
        k = data.draw(st.integers(1, 8))
        kp = data.draw(st.integers(0, 8 - k))
        ecc = make_ecc(data.draw(st.sampled_from(["identity", "rep3"])), k + kp)
        seed = _draw_bits(data, k + kp - 1)
        m = _draw_bits(data, k)
        assert coset_preimage_size(ecc, seed, m) == 2**kp

    def test_zero_seed_still_balanced(self):
        ecc = make_ecc("identity", 5)
        for m in _enumerate(3):
            assert coset_preimage_size(ecc, np.zeros(4, np.uint8), m) == 4

    def test_size_cap(self):
        ecc = make_ecc("identity", 13)
        with pytest.raises(ValueError):
            coset_preimage_size(ecc, np.zeros(12, np.uint8), np.zeros(1, np.uint8))
