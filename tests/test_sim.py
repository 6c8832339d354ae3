import itertools
import math
import threading
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from satwiretap.capacity import mi_biawgn
from satwiretap.channel import WiretapChannelParams, ndtr
from satwiretap.code import (
    DecodeFailure,
    IdentityCode,
    bits_to_bpsk,
    bits_to_hex,
    hard_decision,
    make_ecc,
)
from satwiretap.leakage import CodeParams
from satwiretap import sim
from satwiretap.sim import (
    _Z95,
    EveQuantizer,
    ReliabilityReport,
    _design_effect,
    _hard_decisions,
    _half_width,
    _outer_rows,
    _reliability_block,
    _uniform_bits,
    exact_leakage,
    run_reliability,
)

from oracles import mc_mutual_info, toeplitz_from_seed, toeplitz_mul_naive

P_MAIN = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0)


def _discrete_mi_bits(cond):
    """I(M; Z) in bits for rows cond[m] = P(z | m), M uniform."""
    marginal = cond.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cond > 0.0, np.log2(cond) - np.log2(marginal), 0.0)
    return float(np.sum(cond * ratio) / cond.shape[0])


def _gather_tables(code, ecc, quantizer, params):
    """(P(z | ECC(w)) for every raw input w, per-seed (seed_hex, P_S(z | m)) list).

    The reference for exact_leakage's tree sweep: for each seed, gather the
    output row of every (m, l) from the table of P(z | ECC(u, l)) and average
    over l, hashing with the naive Toeplitz product. Seeds come in numeric
    order.
    """
    k, kp = code.k, code.k_prime
    rows = (quantizer.level_probs(+1.0, params), quantizer.level_probs(-1.0, params))
    table = []
    for v in itertools.product((0, 1), repeat=k + kp):
        q = np.ones(1)
        for bit in ecc.encode(np.array(v, np.uint8)):
            q = np.multiply.outer(q, rows[bit]).ravel()
        table.append(q)
    table = np.array(table)
    all_m = np.array(list(itertools.product((0, 1), repeat=k)), np.int64)
    all_l = np.array(list(itertools.product((0, 1), repeat=kp)), np.uint8)
    pow_k = 1 << np.arange(k - 1, -1, -1)
    per_seed = []
    for seed in itertools.product((0, 1), repeat=k + kp - 1):
        seed = np.array(seed, np.uint8)
        t = toeplitz_from_seed(seed, k, kp)
        t_l = np.array([toeplitz_mul_naive(t, l) for l in all_l], np.int64)
        mixed = all_m[:, None, :] ^ t_l[None, :, :]
        idx = (mixed @ pow_k) * len(all_l) + np.arange(len(all_l))[None, :]
        per_seed.append((bits_to_hex(seed), table[idx].mean(axis=1)))
    return table, per_seed


def _gather_leaks(code, ecc, quantizer, params):
    """Per-seed (seed_hex, leak_bits) by brute force, in numeric seed order."""
    _, per_seed = _gather_tables(code, ecc, quantizer, params)
    return [(seed, _discrete_mi_bits(cond)) for seed, cond in per_seed]


def _kl_bits(p, q):
    """D(p || q) in bits, with 0 where p = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0.0, np.log2(p) - np.log2(q), 0.0)
    return float(np.sum(p * ratio))


def _assert_matches_gather(code, ecc, quantizer, params):
    report = exact_leakage(code, ecc, quantizer, params)
    reference = _gather_leaks(code, ecc, quantizer, params)
    assert [h for h, _ in report.per_seed] == [h for h, _ in reference]
    for (_, leak), (_, ref) in zip(report.per_seed, reference):
        assert leak == pytest.approx(ref, rel=0.0, abs=1e-12)
    mean = sum(ref for _, ref in reference) / len(reference)
    assert report.exact_leak_bits == pytest.approx(mean, rel=0.0, abs=1e-12)
    return report


@st.composite
def _oracle_instances(draw, ecc_name=None):
    """(code, ecc, quantizer, params) with k in 1..3, k' in 0..4, any valid ECC.

    rep3 is valid up to k + k' = 4, where its block reaches the n <= 12 cap,
    and hamming74 at k + k' = 4 only. ecc_name pins the ECC.
    """
    k = draw(st.integers(1, 3))
    if ecc_name == "hamming74":
        kp = 4 - k
    else:
        kp = draw(st.integers(0, 4 - k if ecc_name == "rep3" else 4))
    names = ["identity"] + (["rep3"] if k + kp <= 4 else []) + (["hamming74"] if k + kp == 4 else [])
    ecc = make_ecc(ecc_name or draw(st.sampled_from(names)), k + kp)
    n = ecc.block_length
    # keep the brute-force table small; two levels always fit
    top = max(lv for lv in (2, 3, 4) if (1 << (k + kp)) * lv**n <= 1 << 16)
    levels = draw(st.integers(2, top))
    params = WiretapChannelParams(
        gamma_g=draw(st.floats(0.0, 2.0)), gamma_n=draw(st.floats(0.2, 5.0))
    )
    return CodeParams(n, k, kp), ecc, EveQuantizer(levels), params


class _AndCode(IdentityCode):
    """Identity code whose last bit is the AND of the first two: not F2-linear."""

    name = "and"

    def encode(self, v):
        out = super().encode(v)
        out[..., -1] = out[..., 0] & out[..., 1]
        return out


class _ComplementCode(IdentityCode):
    """Identity code with every bit flipped: affine, so ECC(0) != 0."""

    name = "complement"

    def encode(self, v):
        return super().encode(v) ^ 1


class _DropFirstBit(IdentityCode):
    """Identity code that always sends 0 for the first input bit: linear, not injective."""

    name = "drop-first"

    def encode(self, v):
        out = super().encode(v)
        out[..., 0] = 0
        return out


class _PerFrameIdentity(IdentityCode):
    """Identity code that decodes a batch one frame at a time and flips the
    first `garbled_bits` decoded bits of the chosen frames."""

    def __init__(self, message_length, bad_frames=(), garbled_bits=0):
        super().__init__(message_length)
        self.bad_frames = list(bad_frames)
        self.garbled_bits = garbled_bits

    def decode_bits(self, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        out = np.empty((len(bits), self.message_length), dtype=np.uint8)
        for frame, row in enumerate(bits):
            out[frame] = super().decode_bits(row)
        out[self.bad_frames, : self.garbled_bits] ^= 1
        return out


class TestRunReliability:
    def test_noise_free_channel_is_error_free(self):
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=1e-24)
        report = run_reliability(
            CodeParams(7, 2, 2), make_ecc("hamming74", 4), params, 2000, 5
        )
        assert report.bit_errors == 0
        assert report.frame_errors == 0
        assert report.decode_failures == 0
        assert report.ber == 0.0 and report.fer == 0.0

    def test_zero_errors_still_have_an_interval(self):
        # Wilson at zero errors: [0, z^2/(N + z^2)], half-width z^2/(2(N + z^2))
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=1e-24)
        report = run_reliability(
            CodeParams(7, 2, 2), make_ecc("hamming74", 4), params, 2000, 5
        )
        assert report.bit_errors == 0 and report.frame_errors == 0
        z2 = _Z95 * _Z95
        assert report.fer_ci95 > 0.0 and report.ber_ci95 > 0.0
        assert report.fer_ci95 == pytest.approx(z2 / (2.0 * (2000 + z2)), rel=1e-12)
        assert report.ber_ci95 == pytest.approx(z2 / (2.0 * (4000 + z2)), rel=1e-12)

    def test_wilson_half_width_hand_computed(self):
        # 10 errors in 100 trials: the Wilson 95% interval is [0.05523, 0.17437]
        assert _half_width(0.1, 100) == pytest.approx(0.0595682622221192, rel=1e-12)
        centre = (0.1 + _Z95**2 / 200.0) / (1.0 + _Z95**2 / 100.0)
        assert centre - _half_width(0.1, 100) == pytest.approx(0.05523, abs=1e-5)
        assert centre + _half_width(0.1, 100) == pytest.approx(0.17437, abs=1e-5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**9), st.data())
    def test_single_bit_frames_have_no_design_effect(self, trials, data):
        # k = 1: every e_f is 0 or 1, so sum e_f^2 = sum e_f and deff = 1 exactly
        bit_errors = data.draw(st.integers(0, trials))
        assert _design_effect(bit_errors, bit_errors, trials, 1) == 1.0

    def test_single_bit_run_keeps_the_bitwise_interval(self):
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=0.5)
        report = run_reliability(
            CodeParams(3, 1, 0), make_ecc("rep3", 1), params, 5000, 7, block_size=512
        )
        assert report.bit_errors > 0
        assert report.ber_ci95 == _half_width(report.ber, 5000)

    def test_clustered_errors_widen_the_ber_interval(self):
        # 5 of 100 frames lose all 10 bits: deff = 10, so N_eff = 100
        assert _design_effect(50, 5 * 10**2, 100, 10) == pytest.approx(10.0, rel=1e-15)
        # 50 frames with one error each spread as evenly as independent bits allow
        assert _design_effect(50, 50, 100, 10) == 1.0
        # the hash unmixing turns one decoding error into several message-bit errors
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=0.2)
        report = run_reliability(
            CodeParams(16, 8, 8), make_ecc("identity", 16), params, 4000, 3
        )
        assert report.bit_errors > 2 * report.frame_errors > 0
        bitwise = _half_width(report.ber, 4000 * 8)
        assert report.ber_ci95 > 1.5 * bitwise

    def test_uncoded_ber_matches_gaussian_tail(self):
        # k = 1, no sacrifice bits, identity ECC: ber = Q(e0 / sqrt(n0))
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=0.5)
        trials = 200_000
        report = run_reliability(
            CodeParams(1, 1, 0), make_ecc("identity", 1), params, trials, 11
        )
        p = norm.sf(math.sqrt(2.0))
        sigma = math.sqrt(p * (1.0 - p) / trials)
        assert abs(report.ber - p) < 4.0 * sigma
        assert report.fer == report.ber  # single-bit frames

    def test_repetition_beats_uncoded(self):
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=0.5)
        plain = run_reliability(
            CodeParams(1, 1, 0), make_ecc("identity", 1), params, 20_000, 13
        )
        coded = run_reliability(
            CodeParams(3, 1, 0), make_ecc("rep3", 1), params, 20_000, 13
        )
        assert coded.ber + coded.ber_ci95 < plain.ber - plain.ber_ci95

    def test_ber_nondecreasing_in_noise(self):
        rates = []
        for n0 in (0.25, 0.5, 1.0):
            params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=n0)
            rates.append(
                run_reliability(
                    CodeParams(1, 1, 0), make_ecc("identity", 1), params, 40_000, 17
                ).ber
            )
        assert rates[0] < rates[1] < rates[2]

    def test_worker_count_does_not_change_result(self):
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=0.8)
        kwargs = dict(trials=4096, master_seed=42, block_size=512)
        ecc = make_ecc("hamming74", 4)
        serial = run_reliability(CodeParams(7, 2, 2), ecc, params, workers=1, **kwargs)
        pooled = run_reliability(CodeParams(7, 2, 2), ecc, params, workers=4, **kwargs)
        assert serial == pooled

    def test_same_seed_reproduces(self):
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=0.8)
        a = run_reliability(CodeParams(3, 1, 0), make_ecc("rep3", 1), params, 5000, 3)
        b = run_reliability(CodeParams(3, 1, 0), make_ecc("rep3", 1), params, 5000, 3)
        assert a == b

    def test_fixed_hash_seed(self):
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=1e-24)
        report = run_reliability(
            CodeParams(4, 2, 2),
            make_ecc("identity", 4),
            params,
            500,
            9,
            hash_seed=[1, 0, 1],
        )
        assert report.frame_errors == 0
        with pytest.raises(ValueError):
            run_reliability(
                CodeParams(4, 2, 2),
                make_ecc("identity", 4),
                params,
                10,
                9,
                hash_seed=[1, 0],
            )

    def test_frame_errors_dominate_bit_errors(self):
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=1.5)
        report = run_reliability(
            CodeParams(4, 2, 2), make_ecc("identity", 4), params, 5000, 21
        )
        assert 0 < report.ber <= report.fer <= 1.0
        assert report.bit_errors <= 2 * report.frame_errors
        assert report.ber_ci95 > 0.0 and report.fer_ci95 > 0.0

    def test_per_frame_fallback_matches_batch_decode(self):
        # a plug-in that falls back to decoding frame by frame gives the
        # batch decoder's counts: the block hands it independent rows
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=1.0)
        code = CodeParams(4, 2, 2)
        batch = run_reliability(code, make_ecc("identity", 4), params, 300, 5)
        per_frame = run_reliability(code, _PerFrameIdentity(4), params, 300, 5)
        assert batch.frame_errors > 0
        assert per_frame == batch
        assert per_frame.decode_failures == 0

    def test_failed_frames_count_as_errors(self):
        # noise-free, so only the frames the decoder gets wrong are errors,
        # each with both of its garbled message bits
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=1e-24)
        ecc = _PerFrameIdentity(4, bad_frames=(0, 3, 7), garbled_bits=2)
        report = run_reliability(CodeParams(4, 2, 2), ecc, params, 20, 5)
        assert report.decode_failures == 0
        assert report.frame_errors == 3
        assert report.bit_errors == 3 * 2

    def test_decode_failure_propagates(self):
        class Rejecting(IdentityCode):
            def decode_bits(self, bits):
                raise DecodeFailure("rejected")

        with pytest.raises(DecodeFailure, match="rejected"):
            run_reliability(CodeParams(4, 2, 2), Rejecting(4), P_MAIN, 20, 5)

    def test_as_dict_round_trip(self):
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=1.0)
        report = run_reliability(
            CodeParams(1, 1, 0), make_ecc("identity", 1), params, 1000, 1
        )
        d = asdict(report)
        assert d["trials"] == 1000
        assert d["bit_errors"] == report.bit_errors
        assert d["ber"] == report.ber

    def test_validation(self):
        ecc = make_ecc("identity", 2)
        with pytest.raises(ValueError):
            run_reliability(CodeParams(2, 1, 1), ecc, P_MAIN, 0, 1)
        with pytest.raises(ValueError):
            run_reliability(CodeParams(2, 1, 1), ecc, P_MAIN, 10, 1, workers=0)
        with pytest.raises(ValueError):
            run_reliability(CodeParams(3, 1, 1), make_ecc("identity", 3), P_MAIN, 10, 1)
        with pytest.raises(ValueError):
            run_reliability(CodeParams(3, 1, 1), ecc, P_MAIN, 10, 1)
        for block_size in (0, -1):
            with pytest.raises(ValueError, match="block_size"):
                run_reliability(CodeParams(2, 1, 1), ecc, P_MAIN, 10, 1, block_size=block_size)

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("trials", dict(trials=10.5)),
            ("trials", dict(trials=float("nan"))),
            ("trials", dict(trials="10")),
            ("block_size", dict(block_size=2.5)),
            ("block_size", dict(block_size=float("nan"))),
            ("workers", dict(workers=1.5)),
            ("workers", dict(workers=True)),
            ("master_seed", dict(master_seed=-1)),
            ("master_seed", dict(master_seed=1.0)),
        ],
    )
    def test_bad_counts_name_their_field(self, field, overrides):
        args = dict(trials=10, master_seed=1)
        args.update(overrides)
        with pytest.raises(ValueError, match=field):
            run_reliability(CodeParams(2, 1, 1), make_ecc("identity", 2), P_MAIN, **args)

    def test_no_message_bits_rejected(self):
        # k = 0 leaves no bit to count errors on
        with pytest.raises(ValueError, match="k must be"):
            run_reliability(CodeParams(2, 0, 2), make_ecc("identity", 2), P_MAIN, 10, 1)

    def test_bad_hash_seed_names_its_field(self):
        ecc = make_ecc("identity", 4)
        for seed in ([1, 0], [1, 0, 2], [[1, 0, 1]]):
            with pytest.raises(ValueError, match="hash_seed"):
                run_reliability(CodeParams(4, 2, 2), ecc, P_MAIN, 10, 1, hash_seed=seed)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_every_block_runs_once_with_its_count(self, monkeypatch, workers):
        calls = []
        lock = threading.Lock()

        def block(index, count, *rest):
            with lock:
                calls.append((index, count, threading.get_ident()))
            return (index, count, index * count)

        monkeypatch.setattr(sim, "_reliability_block", block)
        report = run_reliability(
            CodeParams(2, 1, 1), make_ecc("identity", 2), P_MAIN, 10, 1,
            block_size=3, workers=workers,
        )
        assert sorted(c[:2] for c in calls) == [(0, 3), (1, 3), (2, 3), (3, 1)]
        assert report.bit_errors == 6 and report.frame_errors == 10
        # at most one worker per block, never more than asked for
        assert len({c[2] for c in calls}) <= min(workers, 4)

    @pytest.mark.parametrize("cores, most", [(2, 2), (None, 1)])
    def test_threads_stop_at_the_core_count(self, monkeypatch, cores, most):
        # the report is the same for any worker count, so threads past the cores buy nothing
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cores)
        ids = set()
        lock = threading.Lock()

        def block(*args):
            with lock:
                ids.add(threading.get_ident())
            time.sleep(0.005)  # busy, so an uncapped pool would start a thread per job
            return (0, 0, 0)

        monkeypatch.setattr(sim, "_reliability_block", block)
        report = run_reliability(
            CodeParams(2, 1, 1), make_ecc("identity", 2), P_MAIN, 8, 1,
            block_size=1, workers=5,
        )
        assert report.trials == 8
        assert 1 <= len(ids) <= most

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_stream_in_constant_memory(self, monkeypatch, workers):
        # 50,000 one-frame blocks: no block list and no future per block
        monkeypatch.setattr(sim, "_reliability_block", lambda *args: (0, 0, 0))
        tracemalloc.start()
        try:
            report = run_reliability(
                CodeParams(2, 1, 1), make_ecc("identity", 2), P_MAIN, 50_000, 1,
                block_size=1, workers=workers,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trials == 50_000 and report.bit_errors == 0
        assert peak < 1 << 20, f"traced peak {peak / 2**20:.2f} MiB"


    def test_one_block_does_not_hold_its_normals(self):
        # rep3 (3000, 900, 100), 512 frames: the whole block's normals would be 12 MB
        code = CodeParams(3000, 900, 100)
        ecc = make_ecc("rep3", 1000)
        tracemalloc.start()
        try:
            _reliability_block(0, 512, code, ecc, P_MAIN, 1, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 3000 * 8 // 2, f"traced peak {peak / 2**20:.2f} MiB"


class TestUniformBits:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**63),
        st.integers(0, 9),
        st.integers(0, 40),
        st.integers(0, 130),
    )
    def test_same_bits_and_state_as_bounded_draws(self, seed, prior, rows, width):
        # a prior odd-sized byte draw leaves PCG64 holding half a uint64
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (ours, numpys):
            rng.integers(0, 2, size=prior, dtype=np.uint8)
        got = _uniform_bits(ours, rows, width)
        want = numpys.integers(0, 2, size=(rows, width), dtype=np.uint8)
        assert got.dtype == np.uint8 and got.shape == (rows, width)
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == numpys.bit_generator.state
        assert ours.integers(0, 1 << 32, dtype=np.uint32) == numpys.integers(
            0, 1 << 32, dtype=np.uint32
        )
        assert ours.standard_normal() == numpys.standard_normal()


def _bits_of(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


class TestBitDomainIdentity:
    """Exact reports of the float-domain loop, recorded before the loop moved
    to decision bits and packed words; every count and rate must still match.

    Each case: (ecc, n, k, k', e0, trials, master_seed, run_reliability
    keywords, (bit_errors, frame_errors, ber, fer, ber_ci95, fer_ci95)), all at
    gamma_g = 0.3, gamma_n = 2, n0 = 1. They cover every ECC, hash inputs of
    one word (k+k' <= 64, incl. exactly 64 with k = 64 and k = 1) and of two
    (65, 66, 100), k' = 0, k = 1, a pinned hash seed, two workers and short
    last blocks.
    """

    CASES = [
        ("identity", 64, 48, 16, 2.5, 3000, 11, dict(block_size=1024),
         (7665, 949, 0.05322916666666667, 0.31633333333333336, 0.00532340290269136, 0.016632118878892422)),
        ("rep3", 30, 6, 4, 1.2, 4000, 12, {},
         (2404, 1242, 0.10016666666666667, 0.3105, 0.005817556993979906, 0.014333179359270394)),
        ("hamming74", 7, 2, 2, 1.5, 5000, 13, {},
         (373, 305, 0.0373, 0.061, 0.004304795977000727, 0.006639787870789977)),
        ("rep3", 300, 80, 20, 2.0, 500, 14, dict(block_size=128),
         (641, 70, 0.016025, 0.14, 0.007511503006700115, 0.030422102378295235)),
        ("identity", 8, 8, 0, 2.0, 3000, 15, {},
         (544, 497, 0.02266666666666667, 0.16566666666666666, 0.001901542487025094, 0.013302136779783822)),
        ("identity", 5, 1, 4, 1.5, 3000, 16, {},
         (530, 530, 0.17666666666666667, 0.17666666666666667, 0.013645022149126626, 0.013645022149126626)),
        ("rep3", 3, 1, 0, 0.8, 2000, 17, {},
         (221, 221, 0.1105, 0.1105, 0.013747132204327502, 0.013747132204327502)),
        ("identity", 65, 40, 25, 2.5, 2000, 18, dict(block_size=700),
         (6026, 651, 0.075325, 0.3255, 0.007653490997464006, 0.02051826401394648)),
        ("identity", 66, 40, 26, 2.5, 2000, 19, dict(block_size=700),
         (6341, 667, 0.0792625, 0.3335, 0.00789900434332941, 0.020645068116563556)),
        ("identity", 20, 12, 8, 1.8, 3000, 20, dict(hash_seed="1011001110001011101"),
         (6063, 1604, 0.16841666666666666, 0.5346666666666666, 0.008071867279956551, 0.017837523785677295)),
        ("identity", 64, 48, 16, 2.5, 5000, 21, dict(block_size=1000, workers=2),
         (11834, 1618, 0.049308333333333336, 0.3236, 0.0039001530426332957, 0.012963613494503213)),
        ("identity", 64, 64, 0, 3.0, 3000, 1, {},
         (231, 225, 0.001203125, 0.075, 0.00015537628559785324, 0.009434804407590326)),
        ("identity", 64, 1, 63, 3.0, 3000, 1, {},
         (95, 95, 0.03166666666666667, 0.03166666666666667, 0.006290722482593809, 0.006290722482593809)),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}_{c[1]}_{c[2]}_{c[3]}_s{c[6]}")
    def test_report_is_bit_identical(self, case):
        self._check(case)

    # one frame per tile (the tile smaller than a frame, or just larger),
    # and two frames per tile with a short last tile at odd counts
    @pytest.mark.parametrize("tile", ["1", "n+1", "3n-1"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}_{c[1]}_{c[2]}_{c[3]}_s{c[6]}")
    def test_report_is_bit_identical_in_small_tiles(self, monkeypatch, case, tile):
        n = case[1]
        monkeypatch.setattr(sim, "_TILE_DOUBLES", {"1": 1, "n+1": n + 1, "3n-1": 3 * n - 1}[tile])
        self._check(case, workers=2)

    def _check(self, case, **overrides):
        ecc, n, k, kp, e0, trials, seed, keywords, counts = case
        keywords = dict(keywords, **overrides)
        if "hash_seed" in keywords:
            keywords["hash_seed"] = _bits_of(keywords["hash_seed"])
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, e0=e0)
        report = run_reliability(
            CodeParams(n, k, kp), make_ecc(ecc, k + kp), params, trials, seed, **keywords
        )
        bit_errors, frame_errors, ber, fer, ber_ci95, fer_ci95 = counts
        assert report == ReliabilityReport(
            trials, k, bit_errors, frame_errors, 0, ber, fer, ber_ci95, fer_ci95
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
        st.lists(
            st.tuples(
                st.integers(0, 1),
                st.one_of(
                    st.sampled_from(["+a", "-a", "0", "-0"]),
                    st.floats(-20.0, 20.0),
                ),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_threshold_decisions_equal_hard_decision_of_the_sum(self, amplitude, cells):
        named = {"+a": amplitude, "-a": -amplitude, "0": 0.0, "-0": -0.0}
        codeword = np.array([c for c, _ in cells], dtype=np.uint8)
        noise = np.array([named.get(w, w) for _, w in cells], dtype=float)
        expected = hard_decision(amplitude * bits_to_bpsk(codeword) + noise)
        received = _hard_decisions(noise, amplitude, codeword)
        assert received.dtype == np.uint8
        assert np.array_equal(received, expected)


class TestEveQuantizer:
    def test_rows_are_distributions(self):
        q = EveQuantizer(8)
        for symbol in (+1.0, -1.0):
            probs = q.level_probs(symbol, P_MAIN)
            assert probs.shape == (8,)
            assert (probs >= 0).all()
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_edges_mirror(self):
        q = EveQuantizer(6)
        plus = q.level_probs(+1.0, P_MAIN)
        minus = q.level_probs(-1.0, P_MAIN)
        assert np.allclose(plus[::-1], minus, atol=1e-14)

    def test_far_tail_bins_keep_their_precision(self):
        params = WiretapChannelParams(gamma_g=2.0, gamma_n=0.01)
        q = EveQuantizer(4)
        plus = q.level_probs(+1.0, params)
        # uniform edges over +-(eve_amplitude + 4 sigma), mirrored about 0
        sigma = math.sqrt(params.eve_noise_var)
        span = params.eve_amplitude + 4.0 * sigma
        edges = np.linspace(-span, span, 5)[1:-1]
        z = [(e - params.eve_amplitude) / sigma for e in 0.5 * (edges - edges[::-1])]
        # the three bins below the mean, from scipy's lower tail
        lower = [norm.cdf(b) - norm.cdf(a) for a, b in zip([-np.inf] + z, z)]
        np.testing.assert_allclose(plus[:3], lower, rtol=1e-12)
        assert plus[0] == pytest.approx(5.45208e-225, rel=1e-5)
        np.testing.assert_array_equal(q.level_probs(-1.0, params), plus[::-1])

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e2), st.floats(1e-3, 1e2), st.integers(2, 69))
    def test_minus_row_is_the_plus_row_reversed_bit_for_bit(self, gg, gn, levels):
        # exact_leakage builds its -1 row this way
        params = WiretapChannelParams(gamma_g=gg, gamma_n=gn)
        q = EveQuantizer(levels)
        plus, minus = q.level_probs(+1.0, params), q.level_probs(-1.0, params)
        assert plus[::-1].tobytes() == minus.tobytes()

    @pytest.mark.parametrize("levels", [2, 3, 8, 1001])
    @pytest.mark.parametrize(
        "params",
        [
            P_MAIN,
            WiretapChannelParams(gamma_g=0.0, gamma_n=1.0),
            WiretapChannelParams(gamma_g=2.0, gamma_n=0.01),
        ],
        ids=["main", "blind", "clear"],
    )
    def test_vectorized_row_equals_the_per_bin_loop(self, levels, params):
        # the row as a loop over bins once computed it, one branch per bin
        sigma = math.sqrt(params.eve_noise_var)
        span = params.eve_amplitude + 4.0 * sigma
        edges = np.linspace(-span, span, levels + 1)[1:-1]
        for symbol in (+1.0, -1.0):
            mean = params.eve_amplitude * symbol
            z = [(edge - mean) / sigma for edge in (0.5 * (edges - edges[::-1])).tolist()]
            below = [0.0] + [ndtr(x) for x in z]
            above = [ndtr(-x) for x in z] + [0.0]
            loop = np.empty(levels)
            for j in range(levels):
                if j > 0 and z[j - 1] >= 0.0:
                    loop[j] = above[j - 1] - above[j]
                elif j < levels - 1 and z[j] <= 0.0:
                    loop[j] = below[j + 1] - below[j]
                else:
                    loop[j] = 1.0 - (below[j] + above[j])
            row = EveQuantizer(levels).level_probs(symbol, params)
            assert row.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("symbol", [0.5, math.nan, 2.0, 0.0, -2])
    def test_rejects_a_symbol_bpsk_never_sends(self, symbol):
        with pytest.raises(ValueError, match="BPSK symbol must be"):
            EveQuantizer(4).level_probs(symbol, P_MAIN)

    @pytest.mark.parametrize("symbol", [+1.0, 1, -1.0, -1])
    def test_bpsk_symbols_keep_their_rows(self, symbol):
        row = [
            "0x1.4edd8892c4b5cp-7", "0x1.9f8582552207fp-2",
            "0x1.1c19601c04ee7p-1", "0x1.dd0d12e3df581p-6",
        ]
        want = row if symbol > 0 else row[::-1]
        assert [x.hex() for x in EveQuantizer(4).level_probs(symbol, P_MAIN).tolist()] == want

    def test_levels_property(self):
        assert EveQuantizer(2).levels == 2
        assert EveQuantizer().levels == 8

    def test_validation(self):
        with pytest.raises(ValueError, match="levels must be >= 2, got 1"):
            EveQuantizer(1)
        with pytest.raises(ValueError, match="levels"):
            EveQuantizer(2.5)


class TestExactLeakage:
    def test_blind_eavesdropper_leaks_nothing(self):
        params = WiretapChannelParams(gamma_g=0.0, gamma_n=1.0)
        report = exact_leakage(CodeParams(2, 1, 1), make_ecc("identity", 2), EveQuantizer(), params)
        assert report.exact_leak_bits == 0.0
        assert all(leak == 0.0 for _, leak in report.per_seed)

    def test_single_bit_matches_direct_computation(self):
        # n = k = 1, k' = 0: leakage is exactly I(X; Z_quantized)
        q = EveQuantizer(8)
        report = exact_leakage(CodeParams(1, 1, 0), make_ecc("identity", 1), q, P_MAIN)
        cond = np.stack([q.level_probs(+1.0, P_MAIN), q.level_probs(-1.0, P_MAIN)])
        marginal = cond.mean(axis=0)
        direct = float(
            np.sum(np.where(cond > 0, cond * (np.log2(cond) - np.log2(marginal)), 0.0))
            / 2.0
        )
        assert report.exact_leak_bits == pytest.approx(direct, abs=1e-13)

    def test_quantized_leakage_below_channel_mi(self):
        # data processing: quantizing Eve's output cannot increase leakage
        report = exact_leakage(CodeParams(1, 1, 0), make_ecc("identity", 1), EveQuantizer(), P_MAIN)
        ch_mi = mi_biawgn(P_MAIN.eve_amplitude, P_MAIN.eve_noise_var)
        assert report.exact_leak_bits <= ch_mi + 1e-12

    def test_bound_holds_and_sacrifice_helps(self):
        leaks = []
        for kp in range(4):
            code = CodeParams(1 + kp, 1, kp)
            report = exact_leakage(code, make_ecc("identity", 1 + kp), EveQuantizer(), P_MAIN)
            assert report.exact_leak_bits <= report.bound_bits
            leaks.append(report.exact_leak_bits)
        assert all(b <= a + 1e-12 for a, b in zip(leaks, leaks[1:]))

    # each chain doubles Eve's level count, and the uniform bins of L levels
    # are unions of those of 2L, so the coarser output is a function of the
    # finer one; the odd chain crosses k' = 0 with four seeds, the rep3 one
    # paired blocks at 128 levels
    @pytest.mark.parametrize(
        "code, ecc_name, level_counts",
        [
            (CodeParams(2, 1, 1), "identity", [2 << i for i in range(10)]),
            (CodeParams(3, 1, 0), "rep3", [2 << i for i in range(7)]),
            (CodeParams(4, 1, 3), "identity", [2, 4, 8, 16]),
            (CodeParams(3, 3, 0), "identity", [3, 6, 12, 24, 48]),
            (CodeParams(7, 2, 2), "hamming74", [2, 4]),
        ],
    )
    def test_leakage_does_not_fall_as_levels_double(self, code, ecc_name, level_counts):
        # data processing: merging Eve's levels cannot increase the leakage
        params = WiretapChannelParams(gamma_g=0.8, gamma_n=0.7)
        ecc = make_ecc(ecc_name, code.k + code.k_prime)
        leaks = [exact_leakage(code, ecc, EveQuantizer(L), params).exact_leak_bits for L in level_counts]
        assert all(fine >= coarse - 1e-12 for coarse, fine in zip(leaks, leaks[1:])), leaks

    def test_per_seed_enumeration(self):
        report = exact_leakage(CodeParams(3, 2, 1), make_ecc("identity", 3), EveQuantizer(), P_MAIN)
        assert len(report.per_seed) == 4  # 2^(k+k'-1) seeds
        assert report.exact_leak_bits == pytest.approx(
            sum(leak for _, leak in report.per_seed) / 4.0, abs=1e-15
        )
        assert [s for s, _ in report.per_seed] == ["00", "40", "80", "c0"]

    def test_ecc_spreading_reduces_leakage(self):
        plain = exact_leakage(CodeParams(1, 1, 0), make_ecc("identity", 1), EveQuantizer(), P_MAIN)
        spread = exact_leakage(CodeParams(3, 1, 0), make_ecc("rep3", 1), EveQuantizer(), P_MAIN)
        # repetition makes Eve's job easier, not harder
        assert spread.exact_leak_bits >= plain.exact_leak_bits

    @settings(max_examples=60, deadline=None)
    @given(_oracle_instances())
    def test_tree_sweep_matches_per_seed_gather(self, instance):
        _assert_matches_gather(*instance)

    def test_no_sacrifice_bits_every_seed_equal(self):
        # k' = 0: the tree has no levels and the hash ignores the seed
        q = EveQuantizer(4)
        report = _assert_matches_gather(CodeParams(3, 3, 0), make_ecc("identity", 3), q, P_MAIN)
        assert [h for h, _ in report.per_seed] == ["00", "40", "80", "c0"]
        assert len({leak for _, leak in report.per_seed}) == 1

    def test_one_sacrifice_bit(self):
        # k' = 1: one level whose column c_0 is the whole seed
        params = WiretapChannelParams(gamma_g=0.8, gamma_n=0.7)
        q = EveQuantizer(3)
        _assert_matches_gather(CodeParams(3, 2, 1), make_ecc("identity", 3), q, params)
        _assert_matches_gather(CodeParams(6, 1, 1), make_ecc("rep3", 2), q, params)

    # hamming74 (7,2,2) at 3 levels: ECC(u, 0) moves positions 0-4, never 5
    # or 6. A root (2^k' = 4 rows) of 4 * 3^6 cells spans the moved positions
    # and position 6 (3 blocks), one of 4 * 3^5 the moved ones only (9). Below
    # that a block also fixes the leading moved positions to a mirrored pair
    # of levels, {0, 2} or {1, 1}, each: one (18 blocks), two (36), or all but
    # the last (9 * 2^4 = 144) at a cap of one cell
    @pytest.mark.parametrize(
        "cap, count",
        [
            (1, 144),
            (4 * 2 * 3**4 - 1, 36),
            (4 * 3**5 - 1, 18),
            (4 * 3**5, 9),
            (4 * 3**6 - 1, 9),
            (4 * 3**6, 3),
            (4 * 3**7, 1),
        ],
    )
    def test_output_blocks_match_whole_table(self, monkeypatch, cap, count):
        # the sweep's output blocks must not change the result
        params = WiretapChannelParams(gamma_g=0.6, gamma_n=1.1)
        q = EveQuantizer(3)
        args = (CodeParams(7, 2, 2), make_ecc("hamming74", 4), q, params)
        monkeypatch.setattr(sim, "_SWEEP_ROOT_CELLS", 1 << 30)
        whole = exact_leakage(*args)
        calls = []
        kl_rows = sim._kl_rows  # runs once per root column of a block, 2^k times
        monkeypatch.setattr(sim, "_kl_rows", lambda *a: calls.append(1) or kl_rows(*a))
        monkeypatch.setattr(sim, "_SWEEP_ROOT_CELLS", cap)
        blocked = exact_leakage(*args)
        assert len(calls) == 4 * count
        for (h1, a), (h2, b) in zip(whole.per_seed, blocked.per_seed):
            assert h1 == h2 and a == pytest.approx(b, rel=0.0, abs=1e-13)

    @pytest.mark.parametrize(
        "code, ecc_name, levels",
        [
            (CodeParams(7, 4, 0), "hamming74", 3),  # every position moves
            (CodeParams(7, 3, 1), "hamming74", 3),  # all but position 6 move
            (CodeParams(6, 2, 0), "rep3", 4),  # every position moves
            (CodeParams(3, 3, 0), "identity", 4),  # every position moves
            (CodeParams(6, 1, 1), "rep3", 4),  # the sacrifice's three positions stay
            (CodeParams(6, 1, 1), "rep3", 5),
            (CodeParams(7, 4, 0), "hamming74", 2),  # a pair would be the whole axis
        ],
    )
    def test_moved_positions_match_gather(self, monkeypatch, code, ecc_name, levels):
        # with the cap at one cell a block fixes every unmoved position to one
        # level and all moved ones but the last to a mirrored pair of levels
        params = WiretapChannelParams(gamma_g=0.7, gamma_n=0.9)
        args = (code, make_ecc(ecc_name, code.k + code.k_prime), EveQuantizer(levels), params)
        _assert_matches_gather(*args)
        monkeypatch.setattr(sim, "_SWEEP_ROOT_CELLS", 1)
        _assert_matches_gather(*args)

    def test_a_code_that_drops_the_message_leaks_exactly_nothing(self, monkeypatch):
        # k = 1 and ECC(u, 0) = 0: no position moves, yet each block still
        # spans one position (4 blocks of 2 cells, not 8 of 1)
        args = (CodeParams(3, 1, 2), _DropFirstBit(3), EveQuantizer(2), P_MAIN)
        calls = []
        kl_rows = sim._kl_rows  # 2^k = 2 root columns per block
        monkeypatch.setattr(sim, "_kl_rows", lambda *a: calls.append(1) or kl_rows(*a))
        monkeypatch.setattr(sim, "_SWEEP_ROOT_CELLS", 1)
        report = exact_leakage(*args)
        assert len(calls) == 2 * 4
        assert report.exact_leak_bits == 0.0
        assert all(leak == 0.0 for _, leak in report.per_seed)

    # (10,3,7) identity at 2 levels, the largest benchmark instance: the whole
    # output table alone is 8 MiB, and the sweep's buffers and the bound
    # peaked at 2.47 MiB traced. rep3 (3,1,0) at 128 levels: every position
    # moves and the zero message's table alone is 16 MiB; blocks of 2 * 128^2
    # cells, one level pair of position 0 each, peaked at 1.53 MiB
    @pytest.mark.parametrize(
        "code, ecc_name, levels, mib",
        [(CodeParams(10, 3, 7), "identity", 2, 3), (CodeParams(3, 1, 0), "rep3", 128, 2)],
    )
    def test_traced_peak_stays_small(self, code, ecc_name, levels, mib):
        params = WiretapChannelParams(gamma_g=0.35, gamma_n=1.2)
        args = (code, make_ecc(ecc_name, code.k + code.k_prime), EveQuantizer(levels), params)
        tracemalloc.start()
        try:
            exact_leakage(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib << 20, f"traced peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("shape", [(3, 4, 2), (2, 3, 5), (2, 1, 1000), (2, 2, 40), (1, 0, 3)])
    def test_outer_rows_is_each_rows_outer_product(self, shape):
        # the first position taken as is, every cell is the same product
        factors = np.random.default_rng(5).random(shape)
        out = _outer_rows(factors)
        for w in range(shape[0]):
            want = np.ones(1)
            for i in range(shape[1]):
                want = np.multiply.outer(want, factors[w, i]).ravel()
            assert out[w].tobytes() == want.tobytes()

    @pytest.mark.parametrize("ecc_name", ["identity", "rep3", "hamming74"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_every_coset_row_leaks_as_row_zero(self, ecc_name, data):
        # the identity the sweep rests on: I_S(M; Z) = D(P_S(. | m) || P) for
        # every m, with P the average over every raw input, whatever the seed
        code, ecc, quantizer, params = data.draw(_oracle_instances(ecc_name))
        table, per_seed = _gather_tables(code, ecc, quantizer, params)
        marginal = table.mean(axis=0)
        for _, cond in per_seed:
            np.testing.assert_allclose(cond.mean(axis=0), marginal, rtol=1e-12, atol=0.0)
            divergences = [_kl_bits(row, marginal) for row in cond]
            assert max(divergences) - min(divergences) <= 1e-12
            assert _discrete_mi_bits(cond) == pytest.approx(divergences[0], rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("ecc", [_AndCode(3), _ComplementCode(3)], ids=lambda e: e.name)
    def test_nonlinear_ecc_rejected(self, ecc):
        with pytest.raises(ValueError, match=f"ECC '{ecc.name}' is not F2-linear"):
            exact_leakage(CodeParams(3, 2, 1), ecc, EveQuantizer(), P_MAIN)

    def test_zero_probability_cells_contribute_nothing(self):
        # a very clear Eve makes some quantizer bins underflow to exactly 0
        params = WiretapChannelParams(gamma_g=3.0, gamma_n=0.01)
        q = EveQuantizer(4)
        rows = np.stack([q.level_probs(s, params) for s in (+1.0, -1.0)])
        assert (rows == 0.0).any()
        report = _assert_matches_gather(CodeParams(4, 2, 2), make_ecc("identity", 4), q, params)
        assert all(math.isfinite(leak) for _, leak in report.per_seed)

    def test_feasibility_caps(self):
        with pytest.raises(ValueError):
            exact_leakage(CodeParams(11, 6, 5), make_ecc("identity", 11), EveQuantizer(), P_MAIN)
        with pytest.raises(ValueError):
            exact_leakage(CodeParams(13, 5, 5), make_ecc("identity", 10), EveQuantizer(), P_MAIN)
        big = EveQuantizer(16)
        with pytest.raises(ValueError):
            exact_leakage(CodeParams(6, 3, 3), make_ecc("identity", 6), big, P_MAIN)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_leakage(CodeParams(2, 1, 1), make_ecc("identity", 3), EveQuantizer(), P_MAIN)
        with pytest.raises(ValueError):
            exact_leakage(CodeParams(3, 1, 1), make_ecc("identity", 2), EveQuantizer(), P_MAIN)


@pytest.mark.parametrize(
    "code, ecc, message",
    [
        # k = 0: no message bit for the hash to keep or for an error count
        (CodeParams(4, 0, 4), make_ecc("identity", 4), "k must be >= 1"),
        (CodeParams(3, 0, 1), make_ecc("rep3", 1), "k must be >= 1"),
        (CodeParams(2, 1, 1), make_ecc("identity", 3), r"ECC message length 3 != k\+k' = 2"),
        (CodeParams(3, 1, 1), make_ecc("identity", 2), "ECC block length 2 != n = 3"),
    ],
)
def test_both_runners_share_one_frame_check(code, ecc, message):
    with pytest.raises(ValueError, match=message):
        run_reliability(code, ecc, P_MAIN, 10, 1)
    with pytest.raises(ValueError, match=message):
        exact_leakage(code, ecc, EveQuantizer(), P_MAIN)


class TestMcMutualInfo:
    def test_zero_amplitude_is_exactly_zero(self):
        est = mc_mutual_info(0.0, 1.0, 10_000, 1)
        assert est.bits == 0.0
        assert est.stderr == 0.0

    def test_agrees_with_quadrature(self):
        est = mc_mutual_info(1.0, 1.0, 400_000, 77)
        ref = mi_biawgn(1.0, 1.0)
        assert abs(est.bits - ref) < 4.0 * est.stderr

    def test_reproducible(self):
        a = mc_mutual_info(0.7, 1.3, 20_000, 5)
        b = mc_mutual_info(0.7, 1.3, 20_000, 5)
        assert a == b
        assert a.samples == 20_000

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_mutual_info(1.0, 1.0, 9_999, 1)
        with pytest.raises(ValueError):
            mc_mutual_info(1.0, 0.0, 10_000, 1)
        with pytest.raises(ValueError):
            mc_mutual_info(-1.0, 1.0, 10_000, 1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="amplitude"):
                mc_mutual_info(bad, 1.0, 10_000, 1)
            with pytest.raises(ValueError, match="noise_var"):
                mc_mutual_info(1.0, bad, 10_000, 1)
        with pytest.raises(ValueError, match="samples"):
            mc_mutual_info(1.0, 1.0, 10_000.5, 1)
        with pytest.raises(ValueError, match="master_seed"):
            mc_mutual_info(1.0, 1.0, 10_000, -1)
