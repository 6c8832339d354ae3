import math

import numpy as np
import pytest
from scipy.stats import norm

from satwiretap.capacity import mi_biawgn
from satwiretap.channel import WiretapChannelParams
from satwiretap.code import DecodeFailure, IdentityCode, make_ecc
from satwiretap.leakage import CodeParams
from satwiretap.sim import (
    EveQuantizer,
    exact_leakage,
    make_eve_quantizer,
    mc_mutual_info,
    run_reliability,
)

P_MAIN = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0)


class _FlakyIdentity(IdentityCode):
    """Identity code whose decoder rejects every batch and the chosen frames."""

    def __init__(self, message_length, bad_frames=()):
        super().__init__(message_length)
        self.bad_frames = set(bad_frames)
        self.frame = 0

    def decode(self, y):
        y = np.asarray(y, dtype=float)
        if y.ndim > 1:
            raise DecodeFailure("batch rejected")
        frame, self.frame = self.frame, self.frame + 1
        if frame in self.bad_frames:
            raise DecodeFailure(f"frame {frame} rejected")
        return super().decode(y)


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
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=1.0)
        code = CodeParams(4, 2, 2)
        batch = run_reliability(code, make_ecc("identity", 4), params, 300, 5)
        fallback = run_reliability(code, _FlakyIdentity(4), params, 300, 5)
        assert batch.frame_errors > 0
        assert fallback == batch
        assert fallback.decode_failures == 0

    def test_failed_frames_count_as_errors(self):
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=1e-24)
        ecc = _FlakyIdentity(4, bad_frames=(0, 3, 7))
        report = run_reliability(CodeParams(4, 2, 2), ecc, params, 20, 5)
        assert report.decode_failures == 3
        assert report.frame_errors == 3
        assert report.bit_errors == 3 * 2

    def test_as_dict_round_trip(self):
        params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=1.0)
        report = run_reliability(
            CodeParams(1, 1, 0), make_ecc("identity", 1), params, 1000, 1
        )
        d = report.as_dict()
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


class TestEveQuantizer:
    def test_rows_are_distributions(self):
        q = make_eve_quantizer(P_MAIN, levels=8)
        for symbol in (+1.0, -1.0):
            probs = q.level_probs(symbol, P_MAIN)
            assert probs.shape == (8,)
            assert (probs >= 0).all()
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_edges_mirror(self):
        q = make_eve_quantizer(P_MAIN, levels=6)
        plus = q.level_probs(+1.0, P_MAIN)
        minus = q.level_probs(-1.0, P_MAIN)
        assert np.allclose(plus[::-1], minus, atol=1e-14)

    def test_levels_property(self):
        assert make_eve_quantizer(P_MAIN, levels=2).levels == 2
        assert EveQuantizer((-1.0, 0.0, 1.0)).levels == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            make_eve_quantizer(P_MAIN, levels=1)
        with pytest.raises(ValueError):
            EveQuantizer(())
        with pytest.raises(ValueError):
            EveQuantizer((0.0, 0.0))
        with pytest.raises(ValueError):
            EveQuantizer((1.0, -1.0))


class TestExactLeakage:
    def test_blind_eavesdropper_leaks_nothing(self):
        params = WiretapChannelParams(gamma_g=0.0, gamma_n=1.0)
        report = exact_leakage(CodeParams(2, 1, 1), make_ecc("identity", 2), None, params)
        assert report.exact_leak_bits == 0.0
        assert all(leak == 0.0 for _, leak in report.per_seed)

    def test_single_bit_matches_direct_computation(self):
        # n = k = 1, k' = 0: leakage is exactly I(X; Z_quantized)
        q = make_eve_quantizer(P_MAIN, levels=8)
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
        report = exact_leakage(CodeParams(1, 1, 0), make_ecc("identity", 1), None, P_MAIN)
        ch_mi = mi_biawgn(P_MAIN.eve_amplitude, P_MAIN.eve_noise_var)
        assert report.exact_leak_bits <= ch_mi + 1e-12

    def test_bound_holds_and_sacrifice_helps(self):
        leaks = []
        for kp in range(4):
            code = CodeParams(1 + kp, 1, kp)
            report = exact_leakage(code, make_ecc("identity", 1 + kp), None, P_MAIN)
            assert report.exact_leak_bits <= report.bound_bits
            leaks.append(report.exact_leak_bits)
        assert all(b <= a + 1e-12 for a, b in zip(leaks, leaks[1:]))

    def test_per_seed_enumeration(self):
        report = exact_leakage(CodeParams(3, 2, 1), make_ecc("identity", 3), None, P_MAIN)
        assert len(report.per_seed) == 4  # 2^(k+k'-1) seeds
        assert report.exact_leak_bits == pytest.approx(
            sum(leak for _, leak in report.per_seed) / 4.0, abs=1e-15
        )
        assert [s for s, _ in report.per_seed] == ["00", "40", "80", "c0"]

    def test_ecc_spreading_reduces_leakage(self):
        plain = exact_leakage(CodeParams(1, 1, 0), make_ecc("identity", 1), None, P_MAIN)
        spread = exact_leakage(CodeParams(3, 1, 0), make_ecc("rep3", 1), None, P_MAIN)
        # repetition makes Eve's job easier, not harder
        assert spread.exact_leak_bits >= plain.exact_leak_bits

    def test_feasibility_caps(self):
        with pytest.raises(ValueError):
            exact_leakage(CodeParams(11, 6, 5), make_ecc("identity", 11), None, P_MAIN)
        with pytest.raises(ValueError):
            exact_leakage(CodeParams(13, 5, 5), make_ecc("identity", 10), None, P_MAIN)
        big = make_eve_quantizer(P_MAIN, levels=16)
        with pytest.raises(ValueError):
            exact_leakage(CodeParams(6, 3, 3), make_ecc("identity", 6), big, P_MAIN)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exact_leakage(CodeParams(2, 1, 1), make_ecc("identity", 3), None, P_MAIN)
        with pytest.raises(ValueError):
            exact_leakage(CodeParams(3, 1, 1), make_ecc("identity", 2), None, P_MAIN)


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
