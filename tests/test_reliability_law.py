"""run_reliability against the exact reliability law of tests/oracles.py.

The law does not depend on the random stream, so these checks hold for any
draw order that samples the same frames.
"""

import math

import numpy as np
import pytest

from satwiretap.channel import WiretapChannelParams
from satwiretap.code import make_ecc
from satwiretap.leakage import CodeParams
from satwiretap.sim import _Z95, run_reliability

from oracles import reliability_law

# (ecc, n, k, k'): the benchmark's four shapes and three small ones
SHAPES = [
    ("hamming74", 7, 2, 2),
    ("hamming74", 7, 1, 3),
    ("rep3", 30, 6, 4),
    ("rep3", 300, 80, 20),
    ("identity", 64, 48, 16),
    ("identity", 1, 1, 0),
    ("identity", 8, 3, 5),
]
HALF_WIDTHS = 5.0  # allowed distance from the law, in reported half-widths


def _frame(ecc, n, k, kp):
    return CodeParams(n, k, kp), make_ecc(ecc, k + kp)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "{}_{}_{}_{}".format(*s))
@pytest.mark.parametrize("e0", [0.8, 1.5, 2.5])
def test_every_run_lies_near_the_law(shape, e0):
    code, ecc = _frame(*shape)
    params = WiretapChannelParams(gamma_g=0.5, gamma_n=1.0, e0=e0)
    law = reliability_law(code, ecc, params)
    trials = 4_000 if code.n == 300 else 20_000
    for master_seed in (1, 2):
        report = run_reliability(code, ecc, params, trials, master_seed)
        assert abs(report.fer - law.fer) <= HALF_WIDTHS * report.fer_ci95
        assert abs(report.ber - law.ber) <= HALF_WIDTHS * report.ber_ci95


def test_intervals_cover_the_law_at_their_rate():
    # 95% intervals over 400 seeds: a binomial(400, 0.95) falls below 360
    # with probability about 1.4e-5
    code, ecc = _frame("hamming74", 7, 2, 2)
    params = WiretapChannelParams(gamma_g=0.5, gamma_n=1.0)
    law = reliability_law(code, ecc, params)
    fer_hits = ber_hits = 0
    z2 = _Z95 * _Z95
    for master_seed in range(1, 401):
        report = run_reliability(code, ecc, params, 2_000, master_seed)
        centre = (report.fer + z2 / (2 * report.trials)) / (1 + z2 / report.trials)
        fer_hits += abs(centre - law.fer) <= report.fer_ci95
        ber_hits += abs(report.ber - law.ber) <= report.ber_ci95
    assert fer_hits >= 360 and ber_hits >= 360


def _binomial_half(k):
    return np.array([math.comb(k, c) / 2.0**k for c in range(k + 1)])


@pytest.mark.parametrize("ecc", ["identity", "rep3"])
def test_law_at_one_message_bit(ecc):
    # k = 1, k' = 0: the frame is wrong exactly when its one bit decodes wrong
    code, scheme = _frame(ecc, 1 if ecc == "identity" else 3, 1, 0)
    params = WiretapChannelParams(gamma_g=0.5, gamma_n=1.0)
    p = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
    q = p if ecc == "identity" else 3 * p * p - 2 * p**3
    law = reliability_law(code, scheme, params)
    assert law.fer == pytest.approx(q, rel=1e-12)
    assert law.ber == pytest.approx(q, rel=1e-12)
    np.testing.assert_allclose(law.pmf, [1 - q, q], rtol=1e-12)


def test_law_at_one_message_bit_and_one_sacrifice_bit():
    # a sacrifice-bit error makes the message bit a fair coin
    code, ecc = _frame("identity", 2, 1, 1)
    p = 0.5 * math.erfc(1.0 / math.sqrt(2.0))
    law = reliability_law(code, ecc, WiretapChannelParams(gamma_g=0.5, gamma_n=1.0))
    assert law.fer == pytest.approx((1 - p) * p + p / 2, rel=1e-12)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "{}_{}_{}_{}".format(*s))
def test_law_on_a_noiseless_channel(shape):
    # p = Q(100) underflows to 0: no frame is ever wrong
    code, ecc = _frame(*shape)
    law = reliability_law(code, ecc, WiretapChannelParams(gamma_g=0.5, gamma_n=1.0, e0=100.0))
    assert (law.fer, law.ber) == (0.0, 0.0)
    np.testing.assert_array_equal(law.pmf, np.eye(code.k + 1)[0])


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "{}_{}_{}_{}".format(*s))
def test_law_on_a_useless_channel(shape):
    # p = 1/2 to double precision: every message bit is a fair coin
    code, ecc = _frame(*shape)
    law = reliability_law(code, ecc, WiretapChannelParams(gamma_g=0.5, gamma_n=1.0, e0=1e-300))
    np.testing.assert_allclose(law.pmf, _binomial_half(code.k), rtol=1e-12, atol=1e-300)
    assert law.fer == pytest.approx(1.0 - 2.0**-code.k, rel=1e-12)
    assert law.ber == pytest.approx(0.5, rel=1e-12)
