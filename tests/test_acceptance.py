"""Acceptance gate: one numbered test per release criterion.

Each test prints a single "[ACCEPTANCE] criterion NN: PASS/FAIL" line with the
measured quantities before asserting, so a red criterion documents its own
evidence. Criterion 4 checks externally published reference values for two
operating points; see README for the reproduction analysis.
"""

import math
import time

import numpy as np
from scipy.stats import norm

from satwiretap.capacity import mi_biawgn, positivity_condition, secrecy_capacity
from satwiretap.channel import WiretapChannelParams
from satwiretap.code import (
    bits_to_bpsk,
    decode,
    encode,
    make_ecc,
    toeplitz_from_seed,
    toeplitz_mul_fast,
    toeplitz_mul_naive,
)
from satwiretap.leakage import CodeParams, e0_max, min_leakage_bound
from satwiretap.sim import exact_leakage, run_reliability

LN2 = math.log(2.0)


def _check(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num:02d}: {verdict} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _all_words(length: int) -> np.ndarray:
    values = np.arange(1 << length, dtype=np.int64)
    shifts = np.arange(length - 1, -1, -1, dtype=np.int64)
    return ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def test_criterion_01_positivity_matches_geometry_predicate():
    start = time.perf_counter()
    mismatches = []
    boundary = 0
    for gg in np.round(np.arange(0.1, 1.5001, 0.1), 10):
        for gn in np.round(np.arange(0.5, 2.0001, 0.25), 10):
            params = WiretapChannelParams(gamma_g=float(gg), gamma_n=float(gn))
            res = secrecy_capacity(params)
            delta = res.c_bob - res.c_eve
            if abs(delta) < 1e-6:
                boundary += 1
                continue
            if (delta > 0.0) != positivity_condition(params):
                mismatches.append((float(gg), float(gn), delta))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30.0
    _check(
        1,
        ok,
        f"{len(mismatches)} sign mismatches on 105-cell grid, "
        f"{boundary} boundary cells skipped, {elapsed:.1f} s (limit 30 s)",
    )


def test_criterion_02_identical_channels_zero_secrecy():
    c_s = secrecy_capacity(WiretapChannelParams(gamma_g=1.0, gamma_n=1.0)).c_s
    _check(2, abs(c_s) <= 1e-9, f"C_s(1,1) = {c_s:.3e} (tolerance 1e-9)")


def test_criterion_03_exponent_slope_is_mutual_information():
    params = WiretapChannelParams(gamma_g=0.5, gamma_n=1.0)
    s = 1e-4
    slope_nats = e0_max(s, params) / s
    mi_nats = mi_biawgn(params.eve_amplitude, params.eve_noise_var) * LN2
    err = abs(slope_nats - mi_nats)
    _check(
        3,
        err <= 1e-3,
        f"|E0max(s)/s - I| = {err:.2e} nats at s = {s} (tolerance 1e-3)",
    )


def test_criterion_04_reference_operating_points():
    # Externally published reference values for these two operating points
    # are -200 +- 20 and -50 +- 10 bits. Three mutually independent methods
    # in this codebase (grid scan plus Newton minimization, the s=1 endpoint
    # formula, and direct high-resolution scans) agree on different values, so
    # this criterion is expected red; the README records the analysis.
    start = time.perf_counter()
    code = CodeParams(n=32400, k=32400 - 3240, k_prime=3240)
    measured = {}
    for gg in (0.3, 0.5):
        params = WiretapChannelParams(gamma_g=gg, gamma_n=2.0)
        measured[gg] = min_leakage_bound(code, params).log2_bound
    elapsed = time.perf_counter() - start
    in_window = (-220.0 <= measured[0.3] <= -180.0) and (
        -60.0 <= measured[0.5] <= -40.0
    )
    ok = in_window and elapsed < 60.0
    _check(
        4,
        ok,
        f"bound({0.3}) = {measured[0.3]:.2f} (window [-220, -180]), "
        f"bound({0.5}) = {measured[0.5]:.2f} (window [-60, -40]), "
        f"{elapsed:.1f} s (limit 60 s)",
    )


def test_criterion_05_blind_eavesdropper_analytic_minimum():
    code = CodeParams(n=1024, k=1024 - 128, k_prime=128)
    res = min_leakage_bound(code, WiretapChannelParams(gamma_g=0.0, gamma_n=1.0))
    err = abs(res.log2_bound + 128.0)
    ok = err <= 1e-6 and res.s_star == 1.0
    _check(
        5,
        ok,
        f"min bound = {res.log2_bound:.8f} at s* = {res.s_star} "
        f"(expected -128 at s* = 1, error {err:.2e})",
    )


def test_criterion_06_hash_family_collision_bound():
    k, kp = 4, 3
    words = _all_words(k + kp)
    tails = words[:, k:].astype(np.int64)
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    counts = np.zeros((words.shape[0], words.shape[0]), dtype=np.int64)
    n_seeds = 1 << (k + kp - 1)
    for seed in _all_words(k + kp - 1):
        T = toeplitz_from_seed(seed, k, kp).astype(np.int64)
        digests = (words[:, :k] ^ ((tails @ T.T) & 1).astype(np.uint8)) @ weights
        counts += digests[:, None] == digests[None, :]
    np.fill_diagonal(counts, 0)
    worst = int(counts.max())
    ok = worst * (1 << k) <= n_seeds  # fraction <= 2^-k, in exact integers
    _check(
        6,
        ok,
        f"max collision fraction {worst}/{n_seeds} over all distinct pairs "
        f"(bound {n_seeds >> k}/{n_seeds})",
    )


def test_criterion_07_exhaustive_noiseless_round_trip():
    k, kp = 2, 2
    ecc = make_ecc("hamming74", 4)
    total = correct = 0
    for seed in _all_words(k + kp - 1):
        for m in _all_words(k):
            for l in _all_words(kp):
                y = bits_to_bpsk(encode(m, l, seed, ecc))
                correct += int(np.array_equal(decode(y, seed, ecc, k), m))
                total += 1
    _check(7, correct == total, f"{correct}/{total} round trips exact")


def test_criterion_08_fast_multiply_bit_exact():
    rng = np.random.default_rng(88)
    cases = []
    for _ in range(997):
        total = int(round(math.exp(rng.uniform(math.log(2.0), math.log(4096.0)))))
        total = min(total, 4096)
        k = int(rng.integers(1, total))
        cases.append((k, total - k))
    cases += [(1, 4095), (2048, 2048), (4095, 1)]
    bad = 0
    for k, kp in cases:
        seed = rng.integers(0, 2, k + kp - 1, dtype=np.uint8)
        x = rng.integers(0, 2, kp, dtype=np.uint8)
        T = toeplitz_from_seed(seed, k, kp)
        if not np.array_equal(toeplitz_mul_fast(seed, x, k, kp), toeplitz_mul_naive(T, x)):
            bad += 1
    _check(8, bad == 0, f"{len(cases) - bad}/{len(cases)} random cases bit-exact")


def test_criterion_09_uncoded_ber_oracle():
    start = time.perf_counter()
    params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=0.5)
    report = run_reliability(
        CodeParams(1, 1, 0), make_ecc("identity", 1), params, 1_000_000, 7
    )
    elapsed = time.perf_counter() - start
    p = float(norm.sf(math.sqrt(2.0)))
    sigma = math.sqrt(p * (1.0 - p) / report.trials)
    pull = abs(report.ber - p) / sigma
    ok = pull <= 3.0 and elapsed < 30.0
    _check(
        9,
        ok,
        f"ber = {report.ber:.6f} vs Q(sqrt(2)) = {p:.6f}, pull {pull:.2f} sigma "
        f"(limit 3), {elapsed:.1f} s (limit 30 s)",
    )


def test_criterion_10_exact_leakage_below_bound():
    params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0)
    report = exact_leakage(CodeParams(4, 1, 3), make_ecc("identity", 4), None, params)
    holds = report.exact_leak_bits <= report.bound_bits
    leaks = []
    for kp in range(4):
        sweep = exact_leakage(
            CodeParams(1 + kp, 1, kp), make_ecc("identity", 1 + kp), None, params
        )
        leaks.append(sweep.exact_leak_bits)
    monotone = all(b <= a + 1e-12 for a, b in zip(leaks, leaks[1:]))
    _check(
        10,
        holds and monotone,
        f"exact {report.exact_leak_bits:.6f} <= bound {report.bound_bits:.6f}: {holds}; "
        f"leak by k' {['%.6f' % v for v in leaks]} nonincreasing: {monotone}",
    )


def test_criterion_11_worker_count_determinism():
    params = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0, n0=0.8)
    ecc = make_ecc("hamming74", 4)
    kwargs = dict(trials=20_000, master_seed=42, block_size=1024)
    one = run_reliability(CodeParams(7, 2, 2), ecc, params, workers=1, **kwargs)
    eight = run_reliability(CodeParams(7, 2, 2), ecc, params, workers=8, **kwargs)
    ok = one == eight and repr(one) == repr(eight) and one.as_dict() == eight.as_dict()
    _check(
        11,
        ok,
        f"1-worker and 8-worker reports identical: {ok} "
        f"(ber {one.ber:.6f} vs {eight.ber:.6f})",
    )


def test_criterion_12_exponent_grows_with_interception():
    strong = WiretapChannelParams(gamma_g=0.6, gamma_n=2.0)
    weak = WiretapChannelParams(gamma_g=0.3, gamma_n=2.0)
    s_grid = np.round(np.arange(0.05, 0.9501, 0.05), 10)
    gaps = [e0_max(float(s), strong) - e0_max(float(s), weak) for s in s_grid]
    worst = min(gaps)
    ok = worst >= -1e-15
    _check(
        12,
        ok,
        f"min E0max gap over {len(gaps)} s-points = {worst:.3e} (expected >= 0)",
    )
