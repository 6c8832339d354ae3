import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satwiretap import leakage
from satwiretap.capacity import mi_biawgn
from satwiretap.channel import WiretapChannelParams
from satwiretap.leakage import (
    CodeParams,
    _e0_nats,
    _eve_ratio,
    _min_bound_rows,
    e0,
    e0_max,
    e0_max_s1_limit,
    exponent_margin,
    leakage_bound,
    min_leakage_bound,
    noiseless_main_bounds,
    nonuniform_seed_bound,
    psi,
    renyi_entropy,
)

LN2 = math.log(2.0)


def _params(gg, gn, n0=1.0, e0_=1.0):
    return WiretapChannelParams(gamma_g=gg, gamma_n=gn, n0=n0, e0=e0_)


P_MAIN = _params(0.3, 2.0)
P_HALF = _params(0.5, 1.0)
P_BLIND = _params(0.0, 1.0)


class TestCodeParams:
    def test_rho_sec(self):
        assert CodeParams(32400, 0, 3240).rho_sec == pytest.approx(0.1)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            CodeParams(4, 3, 2)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CodeParams(4, -1, 2)
        with pytest.raises(ValueError):
            CodeParams(0, 0, 0)
        with pytest.raises(ValueError, match="k must be >= 0, got -10"):
            CodeParams(10, -10, 20)
        with pytest.raises(ValueError, match="k_prime must be >= 0, got -2"):
            CodeParams(4, 1, -2)


class TestPsi:
    def test_blind_eve_is_zero(self):
        for s in (0.1, 0.5, 1.0):
            assert psi(s, P_BLIND) == 0.0

    def test_small_s_limit_matches_mutual_information(self):
        s = 1e-4
        i_nats = mi_biawgn(0.5, 1.0) * LN2
        assert abs(psi(s, P_HALF) / s - i_nats) <= 1e-3

    def test_nonnegative_and_nondecreasing(self):
        grid = np.linspace(0.05, 1.0, 12)
        vals = [psi(float(s), P_MAIN) for s in grid]
        assert all(v >= 0.0 for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("s", [0.0, -0.2, 1.0001])
    def test_domain_errors(self, s):
        with pytest.raises(ValueError):
            psi(s, P_MAIN)

    def test_s_equal_one_allowed(self):
        assert psi(1.0, P_MAIN) > 0.0


class TestE0:
    def test_vanishes_linearly_at_small_s(self):
        # e0(s) ~ s * I(X;Z) near zero, so the value itself sits below s*ln2
        value = e0(1e-6, P_HALF)
        assert 0.0 < value < 1e-6 * LN2
        assert e0(1e-3, P_HALF) / value == pytest.approx(1e3, rel=1e-2)

    def test_small_s_limit_matches_mutual_information(self):
        s = 1e-4
        i_nats = mi_biawgn(0.5, 1.0) * LN2
        assert abs(e0(s, P_HALF) / s - i_nats) <= 1e-3

    def test_blind_eve_is_zero(self):
        for s in (0.05, 0.5, 0.95):
            assert e0(s, P_BLIND) == 0.0

    def test_frozen_values(self):
        # frozen against an independent high-precision recomputation of the
        # integral and a Monte-Carlo estimate of the same expectation
        assert e0(0.45, P_MAIN) == pytest.approx(0.0172002029527, abs=2e-9)
        assert e0(0.20, P_MAIN) == pytest.approx(0.005437389289, abs=2e-9)
        assert e0(0.70, P_MAIN) == pytest.approx(0.043540686645, abs=2e-9)

    @pytest.mark.parametrize("s", [0.0, 1.0, 1.3, -0.1])
    def test_domain_errors(self, s):
        with pytest.raises(ValueError):
            e0(s, P_MAIN)

    def test_e0_max_equals_uniform_e0(self):
        for s in (0.2, 0.6):
            assert e0_max(s, P_MAIN) == pytest.approx(e0(s, P_MAIN), abs=1e-14)

    def test_e0_max_vanishes_at_small_s_for_every_parameter_set(self):
        for p in (P_MAIN, P_HALF, _params(0.8, 0.5), _params(1.2, 3.0)):
            assert 0.0 <= e0_max(1e-6, p) < 1e-6 * LN2

    def test_s1_limit_closed_form(self):
        # lim_{s->1} E0_max = ln(2*Phi(a_E/sigma_E))
        assert e0_max_s1_limit(P_MAIN) == pytest.approx(0.15528943527967942, abs=1e-12)
        assert e0_max_s1_limit(_params(0.5, 2.0)) == pytest.approx(0.24398594388138417, abs=1e-12)
        near_one = e0_max(1.0 - 1e-7, P_MAIN)
        assert near_one == pytest.approx(e0_max_s1_limit(P_MAIN), abs=1e-5)


class TestE0Derivatives:
    # A central difference with step h carries a rounding error of about d/h
    # (first) or 4d/h^2 (second), where d ~ 1e-15 is the absolute error of one
    # E0 value, a few ulps of numbers below ln 2. h = 1e-6 gives 1e-9 for E0',
    # and its truncation h^2/6 * E0''' stays below 3e-10 on these channels;
    # h = 1e-5 gives 4e-5 for E0'', which its truncation stays well below.
    S = np.concatenate(([1e-4, 1e-3], np.linspace(0.01, 0.99, 99), [1.0 - 1e-3, 1.0 - 1e-4]))

    @pytest.mark.parametrize("gg", [0.05, 0.6, 3.0])
    @pytest.mark.parametrize("gn", [0.2, 1.0, 9.0])
    def test_match_central_differences(self, gg, gn):
        r = _eve_ratio(_params(gg, gn))
        value, first, second = _e0_nats(self.S, r, derivatives=True)
        assert np.array_equal(value, _e0_nats(self.S, r))
        h = 1e-6
        slope = (_e0_nats(self.S + h, r) - _e0_nats(self.S - h, r)) / (2.0 * h)
        np.testing.assert_allclose(first, slope, rtol=0, atol=2e-9)
        h = 1e-5
        up, down = _e0_nats(self.S + h, r), _e0_nats(self.S - h, r)
        np.testing.assert_allclose(second, (up - 2.0 * value + down) / h**2, rtol=0, atol=4e-5)

    def test_blind_eve_is_zero(self):
        for part in _e0_nats(np.array([0.1, 0.9]), 0.0, derivatives=True):
            assert np.array_equal(part, np.zeros(2))


class TestLeakageBound:
    def test_blind_eve_closed_form(self):
        code = CodeParams(n=256, k=128, k_prime=128)
        for s in (0.2, 0.5, 0.9):
            expected = math.log2(1.0 / s) - s * 128
            assert leakage_bound(s, code, P_BLIND) == pytest.approx(expected, abs=1e-10)

    def test_no_sacrifice_no_secrecy(self):
        code = CodeParams(n=64, k=64, k_prime=0)
        for s in (0.1, 0.5, 0.99):
            assert leakage_bound(s, code, P_MAIN) >= 0.0

    def test_exactly_linear_in_k_prime(self):
        n = 4096
        for s in (0.11, 0.47, 0.83):
            b1 = leakage_bound(s, CodeParams(n, 0, 100), P_MAIN)
            b2 = leakage_bound(s, CodeParams(n, 0, 500), P_MAIN)
            assert (b2 - b1) / 400.0 == pytest.approx(-s, abs=1e-12)

    def test_log_domain_no_overflow(self):
        # linear-scale bound here is ~2^-654; the log form must stay finite
        code = CodeParams(n=32400, k=29160, k_prime=3240)
        val = leakage_bound(0.4674, code, P_MAIN)
        assert math.isfinite(val)
        assert val < -600.0


class TestMinLeakageBound:
    def test_blind_eve_analytic_minimum(self):
        code = CodeParams(n=256, k=128, k_prime=128)
        res = min_leakage_bound(code, P_BLIND)
        assert res.s_star == 1.0
        assert res.s_star_source == "endpoint"
        assert res.log2_bound == pytest.approx(-128.0, abs=1e-6)

    def test_interior_source(self):
        res = min_leakage_bound(CodeParams(n=32400, k=29160, k_prime=3240), P_MAIN)
        assert res.s_star_source == "interior"
        assert 0.4 < res.s_star < 0.5

    def test_grid_edge_source(self):
        # with k' = 0 the objective's minimum sits near 1/(n*I(X;Z)), below the
        # first scan sample once n*I exceeds 1e6, so the bound falls to that edge
        res = min_leakage_bound(CodeParams(n=10**8, k=10**8, k_prime=0), P_MAIN)
        assert res.s_star_source == "grid_edge"
        assert res.s_star == res.curve[0][0] == 1e-6

    def test_unconverged_newton_raises(self, monkeypatch):
        monkeypatch.setattr(leakage, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(ValueError, match="did not converge"):
            min_leakage_bound(CodeParams(n=32400, k=29160, k_prime=3240), P_MAIN)

    def test_minimum_in_first_grid_cell_converges_in_few_steps(self, monkeypatch):
        # near s = 0 the -1/s term dominates f', where Newton on f' only about
        # doubles s per step; on s*f'(s) it lands in a few steps
        kernel = leakage._e0_nats
        newton_calls = []

        def counting(s, r, derivatives=False):
            if derivatives:
                newton_calls.append(s)
            return kernel(s, r, derivatives)

        monkeypatch.setattr(leakage, "_e0_nats", counting)
        res = min_leakage_bound(CodeParams(64800, 0, 7307), _params(1.091969, 2.929147))
        assert res.s_star_source == "interior"
        assert 1e-6 < res.s_star < res.curve[1][0]
        assert len(newton_calls) <= 6

    @pytest.mark.parametrize(
        "n, params", [(32400, P_MAIN), (8192, _params(0.3, 1.0)), (8192, _params(0.05, 9.0))]
    )
    def test_batch_matches_single_rows(self, n, params):
        k_primes = [round(rho * n) for rho in np.arange(0.0, 0.3001, 0.01).tolist()]
        _, _, s_star, best, source = _min_bound_rows(n, params, k_primes, 120)
        for kp, s, b, src in zip(k_primes, s_star.tolist(), best.tolist(), source.tolist()):
            res = min_leakage_bound(CodeParams(n, 0, kp), params, s_grid_resolution=120)
            assert (res.s_star, res.log2_bound, res.s_star_source) == (s, b, src)

    @settings(max_examples=40, deadline=None)
    @given(
        gg=st.floats(min_value=0.05, max_value=3.0),
        gn=st.floats(min_value=0.2, max_value=9.0),
        n=st.integers(min_value=16, max_value=40000),
        frac=st.floats(0.0, 1.0),
    )
    def test_minimum_below_neighbours_and_curve(self, gg, gn, n, frac):
        params = _params(gg, gn)
        code = CodeParams(n, 0, int(frac * n))
        res = min_leakage_bound(code, params)
        for s in (res.s_star - 1e-6, res.s_star + 1e-6):
            if 0.0 < s < 1.0:
                assert res.log2_bound <= leakage_bound(s, code, params) + 1e-9
        assert res.log2_bound <= min(v for _, v in res.curve) + 1e-9

    def test_resolution_floor_enforced(self):
        with pytest.raises(ValueError):
            min_leakage_bound(CodeParams(8, 4, 4), P_MAIN, s_grid_resolution=99)

    def test_nonincreasing_in_k_prime(self):
        vals = [
            min_leakage_bound(CodeParams(1024, 0, kp), P_MAIN).log2_bound
            for kp in (64, 128, 256)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_curve_carries_endpoint_and_minimum(self):
        code = CodeParams(n=1024, k=924, k_prime=100)
        res = min_leakage_bound(code, P_MAIN)
        s_vals = [s for s, _ in res.curve]
        assert s_vals[-1] == 1.0
        curve_min = min(v for _, v in res.curve)
        assert res.log2_bound <= curve_min + 1e-12
        assert res.log2_bound >= curve_min - 0.1

    def test_s_star_attains_reported_bound(self):
        code = CodeParams(n=2048, k=1848, k_prime=200)
        res = min_leakage_bound(code, P_MAIN)
        if res.s_star < 1.0:
            assert leakage_bound(res.s_star, code, P_MAIN) == pytest.approx(
                res.log2_bound, abs=1e-9
            )


class TestMinimizerPremises:
    # the minimizer runs Newton inside one bracket, which is sound because E0
    # is convex in s: the objective -ln s + n*E0(s) - s*k'*ln2 then has one
    # minimum, and its derivative one root

    @pytest.mark.parametrize("gg", [0.05, 0.6, 3.0])
    @pytest.mark.parametrize("gn", [0.2, 1.0, 9.0])
    def test_e0_convex_in_s(self, gg, gn):
        params = _params(gg, gn)
        vals = np.array([e0(float(s), params) for s in np.linspace(1e-6, 1.0 - 1e-6, 2001)])
        assert np.diff(vals, 2).min() >= -1e-8

    @settings(max_examples=25, deadline=None)
    @given(
        gg=st.floats(min_value=0.05, max_value=3.0),
        gn=st.floats(min_value=0.2, max_value=9.0),
        n=st.integers(min_value=16, max_value=40000),
        fracs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_bound_monotone_in_k_prime_and_n(self, gg, gn, n, fracs):
        params = _params(gg, gn)

        def bound(n_, kp):
            return min_leakage_bound(CodeParams(n_, 0, kp), params).log2_bound

        kp_small, kp_big = sorted(int(f * n) for f in fracs)
        at_small = bound(n, kp_small)
        slack = 1e-9 * (1.0 + abs(at_small))
        assert bound(n, kp_big) <= at_small + slack
        assert bound(2 * n, kp_small) >= at_small - slack


class TestNoiselessMainBounds:
    def test_relaxed_dominates_tight(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = float(rng.uniform(0.05, 1.0))
            n = int(rng.integers(8, 128))
            kp = int(rng.integers(1, n))
            tight, relaxed = noiseless_main_bounds(s, n, kp, P_MAIN)
            assert tight <= relaxed + 1e-12

    def test_blind_eve_closed_form_at_s_one(self):
        tight, relaxed = noiseless_main_bounds(1.0, 8, 4, P_BLIND)
        assert relaxed == pytest.approx(-4.0, abs=1e-12)
        assert tight == pytest.approx(math.log2(math.log1p(2.0**-4)), abs=1e-12)
        assert tight <= relaxed

    def test_agreement_in_deep_tail(self):
        tight, relaxed = noiseless_main_bounds(0.5, 64, 32, P_MAIN)
        assert relaxed <= -10.0
        assert abs(tight - relaxed) <= 0.01 * abs(relaxed)

    def test_extreme_exponent_branches_finite(self):
        tight, relaxed = noiseless_main_bounds(0.9, 32400, 3240, P_MAIN)
        assert math.isfinite(tight) and math.isfinite(relaxed)
        assert tight == pytest.approx(relaxed, rel=1e-9)

    def test_oversized_sacrifice_rejected(self):
        with pytest.raises(ValueError):
            noiseless_main_bounds(0.5, 8, 9, P_MAIN)


class TestRenyi:
    def test_uniform_matches_log_cardinality(self):
        for kp in (1, 4, 7):
            dist = [2.0**-kp] * (1 << kp)
            assert renyi_entropy(dist, 1.5) == pytest.approx(kp * LN2, abs=1e-12)

    def test_point_mass_zero(self):
        assert renyi_entropy([1.0, 0.0, 0.0], 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_biased_two_point(self):
        # H_2 for (3/4, 1/4): -ln(9/16 + 1/16)
        assert renyi_entropy((0.75, 0.25), 2.0) == pytest.approx(-math.log(0.625), abs=1e-12)

    def test_order_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy((0.5, 0.5), 1.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            renyi_entropy((0.5, 0.4), 2.0)


class TestNonuniformSeedBound:
    def test_uniform_reproduces_leakage_bound(self):
        code = CodeParams(n=64, k=60, k_prime=4)
        dist = [1.0 / 16.0] * 16
        for s in (0.2, 0.7):
            direct = leakage_bound(s, code, P_MAIN)
            general = nonuniform_seed_bound(s, 64, dist, P_MAIN, code=code)
            assert general == pytest.approx(direct, abs=1e-10)

    def test_point_mass_gives_no_secrecy(self):
        dist = [1.0] + [0.0] * 15
        val = nonuniform_seed_bound(0.5, 64, dist, P_MAIN)
        expected = (-math.log(0.5) + 64 * e0_max(0.5, P_MAIN)) / LN2
        assert val == pytest.approx(expected, abs=1e-10)

    def test_support_size_checked_against_code(self):
        code = CodeParams(n=16, k=12, k_prime=4)
        with pytest.raises(ValueError):
            nonuniform_seed_bound(0.5, 16, [0.5, 0.5], P_MAIN, code=code)


class TestExponentMargin:
    def test_blind_eve_margin(self):
        code = CodeParams(n=128, k=64, k_prime=64)
        assert exponent_margin(0.5, code, P_BLIND) == pytest.approx(0.5 * LN2, abs=1e-12)

    def test_zero_sacrifice_nonpositive(self):
        code = CodeParams(n=128, k=128, k_prime=0)
        for s in (0.1, 0.5, 0.9):
            assert exponent_margin(s, code, P_MAIN) <= 0.0

    def test_margin_sign_predicts_blocklength_scaling(self):
        # positive margin at the optimizer: doubling n at fixed rates deepens
        # the minimized bound; with k_prime=0 the bound only grows with n
        small = min_leakage_bound(CodeParams(1000, 0, 100), P_MAIN)
        big = min_leakage_bound(CodeParams(2000, 0, 200), P_MAIN)
        assert exponent_margin(small.s_star, CodeParams(1000, 0, 100), P_MAIN) > 0.0
        assert big.log2_bound < small.log2_bound

        flat_small = min_leakage_bound(CodeParams(500, 500, 0), P_MAIN)
        flat_big = min_leakage_bound(CodeParams(1000, 1000, 0), P_MAIN)
        assert flat_big.log2_bound > flat_small.log2_bound
