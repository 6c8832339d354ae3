import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satwiretap import leakage
from satwiretap.capacity import capacity_eve, mi_biawgn
from satwiretap.channel import WiretapChannelParams
from satwiretap.leakage import (
    CodeParams,
    _e0_nats,
    _eve_ratio,
    _min_bound_rows,
    e0,
    e0_max_s1_limit,
    leakage_bound,
    min_leakage_bound,
    psi,
)

LN2 = math.log(2.0)


def _params(gg, gn, n0=1.0, e0_=1.0):
    return WiretapChannelParams(gamma_g=gg, gamma_n=gn, n0=n0, e0=e0_)


P_MAIN = _params(0.3, 2.0)
P_HALF = _params(0.5, 1.0)
P_BLIND = _params(0.0, 1.0)


class TestCodeParams:
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

    @pytest.mark.parametrize("n, k, k_prime", [(8, 0, 9), (8, 8, 1), (4, 3, 2), (1, 1, 1)])
    def test_sacrifice_beyond_block_length_rejected(self, n, k, k_prime):
        with pytest.raises(ValueError, match=f"exceeds block length n = {n}$"):
            CodeParams(n, k, k_prime)

    @pytest.mark.parametrize(
        "field, args",
        [
            ("n", (math.nan, 1, 0)),
            ("n", (10.5, 1, 2)),
            ("n", (True, 0, 0)),
            ("k", (10, math.nan, 2)),
            ("k", (10, 1.0, 2)),
            ("k", (10, False, 2)),
            ("k_prime", (10, 1, math.nan)),
            ("k_prime", (10, 1, 2.5)),
            ("k_prime", (10, 1, True)),
        ],
    )
    def test_non_integer_counts_name_their_field(self, field, args):
        with pytest.raises(ValueError, match=rf"\b{field} must be an integer"):
            CodeParams(*args)


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
        # the exponent table has no row at s = 1
        assert 2000 * psi(1.0, _params(2.0, 1.0)) == pytest.approx(1316.5, abs=0.1)


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

    def test_e0_max_vanishes_at_small_s_for_every_parameter_set(self):
        for p in (P_MAIN, P_HALF, _params(0.8, 0.5), _params(1.2, 3.0)):
            assert 0.0 <= e0(1e-6, p) < 1e-6 * LN2

    def test_s1_limit_closed_form(self):
        # lim_{s->1} E0_max = ln(2*Phi(a_E/sigma_E))
        assert e0_max_s1_limit(P_MAIN) == pytest.approx(0.15528943527967942, abs=1e-12)
        assert e0_max_s1_limit(_params(0.5, 2.0)) == pytest.approx(0.24398594388138417, abs=1e-12)
        near_one = e0(1.0 - 1e-7, P_MAIN)
        assert near_one == pytest.approx(e0_max_s1_limit(P_MAIN), abs=1e-5)


class TestArrayS:
    # psi and e0 take a scalar s, which gives a float, or an array of s, which
    # gives an array from one kernel call; each element must equal its own
    # scalar call bit for bit
    _S = st.floats(1e-6, 1.0 - 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        gg=st.one_of(st.just(0.0), st.floats(1e-4, 3.0)),
        gn=st.floats(0.2, 9.0),
        shape=st.sampled_from([(), (1,), (5,), (2, 3)]),
        data=st.data(),
    )
    def test_array_equals_scalar_calls(self, gg, gn, shape, data):
        params = _params(gg, gn)
        size = math.prod(shape)
        s_e0 = data.draw(st.lists(self._S, min_size=size, max_size=size))
        s_psi = data.draw(
            st.lists(st.one_of(st.just(1.0), self._S), min_size=size, max_size=size)
        )
        for fn, values in ((e0, s_e0), (psi, s_psi)):
            got = fn(np.array(values).reshape(shape), params)
            want = [fn(x, params) for x in values]
            assert all(type(w) is float for w in want)
            if shape == ():
                assert type(got) is float and got == want[0]
            else:
                assert got.shape == shape
                assert got.tobytes() == np.array(want).reshape(shape).tobytes()

    @pytest.mark.parametrize(
        "fn, bad", [(e0, 1.0), (e0, 0.0), (e0, math.nan), (psi, 1.5), (psi, -0.1), (psi, math.nan)]
    )
    def test_one_value_out_of_range_raises(self, fn, bad):
        s = np.array([[0.2, 0.5], [bad, 0.7]])
        with pytest.raises(ValueError, match=rf"{fn.__name__} requires s in .*, got {bad}$"):
            fn(s, P_MAIN)


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
            bound = leakage_bound(s, code, P_MAIN)
            assert bound >= 0.0
            assert bound == pytest.approx((64 * e0(s, P_MAIN) - math.log(s)) / LN2, abs=1e-10)

    def test_exactly_linear_in_k_prime(self):
        n = 4096
        for s in (0.11, 0.47, 0.83):
            b1 = leakage_bound(s, CodeParams(n, 0, 100), P_MAIN)
            b2 = leakage_bound(s, CodeParams(n, 0, 500), P_MAIN)
            assert (b2 - b1) / 400.0 == pytest.approx(-s, abs=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_domain_errors(self, s):
        with pytest.raises(ValueError, match=r"leakage_bound requires s in \(0, 1\)"):
            leakage_bound(s, CodeParams(64, 0, 8), P_MAIN)

    @pytest.mark.parametrize(
        "s, n, k_prime, gg, gn",
        [
            # n*psi(1) is about 1316.5 nats here, past where e^x overflows
            (0.999999, 2000, 0, 2.0, 1.0),
            (0.9, 32400, 3240, 0.3, 2.0),
            (0.5, 10**6, 0, 2.0, 1.0),
            (0.5, 10**6, 10**5, 0.3, 2.0),
            (1e-6, 10**6, 10**6, 0.3, 2.0),
        ],
    )
    def test_extreme_exponents_stay_finite(self, s, n, k_prime, gg, gn):
        params = _params(gg, gn)
        val = leakage_bound(s, CodeParams(n, 0, k_prime), params)
        expected = (-math.log(s) + n * e0(s, params) - s * k_prime * LN2) / LN2
        assert math.isfinite(val)
        assert val == pytest.approx(expected, rel=1e-12)

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

    @pytest.mark.parametrize("k_prime", [0, 1, 4, 64, 255])
    def test_blind_eve_minimum_is_minus_the_sacrifice(self, k_prime):
        # E0 = 0, so the bound is -log2(s) - s*k', least at s = 1
        res = min_leakage_bound(CodeParams(256, 0, k_prime), P_BLIND)
        assert (res.s_star, res.s_star_source) == (1.0, "endpoint")
        assert res.log2_bound == pytest.approx(-k_prime, abs=1e-12)

    @pytest.mark.parametrize(
        "params", [P_MAIN, P_HALF, _params(0.8, 0.5), _params(1.2, 3.0), _params(2.0, 1.0)]
    )
    def test_no_sacrifice_no_secrecy(self, params):
        res = min_leakage_bound(CodeParams(128, 128, 0), params)
        assert res.log2_bound >= 0.0

    @pytest.mark.parametrize(
        "params", [P_MAIN, P_HALF, _params(0.8, 0.5), _params(0.05, 9.0)]
    )
    def test_rate_above_eve_capacity_deepens_with_n(self, params):
        # E0(s)/s falls to I(X;Z) as s -> 0, so above that rate some s makes
        # the exponent negative; 0.1 bit above it, doubling n deepens the bound
        rate = capacity_eve(params) + 0.1
        small = min_leakage_bound(CodeParams(4000, 0, round(rate * 4000)), params)
        big = min_leakage_bound(CodeParams(8000, 0, round(rate * 8000)), params)
        assert big.log2_bound < small.log2_bound < 0.0

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

    @pytest.mark.parametrize("resolution", [150.5, 150.0, True])
    def test_resolution_must_be_an_integer(self, resolution):
        with pytest.raises(ValueError, match="s_grid_resolution must be an integer"):
            min_leakage_bound(CodeParams(8, 4, 4), P_MAIN, s_grid_resolution=resolution)

    def test_nonincreasing_in_k_prime(self):
        vals = [
            min_leakage_bound(CodeParams(1024, 0, kp), P_MAIN).log2_bound
            for kp in (64, 128, 256)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_blocklength_scaling(self):
        # at a fixed positive rate doubling n deepens the minimized bound;
        # with k' = 0 the bound only grows with n
        small = min_leakage_bound(CodeParams(1000, 0, 100), P_MAIN)
        big = min_leakage_bound(CodeParams(2000, 0, 200), P_MAIN)
        assert big.log2_bound < small.log2_bound
        flat_small = min_leakage_bound(CodeParams(500, 500, 0), P_MAIN)
        flat_big = min_leakage_bound(CodeParams(1000, 1000, 0), P_MAIN)
        assert flat_big.log2_bound > flat_small.log2_bound

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
        assert vals.min() >= 0.0

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

