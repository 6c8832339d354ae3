import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satwiretap.capacity import (
    c_separation_condition,
    capacity_bob,
    capacity_curves,
    capacity_eve,
    cs_gamma_sweep,
    mi_biawgn,
    positivity_condition,
    secrecy_capacity,
)
from satwiretap.channel import WiretapChannelParams

from oracles import mc_mutual_info


def _params(gg, gn, n0=1.0, e0=1.0):
    return WiretapChannelParams(gamma_g=gg, gamma_n=gn, n0=n0, e0=e0)


class TestMiBiawgn:
    def test_zero_amplitude(self):
        assert mi_biawgn(0.0, 1.0) == 0.0

    def test_high_snr_limit(self):
        assert mi_biawgn(8.0, 1.0) >= 0.999

    def test_unit_point_frozen_value(self):
        # frozen from an independent Monte-Carlo estimate (1e7 samples) and a
        # high-precision recomputation of the same integral
        assert mi_biawgn(1.0, 1.0) == pytest.approx(0.48594415413293524, abs=1e-8)

    def test_monte_carlo_cross_check(self):
        est = mc_mutual_info(1.0, 1.0, 1_000_000, master_seed=202)
        assert abs(est.bits - mi_biawgn(1.0, 1.0)) < 3.0 * est.stderr

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = float(rng.uniform(0.2, 2.0))
            v = float(rng.uniform(0.3, 3.0))
            c = float(rng.uniform(0.5, 4.0))
            assert mi_biawgn(c * a, c * c * v) == pytest.approx(mi_biawgn(a, v), abs=1e-8)

    def test_strictly_monotone(self):
        amps = np.linspace(0.2, 2.0, 8)
        vals = [mi_biawgn(float(a), 1.0) for a in amps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        noises = np.linspace(0.3, 3.0, 8)
        vals = [mi_biawgn(1.0, float(v)) for v in noises]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for a in (0.0, 0.5, 1.0, 3.0):
            val = mi_biawgn(a, 0.7)
            assert 0.0 <= val <= 1.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            mi_biawgn(1.0, 0.0)
        with pytest.raises(ValueError):
            mi_biawgn(-1.0, 1.0)

    @pytest.mark.parametrize(
        "field, args",
        [
            ("noise_var", (1.0, math.nan)),
            ("noise_var", (1.0, math.inf)),
            ("amplitude", (math.inf, 1.0)),
            ("amplitude", (math.nan, 1.0)),
        ],
    )
    def test_non_finite_rejected(self, field, args):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            mi_biawgn(*args)


class TestCapacities:
    def test_undegraded_eve_equals_bob(self):
        p = _params(1.0, 1.0)
        assert capacity_eve(p) == pytest.approx(capacity_bob(p), abs=1e-12)

    def test_pure_noise_eve(self):
        assert capacity_eve(_params(0.0, 2.0)) == 0.0

    def test_scaling_consistency(self):
        p = _params(0.5, 1.0)
        assert capacity_eve(p) == pytest.approx(mi_biawgn(0.5, 1.0), abs=1e-12)

    def test_identical_channels_zero_secrecy(self):
        res = secrecy_capacity(_params(1.0, 1.0))
        assert abs(res.c_s) <= 1e-9

    def test_eve_blind_gives_full_bob_capacity(self):
        res = secrecy_capacity(_params(0.0, 3.0))
        assert res.c_s == pytest.approx(res.c_bob, abs=1e-12)

    def test_positive_secrecy_operating_point(self):
        res = secrecy_capacity(_params(0.5, 2.0))
        assert res.c_s > 0.0
        assert positivity_condition(_params(0.5, 2.0))

    def test_result_invariants(self):
        for gg, gn in [(0.2, 0.6), (0.9, 1.1), (1.4, 1.0)]:
            res = secrecy_capacity(_params(gg, gn))
            assert 0.0 <= res.c_bob <= 1.0
            assert 0.0 <= res.c_eve <= 1.0
            assert 0.0 <= res.c_s <= res.c_bob
            assert res.c_s == pytest.approx(max(res.c_bob - res.c_eve, 0.0), abs=1e-12)


class TestConditions:
    def test_positivity_boundary_false(self):
        assert positivity_condition(_params(1.0, 1.0)) is False

    def test_positivity_operating_point(self):
        assert positivity_condition(_params(0.3, 2.0)) is True

    def test_positivity_strong_eve(self):
        assert positivity_condition(_params(1.5, 1.0)) is False

    def test_c_separation_matches_positivity_at_unit_scales(self):
        p = _params(0.5, 1.0)
        assert c_separation_condition(p) is True
        assert c_separation_condition(p) == positivity_condition(p)

    def test_c_separation_amplitude_scale(self):
        # gamma_g*E0/sqrt(gamma_n) = 1.0 is not strictly below sqrt(N0) = 1
        assert c_separation_condition(_params(0.5, 1.0, n0=1.0, e0=2.0)) is False

    def test_c_separation_blind_eve(self):
        assert c_separation_condition(_params(0.0, 1.0, e0=100.0)) is True

    @settings(max_examples=200, deadline=None)
    @given(
        gg=st.floats(min_value=0.0, max_value=3.0),
        gn=st.floats(min_value=0.1, max_value=9.0),
    )
    def test_secrecy_positive_exactly_when_condition_holds(self, gg, gn):
        # off the boundary gamma_g = sqrt(gamma_n), where c_s vanishes continuously
        assume(abs(gg - math.sqrt(gn)) >= 0.01)
        p = _params(gg, gn)
        c_s = secrecy_capacity(p).c_s
        assert 0.0 <= c_s <= 1.0
        assert (c_s > 1e-12) == positivity_condition(p)


class TestCurves:
    def test_reference_ordering(self):
        snr = 10.0 ** (np.linspace(-6.0, 6.0, 13) / 10.0)
        rows = capacity_curves(snr, _params(0.5, 1.0))
        for row in rows:
            assert row["c_bob"] <= row["gauss_ref"] + 1e-9
            assert row["bsc_ref"] <= row["c_bob"] + 1e-9
            assert 0.0 <= row["c_s"] <= row["c_bob"] + 1e-12
            assert row["c_bob"] <= 1.0

    def test_low_snr_all_small(self):
        rows = capacity_curves([1e-4], _params(0.5, 1.0))
        assert rows[0]["c_bob"] < 1e-3
        assert rows[0]["gauss_ref"] < 1e-3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            capacity_curves([], _params(0.5, 1.0))
        for grids in (([], [1.0]), ([0.5], [])):
            with pytest.raises(ValueError, match="grids must be non-empty"):
                cs_gamma_sweep(*grids)

    def test_bsc_reference_saturates_at_high_snr(self):
        # Q(100) is 0.0 in double precision, and h2(0) = 0
        assert capacity_curves([1e4], _params(0.5, 1.0))[0]["bsc_ref"] == 1.0

    def test_nonpositive_snr_rejected(self):
        with pytest.raises(ValueError):
            capacity_curves([1.0, 0.0], _params(0.5, 1.0))

    @pytest.mark.parametrize("snr", [math.nan, math.inf])
    def test_non_finite_snr_rejected(self, snr):
        with pytest.raises(ValueError, match="SNR values must be finite"):
            capacity_curves([1.0, snr], _params(0.5, 1.0))

    def test_gamma_sweep_shape_and_boundary(self):
        rows = cs_gamma_sweep([0.5, 1.0, 1.5], [1.0])
        assert len(rows) == 3
        assert rows[0]["c_s"] > 0.0
        assert rows[1]["c_s"] == pytest.approx(0.0, abs=1e-9)
        assert rows[2]["c_s"] == 0.0

    # every grid goes through one kernel call; each cell must equal its own
    # single-point call exactly

    @pytest.mark.parametrize("gg, gn", [(0.5, 1.0), (0.0, 2.0), (1.3, 0.4)])
    def test_curves_equal_pointwise(self, gg, gn):
        snr = [1e-4, 0.1, 1.0, 3.7, 10.0]
        rows = capacity_curves(snr, _params(gg, gn))
        for value, row in zip(snr, rows):
            root = math.sqrt(value)
            cb, ce = mi_biawgn(root, 1.0), mi_biawgn(gg * root, gn)
            assert (row["c_bob"], row["c_eve"], row["c_s"]) == (cb, ce, max(cb - ce, 0.0))
            assert type(row["c_bob"]) is float and type(row["c_eve"]) is float

    def test_gamma_sweep_equals_pointwise(self):
        gg_grid, gn_grid, n0, e0 = [0.0, 0.3, 1.2], np.array([0.5, 2.0]), 0.7, 1.3
        rows = cs_gamma_sweep(gg_grid, gn_grid, n0=n0, e0=e0)
        cb = mi_biawgn(e0, n0)
        want = [max(cb - mi_biawgn(gg * e0, gn * n0), 0.0) for gg in gg_grid for gn in gn_grid]
        assert [row["c_s"] for row in rows] == want
        assert rows[0]["c_s"] == cb > 0.0  # gamma_g = 0: Eve learns nothing

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: cs_gamma_sweep([0.5], [1.0, 0.0]), "gamma_n must be > 0, got 0.0"),
            (lambda: cs_gamma_sweep([0.5, -0.1], [1.0]), "gamma_g must be >= 0, got -0.1"),
            (lambda: cs_gamma_sweep([math.nan], [1.0]), "gamma_g must be finite, got nan"),
            (
                lambda: capacity_curves([1.0, math.nan], _params(0.5, 1.0)),
                "SNR values must be finite and > 0, got nan",
            ),
            (
                lambda: capacity_curves([2.0, -1.0], _params(0.5, 1.0)),
                "SNR values must be finite and > 0, got -1.0",
            ),
        ],
    )
    def test_bad_cell_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
