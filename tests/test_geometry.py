import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satwiretap.geometry import (
    GeometryConfig,
    alpha,
    beta,
    eve_stronger,
    gamma_g,
    protected_region_map,
)


class TestBeta:
    def test_equal_distances_free_space(self):
        assert beta(2.0, 1000.0, 1000.0) == 1.0

    def test_distance_ratio_free_space(self):
        assert beta(2.0, 1000.0, 2000.0) == pytest.approx(0.5, abs=1e-15)

    def test_steeper_exponent_closed_form(self):
        # sqrt(500^2 / 500^2.2) = 500^-0.1
        val = beta(2.2, 500.0, 500.0)
        assert val == pytest.approx(500.0**-0.1, rel=1e-12)
        assert abs(val - 0.5365) < 1e-3

    def test_unity_for_any_equal_distance(self):
        for rho in (0.5, 3.0, 1e4):
            assert beta(2.0, rho, rho) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("rho_b,rho_e", [(0.0, 1.0), (1.0, 0.0), (-2.0, 1.0)])
    def test_nonpositive_distance_rejected(self, rho_b, rho_e):
        with pytest.raises(ValueError):
            beta(2.0, rho_b, rho_e)

    def test_small_exponent_rejected(self):
        with pytest.raises(ValueError):
            beta(1.5, 1.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 600), st.integers(1, 10**160), st.integers(1, 10**160))
    def test_int_and_float_inputs_agree(self, r, rho_b, rho_e):
        # int powers are exact where float powers overflow or underflow
        exact = beta(r, rho_b, rho_e)
        assert beta(float(r), float(rho_b), float(rho_e)) == pytest.approx(exact, rel=1e-11)

    def test_overflowing_powers_take_the_log_form(self):
        assert beta(400, 1000, 2000) == beta(400.0, 1000.0, 2000.0) == 0.0
        assert beta(2.0, 1e200, 1.0) == pytest.approx(1e200, rel=1e-13)
        assert beta(3.0, 7.0, 1e110) == pytest.approx(7e-165, rel=1e-13)

    def test_beta_past_the_float_range_names_its_inputs(self):
        with pytest.raises(ValueError, match=r"r=2.0, rho_b_km=1e\+308, rho_e_km=1e-10"):
            beta(2.0, 1e308, 1e-10)


class TestAlpha:
    def test_clamp_boundary(self):
        assert alpha(1.0, 2.0) == 1.0

    def test_power_decay(self):
        assert alpha(10.0, 2.0) == pytest.approx(0.01, rel=1e-14)

    def test_clamped_below_one_degree(self):
        # raw value 0.5^-3 = 8 is capped
        assert alpha(0.5, 3.0) == 1.0

    def test_zero_angle_no_singularity(self):
        assert alpha(0.0, 2.0) == 1.0

    def test_negative_angle_rejected(self):
        with pytest.raises(ValueError):
            alpha(-1.0, 2.0)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    def test_nonpositive_exponent_rejected(self, a):
        with pytest.raises(ValueError, match="antenna exponent a must be > 0"):
            alpha(2.0, a)


def _config(**kwargs):
    base = dict(rho_b_km=1000.0, rho_e_km=1000.0, theta_e_deg=1.0, r=2.0, a=2.0, mu=1.0)
    base.update(kwargs)
    return GeometryConfig(**base)


class TestGammaG:
    def test_all_unity(self):
        assert gamma_g(_config()) == 1.0

    def test_component_arithmetic(self):
        cfg = _config(theta_e_deg=10.0, rho_e_km=500.0)
        assert gamma_g(cfg) == pytest.approx(0.02, rel=1e-12)

    def test_mu_scaling(self):
        cfg = _config(theta_e_deg=2.0, mu=0.5)
        assert gamma_g(cfg) == pytest.approx(0.125, rel=1e-12)

    def test_linear_in_mu(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            theta = float(rng.uniform(0.0, 20.0))
            ratio = float(rng.uniform(0.05, 5.0))
            mu = float(rng.uniform(0.1, 1.0))
            full = gamma_g(_config(theta_e_deg=theta, rho_e_km=1000.0 * ratio, mu=mu))
            unit = gamma_g(_config(theta_e_deg=theta, rho_e_km=1000.0 * ratio, mu=1.0))
            assert full == pytest.approx(mu * unit, rel=1e-12)

    def test_nonincreasing_in_angle(self):
        thetas = np.linspace(1.0, 30.0, 30)
        vals = [gamma_g(_config(theta_e_deg=float(t))) for t in thetas]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_nonincreasing_in_eve_distance(self):
        rhos = np.linspace(100.0, 5000.0, 25)
        vals = [gamma_g(_config(rho_e_km=float(rho))) for rho in rhos]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestEveStronger:
    def test_boundary_is_not_stronger(self):
        assert eve_stronger(_config()) is False

    def test_close_eve_is_stronger(self):
        cfg = _config(rho_e_km=100.0)
        assert gamma_g(cfg) == pytest.approx(10.0, rel=1e-12)
        assert eve_stronger(cfg) is True

    def test_wide_angle_not_stronger(self):
        assert eve_stronger(_config(theta_e_deg=10.0)) is False

    def test_matches_gamma_g_pointwise(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cfg = _config(
                theta_e_deg=float(rng.uniform(0.0, 15.0)),
                rho_e_km=float(rng.uniform(50.0, 3000.0)),
                mu=float(rng.uniform(0.05, 1.0)),
            )
            assert eve_stronger(cfg) == (gamma_g(cfg) > 1.0)


class TestConfigValidation:
    def test_mu_above_one_rejected(self):
        with pytest.raises(ValueError):
            _config(mu=1.5)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            _config(theta_e_deg=-0.1)

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            _config(r=1.9)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            _config(rho_b_km=0.0)

    def test_nonpositive_antenna_exponent_rejected(self):
        with pytest.raises(ValueError, match="antenna exponent a must be > 0"):
            _config(a=0.0)

    def test_unrepresentable_beta_rejected_when_built(self):
        # the domain is beta's, so the config fails where gamma_g would
        with pytest.raises(ValueError, match="beta overflows a float"):
            _config(rho_b_km=1e308, rho_e_km=1e-10)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rho_b_km", math.inf),
            ("rho_e_km", math.nan),
            ("theta_e_deg", math.nan),
            ("r", math.inf),
            ("a", math.inf),
            ("mu", math.nan),
        ],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            _config(**{field: value})


class TestProtectedRegionMap:
    def test_single_unity_cell(self):
        rows = protected_region_map([1.0], [1.0], r=2.0, a=2.0, mu=1.0)
        assert len(rows) == 1
        assert rows[0]["gamma_g"] == pytest.approx(1.0)
        assert rows[0]["protected"] == 0

    def test_wide_angle_cell_protected(self):
        rows = protected_region_map([10.0], [1.0], r=2.0, a=2.0, mu=1.0)
        assert rows[0]["gamma_g"] == pytest.approx(0.01, rel=1e-12)
        assert rows[0]["protected"] == 1

    def test_row_major_order_and_size(self):
        thetas = [1.0, 5.0, 9.0]
        ratios = [0.5, 1.0]
        rows = protected_region_map(thetas, ratios, r=2.0, a=2.0, mu=1.0)
        assert len(rows) == 6
        assert [row["theta_deg"] for row in rows[:2]] == [1.0, 1.0]
        assert [row["rho_ratio"] for row in rows[:2]] == [0.5, 1.0]

    def test_monotone_in_theta_per_column(self):
        thetas = np.linspace(1.0, 20.0, 12)
        rows = protected_region_map(thetas, [0.7], r=2.0, a=2.0, mu=1.0)
        vals = [row["gamma_g"] for row in rows]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_free_space_depends_only_on_ratio(self):
        a = protected_region_map([2.0], [0.3], r=2.0, a=2.0, mu=1.0, rho_b_km=1.0)
        b = protected_region_map([2.0], [0.3], r=2.0, a=2.0, mu=1.0, rho_b_km=35786.0)
        assert a[0]["gamma_g"] == pytest.approx(b[0]["gamma_g"], rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            protected_region_map([], [1.0], r=2.0, a=2.0, mu=1.0)

    @pytest.mark.parametrize("mu", [-0.1, 1.5])
    def test_mu_outside_unit_interval_rejected(self, mu):
        with pytest.raises(ValueError, match="mu must lie in"):
            protected_region_map([1.0], [1.0], r=2.0, a=2.0, mu=mu)

    @pytest.mark.parametrize("ratio", [0.0, -0.5])
    def test_nonpositive_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="distance ratios must be > 0"):
            protected_region_map([1.0], [1.0, ratio], r=2.0, a=2.0, mu=1.0)

    @pytest.mark.parametrize(
        "field, thetas, ratios, kwargs",
        [
            ("theta_e_deg", [math.nan], [1.0], {}),
            ("theta_e_deg", [1.0, math.inf], [1.0], {}),
            ("rho_ratio", [1.0], [math.nan], {}),
            ("rho_ratio", [1.0], [0.5, math.inf], {}),
            ("r", [1.0], [1.0], {"r": math.nan}),
            ("a", [1.0], [1.0], {"a": math.inf}),
            ("rho_b_km", [1.0], [1.0], {"rho_b_km": math.nan}),
        ],
    )
    def test_non_finite_rejected(self, field, thetas, ratios, kwargs):
        params = {"r": 2.0, "a": 2.0, "mu": 1.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            protected_region_map(thetas, ratios, **params)

    def test_rows_hold_python_numbers(self):
        rows = protected_region_map(np.array([0.5, 3.0]), np.array([0.2, 1.0]), 2.2, 2.0, 0.5)
        for row in rows:
            assert [type(v) for v in row.values()] == [float, float, float, int]

    def test_cells_equal_pointwise_gamma_g(self):
        thetas, ratios = np.linspace(0.5, 8.0, 7), np.logspace(-2, 0, 5)
        rows = protected_region_map(thetas, ratios, r=2.2, a=2.0, mu=0.1, rho_b_km=1000.0)
        want = [
            alpha(float(t), 2.0) * 0.1 * beta(2.2, 1000.0, float(q) * 1000.0)
            for t in thetas
            for q in ratios
        ]
        assert [row["gamma_g"] for row in rows] == want


class TestNonFiniteArguments:
    @pytest.mark.parametrize(
        "field, args",
        [("theta_e_deg", (math.inf, 2.0)), ("theta_e_deg", (math.nan, 2.0)), ("a", (2.0, math.nan))],
    )
    def test_alpha(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            alpha(*args)

    @pytest.mark.parametrize(
        "field, args",
        [
            ("rho_e_km", (2.0, 1.0, math.inf)),
            ("rho_b_km", (2.0, math.nan, 1.0)),
            ("r", (math.nan, 1.0, 1.0)),
            ("r", (math.inf, 1.0, 1.0)),
        ],
    )
    def test_beta(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            beta(*args)
