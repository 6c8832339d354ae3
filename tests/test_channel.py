import math
import re

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from satwiretap.channel import (
    WiretapChannelParams,
    density_bob,
    density_eve,
    mixture_density_bob,
    mixture_density_eve,
    ndtr,
)
from satwiretap.capacity import secrecy_capacity
from satwiretap.figures import density_rows
from satwiretap.leakage import e0, psi
from satwiretap.quadrature import integrate
from satwiretap.sim import EveQuantizer

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _params(gg=0.5, gn=1.0, n0=1.0, e0=1.0):
    return WiretapChannelParams(gamma_g=gg, gamma_n=gn, n0=n0, e0=e0)


class TestParams:
    def test_derived_quantities(self):
        p = _params(gg=0.5, gn=2.0, n0=0.5, e0=2.0)
        assert p.bob_amplitude == 2.0
        assert p.bob_noise_var == 0.5
        assert p.eve_amplitude == pytest.approx(1.0)
        assert p.eve_noise_var == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma_g": -0.1},
            {"gamma_n": 0.0},
            {"n0": 0.0},
            {"e0": -1.0},
            {"gamma_g": math.inf},
            {"gamma_g": math.nan},
            {"gamma_n": math.inf},
            {"n0": math.nan},
            {"e0": -math.inf},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        base = dict(gamma_g=0.5, gamma_n=1.0, n0=1.0, e0=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            WiretapChannelParams(**base)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"e0": 1e101}, "e0"),
            ({"n0": 1e201}, "sqrt(n0)"),
            ({"e0": 1e-50, "n0": 1e-301}, "e0/sqrt(n0)"),
            ({"gamma_g": 1e308}, "gamma_g*e0"),
            ({"gamma_n": 1e201}, "sqrt(gamma_n*n0)"),
            ({"gamma_g": 1e-10, "gamma_n": 1e-300, "n0": 1e-1}, "gamma_g*e0/sqrt(gamma_n*n0)"),
            ({"gamma_n": 1e-200, "n0": 1e-200}, "gamma_n*n0 underflows"),
        ],
    )
    def test_scales_past_the_cap_name_their_field(self, kwargs, field):
        base = dict(gamma_g=0.5, gamma_n=1.0, n0=1.0, e0=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError, match=re.escape(field)):
            WiretapChannelParams(**base)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma_g": 1e100},
            {"e0": 1e100},
            {"gamma_g": 1e100, "gamma_n": 1e-100, "n0": 1e100},
            {"gamma_g": 1e-10, "gamma_n": 1e-180, "n0": 1e-20},
            {"gamma_g": 0.0, "gamma_n": 1e-300, "n0": 1e-20},
        ],
    )
    def test_kernels_stay_finite_up_to_the_cap(self, kwargs):
        base = dict(gamma_g=0.5, gamma_n=1.0, n0=1.0, e0=1.0)
        base.update(kwargs)
        p = WiretapChannelParams(**base)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cells = [secrecy_capacity(p).c_s, e0(0.5, p), psi(1.0, p)]
            for side in ("bob", "eve"):
                cells += density_rows(side, p, points=9)[4].values()
            cells += EveQuantizer().level_probs(1.0, p).tolist()
        assert all(math.isfinite(cell) for cell in cells)


class TestDensities:
    def test_bob_peak(self):
        assert density_bob(1.0, +1, _params()) == pytest.approx(INV_SQRT_2PI, rel=1e-12)

    def test_bob_midpoint(self):
        expected = math.exp(-0.5) * INV_SQRT_2PI
        assert density_bob(0.0, +1, _params()) == pytest.approx(expected, rel=1e-12)

    def test_bob_sign_symmetry(self):
        rng = np.random.default_rng(3)
        p = _params(n0=0.7, e0=1.3)
        for y in rng.normal(size=20):
            assert density_bob(y, +1, p) == pytest.approx(density_bob(-y, -1, p), rel=1e-12)

    def test_eve_equals_bob_when_undegraded(self):
        p = _params(gg=1.0, gn=1.0)
        for z in np.linspace(-4.0, 4.0, 17):
            assert density_eve(z, +1, p) == pytest.approx(density_bob(z, +1, p), rel=1e-14)
            assert density_eve(z, -1, p) == pytest.approx(density_bob(z, -1, p), rel=1e-14)

    def test_eve_peak_at_scaled_amplitude(self):
        p = _params(gg=0.5, gn=1.0)
        assert density_eve(0.5, +1, p) == pytest.approx(INV_SQRT_2PI, rel=1e-12)

    @pytest.mark.parametrize("x", [+1, -1])
    def test_eve_density_normalized(self, x):
        p = _params(gg=0.5, gn=2.0)
        span = p.eve_amplitude + 10.0 * math.sqrt(p.eve_noise_var)
        total = integrate(lambda z: density_eve(z, x, p), -span, span)
        assert abs(total - 1.0) < 1e-9

    def test_bob_density_normalized(self):
        p = _params(n0=0.5, e0=2.0)
        span = p.bob_amplitude + 10.0 * math.sqrt(p.bob_noise_var)
        total = integrate(lambda y: density_bob(y, -1, p), -span, span)
        assert abs(total - 1.0) < 1e-9

    def test_invalid_symbol_rejected(self):
        with pytest.raises(ValueError):
            density_bob(0.0, 2, _params())
        with pytest.raises(ValueError):
            density_eve(0.0, 0, _params())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "density, name",
        [
            (lambda u, p: density_bob(u, 1, p), "y"),
            (lambda u, p: density_bob(u, -1, p), "y"),
            (lambda u, p: density_eve(u, 1, p), "z"),
            (lambda u, p: density_eve(u, -1, p), "z"),
            (mixture_density_bob, "y"),
            (mixture_density_eve, "z"),
        ],
    )
    def test_non_finite_observation_is_named(self, density, name, bad):
        p = _params()
        for u in (bad, [0.0, bad], np.array([[1.5, -2.0], [bad, 0.0]])):
            with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad}$"):
                density(u, p)
        assert np.isfinite(density([0.0, -3.0, 40.0], p)).all()

    def test_rescaled_eve_change_of_variables(self):
        # Z' = Z / sqrt(gamma_n) has amplitude gamma_g E0 / sqrt(gamma_n), noise N0
        p = _params(gg=0.5, gn=2.0)
        root = math.sqrt(p.gamma_n)
        amp, var = p.gamma_g * p.e0 / root, p.n0
        for z in np.linspace(-3.0, 3.0, 13):
            direct = density_eve(z, +1, p) * root
            rescaled = (
                math.exp(-((z / root - amp) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
            )
            assert direct == pytest.approx(rescaled, rel=1e-12)

    @pytest.mark.parametrize("x", [+1, -1])
    @pytest.mark.parametrize("gg, gn", [(0.0, 1.0), (0.3, 2.0), (1.2, 0.5), (3.0, 9.0)])
    def test_rescaled_eve_density_across_channels(self, gg, gn, x):
        p = _params(gg=gg, gn=gn, n0=0.7, e0=1.5)
        root = math.sqrt(p.gamma_n)
        amp, var = x * p.gamma_g * p.e0 / root, p.n0
        for z in np.linspace(-4.0, 4.0, 17):
            direct = density_eve(z, x, p) * root
            rescaled = (
                math.exp(-((z / root - amp) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
            )
            assert direct == pytest.approx(rescaled, rel=1e-12)


class TestMixtures:
    def test_even_functions(self):
        p = _params(gg=0.7, gn=1.4, n0=0.8)
        for u in np.linspace(0.1, 3.0, 7):
            assert mixture_density_bob(u, p) == pytest.approx(mixture_density_bob(-u, p), rel=1e-14)
            assert mixture_density_eve(u, p) == pytest.approx(mixture_density_eve(-u, p), rel=1e-14)

    def test_bob_mixture_at_origin(self):
        expected = math.exp(-0.5) * INV_SQRT_2PI
        assert mixture_density_bob(0.0, _params()) == pytest.approx(expected, rel=1e-12)

    def test_degraded_eve_less_bimodal(self):
        p = _params(gg=0.5, gn=1.0)
        assert mixture_density_eve(0.0, p) > mixture_density_bob(0.0, p)

    def test_mixture_normalized(self):
        p = _params(gg=0.5, gn=2.0)
        span = p.eve_amplitude + 10.0 * math.sqrt(p.eve_noise_var)
        total = integrate(lambda z: mixture_density_eve(z, p), -span, span)
        assert abs(total - 1.0) < 1e-9


class TestNdtr:
    def test_matches_scipy_over_both_tails(self):
        xs = np.linspace(-37.0, 37.0, 74_001)
        ours = np.array([ndtr(x) for x in xs])
        assert np.all(ours > 0.0)
        np.testing.assert_allclose(ours, scipy.special.ndtr(xs), rtol=1e-12, atol=0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetric_to_four_ulp(self, x):
        assert abs(ndtr(x) + ndtr(-x) - 1.0) <= 4 * math.ulp(1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-40.0, max_value=40.0), st.floats(min_value=0.0, max_value=80.0))
    def test_monotone_non_decreasing(self, x, step):
        # the neighbour below x catches a drop where the two branches meet at |x| = 1
        assert ndtr(math.nextafter(x, -math.inf)) <= ndtr(x) <= ndtr(x + step)
