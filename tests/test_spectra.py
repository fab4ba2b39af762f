"""Tests for the risk-aversion spectra: admissibility and closed-form integrals."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate

from specrisk import ExpectedShortfallSpectrum, ExponentialSpectrum

K_GRID = (1.0, 5.0, 10.0, 20.0, 100.0, 200.0)
SMALL_K = (1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0)


def _decimal_series(first, ratio, denominator) -> Decimal:
    """sum_j first * prod_{i<=j} ratio(i) / denominator(j), j >= 0, to 40 digits."""
    total, term, j = Decimal(0), first, 0
    while abs(term) > Decimal(10) ** -60:
        total += term / denominator(j)
        j += 1
        term *= ratio(j)
    return total


def _decimal_moments(k: float, s: float) -> tuple[float, float]:
    """log_moment and power_moment(s) of ExponentialSpectrum(k) at 40 digits.

    Ein(k) = sum_{j>=1} (-1)^(j+1) k^j / (j j!) and
    k^s gamma(1-s, k) = k sum_{j>=0} (-k)^j / (j! (1-s+j)), each over
    1 - e^-k; Decimal holds the float inputs exactly.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        kd, sd = Decimal(k), Decimal(s)
        neg_expm1 = 1 - (-kd).exp()
        ein = _decimal_series(kd, lambda j: -kd / (j + 1), lambda j: j + 1)
        power = _decimal_series(kd, lambda j: -kd / j, lambda j: 1 - sd + j)
        return float(ein / neg_expm1), float(power / neg_expm1)


class TestExponentialSpectrum:
    def test_normalization_is_exact(self):
        for k in K_GRID:
            assert ExponentialSpectrum(k).segment_integral(0.0, 1.0) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_half_segment_closed_form(self):
        # (1 - e^{-1/2}) / (1 - e^{-1}), evaluated independently
        expected = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
        assert ExponentialSpectrum(1.0).segment_integral(0.5, 1.0) == pytest.approx(
            expected, rel=1e-15
        )

    def test_empty_segment(self):
        assert ExponentialSpectrum(3.0).segment_integral(0.4, 0.4) == 0.0

    def test_additivity_over_partitions(self):
        rng = np.random.default_rng(3)
        for k in K_GRID:
            spec = ExponentialSpectrum(k)
            for _ in range(5):
                cuts = np.sort(rng.uniform(0, 1, size=30))
                grid = np.concatenate(([0.0], cuts, [1.0]))
                total = float(np.sum(spec.segment_integral(grid[:-1], grid[1:])))
                assert abs(total - 1.0) <= 1e-12

    def test_admissible_weight_function(self):
        u = np.linspace(0.0, 1.0, 201)
        for k in K_GRID:
            spec = ExponentialSpectrum(k)
            phi = spec.phi(u)
            assert np.all(phi >= 0)
            assert np.all(np.diff(phi) >= 0)
            total, _ = integrate.quad(spec.phi, 0.0, 1.0)
            assert total == pytest.approx(1.0, rel=1e-9)

    def test_uniform_limit(self):
        spec = ExponentialSpectrum(0.0)
        assert spec.phi(0.3) == 1.0
        assert spec.segment_integral(0.2, 0.7) == pytest.approx(0.5, abs=1e-15)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ExponentialSpectrum(-1.0)

    @pytest.mark.parametrize("k", [0.0, 1.0, 20.0, 200.0])
    def test_decay_integrals_match_quadrature(self, k):
        spec = ExponentialSpectrum(k)
        for a, b in ((0.0, 1.0), (0.1, 0.35), (0.8, 0.999)):
            one, _ = integrate.quad(lambda u: (1 - u) * spec.phi(u), a, b, epsrel=1e-12)
            assert spec.decay_integral(a, b) == pytest.approx(one, rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("k", SMALL_K)
    def test_log_moment_matches_decimal_series(self, k):
        # the direct gamma + ln k + E1(k) loses digits here: 1.7e-3 at k = 1e-12
        expected, _ = _decimal_moments(k, 0.0)
        assert ExponentialSpectrum(k).log_moment() == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k", SMALL_K)
    @pytest.mark.parametrize("s", [0.01, 0.5, 0.99])
    def test_power_moment_matches_decimal_series(self, k, s):
        _, expected = _decimal_moments(k, s)
        assert ExponentialSpectrum(k).power_moment(s) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_uniform_limit_moments(self):
        spec = ExponentialSpectrum(0.0)
        assert spec.log_moment() == 1.0
        assert spec.power_moment(0.0) == 1.0
        assert spec.power_moment(0.75) == 4.0

    @pytest.mark.parametrize("s", [-0.1, 1.0, 2.0])
    def test_power_moment_needs_s_below_one(self, s):
        for spec in (ExponentialSpectrum(1.0), ExpectedShortfallSpectrum(0.5)):
            with pytest.raises(ValueError, match="0 <= s < 1"):
                spec.power_moment(s)


class TestExpectedShortfallSpectrum:
    def test_segment_integral(self):
        spec = ExpectedShortfallSpectrum(0.9)
        assert spec.segment_integral(0.0, 0.9) == 0.0
        assert spec.segment_integral(0.9, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert spec.segment_integral(0.95, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_straddling_segment(self):
        spec = ExpectedShortfallSpectrum(0.9)
        assert spec.segment_integral(0.85, 0.95) == pytest.approx(0.5, rel=1e-12)

    def test_decay_integral_matches_quadrature(self):
        spec = ExpectedShortfallSpectrum(0.8)
        val, _ = integrate.quad(lambda u: (1 - u) * spec.phi(u), 0.0, 1.0, points=[0.8])
        assert spec.decay_integral(0.0, 1.0) == pytest.approx(val, rel=1e-9)

    def test_invalid_level(self):
        with pytest.raises(ValueError, match="tail level"):
            ExpectedShortfallSpectrum(1.0)

    def test_segment_bounds_checked(self):
        with pytest.raises(ValueError, match="segment bounds"):
            ExpectedShortfallSpectrum(0.5).segment_integral(0.7, 0.2)
