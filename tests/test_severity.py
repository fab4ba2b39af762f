"""Tests for severity models, window transforms, generators and oracles."""

import math

import numpy as np
import pytest
from scipy import special, stats

from specrisk import (
    DependentModelConfig,
    ExponentialSpectrum,
    GenerationError,
    NumericalError,
    SeverityModel,
    TruncationLaw,
    WindowScheme,
    calibrate_truncation_location,
    dependent_censoring_fraction,
    ground_up_quantile,
    sample_dependent_marginal,
    sample_ltrc_dependent,
    sample_ltrc_iid,
    theoretical_srm,
    window_quantile,
)
from specrisk.severity import _ar1, _dependent_batch, _retained, window_branch_point

EXP = SeverityModel.shifted_exponential(1000.0, 1000.0)
PARETO = SeverityModel.pareto_i(1000.0, 2.0)
WINDOW = WindowScheme.fixed(4000.0, 14000.0)


def exp_srm_closed_form(x0: float, theta: float, k: float) -> float:
    """Independent oracle: x0 + theta (gamma + ln k + E1(k)) / (1 - e^-k)."""
    return x0 + theta * (np.euler_gamma + math.log(k) + float(special.exp1(k))) / -math.expm1(-k)


def pareto_srm_closed_form(x0: float, alpha: float, k: float) -> float:
    """Independent oracle: x0 k^{1/a} Gamma(1-1/a) P(1-1/a, k) / (1 - e^-k)."""
    a = 1.0 - 1.0 / alpha
    lower_gamma = float(special.gamma(a) * special.gammainc(a, k))
    return x0 * k ** (1.0 / alpha) * lower_gamma / -math.expm1(-k)


class TestGroundUpQuantile:
    def test_left_endpoint(self):
        assert ground_up_quantile(EXP, 0.0) == 1000.0

    def test_exponential_inversion(self):
        assert ground_up_quantile(EXP, 1.0 - math.exp(-1.0)) == pytest.approx(2000.0, rel=1e-12)

    def test_pareto_inversion(self):
        assert ground_up_quantile(PARETO, 0.75) == pytest.approx(2000.0, rel=1e-12)

    def test_strictly_increasing(self):
        p = np.linspace(0.0, 0.999, 200)
        for model in (EXP, PARETO):
            q = ground_up_quantile(model, p)
            assert np.all(np.diff(q) > 0)

    def test_domain_errors(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                ground_up_quantile(EXP, bad)

    @pytest.mark.parametrize("model", [EXP, PARETO], ids=["exp", "pareto"])
    @pytest.mark.parametrize("p", [math.nan, np.array([0.5, np.nan])], ids=["float", "array"])
    def test_nan_level_rejected(self, model, p):
        with pytest.raises(ValueError, match=r"quantile level must lie in \[0, 1\)"):
            ground_up_quantile(model, p)

    def test_overflow_gives_inf_as_the_array_path_does(self):
        model = SeverityModel.pareto_i(1000.0, 0.001)
        with np.errstate(over="ignore"):
            array_value = ground_up_quantile(model, np.array([0.9]))
        assert array_value.tolist() == [math.inf]
        assert ground_up_quantile(model, 0.9) == math.inf

    def test_model_validation(self):
        with pytest.raises(ValueError, match="theta"):
            SeverityModel.shifted_exponential(1000.0, -1.0)
        with pytest.raises(ValueError, match="alpha"):
            SeverityModel.pareto_i(1000.0, 0.0)
        with pytest.raises(ValueError, match="x0"):
            SeverityModel.pareto_i(-5.0, 2.0)


class TestWindowQuantile:
    def test_lower_branch_at_zero(self):
        assert window_quantile(EXP, WINDOW, 0.0) == 4000.0

    def test_branch_boundary_maps_to_limit(self):
        p = -math.expm1(-10.0)  # the exact branch point for this window
        assert window_quantile(EXP, WINDOW, p) == 14000.0
        assert window_quantile(EXP, WINDOW, 1.0) == 14000.0

    def test_pareto_body_value(self):
        # d (1-p)^{-1/alpha} evaluated directly
        expected = 4000.0 * (1.0 - 0.5) ** (-1.0 / 2.0)
        assert window_quantile(PARETO, WINDOW, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_nondecreasing_and_capped(self):
        p = np.linspace(0.0, 1.0, 2001)
        for model in (EXP, PARETO):
            q = window_quantile(model, WINDOW, p)
            assert np.all(np.diff(q) >= 0)
            branch = window_branch_point(model, WINDOW)
            assert np.all(q[p >= branch] == 14000.0)

    @pytest.mark.parametrize("model", [EXP, PARETO], ids=["exp", "pareto"])
    @pytest.mark.parametrize("p", [math.nan, np.array([0.5, np.nan])], ids=["float", "array"])
    def test_nan_level_rejected(self, model, p):
        # a NaN level compared false against the branch point and read the limit
        with pytest.raises(ValueError, match=r"quantile level must lie in \[0, 1\]"):
            window_quantile(model, WINDOW, p)

    def test_overflow_gives_inf_without_a_limit(self):
        model = SeverityModel.pareto_i(1000.0, 0.001)
        scheme = WindowScheme.fixed(4000.0, math.inf)
        with np.errstate(over="ignore"):
            array_value = window_quantile(model, scheme, np.array([0.9]))
        assert array_value.tolist() == [math.inf]
        assert window_quantile(model, scheme, 0.9) == math.inf

    def test_invalid_scheme(self):
        with pytest.raises(ValueError, match="below the policy limit"):
            WindowScheme.fixed(5000.0, 5000.0)
        with pytest.raises(ValueError, match="left endpoint"):
            window_quantile(EXP, WindowScheme.fixed(500.0, 14000.0), 0.5)


class TestIidSampling:
    def test_deterministic_given_seed(self):
        a = sample_ltrc_iid(EXP, WINDOW, 5, seed=42)
        b = sample_ltrc_iid(EXP, WINDOW, 5, seed=42)
        assert np.array_equal(a.y, b.y) and np.array_equal(a.t, b.t)
        assert np.array_equal(a.delta, b.delta)

    def test_fixed_mode_window_invariants(self):
        s = sample_ltrc_iid(EXP, WINDOW, 2000, seed=1)
        assert len(s) == 2000
        assert np.all(s.t == 4000.0)
        assert np.all((s.y > 4000.0) & (s.y <= 14000.0))
        assert np.array_equal(s.delta == 1, s.y < 14000.0)

    def test_exponential_censoring_fraction(self):
        # censoring probability e^{-10} ~ 4.5e-5: expect a handful at n=1e5
        s = sample_ltrc_iid(EXP, WINDOW, 100_000, seed=7)
        frac = 1.0 - s.delta.mean()
        assert frac < 5e-4

    def test_pareto_censoring_fraction(self):
        # censoring probability (4/14)^2 ~ 0.0816
        s = sample_ltrc_iid(PARETO, WINDOW, 100_000, seed=7)
        expected = (4.0 / 14.0) ** 2
        se = math.sqrt(expected * (1 - expected) / 100_000)
        assert 1.0 - s.delta.mean() == pytest.approx(expected, abs=4 * se)

    def test_acceptance_rate_matches_survival_at_deductible(self):
        # the generator accepts exactly when X > d
        rng = np.random.default_rng(11)
        x = ground_up_quantile(EXP, rng.random(1_000_000))
        rate = float(np.mean(x > 4000.0))
        expected = math.exp(-3.0)
        se = math.sqrt(expected * (1 - expected) / 1_000_000)
        assert rate == pytest.approx(expected, abs=3 * se)
        assert 1.0 - EXP.cdf(4000.0) == pytest.approx(expected, rel=1e-12)

    def test_random_truncation_mode(self):
        scheme = WindowScheme.random_truncation(TruncationLaw(0.0, 2500.0), 14000.0)
        s = sample_ltrc_iid(EXP, scheme, 500, seed=3)
        assert len(s) == 500
        assert np.all(s.t <= s.y)
        assert np.all(s.t <= 2500.0)

    def test_acceptance_floor_aborts(self):
        deep = WindowScheme.fixed(1000.0 + 15_000.0, 50_000.0)  # survival e^{-15}
        with pytest.raises(GenerationError, match="below floor"):
            sample_ltrc_iid(EXP, deep, 10, seed=0)

    def test_no_acceptances_aborts(self):
        # every truncation value lies above the limit, so no pair has t <= y
        scheme = WindowScheme.random_truncation(TruncationLaw(20_000.0, 30_000.0), 14000.0)
        with pytest.raises(GenerationError, match="no acceptances"):
            sample_ltrc_iid(EXP, scheme, 10, seed=0)


class TestAr1IsLfilter:
    """The covariate chain's loop gives scipy.signal.lfilter's floats, sign of zero included."""

    @pytest.mark.parametrize("rho", [0.0, 0.1, -0.5, 0.9, -0.999])
    @pytest.mark.parametrize("m", [1, 256, 200_000])
    def test_equals_lfilter(self, rho, m):
        from scipy import signal

        e = np.random.default_rng(m).standard_normal(m)
        e[::97] = 0.0
        e[1::101] = -0.0
        for x1_prev in (None, 0.7, -1.3, -0.0):
            if x1_prev is None:
                want = signal.lfilter([0.5], [1.0, -rho], e)
            else:
                want, _ = signal.lfilter([0.5], [1.0, -rho], e, zi=np.array([rho * x1_prev]))
            got = _ar1(e, rho, x1_prev)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_batches_continue_the_chain(self):
        # two batches from the carried state give one batch's chain
        cfg = DependentModelConfig(rho=0.3, mu=0.0)
        e = np.random.default_rng(8).standard_normal(700)
        whole = _ar1(e, cfg.rho, None)
        first = _ar1(e[:300], cfg.rho, None)
        second = _ar1(e[300:], cfg.rho, float(first[-1]))
        assert np.array_equal(np.concatenate((first, second)), whole)


class TestDependentModel:
    def test_zero_rho_gives_iid_covariates(self):
        cfg = DependentModelConfig(rho=0.0, mu=0.0)
        rng = np.random.default_rng(5)
        x1, _, _, _ = _dependent_batch(cfg, rng, 200_000, None)
        lag1 = float(np.corrcoef(x1[:-1], x1[1:])[0, 1])
        assert abs(lag1) <= 3.0 / math.sqrt(x1.size)
        assert np.var(x1) == pytest.approx(0.25, rel=0.02)

    def test_positive_rho_gives_matching_autocorrelation(self):
        cfg = DependentModelConfig(rho=0.5, mu=0.0)
        rng = np.random.default_rng(5)
        x1, _, _, _ = _dependent_batch(cfg, rng, 200_000, None)
        lag1 = float(np.corrcoef(x1[:-1], x1[1:])[0, 1])
        assert lag1 == pytest.approx(0.5, abs=0.01)

    def test_censoring_fraction_ten_percent(self):
        cfg = DependentModelConfig(rho=0.1, phi2=1.087, mu=0.0)
        rng = np.random.default_rng(17)
        _, x, s, _ = _dependent_batch(cfg, rng, 1_000_000, None)
        assert float(np.mean(x > s)) == pytest.approx(0.10, abs=0.001)

    def test_censoring_fraction_thirty_percent(self):
        cfg = DependentModelConfig(rho=0.1, phi2=0.445, mu=0.0)
        rng = np.random.default_rng(17)
        _, x, s, _ = _dependent_batch(cfg, rng, 1_000_000, None)
        assert float(np.mean(x > s)) == pytest.approx(0.30, abs=0.002)

    def test_analytic_censoring_fraction(self):
        assert dependent_censoring_fraction(0.3, 1.087, 0.3) == pytest.approx(0.10, abs=1e-3)
        assert dependent_censoring_fraction(0.3, 0.445, 0.3) == pytest.approx(0.30, abs=1e-3)
        direct = float(stats.norm.sf(5.0 * math.sqrt(2.0) * 1.087 / 6.0))
        assert dependent_censoring_fraction(0.3, 1.087, 0.3) == pytest.approx(direct, rel=1e-12)

    def test_analytic_censoring_fraction_is_norm_sf(self):
        # ndtr(-x) replaced stats.norm.sf(x): the same float on a grid with its
        # zeros, infinities and far tails
        x = np.concatenate((
            np.linspace(-40.0, 40.0, 200_001),
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 38.5, -38.5],
        ))
        got, want = special.ndtr(-x), stats.norm.sf(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        phis = ((0.3, 1.087, 0.3), (0.3, 0.445, 0.3), (1e-3, 50.0, 2e-3), (5.0, 1e-9, 1.0))
        for phi1, phi2, phi3 in phis:
            want = float(stats.norm.sf(0.5 * phi2 / math.hypot(phi1, phi3)))
            assert dependent_censoring_fraction(phi1, phi2, phi3) == want

    def test_config_validates_pc_target(self):
        with pytest.raises(ValueError, match="censoring fraction"):
            DependentModelConfig(rho=0.1, phi2=0.445, target_censoring_pc=0.10)
        DependentModelConfig(rho=0.1, phi2=1.087, target_censoring_pc=0.10)

    def test_sampling_exact_size_and_retention(self):
        cfg = DependentModelConfig(rho=0.1, mu=0.66)
        s = sample_ltrc_dependent(cfg, 750, seed=9)
        assert len(s) == 750
        assert np.all(s.t <= s.y)
        a = sample_ltrc_dependent(cfg, 750, seed=9)
        assert np.array_equal(s.y, a.y)

    def test_no_acceptances_aborts(self):
        # truncation values near mu = 50 lie far above every loss of the model
        with pytest.raises(GenerationError, match="no acceptances"):
            sample_ltrc_dependent(DependentModelConfig(mu=50.0), 10, seed=0)


class TestRetentionLoop:
    """The accept-until-n loop that both LTRC samplers share."""

    @staticmethod
    def _counting_draw(keep_every: int, sizes: list):
        # column 0 counts every draw made so far; each batch keeps the
        # multiples of ``keep_every``, and column 1 rides along with column 0
        state = {"next": 0}

        def draw(m):
            sizes.append(m)
            x = np.arange(state["next"], state["next"] + m)
            state["next"] += m
            kept = x[x % keep_every == 0]
            return kept, -kept

        return draw

    def test_keeps_the_first_n_retained_in_draw_order(self):
        sizes = []
        first, second = _retained(700, 2, self._counting_draw(3, sizes))
        assert len(sizes) > 1
        assert np.array_equal(first, 3 * np.arange(700))
        assert np.array_equal(second, -first)

    def test_batch_is_oversample_times_the_shortfall_at_least_256(self):
        sizes = []
        _retained(1000, 4, self._counting_draw(5, sizes))
        # a batch of m draws from ``drawn`` on keeps the multiples of 5 it holds
        drawn = got = 0
        for m in sizes:
            assert m == max(256, 4 * (1000 - got))
            got += (drawn + m + 4) // 5 - (drawn + 4) // 5
            drawn += m
        assert sizes[0] == 4000 and sizes[-1] == 256

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            _retained(n, 2, self._counting_draw(1, []))

    @pytest.mark.parametrize(
        "sample",
        [
            lambda n: sample_ltrc_iid(EXP, WINDOW, n, seed=0),
            lambda n: sample_ltrc_dependent(DependentModelConfig(), n, seed=0),
        ],
        ids=["iid", "dependent"],
    )
    def test_samplers_reject_n_below_one(self, sample):
        with pytest.raises(ValueError, match="n must be at least 1"):
            sample(0)
        assert len(sample(1)) == 1

    def test_nothing_retained_aborts_after_10000_draws(self):
        sizes = []

        def draw(m):
            sizes.append(m)
            return (np.empty(0),)

        with pytest.raises(GenerationError, match="no acceptances in 10240 draws"):
            _retained(10, 2, draw)
        assert sizes == [256] * 40

    def test_rate_below_floor_aborts(self):
        # one acceptance, then none: the draws pass n / ACCEPTANCE_FLOOR = 2e6
        sizes = []

        def draw(m):
            sizes.append(m)
            return (np.ones(1 if len(sizes) == 1 else 0),)

        with pytest.raises(GenerationError, match="too low to produce 2 observations"):
            _retained(2, 2, draw)
        assert sum(sizes) > 2_000_000 >= sum(sizes[:-1])


class TestCalibration:
    def test_reproduces_target_rate_on_independent_seed(self):
        cfg = DependentModelConfig(rho=0.1, mu=0.0)
        mu = calibrate_truncation_location(cfg, 0.30, tolerance=0.005, seed=1234)
        rng = np.random.default_rng(999)  # independent evaluation stream
        _, x, s, _ = _dependent_batch(cfg, rng, 400_000, None)
        y = np.minimum(x, s)
        t = mu + rng.standard_normal(400_000)
        assert float(np.mean(t <= y)) == pytest.approx(0.30, abs=0.01)

    def test_mu_decreases_as_target_increases(self):
        cfg = DependentModelConfig(rho=0.1, mu=0.0)
        mus = [
            calibrate_truncation_location(cfg, alpha, tolerance=0.002, seed=77)
            for alpha in (0.2, 0.5, 0.8)
        ]
        assert mus[0] > mus[1] > mus[2]

    def test_non_bracketing_interval(self):
        from specrisk import CalibrationError

        # losses this dispersed keep only about 65% of pairs even at mu = -20, the lower end
        cfg = DependentModelConfig(rho=0.1, phi1=50.0)
        with pytest.raises(CalibrationError, match=r"bracket \(-20.0, 20.0\) does not straddle"):
            calibrate_truncation_location(cfg, 0.95, tolerance=0.005, seed=1234)


class TestTheoreticalSrm:
    def test_constant_quantile_returns_constant(self):
        for k in (1.0, 20.0, 200.0):
            val = theoretical_srm(lambda p: 42.0, ExponentialSpectrum(k))
            assert val == pytest.approx(42.0, rel=1e-9)

    def test_uniform_limit_matches_means(self):
        # the means x0 + theta and x0 alpha / (alpha - 1) of EXP and PARETO
        val = theoretical_srm(lambda p: ground_up_quantile(EXP, p), ExponentialSpectrum(0.0))
        assert val == pytest.approx(2000.0, rel=1e-4)
        val = theoretical_srm(lambda p: ground_up_quantile(PARETO, p), ExponentialSpectrum(0.0))
        assert val == pytest.approx(2000.0, rel=1e-4)

    @pytest.mark.parametrize("k", [1.0, 5.0, 10.0, 20.0, 100.0, 200.0])
    def test_exponential_matches_closed_form(self, k):
        val = theoretical_srm(lambda p: ground_up_quantile(EXP, p), ExponentialSpectrum(k))
        assert val == pytest.approx(exp_srm_closed_form(1000.0, 1000.0, k), rel=1e-7)

    @pytest.mark.parametrize("k", [1.0, 5.0, 10.0, 20.0, 100.0, 200.0])
    def test_pareto_matches_closed_form(self, k):
        val = theoretical_srm(lambda p: ground_up_quantile(PARETO, p), ExponentialSpectrum(k))
        assert val == pytest.approx(pareto_srm_closed_form(1000.0, 2.0, k), rel=1e-6)

    def test_window_quantile_integrates_between_bounds(self):
        branch = window_branch_point(EXP, WINDOW)
        val = theoretical_srm(
            lambda p: window_quantile(EXP, WINDOW, p),
            ExponentialSpectrum(1.0),
            breakpoints=(branch,),
        )
        assert 4000.0 < val < 14000.0
        # window value = deductible + theta-weighted log integral, capped at u
        assert val == pytest.approx(4000.0 + (exp_srm_closed_form(1000.0, 1000.0, 1.0) - 1000.0), rel=1e-4)

    def test_nonfinite_quantile_rejected(self):
        with pytest.raises(NumericalError, match="not finite"):
            theoretical_srm(lambda p: math.inf, ExponentialSpectrum(1.0))
        # a Pareto quantile that overflows a double at the clipped level
        model = SeverityModel.pareto_i(1000.0, 0.001)
        with pytest.raises(NumericalError, match="not finite"):
            theoretical_srm(lambda p: ground_up_quantile(model, p), ExponentialSpectrum(1.0))


class TestMarginalOracle:
    def test_dependent_marginal_moments(self):
        cfg = DependentModelConfig(rho=0.1, mu=0.0)
        draws = sample_dependent_marginal(cfg, 400_000, seed=5)
        # mean 0 by symmetry; variance from the sinusoid plus scaled noise
        assert float(np.mean(draws)) == pytest.approx(0.0, abs=0.01)
        sd_x1 = 0.5 / math.sqrt(1 - 0.01)
        var_sin = 0.5 * (1.0 - math.exp(-2 * math.pi**2 * sd_x1**2))
        e_cos = math.exp(-math.pi**2 * sd_x1**2 / 2)
        e_cos2 = 0.5 * (1.0 + math.exp(-2 * math.pi**2 * sd_x1**2))
        var_noise = 0.09 * (1.0 + 0.6 * e_cos + 0.09 * e_cos2)
        assert float(np.var(draws)) == pytest.approx(var_sin + var_noise, rel=0.02)
