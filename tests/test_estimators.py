"""Tests for the five SRM estimators and their shared integration layer."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from specrisk import (
    EstimationError,
    ExpectedShortfallSpectrum,
    ExponentialSpectrum,
    KernelEstimator,
    LtrcSample,
    MlEstimator,
    ModelFamily,
    WindowScheme,
    build_estimator,
    estimate_emp,
    estimate_prod,
    srm_from_quantile,
    srm_from_sorted,
)
from specrisk.estimators import (
    KERNEL_BANDWIDTH,
    KernelQuantileSmoother,
    fit_ml_parameter,
    fit_pm_parameter,
    parametric_srm,
)
from specrisk import harness
from specrisk.ltrc import QuantileFunction, fit_pl, pl_quantile
from specrisk.severity import ground_up_quantile, theoretical_srm

from conftest import random_ltrc_sample
from test_severity import exp_srm_closed_form, pareto_srm_closed_form

K_GRID = (1.0, 5.0, 10.0, 20.0, 100.0, 200.0)
WINDOW = WindowScheme.fixed(4000.0, 14000.0)


def random_step_quantile(rng: np.random.Generator, n_segments: int = 12) -> QuantileFunction:
    hi = np.sort(rng.uniform(0.0, 1.0, size=n_segments - 1))
    hi = np.concatenate((hi, [1.0]))
    lo = np.concatenate(([0.0], hi[:-1]))
    values = np.cumsum(rng.exponential(1.0, size=n_segments))
    return QuantileFunction(segment_lo=lo, segment_hi=hi, values=values)


class TestSrmFromQuantile:
    def test_constant_is_fixed_point(self):
        q = QuantileFunction(segment_lo=[0.0], segment_hi=[1.0], values=[7.5])
        for k in K_GRID:
            assert srm_from_quantile(q, ExponentialSpectrum(k)) == pytest.approx(7.5, rel=1e-14)

    def test_two_segment_example(self):
        q = QuantileFunction(segment_lo=[0.0, 0.5], segment_hi=[0.5, 1.0], values=[1.0, 2.0])
        spec = ExponentialSpectrum(1.0)
        w2 = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
        assert srm_from_quantile(q, spec) == pytest.approx(1.0 * (1 - w2) + 2.0 * w2, rel=1e-14)

    def test_uniform_limit_gives_mean(self):
        q = QuantileFunction(segment_lo=[0.0, 0.5], segment_hi=[0.5, 1.0], values=[1.0, 2.0])
        assert srm_from_quantile(q, ExponentialSpectrum(0.0)) == pytest.approx(1.5, abs=1e-15)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            q = random_step_quantile(rng)
            values = [srm_from_quantile(q, ExponentialSpectrum(k)) for k in K_GRID]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_expected_shortfall_equals_tail_average(self):
        rng = np.random.default_rng(11)
        for p in (0.9, 0.95):
            spec = ExpectedShortfallSpectrum(p)
            for _ in range(25):
                q = random_step_quantile(rng)
                # independent tail-averaging oracle over quantile segments
                overlap = np.maximum(q.segment_hi - np.maximum(q.segment_lo, p), 0.0) / (1.0 - p)
                direct = float(np.sum(q.values * overlap))
                assert srm_from_quantile(q, spec) == direct


class TestProdEstimator:
    def test_two_point_composition(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        w2 = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
        assert estimate_prod(s, ExponentialSpectrum(1.0)) == pytest.approx(1.0 + w2, rel=1e-12)

    def test_reduces_to_sample_mean(self):
        rng = np.random.default_rng(4)
        values = rng.exponential(5.0, size=101)
        s = LtrcSample.from_complete_data(values)
        assert estimate_prod(s, ExponentialSpectrum(0.0)) == pytest.approx(
            float(np.mean(values)), rel=1e-14
        )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        s = random_ltrc_sample(rng, 80)
        spec = ExponentialSpectrum(5.0)
        base = estimate_prod(s, spec)
        scaled = estimate_prod(LtrcSample(2.0 * s.y, 2.0 * s.t, s.delta), spec)
        assert scaled == pytest.approx(2.0 * base, rel=1e-12)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(7)
        s = random_ltrc_sample(rng, 80)
        spec = ExponentialSpectrum(5.0)
        base = estimate_prod(s, spec)
        shifted = estimate_prod(LtrcSample(s.y + 3.0, s.t + 3.0, s.delta), spec)
        assert shifted == pytest.approx(base + 3.0, rel=1e-12)


class TestEmpEstimator:
    def test_single_value(self):
        s = LtrcSample([5.0], [0.0], [1])
        for k in K_GRID:
            assert estimate_emp(s, ExponentialSpectrum(k)) == pytest.approx(5.0, rel=1e-14)

    def test_two_values(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        w2 = (1.0 - math.exp(-0.5)) / (1.0 - math.exp(-1.0))
        assert estimate_emp(s, ExponentialSpectrum(1.0)) == pytest.approx(1.0 + w2, rel=1e-12)

    def test_constant_sample(self):
        s = LtrcSample([3.0] * 7, [0.0] * 7, [1] * 7)
        assert estimate_emp(s, ExponentialSpectrum(20.0)) == pytest.approx(3.0, rel=1e-13)

    def test_equivariance(self):
        rng = np.random.default_rng(12)
        s = random_ltrc_sample(rng, 60)
        spec = ExponentialSpectrum(10.0)
        base = estimate_emp(s, spec)
        assert estimate_emp(
            LtrcSample(3.0 * s.y, 3.0 * s.t, s.delta), spec
        ) == pytest.approx(3.0 * base, rel=1e-12)
        assert estimate_emp(
            LtrcSample(s.y + 2.5, s.t + 2.5, s.delta), spec
        ) == pytest.approx(base + 2.5, rel=1e-12)

    def test_matches_order_statistic_var_convention(self):
        # VaR at level u is the ceil(n u)-th order statistic
        values = np.array([4.0, 9.0, 6.0])
        s = LtrcSample(values, np.zeros(3), np.ones(3, dtype=int))
        spec = ExpectedShortfallSpectrum(2.0 / 3.0)
        assert srm_from_sorted(np.sort(values), spec) == pytest.approx(9.0, rel=1e-14)
        assert estimate_emp(s, spec) == pytest.approx(9.0, rel=1e-14)


class TestMlEstimator:
    def test_theta_with_censored_observation(self):
        s = LtrcSample([4500.0, 5000.0, 14000.0], [4000.0] * 3, [1, 1, 0])
        theta = fit_ml_parameter(s, WINDOW, ModelFamily.SHIFTED_EXPONENTIAL)
        assert theta == pytest.approx((500.0 + 1000.0 + 10_000.0) / 2.0, rel=1e-14)

    def test_theta_all_interior_is_mean_excess(self):
        y = np.array([4200.0, 5100.0, 4700.0, 6400.0])
        s = LtrcSample(y, np.full(4, 4000.0), np.ones(4, dtype=int))
        theta = fit_ml_parameter(s, WINDOW, ModelFamily.SHIFTED_EXPONENTIAL)
        assert theta == pytest.approx(float(np.mean(y - 4000.0)), rel=1e-14)

    def test_pareto_alpha_uncapped_window(self):
        scheme = WindowScheme.fixed(4000.0, math.inf)
        s = LtrcSample([4400.0, 4840.0], [4000.0] * 2, [1, 1])
        alpha = fit_ml_parameter(s, scheme, ModelFamily.PARETO_I)
        expected = 2.0 / (math.log(1.1) + math.log(1.21))  # = 2 / (3 ln 1.1)
        assert alpha == pytest.approx(expected, rel=1e-12)
        assert alpha == pytest.approx(2.0 / (3.0 * math.log(1.1)), rel=1e-12)

    def test_theta_uncapped_window_is_mean_excess(self):
        # an infinite limit censors nothing and adds no exposure
        y = np.array([4200.0, 5100.0, 4700.0])
        s = LtrcSample(y, np.full(3, 4000.0), np.ones(3, dtype=int))
        theta = fit_ml_parameter(s, WindowScheme.fixed(4000.0, math.inf), ModelFamily.SHIFTED_EXPONENTIAL)
        assert theta == pytest.approx(float(np.mean(y - 4000.0)), rel=1e-14)

    def test_no_interior_points_raises(self):
        s = LtrcSample([14000.0, 14000.0], [4000.0] * 2, [0, 0])
        with pytest.raises(EstimationError, match="no uncensored"):
            fit_ml_parameter(s, WINDOW, ModelFamily.SHIFTED_EXPONENTIAL)

    def test_srm_recovers_ground_up_value_at_true_theta(self):
        # with theta known exactly, the ML pipeline integrates the true curve
        s = LtrcSample([5000.0], [4000.0], [1])  # theta_hat = 1000
        for k in (1.0, 10.0):
            val = MlEstimator(WINDOW, ModelFamily.SHIFTED_EXPONENTIAL, 1000.0)(s, ExponentialSpectrum(k))
            assert val == pytest.approx(exp_srm_closed_form(1000.0, 1000.0, k), rel=1e-7)


class TestPmEstimator:
    def test_exact_inversion_exponential(self):
        theta, p1 = 1300.0, 0.5
        value = 4000.0 - theta * math.log1p(-p1)
        s = LtrcSample([value], [4000.0], [1])
        assert fit_pm_parameter(s, WINDOW, ModelFamily.SHIFTED_EXPONENTIAL, p1) == pytest.approx(
            theta, rel=1e-12
        )

    def test_exact_inversion_pareto(self):
        alpha, p1 = 2.0, 0.5
        value = 4000.0 * (1.0 - p1) ** (-1.0 / alpha)
        s = LtrcSample([value], [4000.0], [1])
        assert fit_pm_parameter(s, WINDOW, ModelFamily.PARETO_I, p1) == pytest.approx(
            alpha, rel=1e-12
        )

    def test_three_point_pareto(self):
        s = LtrcSample([4200.0, 4800.0, 6000.0], [4000.0] * 3, [1, 1, 1])
        alpha = fit_pm_parameter(s, WINDOW, ModelFamily.PARETO_I, 0.5)
        expected = math.log(0.5) / math.log(4000.0 / 4800.0)  # second order statistic
        assert alpha == pytest.approx(expected, rel=1e-12)

    def test_percentile_at_deductible_raises(self):
        s = LtrcSample([4000.0, 5000.0], [4000.0] * 2, [1, 1])
        with pytest.raises(EstimationError, match="deductible"):
            fit_pm_parameter(s, WINDOW, ModelFamily.SHIFTED_EXPONENTIAL, 0.25)

    def test_deductible_is_the_anchor(self):
        s = LtrcSample([4600.0], [4000.0], [1])
        theta = fit_pm_parameter(s, WINDOW, ModelFamily.SHIFTED_EXPONENTIAL, 0.5)
        assert theta == pytest.approx(600.0 / -math.log(0.5), rel=1e-12)


PARAMETRIC_SPECTRA = [ExponentialSpectrum(k) for k in (0.0, 1.0, 5.0, 10.0, 20.0, 100.0, 200.0)] + [
    ExpectedShortfallSpectrum(p) for p in (0.0, 0.5, 0.9)
]


class TestParametricSrm:
    @pytest.mark.parametrize("k", [1.0, 5.0, 20.0, 200.0])
    def test_exponential_matches_closed_form(self, k):
        val = parametric_srm(ModelFamily.SHIFTED_EXPONENTIAL, 1000.0, 1000.0, ExponentialSpectrum(k))
        assert val == pytest.approx(exp_srm_closed_form(1000.0, 1000.0, k), rel=1e-13)

    @pytest.mark.parametrize("k", [1.0, 5.0, 20.0, 200.0])
    def test_pareto_matches_closed_form(self, k):
        val = parametric_srm(ModelFamily.PARETO_I, 1000.0, 2.0, ExponentialSpectrum(k))
        assert val == pytest.approx(pareto_srm_closed_form(1000.0, 2.0, k), rel=1e-13)

    @pytest.mark.parametrize("model", [harness.EXP_MODEL, harness.PARETO_MODEL], ids=["exp", "pareto"])
    @pytest.mark.parametrize("spectrum", PARAMETRIC_SPECTRA, ids=lambda s: s.describe())
    def test_matches_quadrature_of_the_quantile(self, model, spectrum):
        param = model.theta if model.family is ModelFamily.SHIFTED_EXPONENTIAL else model.alpha
        val = parametric_srm(model.family, model.x0, param, spectrum)
        want = theoretical_srm(lambda p: ground_up_quantile(model, p), spectrum)
        assert val == pytest.approx(want, rel=1e-9)

    def test_heavy_tail_rejected(self):
        with pytest.raises(EstimationError, match="diverges"):
            parametric_srm(ModelFamily.PARETO_I, 1000.0, 0.9, ExponentialSpectrum(1.0))

    def test_unit_tail_index_rejected(self):
        for spectrum in (ExponentialSpectrum(0.0), ExpectedShortfallSpectrum(0.5)):
            with pytest.raises(EstimationError, match="diverges"):
                parametric_srm(ModelFamily.PARETO_I, 1000.0, 1.0, spectrum)


class TestKernelEstimator:
    def test_constant_quantile_is_exact_in_the_interior(self):
        q = QuantileFunction(segment_lo=[0.0], segment_hi=[1.0], values=[6.0])
        smoother = KernelQuantileSmoother(q)
        for t in (0.4, 0.5, 0.6):
            assert smoother(t) == 6.0
        # boundary mass loss below h and above 1-h
        assert smoother(0.0) == pytest.approx(3.0, rel=1e-12)
        assert smoother(1.0) == pytest.approx(3.0, rel=1e-12)

    def test_smoother_is_set_by_its_quantile_function_alone(self):
        # the bandwidth is the module constant, not a field of the smoother
        assert [f.name for f in dataclasses.fields(KernelQuantileSmoother)] == ["q"]
        q = QuantileFunction(segment_lo=[0.0, 0.5], segment_hi=[0.5, 1.0], values=[1.0, 2.0])
        # a full window t +- h about the single knot weighs both values equally
        assert KernelQuantileSmoother(q)(0.5) == pytest.approx(1.5, rel=1e-15)
        assert 0.0 < KERNEL_BANDWIDTH < 0.5

    def test_closed_form_matches_adaptive_quadrature(self):
        q = QuantileFunction(segment_lo=[0.0, 0.5], segment_hi=[0.5, 1.0], values=[1.0, 2.0])
        smoother = KernelQuantileSmoother(q)
        t = 0.5

        def integrand(x):
            return float(q(max(x, 1e-300))) * 0.75 * (1.0 - ((x - t) / 0.4) ** 2) / 0.4

        oracle, _ = integrate.quad(integrand, t - 0.4, t + 0.4, points=[0.5], epsabs=1e-13)
        assert smoother(t) == pytest.approx(oracle, abs=1e-10)

    def test_estimate_runs_on_samples(self):
        rng = np.random.default_rng(3)
        s = random_ltrc_sample(rng, 60)
        val = KernelEstimator()(s, ExponentialSpectrum(1.0))
        assert np.isfinite(val)
        assert val < float(np.max(s.y))


H = KERNEL_BANDWIDTH


def _segment_sum_smoother(q: QuantileFunction, t: float) -> float:
    """Reference smoother: the clipped kernel mass of every segment, summed directly."""
    lo = np.maximum(q.segment_lo, max(t - H, 0.0))
    hi = np.minimum(q.segment_hi, min(t + H, 1.0))
    a = np.clip((lo - t) / H, -1.0, 1.0)
    b = np.clip((hi - t) / H, -1.0, 1.0)
    contrib = np.where(b > a, (0.75 * b - 0.25 * b**3) - (0.75 * a - 0.25 * a**3), 0.0)
    return float(np.sum(q.values * contrib))


def _reference_kernel_srm(q: QuantileFunction, spectrum) -> float:
    """The quadrature of ``KernelEstimator.evaluate`` run over the reference smoother."""
    value, _ = integrate.quad(
        lambda u: float(spectrum.phi(u)) * _segment_sum_smoother(q, u),
        0.0,
        1.0,
        points=[H, 1.0 - H],
        limit=200,
        epsabs=1e-12,
        epsrel=1e-8,
    )
    return value


def _smoother_points(q: QuantileFunction) -> np.ndarray:
    """A 301-point grid, knots +- h, and 0, 1, h, 1 - h, all inside [0, 1].

    Past 300 knots an evenly spaced subset of about 300 is taken: the
    reference costs O(n) per point.
    """
    knots = q.segment_lo[1:]
    knots = knots[:: max(1, knots.size // 300)]
    ends = [0.0, 1.0, H, 1.0 - H]
    pts = np.concatenate((np.linspace(0.0, 1.0, 301), knots - H, knots + H, ends))
    return pts[(pts >= 0.0) & (pts <= 1.0)]


def _window_has_knots(q: QuantileFunction, pts: np.ndarray) -> np.ndarray:
    knots = q.segment_lo[1:]
    return np.searchsorted(knots, pts + H, side="left") > np.searchsorted(knots, pts - H, "right")


@pytest.fixture(scope="module")
def smoother_cases():
    tied_hi = np.array([0.1, 0.25, 0.3, 0.55, 0.8, 1.0])
    cfg = harness.default_dependent_config()
    samples = {
        "iid-exp-2000": harness._generate_sample("iid-exp", "random-truncation", None, 2000, 44),
        "iid-pareto-2000": harness._generate_sample("iid-pareto", "fixed-thresholds", None, 2000, 44),
        "dependent-10500": harness._generate_sample("dependent", "random-truncation", cfg, 10_500, 44),
    }
    return {
        "one-segment": QuantileFunction(segment_lo=[0.0], segment_hi=[1.0], values=[6.0]),
        "tied-values": QuantileFunction(
            segment_lo=np.concatenate(([0.0], tied_hi[:-1])),
            segment_hi=tied_hi,
            values=[-2.0, -2.0, 3.0, 3.0, 3.0, 7.5],
        ),
        "n1-sample": pl_quantile(fit_pl(LtrcSample([1500.0], [1000.0], [1]))),
        **{name: pl_quantile(fit_pl(sample)) for name, sample in samples.items()},
    }


class TestKernelSmootherOracle:
    @pytest.mark.parametrize(
        "name",
        ["one-segment", "tied-values", "n1-sample", "iid-exp-2000", "iid-pareto-2000", "dependent-10500"],
    )
    def test_matches_segment_sum(self, smoother_cases, name):
        q = smoother_cases[name]
        smoother = KernelQuantileSmoother(q)
        pts = _smoother_points(q)
        got = np.array([smoother(float(t)) for t in pts])
        want = np.array([_segment_sum_smoother(q, float(t)) for t in pts])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(q.values))

    @pytest.mark.parametrize(
        "name", ["tied-values", "iid-exp-2000", "iid-pareto-2000", "dependent-10500"]
    )
    def test_reflection_mirrors_the_smoother(self, smoother_cases, name):
        # Q'(x) = -Q(1 - x) is again a quantile function, and the symmetric
        # kernel gives S'(t) = -S(1 - t); the moments about 1/2 see mirrored knots
        q = smoother_cases[name]
        mirrored = QuantileFunction(
            segment_lo=1.0 - q.segment_hi[::-1],
            segment_hi=1.0 - q.segment_lo[::-1],
            values=-q.values[::-1],
        )
        smoother, reflected = KernelQuantileSmoother(q), KernelQuantileSmoother(mirrored)
        pts = _smoother_points(q)
        got = np.array([reflected(float(t)) for t in pts])
        want = np.array([-smoother(1.0 - float(t)) for t in pts])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(q.values))

    def test_points_reach_both_branches(self, smoother_cases):
        # the cases with knots sum the knots inside the window by moments, and
        # the one-segment and n = 1 cases meet only windows without a knot
        for name, q in smoother_cases.items():
            inside = _window_has_knots(q, _smoother_points(q))
            if name in ("one-segment", "n1-sample"):
                assert not inside.any(), name
            else:
                assert inside.any(), name


@pytest.fixture(scope="module")
def kernel_golden_samples():
    cfg = harness.default_dependent_config()
    cells = [
        ("iid-exp", "random-truncation", None),
        ("iid-pareto", "fixed-thresholds", None),
        ("dependent", "random-truncation", cfg),
    ]
    return {
        f"{design}-{n}": harness._generate_sample(design, mode, c, n, 50 + n)
        for design, mode, c in cells
        for n in (30, 100, 500)
    }


class TestKernelGoldenPreservation:
    @pytest.mark.parametrize(
        "name",
        [f"{d}-{n}" for d in ("iid-exp", "iid-pareto", "dependent") for n in (30, 100, 500)],
    )
    def test_evaluate_matches_quadrature_over_reference(self, kernel_golden_samples, name):
        estimator = KernelEstimator()
        ctx = estimator.prepare(kernel_golden_samples[name])
        spectra = [ExponentialSpectrum(k) for k in K_GRID] + [ExpectedShortfallSpectrum(0.9)]
        for spectrum in spectra:
            want = _reference_kernel_srm(ctx.q, spectrum)
            assert estimator.evaluate(ctx, spectrum) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBuildEstimator:
    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="prod, emp, kernel, ml, pm"):
            build_estimator("bogus")

    def test_parametric_estimators_need_context(self):
        with pytest.raises(ValueError, match="window scheme"):
            build_estimator("ml")

    def test_constructed_estimators_evaluate(self):
        rng = np.random.default_rng(1)
        s = random_ltrc_sample(rng, 40)
        spec = ExponentialSpectrum(1.0)
        prod = build_estimator("prod")
        emp = build_estimator("emp")
        assert np.isfinite(prod(s, spec)) and np.isfinite(emp(s, spec))
