"""Tests for the product-limit core: risk sets, fits, quantile inversion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from specrisk import (
    LtrcSample,
    StepDistribution,
    fit_pl,
    pl_quantile,
)
from specrisk import harness, ltrc
from specrisk.ltrc import SortedSample

from conftest import pl_cdf_bruteforce, random_ltrc_sample


class TestSampleTypes:
    def test_sample_validates(self):
        with pytest.raises(ValueError, match="at least one"):
            LtrcSample([], [], [])
        with pytest.raises(ValueError, match="equal length"):
            LtrcSample([1.0], [0.0, 0.0], [1])
        with pytest.raises(ValueError, match="truncation value exceeds"):
            LtrcSample([1.0], [2.0], [1])
        with pytest.raises(ValueError, match="0 or 1"):
            LtrcSample([1.0], [0.0], [3])

    def test_sample_arrays_are_immutable(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        with pytest.raises(ValueError):
            s.y[0] = 5.0


class TestFitPl:
    def test_two_point_example(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        d = fit_pl(s)
        assert d.knots.tolist() == [1.0, 2.0]
        assert d.exact_values == ((1, 2), (1, 1))
        assert d.cdf_exact(1.0) == Fraction(1, 2)
        assert d.cdf(0.5) == 0.0
        assert d.cdf(1.0) == 0.5
        assert d.cdf(1.9) == 0.5
        assert d.cdf(2.0) == 1.0

    def test_reduces_to_ecdf_without_truncation_or_censoring(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            values = rng.normal(size=n)
            s = LtrcSample.from_complete_data(values)
            d = fit_pl(s)
            ordered = np.sort(values)
            for i in range(n):
                assert d.cdf_exact(ordered[i]) == Fraction(i + 1, n)
                assert d.cdf(ordered[i]) == (i + 1) / n

    def test_zero_factor_absorbs_later_mass(self):
        # risk set of size 1 at the uncensored value 1 (the other subject
        # enters observation only at 1.5), so the factor hits zero early
        s = LtrcSample([1.0, 2.0], [0.0, 1.5], [1, 1])
        d = fit_pl(s)
        assert d.zero_factor_count == 1
        assert d.cdf(1.0) == 1.0
        assert d.knots.tolist() == [1.0]

    def test_matches_bruteforce_on_random_ltrc_samples(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            s = random_ltrc_sample(rng, int(rng.integers(2, 40)), tie_prob=0.3)
            d = fit_pl(s)
            for x in np.unique(s.y):
                assert d.cdf_exact(x) == pl_cdf_bruteforce(s, x)

    def test_censoring_free_truncation_matches_bruteforce(self):
        # random truncation, no censoring: the fit is the pure risk-set product
        rng = np.random.default_rng(78)
        for _ in range(15):
            n = int(rng.integers(2, 50))
            x = np.exp(rng.normal(size=3 * n))
            t = rng.uniform(0.0, 1.5, size=3 * n)
            keep = t <= x
            s = LtrcSample(x[keep][:n], t[keep][:n], np.ones(n, dtype=int))
            d = fit_pl(s)
            for v in np.unique(s.y):
                assert d.cdf_exact(v) == pl_cdf_bruteforce(s, v)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        s = random_ltrc_sample(rng, 30)
        perm = rng.permutation(30)
        d1 = fit_pl(s)
        d2 = fit_pl(LtrcSample(s.y[perm], s.t[perm], s.delta[perm]))
        assert d1.knots.tolist() == d2.knots.tolist()
        assert d1.exact_values == d2.exact_values

    def test_log_space_path_agrees_with_exact(self):
        rng = np.random.default_rng(9)
        s = random_ltrc_sample(rng, 200)
        d_exact = fit_pl(s)
        x, log_space = _log_space_fit(s)
        np.testing.assert_allclose(log_space, d_exact.cdf(x), rtol=1e-12)

    def test_monotone_bounded_and_terminal(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            s = random_ltrc_sample(rng, 50, tie_prob=0.2)
            d = fit_pl(s)
            assert np.all(np.diff(d.values) >= 0)
            assert d.values[0] >= 0.0
            assert d.values[-1] == 1.0
            assert d.cdf(float(np.max(s.y))) == 1.0

    def test_censored_max_forces_terminal_jump(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 0])
        d = fit_pl(s)
        # censored maximum contributes no factor, yet F is 1 from there on
        assert d.cdf(1.5) == 0.5
        assert d.cdf(2.0) == 1.0


def _log_space_fit(sample):
    """The log-space fit of ``sample``: each distinct y and its CDF value.

    ``fit_pl`` takes this path above ``EXACT_PRODUCT_LIMIT`` observations; at
    any size it is the product-limit CDF of one row of unit weights.
    """
    s = SortedSample.from_sample(sample)
    return s.y[s.starts], s.pl_cdf(np.ones((1, len(sample)), dtype=np.int64))[0]


def _log_space_fit_loop(sample):
    """Observation-by-observation log-space product-limit fit.

    The reference for the log-space path of ``fit_pl``: returns the knots,
    the CDF values and the zero-factor count.
    """
    order = sample.sorted_order()
    ys = sample.y[order]
    ds = sample.delta[order]
    ts = np.sort(sample.t)
    risk = np.searchsorted(ts, ys, side="right") - np.searchsorted(ys, ys, side="left")
    n = ys.size
    y_max = ys[-1]
    knots, vals = [], []
    zero_factors = 0
    log_surv = 0.0
    hit_zero = False
    i = 0
    while i < n:
        j = i
        while j < n and ys[j] == ys[i]:
            if ds[j] == 1:
                r = int(risk[j])
                if r == 1 and ys[j] < y_max:
                    zero_factors += 1
                if r == 1:
                    hit_zero = True
                else:
                    log_surv += np.log1p(-1.0 / r)
            j += 1
        if ys[i] == y_max:
            hit_zero = True
        knots.append(float(ys[i]))
        vals.append(1.0 if hit_zero else float(-np.expm1(log_surv)))
        i = j
    keep = [0]
    for idx in range(1, len(knots)):
        if vals[idx] > vals[keep[-1]]:
            keep.append(idx)
    return np.array([knots[i] for i in keep]), np.array([vals[i] for i in keep]), zero_factors


_EDGE_CASES = pytest.mark.parametrize(
    "sample",
    [
        LtrcSample([1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0], [0.0] * 7, [1, 0, 1, 1, 0, 1, 1]),
        LtrcSample([1.0, 2.0, 2.5, 3.0], [0.0] * 4, [1, 1, 1, 0]),
        LtrcSample([1.0, 2.0, 3.0], [0.0, 1.5, 1.5], [1, 1, 0]),
        LtrcSample([2.0] * 5, [0.0] * 5, [1, 0, 1, 0, 1]),
        LtrcSample([4.0], [1.0], [1]),
        LtrcSample([1.0, 3.0], [0.5, 0.0], [0, 1]),
    ],
    ids=["tied-mixed-delta", "censored-max", "zero-factor", "all-tied", "n=1", "n=2"],
)


class TestLogSpaceFit:
    @_EDGE_CASES
    def test_matches_loop_on_edge_cases(self, sample):
        x, log_space = _log_space_fit(sample)
        knots, values, zero_factors = _log_space_fit_loop(sample)
        assert np.array_equal(log_space[np.searchsorted(x, knots)], values)
        assert fit_pl(sample).zero_factor_count == zero_factors

    def test_matches_loop_on_large_sample_default_path(self):
        rng = np.random.default_rng(10)
        s = random_ltrc_sample(rng, 10_500, tie_prob=0.2)
        d = fit_pl(s)
        assert d.exact_values is None  # above EXACT_PRODUCT_LIMIT
        knots, values, zero_factors = _log_space_fit_loop(s)
        assert np.array_equal(d.knots, knots)
        assert np.array_equal(d.values, values)
        assert d.zero_factor_count == zero_factors


def _fraction_fit_loop(sample):
    """Observation-by-observation exact product-limit fit in ``Fraction`` arithmetic.

    The reference for the exact path of ``fit_pl``: returns the knots and the
    CDF values as ``Fraction`` instances, knots that add no mass dropped.
    """
    order = sample.sorted_order()
    ys = sample.y[order]
    ds = sample.delta[order]
    ts = np.sort(sample.t)
    risk = np.searchsorted(ts, ys, side="right") - np.searchsorted(ys, ys, side="left")
    n = ys.size
    y_max = ys[-1]
    knots, vals = [], []
    surv = Fraction(1)
    i = 0
    while i < n:
        j = i
        while j < n and ys[j] == ys[i]:
            if ds[j] == 1:
                r = int(risk[j])
                surv *= Fraction(r - 1, r)
            j += 1
        if ys[i] == y_max:
            surv = Fraction(0)
        knots.append(float(ys[i]))
        vals.append(1 - surv)
        i = j
    keep = [0]
    for idx in range(1, len(knots)):
        if vals[idx] > vals[keep[-1]]:
            keep.append(idx)
    return np.array([knots[i] for i in keep]), [vals[i] for i in keep]


@pytest.fixture(scope="module")
def exact_oracle_samples():
    cfg = harness.default_dependent_config()
    return {
        "iid-exp-2000": harness._generate_sample("iid-exp", "random-truncation", None, 2000, 41),
        "dependent-2000": harness._generate_sample("dependent", "random-truncation", cfg, 2000, 42),
        "dependent-10000": harness._generate_sample(
            "dependent", "random-truncation", cfg, ltrc.EXACT_PRODUCT_LIMIT, 43
        ),
    }


class TestExactFit:
    @staticmethod
    def _check_against_oracle(sample):
        d = fit_pl(sample)
        assert d.exact_values is not None
        knots, fractions = _fraction_fit_loop(sample)
        assert np.array_equal(d.knots, knots)
        assert np.array_equal(d.values, np.array([float(f) for f in fractions]))
        assert d.exact_values == tuple((f.numerator, f.denominator) for f in fractions)
        assert all(den > 0 and math.gcd(num, den) == 1 for num, den in d.exact_values)
        for x, f in zip(knots, fractions):
            assert d.cdf_exact(x) == f

    @_EDGE_CASES
    def test_matches_fraction_loop_on_edge_cases(self, sample):
        self._check_against_oracle(sample)

    @pytest.mark.parametrize("name", ["iid-exp-2000", "dependent-2000", "dependent-10000"])
    def test_matches_fraction_loop_on_benchmark_sized_samples(self, exact_oracle_samples, name):
        # dependent-10000 is the largest sample the default path fits exactly
        self._check_against_oracle(exact_oracle_samples[name])


class TestQuantile:
    def test_two_point_inverse(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        q = pl_quantile(fit_pl(s))
        assert q(0.25) == 1.0
        assert q(0.5) == 1.0
        assert q(0.50000001) == 2.0
        assert q(1.0) == 2.0

    def test_single_observation(self):
        q = pl_quantile(fit_pl(LtrcSample([4.2], [0.0], [1])))
        for p in (1e-9, 0.3, 1.0):
            assert q(p) == 4.2

    def test_ecdf_median_of_three(self):
        q = pl_quantile(fit_pl(LtrcSample.from_complete_data([3.0, 1.0, 2.0])))
        assert q(0.5) == 2.0

    def test_levels_outside_domain_rejected(self):
        q = pl_quantile(fit_pl(LtrcSample([1.0], [0.0], [1])))
        with pytest.raises(ValueError, match="quantile levels"):
            q(0.0)
        with pytest.raises(ValueError, match="quantile levels"):
            q(1.5)

    def test_galois_inequalities(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = random_ltrc_sample(rng, 40, tie_prob=0.2)
            d = fit_pl(s)
            q = pl_quantile(d)
            for x in s.y:
                fx = d.cdf(x)
                if fx > 0:
                    assert q(fx) <= x
            for p in rng.uniform(1e-9, 1.0, size=20):
                assert d.cdf(q(p)) >= p


class TestStepDistribution:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            StepDistribution(knots=[1.0, 1.0], values=[0.5, 1.0])
        with pytest.raises(ValueError, match="nondecreasing"):
            StepDistribution(knots=[1.0, 2.0], values=[0.7, 0.5])
        with pytest.raises(ValueError, match="reach 1"):
            StepDistribution(knots=[1.0], values=[0.9])
