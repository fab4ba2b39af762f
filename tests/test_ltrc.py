"""Tests for the product-limit core: risk sets, fits, quantile inversion."""

import copy
import dataclasses
import pickle
import sys
import threading
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
from specrisk.ltrc import QuantileFunction, SortedSample

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
        with pytest.raises(ValueError, match="observation 1: truncation value is NaN"):
            LtrcSample([1.0, 2.0], [0.0, np.nan], [1, 1])

    def test_sample_arrays_are_immutable(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        with pytest.raises(ValueError):
            s.y[0] = 5.0

    def test_sample_attributes_are_frozen(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        with pytest.raises(AttributeError):
            s.y = [9.0]
        with pytest.raises(AttributeError):
            s.weights = [1, 1]
        with pytest.raises(AttributeError):
            del s.t
        assert np.array_equal(s.y, [1.0, 2.0]) and not s.y.flags.writeable

    def test_pickled_sample_is_validated_and_write_locked(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.5], [1, 0])
        copy = pickle.loads(pickle.dumps(s))
        for name in ("y", "t", "delta"):
            got, want = getattr(copy, name), getattr(s, name)
            assert np.array_equal(got, want) and got.dtype == want.dtype
            assert not got.flags.writeable


def _stable_sort_order(sample):
    """The order ``np.lexsort((-delta, y))`` defines, by Python's stable sort of (y, -delta).

    Python compares -0.0 and 0.0 as equal, and its sort keeps equal keys in
    index order, so this is the order by y, uncensored first, then by index.
    """
    y, delta = sample.y.tolist(), sample.delta.tolist()
    return np.array(sorted(range(len(y)), key=lambda i: (y[i], -delta[i])), dtype=np.intp)


def _lexsort_sorted_sample(sample):
    """The sorted sample built by ``np.lexsort`` and one binary search per position."""
    order = np.lexsort((-sample.delta, sample.y))
    rank = np.argsort(order)
    ys = sample.y[order]
    by_t = np.argsort(sample.t)
    entered = np.searchsorted(sample.t[by_t], ys, side="right")
    passed = np.searchsorted(ys, ys, side="left")
    return SortedSample(
        rank=rank,
        y=ys,
        delta=sample.delta[order],
        starts=np.flatnonzero(np.concatenate(([True], ys[1:] != ys[:-1]))),
        t_order=rank[by_t],
        entered=entered,
        passed=passed,
        risk=entered - passed,
    )


_TIE_PROBS = (0.0, 0.25, 0.5, 0.75, 1.0)
_SORT_ORDER_NAMES = [f"tie-prob-{p}-{i}" for p in _TIE_PROBS for i in range(4)] + [
    "all-equal", "signed-zeros", "n=1", "n=10500", "dependent-10500",
]


@pytest.fixture(scope="module")
def sort_order_samples():
    rng = np.random.default_rng(23)
    samples = {
        f"tie-prob-{p}-{i}": random_ltrc_sample(rng, 300, tie_prob=p)
        for p in _TIE_PROBS
        for i in range(4)
    }
    samples["all-equal"] = LtrcSample([2.0] * 7, [0.0] * 7, [0, 1, 0, 1, 1, 0, 1])
    samples["signed-zeros"] = LtrcSample(
        [0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0, 0.0], [-2.0] * 8, [0, 1, 1, 0, 1, 1, 1, 0]
    )
    samples["n=1"] = LtrcSample([4.0], [1.0], [0])
    samples["n=10500"] = random_ltrc_sample(rng, 10_500, tie_prob=0.3)
    cfg = harness.default_dependent_config()
    samples["dependent-10500"] = harness._generate_sample(
        "dependent", "random-truncation", cfg, 10_500, 32
    )
    return samples


@pytest.mark.parametrize("name", _SORT_ORDER_NAMES)
class TestSortedOrder:
    """The sort order against a stable sort, and the sorted sample and its fit
    against a build by one binary search per position."""

    def test_matches_lexsort(self, sort_order_samples, name):
        s = sort_order_samples[name]
        assert np.array_equal(s.sorted_order(), _stable_sort_order(s))

    def test_sorted_sample_matches_lexsort_build(self, sort_order_samples, name):
        sample = sort_order_samples[name]
        s, ref = SortedSample.from_sample(sample), _lexsort_sorted_sample(sample)
        assert np.array_equal(s.passed, np.searchsorted(s.y, s.y, side="left"))
        for f in dataclasses.fields(SortedSample):
            assert np.array_equal(getattr(s, f.name), getattr(ref, f.name)), f.name
        # array_equal takes -0.0 == 0.0; the signs of tied zeros follow the order too
        assert np.array_equal(np.signbit(s.y), np.signbit(ref.y))

    def test_fit_matches_lexsort_build(self, sort_order_samples, name, monkeypatch):
        sample = sort_order_samples[name]
        d = fit_pl(sample)
        monkeypatch.setattr(
            SortedSample, "from_sample", classmethod(lambda cls, x: _lexsort_sorted_sample(x))
        )
        ref = fit_pl(sample)
        assert np.array_equal(d.knots, ref.knots)
        assert np.array_equal(d.values, ref.values)
        assert d.zero_factor_count == ref.zero_factor_count


def test_sorted_order_matches_lexsort_on_small_tied_samples():
    rng = np.random.default_rng(29)
    for _ in range(300):
        s = random_ltrc_sample(rng, int(rng.integers(1, 80)), tie_prob=float(rng.random()))
        assert np.array_equal(s.sorted_order(), _stable_sort_order(s))


def _assert_matches_bruteforce(dist, sample):
    """The fit's floats within 1e-14 relative of the literal rational product, at every y."""
    xs = np.unique(sample.y)
    oracle = [float(pl_cdf_bruteforce(sample, x)) for x in xs]
    np.testing.assert_allclose(dist.cdf(xs), oracle, rtol=1e-14, atol=0)


class TestFitPl:
    def test_two_point_example(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        d = fit_pl(s)
        assert d.knots.tolist() == [1.0, 2.0]
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
            _assert_matches_bruteforce(fit_pl(s), s)

    def test_censoring_free_truncation_matches_bruteforce(self):
        # random truncation, no censoring: the fit is the pure risk-set product
        rng = np.random.default_rng(78)
        for _ in range(15):
            n = int(rng.integers(2, 50))
            x = np.exp(rng.normal(size=3 * n))
            t = rng.uniform(0.0, 1.5, size=3 * n)
            keep = t <= x
            s = LtrcSample(x[keep][:n], t[keep][:n], np.ones(n, dtype=int))
            _assert_matches_bruteforce(fit_pl(s), s)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        s = random_ltrc_sample(rng, 30)
        perm = rng.permutation(30)
        d1 = fit_pl(s)
        d2 = fit_pl(LtrcSample(s.y[perm], s.t[perm], s.delta[perm]))
        assert np.array_equal(d1.knots, d2.knots)
        assert np.array_equal(d1.values, d2.values)

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


def _cache_sample():
    return random_ltrc_sample(np.random.default_rng(23), 80, tie_prob=0.4)


def _sorted_arrays(sorted_sample):
    return [getattr(sorted_sample, f.name) for f in dataclasses.fields(SortedSample)]


class TestFitCache:
    def test_sample_keeps_its_fit_and_sort(self):
        s = _cache_sample()
        fit = fit_pl(s)
        assert fit_pl(s) is fit
        assert s._sorted is not None and SortedSample.from_sample(s) is s._sorted
        assert fit_pl(s).quantile is fit.quantile
        for name in ("_fit", "_sorted"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)

    def test_fit_reuses_an_earlier_sort(self, monkeypatch):
        # one sort per sample, whether the sort or the fit comes first
        calls = []
        sorted_order = LtrcSample.sorted_order

        def counting(sample):
            calls.append(sample)
            return sorted_order(sample)

        monkeypatch.setattr(LtrcSample, "sorted_order", counting)
        sort_first, fit_first = _cache_sample(), _cache_sample()
        sorted_sample = SortedSample.from_sample(sort_first)
        fit_pl(sort_first)
        fit_pl(fit_first)
        assert SortedSample.from_sample(sort_first) is sorted_sample
        assert SortedSample.from_sample(fit_first) is fit_first._sorted
        assert calls == [sort_first, fit_first]

    def test_cached_arrays_are_read_only(self):
        s = _cache_sample()
        fit = fit_pl(s)
        arrays = [fit.knots, fit.values, *_sorted_arrays(SortedSample.from_sample(s))]
        assert len(arrays) == 10
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    @pytest.mark.parametrize(
        "duplicate",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_carry_no_cache(self, duplicate):
        s = _cache_sample()
        unfitted = pickle.dumps(LtrcSample(s.y, s.t, s.delta))
        fit = fit_pl(s)
        fit.quantile  # fills the fit's own cache too
        assert pickle.dumps(s) == unfitted
        twin = duplicate(s)
        refit = fit_pl(twin)
        assert refit is not fit and twin._sorted is not s._sorted
        for got, want in [
            (refit.knots, fit.knots),
            (refit.values, fit.values),
            *zip(_sorted_arrays(twin._sorted), _sorted_arrays(s._sorted)),
        ]:
            assert np.array_equal(got, want) and got.dtype == want.dtype
        assert refit.zero_factor_count == fit.zero_factor_count and refit.n == fit.n

    def test_threads_fitting_one_sample_only_repeat_work(self):
        want = fit_pl(_cache_sample())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                s = _cache_sample()
                fits = []
                threads = [
                    threading.Thread(target=lambda: fits.append(fit_pl(s))) for _ in range(4)
                ]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=10)
                assert not any(th.is_alive() for th in threads) and len(fits) == 4
                assert any(fit is fit_pl(s) for fit in fits)
                for fit in fits:
                    assert np.array_equal(fit.knots, want.knots)
                    assert np.array_equal(fit.values, want.values)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("step", ["sort", "fit"])
    def test_failed_fit_caches_nothing(self, monkeypatch, step):
        s = _cache_sample()
        want = fit_pl(LtrcSample(s.y, s.t, s.delta))

        def fail(*args):
            raise FloatingPointError("injected")

        if step == "sort":
            monkeypatch.setattr(LtrcSample, "sorted_order", fail)
        else:
            monkeypatch.setattr(ltrc, "_log_space_cdf", fail)
        for _ in range(2):
            with pytest.raises(FloatingPointError, match="injected"):
                fit_pl(s)
        monkeypatch.undo()
        fit = fit_pl(s)
        assert np.array_equal(fit.knots, want.knots) and np.array_equal(fit.values, want.values)


def _log_space_fit(sample):
    """The log-space fit of ``sample``: each distinct y and its CDF value.

    It is the product-limit CDF of one row of unit weights.  ``fit_pl`` takes
    these values and replaces those of its leading run by exact ratios.
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
        # the censored group after the leading run reads the run's product
        LtrcSample(np.arange(1.0, 8.0), [0.0] * 7, [1, 1, 0, 1, 1, 1, 1]),
    ],
    ids=[
        "tied-mixed-delta", "censored-max", "zero-factor", "all-tied", "n=1", "n=2",
        "censored-after-run",
    ],
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
        "dependent-10000": harness._generate_sample("dependent", "random-truncation", cfg, 10_000, 43),
        "dependent-10500": harness._generate_sample("dependent", "random-truncation", cfg, 10_500, 44),
    }


def _leading_run_sample(end):
    # y = 1..60, all entered at t = 0 and uncensored, except the point that ends
    # the leading run after 40 points: a censored y = 41, or a late entry at 40.5
    delta, t = np.ones(60, dtype=int), np.zeros(60)
    if end == "censored":
        delta[40] = 0
    else:
        t[59] = 40.5
    return LtrcSample(np.arange(1.0, 61.0), t, delta)


class TestExactFit:
    @staticmethod
    def _check_against_oracle(sample):
        d = fit_pl(sample)
        knots, fractions = _fraction_fit_loop(sample)
        assert np.array_equal(d.knots, knots)
        np.testing.assert_allclose(d.values, [float(f) for f in fractions], rtol=1e-14, atol=0)
        return d, fractions

    @_EDGE_CASES
    def test_matches_fraction_loop_on_edge_cases(self, sample):
        self._check_against_oracle(sample)

    @pytest.mark.parametrize(
        "name", ["iid-exp-2000", "dependent-2000", "dependent-10000", "dependent-10500"]
    )
    def test_matches_fraction_loop_on_benchmark_sized_samples(self, exact_oracle_samples, name):
        self._check_against_oracle(exact_oracle_samples[name])

    def test_matches_fraction_loop_on_random_tied_samples(self):
        rng = np.random.default_rng(17)
        zero_factor_fits = 0
        for _ in range(300):
            s = random_ltrc_sample(rng, int(rng.integers(2, 80)), tie_prob=0.4)
            d, _ = self._check_against_oracle(s)
            zero_factor_fits += d.zero_factor_count > 0
        assert zero_factor_fits > 0

    @pytest.mark.parametrize("end", ["censored", "late-entry"])
    def test_leading_run_is_correctly_rounded(self, end):
        d, fractions = self._check_against_oracle(_leading_run_sample(end))
        assert np.array_equal(d.values[:40], [float(f) for f in fractions[:40]])


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

    @pytest.mark.parametrize("p", [float("nan"), np.array([0.5, np.nan])], ids=["float", "array"])
    def test_nan_level_rejected(self, p):
        q = pl_quantile(fit_pl(LtrcSample.from_complete_data([3.0, 1.0, 2.0])))
        with pytest.raises(ValueError, match=r"quantile levels must lie in \(0, 1\]"):
            q(p)

    @pytest.mark.parametrize(
        "edges, values, message",
        [
            ([0.0, 1.0], [1.0, 2.0], "one element longer"),
            ([0.0, 0.5, 0.7, 1.0], [1.0, 2.0], "one element longer"),
            ([0.0, 1.0], [], "one element longer"),
            ([0.0, 0.5], [1.0], "from 0 to 1"),
            ([0.1, 1.0], [1.0], "from 0 to 1"),
            ([np.nan, 1.0], [1.0], "from 0 to 1"),
            ([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
            ([0.0, 0.6, 0.4, 1.0], [1.0, 2.0, 3.0], "strictly increasing"),
            ([0.0, np.nan, 1.0], [1.0, 2.0], "strictly increasing"),
            ([0.0, 0.5, 1.0], [2.0, 1.0], "nondecreasing"),
        ],
        ids=["short-edges", "long-edges", "no-values", "below-1", "above-0", "nan-end",
             "tied-edges", "falling-edges", "nan-edge", "falling-values"],
    )
    def test_quantile_function_refuses_bad_steps(self, edges, values, message):
        with pytest.raises(ValueError, match=message):
            QuantileFunction(edges, values)

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
