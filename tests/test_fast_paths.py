"""The float paths of the quadrature callbacks and the one-exp-per-edge masses.

Each fast path is held bit for bit to the path it replaced: a float level
against the same call on a 0-d array, a quad over the fast integrand against
the same quad over one that calls the array paths, and segment masses from
shared edges against ``segment_integral`` on each segment's two ends.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from specrisk import (
    ExpectedShortfallSpectrum,
    ExponentialSpectrum,
    KernelEstimator,
    WindowScheme,
    fit_pl,
    ground_up_quantile,
    srm_from_edges,
    srm_from_quantile,
    theoretical_srm,
    window_quantile,
)
from specrisk import harness
from specrisk.estimators import KERNEL_BANDWIDTH, _srm_from_levels
from specrisk.ltrc import QuantileFunction, SortedSample
from specrisk.severity import window_branch_point

from conftest import random_ltrc_sample

BENCH_K = (1.0, 5.0, 10.0, 20.0, 100.0, 200.0)  # the k grid of every benchmark workload
PHI_K = (0.0, 1e-9, 1.0, 5.0, 20.0, 200.0)
MODELS = {"exp": harness.EXP_MODEL, "pareto": harness.PARETO_MODEL}
WINDOW = WindowScheme.fixed(harness.DEDUCTIBLE, harness.LIMIT)
LEVELS = np.random.default_rng(19).random(10_000).tolist()


def _spectra():
    return [ExponentialSpectrum(k) for k in PHI_K] + [
        ExpectedShortfallSpectrum(p) for p in (0.0, 0.9)
    ]


def _mismatches(fast, slow, levels) -> int:
    """Levels at which the float call differs from the call on a 0-d array."""
    return sum(fast(p) != slow(np.asarray(p)) for p in levels)


class TestFloatPaths:
    @pytest.mark.parametrize("spec", _spectra(), ids=repr)
    def test_phi(self, spec):
        assert all(isinstance(spec.phi(p), float) for p in LEVELS[:10])
        assert _mismatches(spec.phi, spec.phi, LEVELS + [0.0, 0.9, 1.0]) == 0

    @pytest.mark.parametrize("k", PHI_K)
    def test_phi_float_branch_reads_k(self, k, monkeypatch):
        # the float branch tests k == 0.0 itself; it must not need the property
        spec = ExponentialSpectrum(k)
        levels = LEVELS[:200] + [0.0, 0.5, 1.0]
        want = [float(spec.phi(np.asarray(p))) for p in levels]

        def refused(self):
            raise AssertionError("float branch read is_uniform_limit")

        monkeypatch.setattr(ExponentialSpectrum, "is_uniform_limit", property(refused))
        assert [spec.phi(p) for p in levels] == want
        assert (k == 0.0) == all(v == 1.0 for v in want)

    @pytest.mark.parametrize("name", MODELS)
    def test_ground_up_quantile(self, name):
        f = lambda p: ground_up_quantile(MODELS[name], p)
        assert _mismatches(f, f, LEVELS + [0.0]) == 0

    @pytest.mark.parametrize("name", MODELS)
    def test_window_quantile(self, name):
        model = MODELS[name]
        f = lambda p: window_quantile(model, WINDOW, p)
        branch = window_branch_point(model, WINDOW)
        below, above = math.nextafter(branch, 0.0), math.nextafter(branch, 1.0)
        levels = LEVELS + [0.0, branch, below, above, 1.0]
        assert f(branch) == f(above) == harness.LIMIT > f(below)
        assert _mismatches(f, f, levels) == 0

    @pytest.mark.parametrize("routine", ["math.exp", "math.log1p", "np.power"])
    def test_other_routines_are_caught(self, routine):
        # the float paths must call the array path's routine: on this check's
        # levels math's exp and log1p and numpy's SIMD power differ from it in
        # the last bit somewhere, where the host has such routines
        k, model = 20.0, MODELS["pareto"]
        mutants = {
            "math.exp": (
                lambda u: k * math.exp(-k * (1.0 - u)) / float(-np.expm1(-k)),
                ExponentialSpectrum(k).phi,
            ),
            "math.log1p": (
                lambda p: 1000.0 - 1000.0 * math.log1p(-p),
                lambda p: ground_up_quantile(MODELS["exp"], p),
            ),
            "np.power": (
                lambda p: model.x0 * float(np.power(1.0 - p, -1.0 / model.alpha)),
                lambda p: ground_up_quantile(model, p),
            ),
        }
        mutant, reference = mutants[routine]
        found = _mismatches(mutant, reference, LEVELS)
        if found == 0:
            pytest.skip(f"{routine} equals the array path's routine on this host")
        assert found > 0


class _ArrayPathSpectrum:
    """A spectrum whose ``phi`` takes every level down its array path."""

    def __init__(self, spec):
        self._spec = spec

    def __getattr__(self, name):
        return getattr(self._spec, name)

    def phi(self, u):
        return self._spec.phi(np.asarray(u))


class TestQuadIsUnchanged:
    @pytest.mark.parametrize("k", BENCH_K)
    @pytest.mark.parametrize("name", MODELS)
    def test_theoretical_srm(self, name, k):
        model, spec = MODELS[name], ExponentialSpectrum(k)
        slow_spec = _ArrayPathSpectrum(spec)
        assert theoretical_srm(lambda p: ground_up_quantile(model, p), spec) == theoretical_srm(
            lambda p: ground_up_quantile(model, np.asarray(p)), slow_spec
        )
        branch = (window_branch_point(model, WINDOW),)
        fast = theoretical_srm(lambda p: window_quantile(model, WINDOW, p), spec, branch)
        slow = theoretical_srm(
            lambda p: window_quantile(model, WINDOW, np.asarray(p)), slow_spec, branch
        )
        assert fast == slow

    def test_kernel_evaluate(self):
        cfg = harness.default_dependent_config()
        sample = harness._generate_sample("dependent", "random-truncation", cfg, 100, 100002)
        est = KernelEstimator()
        ctx = est.prepare(sample)
        for k in (1.0, 20.0, 200.0):
            spec = ExponentialSpectrum(k)
            slow, _ = integrate.quad(
                lambda u: float(spec.phi(np.asarray(u))) * ctx(u),
                0.0,
                1.0,
                points=[KERNEL_BANDWIDTH, 1.0 - KERNEL_BANDWIDTH],
                limit=200,
                epsabs=1e-12,
                epsrel=1e-8,
            )
            assert est.evaluate(ctx, spec) == slow


class TestEdgeMasses:
    @pytest.mark.parametrize("seed", range(20))
    def test_srm_from_quantile(self, seed):
        rng = np.random.default_rng(seed)
        q = fit_pl(random_ltrc_sample(rng, int(rng.integers(1, 300)), tie_prob=0.3)).quantile
        for spec in _spectra():
            masses = spec.segment_integral(q.edges[:-1], q.edges[1:])
            assert np.array_equal(spec.segment_masses(q.edges), masses)
            assert srm_from_quantile(q, spec) == float(np.sum(q.values * masses))

    def test_srm_from_sorted_on_the_oracle_grid(self):
        n = harness.ORACLE_DRAWS
        values = np.sort(np.random.default_rng(3).standard_normal(n))
        grid = np.arange(n + 1) / n
        for k in (0.0, *BENCH_K):
            spec = ExponentialSpectrum(k)
            masses = spec.segment_integral(grid[:-1], grid[1:])
            assert np.array_equal(spec.segment_masses(grid), masses)
            q = QuantileFunction(grid, values)
            assert srm_from_quantile(q, spec) == float(np.sum(values * masses))

    @pytest.mark.parametrize("n", [1, 30, 250, 1000])
    def test_srm_from_levels(self, n):
        rng = np.random.default_rng(n)
        s = SortedSample.from_sample(random_ltrc_sample(rng, n, tie_prob=0.3))
        weights = rng.multinomial(n, np.full(n, 1.0 / n), size=64)
        x = s.y[s.starts]
        spectra = _spectra()
        for levels in (s.pl_cdf(weights), np.asfortranarray(s.pl_cdf(weights))):
            c_levels = np.ascontiguousarray(levels)
            lower = np.concatenate((np.zeros((levels.shape[0], 1)), c_levels[:, :-1]), axis=1)
            want = [np.sum(x * spec.segment_integral(lower, c_levels), axis=1) for spec in spectra]
            assert np.array_equal(_srm_from_levels(x, levels, spectra), np.array(want))
            # the grid's one check and one 1 - edges give each spectrum's srm_from_edges
            edges = np.concatenate((lower, c_levels[:, -1:]), axis=1)
            for spec, row in zip(spectra, want):
                assert np.array_equal(srm_from_edges(x, edges, spec), row)
                assert np.array_equal(_srm_from_levels(x, levels, [spec])[0], row)

    @pytest.mark.parametrize("bad", [math.nan, 1.1, -0.1, "falling"])
    def test_srm_from_levels_checks_its_edges(self, bad):
        x = np.array([1.0, 2.0, 3.0])
        levels = np.array([[0.2, 0.6, 1.0], [0.3, 0.7, 1.0]])
        if bad == "falling":
            levels[1] = [0.5, 0.4, 1.0]
        else:
            levels[1, 1] = bad
        for spec in _spectra():
            with pytest.raises(ValueError, match="0 <= a <= b <= 1"):
                _srm_from_levels(x, levels, [spec])

    @pytest.mark.parametrize("spec", _spectra(), ids=repr)
    def test_bounds_checked(self, spec):
        nan = math.nan
        for edges in (
            [-0.1, 0.5, 1.0],
            [0.0, 0.6, 0.5, 1.0],
            [0.0, 0.5, 1.1],
            [nan, 0.5, 1.0],
            [0.0, nan, 1.0],
            [0.0, 0.5, nan],
        ):
            with pytest.raises(ValueError, match="0 <= a <= b <= 1"):
                spec.segment_masses(np.array(edges))
            # one bad row among good ones
            good = np.linspace(0.0, 1.0, len(edges))
            with pytest.raises(ValueError, match="0 <= a <= b <= 1"):
                spec.segment_masses(np.stack((good, edges, good)))
