"""Tests for the variance plug-in, the normal refinement and the bootstrap."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

from specrisk import (
    BootstrapError,
    BootstrapPlan,
    EdgeworthDiagnostics,
    EstimationError,
    ExpectedShortfallSpectrum,
    ExponentialSpectrum,
    LtrcSample,
    MlEstimator,
    ModelFamily,
    ProdEstimator,
    SingularDensityError,
    StepDistribution,
    WindowScheme,
    asymptotic_ci,
    bootstrap_ci,
    bootstrap_ci_many,
    build_estimator,
    edgeworth_cdf,
    edgeworth_diagnostics,
    estimate_emp,
    estimate_sigma2,
    fit_pl,
    pl_quantile,
    sample_ltrc_iid,
)
from specrisk import estimators, harness, inference, ltrc
from specrisk.estimators import ESTIMATOR_NAMES, KernelQuantileSmoother, parametric_srm
from specrisk.ltrc import SortedSample
from specrisk.rng import derive_rng, replicate_indices
from specrisk.spectra import _check_edges

from conftest import random_ltrc_sample


class TestEdgeworthCdf:
    def test_tail_limits(self):
        diag = EdgeworthDiagnostics(
            sigma01_sq=2.0, kappa3=1.5, sigma0_sq=3.0, sigma1_sq=0.5, n=50, level=0.5
        )
        assert edgeworth_cdf(diag, -np.inf) == 0.0
        assert edgeworth_cdf(diag, np.inf) == 1.0

    def test_reduces_to_normal_without_correction(self):
        diag = EdgeworthDiagnostics(
            sigma01_sq=0.0, kappa3=0.0, sigma0_sq=0.0, sigma1_sq=0.0, n=50, level=0.5
        )
        for y in (-2.0, 0.0, 1.3):
            assert edgeworth_cdf(diag, y) == float(stats.norm.cdf(y))

    def test_hand_arithmetic_example(self):
        # Phi(1) - (1/sqrt(100)) phi(1) [0 * (1/6) + 1/2] = Phi(1) - 0.05 phi(1)
        diag = EdgeworthDiagnostics(
            sigma01_sq=1.0, kappa3=1.0, sigma0_sq=1.0, sigma1_sq=0.25, n=100, level=0.5
        )
        hand = 0.8292462098425857
        assert edgeworth_cdf(diag, 1.0) == pytest.approx(hand, abs=1e-9)

    def test_vectorized_evaluation(self):
        diag = EdgeworthDiagnostics(
            sigma01_sq=1.0, kappa3=-0.5, sigma0_sq=1.0, sigma1_sq=0.25, n=30, level=0.5
        )
        grid = np.array([-1.0, 0.0, 2.0])
        out = edgeworth_cdf(diag, grid)
        assert out.shape == grid.shape
        assert all(edgeworth_cdf(diag, float(y)) == pytest.approx(v) for y, v in zip(grid, out))

    def test_correction_scales_as_inverse_root_n(self):
        base = EdgeworthDiagnostics(
            sigma01_sq=1.2, kappa3=0.8, sigma0_sq=2.0, sigma1_sq=0.3, n=100, level=0.5
        )
        quad = EdgeworthDiagnostics(
            sigma01_sq=1.2, kappa3=0.8, sigma0_sq=2.0, sigma1_sq=0.3, n=400, level=0.5
        )
        y = np.linspace(-5, 5, 1001)
        dev_base = np.max(np.abs(edgeworth_cdf(base, y) - stats.norm.cdf(y)))
        dev_quad = np.max(np.abs(edgeworth_cdf(quad, y) - stats.norm.cdf(y)))
        assert dev_base / dev_quad == pytest.approx(2.0, abs=1e-9)

    def test_ndtr_and_exp_are_the_norm_floats(self):
        # edgeworth_cdf's normal CDF and density, without loading scipy.stats
        y = np.concatenate((np.linspace(-40.0, 40.0, 200_001), [np.inf, -np.inf, np.nan, 0.0, -0.0]))
        assert np.array_equal(special.ndtr(y), stats.norm.cdf(y), equal_nan=True)
        dens = np.exp(-(y**2) / 2.0) / np.sqrt(2 * np.pi)
        assert np.array_equal(dens, stats.norm.pdf(y), equal_nan=True)

    def test_matches_the_scipy_stats_formula(self):
        diag = EdgeworthDiagnostics(
            sigma01_sq=1.2, kappa3=0.8, sigma0_sq=2.0, sigma1_sq=0.3, n=100, level=0.5
        )
        y = np.concatenate((np.linspace(-9.0, 9.0, 2001), [np.inf, -np.inf]))
        bracket = np.where(np.isfinite(y), diag.kappa3 / 6.0 * (y * y - 1.0) + math.sqrt(1.2) / 2.0, 0.0)
        want = stats.norm.cdf(y) - diag.n ** (-0.5) * stats.norm.pdf(y) * bracket
        assert np.array_equal(edgeworth_cdf(diag, y), want)


class TestEdgeworthDiagnostics:
    def test_complete_data_matches_literal_sum(self):
        values = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3])
        s = LtrcSample.from_complete_data(values)
        level = 0.6
        diag = edgeworth_diagnostics(s, level)
        # literal plug-in sums: C_n at the i-th order statistic is (n-i+1)/n
        ordered = np.sort(values)
        n = len(values)
        bound = ordered[math.ceil(level * n) - 1]
        s01 = sum(
            (n / (n - i)) ** 2 / n for i in range(n) if ordered[i] <= bound
        )
        i3 = sum((n / (n - i)) ** 3 / n for i in range(n) if ordered[i] <= bound)
        assert diag.sigma01_sq == pytest.approx(s01, rel=1e-12)
        expected_k3 = (-7.5 * s01**2 + i3) / s01**1.5
        assert diag.kappa3 == pytest.approx(expected_k3, rel=1e-12)
        assert diag.sigma1_sq == pytest.approx((1 - level) ** 2 * s01, rel=1e-12)

    def test_vanishing_level_empties_the_integral(self):
        s = LtrcSample.from_complete_data(np.arange(1.0, 21.0))
        diag = edgeworth_diagnostics(s, 0.04)
        # only the smallest point is below the fitted 4% quantile bound
        assert diag.sigma01_sq == pytest.approx((20 / 20) ** 2 / 20, rel=1e-12)

    def test_single_term_hand_computation(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        diag = edgeworth_diagnostics(s, 0.5)
        # one uncensored point below the bound, risk set 2: C = 1
        assert diag.sigma01_sq == pytest.approx(0.5, rel=1e-14)
        assert diag.kappa3 == pytest.approx((-7.5 * 0.25 + 0.5) / 0.5**1.5, rel=1e-12)

    def test_level_at_terminal_quantile_rejected(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        with pytest.raises(ValueError, match="largest observation"):
            edgeworth_diagnostics(s, 0.9)


class TestSigma2:
    def test_single_point_sample(self):
        s = LtrcSample([5.0, 5.0, 5.0], [0.0, 0.0, 0.0], [1, 1, 1])
        assert estimate_sigma2(s, ExponentialSpectrum(1.0)) == 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        s = LtrcSample.from_complete_data(1.0 + rng.exponential(1.0, 400))
        spec = ExponentialSpectrum(1.0)
        base = estimate_sigma2(s, spec)
        scaled = estimate_sigma2(
            LtrcSample.from_complete_data(3.0 * s.y), spec
        )
        assert scaled == pytest.approx(9.0 * base, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        s = random_ltrc_sample(rng, 120)
        spec = ExponentialSpectrum(1.0)
        perm = rng.permutation(len(s))
        shuffled = LtrcSample(s.y[perm], s.t[perm], s.delta[perm])
        assert estimate_sigma2(s, spec) == estimate_sigma2(shuffled, spec)

    def test_matches_lstatistic_oracle_on_clean_design(self):
        # moderately sized version of the acceptance check
        rng = np.random.default_rng(4)
        s = LtrcSample.from_complete_data(1000.0 + rng.exponential(1000.0, 2000))
        spec = ExponentialSpectrum(1.0)
        sigma2 = estimate_sigma2(s, spec)

        def integrand(v, u):
            return (
                (min(u, v) - u * v)
                / ((1 - u) * (1 - v))
                * spec.phi(u)
                * spec.phi(v)
            )

        oracle, _ = integrate.dblquad(integrand, 0, 1, 0, 1, epsabs=1e-9, epsrel=1e-7)
        oracle *= 1000.0**2  # 1/f(F^-1(u)) = theta / (1-u)
        assert sigma2 == pytest.approx(oracle, rel=0.2)

    def test_density_floor_triggers(self, monkeypatch):
        rng = np.random.default_rng(6)
        s = LtrcSample.from_complete_data(rng.exponential(1.0, 50))
        monkeypatch.setattr(inference, "DENSITY_FLOOR", 1e6)
        with pytest.raises(SingularDensityError, match="below"):
            estimate_sigma2(s, ExponentialSpectrum(1.0))


def _dense_epanechnikov_density(dist, at, h, chunk=256):
    """The kernel sum over every knot: the reference for the banded version."""
    jumps = dist.jumps()
    knots = dist.knots
    out = np.empty(at.size)
    for start in range(0, at.size, chunk):
        block = at[start : start + chunk, None]
        v = (block - knots[None, :]) / h
        kern = np.where(np.abs(v) <= 1.0, 0.75 * (1.0 - v * v), 0.0)
        out[start : start + chunk] = kern @ jumps / h
    return out


@pytest.fixture(scope="module")
def density_samples():
    cfg = harness.default_dependent_config()
    samples = {
        "iid-exp-2000": harness._generate_sample("iid-exp", "random-truncation", None, 2000, 31),
        "dependent-10500": harness._generate_sample(
            "dependent", "random-truncation", cfg, 10_500, 32
        ),
        "ties": random_ltrc_sample(np.random.default_rng(33), 400, tie_prob=0.8),
    }
    for shift in (1e6, -1e6):
        s = samples["dependent-10500"]
        samples[f"dependent-10500{shift:+g}"] = LtrcSample(s.y + shift, s.t + shift, s.delta)
    return samples


class TestBandedDensity:
    @pytest.mark.parametrize(
        "name, bandwidth",
        [
            ("iid-exp-2000", "default"),
            ("dependent-10500", "default"),
            ("ties", "default"),
            ("iid-exp-2000", "tiny"),
            ("ties", "tiny"),
            ("iid-exp-2000", "wider-than-range"),
            # far from 0 the moments must be taken about nearby centres
            ("dependent-10500+1e+06", "default"),
            ("dependent-10500-1e+06", "default"),
        ],
    )
    def test_matches_dense_kernel_sum(self, density_samples, name, bandwidth):
        s = density_samples[name]
        dist = fit_pl(s)
        q = pl_quantile(dist)
        span = float(q.values[-1] - q.values[0])
        h = {
            "default": len(s) ** -0.2 * float(q(0.75) - q(0.25)) / 1.349,
            "tiny": 1e-6 * span,
            "wider-than-range": 2.0 * span,
        }[bandwidth]
        # quantile values, the midpoints between them and points beyond the data
        at = np.sort(
            np.concatenate(
                (
                    q.values,
                    0.5 * (q.values[1:] + q.values[:-1]),
                    [q.values[0] - 3.0 * h, q.values[-1] + 3.0 * h],
                )
            )
        )
        oracle = _dense_epanechnikov_density(dist, at, h)
        banded = inference._epanechnikov_density(dist, at, h)
        assert np.all(banded[oracle == 0.0] == 0.0)
        assert np.all(np.abs(banded - oracle) <= 1e-13 * np.abs(oracle))

    def test_window_is_open(self):
        # integer knots, points and h: each x - h and x + h is exact, so the
        # points at knot +- h must leave that knot out, and no rounding
        # residue of its moments (z and u are thirds) may stand in for its zero
        h = 3.0
        dist = StepDistribution([0.0, 1.0, 2.0, 10.0, 20.0], [0.125, 0.25, 0.5, 0.75, 1.0])
        at = np.arange(-4.0, 25.0)
        density = inference._epanechnikov_density(dist, at, h)
        for x, value in zip(at.tolist(), density.tolist()):
            exact = _fraction_density(dist, x, h)
            if exact == 0:
                assert value == 0.0, x
            else:
                assert abs(Fraction(value) - exact) <= Fraction(1e-15) * exact, x

    def test_window_meeting_three_cells(self):
        # a and b lie less than 2h apart, but rounding puts them in cells two
        # apart, so the window at x meets three cells: the one case that
        # gathers a third piece
        k0, h = -1.7707971766946446, 0.3603254483921724
        a, b, x = 0.3911555136583897, 1.1118064104427343, 0.751480962050562
        dist = StepDistribution([k0, a, 0.75, b], [0.25, 0.5, 0.75, 1.0])
        cells = np.floor((dist.knots - k0) / (2.0 * h))
        assert cells[3] - cells[1] == 2 and Fraction(b) - Fraction(a) < 2 * Fraction(h)
        assert x - h < a and b < x + h
        density = inference._epanechnikov_density(dist, np.array([x]), h)
        exact = _fraction_density(dist, x, h)
        assert abs(Fraction(float(density[0])) - exact) <= Fraction(1e-13) * exact

    def test_one_knot(self):
        h = 3.0
        dist = StepDistribution([2.0], [1.0])
        at = np.arange(-2.0, 7.0)
        v = (at - 2.0) / h
        expected = np.where(np.abs(v) < 1.0, 0.75 * (1.0 - v * v) / h, 0.0)
        density = inference._epanechnikov_density(dist, at, h)
        assert np.all(density[expected == 0.0] == 0.0)
        assert density == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("name", ["iid-exp-2000", "dependent-10500", "ties"])
    def test_sigma2_matches_dense_kernel_sum(self, density_samples, monkeypatch, name):
        s = density_samples[name]
        spectra = [ExponentialSpectrum(k) for k in (0.0, 1.0, 200.0)]
        spectra.append(ExpectedShortfallSpectrum(0.9))
        banded = [estimate_sigma2(s, spec) for spec in spectra]
        monkeypatch.setattr(inference, "_epanechnikov_density", _dense_epanechnikov_density)
        dense = [estimate_sigma2(s, spec) for spec in spectra]
        assert banded == pytest.approx(dense, rel=1e-12, abs=0.0)


def _fraction_density(dist, x, h):
    """The kernel sum at ``x`` of the same float knots, jumps and h, in exact rationals."""
    knots, jumps = dist.knots, dist.jumps()
    lo, hi = np.searchsorted(knots, [x - 2.0 * h, x + 2.0 * h])
    x, h = Fraction(x), Fraction(h)
    total = Fraction(0)
    for k, w in zip(knots[lo:hi].tolist(), jumps[lo:hi].tolist()):
        v = (x - Fraction(k)) / h
        if v * v < 1:
            total += Fraction(w) * (1 - v * v)
    return 3 * total / (4 * h)


class TestDensityOracle:
    @pytest.mark.parametrize(
        "name, bandwidth, kinds",
        [
            ("iid-exp-2000", "default", {"moments", "direct"}),
            ("dependent-10500", "default", {"moments", "direct"}),
            ("ties", "default", {"direct"}),
            ("iid-exp-2000", "tiny", {"direct"}),
            ("ties", "tiny", {"direct"}),
            ("ties", "wider-than-range", {"moments", "direct"}),
        ],
    )
    def test_matches_exact_kernel_sum(self, density_samples, name, bandwidth, kinds):
        s = density_samples[name]
        dist = fit_pl(s)
        q = pl_quantile(dist)
        span = float(q.values[-1] - q.values[0])
        h = {
            "default": len(s) ** -0.2 * float(q(0.75) - q(0.25)) / 1.349,
            "tiny": 1e-6 * span,
            "wider-than-range": 2.0 * span,
        }[bandwidth]
        lo, hi = float(q.values[0]), float(q.values[-1])
        beyond = [lo - 3.0 * h, lo - 0.5 * h, hi + 0.5 * h, hi + 3.0 * h]
        at = np.sort(np.concatenate((q.values, 0.5 * (q.values[1:] + q.values[:-1]), beyond)))
        density = inference._epanechnikov_density(dist, at, h)

        # blocks of 64 sorted points: those spanning at most h lie where the
        # knots are dense, the others where they are sparse, and points of both
        # kinds are checked
        block = 64
        starts = np.arange(0, at.size, block)
        spans = np.maximum.reduceat(at, starts) - np.minimum.reduceat(at, starts)
        by_moments = np.repeat(spans <= h, block)[: at.size]
        rng = np.random.default_rng(61)
        checked = [np.flatnonzero(np.isin(at, beyond))]
        for pool in (np.flatnonzero(by_moments), np.flatnonzero(~by_moments)):
            checked.append(rng.choice(pool, min(pool.size, 16), replace=False))
        checked = np.concatenate(checked)
        seen = {"moments" if by_moments[i] else "direct" for i in checked}
        assert seen == kinds

        for i in checked:
            exact = _fraction_density(dist, float(at[i]), h)
            if exact == 0:
                assert density[i] == 0.0
            else:
                assert abs(Fraction(float(density[i])) - exact) <= Fraction(1e-12) * abs(exact)


def _set_density_block(monkeypatch, points):
    """Make ``_epanechnikov_density`` take its points in blocks of ``points``."""
    # a block holds _REPLICATE_BLOCK_CELLS floats of its largest temporary, 9 a point
    monkeypatch.setattr(inference, "_REPLICATE_BLOCK_CELLS", 9 * points)


def _knot_cells_in_windows(dist, at, h):
    """How many cells of width 2h the knots inside each open window (x - h, x + h) fall in."""
    knots = dist.knots
    cell = np.floor((knots - knots[0]) / (2.0 * h))
    return [np.unique(cell[(knots > x - h) & (knots < x + h)]).size for x in at.tolist()]


class TestDensityBlocks:
    @pytest.mark.parametrize(
        "name, bandwidth",
        [
            ("iid-exp-2000", "default"),
            ("dependent-10500", "default"),
            ("ties", "default"),
            ("iid-exp-2000", "tiny"),
            ("ties", "tiny"),
            ("iid-exp-2000", "wider-than-range"),
            ("ties", "wider-than-range"),
            ("dependent-10500+1e+06", "default"),
            ("dependent-10500-1e+06", "default"),
        ],
    )
    def test_values_do_not_depend_on_block_size(self, density_samples, monkeypatch, name, bandwidth):
        s = density_samples[name]
        dist = fit_pl(s)
        q = pl_quantile(dist)
        span = float(q.values[-1] - q.values[0])
        h = {
            "default": len(s) ** -0.2 * float(q(0.75) - q(0.25)) / 1.349,
            "tiny": 1e-6 * span,
            "wider-than-range": 2.0 * span,
        }[bandwidth]
        mid = 0.5 * (q.values[1:] + q.values[:-1])
        at = np.sort(np.concatenate((q.values, mid, [q.values[0] - 3.0 * h, q.values[-1] + 3.0 * h])))
        default = inference._epanechnikov_density(dist, at, h)
        for points in (1, 7, at.size + 1):
            _set_density_block(monkeypatch, points)
            assert np.array_equal(inference._epanechnikov_density(dist, at, h), default), points

    @pytest.mark.parametrize("points", [1, 2, 3, 4, 5])
    def test_block_boundary_next_to_a_window_meeting_three_cells(self, monkeypatch, points):
        # the geometry of TestBandedDensity.test_window_meeting_three_cells:
        # only the window at x meets three cells, so only the block holding x
        # gathers a third piece, and a boundary at 3 or 4 points falls on one
        # side of x or the other
        k0, h = -1.7707971766946446, 0.3603254483921724
        a, b, x = 0.3911555136583897, 1.1118064104427343, 0.751480962050562
        dist = StepDistribution([k0, a, 0.75, b], [0.25, 0.5, 0.75, 1.0])
        at = np.array([k0, a, 0.75, x, b, b + 0.5 * h])
        assert _knot_cells_in_windows(dist, at, h) == [1, 2, 2, 3, 1, 1]
        whole = inference._epanechnikov_density(dist, at, h)
        _set_density_block(monkeypatch, points)
        density = inference._epanechnikov_density(dist, at, h)
        assert np.array_equal(density, whole)
        for value, xi in zip(density.tolist(), at.tolist()):
            exact = _fraction_density(dist, xi, h)
            assert abs(Fraction(value) - exact) <= Fraction(1e-13) * exact, xi

    def test_sigma2_does_not_depend_on_block_size(self, density_samples, monkeypatch):
        s = density_samples["dependent-10500"]
        spectra = [ExponentialSpectrum(k) for k in (0.0, 1.0, 20.0, 200.0)]
        spectra.append(ExpectedShortfallSpectrum(0.9))
        default = [estimate_sigma2(s, spec) for spec in spectra]
        _set_density_block(monkeypatch, 7)
        assert [estimate_sigma2(s, spec) for spec in spectra] == default

    @pytest.mark.skipif(sys.platform != "linux", reason="minor page faults are counted on Linux")
    def test_sigma2_maps_no_fresh_pages(self):
        # whole-sample temporaries of several MB took about 1,000 minor faults
        # a call at n = 10 500, mapped afresh by the allocator each time.  The
        # count is taken in a fresh interpreter: the allocator raises its
        # thresholds once it has freed large blocks, so after the other tests
        # in this process those faults no longer show.
        pytest.importorskip("resource")
        script = (
            "import resource\n"
            "from specrisk import ExponentialSpectrum, estimate_sigma2, harness\n"
            "cfg = harness.default_dependent_config()\n"
            "s = harness._generate_sample('dependent', 'random-truncation', cfg, 10_500, 32)\n"
            "estimate_sigma2(s, ExponentialSpectrum(20.0))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(5):\n"
            "    estimate_sigma2(s, ExponentialSpectrum(20.0))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(inference.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        assert int(proc.stdout.split()[-1]) < 100


class TestBootstrap:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        s = random_ltrc_sample(rng, 60)
        plan = BootstrapPlan(replicates=80, seed=99)
        spec = ExponentialSpectrum(1.0)
        a = bootstrap_ci(s, ProdEstimator(), spec, plan)
        b = bootstrap_ci(s, ProdEstimator(), spec, plan)
        assert a == b

    def test_negative_seed_rejected(self):
        # the replicate streams take nonnegative keys only
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            BootstrapPlan(replicates=10, seed=-1)

    def test_replicates_beyond_one_stream_word_rejected(self):
        # replicate b's stream key must be one 32-bit entropy word
        assert BootstrapPlan(replicates=2**32).replicates == 2**32
        with pytest.raises(ValueError, match="replicates must be at most 2\\*\\*32"):
            BootstrapPlan(replicates=2**32 + 1)

    def test_a_call_builds_one_generator_not_one_per_replicate(self, monkeypatch):
        s = random_ltrc_sample(np.random.default_rng(8), 50)  # 200 replicates fill one block
        built = []

        def counting(name, make):
            def build(*args, **kwargs):
                built.append(name)
                return make(*args, **kwargs)

            return build

        # each of these builds one SeedSequence, and PCG64 builds one from an int seed
        for name in ("SeedSequence", "default_rng", "PCG64"):
            monkeypatch.setattr(np.random, name, counting(name, getattr(np.random, name)))
        spectra = [ExponentialSpectrum(k) for k in (1.0, 20.0)]
        reports = bootstrap_ci_many(s, [ProdEstimator()], spectra, BootstrapPlan(replicates=200, seed=3))
        assert [r.replicates_used + r.replicate_failures for r in reports] == [200, 200]
        assert len(built) <= 1

    def test_a_call_draws_no_index_with_numpy_integers(self, integers_calls):
        # the indices come from raw words; integers is left for rows numpy would draw again
        s = random_ltrc_sample(np.random.default_rng(8), 50)  # no row of these 200 does
        plan = BootstrapPlan(replicates=200, seed=3)
        reports = bootstrap_ci_many(s, [ProdEstimator()], [ExponentialSpectrum(1.0)], plan)
        assert reports[0].replicates_used + reports[0].replicate_failures == 200
        assert integers_calls == []

    def test_degenerate_sample_gives_zero_width(self):
        s = LtrcSample([4.0] * 20, [0.0] * 20, [1] * 20)
        rep = bootstrap_ci(s, ProdEstimator(), ExponentialSpectrum(5.0), BootstrapPlan(replicates=60, seed=1))
        assert rep.ci_low == rep.ci_high == pytest.approx(4.0, rel=1e-12)
        assert rep.point == pytest.approx(4.0, rel=1e-12)

    def test_single_replicate_contract(self):
        s = LtrcSample([1.0, 2.0], [0.0, 0.0], [1, 1])
        rep = bootstrap_ci(s, ProdEstimator(), ExponentialSpectrum(1.0), BootstrapPlan(replicates=1, seed=5))
        assert rep.std_error is None
        assert rep.ci_low is None and rep.ci_high is None
        assert rep.replicates_used == 1

    def test_below_interval_threshold_gives_point_and_se_only(self):
        s = LtrcSample([1.0, 2.0, 3.0], [0.0] * 3, [1] * 3)
        rep = bootstrap_ci(s, ProdEstimator(), ExponentialSpectrum(1.0), BootstrapPlan(replicates=20, seed=5))
        assert rep.std_error is not None
        assert rep.ci_low is None

    def test_shift_invariance_of_interval(self):
        rng = np.random.default_rng(8)
        s = random_ltrc_sample(rng, 50)
        spec = ExponentialSpectrum(1.0)
        plan = BootstrapPlan(replicates=100, seed=3)
        base = bootstrap_ci(s, ProdEstimator(), spec, plan)
        shifted_sample = LtrcSample(s.y + 10.0, s.t + 10.0, s.delta)
        shifted = bootstrap_ci(shifted_sample, ProdEstimator(), spec, plan)
        scale = abs(base.ci_high) + 10.0
        assert shifted.ci_low == pytest.approx(base.ci_low + 10.0, abs=1e-9 * scale)
        assert shifted.ci_high == pytest.approx(base.ci_high + 10.0, abs=1e-9 * scale)

    def test_endpoints_are_order_statistics(self):
        rng = np.random.default_rng(9)
        s = random_ltrc_sample(rng, 40)
        rep = bootstrap_ci(
            s, ProdEstimator(), ExponentialSpectrum(1.0), BootstrapPlan(replicates=101, seed=11)
        )
        assert rep.ci_low <= rep.point <= rep.ci_high

    def test_many_spectra_match_single_spectrum_runs(self):
        from specrisk import bootstrap_ci_many

        rng = np.random.default_rng(12)
        s = random_ltrc_sample(rng, 45)
        plan = BootstrapPlan(replicates=80, seed=21)
        spectra = [ExponentialSpectrum(k) for k in (1.0, 10.0, 100.0)]
        shared = bootstrap_ci_many(s, [ProdEstimator()], spectra, plan)
        for spec, report in zip(spectra, shared):
            assert report == bootstrap_ci(s, ProdEstimator(), spec, plan)

    def test_order_statistic_helper_brackets_the_median(self):
        from specrisk.inference import _order_statistic

        rng = np.random.default_rng(10)
        reps = np.sort(rng.normal(size=73))
        lo, mid, hi = (_order_statistic(reps, q) for q in (0.05, 0.5, 0.95))
        assert lo <= mid <= hi
        assert lo in reps and hi in reps

    def test_failure_budget_enforced(self):
        # the one interior point is missed by about 3 in 10 resamples: (3/4)^4
        ml = MlEstimator(scheme=WINDOW, family=ModelFamily.SHIFTED_EXPONENTIAL, x0=1000.0)
        s = _WINDOW_SAMPLES["no-interior"]
        with pytest.raises(BootstrapError, match="interval refused"):
            bootstrap_ci(s, ml, ExponentialSpectrum(1.0), BootstrapPlan(replicates=100, seed=2))


def _refit_loop(sample, estimator, spectra, plan):
    """Replicate estimates by refitting every resample: one row per spectrum.

    The reference for the weighted replicates; a replicate whose fit or
    evaluation raises ``EstimationError`` is NaN.  Also returns, per
    replicate, whether the resample misses the largest y and whether its
    product-limit fit has a zero factor.
    """
    n = len(sample)
    values = np.full((len(spectra), plan.replicates), np.nan)
    misses_max = np.zeros(plan.replicates, dtype=bool)
    zero_factor = np.zeros(plan.replicates, dtype=bool)
    for b in range(plan.replicates):
        idx = derive_rng(plan.seed, b).integers(0, n, n)
        resampled = LtrcSample(sample.y[idx], sample.t[idx], sample.delta[idx])
        misses_max[b] = resampled.y.max() < sample.y.max()
        zero_factor[b] = fit_pl(resampled).zero_factor_count > 0
        try:
            ctx = estimator.prepare(resampled)
        except EstimationError:
            continue
        for i, spec in enumerate(spectra):
            try:
                values[i, b] = estimator.evaluate(ctx, spec)
            except EstimationError:
                pass
    return values, misses_max, zero_factor


_REPLICATE_SPECTRA = (
    ExponentialSpectrum(0.0),
    ExponentialSpectrum(1.0),
    ExponentialSpectrum(200.0),
    ExpectedShortfallSpectrum(0.9),
)

_REPLICATE_SAMPLES = {
    "tied-mixed-delta": LtrcSample([1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0], [0.0] * 7, [1, 0, 1, 1, 0, 1, 1]),
    "censored-max": LtrcSample([1.0, 2.0, 2.5, 3.0], [0.0] * 4, [1, 1, 1, 0]),
    "zero-factor": LtrcSample([1.0, 2.0, 3.0], [0.0, 1.5, 1.5], [1, 1, 0]),
    "all-tied": LtrcSample([2.0] * 5, [0.0] * 5, [1, 0, 1, 0, 1]),
    "n=1": LtrcSample([4.0], [1.0], [1]),
    "n=2": LtrcSample([1.0, 3.0], [0.0, 0.5], [1, 0]),
    "random-ties": random_ltrc_sample(np.random.default_rng(41), 40, tie_prob=0.3),
}


WINDOW = WindowScheme.fixed(4000.0, 14000.0)

# fixed-window samples for ml and pm; all but the first two make some resamples fail
_WINDOW_SAMPLES = {
    "exp-window": sample_ltrc_iid(harness.EXP_MODEL, WINDOW, 40, seed=3),
    "pareto-window": sample_ltrc_iid(harness.PARETO_MODEL, WINDOW, 40, seed=4),
    "no-interior": LtrcSample([14000.0] * 3 + [5000.0], [4000.0] * 4, [0, 0, 0, 1]),
    "at-deductible": LtrcSample([4000.0, 4000.0, 4500.0, 6000.0, 14000.0], [4000.0] * 5, [1, 1, 1, 1, 0]),
    "heavy-tail": LtrcSample([5000.0, 12000.0, 13000.0, 14000.0, 14000.0], [4000.0] * 5, [1, 1, 1, 0, 0]),
    "rare-interior": LtrcSample([14000.0] * 7 + [5000.0, 6000.0, 9000.0], [4000.0] * 10, [0] * 7 + [1] * 3),
    "rare-deductible": LtrcSample(
        [4000.0, 4000.0, 4500.0, 5000.0, 5500.0, 6000.0, 7000.0, 8000.0, 9000.0, 14000.0],
        [4000.0] * 10,
        [1] * 9 + [0],
    ),
}


def _replicate_cases():
    for name in ESTIMATOR_NAMES:
        if name in ("ml", "pm"):
            for family in ModelFamily:
                for sample in _WINDOW_SAMPLES:
                    yield pytest.param(name, family, sample, id=f"{sample}-{name}-{family.value}")
        else:
            for sample in _REPLICATE_SAMPLES:
                yield pytest.param(name, None, sample, id=f"{sample}-{name}")


def _case(name, family, sample_name):
    samples = _WINDOW_SAMPLES if family else _REPLICATE_SAMPLES
    return build_estimator(name, WINDOW, family, 1000.0), samples[sample_name]


class TestWeightedReplicates:
    @pytest.mark.parametrize("name, family, sample_name", list(_replicate_cases()))
    def test_matches_refit_loop(self, name, family, sample_name):
        estimator, s = _case(name, family, sample_name)
        plan = BootstrapPlan(replicates=60, seed=17)
        fast = inference._weighted_replicates(s, [estimator], _REPLICATE_SPECTRA, plan)[0]
        slow, _, _ = _refit_loop(s, estimator, _REPLICATE_SPECTRA, plan)
        assert np.array_equal(np.isnan(fast), np.isnan(slow))
        rtol = 1e-8 if name == "kernel" else 1e-12
        np.testing.assert_allclose(fast, slow, rtol=rtol, atol=0.0)

        failures = np.isnan(slow).sum(axis=1)
        over_budget = failures.max() > inference.MAX_FAILURE_FRACTION * plan.replicates
        try:
            reports = bootstrap_ci_many(s, [estimator], _REPLICATE_SPECTRA, plan)
        except BootstrapError:
            assert over_budget
            return
        except EstimationError:  # the point estimate on the sample itself fails
            return
        assert not over_budget
        assert [r.replicate_failures for r in reports] == failures.tolist()
        assert [r.replicates_used for r in reports] == (plan.replicates - failures).tolist()

    @pytest.mark.parametrize(
        "name, flag",
        [("censored-max", "misses_max"), ("random-ties", "misses_max"), ("zero-factor", "zero_factor")],
    )
    def test_cases_reach_their_edge(self, name, flag):
        # the equivalence cases above do exercise these resamples
        _, misses_max, zero_factor = _refit_loop(
            _REPLICATE_SAMPLES[name], ProdEstimator(), _REPLICATE_SPECTRA[:1],
            BootstrapPlan(replicates=60, seed=17),
        )
        seen = {"misses_max": misses_max, "zero_factor": zero_factor}[flag]
        assert seen.any() and not seen.all()

    @pytest.mark.parametrize(
        "name, family, sample_name",
        [
            ("ml", ModelFamily.SHIFTED_EXPONENTIAL, "no-interior"),
            ("ml", ModelFamily.SHIFTED_EXPONENTIAL, "rare-interior"),
            ("ml", ModelFamily.PARETO_I, "heavy-tail"),
            ("pm", ModelFamily.SHIFTED_EXPONENTIAL, "at-deductible"),
            ("pm", ModelFamily.SHIFTED_EXPONENTIAL, "rare-deductible"),
            ("pm", ModelFamily.PARETO_I, "heavy-tail"),
        ],
    )
    def test_failure_cases_fail_in_part(self, name, family, sample_name):
        # no interior point, the matched percentile at the deductible, alpha <= 1;
        # the rare cases stay within the failure budget, so reports count them
        estimator, s = _case(name, family, sample_name)
        slow, _, _ = _refit_loop(s, estimator, _REPLICATE_SPECTRA, BootstrapPlan(replicates=60, seed=17))
        failed = np.isnan(slow)
        assert failed.any() and not failed.all()

    @pytest.mark.parametrize("name", ESTIMATOR_NAMES)
    def test_blocks_do_not_change_values(self, monkeypatch, name):
        family = ModelFamily.PARETO_I if name in ("ml", "pm") else None
        estimator, s = _case(name, family, "pareto-window" if family else "random-ties")
        plan = BootstrapPlan(replicates=70, seed=5)
        one_block = inference._weighted_replicates(s, [estimator], _REPLICATE_SPECTRA, plan)
        one_block_reports = bootstrap_ci_many(s, [estimator], _REPLICATE_SPECTRA, plan)
        monkeypatch.setattr(inference, "_REPLICATE_BLOCK_CELLS", len(s))  # one replicate per block
        blocked = inference._weighted_replicates(s, [estimator], _REPLICATE_SPECTRA, plan)
        assert np.array_equal(blocked, one_block)
        assert bootstrap_ci_many(s, [estimator], _REPLICATE_SPECTRA, plan) == one_block_reports

    @pytest.mark.parametrize("block_cells", [inference._REPLICATE_BLOCK_CELLS, 3 * 40])
    def test_one_pass_matches_each_estimator_alone(self, monkeypatch, block_cells):
        # every estimator reads the shared weight blocks as it would read its own
        monkeypatch.setattr(inference, "_REPLICATE_BLOCK_CELLS", block_cells)
        s = _WINDOW_SAMPLES["exp-window"]
        family = ModelFamily.SHIFTED_EXPONENTIAL
        all_five = [build_estimator(name, WINDOW, family, 1000.0) for name in ESTIMATOR_NAMES]
        plan = BootstrapPlan(replicates=70, seed=5)
        shared = inference._weighted_replicates(s, all_five, _REPLICATE_SPECTRA, plan)
        alone = [inference._weighted_replicates(s, [e], _REPLICATE_SPECTRA, plan)[0] for e in all_five]
        assert np.array_equal(shared, np.stack(alone))
        reports = bootstrap_ci_many(s, all_five, _REPLICATE_SPECTRA, plan)
        assert reports == [
            r for e in all_five for r in bootstrap_ci_many(s, [e], _REPLICATE_SPECTRA, plan)
        ]
        assert [r.estimator for r in reports] == [n for n in ESTIMATOR_NAMES for _ in _REPLICATE_SPECTRA]

    def test_point_estimates_come_before_intervals(self):
        # the exponential ml interval is refused (see test_failure_budget_enforced),
        # but the Pareto ml point estimate after it fails first: alpha < 1
        s = _WINDOW_SAMPLES["no-interior"]
        ml_exp, ml_pareto = (MlEstimator(WINDOW, family, 1000.0) for family in ModelFamily)
        plan = BootstrapPlan(replicates=100, seed=2)
        with pytest.raises(BootstrapError, match="interval refused"):
            bootstrap_ci_many(s, [ml_exp], [ExponentialSpectrum(1.0)], plan)
        with pytest.raises(EstimationError, match="the spectral integral diverges"):
            bootstrap_ci_many(s, [ml_exp, ml_pareto], [ExponentialSpectrum(1.0)], plan)


def _gathered_replicates(estimator, sample, weights, spectra):
    """Replicate estimates from ``weights`` in original order, gathered by the sort order.

    A copy of the estimators' path before weights arrived in sorted order:
    each ``replicates`` gathered the weights by the sort order itself, and
    the level sums prepended the zero level.  The reference for
    ``replicates`` on the same draws.
    """
    s = SortedSample.from_sample(sample)
    order = np.argsort(s.rank)
    w_sorted = weights[:, order]

    def pl_cdf():
        by_t = np.argsort(sample.t)
        risk = (
            ltrc._prefix_sums(weights[:, by_t])[:, s.entered]
            - ltrc._prefix_sums(w_sorted)[:, s.passed]
        )
        return ltrc._log_space_cdf(s.delta, risk, s.starts, w_sorted)

    def level_sums(x, levels):
        edges = np.concatenate((np.zeros((levels.shape[0], 1)), levels), axis=1)
        edges = _check_edges(np.ascontiguousarray(edges))
        tails = 1.0 - edges
        return np.array([np.sum(x * spec._masses(edges, tails), axis=-1) for spec in spectra])

    if estimator.name == "prod":
        return level_sums(s.y[s.starts], pl_cdf())
    if estimator.name == "emp":
        return level_sums(s.y, np.cumsum(w_sorted, axis=1) / s.y.size)
    if estimator.name == "kernel":
        x, cdfs = s.y[s.starts], pl_cdf()
        smoothers = [KernelQuantileSmoother(StepDistribution(x, cdf).quantile) for cdf in cdfs]
        return np.array([[estimator.evaluate(q, spec) for q in smoothers] for spec in spectra])
    family, scheme = estimator.family, estimator.scheme
    if estimator.name == "ml":
        params = estimators._ml_fit(s.y, s.delta, np.take(weights, order, axis=1), scheme, family)
    else:
        _, params = estimators._pm_fit(s.y, w_sorted, scheme.deductible, family, estimator.p1)
        params = np.where(params > 0, params, np.nan)
    return np.array([parametric_srm(family, estimator.x0, params, spec) for spec in spectra])


def _row_counts(idx: np.ndarray) -> np.ndarray:
    """Per row of ``idx``, the count of each value in range(n)."""
    rows, n = idx.shape
    flat = (idx + n * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, minlength=idx.size).reshape(idx.shape)


_SORTED_WEIGHT_SPECTRA = tuple(ExponentialSpectrum(k) for k in (0.0, 1.0, 5.0, 20.0, 200.0)) + (
    ExpectedShortfallSpectrum(0.9),
)


class TestSortedWeights:
    """Weights in sorted order give every ``replicates`` the floats of the gather path."""

    @staticmethod
    def _check(estimator, sample, idx, spectra):
        s = SortedSample.from_sample(sample)
        weights, sorted_weights = _row_counts(idx), _row_counts(s.rank[idx])
        assert np.array_equal(sorted_weights, weights[:, np.argsort(s.rank)])
        got = estimator.replicates(s, sorted_weights, spectra)
        want = _gathered_replicates(estimator, sample, weights, spectra)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, family, sample_name", list(_replicate_cases()))
    def test_each_case_matches_the_gather_path(self, name, family, sample_name):
        estimator, s = _case(name, family, sample_name)
        rows = 4 if name == "kernel" else 200
        idx = np.random.default_rng(len(s)).integers(0, len(s), (rows, len(s)))
        self._check(estimator, s, idx, _SORTED_WEIGHT_SPECTRA)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_samples_match_the_gather_path(self, seed):
        rng = np.random.default_rng(seed)
        s = random_ltrc_sample(rng, int(rng.integers(1, 150)), tie_prob=0.3)
        scheme = WindowScheme.fixed(0.05, 2.0)
        for name in ESTIMATOR_NAMES:
            for family in ModelFamily if name in ("ml", "pm") else (None,):
                estimator = build_estimator(name, scheme, family, 1.0)
                rows, spectra = (2, _SORTED_WEIGHT_SPECTRA[1::2]) if name == "kernel" else (
                    64, _SORTED_WEIGHT_SPECTRA
                )
                idx = rng.integers(0, len(s), (rows, len(s)))
                self._check(estimator, s, idx, spectra)

    @pytest.mark.parametrize("block_cells", [inference._REPLICATE_BLOCK_CELLS, 3 * 40])
    def test_engine_matches_the_gather_path(self, monkeypatch, block_cells):
        # the engine's blocks of ranks count the same draws as blocks of indices
        monkeypatch.setattr(inference, "_REPLICATE_BLOCK_CELLS", block_cells)
        s = _WINDOW_SAMPLES["exp-window"]
        family = ModelFamily.SHIFTED_EXPONENTIAL
        group = [build_estimator(name, WINDOW, family, 1000.0) for name in ("prod", "emp", "ml", "pm")]
        plan = BootstrapPlan(replicates=70, seed=5)
        got = inference._weighted_replicates(s, group, _SORTED_WEIGHT_SPECTRA, plan)
        weights = _row_counts(replicate_indices(plan.seed, 0, plan.replicates, len(s)))
        want = np.stack([_gathered_replicates(e, s, weights, _SORTED_WEIGHT_SPECTRA) for e in group])
        assert got.tobytes() == want.tobytes()


class TestAsymptoticCi:
    def test_zero_level_gives_zero_width(self):
        rng = np.random.default_rng(10)
        s = LtrcSample.from_complete_data(1.0 + rng.exponential(1.0, 100))
        rep = asymptotic_ci(s, ExponentialSpectrum(1.0), level=0.0)
        assert rep.ci_low == rep.ci_high == rep.point

    def test_degenerate_variance_collapses_interval(self):
        s = LtrcSample([2.0] * 10, [0.0] * 10, [1] * 10)
        rep = asymptotic_ci(s, ExponentialSpectrum(1.0), level=0.9)
        assert rep.ci_low == rep.ci_high == rep.point

    def test_ndtri_is_norm_ppf(self):
        # ndtri replaced stats.norm.ppf: the same float on a grid with the ends
        # of the range, its zeros and its infinities
        q = np.concatenate((
            np.linspace(0.0, 1.0, 200_001),
            [-0.0, 5e-324, 1e-300, 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)],
            [1.0, np.inf, -np.inf, 1.5, -0.5, np.nan],
        ))
        got, want = special.ndtri(q), stats.norm.ppf(q)
        assert np.array_equal(got, want, equal_nan=True)
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))

    @pytest.mark.parametrize("level", [0.0, 0.5, 0.9, 0.95, 0.999, math.nextafter(1.0, 0.0)])
    def test_interval_half_width_is_norm_ppf(self, level):
        rng = np.random.default_rng(12)
        s = LtrcSample.from_complete_data(1.0 + rng.exponential(1.0, 150))
        rep = asymptotic_ci(s, ExponentialSpectrum(5.0), level=level)
        half = float(stats.norm.ppf(0.5 * (1.0 + level))) * rep.std_error
        assert (rep.ci_low, rep.ci_high) == (float(rep.point - half), float(rep.point + half))

    def test_ninety_percent_uses_standard_normal_quantile(self):
        rng = np.random.default_rng(11)
        s = LtrcSample.from_complete_data(1.0 + rng.exponential(1.0, 200))
        rep = asymptotic_ci(s, ExponentialSpectrum(1.0), level=0.90)
        z = 1.6448536269514722  # 95th standard normal percentile
        assert rep.ci_high - rep.point == pytest.approx(z * rep.std_error, rel=1e-9)
        assert rep.point - rep.ci_low == pytest.approx(z * rep.std_error, rel=1e-9)


def _zero_factor_sample():
    # y = 1.0 is uncensored and alone in its risk set: every later y enters above it
    rng = np.random.default_rng(52)
    y = np.concatenate((rng.uniform(0.0, 1.0, 100), [1.0], rng.uniform(2.0, 5.0, 200)))
    t = np.concatenate((np.zeros(101), np.full(200, 1.5)))
    d = np.concatenate((np.ones(101, dtype=int), rng.random(200) < 0.8))
    return LtrcSample(y, t, d)


def _tied_mixed_delta_sample():
    rng = np.random.default_rng(51)
    y = 0.1 + np.round(rng.exponential(1.0, 400), 1)
    return LtrcSample(y, rng.uniform(0.0, 0.1, 400), (rng.random(400) < 0.7).astype(int))


@pytest.fixture(scope="module")
def context_samples(density_samples):
    return {
        "tied-mixed-delta": _tied_mixed_delta_sample(),
        "zero-factor": _zero_factor_sample(),
        "above-exact-limit": density_samples["dependent-10500"],
    }


class TestSharedFit:
    def test_cases_reach_their_edge(self, context_samples):
        tied = context_samples["tied-mixed-delta"]
        mixed = [set(tied.delta[tied.y == v]) == {0, 1} for v in np.unique(tied.y)]
        assert any(mixed)
        assert fit_pl(context_samples["zero-factor"]).zero_factor_count > 0
        assert len(context_samples["above-exact-limit"]) > 10_000

    def test_each_analysis_fits_once(self, context_samples, monkeypatch):
        s = context_samples["tied-mixed-delta"]
        calls = []
        original = ltrc.fit_pl

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (ltrc, estimators, inference):
            monkeypatch.setattr(module, "fit_pl", counting_fit)
        spec = ExponentialSpectrum(1.0)

        def fits(call):
            calls.clear()
            call()
            return len(calls)

        assert fits(lambda: asymptotic_ci(s, spec)) == 1
        assert fits(lambda: estimate_sigma2(s, spec)) == 1
        assert fits(lambda: edgeworth_diagnostics(s, 0.5)) == 1

    def test_quantile_is_computed_once(self, context_samples, monkeypatch):
        s = context_samples["tied-mixed-delta"]
        # a sample keeps its fit, so rebuild it for a fit whose quantile nobody has read
        fit = fit_pl(LtrcSample(s.y, s.t, s.delta))
        expected = pl_quantile(fit)
        calls = []

        def counting_quantile(dist):
            calls.append(1)
            return pl_quantile(dist)

        monkeypatch.setattr(ltrc, "pl_quantile", counting_quantile)
        q = fit.quantile
        assert fit.quantile is q and len(calls) == 1
        for name in ("edges", "values"):
            assert np.array_equal(getattr(q, name), getattr(expected, name))

    @pytest.fixture
    def sorts_and_fits(self, monkeypatch):
        """Counts (sorts, fits) since the last read: ``sorted_order`` calls, and
        distinct fits that ``fit_pl`` returned, one per run of its body."""
        sorts, fits = [], []
        sorted_order, original = LtrcSample.sorted_order, ltrc.fit_pl

        def counting_order(sample):
            sorts.append(1)
            return sorted_order(sample)

        def counting_fit(sample):
            fit = original(sample)
            if not any(f is fit for f in fits):
                fits.append(fit)
            return fit

        monkeypatch.setattr(LtrcSample, "sorted_order", counting_order)
        for module in (ltrc, estimators, inference):
            monkeypatch.setattr(module, "fit_pl", counting_fit)

        def read():
            counts = (len(sorts), len(fits))
            sorts.clear()
            fits.clear()
            return counts

        return read

    def test_analyses_of_a_sample_sort_and_fit_it_once(self, sorts_and_fits):
        s = _tied_mixed_delta_sample()
        spec = ExponentialSpectrum(1.0)
        asymptotic_ci(s, spec)
        estimate_sigma2(s, spec)
        edgeworth_diagnostics(s, 0.5)
        edgeworth_diagnostics(s, 0.9)
        assert sorts_and_fits() == (1, 1)

    @pytest.mark.parametrize(
        "names", [("prod", "emp", "kernel"), ESTIMATOR_NAMES, ("emp",), ("ml", "pm")]
    )
    def test_bootstrap_sorts_and_fits_a_sample_once(self, sorts_and_fits, names):
        s = sample_ltrc_iid(harness.EXP_MODEL, WINDOW, 40, seed=3)
        family = ModelFamily.SHIFTED_EXPONENTIAL
        group = [build_estimator(name, WINDOW, family, 1000.0) for name in names]
        bootstrap_ci_many(s, group, _REPLICATE_SPECTRA, BootstrapPlan(replicates=60, seed=5))
        fits = int("prod" in names or "kernel" in names)
        assert sorts_and_fits() == (1, fits)

    @pytest.mark.parametrize("names", [("prod", "kernel"), ESTIMATOR_NAMES])
    def test_mc_worker_fits_each_replicate_once(self, sorts_and_fits, names):
        plan = harness.ExperimentPlan(
            design="iid-exp", n_grid=(30,), k_grid=(1.0, 20.0), replicates=4,
            estimators=names, master_seed=7, mode="fixed-thresholds",
        )
        out = harness._replicate_range((plan, None, 30, 0, plan.replicates))
        assert np.isfinite(out[:, 0]).all()  # prod
        assert sorts_and_fits() == (plan.replicates, plan.replicates)

    @pytest.mark.parametrize("names", [("emp",), ("pm",)])
    def test_mc_worker_sorts_each_replicate_once_without_a_fit(self, sorts_and_fits, names):
        plan = harness.ExperimentPlan(
            design="iid-exp", n_grid=(30,), k_grid=(1.0, 20.0), replicates=4,
            estimators=names, master_seed=7, mode="fixed-thresholds",
        )
        out = harness._replicate_range((plan, None, 30, 0, plan.replicates))
        assert np.isfinite(out).any()
        assert sorts_and_fits() == (plan.replicates, 0)

    def test_emp_points_sort_a_sample_once(self, sorts_and_fits):
        s = _tied_mixed_delta_sample()
        for spec in _REPLICATE_SPECTRA:
            estimate_emp(s, spec)
        assert sorts_and_fits() == (1, 0)

    def test_estimators_call_no_np_sort(self, monkeypatch):
        counting = _CountingNumpy()
        monkeypatch.setattr(estimators, "np", counting)
        family = ModelFamily.SHIFTED_EXPONENTIAL
        group = [build_estimator(name, WINDOW, family, 1000.0) for name in ESTIMATOR_NAMES]
        s = sample_ltrc_iid(harness.EXP_MODEL, WINDOW, 40, seed=3)
        bootstrap_ci_many(s, group, _REPLICATE_SPECTRA, BootstrapPlan(replicates=60, seed=5))
        plan = harness.ExperimentPlan(
            design="iid-exp", n_grid=(30,), k_grid=(1.0, 20.0), replicates=4,
            estimators=ESTIMATOR_NAMES, master_seed=7, mode="fixed-thresholds",
        )
        harness._replicate_range((plan, None, 30, 0, plan.replicates))
        estimate_emp(_tied_mixed_delta_sample(), ExponentialSpectrum(1.0))
        assert counting.sorts == 0
        counting.sort(np.ones(2))  # the count does see a call
        assert counting.sorts == 1


class _CountingNumpy:
    """numpy, with a count of its ``sort`` calls."""

    def __init__(self):
        self.sorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sort(self, *args, **kwargs):
        self.sorts += 1
        return np.sort(*args, **kwargs)
