"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS|FAIL` line (run pytest with -s or
-v plus -rA to see them).  Criteria with runtime budgets assert those too.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from specrisk import (
    DependentModelConfig,
    ExpectedShortfallSpectrum,
    ExponentialSpectrum,
    LtrcSample,
    SeverityModel,
    edgeworth_cdf,
    edgeworth_diagnostics,
    estimate_emp,
    estimate_prod,
    estimate_sigma2,
    fit_pl,
    ground_up_quantile,
    sample_ltrc_dependent,
    srm_from_quantile,
    theoretical_srm,
)
from specrisk.cli import main
from specrisk.harness import (
    ExperimentPlan,
    default_dependent_config,
    run_coverage_experiment,
    run_dependent_experiment,
    run_iid_experiment,
)
from specrisk.rng import derive_rng

from conftest import pl_cdf_bruteforce, random_ltrc_sample
from test_estimators import random_step_quantile

ACCEPTANCE_SEED = 20_250_101
K_GRID = (1.0, 5.0, 10.0, 20.0, 100.0, 200.0)

EXP_MODEL = SeverityModel.shifted_exponential(1000.0, 1000.0)
PARETO_MODEL = SeverityModel.pareto_i(1000.0, 2.0)

# Reference rows for the theoretical-value criterion, in thousands.
# Correction to the final Pareto entry: the source table prints 24.066 for
# k=200, a one-digit slip for 25.066, which is asserted here. For Pareto I
# (x0=1000, alpha=2) the exact value is 1000*sqrt(k)*Gamma(1/2)*P(1/2, k)
# / (1 - exp(-k)), which at k=200 is 1000*sqrt(200*pi) = 25066.28; the k=100
# entry, 17.725, is 1000*sqrt(100*pi) to all printed digits, and since the
# value grows like sqrt(k) the k=200 entry must be about sqrt(2) = 1.414
# times it (25.066 / 17.725 = 1.414, whereas 24.066 / 17.725 = 1.358).
# test_severity.py::test_pareto_matches_closed_form is the independent
# scipy.special oracle for this entry.
EXP_TABLE = {1.0: 2.260, 5.0: 3.203, 10.0: 3.878, 20.0: 4.572, 100.0: 6.182, 200.0: 6.876}
PARETO_TABLE = {1.0: 2.363, 5.0: 3.984, 10.0: 5.605, 20.0: 7.927, 100.0: 17.725, 200.0: 25.066}


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_theoretical_values():
    """Adaptive quadrature reproduces both theoretical-value rows to 0.2%."""
    t0 = time.perf_counter()
    failures = []
    for model, table, label in (
        (EXP_MODEL, EXP_TABLE, "exp"),
        (PARETO_MODEL, PARETO_TABLE, "pareto"),
    ):
        for k, expected_thousands in table.items():
            value = theoretical_srm(
                lambda p: ground_up_quantile(model, p), ExponentialSpectrum(k)
            )
            expected = expected_thousands * 1000.0
            if abs(value - expected) > 0.002 * expected:
                failures.append(f"{label} k={k:g}: computed {value:.2f} vs table {expected:.1f}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(1, ok, f"theoretical SRM rows within 0.2% ({elapsed:.2f}s); failures: {failures}")
    assert elapsed < 1.0
    assert not failures, "; ".join(failures)


def test_criterion_02_pl_reduction_suite():
    """On complete data the PL fit is the ECDF and the uniform SRM is the mean."""
    t0 = time.perf_counter()
    rng = derive_rng(ACCEPTANCE_SEED, "pl-reduction")
    uniform = ExponentialSpectrum(0.0)
    for _ in range(200):
        n = int(rng.integers(1, 201))
        values = np.exp(rng.normal(0.0, 1.0, size=n)) * 100.0
        sample = LtrcSample.from_complete_data(values)
        dist = fit_pl(sample)
        ordered = np.sort(values)
        ecdf_at = dist.cdf(ordered)
        assert np.array_equal(ecdf_at, np.arange(1, n + 1) / n)
        mean = float(np.mean(values))
        prod = estimate_prod(sample, uniform)
        assert abs(prod - mean) <= 1e-10 * abs(mean)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(2, ok, f"200 censoring/truncation-free fits reduce exactly ({elapsed:.2f}s)")
    assert ok


def test_criterion_03_bruteforce_pl_oracle():
    """Fits match a literal rational-arithmetic evaluation at every y."""
    rng = derive_rng(ACCEPTANCE_SEED, "pl-bruteforce")
    for _ in range(50):
        n = int(rng.integers(2, 51))
        sample = random_ltrc_sample(rng, n, tie_prob=0.25)
        dist = fit_pl(sample)
        for x in np.unique(sample.y):
            exact = dist.cdf_exact(float(x))
            oracle = pl_cdf_bruteforce(sample, float(x))
            assert exact == oracle, f"mismatch at y={x}: {exact} vs {oracle}"
    _report(3, True, "50 random LTRC fits match the brute-force product exactly")


def test_criterion_04_spectrum_properties():
    """Additivity, normalization, monotonicity in k, exact equivariance."""
    rng = derive_rng(ACCEPTANCE_SEED, "spectrum-props")
    for k in K_GRID:
        spec = ExponentialSpectrum(k)
        cuts = np.sort(rng.uniform(0.0, 1.0, size=64))
        grid = np.concatenate(([0.0], cuts, [1.0]))
        total = float(np.sum(spec.segment_integral(grid[:-1], grid[1:])))
        assert abs(total - 1.0) <= 1e-12
    for _ in range(100):
        q = random_step_quantile(rng, n_segments=int(rng.integers(2, 20)))
        values = [srm_from_quantile(q, ExponentialSpectrum(k)) for k in K_GRID]
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))
    spec = ExponentialSpectrum(10.0)
    for _ in range(20):
        sample = random_ltrc_sample(rng, 60, tie_prob=0.1)
        lam, shift = 2.5, 7.0
        for est in (estimate_prod, estimate_emp):
            base = est(sample, spec)
            scaled = est(LtrcSample(lam * sample.y, lam * sample.t, sample.delta), spec)
            shifted = est(LtrcSample(sample.y + shift, sample.t + shift, sample.delta), spec)
            assert abs(scaled - lam * base) <= 1e-12 * abs(lam * base)
            assert abs(shifted - (base + shift)) <= 1e-12 * abs(base + shift)
    _report(4, True, "spectrum additivity/normalization, k-monotonicity, equivariance")


def test_criterion_05_expected_shortfall_crosscheck():
    """The indicator-spectrum integral equals direct tail averaging exactly."""
    rng = derive_rng(ACCEPTANCE_SEED, "es-crosscheck")
    for p in (0.9, 0.95):
        spec = ExpectedShortfallSpectrum(p)
        for _ in range(50):
            q = random_step_quantile(rng, n_segments=int(rng.integers(1, 25)))
            overlap = np.maximum(q.edges[1:] - np.maximum(q.edges[:-1], p), 0.0) / (1.0 - p)
            direct = float(np.sum(q.values * overlap))
            assert srm_from_quantile(q, spec) == direct
    _report(5, True, "expected-shortfall spectrum equals direct tail averaging, exact")


def _separation(res, lower: str, upper: str, n: int, k: float) -> tuple[float, float, float]:
    a, b = res.cell(lower, n, k), res.cell(upper, n, k)
    return a.rmse, b.rmse, (b.rmse - a.rmse) - 3.0 * math.hypot(a.rmse_se, b.rmse_se)


def test_criterion_06_table_orderings():
    """RMSE orderings at desk scale with 3-standard-error separation."""
    t0 = time.perf_counter()
    plan1 = ExperimentPlan(
        design="iid-exp", n_grid=(30,), k_grid=(1.0,), replicates=1000,
        master_seed=ACCEPTANCE_SEED,
    )
    res1 = run_iid_experiment(plan1)
    pe = _separation(res1, "prod", "emp", 30, 1.0)
    ek = _separation(res1, "emp", "kernel", 30, 1.0)

    cfg = default_dependent_config()
    plan3 = ExperimentPlan(
        design="dependent", n_grid=(100,), k_grid=(5.0,), replicates=1000,
        master_seed=ACCEPTANCE_SEED,
    )
    res3 = run_dependent_experiment(plan3, cfg)
    dep = _separation(res3, "prod", "emp", 100, 5.0)
    elapsed = time.perf_counter() - t0

    ok = pe[2] > 0 and ek[2] > 0 and dep[2] > 0 and elapsed < 600.0
    _report(
        6,
        ok,
        "orderings with >=3 MC-SE separation: "
        f"iid-exp n=30 k=1 rmse prod {pe[0]:.1f} < emp {pe[1]:.1f} < kernel {ek[1]:.1f} "
        f"(margins {pe[2]:.1f}, {ek[2]:.1f}); "
        f"dependent n=100 k=5 prod {dep[0]:.4f} < emp {dep[1]:.4f} (margin {dep[2]:.4f}); "
        f"{elapsed:.0f}s",
    )
    assert pe[2] > 0, f"prod vs emp separation failed: {pe}"
    assert ek[2] > 0, f"emp vs kernel separation failed: {ek}"
    assert dep[2] > 0, f"dependent prod vs emp separation failed: {dep}"
    assert elapsed < 600.0


def test_criterion_07_bootstrap_coverage():
    """Percentile-interval coverage on the identifiable design at desk scale."""
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        design="iid-exp", n_grid=(100,), k_grid=(1.0,), replicates=2,
        master_seed=ACCEPTANCE_SEED,
    )
    res = run_coverage_experiment(plan, bootstrap_replicates=200, intervals=500, level=0.90)
    cell = res.cells[0]
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= cell.coverage <= 0.95 and elapsed < 900.0
    _report(
        7,
        ok,
        f"90% interval coverage {cell.coverage:.3f} in [0.85, 0.95] "
        f"(n=100, k=1, 500x200, refused={cell.refused}); {elapsed:.0f}s",
    )
    assert 0.85 <= cell.coverage <= 0.95
    assert elapsed < 900.0


def test_criterion_08_edgeworth_diagnostics():
    """Formula arithmetic to 1e-9 and the exact n^{-1/2} shrink factor of 2."""
    from specrisk import EdgeworthDiagnostics

    diag = EdgeworthDiagnostics(
        sigma01_sq=1.0, kappa3=1.0, sigma0_sq=1.0, sigma1_sq=0.25, n=100, level=0.5
    )
    hand = 0.8292462098425857  # Phi(1) - 0.05 * phi(1)
    assert edgeworth_cdf(diag, 1.0) == pytest.approx(hand, abs=1e-9)

    cfg = DependentModelConfig(rho=0.1, phi2=1.087, mu=0.664)
    sample = sample_ltrc_dependent(cfg, 10_000, seed=ACCEPTANCE_SEED)
    measured = edgeworth_diagnostics(sample, 0.5)
    grid = np.arange(-5.0, 5.0 + 1e-9, 0.01)
    base = stats.norm.cdf(grid)
    dev_n = np.max(np.abs(edgeworth_cdf(measured, grid) - base))
    quadrupled = EdgeworthDiagnostics(
        sigma01_sq=measured.sigma01_sq,
        kappa3=measured.kappa3,
        sigma0_sq=measured.sigma0_sq,
        sigma1_sq=measured.sigma1_sq,
        n=4 * measured.n,
        level=measured.level,
    )
    dev_4n = np.max(np.abs(edgeworth_cdf(quadrupled, grid) - base))
    factor = dev_n / dev_4n
    ok = abs(factor - 2.0) <= 1e-6 and dev_n < 0.01
    _report(
        8,
        ok,
        f"refinement arithmetic to 1e-9; sup deviation {dev_n:.5f} < 0.01 at n=1e4; "
        f"quadrupling n shrinks it by {factor:.9f} (= 2 +- 1e-6)",
    )
    assert dev_n < 0.01
    assert abs(factor - 2.0) <= 1e-6


def test_criterion_09_variance_plugin():
    """Plug-in variance within 10% of the brute-force L-statistic oracle."""
    t0 = time.perf_counter()
    rng = derive_rng(ACCEPTANCE_SEED, "variance-check")
    sample = LtrcSample.from_complete_data(1000.0 + rng.exponential(1000.0, 5000))
    spec = ExponentialSpectrum(1.0)
    sigma2 = estimate_sigma2(sample, spec)

    def integrand(v, u):
        return (min(u, v) - u * v) / ((1 - u) * (1 - v)) * spec.phi(u) * spec.phi(v)

    oracle, _ = integrate.dblquad(integrand, 0, 1, 0, 1, epsabs=1e-9, epsrel=1e-7)
    oracle *= 1000.0**2  # 1/f(F^{-1}(u)) = theta/(1-u) for the exponential law
    rel = abs(sigma2 - oracle) / oracle
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.10 and elapsed < 60.0
    _report(
        9,
        ok,
        f"plug-in {sigma2:.4g} vs oracle {oracle:.4g}: relative error {rel:.3f} <= 0.10; "
        f"{elapsed:.0f}s",
    )
    assert rel <= 0.10
    assert elapsed < 60.0


def test_criterion_10_determinism(tmp_path):
    """Every command, rerun with identical flags/seed, yields identical bytes."""
    claims = tmp_path / "claims.csv"
    claims.write_text(
        "claim,group\n600000,1981\n900000,1981\n750000,1981\n"
        "1200000,1982\n820000,1982\n510000,1982\n"
    )
    commands = {
        "estimate": [
            "estimate", "--input", str(claims), "--format", "raw",
            "--deductible", "500000", "--estimators", "prod,emp", "--k", "1,10",
            "--bootstrap", "80", "--seed", str(ACCEPTANCE_SEED),
        ],
        "simulate": [
            "simulate", "--design", "iid-exp", "--n", "20", "--k", "1,5",
            "--reps", "12", "--seed", str(ACCEPTANCE_SEED),
        ],
        "coverage": [
            "coverage", "--design", "iid-exp", "--n", "20", "--k", "1",
            "--reps", "8", "--bootstrap", "55", "--seed", str(ACCEPTANCE_SEED),
        ],
        "calibrate": ["calibrate", "--target-alpha", "0.3"],
    }
    worker_variants = {"simulate": ("1", "3"), "coverage": ("1", "3")}
    problems = []
    for name, argv in commands.items():
        outputs = []
        runs = worker_variants.get(name, ("1", "1"))
        for tag, workers in zip(("a", "b"), runs):
            out_dir = tmp_path / f"{name}-{tag}"
            code = main(argv + ["--workers", workers, "--out", str(out_dir)])
            if code != 0:
                problems.append(f"{name}: exit {code}")
            outputs.append(
                sorted((p.name, p.read_bytes()) for p in out_dir.iterdir() if p.is_file())
            )
        if outputs[0] != outputs[1]:
            problems.append(f"{name}: outputs differ between reruns")
    ok = not problems
    _report(10, ok, f"byte-identical reruns across all commands and worker counts; {problems}")
    assert not problems, problems
