"""Tests for the Monte Carlo harness: determinism, identities, figure data."""

import math

import numpy as np
import pytest

from specrisk import DependentModelConfig, harness
from specrisk.harness import (
    ExperimentPlan,
    default_dependent_config,
    emit_rmse_ratio_log,
    run_coverage_experiment,
    run_dependent_experiment,
    run_iid_experiment,
)


def small_iid_plan(**overrides):
    defaults = dict(
        design="iid-exp",
        n_grid=(20,),
        k_grid=(1.0, 5.0),
        replicates=30,
        master_seed=71,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestPlanValidation:
    def test_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            ExperimentPlan(design="weird")

    def test_replicates_floor(self):
        with pytest.raises(ValueError, match="at least 2"):
            small_iid_plan(replicates=1)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="nonempty"):
            small_iid_plan(n_grid=())

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_nonfinite_k_rejected(self, k):
        # caught at construction, not inside ExponentialSpectrum mid-run
        with pytest.raises(ValueError, match="finite and nonnegative"):
            small_iid_plan(k_grid=(1.0, k))

    def test_negative_master_seed_rejected(self):
        # the random streams take nonnegative keys only
        with pytest.raises(ValueError, match="master_seed must be nonnegative"):
            small_iid_plan(master_seed=-1)

    def test_estimator_mode_compatibility(self):
        with pytest.raises(ValueError, match="fixed-thresholds"):
            small_iid_plan(estimators=("ml",), mode="random-truncation")

    def test_default_estimator_sets(self):
        assert small_iid_plan().resolved_estimators() == ("prod", "emp", "kernel")
        assert small_iid_plan(mode="fixed-thresholds").resolved_estimators() == (
            "prod",
            "emp",
            "kernel",
            "ml",
            "pm",
        )


class TestIidExperiment:
    def test_deterministic_reruns(self):
        res1 = run_iid_experiment(small_iid_plan())
        res2 = run_iid_experiment(small_iid_plan())
        assert res1.cells == res2.cells

    def test_worker_count_does_not_change_results(self):
        res1 = run_iid_experiment(small_iid_plan(workers=1))
        res2 = run_iid_experiment(small_iid_plan(workers=2))
        assert res1.cells == res2.cells

    def test_rmse_identity(self):
        res = run_iid_experiment(small_iid_plan())
        for c in res.cells:
            assert c.rmse**2 == pytest.approx(
                c.sd**2 + (c.mean - c.theoretical) ** 2, rel=1e-9
            )

    def test_window_diagnostic_emitted(self):
        res = run_iid_experiment(small_iid_plan())
        for c in res.cells:
            assert c.theoretical_window is not None
            assert c.theoretical_window > c.theoretical

    def test_seed_stability_when_replicates_double(self):
        base = run_iid_experiment(small_iid_plan(replicates=40))
        double = run_iid_experiment(small_iid_plan(replicates=80))
        for c40 in base.cells:
            c80 = double.cell(c40.estimator, c40.n, c40.k)
            se = c40.sd / math.sqrt(c40.replicates - c40.failures)
            assert abs(c80.mean - c40.mean) <= 3.0 * se + 1e-12

    def test_fixed_threshold_mode_runs_parametric_estimators(self):
        plan = small_iid_plan(mode="fixed-thresholds", replicates=20)
        res = run_iid_experiment(plan)
        names = {c.estimator for c in res.cells}
        assert names == {"prod", "emp", "kernel", "ml", "pm"}
        ml_cell = res.cell("ml", 20, 1.0)
        assert np.isfinite(ml_cell.mean)

    def test_pareto_design_runs(self):
        res = run_iid_experiment(small_iid_plan(design="iid-pareto", replicates=20))
        assert {c.design for c in res.cells} == {"iid-pareto"}


class TestDependentExperiment:
    CFG = DependentModelConfig(
        rho=0.1, phi2=1.087, mu=0.664, target_truncation_rate=0.30, target_censoring_pc=0.10
    )

    def test_runs_and_is_deterministic(self):
        plan = ExperimentPlan(
            design="dependent", n_grid=(25,), k_grid=(5.0,), replicates=20, master_seed=5
        )
        res1 = run_dependent_experiment(plan, self.CFG)
        res2 = run_dependent_experiment(plan, self.CFG)
        assert res1.cells == res2.cells
        assert res1.metadata["mu"] == pytest.approx(0.664)

    def test_auto_calibration_records_mu(self):
        plan = ExperimentPlan(
            design="dependent", n_grid=(20,), k_grid=(1.0,), replicates=10, master_seed=5
        )
        res = run_dependent_experiment(plan)
        assert 0.3 < res.metadata["mu"] < 1.0

    def test_default_config_calibration(self):
        cfg = default_dependent_config()
        assert cfg.target_truncation_rate == 0.30
        assert abs(cfg.mu - 0.664) < 0.05


class TestFigureData:
    def test_baseline_rows_are_zero(self):
        res = run_iid_experiment(small_iid_plan(replicates=20))
        fig = emit_rmse_ratio_log(res)
        for row in fig.rows:
            if row.estimator == "prod":
                assert row.log_rmse_ratio == 0.0

    def test_ratio_arithmetic(self):
        res = run_iid_experiment(small_iid_plan(replicates=20))
        fig = emit_rmse_ratio_log(res)
        for row in fig.rows:
            if row.estimator == "prod":
                continue
            cell = res.cell(row.estimator, row.n, row.k)
            base = res.cell("prod", row.n, row.k)
            assert row.log_rmse_ratio == pytest.approx(math.log(cell.rmse / base.rmse))

    def test_missing_baseline_rejected(self):
        res = run_iid_experiment(small_iid_plan(replicates=20, estimators=("emp", "kernel")))
        with pytest.raises(ValueError, match="baseline 'prod'"):
            emit_rmse_ratio_log(res)

    def test_zero_baseline_rmse_rows_flagged_not_emitted(self):
        from specrisk.harness import MCCell, MCResult

        def cell(estimator, rmse):
            return MCCell(
                design="iid-exp", estimator=estimator, n=10, k=1.0, mean=1.0,
                sd=0.0, rmse=rmse, rmse_se=0.0, theoretical=1.0,
                theoretical_window=None, failures=0, replicates=5,
            )

        res = MCResult(cells=(cell("prod", 0.0), cell("emp", 2.0)), metadata={})
        fig = emit_rmse_ratio_log(res)
        assert fig.rows == ()
        assert len(fig.skipped) == 2


class TestCoverage:
    def test_known_variance_normal_toy_covers_nominal(self):
        # sanity harness: exact z-intervals for a normal mean must cover at
        # the nominal rate up to binomial noise
        rng = np.random.default_rng(0)
        level, n, reps = 0.90, 25, 2000
        z = 1.6448536269514722
        hits = 0
        for _ in range(reps):
            x = rng.normal(0.0, 1.0, n)
            half = z / math.sqrt(n)
            m = float(np.mean(x))
            hits += (m - half) <= 0.0 <= (m + half)
        coverage = hits / reps
        se = math.sqrt(level * (1 - level) / reps)
        assert coverage == pytest.approx(level, abs=3 * se)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(intervals=0), "intervals must be at least 1"),
            (dict(level=1.5), "ci_level must lie in"),
            (dict(bootstrap_replicates=0), "replicates must be at least 1"),
        ],
    )
    def test_bad_arguments_refused_before_targets(self, monkeypatch, kwargs, message):
        def no_targets(*args):
            raise AssertionError("targets computed before the arguments were checked")

        monkeypatch.setattr(harness, "_theoretical_targets", no_targets)
        plan = ExperimentPlan(design="dependent", n_grid=(20,), k_grid=(1.0,), replicates=2)
        with pytest.raises(ValueError, match=message):
            run_coverage_experiment(plan, **kwargs)

    def test_small_coverage_run_is_deterministic(self):
        plan = ExperimentPlan(
            design="iid-exp", n_grid=(25,), k_grid=(1.0,), replicates=2, master_seed=13
        )
        res1 = run_coverage_experiment(plan, bootstrap_replicates=60, intervals=12)
        res2 = run_coverage_experiment(plan, bootstrap_replicates=60, intervals=12)
        assert res1.cells == res2.cells
        cell = res1.cells[0]
        assert cell.intervals == 12
        assert 0.0 <= cell.coverage <= 1.0

    def test_worker_invariance(self):
        plan1 = ExperimentPlan(
            design="iid-exp", n_grid=(20,), k_grid=(1.0,), replicates=2, master_seed=3, workers=1
        )
        plan2 = ExperimentPlan(
            design="iid-exp", n_grid=(20,), k_grid=(1.0,), replicates=2, master_seed=3, workers=2
        )
        res1 = run_coverage_experiment(plan1, bootstrap_replicates=55, intervals=8)
        res2 = run_coverage_experiment(plan2, bootstrap_replicates=55, intervals=8)
        assert res1.cells == res2.cells
