"""Tests for the Monte Carlo harness: determinism, identities, figure data."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specrisk import (
    DependentModelConfig,
    EstimationError,
    ExponentialSpectrum,
    GenerationError,
    ProdEstimator,
    estimate_prod,
    harness,
)
from specrisk.harness import (
    ExperimentPlan,
    default_dependent_config,
    emit_rmse_ratio_log,
    run_coverage_experiment,
    run_dependent_experiment,
    run_iid_experiment,
)
from specrisk.rng import derive_seed


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

    def test_empty_estimator_set_rejected(self):
        # an empty set would draw every sample and evaluate nothing on it
        with pytest.raises(ValueError, match="estimators must be nonempty"):
            small_iid_plan(estimators=())
        assert small_iid_plan(estimators=None).resolved_estimators() == ("prod", "emp", "kernel")

    @pytest.mark.parametrize(
        "overrides, label",
        [
            ({"n_grid": (20, 30, 20)}, "sample sizes"),
            ({"k_grid": (1.0, 5.0, 1.0)}, "risk-aversion coefficients"),
            ({"estimators": ("prod", "prod")}, "estimators"),
        ],
    )
    def test_repeated_grid_entry_rejected(self, overrides, label):
        with pytest.raises(ValueError, match=f"{label} must not repeat"):
            small_iid_plan(**overrides)

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

    def test_dependent_design_refuses_fixed_thresholds(self):
        # the dependent design draws its own truncation; the mode would be ignored
        with pytest.raises(ValueError, match="fixed-thresholds mode is undefined for the dependent"):
            small_iid_plan(design="dependent", mode="fixed-thresholds")

    def test_default_estimator_sets(self):
        assert small_iid_plan().resolved_estimators() == ("prod", "emp", "kernel")
        assert small_iid_plan(mode="fixed-thresholds").resolved_estimators() == (
            "prod",
            "emp",
            "kernel",
            "ml",
            "pm",
        )


def _unlucky(sample) -> bool:
    """A replicate the failing estimators below refuse: about a third of them."""
    return int(sample.y.max()) % 3 == 0


class _PrepareFails(ProdEstimator):
    def prepare(self, sample):
        if _unlucky(sample):
            raise EstimationError("refused in prepare")
        return super().prepare(sample)


class _EvaluateFails(ProdEstimator):
    def prepare(self, sample):
        return super().prepare(sample), _unlucky(sample)

    def evaluate(self, ctx, spectrum):
        fit, unlucky = ctx
        if unlucky:
            raise EstimationError("refused in evaluate")
        return super().evaluate(fit, spectrum)


class TestIidExperiment:
    def test_failures_counted_per_k(self, monkeypatch):
        # a failed prepare or evaluate is a NaN that the cell counts at every k
        plan = small_iid_plan(estimators=("prod", "emp"))
        failing = [_PrepareFails(), _EvaluateFails()]
        monkeypatch.setattr(harness, "_plan_estimators", lambda plan: failing)
        res = run_iid_experiment(plan)
        seeds = [derive_seed(71, "iid-exp", "replicate", 20, r) for r in range(plan.replicates)]
        samples = [harness._generate_sample("iid-exp", plan.mode, None, 20, s) for s in seeds]
        kept = [s for s in samples if not _unlucky(s)]
        assert 0 < len(kept) < len(samples)
        for name in ("prod", "emp"):
            for k in plan.k_grid:
                cell = res.cell(name, 20, k)
                assert cell.failures == len(samples) - len(kept)
                want = np.mean([estimate_prod(s, ExponentialSpectrum(k)) for s in kept])
                assert cell.mean == pytest.approx(want, rel=1e-12)

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
    CFG = DependentModelConfig(rho=0.1, phi2=1.087, mu=0.664)

    def test_runs_and_is_deterministic(self):
        plan = ExperimentPlan(
            design="dependent", n_grid=(25,), k_grid=(5.0,), replicates=20, master_seed=5
        )
        res1 = run_dependent_experiment(plan, self.CFG)
        res2 = run_dependent_experiment(plan, self.CFG)
        assert res1.cells == res2.cells
        assert res1.metadata["mu"] == pytest.approx(0.664)

    def test_retaining_nothing_fails_before_the_oracle(self, monkeypatch):
        draws = []
        original = harness.sample_dependent_marginal

        def counting_marginal(*args):
            draws.append(1)
            return original(*args)

        monkeypatch.setattr(harness, "sample_dependent_marginal", counting_marginal)
        plan = ExperimentPlan(design="dependent", n_grid=(20,), k_grid=(1.0,), replicates=2)
        with pytest.raises(GenerationError):
            run_dependent_experiment(plan, DependentModelConfig(mu=1e6))
        assert draws == []

    def test_auto_calibration_records_mu(self):
        plan = ExperimentPlan(
            design="dependent", n_grid=(20,), k_grid=(1.0,), replicates=10, master_seed=5
        )
        res = run_dependent_experiment(plan)
        assert 0.3 < res.metadata["mu"] < 1.0

    def test_default_config_calibration(self):
        # the model's defaults, with mu solved for
        cfg = default_dependent_config()
        assert cfg == DependentModelConfig(mu=cfg.mu)
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
            # too few resamples for any interval: every one would be refused
            (dict(bootstrap_replicates=49), "bootstrap_replicates must be at least 50"),
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


def _die(args):
    """Pool worker that kills its own process."""
    os.kill(os.getpid(), signal.SIGKILL)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture
def fresh_pool():
    """No kept pool before or after the test, so every pool it sees is its own."""
    with harness._pool_lock:
        harness._drop_pool()
    yield
    with harness._pool_lock:
        harness._drop_pool()


COVERAGE_PLAN = dict(design="iid-exp", n_grid=(20, 30), k_grid=(1.0, 5.0), replicates=2, master_seed=3)


def _coverage_cells(workers: int):
    plan = ExperimentPlan(**COVERAGE_PLAN, workers=workers)
    return run_coverage_experiment(plan, bootstrap_replicates=55, intervals=6).cells


@pytest.mark.usefixtures("fresh_pool")
class TestKeptPool:
    def test_one_pool_across_calls_cells_and_sample_sizes(self, monkeypatch):
        starts = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        want = _coverage_cells(1)
        assert starts == []
        # two calls of four (n, k) cells each
        assert _coverage_cells(2) == want
        assert _coverage_cells(2) == want
        assert len(starts) == 1
        iid = small_iid_plan(n_grid=(15, 20, 25), replicates=8)
        assert run_iid_experiment(replace(iid, workers=2)).cells == run_iid_experiment(iid).cells
        assert len(starts) == 1

    def test_pool_size_is_bounded_by_the_cpu_count(self):
        with harness._pool_lock:
            pool = harness._worker_pool(10**6)
            assert harness._pool == (min(10**6, os.cpu_count() or 1), pool)
            # no process starts before the first submit
            assert multiprocessing.active_children() == []
            harness._drop_pool()
        assert harness._pool is None

    def test_another_worker_count_replaces_the_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        want = _coverage_cells(1)
        assert _coverage_cells(2) == want
        first = _worker_pids()
        assert len(first) == 2
        assert _coverage_cells(1) == want  # in process: the pool is kept
        assert _worker_pids() == first
        assert _coverage_cells(3) == want
        second = _worker_pids()
        assert len(second) == 3 and not second & first
        assert not any(_alive(pid) for pid in first)
        assert _coverage_cells(2) == want
        assert len(_worker_pids()) == 2
        assert not any(_alive(pid) for pid in second)

    def test_worker_killed_between_calls(self):
        want = _coverage_cells(1)
        assert _coverage_cells(2) == want
        pool = harness._pool[1]
        os.kill(min(_worker_pids()), signal.SIGKILL)
        deadline = time.monotonic() + 60
        while not pool._broken:
            assert time.monotonic() < deadline, "the pool never noticed the killed worker"
            time.sleep(0.01)
        assert _coverage_cells(2) == want
        assert harness._pool[1] is not pool

    def test_break_during_a_call_is_raised_then_rebuilt(self):
        with pytest.raises(BrokenProcessPool):
            harness._map_chunks(_die, (), 4, 2)
        assert _coverage_cells(2) == _coverage_cells(1)

    def test_exit_joins_the_workers(self):
        code = (
            "import multiprocessing\n"
            "from specrisk.harness import ExperimentPlan, run_coverage_experiment\n"
            "plan = ExperimentPlan(design='iid-exp', n_grid=(20,), k_grid=(1.0,), replicates=2,"
            " workers=2)\n"
            "run_coverage_experiment(plan, bootstrap_replicates=55, intervals=4)\n"
            "print(' '.join(str(p.pid) for p in multiprocessing.active_children()))\n"
        )
        package = Path(harness.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, (str(package), os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == min(2, os.cpu_count() or 1)
        assert not any(_alive(pid) for pid in pids)
