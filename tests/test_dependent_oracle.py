"""The dependent design's Monte Carlo oracle: two threads, the serial floats.

``severity.sample_dependent_marginal`` and the dependent targets of
``harness._theoretical_targets`` split their elementwise work with one helper
thread.  These tests hold both to the one-line serial expressions they
replace, bit for bit, and check that the helper calls nothing that tracing
wraps and is gone when the call returns.
"""

import math
import sys
import threading

import numpy as np
import pytest

from specrisk import DependentModelConfig, ExponentialSpectrum, harness, severity
from specrisk.estimators import srm_from_edges
from specrisk.harness import ExperimentPlan, run_dependent_experiment
from specrisk.rng import derive_rng, derive_seed
from specrisk.severity import ORACLE_CHUNK, sample_dependent_marginal

CFG = DependentModelConfig(rho=0.1, phi2=1.087, mu=0.664)
K_GRID = (0.0, 1e-9, 1.0, 5.0, 20.0, 200.0)


def serial_marginal(cfg, n_draws, seed):
    """The marginal as one serial numpy expression."""
    rng = derive_rng(seed)
    sd = 0.5 / math.sqrt(1.0 - cfg.rho**2)
    x1 = sd * rng.standard_normal(n_draws)
    cos_part = 1.0 + 0.3 * np.cos(np.pi * x1)
    return np.sin(np.pi * x1) + cfg.phi1 * cos_part * rng.standard_normal(n_draws)


def serial_targets(plan, cfg):
    """emp's SRM of the sorted oracle on the whole grid j/N, one spectrum at a time."""
    n = harness.ORACLE_DRAWS
    seed = derive_seed(plan.master_seed, "dependent-oracle")
    oracle = np.sort(serial_marginal(cfg, n, seed))
    grid = np.arange(n + 1) / n
    return {k: float(srm_from_edges(oracle, grid, [ExponentialSpectrum(k)])[0]) for k in plan.k_grid}


def test_chunk_is_a_multiple_of_64():
    assert ORACLE_CHUNK % 64 == 0


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n_draws", [1, 2, 63, 64, 65, 1001, 1_000_000])
def test_marginal_equals_the_serial_expression(seed, n_draws):
    got = sample_dependent_marginal(CFG, n_draws, seed)
    assert np.array_equal(got, serial_marginal(CFG, n_draws, seed))


@pytest.mark.parametrize("n_draws", [0, -3])
def test_marginal_needs_a_draw(monkeypatch, n_draws):
    def no_draws(seed):
        raise AssertionError("a stream was derived before the count was checked")

    monkeypatch.setattr(severity, "derive_rng", no_draws)
    with pytest.raises(ValueError, match="n_draws must be at least 1"):
        sample_dependent_marginal(CFG, n_draws, 5)


@pytest.mark.parametrize(
    "n_draws, k_grid",
    [
        (2 * ORACLE_CHUNK, K_GRID),
        (2 * ORACLE_CHUNK + 37, K_GRID),
        (1_000_000, K_GRID),
        # one spectrum or an odd count: the threads cannot split the k grid evenly
        (ORACLE_CHUNK + 1, (5.0,)),
        (ORACLE_CHUNK + 1, (1.0, 20.0, 200.0)),
    ],
)
def test_targets_equal_one_pass_over_the_grid(monkeypatch, n_draws, k_grid):
    monkeypatch.setattr(harness, "ORACLE_DRAWS", n_draws)
    plan = ExperimentPlan(
        design="dependent", n_grid=(30,), k_grid=k_grid, replicates=2, master_seed=4
    )
    assert harness._theoretical_targets(plan, CFG) == serial_targets(plan, CFG)


def test_threads_switching_often_give_the_same_floats(monkeypatch):
    # a piece combined or summed before the helper wrote it would show here
    monkeypatch.setattr(harness, "ORACLE_DRAWS", 3 * ORACLE_CHUNK + 5)
    plan = ExperimentPlan(
        design="dependent", n_grid=(30,), k_grid=K_GRID, replicates=2, master_seed=2
    )
    want = serial_targets(plan, CFG)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert harness._theoretical_targets(plan, CFG) == want
    finally:
        sys.setswitchinterval(interval)


def test_dependent_cells_do_not_depend_on_the_worker_count():
    plans = [
        ExperimentPlan(
            design="dependent", n_grid=(25,), k_grid=(1.0, 5.0, 20.0), replicates=6,
            master_seed=5, workers=workers,
        )
        for workers in (1, 2)
    ]
    one, two = (run_dependent_experiment(plan, CFG).cells for plan in plans)
    assert one == two
    targets = serial_targets(plans[0], CFG)
    assert all(cell.theoretical == targets[cell.k] for cell in one)


def test_helper_calls_no_traced_function_and_is_joined(monkeypatch):
    # perfbench's tracing wraps these names, and its span stack is not
    # thread-safe; a live thread would also be copied by a later fork
    calls = []

    def on_main_thread(fn):
        def wrapper(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread()
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    spec = ExponentialSpectrum
    monkeypatch.setattr(spec, "phi", on_main_thread(spec.phi))
    monkeypatch.setattr(spec, "segment_integral", on_main_thread(spec.segment_integral))
    monkeypatch.setattr(severity, "derive_rng", on_main_thread(severity.derive_rng))
    plan = ExperimentPlan(
        design="dependent", n_grid=(30,), k_grid=K_GRID, replicates=2, master_seed=4
    )
    threads = threading.active_count()
    targets = harness._theoretical_targets(plan, CFG)
    assert threading.active_count() == threads
    assert calls == ["derive_rng"]
    assert all(math.isfinite(v) for v in targets.values())
