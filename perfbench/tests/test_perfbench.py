"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import benchstats  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 25, 100, 1000])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]  # distinct, unsorted
    value, pct = benchstats.tail(values)
    beyond = sum(v > value for v in values)
    assert beyond == benchstats.TAIL_BEYOND
    assert value == n - benchstats.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_needs_eleven_samples():
    assert benchstats.tail([1.0] * 10) is None
    assert benchstats.tail([1.0] * 11) == (1.0, 100.0 / 11)


def test_self_time_subtracts_only_direct_children():
    # root [0,100] > a [10,40] > a1 [15,25];  root > b [50,90];  a second request
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("a1", 15, 25, 1, 0),
        ("b", 50, 90, 0, 0),
        ("a", 200, 230, -1, 1),
    ]
    totals = tracing.self_times(spans)
    assert totals == {"root": [1, 30], "a": [2, 50], "a1": [1, 10], "b": [1, 40]}
    assert sum(t[1] for t in totals.values()) == 100 + 30  # the two root durations


@pytest.mark.parametrize("workload", sorted(workloads.NAMES))
def test_golden_check_trips_on_small_perturbation(workload):
    gold = golden.load(workload)
    tolerance = {cls.name: cls for cls in workloads.CLASSES}[workload].tolerance
    for key, entry in gold["requests"].items():
        check = lambda values, failed=entry["failed"]: golden.mismatches(
            entry, values, failed, lambda name: tolerance(key, name)
        )
        assert check(dict(entry["values"])) == []
        assert check(dict(entry["values"]), entry["failed"] + 1) != []
        for name, value in entry["values"].items():
            if value is None or value == 0.0 and isinstance(value, float):
                continue
            bumped = value * (1 + 1e-6) if isinstance(value, float) else value + 1
            assert check({**entry["values"], name: bumped}), f"{key} {name} passed a perturbation"


def test_golden_failure_counts_are_recorded():
    for workload in workloads.NAMES:
        gold = golden.load(workload)
        assert gold["seed"] == golden.DEFAULT_SEED
        assert gold["failed_total"] == sum(e["failed"] for e in gold["requests"].values())


def _small_sample():
    from specrisk import LtrcSample

    return LtrcSample(
        y=[3.0, 5.0, 5.0, 7.0, 9.0, 11.0, 12.0, 15.0],
        t=[1.0, 1.0, 2.0, 4.0, 1.0, 6.0, 2.0, 3.0],
        delta=[1, 1, 0, 1, 1, 1, 0, 1],
    )


def test_rebinding_reaches_every_module_that_imported_fit_pl():
    from specrisk import estimators, inference, ltrc
    from specrisk.spectra import ExponentialSpectrum

    original = ltrc.fit_pl
    assert estimators.fit_pl is original and inference.fit_pl is original
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert estimators.fit_pl is not original
        assert inference.fit_pl is estimators.fit_pl is ltrc.fit_pl
        sample = _small_sample()
        estimators.ProdEstimator().prepare(sample)
        inference.estimate_sigma2(sample, ExponentialSpectrum(1.0))
    finally:
        tracing.uninstall(undo)
    assert estimators.fit_pl is original and inference.fit_pl is original
    names = [s[0] for s in tracer.spans]
    parents = {names[s[3]] for s in tracer.spans if s[0] == "ltrc.fit_pl"}
    assert parents == {"estimators.prod.prepare", "inference.estimate_sigma2"}
    assert tracer.counts["inference.estimate_sigma2.density_cells"] > 0


def test_outputs_identical_with_and_without_tracing():
    from specrisk import harness

    plan = harness.ExperimentPlan(design="iid-exp", n_grid=(30,), k_grid=(1.0, 20.0),
                                  replicates=2, master_seed=7)
    plain = harness.run_iid_experiment(plan)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced = harness.run_iid_experiment(plan)
    finally:
        tracing.uninstall(undo)
    assert repr(plain.cells) == repr(traced.cells)
    assert {s[0] for s in tracer.spans} >= {"harness.run", "estimators.kernel.evaluate"}


def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.NAMES)
