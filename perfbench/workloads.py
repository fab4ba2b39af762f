"""The four benchmark workloads: their inputs, requests and output checks.

Each workload is a cycle of requests, and a run repeats whole cycles.  A
request is one closed-loop call into specrisk's public API; its outputs are
reduced to named values that the runner compares with the golden file and
with earlier repeats of the same request.  Inputs derive from the workload
seed alone.

Importing this module imports numpy, scipy and specrisk, so the runner does
it inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from specrisk import cli, harness, inference, severity
from specrisk.spectra import ExponentialSpectrum

K_GRID = (1.0, 5.0, 10.0, 20.0, 100.0, 200.0)
K_ARG = "1,5,10,20,100,200"
REL_EXACT = 1e-12  # prod/emp-derived values
REL_QUAD = 1e-8  # values that pass through adaptive quadrature


@dataclass
class Outcome:
    values: dict
    failed: int
    problems: list = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0


@dataclass
class Request:
    key: str
    units: int
    call: Callable[[], object]
    read: Callable[[object], Outcome]


class Workload:
    name: str
    unit: str

    def cycle(self, index: int) -> list[Request]:
        return self.requests

    @staticmethod
    def tolerance(key: str, name: str) -> float:
        """Relative tolerance of output ``name`` of request ``key``; 0 demands equality."""
        raise NotImplementedError


def execute(req: Request):
    """Time one request; returns (seconds, Outcome).  A raised error fails all its units."""
    start = time.perf_counter()
    try:
        raw = req.call()
    except Exception as exc:  # the run goes on and reports the failure with its traceback
        elapsed = time.perf_counter() - start
        error = f"{type(exc).__name__}: {exc}"
        return elapsed, Outcome({"error": error}, req.units, [traceback.format_exc()])
    elapsed = time.perf_counter() - start
    return elapsed, req.read(raw)


def _check(values: dict, pairs, problems: list) -> None:
    """Record every (lo, hi) value-name pair with values[lo] > values[hi]."""
    for lo, hi in pairs:
        if lo in values and hi in values and values[lo] > values[hi]:
            problems.append(f"{lo} = {values[lo]!r} > {hi} = {values[hi]!r}")


# ---------------------------------------------------------------------------
# estimate-portfolio: the CLI on claims files


GROUP_SIZES = {"g250": 250, "g1000": 1000}
# two ltrc files to one raw file, so the median request falls inside one format
FILE_FORMATS = ("ltrc", "raw", "ltrc")
BOOTSTRAP = 50
PARETO_X0, PARETO_ALPHA, PARETO_LIMIT, TRUNCATION_HI = 1000.0, 2.0, 8000.0, 2500.0
RAW_DEDUCTIBLE, RAW_LIMIT = 1500.0, 6000.0


def _ltrc_claims(rng, n):
    """Pareto I losses behind uniform random truncation, censored at the limit."""
    ys, ts = [], []
    got = 0
    while got < n:
        x = PARETO_X0 * (1.0 - rng.random(2 * n)) ** (-1.0 / PARETO_ALPHA)
        t = rng.uniform(0.0, TRUNCATION_HI, 2 * n)
        y = np.minimum(x, PARETO_LIMIT)
        keep = t <= y
        ys.append(y[keep])
        ts.append(t[keep])
        got += int(keep.sum())
    y = np.concatenate(ys)[:n]
    return y, np.concatenate(ts)[:n], (y < PARETO_LIMIT).astype(int)


def _raw_claims(rng, n):
    """Shifted-exponential claims above the deductible, rounded to tens so y has ties."""
    out = []
    got = 0
    while got < n:
        x = np.round((1000.0 + rng.exponential(1000.0, 4 * n)) / 10.0) * 10.0
        x = x[x > RAW_DEDUCTIBLE]
        out.append(x)
        got += x.size
    return np.concatenate(out)[:n]


class EstimatePortfolio(Workload):
    name = "estimate-portfolio"
    unit = "bootstrap replicate"

    def __init__(self, seed: int, workdir: Path):
        base = workdir / self.name / f"seed{seed}"
        base.mkdir(parents=True, exist_ok=True)
        self.requests = []
        for i, fmt in enumerate(FILE_FORMATS):
            path = base / f"claims{i}.csv"
            rng = np.random.default_rng([seed, i])
            lines = ["y,t,delta,group" if fmt == "ltrc" else "claim,group"]
            for group, n in GROUP_SIZES.items():
                if fmt == "ltrc":
                    y, t, d = _ltrc_claims(rng, n)
                    rows = zip(y.tolist(), t.tolist(), d.tolist())
                    lines += [f"{a!r},{b!r},{c},{group}" for a, b, c in rows]
                else:
                    lines += [f"{a!r},{group}" for a in _raw_claims(rng, n).tolist()]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv = ["estimate", "--input", str(path), "--format", fmt]
            if fmt == "raw":
                argv += ["--deductible", repr(RAW_DEDUCTIBLE), "--limit", repr(RAW_LIMIT)]
            out = base / f"out{i}"
            argv += ["--estimators", "prod,emp", "--k", K_ARG, "--bootstrap", str(BOOTSTRAP),
                     "--seed", str(1000 * seed + i), "--workers", "1", "--out", str(out)]
            self.requests.append(
                Request(f"claims{i}-{fmt}", BOOTSTRAP * 2 * len(GROUP_SIZES),
                        _quiet(lambda argv=argv: cli.main(argv)),
                        lambda rc, out=out: self._read(rc, out))
            )

    def _read(self, rc, out: Path) -> Outcome:
        units = BOOTSTRAP * 2 * len(GROUP_SIZES)
        if rc != 0:
            return Outcome({"exit_code": rc}, units, [f"exit code {rc}"])
        csv_bytes = (out / "estimates.csv").read_bytes()
        json_bytes = (out / "estimates.json").read_bytes()
        values = {}
        worst: dict[tuple, int] = {}
        for row in json.loads(json_bytes)["results"]:
            stem = f"{row['group']}/{row['estimator']}/k={row['k']:g}"
            for name in ("point", "std_error", "ci_low", "ci_high", "n",
                         "replicates_used", "replicate_failures"):
                values[f"{stem}/{name}"] = row[name]
            key = (row["group"], row["estimator"])
            worst[key] = max(worst.get(key, 0), row["replicate_failures"])
        problems = []
        for stem in {name.rsplit("/", 1)[0] for name in values}:
            _check(values, [(f"{stem}/ci_low", f"{stem}/ci_high")], problems)
            used, dropped = values[f"{stem}/replicates_used"], values[f"{stem}/replicate_failures"]
            if used + dropped != BOOTSTRAP:
                problems.append(f"{stem}: used + failed replicates != {BOOTSTRAP}")
        if len(values) != 7 * len(GROUP_SIZES) * 2 * len(K_GRID):
            problems.append(f"unexpected row count in {out / 'estimates.json'}")
        return Outcome(
            values,
            sum(worst.values()),
            problems,
            hashlib.sha256(csv_bytes + json_bytes).hexdigest(),
            len(csv_bytes) + len(json_bytes),
        )

    @staticmethod
    def tolerance(key, name):
        field_name = name.rsplit("/", 1)[1]
        return 0 if field_name in ("n", "replicates_used", "replicate_failures") else REL_EXACT


def _quiet(fn):
    """Run ``fn`` with its standard output discarded (the CLI reports each file it writes)."""

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return fn()

    return call


# ---------------------------------------------------------------------------
# mc-designs: one Monte Carlo cell per request


# (design, mode, n, replicates); replicate counts even out the cost of a cell
MC_CELLS = (
    ("iid-exp", "random-truncation", 30, 5),
    ("iid-pareto", "fixed-thresholds", 30, 5),
    ("dependent", "random-truncation", 30, 3),
    ("iid-exp", "random-truncation", 100, 4),
    ("iid-pareto", "fixed-thresholds", 100, 5),
    ("dependent", "random-truncation", 100, 2),
    ("iid-exp", "random-truncation", 500, 4),
    ("iid-pareto", "fixed-thresholds", 500, 3),
    ("dependent", "random-truncation", 500, 2),
)
MC_FIELDS = ("mean", "sd", "rmse", "rmse_se", "theoretical", "theoretical_window", "failures")


class McDesigns(Workload):
    name = "mc-designs"
    unit = "MC replicate"

    def __init__(self, seed: int, cfg):
        self.requests = []
        for i, (design, mode, n, reps) in enumerate(MC_CELLS):
            plan = harness.ExperimentPlan(
                design=design, n_grid=(n,), k_grid=K_GRID, replicates=reps,
                master_seed=1000 * seed + i, mode=mode, workers=1,
            )
            if design == "dependent":
                call = lambda plan=plan: harness.run_dependent_experiment(plan, cfg)
            else:
                call = lambda plan=plan: harness.run_iid_experiment(plan)
            self.requests.append(Request(f"{design}/n={n}", reps, call, self._read))

    @staticmethod
    def _read(result) -> Outcome:
        values = {}
        problems = []
        failed = 0
        for c in result.cells:
            stem = f"{c.estimator}/k={c.k:g}"
            for name in MC_FIELDS:
                value = getattr(c, name)
                if value is not None:
                    values[f"{stem}/{name}"] = value
            failed = max(failed, c.failures)
            if not math.isfinite(c.theoretical):
                problems.append(f"{stem}: theoretical value {c.theoretical!r}")
        return Outcome(values, failed, problems)

    @staticmethod
    def tolerance(key, name):
        estimator, _, field_name = name.split("/")
        if field_name == "failures":
            return 0
        if estimator in ("kernel", "ml", "pm"):
            return REL_QUAD
        quad_target = not key.startswith("dependent")
        if quad_target and field_name in ("theoretical", "theoretical_window", "rmse", "rmse_se"):
            return REL_QUAD
        return REL_EXACT


# ---------------------------------------------------------------------------
# coverage-grid: bootstrap inside Monte Carlo, across a process pool


COVERAGE_BOOTSTRAP = 200
COVERAGE_WORKERS = 2
# (n, k, intervals); smaller samples get more intervals to even out the cost
COVERAGE_CELLS = ((50, 1.0, 12), (100, 1.0, 8), (50, 20.0, 12), (100, 20.0, 8))


class CoverageGrid(Workload):
    name = "coverage-grid"
    unit = "bootstrap interval"

    def __init__(self, seed: int, workers: int = COVERAGE_WORKERS):
        self.requests = []
        for i, (n, k, intervals) in enumerate(COVERAGE_CELLS):
            plan = harness.ExperimentPlan(
                design="iid-exp", n_grid=(n,), k_grid=(k,), replicates=2,
                master_seed=1000 * seed + i, workers=workers,
            )
            call = lambda plan=plan, m=intervals: harness.run_coverage_experiment(
                plan, bootstrap_replicates=COVERAGE_BOOTSTRAP, intervals=m, level=0.9
            )
            self.requests.append(Request(f"n={n}/k={k:g}", intervals, call, self._read))

    @staticmethod
    def _read(result) -> Outcome:
        (c,) = result.cells
        values = {"hits": c.hits, "refused": c.refused, "intervals": c.intervals,
                  "theoretical": c.theoretical}
        problems = []
        if c.hits + c.refused > c.intervals:
            problems.append("hits + refused exceed the interval count")
        return Outcome(values, c.refused, problems)

    @staticmethod
    def tolerance(key, name):
        return REL_QUAD if name == "theoretical" else 0


# ---------------------------------------------------------------------------
# asymptotic-large-n: plug-in variance intervals on both sides of EXACT_PRODUCT_LIMIT


# (design, n): the large sample is above EXACT_PRODUCT_LIMIT and takes the log-space fit path
ASYMPTOTIC_SAMPLES = (("iid-exp", 2000), ("dependent", 2000), ("dependent", 10_500))
EDGEWORTH_LEVELS = (0.5, 0.9)


class AsymptoticLargeN(Workload):
    name = "asymptotic-large-n"
    unit = "sample analysed"

    def __init__(self, seed: int, cfg):
        scheme = severity.WindowScheme.random_truncation(
            harness.RANDOM_TRUNCATION_LAW, harness.LIMIT
        )
        self.samples = []
        for i, (design, n) in enumerate(ASYMPTOTIC_SAMPLES):
            sample_seed = 1000 * seed + i
            if design == "dependent":
                sample = severity.sample_ltrc_dependent(cfg, n, sample_seed)
            else:
                sample = severity.sample_ltrc_iid(harness.EXP_MODEL, scheme, n, sample_seed)
            self.samples.append((f"{design}/n={n}", sample))

    def cycle(self, index):
        """Each cycle analyses every sample once; k rotates from cycle to cycle."""
        out = []
        for i, (label, sample) in enumerate(self.samples):
            k = K_GRID[(index + i) % len(K_GRID)]
            out.append(Request(f"{label}/k={k:g}", 1,
                               lambda s=sample, k=k: self._analyse(s, k), self._read))
        return out

    @staticmethod
    def _analyse(sample, k):
        report = inference.asymptotic_ci(sample, ExponentialSpectrum(k))
        diags = [inference.edgeworth_diagnostics(sample, level) for level in EDGEWORTH_LEVELS]
        return report, diags

    @staticmethod
    def _read(result) -> Outcome:
        report, diags = result
        values = {
            "point": report.point,
            "std_error": report.std_error,
            "ci_low": report.ci_low,
            "ci_high": report.ci_high,
            "sigma2": report.n_effective * report.std_error**2,
        }
        for d in diags:
            for name in ("sigma01_sq", "kappa3", "sigma0_sq", "sigma1_sq"):
                values[f"edgeworth@{d.level:g}/{name}"] = getattr(d, name)
        problems = []
        _check(values, [("ci_low", "point"), ("point", "ci_high")], problems)
        failed = int(not all(math.isfinite(v) for v in values.values()))
        return Outcome(values, failed, problems)

    @staticmethod
    def tolerance(key, name):
        return REL_EXACT


CLASSES = (EstimatePortfolio, McDesigns, CoverageGrid, AsymptoticLargeN)
NAMES = tuple(cls.name for cls in CLASSES)


def build(name: str, seed: int, workdir: Path, cfg=None, workers: int | None = None):
    """Generate a workload's inputs for ``seed``; returns (workload, dependent config)."""
    if name in ("mc-designs", "asymptotic-large-n") and cfg is None:
        cfg = harness.default_dependent_config()
    if name == "estimate-portfolio":
        return EstimatePortfolio(seed, workdir), cfg
    if name == "mc-designs":
        return McDesigns(seed, cfg), cfg
    if name == "coverage-grid":
        return CoverageGrid(seed, workers or COVERAGE_WORKERS), cfg
    if name == "asymptotic-large-n":
        return AsymptoticLargeN(seed, cfg), cfg
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(NAMES)}")

