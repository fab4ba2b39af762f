"""Reproducible Monte Carlo experiments over the SRM estimators.

Three designs are built in: two i.i.d. severity designs (shifted exponential
and Pareto I behind a deductible/limit window) and one serially dependent
design.  Every cell of an experiment reports mean, SD, RMSE (with a
delta-method MC standard error) against a documented theoretical target:
the ground-up spectral risk measure for the severity designs (the window-law
value is emitted alongside as a diagnostic) and a large-sample Monte Carlo
oracle of the loss marginal for the dependent design.

Replicates derive their random streams from (master_seed, design, n,
replicate index), so cell results are bit-identical regardless of worker
count or scheduling.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__ as _pkg_version
from .errors import EstimationError, SpecriskError
from .estimators import ProdEstimator, SrmEstimator, build_estimator, srm_from_edges
from .inference import MIN_REPLICATES_FOR_CI, BootstrapPlan, bootstrap_ci
from .ltrc import LtrcSample
from .rng import derive_seed
from .severity import (
    DependentModelConfig,
    SeverityModel,
    TruncationLaw,
    WindowScheme,
    calibrate_truncation_location,
    ground_up_quantile,
    sample_dependent_marginal,
    sample_ltrc_dependent,
    sample_ltrc_iid,
    theoretical_srm,
    window_branch_point,
    window_quantile,
)
from .spectra import ExponentialSpectrum

__all__ = [
    "ExperimentPlan",
    "MCCell",
    "MCResult",
    "CoverageCell",
    "CoverageResult",
    "run_iid_experiment",
    "run_dependent_experiment",
    "run_coverage_experiment",
    "emit_rmse_ratio_log",
    "default_dependent_config",
    "IID_DESIGNS",
]

# Severity-design constants: Exp(1000, 1000) and PaI(1000, 2) behind the
# deductible 4000 / limit 14000 window.
EXP_MODEL = SeverityModel.shifted_exponential(1000.0, 1000.0)
PARETO_MODEL = SeverityModel.pareto_i(1000.0, 2.0)
DEDUCTIBLE = 4000.0
LIMIT = 14000.0
# Default truncation law of the random-truncation mode.  Uniform on
# (0, 2.5 x0): wide enough that ignoring truncation visibly biases the
# empirical estimator, narrow enough that the product-limit fit stays
# identified down to the support left endpoint at small n.
RANDOM_TRUNCATION_LAW = TruncationLaw(0.0, 2500.0)

IID_DESIGNS = {"iid-exp": EXP_MODEL, "iid-pareto": PARETO_MODEL}
ALL_DESIGNS = ("iid-exp", "iid-pareto", "dependent")

# draws of the dependent design's Monte Carlo oracle of the loss marginal
ORACLE_DRAWS = 1_000_000

# Largest sample size a plan accepts.  A replicate holds several float
# arrays of its size (the sample, its sort and its fit), hundreds of MB at
# this bound, and far beyond it numpy cannot allocate the draws at all; no
# design, benchmark or acceptance criterion goes above n = 10 500.
MAX_SAMPLE_SIZE = 10**7


@dataclass(frozen=True)
class ExperimentPlan:
    """Grid, replicate count, estimator set and seeding of one experiment."""

    design: str
    n_grid: tuple[int, ...] = (30, 100, 500)
    k_grid: tuple[float, ...] = (1.0, 5.0, 10.0, 20.0, 100.0, 200.0)
    replicates: int = 1000
    estimators: tuple[str, ...] | None = None
    master_seed: int = 20_250_101
    mode: str = "random-truncation"  # iid designs: or "fixed-thresholds"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.design not in ALL_DESIGNS:
            raise ValueError(f"unknown design {self.design!r}; valid: {', '.join(ALL_DESIGNS)}")
        if self.replicates < 2:
            raise ValueError("replicates must be at least 2")
        if not self.n_grid or not self.k_grid:
            raise ValueError("n and k grids must be nonempty")
        if any(n < 1 for n in self.n_grid):
            raise ValueError("sample sizes must be positive")
        if any(n > MAX_SAMPLE_SIZE for n in self.n_grid):
            raise ValueError(f"sample sizes must be at most {MAX_SAMPLE_SIZE}")
        if not all(math.isfinite(k) and k >= 0 for k in self.k_grid):
            raise ValueError("risk-aversion coefficients must be finite and nonnegative")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.mode not in ("random-truncation", "fixed-thresholds"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        for name in self.estimators or ():
            if name in ("ml", "pm") and self.design not in IID_DESIGNS:
                raise ValueError(f"estimator {name!r} is undefined for the dependent design")
            if name in ("ml", "pm") and self.mode != "fixed-thresholds":
                raise ValueError(f"estimator {name!r} requires fixed-thresholds mode")
        _plan_estimators(self)  # raises on unknown names

    def resolved_estimators(self) -> tuple[str, ...]:
        if self.estimators is not None:
            return self.estimators
        if self.design == "dependent" or self.mode == "random-truncation":
            return ("prod", "emp", "kernel")
        return ("prod", "emp", "kernel", "ml", "pm")


@dataclass(frozen=True)
class MCCell:
    """Aggregate results of one (design, estimator, n, k) cell."""

    design: str
    estimator: str
    n: int
    k: float
    mean: float
    sd: float
    rmse: float
    rmse_se: float
    theoretical: float
    theoretical_window: float | None
    failures: int
    replicates: int


@dataclass(frozen=True)
class MCResult:
    cells: tuple[MCCell, ...]
    metadata: dict

    def cell(self, estimator: str, n: int, k: float) -> MCCell:
        for c in self.cells:
            if c.estimator == estimator and c.n == n and c.k == k:
                return c
        raise KeyError(f"no cell for ({estimator!r}, n={n}, k={k})")


def _plan_estimators(plan: ExperimentPlan) -> list[SrmEstimator]:
    """The plan's estimators; ``ml`` and ``pm`` fit the design's law behind the fixed window."""
    model = IID_DESIGNS.get(plan.design)
    family, x0 = (model.family, model.x0) if model else (None, None)
    scheme = WindowScheme.fixed(DEDUCTIBLE, LIMIT)
    return [build_estimator(name, scheme, family, x0) for name in plan.resolved_estimators()]


def _generate_sample(design: str, mode: str, cfg: DependentModelConfig | None, n: int, seed: int) -> LtrcSample:
    if design == "dependent":
        return sample_ltrc_dependent(cfg, n, seed)
    model = IID_DESIGNS[design]
    if mode == "fixed-thresholds":
        scheme = WindowScheme.fixed(DEDUCTIBLE, LIMIT)
    else:
        scheme = WindowScheme.random_truncation(RANDOM_TRUNCATION_LAW, LIMIT)
    return sample_ltrc_iid(model, scheme, n, seed)


def _replicate_range(args) -> np.ndarray:
    """Worker: evaluate all estimators at all k for a range of replicates.

    Returns an array of shape (len(range), n_estimators, n_k), NaN where an
    estimator fails; it fails at every k or at none.
    """
    (plan, cfg, n, r_start, r_stop) = args
    estimators = _plan_estimators(plan)
    spectra = [ExponentialSpectrum(k) for k in plan.k_grid]
    out = np.full((r_stop - r_start, len(estimators), len(spectra)), np.nan)
    for row, r in enumerate(range(r_start, r_stop)):
        seed = derive_seed(plan.master_seed, plan.design, "replicate", n, r)
        sample = _generate_sample(plan.design, plan.mode, cfg, n, seed)
        for e_idx, est in enumerate(estimators):
            with contextlib.suppress(EstimationError):
                ctx = est.prepare(sample)
                out[row, e_idx] = [est.evaluate(ctx, spectrum) for spectrum in spectra]
    return out


def _map_chunks(worker, head: tuple, total: int, workers: int) -> list:
    """``worker((*head, start, stop))`` over chunks of range(total), in order.

    With more than one worker the chunks run in a process pool.  Each
    replicate derives its own random streams, so the results depend on
    neither the chunking nor the worker count.
    """
    n_chunks = max(1, min(total, workers * 4))
    step = math.ceil(total / n_chunks)
    payloads = [(*head, a, min(total, a + step)) for a in range(0, total, step)]
    if workers == 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _theoretical_targets(
    plan: ExperimentPlan, cfg: DependentModelConfig | None
) -> dict[float, float]:
    """The design's target per k.

    The iid designs target the ground-up SRM; the dependent design, at
    ``cfg``, targets a large-sample MC oracle of the loss marginal.
    """
    if plan.design in IID_DESIGNS:
        model = IID_DESIGNS[plan.design]
        return {
            k: theoretical_srm(lambda p: ground_up_quantile(model, p), ExponentialSpectrum(k))
            for k in plan.k_grid
        }
    oracle = np.sort(
        sample_dependent_marginal(
            cfg, ORACLE_DRAWS, derive_seed(plan.master_seed, "dependent-oracle")
        )
    )
    grid = np.arange(oracle.size + 1) / oracle.size  # emp's grid, shared by every k
    return {k: float(srm_from_edges(oracle, grid, ExponentialSpectrum(k))) for k in plan.k_grid}


def _run_cells(plan: ExperimentPlan, cfg: DependentModelConfig | None) -> dict[int, np.ndarray]:
    """Replicate evaluations per n: arrays (replicates, estimators, k)."""
    return {
        n: np.concatenate(
            _map_chunks(_replicate_range, (plan, cfg, n), plan.replicates, plan.workers), axis=0
        )
        for n in plan.n_grid
    }


def _aggregate(
    plan: ExperimentPlan,
    values: dict[int, np.ndarray],
    theoretical: dict[float, float],
    theoretical_window: dict[float, float] | None,
) -> tuple[MCCell, ...]:
    names = plan.resolved_estimators()
    cells = []
    for n in plan.n_grid:
        arr = values[n]
        for e_idx, name in enumerate(names):
            for k_idx, k in enumerate(plan.k_grid):
                col = arr[:, e_idx, k_idx]
                ok = col[~np.isnan(col)]
                failures = int(col.size - ok.size)
                target = theoretical[k]
                if ok.size == 0:
                    mean = sd = rmse = rmse_se = math.nan
                else:
                    errors_sq = (ok - target) ** 2
                    mean = float(np.mean(ok))
                    sd = float(np.std(ok))
                    rmse = float(math.sqrt(np.mean(errors_sq)))
                    if ok.size >= 2 and rmse > 0:
                        rmse_se = float(
                            np.std(errors_sq, ddof=1) / math.sqrt(ok.size) / (2.0 * rmse)
                        )
                    else:
                        rmse_se = 0.0
                cells.append(
                    MCCell(
                        design=plan.design,
                        estimator=name,
                        n=n,
                        k=k,
                        mean=mean,
                        sd=sd,
                        rmse=rmse,
                        rmse_se=rmse_se,
                        theoretical=target,
                        theoretical_window=(
                            theoretical_window[k] if theoretical_window is not None else None
                        ),
                        failures=failures,
                        replicates=plan.replicates,
                    )
                )
    return tuple(cells)


def _base_metadata(plan: ExperimentPlan) -> dict:
    # worker count is deliberately absent: it cannot affect any result
    return {
        "design": plan.design,
        "mode": plan.mode if plan.design != "dependent" else "dependent",
        "n_grid": list(plan.n_grid),
        "k_grid": list(plan.k_grid),
        "replicates": plan.replicates,
        "estimators": list(plan.resolved_estimators()),
        "master_seed": plan.master_seed,
        "package_version": _pkg_version,
    }


def run_iid_experiment(plan: ExperimentPlan) -> MCResult:
    """Run an i.i.d. severity design over the plan's grids."""
    if plan.design not in IID_DESIGNS:
        raise ValueError("run_iid_experiment requires an iid design")
    model = IID_DESIGNS[plan.design]
    fixed_scheme = WindowScheme.fixed(DEDUCTIBLE, LIMIT)
    theoretical = _theoretical_targets(plan, None)
    branch = window_branch_point(model, fixed_scheme)
    theoretical_window = {
        k: theoretical_srm(
            lambda p: window_quantile(model, fixed_scheme, p),
            ExponentialSpectrum(k),
            breakpoints=(branch,),
        )
        for k in plan.k_grid
    }
    values = _run_cells(plan, None)
    cells = _aggregate(plan, values, theoretical, theoretical_window)
    meta = _base_metadata(plan)
    meta.update(
        {
            "model": f"{model.family.value}(x0={model.x0:g}, "
            f"{'theta=' + format(model.theta, 'g') if model.theta else 'alpha=' + format(model.alpha, 'g')})",
            "deductible": DEDUCTIBLE,
            "limit": LIMIT,
            "truncation_law": (
                RANDOM_TRUNCATION_LAW.describe() if plan.mode == "random-truncation" else "point"
            ),
            "rmse_target": "ground-up SRM (window SRM emitted as diagnostic)",
        }
    )
    return MCResult(cells=cells, metadata=meta)


# The dependent design's standard calibration: the retention and censoring
# targets, and the bisection's tolerance and seed.  The seed is fixed, so mu
# does not drift with the experiment seed.  rho and the phi amplitudes are
# the defaults of DependentModelConfig.
TARGET_TRUNCATION_RATE = 0.30
TARGET_CENSORING_PC = 0.10
CALIBRATION_TOLERANCE = 0.005
CALIBRATION_SEED = 727_001


def default_dependent_config() -> DependentModelConfig:
    """The dependent design at its standard calibration, with mu solved for."""
    cfg = DependentModelConfig(
        target_truncation_rate=TARGET_TRUNCATION_RATE, target_censoring_pc=TARGET_CENSORING_PC
    )
    mu = calibrate_truncation_location(
        cfg, TARGET_TRUNCATION_RATE, CALIBRATION_TOLERANCE, CALIBRATION_SEED
    )
    return cfg.with_mu(mu)


def run_dependent_experiment(plan: ExperimentPlan, cfg: DependentModelConfig | None = None) -> MCResult:
    """Run the dependent design; calibrates mu if no config is supplied."""
    if plan.design != "dependent":
        raise ValueError("run_dependent_experiment requires the dependent design")
    cfg = cfg or default_dependent_config()
    # replicates first: a design that retains nothing fails before the oracle
    values = _run_cells(plan, cfg)
    theoretical = _theoretical_targets(plan, cfg)
    cells = _aggregate(plan, values, theoretical, None)
    meta = _base_metadata(plan)
    meta.update(
        asdict(cfg),
        oracle_draws=ORACLE_DRAWS,
        rmse_target="MC oracle of the loss marginal",
    )
    return MCResult(cells=cells, metadata=meta)


# ---------------------------------------------------------------------------
# coverage study


@dataclass(frozen=True)
class CoverageCell:
    design: str
    n: int
    k: float
    coverage: float
    binomial_se: float
    hits: int
    intervals: int
    bootstrap_replicates: int
    refused: int
    theoretical: float


@dataclass(frozen=True)
class CoverageResult:
    cells: tuple[CoverageCell, ...]
    metadata: dict


def _coverage_range(args) -> list[tuple[int, int]]:
    """Worker: (hit, refused) flags for a range of interval replicates."""
    (plan, cfg, n, k, level, boot_b, target, r_start, r_stop) = args
    estimator = ProdEstimator()
    spectrum = ExponentialSpectrum(k)
    out = []
    for r in range(r_start, r_stop):
        seed = derive_seed(plan.master_seed, plan.design, "coverage-sample", n, _k_key(k), r)
        sample = _generate_sample(plan.design, plan.mode, cfg, n, seed)
        boot = BootstrapPlan(
            replicates=boot_b,
            seed=derive_seed(plan.master_seed, plan.design, "coverage-boot", n, _k_key(k), r),
            ci_level=level,
        )
        try:
            report = bootstrap_ci(sample, estimator, spectrum, boot)
        except SpecriskError:
            out.append((0, 1))
            continue
        if report.ci_low is None:
            out.append((0, 1))
        else:
            out.append((int(report.ci_low <= target <= report.ci_high), 0))
    return out


def _k_key(k: float) -> int:
    return int(round(k * 1_000_000))


def run_coverage_experiment(
    plan: ExperimentPlan,
    bootstrap_replicates: int = 200,
    intervals: int = 500,
    level: float = 0.90,
) -> CoverageResult:
    """Fraction of percentile bootstrap intervals covering the theoretical SRM.

    Every (n, k) cell builds ``intervals`` independent samples, a percentile
    interval from ``bootstrap_replicates`` resamples for each, and counts
    hits on the design's theoretical value; the dependent design runs at its
    standard calibration.  Refused intervals (degenerate resampling) count
    as misses and are reported separately.  The arguments are checked
    before any target is computed; fewer than ``MIN_REPLICATES_FOR_CI``
    resamples would refuse every interval.
    """
    if intervals < 1:
        raise ValueError("intervals must be at least 1")
    BootstrapPlan(replicates=bootstrap_replicates, ci_level=level)  # built to check both
    if bootstrap_replicates < MIN_REPLICATES_FOR_CI:
        raise ValueError(
            f"bootstrap_replicates must be at least {MIN_REPLICATES_FOR_CI} to build an interval"
        )
    cfg = default_dependent_config() if plan.design == "dependent" else None
    theoretical = _theoretical_targets(plan, cfg)
    cells = []
    for n in plan.n_grid:
        for k in plan.k_grid:
            head = (plan, cfg, n, k, level, bootstrap_replicates, theoretical[k])
            parts = _map_chunks(_coverage_range, head, intervals, plan.workers)
            flags = [f for part in parts for f in part]
            hits = sum(h for h, _ in flags)
            refused = sum(m for _, m in flags)
            coverage = hits / intervals
            cells.append(
                CoverageCell(
                    design=plan.design,
                    n=n,
                    k=k,
                    coverage=coverage,
                    binomial_se=math.sqrt(max(coverage * (1.0 - coverage), 1e-12) / intervals),
                    hits=hits,
                    intervals=intervals,
                    bootstrap_replicates=bootstrap_replicates,
                    refused=refused,
                    theoretical=theoretical[k],
                )
            )
    meta = _base_metadata(plan)
    del meta["replicates"]  # each cell builds `intervals` samples, not plan.replicates
    meta.update(
        estimators=[ProdEstimator.name],
        intervals=intervals,
        bootstrap_replicates=bootstrap_replicates,
        ci_level=level,
    )
    if plan.design == "dependent":
        meta.update(asdict(cfg))
    return CoverageResult(cells=tuple(cells), metadata=meta)


# ---------------------------------------------------------------------------
# figure data


@dataclass(frozen=True)
class RatioRow:
    design: str
    estimator: str
    n: int
    k: float
    log_rmse_ratio: float


@dataclass(frozen=True)
class FigureData:
    rows: tuple[RatioRow, ...]
    skipped: tuple[str, ...]


def emit_rmse_ratio_log(result: MCResult) -> FigureData:
    """log(RMSE_estimator / RMSE_prod) per cell; the baseline ``prod`` rows are 0."""
    if "prod" not in {c.estimator for c in result.cells}:
        raise ValueError("baseline 'prod' not present in the results")
    base = {(c.n, c.k): c.rmse for c in result.cells if c.estimator == "prod"}
    rows = []
    skipped = []
    for c in result.cells:
        b = base[(c.n, c.k)]
        if not (b > 0) or math.isnan(c.rmse):
            skipped.append(f"{c.estimator}/n={c.n}/k={c.k:g}: undefined ratio")
            continue
        rows.append(
            RatioRow(
                design=c.design,
                estimator=c.estimator,
                n=c.n,
                k=c.k,
                log_rmse_ratio=0.0 if c.estimator == "prod" else math.log(c.rmse / b),
            )
        )
    return FigureData(rows=tuple(rows), skipped=tuple(skipped))
