"""Command-line surface: estimate, simulate, coverage, calibrate.

Every output file embeds the fully resolved configuration and master seed in
a comment header (CSV) or a ``config`` object (JSON), and reruns with the
same flags produce byte-identical files regardless of worker count.  Exit
codes: 0 success, 1 computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from . import __version__
from .claims import parse_claims
from .config import dependent_from_config, load_config, model_from_config, scheme_from_config
from .errors import SpecriskError
from .estimators import ESTIMATOR_NAMES, build_estimator
from .harness import (
    ExperimentPlan,
    emit_rmse_ratio_log,
    run_coverage_experiment,
    run_experiment,
)
from .inference import BootstrapPlan, bootstrap_ci_many
from .severity import (
    DependentModelConfig,
    ModelFamily,
    WindowScheme,
    calibrate_truncation_location,
    dependent_censoring_fraction,
)
from .spectra import ExponentialSpectrum

ENV_PREFIX = "SPECRISK_"
DEFAULT_K_GRID = "1,5,10,20,100,200"


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get(ENV_PREFIX + name.upper(), fallback)


def _parse_floats(text: str, what: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        parser.error(f"invalid {what} list {text!r}")
    if not values:
        parser.error(f"empty {what} list")
    return values


def _parse_ints(text: str, what: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    floats = _parse_floats(text, what, parser)
    ints = tuple(int(v) for v in floats)
    if any(i != v for i, v in zip(ints, floats)) or any(i < 1 for i in ints):
        parser.error(f"{what} list must contain positive integers: {text!r}")
    return ints


def _parse_k_grid(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    k_grid = _parse_floats(text, "k", parser)
    if not all(math.isfinite(k) and k >= 0 for k in k_grid):
        parser.error(f"k values must be finite and nonnegative: {text!r}")
    return k_grid


def _atomic_write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def _header_lines(config: dict) -> list[str]:
    lines = [f"# specrisk {__version__}"]
    for key in sorted(config):
        lines.append(f"# {key}={config[key]}")
    return lines


def _write_csv(path: Path, config: dict, columns: list[str], rows: list[list]) -> None:
    out = _header_lines(config)
    out.append(",".join(columns))
    out.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(out) + "\n")


def _write_json(path: Path, config: dict, payload) -> None:
    body = {"specrisk_version": __version__, "config": config, "results": payload}
    _atomic_write(path, json.dumps(body, sort_keys=True, indent=2) + "\n")


def _jsonable_config(config: dict) -> dict:
    return {k: (v if isinstance(v, (int, float, bool, type(None))) else str(v)) for k, v in config.items()}


# ---------------------------------------------------------------------------
# subcommands


def _check_bootstrap_flags(args, parser) -> None:
    if args.bootstrap < 1:
        parser.error(f"--bootstrap must be at least 1, got {args.bootstrap}")
    if not 0.0 < args.level < 1.0:
        parser.error(f"--level must lie in (0, 1), got {args.level:g}")


def _check_reps(args, parser, least: int) -> None:
    if args.reps < least:
        parser.error(f"--reps must be at least {least}, got {args.reps}")


def _cmd_estimate(args, parser) -> int:
    _check_bootstrap_flags(args, parser)
    if not 0.0 < args.p1 < 1.0:
        parser.error(f"--p1 must lie in (0, 1), got {args.p1:g}")
    scheme = None
    family = None
    x0 = None
    if args.config:
        file_cfg = load_config(args.config)
        if "family" in file_cfg:
            model = model_from_config(file_cfg)
            family, x0 = model.family, model.x0
        if "d" in file_cfg or "u" in file_cfg:
            scheme = scheme_from_config(file_cfg)
    if args.deductible is not None or args.limit is not None:
        d = args.deductible if args.deductible is not None else 0.0
        u = args.limit if args.limit is not None else math.inf
        scheme = WindowScheme.fixed(d, u)
    if args.family:
        family = ModelFamily.SHIFTED_EXPONENTIAL if args.family == "exp" else ModelFamily.PARETO_I
        x0 = args.x0
        if x0 is None:
            parser.error("--family requires --x0")
    if args.format == "raw" and scheme is None:
        parser.error("raw claims need --deductible/--limit (or a config file window)")

    names = tuple(args.estimators.split(","))
    for name in names:
        if name not in ESTIMATOR_NAMES:
            parser.error(
                f"unknown estimator {name!r}; valid names: {', '.join(ESTIMATOR_NAMES)}"
            )
        if name in ("ml", "pm") and (scheme is None or family is None or x0 is None):
            parser.error(
                f"estimator {name!r} needs --deductible/--limit and --family/--x0 "
                "(or a config file providing them)"
            )
    k_grid = _parse_k_grid(args.k, parser)

    claims = parse_claims(args.input, args.format, scheme)
    estimators = [
        build_estimator(name, scheme=scheme, family=family, x0=x0, p1=args.p1)
        for name in names
    ]

    config = {
        "command": "estimate",
        "input": args.input,
        "format": args.format,
        "deductible": getattr(scheme, "deductible", None),
        "limit": getattr(scheme, "limit", None),
        "estimators": ",".join(names),
        "k": args.k,
        "bootstrap": args.bootstrap,
        "level": args.level,
        "seed": args.seed,
        "rejected_rows": len(claims.rejected),
        "n_rows": claims.n_rows,
    }
    columns = [
        "group",
        "estimator",
        "k",
        "n",
        "point",
        "std_error",
        "ci_low",
        "ci_high",
        "ci_level",
        "replicates_used",
        "replicate_failures",
    ]
    rows = []
    payload = []
    plan = BootstrapPlan(replicates=args.bootstrap, seed=args.seed, ci_level=args.level)
    spectra = [ExponentialSpectrum(k) for k in k_grid]
    for group, sample in claims.groups.items():
        for estimator in estimators:
            reports = bootstrap_ci_many(sample, estimator, spectra, plan)
            for k, report in zip(k_grid, reports):
                rows.append(
                    [
                        group,
                        report.estimator,
                        k,
                        report.n_effective,
                        report.point,
                        report.std_error,
                        report.ci_low,
                        report.ci_high,
                        report.ci_level,
                        report.replicates_used,
                        report.replicate_failures,
                    ]
                )
                payload.append(
                    {
                        "group": group,
                        "estimator": report.estimator,
                        "k": k,
                        "n": report.n_effective,
                        "point": report.point,
                        "std_error": report.std_error,
                        "ci_low": report.ci_low,
                        "ci_high": report.ci_high,
                        "ci_level": report.ci_level,
                        "replicates_used": report.replicates_used,
                        "replicate_failures": report.replicate_failures,
                    }
                )
    out_dir = Path(args.out)
    json_config = _jsonable_config(config)
    _write_csv(out_dir / "estimates.csv", json_config, columns, rows)
    _write_json(out_dir / "estimates.json", json_config, payload)
    if claims.rejected:
        lines = [f"line {line}: {reason}" for line, reason in claims.rejected]
        _atomic_write(out_dir / "rejected_rows.txt", "\n".join(lines) + "\n")
    print(f"wrote {out_dir / 'estimates.csv'} ({len(rows)} rows)")
    return 0


def _cmd_simulate(args, parser) -> int:
    _check_reps(args, parser, 2)
    estimators = tuple(args.estimators.split(",")) if args.estimators else None
    if estimators:
        for name in estimators:
            if name not in ESTIMATOR_NAMES:
                parser.error(
                    f"unknown estimator {name!r}; valid names: {', '.join(ESTIMATOR_NAMES)}"
                )
    plan = ExperimentPlan(
        design=args.design,
        n_grid=_parse_ints(args.n, "n", parser),
        k_grid=_parse_k_grid(args.k, parser),
        replicates=args.reps,
        estimators=estimators,
        master_seed=args.seed,
        mode=args.mode,
        workers=args.workers,
    )
    cfg = None
    if args.design == "dependent" and args.config:
        cfg = dependent_from_config(load_config(args.config))
    result = run_experiment(plan, cfg)

    config = {"command": "simulate", **result.metadata}
    columns = [
        "design",
        "estimator",
        "n",
        "k",
        "mean",
        "sd",
        "rmse",
        "rmse_se",
        "theoretical",
        "theoretical_window",
        "failures",
        "replicates",
    ]
    rows = [
        [
            c.design,
            c.estimator,
            c.n,
            c.k,
            c.mean,
            c.sd,
            c.rmse,
            c.rmse_se,
            c.theoretical,
            c.theoretical_window,
            c.failures,
            c.replicates,
        ]
        for c in result.cells
    ]
    out_dir = Path(args.out)
    json_config = _jsonable_config(config)
    _write_csv(out_dir / "results.csv", json_config, columns, rows)
    _write_json(out_dir / "results.json", json_config, [dict(zip(columns, r)) for r in rows])

    baseline = "prod"
    if baseline in {c.estimator for c in result.cells}:
        figure = emit_rmse_ratio_log(result, baseline)
        fig_rows = [
            [r.design, r.estimator, r.n, r.k, r.log_rmse_ratio] for r in figure.rows
        ]
        _write_csv(
            out_dir / "rmse_log_ratios.csv",
            {**json_config, "baseline": baseline, "skipped": ";".join(figure.skipped)},
            ["design", "estimator", "n", "k", "log_rmse_ratio"],
            fig_rows,
        )
    print(f"wrote {out_dir / 'results.csv'} ({len(rows)} cells)")
    return 0


def _cmd_coverage(args, parser) -> int:
    _check_reps(args, parser, 1)
    _check_bootstrap_flags(args, parser)
    plan = ExperimentPlan(
        design=args.design,
        n_grid=_parse_ints(args.n, "n", parser),
        k_grid=_parse_k_grid(args.k, parser),
        replicates=max(2, args.reps),
        master_seed=args.seed,
        mode=args.mode,
        workers=args.workers,
    )
    result = run_coverage_experiment(
        plan,
        bootstrap_replicates=args.bootstrap,
        intervals=args.reps,
        level=args.level,
    )
    config = {"command": "coverage", **result.metadata}
    columns = [
        "design",
        "n",
        "k",
        "coverage",
        "binomial_se",
        "hits",
        "intervals",
        "bootstrap_replicates",
        "refused",
        "theoretical",
    ]
    rows = [
        [
            c.design,
            c.n,
            c.k,
            c.coverage,
            c.binomial_se,
            c.hits,
            c.intervals,
            c.bootstrap_replicates,
            c.refused,
            c.theoretical,
        ]
        for c in result.cells
    ]
    out_dir = Path(args.out)
    json_config = _jsonable_config(config)
    _write_csv(out_dir / "coverage.csv", json_config, columns, rows)
    _write_json(out_dir / "coverage.json", json_config, [dict(zip(columns, r)) for r in rows])
    print(f"wrote {out_dir / 'coverage.csv'} ({len(rows)} cells)")
    return 0


def _cmd_calibrate(args, parser) -> int:
    cfg = DependentModelConfig(
        rho=args.rho,
        phi2=args.phi2,
        target_truncation_rate=args.target_alpha,
        target_censoring_pc=args.pc,
    )
    mu = calibrate_truncation_location(
        cfg, args.target_alpha, tolerance=args.tolerance, seed=args.calibration_seed
    )
    payload = {
        "mu": mu,
        "rho": cfg.rho,
        "phi1": cfg.phi1,
        "phi2": cfg.phi2,
        "phi3": cfg.phi3,
        "target_truncation_rate": args.target_alpha,
        "target_censoring_pc": args.pc,
        "analytic_censoring_fraction": dependent_censoring_fraction(
            cfg.phi1, cfg.phi2, cfg.phi3
        ),
        "tolerance": args.tolerance,
        "calibration_seed": args.calibration_seed,
    }
    out_dir = Path(args.out)
    _write_json(out_dir / "calibration.json", {"command": "calibrate"}, payload)
    print(f"wrote {out_dir / 'calibration.json'} (mu={mu:.6g})")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specrisk",
        description="Spectral risk measures from truncated/censored loss data",
    )
    parser.add_argument("--version", action="version", version=f"specrisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=int(_env("seed", "20250101")))
        p.add_argument("--out", default=_env("out", "specrisk-out"))
        p.add_argument("--workers", type=int, default=int(_env("workers", "1")))

    est = sub.add_parser("estimate", help="estimate SRMs on a claims file")
    est.add_argument("--input", required=True)
    est.add_argument("--format", choices=("ltrc", "raw"), default="ltrc")
    est.add_argument("--deductible", type=float, default=None)
    est.add_argument("--limit", type=float, default=None)
    est.add_argument("--estimators", default="prod")
    est.add_argument("--k", default=_env("k", DEFAULT_K_GRID))
    est.add_argument("--bootstrap", type=int, default=int(_env("bootstrap", "1000")))
    est.add_argument("--level", type=float, default=float(_env("level", "0.9")))
    est.add_argument("--family", choices=("exp", "pareto"), default=None)
    est.add_argument("--x0", type=float, default=None)
    est.add_argument("--p1", type=float, default=0.5)
    est.add_argument("--config", default=None)
    add_common(est)

    sim = sub.add_parser("simulate", help="run a Monte Carlo design")
    sim.add_argument("--design", choices=("iid-exp", "iid-pareto", "dependent"), required=True)
    sim.add_argument("--n", default=_env("n", "30,100,500"))
    sim.add_argument("--k", default=_env("k", DEFAULT_K_GRID))
    sim.add_argument("--reps", type=int, default=int(_env("reps", "1000")))
    sim.add_argument("--estimators", default=None)
    sim.add_argument(
        "--mode",
        choices=("random-truncation", "fixed-thresholds"),
        default="random-truncation",
    )
    sim.add_argument("--config", default=None)
    add_common(sim)

    cov = sub.add_parser("coverage", help="bootstrap interval coverage study")
    cov.add_argument("--design", choices=("iid-exp", "iid-pareto", "dependent"), default="iid-exp")
    cov.add_argument("--n", default=_env("n", "100"))
    cov.add_argument("--k", default=_env("k", "1"))
    cov.add_argument("--reps", type=int, default=int(_env("reps", "500")))
    cov.add_argument("--bootstrap", type=int, default=int(_env("bootstrap", "200")))
    cov.add_argument("--level", type=float, default=float(_env("level", "0.9")))
    cov.add_argument(
        "--mode",
        choices=("random-truncation", "fixed-thresholds"),
        default="random-truncation",
    )
    add_common(cov)

    cal = sub.add_parser("calibrate", help="solve the dependent-model truncation location")
    cal.add_argument("--target-alpha", type=float, default=0.30)
    cal.add_argument("--pc", type=float, default=0.10)
    cal.add_argument("--phi2", type=float, default=1.087)
    cal.add_argument("--rho", type=float, default=0.1)
    cal.add_argument("--tolerance", type=float, default=0.005)
    cal.add_argument("--calibration-seed", type=int, default=727_001)
    add_common(cal)

    return parser


_HANDLERS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "coverage": _cmd_coverage,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    try:
        return _HANDLERS[args.command](args, parser)
    except SpecriskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
