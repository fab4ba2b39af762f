"""Command-line surface: estimate, simulate, coverage, calibrate.

Every output file embeds the fully resolved configuration and master seed in
a comment header (CSV) or a ``config`` object (JSON), and reruns with the
same flags produce byte-identical files regardless of worker count.

Each subcommand resolves its flags into the objects it runs on before any
work, so a bad value exits 2 (usage error) before a claims file is read, a
sample drawn or a worker started.
Unreadable files, claims-file errors and computation failures exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path

from . import __version__
from .claims import parse_claims
from .errors import SpecriskError
from .estimators import EstimateReport, build_estimator
from .harness import (
    CALIBRATION_SEED,
    CALIBRATION_TOLERANCE,
    TARGET_TRUNCATION_RATE,
    CoverageCell,
    ExperimentPlan,
    MCCell,
    RatioRow,
    emit_rmse_ratio_log,
    run_coverage_experiment,
    run_dependent_experiment,
    run_iid_experiment,
)
from .inference import MIN_REPLICATES_FOR_CI, BootstrapPlan, bootstrap_ci_many
from .severity import (
    DependentModelConfig,
    ModelFamily,
    WindowScheme,
    calibrate_truncation_location,
    dependent_censoring_fraction,
)
from .spectra import ExponentialSpectrum

DEFAULT_K_GRID = "1,5,10,20,100,200"


# ---------------------------------------------------------------------------
# flag converters: argparse names the flag, exits 2, and also converts the
# string defaults


def _flag(parse, ok, need: str):
    """An argparse ``type=``: ``parse`` the text, then require ``ok`` of the value."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if ok(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")

    return convert


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _integers(text: str) -> tuple[int, ...]:
    values = _numbers(text)
    if not all(v.is_integer() for v in values):
        raise ValueError(text)
    return tuple(int(v) for v in values)


@dataclasses.dataclass(frozen=True)
class _KGrid:
    """The ``--k`` list: its text, which output headers echo, and its values."""

    text: str
    values: tuple[float, ...]


def _at_least(least: int):
    return _flag(int, lambda v: v >= least, f"an integer of at least {least}")


_SEED = _flag(int, lambda v: v >= 0, "a nonnegative integer")
_PROBABILITY = _flag(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_TOLERANCE = _flag(float, lambda v: v >= 0.0, "a nonnegative number")
_X0 = _flag(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_N_GRID = _flag(_integers, lambda ns: ns and min(ns) >= 1, "a list of positive integers")
_K_GRID = _flag(
    lambda text: _KGrid(text, _numbers(text)),
    lambda grid: grid.values and all(math.isfinite(k) and k >= 0 for k in grid.values),
    "a list of finite nonnegative numbers",
)


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


def _write_csv(path: Path, config: dict, columns: list[str], rows: list[list]) -> None:
    out = [f"# specrisk {__version__}", *(f"# {key}={config[key]}" for key in sorted(config))]
    out.append(",".join(columns))
    out.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(out) + "\n")


def _write_json(path: Path, config: dict, payload) -> None:
    body = {"specrisk_version": __version__, "config": config, "results": payload}
    _atomic_write(path, json.dumps(body, sort_keys=True, indent=2) + "\n")


def _write_table(out_dir: Path, stem: str, config: dict, columns: list[str], rows: list) -> None:
    """``<stem>.csv`` and ``<stem>.json``: the same rows, as CSV lines and as JSON records."""
    _write_csv(out_dir / f"{stem}.csv", config, columns, rows)
    _write_json(out_dir / f"{stem}.json", config, [dict(zip(columns, row)) for row in rows])


def _fields_table(cls, items) -> tuple[list[str], list[list]]:
    """Columns and rows of dataclass instances, in field order."""
    columns = [f.name for f in dataclasses.fields(cls)]
    return columns, [[getattr(item, c) for c in columns] for item in items]


# the estimate table: the claims group, then an EstimateReport's fields
_ESTIMATE_COLUMNS = ["group"] + [
    "n" if f.name == "n_effective" else f.name for f in dataclasses.fields(EstimateReport)
]


def _jsonable_config(config: dict) -> dict:
    return {k: (v if isinstance(v, (int, float, bool, type(None))) else str(v)) for k, v in config.items()}


# ---------------------------------------------------------------------------
# subcommands: each builds every object it runs on, then returns the run;
# nothing reads claims, draws samples or starts workers before it returns


def _cmd_estimate(args: argparse.Namespace) -> Callable[[], int]:
    scheme = family = x0 = None
    if args.deductible is not None or args.limit is not None:
        d = args.deductible if args.deductible is not None else 0.0
        u = args.limit if args.limit is not None else math.inf
        scheme = WindowScheme.fixed(d, u)
    if args.family:
        if args.x0 is None:
            raise ValueError("--family requires --x0")
        family = ModelFamily.SHIFTED_EXPONENTIAL if args.family == "exp" else ModelFamily.PARETO_I
        x0 = args.x0
    elif args.x0 is not None:
        raise ValueError("--x0 requires --family")
    if args.format == "raw" and scheme is None:
        raise ValueError("raw claims need --deductible/--limit")
    names = tuple(args.estimators.split(","))
    for label, grid in (("estimators", names), ("risk-aversion coefficients", args.k.values)):
        if len(set(grid)) < len(grid):
            raise ValueError(f"{label} must not repeat, got {','.join(map(str, grid))}")
    if family is not None and not {"ml", "pm"} & set(names):
        raise ValueError("--family and --x0 apply only to the ml and pm estimators")
    if args.p1 is not None and "pm" not in names:
        raise ValueError("--p1 applies only to the pm estimator")
    p1 = 0.5 if args.p1 is None else args.p1
    estimators = [
        build_estimator(name, scheme=scheme, family=family, x0=x0, p1=p1) for name in names
    ]
    spectra = [ExponentialSpectrum(k) for k in args.k.values]
    plan = BootstrapPlan(replicates=args.bootstrap, seed=args.seed, ci_level=args.level)

    def run() -> int:
        claims = parse_claims(args.input, args.format, scheme)
        config = {
            "command": "estimate",
            "input": args.input,
            "format": args.format,
            "deductible": getattr(scheme, "deductible", None),
            "limit": getattr(scheme, "limit", None),
            "estimators": ",".join(names),
            "k": args.k.text,
            "bootstrap": args.bootstrap,
            "level": args.level,
            "seed": args.seed,
            "rejected_rows": len(claims.rejected),
            "n_rows": claims.n_rows,
        }
        if family is not None:
            config.update(family=family.value, x0=x0)
        if "pm" in names:
            config["p1"] = p1
        rows = [
            [group, *dataclasses.astuple(report)]
            for group, sample in claims.groups.items()
            for report in bootstrap_ci_many(sample, estimators, spectra, plan)
        ]
        out_dir = Path(args.out)
        _write_table(out_dir, "estimates", _jsonable_config(config), _ESTIMATE_COLUMNS, rows)
        if claims.rejected:
            lines = [f"line {line}: {reason}" for line, reason in claims.rejected]
            _atomic_write(out_dir / "rejected_rows.txt", "\n".join(lines) + "\n")
        print(f"wrote {out_dir / 'estimates.csv'} ({len(rows)} rows)")
        return 0

    return run


# simulate's dependent-design flags and the DependentModelConfig field each sets
_DEPENDENT_FLAGS = {
    "--rho": "rho",
    "--phi1": "phi1",
    "--phi2": "phi2",
    "--phi3": "phi3",
    "--mu": "mu",
}


def _cmd_simulate(args: argparse.Namespace) -> Callable[[], int]:
    given = {f: getattr(args, f) for f in _DEPENDENT_FLAGS.values() if getattr(args, f) is not None}
    if given and args.design != "dependent":
        raise ValueError(
            f"{', '.join(_DEPENDENT_FLAGS)} apply only to --design dependent, "
            f"got --design {args.design}"
        )
    plan = ExperimentPlan(
        design=args.design,
        n_grid=args.n,
        k_grid=args.k.values,
        replicates=args.reps,
        estimators=tuple(args.estimators.split(",")) if args.estimators is not None else None,
        master_seed=args.seed,
        mode=args.mode,
        workers=args.workers,
    )
    # no dependent flag runs the standard calibration; with any, mu is --mu or 0
    cfg = DependentModelConfig(**given) if given else None

    def run() -> int:
        if args.design == "dependent":
            result = run_dependent_experiment(plan, cfg)
        else:
            result = run_iid_experiment(plan)
        out_dir = Path(args.out)
        json_config = _jsonable_config({"command": "simulate", **result.metadata})
        columns, rows = _fields_table(MCCell, result.cells)
        _write_table(out_dir, "results", json_config, columns, rows)

        baseline = "prod"  # the one baseline of emit_rmse_ratio_log
        if baseline in {c.estimator for c in result.cells}:
            figure = emit_rmse_ratio_log(result)
            _write_csv(
                out_dir / "rmse_log_ratios.csv",
                {**json_config, "baseline": baseline, "skipped": ";".join(figure.skipped)},
                *_fields_table(RatioRow, figure.rows),
            )
        print(f"wrote {out_dir / 'results.csv'} ({len(rows)} cells)")
        return 0

    return run


def _cmd_coverage(args: argparse.Namespace) -> Callable[[], int]:
    if args.bootstrap < MIN_REPLICATES_FOR_CI:
        raise ValueError(
            f"--bootstrap must be at least {MIN_REPLICATES_FOR_CI} to build an interval, "
            f"got {args.bootstrap}"
        )
    BootstrapPlan(replicates=args.bootstrap, ci_level=args.level)  # built to check both
    plan = ExperimentPlan(
        design=args.design,
        n_grid=args.n,
        k_grid=args.k.values,
        replicates=max(2, args.reps),
        master_seed=args.seed,
        mode=args.mode,
        workers=args.workers,
    )

    def run() -> int:
        result = run_coverage_experiment(
            plan, bootstrap_replicates=args.bootstrap, intervals=args.reps, level=args.level
        )
        out_dir = Path(args.out)
        json_config = _jsonable_config({"command": "coverage", **result.metadata})
        columns, rows = _fields_table(CoverageCell, result.cells)
        _write_table(out_dir, "coverage", json_config, columns, rows)
        print(f"wrote {out_dir / 'coverage.csv'} ({len(rows)} cells)")
        return 0

    return run


def _cmd_calibrate(args: argparse.Namespace) -> Callable[[], int]:
    cfg = DependentModelConfig(rho=args.rho, phi2=args.phi2)

    def run() -> int:
        mu = calibrate_truncation_location(
            cfg, args.target_alpha, tolerance=args.tolerance, seed=args.calibration_seed
        )
        payload = {
            **dataclasses.asdict(cfg.with_mu(mu)),
            "target_truncation_rate": args.target_alpha,
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

    return run


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specrisk",
        description="Spectral risk measures from truncated/censored loss data",
    )
    parser.add_argument("--version", action="version", version=f"specrisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seeded: bool = True, pooled: bool = True) -> None:
        if seeded:
            p.add_argument("--seed", type=_SEED, default="20250101")
        p.add_argument("--out", default="specrisk-out")
        p.add_argument(
            "--workers",
            type=_at_least(1),
            default="1",
            help=None if pooled else (
                "ignored: this command runs in one process and accepts the flag "
                "only for compatibility"
            ),
        )

    est = sub.add_parser("estimate", help="estimate SRMs on a claims file")
    est.add_argument("--input", required=True)
    est.add_argument("--format", choices=("ltrc", "raw"), default="ltrc")
    est.add_argument("--deductible", type=float, default=None)
    est.add_argument("--limit", type=float, default=None)
    est.add_argument("--estimators", default="prod")
    est.add_argument("--k", type=_K_GRID, default=DEFAULT_K_GRID)
    est.add_argument("--bootstrap", type=_at_least(1), default="1000")
    est.add_argument("--level", type=_PROBABILITY, default="0.9")
    est.add_argument("--family", choices=("exp", "pareto"), default=None)
    est.add_argument("--x0", type=_X0, default=None)
    est.add_argument("--p1", type=_PROBABILITY, default=None)
    add_common(est, pooled=False)

    sim = sub.add_parser("simulate", help="run a Monte Carlo design")
    sim.add_argument("--design", choices=("iid-exp", "iid-pareto", "dependent"), required=True)
    sim.add_argument("--n", type=_N_GRID, default="30,100,500")
    sim.add_argument("--k", type=_K_GRID, default=DEFAULT_K_GRID)
    sim.add_argument("--reps", type=_at_least(2), default="1000")
    sim.add_argument("--estimators", default=None)
    sim.add_argument(
        "--mode",
        choices=("random-truncation", "fixed-thresholds"),
        default="random-truncation",
    )
    for flag, field in _DEPENDENT_FLAGS.items():
        sim.add_argument(flag, dest=field, type=float, default=None)
    add_common(sim)

    cov = sub.add_parser("coverage", help="bootstrap interval coverage study")
    cov.add_argument("--design", choices=("iid-exp", "iid-pareto", "dependent"), default="iid-exp")
    cov.add_argument("--n", type=_N_GRID, default="100")
    cov.add_argument("--k", type=_K_GRID, default="1")
    cov.add_argument("--reps", type=_at_least(1), default="500")
    cov.add_argument("--bootstrap", type=_at_least(1), default="200")
    cov.add_argument("--level", type=_PROBABILITY, default="0.9")
    cov.add_argument(
        "--mode",
        choices=("random-truncation", "fixed-thresholds"),
        default="random-truncation",
    )
    add_common(cov)

    cal = sub.add_parser("calibrate", help="solve the dependent-model truncation location")
    cal.add_argument("--target-alpha", type=_PROBABILITY, default=TARGET_TRUNCATION_RATE)
    cal.add_argument("--phi2", type=float, default=DependentModelConfig.phi2)
    cal.add_argument("--rho", type=float, default=DependentModelConfig.rho)
    cal.add_argument("--tolerance", type=_TOLERANCE, default=CALIBRATION_TOLERANCE)
    cal.add_argument("--calibration-seed", type=_SEED, default=CALIBRATION_SEED)
    add_common(cal, seeded=False, pooled=False)

    return parser


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "coverage": _cmd_coverage,
    "calibrate": _cmd_calibrate,
}


# built once per process: parsing leaves the parser unchanged
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        try:
            run = _COMMANDS[args.command](args)
        except ValueError as exc:
            # a flag combination the objects refuse: a usage error
            _PARSER.error(str(exc))
        return run()
    except (SpecriskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
