"""Tests for claims ingestion, serialization and the command-line surface."""

import json
import math

import numpy as np
import pytest

from specrisk import ClaimsFormatError, LtrcSample, WindowScheme, parse_claims, write_ltrc_csv
from specrisk.cli import _fmt, main
from specrisk.config import ESTIMATE_KEYS, load_config, model_from_config, scheme_from_config


class TestParseClaims:
    def test_raw_claims_uncensored_conversion(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("claim\n600000\n900000\n")
        out = parse_claims(path, "raw", WindowScheme.fixed(500_000.0, math.inf))
        sample = out.groups["all"]
        assert sample.y.tolist() == [600000.0, 900000.0]
        assert sample.t.tolist() == [500000.0, 500000.0]
        assert sample.delta.tolist() == [1, 1]

    def test_raw_claims_marine_window(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("claim\n0.5\n")
        out = parse_claims(path, "raw", WindowScheme.fixed(0.018, 31904.2))
        s = out.groups["all"]
        assert (s.y.tolist(), s.t.tolist(), s.delta.tolist()) == ([0.5], [0.018], [1])

    def test_raw_claim_at_limit_is_censored(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("claim\n40000\n")
        out = parse_claims(path, "raw", WindowScheme.fixed(0.018, 31904.2))
        s = out.groups["all"]
        assert (s.y.tolist(), s.delta.tolist()) == ([31904.2], [0])

    def test_grouping_column(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("y,t,delta,group\n2,1,1,1981\n3,1,0,1981\n5,2,1,1982\n")
        out = parse_claims(path, "ltrc")
        assert sorted(out.groups) == ["1981", "1982"]
        assert len(out.groups["1981"]) == 2

    def test_invariant_violations_rejected_with_line_numbers(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("y,t,delta\n2,1,1\n1,5,1\n2,1,7\n")
        out = parse_claims(path, "ltrc")
        assert len(out.groups["all"]) == 1
        assert [line for line, _ in out.rejected] == [3, 4]

    def test_line_numbers_account_for_comment_lines(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("# written by some tool\n# seed=1\ny,t,delta\n2,1,1\n1,5,1\n")
        out = parse_claims(path, "ltrc")
        assert [line for line, _ in out.rejected] == [5]

    def test_below_deductible_rejected(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("claim\n400000\n600000\n")
        out = parse_claims(path, "raw", WindowScheme.fixed(500_000.0, math.inf))
        assert len(out.groups["all"]) == 1
        assert out.rejected[0][0] == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("y,t,delta\n")
        with pytest.raises(ClaimsFormatError, match="no observations"):
            parse_claims(path, "ltrc")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("y,t\n1,0\n")
        with pytest.raises(ClaimsFormatError, match="missing required column"):
            parse_claims(path, "ltrc")

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("y,t,delta\n1,0,1\nfoo,0,1\n")
        with pytest.raises(ClaimsFormatError, match=":3"):
            parse_claims(path, "ltrc")

    def test_raw_without_scheme(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("claim\n1\n")
        with pytest.raises(ClaimsFormatError, match="window scheme"):
            parse_claims(path, "raw")


class TestRoundTrip:
    def test_serialize_parse_is_lossless(self, tmp_path):
        rng = np.random.default_rng(31)
        y = np.exp(rng.normal(size=40)) * math.pi
        t = y * rng.uniform(0.0, 1.0, size=40)
        d = rng.integers(0, 2, size=40)
        groups = {"a": LtrcSample(y[:20], t[:20], d[:20]), "b": LtrcSample(y[20:], t[20:], d[20:])}
        path = tmp_path / "out.csv"
        write_ltrc_csv(path, groups)
        path.write_text("# seed=1\n" + path.read_text())
        parsed = parse_claims(path, "ltrc")
        for name, sample in groups.items():
            got = parsed.groups[name]
            assert np.array_equal(got.y, sample.y)
            assert np.array_equal(got.t, sample.t)
            assert np.array_equal(got.delta, sample.delta)


class TestConfigFiles:
    def test_load_and_build(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text(
            "# severity setup\nfamily = exp\nx0 = 1000\ntheta = 1000\nd = 4000\nu = 14000\n"
        )
        cfg = load_config(path, ESTIMATE_KEYS)
        model = model_from_config(cfg)
        scheme = scheme_from_config(cfg)
        assert model.theta == 1000.0
        assert scheme.deductible == 4000.0 and scheme.limit == 14000.0

    @pytest.mark.parametrize("line", ["frobnicate = 3", "seed = 5"])
    def test_unknown_key_rejected(self, tmp_path, line):
        # no builder reads a seed, so accepting one would ignore it silently
        path = tmp_path / "model.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ClaimsFormatError, match="unknown key"):
            load_config(path, ESTIMATE_KEYS)

    def test_window_keys_decide_the_window(self):
        assert scheme_from_config({"family": "exp", "x0": "1000"}) is None
        scheme = scheme_from_config({"mode": "random", "truncation_hi": "2500"})
        assert scheme.truncation_law.describe() == "uniform(0,2500)"


def _assert_usage_error(capsys, argv, message, out):
    """``argv`` exits 2 with ``message`` on the last stderr line, no traceback and no output."""
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(out)])
    assert err.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert message in lines[-1]
    assert not any(line.startswith("Traceback") for line in lines)
    assert not out.exists()


class TestCli:
    def _write_claims(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text(
            "claim,group\n600000,1981\n900000,1981\n750000,1981\n"
            "1200000,1982\n820000,1982\n510000,1982\n"
        )
        return path

    def test_estimate_writes_deterministic_files(self, tmp_path):
        claims = self._write_claims(tmp_path)
        args = [
            "estimate", "--input", str(claims), "--format", "raw",
            "--deductible", "500000", "--estimators", "prod", "--k", "1,5",
            "--bootstrap", "60", "--seed", "9",
        ]
        assert main(args + ["--out", str(tmp_path / "o1")]) == 0
        assert main(args + ["--out", str(tmp_path / "o2")]) == 0
        a = (tmp_path / "o1" / "estimates.csv").read_bytes()
        b = (tmp_path / "o2" / "estimates.csv").read_bytes()
        assert a == b
        payload = json.loads((tmp_path / "o1" / "estimates.json").read_text())
        assert payload["config"]["seed"] == 9
        assert len(payload["results"]) == 4

    def test_estimate_identical_claims_zero_width(self, tmp_path):
        claims = tmp_path / "claims.csv"
        claims.write_text("y,t,delta\n" + "700,100,1\n" * 12)
        code = main(
            [
                "estimate", "--input", str(claims), "--format", "ltrc",
                "--estimators", "prod", "--k", "1,5,100", "--bootstrap", "60",
                "--seed", "2", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        rows = json.loads((tmp_path / "out" / "estimates.json").read_text())["results"]
        for row in rows:
            assert row["ci_low"] == row["ci_high"] == row["point"] == pytest.approx(700.0)

    def test_unknown_estimator_is_usage_error(self, tmp_path, capsys):
        claims = self._write_claims(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "estimate", "--input", str(claims), "--format", "raw",
                    "--deductible", "500000", "--estimators", "bogus",
                    "--out", str(tmp_path / "x"),
                ]
            )
        assert err.value.code == 2
        assert "valid names" in capsys.readouterr().err

    def test_invalid_grid_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--design", "iid-exp", "--n", "0", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_negative_k_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--design", "iid-exp", "--k", "-3", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "nan"], "argument --k: must be a list of finite nonnegative numbers"),
            (["--k", "1,inf"], "argument --k: must be a list of finite nonnegative numbers"),
            (["--bootstrap", "0"], "argument --bootstrap: must be an integer of at least 1"),
            (["--level", "1.5"], "argument --level: must be a number in (0, 1)"),
            (["--p1", "2"], "argument --p1: must be a number in (0, 1)"),
            (["--workers", "0"], "argument --workers: must be an integer of at least 1"),
            (["--seed", "-1"], "argument --seed: must be a nonnegative integer"),
            (["--family", "exp", "--x0", "-5"], "argument --x0: must be a positive finite number"),
            (["--deductible", "5", "--limit", "1"], "deductible must be below the policy limit"),
            (["--config", "x0neg.cfg"], "x0 must be strictly positive"),
            (["--config", "window.cfg"], "deductible must be below the policy limit"),
            (["--config", "bogus.cfg"], "config needs a valid family, got 'bogus'"),
            (["--config", "unknown.cfg"], "unknown key 'frobnicate'"),
            (["--config", "seed.cfg"], "unknown key 'seed'"),
            (["--config", "nox0.cfg"], "x0 must be strictly positive"),
            (["--x0", "1000"], "--x0 requires --family"),
            (["--config", "model.cfg", "--x0", "3"], "--x0 requires --family"),
            (
                ["--config", "rho.cfg"],
                "unknown key 'rho'; allowed keys: alpha, d, family, mode, theta, "
                "truncation_hi, truncation_lo, u, x0",
            ),
            (["--p1", "0.3", "--estimators", "prod"], "--p1 applies only to the pm estimator"),
        ],
    )
    def test_invalid_estimate_flag_is_usage_error(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        # the input file does not exist: the flags are refused before it is read
        monkeypatch.chdir(tmp_path)
        configs = {
            "x0neg.cfg": "family = exp\nx0 = -5\ntheta = 1000\n",
            "window.cfg": "d = 5\nu = 1\n",
            "bogus.cfg": "family = bogus\n",
            "unknown.cfg": "frobnicate = 3\n",
            "seed.cfg": "seed = 5\n",
            "nox0.cfg": "family = exp\nd = 4000\n",
            "model.cfg": "family = exp\nx0 = 1000\ntheta = 1000\nd = 4000\n",
            "rho.cfg": "family = exp\nx0 = 1000\nd = 4000\nrho = 0.5\n",
        }
        for name, text in configs.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = ["estimate", "--input", str(tmp_path / "missing.csv"), *flags]
        _assert_usage_error(capsys, argv, message, tmp_path / "x")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["coverage", "--bootstrap", "0"], "argument --bootstrap: must be an integer of at least 1"),
            (["coverage", "--level", "1.5"], "argument --level: must be a number in (0, 1)"),
            (["coverage", "--reps", "0"], "argument --reps: must be an integer of at least 1"),
            (
                ["simulate", "--design", "iid-exp", "--reps", "1"],
                "argument --reps: must be an integer of at least 2",
            ),
            (
                ["simulate", "--design", "iid-exp", "--workers", "0"],
                "argument --workers: must be an integer of at least 1",
            ),
            (["coverage", "--workers", "0"], "argument --workers: must be an integer of at least 1"),
            (["coverage", "--n", "nan"], "argument --n: must be a list of positive integers"),
            (["coverage", "--n", "1e400"], "argument --n: must be a list of positive integers"),
            (
                ["simulate", "--design", "iid-exp", "--n", "1e400"],
                "argument --n: must be a list of positive integers",
            ),
            (
                ["simulate", "--design", "iid-exp", "--seed", "-1"],
                "argument --seed: must be a nonnegative integer",
            ),
            (["coverage", "--seed", "-1"], "argument --seed: must be a nonnegative integer"),
            (
                ["simulate", "--design", "dependent", "--estimators", "ml"],
                "estimator 'ml' is undefined for the dependent design",
            ),
            (
                ["simulate", "--design", "iid-exp", "--estimators", "pm"],
                "estimator 'pm' requires fixed-thresholds mode",
            ),
            (
                ["simulate", "--design", "iid-exp", "--estimators", "prod,bogus"],
                "unknown estimator 'bogus'; valid names: prod, emp, kernel, ml, pm",
            ),
            (
                ["simulate", "--design", "dependent", "--config", "rho2.cfg"],
                "|rho| must be below 1",
            ),
            (
                ["simulate", "--design", "iid-exp", "--config", "rho2.cfg"],
                "--config applies only to --design dependent, got --design iid-exp",
            ),
            (
                ["simulate", "--design", "dependent", "--config", "d5.cfg"],
                "unknown key 'd'; allowed keys: mu, phi1, phi2, phi3, rho, target_pc",
            ),
            (
                ["simulate", "--design", "dependent", "--config", "alpha.cfg"],
                "unknown key 'target_alpha'; allowed keys: mu, phi1, phi2, phi3, rho, target_pc",
            ),
            (
                ["simulate", "--design", "iid-exp", "--n", "1e300", "--k", "1", "--reps", "2"],
                "sample sizes must be at most 10000000",
            ),
            (["coverage", "--n", "10000001"], "sample sizes must be at most 10000000"),
        ],
    )
    def test_invalid_run_flag_is_usage_error(self, tmp_path, capsys, monkeypatch, argv, message):
        # refused before any sample is drawn or any worker is started
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rho2.cfg").write_text("rho = 2\n", encoding="utf-8")
        (tmp_path / "d5.cfg").write_text("rho = 0.1\nd = 5\n", encoding="utf-8")
        # nothing calibrates to a retention target: mu is the config's mu key
        (tmp_path / "alpha.cfg").write_text("rho = 0.1\ntarget_alpha = 0.5\n", encoding="utf-8")
        argv = [argv[0], "--n", "30", *argv[1:]]
        _assert_usage_error(capsys, argv, message, tmp_path / "x")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--target-alpha", "1.5"], "target_truncation_rate must lie in (0, 1)"),
            (["--pc", "1.5"], "target_censoring_pc must lie in (0, 1)"),
            (["--rho", "2"], "|rho| must be below 1"),
            (["--phi2", "-1"], "phi1, phi2, phi3 must be strictly positive"),
            (["--tolerance", "-1"], "argument --tolerance: must be a nonnegative number"),
            (["--calibration-seed", "-1"], "argument --calibration-seed: must be a nonnegative integer"),
            # the bisection's seed is --calibration-seed; calibrate has no master seed
            (["--seed", "5"], "unrecognized arguments: --seed 5"),
        ],
    )
    def test_invalid_calibrate_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        # refused before the bisection draws its evaluation set
        _assert_usage_error(capsys, ["calibrate", *flags], message, tmp_path / "x")

    @pytest.mark.parametrize(
        "env, argv, message",
        [
            (
                ("SPECRISK_BOOTSTRAP", "abc"),
                ["estimate", "--input", "missing.csv"],
                "argument --bootstrap: must be an integer of at least 1, got 'abc'",
            ),
            (
                ("SPECRISK_N", "10,nan"),
                ["coverage"],
                "argument --n: must be a list of positive integers, got '10,nan'",
            ),
        ],
    )
    def test_invalid_env_value_is_usage_error(self, tmp_path, capsys, monkeypatch, env, argv, message):
        # a SPECRISK_* default is converted and checked like the flag it stands for
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(*env)
        _assert_usage_error(capsys, argv, message, tmp_path / "x")

    def test_window_only_config_builds_the_window(self, tmp_path):
        # a config with window keys but no d or u still sets the window raw claims need
        cfg = tmp_path / "window.cfg"
        cfg.write_text("mode = random\ntruncation_lo = 0\ntruncation_hi = 2500\n")
        code = main(
            [
                "estimate", "--input", str(self._write_claims(tmp_path)), "--format", "raw",
                "--config", str(cfg), "--k", "1", "--bootstrap", "60",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        config = json.loads((tmp_path / "out" / "estimates.json").read_text())["config"]
        assert config["deductible"] == 0.0 and config["limit"] == math.inf

    @pytest.mark.parametrize(
        "argv, stem",
        [
            (
                ["estimate", "--format", "raw", "--deductible", "500000",
                 "--estimators", "prod,emp,kernel", "--k", "1,5", "--bootstrap", "55"],
                "estimates",
            ),
            (
                ["simulate", "--design", "iid-pareto", "--mode", "fixed-thresholds",
                 "--n", "15", "--k", "1,5", "--reps", "4"],
                "results",
            ),
            (
                ["coverage", "--design", "iid-exp", "--n", "15", "--k", "1",
                 "--reps", "3", "--bootstrap", "55"],
                "coverage",
            ),
        ],
    )
    def test_csv_rows_match_json_records(self, tmp_path, argv, stem):
        if argv[0] == "estimate":
            argv = [*argv, "--input", str(self._write_claims(tmp_path))]
        out = tmp_path / "out"
        assert main([*argv, "--seed", "3", "--out", str(out)]) == 0
        text = (out / f"{stem}.csv").read_text()
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        columns = lines[0].split(",")
        records = json.loads((out / f"{stem}.json").read_text())["results"]
        assert len(lines) - 1 == len(records) > 0
        for line, record in zip(lines[1:], records):
            assert sorted(record) == sorted(columns)
            assert line.split(",") == [_fmt(record[c]) for c in columns]

    @pytest.mark.parametrize(
        "flags, recorded",
        [
            (
                ["--estimators", "ml,pm", "--family", "exp", "--x0", "500000", "--p1", "0.3"],
                {"family": "shifted-exponential", "x0": 5e5, "p1": 0.3},
            ),
            # p1 is recorded only when pm runs
            (
                ["--estimators", "ml", "--family", "exp", "--x0", "500000"],
                {"family": "shifted-exponential", "x0": 5e5},
            ),
            # no model is resolved: the nonparametric header stays as it was
            (["--estimators", "prod,emp"], {}),
        ],
        ids=["ml-pm", "ml", "prod-emp"],
    )
    def test_parametric_header_records_the_model(self, tmp_path, flags, recorded):
        argv = [
            "estimate", "--input", str(self._write_claims(tmp_path)), "--format", "raw",
            "--deductible", "500000", "--limit", "1000000", *flags, "--k", "1",
            "--bootstrap", "55", "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        header = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
        config = json.loads((tmp_path / "out" / "estimates.json").read_text())["config"]
        for key in ("family", "x0", "p1"):
            if key in recorded:
                assert f"# {key}={recorded[key]}" in header
                assert config[key] == recorded[key]
            else:
                assert not any(line.startswith(f"# {key}=") for line in header)
                assert key not in config

    def test_parametric_estimator_without_window_is_usage_error(self, tmp_path):
        claims = self._write_claims(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "estimate", "--input", str(claims), "--format", "ltrc",
                    "--estimators", "ml", "--out", str(tmp_path / "x"),
                ]
            )
        assert err.value.code == 2

    def test_simulate_writes_results_and_figure_data(self, tmp_path):
        code = main(
            [
                "simulate", "--design", "iid-exp", "--n", "20", "--k", "1",
                "--reps", "10", "--seed", "7", "--out", str(tmp_path / "sim"),
            ]
        )
        assert code == 0
        text = (tmp_path / "sim" / "results.csv").read_text()
        assert "# master_seed=7" in text
        figure = (tmp_path / "sim" / "rmse_log_ratios.csv").read_text().splitlines()
        assert "# baseline=prod" in figure

    def test_simulate_without_prod_writes_no_figure_data(self, tmp_path):
        # the log-RMSE ratios are taken against prod, so without it there are none
        code = main(
            [
                "simulate", "--design", "iid-exp", "--n", "20", "--k", "1", "--reps", "4",
                "--estimators", "emp,kernel", "--seed", "7", "--out", str(tmp_path / "sim"),
            ]
        )
        assert code == 0
        assert (tmp_path / "sim" / "results.csv").exists()
        assert not (tmp_path / "sim" / "rmse_log_ratios.csv").exists()

    def test_simulate_worker_invariance(self, tmp_path):
        base = [
            "simulate", "--design", "iid-exp", "--n", "15", "--k", "1",
            "--reps", "8", "--seed", "3",
        ]
        assert main(base + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
        assert main(base + ["--workers", "2", "--out", str(tmp_path / "w2")]) == 0
        a = (tmp_path / "w1" / "results.csv").read_bytes()
        b = (tmp_path / "w2" / "results.csv").read_bytes()
        assert a == b

    def test_dependent_simulate_records_calibrated_mu(self, tmp_path):
        code = main(
            [
                "simulate", "--design", "dependent", "--n", "15", "--k", "1",
                "--reps", "6", "--seed", "5", "--out", str(tmp_path / "dep"),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "dep" / "results.json").read_text())
        assert 0.3 < float(payload["config"]["mu"]) < 1.0

    def test_coverage_command(self, tmp_path):
        code = main(
            [
                "coverage", "--design", "iid-exp", "--n", "20", "--k", "1",
                "--reps", "6", "--bootstrap", "55", "--seed", "4",
                "--out", str(tmp_path / "cov"),
            ]
        )
        assert code == 0
        text = (tmp_path / "cov" / "coverage.csv").read_text()
        assert "coverage" in text.splitlines()[-2] or "coverage" in text

    def test_calibrate_command(self, tmp_path):
        code = main(["calibrate", "--target-alpha", "0.3", "--out", str(tmp_path / "cal")])
        assert code == 0
        payload = json.loads((tmp_path / "cal" / "calibration.json").read_text())
        assert 0.3 < payload["results"]["mu"] < 1.0

    def test_calibrate_defaults_are_the_standard_dependent_design(self, tmp_path):
        # the flag defaults and default_dependent_config read the same constants
        from specrisk.harness import default_dependent_config

        assert main(["calibrate", "--out", str(tmp_path / "cal")]) == 0
        results = json.loads((tmp_path / "cal" / "calibration.json").read_text())["results"]
        cfg = default_dependent_config()
        assert results["mu"] == cfg.mu
        assert (results["rho"], results["phi2"]) == (cfg.rho, cfg.phi2)
        assert results["target_truncation_rate"] == cfg.target_truncation_rate
        assert results["target_censoring_pc"] == cfg.target_censoring_pc

    def test_env_var_overrides_seed_default(self, tmp_path, monkeypatch):
        claims = self._write_claims(tmp_path)
        monkeypatch.setenv("SPECRISK_SEED", "4242")
        code = main(
            [
                "estimate", "--input", str(claims), "--format", "raw",
                "--deductible", "500000", "--estimators", "prod", "--k", "1",
                "--bootstrap", "60", "--out", str(tmp_path / "env"),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "env" / "estimates.json").read_text())
        assert payload["config"]["seed"] == 4242

    def test_compute_failure_exit_code(self, tmp_path):
        missing = tmp_path / "nope.csv"
        code = main(
            ["estimate", "--input", str(missing), "--format", "ltrc", "--out", str(tmp_path / "x")]
        )
        assert code == 1

    def test_estimate_on_synthetic_window_data_matches_oracle(self, tmp_path):
        # losses above a deductible with no cap follow a shifted exponential
        # anchored at the deductible; the closed form of its spectral value
        # is an independent oracle for the product-limit point estimate
        from test_severity import exp_srm_closed_form

        rng = np.random.default_rng(123)
        d, theta, n = 4000.0, 1000.0, 10_000
        claims = d + rng.exponential(theta, size=n)
        path = tmp_path / "claims.csv"
        path.write_text("claim\n" + "\n".join(f"{c:.17g}" for c in claims) + "\n")
        code = main(
            [
                "estimate", "--input", str(path), "--format", "raw",
                "--deductible", str(d), "--estimators", "prod", "--k", "1",
                "--bootstrap", "60", "--seed", "5", "--out", str(tmp_path / "syn"),
            ]
        )
        assert code == 0
        row = json.loads((tmp_path / "syn" / "estimates.json").read_text())["results"][0]
        oracle = exp_srm_closed_form(d, theta, 1.0)
        assert abs(row["point"] - oracle) <= 3.0 * row["std_error"]
