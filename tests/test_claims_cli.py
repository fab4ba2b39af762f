"""Tests for claims ingestion, serialization and the command-line surface."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from specrisk import (
    ClaimsFile,
    ClaimsFormatError,
    DependentModelConfig,
    LtrcSample,
    WindowScheme,
    parse_claims,
    write_ltrc_csv,
)
from specrisk.cli import _fmt, main
from specrisk.harness import ExperimentPlan, run_dependent_experiment


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

    def test_spaced_header_parses_like_plain_header(self, tmp_path):
        rows = "2,1,1,1981\n3,1,0,1981\n5,2,1,1982\n"
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text("y,t,delta,group\n" + rows)
        spaced.write_text("y, t, delta, group\n" + rows)
        a, b = parse_claims(plain, "ltrc"), parse_claims(spaced, "ltrc")
        assert sorted(a.groups) == sorted(b.groups) == ["1981", "1982"]
        for g in a.groups:
            for field in ("y", "t", "delta"):
                assert np.array_equal(getattr(a.groups[g], field), getattr(b.groups[g], field))
        assert (a.n_rows, a.rejected) == (b.n_rows, b.rejected)
        argv = ["estimate", "--format", "ltrc", "--estimators", "prod", "--k", "1"]
        for path in (plain, spaced):
            assert main(argv + ["--input", str(path), "--out", str(tmp_path / path.stem)]) == 0
        results = [
            json.loads((tmp_path / stem / "estimates.json").read_text())["results"]
            for stem in ("plain", "spaced")
        ]
        assert results[0] == results[1]

    def test_blank_group_cell_is_the_default_group(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("y,t,delta,group\n2,1,1,\n3,1,1,  \n5,2,1,1982\n")
        out = parse_claims(path, "ltrc")
        assert sorted(out.groups) == ["1982", "all"]
        assert out.groups["all"].y.tolist() == [2.0, 3.0]

    def test_invariant_violations_rejected_with_line_numbers(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("y,t,delta\n2,1,1\n1,5,1\n2,1,7\n")
        out = parse_claims(path, "ltrc")
        assert len(out.groups["all"]) == 1
        assert [line for line, _ in out.rejected] == [3, 4]

    def test_nan_rows_rejected_for_their_own_reason(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("y,t,delta\n2,1,1\nnan,1,1\n4,nan,1\n")
        out = parse_claims(path, "ltrc")
        assert out.rejected == ((3, "non-finite value"), (4, "truncation value is NaN"))

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


def _dictreader_parse(path, fmt, scheme=None):
    """The ``csv.DictReader`` parse that ``parse_claims`` replaced, kept as its reference."""
    rows, rejected, n_rows = {}, [], 0
    with open(path, newline="", encoding="utf-8") as fh:
        kept = [(no, row) for no, row in enumerate(fh, start=1) if not row.startswith("#")]
        reader = csv.DictReader(row for _, row in kept)
        if reader.fieldnames is None:
            raise ClaimsFormatError(f"{path}: missing header row")
        reader.fieldnames = [name.strip() for name in reader.fieldnames]
        required = {"y", "t", "delta"} if fmt == "ltrc" else {"claim"}
        missing = required - set(reader.fieldnames)
        if missing:
            raise ClaimsFormatError(
                f"{path}: missing required column(s) {', '.join(sorted(missing))}"
            )
        for record in reader:
            line = kept[reader.line_num - 1][0]
            n_rows += 1
            group = (record.get("group") or "").strip() or "all"
            try:
                if fmt == "ltrc":
                    y, t, delta = (float(record[c]) for c in ("y", "t", "delta"))
                else:
                    claim = float(record["claim"])
            except (TypeError, ValueError) as exc:
                raise ClaimsFormatError(f"{path}:{line}: unparseable row ({exc})") from exc
            if fmt == "ltrc":
                if delta not in (0.0, 1.0):
                    rejected.append((line, f"delta {delta:g} not in {{0, 1}}"))
                elif not math.isfinite(y):
                    rejected.append((line, "non-finite value"))
                elif math.isnan(t):
                    rejected.append((line, "truncation value is NaN"))
                elif not t <= y:
                    rejected.append((line, f"truncation {t:g} exceeds value {y:g}"))
                else:
                    rows.setdefault(group, []).append((y, t, int(delta)))
            elif not math.isfinite(claim) or claim <= 0:
                rejected.append((line, f"claim {claim!r} is not a positive amount"))
            elif claim <= scheme.deductible:
                rejected.append(
                    (line, f"claim {claim:g} at or below the deductible {scheme.deductible:g}")
                )
            else:
                delta = 1 if claim < scheme.limit else 0
                y = min(claim, scheme.limit)
                rows.setdefault(group, []).append((y, scheme.deductible, delta))
    if not rows:
        raise ClaimsFormatError(f"{path}: no observations")
    groups = {g: LtrcSample(*zip(*rs)) for g, rs in sorted(rows.items())}
    return ClaimsFile(groups=groups, n_rows=n_rows, rejected=tuple(rejected))


_RAW_SCHEME = WindowScheme.fixed(1500.0, 6000.0)


def _parse_outcome(parse, path, fmt):
    """What a parse gives: its groups, counts and rejections, or its error text."""
    try:
        out = parse(path, fmt, _RAW_SCHEME if fmt == "raw" else None)
    except (ClaimsFormatError, csv.Error) as exc:
        return (type(exc).__name__, str(exc))
    groups = {
        g: [(a.tolist(), a.dtype.str) for a in (s.y, s.t, s.delta)] for g, s in out.groups.items()
    }
    return (list(out.groups), groups, out.n_rows, out.rejected)


class TestParseClaimsMatchesDictReader:
    """``parse_claims`` on ``csv.reader`` rows gives what the ``DictReader`` parse gave."""

    CASES = {
        "blank first line": ("ltrc", "\ny,t,delta\n1,0,1\n"),
        "empty file": ("ltrc", ""),
        "only comments": ("raw", "# a\n# b\n"),
        "blank rows and comments": ("ltrc", "# head\ny,t,delta\n\n1,0,1\n# mid\n\n\n2,1,0\n\n"),
        "short row": ("ltrc", "y,t,delta,group\n1,0,1,a\n2,1\n"),
        "short row, group missing": ("ltrc", "y,t,delta,group\n1,0,1\n2,1,0,b\n"),
        "long rows": ("ltrc", "y,t,delta\n1,0,1,extra,more\n2,1,0,x\n"),
        "repeated names": ("ltrc", "y,t,delta,y\n1,0,1,3\n2,1,0,5\n"),
        "repeated name, short row": ("ltrc", "y,t,delta,y\n1,0,1,3\n2,1,0\n"),
        "stripped names": ("ltrc", " y , t,delta ,group\n1,0,1, g \n"),
        "quoted field over two lines": ("ltrc", 'y,t,delta,group\n1,0,1,"a\nb"\n2,3,1,a\n'),
        "quoted number over two lines": ("ltrc", 'y,t,delta\n1,0,1\n"2\n",1,x\n'),
        "group of spaces": ("raw", "claim,group\n2000,   \n3000,a\n"),
        "nan, inf and bad delta": (
            "ltrc",
            "y,t,delta\nnan,0,1\ninf,0,0\n1,nan,1\n1,2,1\n1,0,2\n1,0,nan\n-inf,0,1\n3,0,-0.0\n",
        ),
        "claim nan": ("raw", "claim\nnan\n-inf\n-5\n0\n1500\n2000\n6000\n7000\ninf\n"),
        "unparseable after rejection": ("raw", "claim\n100\nabc\n"),
        "no accepted row": ("raw", "claim\n100\n200\n"),
        "crlf": ("raw", "claim,group\r\n2000,a\r\n\r\n100,b\r\n"),
        # a field over csv's size limit fails in the reader, after the rows before it
        "oversized field": ("raw", "claim,group\n2000,a\n2000," + "g" * 200_000 + "\n"),
        "unparseable, then oversized": ("raw", "claim\nx\n" + "1" * 200_000 + "\n"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case(self, tmp_path, case):
        fmt, text = self.CASES[case]
        path = tmp_path / "claims.csv"
        path.write_bytes(text.encode("utf-8"))
        want = _parse_outcome(_dictreader_parse, path, fmt)
        assert _parse_outcome(parse_claims, path, fmt) == want

    def test_messages_format_python_floats(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("claim\nnan\n2000\n")
        out = parse_claims(path, "raw", _RAW_SCHEME)
        assert out.rejected == ((2, "claim nan is not a positive amount"),)
        path.write_text("y,t,delta\n1,2,1\n1,0,1\n")
        assert parse_claims(path, "ltrc").rejected == ((2, "truncation 2 exceeds value 1"),)

    def test_short_row_gives_the_none_field_error(self, tmp_path):
        path = tmp_path / "claims.csv"
        path.write_text("y,t,delta\n1,0,1\n\n2,1\n")
        with pytest.raises(ClaimsFormatError, match=r":4: unparseable row \(float\(\) argument"):
            parse_claims(path, "ltrc")

    def test_random_files(self, tmp_path):
        rng = np.random.default_rng(23)
        tokens = ["1", "2", "0", "1.5", "nan", "inf", "-1", "abc", "", " 3 ", "-0.0", "1600",
                  "7000", '"4"', '"1\n2"', "1e400"]
        path = tmp_path / "claims.csv"
        for _ in range(300):
            fmt = ("ltrc", "raw")[rng.integers(2)]
            names = ["y", "t", "delta", "group"] if fmt == "ltrc" else ["claim", "group"]
            header = list(rng.permutation(names))
            if rng.random() < 0.3:
                header.append(str(rng.choice(names + [" y", "x"])))
            lines = [",".join(header)]
            for _ in range(rng.integers(0, 10)):
                if rng.random() < 0.15:
                    lines.append(str(rng.choice(["", "# c"])))
                    continue
                width = len(header) + int(rng.choice([0, 0, 0, -1, 1]))
                lines.append(",".join(str(rng.choice(tokens)) for _ in range(width)))
            path.write_text("\n".join(lines) + "\n")
            assert _parse_outcome(parse_claims, path, fmt) == _parse_outcome(
                _dictreader_parse, path, fmt
            ), path.read_text()


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

    def test_labels_with_commas_and_quotes_round_trip(self, tmp_path):
        groups = {
            "a,b": LtrcSample([1.5, 2.0], [0.0, 0.5], [1, 0]),
            'say "hi"': LtrcSample([3.0], [1.0], [1]),
            "plain": LtrcSample([4.0], [-np.inf], [1]),
        }
        path = tmp_path / "out.csv"
        write_ltrc_csv(path, groups)
        lines = path.read_text().splitlines()
        # a label that needs no quoting is written bare, as before
        assert lines[0] == "y,t,delta,group" and "4,-inf,1,plain" in lines
        parsed = parse_claims(path, "ltrc")
        assert sorted(parsed.groups) == sorted(groups) and parsed.rejected == ()
        for name, sample in groups.items():
            got = parsed.groups[name]
            assert np.array_equal(got.y, sample.y)
            assert np.array_equal(got.t, sample.t)
            assert np.array_equal(got.delta, sample.delta)

    @pytest.mark.parametrize(
        "labels, refused",
        [
            ([" a ", "", "a", "all"], "'', ' a '"),
            (["a", " a"], "' a'"),
            (["b", "b\t"], "'b\\t'"),
            (["\n"], "'\\n'"),
        ],
    )
    def test_labels_that_would_not_read_back_are_refused(self, tmp_path, labels, refused):
        # the parser strips a label and reads an empty one as "all", so these
        # would merge with another group or be renamed without a report
        groups = {label: LtrcSample([1.0], [0.0], [1]) for label in labels}
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="would not read back") as err:
            write_ltrc_csv(path, groups)
        assert f"group labels {refused} would not" in str(err.value)
        assert not path.exists()


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
            (["--bootstrap", "4294967297"], "replicates must be at most 2**32"),
            (["--level", "1.5"], "argument --level: must be a number in (0, 1)"),
            (["--p1", "2"], "argument --p1: must be a number in (0, 1)"),
            (["--workers", "0"], "argument --workers: must be an integer of at least 1"),
            (["--seed", "-1"], "argument --seed: must be a nonnegative integer"),
            (["--family", "exp", "--x0", "-5"], "argument --x0: must be a positive finite number"),
            (["--family", "exp", "--x0", "inf"], "argument --x0: must be a positive finite number"),
            (["--deductible", "5", "--limit", "1"], "deductible must be below the policy limit"),
            (["--family", "bogus"], "argument --family: invalid choice: 'bogus'"),
            (["--family", "exp"], "--family requires --x0"),
            (["--x0", "1000"], "--x0 requires --family"),
            (["--p1", "0.3", "--estimators", "prod"], "--p1 applies only to the pm estimator"),
            (
                ["--family", "exp", "--x0", "1000"],
                "--family and --x0 apply only to the ml and pm estimators",
            ),
            (
                ["--family", "pareto", "--x0", "1000", "--estimators", "prod,emp,kernel"],
                "--family and --x0 apply only to the ml and pm estimators",
            ),
            (["--format", "raw"], "raw claims need --deductible/--limit"),
            (["--config", "model.cfg"], "unrecognized arguments: --config model.cfg"),
        ],
    )
    def test_invalid_estimate_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        # the input file does not exist: the flags are refused before it is read
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
                ["simulate", "--design", "dependent", "--mode", "fixed-thresholds"],
                "fixed-thresholds mode is undefined for the dependent design",
            ),
            (
                ["coverage", "--design", "dependent", "--mode", "fixed-thresholds"],
                "fixed-thresholds mode is undefined for the dependent design",
            ),
            (
                ["simulate", "--design", "iid-exp", "--estimators", "prod,bogus"],
                "unknown estimator 'bogus'; valid names: prod, emp, kernel, ml, pm",
            ),
            (["simulate", "--design", "dependent", "--rho", "2"], "|rho| must be below 1"),
            (
                ["simulate", "--design", "dependent", "--phi2", "0"],
                "phi1, phi2, phi3 must be strictly positive",
            ),
            (
                ["simulate", "--design", "dependent", "--phi1", "nan"],
                "phi1, phi2, phi3 must be strictly positive",
            ),
            (["simulate", "--design", "dependent", "--mu", "inf"], "mu must be finite"),
            (
                ["simulate", "--design", "dependent", "--pc", "0.4"],
                "phi parameters give censoring fraction 0.1001, not the target 0.4000",
            ),
            (
                ["simulate", "--design", "iid-exp", "--rho", "0.2"],
                "--rho, --phi1, --phi2, --phi3, --mu, --pc apply only to --design dependent, "
                "got --design iid-exp",
            ),
            (
                ["simulate", "--design", "dependent", "--rho", "abc"],
                "argument --rho: invalid float value: 'abc'",
            ),
            # nothing calibrates to a retention target: mu is --mu, or 0
            (
                ["simulate", "--design", "dependent", "--target-alpha", "0.5"],
                "unrecognized arguments: --target-alpha 0.5",
            ),
            (
                ["coverage", "--bootstrap", "49"],
                "--bootstrap must be at least 50 to build an interval, got 49",
            ),
            (
                ["simulate", "--design", "iid-exp", "--n", "1e300", "--k", "1", "--reps", "2"],
                "sample sizes must be at most 10000000",
            ),
            (["coverage", "--n", "10000001"], "sample sizes must be at most 10000000"),
            (["coverage", "--bootstrap", "4294967297"], "replicates must be at most 2**32"),
            # an empty list names no default: it is refused as estimate refuses it
            (
                ["simulate", "--design", "iid-exp", "--n", "10", "--k", "1", "--reps", "2",
                 "--estimators", ""],
                "unknown estimator ''; valid names: prod, emp, kernel, ml, pm",
            ),
        ],
    )
    def test_invalid_run_flag_is_usage_error(self, tmp_path, capsys, argv, message):
        # refused before any sample is drawn or any worker is started
        argv = [argv[0], "--n", "30", *argv[1:]]
        _assert_usage_error(capsys, argv, message, tmp_path / "x")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["estimate", "--k", "1,1"],
                "risk-aversion coefficients must not repeat, got 1.0,1.0",
            ),
            (["estimate", "--estimators", "prod,prod"], "estimators must not repeat, got prod,prod"),
            (["simulate", "--n", "20,20"], "sample sizes must not repeat, got 20,20"),
            (
                ["simulate", "--k", "1,20,1"],
                "risk-aversion coefficients must not repeat, got 1.0,20.0,1.0",
            ),
            (
                ["simulate", "--estimators", "prod,emp,prod"],
                "estimators must not repeat, got prod,emp,prod",
            ),
            (["coverage", "--n", "50,50"], "sample sizes must not repeat, got 50,50"),
            (["coverage", "--k", "1,1"], "risk-aversion coefficients must not repeat, got 1.0,1.0"),
        ],
    )
    def test_repeated_grid_entry_is_usage_error(self, tmp_path, capsys, argv, message):
        # a repeat would write duplicate rows or run a cell twice
        extra = {
            "estimate": ["--input", str(tmp_path / "missing.csv")],
            "simulate": ["--design", "iid-exp"],
            "coverage": [],
        }[argv[0]]
        _assert_usage_error(capsys, [argv[0], *extra, *argv[1:]], message, tmp_path / "x")

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

    @pytest.mark.parametrize(
        "flags, window",
        [
            (["--limit", "1000000"], (0.0, 1e6)),
            (["--deductible", "500000"], (5e5, math.inf)),
        ],
        ids=["limit-only", "deductible-only"],
    )
    def test_one_window_flag_builds_the_window(self, tmp_path, flags, window):
        # either window flag alone sets the window raw claims need; the other keeps its default
        argv = [
            "estimate", "--input", str(self._write_claims(tmp_path)), "--format", "raw",
            *flags, "--k", "1", "--bootstrap", "55", "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        config = json.loads((tmp_path / "out" / "estimates.json").read_text())["config"]
        assert (config["deductible"], config["limit"]) == window

    def test_estimate_column_line(self, tmp_path):
        # the group, then EstimateReport's fields in order: a reorder would move columns
        argv = [
            "estimate", "--input", str(self._write_claims(tmp_path)), "--format", "raw",
            "--deductible", "500000", "--k", "1", "--bootstrap", "55",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        text = (tmp_path / "out" / "estimates.csv").read_text()
        columns = [line for line in text.splitlines() if not line.startswith("#")][0]
        assert columns == (
            "group,estimator,k,n,point,std_error,ci_low,ci_high,ci_level,"
            "replicates_used,replicate_failures"
        )

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

    @pytest.mark.parametrize("command", ["estimate", "calibrate"])
    def test_workers_help_says_the_flag_is_ignored(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--workers WORKERS ignored: this command runs in one process" in text

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

    def test_dependent_simulate_header_keys(self, tmp_path):
        # the plan's keys, every DependentModelConfig field and the oracle's two
        argv = [
            "simulate", "--design", "dependent", "--n", "15", "--k", "1", "--reps", "2",
            "--out", str(tmp_path / "dep"),
        ]
        assert main(argv) == 0
        header = (tmp_path / "dep" / "results.csv").read_text().splitlines()
        keys = [line[2:].split("=", 1)[0] for line in header[1:] if line.startswith("# ")]
        assert keys == [
            "command", "design", "estimators", "k_grid", "master_seed", "mode", "mu",
            "n_grid", "oracle_draws", "package_version", "phi1", "phi2", "phi3",
            "replicates", "rho", "rmse_target", "target_censoring_pc",
            "target_truncation_rate",
        ]
        config = json.loads((tmp_path / "dep" / "results.json").read_text())["config"]
        assert sorted(config) == keys

    @pytest.mark.parametrize(
        "flags, cfg",
        [
            (
                ["--rho", "0.2", "--phi1", "0.3", "--phi2", "1.087", "--phi3", "0.3",
                 "--mu", "0.5", "--pc", "0.1"],
                DependentModelConfig(
                    rho=0.2, phi1=0.3, phi2=1.087, phi3=0.3, mu=0.5, target_censoring_pc=0.1
                ),
            ),
            # a flag without --mu runs at mu = 0: simulate does not calibrate
            (["--rho", "0.2"], DependentModelConfig(rho=0.2)),
        ],
        ids=["all-six", "rho-only"],
    )
    def test_dependent_simulate_flags_set_the_design(self, tmp_path, flags, cfg):
        argv = [
            "simulate", "--design", "dependent", "--n", "20", "--k", "1,20", "--reps", "4",
            *flags, "--out", str(tmp_path / "dep"),
        ]
        assert main(argv) == 0
        plan = ExperimentPlan(design="dependent", n_grid=(20,), k_grid=(1.0, 20.0), replicates=4)
        expected = run_dependent_experiment(plan, cfg)
        records = json.loads((tmp_path / "dep" / "results.json").read_text())["results"]
        assert records == [dataclasses.asdict(cell) for cell in expected.cells]
        header = (tmp_path / "dep" / "results.csv").read_text().splitlines()
        for field, value in dataclasses.asdict(cfg).items():
            assert f"# {field}={value}" in header

    def test_coverage_command(self, tmp_path):
        # only prod intervals are built, and --reps of them per cell
        code = main(
            [
                "coverage", "--design", "iid-exp", "--n", "20", "--k", "1",
                "--reps", "1", "--bootstrap", "55", "--seed", "4",
                "--out", str(tmp_path / "cov"),
            ]
        )
        assert code == 0
        header = (tmp_path / "cov" / "coverage.csv").read_text().splitlines()
        assert "# estimators=['prod']" in header and "# intervals=1" in header
        assert not any(line.startswith("# replicates=") for line in header)
        config = json.loads((tmp_path / "cov" / "coverage.json").read_text())["config"]
        assert (config["estimators"], config["intervals"]) == ("['prod']", 1)
        assert "replicates" not in config

    def test_calibrate_command(self, tmp_path):
        code = main(["calibrate", "--target-alpha", "0.3", "--out", str(tmp_path / "cal")])
        assert code == 0
        payload = json.loads((tmp_path / "cal" / "calibration.json").read_text())
        assert 0.3 < payload["results"]["mu"] < 1.0

    def test_calibrate_output_is_pinned(self, tmp_path):
        # the default calibration's file, byte for byte: its bisection runs on
        # 200 000 draws of the AR(1) chain, and its censoring fraction is ndtr's
        assert main(["calibrate", "--out", str(tmp_path / "cal")]) == 0
        assert (tmp_path / "cal" / "calibration.json").read_text() == (
            '{\n  "config": {\n    "command": "calibrate"\n  },\n  "results": {\n'
            '    "analytic_censoring_fraction": 0.10008949481827883,\n'
            '    "calibration_seed": 727001,\n    "mu": 0.6640625,\n    "phi1": 0.3,\n'
            '    "phi2": 1.087,\n    "phi3": 0.3,\n    "rho": 0.1,\n'
            '    "target_censoring_pc": 0.1,\n    "target_truncation_rate": 0.3,\n'
            '    "tolerance": 0.005\n  },\n  "specrisk_version": "0.1.0"\n}\n'
        )

    def test_calibrate_result_keys(self, tmp_path):
        # every DependentModelConfig field, then the bisection's own values
        assert main(["calibrate", "--out", str(tmp_path / "cal")]) == 0
        payload = json.loads((tmp_path / "cal" / "calibration.json").read_text())
        assert payload["config"] == {"command": "calibrate"}
        assert list(payload["results"]) == [
            "analytic_censoring_fraction", "calibration_seed", "mu", "phi1", "phi2", "phi3",
            "rho", "target_censoring_pc", "target_truncation_rate", "tolerance",
        ]

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

    def test_environment_does_not_set_defaults(self, tmp_path, monkeypatch):
        # every input is a flag: a variable named like a flag changes nothing
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
        assert payload["config"]["seed"] == 20250101

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
