import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rescan_bins

from lotkafit import (
    Denominator,
    FrequencyDistribution,
    PercentSeries,
    PlotKind,
    PlotSpec,
    emit_plot,
    fit_historical,
    ols_loglog,
    read_distribution,
    to_percent_series,
    write_distribution,
)
from lotkafit import cli, svgplot
from lotkafit.cli import run
from lotkafit.freqdata import MAX_LEVEL


@pytest.fixture
def ca_file(tmp_path, ca_dist):
    path = tmp_path / "ca.csv"
    write_distribution(ca_dist, path)
    return str(path)


@pytest.mark.parametrize("module", ["lotkafit", "lotkafit.cli"])
def test_python_m_runs_the_cli(module):
    # Both module forms reach the parser: fit mle without --dist is a usage error.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", module, "fit", "mle"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "the following arguments are required: --dist" in done.stderr


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_USAGE_ERRORS = [
    (["ingest"], "lotkafit ingest: error: the following arguments are required: --records, --out"),
    (["fit", "loglog", "--dist", "d.csv", "--nope"], "lotkafit: error: unrecognized arguments: --nope"),
    (["simulate", "--alpha", "x"], "lotkafit simulate: error: argument --alpha: invalid float value: 'x'"),
    ([], "lotkafit: error: the following arguments are required: command"),
]


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0

    def test_unknown_flag_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["fit", "loglog", "--nope"])
        assert code == 2

    @pytest.mark.parametrize("argv, err", _USAGE_ERRORS)
    def test_usage_error_is_one_line(self, capsys, argv, err):
        # argparse's own error() prints the usage line above the error.
        code, out, stderr = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert stderr == err + "\n"

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["fit", "loglog", "--dist", "/nonexistent.csv"])
        assert code == 2
        assert "/nonexistent.csv" in err

    def test_malformed_file_exits_two_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("level,count\n1,2\nx,y\n")
        code, _, err = run_cli(capsys, ["fit", "loglog", "--dist", str(bad)])
        assert code == 2
        assert "line 3" in err

    def test_degenerate_fit_exits_three(self, capsys, tmp_path):
        small = tmp_path / "small.csv"
        small.write_text("level,count\n1,10\n2,5\n")
        code, _, err = run_cli(capsys, ["fit", "loglog", "--dist", str(small)])
        assert code == 3
        assert "3 points" in err

    def test_cutoff_beyond_max_exits_two(self, capsys, ca_file):
        code, _, err = run_cli(
            capsys, ["report", "truncation", "--dist", ca_file, "--cutoff", "400"]
        )
        assert code == 2
        assert "exceeds max level" in err

    def test_level_above_two_to_the_62_exits_two(self, capsys, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text("level,count\n1,5\n2,3\n100000000000000000000000,1\n")
        code, out, err = run_cli(capsys, ["fit", "mle", "--dist", str(huge)])
        assert code == 2
        assert out == ""
        assert "2^62" in err and "huge.csv" in err
        assert len(err.strip().splitlines()) == 1

    def test_count_above_two_to_the_62_exits_two(self, capsys, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text("level,count\n1,100000000000000000000000\n2,3\n")
        code, out, err = run_cli(capsys, ["fit", "mle", "--dist", str(huge)])
        assert code == 2
        assert out == ""
        assert "2^62" in err and "huge.csv" in err
        assert len(err.strip().splitlines()) == 1

    def test_sample_beyond_level_bound_exits_two(self, capsys, tmp_path):
        # At alpha 1.2 about one draw in 1e4 would land beyond 2^62.
        out_file = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys,
            ["simulate", "--alpha", "1.2", "--authors", "20000", "--seed", "3", "--out", str(out_file)],
        )
        assert code == 2
        assert "2^62" in err
        assert len(err.strip().splitlines()) == 1
        assert not out_file.exists()

    def test_unrefittable_bootstrap_exits_three(self, capsys, tmp_path):
        # Three authors on three levels: a replicate draws three authors and
        # needs three distinct levels to reselect xmin, which fails often
        # enough that some replicate exhausts its ten attempts.
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("level,count\n1,1\n2,1\n3,1\n")
        code, out, err = run_cli(
            capsys, ["fit", "mle", "--dist", str(tiny), "--bootstrap", "100", "--seed", "1"]
        )
        assert code == 3
        assert out == ""
        assert "could not be refit after 10 attempts" in err
        assert len(err.strip().splitlines()) == 1

    def test_bootstrap_beyond_level_bound_exits_three(self, capsys, tmp_path):
        # A valid sample at alpha 1.25 fits near 1.254; replicates drawn
        # from that fit reach beyond 2^62, a limit of the bootstrap, not a
        # fault of the input.
        dist = tmp_path / "a125.csv"
        code, _, _ = run_cli(
            capsys,
            ["simulate", "--alpha", "1.25", "--authors", "3000", "--seed", "1", "--out", str(dist)],
        )
        assert code == 0
        code, out, err = run_cli(
            capsys,
            ["fit", "mle", "--dist", str(dist), "--xmin", "1", "--bootstrap", "100", "--seed", "1"],
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: fitted alpha 1.254") and "cannot be bootstrapped" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("alpha", ["inf", "1e308"])
    @pytest.mark.parametrize("command", ["simulate", "bias"])
    def test_non_finite_normalizer_exits_two(self, capsys, tmp_path, command, alpha):
        out_file = tmp_path / "x.csv"
        argv = {
            "simulate": ["simulate", "--authors", "10", "--seed", "1", "--out", str(out_file)],
            "bias": ["bias", "--authors", "10", "--cutoffs", "30", "--replicates", "10",
                     "--seed", "1"],
        }[command]
        code, out, err = run_cli(capsys, argv + ["--alpha", alpha])
        assert code == 2
        assert out == ""
        assert err == f"error: alpha must lie in [1.01, 10], got {float(alpha)!r}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--alpha", "12", "--authors", "10", "--seed", "1"],
            ["bias", "--alpha", "1.005", "--authors", "10", "--cutoffs", "30",
             "--replicates", "10", "--seed", "1"],
        ],
    )
    def test_alpha_outside_domain_exits_two(self, capsys, tmp_path, argv):
        out_file = tmp_path / "x.csv"
        if argv[0] == "simulate":
            argv = argv + ["--out", str(out_file)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: alpha must lie in [1.01, 10], got {float(argv[2])!r}\n"
        assert not out_file.exists()

    def test_sampler_message_prints_alpha_in_full(self, capsys, tmp_path):
        out_file = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys,
            ["simulate", "--alpha", "1.0100001", "--authors", "10", "--seed", "1",
             "--out", str(out_file)],
        )
        assert code == 2
        assert "beyond 2^62 (alpha 1.0100001, xmin 1)" in err
        assert len(err.splitlines()) == 1

    def test_repeated_cutoff_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["bias", "--alpha", "2", "--authors", "100", "--cutoffs", "30,5,30",
             "--replicates", "10", "--seed", "1"],
        )
        assert code == 2
        assert out == ""
        assert err == "error: cutoffs must be distinct, got [30, 5, 30]\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--alpha", "2", "--seed", "1", "--authors", "HUGE"],
             "count must lie in [1, 2^62]"),
            (["bias", "--alpha", "2", "--cutoffs", "30", "--replicates", "10", "--seed", "1",
              "--authors", "HUGE"], "authors must lie in [1, 2^62]"),
            (["bias", "--alpha", "2", "--authors", "10", "--cutoffs", "30", "--seed", "1",
              "--replicates", "HUGE"], "replicates must lie in [10, 2^62]"),
            (["fit", "mle", "--seed", "1", "--bootstrap", "HUGE"], "n_boot must lie in [100, 2^62]"),
        ],
    )
    def test_count_beyond_two_to_the_62_exits_two(self, capsys, ca_file, tmp_path, argv, message):
        # Only counts above 2^62, which are refused before any allocation:
        # numpy cannot size an array, nor the runner's int64 map hold, such a count.
        huge = "100000000000000000000000"
        argv = [huge if token == "HUGE" else token for token in argv]
        out_file = tmp_path / "x.csv"
        if argv[0] == "simulate":
            argv += ["--out", str(out_file)]
        if argv[0] == "fit":
            argv += ["--dist", ca_file]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}, got {huge}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("xmin", [347, MAX_LEVEL])
    def test_xmin_beyond_every_level_exits_three(self, capsys, ca_file, xmin):
        # The data's top level is 346, so the tail is empty: a degenerate fit.
        code, out, err = run_cli(capsys, ["fit", "mle", "--dist", ca_file, "--xmin", str(xmin)])
        assert code == 3
        assert out == ""
        assert err == f"error: degenerate tail: need >= 2 distinct populated levels >= xmin {xmin}\n"

    @pytest.mark.parametrize("xmin", [MAX_LEVEL + 1, 2**63, 2**80, 10**400])
    def test_xmin_beyond_the_level_range_exits_two(self, capsys, ca_file, xmin):
        # A flag outside the range of a level, as PowerLawModel words it.
        code, out, err = run_cli(capsys, ["fit", "mle", "--dist", ca_file, "--xmin", str(xmin)])
        assert code == 2
        assert out == ""
        assert err == f"error: xmin must be <= 2^62, got {xmin}\n"

    def test_deeply_nested_fit_report_exits_two(self, capsys, ca_file, tmp_path):
        # Nesting deeper than the JSON decoder's stack is bad input, not a crash.
        fit_file = tmp_path / "deep.json"
        fit_file.write_text("[" * 100_000 + "]" * 100_000)
        svg = tmp_path / "l.svg"
        code, out, err = run_cli(
            capsys, ["plot", "loglog", "--dist", ca_file, "--fit", str(fit_file), "--out", str(svg)]
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {fit_file}: not valid JSON (maximum recursion depth")
        assert len(err.splitlines()) == 1
        assert not svg.exists()


    @pytest.mark.parametrize("flag", ["--dist", "--records", "--fit"])
    def test_non_utf8_file_exits_two(self, capsys, ca_file, tmp_path, flag):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"level,count\n1,\xff\n")
        argv = {
            "--dist": ["fit", "loglog", "--dist", str(bad)],
            "--records": ["ingest", "--records", str(bad), "--out", str(tmp_path / "out.csv")],
            "--fit": ["plot", "loglog", "--dist", ca_file, "--fit", str(bad),
                      "--out", str(tmp_path / "l.svg")],
        }[flag]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: not ") and "invalid start byte" in err
        assert len(err.splitlines()) == 1

    def test_csv_field_over_limit_exits_two(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text('paper_id,position,author\nP1,1,"' + "x" * 200_000 + '"\n')
        code, out, err = run_cli(
            capsys, ["ingest", "--records", str(records), "--out", str(tmp_path / "out.csv")]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {records}: line 2: field larger than field limit (131072)\n"

    def test_out_in_missing_directory_exits_two(self, capsys, ca_file, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("paper_id,position,author\nP1,1,A\n")
        missing = tmp_path / "missing"
        for argv in (
            ["ingest", "--records", str(records), "--out", str(missing / "d.csv")],
            ["simulate", "--alpha", "2", "--authors", "10", "--seed", "1", "--out", str(missing / "s.csv")],
            ["plot", "histogram", "--dist", ca_file, "--out", str(missing / "h.svg")],
            ["plot", "loglog", "--dist", ca_file, "--out", str(missing / "l.svg")],
        ):
            code, out, err = run_cli(capsys, argv)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {missing}/") and err.endswith(": No such file or directory\n")
            assert len(err.splitlines()) == 1

    def test_too_many_histogram_bins_exits_two(self, capsys, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("level,count\n1,5\n4611686018427387904,1\n")
        code, out, err = run_cli(
            capsys, ["plot", "histogram", "--dist", str(wide), "--out", str(tmp_path / "h.svg")]
        )
        assert code == 2
        assert out == ""
        assert "2^20" in err and "smallest width that fits is 4398046511104" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "h.svg").exists()

    def test_loglog_denominator_beyond_bound_exits_two(self, capsys, ca_file):
        code, out, err = run_cli(
            capsys, ["fit", "loglog", "--dist", ca_file, "--denominator", "1" + "0" * 400]
        )
        assert code == 2
        assert out == ""
        assert "denominator must be <= 2^62" in err
        assert len(err.splitlines()) == 1


_RECORD_LINES = st.sampled_from(
    ["paper_id,position,author", "P1,1,A", "P1,2,B", "P2,1,A", "P2,01,C", 'P3,1,"Smith, J."',
     "P1,1,B", "P4,2,A", "P5,0,A", "P5,-1,A", "P5,99999999999999999999,A", "P6,\u0661,A",
     ",1,A", "P7,1,", "P8,1", "", "  ", 'P9,1,"open', "P9,1,a\rb",
     # Lines whose route, bulk or csv.reader, turns on one byte: doubled and
     # stray quotes, a CRLF, a NUL, Unicode and \x1c spaces at a field's
     # edge, a quoted position and one of 26 digits.
     'P10,1,"O""Brien"', 'P11,1,ab"c', 'P12,1,"a"b', "P13,1,A\r", "P14,1,N\x00ul",
     "P15,1,\u00a0A", "\u3000P16,1,A", "P17,1,\x1cA", 'P18,"1",A', "P19," + "0" * 25 + "1,A"]
)
_RECORD_BYTES = st.one_of(
    st.binary(max_size=80),
    st.lists(_RECORD_LINES, max_size=8).map(lambda lines: "\n".join(lines).encode()),
    st.tuples(st.lists(_RECORD_LINES, max_size=6), st.binary(max_size=8)).map(
        lambda parts: b"paper_id,position,author\n" + "\n".join(parts[0]).encode() + parts[1]
    ),
)


_LEVELS = st.one_of(st.integers(1, 40), st.integers(1, MAX_LEVEL))
_COUNTS = st.one_of(st.integers(0, 3), st.integers(0, 10**4), st.integers(0, MAX_LEVEL))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestFitFuzz:
    @given(st.dictionaries(_LEVELS, _COUNTS, min_size=1, max_size=8), _LEVELS)
    @settings(max_examples=150, deadline=None)
    def test_fits_exit_zero_two_or_three_with_json_or_one_line(self, counts, cutoff):
        # Generated level,count files, with zero counts, single levels and
        # values up to 2^62, through every command that fits them.
        with tempfile.TemporaryDirectory() as tmp:
            dist = Path(tmp) / "d.csv"
            dist.write_text(
                "level,count\n" + "".join(f"{level},{n}\n" for level, n in counts.items()),
                encoding="utf-8",
            )
            for argv in (
                ["fit", "mle", "--dist", str(dist), "--xmin", "auto"],
                ["fit", "mle", "--dist", str(dist), "--xmin", "2"],
                ["compare", "--dist", str(dist), "--truncate", str(cutoff), "--json"],
                ["fit", "loglog", "--dist", str(dist)],
            ):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = run(argv)
                assert code in (0, 2, 3), argv
                if out.getvalue():
                    json.loads(out.getvalue(), parse_constant=_reject_constant)
                assert len(err.getvalue().splitlines()) <= 1, argv


# Exponents at the edges of what the sampler can do: outside the domain
# [1.01, 10] on either side by a hair or by far (1.0099999, 10.000001,
# inf, 1e308, 1.0000001, 1, below 1, nan, 50), its two ends, draws beyond
# 2^62 (1.0100001, 1.2), and draws that all land on level 1 (10).
_ALPHAS = st.one_of(
    st.sampled_from([math.inf, 1e308, 1.0000001, 1.2, 1.0, 0.5, math.nan, 50.0,
                     1.0099999, 1.01, 1.0100001, 10.0, 10.000001]),
    st.floats(1.01, 6.0),
    st.floats(1.5, 3.0),
)
_AUTHORS = st.one_of(st.integers(-1, 30), st.integers(1, 5000))


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestSamplerFuzz:
    # --authors stays at 5,000 or fewer and --replicates at 10 to 20, so that
    # every example runs in well under a second.
    @given(_ALPHAS, _AUTHORS, st.integers(-1, 1000))
    @settings(max_examples=60, deadline=None)
    def test_simulate_exits_zero_two_or_three_with_finite_output(self, alpha, authors, seed):
        with tempfile.TemporaryDirectory() as tmp:
            out_file = Path(tmp) / "sim.csv"
            argv = ["simulate", "--alpha", repr(alpha), "--authors", str(authors),
                    "--seed", str(seed), "--out", str(out_file)]
            code, out, err = _run_captured(argv)
            assert code in (0, 2, 3), argv
            assert out == ""
            assert len(err.splitlines()) <= 1, argv
            if out_file.exists():
                text = out_file.read_text().lower()
                assert "nan" not in text and "inf" not in text, argv

    @given(
        _ALPHAS,
        _AUTHORS,
        st.lists(st.integers(0, 10**6), min_size=1, max_size=2),
        st.integers(10, 20),
        st.integers(-1, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_bias_exits_zero_two_or_three_with_finite_rows(
        self, alpha, authors, cutoffs, replicates, seed
    ):
        argv = ["bias", "--alpha", repr(alpha), "--authors", str(authors),
                "--cutoffs", ",".join(map(str, cutoffs)), "--replicates", str(replicates),
                "--seed", str(seed)]
        code, out, err = _run_captured(argv)
        assert code in (0, 2, 3), argv
        assert len(err.splitlines()) <= 1, argv
        if code != 0:
            assert out == ""
            return
        lines = out.splitlines()
        assert lines[0] == "cutoff,mean_hist_err,sd_hist_err,mean_mle_err,sd_mle_err"
        assert len(lines) == 1 + len(cutoffs)
        for line in lines[1:]:
            _, mean_hist, sd_hist, mean_mle, sd_mle = line.split(",")
            assert math.isfinite(float(mean_hist)) and math.isfinite(float(mean_mle)), argv
            # A standard deviation over a single kept replicate is undefined: nan.
            assert all(sd == "nan" or math.isfinite(float(sd)) for sd in (sd_hist, sd_mle)), argv


_NON_FINITE_WORD = re.compile(r"\b(nan|-?inf(inity)?)\b", re.IGNORECASE)


def _assert_contract(code, out, err, out_dir, argv, emits_json=False):
    """Exit 0, 2 or 3; strict JSON on stdout when it is emitted, else nothing
    on failure; at most one stderr line; no nan or inf in any written file."""
    assert code in (0, 2, 3), argv
    assert len(err.splitlines()) <= 1, argv
    if code != 0:
        assert out == "", argv
    elif emits_json:
        json.loads(out, parse_constant=_reject_constant)
    for path in Path(out_dir).iterdir():
        assert not _NON_FINITE_WORD.search(path.read_text(encoding="utf-8")), (argv, path.name)


def _write_counts(path, counts):
    path.write_text(
        "level,count\n" + "".join(f"{level},{n}\n" for level, n in counts.items()),
        encoding="utf-8",
    )


_FIT_KEYS = ("slope", "intercept", "exponent", "r_squared", "f_stat", "dof", "n_points",
             "denominator", "cutoff")
_MISSING = object()
# Field values a hostile or broken fit report may hold: missing, null,
# strings, huge and non-finite numbers (json writes NaN and Infinity
# literals), and containers.
_FIT_VALUES = st.one_of(
    st.just(_MISSING),
    st.none(),
    st.sampled_from(["", "x", "nan", "-inf", "1e5", " 2 ", True, [], {}, [1.0], {"a": 1}]),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
)
_NON_OBJECT_REPORT = st.sampled_from(
    ["[]", "[1, 2]", "5", "-1e999", '"slope"', "null", "true", "NaN", "", "{", "{}"]
)


class TestPlotAndReportFuzz:
    # Generated distributions hold at most 8 levels, so every histogram
    # is at most 2^20 bins and every example runs in milliseconds.
    @given(
        st.dictionaries(_LEVELS, _COUNTS, min_size=1, max_size=8),
        st.dictionaries(st.sampled_from(_FIT_KEYS), _FIT_VALUES, max_size=4),
        st.one_of(st.none(), _NON_OBJECT_REPORT),
    )
    @settings(max_examples=120, deadline=None)
    def test_plot_loglog_with_generated_fit_reports(self, counts, overrides, raw):
        with tempfile.TemporaryDirectory() as tmp:
            dist, fit_file = Path(tmp) / "d.csv", Path(tmp) / "fit.json"
            _write_counts(dist, counts)
            report = {"slope": -2.0, "intercept": 1.8, "exponent": 2.0, "r_squared": 0.99,
                      "f_stat": 400.0, "dof": 3, "n_points": 5, "denominator": 100, "cutoff": 30}
            for key, value in overrides.items():
                if value is _MISSING:
                    report.pop(key, None)
                else:
                    report[key] = value
            fit_file.write_text(raw if raw is not None else json.dumps(report), encoding="utf-8")
            out_dir = Path(tmp) / "out"
            out_dir.mkdir()
            argv = ["plot", "loglog", "--dist", str(dist), "--fit", str(fit_file),
                    "--out", str(out_dir / "l.svg")]
            _assert_contract(*_run_captured(argv), out_dir, argv)

    @given(
        st.dictionaries(_LEVELS, _COUNTS, min_size=1, max_size=8),
        st.one_of(st.integers(-3, 50), st.integers(1, 2**80)),
    )
    @settings(max_examples=100, deadline=None)
    def test_plot_histogram_with_generated_widths(self, counts, width):
        with tempfile.TemporaryDirectory() as tmp:
            dist = Path(tmp) / "d.csv"
            _write_counts(dist, counts)
            out_dir = Path(tmp) / "out"
            out_dir.mkdir()
            argv = ["plot", "histogram", "--dist", str(dist), "--bin-width", str(width),
                    "--out", str(out_dir / "h.svg")]
            _assert_contract(*_run_captured(argv), out_dir, argv)

    @given(
        st.dictionaries(_LEVELS, _COUNTS, min_size=1, max_size=8),
        st.one_of(st.integers(-3, 50), _LEVELS, st.integers(1, 2**80)),
    )
    @settings(max_examples=150, deadline=None)
    def test_report_truncation_with_generated_cutoffs(self, counts, cutoff):
        with tempfile.TemporaryDirectory() as tmp:
            dist = Path(tmp) / "d.csv"
            _write_counts(dist, counts)
            argv = ["report", "truncation", "--dist", str(dist), "--cutoff", str(cutoff)]
            code, out, err = _run_captured(argv)
            _assert_contract(code, out, err, tmp, argv)
            assert not _NON_FINITE_WORD.search(out), argv
            if code == 0:
                assert out.startswith(f"truncation at cutoff {cutoff} (max level "), argv


_COMMANDS = [["ingest"], ["fit", "loglog"], ["fit", "mle"], ["report", "truncation"],
             ["simulate"], ["compare"], ["bias"], ["plot", "histogram"], ["plot", "loglog"]]
_NUMBERS = ["-1", "0", "1", "2", "3", "30", "346", str(2**62), str(2**62 + 1), str(2**80),
            "1.5", "nan", "inf", "-inf", "x", ""]
# Every flag of the CLI with the values it may be given. --authors stays at
# 5,000 or fewer, --replicates at 10 to 20 and --bootstrap at 100 to 120,
# so that no example allocates or loops for long; counts above 2^62 are
# also drawn, and are refused before anything runs.
_FLAG_VALUES = {
    "--alpha": st.sampled_from(["2", "1.01", "10", "1.5", "3", "1.0", "12", "nan", "inf", "x"]),
    "--authors": st.one_of(st.integers(-1, 5000).map(str), st.just(str(2**80))),
    "--replicates": st.one_of(st.integers(10, 20).map(str), st.sampled_from(["9", str(2**80)])),
    "--bootstrap": st.one_of(st.integers(100, 120).map(str), st.sampled_from(["99", str(2**80)])),
    "--seed": st.sampled_from(_NUMBERS),
    "--truncate": st.sampled_from(_NUMBERS),
    "--cutoff": st.sampled_from(_NUMBERS),
    "--cutoffs": st.sampled_from(["30", "30,1000000", "1,2", "30,30", "0", "x", ",", str(2**80)]),
    "--xmin": st.sampled_from(["auto", "1", "2", "30", "0", str(2**80), "x"]),
    "--denominator": st.sampled_from(["full", "truncated", "100", "0", str(2**80), "x"]),
    "--bin-width": st.sampled_from(_NUMBERS),
    "--dist": st.sampled_from(["DIST", "RECORDS", "FIT", "MISSING"]),
    "--records": st.sampled_from(["DIST", "RECORDS", "FIT", "MISSING"]),
    "--fit": st.sampled_from(["DIST", "RECORDS", "FIT", "MISSING"]),
    "--out": st.sampled_from(["OUT/a.csv", "OUT/b.svg", "OUT/missing/c.csv"]),
}
_BARE = ["--json", "histogram", "loglog", "mle", "truncation", "fit", "x", "1"]


@st.composite
def _cli_argv(draw):
    argv = list(draw(st.sampled_from(_COMMANDS)))
    flags = draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=7))
    for flag in flags:
        argv += [flag, draw(_FLAG_VALUES[flag])]
    for bare in draw(st.lists(st.sampled_from(_BARE), max_size=2)):
        argv.insert(draw(st.integers(1, len(argv))), bare)
    return argv


def _resolved_argv(argv, tmp):
    """argv with its file tokens made paths under tmp, where DIST, RECORDS
    and FIT are written and OUT is an empty directory."""
    (tmp / "OUT").mkdir()
    _write_counts(tmp / "DIST", {1: 60, 2: 15, 3: 7, 4: 4, 6: 2, 9: 1, 30: 1})
    (tmp / "RECORDS").write_text("paper_id,position,author\nP1,1,A\nP1,2,B\nP2,1,A\n")
    (tmp / "FIT").write_text(json.dumps(
        {"slope": -2.0, "intercept": 1.8, "exponent": 2.0, "r_squared": 0.99,
         "f_stat": None, "dof": 3, "n_points": 5, "denominator": 89, "cutoff": None}
    ))
    names = {"DIST", "RECORDS", "FIT", "MISSING"}
    return [str(tmp / token) if token in names or token.startswith("OUT/") else token for token in argv]


class TestRandomArgvFuzz:
    @given(_cli_argv())
    @settings(max_examples=200, deadline=None)
    def test_random_argv_exits_zero_two_or_three(self, argv):
        # A bare token can only land between flag/value pairs, so every
        # count flag keeps the bounded value drawn for it.
        with tempfile.TemporaryDirectory() as tmp:
            resolved = _resolved_argv(argv, Path(tmp))
            emits_json = argv[0] == "fit" or (argv[0] == "compare" and "--json" in argv)
            _assert_contract(*_run_captured(resolved), Path(tmp) / "OUT", argv, emits_json)


def _full_parser_run(argv):
    """_run_captured(argv), with run given the parser of every subcommand."""
    full = cli._parser
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parser", lambda commands: full(cli._COMMANDS))
        return _run_captured(argv)


class TestNamedCommandParser:
    """run builds only the named subcommand's parsers, and reads argv exactly as build_parser() does."""

    @pytest.mark.parametrize(
        "argv",
        [[*command, "--help"] for command in [[], ["fit"], ["report"], *_COMMANDS]]
        + [argv for argv, _ in _USAGE_ERRORS]
        + [["bogus"], ["-h", "compare"], ["fit", "bogus"], ["compare", "--truncate", "3"]],
    )
    def test_same_as_full_parser(self, argv):
        assert _run_captured(argv) == _full_parser_run(argv)

    def test_unknown_command_lists_every_choice(self):
        code, out, err = _run_captured(["bogus"])
        assert (code, out) == (2, "")
        assert err == (
            "lotkafit: error: argument command: invalid choice: 'bogus' (choose from "
            "'ingest', 'fit', 'report', 'simulate', 'compare', 'bias', 'plot')\n"
        )

    @given(_cli_argv())
    @settings(max_examples=60, deadline=None)
    def test_random_argv_same_as_full_parser(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            resolved = _resolved_argv(argv, Path(tmp))
            assert _run_captured(resolved) == _full_parser_run(resolved), argv

    @pytest.mark.parametrize(
        "argv, parsers",
        [(["compare", "--truncate", "30"], 2), (["fit", "mle"], 4), (["--help"], 11)],
    )
    def test_parsers_built(self, monkeypatch, ca_file, argv, parsers):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        if argv[0] != "--help":
            argv = [*argv, "--dist", ca_file]
        assert _run_captured(argv)[0] == 0
        assert len(built) == parsers


class TestIngest:
    def test_ingest_does_not_import_numpy_ma(self, tmp_path):
        # numpy.ma takes about 12 ms to import, and nothing ingest, compare
        # or fit loglog does needs it, the bulk read of level,count files included.
        records = tmp_path / "records.csv"
        records.write_text("paper_id,position,author\nP1,1,A\nP1,2,B\nP2,1,A\n")
        dist = tmp_path / "dist.csv"
        _write_counts(dist, {1: 60, 2: 15, 3: 7, 4: 4, 6: 2, 9: 1, 30: 1})
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = (
            "import json, sys; from lotkafit.cli import run; "
            "codes = [run(argv) for argv in json.loads(sys.argv[1])]; "
            "print(codes, 'numpy.ma' in sys.modules)"
        )
        argvs = [
            ["ingest", "--records", str(records), "--out", str(tmp_path / "d.csv")],
            ["compare", "--dist", str(dist), "--truncate", "30", "--json"],
            ["fit", "loglog", "--dist", str(dist)],
        ]
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.stdout.splitlines()[-1] == "[0, 0, 0] False"

    @given(_RECORD_BYTES)
    @settings(max_examples=300, deadline=None)
    def test_any_file_exits_zero_or_two_with_one_line(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            records = Path(tmp) / "records.csv"
            records.write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(["ingest", "--records", str(records), "--out", str(Path(tmp) / "d.csv")])
        assert code in (0, 2)
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) <= 1

    def test_round_trip(self, capsys, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text(
            "paper_id,position,author\nP1,1,A\nP1,2,B\nP2,1,A\nP3,1,C\n"
        )
        out = tmp_path / "dist.csv"
        code, _, err = run_cli(
            capsys, ["ingest", "--records", str(records), "--out", str(out)]
        )
        assert code == 0
        assert read_distribution(out).as_dict() == {1: 1, 2: 1}
        assert "3 papers" in err

    @pytest.mark.parametrize("out", ["records.csv", "link.csv", "sub/../records.csv"])
    def test_ingest_refuses_to_overwrite_records(self, capsys, tmp_path, out):
        records = tmp_path / "records.csv"
        text = "paper_id,position,author\nP1,1,A\n"
        records.write_text(text)
        (tmp_path / "link.csv").symlink_to(records)
        (tmp_path / "sub").mkdir()
        before = sorted(tmp_path.iterdir())
        code, stdout, err = run_cli(capsys, ["ingest", "--records", str(records), "--out", str(tmp_path / out)])
        assert code == 2
        assert stdout == ""
        assert err == f"error: {tmp_path / out} is the --records file; ingest would overwrite its input\n"
        assert sorted(tmp_path.iterdir()) == before and records.read_text() == text


class TestFitLoglog:
    def test_json_fit_result(self, capsys, ca_file, ca_dist):
        code, out, _ = run_cli(
            capsys,
            ["fit", "loglog", "--dist", ca_file, "--truncate", "30", "--denominator", "full"],
        )
        assert code == 0
        payload = json.loads(out)
        expected = fit_historical(ca_dist, 30, Denominator.FULL)
        assert payload["slope"] == expected.slope
        assert payload["exponent"] == expected.exponent
        assert payload["cutoff"] == 30
        assert payload["denominator"] == 6891

    def test_explicit_integer_denominator(self, capsys, ca_file):
        code, out, _ = run_cli(
            capsys,
            ["fit", "loglog", "--dist", ca_file, "--truncate", "30", "--denominator", "1000"],
        )
        assert code == 0
        assert json.loads(out)["denominator"] == 1000


class TestFitMle:
    def test_simulate_then_fit(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, _ = run_cli(
            capsys,
            ["simulate", "--alpha", "2.0", "--authors", "1000", "--seed", "1", "--out", str(out_file)],
        )
        assert code == 0
        code, out, _ = run_cli(capsys, ["fit", "mle", "--dist", str(out_file), "--xmin", "1"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["alpha_hat"] - 2.0) < 0.15
        assert payload["xmin"] == 1

    def test_auto_xmin_with_bootstrap(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        run_cli(capsys, ["simulate", "--alpha", "2.0", "--authors", "200", "--seed", "5", "--out", str(out_file)])
        code, out, _ = run_cli(
            capsys,
            ["fit", "mle", "--dist", str(out_file), "--bootstrap", "100", "--seed", "2"],
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.0 <= payload["p_value"] <= 1.0
        assert payload["n_boot"] == 100


class TestReportTruncation:
    def test_table_two_row(self, capsys, ca_file):
        code, out, _ = run_cli(
            capsys, ["report", "truncation", "--dist", ca_file, "--cutoff", "30"]
        )
        assert code == 0
        assert "316  91.33%  3818  16.65%  0  0.00%" in out
        assert "physically removed authors: 113" in out


class TestCompare:
    def test_text_output(self, capsys, ca_file):
        code, out, _ = run_cli(capsys, ["compare", "--dist", ca_file, "--truncate", "30"])
        assert code == 0
        assert "historical:" in out
        assert "modern:" in out
        assert "notes:" in out

    def test_json_output(self, capsys, ca_file):
        code, out, _ = run_cli(
            capsys, ["compare", "--dist", ca_file, "--truncate", "30", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"cutoff_used", "divergence", "historical", "modern", "notes"}


class TestBias:
    def test_text_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bias", "--alpha", "2.0", "--authors", "1000", "--cutoffs", "30,100000",
             "--replicates", "10", "--seed", "3"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "cutoff,mean_hist_err,sd_hist_err,mean_mle_err,sd_mle_err"
        assert len(lines) == 3
        assert lines[1].startswith("30,")


class TestPlot:
    def test_loglog_sidecar_matches_percent_series(self, capsys, ca_file, ca_dist, tmp_path):
        out = tmp_path / "fig.svg"
        code, _, _ = run_cli(capsys, ["plot", "loglog", "--dist", ca_file, "--out", str(out)])
        assert code == 0
        sidecar = (tmp_path / "fig.csv").read_text().strip().split("\n")
        series = to_percent_series(ca_dist, Denominator.FULL)
        assert len(sidecar) == 1 + len(series.points)
        # The logs ols_loglog fits.
        xs, ys = np.log10(series.levels), np.log10(series.percents)
        for line, (level, percent), x, y in zip(sidecar[1:], series.points, xs, ys):
            fields = line.split(",")
            assert int(fields[0]) == level
            assert float(fields[1]) == percent
            assert float(fields[2]) == x
            assert float(fields[3]) == y
        assert out.read_text().startswith("<svg")

    def test_loglog_residuals_are_the_fits_to_the_bit(self, capsys, tmp_path):
        # Percents whose math.log10 and np.log10 differ in the last bit; the
        # sidecar's residuals are the ones ols_loglog minimizes, bit for bit.
        d = FrequencyDistribution.from_counts({level: 7 * level % 997 + 1 for level in range(1, 300)})
        dist_file = tmp_path / "d.csv"
        write_distribution(d, dist_file)
        code, out, _ = run_cli(capsys, ["fit", "loglog", "--dist", str(dist_file)])
        assert code == 0
        fit_file = tmp_path / "fit.json"
        fit_file.write_text(out)
        fit = json.loads(out)
        svg = tmp_path / "fig.svg"
        code, _, _ = run_cli(capsys, ["plot", "loglog", "--dist", str(dist_file), "--fit", str(fit_file),
                                      "--out", str(svg)])
        assert code == 0
        series = to_percent_series(d, Denominator.FULL)
        assert ols_loglog(series).slope == fit["slope"]
        x, y = np.log10(series.levels), np.log10(series.percents)
        assert (x != list(map(math.log10, series.levels.tolist()))).any() or (
            y != list(map(math.log10, series.percents.tolist()))).any()
        fitted = fit["intercept"] + fit["slope"] * x
        rows = np.loadtxt(tmp_path / "fig.csv", delimiter=",", skiprows=1)
        assert rows[:, 2].tolist() == x.tolist() and rows[:, 3].tolist() == y.tolist()
        assert rows[:, 4].tolist() == fitted.tolist()
        assert rows[:, 5].tolist() == (y - fitted).tolist()

    def test_trendline_residuals_on_exact_law(self, capsys, tmp_path):
        # Integer counts proportional to 1/n^2 exactly: lcm(1..10)^2 / n^2.
        base = 2520**2
        d = FrequencyDistribution.from_counts({n: base // n**2 for n in range(1, 11)})
        dist_file = tmp_path / "square.csv"
        write_distribution(d, dist_file)
        code, out, _ = run_cli(
            capsys, ["fit", "loglog", "--dist", str(dist_file), "--truncate", "10"]
        )
        assert code == 0
        fit_file = tmp_path / "fit.json"
        fit_file.write_text(out)
        svg = tmp_path / "fig.svg"
        code, _, _ = run_cli(
            capsys,
            ["plot", "loglog", "--dist", str(dist_file), "--fit", str(fit_file), "--out", str(svg)],
        )
        assert code == 0
        rows = (tmp_path / "fig.csv").read_text().strip().split("\n")
        assert rows[0].endswith("fit_log10_percent,residual")
        residuals = [abs(float(line.split(",")[5])) for line in rows[1:]]
        assert max(residuals) < 1e-9

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("slope", '"nan"', "slope is nan"),
            ("intercept", '"-inf"', "intercept is -inf"),
            ("exponent", '"inf"', "exponent is inf"),
            ("r_squared", '"nan"', "r_squared is nan"),
            ("slope", "1" + "0" * 400, "int too large to convert to float"),
            ("slope", "1e308", "fit line (slope 1e+308, intercept "),
        ],
    )
    def test_fit_report_that_cannot_be_drawn_exits_two(
        self, capsys, ca_file, tmp_path, field, value, message
    ):
        code, out, _ = run_cli(capsys, ["fit", "loglog", "--dist", ca_file, "--truncate", "30"])
        assert code == 0
        payload = json.loads(out)
        payload[field] = "VALUE"
        fit_file = tmp_path / "fit.json"
        fit_file.write_text(json.dumps(payload).replace('"VALUE"', value))
        svg = tmp_path / "fig.svg"
        code, out, err = run_cli(
            capsys, ["plot", "loglog", "--dist", ca_file, "--fit", str(fit_file), "--out", str(svg)]
        )
        assert code == 2
        assert out == ""
        assert message in err
        assert len(err.splitlines()) == 1
        assert not svg.exists() and not svg.with_suffix(".csv").exists()

    def test_null_f_stat_still_means_infinite(self, capsys, ca_file, tmp_path):
        code, out, _ = run_cli(capsys, ["fit", "loglog", "--dist", ca_file, "--truncate", "30"])
        payload = json.loads(out)
        payload["f_stat"] = None
        fit_file = tmp_path / "fit.json"
        fit_file.write_text(json.dumps(payload))
        svg = tmp_path / "fig.svg"
        code, _, _ = run_cli(
            capsys, ["plot", "loglog", "--dist", ca_file, "--fit", str(fit_file), "--out", str(svg)]
        )
        assert code == 0
        assert "nan" not in svg.with_suffix(".csv").read_text()

    def test_histogram_sidecar_counts(self, capsys, ca_file, tmp_path):
        svg = tmp_path / "hist.svg"
        code, _, _ = run_cli(
            capsys,
            ["plot", "histogram", "--dist", ca_file, "--bin-width", "15", "--out", str(svg)],
        )
        assert code == 0
        rows = (tmp_path / "hist.csv").read_text().strip().split("\n")
        first = rows[1].split(",")
        second = rows[2].split(",")
        assert (first[0], first[1], first[2]) == ("1", "15", "6354")
        assert (second[0], second[1], second[2]) == ("16", "30", "424")

    def test_histogram_width_beyond_int64_is_one_bin(self, capsys, ca_file, tmp_path):
        svg = tmp_path / "hist.svg"
        width = "100000000000000000000"
        code, _, _ = run_cli(
            capsys, ["plot", "histogram", "--dist", ca_file, "--bin-width", width, "--out", str(svg)]
        )
        assert code == 0
        rows = (tmp_path / "hist.csv").read_text().strip().split("\n")
        assert rows[1:] == [f"1,{width},6891,100.0"]

    # Digests of the SVG and its sidecar for the CA fixture, as written
    # before the bins became arrays.
    @pytest.mark.parametrize("width,svg_sha256,sidecar_sha256", [
        (1, "f816cc8323dbb46ff1428bcde11bb6e23c48ddd9b5bcf647cd681458f1b1f5cd",
         "578e451f06749920a85d286042c68a32e35ce525242fcdd0071f596167cf7699"),
        (15, "1f2790beaf5190a862e0822558907ecb0b22d0cf3534952302920cd51cfc2cf0",
         "e877e44fa966a1380e513609699e319629f92749ccad4af62a1ffac6e351c1fe"),
        (2**70, "17b9c8d24d2ac3c391bc5f7ce32577621950fa51ef56115e01190fec437a1dc6",
         "8fd0af67972ce133ad0ce19673d9ad7e4c3ef7684616161fe2dc8f1e07926792"),
    ])
    def test_histogram_bytes_pinned(self, capsys, ca_file, tmp_path, width, svg_sha256, sidecar_sha256):
        svg = tmp_path / "hist.svg"
        code, _, _ = run_cli(
            capsys, ["plot", "histogram", "--dist", ca_file, "--bin-width", str(width), "--out", str(svg)]
        )
        assert code == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_sha256
        assert hashlib.sha256(svg.with_suffix(".csv").read_bytes()).hexdigest() == sidecar_sha256

    @given(
        st.dictionaries(st.integers(1, 400), st.integers(0, 1000), min_size=1)
        .filter(lambda d: any(d.values())).map(FrequencyDistribution.from_counts),
        st.one_of(st.integers(1, 50), st.integers(2**63, 2**80)),
    )
    @settings(max_examples=100, deadline=None)
    def test_histogram_matches_reference_formatter(self, dist, width):
        spec = PlotSpec(kind=PlotKind.HISTOGRAM, out_path="h.svg", bin_width=width)
        assert svgplot._emit_histogram(dist, spec) == _reference_histogram(dist, width)

    # Sidecar rows change their digit counts at each power of ten, and
    # with a width of 3, 7 or 10 a row's start and end can differ in
    # digit count (9991,10000). Levels 1, 2, the two middle ones and the
    # maximum are populated, so populated bins come first, last and side
    # by side.
    @pytest.mark.parametrize("max_level", [9, 10, 99, 100, 9_999, 10_000, 99_999, 100_000])
    @pytest.mark.parametrize("width", [1, 3, 7, 10])
    def test_histogram_where_digit_counts_change(self, max_level, width):
        dist = FrequencyDistribution.from_counts(
            {1: 40, 2: 9, max_level // 2: 3, max_level // 2 + 1: 2, max_level: 1}
        )
        spec = PlotSpec(kind=PlotKind.HISTOGRAM, out_path="h.svg", bin_width=width)
        assert svgplot._emit_histogram(dist, spec) == _reference_histogram(dist, width)

    # Widths near max_level give two bins or one; at max_level 2^62 a
    # width of 2^62 - 1 gives edges up to 2^63 - 2, the largest below
    # int64's end, and wider ones give one bin whose edge is beyond it.
    @pytest.mark.parametrize("max_level", [2, 10, 30_396, MAX_LEVEL])
    @pytest.mark.parametrize("width", [
        pytest.param(lambda top: top - 1, id="max_level-1"),
        pytest.param(lambda top: top, id="max_level"),
        pytest.param(lambda top: top + 1, id="max_level+1"),
        pytest.param(lambda top: 2**62, id="2^62"),
        pytest.param(lambda top: 2**63, id="2^63"),
        pytest.param(lambda top: 2**80, id="2^80"),
    ])
    @pytest.mark.parametrize("counts", [{}, {1: 5}], ids=["top-only", "first-and-top"])
    def test_histogram_width_near_max_level_and_beyond_int64(self, max_level, width, counts):
        dist = FrequencyDistribution.from_counts({**counts, max_level: 1})
        spec = PlotSpec(kind=PlotKind.HISTOGRAM, out_path="h.svg", bin_width=width(max_level))
        assert svgplot._emit_histogram(dist, spec) == _reference_histogram(dist, width(max_level))

    @pytest.mark.parametrize("populated", [
        pytest.param(lambda top: {top: 1}, id="last-only"),
        pytest.param(lambda top: {1: 2, top: 1}, id="first-and-last"),
        pytest.param(lambda top: {level: level for level in range(1, top + 1)}, id="every-level"),
        pytest.param(lambda top: {level: 1 for level in range(top - 30, top + 1)}, id="adjacent-at-the-top"),
        pytest.param(lambda top: {level: 1 for level in (*range(1, 20), *range(500, 520), top)}, id="adjacent-runs"),
    ])
    @pytest.mark.parametrize("width", [1, 2, 7, 10])
    def test_histogram_populated_bins_first_last_and_adjacent(self, populated, width):
        dist = FrequencyDistribution.from_counts(populated(1_000))
        spec = PlotSpec(kind=PlotKind.HISTOGRAM, out_path="h.svg", bin_width=width)
        assert svgplot._emit_histogram(dist, spec) == _reference_histogram(dist, width)

    def test_histogram_at_the_bin_cap(self):
        # 2^62 / 2^42 is 2^20 bins, the most bin_histogram builds; the
        # edges run from 1 digit to 19.
        dist = FrequencyDistribution.from_counts({1: 4, 2**61: 2, MAX_LEVEL: 1})
        spec = PlotSpec(kind=PlotKind.HISTOGRAM, out_path="h.svg", bin_width=2**42)
        svg, sidecar = svgplot._emit_histogram(dist, spec)
        assert sidecar.count("\n") == 2**20 + 1
        assert (svg, sidecar) == _reference_histogram(dist, 2**42)

    def test_benchmark_histogram_bytes_pinned(self, capsys, tmp_path):
        # The benchmark's ingest-plot histogram input at seed 1: 100,000
        # authors on 407 levels up to 30,396. The digests are of the
        # width-1 figure as written before its empty rows were a digit pass.
        svg = tmp_path / "hist.svg"
        dist_file = Path(__file__).parent / "data" / "h1e5_seed1.csv"
        code, out, _ = run_cli(
            capsys, ["plot", "histogram", "--dist", str(dist_file), "--bin-width", "1", "--out", str(svg)]
        )
        assert code == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "30cfe7f1425a493e116f77614d6154be2d2a601ce414b65f6adba59bb4e0770a")
        assert hashlib.sha256(svg.with_suffix(".csv").read_bytes()).hexdigest() == (
            "56bcd607ebc710f8d71c81061bd366d94c4f7643cf3b23e9187d6ede9854b0db")

    @pytest.mark.parametrize("out", ["ca.svg", "ca.csv", "link.svg"])
    def test_plot_refuses_to_overwrite_dist(self, capsys, ca_file, tmp_path, out):
        (tmp_path / "link.csv").symlink_to(ca_file)  # link.svg's sidecar is ca.csv by another name
        before = sorted(tmp_path.iterdir())
        text = Path(ca_file).read_bytes()
        code, stdout, err = run_cli(capsys, ["plot", "histogram", "--dist", ca_file, "--out", str(tmp_path / out)])
        assert code == 2
        assert stdout == ""
        assert err.endswith("is the --dist file; plot would overwrite its input\n")
        assert len(err.splitlines()) == 1
        assert sorted(tmp_path.iterdir()) == before and Path(ca_file).read_bytes() == text

    @pytest.mark.parametrize("out", ["fit.json", "fit.svg"])
    def test_plot_refuses_to_overwrite_fit(self, capsys, ca_file, tmp_path, out):
        _, report, _ = run_cli(capsys, ["fit", "loglog", "--dist", ca_file, "--truncate", "30"])
        fit_file = tmp_path / ("fit.json" if out == "fit.json" else "fit.csv")
        fit_file.write_text(report)
        before = sorted(tmp_path.iterdir())
        code, stdout, err = run_cli(
            capsys, ["plot", "loglog", "--dist", ca_file, "--fit", str(fit_file), "--out", str(tmp_path / out)]
        )
        assert code == 2
        assert stdout == ""
        assert err == f"error: {fit_file} is the --fit file; plot would overwrite its input\n"
        assert sorted(tmp_path.iterdir()) == before and fit_file.read_text() == report

    @pytest.mark.parametrize("kind", ["histogram", "loglog"])
    def test_unwritable_sidecar_leaves_no_svg(self, capsys, ca_file, tmp_path, kind):
        (tmp_path / "y.csv").mkdir()
        code, stdout, err = run_cli(capsys, ["plot", kind, "--dist", ca_file, "--out", str(tmp_path / "y.svg")])
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {tmp_path / 'y.csv'}: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "y.svg").exists()

    def test_histogram_width_beyond_float_exits_two(self, capsys, ca_file, tmp_path):
        svg = tmp_path / "hist.svg"
        code, out, err = run_cli(
            capsys, ["plot", "histogram", "--dist", ca_file, "--bin-width", str(10**400), "--out", str(svg)]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: bin width 1000")
        assert err.endswith(" is too large to plot: its top edge exceeds a float\n")
        assert not svg.exists() and not svg.with_suffix(".csv").exists()

    def test_fit_flag_rejected_for_histogram(self, capsys, ca_file, tmp_path):
        fit_file = tmp_path / "fit.json"
        fit_file.write_text("{}")
        code, _, err = run_cli(
            capsys,
            ["plot", "histogram", "--dist", ca_file, "--fit", str(fit_file), "--out",
             str(tmp_path / "x.svg")],
        )
        assert code == 2
        assert "loglog" in err

    def test_emit_plot_trendline_without_fit(self, ca_dist, tmp_path):
        from lotkafit.errors import InputError

        spec = PlotSpec(
            kind=PlotKind.LOGLOG, out_path=tmp_path / "x.svg", include_trendline=True
        )
        with pytest.raises(InputError, match="without a fit"):
            emit_plot(ca_dist, None, spec)


def _reference_histogram(dist, width):
    """The histogram SVG and sidecar formatted row by row from rescanned bins."""
    bins = rescan_bins(dist, width)
    frame = svgplot._Frame(0.5, bins[-1][1] + 0.5, 0.0, float(max(count for _, _, count, _ in bins)))
    body = svgplot._axes(frame, "works per author (binned)", "authors")
    for start, end, count, _ in bins:
        if count:
            x_left, x_right = frame.x(start - 0.5), frame.x(end + 0.5)
            y_top, y_base = frame.y(float(count)), frame.y(0.0)
            body.append(
                f'<rect x="{x_left:.2f}" y="{y_top:.2f}" width="{x_right - x_left:.2f}" '
                f'height="{y_base - y_top:.2f}" fill="#1f77b4" stroke="white" stroke-width="0.5"/>'
            )
    rows = ["range_start,range_end,author_count,author_percent"]
    rows.extend(f"{s},{e},{c},{p!r}" for s, e, c, p in bins)
    return svgplot._svg_document(body), "\n".join(rows) + "\n"


class TestDeterminism:
    def test_simulate_byte_identical(self, capsys, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                ["simulate", "--alpha", "2.0", "--authors", "5000", "--seed", "9", "--out", str(path)],
            )
            assert code == 0
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_seeded_json_byte_identical(self, capsys, tmp_path):
        dist_file = tmp_path / "s.csv"
        run_cli(capsys, ["simulate", "--alpha", "2.0", "--authors", "300", "--seed", "17", "--out", str(dist_file)])
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys,
                ["fit", "mle", "--dist", str(dist_file), "--bootstrap", "100", "--seed", "4"],
            )
            assert code == 0
            outs.append(out.encode())
        assert outs[0] == outs[1]
