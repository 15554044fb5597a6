import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from lotkafit.cli import run
from lotkafit.freqdata import MAX_LEVEL


@pytest.fixture
def ca_file(tmp_path, ca_dist):
    path = tmp_path / "ca.csv"
    write_distribution(ca_dist, path)
    return str(path)


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0

    def test_unknown_flag_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["fit", "loglog", "--nope"])
        assert code == 2

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
        assert err == f"error: alpha {float(alpha)!r}: the zeta normalizer is not finite, cannot sample\n"
        assert not out_file.exists()

    def test_sampler_message_prints_alpha_in_full(self, capsys, tmp_path):
        out_file = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys,
            ["simulate", "--alpha", "1.0000001", "--authors", "10", "--seed", "1",
             "--out", str(out_file)],
        )
        assert code == 2
        assert "alpha 1.0000001 is too close to 1" in err
        assert len(err.splitlines()) == 1


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
     ",1,A", "P7,1,", "P8,1", "", "  ", 'P9,1,"open', "P9,1,a\rb"]
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


# Exponents at the edges of what the sampler can do: a normalizer that is
# not finite (inf, 1e308), draws beyond 2^62 (1.0000001, 1.2), no
# normalizer at all (1, below 1, nan), and draws that all land on level 1.
_ALPHAS = st.one_of(
    st.sampled_from([math.inf, 1e308, 1.0000001, 1.2, 1.0, 0.5, math.nan, 50.0]),
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


class TestIngest:
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
        for line, (level, percent) in zip(sidecar[1:], series.points):
            fields = line.split(",")
            assert int(fields[0]) == level
            assert float(fields[1]) == percent
            assert float(fields[2]) == math.log10(level)
            assert float(fields[3]) == math.log10(percent)
        assert out.read_text().startswith("<svg")

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
