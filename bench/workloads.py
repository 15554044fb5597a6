"""The benchmark workloads: their inputs, command lines and output checks.

Each workload is a list of lotkafit command lines run in order through
``lotkafit.cli.run``. The parent process generates the input files from
the workload seed; the command processes only read them. The ``--seed``
given to ``fit``, ``bias`` and ``simulate`` stays at COMMAND_SEED: the
bootstrap, the bias experiment and the sampler draw heavy-tailed levels
themselves, and a fixed command seed keeps their extreme draws, which
dominate their cost, the same in every run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

DEFAULT_SEED = 1
COMMAND_SEED = 1
CUTOFF = 30
N_BOOT = 100
BIAS_CUTOFFS = (30, 1_000_000)

# Full sizes, and the toy sizes the smoke test runs.
SIZES = {
    "full": {
        "ca_authors": 6891,
        "wide_authors": 1_000_000,
        "simulate_authors": 1_000_000,
        "seniors": 20_000,
        "papers": 118_000,
        "hist_authors": 100_000,
        "bias_replicates": 20,
    },
    "toy": {
        "ca_authors": 400,
        "wide_authors": 5000,
        "simulate_authors": 5000,
        "seniors": 300,
        "papers": None,
        "hist_authors": 2000,
        "bias_replicates": 10,
    },
}

MLE_KEYS = ("alpha_hat", "xmin", "ks", "n_tail", "log_likelihood")
FIT_KEYS = (
    "slope", "intercept", "exponent", "r_squared", "f_stat", "dof", "n_points", "denominator",
    "cutoff",
)


class CheckError(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its output.

    check(stdout, trace) raises CheckError on a wrong output and returns
    the values the default-seed reference pins. trace is the command's
    tracer report in a traced run and None otherwise. save_as names a
    file that receives stdout, as a shell redirect would.
    """

    name: str
    argv: list[str]
    check: Callable[[str, dict | None], dict]
    save_as: Path | None = None


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md.

    primary and secondary name the commands behind primary_s and
    secondary_s; the probes run on probe_input.
    """

    name: str
    generate: Callable[[Path, int, dict], dict]
    commands: Callable[[Path, dict, dict, dict], list[Command]]
    primary: str
    secondary: str
    probe_input: str


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _json(stdout: str, keys) -> dict:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None
    _require(isinstance(payload, dict), "stdout JSON is not an object")
    _require(set(payload) == set(keys), f"JSON keys {sorted(payload)}, expected {sorted(keys)}")
    return payload


def _alpha(value, reference: dict, key: str) -> dict:
    _require(isinstance(value, float) and 1.01 < value < 10, f"alpha_hat {value!r} outside (1.01, 10)")
    if key in reference:
        _require(
            abs(value - reference[key]) <= 1e-6,
            f"alpha_hat {value!r} differs from the reference {reference[key]!r} by more than 1e-6",
        )
    return {key: value}


def _digest(path: Path, reference: dict, key: str) -> dict:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if key in reference:
        _require(digest == reference[key], f"{path.name} is not byte-identical to the reference")
    return {key: digest}


def _empty(stdout: str) -> None:
    _require(stdout == "", f"expected no stdout, got {stdout[:80]!r}")


def _read_pairs(path: Path) -> list[tuple[int, int]]:
    _require(path.is_file(), f"{path.name} was not written")
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines[:1] == ["level,count"], f"{path.name}: bad header")
    try:
        return [(int(a), int(b)) for a, b in (line.split(",") for line in lines[1:])]
    except ValueError:
        raise CheckError(f"{path.name}: a row is not 'integer,integer'") from None


def _csv_rows(path: Path, header: str) -> list[list[str]]:
    _require(path.is_file(), f"{path.name} was not written")
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines[:1] == [header], f"{path.name}: header {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


# --- ca-synth ---------------------------------------------------------------


def _ca_generate(work: Path, seed: int, sizes: dict) -> dict:
    n, top = sizes["ca_authors"], inputs.typical_max(sizes["ca_authors"])
    levels = inputs.zipf_levels(np.random.default_rng(seed), n, top, inputs.mean_log_near_expected(n, top))
    return {"ca.csv": inputs.write_distribution(work / "ca.csv", levels)}


def _ca_commands(work: Path, shape: dict, reference: dict, sizes: dict) -> list[Command]:
    ca = shape["ca.csv"]
    replicates = sizes["bias_replicates"]

    def check_fit(stdout: str, trace: dict | None) -> dict:
        payload = _json(stdout, MLE_KEYS + ("p_value", "n_boot", "seed"))
        _require(payload["n_boot"] == N_BOOT, f"n_boot {payload['n_boot']!r}")
        p = payload["p_value"]
        _require(0.0 <= p <= 1.0, f"p_value {p!r} outside [0, 1]")
        _require(abs(p * N_BOOT - round(p * N_BOOT)) < 1e-9, f"p_value {p!r} is not a multiple of 1/{N_BOOT}")
        _require(1 <= payload["xmin"] <= ca["max_level"], f"xmin {payload['xmin']!r}")
        _require(0 < payload["n_tail"] <= ca["authors"], f"n_tail {payload['n_tail']!r}")
        return _alpha(payload["alpha_hat"], reference, "fit_alpha_hat")

    def check_bias(stdout: str, trace: dict | None) -> dict:
        lines = stdout.splitlines()
        _require(
            lines[:1] == ["cutoff,mean_hist_err,sd_hist_err,mean_mle_err,sd_mle_err"],
            "bias: bad header",
        )
        rows = [line.split(",") for line in lines[1:]]
        _require(
            [row[0] for row in rows] == [str(c) for c in BIAS_CUTOFFS] and all(len(r) == 5 for r in rows),
            f"bias: rows {rows!r}",
        )
        for row in rows:
            _require(
                math.isfinite(float(row[1])) and math.isfinite(float(row[3])),
                f"bias: mean error not finite in {row!r}",
            )
        if trace is not None:
            kept = trace["counts"]["modernfit.bias_experiment.max_kept"]
            _require(kept <= replicates, f"bias: n_hist or n_mle is {kept}, above {replicates} replicates")
        return {}

    return [
        Command(
            "fit_mle_boot",
            ["fit", "mle", "--dist", str(work / "ca.csv"), "--xmin", "auto",
             "--bootstrap", str(N_BOOT), "--seed", str(COMMAND_SEED)],
            check_fit,
        ),
        Command(
            "bias",
            ["bias", "--alpha", "2", "--authors", str(sizes["ca_authors"]),
             "--cutoffs", ",".join(map(str, BIAS_CUTOFFS)), "--replicates", str(replicates),
             "--seed", str(COMMAND_SEED)],
            check_bias,
        ),
    ]


# --- wide-1e6 ---------------------------------------------------------------


def _wide_generate(work: Path, seed: int, sizes: dict) -> dict:
    n = sizes["wide_authors"]
    levels = inputs.zipf_levels(np.random.default_rng(seed), n, inputs.typical_max(n))
    return {"wide.csv": inputs.write_distribution(work / "wide.csv", levels)}


def _wide_commands(work: Path, shape: dict, reference: dict, sizes: dict) -> list[Command]:
    heavy = work / "heavy.csv"
    authors = sizes["simulate_authors"]

    def check_compare(stdout: str, trace: dict | None) -> dict:
        payload = _json(stdout, ("cutoff_used", "divergence", "historical", "modern", "notes"))
        _require(payload["cutoff_used"] == CUTOFF, f"cutoff_used {payload['cutoff_used']!r}")
        historical, modern = payload["historical"], payload["modern"]
        _require(isinstance(historical, dict) and set(historical) == set(FIT_KEYS), "historical fit missing")
        _require(isinstance(modern, dict) and set(modern) == set(MLE_KEYS), "modern fit missing")
        _require(historical["exponent"] > 0, f"historical exponent {historical['exponent']!r}")
        _require(
            abs(payload["divergence"] - abs(historical["exponent"] - modern["alpha_hat"])) < 1e-12,
            "divergence is not |historical - modern|",
        )
        return _alpha(modern["alpha_hat"], reference, "compare_alpha_hat")

    def check_simulate(stdout: str, trace: dict | None) -> dict:
        _empty(stdout)
        total = sum(count for _, count in _read_pairs(heavy))
        _require(total == authors, f"simulate wrote {total} authors, expected {authors}")
        return _digest(heavy, reference, "simulate_sha256")

    return [
        Command(
            "compare",
            ["compare", "--dist", str(work / "wide.csv"), "--truncate", str(CUTOFF), "--json"],
            check_compare,
        ),
        Command(
            "simulate",
            ["simulate", "--alpha", "1.5", "--authors", str(authors),
             "--seed", str(COMMAND_SEED), "--out", str(heavy)],
            check_simulate,
        ),
    ]


# --- ingest-plot ------------------------------------------------------------


def _ingest_generate(work: Path, seed: int, sizes: dict) -> dict:
    rng = np.random.default_rng(seed)
    seniors = sizes["seniors"]
    accept = inputs.works_near(sizes["papers"]) if sizes["papers"] else None
    levels = inputs.zipf_levels(rng, seniors, inputs.typical_max(seniors), accept)
    records = inputs.write_records(work / "records.csv", rng, levels)
    # What ingest must produce: one credit per paper to its senior author.
    records.update(inputs.write_distribution(work / "expected_ingest.csv", levels))
    n = sizes["hist_authors"]
    hist = inputs.zipf_levels(rng, n, inputs.typical_max(n))
    return {"records.csv": records, "h1e5.csv": inputs.write_distribution(work / "h1e5.csv", hist)}


def _ingest_commands(work: Path, shape: dict, reference: dict, sizes: dict) -> list[Command]:
    records, hist = shape["records.csv"], shape["h1e5.csv"]
    dist, fit = work / "dist.csv", work / "fit.json"

    def check_ingest(stdout: str, trace: dict | None) -> dict:
        _empty(stdout)
        pairs = _read_pairs(dist)
        authors = sum(c for _, c in pairs)
        works = sum(level * c for level, c in pairs)
        _require(authors == records["authors"], f"ingest: {authors} authors, expected {records['authors']}")
        _require(works == records["papers"], f"ingest: {works} works, expected {records['papers']}")
        _require(pairs == _read_pairs(work / "expected_ingest.csv"), "ingest: levels differ from the records")
        return _digest(dist, reference, "ingest_sha256")

    def check_report(stdout: str, trace: dict | None) -> dict:
        lines = stdout.splitlines()
        top = records["max_level"]
        _require(len(lines) == 4, f"report: {len(lines)} lines")
        _require(lines[0] == f"truncation at cutoff {CUTOFF} (max level {top}):", f"report: {lines[0]!r}")
        _require(lines[2].split()[0] == str(top - CUTOFF), f"report: removed range {lines[2]!r}")
        return {}

    def check_fit(stdout: str, trace: dict | None) -> dict:
        payload = _json(stdout, FIT_KEYS)
        kept = sum(1 for level, c in _read_pairs(dist) if level <= CUTOFF and c > 0)
        _require(payload["cutoff"] == CUTOFF, f"fit: cutoff {payload['cutoff']!r}")
        _require(payload["denominator"] == records["authors"], "fit: denominator is not the full author total")
        _require(payload["n_points"] == kept, f"fit: {payload['n_points']} points, expected {kept}")
        _require(payload["exponent"] > 0 and 0.0 <= payload["r_squared"] <= 1.0, "fit: exponent or R^2 out of range")
        return {}

    def check_plot_loglog(stdout: str, trace: dict | None) -> dict:
        _empty(stdout)
        _require((work / "loglog.svg").read_text(encoding="utf-8").startswith("<svg"), "loglog.svg is not SVG")
        rows = _csv_rows(
            work / "loglog.csv",
            "level,percent,log10_level,log10_percent,fit_log10_percent,residual",
        )
        _require(len(rows) == records["levels"], f"loglog sidecar: {len(rows)} points, expected {records['levels']}")
        return {}

    def check_histogram(stdout: str, trace: dict | None) -> dict:
        _empty(stdout)
        path = work / "histogram.csv"
        rows = _csv_rows(path, "range_start,range_end,author_count,author_percent")
        _require(len(rows) == hist["max_level"], f"histogram: {len(rows)} bins, expected {hist['max_level']}")
        total = sum(int(row[2]) for row in rows)
        _require(total == hist["authors"], f"histogram: {total} authors, expected {hist['authors']}")
        return _digest(path, reference, "histogram_sha256")

    d = str(dist)
    return [
        Command("ingest", ["ingest", "--records", str(work / "records.csv"), "--out", d], check_ingest),
        Command("report_truncation", ["report", "truncation", "--dist", d, "--cutoff", str(CUTOFF)], check_report),
        Command("fit_loglog", ["fit", "loglog", "--dist", d, "--truncate", str(CUTOFF)], check_fit, save_as=fit),
        Command(
            "plot_loglog",
            ["plot", "loglog", "--dist", d, "--fit", str(fit), "--out", str(work / "loglog.svg")],
            check_plot_loglog,
        ),
        Command(
            "plot_histogram",
            ["plot", "histogram", "--dist", str(work / "h1e5.csv"), "--bin-width", "1",
             "--out", str(work / "histogram.svg")],
            check_histogram,
        ),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ca-synth", _ca_generate, _ca_commands, "fit_mle_boot", "bias", "ca.csv"),
        Workload("wide-1e6", _wide_generate, _wide_commands, "compare", "simulate", "wide.csv"),
        Workload("ingest-plot", _ingest_generate, _ingest_commands, "ingest", "plot_histogram", "h1e5.csv"),
    )
}
