"""Per-layer metrics of a traced run: span totals per pass, ratios and probes."""

from __future__ import annotations

import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SELF_TIMES = (
    "cli.run", "freqdata.parse_records", "freqdata.from_author_records", "freqdata.bin_histogram",
    "freqdata.parse_distribution", "freqdata.FrequencyDistribution", "freqdata.truncate_right",
    "loglogfit.fit_historical", "lotkamodel.hurwitz_zeta", "lotkamodel.sample",
    "modernfit.select_xmin", "modernfit.compare_methods", "svgplot.emit_plot",
)
CALLS = (
    "freqdata.FrequencyDistribution", "freqdata.truncate_right", "loglogfit.fit_historical",
    "lotkamodel.hurwitz_zeta", "modernfit.select_xmin",
)
COUNTS = (
    "freqdata.parse_records.rows", "freqdata.from_author_records.papers", "freqdata.bin_histogram.bins",
    "freqdata.bin_histogram.levels", "freqdata.parse_distribution.levels",
    "freqdata.FrequencyDistribution.entries", "loglogfit.ols_loglog.points", "lotkamodel.sample.draws",
    "modernfit.select_xmin.candidates", "svgplot.emit_plot.bytes",
)

# Probe grid for hurwitz_zeta.
_ZETA_ALPHAS = (1.01, 1.5, 2.0, 3.0, 5.0, 10.0)
_ZETA_XMINS = (1, 10, 1_000, 100_000, 10_000_000)
# The histogram probe uses the smallest bin width that keeps this many bins
# or fewer: at 1e6 authors, width 1 would take minutes today.
_PROBE_MAX_BINS = 1 << 15


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics, each per traced pass, from the commands' tracer reports."""
    n = len(traced)
    spans: defaultdict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    counts: defaultdict[str, float] = defaultdict(float)
    refits = 0
    for record in traced:
        for report in record["traces"]:
            for name, row in report["spans"].items():
                for key, value in row.items():
                    spans[name][key] += value
            for key, value in report["counts"].items():
                counts[key] += value
            refits += report["bootstrap_refits"]

    metrics = {f"{name}.self_s": spans[name]["self_s"] / n for name in SELF_TIMES}
    metrics.update({f"{name}.calls": spans[name]["calls"] / n for name in CALLS})
    metrics.update({key: counts[key] / n for key in COUNTS})
    metrics["modernfit.select_xmin.per_candidate_us"] = _ratio(
        spans["modernfit.select_xmin"]["total_s"] * 1e6, counts["modernfit.select_xmin.candidates"]
    )
    n_boot = counts["modernfit.gof_bootstrap.replicates"]
    metrics["modernfit.gof_bootstrap.per_replicate_s"] = _ratio(spans["modernfit.gof_bootstrap"]["total_s"], n_boot)
    metrics["modernfit.gof_bootstrap.refit_ratio"] = _ratio(n_boot, refits)
    metrics["modernfit.bias_experiment.per_replicate_s"] = _ratio(
        spans["modernfit.bias_experiment"]["total_s"], counts["modernfit.bias_experiment.replicates"]
    )
    fits = counts["modernfit.bias_experiment.fits"]
    metrics["modernfit.bias_experiment.mle_kept_ratio"] = _ratio(counts["modernfit.bias_experiment.mle_kept"], fits)
    metrics["modernfit.bias_experiment.hist_kept_ratio"] = _ratio(counts["modernfit.bias_experiment.hist_kept"], fits)

    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["cli.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    metrics["cli.stdout_bytes"] = statistics.median(p["stdout_bytes"] for p in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.self_coverage"] = _ratio(
        sum(row["self_s"] for row in spans.values()), sum(p["wall_s"] for p in traced)
    )
    return metrics


def _median_time(fn, min_total_s: float = 0.5) -> float:
    """Median seconds per call of fn(), called at least 3 times and for min_total_s.

    A single call longer than min_total_s is taken as it is.
    """
    times: list[float] = []
    while len(times) < 3 or sum(times) < min_total_s:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
        if times[-1] > min_total_s:
            break
    return statistics.median(times)


def probe_metrics(src: Path, path: Path, authors: int) -> dict[str, float]:
    """Single-layer timings, untraced, on one of the workload's distributions.

    Imports lotkafit from src, the checkout's source tree.
    """
    sys.path.insert(0, str(src))
    from lotkafit.freqdata import bin_histogram, parse_distribution
    from lotkafit.lotkamodel import PowerLawModel, hurwitz_zeta, sample
    from lotkafit.modernfit import ks_distance, mle_alpha

    if src not in Path(sys.modules["lotkafit"].__file__).resolve().parents:
        raise RuntimeError(f"probes imported {sys.modules['lotkafit'].__file__}, not lotkafit from {src}")
    text = path.read_text(encoding="utf-8")
    dist = parse_distribution(text)
    width = max(1, math.ceil(dist.max_level / _PROBE_MAX_BINS))
    grid = [(a, x) for a in _ZETA_ALPHAS for x in _ZETA_XMINS]
    zeta = _median_time(lambda: [hurwitz_zeta(a, x) for a, x in grid], 0.1)
    return {
        "probe.hurwitz_zeta_us": zeta / len(grid) * 1e6,
        "probe.mle_alpha_ms": _median_time(lambda: mle_alpha(dist, 1)) * 1e3,
        "probe.ks_distance_ms": _median_time(lambda: ks_distance(dist, PowerLawModel(2.0, 1))) * 1e3,
        "probe.parse_distribution_ms": _median_time(lambda: parse_distribution(text)) * 1e3,
        "probe.bin_histogram_s": _median_time(lambda: bin_histogram(dist, width)),
        "probe.bin_histogram_width": width,
        "probe.sample_ms": _median_time(lambda: sample(PowerLawModel(2.0, 1), authors, 1)) * 1e3,
    }
