"""Timing wrappers around lotkafit's public functions, for the traced run.

install() replaces every function named in a lotkafit module's __all__
(and FrequencyDistribution construction) with a wrapper that records a
span: name, start, end and the enclosing span. The replacement happens
in the defining module and under every other name a lotkafit module
bound it to, so internal calls such as the bootstrap's call of
select_xmin are caught. Private helpers stay unwrapped; their time is
self time of the public function that called them. Spans stay in memory
until the command ends; report() then summarizes them.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("freqdata", "loglogfit", "lotkamodel", "modernfit", "svgplot", "cli")


class Recorder:
    """Spans of one traced command, with the counters read off arguments and results."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        lotka = [m for n, m in sys.modules.items() if n == "lotkafit" or n.startswith("lotkafit.")]
        for short in MODULES:
            module = sys.modules[f"lotkafit.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                traced = self.wrap(f"{short}.{attr}", fn, COUNTERS.get(f"{short}.{attr}"))
                for owner in lotka:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, key, traced)
        dist_cls = sys.modules["lotkafit.freqdata"].FrequencyDistribution
        self._patch(
            dist_cls,
            "__post_init__",
            self.wrap("freqdata.FrequencyDistribution", dist_cls.__post_init__, _count_entries),
        )

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def report(self) -> dict:
        """What the child process hands back: span summary and counters."""
        return {
            "spans": self.summary(),
            "counts": dict(self.counts),
            "bootstrap_refits": self.calls_under("modernfit.select_xmin", "modernfit.gof_bootstrap"),
        }

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of spans called name that ran inside a span called ancestor."""
        hits = 0
        for span_name, _, _, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    hits += 1
                    break
                parent = self.spans[parent][3]
        return hits


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _count_entries(counts, args, kwargs, result) -> None:
    counts["freqdata.FrequencyDistribution.entries"] += len(args[0].entries)


def _count_parse_records(counts, args, kwargs, result) -> None:
    counts["freqdata.parse_records.rows"] += _arg(args, kwargs, 0, "text").count("\n") - 1


def _count_from_author_records(counts, args, kwargs, result) -> None:
    counts["freqdata.from_author_records.papers"] += len(_arg(args, kwargs, 0, "records"))


def _count_bin_histogram(counts, args, kwargs, result) -> None:
    counts["freqdata.bin_histogram.bins"] += len(result.bins)
    counts["freqdata.bin_histogram.levels"] += len(_arg(args, kwargs, 0, "dist").entries)


def _count_parse_distribution(counts, args, kwargs, result) -> None:
    counts["freqdata.parse_distribution.levels"] += len(result.entries)


def _count_ols(counts, args, kwargs, result) -> None:
    counts["loglogfit.ols_loglog.points"] += result.n_points


def _count_sample(counts, args, kwargs, result) -> None:
    counts["lotkamodel.sample.draws"] += _arg(args, kwargs, 1, "count")


def _count_select_xmin(counts, args, kwargs, result) -> None:
    dist = _arg(args, kwargs, 0, "dist")
    counts["modernfit.select_xmin.candidates"] += sum(1 for _, a in dist.entries if a > 0) - 2


def _count_gof_bootstrap(counts, args, kwargs, result) -> None:
    counts["modernfit.gof_bootstrap.replicates"] += _arg(args, kwargs, 2, "n_boot")


def _count_bias(counts, args, kwargs, result) -> None:
    counts["modernfit.bias_experiment.replicates"] += result.replicates
    counts["modernfit.bias_experiment.fits"] += result.replicates * len(result.rows)
    counts["modernfit.bias_experiment.mle_kept"] += sum(row.n_mle for row in result.rows)
    counts["modernfit.bias_experiment.hist_kept"] += sum(row.n_hist for row in result.rows)
    counts["modernfit.bias_experiment.max_kept"] = max(
        [counts["modernfit.bias_experiment.max_kept"]] + [max(r.n_hist, r.n_mle) for r in result.rows]
    )


def _count_emit_plot(counts, args, kwargs, result) -> None:
    counts["svgplot.emit_plot.bytes"] += sum(path.stat().st_size for path in result)


COUNTERS = {
    "freqdata.parse_records": _count_parse_records,
    "freqdata.from_author_records": _count_from_author_records,
    "freqdata.bin_histogram": _count_bin_histogram,
    "freqdata.parse_distribution": _count_parse_distribution,
    "loglogfit.ols_loglog": _count_ols,
    "lotkamodel.sample": _count_sample,
    "modernfit.select_xmin": _count_select_xmin,
    "modernfit.gof_bootstrap": _count_gof_bootstrap,
    "modernfit.bias_experiment": _count_bias,
    "svgplot.emit_plot": _count_emit_plot,
}
