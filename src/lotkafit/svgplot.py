"""SVG emission for the two figure types, with exact-coordinate sidecars.

Plots are written as standalone SVG documents built by string assembly;
no plotting framework is involved. Next to every SVG goes a plain-text
CSV sidecar carrying the exact plotted coordinates at full precision, so
tests assert on numbers rather than rendered pixels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .freqdata import FrequencyDistribution, _write_text, bin_histogram
from .loglogfit import Denominator, FitResult, to_percent_series

__all__ = ["PlotKind", "PlotSpec", "emit_plot"]

_WIDTH, _HEIGHT = 640, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 75, 20, 20, 55


class PlotKind(enum.Enum):
    HISTOGRAM = "histogram"
    LOGLOG = "loglog"


@dataclass(frozen=True)
class PlotSpec:
    """What to draw and where to put it."""

    kind: PlotKind
    out_path: str | Path
    include_trendline: bool = False
    xlabel: str = ""
    ylabel: str = ""
    bin_width: int = 1


class _Frame:
    """Maps data coordinates into the SVG plot area."""

    def __init__(self, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> None:
        if x_hi <= x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_hi <= y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi
        self.plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
        self.plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def x(self, v: float) -> float:
        return _MARGIN_LEFT + (v - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_w

    def y(self, v: float) -> float:
        return _HEIGHT - _MARGIN_BOTTOM - (v - self.y_lo) / (self.y_hi - self.y_lo) * self.plot_h


def _axes(frame: _Frame, xlabel: str, ylabel: str) -> list[str]:
    left, bottom = _MARGIN_LEFT, _HEIGHT - _MARGIN_BOTTOM
    right, top = _WIDTH - _MARGIN_RIGHT, _MARGIN_TOP
    parts = [
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{left}" y2="{top}" stroke="black"/>',
    ]
    for i in range(5):
        fx = frame.x_lo + i * (frame.x_hi - frame.x_lo) / 4
        px = frame.x(fx)
        parts.append(f'<line x1="{px:.2f}" y1="{bottom}" x2="{px:.2f}" y2="{bottom + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{bottom + 18}" font-size="11" text-anchor="middle">{fx:.3g}</text>'
        )
        fy = frame.y_lo + i * (frame.y_hi - frame.y_lo) / 4
        py = frame.y(fy)
        parts.append(f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{left - 8}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{fy:.3g}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="{_HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(top + bottom) / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {(top + bottom) / 2:.2f})">{ylabel}</text>'
    )
    return parts


def _svg_document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _emit_loglog(
    dist: FrequencyDistribution, fit: FitResult | None, spec: PlotSpec
) -> tuple[str, str]:
    series = to_percent_series(dist, Denominator.FULL)
    levels, percents = series.levels.tolist(), series.percents.tolist()
    xs, ys = list(map(math.log10, levels)), list(map(math.log10, percents))
    frame = _Frame(min(xs), max(xs), min(ys), max(ys))
    xlabel = spec.xlabel or "log10 works per author"
    ylabel = spec.ylabel or "log10 percent of authors"
    body = _axes(frame, xlabel, ylabel)
    if spec.include_trendline:
        assert fit is not None
        x0, x1 = min(xs), max(xs)
        y0, y1 = frame.y(fit.intercept + fit.slope * x0), frame.y(fit.intercept + fit.slope * x1)
        # The line is linear in x: finite at both ends, it is finite between them.
        if not (math.isfinite(y0) and math.isfinite(y1)):
            raise InputError(
                f"fit line (slope {fit.slope!r}, intercept {fit.intercept!r}) is not finite "
                "over the plotted levels"
            )
        body.append(
            f'<line x1="{frame.x(x0):.2f}" y1="{y0:.2f}" x2="{frame.x(x1):.2f}" y2="{y1:.2f}" '
            f'stroke="#d62728" stroke-width="1.5"/>'
        )
    for x, y in zip(xs, ys):
        body.append(f'<circle cx="{frame.x(x):.2f}" cy="{frame.y(y):.2f}" r="3" fill="#1f77b4"/>')
    header = "level,percent,log10_level,log10_percent"
    if spec.include_trendline:
        header += ",fit_log10_percent,residual"
    rows = [header]
    for level, percent, x, y in zip(levels, percents, xs, ys):
        row = f"{level},{percent!r},{x!r},{y!r}"
        if spec.include_trendline:
            fitted = fit.intercept + fit.slope * x
            row += f",{fitted!r},{y - fitted!r}"
        rows.append(row)
    return _svg_document(body), "\n".join(rows) + "\n"


def _emit_histogram(dist: FrequencyDistribution, spec: PlotSpec) -> tuple[str, str]:
    """One rect per populated bin; one sidecar row per bin, empty bins included.

    The bins stay arrays: only populated bins are formatted one by one,
    every empty bin shares one row tail, and the edge columns come from
    Python ranges, so widths beyond int64 stay exact.
    """
    bins = bin_histogram(dist, spec.bin_width)
    width, n_bins = bins.bin_width, len(bins.counts)
    top = n_bins * width
    populated = np.flatnonzero(bins.counts)
    filled = list(zip(populated.tolist(), bins.counts[populated].tolist(), bins.percents[populated].tolist()))
    try:
        frame = _Frame(0.5, top + 0.5, 0.0, float(bins.counts.max()))
    except OverflowError:  # the top bin edge, an int, has no float
        raise InputError(f"bin width {width} is too large to plot: its top edge exceeds a float") from None
    xlabel = spec.xlabel or "works per author (binned)"
    ylabel = spec.ylabel or "authors"
    body = _axes(frame, xlabel, ylabel)
    y_base = frame.y(0.0)
    for k, count, _ in filled:
        x_left = frame.x(k * width + 1 - 0.5)
        x_right = frame.x((k + 1) * width + 0.5)
        y_top = frame.y(float(count))
        body.append(
            f'<rect x="{x_left:.2f}" y="{y_top:.2f}" width="{x_right - x_left:.2f}" '
            f'height="{y_base - y_top:.2f}" fill="#1f77b4" stroke="white" stroke-width="0.5"/>'
        )
    tails = [",0,0.0\n"] * n_bins
    for k, count, percent in filled:
        tails[k] = f",{count},{percent!r}\n"
    starts, ends = range(1, top + 1, width), range(width, top + 1, width)
    rows = "".join([f"{start},{end}{tail}" for start, end, tail in zip(starts, ends, tails)])
    return _svg_document(body), "range_start,range_end,author_count,author_percent\n" + rows


def emit_plot(
    dist: FrequencyDistribution, fit: FitResult | None, spec: PlotSpec
) -> tuple[Path, Path]:
    """Write the SVG and its sidecar; returns both paths.

    The sidecar sits next to the SVG with a .csv suffix and carries the
    exact plotted values at full precision. If the sidecar cannot be
    written, the SVG written just before it is removed again.
    """
    if spec.kind is PlotKind.LOGLOG and spec.include_trendline and fit is None:
        raise InputError("trendline requested without a fit")
    if spec.kind is PlotKind.LOGLOG:
        svg, sidecar = _emit_loglog(dist, fit, spec)
    else:
        svg, sidecar = _emit_histogram(dist, spec)
    out = Path(spec.out_path)
    sidecar_path = _sidecar_path(out)
    _write_text(out, svg)
    try:
        _write_text(sidecar_path, sidecar)
    except InputError:  # leave no SVG without its sidecar
        out.unlink(missing_ok=True)
        raise
    return out, sidecar_path


def _sidecar_path(out: Path) -> Path:
    """Where the sidecar of the SVG at out goes: beside it, with a .csv suffix."""
    sidecar_path = out.with_suffix(".csv")
    return out.with_suffix(".points.csv") if sidecar_path == out else sidecar_path
