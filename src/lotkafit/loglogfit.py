"""The historical power-law estimator: percent series, log-log OLS.

This is the spreadsheet-trendline method: express author counts as
percentages of a chosen author total, take base-10 logs of both axes,
fit a straight line by unweighted ordinary least squares, and read the
exponent off the absolute slope. Minimizing the residual sum of squares
is the same thing as maximizing R^2 for fixed data, so this is exactly
the "R^2 fit" procedure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateFitError, InputError
from .freqdata import MAX_AUTHORS, FrequencyDistribution, truncate_right

__all__ = [
    "Denominator",
    "PercentSeries",
    "FitResult",
    "to_percent_series",
    "ols_loglog",
    "fit_historical",
]


class Denominator(enum.Enum):
    """Which author total to normalize against.

    FULL is the Lotka convention: percentages of the untruncated author
    total even when fitting a truncated distribution. TRUNCATED
    self-normalizes against whatever distribution is being converted.
    An explicit positive integer may be passed instead of either.
    """

    FULL = "full"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class PercentSeries:
    """Strictly increasing levels with positive author percentages."""

    points: tuple[tuple[int, float], ...]
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise InputError(f"denominator must be positive, got {self.denominator}")
        previous = 0
        for level, percent in self.points:
            if level <= previous:
                raise InputError(f"levels must be strictly increasing (level {level} out of order)")
            if percent <= 0:
                raise InputError(f"percent must be positive at level {level}, got {percent}")
            previous = level

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(level for level, _ in self.points)

    @property
    def percents(self) -> tuple[float, ...]:
        return tuple(percent for _, percent in self.points)


@dataclass(frozen=True)
class FitResult:
    """Slope, intercept and fit statistics of the log-log regression.

    ``exponent`` is the absolute slope. ``intercept`` is the base-10 log
    of the fitted percent at level 1. ``f_stat`` is dof*R^2/(1-R^2), the
    F statistic of a one-predictor regression; it is infinite for an
    exact fit. The denominator and cutoff used to produce the series are
    carried for the serialized report when known.
    """

    slope: float
    intercept: float
    exponent: float
    r_squared: float
    f_stat: float
    dof: int
    n_points: int
    denominator: int | None = None
    cutoff: int | None = None

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "exponent": self.exponent,
            "r_squared": self.r_squared,
            "f_stat": self.f_stat if math.isfinite(self.f_stat) else None,
            "dof": self.dof,
            "n_points": self.n_points,
            "denominator": self.denominator,
            "cutoff": self.cutoff,
        }


def to_percent_series(
    dist: FrequencyDistribution,
    denominator: Denominator | int = Denominator.FULL,
) -> PercentSeries:
    """Convert author counts to percentages of an author total.

    Zero-count levels are dropped: they have no log. Both enum choices
    resolve to the given distribution's own total here; the FULL versus
    TRUNCATED distinction takes effect in :func:`fit_historical`, which
    knows the pre-truncation total.
    """
    if isinstance(denominator, Denominator):
        denom = dist.total_authors
    else:
        denom = int(denominator)
        if denom <= 0:
            raise InputError(f"denominator must be positive, got {denom}")
        if denom > MAX_AUTHORS:
            raise InputError(f"denominator must be <= 2^62, got {denom}")
    levels, counts = dist.populated_arrays
    points = tuple(zip(levels.tolist(), (100.0 * counts / denom).tolist()))
    return PercentSeries(points=points, denominator=denom)


def ols_loglog(series: PercentSeries) -> FitResult:
    """Unweighted least squares on (log10 level, log10 percent).

    Each populated level is one point regardless of how many authors sit
    on it. Needs at least 3 points so the F statistic has a degree of
    freedom.
    """
    n = len(series.points)
    if n < 3:
        raise DegenerateFitError(f"need at least 3 points to fit, got {n}")
    x = np.log10(np.array(series.levels, dtype=float))
    y = np.log10(np.array(series.percents, dtype=float))
    x_centered = x - x.mean()
    s_xx = float(np.dot(x_centered, x_centered))
    if s_xx == 0.0:
        raise DegenerateFitError("all levels identical: zero x-variance")
    y_centered = y - y.mean()
    tss = float(np.dot(y_centered, y_centered))
    if tss == 0.0:
        raise DegenerateFitError("all percents equal: R^2 undefined (zero total sum of squares)")
    slope = float(np.dot(x_centered, y_centered)) / s_xx
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (intercept + slope * x)
    rss = float(np.dot(residuals, residuals))
    r_squared = 1.0 - rss / tss
    dof = n - 2
    f_stat = math.inf if r_squared >= 1.0 else dof * r_squared / (1.0 - r_squared)
    return FitResult(
        slope=slope,
        intercept=intercept,
        exponent=abs(slope),
        r_squared=r_squared,
        f_stat=f_stat,
        dof=dof,
        n_points=n,
        denominator=series.denominator,
    )


def fit_historical(
    dist: FrequencyDistribution,
    cutoff: int,
    denominator: Denominator | int = Denominator.FULL,
) -> FitResult:
    """The full historical pipeline: truncate, percent-normalize, OLS.

    The default denominator is the Lotka convention, the author total of
    the distribution before truncation.
    """
    full_total = dist.total_authors
    truncated = truncate_right(dist, cutoff)
    if denominator is Denominator.FULL:
        denom: int = full_total
    elif denominator is Denominator.TRUNCATED:
        denom = truncated.total_authors
    else:
        denom = int(denominator)
    return replace(ols_loglog(to_percent_series(truncated, denom)), cutoff=cutoff)
