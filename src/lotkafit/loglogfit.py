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
from collections.abc import Iterable
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import DegenerateFitError, InputError
from .freqdata import MAX_AUTHORS, FrequencyDistribution, _integers, truncate_right

__all__ = [
    "Denominator",
    "PercentSeries",
    "FitResult",
    "to_percent_series",
    "ols_loglog",
    "fit_historical",
]

_NOT_POINTS = "points must be (level, percent) pairs of an int64 integer and a real number"


class Denominator(enum.Enum):
    """Which author total to normalize against.

    FULL is the Lotka convention: percentages of the untruncated author
    total even when fitting a truncated distribution. TRUNCATED
    self-normalizes against whatever distribution is being converted.
    An explicit positive integer may be passed instead of either.
    """

    FULL = "full"
    TRUNCATED = "truncated"


@dataclass(frozen=True, init=False, eq=False)
class PercentSeries:
    """Author percentages per level as two read-only arrays, plus their author total.

    ``levels`` (int64) strictly increases from 1 up and
    ``percents`` (float64) are positive and finite, one per level.
    ``denominator`` is the integer author total in [1, 2^62] they are
    percentages of. The constructor is the one check of a series: it
    refuses anything else with the first fault in point order. ``points``
    gives the ``(level, percent)`` pairs back. Equality and the hash
    compare the arrays and the denominator.
    """

    levels: np.ndarray
    percents: np.ndarray
    denominator: int

    def __init__(self, points: Iterable[tuple[int, float]], denominator: int) -> None:
        try:  # zip refuses points of unequal lengths, the unpacking points of any length but 2
            levels, percents = tuple(zip(*points, strict=True)) or ((), ())
        except (TypeError, ValueError):
            raise InputError(_NOT_POINTS) from None
        self.__post_init__(levels, percents, denominator)

    def __post_init__(self, levels: Iterable[int], percents: Iterable[float], denominator: int) -> None:
        """Check and store read-only copies of the arrays; every constructor ends here."""
        denominator = _denominator(denominator)
        try:
            levels = np.array(_integers(levels), dtype=np.int64)
            percents = np.asarray(percents).astype(np.float64, casting="same_kind")  # no str, no object
        except (TypeError, ValueError, OverflowError):  # a level beyond int64, or ragged points
            raise InputError(_NOT_POINTS) from None
        if levels.ndim != 1 or levels.shape != percents.shape:
            raise InputError(_NOT_POINTS)
        # The first level must exceed 0, so a level below 1 is out of order.
        bad_level = levels <= np.concatenate(([0], levels[:-1]))
        faults = np.flatnonzero(bad_level | ~(percents > 0) | (percents == np.inf))
        if len(faults):
            i = faults[0]
            if bad_level[i]:
                raise InputError(f"levels must be strictly increasing (level {levels[i]} out of order)")
            raise InputError(f"percent must be positive and finite at level {levels[i]}, got {percents[i]}")
        levels.flags.writeable = percents.flags.writeable = False
        vars(self).update(levels=levels, percents=percents, denominator=denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PercentSeries):
            return NotImplemented
        return (self.denominator == other.denominator and np.array_equal(self.levels, other.levels)
                and np.array_equal(self.percents, other.percents))

    def __hash__(self) -> int:
        return hash((self.denominator, self.levels.tobytes(), self.percents.tobytes()))

    @property
    def points(self) -> tuple[tuple[int, float], ...]:
        """The ``(level, percent)`` pairs as Python numbers."""
        return tuple(zip(self.levels.tolist(), self.percents.tolist()))


def _denominator(value: int) -> int:
    """value as an int in [1, 2^62]: an integer, or a float that is one (100.0)."""
    try:
        (denominator,) = _integers(np.array([value], dtype=object))
    except (TypeError, ValueError):
        raise InputError(f"denominator must be an integer, got {value!r}") from None
    if denominator <= 0:
        raise InputError(f"denominator must be positive, got {denominator}")
    if denominator > MAX_AUTHORS:
        raise InputError(f"denominator must be <= 2^62, got {denominator}")
    return denominator


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
        # Replacing a key keeps its place, so the keys stay in field order.
        return {**asdict(self), "f_stat": self.f_stat if math.isfinite(self.f_stat) else None}


def to_percent_series(
    dist: FrequencyDistribution,
    denominator: Denominator | int = Denominator.FULL,
) -> PercentSeries:
    """Convert author counts to percentages of an author total.

    Zero-count levels are dropped: they have no log. Both enum choices
    resolve to the given distribution's own total here; the FULL versus
    TRUNCATED distinction takes effect in :func:`fit_historical`, which
    knows the pre-truncation total. An explicit denominator must be an
    integer in [1, 2^62]; 100.0 counts as one.
    """
    denom = dist.total_authors if isinstance(denominator, Denominator) else _denominator(denominator)
    levels, counts = dist.populated_arrays
    series = PercentSeries.__new__(PercentSeries)
    series.__post_init__(levels, 100.0 * counts / denom, denom)
    return series


def ols_loglog(series: PercentSeries) -> FitResult:
    """Unweighted least squares on (log10 level, log10 percent).

    Each populated level is one point regardless of how many authors sit
    on it. Needs at least 3 points so the F statistic has a degree of
    freedom.
    """
    n = len(series.levels)
    if n < 3:
        raise DegenerateFitError(f"need at least 3 points to fit, got {n}")
    x, y = np.log10(series.levels), np.log10(series.percents)
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
    if denominator is Denominator.FULL:  # to_percent_series resolves the rest against truncated
        denominator = dist.total_authors
    truncated = truncate_right(dist, cutoff)
    return replace(ols_loglog(to_percent_series(truncated, denominator)), cutoff=cutoff)
