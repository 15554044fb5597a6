"""Zeta-normalized discrete power law over integer productivity levels.

A model with exponent alpha in ALPHA_DOMAIN = [1.01, 10] and integer
lower support bound xmin >= 1 assigns P(X = k) = k^(-alpha) / zeta(alpha,
xmin) for integer k >= xmin, where zeta(alpha, xmin) is the Hurwitz zeta
sum over the support. The running "one over k squared" fractions only
become a probability distribution through this normalization; at alpha =
2, xmin = 1 the level-1 fraction is 6/pi^2, about 0.6079. PowerLawModel
is the one check of the domain; the sampler and hurwitz_zeta go through
it, and the maximum-likelihood fit searches the same range.

One array evaluator computes the normalizer zeta(alpha, s) for many
exponents and start points at once, together with the first two
alpha-derivatives of its logarithm that the maximum-likelihood fit
needs: a dense suffix sum below level 64, computed only for the
exponent rows with a start below 64 and a few of those rows at a time,
so that its temporaries do not grow with the rows, plus an
Euler-Maclaurin tail, accurate to well under 1e-12 absolute error on the
domain. Sampling is by inverse-CDF lookup against a precomputed
cumulative table of 2^16 model rows, with the draws counted into one
array over the table's rows; the bootstrap's table puts its observed
body's rows before them, so that one uniform draws each author from body
or tail. A guide table of 2^16 equal-probability cells (Chen & Asau's
indexed search) resolves most draws without a binary search; the rest
search the full table, and draws beyond it are inverted on the
zeta-based CDF, all at once: a bracket around the asymptotic level, then
bisection, exact up to about level (alpha-1) * 5e13 (see
_CdfTable._beyond_table). Sampling is reproducible: all randomness flows
through numpy's PCG64 generator consuming uniform doubles only, so
identical (model, count, seed) gives identical output: PCG64 is a pinned
contract, not an implementation detail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .freqdata import MAX_AUTHORS, MAX_LEVEL, FrequencyDistribution

__all__ = [
    "PowerLawModel",
    "hurwitz_zeta",
    "predicted_fraction",
    "expected_counts",
    "ccdf",
    "sample",
]

# The exponents every model, fit and draw may take, and the start of the
# Euler-Maclaurin tail: zeta sums below it are dense suffix sums. With six
# Bernoulli correction terms the remainder at a start n is bounded by the
# first omitted term, B_14/14! alpha (alpha+1) ... (alpha+12) n^(-alpha-13);
# at n = 64 and alpha in ALPHA_DOMAIN that is below 5e-27 absolute
# (largest at 1.01) and 2e-20 relative to zeta (largest at 10), so float64
# rounding dominates the error. At 32 the relative bound would be 3e-16,
# no longer below rounding. Below the domain the error grows: 5e-12 at
# alpha 1.0001.
ALPHA_DOMAIN = (1.01, 10.0)
_TAIL_START = 64
# The dense block k = _TAIL_START-1 down to 1, descending so that running
# sums along it are the suffix sums zeta needs.
_DENSE_LOGS = np.log(np.arange(_TAIL_START - 1, 0, -1, dtype=float))
# Weights of k^(-alpha) in the moments of order 0, 1, 2 of ln k - c over
# the dense block, with c = ln _TAIL_START.
_DENSE_WEIGHTS = (_DENSE_LOGS - math.log(_TAIL_START)) ** np.arange(3)[:, None]
_ORDERS = np.arange(3, dtype=float).reshape(-1, 1, 1)
_FACTORIALS = np.array([1.0, 1.0, 2.0]).reshape(-1, 1, 1)
# Dense-block cells computed at a time: _zeta takes as many of the exponent
# rows with a start below 64 as keep a block's suffix sums (orders x rows x 64
# floats, orders 1 or 3) within this, 128 rows or 42. Like _DRAW_BLOCK's, each
# of a block's float64 temporaries is then at most 64 KiB, under glibc's
# default 128 KiB mmap threshold, and is reused from the heap however many
# rows the call has.
_DENSE_CELLS = 1 << 13

# B_{2j} / (2j)! for j = 1..6.
_EM_COEFFS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
)
_EM_ARRAY = np.array(_EM_COEFFS)
_RISE_STEPS = np.arange(2 * len(_EM_COEFFS) - 1, dtype=float)

# Model rows of the sampler's cumulative table (512 KiB), at every exponent.
# Rarer draws, about 3,000 in 1e6 at alpha 1.5, are inverted on the
# zeta-based CDF (see _CdfTable._beyond_table).
_TABLE_CAP = 1 << 16
# Cells of the sampler's guide table. A power of two, so that u * cells
# and c / cells are exact and the guide never changes a drawn level.
_GUIDE_CELLS = 1 << 16
# Uniforms drawn and tallied at a time: a block's float64 temporaries (64 KiB)
# stay under glibc's default 128 KiB mmap threshold and are reused from the heap.
_DRAW_BLOCK = 1 << 13


def _series_coeffs(alpha: np.ndarray, moments: int) -> np.ndarray:
    """Per-exponent coefficients of the Euler-Maclaurin correction series.

    Term j of the series is c_j r_j(alpha) n^(-alpha-2j+1), with r_j the
    rising product alpha (alpha+1) ... (alpha+2j-2). For alpha of shape
    (R, 1) the result has shape (moments, R, 6): first c_j r_j, then
    -c_j r_j g_j and c_j r_j (g_j^2 + h_j), where g_j and h_j are the
    first and second alpha-derivatives of ln r_j. These weight the same
    powers of n in the moments of order 0, 1 and 2 of ln k - ln n.
    """
    factors = alpha + _RISE_STEPS
    c0 = factors.cumprod(axis=1)[:, ::2] * _EM_ARRAY
    if moments == 1:
        return c0[None]
    inv = 1.0 / factors
    g = inv.cumsum(axis=1)[:, ::2]
    minus_h = (inv * inv).cumsum(axis=1)[:, ::2]
    return np.stack([c0, -c0 * g, c0 * (g * g - minus_h)])


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum over j of coeffs[..., j] x^j, with x broadcast against the rows."""
    total = coeffs[..., -1:] * x
    for j in range(coeffs.shape[-1] - 2, 0, -1):
        total = (total + coeffs[..., j : j + 1]) * x
    return total + coeffs[..., :1]


def _zeta(alpha, starts, derivatives: bool = False):
    """zeta(alpha_r, s) for a row of exponents against an array of start points.

    ``alpha`` has shape (R,) and ``starts`` shape (R, M) or (1, M); start
    points are positive integers held as floats. Below _TAIL_START the
    sum is a dense suffix sum of k^(-alpha) over k < _TAIL_START plus the
    Euler-Maclaurin tail at _TAIL_START; at or above it, the tail runs
    directly from the start point. With ``derivatives`` the result is
    (zeta, d/dalpha ln zeta, d^2/dalpha^2 ln zeta): the second is minus
    the model mean of ln k over k >= s and the third its variance, both
    computed from moments of ln k - c with c = ln max(s, _TAIL_START), so
    that no large terms cancel. The dense sums are computed only for the
    rows with a start below _TAIL_START, a block of them at a time (see
    _DENSE_CELLS); the other rows use none of them. Each row's values are
    the same floats in any block, and the same as with dense sums for
    every row. This is the only zeta formula in the package.
    """
    orders = 3 if derivatives else 1
    a = np.asarray(alpha, dtype=float).reshape(-1, 1)
    s = np.asarray(starts, dtype=float)
    n = np.maximum(s, float(_TAIL_START))
    shift = np.log(n)
    power = np.exp(-a * shift)
    inv_am1 = 1.0 / (a - 1.0)
    lead = n * power * inv_am1
    # Moment p of ln k - c over k >= n: the integral term lead p! / (alpha-1)^p,
    # the endpoint term (order 0 only, as ln n - c = 0 there), the series.
    moments = lead * (_FACTORIALS[:orders] * inv_am1 ** _ORDERS[:orders])
    moments[0] += 0.5 * power
    moments += (power / n) * _horner(_series_coeffs(a, orders), 1.0 / (n * n))
    col = _TAIL_START - np.minimum(s, _TAIL_START).astype(np.intp)
    col = np.broadcast_to(col, moments.shape[1:])
    dense = np.flatnonzero((col > 0).any(axis=1))
    block = _DENSE_CELLS // (orders * _TAIL_START)
    for r0 in range(0, len(dense), block):
        rows = dense[r0 : r0 + block]
        # suffix[:, j, i] sums block row j's dense terms for k >= _TAIL_START - i.
        terms = np.exp(-a[rows] * _DENSE_LOGS) * _DENSE_WEIGHTS[:orders, None, :]
        suffix = np.zeros(terms.shape[:-1] + (_TAIL_START,))
        terms.cumsum(axis=-1, out=suffix[..., 1:])
        moments[:, rows] += suffix[:, np.arange(len(rows)).reshape(-1, 1), col[rows]]
    if not derivatives:
        return moments[0]
    zeta, m1, m2 = moments
    mean = m1 / zeta
    return zeta, -(shift + mean), m2 / zeta - mean * mean


@dataclass(frozen=True)
class PowerLawModel:
    """Exponent in ALPHA_DOMAIN, integer lower support bound in [1, 2^62]: the one check of both."""

    alpha: float
    xmin: int = 1

    def __post_init__(self) -> None:
        lo, hi = ALPHA_DOMAIN
        if not lo <= self.alpha <= hi:
            raise InputError(f"alpha must lie in [{lo:g}, {hi:g}], got {self.alpha!r}")
        if not (self.xmin >= 1 and self.xmin % 1 == 0):
            raise InputError(f"xmin must be a positive integer, got {self.xmin}")
        if self.xmin > MAX_LEVEL:
            raise InputError(f"xmin must be <= 2^62, got {self.xmin}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "xmin", int(self.xmin))

    @cached_property
    def normalizer(self) -> float:
        """zeta(alpha, xmin); the reciprocal of the pmf's constant."""
        return float(_zeta([self.alpha], [[float(self.xmin)]])[0, 0])


def hurwitz_zeta(alpha: float, xmin: int = 1) -> float:
    """Sum of k^(-alpha) over integer k >= xmin; PowerLawModel checks both.

    Dense summation below _TAIL_START, then the Euler-Maclaurin tail.
    Absolute error is below 1e-12 for alpha in ALPHA_DOMAIN and any
    integer xmin >= 1.
    """
    return PowerLawModel(alpha, xmin).normalizer


def predicted_fraction(level: int, model: PowerLawModel) -> float:
    """P(X = level): the predicted fraction of authors at a level."""
    if level < model.xmin:
        raise InputError(f"level {level} is below xmin {model.xmin}")
    return level ** (-model.alpha) / model.normalizer


def expected_counts(
    total_authors: int, model: PowerLawModel, max_level: int
) -> list[tuple[int, float]]:
    """Real-valued expected author counts at levels xmin..max_level."""
    if total_authors < 1:
        raise InputError(f"total_authors must be >= 1, got {total_authors}")
    if max_level < model.xmin:
        raise InputError(f"max_level {max_level} is below xmin {model.xmin}")
    levels = np.arange(model.xmin, max_level + 1, dtype=float)
    fractions = np.power(levels, -model.alpha) / model.normalizer
    return [(int(k), total_authors * float(f)) for k, f in zip(levels, fractions)]


def ccdf(level: int, model: PowerLawModel) -> float:
    """P(X >= level); equals 1 at xmin and decreases strictly."""
    if level < model.xmin:
        raise InputError(f"level {level} is below xmin {model.xmin}")
    return hurwitz_zeta(model.alpha, level) / model.normalizer


class _CdfTable:
    """Cumulative probability table for inverse-CDF sampling.

    Covers the _TABLE_CAP levels from xmin on; draws landing beyond the
    table are inverted all at once on the zeta-based CDF (_beyond_table),
    which resolves consecutive levels up to about (alpha-1) * 5e13.
    ``body`` is a bootstrap's observed levels below xmin, their counts and
    the author total n (Clauset et al. 2009, section 4.1): its rows come
    first, each of mass count / n, and the model's rows follow, scaled by
    the tail share n_tail / n. Without one the tail share is 1.0 and the rows are
    the model's cumulative probabilities, float for float.
    A guide table (Chen & Asau 1974) splits [0, 1) into _GUIDE_CELLS
    cells of equal width: guide[c] is the first row whose cumulative
    probability reaches c / _GUIDE_CELLS. A draw u in cell c = floor(u *
    _GUIDE_CELLS) lands on row guide[c] unless the next cell starts on a
    later row (straddles[c]); only draws in the few cells that straddle a
    row boundary search the table. Building the table is the expensive
    part, so bootstrap code constructs one and reuses it, and forked
    replicate workers inherit it.
    """

    def __init__(self, model: PowerLawModel, body: tuple[np.ndarray, np.ndarray, int] | None = None) -> None:
        self.model = model
        alpha, xmin, z = model.alpha, model.xmin, model.normalizer
        self.body, counts, total = body or (np.empty(0, np.int64), np.empty(0, np.int64), 1)
        self.tail_share = (total - counts.sum()) / total
        self.cdf = np.empty(len(counts) + _TABLE_CAP)
        head, tail = self.cdf[: len(counts)], self.cdf[len(counts) :]
        np.divide(np.cumsum(counts), total, out=head)
        np.cumsum(np.power(np.arange(xmin, xmin + _TABLE_CAP, dtype=float), -alpha, out=tail), out=tail)
        tail /= z
        tail *= self.tail_share
        tail += counts.sum() / total
        guide = np.searchsorted(self.cdf, np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS)
        self.guide = guide[:-1]
        self.straddles = guide[:-1] != guide[1:]
        self.last_level = xmin + _TABLE_CAP - 1

    def tally(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending int64 levels of ``count`` draws and how often each was drawn.

        The uniforms are one ``rng.random(count)`` stream, drawn into one
        reused buffer _DRAW_BLOCK at a time; each block's table rows are
        counted into one array with a cell per row and a last cell for the
        draws beyond the table, scanned only up to the highest row drawn.
        Draws beyond the table meet in one _beyond_table call, whose levels
        are all at least last_level. Body rows map back to their levels,
        which lie below xmin.
        """
        end, top, beyond = len(self.cdf), -1, []
        tallied = np.zeros(end + 1, np.int64)
        buffer = np.empty(min(count, _DRAW_BLOCK))
        for start in range(0, count, _DRAW_BLOCK):
            u = rng.random(out=buffer[: min(_DRAW_BLOCK, count - start)])
            cell = (u * _GUIDE_CELLS).astype(np.intp)
            straddling = self.straddles[cell]
            idx = self.guide[cell]
            idx[straddling] = np.searchsorted(self.cdf, u[straddling], side="left")
            np.add.at(tallied, idx, 1)
            high = idx.max()
            if high == end:
                beyond.append(u[idx == end])
            top = max(top, high)
        far_levels = far_counts = np.empty(0, np.int64)
        if beyond:
            resolved = self._beyond_table(np.concatenate(beyond))
            tallied[end - 1] += np.count_nonzero(resolved == self.last_level)
            far_levels, far_counts = np.unique(resolved[resolved > self.last_level], return_counts=True)
        # The last cell is the draws beyond the table. A bool mask scans in a
        # third of the time the counts themselves take.
        rows = np.flatnonzero(tallied[: min(top + 1, end)] != 0)
        levels = rows + (self.model.xmin - len(self.body))
        drawn = np.searchsorted(rows, len(self.body))  # body rows come first
        levels[:drawn] = self.body[rows[:drawn]]
        return np.concatenate([levels, far_levels]), np.concatenate([tallied[rows], far_counts])

    def _beyond_table(self, u: np.ndarray) -> np.ndarray:
        """Smallest level k >= last_level with CDF(k) >= u in float, for every u at once.

        Only the model's rows, scaled by the tail share s, reach past the
        table: CDF(k) >= u is zeta(alpha, k+1) <= t = (1-u) / s *
        zeta(alpha, xmin). The search starts at the asymptotic level
        ((alpha-1) t)^(1/(1-alpha)) - 1/2, off by about alpha / (24 k) of a
        level in exact arithmetic, gallops away from it by 1, 2, 4, ...
        levels until the level is bracketed, then bisects, all on the same
        zeta comparison: 2 evaluator calls for all draws, more where float
        zeta is not monotone. Any search for that crossing gives the same level where
        float zeta is monotone in k. Levels differ by a relative
        (alpha-1)/k in zeta, float zeta by under 2e-14 (mpmath): a level is
        one off only for u within 2e-14 k/(alpha-1) of a step from its
        edge, and from about (alpha-1) * 5e13 on, where float zeta is not
        monotone in k, within 1 + 2e-14 k/(alpha-1). Levels beyond 2^62 are
        refused, at the first probe that shows one: at alpha 2 and xmin 1,
        under 1e-18 per draw.
        """
        alpha, first = self.model.alpha, self.last_level
        target = (1.0 - u) / self.tail_share * self.model.normalizer
        with np.errstate(over="ignore"):  # a guess beyond 2^62 is clipped to it
            guess = ((alpha - 1.0) * target) ** (1.0 / (1.0 - alpha)) - 0.5
        probe = np.clip(np.ceil(guess), first, MAX_LEVEL).astype(np.int64)
        # The level lies in (lo, hi]: CDF(lo) < u unless lo is first - 1, and
        # CDF(hi) >= u unless hi is 2^62 + 1. While one end is open, probes
        # gallop from the first one towards it; then they bisect. The first
        # probe that finds CDF(2^62) < u for any draw ends the search.
        lo = np.full(u.shape, first - 1)
        hi = np.full(u.shape, MAX_LEVEL + 1)
        step = 1
        while lo.max() < MAX_LEVEL:
            active = hi - lo > 1
            if not active.any():
                return hi
            k = probe[active]
            beyond = _zeta([alpha], (k + 1.0).reshape(1, -1))[0] > target[active]  # CDF(k) < u
            lo[active] = np.where(beyond, k, lo[active])
            hi[active] = np.where(beyond, hi[active], k)
            probe = np.where(
                hi > MAX_LEVEL,
                lo + np.minimum(step, MAX_LEVEL - lo),
                np.where(lo < first, hi - np.minimum(step, hi - first), lo + (hi - lo) // 2),
            )
            step = min(2 * step, MAX_LEVEL)
        raise InputError(f"a sampled level lies beyond 2^62 (alpha {alpha!r}, xmin {self.model.xmin})")


def sample(model: PowerLawModel, count: int, seed: int) -> FrequencyDistribution:
    """Draw independent levels and aggregate them into a distribution.

    Deterministic in (model, count, seed): the generator is PCG64 seeded
    with ``seed`` and only its uniform-double stream is consumed.
    """
    if not 1 <= count <= MAX_AUTHORS:
        raise InputError(f"count must lie in [1, 2^62], got {count}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    return FrequencyDistribution.from_arrays(*_CdfTable(model).tally(rng, count), name="sample")
