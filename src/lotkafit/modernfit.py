"""Modern discrete power-law estimation and the historical comparison.

The estimator here is the likelihood route: fit the exponent of the
zeta-normalized pmf by solving the discrete likelihood's score equation
inside a bracket, pick the lower cutoff xmin by minimizing the
Kolmogorov-Smirnov distance between empirical and model CDFs on the
tail, and judge fit quality with a semi-parametric bootstrap. There is
one fit path, _fit_tails, and it fits every xmin candidate of a padded
batch of datasets in one vectorized pass: suffix sums give each tail's
count and mean log level, a safeguarded Newton iteration runs all
candidates in lockstep, and the KS distances come from zeta values at
the observed levels only. Only the least KS distance of each dataset is
ever used, so a cheap lower bound on every candidate's distance (its
largest gap over the first _KS_HEAD levels of its tail) rules most of
them out: the full distance is computed for the candidate of least bound
and then for every candidate whose bound does not exceed that distance,
which leaves the argmin, ties included, as a full scan would find it.
select_xmin and mle_alpha are its batches of one dataset; each fit in a
batch is the same float for float as alone.
compare_methods and bias_experiment put this estimator next to the
historical log-log regression and measure how far the two disagree. The
bootstrap and the bias experiment hand their replicates to one runner,
which deals them out in chunks that are each fitted as one batch, over
every CPU the process may use, with forked workers.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from contextlib import suppress
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Callable, NoReturn, Sequence, TypeVar

import numpy as np

from .errors import DegenerateFitError, InputError
from .freqdata import MAX_AUTHORS, MAX_LEVEL, FrequencyDistribution, truncate_right, truncation_report
from .loglogfit import Denominator, FitResult, fit_historical
from .lotkamodel import ALPHA_DOMAIN, PowerLawModel, _CdfTable, _zeta

__all__ = [
    "MleResult",
    "ComparisonReport",
    "BiasRow",
    "BiasTable",
    "log_likelihood",
    "mle_alpha",
    "ks_distance",
    "select_xmin",
    "gof_bootstrap",
    "compare_methods",
    "bias_experiment",
]

# Absolute tolerance of the exponent, which is searched for in ALPHA_DOMAIN.
ALPHA_TOL = 1e-6

# A maximum within this distance of a domain end counts as pinned to it:
# the root search runs inside [lo + _EDGE, hi - _EDGE].
_EDGE = 5 * ALPHA_TOL

# Newton stops once its step is this small; convergence is quadratic
# there, so the exponent is then exact to far below ALPHA_TOL.
_NEWTON_STEP = 1e-10
_NEWTON_MAX_ITER = 100

# Largest block of candidates x levels model-CDF cells the KS pass holds.
_KS_BLOCK_CELLS = 1 << 16

# Levels at the head of each candidate's tail whose largest gap bounds
# its KS distance from below (see _least_ks).
_KS_HEAD = 8

# Candidate rows a chunk of replicates fits in one batch: about 9
# replicates of 107 levels, one at 1e6 authors. A fit call has a fixed
# cost of about 1 ms around the zeta evaluator, which a batch pays once,
# while its arrays grow with the rows. fit mle --xmin auto --bootstrap
# 100 on 6,891 authors and 2 CPUs, median of 8 processes: 700 rows 168
# ms, 1,000 rows 164 ms, 1,500 rows 166 ms.
_CHUNK_ROWS = 1000

_T = TypeVar("_T")


@dataclass(frozen=True)
class MleResult:
    """Maximum-likelihood exponent fit for the tail at and above xmin."""

    alpha_hat: float
    xmin: int
    ks: float
    n_tail: int
    log_likelihood: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ComparisonReport:
    """Historical and modern exponent estimates side by side.

    Either side may be None when its estimator could not run; the notes
    say why. divergence is filled only when both sides are present.
    """

    historical: FitResult | None
    modern: MleResult | None
    cutoff_used: int
    divergence: float | None
    notes: str

    def to_dict(self) -> dict:
        return {
            "cutoff_used": self.cutoff_used,
            "divergence": self.divergence,
            "historical": self.historical.to_dict() if self.historical else None,
            "modern": self.modern.to_dict() if self.modern else None,
            "notes": self.notes,
        }


@dataclass(frozen=True)
class BiasRow:
    cutoff: int
    mean_hist_err: float
    sd_hist_err: float
    mean_mle_err: float
    sd_mle_err: float
    n_hist: int
    n_mle: int


@dataclass(frozen=True)
class BiasTable:
    """Per-cutoff exponent-error summary of the truncation bias experiment."""

    alpha: float
    authors: int
    replicates: int
    seed: int
    rows: tuple[BiasRow, ...]

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["rows"] = [
            {key: _none_if_nan(value) for key, value in row.items()} for row in payload["rows"]
        ]
        return payload

    def to_text_rows(self) -> str:
        lines = ["cutoff,mean_hist_err,sd_hist_err,mean_mle_err,sd_mle_err"]
        for r in self.rows:
            lines.append(
                f"{r.cutoff},{r.mean_hist_err:.6f},{r.sd_hist_err:.6f},"
                f"{r.mean_mle_err:.6f},{r.sd_mle_err:.6f}"
            )
        return "\n".join(lines) + "\n"


def _none_if_nan(x: float | int) -> float | int | None:
    return None if isinstance(x, float) and math.isnan(x) else x


def _tail_arrays(dist: FrequencyDistribution, xmin: int) -> tuple[np.ndarray, np.ndarray]:
    """Populated (levels, counts) arrays restricted to levels >= xmin, as slices."""
    levels, counts = dist.populated_arrays
    start = int(np.searchsorted(levels, xmin))
    if start == len(levels):
        raise DegenerateFitError(f"no authors at levels >= xmin {xmin}")
    return levels[start:], counts[start:]


def log_likelihood(dist: FrequencyDistribution, model: PowerLawModel) -> float:
    """Discrete power-law log-likelihood of the tail at levels >= xmin.

    Levels below xmin are ignored; each author at level k contributes
    -alpha*ln(k) - ln(zeta(alpha, xmin)).
    """
    levels, counts = _tail_arrays(dist, model.xmin)
    weighted_log = float((counts * np.log(levels.astype(float))).sum())
    n_tail = float(counts.sum())
    return -model.alpha * weighted_log - n_tail * math.log(model.normalizer)


def _ks(
    cum: np.ndarray,
    next_levels: np.ndarray,
    sets: np.ndarray,
    starts: np.ndarray,
    alpha: np.ndarray,
    normalizer: np.ndarray,
    head: int | None = None,
) -> np.ndarray:
    """KS distance of each candidate tail levels[sets[i], starts[i]:] from its model.

    ``cum`` and ``next_levels`` are the cumulative counts along each row
    and the levels plus one, as floats, of a padded batch ``levels``,
    ``counts`` (see _fit_tails); candidates are sorted by (set, start).
    Both CDFs are conditioned on the tail; the model CDF at an observed
    level k is 1 - zeta(alpha, k+1) / zeta(alpha, xmin), with
    ``normalizer`` holding zeta(alpha, xmin). A padding column repeats
    its row's last level and total, so its gap repeats the last real
    one. Candidates are processed in blocks of at most _KS_BLOCK_CELLS
    candidate-level cells, each running from the block's lowest start to
    the top, so for one dataset the cost is O(L) per candidate and the
    memory bounded. Every cell is the same float whatever block it lands
    in, so the distances do not depend on the batch. With ``head``, each
    candidate's largest gap over only the first ``head`` columns of its
    tail is returned instead (a tail narrower than that repeats the
    batch's last column, whose gap is the row's last): a subset of its
    cells, so an exact lower bound on its KS distance. Those blocks
    gather each row's own columns, _KS_BLOCK_CELLS // head rows at a
    time.
    """
    before = np.where(starts > 0, cum[sets, starts - 1], 0)  # authors below each tail
    n_tail = cum[sets, -1] - before
    top = cum.shape[1]
    ks = np.empty(len(starts))

    def gaps(rows: slice, block: np.ndarray, cols: slice | np.ndarray) -> np.ndarray:
        model = 1.0 - _zeta(alpha[rows], next_levels[block, cols]) / normalizer[rows, None]
        empirical = (cum[block, cols] - before[rows, None]) / n_tail[rows, None]
        return np.abs(empirical - model)

    if head is not None:
        step = _KS_BLOCK_CELLS // head
        for r0 in range(0, len(starts), step):
            rows = slice(r0, r0 + step)
            cols = np.minimum(starts[rows, None] + np.arange(head), top - 1)
            ks[rows] = gaps(rows, sets[rows, None], cols).max(axis=1)
        return ks
    r0 = 0
    while r0 < len(starts):
        cap = max(1, _KS_BLOCK_CELLS // (top - int(starts[r0])))
        low = np.minimum.accumulate(starts[r0 : r0 + cap])
        fit = np.count_nonzero(np.arange(1, len(low) + 1) * (top - low) <= _KS_BLOCK_CELLS)
        r1 = r0 + max(1, fit)
        first = int(low[r1 - r0 - 1])
        rows = slice(r0, r1)
        # Rows of one dataset share its levels, which then broadcast.
        block = sets[rows] if sets[r0] != sets[r1 - 1] else sets[r0 : r0 + 1]
        gap = gaps(rows, block, slice(first, None))
        gap[np.arange(top - first)[None, :] < (starts[rows] - first)[:, None]] = 0.0
        ks[rows] = gap.max(axis=1)
        r0 = r1
    return ks


def _least_ks(
    levels: np.ndarray,
    counts: np.ndarray,
    sets: np.ndarray,
    starts: np.ndarray,
    alpha: np.ndarray,
    normalizer: np.ndarray,
) -> np.ndarray:
    """_ks of every candidate that may hold its dataset's least KS distance; +inf for the rest.

    ``levels`` and ``counts`` are the padded batch; the other arguments
    are as for _ks, whose three calls here (bound, round 1, round 2)
    share one computation of its ``cum`` and ``next_levels``. Each
    candidate's bound is its largest gap over the first _KS_HEAD levels
    of its tail, which no full distance undercuts. Round 1 fully
    evaluates, per dataset, the candidate of least bound (the first of
    them on a tie); round 2 fully evaluates, in one _ks call, every
    other candidate whose bound is <= its dataset's round-1 distance. A
    candidate left out has a distance at least its bound, so above the
    round-1 one and so above the least: it can neither be the least nor
    tie with it. Every candidate at the least distance is evaluated,
    exactly, so the first of them (the smallest xmin) is the same as in
    a full scan.
    """
    table = np.cumsum(counts, axis=1), (levels + 1).astype(float)
    firsts = np.flatnonzero(np.diff(sets, prepend=-1))
    bound = _ks(*table, sets, starts, alpha, normalizer, head=_KS_HEAD)
    seeds = np.lexsort((bound, sets))[firsts]
    ks = np.full(len(sets), np.inf)
    ks[seeds] = _ks(*table, sets[seeds], starts[seeds], alpha[seeds], normalizer[seeds])
    again = bound <= np.repeat(ks[seeds], np.diff(firsts, append=len(sets)))
    again[seeds] = False
    rows = np.flatnonzero(again)
    ks[rows] = _ks(*table, sets[rows], starts[rows], alpha[rows], normalizer[rows])
    return ks


def ks_distance(dist: FrequencyDistribution, model: PowerLawModel) -> float:
    """Supremum gap between empirical and model CDFs on the tail."""
    levels, counts = _tail_arrays(dist, model.xmin)
    alpha, normalizer = np.array([model.alpha]), np.array([model.normalizer])
    cum, next_levels = np.cumsum(counts)[None, :], (levels[None, :] + 1).astype(float)
    zero = np.zeros(1, dtype=np.intp)
    return float(_ks(cum, next_levels, zero, zero, alpha, normalizer)[0])


@dataclass(frozen=True)
class _TailFits:
    """Per-candidate results of _fit_tails; see there.

    ``ks`` is NaN for a candidate pinned at the bracket edge and +inf for
    one whose KS bound rules it out of its dataset's least distance (see
    _least_ks); either way it cannot be selected.
    """

    alpha: np.ndarray
    ks: np.ndarray
    log_likelihood: np.ndarray
    n_tail: np.ndarray
    xmin: np.ndarray

    def result(self, i: int) -> MleResult:
        return MleResult(
            float(self.alpha[i]), int(self.xmin[i]), float(self.ks[i]), int(self.n_tail[i]),
            float(self.log_likelihood[i]),
        )


def _fit_tails(
    levels: np.ndarray, counts: np.ndarray, sets: np.ndarray, starts: np.ndarray,
    xmins: np.ndarray,
) -> _TailFits:
    """MLE and KS for every candidate tail of a batch of datasets at once.

    The batch is padded: row b of the (B, width) arrays ``levels`` and
    ``counts`` holds dataset b's populated levels in ascending order,
    then repeats its last level with zero counts up to the width.
    Candidate i is the tail levels[sets[i], starts[i]:], with support
    bound xmins[i] <= levels[sets[i], starts[i]]; candidates are sorted
    by (set, start). Tail sums are suffix sums along each row from the
    top, where the padding adds only zeros before the row's own terms, so
    every candidate's sums, and so its whole fit, are the same floats as
    in a batch of its dataset alone. The maximum of the log-likelihood
    -alpha * sum(c ln k) - n ln zeta(alpha, xmin) is the root of the
    score psi(alpha) = d/dalpha ln zeta + mean ln k, which increases
    strictly (its slope is the model variance of ln k). A candidate whose
    psi is not positive at the upper inner edge hi has its maximum pinned
    to that end of ALPHA_DOMAIN: its alpha is 10, its ks and
    log_likelihood NaN. psi at hi is one evaluator call of one exponent
    row against all the xmins. The other candidates run a Newton
    iteration in lockstep that falls back to bisection whenever a step
    leaves the bracket known to hold the root, starting from [lo, hi].
    Their KS distances come from _least_ks: exact for every candidate
    that may hold its dataset's least distance, +inf for the others.
    """
    log_levels = np.log(levels.astype(float))
    n_tail = np.cumsum(counts[:, ::-1], axis=1)[:, ::-1][sets, starts]
    total_log = np.cumsum((counts * log_levels)[:, ::-1], axis=1)[:, ::-1][sets, starts]
    mean_log = total_log / n_tail
    x = xmins.astype(float)

    def score(alpha: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, dlog, d2log = _zeta(alpha, x[rows, None], derivatives=True)
        return dlog[:, 0] + mean_log[rows], d2log[:, 0]

    lo, hi = ALPHA_DOMAIN[0] + _EDGE, ALPHA_DOMAIN[1] - _EDGE
    # The lower end pins no candidate: psi(lo) >= 0 needs a mean ln(k / xmin)
    # above 99.4, and levels up to 2^62 keep it below 43.
    psi_hi = _zeta([hi], x[None, :], derivatives=True)[1][0] + mean_log
    alpha = np.full(len(starts), ALPHA_DOMAIN[1])
    inside = np.nonzero(psi_hi > 0.0)[0]

    # Start from the continuous approximation (Clauset et al. 2009, eq. 3.7).
    rows = inside
    guess = 1.0 + 1.0 / (mean_log[rows] - np.log(x[rows] - 0.5))
    current = np.clip(guess, lo, hi)
    a, b = np.full(len(rows), lo), np.full(len(rows), hi)
    for _ in range(_NEWTON_MAX_ITER):
        if len(rows) == 0:
            break
        psi, slope = score(current, rows)
        below = psi < 0.0
        a = np.where(below, current, a)
        b = np.where(below, b, current)
        step = current - psi / slope
        step = np.where((step >= a) & (step <= b), step, 0.5 * (a + b))
        alpha[rows] = step
        moving = np.abs(step - current) > _NEWTON_STEP
        rows, current, a, b = rows[moving], step[moving], a[moving], b[moving]

    ks = np.full(len(starts), np.nan)
    log_likelihood = np.full(len(starts), np.nan)
    if len(inside):
        fitted = alpha[inside]
        normalizer = _zeta(fitted, x[inside, None])[:, 0]
        log_likelihood[inside] = -fitted * total_log[inside] - n_tail[inside] * np.log(normalizer)
        ks[inside] = _least_ks(levels, counts, sets[inside], starts[inside], fitted, normalizer)
    return _TailFits(alpha, ks, log_likelihood, n_tail, xmins)


def _fit_batch(
    dists: Sequence[FrequencyDistribution], xmin: int | None = None
) -> list[MleResult | DegenerateFitError]:
    """select_xmin of every distribution, or mle_alpha at xmin, in one _fit_tails pass.

    Entry b is dataset b's fit, or the DegenerateFitError its own
    select_xmin or mle_alpha call raises. Each fit is the same as in a
    batch of its dataset alone (see _fit_tails), so the results do not
    depend on how datasets are grouped into batches. An xmin outside
    [1, 2^62], the range of a level, is an InputError for the whole batch.
    """
    if xmin is not None and xmin < 1:
        raise InputError(f"xmin must be >= 1, got {xmin}")
    if xmin is not None and xmin > MAX_LEVEL:
        raise InputError(f"xmin must be <= 2^62, got {xmin}")
    if not dists:
        return []
    arrays = [dist.populated_arrays for dist in dists]
    padded = np.zeros((2, len(arrays), max(len(levels) for levels, _ in arrays)), dtype=np.int64)
    spans, outcomes = [], []
    for b, (levels, counts) in enumerate(arrays):
        padded[0, b] = levels[-1]
        padded[0, b, : len(levels)] = levels
        padded[1, b, : len(counts)] = counts
        if xmin is None:
            first, stop = 0, len(levels) - 2
            error = f"need >= 3 distinct populated levels to select xmin, got {len(levels)}"
        else:
            first = int(np.searchsorted(levels, xmin))
            stop = first + 1
            error = f"degenerate tail: need >= 2 distinct populated levels >= xmin {xmin}"
        fittable = first < stop < len(levels)
        spans.append(range(first, stop) if fittable else range(0))
        outcomes.append(None if fittable else DegenerateFitError(error))
    sizes = [len(span) for span in spans]
    if not any(sizes):
        return outcomes
    sets = np.repeat(np.arange(len(spans)), sizes)
    starts = np.fromiter(chain.from_iterable(spans), np.intp, len(sets))
    levels, counts = padded
    xmins = levels[sets, starts] if xmin is None else np.full(len(sets), xmin, dtype=np.int64)
    fits = _fit_tails(levels, counts, sets, starts, xmins)
    ks = np.where(np.isnan(fits.ks), np.inf, fits.ks)
    offset = 0
    for b, size in enumerate(sizes):
        if size:
            best = offset + int(np.argmin(ks[offset : offset + size]))
            if math.isfinite(ks[best]):
                outcomes[b] = fits.result(best)
            elif xmin is None:
                outcomes[b] = DegenerateFitError("no xmin candidate produced a non-degenerate fit")
            else:
                outcomes[b] = DegenerateFitError(
                    f"likelihood maximized at the bracket edge (alpha ~ {fits.alpha[best]:.4f}); "
                    "tail is too degenerate to fit"
                )
        offset += size
    return outcomes


def _unwrap(outcome: MleResult | DegenerateFitError) -> MleResult:
    if isinstance(outcome, DegenerateFitError):
        raise outcome
    return outcome


def mle_alpha(dist: FrequencyDistribution, xmin: int) -> MleResult:
    """Maximum-likelihood exponent for the tail at a fixed xmin.

    Solves the score equation zeta'(alpha)/zeta(alpha) = -mean ln k
    (Clauset et al. 2009, App. B) by safeguarded Newton inside
    ALPHA_DOMAIN; the exponent is exact to well under 1e-6. This is the
    one-candidate, one-dataset case of the batch fit (_fit_batch). A tail
    whose likelihood still rises at the domain's upper end is degenerate.
    xmin must lie in [1, 2^62], the range of a level.
    """
    return _unwrap(_fit_batch([dist], xmin)[0])


def select_xmin(dist: FrequencyDistribution) -> MleResult:
    """Pick xmin by KS minimization over observed levels.

    Candidates are the populated levels except the top two (a fit needs a
    tail of at least two distinct levels beyond the candidate); ties in
    KS go to the smallest xmin, which keeps the most data. All candidates
    are fitted together, as the one-dataset case of the batch fit
    (_fit_batch); one pinned to the bracket edge is skipped. The full KS
    distance is computed only for candidates whose bound, their largest
    gap over the first _KS_HEAD levels of the tail, does not exceed the
    full distance of the candidate of least bound (see _least_ks); the
    others cannot hold the least distance, so the result, ties included,
    is that of a full scan.
    """
    return _unwrap(_fit_batch([dist])[0])


def _cpu_count() -> int:
    """CPUs in this process's affinity mask; 1 where there is no mask or no fork.

    Linux has both. Windows has neither, and macOS has no mask; there a
    forked child can also crash in system libraries that started threads
    in the parent.
    """
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _drain(job: Callable[[range], list[_T]], chunks: list[range], token: tuple[int, int]) -> list:
    """Outcomes (c, job(chunks[c]), None) of the chunks this worker claims.

    The pipe ``token`` holds one 8-byte word, the next chunk to claim. A
    worker that reads it holds it alone, and claims chunk c by writing
    back c + 1, so the chunks are claimed once each and in increasing
    order. The first chunk that raises ends the worker as (c, None,
    exception), and the worker writes len(chunks) back: every chunk below
    c is claimed already and runs, and no chunk is claimed after that,
    since no later replicate can change which exception the runner raises.
    """
    outcomes = []
    while True:
        c = int.from_bytes(os.read(token[0], 8), "little")
        os.write(token[1], min(c + 1, len(chunks)).to_bytes(8, "little"))
        if c == len(chunks):
            return outcomes
        try:
            outcomes.append((c, job(chunks[c]), None))
        except Exception as exc:  # handed to _replicates, which re-raises it
            os.read(token[0], 8)
            os.write(token[1], len(chunks).to_bytes(8, "little"))
            outcomes.append((c, None, exc))
            return outcomes


def _run_child(
    job: Callable[[range], list[_T]], chunks: list[range], token: tuple[int, int], cpu: int, fd: int,
) -> NoReturn:
    """Forked worker: pin to cpu, pickle the outcomes of its claims into fd, then exit.

    os._exit skips the interpreter's shutdown, so the child neither
    flushes stdio buffers copied from the caller nor returns into the
    caller's stack, whatever happens.
    """
    status = 1
    try:
        os.sched_setaffinity(0, {cpu})
        outcomes = _drain(job, chunks, token)
        with os.fdopen(fd, "wb") as pipe:
            pickle.dump(outcomes, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _replicates(job: Callable[[range], list[_T]], count: int, levels: int) -> list[_T]:
    """job(range(count)), computed in chunks of replicates on every CPU the process may use.

    job(rs) returns one result per replicate r in rs, in order, and
    raises the exception of the lowest r that fails. ``levels`` is the
    populated levels one replicate's data holds, or about as many: the
    size of its fit. Replicate 0 runs alone in the caller first, so that
    first-use costs such as lazy imports are paid once. The others are
    split into equal chunks of at most max(1, _CHUNK_ROWS // levels)
    consecutive replicates, which the job fits as one batch; the chunks
    depend on the inputs only. With one CPU (see _cpu_count) or one chunk
    after replicate 0, the chunks run in the caller too. A chunk batches
    its replicates' fits, so forking for as few as two chunks measured no
    slower than running them in the caller: fit mle --xmin auto on 12
    levels of 290 authors, 2 CPUs, 10 fresh-process pairs, median serial ->
    forked 66 -> 57 ms with 100 replicates and 63 -> 63 ms with 160.
    Otherwise W = min(CPUs, chunks after replicate 0) workers, the caller and
    W - 1 forked children, each pinned to its own CPU of the caller's
    mask until the run ends, claim the chunks one at a time in order
    through one token pipe (see _drain), so that a worker whose chunks
    ran faster takes more of them. The children inherit the caller's
    memory, sampler tables included, and send back only their pickled
    outcomes through a pipe each. No chunk is claimed once a chunk has
    failed, so chunks far above it, which a serial loop would not have
    reached, do not run. When chunks fail, the exception of the lowest
    failing chunk is raised: that of the lowest failing r, the one a
    serial loop would have raised. job(rs) must compute each r's result
    from r alone, so the results depend neither on W nor on the chunks.
    """
    parts = max(1, -(-(count - 1) // max(1, _CHUNK_ROWS // levels)))
    edges = [1 + c * (count - 1) // parts for c in range(parts + 1)]
    chunks = [range(1)] + [range(a, b) for a, b in zip(edges, edges[1:]) if a < b]
    first = job(chunks[0])
    workers = min(_cpu_count(), len(chunks) - 1)
    if workers <= 1:
        return first + [result for chunk in chunks[1:] for result in job(chunk)]
    # Left to the scheduler, a forked child on a 2-vCPU Linux VM often
    # shared the caller's CPU for most of a second while the other idled:
    # 5 of 12 trials of a 0.1 s loop ran at half speed. Pinned, 12 of 12
    # ran in parallel.
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    # Chunk 0 ran above: the token's first claim is chunk 1.
    token = os.pipe()
    os.write(token[1], (1).to_bytes(8, "little"))
    children = []
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(job, chunks, token, cpus[w % len(cpus)], write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        os.sched_setaffinity(0, {cpus[0]})
        outcomes = [(0, first, None)] + _drain(job, chunks, token)
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0:
                raise ChildProcessError(f"a replicate worker failed with wait status {status}")
            outcomes += pickle.loads(data)
    finally:
        os.sched_setaffinity(0, mask)
        for fd in token:
            os.close(fd)
        for pid, pipe in children:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for _, results, _ in outcomes for result in results]


def gof_bootstrap(
    dist: FrequencyDistribution,
    result: MleResult,
    n_boot: int,
    seed: int,
    reselect_xmin: bool = True,
) -> float:
    """Semi-parametric bootstrap p-value for the fitted tail model.

    Each replicate draws a same-size synthetic dataset (Clauset et al.
    2009, section 4.1): an author is resampled from the observed body
    below xmin with probability n_body / n, else drawn from the fitted
    model. One sampler table holds both (see _CdfTable), so a replicate
    is one tally of n uniforms. It is refit the same way the original was
    (select_xmin when reselect_xmin, else mle_alpha at the original
    xmin) and its KS recorded; the p-value is the fraction of replicate
    KS values at or above the observed one. Replicate r derives its
    generator from (seed, r, attempt), so the result does not depend on
    execution order: the replicates run in chunks on every CPU the
    process may use (see _replicates). A chunk's replicates are refit as
    one batch; those that fail to refit are redrawn with the next attempt
    and refit together, up to 10 attempts, and the lowest replicate that
    still fails raises. A batch fits each replicate exactly as alone, so
    the p-value is the same on any number of CPUs. A fitted alpha so
    close to 1 that a replicate draws a level beyond 2^62 cannot be
    bootstrapped, which is a DegenerateFitError.
    """
    if not 100 <= n_boot <= MAX_AUTHORS:
        raise InputError(f"n_boot must lie in [100, 2^62], got {n_boot}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    levels, counts = dist.populated_arrays
    body = levels[levels < result.xmin], counts[levels < result.xmin], dist.total_authors
    table = _CdfTable(PowerLawModel(result.alpha_hat, result.xmin), body)

    def replicate(r: int, attempt: int) -> FrequencyDistribution:
        try:
            tally = table.tally(np.random.default_rng((seed, r, attempt)), dist.total_authors)
        except InputError:
            raise DegenerateFitError(
                f"fitted alpha {table.model.alpha!r} cannot be bootstrapped: a replicate "
                "draws a level beyond 2^62"
            ) from None
        return FrequencyDistribution.from_arrays(*tally, name="bootstrap")

    def replicate_ks(rs: range) -> list[float]:
        """Refit KS of each replicate; those that fail to refit are redrawn and refit together."""
        ks: dict[int, float] = {}
        failures: dict[int, DegenerateFitError] = {}
        pending = list(rs)
        for attempt in range(10):
            if not pending:
                break
            drawn = {}
            for r in pending:
                try:
                    drawn[r] = replicate(r, attempt)
                except DegenerateFitError as exc:
                    failures[r] = exc
            refits = _fit_batch(list(drawn.values()), None if reselect_xmin else result.xmin)
            ks.update((r, fit.ks) for r, fit in zip(drawn, refits) if isinstance(fit, MleResult))
            pending = [r for r in drawn if r not in ks]
        for r in pending:
            failures[r] = DegenerateFitError(
                f"bootstrap replicate {r} could not be refit after 10 attempts"
            )
        if failures:
            raise failures[min(failures)]
        return [ks[r] for r in rs]

    ks_replicates = np.array(_replicates(replicate_ks, n_boot, len(levels)))
    return float(np.mean(ks_replicates >= result.ks))


def compare_methods(dist: FrequencyDistribution, cutoff: int) -> ComparisonReport:
    """Run the historical and modern estimators and report the gap.

    The historical side truncates at the cutoff and normalizes against
    the full author total; the modern side fits the untruncated data.
    A side that degenerates is reported as a failed-method note instead
    of aborting the comparison.
    """
    if cutoff < 1:
        raise InputError(f"cutoff must be >= 1, got {cutoff}")
    notes = []
    if cutoff <= dist.max_level:
        report = truncation_report(dist, cutoff)
        notes.append(
            f"right truncation at {cutoff} removes {report.pct_range:.2f}% of the "
            f"level range and {report.pct_works:.2f}% of works; author denominator "
            f"kept at the full total {dist.total_authors}"
        )
    else:
        notes.append(f"cutoff {cutoff} is at or beyond max level {dist.max_level}: no truncation")
    historical: FitResult | None
    try:
        historical = fit_historical(dist, cutoff, Denominator.FULL)
    except DegenerateFitError as exc:
        historical = None
        notes.append(f"historical fit failed: {exc}")
    modern: MleResult | None
    try:
        modern = select_xmin(dist)
    except DegenerateFitError as exc:
        modern = None
        notes.append(f"modern fit failed: {exc}")
    divergence = (
        abs(historical.exponent - modern.alpha_hat)
        if historical is not None and modern is not None
        else None
    )
    return ComparisonReport(
        historical=historical,
        modern=modern,
        cutoff_used=cutoff,
        divergence=divergence,
        notes="; ".join(notes),
    )


def bias_experiment(
    alpha: float,
    authors: int,
    cutoffs: list[int],
    replicates: int,
    seed: int,
) -> BiasTable:
    """Measure truncation-induced exponent error for both estimators.

    Each replicate samples a synthetic population from the true model,
    truncates it at each cutoff, and records (estimate - alpha) for the
    historical fit (full-total denominator) and for the KS-selected MLE
    on the truncated data. Replicate r draws from a generator derived
    from (seed, r), so the replicates run in chunks on every CPU the
    process may use (see _replicates), and the MLE fits of all a chunk's
    truncations run as one batch, each exactly as alone: the table is the
    same on any number of CPUs. The runner sizes its chunks from the
    populated levels of replicate 0's truncations, which is drawn first;
    the other replicates hold about as many. The errors are one array of
    replicates x cutoffs x (historical, MLE), NaN where a fit failed: a
    fit that succeeds is never NaN. Replicates where an estimator
    degenerates are left out of that estimator's summary; a cutoff where
    one estimator fails in every replicate is an error, raised for the
    first such cutoff, historical before MLE.
    """
    if not 10 <= replicates <= MAX_AUTHORS:
        raise InputError(f"replicates must lie in [10, 2^62], got {replicates}")
    if not 1 <= authors <= MAX_AUTHORS:
        raise InputError(f"authors must lie in [1, 2^62], got {authors}")
    if not cutoffs:
        raise InputError("need at least one cutoff")
    if any(c < 1 for c in cutoffs):
        raise InputError(f"cutoffs must be >= 1, got {cutoffs}")
    if len(set(cutoffs)) != len(cutoffs):
        raise InputError(f"cutoffs must be distinct, got {cutoffs}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    model = PowerLawModel(alpha, 1)
    table = _CdfTable(model)

    def draw(r: int) -> FrequencyDistribution:
        rng = np.random.default_rng((seed, r))
        return FrequencyDistribution.from_arrays(*table.tally(rng, authors), name="bias")

    first = draw(0)

    def replicate_errors(rs: range) -> list[np.ndarray]:
        """(historical, MLE) exponent error at each cutoff of each replicate; NaN where a fit fails.

        The MLE fits of every replicate's truncations run as one batch.
        """
        errors = np.full((len(rs), len(cutoffs), 2), np.nan)
        truncated: dict[tuple[int, int], FrequencyDistribution] = {}
        for i, r in enumerate(rs):
            population = first if r == 0 else draw(r)
            for j, cutoff in enumerate(cutoffs):
                with suppress(DegenerateFitError, InputError):
                    errors[i, j, 0] = fit_historical(population, cutoff, Denominator.FULL).exponent - alpha
                with suppress(InputError):
                    truncated[i, j] = truncate_right(population, cutoff)
        for (i, j), fit in zip(truncated, _fit_batch(list(truncated.values()))):
            if isinstance(fit, MleResult):
                errors[i, j, 1] = fit.alpha_hat - alpha
        return list(errors)

    top = first.populated_arrays[0]
    levels = max(1, sum(int(np.searchsorted(top, c, side="right")) for c in cutoffs))
    errors = np.array(_replicates(replicate_errors, replicates, levels))
    rows = []
    for cutoff, (hist, mle) in zip(cutoffs, errors.transpose(1, 2, 0)):
        hist, mle = hist[~np.isnan(hist)], mle[~np.isnan(mle)]
        for name, kept in (("historical", hist), ("modern", mle)):
            if not kept.size:
                raise DegenerateFitError(
                    f"cutoff {cutoff}: {name} fit degenerate in all {replicates} replicates"
                )
        rows.append(
            BiasRow(
                cutoff=cutoff,
                mean_hist_err=float(np.mean(hist)),
                sd_hist_err=float(np.std(hist, ddof=1)) if len(hist) > 1 else float("nan"),
                mean_mle_err=float(np.mean(mle)),
                sd_mle_err=float(np.std(mle, ddof=1)) if len(mle) > 1 else float("nan"),
                n_hist=len(hist),
                n_mle=len(mle),
            )
        )
    return BiasTable(
        alpha=float(alpha),
        authors=int(authors),
        replicates=int(replicates),
        seed=int(seed),
        rows=tuple(rows),
    )
