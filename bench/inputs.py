"""Seeded input files for the benchmark workloads.

Author levels are numpy ``Generator.zipf(2.0)`` draws; lotkafit's own
sampler is never used, so a change to it cannot change the inputs. The
sample statistics that set a run's cost are conditioned, because
otherwise a handful of extreme draws decides what a run costs:

* the maximum level is pinned at the most likely maximum of ``n`` draws.
  The maximum sets the KS span, the histogram bin count and which KS
  branch runs, and unconditioned it spans more than a decade between
  seeds;
* a workload whose cost follows the fitted exponent holds the mean log
  level, the sufficient statistic of the exponent's MLE at xmin 1, within
  0.001 of its expectation; a workload whose cost follows the file size
  holds the total number of papers within 1% of a target.

Everything else stays random in the seed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

ALPHA = 2.0


def typical_max(n: int) -> int:
    """Mode of the largest of n zipf(2) draws.

    P(X >= x) ~ c / x with c = 6 / pi^2, so P(max < x) ~ exp(-c n / x),
    whose density peaks at x = c n / 2.
    """
    return round(3.0 * n / math.pi**2)


def zipf_levels(
    rng: np.random.Generator, n: int, max_level: int, accept=None
) -> np.ndarray:
    """n zipf(2) levels whose maximum is max_level.

    n - 1 draws are conditioned on being at most max_level, and one level
    sits at max_level. With accept, whole samples are redrawn until
    accept(levels) holds.
    """
    for _ in range(10_000):
        levels = rng.zipf(ALPHA, n - 1)
        over = levels > max_level
        while over.any():
            levels[over] = rng.zipf(ALPHA, int(over.sum()))
            over = levels > max_level
        levels = np.append(levels, max_level)
        if accept is None or accept(levels):
            return levels
    raise RuntimeError(f"no sample of {n} levels met the condition in 10,000 draws")


def works_near(total: int):
    """Accepts samples whose level sum is within 1% of total."""
    return lambda levels: abs(int(levels.sum()) - total) <= 0.01 * total


def mean_log_near_expected(n: int, max_level: int):
    """Accepts samples whose mean log level is within 0.001 of its expectation.

    At xmin 1 the discrete power-law MLE solves zeta'(a)/zeta(a) = -mean
    ln k, so this pins the fitted exponent to about +-0.001 (its sampling
    spread at 6,891 authors is about 0.012).
    """
    k = np.arange(1, max_level + 1, dtype=float)
    weights = k**-ALPHA
    conditional = float((np.log(k) * weights).sum() / weights.sum())
    expected = ((n - 1) * conditional + math.log(max_level)) / n
    return lambda levels: abs(float(np.log(levels).mean()) - expected) <= 0.001


def write_distribution(path, levels: np.ndarray) -> dict:
    """Tally levels into a ``level,count`` file; returns the input's shape."""
    values, counts = np.unique(levels, return_counts=True)
    rows = "".join(f"{v},{c}\n" for v, c in zip(values.tolist(), counts.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("level,count\n" + rows)
    return {
        "authors": int(counts.sum()),
        "levels": int(values.size),
        "max_level": int(values[-1]),
        "works": int((values * counts).sum()),
    }


def _author_name(i: int) -> str:
    # Every eighth name has a comma, so the CSV writer quotes it.
    return f"Author{i}, J." if i % 8 == 0 else f"Author {i}"


def write_records(path, rng: np.random.Generator, levels: np.ndarray) -> dict:
    """Write ``paper_id,position,author`` rows: author i is senior on levels[i] papers.

    Papers appear in shuffled order, each with 0 to 3 co-authors drawn
    from the senior authors and an equal number of never-senior names.
    Returns the shape: senior authors, papers and rows.
    """
    n = len(levels)
    seniors = rng.permutation(np.repeat(np.arange(n), levels))
    n_coauthors = rng.integers(0, 4, size=seniors.size)
    coauthors = rng.integers(0, 2 * n, size=int(n_coauthors.sum())).tolist()
    rows = 0
    taken = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["paper_id", "position", "author"])
        for paper, (senior, k) in enumerate(zip(seniors.tolist(), n_coauthors.tolist())):
            paper_id = f"P{paper:07d}"
            batch = [(paper_id, 1, _author_name(senior))]
            batch.extend(
                (paper_id, position, _author_name(c) if c < n else f"Coauthor {c}")
                for position, c in enumerate(coauthors[taken : taken + k], start=2)
            )
            taken += k
            writer.writerows(batch)
            rows += len(batch)
    return {"authors": n, "papers": int(seniors.size), "rows": rows}
