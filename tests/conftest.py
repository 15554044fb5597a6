import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.errors import InvalidArgument

from lotkafit import FrequencyDistribution

# On CI (GitHub Actions sets CI), a failing example also prints the
# @reproduce_failure line that replays it. Hypothesis versions that load
# a "ci" profile of their own there keep its other settings.
try:
    _ci = settings.get_profile("ci")
except InvalidArgument:
    _ci = settings.get_profile("default")
settings.register_profile("ci", _ci, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# Distributions whose marginals match the published full-distribution
# totals: 6891 authors / 22934 works / max 346, and 1325 / 3398 / 48.
CA_COUNTS = {1: 6312, 2: 42, 30: 424, 31: 112, 346: 1}
AUERBACH_COUNTS = {1: 493, 3: 818, 31: 13, 48: 1}


def rescan_bins(dist, bin_width):
    """Reference binning: rescan every entry for every bin."""
    n_bins = -(-dist.max_level // bin_width)  # exact: a float quotient rounds 2^62 / (2^62 - 1) to 1
    total = dist.total_authors
    bins = []
    for k in range(1, n_bins + 1):
        start = (k - 1) * bin_width + 1
        end = k * bin_width
        count = sum(a for level, a in dist.entries if start <= level <= end)
        bins.append((start, end, count, 100.0 * count / total))
    return tuple(bins)


def per_draw_levels(table, u: np.ndarray) -> np.ndarray:
    """Reference sampler: each uniform's level by a plain search of a _CdfTable, one per draw.

    A row of the table's body is that body level; the model's rows follow
    it, from xmin up. Levels beyond the table go through its
    _beyond_table; it raises where one lies beyond 2^62.
    """
    rows = np.searchsorted(table.cdf, u, side="left")
    body = rows < len(table.body)
    levels = table.model.xmin + rows - len(table.body)
    levels[body] = table.body[rows[body]]
    beyond = levels > table.last_level
    if beyond.any():
        levels[beyond] = table._beyond_table(u[beyond])
    return levels


def per_draw_distribution(draws: np.ndarray, name: str) -> FrequencyDistribution:
    """The distribution of per-draw levels: each distinct level and how often it was drawn."""
    return FrequencyDistribution.from_arrays(*np.unique(draws, return_counts=True), name=name)


@pytest.fixture
def random_fills(monkeypatch) -> list[int]:
    """How many uniforms each ``random`` call of every new numpy generator fills, in order."""
    fills: list[int] = []
    new_generator = np.random.default_rng

    class Spy:
        def __init__(self, seed) -> None:
            self.rng = new_generator(seed)

        def random(self, size=None, out=None):
            fills.append(out.size if out is not None else size)
            return self.rng.random(size=size, out=out)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    return fills


_acceptance_results: dict[str, tuple[str, str]] = {}


@pytest.fixture
def ca_dist() -> FrequencyDistribution:
    return FrequencyDistribution.from_counts(CA_COUNTS, name="chemical_abstracts")


@pytest.fixture
def auerbach_dist() -> FrequencyDistribution:
    return FrequencyDistribution.from_counts(AUERBACH_COUNTS, name="auerbach")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    cid, description = marker.args
    if report.when == "call":
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        _acceptance_results[cid] = (status, description)
    elif report.when == "setup" and (report.skipped or report.failed):
        _acceptance_results[cid] = ("SKIP" if report.skipped else "FAIL", description)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for cid in sorted(_acceptance_results, key=lambda c: int(c.lstrip("C"))):
        status, description = _acceptance_results[cid]
        terminalreporter.write_line(f"{cid} {status}: {description}")
