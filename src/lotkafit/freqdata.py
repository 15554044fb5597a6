"""Frequency-of-frequency data model for author productivity counts.

The central value type is :class:`FrequencyDistribution`: an immutable,
sorted sequence of ``(level, authors)`` pairs, where ``level`` is a number
of works and ``authors`` is how many people produced exactly that many.
Ingestion from per-paper author records, right truncation, half-cutoff
binning, and truncation reports all live here. Every operation is a pure
function on immutable values.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import InputError

__all__ = [
    "FrequencyDistribution",
    "AuthorRecord",
    "TruncationReport",
    "HistogramBins",
    "parse_distribution",
    "serialize_distribution",
    "read_distribution",
    "write_distribution",
    "parse_records",
    "read_records",
    "from_author_records",
    "truncate_right",
    "truncation_report",
    "bin_histogram",
    "round_half_up",
]

DISTRIBUTION_HEADER = "level,count"
# Largest accepted level: every level, and twice any sampled level, then
# fits in an int64.
MAX_LEVEL = 1 << 62
RECORDS_HEADER = "paper_id,position,author"


def round_half_up(value: float, places: int = 2) -> float:
    """Round with ties going up, the way printed tables round.

    Python's builtin ``round`` uses banker's rounding, which would turn
    a printed 91.335 into 91.34 or 91.33 depending on parity; reports
    here always round half up.
    """
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class FrequencyDistribution:
    """Sorted ``(level, authors)`` pairs plus a display name.

    Levels are strictly increasing positive integers no larger than 2^62;
    author counts are non-negative integers with at least one positive
    entry. Zero-count levels may be stored (they survive round trips) but
    are ignored by ``max_level``. The name is a label only and does not take part in
    equality.
    """

    entries: tuple[tuple[int, int], ...]
    name: str = field(default="dist", compare=False)

    def __post_init__(self) -> None:
        cleaned = []
        previous = 0
        for level, authors in self.entries:
            level = int(level)
            authors = int(authors)
            if level < 1:
                raise InputError(f"level must be >= 1, got {level}")
            if level > MAX_LEVEL:
                raise InputError(f"level must be <= 2^62, got {level}")
            if authors < 0:
                raise InputError(f"author count must be >= 0, got {authors} at level {level}")
            if level <= previous:
                raise InputError(f"levels must be strictly increasing (level {level} out of order)")
            previous = level
            cleaned.append((level, authors))
        if not any(authors > 0 for _, authors in cleaned):
            raise InputError("distribution has no populated level")
        object.__setattr__(self, "entries", tuple(cleaned))

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[int, int] | Iterable[tuple[int, int]],
        name: str = "dist",
    ) -> "FrequencyDistribution":
        items = counts.items() if isinstance(counts, Mapping) else counts
        return cls(tuple(sorted((int(k), int(v)) for k, v in items)), name=name)

    @property
    def total_authors(self) -> int:
        return sum(a for _, a in self.entries)

    @property
    def total_works(self) -> int:
        return sum(level * a for level, a in self.entries)

    @property
    def max_level(self) -> int:
        return max(level for level, a in self.entries if a > 0)

    @property
    def populated(self) -> tuple[tuple[int, int], ...]:
        """Entries with at least one author."""
        return tuple((level, a) for level, a in self.entries if a > 0)

    def authors_at(self, level: int) -> int:
        for lv, a in self.entries:
            if lv == level:
                return a
        return 0

    def as_dict(self) -> dict[int, int]:
        return {level: a for level, a in self.entries}


@dataclass(frozen=True)
class AuthorRecord:
    """One paper with its ordered author list; position 1 is the senior author."""

    paper_id: str
    authors: tuple[str, ...]

    def __post_init__(self) -> None:
        paper_id = self.paper_id.strip()
        if not paper_id:
            raise InputError("paper_id must be non-empty")
        names = tuple(name.strip() for name in self.authors)
        if not names or any(not name for name in names):
            raise InputError(f"paper {paper_id!r} has an empty author name")
        object.__setattr__(self, "paper_id", paper_id)
        object.__setattr__(self, "authors", names)

    @property
    def senior_author(self) -> str:
        return self.authors[0]


@dataclass(frozen=True)
class TruncationReport:
    """What a right truncation removes, in counts and percentages.

    ``removed_authors_from_denominator`` is identically zero: truncation
    keeps the full author total as the normalization denominator, so no
    author leaves the denominator. The count of persons who physically
    sit above the cutoff is carried separately for transparency.
    """

    cutoff: int
    removed_level_range: int
    removed_works: int
    removed_authors_from_denominator: int
    pct_range: float
    pct_works: float
    pct_authors: float
    removed_authors_physical: int

    def to_dict(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "removed_level_range": self.removed_level_range,
            "pct_range": self.pct_range,
            "removed_works": self.removed_works,
            "pct_works": self.pct_works,
            "removed_authors_from_denominator": self.removed_authors_from_denominator,
            "pct_authors": self.pct_authors,
            "removed_authors_physical": self.removed_authors_physical,
        }


@dataclass(frozen=True)
class HistogramBins:
    """Fixed-width author-count bins covering levels 1 through the top bin edge.

    Bin k covers levels [(k-1)*width + 1, k*width]. Percentages are against
    the distribution's full author total and are not rounded.
    """

    bin_width: int
    bins: tuple[tuple[int, int, int, float], ...]

    @property
    def total_authors(self) -> int:
        return sum(count for _, _, count, _ in self.bins)


def parse_distribution(text: str, name: str = "dist") -> FrequencyDistribution:
    """Parse the ``level,count`` file format into a distribution.

    Duplicate levels are rejected; levels need not arrive sorted. Errors
    report the offending 1-based line number.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise InputError("empty input: expected header 'level,count'")
    header = lines[0].rstrip("\r")
    if header != DISTRIBUTION_HEADER:
        raise InputError(f"line 1: expected header {DISTRIBUTION_HEADER!r}, got {header!r}")
    counts: dict[int, int] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.rstrip("\r")
        if not line.strip():
            raise InputError(f"line {lineno}: blank line")
        parts = line.split(",")
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'integer,integer', got {line!r}")
        try:
            level = int(parts[0])
            count = int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: expected 'integer,integer', got {line!r}") from None
        if level < 1:
            raise InputError(f"line {lineno}: level must be >= 1, got {level}")
        if count < 0:
            raise InputError(f"line {lineno}: count must be >= 0, got {count}")
        if level in counts:
            raise InputError(f"line {lineno}: duplicate level {level}")
        counts[level] = count
    if not counts:
        raise InputError("empty input: no data rows")
    return FrequencyDistribution.from_counts(counts, name=name)


def serialize_distribution(dist: FrequencyDistribution) -> str:
    """Inverse of :func:`parse_distribution`; levels come out sorted."""
    rows = [DISTRIBUTION_HEADER]
    rows.extend(f"{level},{count}" for level, count in dist.entries)
    return "\n".join(rows) + "\n"


def read_distribution(path: str | Path) -> FrequencyDistribution:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    try:
        return parse_distribution(text, name=path.stem)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def write_distribution(dist: FrequencyDistribution, path: str | Path) -> None:
    Path(path).write_text(serialize_distribution(dist), encoding="utf-8")


def parse_records(text: str) -> list[AuthorRecord]:
    """Parse the ``paper_id,position,author`` file into author records.

    One row per (paper, author position); position 1 marks the senior
    author and every paper must have exactly one position-1 row. Fields
    containing commas may be quoted as in ordinary CSV.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"empty input: expected header {RECORDS_HEADER!r}") from None
    if [h.strip() for h in header] != RECORDS_HEADER.split(","):
        raise InputError(f"line 1: expected header {RECORDS_HEADER!r}, got {','.join(header)!r}")
    by_paper: dict[str, dict[int, str]] = {}
    order: list[str] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            raise InputError(f"line {lineno}: blank line")
        if len(row) != 3:
            raise InputError(f"line {lineno}: expected 'paper_id,position,author', got {row!r}")
        paper_id = row[0].strip()
        if not paper_id:
            raise InputError(f"line {lineno}: empty paper_id")
        try:
            position = int(row[1])
        except ValueError:
            raise InputError(f"line {lineno}: position must be an integer, got {row[1]!r}") from None
        if position < 1:
            raise InputError(f"line {lineno}: position must be >= 1, got {position}")
        author = row[2].strip()
        if not author:
            raise InputError(f"line {lineno}: empty author name")
        if paper_id not in by_paper:
            by_paper[paper_id] = {}
            order.append(paper_id)
        slots = by_paper[paper_id]
        if position in slots:
            raise InputError(f"line {lineno}: duplicate position {position} for paper {paper_id!r}")
        slots[position] = author
    if not by_paper:
        raise InputError("empty input: no data rows")
    records = []
    for paper_id in order:
        slots = by_paper[paper_id]
        if 1 not in slots:
            raise InputError(f"paper {paper_id!r} has no position-1 (senior) author row")
        records.append(AuthorRecord(paper_id, tuple(slots[p] for p in sorted(slots))))
    return records


def read_records(path: str | Path) -> list[AuthorRecord]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    try:
        return parse_records(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def from_author_records(
    records: Sequence[AuthorRecord], name: str = "records"
) -> FrequencyDistribution:
    """Aggregate per-paper records into a frequency-of-frequency distribution.

    Each paper credits exactly one person: its senior (first-listed)
    author. Authors who are never senior do not appear at all.
    """
    if not records:
        raise InputError("no records given")
    seen_ids = set()
    credits: Counter[str] = Counter()
    for record in records:
        if record.paper_id in seen_ids:
            raise InputError(f"duplicate paper_id {record.paper_id!r}")
        seen_ids.add(record.paper_id)
        credits[record.senior_author] += 1
    level_counts = Counter(credits.values())
    return FrequencyDistribution.from_counts(level_counts, name=name)


def truncate_right(dist: FrequencyDistribution, cutoff: int) -> FrequencyDistribution:
    """Drop every level above the cutoff.

    The author total of the result shrinks accordingly; callers that want
    Lotka's full-total denominator apply it at fitting time.
    """
    if cutoff < 1:
        raise InputError(f"cutoff must be >= 1, got {cutoff}")
    kept = tuple((level, a) for level, a in dist.entries if level <= cutoff)
    if not any(a > 0 for _, a in kept):
        raise InputError(f"cutoff {cutoff} leaves no populated levels")
    return FrequencyDistribution(kept, name=dist.name)


def truncation_report(dist: FrequencyDistribution, cutoff: int) -> TruncationReport:
    """Measure what truncating at ``cutoff`` removes, against the full totals.

    Percentages are rounded half up to two decimals. Authors are never
    removed from the denominator, so that column is identically zero.
    """
    if cutoff < 1:
        raise InputError(f"cutoff must be >= 1, got {cutoff}")
    max_level = dist.max_level
    if cutoff > max_level:
        raise InputError(f"cutoff {cutoff} exceeds max level {max_level}")
    removed_range = max_level - cutoff
    removed_works = sum(level * a for level, a in dist.entries if level > cutoff)
    removed_authors = sum(a for level, a in dist.entries if level > cutoff)
    return TruncationReport(
        cutoff=cutoff,
        removed_level_range=removed_range,
        removed_works=removed_works,
        removed_authors_from_denominator=0,
        pct_range=round_half_up(100.0 * removed_range / max_level),
        pct_works=round_half_up(100.0 * removed_works / dist.total_works),
        pct_authors=0.0,
        removed_authors_physical=removed_authors,
    )


def bin_histogram(dist: FrequencyDistribution, bin_width: int) -> HistogramBins:
    """Tally authors into fixed-width level bins starting at level 1.

    Empty bins are kept so that the bins partition [1, top edge]; the
    top edge is the smallest multiple of ``bin_width`` covering
    ``max_level``.
    """
    if bin_width < 1:
        raise InputError(f"bin width must be >= 1, got {bin_width}")
    n_bins = math.ceil(dist.max_level / bin_width)
    total = dist.total_authors
    bins = []
    for k in range(1, n_bins + 1):
        start = (k - 1) * bin_width + 1
        end = k * bin_width
        count = sum(a for level, a in dist.entries if start <= level <= end)
        bins.append((start, end, count, 100.0 * count / total))
    return HistogramBins(bin_width=bin_width, bins=tuple(bins))
