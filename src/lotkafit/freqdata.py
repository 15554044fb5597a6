"""Frequency-of-frequency data model for author productivity counts.

The central value type is :class:`FrequencyDistribution`: two read-only
int64 arrays, strictly increasing ``levels`` and their ``counts``, where
a level is a number of works and its count is how many people produced
exactly that many. Totals are exact Python ints computed once at
construction; every consumer reads the arrays, and a tail is a slice of
them. Ingestion from per-paper author records (checked column-wise:
one streaming CSV pass, then bulk checks), right truncation,
half-cutoff binning, and truncation reports all live here. Every
operation is a pure function on immutable values.
"""

from __future__ import annotations

import csv
import gc
import io
import operator
from dataclasses import asdict, dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

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
    "ingest_records",
    "from_author_records",
    "truncate_right",
    "truncation_report",
    "bin_histogram",
    "round_half_up",
]

DISTRIBUTION_HEADER = "level,count"
# Largest accepted level: every level, and twice any sampled level, then
# fits in an int64. Author counts and their total share the bound, so
# every sum of counts fits as well. Author positions in records share it.
MAX_LEVEL = MAX_AUTHORS = 1 << 62
# Most bins a histogram may have: 2^20 bins already take seconds and
# hundreds of MiB to build and write.
MAX_BINS = 1 << 20
RECORDS_HEADER = "paper_id,position,author"


def _parse_int(text: str) -> int:
    """Parse ASCII digits after an optional '-'; int() alone also takes ' +1_0 ' and '١'."""
    if text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit()):
        return int(text)
    raise ValueError(text)


def round_half_up(value: float, places: int = 2) -> float:
    """Round with ties going up, the way printed tables round.

    Python's builtin ``round`` uses banker's rounding, which would turn
    a printed 91.335 into 91.34 or 91.33 depending on parity; reports
    here always round half up.
    """
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass(frozen=True, init=False, eq=False)
class FrequencyDistribution:
    """Author counts per level as two read-only int64 arrays, plus a name.

    ``levels`` strictly increases within [1, 2^62]; ``counts[i]`` authors
    produced exactly ``levels[i]`` works. Counts are non-negative, one at
    least is positive, and they total at most 2^62, so no int64 sum over
    them wraps. Zero-count levels may be stored (they survive round
    trips) but are ignored by ``max_level`` and ``populated_arrays``.
    The totals are exact Python ints computed once. ``entries`` gives the
    ``(level, authors)`` pairs back. Equality and the hash compare the
    arrays; the name is a label only.
    """

    levels: np.ndarray
    counts: np.ndarray
    name: str
    total_authors: int = field(repr=False)
    total_works: int = field(repr=False)
    max_level: int = field(repr=False)

    def __init__(self, entries: Iterable[tuple[int, int]], name: str = "dist") -> None:
        rows = tuple(entries)
        self.__post_init__([row[0] for row in rows], [row[1] for row in rows], name)

    def __post_init__(self, levels: ArrayLike, counts: ArrayLike, name: str) -> None:
        """Check and store the 1-D arrays and their totals; every constructor ends here.

        The name is the dataclass hook's: bench/tracer.py times construction through it.
        """
        try:
            levels = np.array(levels, dtype=np.int64)
            counts = np.array(counts, dtype=np.int64)
        except OverflowError:  # beyond int64 is beyond the accepted range too
            raise InputError(_first_fault(zip(levels, counts))) from None
        valid = (levels >= 1) & (levels <= MAX_LEVEL) & (counts >= 0) & (counts <= MAX_AUTHORS)
        valid[1:] &= levels[1:] > levels[:-1]
        if not valid.all():
            raise InputError(_first_fault(zip(levels.tolist(), counts.tolist())))
        populated = np.flatnonzero(counts)
        if not len(populated):
            raise InputError("distribution has no populated level")
        total_authors, total_works = _exact_totals(levels, counts)
        if total_authors > MAX_AUTHORS:
            raise InputError(f"author total must be <= 2^62, got {total_authors}")
        levels.flags.writeable = counts.flags.writeable = False
        vars(self).update(levels=levels, counts=counts, name=name, total_works=total_works,
                          total_authors=total_authors, max_level=int(levels[populated[-1]]))

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[int, int] | Iterable[tuple[int, int]],
        name: str = "dist",
    ) -> "FrequencyDistribution":
        items = counts.items() if isinstance(counts, Mapping) else counts
        return cls(tuple(sorted((int(k), int(v)) for k, v in items)), name=name)

    @classmethod
    def from_arrays(
        cls, levels: ArrayLike, counts: ArrayLike, name: str = "dist"
    ) -> "FrequencyDistribution":
        """Build from parallel arrays of levels and author counts; both are copied."""
        dist = cls.__new__(cls)
        dist.__post_init__(levels, counts, name)
        return dist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyDistribution):
            return NotImplemented
        return np.array_equal(self.levels, other.levels) and np.array_equal(self.counts, other.counts)

    def __hash__(self) -> int:
        return hash((self.levels.tobytes(), self.counts.tobytes()))

    @cached_property
    def entries(self) -> tuple[tuple[int, int], ...]:
        """The ``(level, authors)`` pairs as Python ints, zero counts included."""
        return tuple(zip(self.levels.tolist(), self.counts.tolist()))

    @cached_property
    def populated_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (levels, counts) without the zero-count levels."""
        keep = self.counts > 0
        levels, counts = self.levels[keep], self.counts[keep]
        levels.flags.writeable = counts.flags.writeable = False
        return levels, counts

    @property
    def populated(self) -> tuple[tuple[int, int], ...]:
        """Entries with at least one author."""
        levels, counts = self.populated_arrays
        return tuple(zip(levels.tolist(), counts.tolist()))

    def authors_at(self, level: int) -> int:
        i = int(np.searchsorted(self.levels, level))
        return int(self.counts[i]) if i < len(self.levels) and self.levels[i] == level else 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)


def _first_fault(rows: Iterable[tuple[int, int]]) -> str:
    """Why the first invalid ``(level, authors)`` row, in order, is invalid."""
    previous = 0
    for level, authors in rows:
        if not 1 <= level <= MAX_LEVEL:
            return f"level must lie in [1, 2^62], got {level}"
        if not 0 <= authors <= MAX_AUTHORS:
            return f"author count must lie in [0, 2^62], got {authors} at level {level}"
        if level <= previous:
            return f"levels must be strictly increasing (level {level} out of order)"
        previous = level
    return "levels and author counts must be integers"


def _exact_totals(levels: np.ndarray, counts: np.ndarray) -> tuple[int, int]:
    """Sums of counts and of levels * counts as Python ints, which cannot wrap."""
    counts = counts.tolist()
    return sum(counts), sum(map(operator.mul, levels.tolist(), counts))


def _tally(draws: np.ndarray, name: str) -> FrequencyDistribution:
    """The distribution of sampled levels: each distinct level and how often it was drawn."""
    levels, counts = np.unique(draws, return_counts=True)
    return FrequencyDistribution.from_arrays(levels, counts, name=name)


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

    @classmethod
    def _checked(cls, paper_id: str, authors: tuple[str, ...]) -> "AuthorRecord":
        """A record from fields already stripped and checked, as _record_columns leaves them."""
        record = cls.__new__(cls)
        vars(record).update(paper_id=paper_id, authors=authors)
        return record

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
    pct_range: float
    removed_works: int
    pct_works: float
    removed_authors_from_denominator: int
    pct_authors: float
    removed_authors_physical: int

    def to_dict(self) -> dict:
        return asdict(self)


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
            level = _parse_int(parts[0])
            count = _parse_int(parts[1])
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


def _read(path: str | Path, parse):
    """parse(text, path) on a UTF-8 file; errors name the file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    try:
        return parse(text, path)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _write_text(path: str | Path, text: str) -> None:
    """Write text to a UTF-8 file; errors name the file, as in _read."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


def read_distribution(path: str | Path) -> FrequencyDistribution:
    return _read(path, lambda text, path: parse_distribution(text, name=path.stem))


def write_distribution(dist: FrequencyDistribution, path: str | Path) -> None:
    _write_text(path, serialize_distribution(dist))


def _record_columns(text: str) -> tuple[list[str], np.ndarray, list[str], np.ndarray]:
    """Check a records file; return its paper ids, positions, author names and paper codes.

    One row per (paper, author position); position 1 marks the senior
    author and every paper must have exactly one position-1 row. Rows
    stream from csv.reader into three column lists, and the columns are
    checked in bulk. Ids and names come back stripped, positions as
    int64, and each row's paper code is the index of the paper's first
    row, so codes order papers as the file first lists them. When a bulk
    check fails, _record_fault rescans the rows to word the first fault.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"empty input: expected header {RECORDS_HEADER!r}") from None
    except csv.Error as exc:
        raise InputError(f"line 1: {exc}") from None
    if [h.strip() for h in header] != RECORDS_HEADER.split(","):
        raise InputError(f"line 1: expected header {RECORDS_HEADER!r}, got {','.join(header)!r}")
    # Each row list is freed once read, so the cyclic GC never scans a large heap.
    papers: list[str] = []
    positions: list[str] = []
    authors: list[str] = []
    add_paper, add_position, add_author = papers.append, positions.append, authors.append
    try:
        for paper_id, position, author in reader:
            add_paper(paper_id)
            add_position(position)
            add_author(author)
    except (ValueError, csv.Error):  # a row without three fields, or one csv cannot read
        raise InputError(_record_fault(text)) from None
    if not papers:
        raise InputError("empty input: no data rows")
    papers, authors = list(map(str.strip, papers)), list(map(str.strip, authors))
    if not (all(papers) and all(authors) and all(map(str.isascii, positions))
            and all(map(str.isdigit, positions))):
        raise InputError(_record_fault(text))
    n = len(papers)
    try:
        pos = np.fromiter(map(int, positions), np.int64, n)
    except (OverflowError, ValueError):  # beyond int64, or beyond int()'s digit limit
        raise InputError(_record_fault(text)) from None
    ids: dict[str, int] = {}
    codes = np.fromiter(map(ids.setdefault, papers, range(n)), np.intp, n)
    order = np.lexsort((pos, codes))
    repeated = (np.diff(codes[order]) == 0) & (np.diff(pos[order]) == 0)
    # With no (paper, position) repeated, every paper has a position-1 row
    # exactly when there are as many position-1 rows as papers.
    seniors = np.count_nonzero(pos == 1)
    if pos.min() < 1 or pos.max() > MAX_LEVEL or repeated.any() or seniors != len(ids):
        raise InputError(_record_fault(text))
    return papers, pos, authors, codes


def _record_fault(text: str) -> str:
    """Why the first invalid row of a records file, in order, is invalid.

    These are the row-by-row checks of the records format, in their
    order. A fault names the 1-based physical line its row starts on,
    which differs from the row number once a quoted field spans lines.
    Only text whose header passed and whose rows failed a bulk check in
    _record_columns comes here.
    """
    reader = csv.reader(io.StringIO(text))
    next(reader)
    slots: dict[str, set[int]] = {}
    start = reader.line_num + 1
    try:
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row or (len(row) == 1 and not row[0].strip()):
                return f"line {lineno}: blank line"
            if len(row) != 3:
                return f"line {lineno}: expected 'paper_id,position,author', got {row!r}"
            paper_id = row[0].strip()
            if not paper_id:
                return f"line {lineno}: empty paper_id"
            try:
                position = _parse_int(row[1])
            except ValueError:
                return f"line {lineno}: position must be an integer, got {row[1]!r}"
            if position < 1:
                return f"line {lineno}: position must be >= 1, got {position}"
            if position > MAX_LEVEL:
                return f"line {lineno}: position must be <= 2^62, got {position}"
            if not row[2].strip():
                return f"line {lineno}: empty author name"
            held = slots.setdefault(paper_id, set())
            if position in held:
                return f"line {lineno}: duplicate position {position} for paper {paper_id!r}"
            held.add(position)
    except csv.Error as exc:
        return f"line {start}: {exc}"
    for paper_id, held in slots.items():
        if 1 not in held:
            return f"paper {paper_id!r} has no position-1 (senior) author row"
    raise AssertionError("records failed a bulk check, but no row is invalid")


def parse_records(text: str) -> list[AuthorRecord]:
    """Parse the ``paper_id,position,author`` file into author records.

    One record per paper, in the order the file first lists them, with
    its authors in position order. Fields containing commas may be
    quoted as in ordinary CSV. See _record_columns for the checks.
    """
    papers, positions, authors, codes = _record_columns(text)
    order = np.lexsort((positions, codes)).tolist()
    names = [authors[i] for i in order]
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1)).tolist()
    checked = AuthorRecord._checked
    # The records hold no reference cycles, and with the cyclic GC running,
    # its collections over the growing list took half of this loop.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return [
            checked(papers[order[start]], tuple(names[start:end]))
            for start, end in zip(starts, starts[1:] + [len(order)])
        ]
    finally:
        if collecting:
            gc.enable()


def read_records(path: str | Path) -> list[AuthorRecord]:
    return _read(path, lambda text, path: parse_records(text))


def ingest_records(path: str | Path, name: str = "records") -> FrequencyDistribution:
    """The senior-author distribution of a records file, with no per-paper objects.

    Equal to ``from_author_records(read_records(path), name)``; its
    ``total_works`` is the number of papers.
    """

    def tally(text: str, path: Path) -> FrequencyDistribution:
        _, positions, authors, _ = _record_columns(text)
        return _senior_tally(list(compress(authors, (positions == 1).tolist())), name)

    return _read(path, tally)


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
    for record in records:
        if record.paper_id in seen_ids:
            raise InputError(f"duplicate paper_id {record.paper_id!r}")
        seen_ids.add(record.paper_id)
    return _senior_tally([record.senior_author for record in records], name)


def _senior_tally(seniors: Sequence[str], name: str) -> FrequencyDistribution:
    """How many authors hold each number of credits, given one senior name per paper."""
    first: dict[str, int] = {}
    codes = np.fromiter(map(first.setdefault, seniors, range(len(seniors))), np.intp, len(seniors))
    # Credits sit at each name's first index; the zeros elsewhere tally at level 0.
    per_level = np.bincount(np.bincount(codes))
    per_level[0] = 0
    levels = np.flatnonzero(per_level)
    return FrequencyDistribution.from_arrays(levels, per_level[levels], name=name)


def truncate_right(dist: FrequencyDistribution, cutoff: int) -> FrequencyDistribution:
    """Drop every level above the cutoff.

    The author total of the result shrinks accordingly; callers that want
    Lotka's full-total denominator apply it at fitting time.
    """
    if cutoff < 1:
        raise InputError(f"cutoff must be >= 1, got {cutoff}")
    end = int(np.searchsorted(dist.levels, cutoff, side="right"))
    if not dist.counts[:end].any():
        raise InputError(f"cutoff {cutoff} leaves no populated levels")
    return FrequencyDistribution.from_arrays(dist.levels[:end], dist.counts[:end], name=dist.name)


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
    start = int(np.searchsorted(dist.levels, cutoff, side="right"))
    removed_authors, removed_works = _exact_totals(dist.levels[start:], dist.counts[start:])
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
    ``max_level``. At most 2^20 bins are built.
    """
    if bin_width < 1:
        raise InputError(f"bin width must be >= 1, got {bin_width}")
    n_bins = -(-dist.max_level // bin_width)
    if n_bins > MAX_BINS:
        raise InputError(
            f"bin width {bin_width} gives {n_bins} bins, more than 2^20; "
            f"the smallest width that fits is {-(-dist.max_level // MAX_BINS)}"
        )
    # A width beyond max_level gives one bin either way; clamping it keeps
    # the bin index in int64 for any width.
    width = min(bin_width, dist.max_level)
    levels, counts = dist.populated_arrays
    tallies = np.zeros(n_bins, dtype=np.int64)
    np.add.at(tallies, (levels - 1) // width, counts)
    percents = 100.0 * tallies / dist.total_authors
    top = n_bins * bin_width
    starts, ends = range(1, top + 1, bin_width), range(bin_width, top + 1, bin_width)
    return HistogramBins(bin_width, tuple(zip(starts, ends, tallies.tolist(), percents.tolist())))
