"""Frequency-of-frequency data model for author productivity counts.

The central value type is :class:`FrequencyDistribution`: two read-only
int64 arrays, strictly increasing ``levels`` and their ``counts``, where
a level is a number of works and its count is how many people produced
exactly that many. Totals are exact Python ints computed once at
construction; every consumer reads the arrays, and a tail is a slice of
them. Ingestion from per-paper author records, right truncation,
half-cutoff binning, and truncation reports all live here. A records
file's bytes are read once and tokenized in bulk, one 64 KiB block at a
time, into int32 columns allocated once, and ids and names are grouped
from their byte spans (only the first of each run of byte-equal adjacent
ids hashed and sorted), so ingesting holds the file, the columns' 24
bytes a row and temporaries that do not grow with the file, and makes no
string per field; csv.reader reads the whole file instead as soon as a
block holds a row whose quoting or bytes the bulk pass cannot prove it
would read the same way, so the tokenizer judges each block whole. A
``level,count`` file is likewise read in one vectorized pass when its
rows are plain digits, and line by line otherwise. Every reader, of a
file or of a str, first makes CRLF and a lone CR into LF, in one place
(_newlines), so a str reads exactly as the same bytes in a file do.
Every operation is a pure function on immutable values.
"""

from __future__ import annotations

import codecs
import csv
import gc
import io
import operator
import os
from dataclasses import asdict, dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property
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
_NOT_INTEGERS = "levels and author counts must be integers"
_NOT_PARALLEL = "levels and author counts must be 1-D arrays of equal length"


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
        try:
            levels, counts = [level for level, _ in rows], [count for _, count in rows]
        except (TypeError, ValueError):  # an entry that is no pair
            raise InputError("entries must be (level, author count) pairs") from None
        self.__post_init__(levels, counts, name)

    def __post_init__(self, levels: ArrayLike, counts: ArrayLike, name: str) -> None:
        """Check and store the 1-D arrays and their totals; every constructor ends here.

        The name is the dataclass hook's: bench/tracer.py times construction through it.
        """
        try:
            levels, counts = _exact(levels), _exact(counts)
        except ValueError:  # ragged nesting
            raise InputError(_NOT_PARALLEL) from None
        if levels.ndim != 1 or levels.shape != counts.shape:
            raise InputError(_NOT_PARALLEL)
        try:
            levels, counts = _integers(levels), _integers(counts)
        except TypeError:
            raise InputError(_NOT_INTEGERS) from None
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
        try:  # sorted as given: the constructor checks each pair and converts none
            entries = sorted(counts.items() if isinstance(counts, Mapping) else counts)
        except (TypeError, ValueError):  # levels, or a repeated level's counts, that do not compare
            raise InputError(_NOT_INTEGERS) from None
        return cls(entries, name=name)

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
    return _NOT_INTEGERS


def _exact(values: ArrayLike) -> np.ndarray:
    """values as an array that holds each value exactly.

    Where np.asarray would pick float64 for a list of Python numbers, as
    for ints beside a float or an int in [2^63, 2^64) beside others, the
    values are kept as the objects they are, so that no int is rounded
    before it is checked.
    """
    array = np.asarray(values)
    if array.dtype.kind == "f" and not isinstance(values, np.ndarray):
        return np.array(values, dtype=object)
    return array


def _integers(values: ArrayLike) -> ArrayLike:
    """values if they are an int array, else a list of their exact ints; a
    TypeError for any that is no integer, such as 1.5 or "1" (2.0 is one)."""
    array = _exact(values)
    if array.dtype.kind == "i":
        return array
    return [int(v) if isinstance(v, (float, np.floating)) and v.is_integer() else operator.index(v)
            for v in array.tolist()]


def _exact_totals(levels: np.ndarray, counts: np.ndarray) -> tuple[int, int]:
    """Sums of counts and of levels * counts as Python ints, which cannot wrap."""
    counts = counts.tolist()
    return sum(counts), sum(map(operator.mul, levels.tolist(), counts))


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


@dataclass(frozen=True, init=False, eq=False)
class HistogramBins:
    """Fixed-width author-count bins covering levels 1 through the top bin edge.

    Bin k covers levels [(k-1)*width + 1, k*width]. ``counts`` (int64)
    and ``percents`` (float64) are read-only arrays with one entry per
    bin, empty bins included; percentages are against the distribution's
    full author total and are not rounded. ``bins`` gives the
    ``(start, end, authors, percent)`` rows back as Python numbers, and
    ``total_authors`` is their exact sum of authors. Equality compares
    the width and both arrays.
    """

    bin_width: int
    counts: np.ndarray
    percents: np.ndarray

    def __init__(self, bin_width: int, bins: Iterable[tuple[int, int, int, float]]) -> None:
        rows = tuple(bins)
        try:
            edges = [(start, end) for start, end, _, _ in rows]
        except (TypeError, ValueError):  # a row that is no 4-tuple
            raise InputError("bins must be (start, end, authors, percent) rows") from None
        self.__post_init__(bin_width, [row[2] for row in rows], [row[3] for row in rows])
        if edges != [row[:2] for row in self.bins]:
            raise InputError(f"bins must tile the levels from 1 in steps of the bin width {bin_width}")

    def __post_init__(self, bin_width: int, counts: ArrayLike, percents: ArrayLike) -> None:
        """Check and store read-only copies of the per-bin arrays; every constructor ends here."""
        try:
            bin_width = operator.index(bin_width)
            counts = np.array(_integers(counts), dtype=np.int64)
            percents = np.array(percents, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise InputError("bin width and author counts must be integers, percents numbers") from None
        if bin_width < 1:
            raise InputError(f"bin width must be >= 1, got {bin_width}")
        if counts.ndim != 1 or counts.shape != percents.shape:
            raise InputError("bin author counts and percents must be 1-D arrays of equal length")
        counts.flags.writeable = percents.flags.writeable = False
        vars(self).update(bin_width=bin_width, counts=counts, percents=percents)

    @classmethod
    def from_arrays(cls, bin_width: int, counts: ArrayLike, percents: ArrayLike) -> "HistogramBins":
        """Build from per-bin author counts and percents, bin 1 first; both are copied."""
        bins = cls.__new__(cls)
        bins.__post_init__(bin_width, counts, percents)
        return bins

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistogramBins):
            return NotImplemented
        return (self.bin_width == other.bin_width and np.array_equal(self.counts, other.counts)
                and np.array_equal(self.percents, other.percents))

    def __hash__(self) -> int:
        # Equal bins have equal counts; percents could differ in bytes alone (0.0 and -0.0).
        return hash((self.bin_width, self.counts.tobytes()))

    @cached_property
    def bins(self) -> tuple[tuple[int, int, int, float], ...]:
        """The ``(start, end, authors, percent)`` rows as Python numbers, empty bins included."""
        width, top = self.bin_width, len(self.counts) * self.bin_width
        return tuple(zip(range(1, top + 1, width), range(width, top + 1, width),
                         self.counts.tolist(), self.percents.tolist()))

    @cached_property
    def total_authors(self) -> int:
        return sum(self.counts.tolist())


def parse_distribution(text: str, name: str = "dist") -> FrequencyDistribution:
    """Parse the ``level,count`` file format into a distribution.

    Duplicate levels are rejected; levels need not arrive sorted. Errors
    report the offending 1-based line number. The text is encoded once,
    its newlines made LF as a file's are (see _newlines), and read in
    bulk (see _bulk_rows); what the bulk pass does not take is read line
    by line.
    """
    return _distribution(_newlines(text.encode("utf-8", "surrogatepass") + bytes(8)), name)


def _distribution(data: bytes, name: str) -> FrequencyDistribution:
    """parse_distribution on a file's bytes, followed by 8 zero bytes."""
    rows = _bulk_rows(data)
    if rows is None:
        return _parse_lines(_text(data), name)
    return FrequencyDistribution.from_arrays(*rows, name=name)


def _bulk_rows(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The levels and counts of a ``level,count`` file, sorted by level; None
    if _parse_lines must read it.

    data is the file's bytes followed by 8 zero bytes. Taken is only
    input that _parse_lines reads the same way: the exact header line,
    then rows of two runs of 1 to 18 ASCII digits split by one comma,
    each ended by an LF (the last may end the file instead), every level
    at least 1 and none repeated. Anything else, such as a sign, a blank
    line or 19 digits, is left to the line loop, which words every error.
    """
    size = len(data) - 8
    head = len(DISTRIBUTION_HEADER) + 1
    # With the digits, commas and LFs deleted, only the header's letters
    # and the 8 zero bytes may remain.
    if (
        size <= head
        or not data.startswith(b"level,count\n")
        or data.translate(None, b"0123456789,\n") != b"levelcount" + bytes(8)
    ):
        return None
    view = np.frombuffer(data, dtype=np.uint8)
    marks = np.flatnonzero(view[head:size] < 48) + head  # the commas and LFs
    if data[size - 1] != 10:
        marks = np.append(marks, size)
    # Each row holds one comma, then its LF: the marks alternate from a
    # comma, and each ends a field that starts one past the mark before.
    # The last mark, an LF or the end, is never a comma.
    if (view[marks[0::2]] != 44).any() or (view[marks[1:-1:2]] != 10).any():
        return None
    fields, digits, _ = _parse_digits(view, np.concatenate(([head], marks[:-1] + 1)), marks)
    if not digits:
        return None
    levels, counts = fields[0::2], fields[1::2]
    order = np.argsort(levels)
    levels, counts = levels[order], counts[order]
    if levels[0] < 1 or (np.diff(levels) == 0).any():
        return None
    return levels, counts


def _parse_lines(text: str, name: str) -> FrequencyDistribution:
    """parse_distribution one line at a time: the reference reading, and
    the only one that words an error. Lines end in LF alone, as
    _newlines leaves them."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise InputError("empty input: expected header 'level,count'")
    header = lines[0]
    if header != DISTRIBUTION_HEADER:
        raise InputError(f"line 1: expected header {DISTRIBUTION_HEADER!r}, got {header!r}")
    counts: dict[int, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
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
    pairs = np.stack((dist.levels, dist.counts), axis=1).ravel().tolist()
    return f"{DISTRIBUTION_HEADER}\n" + "%d,%d\n" * len(dist.levels) % tuple(pairs)


def _read(path: str | Path, parse):
    """parse(data, path) on a UTF-8 file's bytes; errors name the file.

    data is one bytearray that holds the file and 8 zero bytes after it.
    It is sized from the file's reported size and read into in place, so
    the file is held once; what lies beyond that size, such as a pipe's
    bytes, is appended, and a file shorter than it leaves no gap. Once
    checked as UTF-8, its newlines are made LF (see _newlines).
    """
    path = Path(path)
    try:
        with open(path, "rb") as file:
            size = os.fstat(file.fileno()).st_size
            data = bytearray(size + 8)
            filled = 0
            with memoryview(data) as view:
                while filled < size and (got := file.readinto(view[filled:size])):
                    filled += got
            rest = file.read()
        if filled < size or rest:
            data[filled:] = rest + bytes(8)
        if not data.isascii():
            start, size = 0, len(data) - 8
            with memoryview(data) as view:
                while start < size:
                    end = min(start + _UTF8_BLOCK, size)
                    start += codecs.utf_8_decode(view[start:end], "strict", end == size)[1]
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 ({exc.reason} at byte {start + exc.start})") from None
    data = _newlines(data)
    try:
        return parse(data, path)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _newlines(data: bytes) -> bytes:
    """data with each CRLF and each lone CR made LF, as text mode's universal newlines make them.

    Every reader, of a file or of a str, takes its bytes through here, so
    no tokenizer sees a CR. A CR byte is never part of a longer UTF-8
    sequence, and surrogatepass-encoded text holds none either.
    """
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _text(data: bytes) -> str:
    """The text of data, but for its 8 trailing zero bytes."""
    with memoryview(data) as view:
        return str(view[:-8], "utf-8", "surrogatepass")


def _write_text(path: str | Path, text: str) -> None:
    """Write text to a UTF-8 file; errors name the file, as in _read."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None


def read_distribution(path: str | Path) -> FrequencyDistribution:
    return _read(path, lambda data, path: _distribution(data, path.stem))


def write_distribution(dist: FrequencyDistribution, path: str | Path) -> None:
    _write_text(path, serialize_distribution(dist))


# The characters str.strip() removes: the ASCII whitespace, with
# \x1c-\x1f, which bytes.strip() keeps, and these code points beyond it.
# Every byte of _SPACES is at most ord(" ").
_SPACES = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_UNICODE_SPACES = np.array(
    [0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000]
)
# Longest position, level or count the bulk passes parse: 18 digits stay below 10^18 < 2^62.
_BULK_DIGITS = 18
# Bytes the bulk pass tokenizes at a time. Its largest temporaries, the
# int64 offsets of a block's commas, newlines and quotes and the (3, 2,
# rows) int64 spans of its fields, then stay under glibc's default 128 KiB
# mmap threshold for rows of about 25 bytes, so every block reuses the
# heap's pages: with 256 KiB blocks the tokenizer took 6,300 minor page
# faults on a 7 MB file, and 24 with these.
_BLOCK = 1 << 16
# Rows grouped and checked at a time once tokenized; their int64
# temporaries stay under the same threshold.
_ROW_BLOCK = 1 << 13
# Byte offsets, spans and row indices are int32 in a file read into fewer
# bytes than this, 8 zero bytes included, and int64 in a larger one.
_OFFSET_LIMIT = 1 << 31
# Bytes _read checks as UTF-8 at a time; at least 4, the longest character.
_UTF8_BLOCK = 1 << 16
# _LOW_BYTES[k] keeps the first k bytes of a little-endian 8-byte word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _record_columns(data: bytes) -> tuple[bytes, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check a records file; return its bytes, positions, paper and author spans, codes and order.

    data is the file's UTF-8 bytes followed by 8 zero bytes. One row per
    (paper, author position); position 1 marks the senior author and
    every paper must have exactly one position-1 row. The bytes are
    tokenized in bulk, one newline-aligned block of about _BLOCK bytes at
    a time, so the tokenizer's temporaries never grow with the file:
    LFs end lines (_newlines made every newline one), the two commas of a
    line that lie outside quotes end its fields, a field wholly inside a
    pair of quotes is read without them, the ASCII spaces str.strip()
    removes are stripped from ids and names, and positions are parsed
    from their digits. Each block keeps only its rows' positions and id
    and name spans. The whole file goes to csv.reader instead, as soon as
    a block holds a row the bulk pass cannot prove that csv.reader would
    read the same way:

    * its line holds a quote that does not open or close a whole field:
      a quote that opens a field spanning lines, a doubled quote, or a
      stray quote, which csv.reader keeps (``ab"c``, ``"a"b``);
    * its line holds a NUL or more bytes than csv.field_size_limit();
    * a stripped id or name starts or ends with a space beyond ASCII,
      such as U+00A0 or U+3000, which str.strip() also removes;
    * its position has more than 18 digits.

    The header is csv.reader's either way. On the bulk route the ids and
    names are spans of data; on csv.reader's, of the bytes of its
    stripped ids and names, which also end in 8 zero bytes. Positions
    come back as int64, spans as (start, end) pairs of (2, rows) arrays
    and codes as (rows,) arrays, rows in file order; spans and codes are
    int32 when the spanned bytes number fewer than _OFFSET_LIMIT, and
    int64 otherwise. Each row's paper code is the index of the paper's
    first row, so codes order papers as the file first lists them, and
    ``order`` sorts the rows by (code, position), or is None when they
    are sorted already. The rows are checked in bulk, _ROW_BLOCK at a
    time; when a check fails, _record_fault rescans the file with
    csv.reader to word the first fault.
    """
    if len(data) == 8:
        raise InputError(f"empty input: expected header {RECORDS_HEADER!r}")
    spanned, bulk = data, _bulk_columns(data)
    if bulk:
        header, columns = bulk
        reader = csv.reader([header.decode("utf-8", "surrogatepass")])
    else:
        reader = csv.reader(io.StringIO(_text(data)))
    try:
        header = next(reader)
    except csv.Error as exc:
        raise InputError(f"line 1: {exc}") from None
    if [h.strip() for h in header] != RECORDS_HEADER.split(","):
        raise InputError(f"line 1: expected header {RECORDS_HEADER!r}, got {','.join(header)!r}")
    if bulk:
        if columns is None:
            raise InputError(_record_fault(data))
        positions, papers, authors = columns
    else:
        # One list per column, not one per row, keeps the cyclic GC from rescanning them.
        columns = ([], [], [])
        add_paper, add_position, add_author = (column.append for column in columns)
        try:
            for paper_id, position, author in reader:  # a row of other than three fields is a ValueError
                add_paper(paper_id)
                add_position(position)
                add_author(author)
            positions, papers, authors, spanned = _routed_fields(*columns)
        except (ValueError, OverflowError, csv.Error):  # an invalid row, or one csv.reader cannot read
            raise InputError(_record_fault(data)) from None
    if not len(positions):
        raise InputError("empty input: no data rows")
    codes = _span_groups(spanned, papers)
    # Rows listed paper by paper, in position order, need no sort.
    order = None
    ascending, repeated = _row_steps(codes, positions)
    if not ascending:
        order = np.lexsort((positions, codes))
        _, repeated = _row_steps(codes, positions, order)
    # With no (paper, position) repeated, every paper has a position-1 row
    # exactly when there are as many position-1 rows as papers.
    seniors = firsts = 0
    for start in range(0, len(codes), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        seniors += np.count_nonzero(positions[block] == 1)
        firsts += np.count_nonzero(codes[block] == np.arange(start, start + len(codes[block])))
    if positions.min() < 1 or repeated or seniors != firsts:
        raise InputError(_record_fault(data))
    return spanned, positions, papers, authors, codes, order


def _offsets(size: int) -> type:
    """The dtype of offsets into, and row indices of, size bytes."""
    return np.int32 if size < _OFFSET_LIMIT else np.int64


def _row_steps(codes: np.ndarray, positions: np.ndarray, order: np.ndarray | None = None) -> tuple[bool, bool]:
    """Whether the rows, taken in order (else as they stand), ascend by
    (code, position), and whether two adjacent ones share both; read
    _ROW_BLOCK rows at a time, each block from the last row of the one before."""
    ascending, repeated = True, False
    for start in range(0, max(len(codes) - 1, 0), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK + 1)
        rows = block if order is None else order[block]
        step, rise = np.diff(codes[rows]), np.diff(positions[rows])
        ascending = ascending and not ((step < 0) | (step == 0) & (rise < 0)).any()
        repeated = repeated or ((step == 0) & (rise == 0)).any()
    return ascending, repeated


def _bulk_columns(data: bytes) -> tuple[bytes, tuple[np.ndarray, np.ndarray, np.ndarray] | None] | None:
    """The bulk pass of _record_columns over data's blocks; None if csv.reader must read the file.

    Returns the header line's bytes and the positions and paper and
    author spans of every row, or None for them if a block holds an
    invalid row, after which no further block is read. A block ends
    with the first newline at least _BLOCK bytes on from its start, so
    it holds at most _BLOCK bytes and one line. The columns, int64
    positions and int32 spans (int64 in data of _OFFSET_LIMIT bytes or
    more), are allocated once, for as many rows as data has lines, and
    each block fills its rows of them in place.
    """
    size = len(data) - 8
    view = np.frombuffer(data, dtype=np.uint8)
    # Rows are at most lines; their newlines are counted a block at a time, with no file-sized temporary.
    count = 1 + sum(np.count_nonzero(view[start : start + _BLOCK] == 10) for start in range(0, size, _BLOCK))
    offsets = _offsets(len(data))
    positions = np.empty(count, dtype=np.int64)
    papers, authors = np.empty((2, count), dtype=offsets), np.empty((2, count), dtype=offsets)
    filled = start = 0
    while start < size:
        end = data.find(b"\n", min(start + _BLOCK, size) - 1, size) + 1 or size
        block = data[start : end + 8]
        scanned = _scan_lines(block)
        if scanned is None:
            return None
        lines, pairs = scanned
        first = int(start == 0)  # the first block's first line is the header
        if first:
            header = block[: lines[1, 0]]
            pairs = pairs[:, pairs[0] > 0]  # the header's quotes are csv.reader's
        rows = np.flatnonzero(lines[3, first:] > 0) + first
        position, spans, valid, routed = _split_fields(block, lines, rows, pairs)
        if routed:
            return None
        # A line outside quotes that does not split in three is an invalid row.
        if not valid or len(rows) < lines.shape[1] - first:
            return header, None
        taken = slice(filled, filled + len(rows))
        positions[taken] = position
        np.add(spans[0], start, out=papers[:, taken])
        np.add(spans[2], start, out=authors[:, taken])
        filled, start = taken.stop, end
    return header, (positions[:filled], papers[:, :filled], authors[:, :filled])


def _scan_lines(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Where each line of a block lies, and its quote pairs; None if csv.reader must read the file.

    data is a block of whole lines, each ended by an LF (the last may
    end the block instead), and 8 bytes after it, zeros after a file's
    last block. The verdict is the block's, since one line the bulk pass
    cannot read sends the whole file to csv.reader: None if any line
    holds a NUL, more bytes than csv.field_size_limit(), an odd number
    of quotes, two quotes side by side, or quotes and other than two
    commas outside them. Otherwise returns a (4, lines) array of each
    line's start, end (its LF, or the end of the block) and two
    field-ending commas, and the quote pairs as a (3, pairs) array of
    line, opening and closing quote. A line's quotes pair up in order,
    and a comma between a pair's quotes is text; a line's commas are
    (0, 0) unless exactly two lie outside its pairs.
    """
    size = len(data) - 8
    view = np.frombuffer(data, dtype=np.uint8)
    # The bytes looked for: ',', LF, '"' and NUL.
    looked_for = view[:size] == 44
    for byte in (10, 34, 0):
        looked_for |= view[:size] == byte
    marks = np.flatnonzero(looked_for)
    kinds = view[marks]
    ends = marks[kinds == 10]
    if size and data[size - 1] != 10:
        ends = np.append(ends, size)
    lines = np.zeros((4, len(ends)), dtype=np.int64)
    lines[0, 1:] = ends[:-1] + 1
    lines[1] = ends
    quotes = marks[kinds == 34]
    # Every line holds an even number of quotes exactly when an even number come before each line's end.
    quotes_before = np.searchsorted(quotes, ends)
    if (
        (kinds == 0).any()
        or (lines[1] - lines[0] > csv.field_size_limit()).any()
        or (quotes_before & 1).any()
        or (np.diff(quotes) == 1).any()  # a doubled quote, or an empty quoted field
    ):
        return None
    # No line's quotes are odd, so a comma is text when an odd number of the block's quotes come before it.
    commas = marks[kinds == 44]
    commas = commas[(np.searchsorted(quotes, commas) & 1) == 0]
    firsts = np.searchsorted(commas, lines[0])  # the first comma outside quotes on each line
    comma_count = np.searchsorted(commas, ends) - firsts
    # A line that holds quotes must split in three.
    if ((np.diff(quotes_before, prepend=0) > 0) & (comma_count != 2)).any():
        return None
    split = np.flatnonzero(comma_count == 2)
    lines[2, split], lines[3, split] = commas[firsts[split]], commas[firsts[split] + 1]
    opening = quotes[::2]
    return lines, np.stack((np.searchsorted(ends, opening), opening, quotes[1::2]))


def _split_fields(
    data: bytes, lines: np.ndarray, rows: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool, bool]:
    """The fields of the given rows of lines, which _scan_lines found split in three.

    pairs are the quote pairs _scan_lines found, but for the header's;
    each lies on one of rows, since _scan_lines refuses a block with a
    quoted line that does not split in three. Returns each row's
    position; a (3, 2, rows) array of its field spans, the id and name
    stripped, a field wholly inside a quote pair without its quotes;
    whether every row is valid, with a non-empty id and name and a
    position of 1 to 18 digits; and whether csv.reader must read the
    file instead, as _record_columns lists. data is as _scan_lines takes
    it.
    """
    view = np.frombuffer(data, dtype=np.uint8)
    # Fields run from the line's start, or after a comma, to a comma or the line's end.
    spans = lines.take(rows, axis=1).take((0, 2, 2, 3, 3, 1), axis=0).reshape(3, 2, -1)
    spans[1:, 0] += 1
    # Each quote pair must enclose a whole field.
    at, open_at, close_at = np.searchsorted(rows, pairs[0]), pairs[1], pairs[2]
    field = (open_at > spans[0, 1, at]).astype(np.intp) + (open_at > spans[1, 1, at])
    whole = ((spans[field, 0, at] == open_at) & (spans[field, 1, at] == close_at + 1)).all()
    spans[field, 0, at], spans[field, 1, at] = open_at + 1, close_at
    position, digits, wide = _parse_digits(view, *spans[1])
    spaced = _strip_spaces(data, spans[0]) | _strip_spaces(data, spans[2])
    valid = digits and (spans[0, 1] > spans[0, 0]).all() and (spans[2, 1] > spans[2, 0]).all()
    return position, spans, bool(valid), wide or spaced or not whole


def _strip_spaces(data: bytes, spans: np.ndarray) -> bool:
    """Strip the (start, end) spans of data in place of the ASCII spaces str.strip() removes;
    return whether a span left starts or ends with a space beyond ASCII, which it removes too."""
    view = np.frombuffer(data, dtype=np.uint8)
    starts, ends = spans
    filled, first, last = ends > starts, view[starts], view[ends - 1]
    # A span is padded only if a byte at its edge is at most ord(" "); the strip decides.
    padded = np.flatnonzero(filled & ((first <= 32) | (last <= 32)))
    if len(padded):
        lefts: list[int] = []
        rights: list[int] = []
        for start, end in zip(starts[padded].tolist(), ends[padded].tolist()):
            rest = data[start:end].lstrip(_SPACES)
            lefts.append(end - len(rest))
            rights.append(end - len(rest) + len(rest.rstrip(_SPACES)))
        starts[padded], ends[padded] = lefts, rights
        filled[padded] = ends[padded] > starts[padded]
        first[padded], last[padded] = view[starts[padded]], view[ends[padded] - 1]
    edges = np.flatnonzero(filled & ((first >= 128) | (last >= 128)))
    if not len(edges):
        return False
    # The last character of a span starts at most three continuation bytes before its end.
    last = ends[edges] - 1
    for _ in range(3):
        last -= (view[last] & 0xC0) == 0x80
    return bool(_unicode_space_at(view, starts[edges]).any() or _unicode_space_at(view, last).any())


def _unicode_space_at(view: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Whether the UTF-8 character starting at each index is one of _UNICODE_SPACES."""
    lead, second, third = (view[at + k].astype(np.int64) for k in range(3))
    two = (lead & 0x1F) << 6 | second & 0x3F
    three = (lead & 0x0F) << 12 | (second & 0x3F) << 6 | third & 0x3F
    code = np.where(lead < 0xE0, two, three)
    # A sorted lookup; np.isin would import numpy.ma, which costs every process about 12 ms.
    found = np.minimum(np.searchsorted(_UNICODE_SPACES, code), len(_UNICODE_SPACES) - 1)
    return (lead >= 0xC0) & (lead < 0xF0) & (_UNICODE_SPACES[found] == code)


def _parse_digits(
    view: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, bool, bool]:
    """The value of each span of 1 to 18 ASCII digits, whether every span is one, and whether one is
    wider; the value of any other span is meaningless. The byte at each start must lie in view."""
    width = ends - starts
    wide = width > _BULK_DIGITS
    value = view[starts].astype(np.int64) - 48
    digits = (width > 0) & ~wide & (value >= 0) & (value <= 9)
    live = np.flatnonzero(digits & (width > 1))
    for offset in range(1, _BULK_DIGITS):
        live = live[width[live] > offset]
        if not len(live):
            break
        digit = view[starts[live] + offset].astype(np.int64) - 48
        digits[live] &= (digit >= 0) & (digit <= 9)
        value[live] = value[live] * 10 + digit
    return value, bool(digits.all()), bool(wide.any())


def _routed_fields(
    papers: list[str], positions: list[str], authors: list[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bytes]:
    """Positions and id and name spans of csv.reader's rows, and the bytes the spans index.

    The stripped ids, then the stripped names, are encoded in one piece,
    followed by 8 zero bytes. An invalid row raises ValueError or, for a
    position beyond int64, OverflowError.
    """
    papers, authors = list(map(str.strip, papers)), list(map(str.strip, authors))
    if not (all(papers) and all(authors)):
        raise ValueError("a routed row has an empty id or name")
    if not (all(map(str.isascii, positions)) and all(map(str.isdigit, positions))):
        raise ValueError("a routed row's position is not ASCII digits")
    count = len(positions)
    # Beyond int64 this is an OverflowError; beyond int()'s digit limit, a ValueError.
    values = np.fromiter(map(int, positions), np.int64, count)
    if count and values.max() > MAX_LEVEL:
        raise ValueError("a routed row's position is too large")
    fields = papers + authors
    text = "".join(fields)
    data = text.encode("utf-8", "surrogatepass")
    if len(data) == len(text):  # only ASCII text takes one byte per character
        sizes = map(len, fields)
    else:
        sizes = (len(field.encode("utf-8", "surrogatepass")) for field in fields)
    bounds = np.zeros(2 * count + 1, dtype=_offsets(len(data) + 8))
    np.cumsum(np.fromiter(sizes, np.int64, 2 * count), out=bounds[1:])
    spans = np.stack((bounds[:-1], bounds[1:]))
    return values, spans[:, :count], spans[:, count:], data + bytes(8)


def _span_hash(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each byte span, mixed in 8 bytes at a time; equal spans hash equal.

    ``words[i]`` is the little-endian word of the 8 bytes from byte i.
    """
    hashes = lengths.astype(np.uint64)
    live = np.arange(len(starts))
    for offset in range(0, int(lengths.max(initial=0)), 8):
        live = live[lengths[live] > offset]
        left = np.minimum(lengths[live] - offset, 8)
        mixed = words[starts[live] + offset]
        mixed &= _LOW_BYTES[left]
        mixed ^= hashes[live]
        mixed *= np.uint64(0x9E3779B97F4A7C15)
        mixed ^= mixed >> np.uint64(29)
        hashes[live] = mixed
    return hashes


def _span_groups(data: bytes, spans: np.ndarray) -> np.ndarray:
    """For each (start, end) span of data, the index of the first span with the same bytes.

    A span with the same bytes as the span before it joins that span's
    run: rows listed paper by paper repeat each id in a run. Only the
    first span of each run is hashed with _span_hash and sorted by hash;
    only those whose hash repeats are grouped, and each is compared byte
    for byte with the earliest span of its hash group, so a hash
    collision never merges two different byte strings: if one would, the
    spans are grouped by their bytes instead. data ends in 8 zero bytes.
    Spans are compared and hashed _ROW_BLOCK at a time, and the indices
    come back in the spans' dtype.
    """
    starts, ends = spans
    count = len(starts)
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    heads = [np.zeros(1, dtype=starts.dtype)]
    for start in range(1, count, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, count)
        block, before = slice(start, stop), slice(start - 1, stop - 1)
        runs = np.flatnonzero(~_same_bytes(words, starts[block], ends[block], starts[before], ends[before]))
        heads.append((runs + start).astype(starts.dtype))
    heads = np.concatenate(heads)
    hashes = np.empty(len(heads), dtype=np.uint64)
    for start in range(0, len(heads), _ROW_BLOCK):
        rows = heads[start : start + _ROW_BLOCK]
        hashes[start : start + len(rows)] = _span_hash(words, starts[rows], ends[rows] - starts[rows])
    by_hash = np.argsort(hashes)
    hashes = hashes[by_hash]
    # The places, in hash order, of heads whose hash repeats the one before.
    repeats = np.flatnonzero(hashes[1:] == hashes[:-1]) + 1
    del hashes  # each full-size array goes as soon as it is used, which lowers the peak
    # A run of repeats follows its group's first place; the group takes its earliest head.
    runs = np.flatnonzero(np.diff(repeats, prepend=-1) != 1)
    leaders = by_hash[repeats[runs] - 1]
    earliest = heads[np.minimum(leaders, np.minimum.reduceat(by_hash[repeats], runs))]
    groups = heads.copy()
    groups[leaders] = earliest
    groups[by_hash[repeats]] = np.repeat(earliest, np.diff(runs, append=len(repeats)))
    del by_hash
    for start in range(0, len(heads), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        moved = np.flatnonzero(groups[block] != heads[block])
        rows, firsts = heads[block][moved], groups[block][moved]
        if not _same_bytes(words, starts[rows], ends[rows], starts[firsts], ends[firsts]).all():
            break
    else:
        return np.repeat(groups, np.diff(heads, append=count))
    first_of: dict[bytes, int] = {}
    keys = [bytes(data[start:end]) for start, end in zip(*spans.tolist())]
    return np.fromiter(map(first_of.setdefault, keys, range(len(keys))), starts.dtype, len(keys))


def _same_bytes(
    words: np.ndarray, starts: np.ndarray, ends: np.ndarray, other_starts: np.ndarray, other_ends: np.ndarray
) -> np.ndarray:
    """Whether each span (starts, ends) holds the same bytes as the other span beside it."""
    lengths = ends - starts
    differ = words[starts] ^ words[other_starts]
    differ &= _LOW_BYTES[np.minimum(lengths, 8)]
    same = (differ == 0) & (lengths == other_ends - other_starts)
    live = np.flatnonzero(same & (lengths > 8))
    for offset in range(8, int(lengths.max(initial=0)), 8):
        live = live[lengths[live] > offset]
        differ = words[starts[live] + offset] ^ words[other_starts[live] + offset]
        differ &= _LOW_BYTES[np.minimum(lengths[live] - offset, 8)]
        same[live[differ != 0]] = False
    return same


def _span_text(data: bytes, spans: np.ndarray) -> list[str]:
    """The text of each (start, end) span of data."""
    return [data[start:end].decode("utf-8", "surrogatepass") for start, end in zip(*spans.tolist())]


def _record_fault(data: bytes) -> str:
    """Why the first invalid row of a records file, in order, is invalid.

    These are the row-by-row checks of the records format, in their
    order. A fault names the 1-based physical line its row starts on,
    which differs from the row number once a quoted field spans lines.
    Only a file whose header passed and whose rows failed a bulk check
    in _record_columns comes here, as bytes that end in 8 zero bytes.
    """
    reader = csv.reader(io.StringIO(_text(data)))
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
    quoted as in ordinary CSV. Newlines are made LF as a file's are (see
    _newlines). See _record_columns for the checks.
    """
    return _records(_newlines(text.encode("utf-8", "surrogatepass") + bytes(8)))


def _records(data: bytes) -> list[AuthorRecord]:
    """parse_records on a file's bytes, followed by 8 zero bytes."""
    data, _, papers, authors, codes, order = _record_columns(data)
    if order is not None:
        papers, authors, codes = papers[:, order], authors[:, order], codes[order]
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    paper_ids = _span_text(data, papers[:, starts])
    names = _span_text(data, authors)
    starts = starts.tolist()
    checked = AuthorRecord._checked
    # The records hold no reference cycles, and with the cyclic GC running,
    # its collections over the growing list took half of this loop.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return [
            checked(paper_id, tuple(names[start:end]))
            for paper_id, start, end in zip(paper_ids, starts, starts[1:] + [len(codes)])
        ]
    finally:
        if collecting:
            gc.enable()


def read_records(path: str | Path) -> list[AuthorRecord]:
    return _read(path, lambda data, path: _records(data))


def ingest_records(path: str | Path, name: str = "records") -> FrequencyDistribution:
    """The senior-author distribution of a records file, with no per-paper objects.

    Equal to ``from_author_records(read_records(path), name)``; its
    ``total_works`` is the number of papers. The file's bytes are read
    once and tokenized a block at a time (see _record_columns), and
    senior names are grouped from their bytes, never made into strings.
    """

    def tally(data: bytes, path: Path) -> FrequencyDistribution:
        data, positions, _, authors, _, _ = _record_columns(data)
        return _senior_tally(_span_groups(data, authors[:, positions == 1]), name)

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
    first: dict[str, int] = {}
    seniors = [first.setdefault(record.senior_author, i) for i, record in enumerate(records)]
    return _senior_tally(np.array(seniors, dtype=np.intp), name)


def _senior_tally(seniors: np.ndarray, name: str) -> FrequencyDistribution:
    """How many authors hold each number of credits, given each paper's senior author
    as the index of the first paper that author is senior on."""
    # Credits sit at each author's first index; the zeros elsewhere tally at level 0.
    per_level = np.bincount(np.bincount(seniors))
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
    return HistogramBins.from_arrays(bin_width, tallies, 100.0 * tallies / dist.total_authors)
