import csv
import io
import math
import os
import random
import tempfile
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rescan_bins

from lotkafit import (
    AuthorRecord,
    FrequencyDistribution,
    HistogramBins,
    InputError,
    bin_histogram,
    from_author_records,
    ingest_records,
    parse_distribution,
    parse_records,
    round_half_up,
    serialize_distribution,
    truncate_right,
    truncation_report,
)
from lotkafit import freqdata, read_distribution, read_records
from lotkafit.cli import run
from lotkafit.freqdata import MAX_BINS, MAX_LEVEL

distributions = st.dictionaries(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=0, max_value=1000),
    min_size=1,
).filter(lambda d: any(v > 0 for v in d.values())).map(FrequencyDistribution.from_counts)


class TestFrequencyDistribution:
    def test_derived_totals(self):
        d = FrequencyDistribution.from_counts({1: 600, 2: 150})
        assert d.total_authors == 750
        assert d.total_works == 900
        assert d.max_level == 2

    def test_zero_count_levels_stored_but_not_max(self):
        d = FrequencyDistribution.from_counts({1: 5, 50: 0})
        assert d.max_level == 1
        assert d.authors_at(50) == 0
        assert d.entries == ((1, 5), (50, 0))

    def test_rejects_unpopulated(self):
        with pytest.raises(InputError):
            FrequencyDistribution.from_counts({1: 0, 2: 0})

    def test_rejects_bad_levels(self):
        with pytest.raises(InputError):
            FrequencyDistribution(((0, 5),))
        with pytest.raises(InputError):
            FrequencyDistribution(((2, 5), (1, 3)))
        with pytest.raises(InputError):
            FrequencyDistribution(((1, -1),))
        # Levels and counts are never truncated or parsed into integers.
        for levels, counts in [([1.5], [2]), ([1.7, 3], [2.9, 1]), (["1", "2"], [1, 1]), ([1], [float("nan")])]:
            with pytest.raises(InputError, match="^levels and author counts must be integers$"):
                FrequencyDistribution.from_arrays(levels, counts)
        with pytest.raises(InputError, match="^levels and author counts must be integers$"):
            FrequencyDistribution([(1.5, 2)])
        assert FrequencyDistribution([(1, 2.0), (2.0, 1)]).entries == ((1, 2), (2, 1))
        # Each entry is a (level, count) pair: no item is dropped, none is missing.
        for entries in [[(1, 2, 3)], [(1,)], [1], [(1, 2), 5]]:
            with pytest.raises(InputError, match=r"^entries must be \(level, author count\) pairs$"):
                FrequencyDistribution(entries)
        assert FrequencyDistribution.from_arrays(np.array([1.0, 3.0]), [2, 1]).entries == ((1, 2), (3, 1))
        # from_counts hands its pairs to the same checks, unconverted.
        bad_counts = [{1.5: 3}, {2: 3.7}, {"2": 3}, {math.nan: 1}, {math.inf: 1}, {1: None}, {1: 1, "a": 2},
                      [(1, 2), (1, None)]]
        for counts in bad_counts:
            with pytest.raises(InputError, match="^levels and author counts must be integers$"):
                FrequencyDistribution.from_counts(counts)
        with pytest.raises(InputError, match=r"^entries must be \(level, author count\) pairs$"):
            FrequencyDistribution.from_counts([(1, 2, 3)])
        assert FrequencyDistribution.from_counts({3: 1, 1: 2.0, 2.0: 4}).entries == ((1, 2), (2, 4), (3, 1))

    # A list that mixes a float with ints, or holds an int in [2^63, 2^64)
    # beside another, is one numpy would make float64; each value stays exact.
    def test_int_beside_a_float_stays_exact(self):
        assert FrequencyDistribution([(1.0, 1), (2**60 + 1, 1)]).levels.tolist() == [1, 2**60 + 1]

    def test_count_beside_a_float_stays_exact(self):
        assert FrequencyDistribution([(1, 1.0), (2, 2**60 + 1)]).counts.tolist() == [1, 2**60 + 1]

    def test_level_beyond_int64_is_the_fault_reported(self):
        with pytest.raises(InputError, match=rf"^level must lie in \[1, 2\^62\], got {2**63}$"):
            FrequencyDistribution([(2**62 - 1, 1), (2**62, 1), (2**63, 1)])

    def test_numpy_float_scalars_are_integers_when_whole(self):
        d = FrequencyDistribution([(np.float32(1.0), 2), (np.float64(3.0), np.float32(1.0))])
        assert d.entries == ((1, 2), (3, 1))

    def test_rejects_arrays_that_are_not_parallel_and_1d(self):
        for levels, counts in [([1, 2], [1]), (5, 1), ([[1, 2]], [[1, 1]]), ([[1], [1, 2]], [1, 2])]:
            with pytest.raises(InputError, match="^levels and author counts must be 1-D arrays of equal length$"):
                FrequencyDistribution.from_arrays(levels, counts)

    def test_name_not_compared(self):
        a = FrequencyDistribution.from_counts({1: 1}, name="a")
        b = FrequencyDistribution.from_counts({1: 1}, name="b")
        assert a == b

    def test_equal_across_names_and_constructors_hash_equal(self):
        a = FrequencyDistribution.from_counts({1: 1, 4: 0}, name="a")
        b = FrequencyDistribution.from_arrays(np.array([1, 4]), np.array([1, 0]), name="b")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != FrequencyDistribution.from_counts({1: 1})
        assert a != FrequencyDistribution.from_counts({1: 2, 4: 0})

    def test_arrays_read_only(self):
        levels = np.array([1, 3, 9])
        d = FrequencyDistribution.from_arrays(levels, np.array([5, 0, 2]))
        levels[0] = 2
        assert d.levels.tolist() == [1, 3, 9]
        assert d.levels.dtype == d.counts.dtype == np.int64
        for array in (d.levels, d.counts, *d.populated_arrays):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 7
        assert [a.tolist() for a in d.populated_arrays] == [[1, 9], [5, 2]]

    def test_total_works_exact_beyond_int64(self):
        d = FrequencyDistribution.from_counts({2**62: 3})
        assert d.total_works == 3 * 2**62
        assert (d.total_authors, d.max_level) == (3, 2**62)
        d = FrequencyDistribution.from_counts({1: 2**61, 2: 2**61 - 5, 2**62: 2})
        assert d.total_authors == 2**62 - 3
        assert d.total_works == 2**61 + 2 * (2**61 - 5) + 2**63
        r = truncation_report(FrequencyDistribution.from_counts({1: 1, 2**62: 3}), 1)
        assert (r.removed_works, r.removed_authors_physical) == (3 * 2**62, 3)

    @pytest.mark.parametrize(
        "counts,fragment",
        [
            ({1: 10**23, 2: 3}, "author count must lie in \\[0, 2\\^62\\]"),
            ({1: 2**62 + 1}, "author count must lie in \\[0, 2\\^62\\]"),
            ({1: 2**62, 2: 1, 3: 1}, "author total must be <= 2\\^62"),
            ({1: 2**62, 2: 2**62, 3: 2**62}, "author total must be <= 2\\^62"),
            ({1: -(10**23)}, "author count must lie in"),
            ({-(10**23): 1}, "level must lie in"),
        ],
    )
    def test_rejects_counts_beyond_int64_safe_bound(self, counts, fragment):
        with pytest.raises(InputError, match=fragment):
            FrequencyDistribution.from_counts(counts)


# Fields of level,count rows: digits, with leading zeros, level 0, 17 to
# 20 digits and a small pool of levels so that levels repeat; and
# signed, spaced and other fields that the bulk pass leaves to the loop.
_DIGIT_FIELDS = st.one_of(
    st.integers(1, 10**6).map(str),
    st.integers(0, 99).map("{:03d}".format),
    st.sampled_from(["1", "2", "0"]),
    st.integers(17, 20).flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n)),
)
_ODD_FIELDS = st.one_of(
    st.sampled_from(["-0", "+1", " 2", "3 ", "1_0", "\u0663", "", "4,5"]),
    st.text("0123456789,-+ _\r\u0663", max_size=5),
)


@st.composite
def _distribution_texts(draw):
    """level,count texts; in about half, every row is two digit fields ended by LF."""
    plain = draw(st.booleans())
    header = draw(st.sampled_from(["level,count"] * 6 + ["level,count\r", "level,count ", "count,level", ""]))
    fields = _DIGIT_FIELDS if plain else st.one_of(_DIGIT_FIELDS, _ODD_FIELDS)
    rows = draw(st.lists(st.tuples(fields, fields).map(",".join), max_size=8))
    newlines = st.just("\n") if plain else st.sampled_from(["\n"] * 8 + ["\r\n", "\r"])
    ends = draw(st.lists(newlines, min_size=len(rows) + 1, max_size=len(rows) + 1))
    text = header + "".join(end + row for end, row in zip(ends, rows))
    return text + ends[-1] if draw(st.booleans()) else text


def _parse_outcome(parse):
    """The levels, counts and name parse() gives, or its InputError's text."""
    try:
        dist = parse()
    except InputError as exc:
        return str(exc)
    return dist.levels.tolist(), dist.counts.tolist(), dist.name


def _lf(text):
    """text with CRLF and a lone CR made LF, as every reader makes them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _outcome(call):
    """What call() returns, or its InputError's text."""
    try:
        return call()
    except InputError as exc:
        return str(exc)


def _str_reads_as_file(parse, read, text, directory):
    """parse(text), or its InputError's text, once read of a file holding text's UTF-8 bytes gives the same."""
    path = Path(directory) / "input.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(lambda: parse(text))
    assert _outcome(lambda: read(path)) == (f"{path}: {expected}" if isinstance(expected, str) else expected)
    return expected


class TestParseDistribution:
    def test_basic(self):
        d = parse_distribution("level,count\n1,600\n2,150")
        assert d.total_authors == 750
        assert d.total_works == 900

    def test_unsorted_input_sorted_output(self):
        d = parse_distribution("level,count\n2,1\n1,1")
        assert d.entries == ((1, 1), (2, 1))

    def test_trailing_newline_ok(self):
        assert parse_distribution("level,count\n1,1\n").entries == ((1, 1),)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("level,count\n0,5", "level must be >= 1"),
            ("level,count\n1,-3", "count must be >= 0"),
            ("level,count\n1,2\n1,3", "duplicate level"),
            ("level,count\n1;2", "line 2"),
            ("level,count\nx,2", "line 2"),
            ("level,count", "no data rows"),
            ("", "header"),
            ("count,level\n1,2", "header"),
            ("level,count\n\n1,2", "blank"),
            ("level,count\n 1_0 ,+5", "expected 'integer,integer'"),
            ("level,count\n1_0,5", "expected 'integer,integer'"),
            ("level,count\n1,+5", "expected 'integer,integer'"),
            ("level,count\n 1,5", "expected 'integer,integer'"),
            ("level,count\n\u0661,5", "expected 'integer,integer'"),
            ("level,count\n1,\uff15", "expected 'integer,integer'"),
            ("level,count\n1,--5", "expected 'integer,integer'"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(InputError, match=fragment):
            parse_distribution(text)

    @given(distributions)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, d):
        assert parse_distribution(serialize_distribution(d)) == d

    @given(st.dictionaries(st.integers(1, MAX_LEVEL), st.integers(0, 2**60), min_size=1, max_size=40)
           .filter(lambda d: 0 < sum(d.values()) <= 2**62).map(FrequencyDistribution.from_counts))
    @settings(max_examples=60, deadline=None)
    def test_serialize_matches_a_row_per_entry(self, d):
        assert serialize_distribution(d) == "level,count\n" + "".join(f"{v},{c}\n" for v, c in d.entries)

    def test_bulk_pass_takes_plain_rows_sorted(self):
        levels, counts = freqdata._bulk_rows(b"level,count\n3,0\n1,007\n20,5" + bytes(8))
        assert levels.tolist() == [1, 3, 20]
        assert counts.tolist() == [7, 0, 5]

    @pytest.mark.parametrize(
        "rows",
        ["", "1,-0\n", "+1,2\n", "1,2\r\n", "1,2\n\n", " 1,2\n", "1,2,3\n", "1,2,3,4\n", "1\n", "1,2\n3", "0,2\n",
         "1,2\n1,3\n", f"{10**18},1\n", f"1,{'0' * 19}\n", "\u0663,1\n"],
    )
    def test_bulk_pass_leaves_the_rest_to_the_line_loop(self, rows):
        assert freqdata._bulk_rows(f"level,count\n{rows}".encode() + bytes(8)) is None

    def test_level_two_to_the_62_parses_through_the_line_loop(self):
        text = f"level,count\n1,3\n{MAX_LEVEL},1\n"
        assert freqdata._bulk_rows(text.encode() + bytes(8)) is None
        assert parse_distribution(text).entries == ((1, 3), (MAX_LEVEL, 1))

    @given(
        st.dictionaries(st.integers(1, 10**16 - 1), st.integers(0, 10**16 - 1), min_size=1, max_size=20),
        st.integers(0, 2),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_plain_rows_take_the_bulk_pass(self, counts, zeros, final_newline):
        pad = "0" * zeros
        text = "level,count" + "".join(f"\n{pad}{level},{pad}{n}" for level, n in counts.items())
        text += "\n" if final_newline else ""
        assert freqdata._bulk_rows(text.encode() + bytes(8)) is not None
        expected = _parse_outcome(lambda: freqdata._parse_lines(text, "d"))
        assert _parse_outcome(lambda: parse_distribution(text, "d")) == expected

    @given(_distribution_texts())
    @settings(max_examples=500, deadline=None)
    def test_bulk_pass_matches_line_loop(self, text):
        # parse_distribution and read_distribution both turn CRLF and a lone CR into LF before either pass.
        lf = _parse_outcome(lambda: freqdata._parse_lines(_lf(text), "d"))
        assert _parse_outcome(lambda: parse_distribution(text, "d")) == lf
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode("utf-8"))
            got = _parse_outcome(lambda: read_distribution(path))
        assert got == (lf if isinstance(lf, tuple) else f"{path}: {lf}")


class TestFromAuthorRecords:
    def test_senior_only_credit(self):
        records = [
            AuthorRecord("P1", ("A", "B")),
            AuthorRecord("P2", ("A",)),
            AuthorRecord("P3", ("C",)),
        ]
        d = from_author_records(records)
        assert d.as_dict() == {1: 1, 2: 1}

    def test_single_record(self):
        assert from_author_records([AuthorRecord("P1", ("A",))]).as_dict() == {1: 1}

    def test_ten_papers_one_author(self):
        records = [AuthorRecord(f"P{i}", ("A", f"b{i}")) for i in range(10)]
        assert from_author_records(records).as_dict() == {10: 1}

    def test_name_trimming(self):
        records = [AuthorRecord("P1", ("  A ",)), AuthorRecord("P2", ("A",))]
        assert from_author_records(records).as_dict() == {2: 1}

    def test_errors(self):
        with pytest.raises(InputError, match="no records"):
            from_author_records([])
        with pytest.raises(InputError, match="duplicate paper_id"):
            from_author_records([AuthorRecord("P1", ("A",)), AuthorRecord("P1", ("B",))])
        with pytest.raises(InputError):
            AuthorRecord("P1", ())
        with pytest.raises(InputError):
            AuthorRecord("P1", ("A", "  "))
        with pytest.raises(InputError):
            AuthorRecord("  ", ("A",))

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=3)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_each_paper_credits_exactly_one_person(self, raw):
        records = [
            AuthorRecord(f"P{i}", tuple(names)) for i, (_, names) in enumerate(raw)
        ]
        d = from_author_records(records)
        assert d.total_works == len(records)


def _row_loop_parse_records(text):
    """The per-row records parser that the columnar one replaced, kept as its oracle."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("empty input: expected header 'paper_id,position,author'") from None
    if [h.strip() for h in header] != ["paper_id", "position", "author"]:
        raise InputError(f"line 1: expected header 'paper_id,position,author', got {','.join(header)!r}")
    by_paper = {}
    # A row starts on the line after the previous row's last line; a
    # quoted field holding newlines stretches its row over more lines.
    next_line = 2
    for row in reader:
        lineno = next_line
        next_line += 1 + sum(field.count("\n") for field in row)
        if not row or (len(row) == 1 and not row[0].strip()):
            raise InputError(f"line {lineno}: blank line")
        if len(row) != 3:
            raise InputError(f"line {lineno}: expected 'paper_id,position,author', got {row!r}")
        paper_id = row[0].strip()
        if not paper_id:
            raise InputError(f"line {lineno}: empty paper_id")
        digits = row[1][1:] if row[1][:1] == "-" else row[1]
        if not (digits.isascii() and digits.isdigit()):
            raise InputError(f"line {lineno}: position must be an integer, got {row[1]!r}")
        position = int(row[1])
        if position < 1:
            raise InputError(f"line {lineno}: position must be >= 1, got {position}")
        author = row[2].strip()
        if not author:
            raise InputError(f"line {lineno}: empty author name")
        slots = by_paper.setdefault(paper_id, {})
        if position in slots:
            raise InputError(f"line {lineno}: duplicate position {position} for paper {paper_id!r}")
        slots[position] = author
    if not by_paper:
        raise InputError("empty input: no data rows")
    records = []
    for paper_id, slots in by_paper.items():
        if 1 not in slots:
            raise InputError(f"paper {paper_id!r} has no position-1 (senior) author row")
        records.append(AuthorRecord(paper_id, tuple(slots[p] for p in sorted(slots))))
    return records


_ODD_PAPERS = ["", " "]
_ODD_POSITIONS = [
    "0", "00", "-1", "-0", "+1", " 1", "1 ", "1_0", "\u0661", "\uff11", "", "x", "1.0",
    str(MAX_LEVEL), str(MAX_LEVEL + 1), "9" * 30,
]
_ODD_NAMES = ["", "  ", '" "', '" \n "']
_ODD_ROWS = [[], ["  "], ["P1", "1"], ["P1", "1", "A", "B"]]


# Names csv.reader accepts and str.strip() may shorten: commas and newlines
# inside quotes, doubled and stray quotes, a NUL, and at an edge letters
# beyond ASCII, or spaces that str.strip() removes but bytes.strip() keeps:
# U+00A0, U+2009, U+2028, U+3000 and \x1c. One is padded with a run of
# spaces; one spans three lines, the middle one spelt like a row. The bulk
# pass reads the names of _BULK_NAMES; any other sends its whole file to
# csv.reader.
_BULK_NAMES = [
    "A", "B", " C ", " " * 12 + "D\t" + "\x1f" * 9, '"Smith, J."', '" Doe, J "', "\u00c5", "\u5f20\u4e09", "\u00a9C",
    "\x1cA", "A\x1c ",
]
_NAMES = _BULK_NAMES + [
    '"Two\nlines"', '"Three\nP9,1,Z\nlines"',
    '"O""Brien"', 'ab"c', '"a"b', "N\x00ul", "\u00a0A", "A\u3000", "\u2009B", "A\u2028",
]


@st.composite
def _valid_rows(draw):
    """Rows of a valid records file: paper i has positions 1..k, written
    plain, with a leading zero or 25 of them, or quoted, its id is spelt
    padded or quoted from row to row, or holds a comma or a stray quote,
    a name may span two lines, a row may end in a CR (a CRLF once
    joined), and the rows of all papers are shuffled together, so one
    paper's rows need not be adjacent. In about half the draws every
    id, position and name is one the bulk pass reads, so the file is not
    sent to csv.reader."""
    bulk = draw(st.booleans())
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    names = st.sampled_from(_BULK_NAMES if bulk else _NAMES)
    ends = st.sampled_from(["", "", "\r"])
    rows = []
    for i, k in enumerate(sizes):
        spellings = [
            [f'"P,{i}"', f'" P,{i}"'],
            [f"P{i}", f" P{i} ", f'"P{i}"', f"\x1cP{i}"],
        ]
        if not bulk:
            spellings[1] += [f"\u00a0P{i}", f"P{i}\u3000"]
            spellings.append([f'P"{i}', f' P"{i} '])
        spellings = draw(st.sampled_from(spellings))
        rows.extend(
            [
                draw(st.sampled_from(spellings)),
                draw(st.sampled_from([str(p), f"0{p}", f'"{p}"'] + ([] if bulk else ["0" * 25 + str(p)]))),
                draw(names) + draw(ends),
            ]
            for p in range(1, k + 1)
        )
    return draw(st.permutations(rows))


@st.composite
def _near_valid_rows(draw):
    """Valid rows with up to three edits: an odd token in a field, a
    blank, short or long row inserted, a row repeated, or a row dropped."""
    rows = list(draw(_valid_rows()))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1)) if rows else 0
        edit = draw(st.integers(0, 5))
        if edit == 0:
            rows.insert(i, draw(st.sampled_from(_ODD_ROWS)))
        elif edit == 1 and rows:
            rows.insert(draw(st.integers(0, len(rows))), rows[i][:2] + ["Z"])
        elif edit == 2 and rows:
            del rows[i]
        elif rows and len(rows[i]) == 3:
            field = edit - 3
            rows[i] = list(rows[i])
            rows[i][field] = draw(st.sampled_from([_ODD_PAPERS, _ODD_POSITIONS, _ODD_NAMES][field]))
    return rows


def _records_text(rows, final_newline=True):
    text = "paper_id,position,author\n" + "".join(",".join(row) + "\n" for row in rows)
    return text if final_newline else text[:-1]


def test_space_tables_match_str_strip():
    # The bulk pass strips or routes exactly the characters str.strip() removes.
    assert sorted(freqdata._SPACES) == [b for b in range(128) if chr(b).isspace()]
    assert max(freqdata._SPACES) == ord(" ")
    beyond = [c for c in range(128, 0x110000) if chr(c).isspace()]
    assert freqdata._UNICODE_SPACES.tolist() == beyond


class TestParseRecords:
    TEXT = "paper_id,position,author\nP1,1,A\nP1,2,B\nP2,1,A\nP3,1,C\n"

    def test_basic(self):
        records = parse_records(self.TEXT)
        assert [r.paper_id for r in records] == ["P1", "P2", "P3"]
        assert records[0].authors == ("A", "B")
        assert from_author_records(records).as_dict() == {1: 1, 2: 1}

    def test_quoted_author_with_comma(self):
        records = parse_records('paper_id,position,author\nP1,1,"Smith, J."\n')
        assert records[0].senior_author == "Smith, J."

    def test_positions_out_of_order(self):
        records = parse_records("paper_id,position,author\nP1,2,B\nP1,1,A\n")
        assert records[0].authors == ("A", "B")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("paper_id,position,author\nP1,2,B\n", "position-1"),
            ("paper_id,position,author\nP1,1,A\nP1,1,B\n", "duplicate position"),
            ("paper_id,position,author\nP1,0,A\n", "position must be >= 1"),
            ("paper_id,position,author\nP1,x,A\n", "position must be an integer"),
            ("paper_id,position,author\n", "no data rows"),
            ("wrong,header,here\nP1,1,A\n", "header"),
            ("paper_id,position,author\nP1,1\n", "line 2"),
            ("paper_id,position,author\nP1,+1,A\n", "position must be an integer"),
            ("paper_id,position,author\nP1, 1,A\n", "position must be an integer"),
            ("paper_id,position,author\nP1,1_0,A\n", "position must be an integer"),
            ("paper_id,position,author\nP1,\u0661,A\n", "position must be an integer"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(InputError, match=fragment):
            parse_records(text)

    def test_position_bound(self):
        head = "paper_id,position,author\nP1,1,A\n"
        assert parse_records(f"{head}P1,{MAX_LEVEL},B\n")[0].authors == ("A", "B")
        for big in (MAX_LEVEL + 1, 10**26):
            with pytest.raises(InputError, match=f"^line 3: position must be <= 2\\^62, got {big}$"):
                parse_records(f"{head}P1,{big},B\n")

    def test_csv_error_names_its_row(self, tmp_path):
        long_field = '"' + "x" * (csv.field_size_limit() + 1) + '"'
        with pytest.raises(InputError, match=r"^line 3: field larger than field limit"):
            parse_records(f"paper_id,position,author\nP1,1,A\nP1,2,{long_field}\n")
        # A lone CR ends a line of a str as it ends one of a file.
        assert _str_reads_as_file(parse_records, read_records, "paper_id,position,author\nP1,1,A\rB\n", tmp_path) == (
            "line 3: expected 'paper_id,position,author', got ['B']")
        assert _str_reads_as_file(parse_records, read_records, "paper_id\r,position,author\n", tmp_path) == (
            "line 1: expected header 'paper_id,position,author', got 'paper_id'")

    def test_faults_name_physical_lines(self, tmp_path):
        # The quoted name on lines 2-3 makes rows and lines differ: each
        # fault names the line its row starts on, not the row's number.
        head = 'paper_id,position,author\nP1,1,"A\nB"\n'
        with pytest.raises(InputError, match=r"^line 4: position must be an integer, got 'x'$"):
            parse_records(head + "P2,x,C\n")
        with pytest.raises(InputError, match=r"^line 4: duplicate position 1 for paper 'P1'$"):
            parse_records(head + "P1,1,C\n")
        with pytest.raises(InputError, match=r"^line 4: empty author name$"):
            parse_records(head + 'P1,2," \n "\n')
        assert _str_reads_as_file(parse_records, read_records, head + "P1,2,B\rC\n", tmp_path) == (
            "line 5: expected 'paper_id,position,author', got ['C']")
        long_field = '"' + "x\n" * (csv.field_size_limit() // 2 + 1) + '"'
        with pytest.raises(InputError, match=r"^line 4: field larger than field limit"):
            parse_records(f"{head}P1,2,{long_field}\n")

    @given(_near_valid_rows(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_row_loop(self, rows, final_newline):
        text = _records_text(rows, final_newline)
        try:
            expected = _row_loop_parse_records(text)
        except InputError as exc:
            expected = str(exc)
        try:
            got = parse_records(text)
        except InputError as exc:
            got = str(exc)
            if "position must be <= 2^62" in got:  # the row loop had no bound
                return
        assert got == expected

    @given(_valid_rows(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_valid_records_match_row_loop(self, rows, final_newline):
        text = _records_text(rows, final_newline)
        records = _row_loop_parse_records(text)
        assert parse_records(text) == records
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            path.write_text(text, encoding="utf-8")
            dist = ingest_records(path)
        assert dist == from_author_records(records)
        assert dist.total_works == len(records)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("irregular", [
        None,
        (10, 'P5000,1,"O""Brien"'),
        (11, 'P5006,1,"O""Neil"'),
        (500, 'P5001,1,"Two\nlines"'),
        (900, 'P5002,1,ab"c'),
        (1200, 'P5004,1,"Three\nP5005,1,Z\nlines"'),
        (1500, "P5003,1,\u00a0Author 3"),
        (1600, "P5008,1, \u00a0Author 8\u3000 "),
        (1999, "P5007," + "0" * 24 + "1,B"),
    ], ids=["none", "doubled-quote", "doubled-quote-2", "two-lines", "stray-quote", "three-lines", "nbsp-edge",
            "nbsp-under-padding", "25-digits"])
    def test_csv_reader_reads_all_rows_or_none(self, monkeypatch, newline, irregular):
        # 2,000 rows, some with a name or every field wholly inside a pair
        # of quotes, which the bulk pass reads: csv.reader reads only the
        # header. With one row it cannot prove csv.reader reads alike (a
        # doubled quote, a name spanning two lines, a stray quote, a name
        # spanning three lines whose middle one reads as a row, a U+00A0 at
        # a name's edge, or under its ASCII padding, a 25-digit position),
        # csv.reader reads every row.
        lines = []
        for i in range(1000):
            lines.append(f'"P{i}","1","Author {i % 97}"' if i % 11 == 0 else f"P{i},1,Author {i % 97}")
            lines.append(f'P{i},2,"Author{i % 89}, J."' if i % 7 == 0 else f"P{i},2,Coauthor {i}")
        if irregular:
            lines.insert(*irregular)
        text = newline.join(["paper_id,position,author", *lines, ""])
        seen = []
        csv_reader = csv.reader

        class reader:  # csv.reader, noting each row it reads
            def __init__(self, *args, **kwargs):
                self.rows = csv_reader(*args, **kwargs)

            def __iter__(self):
                return self

            def __next__(self):
                seen.append(next(self.rows))
                return seen[-1]

        monkeypatch.setattr(csv, "reader", reader)
        records = parse_records(text)
        monkeypatch.undo()
        every_row = list(csv.reader(io.StringIO(text)))
        assert len(every_row) == (2002 if irregular else 2001)
        assert seen == (every_row if irregular else every_row[:1])
        assert records == _row_loop_parse_records(text)

    @pytest.mark.parametrize("span_hash", [
        lambda words, starts, lengths: np.zeros(len(starts), dtype=np.uint64),
        lambda words, starts, lengths: lengths.astype(np.uint64),
    ], ids=["constant", "length"])
    def test_colliding_span_hashes_never_merge_ids_or_names(self, monkeypatch, tmp_path, span_hash):
        # Ids and names of one length, the most a hash could confuse; only
        # the byte-for-byte check keeps them apart once every hash collides.
        lines = [f"Q{i:02d},1,N{i % 7}" for i in range(40)] + [f"Q{i:02d},2,M{i}" for i in range(0, 40, 3)]
        text = "paper_id,position,author\n" + "\n".join(lines[::-1]) + "\n"
        path = tmp_path / "records.csv"
        path.write_text(text, encoding="utf-8")
        records = _row_loop_parse_records(text)
        monkeypatch.setattr(freqdata, "_span_hash", span_hash)
        assert parse_records(text) == records
        assert ingest_records(path) == from_author_records(records)
        assert ingest_records(path).as_dict() == {5: 2, 6: 5}

    def test_ingest_records_names_file(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("paper_id,position,author\nP1,2,A\n", encoding="utf-8")
        with pytest.raises(InputError, match=f"^{path}: paper 'P1' has no position-1"):
            ingest_records(path)
        path.write_bytes(b"paper_id,position,author\nP1,1,\xff\n")
        with pytest.raises(InputError, match=f"^{path}: not UTF-8 \\(invalid start byte at byte 30\\)$"):
            ingest_records(path)


class TestParseRecordsInBlocks(TestParseRecords):
    """Every records test again, with blocks of a few bytes: a block of 1
    or 7 bytes holds one line, and a block of 37 a line or three; rows are
    grouped and checked 1, 2 or 3 at a time along with them."""

    @pytest.fixture(autouse=True, scope="class", params=[1, 7, 37])
    def tiny_blocks(self, request):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(freqdata, "_BLOCK", request.param)
            patch.setattr(freqdata, "_ROW_BLOCK", {1: 1, 7: 2, 37: 3}[request.param])
            yield


class TestParseRecordsInt64Offsets(TestParseRecords):
    """Every records test again, with offsets held as int64 as in a file of 2 GiB or more."""

    @pytest.fixture(autouse=True, scope="class")
    def int64_offsets(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(freqdata, "_OFFSET_LIMIT", 0)
            yield


@pytest.mark.parametrize("routed", [False, True], ids=["bulk", "csv-reader"])
@pytest.mark.parametrize("limit, dtype", [(1 << 31, np.int32), (0, np.int64)])
def test_offsets_are_int32_below_the_limit(monkeypatch, routed, limit, dtype):
    monkeypatch.setattr(freqdata, "_OFFSET_LIMIT", limit)
    text = _ROWS.replace("C, D", 'C ""D""') if routed else _ROWS
    _, papers, authors, codes, _ = freqdata._record_columns(text.encode() + bytes(8))[1:]
    assert papers.dtype == authors.dtype == codes.dtype == dtype


def _paper_rows(papers, seed=0):
    """Rows of papers listed paper by paper: paper i has 1 to 3 authors from a pool of 50."""
    rng = random.Random(seed)
    return [
        [f"P{i}", str(p), f"Author {rng.randrange(50)}"]
        for i in range(papers)
        for p in range(1, rng.randint(1, 3) + 1)
    ]


def _same_as_row_loop(text, tmp_path):
    """parse_records and ingest_records on text give what the row loop gives, or its message."""
    path = tmp_path / "records.csv"
    path.write_text(text, encoding="utf-8")
    try:
        records = _row_loop_parse_records(text)
    except InputError as exc:
        for parse in (lambda: parse_records(text), lambda: ingest_records(path)):
            with pytest.raises(InputError) as excinfo:
                parse()
            assert str(excinfo.value).removeprefix(f"{path}: ") == str(exc)
        return str(exc)
    assert parse_records(text) == records
    assert ingest_records(path) == from_author_records(records)
    return records


class TestRecordBlocks:
    def test_line_longer_than_a_block(self, monkeypatch, tmp_path):
        monkeypatch.setattr(freqdata, "_BLOCK", 16)
        rows = _paper_rows(30)
        rows[20][2] = "A long name " * 20
        rows[21][2] = '"' + "Quoted, long name " * 20 + '"'
        assert len(_same_as_row_loop(_records_text(rows), tmp_path)) == 30

    def test_routed_row_only_in_the_last_block(self, monkeypatch, tmp_path):
        monkeypatch.setattr(freqdata, "_BLOCK", 64)
        rows = _paper_rows(60) + [["P60", "1", '"Two\nlines"']]
        records = _same_as_row_loop(_records_text(rows), tmp_path)
        assert records[-1].authors == ("Two\nlines",)

    def test_invalid_row_before_a_routed_row(self, monkeypatch, tmp_path):
        # The invalid row ends the bulk pass in block 1 (bytes 0-69); the
        # doubled quote at byte 195, in block 3, is never scanned, yet the
        # message is the row loop's.
        monkeypatch.setattr(freqdata, "_BLOCK", 64)
        rows = _paper_rows(60)
        rows[1][1] = "x"
        rows[11][2] = '"O""Brien"'
        text = _records_text(rows)
        assert text.index('"O') == 195
        scans = []
        scan_lines = freqdata._scan_lines
        monkeypatch.setattr(freqdata, "_scan_lines", lambda data: scans.append(len(data)) or scan_lines(data))
        assert _same_as_row_loop(text, tmp_path) == "line 3: position must be an integer, got 'x'"
        assert scans == [70 + 8, 70 + 8]  # block 1 alone, for parse_records and for ingest_records

    def test_shuffled_rows_sort_to_the_ordered_result(self, monkeypatch, tmp_path):
        monkeypatch.setattr(freqdata, "_BLOCK", 256)
        rows = _paper_rows(300)
        shuffled = rows[:]
        random.Random(1).shuffle(shuffled)
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(freqdata.np, "lexsort", lambda keys: sorts.append(len(keys[0])) or lexsort(keys))
        ordered = _same_as_row_loop(_records_text(rows), tmp_path)
        assert sorts == []  # rows listed paper by paper in position order are not sorted
        records = _same_as_row_loop(_records_text(shuffled), tmp_path)
        assert sorts and set(sorts) == {len(rows)}
        assert from_author_records(records) == from_author_records(ordered)

    def test_odd_quote_line_after_a_quoted_comma_in_its_block(self, tmp_path):
        # A comma lies outside quotes when an even number of its block's
        # quotes come before it, which holds only while no line's quotes
        # are odd; a stray quote after a quoted comma sends the file to
        # csv.reader, even where a second one makes the block's quotes even.
        rows = _paper_rows(6)
        rows[1][2] = '"Smith, J."'
        rows[3][2] = 'ab"c'
        rows[5][2] = 'd"e'
        text = _records_text(rows)
        assert freqdata._bulk_columns(text.encode() + bytes(8)) is None
        assert len(_same_as_row_loop(text, tmp_path)) == 6

    def test_odd_quote_line_in_a_later_block(self, monkeypatch, tmp_path):
        monkeypatch.setattr(freqdata, "_BLOCK", 64)
        rows = _paper_rows(40)
        for row in rows[::4]:
            row[2] = f'"{row[2]}, J."'
        rows[-4][2] = 'ab"c'
        text = _records_text(rows)
        assert text.index('ab"c') > 4 * 64
        assert freqdata._bulk_columns(text.encode() + bytes(8)) is None
        assert len(_same_as_row_loop(text, tmp_path)) == 40

    def test_tokenizer_sees_one_block_and_one_line_at_most(self, monkeypatch, tmp_path):
        # The bulk pass's temporaries are bounded by its blocks, not the file.
        block = 4096
        monkeypatch.setattr(freqdata, "_BLOCK", block)
        rows = _paper_rows(3000)
        rows[1000][2] = "A name longer than a block " * 200
        text = _records_text(rows)
        longest = max(map(len, text.encode().split(b"\n"))) + 1
        sizes = []
        for name in ("_scan_lines", "_split_fields"):
            spied = getattr(freqdata, name)
            monkeypatch.setattr(freqdata, name, lambda data, *rest, spied=spied: sizes.append(len(data) - 8) or
                                spied(data, *rest))
        path = tmp_path / "records.csv"
        path.write_text(text, encoding="utf-8")
        assert ingest_records(path) == from_author_records(_row_loop_parse_records(text))
        assert len(sizes) > 2 * len(text) // block
        assert max(sizes) <= block + longest < len(text) // 4


_ROWS = "paper_id,position,author\nP1,1,A\nP1,2,B\nP2,1,A\nP3,1,\"C, D\"\n"


_TEXT_MODE_BLOCKS = pytest.mark.parametrize("block", [1 << 20, 7])
_TEXT_MODE_FILES = pytest.mark.parametrize("data", [
    _ROWS.replace("\n", "\r\n").encode(),
    _ROWS.replace("\n", "\r").encode(),
    _ROWS.replace("\n", "\r", 2).encode(),
    _ROWS.replace("C, D", "C\rD").encode(),
    _ROWS.replace("C, D", "C\r\nD").encode(),
    b"\xef\xbb\xbf" + _ROWS.encode(),
    _ROWS.replace("B", "\u00e9").encode(),
    _ROWS.encode() + b"P4,1,\xff\n",
    _ROWS.encode() + b"P4,1,\xc3",
    _ROWS.encode() + b"P4,1,\xed\xa0\x80\n",
    b"",
    b"\r\n",
], ids=["crlf", "cr", "cr-and-lf", "cr-in-quotes", "crlf-in-quotes", "bom", "utf8", "invalid-utf8", "truncated-utf8",
        "surrogate", "empty", "blank"])


@_TEXT_MODE_BLOCKS
@_TEXT_MODE_FILES
def test_bytes_read_as_text_mode_read(monkeypatch, capsys, tmp_path, block, data):
    # Records read as bytes give what reading them as text gave: text mode
    # made CRLF and CR into LF, kept a BOM, and refused invalid UTF-8.
    monkeypatch.setattr(freqdata, "_BLOCK", block)
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    try:
        records = _row_loop_parse_records(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        expected = f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})"
    except InputError as exc:
        expected = f"{path}: {exc}"
    else:
        assert read_records(path) == records
        assert ingest_records(path) == from_author_records(records)
        assert run(["ingest", "--records", str(path), "--out", str(tmp_path / "d.csv")]) == 0
        return
    for read in (read_records, ingest_records):
        with pytest.raises(InputError) as excinfo:
            read(path)
        assert str(excinfo.value) == expected
    assert run(["ingest", "--records", str(path), "--out", str(tmp_path / "d.csv")]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


@_TEXT_MODE_BLOCKS
@_TEXT_MODE_FILES
def test_bytes_read_as_text_mode_read_with_int64_offsets(monkeypatch, capsys, tmp_path, block, data):
    # The same reads, results and messages with offsets held as int64, as in a file of 2 GiB or more.
    monkeypatch.setattr(freqdata, "_OFFSET_LIMIT", 0)
    test_bytes_read_as_text_mode_read(monkeypatch, capsys, tmp_path, block, data)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_records_read_whole_from_a_named_pipe(tmp_path):
    # A pipe reports size 0, and its writer's bytes arrive in pieces.
    path = tmp_path / "records.csv"
    os.mkfifo(path)
    data = _ROWS.replace("\n", "\r\n").encode()

    def write():
        with open(path, "wb", buffering=0) as pipe:
            pipe.write(data[:9])
            time.sleep(0.01)
            pipe.write(data[9:])

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    assert os.stat(path).st_size == 0
    assert read_records(path) == _row_loop_parse_records(_ROWS)
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("misreport", [-5, 5])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_records_read_whole_whatever_size_is_reported(monkeypatch, tmp_path, newline, misreport):
    # _read sizes its buffer from the reported size; one that is off either
    # way neither cuts the file short nor leaves a gap in it.
    path = tmp_path / "records.csv"
    path.write_bytes(_ROWS.replace("\n", newline).encode())
    expected = path.read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n") + bytes(8)
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + misreport))
    assert freqdata._read(path, lambda data, path: bytes(data)) == expected
    records = _row_loop_parse_records(_ROWS)
    assert read_records(path) == records
    assert ingest_records(path) == from_author_records(records)


# Newlines of every spelling: LF, CRLF, a lone CR, and CRs doubled or after an LF.
_NEWLINES = st.sampled_from(["\n", "\r\n", "\r", "\r\r\n", "\r\r", "\n\r"])
# Records lines, some with CRs inside quotes.
_CR_RECORD_LINES = st.sampled_from([
    "P1,1,A", "P1,2,B", "P2,1,C", 'P2,2,"Smith, J."', 'P3,1,"X\rY"', 'P4,1,"X\r\nY"', 'P5,1,"X\r\rY"',
    'P6,1,"X\n\rY"', "P7,1,D", "",
])


@st.composite
def _mixed_newline_texts(draw, head, lines):
    """head, then lines, each ended by one of _NEWLINES, the last perhaps by none."""
    parts = [head, *draw(st.lists(lines, max_size=6))]
    ends = draw(st.lists(_NEWLINES, min_size=len(parts), max_size=len(parts)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(part + end for part, end in zip(parts, ends))


@given(_mixed_newline_texts("level,count", st.tuples(_DIGIT_FIELDS, _DIGIT_FIELDS).map(",".join)))
@settings(max_examples=200, deadline=None)
def test_distribution_str_reads_as_its_file_whatever_the_newlines(text):
    with tempfile.TemporaryDirectory() as tmp:
        got = _str_reads_as_file(parse_distribution, read_distribution, text, tmp)
    assert got == _outcome(lambda: freqdata._parse_lines(_lf(text), "d"))


@given(_mixed_newline_texts("paper_id,position,author", _CR_RECORD_LINES))
@settings(max_examples=200, deadline=None)
def test_records_str_read_as_their_file_whatever_the_newlines(text):
    with tempfile.TemporaryDirectory() as tmp:
        got = _str_reads_as_file(parse_records, read_records, text, tmp)
    assert got == _outcome(lambda: _row_loop_parse_records(_lf(text)))


@pytest.mark.parametrize("parse, read, text, expected", [
    (parse_distribution, read_distribution, "level,count\r\n1,2\r\r\n3,1\r\n", "line 3: blank line"),
    (parse_distribution, read_distribution, "level,count\r1,2\r3,1\r", FrequencyDistribution.from_counts({1: 2, 3: 1})),
    (parse_records, read_records, 'paper_id,position,author\r\nP1,1,"A\r\nB"\r\nP2,1,C\r\n',
     [AuthorRecord("P1", ("A\nB",)), AuthorRecord("P2", ("C",))]),
    (parse_records, read_records, "paper_id,position,author\rP1,1,A\rP2,1,B\r",
     [AuthorRecord("P1", ("A",)), AuthorRecord("P2", ("B",))]),
], ids=["doubled-cr", "lone-cr-rows", "crlf-in-quotes", "lone-cr-records"])
def test_str_reads_as_its_file(tmp_path, parse, read, text, expected):
    assert _str_reads_as_file(parse, read, text, tmp_path) == expected


_GRIN = "\U0001f600"  # 4 bytes in UTF-8


@pytest.mark.parametrize("block", [4, 5, 6, 7, 9])
@pytest.mark.parametrize("tail", [b"", b"P4,1,\xff\n", b"P4,1,\xf0\x9f\x98", b"P4,1,\xe2\x28\xa1\n"],
                         ids=["valid", "invalid-byte", "truncated-at-eof", "invalid-continuation"])
def test_utf8_checked_in_blocks(monkeypatch, tmp_path, block, tail):
    # Every name holds a 4-byte character, so blocks of 4 to 9 bytes split
    # one at every offset; a fault in a later block is reported at its
    # byte in the file, as the whole-file decode reports it.
    monkeypatch.setattr(freqdata, "_UTF8_BLOCK", block)
    path = tmp_path / "records.csv"
    text = _ROWS.replace("A", _GRIN).replace("B", "x" + _GRIN).replace("C", "yz" + _GRIN)
    path.write_bytes(text.encode() + tail)
    try:
        path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        assert exc.start > 4 * block
        with pytest.raises(InputError) as excinfo:
            ingest_records(path)
        assert str(excinfo.value) == f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})"
    else:
        assert ingest_records(path) == from_author_records(_row_loop_parse_records(text))


def test_non_ascii_records_checked_in_bounded_memory(tmp_path):
    # One 4-byte character makes a whole-file decode hold 4 bytes a byte,
    # 4 MB for this 1 MB file; block by block, reading the file and
    # ingesting it peak within 1 MiB of the ASCII file's.
    rows = "".join(f"P{i},1,Author {i % 5000}\n" for i in range(50_000))
    peaks = []
    for name in ("Author 7", _GRIN):
        path = tmp_path / "records.csv"
        path.write_text("paper_id,position,author\n" + rows.replace("Author 7\n", name + "\n", 1), encoding="utf-8")
        assert path.stat().st_size > 10**6
        for read in (lambda: freqdata._read(path, lambda data, path: None), lambda: ingest_records(path)):
            tracemalloc.start()
            try:
                read()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert abs(peaks[2] - peaks[0]) < 2**20
    assert abs(peaks[3] - peaks[1]) < 2**20


def test_records_ingested_within_the_file_and_64_bytes_a_row(tmp_path):
    # Ingesting holds the file once, a few int32 and int64 values a row,
    # and temporaries that a block bounds, not the file.
    rng = random.Random(3)
    lines = ["paper_id,position,author"]
    for paper in rng.sample(range(10**6), 32_000):
        for position in range(1, rng.randint(1, 4) + 1):
            author = rng.randrange(8000)
            name = f'"Author{author}, J."' if author % 8 == 0 else f"Author {author}"
            lines.append(f"P{paper:07d},{position},{name}")
    text = "\n".join(lines) + "\n"
    path = tmp_path / "records.csv"
    path.write_text(text, encoding="utf-8")
    size, rows = path.stat().st_size, len(lines) - 1
    assert 1.5e6 < size < 2.5e6
    tracemalloc.start()
    try:
        dist = ingest_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist == from_author_records(_row_loop_parse_records(text))
    assert peak <= size + 64 * rows + 2**20


class TestTruncateRight:
    def test_filters_levels(self):
        d = FrequencyDistribution.from_counts({1: 600, 2: 150, 40: 3})
        assert truncate_right(d, 30).as_dict() == {1: 600, 2: 150}

    def test_ca_fixture_truncated_works(self, ca_dist):
        assert truncate_right(ca_dist, 30).total_works == 19116

    def test_identity_at_max_level(self, ca_dist):
        assert truncate_right(ca_dist, ca_dist.max_level) == ca_dist

    def test_cutoff_leaves_nothing(self):
        d = FrequencyDistribution.from_counts({5: 10})
        with pytest.raises(InputError, match="leaves no populated levels"):
            truncate_right(d, 4)
        with pytest.raises(InputError, match="cutoff must be >= 1"):
            truncate_right(d, 0)

    @given(distributions, st.integers(min_value=1, max_value=400))
    @settings(max_examples=80, deadline=None)
    def test_works_conserved(self, d, cutoff):
        lowest = min(level for level, a in d.entries if a > 0)
        cutoff = min(max(cutoff, lowest), d.max_level)
        kept = truncate_right(d, cutoff)
        report = truncation_report(d, cutoff)
        assert d.total_works == kept.total_works + report.removed_works


class TestTruncationReport:
    def test_chemical_abstracts_row(self, ca_dist):
        r = truncation_report(ca_dist, 30)
        assert (r.removed_level_range, r.pct_range) == (316, 91.33)
        assert (r.removed_works, r.pct_works) == (3818, 16.65)
        assert (r.removed_authors_from_denominator, r.pct_authors) == (0, 0.0)
        assert r.removed_authors_physical == 113

    def test_auerbach_row(self, auerbach_dist):
        r = truncation_report(auerbach_dist, 17)
        assert (r.removed_level_range, r.pct_range) == (31, 64.58)
        assert (r.removed_works, r.pct_works) == (451, 13.27)
        assert (r.removed_authors_from_denominator, r.pct_authors) == (0, 0.0)

    def test_identity_case(self, ca_dist):
        r = truncation_report(ca_dist, ca_dist.max_level)
        assert r.removed_level_range == r.removed_works == 0
        assert r.pct_range == r.pct_works == r.pct_authors == 0.0

    def test_cutoff_beyond_max(self, ca_dist):
        with pytest.raises(InputError, match="exceeds max level"):
            truncation_report(ca_dist, 347)

    @given(distributions, st.integers(min_value=1, max_value=400))
    @settings(max_examples=80, deadline=None)
    def test_percentages_recompute(self, d, cutoff):
        cutoff = min(cutoff, d.max_level)
        r = truncation_report(d, cutoff)
        # Compare the printed two-decimal value with the exact ratio in
        # rational arithmetic: a tie such as 46.875 -> 46.88 sits exactly
        # 0.005 away, which float subtraction overshoots.
        half_cent = Fraction(1, 200)
        exact_range = Fraction(100 * r.removed_level_range, d.max_level)
        exact_works = Fraction(100 * r.removed_works, d.total_works)
        assert abs(Fraction(repr(r.pct_range)) - exact_range) <= half_cent
        assert abs(Fraction(repr(r.pct_works)) - exact_works) <= half_cent
        assert r.pct_authors == 0.0

    def test_to_dict_carries_physical_count(self, ca_dist):
        payload = truncation_report(ca_dist, 30).to_dict()
        assert payload["removed_authors_from_denominator"] == 0
        assert payload["removed_authors_physical"] == 113


class TestBinHistogram:
    @given(
        distributions,
        st.one_of(st.integers(1, 50), st.just("max_level"), st.integers(2**63, 2**80)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_bin_rescan(self, d, width):
        width = d.max_level if width == "max_level" else width
        assert bin_histogram(d, width).bins == rescan_bins(d, width)

    def test_small_example(self):
        d = FrequencyDistribution.from_counts({1: 6, 2: 3, 16: 1})
        bins = bin_histogram(d, 15)
        assert bins.bins[0][:3] == (1, 15, 9)
        assert bins.bins[1][:3] == (16, 30, 1)

    def test_ca_fixture_half_cutoff_bins(self, ca_dist):
        bins = bin_histogram(ca_dist, 15)
        assert bins.bins[0][:3] == (1, 15, 6354)
        assert bins.bins[1][:3] == (16, 30, 424)
        assert bins.bins[-1][:3] == (346, 360, 1)
        assert len(bins.bins) == 24

    def test_width_one_identity(self):
        d = FrequencyDistribution.from_counts({1: 4, 3: 2})
        bins = bin_histogram(d, 1)
        assert [(s, c) for s, _, c, _ in bins.bins] == [(1, 4), (2, 0), (3, 2)]

    def test_bad_width(self):
        d = FrequencyDistribution.from_counts({1: 4})
        with pytest.raises(InputError):
            bin_histogram(d, 0)

    @pytest.mark.parametrize(
        "max_level,width", [(MAX_LEVEL, 1), (MAX_LEVEL, 2**42 - 1), (MAX_BINS + 1, 1), (3 * MAX_BINS + 1, 3)]
    )
    def test_bin_count_bound(self, max_level, width):
        # Rejected widths only; test_exactly_max_bins_accepted takes the largest accepted count.
        d = FrequencyDistribution.from_counts({1: 5, max_level: 1})
        with pytest.raises(InputError, match=r"more than 2\^20") as excinfo:
            bin_histogram(d, width)
        fits = int(str(excinfo.value).rsplit(" ", 1)[1])
        assert -(-max_level // fits) <= MAX_BINS < -(-max_level // (fits - 1))

    def test_exactly_max_bins_accepted(self):
        d = FrequencyDistribution.from_counts({1: 5, MAX_BINS: 1})
        bins = bin_histogram(d, 1)
        assert len(bins.counts) == len(bins.bins) == MAX_BINS
        assert (bins.counts[0], bins.counts[-1], np.count_nonzero(bins.counts)) == (5, 1, 2)
        assert bins.bins[-1] == (MAX_BINS, MAX_BINS, 1, 100.0 / 6)
        assert bins.total_authors == 6

    @given(distributions, st.integers(min_value=1, max_value=50))
    @settings(max_examples=80, deadline=None)
    def test_authors_conserved_and_partition(self, d, width):
        bins = bin_histogram(d, width)
        assert sum(c for _, _, c, _ in bins.bins) == d.total_authors
        assert bins.bins[0][0] == 1
        for (_, prev_end, _, _), (start, _, _, _) in zip(bins.bins, bins.bins[1:]):
            assert start == prev_end + 1
        assert bins.bins[-1][1] >= d.max_level > bins.bins[-1][1] - width
        assert abs(sum(p for *_, p in bins.bins) - 100.0) < 1e-9


class TestHistogramBinsApi:
    def test_tuple_constructor_equals_binned(self, ca_dist):
        binned = bin_histogram(ca_dist, 15)
        rebuilt = HistogramBins(15, binned.bins)
        assert rebuilt == binned and rebuilt.bins == binned.bins
        assert HistogramBins(15, list(map(list, binned.bins))) == binned
        assert rebuilt != bin_histogram(ca_dist, 16) and rebuilt != binned.bins

    def test_bins_rows_unchanged(self):
        d = FrequencyDistribution.from_counts({1: 4, 3: 2})
        assert bin_histogram(d, 2).bins == ((1, 2, 4, 100.0 * 4 / 6), (3, 4, 2, 100.0 * 2 / 6))
        wide = bin_histogram(d, 2**70)
        assert wide.bins == ((1, 2**70, 6, 100.0),)
        assert all(type(v) is int for v in wide.bins[0][:3]) and type(wide.bins[0][3]) is float

    def test_arrays_read_only(self, ca_dist):
        bins = bin_histogram(ca_dist, 1)
        assert (bins.counts.dtype, bins.percents.dtype) == (np.int64, np.float64)
        for array in (bins.counts, bins.percents):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        counts = np.array([1, 2])
        built = HistogramBins.from_arrays(1, counts, [50.0, 50.0])
        counts[0] = 9
        assert built.counts.tolist() == [1, 2]

    def test_total_authors_exact(self):
        bins = HistogramBins.from_arrays(1, [MAX_LEVEL] * 3, [100.0 / 3] * 3)
        assert bins.total_authors == 3 * MAX_LEVEL
        assert type(bins.total_authors) is int

    def test_equal_bins_hash_equal(self, ca_dist):
        a, b = bin_histogram(ca_dist, 15), bin_histogram(ca_dist, 15)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, bin_histogram(ca_dist, 1)}) == 2

    @pytest.mark.parametrize(
        "width,rows",
        [(0, []), (1.5, []), (2, [(1, 1, 1, 100.0)]), (1, [(2, 2, 1, 100.0)]), (1, [(1, 1, 1)]),
         (1, [(1, 1, 1.5, 100.0)]), (1, [(1, 1, 2**63, 100.0)])],
    )
    def test_tuple_constructor_rejects_untiled_rows(self, width, rows):
        with pytest.raises(InputError):
            HistogramBins(width, rows)


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(91.32947976878613, 91.33), (64.58333333333334, 64.58), (0.005, 0.01), (2.675, 2.68)],
    )
    def test_half_up(self, value, expected):
        assert round_half_up(value) == expected
