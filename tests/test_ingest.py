import bisect
import io
import math
import re
from array import array
from datetime import date, datetime, timedelta
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aftershocks import DataError, align_origin, compact_gaps, load_records, window_length_for_days
from aftershocks import ingest
from aftershocks.ingest import MinuteBars, PriceSeries


def _seconds(instant: datetime) -> int:
    """Whole seconds from 1970-01-01 to ``instant``."""
    return int((instant - datetime(1970, 1, 1)).total_seconds())


def _datetimes(stamps) -> list[datetime]:
    return [datetime(1970, 1, 1) + timedelta(seconds=s) for s in stamps]


def _bars(walls: list[datetime], price: float = 1.0) -> MinuteBars:
    return MinuteBars(
        wall_clock=array("q", map(_seconds, walls)), price=array("d", [price] * len(walls))
    )


def _records(*stamps: str, price: float = 1.0) -> MinuteBars:
    return _bars([datetime.fromisoformat(s) for s in stamps], price)


# Small pools, so that cells repeat across rows as they do in real exports.
_GOOD_CELLS = (
    ("20141215", "20141216", " 20150102 "),
    ("100000", "100100", "235959", " 000000"),
    ("58.17", "0.5", "1e-3", "72", " 61.2\t", "\x1f0.7\x1f"),
)
_BAD_CELLS = (
    ("2014-12-15", "20141332", "", "2O141215"),
    ("10:00", "246000", "", "1000000"),
    ("0", "-1.5", "abc", "", "inf", "nan", "-inf"),
)


@st.composite
def _csv_rows(draw):
    """Rows of date, time and price cells, a few of them corrupted: a bad
    cell in one column, or a row cut short."""
    row = st.tuples(*(st.sampled_from(pool) for pool in _GOOD_CELLS)).map(list)
    rows = draw(st.lists(row, max_size=40))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, 3))
        if column == 3:
            rows[i] = rows[i][:2]
        elif column < len(rows[i]):
            rows[i][column] = draw(st.sampled_from(_BAD_CELLS[column]))
    return rows


def _parse_every_row(rows):
    """Reference: strptime on every row. Returns the timestamps and the
    prices, or the 1-based number of the first row that must be rejected."""
    walls, prices = [], []
    for row_no, row in enumerate(rows, start=1):
        if len(row) < 3:
            return row_no
        try:
            day = datetime.strptime(row[0].strip(), "%Y%m%d")
            clock = datetime.strptime(row[1].strip(), "%H%M%S")
            price = float(row[2].strip())
        except ValueError:
            return row_no
        if not math.isfinite(price) or price <= 0:
            return row_no
        walls.append(day.replace(hour=clock.hour, minute=clock.minute, second=clock.second))
        prices.append(price)
    return walls, prices


def _load_both_ways(text, newline="\n", chunk_chars=None):
    """``load_records`` on ``text`` as is and with every row left to the row
    loop: each result is the (timestamps, prices) pair or the error."""

    def load():
        try:
            records = load_records(io.StringIO(text, newline=newline))
        except DataError as exc:
            return f"{type(exc).__name__}: {exc}"
        return _datetimes(records.wall_clock), records.price.tolist()

    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars or ingest._CHUNK_CHARS):
        got = load()
    with mock.patch.object(ingest, "_plain_chunk", lambda *args: None):
        return got, load()


def _check_order_per_record(wall: list[datetime]) -> None:
    """Reference: the per-record ordering check on datetime objects."""
    for i in range(1, len(wall)):
        if wall[i] == wall[i - 1]:
            raise DataError(f"duplicate timestamp {wall[i]} at record {i + 1}")
        if wall[i] < wall[i - 1]:
            raise DataError(
                f"timestamps not sorted: record {i + 1} ({wall[i]}) precedes {wall[i - 1]}"
            )


def _window_length_per_record(wall: list[datetime], days: int, i0: int) -> int:
    """Reference: walk the records from ``i0`` until the date after the
    ``days``-th distinct one begins."""
    count = 0
    current = None
    end = i0
    for i in range(i0, len(wall)):
        d = wall[i].date()
        if d != current:
            count += 1
            current = d
            if count > days:
                break
        end = i
    return end - i0


# Up to 30 minute stamps from four days, in any order and possibly repeated.
_stamps = st.lists(
    st.integers(0, 4 * 24 * 60 - 1).map(lambda m: datetime(2014, 12, 15) + timedelta(minutes=m)),
    max_size=30,
)


class TestPriceSeries:
    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="x and wall_clock must be equally long"):
            PriceSeries(x=[1.0, 2.0], wall_clock=[0])

    @pytest.mark.parametrize("prices", [[1.0, 0.0], [math.nan, 1.0], [1.0, math.nan]])
    def test_zero_or_nan_price_is_data_error(self, prices):
        with pytest.raises(DataError, match="prices must be positive"):
            PriceSeries(x=prices, wall_clock=[0, 60])

    @pytest.mark.parametrize("prices", [[1.0, math.inf, 2.0], [math.inf, 1.0, 2.0], [1.0, 2.0, math.nan]])
    def test_non_finite_price_is_data_error(self, prices):
        # an inf price used to pass and give the returns [inf, nan]
        with pytest.raises(DataError, match="prices must be positive and finite"):
            PriceSeries(x=prices, wall_clock=[0, 60, 120])

    def test_finite_prices_whose_sum_overflows_are_accepted(self):
        series = PriceSeries(x=[1e308, 1e308, 1.0], wall_clock=[0, 60, 120])
        assert math.isinf(sum(series.x))
        assert series.x.tolist() == [1e308, 1e308, 1.0]


class TestLoadRecords:
    def test_header_and_two_rows(self):
        src = io.StringIO("DATE,TIME,CLOSE\n20141215,100000,58.17\n20141215,100100,58.30\n")
        records = load_records(src)
        assert len(records) == 2
        assert records.wall_clock.typecode == "q"
        assert _datetimes(records.wall_clock) == [
            datetime(2014, 12, 15, 10, 0),
            datetime(2014, 12, 15, 10, 1),
        ]
        assert records.price.tolist() == [58.17, 58.30]

    def test_zero_price_names_the_row(self):
        src = io.StringIO("DATE,TIME,CLOSE\n20141215,100000,58.17\n20141215,100100,0\n")
        with pytest.raises(DataError, match="row 2"):
            load_records(src)

    def test_missing_column_named(self):
        src = io.StringIO("DATE,TIME,PRICE\n20141215,100000,58.17\n")
        with pytest.raises(DataError, match="CLOSE"):
            load_records(src)

    def test_unparseable_datetime_names_the_row(self):
        src = io.StringIO("DATE,TIME,CLOSE\n2014-12-15,100000,58.17\n")
        with pytest.raises(DataError, match="row 1"):
            load_records(src)

    def test_unparseable_price_names_the_row(self):
        src = io.StringIO("DATE,TIME,CLOSE\n20141215,100000,abc\n")
        with pytest.raises(DataError, match="row 1"):
            load_records(src)

    def test_empty_input(self):
        with pytest.raises(DataError, match="header"):
            load_records(io.StringIO(""))

    def test_short_row(self):
        src = io.StringIO("DATE,TIME,CLOSE\n20141215,100000\n")
        with pytest.raises(DataError, match="row 1"):
            load_records(src)

    def test_custom_columns_and_formats(self):
        src = io.StringIO("when|at|px\n2014.12.15|10:00|58.17\n")
        records = load_records(
            src,
            date_column="when",
            time_column="at",
            price_column="px",
            delimiter="|",
            date_format="%Y.%m.%d",
            time_format="%H:%M",
        )
        assert _datetimes(records.wall_clock) == [datetime(2014, 12, 15, 10, 0)]

    def test_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(DataError, match=re.escape(f"cannot read {path}: No such file")):
            load_records(path)

    def test_header_only_gives_empty_columns(self):
        records = load_records(io.StringIO("DATE,TIME,CLOSE\n"))
        assert len(records) == 0
        assert records.wall_clock.typecode == "q"
        assert records.price.typecode == "d"

    @given(rows=_csv_rows(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_rows_match_per_row_reference(self, rows, data):
        # The column path must give what the row loop gives, values and
        # messages alike, whatever the line ends, blank lines, extra fields,
        # quoting and chunk size.
        newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
        extra = data.draw(st.lists(st.sampled_from(["", "x", "1.5"]), max_size=2), label="extra")
        rows = [row + extra for row in rows]
        if rows and data.draw(st.booleans(), label="ragged"):
            rows[data.draw(st.integers(0, len(rows) - 1))].append("y")
        lines = [",".join(row) for row in rows]
        if rows and data.draw(st.booleans(), label="quoted"):
            i = data.draw(st.integers(0, len(rows) - 1))
            j = data.draw(st.integers(0, len(rows[i]) - 1))
            lines[i] = ",".join(f'"{cell}"' if k == j else cell for k, cell in enumerate(rows[i]))
        for i in data.draw(st.lists(st.integers(0, len(lines)), max_size=3), label="blank lines"):
            lines.insert(i, "")
        text = "DATE,TIME,CLOSE" + newline + "".join(line + newline for line in lines)
        chunk_chars = data.draw(st.sampled_from([64, ingest._CHUNK_CHARS]), label="chunk chars")

        expected = _parse_every_row(rows)
        got, row_loop = _load_both_ways(text, chunk_chars=chunk_chars)
        assert got == row_loop
        if isinstance(expected, int):
            assert re.search(rf"^DataError: .*\brow {expected}:", got)
        else:
            assert got == expected

    @pytest.mark.parametrize("chunk_chars", [64, ingest._CHUNK_CHARS])
    @pytest.mark.parametrize(
        "text,newline,expected",
        [
            # rows of 3, 4 and 2 fields: 9 cells, as many as three full rows
            ("DATE,TIME,CLOSE\n20141215,100000,58.17\n20141215,100100,58.2,20141215\n100200,58.3\n",
             "\n", "DataError: malformed row 3: expected >= 3 fields, got 2"),
            # a lone CR ends a line of a file; the ignored last cell must not
            # swallow the next row
            ("DATE,TIME,CLOSE,NOTE\r20141215,100000,58.17,x\r20141215,100100,58.2,x\r", "",
             ([datetime(2014, 12, 15, 10, 0), datetime(2014, 12, 15, 10, 1)], [58.17, 58.2])),
            # a quoted cell holding delimiters is one cell
            ('NOTE,DATE,TIME,CLOSE\n' + '"a,20141215,100000,58.17,b",20141216,110000,60\n' * 2,
             "\n", ([datetime(2014, 12, 16, 11, 0)] * 2, [60.0] * 2)),
            ("DATE,TIME,CLOSE\n20141215,100000,58.17", "\n", ([datetime(2014, 12, 15, 10, 0)], [58.17])),
            # with 64-character chunks, row 51 is in the twentieth chunk
            ("DATE,TIME,CLOSE\n" + "20141215,100000,58.17\n" * 50 + "20141215,100100,0\n", "\n",
             "DataError: row 51: non-positive price 0"),
            # NUL in a cell: parsed on Python 3.11+, a DataError naming the
            # row before
            ("DATE,TIME,CLOSE,NOTE\n20141215,100000,58.17,\0\n", "\n", None),
        ],
        ids=["balanced-ragged-rows", "cr-line-ends", "quoted-delimiters", "no-final-newline",
             "error-in-later-chunk", "nul"],
    )
    def test_layout_read_as_csv_reader_reads_it(self, text, newline, expected, chunk_chars):
        got, row_loop = _load_both_ways(text, newline=newline, chunk_chars=chunk_chars)
        assert got == row_loop
        if expected is not None:
            assert got == expected

    def test_not_utf8_past_first_chunk_names_byte_offset(self, tmp_path):
        body = b"DATE,TIME,CLOSE\n" + b"20141215,100000,61.5\n" * 4000 + b"\xff\n"
        assert body.index(b"\xff") > ingest._CHUNK_CHARS
        path = tmp_path / "bars.csv"
        path.write_bytes(body)
        offset = body.index(b"\xff")
        with pytest.raises(DataError, match=rf"invalid start byte at byte offset {offset}\)"):
            load_records(path)

    @pytest.mark.parametrize("header", ["DATE,TIME,CLOSE", "<DATE>,<TIME>,<CLOSE>"])
    def test_byte_order_mark_before_header_is_dropped(self, tmp_path, header):
        # Excel's "CSV UTF-8" starts the file with U+FEFF
        text = header + "\n20141215,100000,58.17\n"
        path = tmp_path / "bars.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        expected = load_records(io.StringIO(text))
        for source in (path, io.StringIO("\ufeff" + text)):
            records = load_records(source)
            assert (records.wall_clock, records.price) == (expected.wall_clock, expected.price)

    def test_finam_style_brackets(self, minute_bars_path):
        records = load_records(minute_bars_path, delimiter=";")
        assert len(records) == 2520
        assert _datetimes(records.wall_clock[:1]) == [datetime(2014, 12, 12, 10, 0)]
        assert min(records.price) > 0


def _cells(width: int):
    """Cells of ``width`` characters around the default stamp formats:
    valid stamps, digits in any field range, and digits mixed with spaces,
    signs and non-ASCII digits, with or without surrounding blanks."""
    if width == 8:
        valid = st.dates().map(lambda d: f"{d.year:04d}{d.month:02d}{d.day:02d}")
    else:
        valid = st.times().map(lambda t: f"{t.hour:02d}{t.minute:02d}{t.second:02d}")
    digits = st.text("0123456789", min_size=width, max_size=width)
    mixed = st.text("0123456789 +-_\u0662\uff10\uff11\uff14\u00b2", min_size=width, max_size=width)
    blanks = st.text(" \t", max_size=2)
    return st.tuples(blanks, st.one_of(valid, digits, mixed), blanks).map("".join)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError:
        return ValueError


class TestStampFastPath:
    # the default formats read fixed-width digits by slicing, and must give
    # strptime's value, or fail, on the same cells

    @given(cell=_cells(8))
    @example(cell="\uff12\uff10\uff11\uff14\uff11\uff12\uff10\uff14")
    @example(cell="20150229")
    @example(cell="00000101")
    @settings(max_examples=500, deadline=None)
    def test_date_matches_strptime(self, cell):
        text = cell.strip()
        expected = _outcome(lambda: datetime.strptime(text, ingest.DEFAULT_DATE_FORMAT).date())
        assert _outcome(ingest._parse_date, text, ingest.DEFAULT_DATE_FORMAT) == expected

    @given(cell=_cells(6))
    @example(cell="\uff11\uff10\uff10\uff10\uff10\uff10")
    @example(cell="235960")
    @example(cell="240000")
    @settings(max_examples=500, deadline=None)
    def test_time_matches_strptime(self, cell):
        text = cell.strip()

        def reference():
            clock = datetime.strptime(text, ingest.DEFAULT_TIME_FORMAT)
            return clock.hour * 3600 + clock.minute * 60 + clock.second

        assert _outcome(ingest._parse_clock, text, ingest.DEFAULT_TIME_FORMAT) == _outcome(reference)

    def test_other_formats_go_to_strptime(self):
        assert ingest._parse_date("20141204", "%Y%d%m") == date(2014, 4, 12)
        assert ingest._parse_clock("100000", "%M%S%H") == 600

    def test_default_stamps_need_no_strptime(self, minute_bars_path):
        with mock.patch.object(ingest, "datetime", wraps=datetime) as spy:
            records = load_records(minute_bars_path, delimiter=";")
        assert len(records) and not spy.strptime.called


class TestCompactGaps:
    def test_gap_removed(self):
        series = compact_gaps(
            _records("2014-12-15 09:00", "2014-12-15 09:01", "2014-12-16 10:00")
        )
        assert list(series.t) == [0, 1, 2]

    def test_single_record(self):
        series = compact_gaps(_records("2014-12-15 09:00"))
        assert list(series.t) == [0]

    def test_duplicate_timestamp_is_error(self):
        with pytest.raises(DataError, match="duplicate"):
            compact_gaps(_records("2014-12-15 09:00", "2014-12-15 09:00"))

    def test_unsorted_is_error(self):
        with pytest.raises(DataError, match="sorted"):
            compact_gaps(_records("2014-12-15 09:01", "2014-12-15 09:00"))

    def test_idempotent_on_contiguous_minutes(self):
        stamps = [f"2014-12-15 09:{m:02d}" for m in range(10)]
        series = compact_gaps(_records(*stamps))
        assert list(series.t) == list(range(10))

    def test_round_trip_preserves_every_timestamp(self):
        stamps = ["2014-12-15 09:00", "2014-12-15 11:07", "2014-12-17 10:00"]
        series = compact_gaps(_records(*stamps))
        walls = _datetimes(series.wall_clock)
        assert [w.isoformat(sep=" ", timespec="minutes") for w in walls] == stamps

    def test_no_records_dropped(self):
        records = _records("2014-12-15 09:00", "2014-12-15 09:05", "2014-12-15 09:06")
        assert len(compact_gaps(records)) == len(records)

    @given(walls=_stamps, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_order_matches_per_record_check(self, walls, data):
        walls = sorted(set(walls))
        # duplicate some stamps, then swap some pairs
        for _ in range(data.draw(st.integers(0, 2)) if walls else 0):
            i = data.draw(st.integers(0, len(walls) - 1))
            walls.insert(i, walls[i])
        for _ in range(data.draw(st.integers(0, 2)) if len(walls) > 1 else 0):
            i, j = data.draw(st.lists(st.integers(0, len(walls) - 1), min_size=2, max_size=2))
            walls[i], walls[j] = walls[j], walls[i]
        try:
            _check_order_per_record(walls)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                compact_gaps(_bars(walls))
            assert str(got.value) == str(exc)
        else:
            assert _datetimes(compact_gaps(_bars(walls)).wall_clock) == walls


class TestAlignOrigin:
    def test_crash_at_third_record(self):
        series = compact_gaps(
            _records("2014-12-15 09:00", "2014-12-15 09:01", "2014-12-15 09:02")
        )
        aligned = align_origin(series, datetime(2014, 12, 15, 9, 2))
        assert list(aligned.t) == [-2, -1, 0]
        assert aligned.origin_wall_clock == datetime(2014, 12, 15, 9, 2)

    def test_crash_before_first_record(self):
        series = compact_gaps(_records("2014-12-15 09:00"))
        with pytest.raises(DataError, match="precedes"):
            align_origin(series, datetime(2014, 12, 15, 8, 59))

    def test_crash_after_last_record(self):
        series = compact_gaps(_records("2014-12-15 09:00"))
        with pytest.raises(DataError, match="after the last"):
            align_origin(series, datetime(2014, 12, 15, 9, 1))

    def test_crash_in_gap_snaps_forward(self):
        series = compact_gaps(
            _records("2014-12-15 09:00", "2014-12-15 09:01", "2014-12-16 10:00")
        )
        aligned = align_origin(series, datetime(2014, 12, 15, 20, 17))
        assert aligned.origin_wall_clock == datetime(2014, 12, 16, 10, 0)
        assert list(aligned.t) == [-2, -1, 0]

    def test_crash_with_fractional_second_snaps_forward(self):
        series = compact_gaps(_records("2014-12-15 09:00", "2014-12-15 09:01"))
        aligned = align_origin(series, datetime(2014, 12, 15, 9, 0, 0, 500_000))
        assert aligned.origin_wall_clock == datetime(2014, 12, 15, 9, 1)
        assert list(aligned.t) == [-1, 0]

    @given(walls=_stamps, offset=st.integers(0, 4 * 24 * 60 * 60))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_origin_matches_bisect(self, walls, offset):
        walls = sorted(set(walls))
        crash = datetime(2014, 12, 15) + timedelta(seconds=offset)
        series = compact_gaps(_bars(walls))
        if not walls or not walls[0] <= crash <= walls[-1]:
            with pytest.raises(DataError):
                align_origin(series, crash)
            return
        idx = bisect.bisect_left(walls, crash)
        aligned = align_origin(series, crash)
        assert (aligned.t_start, aligned.origin_wall_clock) == (-idx, walls[idx])

    def test_prices_preserved(self):
        series = compact_gaps(_records("2014-12-15 09:00", "2014-12-15 09:01", price=3.5))
        aligned = align_origin(series, datetime(2014, 12, 15, 9, 1))
        assert aligned.x == series.x

    def test_shares_the_checked_columns_without_checking_again(self):
        series = compact_gaps(_records("2014-12-15 09:00", "2014-12-15 09:01"))
        with mock.patch.object(PriceSeries, "__post_init__", side_effect=AssertionError("checked again")):
            aligned = align_origin(series, datetime(2014, 12, 15, 9, 1))
        assert type(aligned) is PriceSeries
        assert aligned.x is series.x and aligned.wall_clock is series.wall_clock
        assert (series.t_start, series.origin_wall_clock) == (0, None)


class TestWindowLengthForDays:
    def test_counts_exchange_days_from_data(self):
        stamps = (
            [f"2014-12-15 09:{m:02d}" for m in range(3)]
            + [f"2014-12-16 09:{m:02d}" for m in range(3)]
            + [f"2014-12-18 09:{m:02d}" for m in range(3)]
        )
        series = compact_gaps(_records(*stamps))
        assert window_length_for_days(series, 1) == 2
        assert window_length_for_days(series, 2) == 5
        assert window_length_for_days(series, 3) == 8

    def test_fewer_days_than_requested(self):
        series = compact_gaps(_records("2014-12-15 09:00", "2014-12-15 09:01"))
        assert window_length_for_days(series, 100) == 1

    @given(walls=_stamps, days=st.integers(1, 5), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_days_match_per_record_walk(self, walls, days, data):
        walls = sorted(set(walls))
        if not walls:
            return
        i0 = data.draw(st.integers(0, len(walls) - 1))
        series = PriceSeries(x=[1.0] * len(walls), wall_clock=map(_seconds, walls), t_start=-i0)
        assert window_length_for_days(series, days) == _window_length_per_record(walls, days, i0)

    def test_start_outside_series(self):
        # a series whose first minute is t = 5 holds no t = 0 to count from
        series = PriceSeries(x=[1.0], wall_clock=[_seconds(datetime(2014, 12, 15, 9))], t_start=5)
        with pytest.raises(DataError):
            window_length_for_days(series, 1)

    def test_days_must_be_positive(self):
        series = compact_gaps(_records("2014-12-15 09:00", "2014-12-15 09:01"))
        with pytest.raises(ValueError, match="days must be positive"):
            window_length_for_days(series, 0)
