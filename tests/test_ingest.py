import io
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftershocks import DataError, align_origin, compact_gaps, load_records, window_length_for_days
from aftershocks.ingest import ColumnMap, RawRecord


def _records(*stamps: str, price: float = 1.0) -> list[RawRecord]:
    return [RawRecord(wall_clock=datetime.fromisoformat(s), price=price) for s in stamps]


# Small pools, so that cells repeat across rows as they do in real exports.
_GOOD_CELLS = (
    ("20141215", "20141216", " 20150102 "),
    ("100000", "100100", "235959", " 000000"),
    ("58.17", "0.5", "1e-3", "72"),
)
_BAD_CELLS = (
    ("2014-12-15", "20141332", "", "2O141215"),
    ("10:00", "246000", "", "1000000"),
    ("0", "-1.5", "abc", ""),
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
    """Reference: strptime on every row. Returns the records, or the
    1-based number of the first row that must be rejected."""
    records = []
    for row_no, row in enumerate(rows, start=1):
        if len(row) < 3:
            return row_no
        try:
            day = datetime.strptime(row[0].strip(), "%Y%m%d")
            clock = datetime.strptime(row[1].strip(), "%H%M%S")
            price = float(row[2].strip())
        except ValueError:
            return row_no
        if price <= 0:
            return row_no
        wall_clock = day.replace(hour=clock.hour, minute=clock.minute, second=clock.second)
        records.append(RawRecord(wall_clock=wall_clock, price=price))
    return records


class TestLoadRecords:
    def test_header_and_two_rows(self):
        src = io.StringIO("DATE,TIME,CLOSE\n20141215,100000,58.17\n20141215,100100,58.30\n")
        records = load_records(src)
        assert len(records) == 2
        assert records[0].wall_clock == datetime(2014, 12, 15, 10, 0)
        assert records[0].price == pytest.approx(58.17)
        assert records[1].wall_clock == datetime(2014, 12, 15, 10, 1)

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
            ColumnMap(date="when", time="at", price="px"),
            delimiter="|",
            date_format="%Y.%m.%d",
            time_format="%H:%M",
        )
        assert records[0].wall_clock == datetime(2014, 12, 15, 10, 0)

    @given(rows=_csv_rows())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_rows_match_per_row_reference(self, rows):
        text = "DATE,TIME,CLOSE\n" + "".join(",".join(row) + "\n" for row in rows)
        expected = _parse_every_row(rows)
        if isinstance(expected, int):
            with pytest.raises(DataError, match=rf"\brow {expected}:"):
                load_records(io.StringIO(text))
        else:
            assert load_records(io.StringIO(text)) == expected

    def test_finam_style_brackets(self, minute_bars_path):
        records = load_records(minute_bars_path, delimiter=";")
        assert len(records) == 2520
        assert records[0].wall_clock == datetime(2014, 12, 12, 10, 0)
        assert all(r.price > 0 for r in records)


class TestCompactGaps:
    def test_gap_removed(self):
        series = compact_gaps(
            _records("2014-12-15 09:00", "2014-12-15 09:01", "2014-12-16 10:00")
        )
        assert series.t.tolist() == [0, 1, 2]

    def test_single_record(self):
        series = compact_gaps(_records("2014-12-15 09:00"))
        assert series.t.tolist() == [0]

    def test_duplicate_timestamp_is_error(self):
        with pytest.raises(DataError, match="duplicate"):
            compact_gaps(_records("2014-12-15 09:00", "2014-12-15 09:00"))

    def test_unsorted_is_error(self):
        with pytest.raises(DataError, match="sorted"):
            compact_gaps(_records("2014-12-15 09:01", "2014-12-15 09:00"))

    def test_idempotent_on_contiguous_minutes(self):
        stamps = [f"2014-12-15 09:{m:02d}" for m in range(10)]
        series = compact_gaps(_records(*stamps))
        assert series.t.tolist() == list(range(10))

    def test_round_trip_preserves_every_timestamp(self):
        stamps = ["2014-12-15 09:00", "2014-12-15 11:07", "2014-12-17 10:00"]
        series = compact_gaps(_records(*stamps))
        assert [w.isoformat(sep=" ", timespec="minutes") for w in series.wall_clock] == stamps

    def test_no_records_dropped(self):
        records = _records("2014-12-15 09:00", "2014-12-15 09:05", "2014-12-15 09:06")
        assert len(compact_gaps(records)) == len(records)


class TestAlignOrigin:
    def test_crash_at_third_record(self):
        series = compact_gaps(
            _records("2014-12-15 09:00", "2014-12-15 09:01", "2014-12-15 09:02")
        )
        aligned = align_origin(series, datetime(2014, 12, 15, 9, 2))
        assert aligned.t.tolist() == [-2, -1, 0]
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
        assert aligned.t.tolist() == [-2, -1, 0]

    def test_prices_preserved(self):
        series = compact_gaps(_records("2014-12-15 09:00", "2014-12-15 09:01", price=3.5))
        aligned = align_origin(series, datetime(2014, 12, 15, 9, 1))
        assert np.array_equal(aligned.x, series.x)


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

    def test_start_outside_series(self):
        series = compact_gaps(_records("2014-12-15 09:00"))
        with pytest.raises(DataError):
            window_length_for_days(series, 1, start_t=5)
