"""Minute-bar price ingestion.

Reads delimiter-separated exports (finam-style by default: DATE, TIME and
CLOSE columns), compacts no-trading gaps onto a contiguous exchange-minute
axis, and aligns the time origin to a configured crash instant.

The layer runs on the standard library alone. Timestamps are held as an
``array('q')`` of naive wall-clock seconds since 1970-01-01 (what numpy
calls ``datetime64[s]``) and prices as an ``array('d')``; numpy enters
where the analysis wraps these columns (:func:`aftershocks.stats.compute_returns`),
so ``aftershocks ingest`` never imports it.
"""

from __future__ import annotations

import bisect
import copy
import csv
import io
import itertools
import logging
import math
import operator
from array import array
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import IO

from .errors import DataError, open_text

log = logging.getLogger(__name__)

DEFAULT_DATE_FORMAT = "%Y%m%d"
DEFAULT_TIME_FORMAT = "%H%M%S"

_EPOCH = datetime(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_DAY = 86400

# Rows are parsed in chunks of about this many characters, whole lines each.
_CHUNK_CHARS = 1 << 16


def _epoch_seconds(instant: datetime) -> int:
    """Whole seconds from 1970-01-01 to the naive ``instant``; a fraction
    of a second is dropped."""
    return (instant.toordinal() - _EPOCH_ORDINAL) * _DAY + instant.hour * 3600 + instant.minute * 60 + instant.second


def _wall_datetime(seconds: int) -> datetime:
    """The naive wall-clock instant ``seconds`` after 1970-01-01."""
    return _EPOCH + timedelta(seconds=seconds)


@dataclass(frozen=True)
class PriceSeries:
    """Positive prices indexed on the compacted exchange-time axis.

    The index runs contiguously (step 1) from ``t_start``; minutes in which
    no exchange took place carry no index at all. ``x`` is an ``array('d')``
    of prices and ``wall_clock`` an ``array('q')`` holding the original
    timestamp of every index as seconds since 1970-01-01, so gap removal is
    reversible; other sequences are copied into those types.
    ``origin_wall_clock`` is the instant mapped to ``t = 0`` once
    :func:`align_origin` has been applied; records before it carry negative
    indices.
    """

    x: array
    wall_clock: array
    t_start: int = 0
    origin_wall_clock: datetime | None = None

    def __post_init__(self) -> None:
        x, wall = _column(self.x, "d"), _column(self.wall_clock, "q")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "wall_clock", wall)
        if len(x) != len(wall):
            raise ValueError("x and wall_clock must be equally long")
        # every price > 0 and finite: the minimum rules out the rest, and a
        # NaN, which min() may pass over, or an inf makes the sum non-finite;
        # so does a finite series whose sum overflows, hence the exact check
        if len(x) and not (min(x) > 0 and math.isfinite(sum(x))):
            if not all(0 < v < math.inf for v in x):
                raise DataError("prices must be positive and finite")

    @property
    def t(self) -> range:
        """Exchange-minute index of every record."""
        return range(self.t_start, self.t_start + len(self.x))

    def __len__(self) -> int:
        return len(self.x)


def _column(values, typecode: str) -> array:
    """``values`` as an ``array(typecode)``, not copied when it already is one."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    return array(typecode, values)


def load_records(
    source: str | Path | IO[str],
    *,
    date_column: str = "DATE",
    time_column: str = "TIME",
    price_column: str = "CLOSE",
    delimiter: str = ",",
    date_format: str = DEFAULT_DATE_FORMAT,
    time_format: str = DEFAULT_TIME_FORMAT,
) -> PriceSeries:
    """Parse minute-bar records from a delimited text stream or file path.

    ``date_column``, ``time_column`` and ``price_column`` name the columns in
    the header row. Header cells are compared after stripping surrounding
    angle brackets, so ``<CLOSE>`` in a finam export matches ``CLOSE``.

    Records come back in file order, indexed 0..n-1; nothing is sorted,
    deduplicated or dropped (:func:`compact_gaps` checks the order).
    The date cell gives the day and the time cell the hour, minute and
    second of each timestamp; any other field either format parses is
    ignored. Each distinct cell is parsed once. Under the default formats a
    stripped cell of eight (date) or six (time) ASCII digits that makes a
    valid date or time of day is read by slicing, with the value
    ``strptime`` would give; every other cell goes to ``strptime``.

    A UTF-8 byte order mark before the header (Excel's "CSV UTF-8") is
    dropped.

    The stream is read in chunks of about ``_CHUNK_CHARS`` characters, each
    ending at a line end, and never whole. A chunk with no quote, NUL or
    lone CR, whose nonblank lines all have one field count, is split into
    columns with one ``str.split`` and converted a column at a time. The
    first chunk that is not so plain, or that holds a cell that fails to
    convert or a price that may not be finite and positive, goes with the
    rest of the stream to a ``csv.reader`` row loop, which alone words the
    errors; so values, messages and row numbers are those of a row-by-row
    parse. Both extend the same two columns.

    Raises:
        DataError: on a file that cannot be opened or is not UTF-8, a
            missing configured column, an unparseable row, or a non-finite
            or non-positive price; the path, the offending column, the
            1-based data row or the first undecodable byte's offset is
            named in the message.
    """
    columns = {"date": date_column, "time": time_column, "price": price_column}
    if not isinstance(source, (str, Path)):
        return _parse_stream(source, columns, delimiter, date_format, time_format)
    with open_text(source) as fh:
        return _parse_stream(fh, columns, delimiter, date_format, time_format)


class _Memo(dict):
    """Key to ``compute(key)``: a key not seen yet is computed and stored;
    one whose computation raises is not stored."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _normalize_header_cell(cell: str) -> str:
    return cell.strip().strip("<>")


def _parse_stream(
    stream: IO[str],
    columns: dict[str, str],
    delimiter: str,
    date_format: str,
    time_format: str,
) -> PriceSeries:
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: header row required") from None
    except csv.Error as exc:
        raise DataError(f"malformed header row: {exc}") from None
    if header:
        header[0] = header[0].removeprefix("\ufeff")
    names = [_normalize_header_cell(cell) for cell in header]
    indices = {}
    for role, wanted in columns.items():
        if wanted not in names:
            raise DataError(f"missing configured {role} column {wanted!r} (header: {names})")
        indices[role] = names.index(wanted)
    needed = max(indices.values()) + 1
    i_date, i_time, i_price = indices["date"], indices["time"], indices["price"]

    # A minute-bar file repeats each date on every row of its day and each
    # time on every day, so each distinct cell is parsed once.
    def parse_day(cell: str) -> int:
        return (_parse_date(cell.strip(), date_format).toordinal() - _EPOCH_ORDINAL) * _DAY

    def parse_clock(cell: str) -> int:
        return _parse_clock(cell.strip(), time_format)

    day_seconds = _Memo(parse_day).__getitem__
    clock_seconds = _Memo(parse_clock).__getitem__

    stamps = array("q")
    prices = array("d")
    rest = stream
    while chunk := stream.read(_CHUNK_CHARS):
        chunk += stream.readline()
        part = _plain_chunk(chunk, delimiter, needed, i_date, i_time, i_price, day_seconds, clock_seconds)
        if part is None:
            # a lone CR ends a line here, as in a file opened with newline=""
            rest = itertools.chain(io.StringIO(chunk, newline=""), stream)
            break
        stamps += part[0]
        prices += part[1]

    # The row loop parses what the column path left, and is the one place
    # that names a bad row.
    rows = len(prices)
    reader = csv.reader(rest, delimiter=delimiter)
    row_no = rows
    try:
        for row_no, row in enumerate(filter(None, reader), start=rows + 1):
            if len(row) < needed:
                raise DataError(f"malformed row {row_no}: expected >= {needed} fields, got {len(row)}")
            try:
                stamp = day_seconds(row[i_date]) + clock_seconds(row[i_time])
            except ValueError as exc:
                raise DataError(f"malformed row {row_no}: unparseable date-time ({exc})") from None
            price_s = row[i_price].strip()
            try:
                price = float(price_s)
            except ValueError:
                raise DataError(f"malformed row {row_no}: unparseable price {price_s!r}") from None
            if not 0.0 < price < math.inf:
                problem = "non-positive" if math.isfinite(price) else "non-finite"
                raise DataError(f"row {row_no}: {problem} price {price_s}")
            stamps.append(stamp)
            prices.append(price)
    except csv.Error as exc:
        # raised while reading the row after the last one numbered
        raise DataError(f"malformed row {row_no + 1}: {exc}") from None
    return PriceSeries(x=prices, wall_clock=stamps)


def _parse_date(text: str, date_format: str) -> date:
    """The date ``text`` gives under ``date_format``. Under the default
    format, eight ASCII digits that make a valid date are read by slicing;
    every other text goes to ``strptime``, which words the errors."""
    if date_format == DEFAULT_DATE_FORMAT and len(text) == 8 and text.isascii() and text.isdigit():
        try:
            return date(int(text[:4]), int(text[4:6]), int(text[6:]))
        except ValueError:
            pass
    return datetime.strptime(text, date_format).date()


def _parse_clock(text: str, time_format: str) -> int:
    """The second of the day that ``text`` gives under ``time_format``. Under
    the default format, six ASCII digits with hour < 24, minute < 60 and
    second < 60 are read by slicing; every other text goes to ``strptime``."""
    if time_format == DEFAULT_TIME_FORMAT and len(text) == 6 and text.isascii() and text.isdigit():
        hour, minute, second = int(text[:2]), int(text[2:4]), int(text[4:])
        if hour < 24 and minute < 60 and second < 60:
            return hour * 3600 + minute * 60 + second
    clock = datetime.strptime(text, time_format)
    return clock.hour * 3600 + clock.minute * 60 + clock.second


def _plain_chunk(chunk, delimiter, needed, i_date, i_time, i_price, day_seconds, clock_seconds):
    """The timestamps and prices of ``chunk``, whole lines of rows, when it
    parses the same split on ``delimiter`` as with ``csv.reader`` and every
    row is valid; otherwise None.

    That takes a delimiter csv reads as plain text; no quote, NUL (an error
    before Python 3.11) or lone CR in the chunk; no field longer than csv
    allows; and one field count, at least ``needed``, on every nonblank line.
    """
    if delimiter in '"\r\n\0' or '"' in chunk or "\0" in chunk:
        return None
    if len(chunk) > csv.field_size_limit():
        return None
    if "\r" in chunk:
        if chunk.count("\r") != chunk.count("\r\n"):
            return None
        chunk = chunk.replace("\r\n", "\n")
    if not chunk.endswith("\n"):
        chunk += "\n"
    # csv.reader skips blank lines
    while "\n\n" in chunk:
        chunk = chunk.replace("\n\n", "\n")
    chunk = chunk.removeprefix("\n")
    n = chunk.count("\n")
    if not n:
        return array("q"), array("d")
    # Each line break moves to the head of the cell after it: the first cell
    # of every row, and a last cell of its own. After the empty cell that
    # leads, every row has width w exactly when those n + 1 breaks fall w
    # cells apart. The break put before the first row gives every
    # first-column cell the same form, for the caches.
    cells = ("\n" + chunk).replace("\n", delimiter + "\n").split(delimiter)
    width, extra = divmod(len(cells) - 2, n)
    if extra or width < needed or "".join(cells[1::width]).count("\n") != n + 1:
        return None
    end = 1 + n * width
    # lists first: an array built from a list is sized once
    try:
        days = map(day_seconds, cells[1 + i_date:end:width])
        clocks = map(clock_seconds, cells[1 + i_time:end:width])
        stamps = list(map(operator.add, days, clocks))
        prices = list(map(float, cells[1 + i_price:end:width]))
    except ValueError:
        return None
    # every price finite and positive, or possibly not: a finite sum can
    # overflow, and such a chunk goes to the row loop like a bad one
    if not (min(prices) > 0 and math.isfinite(sum(prices))):
        return None
    return array("q", stamps), array("d", prices)


def compact_gaps(series: PriceSeries) -> PriceSeries:
    """``series`` itself, once its timestamps are checked to strictly
    increase. A duplicate is a hard error, because silently dropping one
    would shift the event clock downstream.
    """
    wall = series.wall_clock
    # the first index whose stamp is not above the one before it
    bad = next(itertools.compress(itertools.count(1), map(operator.ge, wall, wall[1:])), None)
    if bad is not None:
        current, previous = _wall_datetime(wall[bad]), _wall_datetime(wall[bad - 1])
        if current == previous:
            raise DataError(f"duplicate timestamp {current} at record {bad + 1}")
        raise DataError(f"timestamps not sorted: record {bad + 1} ({current}) precedes {previous}")
    return series


def align_origin(series: PriceSeries, crash: datetime) -> PriceSeries:
    """Re-base the exchange-minute index so the crash minute is t = 0.

    A crash instant that falls in a no-trading gap snaps forward to the
    first recorded minute at or after it (the analysis clock only exists
    on recorded minutes). Records before the origin keep negative indices;
    they stay available for plotting but are excluded from aftershock
    detection.
    """
    if not len(series):
        raise DataError("cannot align an empty series")
    wall = series.wall_clock
    first, last = _wall_datetime(wall[0]), _wall_datetime(wall[-1])
    if crash < first:
        raise DataError(f"crash instant {crash} precedes the first record at {first}")
    if crash > last:
        raise DataError(f"crash instant {crash} is after the last record at {last}")
    # Stamps are whole seconds; an instant with a fractional second lies
    # after the record at its whole second.
    idx = bisect.bisect_left(wall, _epoch_seconds(crash) + (crash.microsecond > 0))
    origin = _wall_datetime(wall[idx])
    if origin != crash:
        log.info("crash instant %s snapped forward to recorded minute %s", crash, origin)
    # a copy sharing the columns, whose prices were checked when ``series``
    # was built; replace() would check them again
    aligned = copy.copy(series)
    object.__setattr__(aligned, "t_start", -idx)
    object.__setattr__(aligned, "origin_wall_clock", origin)
    return aligned


def _day_runs(wall: array, start: int = 0):
    """(day, lo, hi) for each date of the increasing stamps ``wall`` from
    index ``start`` on: ``wall[lo:hi]`` are the stamps on day ``day``,
    counted from 1970-01-01."""
    lo = start
    while lo < len(wall):
        day = wall[lo] // _DAY
        hi = bisect.bisect_left(wall, (day + 1) * _DAY, lo)
        yield day, lo, hi
        lo = hi


def window_length_for_days(series: PriceSeries, days: int) -> int:
    """Window length, in exchange minutes, covering the first ``days``
    distinct exchange dates at or after t = 0.

    The venue's minutes-per-day is taken from the data itself: the result
    is the largest offset T such that minute T still falls on one of those
    dates. If the series ends sooner, the remaining span is returned.
    """
    if days <= 0:
        raise ValueError("days must be positive")
    i0 = -series.t_start
    if i0 < 0 or i0 >= len(series):
        raise DataError("window start t=0 outside the series")
    end = max(hi for _, _, hi in itertools.islice(_day_runs(series.wall_clock, i0), days))
    return end - 1 - i0


def write_series_csv(series: PriceSeries, path: Path) -> None:
    """Write ``series`` to ``path`` as ``t,wall_clock,x`` rows: the index,
    the timestamp as ``YYYY-MM-DD hh:mm:ss`` and the price as
    ``format(x, ".10g")``.

    One write per date, with the date's text in the row format: the file
    is never held whole, and each date and each second of the day is
    formatted once. The stamps must be strictly increasing, as
    :func:`compact_gaps` ensures: the dates are found by bisection, and
    the order is not checked again here.
    """
    wall, x, t_start = series.wall_clock, series.x, series.t_start
    clocks = _Memo(_clock_text).__getitem__
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,wall_clock,x\n")
        for day, lo, hi in _day_runs(wall):
            cells = [None] * (3 * (hi - lo))
            cells[0::3] = range(t_start + lo, t_start + hi)
            # by second of the day
            cells[1::3] = map(clocks, map(_DAY.__rmod__, wall[lo:hi]))
            cells[2::3] = x[lo:hi].tolist()
            # %.10g prints a finite float as format(x, ".10g") does
            row = f"%d,{date.fromordinal(_EPOCH_ORDINAL + day).isoformat()} %s,%.10g\n"
            fh.write(row * (hi - lo) % tuple(cells))


def _clock_text(second: int) -> str:
    """``hh:mm:ss`` of the ``second``-th second of a day."""
    return f"{second // 3600:02d}:{second // 60 % 60:02d}:{second % 60:02d}"
