"""Minute-bar price ingestion.

Reads delimiter-separated exports (finam-style by default: DATE, TIME and
CLOSE columns), compacts no-trading gaps onto a contiguous exchange-minute
axis, and aligns the time origin to a configured crash instant.

Timestamps are held as ``datetime64[s]`` columns: naive wall-clock time to
the second.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
from array import array
from dataclasses import dataclass, replace
from datetime import date, datetime
from pathlib import Path
from typing import IO

import numpy as np

from .errors import DataError, not_utf8

log = logging.getLogger(__name__)

DEFAULT_DATE_FORMAT = "%Y%m%d"
DEFAULT_TIME_FORMAT = "%H%M%S"

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

# Rows are parsed in chunks of about this many characters, whole lines each.
_CHUNK_CHARS = 1 << 16


@dataclass(frozen=True)
class MinuteBars:
    """Parsed minute bars in file order, as columns: the ``datetime64[s]``
    wall-clock timestamp and the positive price of every row."""

    wall_clock: np.ndarray
    price: np.ndarray

    def __len__(self) -> int:
        return len(self.price)


@dataclass(frozen=True)
class PriceSeries:
    """Positive prices indexed on the compacted exchange-time axis.

    The index runs contiguously (step 1) from ``t_start``; minutes in which
    no exchange took place carry no index at all.  ``wall_clock`` keeps the
    original timestamp of every index as ``datetime64[s]``, so gap removal
    is reversible. ``origin_wall_clock`` is the instant mapped to ``t = 0``
    once :func:`align_origin` has been applied; records before it carry
    negative indices.
    """

    x: np.ndarray
    wall_clock: np.ndarray
    t_start: int = 0
    origin_wall_clock: datetime | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        wall = np.asarray(self.wall_clock, dtype="datetime64[s]")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "wall_clock", wall)
        if x.ndim != 1 or x.shape != wall.shape:
            raise ValueError("x and wall_clock must be 1-d and equally long")
        if len(x) and not np.all(x > 0):
            raise DataError("prices must be positive")

    @property
    def t(self) -> np.ndarray:
        """Exchange-minute index of every record."""
        return self.t_start + np.arange(len(self.x))

    def __len__(self) -> int:
        return len(self.x)


def load_records(
    source: str | Path | IO[str],
    *,
    date_column: str = "DATE",
    time_column: str = "TIME",
    price_column: str = "CLOSE",
    delimiter: str = ",",
    date_format: str = DEFAULT_DATE_FORMAT,
    time_format: str = DEFAULT_TIME_FORMAT,
) -> MinuteBars:
    """Parse minute-bar records from a delimited text stream or file path.

    ``date_column``, ``time_column`` and ``price_column`` name the columns in
    the header row. Header cells are compared after stripping surrounding
    angle brackets, so ``<CLOSE>`` in a finam export matches ``CLOSE``.

    Records come back in file order; nothing is sorted, deduplicated or
    dropped here (that is :func:`compact_gaps`'s job, and it is strict).
    The date cell gives the day and the time cell the hour, minute and
    second of each timestamp; any other field either format parses is
    ignored.

    The stream is read in chunks of about ``_CHUNK_CHARS`` characters, each
    ending at a line end, and never whole. A chunk with no quote, NUL or
    lone CR, whose nonblank lines all have one field count, is split into
    columns with one ``str.split`` and converted a column at a time. The
    first chunk that is not so plain, or that holds a cell that fails to
    convert, goes with the rest of the stream to a ``csv.reader`` row
    loop, which alone words the errors; so values, messages and row
    numbers are those of a row-by-row parse.

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
    try:
        fh = open(source, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc.strerror}") from None
    with fh:
        try:
            return _parse_stream(fh, columns, delimiter, date_format, time_format)
        except UnicodeDecodeError as exc:
            raise not_utf8(source, fh, exc) from None


class _ParsedCells(dict):
    """Cell text to its value: a cell not seen yet is parsed by ``parse``
    and stored; one that fails to parse raises and is not stored."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, cell: str) -> int:
        value = self[cell] = self.parse(cell)
        return value


def _normalize_header_cell(cell: str) -> str:
    return cell.strip().strip("<>")


def _parse_stream(
    stream: IO[str],
    columns: dict[str, str],
    delimiter: str,
    date_format: str,
    time_format: str,
) -> MinuteBars:
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: header row required") from None
    except csv.Error as exc:
        raise DataError(f"malformed header row: {exc}") from None
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
        day = datetime.strptime(cell.strip(), date_format)
        return (day.toordinal() - _EPOCH_ORDINAL) * 86400

    def parse_clock(cell: str) -> int:
        clock = datetime.strptime(cell.strip(), time_format)
        return clock.hour * 3600 + clock.minute * 60 + clock.second

    day_seconds = _ParsedCells(parse_day).__getitem__
    clock_seconds = _ParsedCells(parse_clock).__getitem__

    parts = []
    rows = 0
    rest = stream
    while chunk := stream.read(_CHUNK_CHARS):
        chunk += stream.readline()
        part = _plain_chunk(chunk, delimiter, needed, i_date, i_time, i_price, day_seconds, clock_seconds)
        if part is None:
            # a lone CR ends a line here, as in a file opened with newline=""
            rest = itertools.chain(io.StringIO(chunk, newline=""), stream)
            break
        parts.append(part)
        rows += len(part[1])

    # The row loop parses what the column path left, and is the one place
    # that names a bad row.
    stamps = array("q")
    prices = array("d")
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
    parts.append((np.array(stamps, dtype=np.int64), np.array(prices, dtype=float)))
    return MinuteBars(
        wall_clock=np.concatenate([s for s, _ in parts]).view("datetime64[s]"),
        price=np.concatenate([p for _, p in parts]),
    )


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
        return np.empty(0, np.int64), np.empty(0)
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
    try:
        stamps = np.fromiter(map(day_seconds, cells[1 + i_date:end:width]), np.int64, n)
        stamps += np.fromiter(map(clock_seconds, cells[1 + i_time:end:width]), np.int64, n)
        prices = np.fromiter(map(float, cells[1 + i_price:end:width]), float, n)
    except ValueError:
        return None
    if not np.all((prices > 0) & (prices < np.inf)):
        return None
    return stamps, prices


def compact_gaps(records: MinuteBars) -> PriceSeries:
    """Map the k-th record to exchange-minute index k.

    Timestamps must be strictly increasing: a duplicate is a hard error,
    because silently dropping one would shift the event clock downstream.
    """
    wall = records.wall_clock
    bad = np.flatnonzero(np.diff(wall) <= np.timedelta64(0, "s"))
    if bad.size:
        i = int(bad[0]) + 1
        current, previous = wall[i].item(), wall[i - 1].item()
        if current == previous:
            raise DataError(f"duplicate timestamp {current} at record {i + 1}")
        raise DataError(f"timestamps not sorted: record {i + 1} ({current}) precedes {previous}")
    return PriceSeries(x=records.price, wall_clock=wall)


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
    first, last = wall[0].item(), wall[-1].item()
    if crash < first:
        raise DataError(f"crash instant {crash} precedes the first record at {first}")
    if crash > last:
        raise DataError(f"crash instant {crash} is after the last record at {last}")
    # The search runs on whole seconds; an instant with a fractional second
    # lies after the record at its whole second.
    idx = int(np.searchsorted(wall, np.datetime64(crash.replace(microsecond=0), "s")))
    if wall[idx].item() < crash:
        idx += 1
    origin = wall[idx].item()
    if origin != crash:
        log.info("crash instant %s snapped forward to recorded minute %s", crash, origin)
    return replace(series, t_start=-idx, origin_wall_clock=origin)


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
    dates = series.wall_clock[i0:].astype("datetime64[D]")
    # offset of the last record of each date but the final one
    day_ends = np.flatnonzero(dates[1:] != dates[:-1])
    return int(day_ends[days - 1]) if len(day_ends) >= days else len(dates) - 1
