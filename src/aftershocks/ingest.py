"""Minute-bar price ingestion.

Reads delimiter-separated exports (finam-style by default: DATE, TIME and
CLOSE columns), compacts no-trading gaps onto a contiguous exchange-minute
axis, and aligns the time origin to a configured crash instant.
"""

from __future__ import annotations

import bisect
import csv
import logging
import math
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

DEFAULT_DATE_FORMAT = "%Y%m%d"
DEFAULT_TIME_FORMAT = "%H%M%S"


@dataclass(frozen=True)
class ColumnMap:
    """Names of the date, time and price columns in the input header.

    Header cells are compared after stripping surrounding angle brackets,
    so ``<CLOSE>`` in a finam export matches the default ``CLOSE``.
    """

    date: str = "DATE"
    time: str = "TIME"
    price: str = "CLOSE"


@dataclass(frozen=True)
class RawRecord:
    """One minute bar: wall-clock timestamp and a positive price."""

    wall_clock: datetime
    price: float


@dataclass(frozen=True)
class PriceSeries:
    """Positive prices indexed on the compacted exchange-time axis.

    The index runs contiguously (step 1) from ``t_start``; minutes in which
    no exchange took place carry no index at all.  ``wall_clock`` keeps the
    original timestamp of every index, so gap removal is reversible.
    ``origin_wall_clock`` is the instant mapped to ``t = 0`` once
    :func:`align_origin` has been applied; records before it carry negative
    indices.
    """

    x: np.ndarray
    wall_clock: tuple[datetime, ...]
    t_start: int = 0
    origin_wall_clock: datetime | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        if x.ndim != 1 or len(x) != len(self.wall_clock):
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
    column_map: ColumnMap | None = None,
    *,
    delimiter: str = ",",
    date_format: str = DEFAULT_DATE_FORMAT,
    time_format: str = DEFAULT_TIME_FORMAT,
) -> list[RawRecord]:
    """Parse minute-bar records from a delimited text stream or file path.

    Records come back in file order; nothing is sorted, deduplicated or
    dropped here (that is :func:`compact_gaps`'s job, and it is strict).

    Raises:
        DataError: on a missing configured column, an unparseable row, or
            a non-finite or non-positive price; the offending column or
            1-based data row is named in the message.
    """
    cmap = column_map or ColumnMap()
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return _parse_stream(fh, cmap, delimiter, date_format, time_format)
    return _parse_stream(source, cmap, delimiter, date_format, time_format)


def _normalize_header_cell(cell: str) -> str:
    return cell.strip().strip("<>")


def _parse_stream(
    stream: IO[str],
    cmap: ColumnMap,
    delimiter: str,
    date_format: str,
    time_format: str,
) -> list[RawRecord]:
    reader = csv.reader(stream, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty input: header row required") from None
    names = [_normalize_header_cell(cell) for cell in header]
    indices = {}
    for role, wanted in (("date", cmap.date), ("time", cmap.time), ("price", cmap.price)):
        if wanted not in names:
            raise DataError(f"missing configured {role} column {wanted!r} (header: {names})")
        indices[role] = names.index(wanted)
    needed = max(indices.values()) + 1

    # A minute-bar file repeats each date on every row of its day and each
    # time on every day, so each distinct string is parsed once.
    dates: dict[str, datetime] = {}
    clocks: dict[str, datetime] = {}

    def parsed(cache: dict[str, datetime], text: str, fmt: str) -> datetime:
        value = cache.get(text)
        if value is None:
            value = cache[text] = datetime.strptime(text, fmt)
        return value

    records: list[RawRecord] = []
    row_no = 0
    for row in reader:
        if not row:
            continue
        row_no += 1
        if len(row) < needed:
            raise DataError(f"malformed row {row_no}: expected >= {needed} fields, got {len(row)}")
        date_s = row[indices["date"]].strip()
        time_s = row[indices["time"]].strip()
        price_s = row[indices["price"]].strip()
        try:
            date_part = parsed(dates, date_s, date_format)
            time_part = parsed(clocks, time_s, time_format)
        except ValueError as exc:
            raise DataError(f"malformed row {row_no}: unparseable date-time ({exc})") from None
        wall_clock = date_part.replace(
            hour=time_part.hour, minute=time_part.minute, second=time_part.second
        )
        try:
            price = float(price_s)
        except ValueError:
            raise DataError(f"malformed row {row_no}: unparseable price {price_s!r}") from None
        if not math.isfinite(price):
            raise DataError(f"row {row_no}: non-finite price {price_s}")
        if price <= 0:
            raise DataError(f"row {row_no}: non-positive price {price_s}")
        records.append(RawRecord(wall_clock=wall_clock, price=price))
    return records


def compact_gaps(records: Sequence[RawRecord]) -> PriceSeries:
    """Map the k-th record to exchange-minute index k.

    Timestamps must be strictly increasing: a duplicate is a hard error,
    because silently dropping one would shift the event clock downstream.
    """
    wall = [r.wall_clock for r in records]
    for i in range(1, len(wall)):
        if wall[i] == wall[i - 1]:
            raise DataError(f"duplicate timestamp {wall[i]} at record {i + 1}")
        if wall[i] < wall[i - 1]:
            raise DataError(
                f"timestamps not sorted: record {i + 1} ({wall[i]}) precedes {wall[i - 1]}"
            )
    x = np.array([r.price for r in records], dtype=float)
    return PriceSeries(x=x, wall_clock=tuple(wall))


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
    if crash < wall[0]:
        raise DataError(f"crash instant {crash} precedes the first record at {wall[0]}")
    if crash > wall[-1]:
        raise DataError(f"crash instant {crash} is after the last record at {wall[-1]}")
    idx = bisect.bisect_left(wall, crash)
    origin = wall[idx]
    if origin != crash:
        log.info("crash instant %s snapped forward to recorded minute %s", crash, origin)
    return replace(series, t_start=-idx, origin_wall_clock=origin)


def window_length_for_days(series: PriceSeries, days: int, start_t: int = 0) -> int:
    """Window length, in exchange minutes, covering the first ``days``
    distinct exchange dates at or after ``start_t``.

    The venue's minutes-per-day is taken from the data itself: the result
    is the largest offset T such that ``start_t + T`` still falls on one of
    those dates. If the series ends sooner, the remaining span is returned.
    """
    if days <= 0:
        raise ValueError("days must be positive")
    i0 = start_t - series.t_start
    if i0 < 0 or i0 >= len(series):
        raise DataError(f"window start t={start_t} outside the series")
    count = 0
    current = None
    end = i0
    for i in range(i0, len(series)):
        d = series.wall_clock[i].date()
        if d != current:
            count += 1
            current = d
            if count > days:
                break
        end = i
    return end - i0
