"""Threshold-exceedance events and inter-event waiting times."""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, open_text
from .stats import ReturnSeries

EVENTS_CSV_HEADER = "t_minutes"


@dataclass(frozen=True)
class EventSequence:
    """Ordered aftershock occurrence times, in minutes since the crash:
    finite, nonnegative and strictly increasing.

    Times are floats so that synthetic catalogs with continuous times share
    the type; detector output is integer-valued.
    """

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1:
            raise ValueError("times must be 1-d")
        if not np.isfinite(times).all():
            raise DataError("event times must be finite")
        if len(times):
            if times[0] < 0:
                raise DataError("event times must be >= 0")
            if np.any(np.diff(times) <= 0):
                raise DataError("event times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class WaitingTimes:
    """Intervals between successive events; finite and strictly positive."""

    taus: np.ndarray

    def __post_init__(self) -> None:
        taus = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "taus", taus)
        if taus.ndim != 1:
            raise ValueError("taus must be 1-d")
        if not np.isfinite(taus).all():
            raise DataError("waiting times must be finite")
        if len(taus) and not np.all(taus > 0):
            raise DataError("waiting times must be positive")

    def __len__(self) -> int:
        return len(self.taus)


def detect_events(
    returns: ReturnSeries,
    r_th: float,
    *,
    window: tuple[int, int] | None = None,
) -> EventSequence:
    """Every minute t >= 0 with |r(t)| strictly above ``r_th`` is one event.

    Consecutive exceedances stay separate events: no declustering, no
    minimum separation. Ties (|r| exactly equal to the threshold) do not
    count. ``window`` restricts detection to [window[0], window[1]]
    inclusive; minutes before the crash are never scanned.
    """
    if r_th <= 0:
        raise ValueError("r_th must be positive")
    if not len(returns):
        return EventSequence(np.empty(0))
    lo = 0 if window is None else max(0, int(window[0]))
    hi = int(returns.t[-1]) if window is None else int(window[1])
    mask = (returns.t >= lo) & (returns.t <= hi) & (np.abs(returns.r) > r_th)
    return EventSequence(times=returns.t[mask].astype(float))


def waiting_times(events: EventSequence) -> WaitingTimes:
    """tau_i = t_{i+1} - t_i. Fewer than two events gives an empty result."""
    if len(events) < 2:
        return WaitingTimes(taus=np.empty(0))
    return WaitingTimes(taus=np.diff(events.times))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one artifact table: UTF-8, LF line ends, one header row, each
    float cell as ``format(v, ".10g")`` and every other cell as given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, ".10g") if isinstance(v, float) else v for v in row] for row in rows)


def read_csv(path: str | Path, columns: Sequence[str]) -> list[list[float]]:
    """The nonblank rows of one artifact table, cut to ``columns``, as floats.
    The header must begin with ``columns`` and every row must be as wide as
    the header; else DataError. Cells past ``columns`` are not read."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header[: len(columns)] != list(columns):
                raise DataError(f"{path}: expected header {','.join(columns)!r}")
            rows = []
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} cells under a header of {len(header)}")
                rows.append([float(v) for v in row[: len(columns)]])
        except UnicodeDecodeError:
            raise  # open_text words it
        except (ValueError, csv.Error) as exc:
            raise DataError(f"{path}: malformed table at line {reader.line_num} ({exc})") from None
    return rows


def write_events_csv(events: EventSequence, path: str | Path) -> None:
    """Single-column CSV of occurrence times (minutes since crash)."""
    write_csv(path, [EVENTS_CSV_HEADER], ([t] for t in events.times))


def read_events_csv(path: str | Path) -> EventSequence:
    """Inverse of :func:`write_events_csv`."""
    rows = read_csv(path, [EVENTS_CSV_HEADER])
    return EventSequence(times=np.asarray([row[0] for row in rows]))
