"""Threshold-exceedance events and inter-event waiting times."""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, not_utf8
from .stats import ReturnSeries

EVENTS_CSV_HEADER = "t_minutes"


@dataclass(frozen=True)
class EventSequence:
    """Ordered aftershock occurrence times, in minutes since the crash.

    Times are floats so that synthetic catalogs with continuous times share
    the type; detector output is integer-valued. ``threshold`` is the
    absolute return cutoff the events were detected at, when known.
    """

    times: np.ndarray
    threshold: float | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1:
            raise ValueError("times must be 1-d")
        if len(times):
            if times[0] < 0:
                raise DataError("event times must be >= 0")
            if np.any(np.diff(times) <= 0):
                raise DataError("event times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class WaitingTimes:
    """Intervals between successive events; strictly positive."""

    taus: np.ndarray

    def __post_init__(self) -> None:
        taus = np.asarray(self.taus, dtype=float)
        object.__setattr__(self, "taus", taus)
        if taus.ndim != 1:
            raise ValueError("taus must be 1-d")
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
        return EventSequence(np.empty(0), threshold=float(r_th))
    lo = 0 if window is None else max(0, int(window[0]))
    hi = int(returns.t[-1]) if window is None else int(window[1])
    mask = (returns.t >= lo) & (returns.t <= hi) & (np.abs(returns.r) > r_th)
    return EventSequence(times=returns.t[mask].astype(float), threshold=float(r_th))


def waiting_times(events: EventSequence) -> WaitingTimes:
    """tau_i = t_{i+1} - t_i. Fewer than two events gives an empty result."""
    if len(events) < 2:
        return WaitingTimes(taus=np.empty(0))
    return WaitingTimes(taus=np.diff(events.times))


def write_csv(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write one artifact table: UTF-8, LF line ends, one header row, each
    float cell as ``format(v, ".10g")`` and every other cell as given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, ".10g") if isinstance(v, float) else v for v in row] for row in rows)


def write_events_csv(events: EventSequence, path: str | Path) -> None:
    """Single-column CSV of occurrence times (minutes since crash)."""
    write_csv(path, [EVENTS_CSV_HEADER], ([t] for t in events.times))


def read_events_csv(path: str | Path) -> EventSequence:
    """Inverse of :func:`write_events_csv`."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header or header[0] != EVENTS_CSV_HEADER:
                raise DataError(f"{path}: expected header {EVENTS_CSV_HEADER!r}")
            times = [float(row[0]) for row in reader if row]
        except UnicodeDecodeError as exc:
            raise not_utf8(path, fh, exc) from None
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}: malformed event row ({exc})") from None
        except csv.Error as exc:
            raise DataError(f"{path}: malformed event row at line {reader.line_num} ({exc})") from None
    return EventSequence(times=np.asarray(times))
