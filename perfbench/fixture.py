"""Seeded planted-crash fixture: minute bars whose large returns sit exactly
on a known Omori catalog.

The catalog is drawn here, not with the package's own generator, so the
fixture stays the same when the code under test changes. Construction:

- planted catalog: Omori rate A * t**-p with p = 0.6, A = 8, c = 0 over a
  100,000-minute horizon (PCG64 seed 5, time-rescaling inversion, times
  floored to minutes and deduplicated);
- each planted minute gets a return of exactly +-LOW or +-HIGH; the level
  is drawn once per spike from a fixed seed, so about half of the spikes
  clear 2 sigma only and the 3-sigma catalog is an independently thinned
  Omori catalog with the same p;
- every other minute gets N(0, NOISE) noise;
- 540-minute trading days (10:00-19:00, weekdays) with 2,000 minutes of
  bars before the crash at 2014-12-04 16:20, about 102k rows in total.

The benchmark seed drives the noise and the spike signs; the catalog and
the level of each spike are part of the recipe, so every seed plants the
same event truth. ``make_fixture`` asserts that each planted return lies
at least MARGIN noise deviations from both thresholds, as the program will
compute them from the written prices.

Usage: python3 fixture.py SEED CSV_PATH TRUTH_JSON

writes the bars to CSV_PATH and what the output checks need to TRUTH_JSON.
It runs as its own process so that run.py never loads numpy:
a child's peak RSS from wait4 includes the RSS of the process it was
spawned from.
"""

from __future__ import annotations

import json
import sys
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

P_TRUE = 0.6
AMPLITUDE = 8.0
HORIZON = 100_000
CATALOG_SEED = 5
LEVEL_SEED = 2
LOW = 0.01
HIGH = 0.033
NOISE = 3e-4
MARGIN = 5.0

CRASH = datetime(2014, 12, 4, 16, 20)
PRE_CRASH_MINUTES = 2_000
DAY_OPEN_MINUTE = 10 * 60
DAY_MINUTES = 540
WINDOW_DAYS = 100  # the CLI's default --window-days
THRESHOLDS = (2.0, 3.0)  # the CLI's default --thresholds
START_PRICE = 100.0


def omori_catalog(p: float, amplitude: float, horizon: float, seed: int) -> np.ndarray:
    """Minute-floored Omori catalog with c = 0 by time-rescaling inversion:
    unit-rate arrivals s map to t = (s (1 - p) / A)**(1 / (1 - p))."""
    rng = np.random.Generator(np.random.PCG64(seed))
    q = 1.0 - p
    pieces = []
    s_last = 0.0
    while True:
        s = s_last + np.cumsum(-np.log1p(-rng.random(4096)))
        s_last = float(s[-1])
        t = (s * q / amplitude) ** (1.0 / q)
        beyond = t > horizon
        if beyond.any():
            pieces.append(t[: int(np.argmax(beyond))])
            break
        pieces.append(t)
    return np.unique(np.floor(np.concatenate(pieces))).astype(np.int64)


def _trading_minutes(first_day: date, count: int) -> list[tuple[str, str]]:
    """(DATE, TIME) strings of ``count`` consecutive exchange minutes from
    the open of ``first_day``."""
    times = [f"{(DAY_OPEN_MINUTE + m) // 60:02d}{(DAY_OPEN_MINUTE + m) % 60:02d}00" for m in range(DAY_MINUTES)]
    out: list[tuple[str, str]] = []
    day = first_day
    while len(out) < count:
        if day.weekday() < 5:
            stamp = day.strftime("%Y%m%d")
            out.extend((stamp, t) for t in times)
        day += timedelta(days=1)
    return out[:count]


def _first_day_and_offset() -> tuple[date, int]:
    """Trading day of the first bar, given 2,000 bars before the crash."""
    crash_offset = (CRASH.hour * 60 + CRASH.minute) - DAY_OPEN_MINUTE
    before = PRE_CRASH_MINUTES - crash_offset
    if before < 0 or before % DAY_MINUTES:
        raise ValueError("pre-crash span must end at the crash minute on whole days")
    day = CRASH.date()
    for _ in range(before // DAY_MINUTES):
        day -= timedelta(days=1)
        while day.weekday() >= 5:
            day -= timedelta(days=1)
    return day, crash_offset


def make_fixture(seed: int, path: Path) -> dict:
    """Write the fixture CSV for ``seed``; return what the output checks
    need: the crash instant, the true p, the first exchange minute, the row
    count, the analysis window [0, window] and, per threshold multiple, the
    planted minutes the CLI must report as events."""
    first_day, crash_offset = _first_day_and_offset()
    catalog = omori_catalog(P_TRUE, AMPLITUDE, HORIZON, CATALOG_SEED)
    high = np.random.Generator(np.random.PCG64(LEVEL_SEED)).random(len(catalog)) < 0.5

    rng = np.random.Generator(np.random.PCG64(seed))
    n_rows = PRE_CRASH_MINUTES + HORIZON + 1
    r = rng.normal(0.0, NOISE, n_rows - 1)
    signs = np.where(rng.random(len(catalog)) < 0.5, -1.0, 1.0)
    r[PRE_CRASH_MINUTES + catalog] = signs * np.where(high, HIGH, LOW)

    prices = START_PRICE * np.cumprod(np.concatenate([[1.0], 1.0 + r]))
    text = [format(x, ".12g") for x in prices]
    stamps = _trading_minutes(first_day, n_rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("DATE,TIME,CLOSE\n")
        fh.writelines(f"{d},{t},{x}\n" for (d, t), x in zip(stamps, text))

    # The CLI's window: up to the last minute of the WINDOW_DAYS-th exchange
    # date counted from the crash day.
    window = (DAY_MINUTES - crash_offset - 1) + (WINDOW_DAYS - 1) * DAY_MINUTES
    written = np.array([float(x) for x in text])
    returns = np.diff(written) / written[:-1]
    in_window = returns[PRE_CRASH_MINUTES : PRE_CRASH_MINUTES + window + 1]
    sigma = float(np.sqrt(np.var(in_window)))
    planted_mask = np.zeros(len(in_window), dtype=bool)
    planted_mask[catalog[catalog <= window]] = True

    planted = {}
    for multiple in THRESHOLDS:
        r_th = multiple * sigma
        gap = np.abs(np.abs(in_window) - r_th)
        closest = float(gap[planted_mask].min())
        if closest < MARGIN * NOISE:
            raise AssertionError(
                f"planted return {closest / NOISE:.2f} noise sd from the {multiple:g}-sigma threshold"
            )
        noise_peak = float(np.abs(in_window[~planted_mask]).max())
        if r_th - noise_peak < MARGIN * NOISE:
            raise AssertionError(f"noise reaches within {MARGIN:g} sd of the {multiple:g}-sigma threshold")
        planted[f"{multiple:g}"] = np.flatnonzero(planted_mask & (np.abs(in_window) > r_th)).tolist()
    return {
        "crash": CRASH.isoformat(sep=" "),
        "p_true": P_TRUE,
        "first_t": -PRE_CRASH_MINUTES,
        "rows": n_rows,
        "window": window,
        "planted": planted,
    }


if __name__ == "__main__":
    seed, csv_path, truth_path = int(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
    truth_path.write_text(json.dumps(make_fixture(seed, csv_path)), encoding="utf-8")
