"""Per-minute fractional returns and fixed-window summary statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import PriceSeries


@dataclass(frozen=True)
class ReturnSeries:
    """Fractional one-minute returns on the compacted exchange-time axis.

    ``r[i]`` is the relative price change over the exchange minute starting
    at index ``t[i] = t_start + i``. Gaps were removed upstream, so a single
    return may span a no-trading period; that is deliberate.
    """

    r: np.ndarray
    t_start: int

    def __post_init__(self) -> None:
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 1:
            raise ValueError("r must be 1-d")
        object.__setattr__(self, "r", r)

    @property
    def t(self) -> range:
        """Exchange-minute index of every return."""
        return range(self.t_start, self.t_start + len(self.r))

    def __len__(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class WindowStats:
    """Population mean / variance / sigma of returns over a closed window."""

    mean: float
    variance: float
    sigma: float
    window: tuple[int, int]
    n_samples: int


def compute_returns(series: PriceSeries) -> ReturnSeries:
    """r(t) = (x(t+1) - x(t)) / x(t) for every adjacent pair of prices."""
    if len(series) < 2:
        raise DataError("need at least two prices to form returns")
    x = np.frombuffer(series.x)  # the price column's memory, not a copy
    with np.errstate(over="ignore"):  # a return past float64 is inf, which window_stats refuses
        return ReturnSeries(r=np.diff(x) / x[:-1], t_start=series.t_start)


def window_stats(returns: ReturnSeries, t0: int, length: int) -> WindowStats:
    """Mean, variance and sigma of r(t) for t in [t0, t0 + length].

    The divisor is the number of samples in the window, ``length + 1``
    (population statistics), not the nominal window length; for the long
    windows used in practice the difference is negligible, and the honest
    estimator is preferred. Reports carry a note to that effect.
    """
    if length < 0:
        raise ValueError("window length must be nonnegative")
    if not len(returns):
        raise DataError("empty return series")
    lo, hi = t0, t0 + length
    if lo < returns.t[0] or hi > returns.t[-1]:
        raise DataError(
            f"window [{lo}, {hi}] not contained in return series "
            f"[{returns.t[0]}, {returns.t[-1]}]"
        )
    sample = returns.r[lo - returns.t_start : hi - returns.t_start + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(sample))
        variance = float(np.var(sample))
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise DataError(f"returns in the window [{lo}, {hi}] overflow float64 (mean {mean:g}, variance {variance:g})")
    return WindowStats(
        mean=mean,
        variance=variance,
        sigma=float(np.sqrt(variance)),
        window=(int(lo), int(hi)),
        n_samples=int(sample.size),
    )
