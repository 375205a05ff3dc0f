"""Per-minute fractional returns and fixed-window summary statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import PriceSeries


@dataclass(frozen=True)
class ReturnSeries:
    """Fractional one-minute returns on the compacted exchange-time axis.

    ``r[i]`` is the relative price change over the exchange minute starting
    at index ``t[i]``. Gaps were removed upstream, so a single return may
    span a no-trading period; that is deliberate.
    """

    t: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=int)
        r = np.asarray(self.r, dtype=float)
        if t.shape != r.shape or t.ndim != 1:
            raise ValueError("t and r must be 1-d and equally long")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)

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
    t = np.arange(series.t_start, series.t_start + len(x) - 1)
    return ReturnSeries(t=t, r=np.diff(x) / x[:-1])


def window_stats(returns: ReturnSeries, t0: int, length: int) -> WindowStats:
    """Mean, variance and sigma of r(t) for t in [t0, t0 + length].

    The divisor is the number of samples actually present in the window
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
    sample = returns.r[(returns.t >= lo) & (returns.t <= hi)]
    if sample.size == 0:
        raise DataError("window contains no samples")
    mean = float(np.mean(sample))
    variance = float(np.var(sample))
    return WindowStats(
        mean=mean,
        variance=variance,
        sigma=float(np.sqrt(variance)),
        window=(int(lo), int(hi)),
        n_samples=int(sample.size),
    )
