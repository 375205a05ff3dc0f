"""Waiting-time histograms and power-law exponent estimation.

Inter-event times are modeled as P(tau) ~ tau**-(1 + mu). Two estimators:
log-log least squares on the unnormalized histogram (how such
distributions are usually plotted and fitted), and a continuous
maximum-likelihood (Hill-type) estimate on the raw waiting times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataError
from .events import WaitingTimes, write_csv


@dataclass(frozen=True)
class WaitingHistogram:
    """Counts of waiting times in bins [edge, edge + bin_size).

    Bin edges sit at 1 + k*bin_size, so unit bins line up with the minute
    grid; only nonempty bins are stored, keyed by their lower edge.

    The representative tau of a bin depends on the data: for integer times
    in integer bins it is the midpoint of the integers covered (the edge
    itself for unit bins), which is exact for a discrete distribution.
    Histograms built from continuous times use the geometric midpoint
    sqrt(edge * (edge + bin_size)) instead, which keeps power-law bin
    counts on the power law (exactly so at mu = 1).
    """

    bin_size: float
    counts: dict[float, int]
    integer_data: bool = True

    def __post_init__(self) -> None:
        if self.bin_size <= 0:
            raise ValueError("bin_size must be positive")

    def bins(self) -> tuple[np.ndarray, np.ndarray]:
        """The representative tau and the count of every bin, by increasing
        edge, from one pass over ``counts``."""
        edges = np.fromiter(self.counts, float, len(self.counts))
        counts = np.fromiter(self.counts.values(), float, len(self.counts))
        order = np.argsort(edges, kind="stable")
        edges, counts = edges[order], counts[order]
        if self.integer_data and self.bin_size == int(self.bin_size):
            return edges + (self.bin_size - 1.0) / 2.0, counts
        return np.sqrt(edges * (edges + self.bin_size)), counts


@dataclass(frozen=True)
class WaitingFit:
    """Fitted waiting-time exponent.

    ``amplitude`` (least-squares only) is the count scale of the fitted
    line, count(tau) = amplitude * tau**-(1 + mu), for plotting next to
    the unnormalized histogram.
    """

    mu: float
    fit_range: tuple[float, float]
    method: str
    stderr: float
    n_used: int
    amplitude: float | None = None


def build_histogram(taus: WaitingTimes | np.ndarray, bin_size: float = 1.0) -> WaitingHistogram:
    """Bin waiting times into [1 + k*bin_size, 1 + (k+1)*bin_size) bins.

    Empty bins are not stored at all.
    """
    values = taus.taus if isinstance(taus, WaitingTimes) else np.asarray(taus, dtype=float)
    return histogram_sampler(values, bin_size)(np.arange(values.size))


def histogram_sampler(taus: np.ndarray, bin_size: float) -> Callable[[np.ndarray], WaitingHistogram]:
    """Bin ``taus`` once, as :func:`build_histogram` does; the returned
    function gives the histogram of ``taus[idx]`` for an index array
    ``idx``, such as a bootstrap draw, from the bin counts of its draws."""
    if bin_size <= 0:
        raise ValueError("bin_size must be positive")
    k, bin_of = np.unique(np.floor((taus - 1.0) / bin_size), return_inverse=True)
    edges = 1.0 + k * bin_size
    integral = taus == np.floor(taus)

    def histogram(idx: np.ndarray) -> WaitingHistogram:
        counts = np.bincount(bin_of[idx], minlength=len(edges))
        full = np.flatnonzero(counts)
        return WaitingHistogram(
            bin_size=float(bin_size),
            counts=dict(zip(edges[full].tolist(), counts[full].tolist())),
            integer_data=bool(integral[idx].all()),
        )

    return histogram


def _default_fit_range(taus: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """[1, largest representative tau whose bin holds at least 2 counts]."""
    heavy = taus[counts >= 2]
    hi = float(heavy[-1]) if len(heavy) else float(taus[-1])
    return (1.0, hi)


def fit_mu(
    data: WaitingHistogram | WaitingTimes,
    fit_range: tuple[float | None, float | None] | None = None,
    method: str = "lsq",
) -> WaitingFit:
    """Estimate the waiting-time exponent mu.

    method="lsq": slope of log(count) vs log(tau) over the nonempty
    histogram bins whose representative tau falls in ``fit_range``; the
    slope equals -(1 + mu). Requires a histogram and at least 5 bins in
    range. The default range runs from 1 to the largest tau with at least
    2 counts.

    method="mle": continuous power-law maximum likelihood over tau >=
    tau_min (the lower end of ``fit_range``, or the smallest tau),
    mu = n / sum(log(tau_i / tau_min)) over the raw waiting times; needs 50
    samples.
    """
    if method == "lsq":
        if not isinstance(data, WaitingHistogram):
            raise TypeError("lsq fitting needs a WaitingHistogram")
        return _fit_lsq(data, fit_range)
    if method == "mle":
        return _fit_mle(data, fit_range)
    raise ValueError(f"unknown method {method!r}")


def _resolve_range(
    fit_range: tuple[float | None, float | None] | None,
    default: tuple[float, float],
) -> tuple[float, float]:
    if fit_range is None:
        return default
    lo = default[0] if fit_range[0] is None else float(fit_range[0])
    hi = default[1] if fit_range[1] is None else float(fit_range[1])
    return (lo, hi)


def _fit_lsq(hist: WaitingHistogram, fit_range) -> WaitingFit:
    if not hist.counts:
        raise DataError("empty histogram")
    taus, counts = hist.bins()
    lo, hi = _resolve_range(fit_range, _default_fit_range(taus, counts))
    sel = (taus > 0) & (counts > 0) & (taus >= lo) & (taus <= hi)
    taus, counts = taus[sel], counts[sel]
    if len(taus) < 5:
        raise DataError(f"need at least 5 nonempty bins in range, got {len(taus)}")
    x = np.log(taus)
    y = np.log(counts)
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    sxx = float(np.sum(dx**2))
    if sxx == 0.0:
        raise DataError("zero variance in log tau over the fit range")
    slope = float(np.sum(dx * (y - y_mean)) / sxx)
    intercept = float(y_mean - slope * x_mean)
    mu = -slope - 1.0
    if mu <= 0:
        raise DataError(f"histogram slope {slope:.4f} gives nonpositive mu")
    resid = y - (intercept + slope * x)
    dof = len(taus) - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return WaitingFit(
        mu=float(mu),
        fit_range=(lo, hi),
        method="lsq",
        stderr=stderr,
        n_used=int(len(taus)),
        amplitude=float(np.exp(intercept)),
    )


def _fit_mle(data: WaitingTimes, fit_range) -> WaitingFit:
    if not isinstance(data, WaitingTimes):
        raise TypeError("mle fitting needs WaitingTimes")
    samples = data.taus  # all positive: WaitingTimes checks that
    if samples.size == 0:
        raise DataError("no waiting times to fit")
    lo, hi = _resolve_range(fit_range, (float(samples.min()), math.inf))
    samples = samples[(samples >= lo) & (samples <= hi)]
    n = samples.size
    if n < 50:
        raise DataError(f"need at least 50 samples for the MLE, got {n}")
    # a dot product, not np.sum, whose pairwise order changes the last bits of mu
    s = float(np.ones_like(samples) @ np.log(samples / lo))
    if s <= 0:
        raise DataError("all waiting times equal tau_min; exponent undefined")
    mu = n / s
    hi_eff = float(samples.max()) if math.isinf(hi) else hi
    return WaitingFit(
        mu=float(mu),
        fit_range=(lo, hi_eff),
        method="mle",
        stderr=float(mu / math.sqrt(n)),
        n_used=n,
        amplitude=None,
    )


def write_histogram_csv(hist: WaitingHistogram, path: str | Path) -> None:
    """Two-column CSV (tau, count), sorted by tau."""
    write_csv(path, ["tau", "count"], zip(*hist.bins()))
