"""Event-event correlations, aging curves, and scaling collapse.

Aftershocks are ranked by occurrence: the k-th event has event index k.
The correlation of the two index-shifted time sequences {t_{m+k}} and
{t_{n+k}} (Pearson form over a shared k range) probes how the process
remembers its past. Dependence of C(n + n_w, n_w) on the start index n_w
is the aging signature; rescaling n by a per-n_w factor f(n_w) so all
curves land on one master curve is the associated data collapse, and
f(n_w) = a * n_w**gamma + 1 the law fitted to the factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._optim import brent
from .errors import DataError
from .events import EventSequence, write_csv

F_SEARCH_BOUNDS = (0.2, 50.0)
_F_COARSE_POINTS = 57


@dataclass(frozen=True)
class CorrelationCurve:
    """C(n + n_w, n_w) sampled at n = 0, 1, ...."""

    n_w: int
    n: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        n = np.asarray(self.n, dtype=int)
        c = np.asarray(self.c, dtype=float)
        if n.shape != c.shape or n.ndim != 1:
            raise ValueError("n and c must be 1-d and equally long")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class CollapseResult:
    """Per-curve scale factors and the overall residual; :func:`fit_f`
    fits the power law f(n_w) to the factors."""

    scale_factors: dict[int, float]
    collapse_residual: float


def event_corr(events: EventSequence | np.ndarray, m: int, n: int) -> float:
    """Pearson correlation of the index-shifted windows {t_{m+k}} and
    {t_{n+k}}, k = 0 .. M-1, with M = len(events) - max(m, n).

    Both windows share the same k range, the largest admissible one, so
    every index stays in bounds. C(n, n) = 1 exactly.
    """
    times = events.times if isinstance(events, EventSequence) else np.asarray(events, dtype=float)
    if m < 0 or n < 0:
        raise ValueError("event indices must be nonnegative")
    big = len(times) - max(m, n)
    if big < 2:
        raise DataError(f"shifted windows too short: M={big} for (m={m}, n={n})")
    a = times[m : m + big]
    b = times[n : n + big]
    # ndarray.mean's arithmetic without its Python wrapper
    ac = a - np.add.reduce(a) / big
    bc = b - np.add.reduce(b) / big
    va = float(ac @ ac)
    vb = float(bc @ bc)
    if va == 0.0 or vb == 0.0:
        raise DataError("zero variance in a shifted window")
    return float((ac @ bc) / math.sqrt(va * vb))


def aging_curves(
    events: EventSequence | np.ndarray,
    n_w_list: Sequence[int] = (0, 10, 20, 30, 40, 50),
    n_max: int = 60,
) -> list[CorrelationCurve]:
    """One correlation curve C(n + n_w, n_w), n = 0..n_max, per waiting
    event time n_w; ordered by n_w."""
    times = events.times if isinstance(events, EventSequence) else np.asarray(events, dtype=float)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if any(n_w < 0 for n_w in n_w_list):
        raise ValueError("waiting event times must be nonnegative")
    length = len(times)
    worst = n_max + max(n_w_list)
    if length - worst < 2:
        raise DataError(
            f"sequence of {length} events too short for n_max={n_max} "
            f"with n_w up to {max(n_w_list)}"
        )
    curves = []
    for n_w in sorted(n_w_list):
        ns = np.arange(n_max + 1)
        cs = np.array([event_corr(times, n + n_w, n_w) for n in ns])
        curves.append(CorrelationCurve(n_w=int(n_w), n=ns, c=cs))
    return curves


def _collapse_objective(curve: CorrelationCurve, ref: CorrelationCurve, f: float) -> tuple[float, int]:
    """Sum of squared deviations from the rescaled reference, and the
    number of points that landed inside the reference support."""
    u = curve.n / f
    mask = u <= ref.n[-1]
    used = int(mask.sum())
    if used < 2:
        return math.inf, used
    w = np.interp(u[mask], ref.n, ref.c)
    d = curve.c[mask] - w
    return float(d @ d), used


def collapse(curves: Iterable[CorrelationCurve], reference_n_w: int = 0) -> CollapseResult:
    """Scale factor per curve that best maps it onto the reference curve.

    For each curve, f minimizes sum_n (C(n) - C_ref(n / f))**2, the
    reference evaluated by linear interpolation and rescaled points beyond
    its support left out of the sum. Search: coarse logarithmic grid over
    ``F_SEARCH_BOUNDS`` with f = 1 always included, then Brent refinement
    (:func:`._optim.brent`) of log f between the best cell's neighbours; the
    coarse cell or f = 1 is kept when the refined point does not beat it.
    The reference curve's own factor is pinned to 1.

    ``collapse_residual`` is the mean squared deviation per contributing
    point, across all non-reference curves.
    """
    curves = sorted(curves, key=lambda c: c.n_w)
    ref = next((c for c in curves if c.n_w == reference_n_w), None)
    if ref is None:
        raise ValueError(f"no curve with n_w={reference_n_w} to use as reference")
    if len(ref.n) < 3:
        raise DataError("reference curve shorter than 3 points")

    # sorted and deduplicated by hand: a bare np.unique imports numpy.ma. Not
    # a module constant, which would cost every command numpy's first
    # geomspace and sort (about 0.6 MB of resident memory)
    coarse = np.sort(np.append(np.geomspace(*F_SEARCH_BOUNDS, _F_COARSE_POINTS), 1.0))
    coarse = coarse[np.diff(coarse, prepend=-np.inf) > 0]

    factors: dict[int, float] = {}
    total_sq = 0.0
    total_pts = 0
    for curve in curves:
        if curve.n_w == reference_n_w:
            factors[curve.n_w] = 1.0
            continue
        vals = [_collapse_objective(curve, ref, f)[0] for f in coarse]
        k = int(np.argmin(vals))
        if not math.isfinite(vals[k]):
            raise DataError(f"no overlap with the reference after rescaling (n_w={curve.n_w})")
        lo_k = math.log(coarse[max(0, k - 1)])
        hi_k = math.log(coarse[min(len(coarse) - 1, k + 1)])
        f_ref, _ = brent(lambda lf: _collapse_objective(curve, ref, math.exp(lf))[0], lo_k, hi_k, tol=1e-7)
        # strict improvement over f = 1 required, so ties keep unit scale
        best_f, best_val = 1.0, _collapse_objective(curve, ref, 1.0)[0]
        for cand in (float(coarse[k]), float(math.exp(f_ref))):
            val = _collapse_objective(curve, ref, cand)[0]
            if val < best_val:
                best_f, best_val = cand, val
        factors[curve.n_w] = best_f
        sq, used = _collapse_objective(curve, ref, best_f)
        total_sq += sq
        total_pts += used

    residual = total_sq / total_pts if total_pts else 0.0
    return CollapseResult(scale_factors=factors, collapse_residual=float(residual))


def fit_f(scale_factors: Mapping[int, float]) -> tuple[float, float]:
    """Fit f(n_w) = a * n_w**gamma + 1 to the collapse scale factors.

    Least squares of log(f - 1) against log(n_w). Entries with n_w = 0 or
    f <= 1 carry no information about the law and are skipped; fewer than
    two usable points is an error. Returns (a, gamma).
    """
    pts = [(n_w, f) for n_w, f in scale_factors.items() if n_w > 0 and f > 1.0]
    if len(pts) < 2:
        raise DataError("need at least two scale factors with n_w > 0 and f > 1")
    x = np.log([float(n_w) for n_w, _ in pts])
    y = np.log([f - 1.0 for _, f in pts])
    slope, intercept = np.polyfit(x, y, 1)
    return float(np.exp(intercept)), float(slope)


def write_curves_csv(curves: Iterable[CorrelationCurve], path: str | Path) -> None:
    """Rows (n_w, n, C), curves ordered by n_w."""
    rows = ([cv.n_w, n, c] for cv in sorted(curves, key=lambda cv: cv.n_w) for n, c in zip(cv.n.tolist(), cv.c))
    write_csv(path, ["n_w", "n", "C"], rows)


def write_collapsed_csv(
    curves: Iterable[CorrelationCurve],
    scale_factors: Mapping[int, float],
    path: str | Path,
) -> None:
    """Rows (n_w, n / f(n_w), C): the collapsed curves."""
    rows = (
        [cv.n_w, n / scale_factors[cv.n_w], c]
        for cv in sorted(curves, key=lambda cv: cv.n_w)
        for n, c in zip(cv.n.tolist(), cv.c)
    )
    write_csv(path, ["n_w", "n_scaled", "C"], rows)


def write_scale_factors_csv(scale_factors: Mapping[int, float], path: str | Path) -> None:
    write_csv(path, ["n_w", "f"], ([n_w, scale_factors[n_w]] for n_w in sorted(scale_factors)))
