"""Omori-Utsu cumulative law: model evaluation and fitting.

The cumulative number of aftershocks by time t is modeled as

    N(t) = A * ((t + c)**(1 - p) - c**(1 - p)) / (1 - p)    (p != 1)
    N(t) = A * log(t / c + 1)                               (p == 1)

with decay exponent p > 0, amplitude A > 0 and time offset c >= 0 in
minutes. The headline fit is least squares of the empirical cumulative
count on a uniform time grid: a derivative-free outer search over (p, c)
with the amplitude solved in closed form at each candidate. A
maximum-likelihood fit of the rate is available as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import golden_section
from .errors import DataError
from .events import EventSequence

# |p - 1| below this routes evaluation to the logarithmic branch; the
# power branch is written so the two agree to ~1e-10 at the switch.
LOG_BRANCH_WINDOW = 1e-6

P_SEARCH_RANGE = (0.05, 2.5)
P_SEARCH_STEP = 0.01
C_SEARCH_GRID = tuple(np.logspace(-1.0, 4.0, 26))

_P_BLOCK = 64  # p rows evaluated per broadcast block in the coarse scan


@dataclass(frozen=True)
class OmoriFit:
    """Fitted decay parameters.

    ``rss`` is the objective value at the minimizer: a residual sum of
    squares for the cumulative least-squares fit, the negative
    log-likelihood for the rate-MLE cross-check (``method`` tells which).
    """

    p: float
    amplitude: float
    c: float
    rss: float
    grid_step: float | None
    horizon: float
    method: str = "cumulative-lsq"


def _validate_params(p: float, amplitude: float, c: float) -> None:
    if p <= 0:
        raise ValueError("p must be positive")
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    if c < 0:
        raise ValueError("c must be nonnegative")
    if c == 0 and p >= 1.0 - LOG_BRANCH_WINDOW:
        raise ValueError("c must be positive when p >= 1 (the model diverges at c = 0)")


def unit_model(t: np.ndarray, p: float, c: float) -> np.ndarray:
    """Cumulative model with amplitude 1 (see :func:`omori_model`)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    return _unit(t, p, c)


def _unit(t: np.ndarray, p: float, c: float, lt: np.ndarray | None = None) -> np.ndarray:
    """:func:`unit_model` without the input check. ``lt`` may carry
    ``log1p(t / c)``, the only term that depends on c and not on p, so a
    search over p at one c computes it once; the cached array is returned
    as is on the log branch and must not be modified."""
    if abs(p - 1.0) < LOG_BRANCH_WINDOW:
        return np.log1p(t / c) if lt is None else lt
    q = 1.0 - p
    if c > 0:
        if lt is None:
            lt = np.log1p(t / c)
        # c**q * expm1(q * log1p(t/c)) == ((t+c)**q - c**q): exact zero at
        # t = 0 and continuous across the p -> 1 branch switch.
        return c**q * np.expm1(q * lt) / q
    return t**q / q


def omori_model(t, p: float, amplitude: float, c: float):
    """Expected cumulative number of aftershocks by time ``t`` minutes.

    N(0) = 0 exactly on both branches. ``p`` within 1e-6 of 1 uses the
    logarithmic branch (the limit of the power branch, which is singular
    there). c = 0 is valid only for p < 1.
    """
    _validate_params(p, amplitude, c)
    out = amplitude * unit_model(np.asarray(t, dtype=float), p, c)
    return out if out.ndim else float(out)


def cumulative_count(events: EventSequence, grid) -> np.ndarray:
    """Empirical N(t): number of events with time <= t, per grid point."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("grid must be 1-d")
    if len(grid) and np.any(grid < 0):
        raise ValueError("grid must be nonnegative")
    if np.any(np.diff(grid) < 0):
        raise ValueError("grid must be sorted")
    return np.searchsorted(events.times, grid, side="right").astype(float)


def _lsq_cell(
    y: np.ndarray, grid: np.ndarray, p: float, c: float, lt: np.ndarray | None
) -> tuple[float, float]:
    """Exact (rss, amplitude) for one (p, c) candidate; ``lt`` is
    ``log1p(grid / c)`` for c > 0 (see :func:`_unit`)."""
    g = _unit(grid, p, c, lt)
    sgg = float(g @ g)
    syg = float(y @ g)
    if sgg <= 0 or syg <= 0:
        return math.inf, 0.0
    a = syg / sgg
    resid = y - a * g
    return float(resid @ resid), a


def _coarse_scan(
    y: np.ndarray,
    grid: np.ndarray,
    p_values: np.ndarray,
    c_values: list[float],
) -> tuple[float, float]:
    """Best (p, c) cell by the closed-amplitude rss, ties to smallest p
    then smallest c."""
    sy2 = float(y @ y)
    n_p, n_c = len(p_values), len(c_values)
    rss = np.full((n_p, n_c), np.inf)
    q_all = 1.0 - p_values
    log_branch = np.abs(q_all) < LOG_BRANCH_WINDOW

    for j, c in enumerate(c_values):
        lt = np.log1p(grid / c) if c > 0 else np.log(grid)
        cq_pow = None
        for start in range(0, n_p, _P_BLOCK):
            sl = slice(start, min(start + _P_BLOCK, n_p))
            q = q_all[sl]
            m = np.exp(np.outer(q, lt))
            if c > 0:
                if cq_pow is None:
                    cq_pow = np.exp(q_all * math.log(c))
                g = cq_pow[sl, None] * (m - 1.0) / q[:, None]
            else:
                g = m / q[:, None]
            with np.errstate(invalid="ignore", divide="ignore"):
                syg = g @ y
                sgg = np.einsum("ij,ij->i", g, g)
                cell = sy2 - syg**2 / sgg
            bad = (syg <= 0) | (sgg <= 0) | ~np.isfinite(cell)
            cell[bad] = np.inf
            rss[sl, j] = cell
        # log branch rows: g does not depend on p there
        if c > 0 and np.any(log_branch):
            g = lt
            syg = float(g @ y)
            sgg = float(g @ g)
            val = sy2 - syg**2 / sgg if (syg > 0 and sgg > 0) else np.inf
            rss[log_branch, j] = val
        elif c == 0:
            rss[log_branch | (p_values >= 1.0), j] = np.inf

    # argmin takes the first minimum in row-major order: smallest p, then c
    i, j = divmod(int(np.argmin(rss)), n_c)
    if not math.isfinite(rss[i, j]):
        raise DataError("no admissible (p, c) cell: cumulative counts do not support the model")
    return float(p_values[i]), float(c_values[j])


def fit_omori(
    events: EventSequence,
    grid_step: float = 1.0,
    horizon: float | None = None,
    c_search: bool = True,
    *,
    grid: np.ndarray | None = None,
    p_range: tuple[float, float] = P_SEARCH_RANGE,
    p_step: float = P_SEARCH_STEP,
    c_grid: tuple[float, ...] = C_SEARCH_GRID,
) -> OmoriFit:
    """Least-squares fit of the cumulative law to an event sequence.

    The empirical cumulative count is sampled on a uniform grid
    (``grid_step``, 2*``grid_step``, ..., ``horizon``; pass ``grid`` to
    override). For each candidate (p, c) the amplitude has the closed form
    A = sum(y*g) / sum(g*g), g being the unit-amplitude model, so the outer
    search is two-dimensional: a coarse scan over p in steps of ``p_step``
    and c on a logarithmic grid (plus c = 0), refined by golden-section
    around the best cell. Ties resolve to the smallest p, then smallest c.
    The refinement tries many p at each c it visits; ``log1p(grid / c)``
    is computed once per visited c and only the current c's array is held.

    ``c_search=False`` pins c = 0, which restricts p to (0, 1).
    ``horizon`` defaults to the last event time.
    """
    if len(events) < 10:
        raise DataError(f"need at least 10 events to fit, got {len(events)}")
    if float(np.ptp(events.times)) == 0.0:
        raise DataError("degenerate event sequence: all events at one time")
    if grid is None:
        if horizon is None:
            horizon = float(events.times[-1])
        if horizon <= 0 or grid_step <= 0:
            raise ValueError("horizon and grid_step must be positive")
        grid = np.arange(grid_step, horizon + grid_step / 2.0, grid_step)
    else:
        grid = np.asarray(grid, dtype=float)
        if np.any(grid <= 0):
            raise ValueError("explicit grid values must be positive")
        horizon = float(horizon if horizon is not None else grid[-1])
        grid_step = None  # type: ignore[assignment]
    if len(grid) < 3:
        raise DataError("fitting grid has fewer than 3 points")

    y = cumulative_count(events, grid)
    p_values = np.arange(p_range[0], p_range[1] + p_step / 2.0, p_step)
    c_values = [0.0] + ([float(c) for c in c_grid] if c_search else [])

    # coarse localization may run on a decimated grid; refinement and the
    # returned fit always use the full one
    stride = max(1, len(grid) // 4000)
    p0, c0 = _coarse_scan(y[::stride], grid[::stride], p_values, c_values)

    # Only the current c's log1p(grid / c) is held: the searches below
    # move through c one value at a time, and an array per visited c would
    # hold megabytes.
    held_c, held_lt = math.nan, None

    def cell(p: float, c: float) -> tuple[float, float]:
        nonlocal held_c, held_lt
        if c != held_c:
            held_c, held_lt = c, (np.log1p(grid / c) if c > 0 else None)
        return _lsq_cell(y, grid, p, c, held_lt)

    best_rss, best_a = cell(p0, c0)
    best = (best_rss, p0, c0, best_a)

    def consider(p: float, c: float) -> None:
        nonlocal best
        if c == 0.0 and p >= 1.0 - LOG_BRANCH_WINDOW:
            return
        r, a = cell(p, c)
        if r < best[0]:
            best = (r, p, c, a)

    def best_p_at(c: float) -> tuple[float, float]:
        lo = max(p_range[0], p0 - 8 * p_step)
        hi = min(p_range[1], p0 + 8 * p_step)
        if c == 0.0:
            hi = min(hi, 1.0 - 2 * LOG_BRANCH_WINDOW)
        return golden_section(lambda p: cell(p, c)[0], lo, hi, tol=1e-5)

    if c_search and c0 > 0:
        # (p, c) ride a correlated ridge: refine c with p re-optimized at
        # every candidate, not coordinate-wise
        dlc = math.log(10.0) / 5.0 if len(c_grid) < 2 else math.log(c_grid[1] / c_grid[0])
        lc0 = math.log(c0)

        def ridge(lc: float) -> float:
            return best_p_at(math.exp(lc))[1]

        lc_ref, _ = golden_section(ridge, lc0 - 1.5 * dlc, lc0 + 1.5 * dlc, tol=1e-4)
        c_ref = math.exp(lc_ref)
        p_ref, _ = best_p_at(c_ref)
        consider(p_ref, c_ref)
        consider(best_p_at(c0)[0], c0)
    else:
        consider(best_p_at(c0)[0], c0)

    # final polish of p at the winning c
    c_fin = best[2]
    p_lo = max(p_range[0], best[1] - p_step)
    p_hi = min(p_range[1], best[1] + p_step)
    if c_fin == 0.0:
        p_hi = min(p_hi, 1.0 - 2 * LOG_BRANCH_WINDOW)
    p_fin, _ = golden_section(lambda p: cell(p, c_fin)[0], p_lo, p_hi, tol=1e-6)
    consider(p_fin, c_fin)

    rss, p_hat, c_hat, a_hat = best
    if a_hat <= 0:
        raise DataError("cumulative counts do not support a positive amplitude")
    return OmoriFit(
        p=float(p_hat),
        amplitude=float(a_hat),
        c=float(c_hat),
        rss=float(rss),
        grid_step=grid_step,
        horizon=float(horizon),
        method="cumulative-lsq",
    )


def fit_omori_mle(
    events: EventSequence,
    horizon: float | None = None,
    c_search: bool = True,
    *,
    p_range: tuple[float, float] = P_SEARCH_RANGE,
    p_step: float = P_SEARCH_STEP,
    c_grid: tuple[float, ...] = C_SEARCH_GRID,
) -> OmoriFit:
    """Maximum-likelihood fit of the decay rate A*(t + c)**-p.

    Cross-check for :func:`fit_omori`: treats events on (0, horizon] as an
    inhomogeneous Poisson process. The amplitude again has a closed form at
    fixed (p, c), A = M / unit_cumulative(horizon). Events at t = 0 are
    excluded (the pure power rate is undefined there for c = 0). The
    search tabulates every (p, c) cell, then refines p at the best c by
    golden section; ``sum(log(t + c))`` and ``log1p(horizon / c)``, which
    depend on c alone, are computed once per c.
    Returned ``rss`` is the negative log-likelihood.
    """
    if horizon is None:
        horizon = float(events.times[-1]) if len(events) else 0.0
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    times = events.times[(events.times > 0) & (events.times <= horizon)]
    m = len(times)
    if m < 10:
        raise DataError(f"need at least 10 events in (0, horizon], got {m}")

    c_values = [0.0] + ([float(c) for c in c_grid] if c_search else [])
    # the terms that depend on c alone, once per c: log1p(horizon / c) for
    # the unit cumulative and sum(log(t + c)) for the rate
    h = np.asarray([horizon])
    per_c = {
        c: (np.log1p(h / c) if c > 0 else None, float(np.sum(np.log(times + c))))
        for c in c_values
    }

    def negloglik(p: float, c: float) -> float:
        if c == 0.0 and p >= 1.0 - LOG_BRANCH_WINDOW:
            return math.inf
        lt, s_log = per_c[c]
        lam_unit = float(_unit(h, p, c, lt)[0])
        if not (lam_unit > 0 and math.isfinite(lam_unit)):
            return math.inf
        # profile likelihood: amplitude = m / lam_unit
        return -(m * math.log(m / lam_unit) - p * s_log - m)

    p_values = np.arange(p_range[0], p_range[1] + p_step / 2.0, p_step)
    best = (math.inf, 0.0, 0.0)
    for p in p_values:
        for c in c_values:
            val = negloglik(float(p), c)
            if val < best[0]:
                best = (val, float(p), c)
    if not math.isfinite(best[0]):
        raise DataError("rate model inadmissible for every searched (p, c)")

    p_lo = max(p_range[0], best[1] - p_step)
    p_hi = min(p_range[1], best[1] + p_step)
    c_fix = best[2]
    p_ref, val = golden_section(lambda p: negloglik(p, c_fix), p_lo, p_hi, tol=1e-5)
    if val < best[0]:
        best = (val, p_ref, c_fix)

    nll, p_hat, c_hat = best
    lam_unit = float(unit_model(np.asarray([horizon]), p_hat, c_hat)[0])
    return OmoriFit(
        p=float(p_hat),
        amplitude=m / lam_unit,
        c=float(c_hat),
        rss=float(nll),
        grid_step=None,
        horizon=float(horizon),
        method="rate-mle",
    )
