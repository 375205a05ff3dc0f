"""Omori-Utsu cumulative law: model evaluation and fitting.

The cumulative number of aftershocks by time t is modeled as

    N(t) = A * ((t + c)**(1 - p) - c**(1 - p)) / (1 - p)    (p != 1)
    N(t) = A * log(t / c + 1)                               (p == 1)

with decay exponent p > 0, amplitude A > 0 and time offset c >= 0 in
minutes. The headline fit is least squares of the empirical cumulative
count on a uniform time grid: a derivative-free outer search over (p, c)
with the amplitude solved in closed form at each candidate, refined by
Brent's bounded method (:func:`._optim.brent`). A maximum-likelihood fit
of the rate is available as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._optim import brent
from .errors import DataError
from .events import EventSequence

# |p - 1| below this routes evaluation to the logarithmic branch; the
# power branch is written so the two agree to ~1e-10 at the switch.
LOG_BRANCH_WINDOW = 1e-6

P_SEARCH_RANGE = (0.05, 2.5)
P_SEARCH_STEP = 0.01
C_SEARCH_GRID = tuple(np.logspace(-1.0, 4.0, 26))
# the coarse (p, c) grid both fits scan; c = 0 alone when c is pinned
_P_VALUES = np.arange(P_SEARCH_RANGE[0], P_SEARCH_RANGE[1] + P_SEARCH_STEP / 2.0, P_SEARCH_STEP)
_C_VALUES = (0.0, *(float(c) for c in C_SEARCH_GRID))
MIN_EVENTS = 10  # fewest events either fit accepts
# most points of a fitting grid; the refinement's arrays at the cap take about 170 MB
MAX_GRID_POINTS = 1 << 22

_BLOCK_BYTES = 1 << 19  # most bytes of model rows in one coarse-scan block
_DOT_CHUNK = 10_000  # longest dot product OpenBLAS computes on one thread


@dataclass(frozen=True)
class OmoriFit:
    """Fitted decay parameters.

    ``rss`` is the objective value at the minimizer: a residual sum of
    squares for the cumulative least-squares fit, the negative
    log-likelihood for the rate-MLE cross-check (``method`` tells which).
    ``evaluations`` is the number of full-grid (p, c) cells a cumulative
    least-squares fit scored (None for the rate MLE); it is a diagnostic
    and takes no part in comparisons between fits.
    """

    p: float
    amplitude: float
    c: float
    rss: float
    grid_step: float | None
    horizon: float
    method: str = "cumulative-lsq"
    evaluations: int | None = field(default=None, compare=False, metadata={"omit_none": True})


def _validate_params(p: float, amplitude: float, c: float) -> None:
    if p <= 0:
        raise ValueError("p must be positive")
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    if c < 0:
        raise ValueError("c must be nonnegative")
    if c == 0 and p >= 1.0 - LOG_BRANCH_WINDOW:
        raise ValueError("c must be positive when p >= 1 (the model diverges at c = 0)")


def _unit(
    t: np.ndarray, p: float, c: float, lt: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Cumulative model with amplitude 1 (see :func:`omori_model`); t >= 0 is
    not checked. ``lt`` may carry ``log1p(t / c)``, the only term that
    depends on c and not on p, so a search over p at one c computes it once;
    the cached array is returned as is on the log branch and must not be
    modified. The power branch at c > 0 is written into ``out`` when one is
    given."""
    if abs(p - 1.0) < LOG_BRANCH_WINDOW:
        return np.log1p(t / c) if lt is None else lt
    q = 1.0 - p
    if c > 0:
        if lt is None:
            lt = np.log1p(t / c)
        # c**q * expm1(q * log1p(t/c)) == ((t+c)**q - c**q): exact zero at
        # t = 0 and continuous across the p -> 1 branch switch.
        g = np.expm1(np.multiply(q, lt, out=out), out=out)
        return np.divide(np.multiply(g, c**q, out=out), q, out=out)
    # numpy's ** takes scalar fast paths (**0.5 is sqrt) that power(out=) may not
    return t**q / q


def omori_model(t, p: float, amplitude: float, c: float):
    """Expected cumulative number of aftershocks by time ``t`` minutes.

    N(0) = 0 exactly on both branches. ``p`` within 1e-6 of 1 uses the
    logarithmic branch (the limit of the power branch, which is singular
    there). c = 0 is valid only for p < 1.
    """
    _validate_params(p, amplitude, c)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    out = amplitude * _unit(t, p, c)
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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` summed in order over chunks of ``_DOT_CHUNK``: OpenBLAS
    splits a longer dot over threads, so its bits would depend on the CPU
    count. The chunks before the last go through one batched matmul."""
    k = (len(a) - 1) // _DOT_CHUNK * _DOT_CHUNK
    last = float(a[k:] @ b[k:])
    if not k:
        return last
    head = np.matmul(a[:k].reshape(-1, 1, _DOT_CHUNK), b[:k].reshape(-1, _DOT_CHUNK, 1))
    return sum(head.ravel().tolist()) + last


def _lsq_cell(
    y: np.ndarray, grid: np.ndarray, p: float, c: float, lt: np.ndarray | None, work: tuple
) -> tuple[float, float]:
    """Exact (rss, amplitude) for one (p, c) candidate; ``lt`` is
    ``log1p(grid / c)`` for c > 0 (see :func:`_unit`). ``work`` is two
    arrays shaped like ``grid``, for the model and the residual."""
    g_out, resid = work
    g = _unit(grid, p, c, lt, out=g_out)
    sgg = _dot(g, g)
    syg = _dot(y, g)
    if sgg <= 0 or syg <= 0:
        return math.inf, 0.0
    a = syg / sgg
    np.subtract(y, np.multiply(a, g, out=resid), out=resid)
    return _dot(resid, resid), a


def _coarse_scan(
    ys: np.ndarray, grid: np.ndarray, p_values: np.ndarray, c_values: tuple[float, ...]
) -> list[tuple[float, float, float] | DataError]:
    """Per row of ``ys``, a stack of count vectors on ``grid`` (one row per
    catalog), the best (p, c) cell by the closed-amplitude rss, ties to
    smallest p then smallest c, and the best p in the ``c_values[0]``
    column; or a :class:`DataError` when no cell admits the row.

    A cell's rss, sum(y**2) - sum(y*g)**2 / sum(g*g), does not change when
    g is scaled by a constant, so the scan leaves out the unit model's
    factor c**q / q (q = 1 - p) and scores exp(q * lt) - 1 (c > 0) or
    exp(q * lt) = t**q (c = 0). The factor's sign, that of q, carries into
    the admissibility test sum(y*g) > 0. Rows that c = 0 does not admit
    (p >= 1) are not computed.

    g is computed in blocks of p rows of at most ``_BLOCK_BYTES`` (one row
    when a single row is larger), one block at a time, so the scan holds one
    block beside the counts, whatever the grid's length. Each block, which
    does not depend on the counts, is computed once, and each row of ``ys``
    is scored against it with its own matrix-vector product (gemv): one
    matrix product g @ Y.T (gemm) would sum in another order and change the
    last bits, whereas per-row products keep every catalog's cells those of
    a scan of that catalog alone.
    """
    n_y, n_p = len(ys), len(p_values)
    sy2 = np.array([float(row @ row) for row in ys])
    q_all = 1.0 - p_values
    log_branch = np.abs(q_all) < LOG_BRANCH_WINDOW
    n_rows = max(1, _BLOCK_BYTES // (8 * len(grid)))
    block = np.empty((min(n_rows, n_p), len(grid)))
    col = np.empty((n_y, n_p))
    col_min = np.empty((len(c_values), n_y))
    col_arg = np.empty((len(c_values), n_y), dtype=int)

    for j, c in enumerate(c_values):
        col.fill(np.inf)
        lt = np.log1p(grid / c) if c > 0 else np.log(grid)
        # log-branch rows are scored below; c = 0 admits p < 1 only
        rows = np.flatnonzero(~log_branch & ((q_all > 0) | (c > 0)))
        for start in range(0, len(rows), n_rows):
            idx = rows[start : start + n_rows]
            q = q_all[idx]
            g = block[: len(idx)]
            np.exp(np.multiply(q[:, None], lt, out=g), out=g)
            if c > 0:
                g -= 1.0
            with np.errstate(invalid="ignore", divide="ignore"):
                syg = np.array([g @ row for row in ys])
                sgg = np.einsum("ij,ij->i", g, g)
                cell = sy2[:, None] - syg**2 / sgg
            bad = (syg * np.sign(q) <= 0) | (sgg <= 0) | ~np.isfinite(cell)
            cell[bad] = np.inf
            col[:, idx] = cell
        # log branch rows: g does not depend on p there
        if c > 0 and np.any(log_branch):
            sgg = float(lt @ lt)
            for r, row in enumerate(ys):
                syg = float(lt @ row)
                col[r, log_branch] = sy2[r] - syg**2 / sgg if (syg > 0 and sgg > 0) else np.inf
        col_min[j], col_arg[j] = col.min(axis=1), col.argmin(axis=1)

    # each row's first minimum in row-major order, as np.argmin over its
    # whole (p, c) table would take it: smallest p, then smallest c
    best = col_min.min(axis=0)
    first_p = np.where(col_min == best, col_arg, n_p)
    best_j = first_p.argmin(axis=0)
    best_i = first_p[best_j, np.arange(n_y)]
    return [
        (float(p_values[i]), float(c_values[j]), float(p_values[k]))
        if math.isfinite(v)
        else DataError("no admissible (p, c) cell: cumulative counts do not support the model")
        for v, i, j, k in zip(best, best_i, best_j, col_arg[0])
    ]


def _check_catalog(events: EventSequence) -> None:
    """Raise the :class:`DataError` of a catalog :func:`fit_omori` cannot
    fit, whatever the grid."""
    if len(events) < MIN_EVENTS:
        raise DataError(f"need at least {MIN_EVENTS} events to fit, got {len(events)}")


def fit_omori(
    events: EventSequence | list[EventSequence],
    grid_step: float = 1.0,
    horizon: float | None = None,
    c_search: bool = True,
) -> OmoriFit | list[OmoriFit | DataError]:
    """Least-squares fit of the cumulative law to an event sequence.

    The empirical cumulative count is sampled on a uniform grid
    (``grid_step``, 2*``grid_step``, ..., ``horizon``). For each candidate
    (p, c) the amplitude has the closed form A = sum(y*g) / sum(g*g), g
    being the unit-amplitude model, so the outer search is two-dimensional:
    a coarse scan over p on ``P_SEARCH_RANGE`` in steps of
    ``P_SEARCH_STEP`` and c on ``C_SEARCH_GRID`` (plus c = 0), refined
    around the best cell by Brent's bounded method (:func:`._optim.brent`):
    log c along the (p, c) ridge with p re-optimized at each candidate,
    then a polish of p at the winning c. Ties resolve to the smallest p,
    then smallest c. The coarse scan runs on the grid decimated to about
    4,000 points, one block of at most ``_BLOCK_BYTES`` of model rows at a
    time. The refinement tries many p at each c it visits;
    ``log1p(grid / c)`` is computed once per visited c and only the current
    c's array is held. Each full-grid cell is scored once per fit, and
    ``evaluations`` counts them.

    ``c_search=False`` pins c = 0, which restricts p to (0, 1). With the
    search, p at c = 0 is refined as well, so the fit is never worse than
    the pinned one. ``horizon`` defaults to the last event time.

    ``events`` may also be a list of catalogs, fitted on one grid with the
    same settings; ``horizon`` is then required, and a ``horizon`` or
    ``grid_step`` that is not finite and positive, or a grid of more than
    ``MAX_GRID_POINTS`` points, raises ``ValueError`` for the whole call. The result is a list holding, per catalog, its fit or
    the :class:`DataError` a call on that catalog alone would raise. The
    catalogs share one coarse scan pass (see :func:`_coarse_scan`); each
    is then counted on the full grid and refined alone, so the call holds
    one full-grid count vector at a time, and each result equals that of a
    call on the catalog alone, ``evaluations`` included.
    """
    if isinstance(events, EventSequence):
        _check_catalog(events)
        if horizon is None:
            horizon = float(events.times[-1])
        (result,) = fit_omori([events], grid_step, horizon, c_search)
        if isinstance(result, DataError):
            raise result
        return result

    if horizon is None:
        raise ValueError("a list of catalogs needs a horizon")
    if not (0 < horizon < math.inf and 0 < grid_step < math.inf):
        raise ValueError("horizon and grid_step must be finite and positive")
    if horizon / grid_step > MAX_GRID_POINTS:
        raise ValueError(f"a fitting grid of {horizon / grid_step:.4g} points exceeds the cap of {MAX_GRID_POINTS}")
    grid = np.arange(grid_step, horizon + grid_step / 2.0, grid_step)
    results: list = [None] * len(events)
    members = []
    for n, ev in enumerate(events):
        try:
            _check_catalog(ev)
            if len(grid) < 3:
                raise DataError("fitting grid has fewer than 3 points")
            members.append(n)
        except DataError as exc:
            results[n] = exc.with_traceback(None)
    if not members:
        return results

    # the coarse scan runs on a decimated grid; the refinement and the
    # returned fit use the full one, counted for one catalog at a time
    coarse = grid[:: max(1, len(grid) // 4000)]
    ys = np.stack([cumulative_count(events[n], coarse) for n in members])
    starts = _coarse_scan(ys, coarse, _P_VALUES, _C_VALUES if c_search else _C_VALUES[:1])
    for n, start in zip(members, starts):
        try:
            if isinstance(start, DataError):
                raise start
            y = cumulative_count(events[n], grid)
            results[n] = _refine(y, grid, start, grid_step, float(horizon), c_search)
        except DataError as exc:
            results[n] = exc.with_traceback(None)
    return results


def _refine(
    y: np.ndarray,
    grid: np.ndarray,
    start: tuple[float, float, float],
    grid_step: float,
    horizon: float,
    c_search: bool,
) -> OmoriFit:
    """The full-grid refinement of :func:`fit_omori` from the coarse scan's
    ``start``: the best p and c, and the best p at c = 0. Every cell a
    search scores updates one running best; the first cell seen wins ties."""
    p0, c0, p0_pinned = start
    # Only the current c's log1p(grid / c) is held, in one reused array:
    # the searches below move through c one value at a time, and an array
    # per visited c would hold megabytes.
    held_c, held_lt = math.nan, np.empty_like(grid)
    work = (np.empty_like(grid), np.empty_like(grid))
    evaluations = 0
    best = (math.inf, p0, c0, 0.0)  # (rss, p, c, amplitude)

    def score(p: float, c: float) -> float:
        nonlocal held_c, evaluations, best
        evaluations += 1
        if c != held_c and c > 0:
            held_c = c
            np.log1p(np.divide(grid, c, out=held_lt), out=held_lt)
        rss, a = _lsq_cell(y, grid, p, c, held_lt if c > 0 else None, work)
        if rss < best[0]:
            best = (rss, p, c, a)
        return rss

    def search_p(c: float, centre: float = p0, steps: int = 8, tol: float = 1e-5) -> float:
        """The least rss of a search over p within ``steps`` coarse steps of
        ``centre`` at this c (below the log branch at c = 0)."""
        lo = max(P_SEARCH_RANGE[0], centre - steps * P_SEARCH_STEP)
        hi = min(P_SEARCH_RANGE[1], centre + steps * P_SEARCH_STEP)
        if c == 0.0:
            hi = min(hi, 1.0 - 2 * LOG_BRANCH_WINDOW)
        return brent(lambda p: score(p, c), lo, hi, tol=tol)[1]

    score(p0, c0)
    if c_search and c0 > 0:
        # (p, c) ride a correlated ridge: refine c with p re-optimized at
        # every candidate, not coordinate-wise
        dlc = math.log(C_SEARCH_GRID[1] / C_SEARCH_GRID[0])
        lc0 = math.log(c0)
        brent(lambda lc: search_p(math.exp(lc)), lc0 - 1.5 * dlc, lc0 + 1.5 * dlc, tol=1e-4)
        search_p(c0)
        # The coarse scan runs on a decimated grid, so it can pick c0 > 0
        # where c = 0 fits the full grid better. Refining p at c = 0 around
        # the best coarse p there (always < 1) repeats the c-pinned refinement.
        search_p(0.0, p0_pinned)
    else:
        search_p(c0)
    # final polish of p at the winning c
    search_p(best[2], best[1], steps=1, tol=1e-6)

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
        evaluations=evaluations,
    )


def fit_omori_mle(
    events: EventSequence,
    horizon: float | None = None,
    c_search: bool = True,
) -> OmoriFit:
    """Maximum-likelihood fit of the decay rate A*(t + c)**-p.

    Cross-check for :func:`fit_omori`: treats events on (0, horizon] as an
    inhomogeneous Poisson process. The amplitude again has a closed form at
    fixed (p, c), A = M / unit_cumulative(horizon). Events at t = 0 are
    excluded (the pure power rate is undefined there for c = 0). The
    search tabulates every (p, c) cell, one numpy expression over p per c
    (``sum(log(t + c))`` and ``log1p(horizon / c)`` depend on c alone),
    re-scores the best cell with the scalar likelihood, then refines p at
    its c by Brent's method (:func:`._optim.brent`). Every returned value
    comes from the scalar likelihood. Ties resolve to the smallest p, then
    smallest c. Returned ``rss`` is the negative log-likelihood.
    """
    if horizon is None:
        horizon = float(events.times[-1]) if len(events) else 0.0
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be finite and positive")
    times = events.times[(events.times > 0) & (events.times <= horizon)]
    m = len(times)
    if m < MIN_EVENTS:
        raise DataError(f"need at least {MIN_EVENTS} events in (0, horizon], got {m}")

    c_values = _C_VALUES if c_search else _C_VALUES[:1]
    # the terms that depend on c alone, once per c: log1p(horizon / c) for
    # the unit cumulative and sum(log(t + c)) for the rate
    h = np.asarray([horizon])
    per_c = {
        c: (np.log1p(h / c) if c > 0 else None, float(np.sum(np.log(times + c))))
        for c in c_values
    }

    def negloglik(p: float, c: float) -> float:
        lt, s_log = per_c[c]
        lam_unit = float(_unit(h, p, c, lt)[0])
        if not (lam_unit > 0 and math.isfinite(lam_unit)):
            return math.inf
        # profile likelihood: amplitude = m / lam_unit
        return -(m * math.log(m / lam_unit) - p * s_log - m)

    q = 1.0 - _P_VALUES
    log_branch = np.abs(q) < LOG_BRANCH_WINDOW
    table = np.full((len(_P_VALUES), len(c_values)), np.inf)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j, c in enumerate(c_values):
            lt, s_log = per_c[c]
            if c > 0:
                lam = np.where(log_branch, lt[0], c**q * np.expm1(q * lt[0]) / q)
            else:
                # c = 0 admits p < 1 only
                lam = np.where(log_branch | (q <= 0), np.nan, horizon**q / q)
            nll = -(m * np.log(m / lam) - _P_VALUES * s_log - m)
            table[:, j] = np.where((lam > 0) & np.isfinite(lam) & np.isfinite(nll), nll, np.inf)
    # argmin takes the first minimum in row-major order: smallest p, then c
    i, j = divmod(int(np.argmin(table)), len(c_values))
    best = (negloglik(float(_P_VALUES[i]), c_values[j]), float(_P_VALUES[i]), c_values[j])
    if not math.isfinite(best[0]):
        raise DataError("rate model inadmissible for every searched (p, c)")

    p_lo = max(P_SEARCH_RANGE[0], best[1] - P_SEARCH_STEP)
    p_hi = min(P_SEARCH_RANGE[1], best[1] + P_SEARCH_STEP)
    c_fix = best[2]
    # at c = 0 the likelihood is convex in q = 1 - p with its minimum at
    # q = 1 / mean(log(horizon / t)) >= 1 / 1454 (the log range of float64),
    # so this search stays clear of p = 1, where the c = 0 model diverges
    p_ref, val = brent(lambda p: negloglik(p, c_fix), p_lo, p_hi, tol=1e-5)
    if val < best[0]:
        best = (val, p_ref, c_fix)

    nll, p_hat, c_hat = best
    lam_unit = float(_unit(np.asarray([horizon]), p_hat, c_hat)[0])
    return OmoriFit(
        p=float(p_hat),
        amplitude=m / lam_unit,
        c=float(c_hat),
        rss=float(nll),
        grid_step=None,
        horizon=float(horizon),
        method="rate-mle",
    )
