"""Seeded synthetic point processes used as estimation oracles.

All generators draw only raw uniform doubles from a PCG64 stream and
apply explicit inverse-CDF transforms, so the same parameters and seed
reproduce the same catalog bit-for-bit run after run (and across
platforms up to libm differences in log/exp). The algorithm identifier below is recorded in
run reports alongside the seed.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .events import EventSequence, WaitingTimes
from .omori import LOG_BRANCH_WINDOW

log = logging.getLogger(__name__)

RNG_ALGORITHM = "pcg64:inverse-cdf"
_CHUNK = 4096

# the most events or waits one catalog may hold: 32 MiB of float64
MAX_EVENTS = 1 << 22


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _std_exponentials(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-mean exponentials via inverse CDF of raw uniforms."""
    return -np.log1p(-rng.random(n))


def _require_finite(**params: float) -> None:
    """Raise ``ValueError`` naming the first parameter that is NaN or
    infinite: the generators append chunks until the horizon is passed, so
    such a value would never stop them or would slip past their range
    checks."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def derive_seeds(seed: int, n: int) -> list[int]:
    """n child seeds spawned from ``seed`` via numpy's SeedSequence;
    deterministic in (seed, n), independent streams."""
    return [int(ss.generate_state(1, np.uint64)[0]) for ss in np.random.SeedSequence(seed).spawn(n)]


def _require_within_cap(count: float, what: str) -> None:
    """Raise ``ValueError`` when ``count``, the events or waits a generator
    would draw, is above ``MAX_EVENTS`` or not finite: such a catalog would
    not fit in memory, or would take all of it."""
    if not count <= MAX_EVENTS:
        raise ValueError(f"{what} of {count:.4g} exceeds the cap of {MAX_EVENTS}")


def gen_omori(
    *, p: float, amplitude: float, c: float, horizon: float, seed: int, round_to_minutes: bool = False
) -> EventSequence:
    """Inhomogeneous-Poisson catalog with rate amplitude * (t + c)**-p on
    [0, horizon], drawn by time-rescaling inversion.

    Parameter domains match the cumulative model: p > 0, amplitude > 0,
    c >= 0 with c > 0 required for p >= 1. Unlike the cumulative-model fit,
    p = 0 is accepted here: the rate is then the constant ``amplitude`` (a
    homogeneous Poisson catalog, handy as a null model). A catalog whose
    expected size, ``amplitude`` times the unit cumulative law at the
    horizon, is above ``MAX_EVENTS`` is refused.

    Unit-rate Poisson arrivals s_k are mapped through the inverse of the
    cumulative law: for p != 1, t = (s(1-p)/A + c**(1-p))**(1/(1-p)) - c;
    for p = 1, t = c(exp(s/A) - 1); truncated at the horizon. For p > 1
    the total intensity is finite and the stream simply runs dry.

    ``round_to_minutes`` floors times to the minute grid and collapses the
    resulting duplicates (collapsed count is logged); estimator tests keep
    it off so that discretization error stays out of the picture.
    """
    _require_finite(p=p, amplitude=amplitude, c=c, horizon=horizon)
    if p < 0 or amplitude <= 0 or c < 0:
        raise ValueError("require p >= 0, amplitude > 0, c >= 0")
    if c == 0 and p >= 1.0 - LOG_BRANCH_WINDOW:
        raise ValueError("c must be positive when p >= 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    q = 1.0 - p
    log_branch = abs(p - 1.0) < LOG_BRANCH_WINDOW
    with np.errstate(all="ignore"):
        # the unit cumulative law at the horizon, in a form that a tiny c
        # does not overflow the way omori's log1p(horizon / c) does
        if log_branch:
            unit = np.log(horizon + c) - np.log(c)
        else:
            unit = (np.float64(horizon + c) ** q - np.float64(c) ** q) / q
    _require_within_cap(amplitude * float(unit), "an expected event count")

    rng = _rng(seed)
    pieces: list[np.ndarray] = []
    s_last = 0.0
    while True:
        s = s_last + np.cumsum(_std_exponentials(rng, _CHUNK))
        s_last = float(s[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            if log_branch:
                t = c * np.expm1(s / amplitude)
            elif p < 1:
                t = (s * q / amplitude + c**q) ** (1.0 / q) - c
            else:
                base = c**q - s * (p - 1.0) / amplitude
                t = np.where(base > 0, np.maximum(base, 1e-300) ** (1.0 / q) - c, np.inf)
        done = t > horizon
        if done.any():
            pieces.append(t[: int(np.argmax(done))])
            break
        pieces.append(t)
    times = np.concatenate(pieces)

    if round_to_minutes:
        # times are sorted, so equal minutes are adjacent
        floored = np.floor(times)
        floored = floored[np.diff(floored, prepend=-np.inf) > 0]
        collapsed = len(times) - len(floored)
        if collapsed:
            log.info("minute rounding collapsed %d coincident events", collapsed)
        times = floored
    return EventSequence(times=times)


def gen_pareto_waits(*, mu: float, tau_min: float, count: int, seed: int) -> WaitingTimes:
    """``count`` seeded Pareto waiting times with survival (tau/tau_min)**-mu:
    tau = tau_min * (1 - U)**(-1/mu). A ``count`` above ``MAX_EVENTS`` is
    refused."""
    _require_finite(mu=mu, tau_min=tau_min)
    if mu <= 0 or tau_min <= 0:
        raise ValueError("require mu > 0 and tau_min > 0")
    if count < 0:
        raise ValueError("count must be nonnegative")
    _require_within_cap(count, "a count")
    u = _rng(seed).random(count)
    return WaitingTimes(taus=tau_min * (1.0 - u) ** (-1.0 / mu))


def gen_stationary(*, rate: float, horizon: float, seed: int) -> EventSequence:
    """Stationary Poisson catalog: exponential gaps of mean 1/rate,
    truncated at the horizon. It is :func:`gen_omori` at p = 0 and c = 0."""
    _require_finite(rate=rate, horizon=horizon)
    if rate <= 0:
        raise ValueError("rate must be positive")
    return gen_omori(p=0.0, amplitude=rate, c=0.0, horizon=horizon, seed=seed)
