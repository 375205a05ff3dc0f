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
    infinite: such a value would slip past the generators' range and size
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

    Unit-rate Poisson arrivals s_k, drawn until one passes the expected
    count (which the cap bounds), are mapped through the inverse of the
    cumulative law: for p != 1, t = (s(1-p)/A + c**(1-p))**(1/(1-p)) - c; for
    p = 1, t = c(exp(s/A) - 1), or exp(log(c) + s/A) - c where c(exp(s/A) - 1)
    overflows. The catalog ends at the first t not within the horizon, an
    overflow or a rounding NaN included; a c so large that the expected
    count rounds to 0 gives an empty catalog.

    ``round_to_minutes`` floors times to the minute grid and collapses the
    resulting duplicates (collapsed count is logged); estimator tests keep
    it off so that discretization error stays out of the picture. Without
    it, times that coincide in float64 (p near 1 with c = 0) raise
    ``ValueError``.
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
    expected = amplitude * float(unit)
    _require_within_cap(expected, "an expected event count")

    rng = _rng(seed)
    chunks = [np.cumsum(_std_exponentials(rng, _CHUNK))]
    while chunks[-1][-1] <= expected:
        chunks.append(chunks[-1][-1] + np.cumsum(_std_exponentials(rng, _CHUNK)))
    s = np.concatenate(chunks)
    s = s[s <= expected]
    with np.errstate(over="ignore", invalid="ignore"):
        if log_branch:
            t = c * np.expm1(s / amplitude)
            # expm1 overflows past s / A = 709.8, where a subnormal c still
            # keeps t finite; the times that did not overflow keep their bits
            over = np.isinf(t)
            t[over] = np.exp(math.log(c) + s[over] / amplitude) - c
        else:
            t = (s * q / amplitude + c**q) ** (1.0 / q) - c
    past = ~(t <= horizon)  # a rounding NaN counts as past the horizon
    times = t[: int(np.argmax(past))] if past.any() else t

    if round_to_minutes:
        # times are sorted, so equal minutes are adjacent
        floored = np.floor(times)
        floored = floored[np.diff(floored, prepend=-np.inf) > 0]
        collapsed = len(times) - len(floored)
        if collapsed:
            log.info("minute rounding collapsed %d coincident events", collapsed)
        times = floored
    elif np.any(np.diff(times) <= 0):
        raise ValueError("drawn event times coincide in float64; use c > 0 or minute rounding (--round-minutes)")
    return EventSequence(times=times)


def gen_pareto_waits(*, mu: float, tau_min: float, count: int, seed: int) -> WaitingTimes:
    """``count`` seeded Pareto waiting times with survival (tau/tau_min)**-mu:
    tau = tau_min * (1 - U)**(-1/mu). A ``count`` above ``MAX_EVENTS``, or a
    draw that overflows float64, is refused."""
    _require_finite(mu=mu, tau_min=tau_min)
    if mu <= 0 or tau_min <= 0:
        raise ValueError("require mu > 0 and tau_min > 0")
    if count < 0:
        raise ValueError("count must be nonnegative")
    _require_within_cap(count, "a count")
    with np.errstate(over="ignore"):
        taus = tau_min * (1.0 - _rng(seed).random(count)) ** (-1.0 / mu)
    if np.isinf(taus).any():
        raise ValueError(f"a wait overflows float64: mu = {mu:g} is too small for {count} draws")
    return WaitingTimes(taus=taus)


def gen_stationary(*, rate: float, horizon: float, seed: int) -> EventSequence:
    """Stationary Poisson catalog: exponential gaps of mean 1/rate,
    truncated at the horizon. It is :func:`gen_omori` at p = 0 and c = 0."""
    _require_finite(rate=rate, horizon=horizon)
    if rate <= 0:
        raise ValueError("rate must be positive")
    return gen_omori(p=0.0, amplitude=rate, c=0.0, horizon=horizon, seed=seed)
