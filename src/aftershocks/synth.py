"""Seeded synthetic point processes used as estimation oracles.

All generators draw only raw uniform doubles from a PCG64 stream and
apply explicit inverse-CDF transforms, so a given spec reproduces the
same catalog bit-for-bit run after run (and across platforms up to libm
differences in log/exp). The algorithm identifier below is recorded in
run reports alongside the seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .events import EventSequence, WaitingTimes
from .omori import LOG_BRANCH_WINDOW

log = logging.getLogger(__name__)

RNG_ALGORITHM = "pcg64:inverse-cdf"
_CHUNK = 4096


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


@dataclass(frozen=True)
class OmoriGenSpec:
    """Inhomogeneous-Poisson catalog with rate amplitude * (t + c)**-p.

    Parameter domains match the cumulative model: p > 0, amplitude > 0,
    c >= 0 with c > 0 required for p >= 1. ``round_to_minutes`` floors
    times to the minute grid and collapses the resulting duplicates
    (collapsed count is logged); estimator tests keep it off so that
    discretization error stays out of the picture.
    """

    p: float
    amplitude: float
    c: float
    horizon: float
    seed: int
    round_to_minutes: bool = False


@dataclass(frozen=True)
class ParetoGenSpec:
    """Pareto waiting times: tau = tau_min * (1 - U)**(-1/mu)."""

    mu: float
    tau_min: float
    count: int
    seed: int


def gen_omori(spec: OmoriGenSpec) -> EventSequence:
    """Draw an Omori-rate catalog by time-rescaling inversion.

    Unit-rate Poisson arrivals s_k are mapped through the inverse of the
    cumulative law: for p != 1, t = (s(1-p)/A + c**(1-p))**(1/(1-p)) - c;
    for p = 1, t = c(exp(s/A) - 1); truncated at the horizon. For p > 1
    the total intensity is finite and the stream simply runs dry.

    Unlike the cumulative-model fit, p = 0 is accepted here: the rate is
    then the constant ``amplitude`` (a homogeneous Poisson catalog, handy
    as a null model).
    """
    p, amp, c = spec.p, spec.amplitude, spec.c
    _require_finite(p=p, amplitude=amp, c=c, horizon=spec.horizon)
    if p < 0 or amp <= 0 or c < 0:
        raise ValueError("require p >= 0, amplitude > 0, c >= 0")
    if c == 0 and p >= 1.0 - LOG_BRANCH_WINDOW:
        raise ValueError("c must be positive when p >= 1")
    if spec.horizon <= 0:
        raise ValueError("horizon must be positive")

    rng = _rng(spec.seed)
    q = 1.0 - p
    log_branch = abs(p - 1.0) < LOG_BRANCH_WINDOW
    pieces: list[np.ndarray] = []
    s_last = 0.0
    while True:
        s = s_last + np.cumsum(_std_exponentials(rng, _CHUNK))
        s_last = float(s[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            if log_branch:
                t = c * np.expm1(s / amp)
            elif p < 1:
                t = (s * q / amp + c**q) ** (1.0 / q) - c
            else:
                base = c**q - s * (p - 1.0) / amp
                t = np.where(base > 0, np.maximum(base, 1e-300) ** (1.0 / q) - c, np.inf)
        done = t > spec.horizon
        if done.any():
            pieces.append(t[: int(np.argmax(done))])
            break
        pieces.append(t)
    times = np.concatenate(pieces)

    if spec.round_to_minutes:
        # times are sorted, so equal minutes are adjacent
        floored = np.floor(times)
        floored = floored[np.diff(floored, prepend=-np.inf) > 0]
        collapsed = len(times) - len(floored)
        if collapsed:
            log.info("minute rounding collapsed %d coincident events", collapsed)
        times = floored
    return EventSequence(times=times)


def gen_pareto_waits(spec: ParetoGenSpec) -> WaitingTimes:
    """Seeded Pareto waiting times with survival (tau/tau_min)**-mu."""
    _require_finite(mu=spec.mu, tau_min=spec.tau_min)
    if spec.mu <= 0 or spec.tau_min <= 0:
        raise ValueError("require mu > 0 and tau_min > 0")
    if spec.count < 0:
        raise ValueError("count must be nonnegative")
    u = _rng(spec.seed).random(spec.count)
    return WaitingTimes(taus=spec.tau_min * (1.0 - u) ** (-1.0 / spec.mu))


def gen_stationary(rate: float, horizon: float, seed: int) -> EventSequence:
    """Stationary Poisson catalog: exponential gaps of mean 1/rate,
    truncated at the horizon. It is :func:`gen_omori` at p = 0 and c = 0."""
    _require_finite(rate=rate, horizon=horizon)
    if rate <= 0:
        raise ValueError("rate must be positive")
    return gen_omori(OmoriGenSpec(p=0.0, amplitude=rate, c=0.0, horizon=horizon, seed=seed))
