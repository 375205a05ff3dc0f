"""Markovianity scaling-relation check, bootstrap intervals, report assembly."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import DataError
from .events import EventSequence, waiting_times
from .omori import OmoriFit, fit_omori
from .synth import derive_seeds, _rng
# build_histogram is not called here, but perfbench/tracer.py wraps this
# module's binding of it
from .waiting import build_histogram, fit_mu, histogram_sampler

SCHEMA_VERSION = "1"

VERDICT_SATISFIED = "satisfied"
VERDICT_VIOLATED = "violated"
VERDICT_NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class MarkovCheck:
    """Result of the p + mu = 1 scaling-relation check.

    The relation holds for (singular) Markovian processes only when both
    exponents lie strictly inside (0, 1); outside that region the check is
    not applicable. With an interval for the sum, the verdict is
    "violated" exactly when 1 falls outside it. ``ci_source`` says where
    the interval came from: "bootstrap", or "point" for the zero-width
    interval at the point estimate used when there is none.
    """

    p: float
    mu: float
    sum: float
    ci: tuple[float, float]
    applicable: bool
    verdict: str
    ci_source: str = "point"


def markov_relation(p: float, mu: float, ci: tuple[float, float] | None) -> MarkovCheck:
    """Evaluate the scaling relation p + mu = 1 for the two fitted
    exponents; ``ci`` is a bootstrap interval for the sum (a zero-width
    interval at the point estimate is used when None, and ``ci_source``
    says which)."""
    total = p + mu
    interval = (total, total) if ci is None else (float(ci[0]), float(ci[1]))
    applicable = 0.0 < p < 1.0 and 0.0 < mu < 1.0
    if not applicable:
        verdict = VERDICT_NOT_APPLICABLE
    elif interval[0] <= 1.0 <= interval[1]:
        verdict = VERDICT_SATISFIED
    else:
        verdict = VERDICT_VIOLATED
    return MarkovCheck(
        p=p, mu=mu, sum=total, ci=interval, applicable=applicable, verdict=verdict,
        ci_source="point" if ci is None else "bootstrap",
    )


def bootstrap_ci(
    events: EventSequence,
    resamples: int = 200,
    seed: int = 0,
    *,
    horizon: float,
    grid_step: float,
    c_search: bool,
    bin_size: float,
    fit_range: tuple[float | None, float | None],
) -> tuple[float, float]:
    """Percentile (2.5%, 97.5%) bootstrap interval for p + mu, the sum the
    Markov check reads: the least-squares Omori p (:func:`fit_omori` with
    ``horizon``, ``grid_step`` and ``c_search``) plus the least-squares
    histogram mu (:func:`fit_mu` on ``bin_size`` bins over ``fit_range``).

    Waiting times are resampled with replacement. Each original wait is
    binned once (:func:`histogram_sampler`), and a resample's histogram is
    the bin count of its draws, so every resample fits mu first. Only a
    resample whose mu fit succeeded rebuilds its event sequence: from the
    original first event, the resampled waits laid out in the rank order
    of the originals (shortest resampled wait where the shortest original
    sat, and so on), so the Omori refit sees the catalog's nonstationary
    profile instead of a shuffled, flattened one. Those refits are one
    :func:`fit_omori` call on the list of them, so they share the coarse
    scan of the bootstrap's fitting grid. A resample on which either fit
    fails, or whose rebuilt sequence fails validation, counts as one
    failure, and more than 10% failures raise :class:`DataError`.

    Each resample draws from its own spawned seed, so the interval is
    deterministic in (events, seed) and independent of evaluation order.
    """
    if resamples < 100:
        raise ValueError("resamples must be >= 100")
    taus = waiting_times(events).taus
    if len(taus) < 2:
        raise DataError("need at least 3 events to bootstrap")
    t0 = float(events.times[0])
    rank_of = np.argsort(np.argsort(taus))
    histogram = histogram_sampler(taus, bin_size)

    # mu first: its fit is cheap and is the one that fails on minute data,
    # so a resample it loses never pays for the Omori refit. Each estimate
    # is 0.0 + mu + p, summed in that order.
    partial = []
    survivors = []
    failures = 0
    for child in derive_seeds(seed, resamples):
        rng = _rng(child)
        idx = np.floor(rng.random(len(taus)) * len(taus)).astype(int)
        try:
            mu = fit_mu(histogram(idx), fit_range=fit_range).mu
            arranged = np.sort(taus[idx])[rank_of]
            resampled = EventSequence(times=t0 + np.concatenate([[0.0], np.cumsum(arranged)]))
        except (DataError, ValueError):
            failures += 1
            continue
        partial.append(0.0 + mu)
        survivors.append(resampled)
    estimates = []
    if survivors:
        fits = fit_omori(survivors, horizon=horizon, grid_step=grid_step, c_search=c_search)
        estimates = [value + fit.p for value, fit in zip(partial, fits) if isinstance(fit, OmoriFit)]
        failures += len(survivors) - len(estimates)
    if failures > 0.1 * resamples:
        raise DataError(f"estimator failed on {failures}/{resamples} resamples")
    lo, hi = np.percentile(estimates, [2.5, 97.5])
    return (float(lo), float(hi))


def to_jsonable(obj: Any) -> Any:
    """Normalize to plain JSON types so serialize/parse round-trips give
    back the identical structure (keys become strings, tuples lists,
    non-finite floats None)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, datetime):
        return obj.isoformat(sep=" ")
    if isinstance(obj, Path):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # a field marked omit_none is optional: absent from the report when None
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not (f.metadata.get("omit_none") and getattr(obj, f.name) is None)
        }
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot normalize {type(obj).__name__} for the report")


def build_report(
    *,
    config: Mapping[str, Any] | None = None,
    sigma: Any = None,
    thresholds: list | None = None,
    synthetic: Mapping[str, Any] | None = None,
    correlation: Mapping[str, Any] | None = None,
    rng: Mapping[str, Any] | None = None,
    notes: list[str] | None = None,
) -> dict:
    """Assemble the analysis report as a JSON-ready dict.

    Sections that are None or empty are omitted; the schema version is
    always present. Every value is normalized via :func:`to_jsonable`, so
    ``json.loads(serialize_report(r)) == r`` holds for the result. The
    ``artifacts`` manifest is left to the writer of the output tree.
    """
    report: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
    sections = [
        ("config", config),
        ("sigma", sigma),
        ("thresholds", thresholds),
        ("synthetic", synthetic),
        ("correlation", correlation),
        ("rng", rng),
        ("notes", notes),
    ]
    for key, value in sections:
        if value is None:
            continue
        if isinstance(value, (list, tuple, dict)) and not value:
            continue
        report[key] = to_jsonable(value)
    return report


def serialize_report(report: Mapping[str, Any]) -> str:
    """Deterministic JSON rendering: sorted keys, two-space indent,
    trailing newline."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
