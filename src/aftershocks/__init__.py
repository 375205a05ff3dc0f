"""Aftershock statistics for post-crash minute-bar price series.

Detects threshold-exceedance events in per-minute returns and
characterizes their statistics: Omori-Utsu cumulative decay, power-law
waiting times, event-event correlation with aging and scaling collapse,
and the Markovian scaling-relation check. Seeded synthetic generators
double as estimation oracles.

Each public name is imported from its submodule on first use (PEP 562),
so ``import aftershocks`` loads no fitting code until a caller needs it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "correlation": ("CollapseResult", "CorrelationCurve", "aging_curves", "collapse", "event_corr", "fit_f"),
    "diagnostics": ("MarkovCheck", "bootstrap_ci", "build_report", "markov_relation", "serialize_report"),
    "errors": ("DataError",),
    "events": (
        "EventSequence",
        "WaitingTimes",
        "detect_events",
        "read_events_csv",
        "waiting_times",
        "write_events_csv",
    ),
    "ingest": (
        "MinuteBars",
        "PriceSeries",
        "align_origin",
        "compact_gaps",
        "load_records",
        "window_length_for_days",
    ),
    "omori": ("OmoriFit", "cumulative_count", "fit_omori", "fit_omori_mle", "omori_model"),
    "stats": ("ReturnSeries", "WindowStats", "compute_returns", "window_stats"),
    "synth": ("RNG_ALGORITHM", "derive_seeds", "gen_omori", "gen_pareto_waits", "gen_stationary"),
    "waiting": ("WaitingFit", "WaitingHistogram", "build_histogram", "fit_mu", "fit_mu_mle"),
}

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCE.keys())
