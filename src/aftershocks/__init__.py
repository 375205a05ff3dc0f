"""Aftershock statistics for post-crash minute-bar price series.

Detects threshold-exceedance events in per-minute returns and
characterizes their statistics: Omori-Utsu cumulative decay, power-law
waiting times, event-event correlation with aging and scaling collapse,
and the Markovian scaling-relation check. Seeded synthetic generators
double as estimation oracles.
"""

from .correlation import (
    CollapseResult,
    CorrelationCurve,
    aging_curves,
    collapse,
    event_corr,
    fit_f,
)
from .diagnostics import (
    MarkovCheck,
    bootstrap_ci,
    build_report,
    markov_relation,
    serialize_report,
)
from .errors import DataError
from .events import (
    EventSequence,
    WaitingTimes,
    detect_events,
    read_events_csv,
    waiting_times,
    write_events_csv,
)
from .ingest import (
    ColumnMap,
    MinuteBars,
    PriceSeries,
    align_origin,
    compact_gaps,
    load_records,
    window_length_for_days,
)
from .omori import OmoriFit, cumulative_count, fit_omori, fit_omori_mle, omori_model
from .stats import ReturnSeries, WindowStats, compute_returns, window_stats
from .synth import (
    RNG_ALGORITHM,
    OmoriGenSpec,
    ParetoGenSpec,
    derive_seeds,
    gen_omori,
    gen_pareto_waits,
    gen_stationary,
)
from .waiting import WaitingFit, WaitingHistogram, build_histogram, fit_mu

__version__ = "0.1.0"

__all__ = [
    "CollapseResult",
    "ColumnMap",
    "CorrelationCurve",
    "DataError",
    "EventSequence",
    "MarkovCheck",
    "MinuteBars",
    "OmoriFit",
    "OmoriGenSpec",
    "ParetoGenSpec",
    "PriceSeries",
    "ReturnSeries",
    "RNG_ALGORITHM",
    "WaitingFit",
    "WaitingHistogram",
    "WaitingTimes",
    "WindowStats",
    "aging_curves",
    "align_origin",
    "bootstrap_ci",
    "build_histogram",
    "build_report",
    "collapse",
    "compact_gaps",
    "compute_returns",
    "cumulative_count",
    "derive_seeds",
    "detect_events",
    "event_corr",
    "fit_f",
    "fit_mu",
    "fit_omori",
    "fit_omori_mle",
    "gen_omori",
    "gen_pareto_waits",
    "gen_stationary",
    "load_records",
    "markov_relation",
    "omori_model",
    "read_events_csv",
    "serialize_report",
    "waiting_times",
    "window_length_for_days",
    "window_stats",
    "write_events_csv",
]
