"""Command-line driver wiring ingestion through report generation.

Sub-commands: ingest (validate + compact), analyze (full pipeline),
simulate (seeded generators), collapse (correlation study on an event
CSV), report (re-render plots from a run directory). Configuration comes
from flags or a ``key = value`` config file, flags winning; the default
output directory honors $AFTERSHOCKS_OUTDIR.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error;
statistical verdicts never affect the exit status. All emitted files are
deterministic functions of the configuration and seeds. The section
builders only record their tables; :func:`_write_report` writes the whole
tree once every stage has passed, so the report manifest is exactly the
files the run wrote and a failed run writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field, fields
from datetime import datetime
from pathlib import Path

from .errors import DataError, open_text
from .ingest import (
    PriceSeries,
    align_origin,
    compact_gaps,
    load_records,
    window_length_for_days,
    write_series_csv,
)


def _import_analysis() -> None:
    """Bind the analysis layers' names into this module's globals.

    ``ingest`` fits nothing and runs on the standard library, so these
    imports, numpy among them, wait for the sub-commands that do. A name
    that is already bound is left as it is: a caller may have replaced it
    (a wrapper set from outside before :func:`main` runs).
    """
    import numpy as np

    from . import correlation as corr
    from .diagnostics import bootstrap_ci, build_report, markov_relation, serialize_report
    from .events import EventSequence, detect_events, read_csv, read_events_csv, waiting_times, write_csv, write_events_csv
    from .omori import MIN_EVENTS, P_SEARCH_RANGE, OmoriFit, cumulative_count, fit_omori, fit_omori_mle, omori_model
    from .stats import WindowStats, compute_returns, window_stats
    from .svgplot import line_chart
    from .synth import RNG_ALGORITHM, derive_seeds, gen_omori, gen_pareto_waits, gen_stationary
    from .waiting import HISTOGRAM_CSV_COLUMNS, build_histogram, fit_mu, fit_mu_mle, write_histogram_csv

    # a copy: a trace function (coverage, pdb) refreshes locals() during the loop
    imported = dict(locals())
    for name, value in imported.items():
        globals().setdefault(name, value)


def __getattr__(name: str):
    # ``cli.fit_omori`` from outside resolves before any sub-command has run.
    # Dunder probes import nothing: ``from aftershocks.cli import main`` asks
    # for ``__path__``.
    if not name.startswith("__"):
        _import_analysis()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

ENV_OUTDIR = "AFTERSHOCKS_OUTDIR"

_METHOD_NOTES = [
    "window statistics divide by the sample count (population form), not the nominal window length",
    "minute 0 counts as an event when its absolute return exceeds the threshold",
    "waiting-time exponent: least squares on the histogram is the headline estimate; the continuous MLE is reported alongside",
]


class _UsageError(Exception):
    """Bad or missing configuration detected after flag parsing."""


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_crash(text: str) -> datetime:
    try:
        crash = datetime.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad crash instant {text!r}: {exc}") from None
    # input timestamps carry no zone, so an instant with one matches none of them
    if crash.tzinfo is not None:
        raise argparse.ArgumentTypeError(
            f"bad crash instant {text!r}: give naive wall-clock time, without a UTC offset"
        )
    return crash


def _parse_fit_range(text: str) -> tuple[float | None, float | None]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("fit range must be 'lo,hi' (blank side = open)")
    lo = float(parts[0]) if parts[0].strip() else None
    hi = float(parts[1]) if parts[1].strip() else None
    # the waiting-time MLE takes log(tau / lo)
    if lo is not None and not (math.isfinite(lo) and lo > 0):
        raise argparse.ArgumentTypeError(f"{text!r}: lower end must be finite and positive")
    # an empty range leaves every waiting fit without data; NaN compares false
    if hi is not None and not hi > (lo or 0.0):
        raise argparse.ArgumentTypeError(f"{text!r}: upper end must be positive and above the lower end")
    return (lo, hi)


def _bounded(parse, strict: bool):
    """``parse``, then a check that the number (every number of a tuple, which
    must not be empty) is finite and positive (``strict``) or nonnegative."""
    bound = "positive" if strict else "nonnegative"

    def checked(text: str):
        value = parse(text)
        if value == ():
            raise argparse.ArgumentTypeError(f"{text!r}: must list at least one value")
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise argparse.ArgumentTypeError(f"{text!r}: must be finite")
            if not (v > 0 if strict else v >= 0):
                raise argparse.ArgumentTypeError(f"{text!r}: must be {bound}")
        return value

    return checked


_positive = functools.partial(_bounded, strict=True)
_nonnegative = functools.partial(_bounded, strict=False)


def _parse_resamples(text: str) -> int:
    count = _nonnegative(int)(text)
    if 0 < count < 100:
        raise argparse.ArgumentTypeError(f"{text!r}: must be 0 (no bootstrap) or at least 100")
    return count


def _parse_n_max(text: str) -> int:
    # the collapse needs a reference curve of 3 points, n = 0..n_max
    n_max = _positive(int)(text)
    if n_max < 2:
        raise argparse.ArgumentTypeError(f"{text!r}: must be at least 2")
    return n_max


def _parse_char(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"{text!r}: must be one character")
    return text


def _parse_path(text: str) -> Path:
    # open() and mkdir() raise ValueError on one; only a config file can carry it
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"{text!r}: a path cannot hold a NUL byte")
    return Path(text)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"bad boolean {text!r}")


# The runs that read a setting, and so take its flag: each sub-command but
# simulate, and each simulate --kind. A pareto run only fits the waiting times.
_KINDS = ("omori", "pareto", "stationary")
_INPUT = ("ingest", "analyze")
_FIT = ("analyze", "omori", "stationary")
_CORRELATION = (*_FIT, "collapse")
_SAMPLE = ("analyze", *_KINDS)
_CHART = (*_SAMPLE, "collapse")
_EVERY = ("ingest", *_CHART)


def _setting(default, parse, commands: tuple[str, ...], help: str, flag: str | None = None):
    """A settable field: ``parse`` reads its flag, ``flag`` or by default
    ``--field-name`` (``bool``: a switch), and a :class:`RunConfig` field's
    config-file value. The runs in ``commands`` take the flag, with ``help``."""
    return field(default=default, metadata=dict(parse=parse, commands=commands, help=help, flag=flag, omit_none=True))


def _flag(f) -> str:
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


@dataclass(frozen=True)
class SimulateSpec:
    """Generator selection for simulate-mode runs: ``kind`` names the
    generator (``--kind``), and every other field is a keyword parameter of
    the generators of the kinds its ``commands`` lists."""

    kind: str
    p: float = _setting(0.5, float, ("omori",), "decay exponent (omori)")
    amplitude: float = _setting(5.0, float, ("omori",), "rate amplitude (omori)")
    c: float = _setting(0.0, float, ("omori",), "time offset, minutes (omori)")
    horizon: float = _setting(
        10000.0, float, ("omori", "stationary"), "generation horizon, minutes (default 10000)", "--sim-horizon"
    )
    mu: float = _setting(0.95, float, ("pareto",), "waiting exponent (pareto)")
    tau_min: float = _setting(1.0, float, ("pareto",), "smallest waiting time (pareto)")
    count: int = _setting(10000, int, ("pareto",), "number of waits (pareto)")
    rate: float = _setting(1.0, float, ("stationary",), "events per minute (stationary)")
    round_to_minutes: bool = _setting(False, bool, ("omori",), "floor event times to the minute grid", "--round-minutes")


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run depends on; defaults reproduce the
    standard post-crash study configuration.

    Every field but ``simulate`` is a setting: the config-file key and the
    ``--field-name`` flag are generated from its declaration. Bool settings
    are ``--x``/``--no-x`` flags.
    """

    input: Path | None = _setting(None, _parse_path, _INPUT, "delimiter-separated minute-bar file")
    delimiter: str = _setting(",", _parse_char, _INPUT, "field delimiter, one character (default ',')")
    date_column: str = _setting("DATE", str, _INPUT, "date column name (default DATE)")
    time_column: str = _setting("TIME", str, _INPUT, "time column name (default TIME)")
    price_column: str = _setting("CLOSE", str, _INPUT, "price column name (default CLOSE)")
    date_format: str = _setting("%Y%m%d", str, _INPUT, "strptime date format (default %%Y%%m%%d)")
    time_format: str = _setting("%H%M%S", str, _INPUT, "strptime time format (default %%H%%M%%S)")
    crash: datetime | None = _setting(
        None, _parse_crash, _INPUT, "crash instant, ISO format (e.g. '2014-12-15 20:17')"
    )
    window_days: int = _setting(100, _positive(int), ("analyze",), "exchange days after the crash (default 100)")
    window_minutes: int | None = _setting(None, _positive(int), ("analyze",), "window length override, exchange minutes")
    thresholds: tuple[float, ...] = _setting(
        (2.0, 3.0), _positive(_parse_floats), ("analyze",), "sigma multiples, comma separated (default 2,3)"
    )
    grid_step: float = _setting(1.0, _positive(float), _FIT, "Omori fitting grid step, minutes (default 1)")
    horizon: float | None = _setting(None, _positive(float), _FIT, "Omori fitting horizon, minutes (default: window end)")
    c_search: bool = _setting(False, _parse_bool, _FIT, "search the Omori time offset c (default: pinned to 0)")
    bin_size: float = _setting(1.0, _positive(float), _SAMPLE, "waiting histogram bin, minutes (default 1)")
    fit_range: tuple[float | None, float | None] = _setting(
        (None, None), _parse_fit_range, _SAMPLE, "waiting fit range 'lo,hi'"
    )
    n_w: tuple[int, ...] = _setting(
        (0, 10, 20, 30, 40, 50), _nonnegative(_parse_ints), _CORRELATION, "waiting event times (default 0,10,20,30,40,50)"
    )
    n_max: int = _setting(60, _parse_n_max, _CORRELATION, "event-time extent of correlation curves (default 60)")
    reference: int = _setting(0, _nonnegative(int), _CORRELATION, "reference n_w for the collapse (default 0)")
    resamples: int = _setting(200, _parse_resamples, _FIT, "bootstrap resamples, 0 disables (default 200)")
    outdir: Path = _setting(
        Path("aftershocks-out"), _parse_path, _EVERY, f"output directory (default ${ENV_OUTDIR} or ./aftershocks-out)"
    )
    seed: int = _setting(0, _nonnegative(int), _SAMPLE, "master seed for generators and bootstrap")
    svg: bool = _setting(False, _parse_bool, _CHART, "also render SVG charts")
    simulate: SimulateSpec | None = field(default=None, metadata={"omit_none": True})


@contextmanager
def _stage(name: str):
    """Wrap module errors so failures name the pipeline stage."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"stage '{name}': {exc}") from exc


def _load_series(config: RunConfig) -> PriceSeries:
    """The configured input file as a compacted series, aligned to the
    crash instant when one is set."""
    records = load_records(
        config.input,
        date_column=config.date_column,
        time_column=config.time_column,
        price_column=config.price_column,
        delimiter=config.delimiter,
        date_format=config.date_format,
        time_format=config.time_format,
    )
    series = compact_gaps(records)
    return series if config.crash is None else align_origin(series, config.crash)


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(config: RunConfig) -> dict:
    """Run the configured analysis end to end and write the output tree.

    Returns the report dict, which is also serialized to
    ``<outdir>/report.json``. Identical configs and seeds produce
    byte-identical trees.
    """
    _import_analysis()
    tables: dict = {}  # file name -> a call that writes that table to the path it is given
    notes: list[str] = list(_METHOD_NOTES)
    run = _run_analysis if config.simulate is None else _run_synthetic
    sections = run(config, tables, notes)
    report = build_report(
        config=config,
        rng={"algorithm": RNG_ALGORITHM, "seed": config.seed},
        notes=notes,
        **sections,
    )
    _write_report(report, Path(config.outdir), config.svg, tables)
    return report


def _fit_omori(catalogs: list[EventSequence], config: RunConfig, horizon: float) -> list:
    """The list-form :func:`fit_omori` of ``catalogs`` on the configured grid."""
    try:
        return fit_omori(catalogs, grid_step=config.grid_step, horizon=horizon, c_search=config.c_search)
    except ValueError as exc:
        # the grid comes from the command line; fit_omori refuses one too large to hold
        raise _UsageError(f"--horizon {horizon:g} / --grid-step {config.grid_step:g}: {exc}") from None


def _run_analysis(config: RunConfig, tables: dict, notes: list[str]) -> dict:
    if config.input is None:
        raise _UsageError("analyze requires an input file")
    if config.crash is None:
        raise _UsageError("analyze requires a crash instant")

    # the price and return series die with _detect_catalogs' frame, before the first fit
    sw, horizon, catalogs = _detect_catalogs(config, notes)
    fits = _fit_omori(catalogs, config, horizon)
    boot_seeds = derive_seeds(config.seed, len(config.thresholds))
    threshold_sections = []
    for multiple, ev, fit, boot_seed in zip(config.thresholds, catalogs, fits, boot_seeds):
        label = _threshold_label(multiple)
        section = _analyze_catalog(ev, fit, config, label, horizon, tables, notes, boot_seed)
        section["multiple"] = multiple
        section["r_th"] = multiple * sw.sigma
        threshold_sections.append(section)
    return {"sigma": sw, "thresholds": threshold_sections}


def _detect_catalogs(config: RunConfig, notes: list[str]) -> tuple[WindowStats, float, list[EventSequence]]:
    """The ingest, returns, sigma and event stages of ``analyze``: the window
    statistics, the fit horizon and one event catalog per threshold."""
    with _stage("ingest"):
        series = _load_series(config)
    if series.origin_wall_clock != config.crash:
        notes.append(
            f"crash instant {config.crash.isoformat(sep=' ')} fell in a no-trading gap; "
            f"origin snapped to {series.origin_wall_clock.isoformat(sep=' ')}"
        )

    with _stage("returns"):
        returns = compute_returns(series)

    with _stage("sigma"):
        if config.window_minutes is not None:
            window = int(config.window_minutes)
        else:
            window = window_length_for_days(series, config.window_days)
        t_end = int(returns.t[-1])
        if t_end < 0:
            raise DataError("no returns after the crash: the crash minute is the last record")
        if window > t_end:
            notes.append(f"analysis window clipped to the data end (t = {t_end})")
            window = t_end
        sw = window_stats(returns, 0, window)
        if sw.sigma == 0:
            raise DataError(
                f"zero sigma in the window [0, {window}]: its {sw.n_samples} return(s) are equal"
            )

    horizon = float(config.horizon) if config.horizon is not None else float(window)
    catalogs = []
    for multiple in config.thresholds:
        with _stage(f"events {_threshold_label(multiple)}"):
            catalogs.append(detect_events(returns, multiple * sw.sigma, window=(0, window)))
    return sw, horizon, catalogs


def _threshold_label(multiple: float) -> str:
    return f"thr{multiple:g}sigma"


def _run_synthetic(config: RunConfig, tables: dict, notes: list[str]) -> dict:
    spec = config.simulate
    assert spec is not None
    generate = dict(zip(_KINDS, (gen_omori, gen_pareto_waits, gen_stationary)))[spec.kind]
    params = {f.name: getattr(spec, f.name) for f in fields(spec)[1:] if spec.kind in f.metadata["commands"]}
    try:
        with _stage("simulate"):
            sample = generate(**params, seed=config.seed)
    except ValueError as exc:
        # a generator's parameter check: the parameters came from the command line
        raise _UsageError(f"simulate {spec.kind}: {exc}") from None
    synthetic = {"kind": spec.kind, "seed": config.seed, "params": params}

    if spec.kind == "pareto":
        synthetic["tau_count"] = len(sample)
        section = {"label": "catalog", "waiting": _waiting_section(sample, config, "catalog", tables)}
    else:
        synthetic["event_count"] = len(sample)
        horizon = float(config.horizon if config.horizon is not None else spec.horizon)
        boot_seed = derive_seeds(config.seed, 1)[0]
        (fit,) = _fit_omori([sample], config, horizon)
        section = _analyze_catalog(sample, fit, config, "catalog", horizon, tables, notes, boot_seed)
    return {"thresholds": [section], "synthetic": synthetic}


def _analyze_catalog(
    ev: EventSequence,
    fit: OmoriFit | Exception,
    config: RunConfig,
    label: str,
    horizon: float,
    tables: dict,
    notes: list[str],
    boot_seed: int,
) -> dict:
    """Omori fit, waiting-time fits, Markov check and correlation study for
    one event catalog; records that catalog's tables in ``tables``. ``fit`` is the
    catalog's entry from the list form of :func:`fit_omori`; an error there
    other than too few events is raised in this catalog's Omori stage."""
    section: dict = {"label": label, "event_count": len(ev)}

    def note(text: str) -> None:
        notes.append(f"{label}: {text}")

    events_csv = section["events_csv"] = f"events_{label}.csv"
    tables[events_csv] = functools.partial(write_events_csv, ev)

    omori_fit = None
    if len(ev) >= MIN_EVENTS:
        if isinstance(fit, Exception):
            with _stage(f"omori {label}"):
                raise fit
        omori_fit = section["omori"] = fit
        try:
            section["omori_mle"] = fit_omori_mle(ev, horizon=horizon, c_search=config.c_search)
        except DataError as exc:
            note(f"rate-MLE cross-check unavailable ({exc})")
        lo, hi = P_SEARCH_RANGE
        for key in ("omori", "omori_mle"):
            p = section[key].p if key in section else None
            # the refinements stay strictly inside the range: an end is a coarse-scan cell
            if p is not None and not lo < p < hi:
                end = "lower" if p <= lo else "upper"
                note(f"{key} p = {p:g} is the {end} end of the searched p range [{lo:g}, {hi:g}]; "
                     "the best-fitting p may lie beyond it")
        curve_csv = section["omori_csv"] = f"omori_{label}.csv"
        tables[curve_csv] = functools.partial(_write_omori_curve_csv, ev, omori_fit, horizon)
    else:
        note(f"too few events ({len(ev)}) for an Omori fit")

    waits = waiting_times(ev)
    wsec = _waiting_section(waits, config, label, tables) if len(waits) else None
    if wsec is not None:
        section["waiting"] = wsec
    elif len(ev):
        note("no waiting times to histogram")

    lsq_fit = wsec.get("lsq") if wsec else None
    if omori_fit is not None and lsq_fit is not None:
        ci = None
        if config.resamples:
            try:
                with _stage(f"bootstrap {label}"):
                    ci = bootstrap_ci(
                        ev,
                        config.resamples,
                        boot_seed,
                        horizon=horizon,
                        grid_step=max(config.grid_step, horizon / 512.0),
                        c_search=config.c_search,
                        bin_size=config.bin_size,
                        fit_range=config.fit_range,
                    )
            except DataError as exc:
                note(f"bootstrap failed ({exc}); Markov verdict uses the point estimate")
        else:
            note("bootstrap disabled; Markov verdict uses the point estimate")
        section["markov"] = markov_relation(omori_fit.p, lsq_fit.mu, ci)

    min_events = config.n_max + max(config.n_w) + 2
    if len(ev) >= min_events:
        with _stage(f"correlation {label}"):
            section["correlation"] = _correlation_section(ev, config, label, tables, note)
    else:
        note(f"{len(ev)} events < {min_events} needed for the correlation study; skipped")
    return section


def _correlation_section(ev: EventSequence, config: RunConfig, label: str, tables: dict, note) -> dict:
    """Aging curves of one catalog and their collapse; records the catalog's
    three correlation CSVs in ``tables``. ``note`` records why the
    scale-factor law is missing when it cannot be fitted."""
    curves = corr.aging_curves(ev, config.n_w, config.n_max)
    result = corr.collapse(curves, reference_n_w=config.reference)
    section: dict = {
        "n_w": list(config.n_w),
        "n_max": config.n_max,
        "reference": config.reference,
        "scale_factors": result.scale_factors,
        "collapse_residual": result.collapse_residual,
        "curves_csv": f"corr_{label}.csv",
        "collapsed_csv": f"collapsed_{label}.csv",
        "scale_factors_csv": f"scale_factors_{label}.csv",
    }
    try:
        section["a"], section["gamma"] = corr.fit_f(result.scale_factors)
    except DataError as exc:
        note(f"scale-factor law not fitted ({exc})")
    tables[section["curves_csv"]] = functools.partial(corr.write_curves_csv, curves)
    tables[section["collapsed_csv"]] = functools.partial(corr.write_collapsed_csv, curves, result.scale_factors)
    tables[section["scale_factors_csv"]] = functools.partial(corr.write_scale_factors_csv, result.scale_factors)
    return section


def _waiting_section(waits, config: RunConfig, label: str, tables: dict) -> dict:
    hist = build_histogram(waits, config.bin_size)
    hist_csv = f"waiting_{label}.csv"
    tables[hist_csv] = functools.partial(write_histogram_csv, hist)
    wsec: dict = {"bin_size": config.bin_size, "histogram_csv": hist_csv, "n_taus": len(waits)}
    try:
        wsec["lsq"] = fit_mu(hist, fit_range=config.fit_range)
    except DataError as exc:
        wsec["lsq_error"] = str(exc)
    try:
        wsec["mle"] = fit_mu_mle(waits, fit_range=config.fit_range)
    except DataError as exc:
        wsec["mle_error"] = str(exc)
    return wsec


OMORI_CSV_COLUMNS = ("t", "n_empirical", "n_model")


def _write_omori_curve_csv(ev: EventSequence, fit, horizon: float, path: Path) -> None:
    grid = np.linspace(0.0, horizon, 257)
    empirical = cumulative_count(ev, grid)
    model = omori_model(grid, fit.p, fit.amplitude, fit.c)
    write_csv(path, OMORI_CSV_COLUMNS, zip(grid, empirical, model))


# ---------------------------------------------------------------------------
# SVG rendering (reads the CSV intermediates, so `report` can re-render)


def _plain_name(name: str) -> str:
    """``name`` when it is a plain file name, one that stays in the run
    directory; otherwise ``ValueError`` (``TypeError`` when not a string)."""
    if Path(name).name != name or name in ("", ".", ".."):
        raise ValueError(f"{name!r} is not a plain file name")
    return name


def render_svgs(sections: list[dict], outdir: Path) -> list[str]:
    """Render the standard charts of report threshold sections from a run's
    CSV artifacts; returns the SVG file names written. Every label and table
    name must be a plain file name, and is checked before anything is written."""
    _import_analysis()

    def table(name: str, columns: tuple[str, ...]) -> list[list[float]]:
        return read_csv(outdir / _plain_name(name), columns)

    charts: dict[str, str] = {}
    for section in sections:
        label = _plain_name(section["label"])
        if "omori_csv" in section:
            rows = table(section["omori_csv"], OMORI_CSV_COLUMNS)
            t = [r[0] for r in rows]
            chart = line_chart(
                [("empirical", t, [r[1] for r in rows]), ("model", t, [r[2] for r in rows])],
                title=f"cumulative aftershocks ({label})",
                xlabel="t [min]",
                ylabel="N(t)",
            )
            charts[f"omori_{label}.svg"] = chart
        waiting = section.get("waiting")
        if waiting and "histogram_csv" in waiting:
            rows = table(waiting["histogram_csv"], HISTOGRAM_CSV_COLUMNS)
            taus = [r[0] for r in rows]
            series = [("counts", taus, [r[1] for r in rows])]
            lsq = waiting.get("lsq")
            if lsq and lsq.get("amplitude"):
                pos = [tv for tv in taus if tv > 0]
                series.append(
                    ("fit", pos, [lsq["amplitude"] * tv ** -(1.0 + lsq["mu"]) for tv in pos])
                )
            chart = line_chart(
                series,
                title=f"waiting-time histogram ({label})",
                xlabel="tau [min]",
                ylabel="count",
                logx=True,
                logy=True,
                markers=True,
            )
            charts[f"waiting_{label}.svg"] = chart
        csection = section.get("correlation")
        if csection:
            chart = line_chart(
                _group_curves(table(csection["curves_csv"], corr.CURVES_CSV_COLUMNS)),
                title=f"aging curves ({label})",
                xlabel="n",
                ylabel="C(n+n_w, n_w)",
            )
            charts[f"aging_{label}.svg"] = chart
            chart = line_chart(
                _group_curves(table(csection["collapsed_csv"], corr.COLLAPSED_CSV_COLUMNS)),
                title=f"collapsed curves ({label})",
                xlabel="n / f(n_w)",
                ylabel="C",
            )
            charts[f"collapse_{label}.svg"] = chart
            rows = table(csection["scale_factors_csv"], corr.SCALE_FACTORS_CSV_COLUMNS)
            n_ws = [r[0] for r in rows]
            series = [("f", n_ws, [r[1] for r in rows])]
            if csection.get("a") is not None:
                a, gamma = csection["a"], csection["gamma"]
                # with gamma < 0 the law is infinite at n_w = 0
                law_nws = [nw for nw in n_ws if nw > 0 or gamma >= 0]
                series.append(("law", law_nws, [a * nw**gamma + 1.0 for nw in law_nws]))
            chart = line_chart(
                series,
                title=f"collapse scale factors ({label})",
                xlabel="n_w",
                ylabel="f",
                markers=True,
            )
            charts[f"scale_factors_{label}.svg"] = chart
    for name, chart in charts.items():
        (outdir / name).write_text(chart, encoding="utf-8")
    return list(charts)


def _group_curves(rows: list[list[float]]) -> list[tuple[str, list[float], list[float]]]:
    grouped: dict[float, tuple[list[float], list[float]]] = {}
    for n_w, x, y in rows:
        grouped.setdefault(n_w, ([], []))
        grouped[n_w][0].append(x)
        grouped[n_w][1].append(y)
    return [(f"n_w={int(k)}", xs, ys) for k, (xs, ys) in sorted(grouped.items())]


def _make_outdir(outdir: Path) -> None:
    """Make ``outdir`` and its missing parents; if that fails, remove the
    levels it made, so a refused run leaves no empty parent behind."""
    missing = []
    for level in (outdir, *outdir.parents):
        if os.path.lexists(level):
            break
        missing.append(level)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        for level in missing:  # deepest first; rmdir leaves any level that is not empty
            with suppress(OSError):
                level.rmdir()
        raise _UsageError(f"--outdir {outdir}: cannot create the directory: {exc.strerror}") from None


def _write_report(report: dict, outdir: Path, svg: bool, tables: dict) -> list[str]:
    """Write a run's output tree, the one place that does: make ``outdir``,
    write ``tables``, with ``svg`` render the charts of the report's
    threshold sections and of a ``collapse`` run's correlation section,
    then write ``report.json``. Its artifacts list the files listed there
    already, the tables and the SVGs in name order, then ``report.json``.
    Returns the SVG names written."""
    _make_outdir(outdir)
    for name, write in tables.items():
        write(outdir / name)
    svgs = []
    if svg:
        sections = list(report.get("thresholds", []))
        if "correlation" in report:
            sections.append({"label": "catalog", "correlation": report["correlation"]})
        svgs = render_svgs(sections, outdir)
    listed = set(report.get("artifacts", [])) | set(tables) | set(svgs)
    report["artifacts"] = sorted(listed - {"report.json"}) + ["report.json"]
    (outdir / "report.json").write_text(serialize_report(report), encoding="utf-8")
    return svgs


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_config_file(path: Path) -> dict:
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig) if "parse" in f.metadata}
    values = {}
    try:
        with open_text(path) as fh:
            text = fh.read()
    except DataError as exc:
        raise _UsageError(str(exc)) from None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in parsers:
            raise _UsageError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = parsers[key](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"{path}:{line_no}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The run's settings in precedence order: the defaults, then
    $AFTERSHOCKS_OUTDIR, the config file and the flags. A flag is refused
    unless the run (the sub-command, or simulate's ``--kind``) reads it."""
    run = getattr(args, "kind", None) or getattr(args, "command", None)
    given: dict = {SimulateSpec: {}, RunConfig: {}}  # the flag values by field name
    stray = []
    for cls, values in given.items():
        for f in fields(cls):
            value = getattr(args, _flag(f)[2:].replace("-", "_"), None) if "commands" in f.metadata else None
            if value is not None:
                values[f.name] = value
                if run not in f.metadata["commands"]:
                    stray.append(_flag(f))
    if stray:
        raise _UsageError(f"--kind {run} does not read {' '.join(stray)}")
    merged = {"outdir": Path(os.environ[ENV_OUTDIR])} if os.environ.get(ENV_OUTDIR) else {}
    merged.update(_read_config_file(Path(args.config)) if getattr(args, "config", None) else {})
    merged.update(given[RunConfig])
    if run in _KINDS:
        merged["simulate"] = SimulateSpec(kind=run, **given[SimulateSpec])
    config = RunConfig(**merged)
    n_w = ",".join(map(str, config.n_w))
    if len(set(config.n_w)) < len(config.n_w):
        raise _UsageError(f"n_w {n_w} repeats a value")
    labels = [_threshold_label(m) for m in config.thresholds]
    repeated = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if repeated:
        listed = ",".join(map(str, config.thresholds))
        raise _UsageError(f"thresholds {listed} give the label {repeated} twice")
    if config.reference not in config.n_w:
        raise _UsageError(f"reference {config.reference} is not one of n_w {n_w}")
    return config


def _add_setting_flags(sub: argparse.ArgumentParser, *runs: str) -> None:
    """A flag for each setting that one of ``runs`` reads: the generator
    parameters, then the :class:`RunConfig` settings, each in field order;
    ``--config`` heads the settings every command shares."""
    for f in fields(SimulateSpec) + fields(RunConfig):
        if not set(runs) & set(f.metadata.get("commands", ())):
            continue
        if f.name == "outdir":
            sub.add_argument("--config", help="key = value config file; flags override it")
        flag, parse, help = _flag(f), f.metadata["parse"], f.metadata["help"]
        if parse is bool:  # a switch: None when absent, so the field default holds
            sub.add_argument(flag, action="store_true", default=None, help=help)
        elif parse is _parse_bool:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction, help=help)
        else:
            sub.add_argument(flag, type=parse, help=help)
    # not a RunConfig field: report.json echoes the config, and logging must
    # leave the output tree unchanged
    sub.add_argument("-v", "--verbose", action="store_true", help="log progress messages to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aftershocks", description="Post-crash aftershock statistics toolkit.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_ingest = subs.add_parser("ingest", help="validate, compact and align an input file")
    _add_setting_flags(p_ingest, "ingest")
    p_ingest.set_defaults(func=cmd_ingest)

    p_analyze = subs.add_parser("analyze", help="full post-crash analysis")
    _add_setting_flags(p_analyze, "analyze")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = subs.add_parser("simulate", help="seeded synthetic catalog plus fits")
    p_sim.add_argument("--kind", choices=_KINDS, required=True)
    _add_setting_flags(p_sim, *_KINDS)
    p_sim.set_defaults(func=cmd_analyze)

    p_collapse = subs.add_parser("collapse", help="correlation study on an event CSV")
    p_collapse.add_argument("--events", type=Path, required=True, help="single-column event CSV")
    _add_setting_flags(p_collapse, "collapse")
    p_collapse.set_defaults(func=cmd_collapse)

    p_report = subs.add_parser("report", help="re-render charts from a run directory")
    p_report.add_argument("--outdir", type=Path, required=True, help="directory holding report.json")
    p_report.set_defaults(func=cmd_report)

    return parser


# ---------------------------------------------------------------------------
# sub-commands


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    if config.input is None:
        raise _UsageError("ingest requires an input file")
    series = _load_series(config)
    if not len(series):
        raise DataError(f"{config.input}: no data rows")
    outdir = Path(config.outdir)
    _make_outdir(outdir)
    series_csv = outdir / "series.csv"
    write_series_csv(series, series_csv)
    origin = series.origin_wall_clock
    print(f"{len(series)} records -> {series_csv}")
    print(
        f"t range [{series.t[0]}, {series.t[-1]}]"
        + (f", origin {origin.isoformat(sep=' ')}" if origin else "")
    )
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    report = run_pipeline(config)
    _print_summary(report, Path(config.outdir))
    return EXIT_OK


def cmd_collapse(args: argparse.Namespace) -> int:
    _import_analysis()
    config = _merge_config(args)
    ev = read_events_csv(args.events)
    tables, notes = {}, []
    section = _correlation_section(ev, config, "catalog", tables, notes.append)
    report = build_report(
        config={"events": args.events, **{k: section[k] for k in ("n_w", "n_max", "reference")}},
        correlation=section,
        notes=notes,
    )
    outdir = Path(config.outdir)
    _write_report(report, outdir, config.svg, tables)
    factors = ", ".join(f"{k}:{v:.4g}" for k, v in sorted(section["scale_factors"].items()))
    print(f"scale factors {{{factors}}} -> {outdir / 'report.json'}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    _import_analysis()
    outdir = Path(args.outdir)
    report_path = outdir / "report.json"
    with open_text(report_path) as fh:
        text = fh.read()
    try:
        report = json.loads(text)
    except ValueError as exc:
        raise DataError(f"{report_path}: not a JSON report ({exc})") from None
    if not isinstance(report, dict):
        raise DataError(f"{report_path}: not a JSON object")
    try:
        svgs = _write_report(report, outdir, svg=True, tables={})
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # a section or value of the wrong shape: the file is at fault, not the program
        raise DataError(f"{report_path}: malformed report ({type(exc).__name__}: {exc})") from None
    print(f"rendered {len(svgs)} charts in {outdir}")
    return EXIT_OK


def _print_summary(report: dict, outdir: Path) -> None:
    sigma = report.get("sigma")
    if sigma:
        print(f"sigma = {sigma['sigma']:.6g} over window {sigma['window']}")
    for section in report.get("thresholds", []):
        if "event_count" in section:
            bits = [f"{section['label']}: {section['event_count']} events"]
        else:  # a pareto run draws waits, not events
            bits = [f"{section['label']}: {section['waiting']['n_taus']} waits"]
        omori = section.get("omori")
        if omori:
            bits.append(f"p={omori['p']:.4g} A={omori['amplitude']:.4g} c={omori['c']:.4g}")
        waiting = section.get("waiting") or {}
        if "lsq" in waiting:
            bits.append(f"mu_lsq={waiting['lsq']['mu']:.4g}")
        if "mle" in waiting:
            bits.append(f"mu_mle={waiting['mle']['mu']:.4g}")
        markov = section.get("markov")
        if markov:
            bits.append(f"p+mu={markov['sum']:.4g} ({markov['verdict']})")
        print("  ".join(bits))
    print(f"report written to {outdir / 'report.json'}")


@contextmanager
def _info_to_stderr():
    """Print the package's INFO log records on stderr while the block runs."""
    logger = logging.getLogger("aftershocks")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        with _info_to_stderr() if getattr(args, "verbose", False) else nullcontext():
            return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to an exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _watched() -> bool:
    """Whether a tracer or profiler watches this process: a trace or profile
    function, or a ``sys.monitoring`` tool (cProfile's since Python 3.12)."""
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6)))
    )


def entry() -> int:
    """Run :func:`main` as a process of its own and end it with main's code.

    Every file a run writes is closed before :func:`main` returns, so once
    stdout and stderr are flushed the process ends at once with ``os._exit``:
    interpreter teardown would only unload modules. A flush that fails is an
    internal error (exit 3): its bytes stay buffered, and teardown would
    only fail on them again outside the documented codes. When a tracer or
    profiler watches (coverage, pdb, ``-m trace``, ``-m cProfile``), the
    code is returned for ``sys.exit`` and the interpreter tears down as
    usual, writing its profile.
    """
    code = main()
    if _watched():
        return code
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # closed at start-up (``>&-``)
                stream.flush()
    except (OSError, ValueError) as exc:
        code = EXIT_INTERNAL
        with suppress(OSError):  # stderr may be the stream that failed
            os.write(2, f"internal error: {type(exc).__name__}: {exc}\n".encode())
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
