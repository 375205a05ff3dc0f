"""Command-line driver wiring ingestion through report generation.

Sub-commands: ingest (validate + compact), analyze (full pipeline),
simulate (seeded generators), collapse (correlation study on an event
CSV), report (re-render plots from a run directory). Configuration comes
from flags or a ``key = value`` config file, flags winning; the default
output directory honors $AFTERSHOCKS_OUTDIR.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error;
statistical verdicts never affect the exit status. All emitted files are
deterministic functions of the configuration and seeds, and every one of
them is listed in the report manifest.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from datetime import datetime
from pathlib import Path

import numpy as np

from . import correlation as corr
from .diagnostics import bootstrap_ci, build_report, markov_relation, serialize_report
from .errors import DataError
from .events import (
    EventSequence,
    detect_events,
    read_events_csv,
    waiting_times,
    write_csv,
    write_events_csv,
)
from .ingest import (
    ColumnMap,
    PriceSeries,
    align_origin,
    compact_gaps,
    load_records,
    window_length_for_days,
)
from .omori import MIN_EVENTS, OmoriFit, cumulative_count, fit_omori, fit_omori_mle, omori_model
from .stats import compute_returns, window_stats
from .svgplot import line_chart
from .synth import (
    RNG_ALGORITHM,
    OmoriGenSpec,
    ParetoGenSpec,
    derive_seeds,
    gen_omori,
    gen_pareto_waits,
    gen_stationary,
)
from .waiting import build_histogram, fit_mu, write_histogram_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

ENV_OUTDIR = "AFTERSHOCKS_OUTDIR"

# series.csv is written this many rows per write, so the file is never held
# whole in memory
_SERIES_CHUNK_ROWS = 8192

_METHOD_NOTES = [
    "window statistics divide by the sample count (population form), not the nominal window length",
    "minute 0 counts as an event when its absolute return exceeds the threshold",
    "waiting-time exponent: least squares on the histogram is the headline estimate; the continuous MLE is reported alongside",
]


class _UsageError(Exception):
    """Bad or missing configuration detected after flag parsing."""


def _sim_param(default, parse, flag: str, kinds: tuple[str, ...], help: str):
    """A :class:`SimulateSpec` parameter, set by the ``simulate`` flag ``flag``
    (read by ``parse``; ``bool``: a switch) and taken by the generators of ``kinds``."""
    return field(default=default, metadata={"parse": parse, "flag": flag, "kinds": kinds, "help": help})


_GENERATORS = {
    "omori": lambda seed, **params: gen_omori(OmoriGenSpec(**params, seed=seed)),
    "pareto": lambda seed, **params: gen_pareto_waits(ParetoGenSpec(**params, seed=seed)),
    "stationary": lambda seed, **params: gen_stationary(**params, seed=seed),
}


@dataclass(frozen=True)
class SimulateSpec:
    """Generator selection for simulate-mode runs: ``kind`` is a key of
    ``_GENERATORS``, and every other field is a generator parameter."""

    kind: str
    p: float = _sim_param(0.5, float, "--p", ("omori",), "decay exponent (omori)")
    amplitude: float = _sim_param(5.0, float, "--amplitude", ("omori",), "rate amplitude (omori)")
    c: float = _sim_param(0.0, float, "--c", ("omori",), "time offset, minutes (omori)")
    horizon: float = _sim_param(
        10000.0, float, "--sim-horizon", ("omori", "stationary"), "generation horizon, minutes (default 10000)"
    )
    mu: float = _sim_param(0.95, float, "--mu", ("pareto",), "waiting exponent (pareto)")
    tau_min: float = _sim_param(1.0, float, "--tau-min", ("pareto",), "smallest waiting time (pareto)")
    count: int = _sim_param(10000, int, "--count", ("pareto",), "number of waits (pareto)")
    rate: float = _sim_param(1.0, float, "--rate", ("stationary",), "events per minute (stationary)")
    round_to_minutes: bool = _sim_param(False, bool, "--round-minutes", ("omori",), "floor event times to the minute grid")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_crash(text: str) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad crash instant {text!r}: {exc}") from None


def _parse_fit_range(text: str) -> tuple[float | None, float | None]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("fit range must be 'lo,hi' (blank side = open)")
    lo = float(parts[0]) if parts[0].strip() else None
    hi = float(parts[1]) if parts[1].strip() else None
    # the waiting-time MLE takes log(tau / lo)
    if lo is not None and not (math.isfinite(lo) and lo > 0):
        raise argparse.ArgumentTypeError(f"{text!r}: lower end must be finite and positive")
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


def _positive(parse):
    return _bounded(parse, strict=True)


def _nonnegative(parse):
    return _bounded(parse, strict=False)


def _parse_char(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"{text!r}: must be one character")
    return text


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"bad boolean {text!r}")


# the sub-commands that take a setting as a flag
_INPUT = ("ingest", "analyze")
_ANALYSIS = ("analyze", "simulate")
_CORRELATION = ("analyze", "simulate", "collapse")
_EVERY = ("ingest", "analyze", "simulate", "collapse")


def _setting(default, parse, commands: tuple[str, ...], help: str):
    """A :class:`RunConfig` field: ``parse`` reads its config-file value and
    its flag, which ``commands`` take with the help text ``help``."""
    return field(default=default, metadata={"parse": parse, "commands": commands, "help": help})


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run depends on; defaults reproduce the
    standard post-crash study configuration.

    Every field but ``simulate`` is a setting: the config-file key and the
    ``--field-name`` flag are generated from its declaration. Bool settings
    are ``--x``/``--no-x`` flags.
    """

    input: Path | None = _setting(None, Path, _INPUT, "delimiter-separated minute-bar file")
    delimiter: str = _setting(",", _parse_char, _INPUT, "field delimiter, one character (default ',')")
    date_column: str = _setting("DATE", str, _INPUT, "date column name (default DATE)")
    time_column: str = _setting("TIME", str, _INPUT, "time column name (default TIME)")
    price_column: str = _setting("CLOSE", str, _INPUT, "price column name (default CLOSE)")
    date_format: str = _setting("%Y%m%d", str, _INPUT, "strptime date format (default %%Y%%m%%d)")
    time_format: str = _setting("%H%M%S", str, _INPUT, "strptime time format (default %%H%%M%%S)")
    crash: datetime | None = _setting(
        None, _parse_crash, _INPUT, "crash instant, ISO format (e.g. '2014-12-15 20:17')"
    )
    window_days: int = _setting(100, _positive(int), _ANALYSIS, "exchange days after the crash (default 100)")
    window_minutes: int | None = _setting(None, _positive(int), _ANALYSIS, "window length override, exchange minutes")
    thresholds: tuple[float, ...] = _setting(
        (2.0, 3.0), _positive(_parse_floats), _ANALYSIS, "sigma multiples, comma separated (default 2,3)"
    )
    grid_step: float = _setting(1.0, _positive(float), _ANALYSIS, "Omori fitting grid step, minutes (default 1)")
    horizon: float | None = _setting(
        None, _positive(float), _ANALYSIS, "Omori fitting horizon, minutes (default: window end)"
    )
    c_search: bool = _setting(
        False, _parse_bool, _ANALYSIS, "search the Omori time offset c (default: pinned to 0)"
    )
    bin_size: float = _setting(1.0, _positive(float), _ANALYSIS, "waiting histogram bin, minutes (default 1)")
    fit_range: tuple[float | None, float | None] = _setting(
        (None, None), _parse_fit_range, _ANALYSIS, "waiting fit range 'lo,hi'"
    )
    n_w: tuple[int, ...] = _setting(
        (0, 10, 20, 30, 40, 50), _nonnegative(_parse_ints), _CORRELATION, "waiting event times (default 0,10,20,30,40,50)"
    )
    n_max: int = _setting(60, _positive(int), _CORRELATION, "event-time extent of correlation curves (default 60)")
    reference: int = _setting(0, _nonnegative(int), _CORRELATION, "reference n_w for the collapse (default 0)")
    resamples: int = _setting(200, _nonnegative(int), _ANALYSIS, "bootstrap resamples, 0 disables (default 200)")
    outdir: Path = _setting(
        Path("aftershocks-out"), Path, _EVERY, f"output directory (default ${ENV_OUTDIR} or ./aftershocks-out)"
    )
    seed: int = _setting(0, _nonnegative(int), _EVERY, "master seed for generators and bootstrap")
    svg: bool = _setting(False, _parse_bool, _EVERY, "also render SVG charts")
    simulate: SimulateSpec | None = None


@contextmanager
def _stage(name: str):
    """Wrap module errors so failures name the pipeline stage."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"stage '{name}': {exc}") from exc


def _config_echo(config: RunConfig) -> dict:
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        out[f.name] = value
    return out


def _load_series(config: RunConfig) -> PriceSeries:
    """The configured input file as a compacted series, aligned to the
    crash instant when one is set."""
    records = load_records(
        config.input,
        ColumnMap(date=config.date_column, time=config.time_column, price=config.price_column),
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
    outdir = Path(config.outdir)
    artifacts: list[str] = []
    notes: list[str] = list(_METHOD_NOTES)

    # each makes outdir once its input is loaded, so a refused run leaves none
    run = _run_analysis if config.simulate is None else _run_synthetic
    sections = run(config, outdir, artifacts, notes)
    report = build_report(
        config=_config_echo(config),
        rng={"algorithm": RNG_ALGORITHM, "seed": config.seed},
        notes=notes,
        artifacts=sorted(artifacts) + ["report.json"],
        **sections,
    )
    _write_report(report, outdir, config.svg)
    return report


def _run_analysis(config: RunConfig, outdir: Path, artifacts: list[str], notes: list[str]) -> dict:
    if config.input is None:
        raise _UsageError("analyze requires an input file")
    if config.crash is None:
        raise _UsageError("analyze requires a crash instant")

    with _stage("ingest"):
        series = _load_series(config)
    outdir.mkdir(parents=True, exist_ok=True)
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
    fits = fit_omori(catalogs, grid_step=config.grid_step, horizon=horizon, c_search=config.c_search)
    boot_seeds = derive_seeds(config.seed, len(config.thresholds))
    threshold_sections = []
    for multiple, ev, fit, boot_seed in zip(config.thresholds, catalogs, fits, boot_seeds):
        label = _threshold_label(multiple)
        section = _analyze_catalog(ev, fit, config, label, horizon, outdir, artifacts, notes, boot_seed)
        section["multiple"] = multiple
        section["r_th"] = multiple * sw.sigma
        threshold_sections.append(section)
    return {"sigma": sw, "thresholds": threshold_sections}


def _threshold_label(multiple: float) -> str:
    return f"thr{multiple:g}sigma"


def _run_synthetic(config: RunConfig, outdir: Path, artifacts: list[str], notes: list[str]) -> dict:
    spec = config.simulate
    assert spec is not None
    if spec.kind not in _GENERATORS:
        raise _UsageError(f"unknown simulate kind {spec.kind!r}")
    params = {f.name: getattr(spec, f.name) for f in fields(spec)[1:] if spec.kind in f.metadata["kinds"]}
    try:
        with _stage("simulate"):
            sample = _GENERATORS[spec.kind](config.seed, **params)
    except ValueError as exc:
        # a generator's parameter check: the parameters came from the command line
        raise _UsageError(f"simulate {spec.kind}: {exc}") from None
    outdir.mkdir(parents=True, exist_ok=True)
    synthetic = {"kind": spec.kind, "seed": config.seed, "params": params}

    if spec.kind == "pareto":
        synthetic["tau_count"] = len(sample)
        section = {"label": "catalog", "waiting": _waiting_section(sample, config, "catalog", outdir, artifacts)}
    else:
        synthetic["event_count"] = len(sample)
        horizon = float(config.horizon if config.horizon is not None else spec.horizon)
        boot_seed = derive_seeds(config.seed, 1)[0]
        (fit,) = fit_omori([sample], grid_step=config.grid_step, horizon=horizon, c_search=config.c_search)
        section = _analyze_catalog(sample, fit, config, "catalog", horizon, outdir, artifacts, notes, boot_seed)
    return {"thresholds": [section], "synthetic": synthetic}


def _analyze_catalog(
    ev: EventSequence,
    fit: OmoriFit | Exception,
    config: RunConfig,
    label: str,
    horizon: float,
    outdir: Path,
    artifacts: list[str],
    notes: list[str],
    boot_seed: int,
) -> dict:
    """Omori fit, waiting-time fits, Markov check and correlation study for
    one event catalog; writes that catalog's artifact files. ``fit`` is the
    catalog's entry from the list form of :func:`fit_omori`; an error there
    other than too few events is raised in this catalog's Omori stage."""
    section: dict = {"label": label, "event_count": len(ev)}

    def note(text: str) -> None:
        notes.append(f"{label}: {text}")

    events_csv = f"events_{label}.csv"
    write_events_csv(ev, outdir / events_csv)
    artifacts.append(events_csv)
    section["events_csv"] = events_csv

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
        curve_csv = f"omori_{label}.csv"
        _write_omori_curve_csv(ev, omori_fit, horizon, outdir / curve_csv)
        artifacts.append(curve_csv)
        section["omori_csv"] = curve_csv
    else:
        note(f"too few events ({len(ev)}) for an Omori fit")

    waits = waiting_times(ev)
    wsec = _waiting_section(waits, config, label, outdir, artifacts) if len(waits) else None
    if wsec is not None:
        section["waiting"] = wsec
    elif len(ev):
        note("no waiting times to histogram")

    lsq_fit = wsec.get("lsq") if wsec else None
    if omori_fit is not None and lsq_fit is not None:
        ci = None
        if config.resamples >= 100:
            boot_opts = {
                "omori": {
                    "grid_step": max(config.grid_step, horizon / 512.0),
                    "horizon": horizon,
                    "c_search": config.c_search,
                },
                "mu": {"method": "lsq", "bin_size": config.bin_size, "fit_range": config.fit_range},
            }
            try:
                with _stage(f"bootstrap {label}"):
                    ci = bootstrap_ci(ev, "sum", config.resamples, boot_seed, boot_opts)
            except DataError as exc:
                note(f"bootstrap failed ({exc}); Markov verdict uses the point estimate")
        elif config.resamples:
            note("fewer than 100 resamples requested; bootstrap skipped")
        else:
            note("bootstrap disabled; Markov verdict uses the point estimate")
        section["markov"] = markov_relation(omori_fit.p, lsq_fit.mu, ci)

    min_events = config.n_max + max(config.n_w) + 2
    if len(ev) >= min_events:
        with _stage(f"correlation {label}"):
            section["correlation"] = _correlation_section(ev, config, label, outdir, artifacts, note)
    else:
        note(f"{len(ev)} events < {min_events} needed for the correlation study; skipped")
    return section


def _correlation_section(
    ev: EventSequence, config: RunConfig, label: str, outdir: Path, artifacts: list[str], note
) -> dict:
    """Aging curves of one catalog and their collapse; writes the catalog's
    three correlation CSVs. ``note`` records why the scale-factor law is
    missing when it cannot be fitted."""
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
    corr.write_curves_csv(curves, outdir / section["curves_csv"])
    corr.write_collapsed_csv(curves, result.scale_factors, outdir / section["collapsed_csv"])
    corr.write_scale_factors_csv(result.scale_factors, outdir / section["scale_factors_csv"])
    artifacts.extend([section["curves_csv"], section["collapsed_csv"], section["scale_factors_csv"]])
    return section


def _waiting_section(waits, config: RunConfig, label: str, outdir: Path, artifacts: list[str]) -> dict:
    hist = build_histogram(waits, config.bin_size)
    hist_csv = f"waiting_{label}.csv"
    write_histogram_csv(hist, outdir / hist_csv)
    artifacts.append(hist_csv)
    wsec: dict = {"bin_size": config.bin_size, "histogram_csv": hist_csv, "n_taus": len(waits)}
    try:
        wsec["lsq"] = fit_mu(hist, fit_range=config.fit_range, method="lsq")
    except DataError as exc:
        wsec["lsq_error"] = str(exc)
    try:
        wsec["mle"] = fit_mu(waits, fit_range=config.fit_range, method="mle")
    except DataError as exc:
        wsec["mle_error"] = str(exc)
    return wsec


def _write_omori_curve_csv(ev: EventSequence, fit, horizon: float, path: Path) -> None:
    grid = np.linspace(0.0, horizon, 257)
    empirical = cumulative_count(ev, grid)
    model = omori_model(grid, fit.p, fit.amplitude, fit.c)
    write_csv(path, ["t", "n_empirical", "n_model"], zip(grid, empirical, model))


# ---------------------------------------------------------------------------
# SVG rendering (reads the CSV intermediates, so `report` can re-render)


def _read_csv(path: Path) -> list[list[float]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            return [[float(v) for v in row] for row in reader if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, csv.Error) as exc:
        raise DataError(f"{path}: malformed table ({exc})") from None


def render_svgs(sections: list[dict], outdir: Path) -> list[str]:
    """Render the standard charts of report threshold sections from a run's
    CSV artifacts; returns the SVG file names written."""
    written: list[str] = []
    for section in sections:
        label = section["label"]
        if "omori_csv" in section:
            rows = _read_csv(outdir / section["omori_csv"])
            t = [r[0] for r in rows]
            chart = line_chart(
                [("empirical", t, [r[1] for r in rows]), ("model", t, [r[2] for r in rows])],
                title=f"cumulative aftershocks ({label})",
                xlabel="t [min]",
                ylabel="N(t)",
            )
            written.append(_write_svg(outdir, f"omori_{label}.svg", chart))
        waiting = section.get("waiting")
        if waiting and "histogram_csv" in waiting:
            rows = _read_csv(outdir / waiting["histogram_csv"])
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
            written.append(_write_svg(outdir, f"waiting_{label}.svg", chart))
        csection = section.get("correlation")
        if csection:
            chart = line_chart(
                _group_curves(_read_csv(outdir / csection["curves_csv"])),
                title=f"aging curves ({label})",
                xlabel="n",
                ylabel="C(n+n_w, n_w)",
            )
            written.append(_write_svg(outdir, f"aging_{label}.svg", chart))
            chart = line_chart(
                _group_curves(_read_csv(outdir / csection["collapsed_csv"])),
                title=f"collapsed curves ({label})",
                xlabel="n / f(n_w)",
                ylabel="C",
            )
            written.append(_write_svg(outdir, f"collapse_{label}.svg", chart))
            rows = _read_csv(outdir / csection["scale_factors_csv"])
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
            written.append(_write_svg(outdir, f"scale_factors_{label}.svg", chart))
    return written


def _group_curves(rows: list[list[float]]) -> list[tuple[str, list[float], list[float]]]:
    grouped: dict[float, tuple[list[float], list[float]]] = {}
    for n_w, x, y in rows:
        grouped.setdefault(n_w, ([], []))
        grouped[n_w][0].append(x)
        grouped[n_w][1].append(y)
    return [(f"n_w={int(k)}", xs, ys) for k, (xs, ys) in sorted(grouped.items())]


def _write_svg(outdir: Path, name: str, content: str) -> str:
    (outdir / name).write_text(content, encoding="utf-8")
    return name


def _write_report(report: dict, outdir: Path, svg: bool) -> list[str]:
    """Write ``<outdir>/report.json``; with ``svg``, first render the charts of
    the report's threshold sections and of a ``collapse`` run's correlation
    section, and list them in its artifacts. Returns the SVG names written."""
    svgs = []
    if svg:
        sections = list(report.get("thresholds", []))
        if "correlation" in report:
            sections.append({"label": "catalog", "correlation": report["correlation"]})
        svgs = render_svgs(sections, outdir)
        report["artifacts"] = sorted(set(report.get("artifacts", [])) | set(svgs))
    (outdir / "report.json").write_text(serialize_report(report), encoding="utf-8")
    return svgs


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_config_file(path: Path) -> dict:
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig) if f.metadata}
    values = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from None
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
    file_values = _read_config_file(Path(args.config)) if getattr(args, "config", None) else {}
    defaults = RunConfig()
    merged = {}
    for f in fields(RunConfig):
        if not f.metadata:
            continue
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            merged[f.name] = flag_value
        elif f.name in file_values:
            merged[f.name] = file_values[f.name]
        elif f.name == "outdir" and os.environ.get(ENV_OUTDIR):
            merged[f.name] = Path(os.environ[ENV_OUTDIR])
        else:
            merged[f.name] = getattr(defaults, f.name)
    n_w = ",".join(map(str, merged["n_w"]))
    if len(set(merged["n_w"])) < len(merged["n_w"]):
        raise _UsageError(f"n_w {n_w} repeats a value")
    labels = [_threshold_label(m) for m in merged["thresholds"]]
    repeated = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if repeated:
        listed = ",".join(map(str, merged["thresholds"]))
        raise _UsageError(f"thresholds {listed} give the label {repeated} twice")
    if merged["reference"] not in merged["n_w"]:
        raise _UsageError(f"reference {merged['reference']} is not one of n_w {n_w}")
    return RunConfig(**merged)


def _add_setting_flags(sub: argparse.ArgumentParser, command: str) -> None:
    """A flag for each :class:`RunConfig` setting that ``command`` takes, in
    field order; ``--config`` heads the settings every command shares."""
    for f in fields(RunConfig):
        if command not in f.metadata.get("commands", ()):
            continue
        if f.name == "outdir":
            sub.add_argument("--config", help="key = value config file; flags override it")
        flag, parse, help = "--" + f.name.replace("_", "-"), f.metadata["parse"], f.metadata["help"]
        if parse is _parse_bool:
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
    p_sim.add_argument("--kind", choices=tuple(_GENERATORS), required=True)
    # argparse names each dest after its flag (sim_horizon), apart from the settings'
    for f in fields(SimulateSpec)[1:]:
        flag, parse, help = f.metadata["flag"], f.metadata["parse"], f.metadata["help"]
        if parse is bool:  # a switch: None when absent, so the field default holds
            p_sim.add_argument(flag, action="store_true", default=None, help=help)
        else:
            p_sim.add_argument(flag, type=parse, help=help)
    _add_setting_flags(p_sim, "simulate")
    p_sim.set_defaults(func=cmd_simulate)

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
    outdir.mkdir(parents=True, exist_ok=True)
    series_csv = outdir / "series.csv"
    with open(series_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,wall_clock,x\n")
        for lo in range(0, len(series), _SERIES_CHUNK_ROWS):
            hi = min(lo + _SERIES_CHUNK_ROWS, len(series))
            cells = [None] * (4 * (hi - lo))
            cells[0::4] = range(series.t_start + lo, series.t_start + hi)
            cells[1::4], cells[2::4] = _iso_date_and_time(series.wall_clock[lo:hi])
            cells[3::4] = series.x[lo:hi].tolist()
            # %.10g prints a finite float as format(x, ".10g") does
            fh.write("%d,%s %s,%.10g\n" * (hi - lo) % tuple(cells))
    origin = series.origin_wall_clock
    print(f"{len(series)} records -> {series_csv}")
    print(
        f"t range [{int(series.t[0])}, {int(series.t[-1])}]"
        + (f", origin {origin.isoformat(sep=' ')}" if origin else "")
    )
    return EXIT_OK


def _iso_date_and_time(stamps: np.ndarray) -> tuple[list[str], list[str]]:
    """The ISO date and time of day of each ``datetime64[s]`` stamp, as
    ``datetime.isoformat(sep=" ")`` splits them. Minute bars repeat a few
    hundred dates and times of day, so each distinct one is formatted once."""
    days, seconds = np.divmod(stamps.astype(np.int64), 86400)
    day_values, day_of = np.unique(days, return_inverse=True)
    second_values, second_of = np.unique(seconds, return_inverse=True)
    dates = np.datetime_as_string(day_values.astype("datetime64[D]")).tolist()
    # a second of 1970-01-01 as numpy writes it: 1970-01-01Thh:mm:ss
    clocks = [text[11:] for text in np.datetime_as_string(second_values.astype("datetime64[s]")).tolist()]
    # rows share the distinct strings, not copies of them
    return [dates[i] for i in day_of.tolist()], [clocks[i] for i in second_of.tolist()]


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    report = run_pipeline(config)
    _print_summary(report, Path(config.outdir))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    flags = {f.name: getattr(args, f.metadata["flag"][2:].replace("-", "_")) for f in fields(SimulateSpec)[1:]}
    spec = SimulateSpec(kind=args.kind, **{name: v for name, v in flags.items() if v is not None})
    config = replace(config, simulate=spec)
    report = run_pipeline(config)
    _print_summary(report, Path(config.outdir))
    return EXIT_OK


def cmd_collapse(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    ev = read_events_csv(args.events)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts, notes = ["report.json"], []
    section = _correlation_section(ev, config, "catalog", outdir, artifacts, notes.append)
    report = build_report(
        config={"events": args.events, **{k: section[k] for k in ("n_w", "n_max", "reference")}},
        correlation=section,
        notes=notes,
        artifacts=sorted(artifacts),
    )
    _write_report(report, outdir, config.svg)
    factors = ", ".join(f"{k}:{v:.4g}" for k, v in sorted(section["scale_factors"].items()))
    print(f"scale factors {{{factors}}} -> {outdir / 'report.json'}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    report_path = outdir / "report.json"
    if not report_path.exists():
        raise DataError(f"{report_path} not found")
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{report_path}: not a JSON report ({exc})") from None
    if not isinstance(report, dict):
        raise DataError(f"{report_path}: not a JSON object")
    svgs = _write_report(report, outdir, svg=True)
    print(f"rendered {len(svgs)} charts in {outdir}")
    return EXIT_OK


def _print_summary(report: dict, outdir: Path) -> None:
    sigma = report.get("sigma")
    if sigma:
        print(f"sigma = {sigma['sigma']:.6g} over window {sigma['window']}")
    for section in report.get("thresholds", []):
        bits = [f"{section['label']}: {section.get('event_count', 0)} events"]
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


if __name__ == "__main__":
    sys.exit(main())
