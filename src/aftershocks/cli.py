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
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields, replace
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
    write_events_csv,
)
from .ingest import ColumnMap, align_origin, compact_gaps, load_records, window_length_for_days
from .omori import cumulative_count, fit_omori, fit_omori_mle, omori_model
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

_METHOD_NOTES = [
    "window statistics divide by the sample count (population form), not the nominal window length",
    "minute 0 counts as an event when its absolute return exceeds the threshold",
    "waiting-time exponent: least squares on the histogram is the headline estimate; the continuous MLE is reported alongside",
]


class _UsageError(Exception):
    """Bad or missing configuration detected after flag parsing."""


@dataclass(frozen=True)
class SimulateSpec:
    """Generator selection for simulate-mode runs."""

    kind: str  # "omori" | "pareto" | "stationary"
    p: float = 0.5
    amplitude: float = 5.0
    c: float = 0.0
    horizon: float = 10000.0
    mu: float = 0.95
    tau_min: float = 1.0
    count: int = 10000
    rate: float = 1.0
    round_to_minutes: bool = False


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run depends on; defaults reproduce the
    standard post-crash study configuration."""

    input: Path | None = None
    delimiter: str = ","
    date_column: str = "DATE"
    time_column: str = "TIME"
    price_column: str = "CLOSE"
    date_format: str = "%Y%m%d"
    time_format: str = "%H%M%S"
    crash: datetime | None = None
    window_days: int = 100
    window_minutes: int | None = None
    thresholds: tuple[float, ...] = (2.0, 3.0)
    grid_step: float = 1.0
    horizon: float | None = None
    c_search: bool = False
    bin_size: float = 1.0
    fit_range: tuple[float | None, float | None] = (None, None)
    n_w: tuple[int, ...] = (0, 10, 20, 30, 40, 50)
    n_max: int = 60
    reference: int = 0
    resamples: int = 200
    seed: int = 0
    outdir: Path = Path("aftershocks-out")
    svg: bool = False
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


def _column_map(config: RunConfig) -> ColumnMap:
    return ColumnMap(date=config.date_column, time=config.time_column, price=config.price_column)


# ---------------------------------------------------------------------------
# pipeline


def run_pipeline(config: RunConfig) -> dict:
    """Run the configured analysis end to end and write the output tree.

    Returns the report dict, which is also serialized to
    ``<outdir>/report.json``. Identical configs and seeds produce
    byte-identical trees.
    """
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []
    notes: list[str] = list(_METHOD_NOTES)

    if config.simulate is not None:
        report = _run_synthetic(config, outdir, artifacts, notes)
    else:
        report = _run_analysis(config, outdir, artifacts, notes)

    (outdir / "report.json").write_text(serialize_report(report), encoding="utf-8")
    return report


def _finish_report(run_config: RunConfig, outdir: Path, **sections) -> dict:
    report = build_report(**sections)
    if run_config.svg:
        svgs = render_svgs(report, outdir)
        report["artifacts"] = sorted(set(report.get("artifacts", [])) | set(svgs))
    return report


def _run_analysis(config: RunConfig, outdir: Path, artifacts: list[str], notes: list[str]) -> dict:
    if config.input is None:
        raise _UsageError("analyze requires an input file")
    if config.crash is None:
        raise _UsageError("analyze requires a crash instant")

    with _stage("ingest"):
        records = load_records(
            config.input,
            _column_map(config),
            delimiter=config.delimiter,
            date_format=config.date_format,
            time_format=config.time_format,
        )
        series = compact_gaps(records)
        series = align_origin(series, config.crash)
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
        if window > t_end:
            notes.append(f"analysis window clipped to the data end (t = {t_end})")
            window = t_end
        sw = window_stats(returns, 0, window)

    sigma_section = {
        "mean": sw.mean,
        "variance": sw.variance,
        "sigma": sw.sigma,
        "window": list(sw.window),
        "n_samples": sw.n_samples,
    }

    horizon = float(config.horizon) if config.horizon is not None else float(window)
    boot_seeds = derive_seeds(config.seed, len(config.thresholds))
    threshold_sections = []
    for multiple, boot_seed in zip(config.thresholds, boot_seeds):
        r_th = multiple * sw.sigma
        label = f"thr{multiple:g}sigma"
        with _stage(f"events {label}"):
            ev = detect_events(returns, r_th, sigma_multiple=multiple, window=(0, window))
        section = _analyze_catalog(ev, config, label, horizon, outdir, artifacts, notes, boot_seed)
        section["multiple"] = multiple
        section["r_th"] = r_th
        threshold_sections.append(section)

    return _finish_report(
        config,
        outdir,
        config=_config_echo(config),
        sigma=sigma_section,
        thresholds=threshold_sections,
        rng={"algorithm": RNG_ALGORITHM, "seed": config.seed},
        notes=notes,
        artifacts=sorted(artifacts) + ["report.json"],
    )


def _run_synthetic(config: RunConfig, outdir: Path, artifacts: list[str], notes: list[str]) -> dict:
    spec = config.simulate
    assert spec is not None
    synthetic: dict = {"kind": spec.kind, "seed": config.seed}
    threshold_sections = []
    fit_horizon = float(config.horizon) if config.horizon is not None else float(spec.horizon)
    boot_seed = derive_seeds(config.seed, 1)[0]

    if spec.kind == "omori":
        gen = OmoriGenSpec(
            p=spec.p,
            amplitude=spec.amplitude,
            c=spec.c,
            horizon=spec.horizon,
            seed=config.seed,
            round_to_minutes=spec.round_to_minutes,
        )
        with _stage("simulate"):
            ev = gen_omori(gen)
        synthetic["params"] = {
            "p": spec.p,
            "amplitude": spec.amplitude,
            "c": spec.c,
            "horizon": spec.horizon,
            "round_to_minutes": spec.round_to_minutes,
        }
        synthetic["event_count"] = len(ev)
        threshold_sections.append(
            _analyze_catalog(ev, config, "catalog", fit_horizon, outdir, artifacts, notes, boot_seed)
        )
    elif spec.kind == "stationary":
        with _stage("simulate"):
            ev = gen_stationary(spec.rate, spec.horizon, config.seed)
        synthetic["params"] = {"rate": spec.rate, "horizon": spec.horizon}
        synthetic["event_count"] = len(ev)
        threshold_sections.append(
            _analyze_catalog(ev, config, "catalog", fit_horizon, outdir, artifacts, notes, boot_seed)
        )
    elif spec.kind == "pareto":
        gen = ParetoGenSpec(mu=spec.mu, tau_min=spec.tau_min, count=spec.count, seed=config.seed)
        with _stage("simulate"):
            waits = gen_pareto_waits(gen)
        synthetic["params"] = {"mu": spec.mu, "tau_min": spec.tau_min, "count": spec.count}
        synthetic["tau_count"] = len(waits)
        threshold_sections.append(
            {"label": "catalog", "waiting": _waiting_section(waits, config, "catalog", outdir, artifacts)}
        )
    else:
        raise _UsageError(f"unknown simulate kind {spec.kind!r}")

    return _finish_report(
        config,
        outdir,
        config=_config_echo(config),
        thresholds=threshold_sections,
        synthetic=synthetic,
        rng={"algorithm": RNG_ALGORITHM, "seed": config.seed},
        notes=notes,
        artifacts=sorted(artifacts) + ["report.json"],
    )


def _analyze_catalog(
    ev: EventSequence,
    config: RunConfig,
    label: str,
    horizon: float,
    outdir: Path,
    artifacts: list[str],
    notes: list[str],
    boot_seed: int,
) -> dict:
    """Omori fit, waiting-time fits, Markov check and correlation study for
    one event catalog; writes that catalog's artifact files."""
    section: dict = {"label": label, "event_count": len(ev)}

    events_csv = f"events_{label}.csv"
    write_events_csv(ev, outdir / events_csv)
    artifacts.append(events_csv)
    section["events_csv"] = events_csv

    omori_fit = None
    if len(ev) >= 10:
        with _stage(f"omori {label}"):
            omori_fit = fit_omori(
                ev, grid_step=config.grid_step, horizon=horizon, c_search=config.c_search
            )
        section["omori"] = omori_fit
        try:
            section["omori_mle"] = fit_omori_mle(ev, horizon=horizon, c_search=config.c_search)
        except DataError as exc:
            notes.append(f"{label}: rate-MLE cross-check unavailable ({exc})")
        curve_csv = f"omori_{label}.csv"
        _write_omori_curve_csv(ev, omori_fit, horizon, outdir / curve_csv)
        artifacts.append(curve_csv)
        section["omori_csv"] = curve_csv
    else:
        notes.append(f"{label}: too few events ({len(ev)}) for an Omori fit")

    waits = waiting_times(ev)
    wsec = _waiting_section(waits, config, label, outdir, artifacts) if len(waits) else None
    if wsec is not None:
        section["waiting"] = wsec
    elif len(ev):
        notes.append(f"{label}: no waiting times to histogram")

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
                notes.append(f"{label}: bootstrap failed ({exc}); Markov verdict uses the point estimate")
        elif config.resamples:
            notes.append(f"{label}: fewer than 100 resamples requested; bootstrap skipped")
        else:
            notes.append(f"{label}: bootstrap disabled; Markov verdict uses the point estimate")
        section["markov"] = markov_relation(omori_fit.p, lsq_fit.mu, ci)

    min_events = config.n_max + max(config.n_w) + 2
    if len(ev) >= min_events:
        with _stage(f"correlation {label}"):
            curves = corr.aging_curves(ev, config.n_w, config.n_max)
            result = corr.collapse(curves, reference_n_w=config.reference)
        corr_section: dict = {
            "n_w": list(config.n_w),
            "n_max": config.n_max,
            "reference": config.reference,
            "scale_factors": result.scale_factors,
            "collapse_residual": result.collapse_residual,
        }
        try:
            a, gamma = corr.fit_f(result.scale_factors)
            corr_section["a"] = a
            corr_section["gamma"] = gamma
        except DataError as exc:
            notes.append(f"{label}: scale-factor law not fitted ({exc})")
        corr.write_curves_csv(curves, outdir / f"corr_{label}.csv")
        corr.write_collapsed_csv(curves, result.scale_factors, outdir / f"collapsed_{label}.csv")
        corr.write_scale_factors_csv(result.scale_factors, outdir / f"scale_factors_{label}.csv")
        for name in (f"corr_{label}.csv", f"collapsed_{label}.csv", f"scale_factors_{label}.csv"):
            artifacts.append(name)
        corr_section["curves_csv"] = f"corr_{label}.csv"
        corr_section["collapsed_csv"] = f"collapsed_{label}.csv"
        corr_section["scale_factors_csv"] = f"scale_factors_{label}.csv"
        section["correlation"] = corr_section
    else:
        notes.append(
            f"{label}: {len(ev)} events < {min_events} needed for the correlation study; skipped"
        )
    return section


def _waiting_section(waits, config: RunConfig, label: str, outdir: Path, artifacts: list[str]) -> dict:
    hist = build_histogram(waits, config.bin_size)
    hist_csv = f"waiting_{label}.csv"
    write_histogram_csv(hist, outdir / hist_csv)
    artifacts.append(hist_csv)
    wsec: dict = {"bin_size": config.bin_size, "histogram_csv": hist_csv, "n_taus": len(waits)}
    fit_range = config.fit_range if config.fit_range != (None, None) else None
    try:
        wsec["lsq"] = fit_mu(hist, fit_range=fit_range, method="lsq")
    except DataError as exc:
        wsec["lsq_error"] = str(exc)
    try:
        wsec["mle"] = fit_mu(waits, fit_range=fit_range, method="mle")
    except DataError as exc:
        wsec["mle_error"] = str(exc)
    return wsec


def _write_omori_curve_csv(ev: EventSequence, fit, horizon: float, path: Path) -> None:
    grid = np.linspace(0.0, horizon, 257)
    empirical = cumulative_count(ev, grid)
    model = omori_model(grid, fit.p, fit.amplitude, fit.c)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "n_empirical", "n_model"])
        for t, n_e, n_m in zip(grid, empirical, model):
            writer.writerow([format(t, ".10g"), format(n_e, ".10g"), format(n_m, ".10g")])


# ---------------------------------------------------------------------------
# SVG rendering (reads the CSV intermediates, so `report` can re-render)


def _read_csv(path: Path) -> list[list[float]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [[float(v) for v in row] for row in reader if row]


def render_svgs(report: dict, outdir: Path) -> list[str]:
    """Render the standard charts from a run's CSV artifacts; returns the
    SVG file names written."""
    written: list[str] = []
    for section in report.get("thresholds", []):
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
                series.append(("law", n_ws, [a * nw**gamma + 1.0 for nw in n_ws]))
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


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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
    return (lo, hi)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"bad boolean {text!r}")


_COERCERS = {
    "input": Path,
    "delimiter": str,
    "date_column": str,
    "time_column": str,
    "price_column": str,
    "date_format": str,
    "time_format": str,
    "crash": _parse_crash,
    "window_days": int,
    "window_minutes": int,
    "thresholds": _parse_floats,
    "grid_step": float,
    "horizon": float,
    "c_search": _parse_bool,
    "bin_size": float,
    "fit_range": _parse_fit_range,
    "n_w": _parse_ints,
    "n_max": int,
    "reference": int,
    "resamples": int,
    "seed": int,
    "outdir": Path,
    "svg": _parse_bool,
}


def _read_config_file(path: Path) -> dict:
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
        if key not in _COERCERS:
            raise _UsageError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            values[key] = _COERCERS[key](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"{path}:{line_no}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values = _read_config_file(Path(args.config)) if getattr(args, "config", None) else {}
    defaults = RunConfig()
    merged = {}
    for f in fields(RunConfig):
        if f.name == "simulate":
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
    return RunConfig(**merged)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file; flags override it")
    sub.add_argument(
        "--outdir", type=Path, help=f"output directory (default ${ENV_OUTDIR} or ./aftershocks-out)"
    )
    sub.add_argument("--seed", type=int, help="master seed for generators and bootstrap")
    sub.add_argument("--svg", action=argparse.BooleanOptionalAction, help="also render SVG charts")
    # not a RunConfig field: report.json echoes the config, and logging must
    # leave the output tree unchanged
    sub.add_argument("-v", "--verbose", action="store_true", help="log progress messages to stderr")


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", type=Path, help="delimiter-separated minute-bar file")
    sub.add_argument("--delimiter", help="field delimiter (default ',')")
    sub.add_argument("--date-column", dest="date_column", help="date column name (default DATE)")
    sub.add_argument("--time-column", dest="time_column", help="time column name (default TIME)")
    sub.add_argument("--price-column", dest="price_column", help="price column name (default CLOSE)")
    sub.add_argument("--date-format", dest="date_format", help="strptime date format (default %%Y%%m%%d)")
    sub.add_argument("--time-format", dest="time_format", help="strptime time format (default %%H%%M%%S)")
    sub.add_argument("--crash", type=_parse_crash, help="crash instant, ISO format (e.g. '2014-12-15 20:17')")


def _add_analysis_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--window-days", dest="window_days", type=int,
                     help="exchange days after the crash (default 100)")
    sub.add_argument("--window-minutes", dest="window_minutes", type=int,
                     help="window length override, exchange minutes")
    sub.add_argument("--thresholds", type=_parse_floats,
                     help="sigma multiples, comma separated (default 2,3)")
    sub.add_argument("--grid-step", dest="grid_step", type=float,
                     help="Omori fitting grid step, minutes (default 1)")
    sub.add_argument("--horizon", type=float, help="Omori fitting horizon, minutes (default: window end)")
    sub.add_argument("--c-search", dest="c_search", action=argparse.BooleanOptionalAction,
                     help="search the Omori time offset c (default: pinned to 0)")
    sub.add_argument("--bin-size", dest="bin_size", type=float,
                     help="waiting histogram bin, minutes (default 1)")
    sub.add_argument("--fit-range", dest="fit_range", type=_parse_fit_range,
                     help="waiting fit range 'lo,hi'")
    sub.add_argument("--n-w", dest="n_w", type=_parse_ints,
                     help="waiting event times (default 0,10,20,30,40,50)")
    sub.add_argument("--n-max", dest="n_max", type=int,
                     help="event-time extent of correlation curves (default 60)")
    sub.add_argument("--reference", type=int, help="reference n_w for the collapse (default 0)")
    sub.add_argument("--resamples", type=int, help="bootstrap resamples, 0 disables (default 200)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aftershocks", description="Post-crash aftershock statistics toolkit.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_ingest = subs.add_parser("ingest", help="validate, compact and align an input file")
    _add_input_flags(p_ingest)
    _add_common_flags(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_analyze = subs.add_parser("analyze", help="full post-crash analysis")
    _add_input_flags(p_analyze)
    _add_analysis_flags(p_analyze)
    _add_common_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = subs.add_parser("simulate", help="seeded synthetic catalog plus fits")
    p_sim.add_argument("--kind", choices=("omori", "pareto", "stationary"), required=True)
    p_sim.add_argument("--p", type=float, help="decay exponent (omori)")
    p_sim.add_argument("--amplitude", type=float, help="rate amplitude (omori)")
    p_sim.add_argument("--c", type=float, help="time offset, minutes (omori)")
    p_sim.add_argument("--sim-horizon", dest="sim_horizon", type=float,
                       help="generation horizon, minutes (default 10000)")
    p_sim.add_argument("--mu", type=float, help="waiting exponent (pareto)")
    p_sim.add_argument("--tau-min", dest="tau_min", type=float, help="smallest waiting time (pareto)")
    p_sim.add_argument("--count", type=int, help="number of waits (pareto)")
    p_sim.add_argument("--rate", type=float, help="events per minute (stationary)")
    p_sim.add_argument("--round-minutes", dest="round_minutes", action="store_true",
                       help="floor event times to the minute grid")
    _add_analysis_flags(p_sim)
    _add_common_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_collapse = subs.add_parser("collapse", help="correlation study on an event CSV")
    p_collapse.add_argument("--events", type=Path, required=True, help="single-column event CSV")
    p_collapse.add_argument("--n-w", dest="n_w", type=_parse_ints, help="waiting event times")
    p_collapse.add_argument("--n-max", dest="n_max", type=int, help="curve extent (default 60)")
    p_collapse.add_argument("--reference", type=int, help="reference n_w (default 0)")
    _add_common_flags(p_collapse)
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
    records = load_records(
        config.input,
        _column_map(config),
        delimiter=config.delimiter,
        date_format=config.date_format,
        time_format=config.time_format,
    )
    series = compact_gaps(records)
    if config.crash is not None:
        series = align_origin(series, config.crash)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    series_csv = outdir / "series.csv"
    with open(series_csv, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "wall_clock", "x"])
        for t, wc, x in zip(series.t, series.wall_clock, series.x):
            writer.writerow([int(t), wc.isoformat(sep=" "), format(x, ".10g")])
    origin = series.origin_wall_clock
    print(f"{len(series)} records -> {series_csv}")
    print(
        f"t range [{int(series.t[0])}, {int(series.t[-1])}]"
        + (f", origin {origin.isoformat(sep=' ')}" if origin else "")
    )
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    report = run_pipeline(config)
    _print_summary(report, Path(config.outdir))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    base = SimulateSpec(kind=args.kind)
    overrides = {
        "p": args.p,
        "amplitude": args.amplitude,
        "c": args.c,
        "horizon": args.sim_horizon,
        "mu": args.mu,
        "tau_min": args.tau_min,
        "count": args.count,
        "rate": args.rate,
        "round_to_minutes": True if args.round_minutes else None,
    }
    spec = SimulateSpec(
        kind=args.kind,
        **{k: (v if v is not None else getattr(base, k)) for k, v in overrides.items()},
    )
    config = replace(config, simulate=spec)
    report = run_pipeline(config)
    _print_summary(report, Path(config.outdir))
    return EXIT_OK


def cmd_collapse(args: argparse.Namespace) -> int:
    config = _merge_config(args)
    ev = read_events_csv(args.events)
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    curves = corr.aging_curves(ev, config.n_w, config.n_max)
    result = corr.collapse(curves, reference_n_w=config.reference)
    section: dict = {
        "n_w": list(config.n_w),
        "n_max": config.n_max,
        "reference": config.reference,
        "scale_factors": result.scale_factors,
        "collapse_residual": result.collapse_residual,
        "curves_csv": "corr_catalog.csv",
        "collapsed_csv": "collapsed_catalog.csv",
        "scale_factors_csv": "scale_factors_catalog.csv",
    }
    notes = []
    try:
        a, gamma = corr.fit_f(result.scale_factors)
        section["a"] = a
        section["gamma"] = gamma
    except DataError as exc:
        notes.append(f"scale-factor law not fitted ({exc})")
    corr.write_curves_csv(curves, outdir / section["curves_csv"])
    corr.write_collapsed_csv(curves, result.scale_factors, outdir / section["collapsed_csv"])
    corr.write_scale_factors_csv(result.scale_factors, outdir / section["scale_factors_csv"])
    artifacts = [section["curves_csv"], section["collapsed_csv"], section["scale_factors_csv"], "report.json"]
    report = build_report(
        config={
            "events": args.events,
            "n_w": list(config.n_w),
            "n_max": config.n_max,
            "reference": config.reference,
        },
        correlation=section,
        notes=notes,
        artifacts=sorted(artifacts),
    )
    if config.svg:
        shim = {"thresholds": [{"label": "catalog", "correlation": report["correlation"]}]}
        svgs = render_svgs(shim, outdir)
        report["artifacts"] = sorted(set(report["artifacts"]) | set(svgs))
    (outdir / "report.json").write_text(serialize_report(report), encoding="utf-8")
    factors = ", ".join(f"{k}:{v:.4g}" for k, v in sorted(result.scale_factors.items()))
    print(f"scale factors {{{factors}}} -> {outdir / 'report.json'}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    report_path = outdir / "report.json"
    if not report_path.exists():
        raise DataError(f"{report_path} not found")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    svgs = render_svgs(report, outdir)
    report["artifacts"] = sorted(set(report.get("artifacts", [])) | set(svgs))
    report_path.write_text(serialize_report(report), encoding="utf-8")
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
