"""Run the aftershocks CLI with a span around each public function it calls.

Usage: python3 tracer.py SPANS_JSON CLI_ARG...

The package is not edited. Functions are wrapped where the pipeline looks
them up: ``cli.py`` and ``diagnostics.py`` bind names with ``from .x import
y``, so the bindings in ``aftershocks.cli``, ``aftershocks.cli.corr`` and
``aftershocks.diagnostics`` are replaced, not the defining modules'. The
binding a call goes through names its caller: ``fit_omori`` reached from
``aftershocks.cli`` is the pipeline fit, from ``aftershocks.diagnostics``
the bootstrap refit.

Spans (id, parent id, name, start, end, whether it raised, and a count for
``load_records`` rows and ``bootstrap_ci`` resamples) are kept in memory
and written to SPANS_JSON when the CLI returns. A bootstrap resample failed
when a fit called directly under ``bootstrap_ci`` raised. The exit code is
the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from aftershocks import cli, diagnostics

# (namespace the caller looks the name up in, attribute, span name)
WRAPPED = [
    (cli, "load_records", "ingest.load_records"),
    (cli, "compact_gaps", "ingest.compact_gaps"),
    (cli, "align_origin", "ingest.align_origin"),
    (cli, "window_length_for_days", "ingest.window_length_for_days"),
    (cli, "compute_returns", "stats.compute_returns"),
    (cli, "window_stats", "stats.window_stats"),
    (cli, "detect_events", "events.detect_events"),
    (cli, "write_events_csv", "events.write_events_csv"),
    (cli, "fit_omori", "omori.fit_omori.pipeline"),
    (cli, "fit_omori_mle", "omori.fit_omori_mle"),
    (cli, "build_histogram", "waiting.build_histogram"),
    (cli, "fit_mu", "waiting.fit_mu.pipeline"),
    (cli, "bootstrap_ci", "diagnostics.bootstrap_ci"),
    (cli, "serialize_report", "diagnostics.serialize_report"),
    (cli, "run_pipeline", "cli.run_pipeline"),
    (cli, "cmd_ingest", "cli.cmd_ingest"),
    (cli.corr, "aging_curves", "correlation.aging_curves"),
    (cli.corr, "collapse", "correlation.collapse"),
    (diagnostics, "fit_omori", "omori.fit_omori.bootstrap"),
    (diagnostics, "build_histogram", "waiting.build_histogram"),
    (diagnostics, "fit_mu", "waiting.fit_mu.bootstrap"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            span = [span_id, self._stack[-1] if self._stack else None, name, 0.0, 0.0, False, None]
            if name == "diagnostics.bootstrap_ci":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = bound.arguments["resamples"]
            self.spans.append(span)
            self._stack.append(span_id)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if name == "ingest.load_records":
                span[6] = len(result)
            return result

        return traced


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for namespace, attr, name in WRAPPED:
        setattr(namespace, attr, tracer.wrap(name, getattr(namespace, attr)))
    run = tracer.wrap("cli.main", cli.main)
    try:
        return run(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
