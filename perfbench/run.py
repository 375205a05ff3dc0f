"""End-to-end and per-module benchmark of the aftershocks CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload {c_search,ingest_export}
        --seed N --seconds S --trace {0,1}

Each run writes a seeded planted-crash fixture (see fixture.py), then runs
the real CLI as a child process, one invocation at a time (closed loop, one
client), until S seconds have passed and at least two invocations are done.
The run and its children are pinned to one CPU.
Every invocation's outputs are checked. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics, times scaled to the reference
host speed (see REF_LINES below):
  wall_ref_s      median spawn-to-exit time of one invocation
  setup_s         median time from interpreter spawn until aftershocks.cli
                  is imported and main is callable (three spawns before
                  the first invocation and one after each)
  peak_rss_mb     median peak resident memory of one invocation (wait4)
  omori_p_err     largest |p - 0.6| over the threshold sections
  markov_sum_err  |p + mu_lsq - 1| on the 2-sigma section
--trace 1 alternates untraced invocations with invocations run under
tracer.py and reports per-layer calls and self time, medians over the
traced invocations, plus the tracing overhead, the raw (unscaled) wall_s
and setup_raw_s, and the mean reference pass host.ref_pass_s.

Workloads:
  c_search       analyze --c-search
  ingest_export  ingest, which writes series.csv one row per record; it fits
                 nothing, so its two accuracy metrics come from one untimed
                 analyze --resamples 0 made during set-up
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "c_search": ["analyze", "--c-search"],
    "ingest_export": ["ingest"],
}
ACCURACY_ARGS = ["analyze", "--resamples", "0"]
MIN_INVOCATIONS = 2
SETUP_SPAWNS = 3  # more follow, one after each invocation

# The host's speed drifts by up to 1.8x over minutes (README.md), so raw
# times of the same code spread past any useful bound across runs. After
# each invocation the parent therefore times passes of a fixed pure-Python
# parse, shaped like ingest's per-row work, for a tenth of that invocation's
# wall time (at least REF_MIN_S), and the end-to-end times are scaled by
# REF_PASS_NOMINAL_S over the run's mean pass time: they are seconds at the
# host speed where one pass takes REF_PASS_NOMINAL_S. The reference is
# benchmark code, the same on every commit, so a program change moves the
# scaled times as it moves raw ones, while a slow stretch of the host moves
# the program and the reference alike.
REF_LINES = [
    f"{20140101 + i % 28},{100000 + (i % 540) // 60 * 10000 + i % 60 * 100:06d},{1.0 + (i % 977) * 1e-4:.6f}"
    for i in range(2000)
]
REF_SHARE = 0.1
REF_MIN_S = 0.3
REF_PASS_NOMINAL_S = 0.03
RUN_DEADLINE_S = 170.0

# Per-layer spans reported on every workload (zero where a layer is not
# reached); names follow tracer.WRAPPED, plus the root span cli.main.
LAYERS = [
    "ingest.load_records",
    "ingest.compact_gaps",
    "ingest.align_origin",
    "ingest.window_length_for_days",
    "stats.compute_returns",
    "stats.window_stats",
    "events.detect_events",
    "events.write_events_csv",
    "omori.fit_omori.pipeline",
    "omori.fit_omori_mle",
    "omori.fit_omori.bootstrap",
    "waiting.build_histogram",
    "waiting.fit_mu.pipeline",
    "waiting.fit_mu.bootstrap",
    "diagnostics.bootstrap_ci",
    "correlation.aging_curves",
    "correlation.collapse",
    "diagnostics.serialize_report",
    "cli.run_pipeline",
    "cli.cmd_ingest",
    "cli.main",
]


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    problems: list[str]
    digest: dict[str, str] = field(default_factory=dict)
    report: dict | None = None
    spans: list | None = None


class Runner:
    """Spawns CLI children in one work directory and checks their outputs."""

    def __init__(self, workdir: Path, truth: dict, deadline: float) -> None:
        self.workdir = workdir
        self.truth = truth
        self.deadline = deadline
        self.ref_s = 0.0
        self.ref_passes = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def spawn(self, argv: list[str], stdout=subprocess.DEVNULL) -> tuple[float, float, int]:
        """Run ``argv`` to completion; return (wall s, peak RSS MB, exit code).

        The child is reaped with wait4, so the RSS is this child's own peak
        (RUSAGE_CHILDREN would report the largest child so far). A child
        still running at the run deadline is killed.
        """
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run deadline reached")
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=self.workdir, env=self.env, stdout=stdout, stderr=subprocess.DEVNULL
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def setup_time(self) -> float:
        """Seconds from spawning an interpreter until aftershocks.cli is
        imported and main is callable, read against the shared monotonic clock."""
        code = (
            "import time\n"
            "from aftershocks.cli import main\n"
            "assert callable(main)\n"
            "print(repr(time.monotonic()), flush=True)\n"
        )
        out = self.workdir / "setup.txt"
        with open(out, "w") as fh:
            start = time.monotonic()
            _, _, rc = self.spawn([sys.executable, "-c", code], stdout=fh)
        if rc != 0:
            raise RuntimeError(f"importing aftershocks.cli failed with exit code {rc}")
        return float(out.read_text()) - start

    def reference(self, seconds: float) -> None:
        """Make passes over REF_LINES in this process for ``seconds`` and
        add their time and count to the run's totals."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            total = 0.0
            for line in REF_LINES:
                date_s, time_s, price_s = line.split(",")
                day = datetime.strptime(date_s, "%Y%m%d")
                clock = datetime.strptime(time_s, "%H%M%S")
                total += float(price_s) * (day.day + clock.minute)
            self.ref_passes += 1
        self.ref_s += time.perf_counter() - start

    def host_scale(self) -> float:
        """Factor taking this run's times to the reference host speed."""
        return REF_PASS_NOMINAL_S * self.ref_passes / self.ref_s

    def invoke(self, cli_args: list[str], traced: bool = False) -> Invocation:
        outdir = self.workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        spans_path = self.workdir / "spans.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "aftershocks.cli"]
        io_args = ["--input", "bars.csv", "--crash", self.truth["crash"], "--outdir", "out"]
        wall, rss, rc = self.spawn(argv + cli_args + io_args)
        inv = Invocation(wall_s=wall, rss_mb=rss, problems=[])
        if rc != 0:
            inv.problems.append(f"exit code {rc}")
            return inv
        if traced:
            inv.spans = json.loads(spans_path.read_text())
        inv.digest = {
            str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*"))
            if p.is_file()
        }
        if cli_args[0] == "ingest":
            inv.problems += self.check_series(outdir / "series.csv")
        else:
            inv.problems += self.check_analysis(outdir, inv)
        return inv

    def check_series(self, path: Path) -> list[str]:
        if not path.is_file():
            return ["series.csv missing"]
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            first = fh.readline()
            rows = 1 + sum(1 for _ in fh) if first else 0
        problems = []
        if header != "t,wall_clock,x":
            problems.append(f"series.csv header {header!r}")
        if rows != self.truth["rows"]:
            problems.append(f"series.csv has {rows} rows for {self.truth['rows']} records")
        if not first or first.split(",")[0] != str(self.truth["first_t"]):
            problems.append(f"series.csv first t is not {self.truth['first_t']}: {first.strip()!r}")
        return problems

    def check_analysis(self, outdir: Path, inv: Invocation) -> list[str]:
        problems = []
        try:
            inv.report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"report.json unreadable: {exc}"]
        if inv.report.get("schema_version") != "1":
            problems.append(f"schema_version {inv.report.get('schema_version')!r}")
        for multiple, expected in self.truth["planted"].items():
            name = f"events_thr{multiple}sigma.csv"
            try:
                lines = (outdir / name).read_text(encoding="utf-8").splitlines()[1:]
                found = [float(v) for v in lines]
            except (OSError, ValueError) as exc:
                problems.append(f"{name} unreadable: {exc}")
                continue
            if found != [float(t) for t in expected]:
                problems.append(f"{name}: {len(found)} events, not the {len(expected)} planted ones")
        return problems


def accuracy(report: dict, p_true: float) -> dict[str, float]:
    """The two deterministic accuracy metrics of one analyze report."""
    sections = {s["label"]: s for s in report["thresholds"]}
    p_err = max(abs(s["omori"]["p"] - p_true) for s in sections.values() if "omori" in s)
    two = sections["thr2sigma"]
    return {
        "omori_p_err": p_err,
        "markov_sum_err": abs(two["omori"]["p"] + two["waiting"]["lsq"]["mu"] - 1.0),
    }


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer calls and self time (span time minus time in wrapped
    children) of one traced invocation."""
    child_time = [0.0] * len(spans)
    for _, parent, _, start, end, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("calls", "self_s")}
    rows = resamples = failures = 0
    for span_id, parent, name, start, end, raised, count in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_time[span_id]
        if name == "ingest.load_records":
            rows += count or 0
        elif name == "diagnostics.bootstrap_ci":
            resamples += count
        if raised and parent is not None and spans[parent][2] == "diagnostics.bootstrap_ci":
            failures += 1
    load_s = out["ingest.load_records.self_s"]
    out["ingest.load_records.rows"] = rows
    out["ingest.load_records.rows_per_s"] = rows / load_s if load_s else 0.0
    out["diagnostics.bootstrap_ci.resamples"] = resamples
    out["diagnostics.bootstrap_ci.resample_failures"] = failures
    out["diagnostics.bootstrap_ci.useful_ratio"] = (resamples - failures) / resamples if resamples else 0.0
    out["trace.self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    return out


END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "omori_p_err": "exponent",
    "markov_sum_err": "exponent",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "error_rate")):
        return "ratio"
    return "count"


ENVIRONMENT_PROBE = """
import json, os, platform, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
    blas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
                  "nproc": len(os.sched_getaffinity(0)), "cpus": os.cpu_count(),
                  "machine": platform.machine()}))
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an error, so the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "aftershocks" / "cli.py").is_file():
        print(f"error: no aftershocks package under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every child it spawns, so BLAS runs one
    # thread. On a shared host each CPU changes speed on its own, and a child
    # that migrates between CPUs or runs BLAS threads on both makes runs of
    # the same code spread far wider than pinned ones (README.md).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    begin = time.monotonic()
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir, begin)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args: argparse.Namespace, workdir: Path, begin: float) -> int:
    truth_path = workdir / "truth.json"
    subprocess.run(
        [sys.executable, str(HERE / "fixture.py"), str(args.seed), str(workdir / "bars.csv"), str(truth_path)],
        check=True,
        timeout=60,
    )
    env = subprocess.run(
        [sys.executable, "-c", ENVIRONMENT_PROBE], check=True, capture_output=True, text=True, timeout=60
    ).stdout.strip()
    runner = Runner(workdir, json.loads(truth_path.read_text()), begin + RUN_DEADLINE_S)
    runner.setup_time()  # warm-up: compiles bytecode in a fresh checkout
    setup = [runner.setup_time() for _ in range(SETUP_SPAWNS)]

    cli_args = WORKLOADS[args.workload]
    invocations: list[Invocation] = []
    reference = None
    if cli_args[0] == "ingest" and not args.trace:
        reference = runner.invoke(ACCURACY_ARGS)
        invocations.append(reference)

    timed: list[Invocation] = []
    traced: list[Invocation] = []
    runner.reference(REF_MIN_S)
    start = time.monotonic()
    while True:
        use_trace = bool(args.trace) and len(timed) > len(traced)
        inv = runner.invoke(cli_args, traced=use_trace)
        runner.reference(max(REF_MIN_S, REF_SHARE * inv.wall_s))
        (traced if use_trace else timed).append(inv)
        invocations.append(inv)
        setup.append(runner.setup_time())
        done = len(timed) + len(traced)
        elapsed = time.monotonic() - start
        if done >= MIN_INVOCATIONS and elapsed >= args.seconds and (traced or not args.trace):
            break
        if done >= MIN_INVOCATIONS and time.monotonic() + inv.wall_s > runner.deadline - 5.0:
            break

    # Every run of the workload command must write the same tree.
    first = next((i.digest for i in timed + traced if i.digest), None)
    for inv in timed + traced:
        if inv.digest and inv.digest != first:
            inv.problems.append("output tree differs from the first invocation's")
    for inv in invocations:
        for problem in inv.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    failed = sum(1 for inv in invocations if inv.problems)

    walls = [inv.wall_s for inv in timed]
    if args.trace:
        metrics = {}
        per_inv = [layer_metrics(inv.spans) for inv in traced if inv.spans is not None]
        if not per_inv:
            print("error: no traced invocation succeeded", file=sys.stderr)
            return 1
        for name in per_inv[0]:
            metrics[name] = statistics.median(m[name] for m in per_inv)
        metrics["trace.overhead_s"] = statistics.median(i.wall_s for i in traced) - statistics.median(walls)
        metrics["wall_s"] = statistics.median(walls)
        metrics["setup_raw_s"] = statistics.median(setup)
        metrics["host.ref_pass_s"] = runner.ref_s / runner.ref_passes
        metrics["error_rate"] = failed / len(invocations)
    else:
        source = reference or timed[0]
        try:
            errors = accuracy(source.report, runner.truth["p_true"])
        except (TypeError, KeyError, ValueError) as exc:
            print(f"error: accuracy metrics unavailable from report.json ({exc!r})", file=sys.stderr)
            return 1
        metrics = {
            "wall_ref_s": statistics.median(walls) * runner.host_scale(),
            "setup_s": statistics.median(setup) * runner.host_scale(),
            "peak_rss_mb": statistics.median(inv.rss_mb for inv in timed),
            **errors,
        }

    print(f"env {env}")
    print(
        f"workload {args.workload} seed {args.seed}: {len(timed)} untraced and {len(traced)} traced"
        f" invocations in {time.monotonic() - start:.1f} s; wall_s samples "
        + ", ".join(f"{w:.3f}" for w in walls)
        + f"; {runner.ref_passes} reference passes of mean {runner.ref_s / runner.ref_passes:.5f} s"
        + "; setup_s samples "
        + ", ".join(f"{s:.3f}" for s in setup)
    )
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
