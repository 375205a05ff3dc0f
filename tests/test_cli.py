import gc
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from aftershocks import cli
from aftershocks.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, RunConfig, main
from aftershocks.errors import DataError
from aftershocks.ingest import MinuteBars, PriceSeries, compact_gaps, write_series_csv

CRASH = "2014-12-15 13:00"


def _run(*argv):
    return main(list(argv))


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


def _csv_digests(root: Path) -> dict[str, str]:
    return {name: digest for name, digest in _tree_digest(root).items() if name.endswith(".csv")}


# SHA-256 of every artifact table of the two golden runs, so a change to the
# table format (encoding, line ends, float rendering) cannot pass unseen
GOLDEN_SIMULATE_CSV = {
    "collapsed_catalog.csv": "d9c2de3214aec6373e2dbc4350b34c6f467341f0247222a67cb46f79a154549b",
    "corr_catalog.csv": "ba881296ccd1d51342dc6bde4cfe24bd3fd537eabbf18630d92e06afd5afed1b",
    "events_catalog.csv": "008e2f3cd83e5e7ae16b70da5dfd0e42ba3518fd56f0fa25f35eee783fea2872",
    "omori_catalog.csv": "967e9f0f4e42b8b8bf4f86e660e153177f05f59113c50a9fc8928af8e6b5bf22",
    "scale_factors_catalog.csv": "d56a75457aaa6f39f9a51eb901ecf99fd39177777b4568698036e49072562c62",
    "waiting_catalog.csv": "f12a44de794f6bb6da3dc4d1a146a57cce63c73022c6d900dfde4505aa4409f5",
}
GOLDEN_COLLAPSE_CSV = {
    "collapsed_catalog.csv": "4e0c9bb7d1b02f44af9560295c6dd7c653c13e5f21a567bc3cbfce5f681b352e",
    "corr_catalog.csv": "b0858a68d9b67f32a790c3cc835ee783e9ace7971c9712dd5f4c345a227548f1",
    "scale_factors_catalog.csv": "46417468d8386f2bc9782f4e3c830086f3c5c3f1efd501d4aa255f34f9a5f0ce",
}


def _analyze(minute_bars_path, outdir, *extra):
    return _run(
        "analyze",
        "--input", str(minute_bars_path),
        "--delimiter", ";",
        "--crash", CRASH,
        "--resamples", "100",
        "--seed", "1",
        "--outdir", str(outdir),
        *extra,
    )


class TestAnalyze:
    def test_full_run_report_contents(self, minute_bars_path, tmp_path):
        assert _analyze(minute_bars_path, tmp_path) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == "1"
        assert report["sigma"]["sigma"] == pytest.approx(0.012167982970533411, rel=1e-9)
        assert report["sigma"]["window"] == [0, 1918]
        two, three = report["thresholds"]
        assert two["label"] == "thr2sigma"
        assert two["event_count"] == 96
        assert two["omori"]["p"] == pytest.approx(0.79, abs=0.01)
        assert two["omori"]["c"] == 0.0
        assert "lsq" in two["waiting"] and "mle" in two["waiting"]
        assert three["event_count"] == 28
        assert "omori" in three
        # degradation is noted, not fatal
        assert any("thr3sigma" in note for note in report["notes"])

    def test_every_output_file_is_in_the_manifest(self, minute_bars_path, tmp_path):
        assert _analyze(minute_bars_path, tmp_path, "--svg") == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        on_disk = {p.name for p in tmp_path.iterdir() if p.is_file()}
        assert on_disk == set(report["artifacts"])

    def test_input_file_not_mutated(self, minute_bars_path, tmp_path):
        before = minute_bars_path.read_bytes()
        _analyze(minute_bars_path, tmp_path)
        assert minute_bars_path.read_bytes() == before

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        code = _run("analyze", "--crash", CRASH, "--outdir", str(tmp_path))
        assert code == EXIT_USAGE
        assert "input" in capsys.readouterr().err

    def test_crash_outside_data_is_data_error(self, minute_bars_path, tmp_path, capsys):
        code = _run(
            "analyze",
            "--input", str(minute_bars_path),
            "--delimiter", ";",
            "--crash", "2013-01-01 00:00",
            "--outdir", str(tmp_path),
        )
        assert code == EXIT_DATA
        assert "stage 'ingest'" in capsys.readouterr().err

    @pytest.mark.parametrize("price", ["nan", "inf", "-inf"])
    def test_non_finite_price_is_data_error(self, tmp_path, capsys, price):
        bars = tmp_path / "bars.csv"
        bars.write_text(
            "DATE,TIME,CLOSE\n20141215,100000,58.17\n"
            f"20141215,100100,{price}\n20141215,100200,58.2\n"
        )
        code = _run(
            "analyze", "--input", str(bars), "--crash", "2014-12-15 10:00",
            "--outdir", str(tmp_path / "out"),
        )
        assert code == EXIT_DATA
        assert "stage 'ingest': row 2:" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert _run("analyze", "--frobnicate") == EXIT_USAGE

    def test_no_command_is_usage_error(self):
        assert _run() == EXIT_USAGE

    def test_fractional_threshold_label(self, minute_bars_path, tmp_path):
        assert _analyze(minute_bars_path, tmp_path, "--thresholds", "2.5", "--resamples", "0") == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["thresholds"][0]["label"] == "thr2.5sigma"
        assert (tmp_path / "events_thr2.5sigma.csv").exists()

    def test_c_search_flag(self, minute_bars_path, tmp_path):
        assert _analyze(
            minute_bars_path, tmp_path, "--thresholds", "2", "--resamples", "0", "--c-search"
        ) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["c_search"] is True
        assert _analyze(
            minute_bars_path, tmp_path / "off", "--thresholds", "2", "--resamples", "0",
            "--no-c-search",
        ) == EXIT_OK
        report = json.loads((tmp_path / "off" / "report.json").read_text())
        assert report["config"]["c_search"] is False
        assert report["thresholds"][0]["omori"]["c"] == 0.0

    def test_verbose_logs_crash_snap_and_leaves_outputs_unchanged(
        self, minute_bars_path, tmp_path, capsys, monkeypatch
    ):
        # the report echoes the outdir, so both runs write to the same relative one
        monkeypatch.chdir(tmp_path)
        argv = [
            "analyze",
            "--input", str(minute_bars_path),
            "--delimiter", ";",
            "--crash", "2014-12-15 09:30",  # before the open, snaps to 10:00
            "--resamples", "0",
            "--outdir", "out",
        ]
        snap = "crash instant 2014-12-15 09:30:00 snapped forward to recorded minute 2014-12-15 10:00:00"
        assert _run(*argv, "-v") == EXIT_OK
        assert snap in capsys.readouterr().err
        verbose = _tree_digest(tmp_path / "out")
        assert _run(*argv) == EXIT_OK
        assert snap not in capsys.readouterr().err
        assert _tree_digest(tmp_path / "out") == verbose


# A non-default value for every setting but the input file, as config-file
# text; the input is the minute-bar fixture rewritten to these columns,
# delimiter and formats.
_SETTINGS = {
    "delimiter": "|",
    "date_column": "day",
    "time_column": "clock",
    "price_column": "px",
    "date_format": "%Y.%m.%d",
    "time_format": "%H:%M",
    "crash": CRASH,
    "window_days": "3",
    "window_minutes": "1500",
    "thresholds": "2",
    "grid_step": "2",
    "horizon": "1200",
    "c_search": "yes",
    "bin_size": "2",
    "fit_range": "1,",
    "n_w": "0,5,10",
    "n_max": "20",
    "reference": "5",
    "resamples": "0",
    "seed": "7",
    "outdir": "out",
    "svg": "on",
}


@pytest.fixture(scope="module")
def settings_run(tmp_path_factory):
    """``run(name)`` runs analyze with every setting in _SETTINGS, ``name``
    from a config file and the rest by flag, and returns report.json; the
    second item is that report with every setting given by flag."""
    root = tmp_path_factory.mktemp("settings")
    bars = ["day|clock|px"]
    for row in (Path(__file__).parent / "data" / "minute_bars.csv").read_text().splitlines()[1:]:
        day, clock, price = row.split(";")
        bars.append(f"{day[:4]}.{day[4:6]}.{day[6:]}|{clock[:2]}:{clock[2:4]}|{price}")
    (root / "bars.csv").write_text("\n".join(bars) + "\n")
    settings = {"input": str(root / "bars.csv"), **_SETTINGS, "outdir": str(root / "out")}

    def run(name: str | None) -> bytes:
        argv = ["analyze"]
        for key, text in settings.items():
            if key == name:
                (root / "run.cfg").write_text(f"{key} = {text}\n")
                argv += ["--config", str(root / "run.cfg")]
            elif key in ("c_search", "svg"):
                argv.append("--" + key.replace("_", "-"))
            else:
                argv += ["--" + key.replace("_", "-"), text]
        assert main(argv) == EXIT_OK
        return (root / "out" / "report.json").read_bytes()

    return run, run(None)


# a value each numeric setting refuses: 0 where it must be positive, -1
# where it must be nonnegative, and a bad element in a list
_REFUSED = {
    "window_days": "0",
    "window_minutes": "-5",
    "thresholds": "2,0",
    "grid_step": "0",
    "horizon": "-3",
    "bin_size": "0",
    "n_w": "0,-10",
    "n_max": "1",
    "reference": "-1",
    "resamples": "-1",
    "seed": "-1",
}


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, minute_bars_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# analysis configuration\n"
            f"input = {minute_bars_path}\n"
            "delimiter = ;\n"
            f"crash = {CRASH}\n"
            "thresholds = 2\n"
            "resamples = 0\n"
            f"outdir = {tmp_path / 'from_file'}\n"
        )
        assert _run("analyze", "--config", str(cfg)) == EXIT_OK
        report = json.loads((tmp_path / "from_file" / "report.json").read_text())
        assert [s["multiple"] for s in report["thresholds"]] == [2.0]

        assert _run("analyze", "--config", str(cfg), "--thresholds", "2.5",
                    "--outdir", str(tmp_path / "flag_wins")) == EXIT_OK
        report = json.loads((tmp_path / "flag_wins" / "report.json").read_text())
        assert [s["multiple"] for s in report["thresholds"]] == [2.5]

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.name != "simulate"])
    def test_setting_by_file_equals_setting_by_flag(self, settings_run, name):
        run, by_flags = settings_run
        assert run(name) == by_flags

    @pytest.mark.parametrize("text", ["off", "no", "0", "false"])
    def test_false_spellings(self, minute_bars_path, tmp_path, text):
        (tmp_path / "run.cfg").write_text(f"c_search = {text}\nsvg = {text}\n")
        outdir = tmp_path / "out"
        assert _analyze(minute_bars_path, outdir, "--resamples", "0", "--config", str(tmp_path / "run.cfg")) == EXIT_OK
        config = json.loads((outdir / "report.json").read_text())["config"]
        assert config["c_search"] is False and config["svg"] is False
        assert not list(outdir.glob("*.svg"))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble = 3\n")
        assert _run("analyze", "--config", str(cfg)) == EXIT_USAGE

    @pytest.mark.parametrize("name,text", sorted(_REFUSED.items()))
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_out_of_range_numeric_setting_is_usage_error(
        self, minute_bars_path, tmp_path, capsys, name, text, source
    ):
        argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
                "--resamples", "0", "--outdir", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--" + name.replace("_", "-") + "=" + text]
        else:
            (tmp_path / "run.cfg").write_text(f"{name} = {text}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert _run(*argv) == EXIT_USAGE
        assert re.search(r"must be (positive|nonnegative|at least 2)", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_every_numeric_setting_has_a_refused_value(self):
        # fit_range is left out: its blank sides are open bounds, and only a
        # set lower end is checked (test_fit_range_lower_end_must_be_positive)
        numeric = {
            f.name
            for f in fields(RunConfig)
            if f.metadata and re.search(r"\b(int|float)\b", str(f.type)) and f.name != "fit_range"
        }
        assert numeric == set(_REFUSED)

    def test_outdir_env_default(self, minute_bars_path, tmp_path, monkeypatch):
        monkeypatch.setenv("AFTERSHOCKS_OUTDIR", str(tmp_path / "from_env"))
        code = _run(
            "ingest", "--input", str(minute_bars_path), "--delimiter", ";",
        )
        assert code == EXIT_OK
        assert (tmp_path / "from_env" / "series.csv").exists()


class TestIngest:
    def test_series_csv_written(self, minute_bars_path, tmp_path, capsys):
        code = _run(
            "ingest",
            "--input", str(minute_bars_path),
            "--delimiter", ";",
            "--crash", CRASH,
            "--outdir", str(tmp_path),
        )
        assert code == EXIT_OK
        lines = (tmp_path / "series.csv").read_text().splitlines()
        assert lines[0] == "t,wall_clock,x"
        assert len(lines) == 1 + 2520
        first = lines[1].split(",")
        assert first[0] == "-600"  # crash sits 600 compacted minutes in
        assert "origin 2014-12-15 13:00" in capsys.readouterr().out

    def test_series_csv_matches_golden(self, minute_bars_path, tmp_path, golden_series_path):
        # byte-for-byte reproduction of the export made by the per-record writer
        assert _run(
            "ingest", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--outdir", str(tmp_path),
        ) == EXIT_OK
        assert (tmp_path / "series.csv").read_bytes() == golden_series_path.read_bytes()

    def test_stamp_text_is_numpy_iso_text(self, tmp_path):
        # years 1 to 9999, stamps either side of 1970, a day's first and last
        # second, and days of many rows around 1970-01-01
        first, last = np.array(["0001-01-01T00:00:00", "9999-12-31T23:59:59"], "datetime64[s]").astype(np.int64)
        seconds = np.random.default_rng(5).integers(first, last, 2000)
        edges = [first, last, -86401, -86400, -1, 0, 86399, 86400]
        stamps = np.unique(np.concatenate([seconds, edges, np.arange(-86400, 2 * 86400, 37)]))
        series = PriceSeries(x=[1.0] * len(stamps), wall_clock=stamps.tolist())
        write_series_csv(series, tmp_path / "series.csv")
        rows = (tmp_path / "series.csv").read_text().splitlines()[1:]
        iso = np.datetime_as_string(stamps.astype("datetime64[s]"), unit="s").tolist()
        assert [row.split(",")[1] for row in rows] == [text.replace("T", " ") for text in iso]

    def test_series_csv_stamps_come_in_order(self, tmp_path):
        # write_series_csv finds each date by bisection, so it relies on the
        # strictly increasing stamps that compact_gaps checks
        stamps, prices = [200000, 100], [1.0, 1.0]
        with pytest.raises(DataError, match="timestamps not sorted"):
            compact_gaps(MinuteBars(wall_clock=stamps, price=prices))
        series = compact_gaps(MinuteBars(wall_clock=sorted(stamps), price=prices))
        write_series_csv(series, tmp_path / "series.csv")
        assert (tmp_path / "series.csv").read_text().splitlines()[1:] == [
            "0,1970-01-01 00:01:40,1", "1,1970-01-03 07:33:20,1",
        ]

    def test_byte_order_mark_gives_same_series_csv(self, minute_bars_path, tmp_path, golden_series_path):
        # Excel's "CSV UTF-8" starts the file with U+FEFF, before the header
        bom = tmp_path / "bars_bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + minute_bars_path.read_bytes())
        assert _run(
            "ingest", "--input", str(bom), "--delimiter", ";", "--crash", CRASH, "--outdir", str(tmp_path / "out"),
        ) == EXIT_OK
        assert (tmp_path / "out" / "series.csv").read_bytes() == golden_series_path.read_bytes()

    def test_crlf_input_gives_same_series_csv(self, minute_bars_path, tmp_path):
        crlf = tmp_path / "bars_crlf.csv"
        crlf.write_bytes(minute_bars_path.read_bytes().replace(b"\n", b"\r\n"))
        for path, out in ((minute_bars_path, "lf"), (crlf, "crlf")):
            assert _run(
                "ingest", "--input", str(path), "--delimiter", ";", "--crash", CRASH,
                "--outdir", str(tmp_path / out),
            ) == EXIT_OK
        assert (tmp_path / "crlf" / "series.csv").read_bytes() == (
            tmp_path / "lf" / "series.csv"
        ).read_bytes()

    def test_header_only_input_is_data_error(self, tmp_path, capsys):
        bars = tmp_path / "bars.csv"
        bars.write_text("DATE,TIME,CLOSE\n")
        assert _run("ingest", "--input", str(bars), "--outdir", str(tmp_path / "out")) == EXIT_DATA
        assert f"{bars}: no data rows" in capsys.readouterr().err
        assert not (tmp_path / "out" / "series.csv").exists()


@pytest.mark.parametrize("text", [";;", ""])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_delimiter_must_be_one_character(minute_bars_path, tmp_path, capsys, text, source):
    argv = ["ingest", "--input", str(minute_bars_path), "--outdir", str(tmp_path / "out")]
    if source == "flag":
        argv.append(f"--delimiter={text}")
    else:
        (tmp_path / "run.cfg").write_text(f"delimiter = {text}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert _run(*argv) == EXIT_USAGE
    assert "must be one character" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_benchmark_tracer_bindings_resolve():
    # perfbench/tracer.py wraps these names where the pipeline looks them up
    # and reads bootstrap_ci's resamples argument; a rename here would leave
    # the traced benchmark without its spans
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for namespace, attr, name in tracer.WRAPPED:
        assert callable(getattr(namespace, attr, None)), f"{namespace.__name__}.{attr} ({name})"
    assert "resamples" in inspect.signature(cli.bootstrap_ci).parameters


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args`` that imports this checkout's
    package; ``kwargs`` go to ``subprocess.run``, capturing both streams
    as text unless they say otherwise. Its stdout is block-buffered, as on
    a pipe or file by default, unless ``args`` start with ``-u``."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("PYTHONUNBUFFERED", None)
    kwargs = {"capture_output": True, "text": True, "timeout": 120, **kwargs}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def _fresh_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    run = _python("-c", code, *argv)
    assert run.returncode == 0, run.stderr
    return run


# in-process main(), as the console entry ran before it ended the process itself
_MAIN = ("-c", "import sys; from aftershocks.cli import main; sys.exit(main())")
_ENTRY = ("-m", "aftershocks.cli")


class TestEntry:
    # entry() ends the process with os._exit once stdio is flushed; what a
    # run writes, prints and returns must be what main() gives in process

    def test_every_sub_command_matches_main(self, minute_bars_path, tmp_path):
        bars = ["--input", str(minute_bars_path), "--delimiter", ";"]
        steps = [
            ["ingest", *bars, "--crash", CRASH, "--outdir", "ingest"],
            # a crash instant in a gap snaps forward to CRASH, and -v logs that on stderr
            ["analyze", *bars, "--crash", "2014-12-15 12:59:30", "--resamples", "0", "--svg", "-v",
             "--outdir", "analyze"],
            ["simulate", "--kind", "omori", "--sim-horizon", "2000", "--resamples", "0", "--outdir", "sim"],
            ["collapse", "--events", "sim/events_catalog.csv", "--outdir", "collapse"],
            ["report", "--outdir", "analyze"],
            # a refused flag (exit 1) and a missing input (exit 2) write nothing
            ["ingest", *bars, "--seed", "1", "--outdir", "refused"],
            ["ingest", "--input", "absent.csv", "--outdir", "missing"],
        ]
        seen = {}
        for name, how in (("main", _MAIN), ("entry", _ENTRY)):
            cwd = tmp_path / name
            cwd.mkdir()
            outcomes = [_python(*how, *argv, cwd=cwd) for argv in steps]
            seen[name] = [(run.returncode, run.stdout, run.stderr) for run in outcomes]
            tree = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
            seen[name + " tree"] = tree
        assert [code for code, _, _ in seen["main"]] == [EXIT_OK] * 5 + [EXIT_USAGE, EXIT_DATA]
        assert "snapped forward to recorded minute" in seen["main"][1][2]
        assert seen["entry"] == seen["main"]
        assert seen["entry tree"] == seen["main tree"]
        assert "report.json" in {Path(p).name for p in seen["main tree"]}

    @pytest.mark.parametrize("trace", [False, True])
    def test_teardown_runs_only_when_traced(self, minute_bars_path, tmp_path, trace):
        code = (
            "import atexit, sys\n"
            "atexit.register(print, 'teardown ran')\n"
            + ("sys.settrace(lambda *args: None)\n" if trace else "")
            + "from aftershocks.cli import entry\n"
            "sys.exit(entry())\n"
        )
        run = _fresh_python(code, "ingest", "--input", str(minute_bars_path), "--delimiter", ";",
                            "--outdir", str(tmp_path))
        assert run.stdout.startswith("2520 records")
        assert ("teardown ran" in run.stdout) is trace

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "flags,code,message",
        [
            # in process, the flush at teardown fails and Python reports it with its own 120
            ((), 120, "Exception ignored in: <_io.TextIOWrapper name='<stdout>'"),
            # unbuffered, print() itself fails inside main()
            (("-u",), cli.EXIT_INTERNAL, "internal error: OSError: [Errno 28]"),
        ],
    )
    def test_failed_stdout_matches_main(self, minute_bars_path, tmp_path, flags, code, message):
        # main() in process gives ``code``; entry() turns every failed write
        # or flush of stdout into one internal-error line and exit 3
        argv = ["ingest", "--input", str(minute_bars_path), "--delimiter", ";", "--outdir", str(tmp_path)]
        seen = []
        for how in (_MAIN, _ENTRY):
            with open("/dev/full", "w") as full:
                run = _python(*flags, *how, *argv, stdout=full, stderr=subprocess.PIPE, capture_output=False)
            seen.append((run.returncode, run.stderr))
        assert seen[0][0] == code
        assert seen[0][1].startswith(message)
        assert "OSError: [Errno 28]" in seen[0][1]
        assert seen[1][0] == cli.EXIT_INTERNAL
        assert seen[1][1] == "internal error: OSError: [Errno 28] No space left on device\n"

    def test_closed_stdout_matches_main(self, minute_bars_path, tmp_path):
        # with fd 1 closed at start-up, sys.stdout is None and print() a no-op
        argv = ["ingest", "--input", str(minute_bars_path), "--delimiter", ";", "--outdir", "out"]
        seen = []
        for name, how in (("main", _MAIN), ("entry", _ENTRY)):
            cwd = tmp_path / name
            cwd.mkdir()
            close = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"
            run = _python("-c", close, sys.executable, *how, *argv, cwd=cwd)
            seen.append((run.returncode, run.stderr, (cwd / "out" / "series.csv").read_bytes()))
        assert seen[1] == seen[0]
        assert seen[0][:2] == (EXIT_OK, "")


def test_analyze_does_not_import_numpy_ma(minute_bars_path, tmp_path):
    # a bare np.unique imports numpy.ma on numpy 2.x (about 11 ms and 1 MB per
    # run); the short n_w and n_max let this catalog reach the collapse, and
    # the minute-floored catalog covers gen_omori's rounding
    code = (
        "import sys\n"
        "from aftershocks import gen_omori\n"
        "from aftershocks.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "gen_omori(p=0.6, amplitude=8.0, c=0.0, horizon=3000.0, seed=1, round_to_minutes=True)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--resamples", "100", "--n-w", "0,10", "--n-max", "20", "--outdir", str(tmp_path / "out")]
    run = _fresh_python(code, *argv)
    assert run.stdout.splitlines()[-1] == "False"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "correlation" in report["thresholds"][0]


def test_ingest_imports_no_fitting_code(minute_bars_path, tmp_path):
    # start-up is a large share of an ingest run; the package and the CLI
    # import the fitting layers, and numpy, only when a name from them is used
    code = (
        "import json, sys\n"
        "fitting = ['numpy'] + ['aftershocks.' + m for m in\n"
        "           ('omori', 'correlation', 'diagnostics', 'synth', 'waiting', 'svgplot')]\n"
        "def loaded(): return [m for m in fitting if m in sys.modules]\n"
        "import aftershocks\n"
        "seen = {'package': loaded(), 'dir': sorted(set(aftershocks.__all__) - set(dir(aftershocks)))}\n"
        "from aftershocks.cli import main\n"
        "seen['cli'] = loaded()\n"
        "assert main(sys.argv[1:]) == 0\n"
        "seen['ingest'] = loaded()\n"
        "print(json.dumps(seen))\n"
    )
    argv = ["ingest", "--input", str(minute_bars_path), "--delimiter", ";", "--outdir", str(tmp_path)]
    run = _fresh_python(code, *argv)
    assert json.loads(run.stdout.splitlines()[-1]) == {"package": [], "dir": [], "cli": [], "ingest": []}
    assert (tmp_path / "series.csv").is_file()


def test_ingest_runs_without_numpy(minute_bars_path, tmp_path, golden_series_path):
    # the ingest layer runs on the standard library alone
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy raises ImportError\n"
        "from aftershocks.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    _fresh_python(code, "ingest", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
                  "--outdir", str(tmp_path))
    assert (tmp_path / "series.csv").read_bytes() == golden_series_path.read_bytes()


def test_package_exports_are_the_defining_modules_objects():
    import aftershocks

    for name in aftershocks.__all__:
        value = getattr(aftershocks, name)
        # RNG_ALGORITHM is a str, which does not record its module
        defining = "aftershocks.synth" if name == "RNG_ALGORITHM" else value.__module__
        assert getattr(importlib.import_module(defining), name) is value, name
    with pytest.raises(AttributeError):
        aftershocks.no_such_name


def test_wrappers_set_before_the_analysis_import_see_every_call(minute_bars_path, tmp_path):
    # perfbench/tracer.py wraps cli.<name> and cli.corr.<name> through
    # getattr/setattr before main runs; the analysis import that the
    # sub-command makes later must keep those wrappers
    code = (
        "import json, sys\n"
        "from aftershocks import cli\n"
        "assert 'aftershocks.omori' not in sys.modules\n"
        "calls = {'fit_omori': 0, 'aging_curves': 0}\n"
        "def counting(namespace, name):\n"
        "    fn = getattr(namespace, name)\n"
        "    def counted(*args, **kwargs):\n"
        "        calls[name] += 1\n"
        "        return fn(*args, **kwargs)\n"
        "    setattr(namespace, name, counted)\n"
        "counting(cli, 'fit_omori')\n"
        "counting(getattr(cli, 'corr'), 'aging_curves')\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(json.dumps(calls))\n"
    )
    argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--resamples", "0", "--n-w", "0,10", "--n-max", "20", "--outdir", str(tmp_path)]
    run = _fresh_python(code, *argv)
    # one list-form fit of both thresholds; only the 2-sigma catalog reaches the collapse
    assert json.loads(run.stdout.splitlines()[-1]) == {"fit_omori": 1, "aging_curves": 1}


def test_price_and_return_series_are_freed_before_the_omori_fit(minute_bars_path, tmp_path, monkeypatch):
    # the series hold 32 bytes per input row; a run that kept them through the
    # fits and the bootstrap peaked at ingest plus fitting
    compute_returns, fit_omori = cli.compute_returns, cli.fit_omori
    refs = []
    freed = []

    def watched_returns(series):
        returns = compute_returns(series)
        refs.extend([weakref.ref(series), weakref.ref(returns)])
        return returns

    def watched_fit(*args, **kwargs):
        gc.collect()
        freed.append([ref() is None for ref in refs])
        return fit_omori(*args, **kwargs)

    monkeypatch.setattr(cli, "compute_returns", watched_returns)
    monkeypatch.setattr(cli, "fit_omori", watched_fit)
    argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--resamples", "0", "--outdir", str(tmp_path)]
    assert _run(*argv) == EXIT_OK
    assert freed == [[True, True]]


@pytest.mark.parametrize("text", ["-1,", "0,", "nan,5", "inf,", "10,5", "1,nan", "5,5", ",0"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_fit_range_lower_end_must_be_positive(minute_bars_path, tmp_path, capsys, text, source):
    # the waiting-time MLE takes log(tau / lo); a lower end <= 0 used to end
    # in an internal error (exit 3). An empty range used to exit 0 with every
    # waiting fit failed and no Markov check.
    if text in ("-1,", "0,", "nan,5", "inf,"):
        end = "lower end must be finite and positive"
    else:
        end = "upper end must be positive and above the lower end"
    argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--resamples", "0", "--outdir", str(tmp_path / "out")]
    if source == "flag":
        argv.append(f"--fit-range={text}")
    else:
        (tmp_path / "run.cfg").write_text(f"fit_range = {text}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert _run(*argv) == EXIT_USAGE
    assert f"{text!r}: {end}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_range_upper_end_may_be_open_or_infinite():
    assert cli._parse_fit_range("1,inf") == (1.0, math.inf)
    assert cli._parse_fit_range(",inf") == (None, math.inf)
    assert cli._parse_fit_range("2,") == (2.0, None)


def test_run_failing_after_ingest_writes_nothing(minute_bars_path, tmp_path, capsys):
    # the 2-sigma catalog's events table used to be written before the Omori
    # stage refused the grid
    argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--grid-step", "100000", "--outdir", str(tmp_path / "out")]
    assert _run(*argv) == EXIT_DATA
    assert "stage 'omori thr2sigma': fitting grid has fewer than 3 points" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_collapse_of_too_short_a_catalog_writes_nothing(tmp_path, capsys):
    (tmp_path / "events.csv").write_text("t_minutes\n" + "".join(f"{t}\n" for t in range(1, 30)))
    argv = ["collapse", "--events", str(tmp_path / "events.csv"), "--n-max", "1000", "--outdir", str(tmp_path / "out")]
    assert _run(*argv) == EXIT_DATA
    assert "too short for n_max=1000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fitting_grid_over_the_cap_is_usage_error(tmp_path, capsys):
    # a 1e9-point grid was OOM-killed and a 1e15-point one ended in an
    # internal MemoryError
    argv = ["simulate", "--kind", "omori", "--sim-horizon", "3000", "--horizon", "1e15", "--resamples", "0",
            "--outdir", str(tmp_path / "out")]
    assert _run(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--horizon 1e+15 / --grid-step 1: a fitting grid of 1e+15 points exceeds the cap of 4194304" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "file"])
def test_reference_missing_from_n_w_is_usage_error(minute_bars_path, tmp_path, capsys, source):
    argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--resamples", "0", "--outdir", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--n-w", "10,20"]
    else:
        (tmp_path / "run.cfg").write_text("n_w = 10,20\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert _run(*argv) == EXIT_USAGE
    assert "reference 0 is not one of n_w 10,20" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize(
    "key,value,message",
    [
        ("n_w", "0,10,10", "n_w 0,10,10 repeats a value"),
        # both would write thr2sigma files, and the report would list them twice
        ("thresholds", "2,2", "thresholds 2.0,2.0 give the label thr2sigma twice"),
        ("thresholds", "3,2,2.0000001", "thresholds 3.0,2.0,2.0000001 give the label thr2sigma twice"),
        # an empty list would run no threshold, or hide the reference check
        ("thresholds", ",", "must list at least one value"),
        ("thresholds", "", "must list at least one value"),
        ("n_w", ",", "must list at least one value"),
        ("n_w", "", "must list at least one value"),
    ],
)
def test_repeated_list_value_is_usage_error(minute_bars_path, tmp_path, capsys, source, key, value, message):
    argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--resamples", "0", "--outdir", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert _run(*argv) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command", ["ingest", "analyze"])
def test_crash_with_utc_offset_is_usage_error(minute_bars_path, tmp_path, capsys, command, source):
    # input timestamps are naive wall-clock time; an aware instant used to
    # fail comparing with them (exit 3)
    crash = "2014-12-15T13:00:00+03:00"
    argv = [command, "--input", str(minute_bars_path), "--delimiter", ";", "--outdir", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--crash", crash]
    else:
        (tmp_path / "run.cfg").write_text(f"crash = {crash}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert _run(*argv) == EXIT_USAGE
    assert f"bad crash instant {crash!r}: give naive wall-clock time, without a UTC offset" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--input"],
        ["analyze", "--crash", CRASH, "--input"],
        ["collapse", "--events"],
    ],
    ids=["ingest", "analyze", "collapse"],
)
def test_missing_input_file_is_data_error(tmp_path, capsys, argv):
    missing = tmp_path / "nope.csv"
    code = _run(*argv, str(missing), "--outdir", str(tmp_path / "out"))
    assert code == EXIT_DATA
    assert f"cannot read {missing}: No such file or directory" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ingest", "analyze", "collapse"])
def test_outdir_that_cannot_be_made_is_usage_error(minute_bars_path, tmp_path, capsys, command):
    assert _run(
        "simulate", "--kind", "stationary", "--sim-horizon", "3000", "--seed", "4", "--resamples", "0",
        "--outdir", str(tmp_path / "sim"),
    ) == EXIT_OK
    argv = {
        "ingest": ["ingest", "--input", str(minute_bars_path), "--delimiter", ";"],
        "analyze": ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
                    "--resamples", "0"],
        "collapse": ["collapse", "--events", str(tmp_path / "sim" / "events_catalog.csv"), "--n-w", "0,10,20",
                     "--n-max", "30"],
    }[command]
    (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    # the second fails below a level that the run makes, and must remove
    for outdir, reason in [("file/sub", "Not a directory"), (f"newa/{'x' * 300}", "File name too long")]:
        assert _run(*argv, "--outdir", str(tmp_path / outdir)) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"usage error: --outdir {tmp_path / outdir}: cannot create the directory: {reason}\n"
        )
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "argv,name,body,message",
    [
        (["ingest", "--input"], "bars.csv", b"DATE,TIME,CLOSE\n20141215,100000,61.\xff\n",
         "bars.csv: not UTF-8 text (invalid start byte at byte offset 35)"),
        (["analyze", "--crash", CRASH, "--input"], "bars.csv",
         b"DATE,TIME,CLOSE\n" + b"20141215,100000,61.5\n" * 600 + b"\xff\n",
         "bars.csv: not UTF-8 text (invalid start byte at byte offset 12616)"),
        (["collapse", "--events"], "events.csv", b"t_minutes\n" + b"1\n" * 6000 + b"\xfe\n",
         "events.csv: not UTF-8 text (invalid start byte at byte offset 12010)"),
        (["collapse", "--events"], "events.csv", b"\n1\n", "expected header 't_minutes'"),
        # cells longer than csv.field_size_limit(), past the first chunk
        (["ingest", "--input"], "bars.csv",
         b"DATE,TIME,CLOSE\n" + b"20141215,100000,61.5\n" * 4000 + b"20141215,100100," + b"9" * 140_000 + b"\n",
         "malformed row 4001: field larger than field limit (131072)"),
        (["ingest", "--input"], "bars.csv", b"DATE,TIME,CLOSE" + b"x" * 140_000 + b"\n20141215,100000,61.5\n",
         "malformed header row: field larger than field limit (131072)"),
        (["collapse", "--events"], "events.csv", b"t_minutes\n1\n2\n" + b"3" * 140_000 + b"\n",
         "events.csv: malformed table at line 4 (field larger than field limit (131072))"),
    ],
    ids=["ingest-not-utf8", "analyze-not-utf8", "collapse-not-utf8", "collapse-blank-header",
         "ingest-oversized-cell", "ingest-oversized-header", "collapse-oversized-cell"],
)
def test_undecodable_input_is_data_error(tmp_path, capsys, argv, name, body, message):
    path = tmp_path / name
    path.write_bytes(body)
    code = _run(*argv, str(path), "--outdir", str(tmp_path / "out"))
    assert code == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra_bars,message",
    [
        ("", "stage 'sigma': no returns after the crash"),
        ("20141215;100200;61.7\n", "stage 'sigma': zero sigma in the window [0, 0]"),
    ],
    ids=["crash-is-last-record", "one-return-window"],
)
def test_degenerate_sigma_window_is_data_error(minute_bars_path, tmp_path, capsys, extra_bars, message):
    head = minute_bars_path.read_text().splitlines(keepends=True)[:43]  # header and 42 bars
    bars = tmp_path / "bars.csv"
    bars.write_text("".join(head) + "20141215;100000;61.0\n20141215;100100;61.5\n" + extra_bars)
    code = _run(
        "analyze", "--input", str(bars), "--delimiter", ";", "--resamples", "0",
        "--window-days", "1", "--crash", "2014-12-15 10:01", "--outdir", str(tmp_path / "out"),
    )
    assert code == EXIT_DATA
    assert message in capsys.readouterr().err


_BARS = ["--input", "{bars}", "--delimiter", ";"]


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["analyze", "--config", "{tmp}/absent.cfg"], None, "usage error: cannot read {tmp}/absent.cfg: No such file"),
        (["analyze", "--config", "{tmp}/run.cfg"], "resamples\n", "run.cfg:1: expected 'key = value'"),
        (["analyze", "--config", "{tmp}/run.cfg"], "seed = 1\n# caf\xe9\n",
         "usage error: {tmp}/run.cfg: not UTF-8 text (invalid continuation byte at byte offset 14)"),
        # argv cannot carry a NUL byte, but a config file can
        (["ingest", "--config", "{tmp}/run.cfg"], "input = a\0b\n", "run.cfg:1: 'a\\x00b': a path cannot hold a NUL byte"),
        (["ingest", *_BARS, "--config", "{tmp}/run.cfg"], "outdir = o\0x\n",
         "run.cfg:1: 'o\\x00x': a path cannot hold a NUL byte"),
        (["analyze", *_BARS, "--crash", CRASH, "--config", "{tmp}/run.cfg"], "c_search = maybe\n",
         "run.cfg:1: bad boolean 'maybe'"),
        (["analyze", *_BARS, "--crash", CRASH, "--fit-range", "1,2,3"], None,
         "argument --fit-range: fit range must be 'lo,hi'"),
        (["analyze", *_BARS, "--crash", "notadate"], None, "argument --crash: bad crash instant 'notadate'"),
        (["analyze", *_BARS], None, "usage error: analyze requires a crash instant"),
        (["ingest", "--delimiter", ";"], None, "usage error: ingest requires an input file"),
        # a flag that the sub-command would not read
        (["ingest", *_BARS, "--seed", "1"], None, "unrecognized arguments: --seed 1"),
        (["ingest", *_BARS, "--svg"], None, "unrecognized arguments: --svg"),
        (["collapse", "--events", "{tmp}/events.csv", "--seed", "1"], None, "unrecognized arguments: --seed 1"),
        (["simulate", "--kind", "omori", "--thresholds", "2.5"], None, "unrecognized arguments: --thresholds 2.5"),
        (["simulate", "--kind", "omori", "--window-days", "7"], None, "unrecognized arguments: --window-days 7"),
        (["simulate", "--kind", "omori", "--window-minutes", "7"], None, "unrecognized arguments: --window-minutes 7"),
        (["simulate", "--kind", "pareto", "--p", "0.7"], None,
         "usage error: --kind pareto does not read --p\n"),
        (["simulate", "--kind", "stationary", "--c", "1", "--round-minutes"], None,
         "usage error: --kind stationary does not read --c --round-minutes\n"),
        (["simulate", "--kind", "omori", "--mu", "0.5", "--count", "5", "--rate", "2"], None,
         "usage error: --kind omori does not read --mu --count --rate\n"),
        # a pareto run fits only the waiting times: no Omori fit, bootstrap or correlation
        (["simulate", "--kind", "pareto", "--grid-step", "7"], None, "usage error: --kind pareto does not read --grid-step\n"),
        (["simulate", "--kind", "pareto", "--horizon", "50"], None, "usage error: --kind pareto does not read --horizon\n"),
        (["simulate", "--kind", "pareto", "--no-c-search"], None, "usage error: --kind pareto does not read --c-search\n"),
        (["simulate", "--kind", "pareto", "--resamples", "0"], None, "usage error: --kind pareto does not read --resamples\n"),
        (["simulate", "--kind", "pareto", "--n-w", "0,5"], None, "usage error: --kind pareto does not read --n-w\n"),
        (["simulate", "--kind", "pareto", "--n-max", "10"], None, "usage error: --kind pareto does not read --n-max\n"),
        (["simulate", "--kind", "pareto", "--reference", "0"], None, "usage error: --kind pareto does not read --reference\n"),
    ],
    ids=["unreadable-config", "config-line-without-equals", "config-not-utf8", "config-input-nul", "config-outdir-nul",
         "bad-boolean", "three-part-fit-range",
         "bad-crash", "analyze-without-crash", "ingest-without-input", "ingest-seed", "ingest-svg",
         "collapse-seed", "simulate-thresholds", "simulate-window-days", "simulate-window-minutes",
         "pareto-p", "stationary-c-round-minutes", "omori-mu-count-rate", "pareto-grid-step",
         "pareto-horizon", "pareto-no-c-search", "pareto-resamples", "pareto-n-w", "pareto-n-max",
         "pareto-reference"],
)
def test_refused_setting_writes_nothing(minute_bars_path, tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "run.cfg").write_bytes(config.encode("latin-1"))
    argv = [arg.format(tmp=tmp_path, bars=minute_bars_path) for arg in argv]
    assert _run(*argv, "--outdir", str(tmp_path / "out")) == EXIT_USAGE
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_internal_error_exits_3_and_writes_nothing(minute_bars_path, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("planted failure")

    # the analysis names are bound once; a binding set beforehand is kept
    monkeypatch.setattr(cli, "detect_events", fail)
    assert _analyze(minute_bars_path, tmp_path / "out") == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: RuntimeError: planted failure\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--horizon", "--grid-step", "--bin-size"])
def test_infinite_setting_is_usage_error(minute_bars_path, tmp_path, capsys, flag):
    argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--resamples", "0", flag, "inf", "--outdir", str(tmp_path / "out")]
    assert _run(*argv) == EXIT_USAGE
    assert "'inf': must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--kind", "omori", "--p", "1.5", "--c", "0"], "simulate omori: c must be positive when p >= 1"),
        (["--kind", "stationary", "--rate", "0"], "simulate stationary: rate must be positive"),
        (["--kind", "pareto", "--mu", "0"], "simulate pareto: require mu > 0 and tau_min > 0"),
        (["--kind", "pareto", "--count", "-5"], "simulate pareto: count must be nonnegative"),
        (["--kind", "omori", "--p", "0.995"], "simulate omori: drawn event times coincide in float64; "
                                              "use c > 0 or minute rounding (--round-minutes)"),
        (["--kind", "pareto", "--mu", "0.001", "--count", "100"],
         "simulate pareto: a wait overflows float64: mu = 0.001 is too small for 100 draws"),
    ],
    ids=["omori-p1.5-c0", "stationary-rate0", "pareto-mu0", "pareto-count-5", "omori-p0.995-c0", "pareto-mu0.001"],
)
def test_bad_generator_parameter_is_usage_error(tmp_path, capsys, argv, message):
    # a pareto run has no bootstrap, and so no --resamples
    resamples = [] if "pareto" in argv else ["--resamples", "0"]
    assert _run("simulate", *argv, *resamples, "--outdir", str(tmp_path / "out")) == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--kind", "pareto", "--count", "1000000000000"], "simulate pareto: a count of 1e+12"),
        (["--kind", "omori", "--amplitude", "1e300", "--resamples", "0"],
         "simulate omori: an expected event count of 2e+302"),
        (["--kind", "stationary", "--sim-horizon", "1e15", "--resamples", "0"],
         "simulate stationary: an expected event count of 1e+15"),
    ],
    ids=["pareto-count", "omori-amplitude", "stationary-horizon"],
)
def test_catalog_over_the_cap_is_usage_error(tmp_path, argv, message):
    # these ended in an internal MemoryError or took the machine's memory
    run = _simulate_in_2gb(*argv, "--outdir", str(tmp_path / "out"))
    assert run.returncode == EXIT_USAGE, run.stderr
    assert f"usage error: {message} exceeds the cap of 4194304" in run.stderr
    assert not (tmp_path / "out").exists()


def test_draw_that_float64_absorbs_ends_empty(tmp_path):
    # horizon + c rounds to c: this draw used to run until memory ran out
    run = _simulate_in_2gb("--kind", "omori", "--c", "1e308", "--resamples", "0", "--outdir", str(tmp_path / "out"))
    assert run.returncode == EXIT_OK, run.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["synthetic"]["event_count"] == 0
    assert "catalog: too few events (0) for an Omori fit" in report["notes"]


def _simulate_in_2gb(*argv: str) -> subprocess.CompletedProcess:
    """``simulate *argv`` in a new interpreter with a 2 GB address space and
    a minute to run, so that a runaway draw fails fast."""
    resource = pytest.importorskip("resource")
    limit = 2 << 30
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys\nfrom aftershocks.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return subprocess.run(
        [sys.executable, "-c", code, "simulate", *argv],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


class TestSimulate:
    def test_simulate_only_report_sections(self, tmp_path):
        code = _run(
            "simulate", "--kind", "omori",
            "--p", "0.5", "--amplitude", "5", "--c", "0",
            "--sim-horizon", "10000", "--seed", "42", "--resamples", "100",
            "--outdir", str(tmp_path),
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert "sigma" not in report
        assert report["synthetic"]["kind"] == "omori"
        assert report["synthetic"]["event_count"] == 1006
        assert report["rng"]["algorithm"] == "pcg64:inverse-cdf"
        section = report["thresholds"][0]
        # end-to-end estimator recovery on the seeded catalog
        assert section["omori"]["p"] == pytest.approx(0.5, abs=0.05)
        assert section["markov"]["ci"][0] <= section["markov"]["sum"] <= section["markov"]["ci"][1]
        assert section["markov"]["ci_source"] == "bootstrap"
        # the search-cost diagnostic is reported for the least-squares fit only
        assert section["omori"]["evaluations"] > 0
        assert "evaluations" not in section["omori_mle"]

    def test_point_interval_is_labelled(self, tmp_path):
        code = _run(
            "simulate", "--kind", "omori", "--p", "0.5", "--amplitude", "5",
            "--sim-horizon", "10000", "--seed", "42", "--resamples", "0",
            "--outdir", str(tmp_path),
        )
        assert code == EXIT_OK
        markov = json.loads((tmp_path / "report.json").read_text())["thresholds"][0]["markov"]
        assert markov["ci"] == [markov["sum"], markov["sum"]]
        assert markov["ci_source"] == "point"

    def test_bin_below_one_minute_has_representative_zero(self, tmp_path):
        # with bin size 2 the continuous waits below tau = 1 fall in the bin
        # [-1, 1), whose geometric midpoint would be the root of a negative
        # number; the suite turns that RuntimeWarning into a failed run
        code = _run(
            "simulate", "--kind", "omori", "--p", "0.5", "--amplitude", "5", "--c", "0",
            "--sim-horizon", "10000", "--seed", "42", "--resamples", "0", "--bin-size", "2",
            "--svg", "--outdir", str(tmp_path),
        )
        assert code == EXIT_OK
        rows = (tmp_path / "waiting_catalog.csv").read_text().splitlines()
        assert rows[:2] == ["tau,count", "0,195"]
        # the least-squares fit and the log-scale chart leave that bin out
        lsq = json.loads((tmp_path / "report.json").read_text())["thresholds"][0]["waiting"]["lsq"]
        assert lsq["n_used"] == 35
        assert not re.search(r"nan", (tmp_path / "waiting_catalog.svg").read_text(), re.IGNORECASE)

    def test_fit_at_an_end_of_the_p_range_is_noted(self, tmp_path):
        # the stationary null has p = 0, below the searched range, so both
        # fits stop at its lower end
        assert _run(
            "simulate", "--kind", "stationary", "--sim-horizon", "3000", "--resamples", "0",
            "--outdir", str(tmp_path),
        ) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        section = report["thresholds"][0]
        assert section["omori"]["p"] == section["omori_mle"]["p"] == 0.05
        for key in ("omori", "omori_mle"):
            assert (
                f"catalog: {key} p = 0.05 is the lower end of the searched p range [0.05, 2.5]; "
                "the best-fitting p may lie beyond it"
            ) in report["notes"]

    def test_pareto_kind(self, tmp_path, capsys):
        code = _run(
            "simulate", "--kind", "pareto",
            "--mu", "0.95", "--count", "5000", "--seed", "3",
            "--outdir", str(tmp_path),
        )
        assert code == EXIT_OK
        # the section has no event_count; the summary counts its waits
        assert capsys.readouterr().out.startswith("catalog: 5000 waits  mu_lsq=")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["synthetic"]["tau_count"] == 5000
        assert report["thresholds"][0]["waiting"]["mle"]["mu"] == pytest.approx(0.95, abs=0.05)

    def test_pareto_lsq_failure_is_reported(self, tmp_path, capsys):
        # the bin midpoints overflow, so the LSQ slope is NaN: it used to reach
        # the report as "mu": null and fail the summary with a TypeError
        code = _run(
            "simulate", "--kind", "pareto", "--mu", "0.01", "--count", "100", "--outdir", str(tmp_path),
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("catalog: 100 waits  mu_mle=0.008264\n")
        waiting = json.loads((tmp_path / "report.json").read_text())["thresholds"][0]["waiting"]
        assert waiting["lsq_error"] == "histogram slope nan gives no finite mu"
        assert "lsq" not in waiting

    def test_draw_that_float64_absorbs_is_an_empty_catalog(self, tmp_path):
        code = _run("simulate", "--kind", "omori", "--c", "1e40", "--resamples", "0", "--outdir", str(tmp_path))
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["synthetic"]["event_count"] == 0
        assert "catalog: too few events (0) for an Omori fit" in report["notes"]
        assert (tmp_path / "events_catalog.csv").read_text() == "t_minutes\n"

    def test_too_few_resamples_are_refused(self, tmp_path, capsys):
        # 1-99 resamples used to skip the bootstrap with a note and report a
        # verdict from a zero-width point interval
        outdir = str(tmp_path / "out")
        assert _run("simulate", "--kind", "omori", "--resamples", "50", "--outdir", outdir) == EXIT_USAGE
        assert "argument --resamples: '50': must be 0 (no bootstrap) or at least 100" in capsys.readouterr().err
        (tmp_path / "run.cfg").write_text("resamples = 99\n")
        assert _run("simulate", "--kind", "omori", "--config", str(tmp_path / "run.cfg"), "--outdir", outdir) == EXIT_USAGE
        assert "run.cfg:1: '99': must be 0 (no bootstrap) or at least 100" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_too_few_events_for_the_rate_mle_are_noted(self, tmp_path):
        # the LSQ fit reads the whole catalog, the rate MLE only (0, --horizon]
        assert _run(
            "simulate", "--kind", "omori", "--p", "0.5", "--amplitude", "1", "--sim-horizon", "10000",
            "--horizon", "5", "--resamples", "0", "--outdir", str(tmp_path),
        ) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert "omori" in report["thresholds"][0] and "omori_mle" not in report["thresholds"][0]
        assert ("catalog: rate-MLE cross-check unavailable "
                "(need at least 10 events in (0, horizon], got 5)") in report["notes"]

    def test_one_event_catalog_has_no_waiting_section(self, tmp_path):
        assert _run(
            "simulate", "--kind", "omori", "--p", "0.5", "--amplitude", "0.002", "--sim-horizon", "10000",
            "--resamples", "0", "--seed", "2", "--outdir", str(tmp_path),
        ) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["thresholds"][0] == {"event_count": 1, "events_csv": "events_catalog.csv", "label": "catalog"}
        assert "catalog: no waiting times to histogram" in report["notes"]

    def test_negative_gamma_scale_factor_chart(self, tmp_path):
        # the collapse law fitted here has gamma < 0, infinite at n_w = 0
        assert _run(
            "simulate", "--kind", "omori", "--p", "0.6", "--amplitude", "5",
            "--sim-horizon", "8000", "--round-minutes", "--c-search", "--seed", "5",
            "--resamples", "100", "--svg", "--outdir", str(tmp_path),
        ) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["thresholds"][0]["correlation"]["gamma"] < 0
        svg = (tmp_path / "scale_factors_catalog.svg").read_text()
        assert svg.count("<polyline") == 2
        assert not re.search(r"inf|nan", svg, re.IGNORECASE)

    @pytest.mark.parametrize(
        "kind,argv,params",
        [
            ("omori", ["--p", "0.6", "--sim-horizon", "3000", "--round-minutes", "--resamples", "0"],
             {"amplitude": 5.0, "c": 0.0, "horizon": 3000.0, "p": 0.6, "round_to_minutes": True}),
            ("stationary", ["--sim-horizon", "2000", "--resamples", "0"], {"horizon": 2000.0, "rate": 1.0}),
            ("pareto", ["--mu", "0.8", "--count", "2000"], {"count": 2000, "mu": 0.8, "tau_min": 1.0}),
        ],
        ids=["omori", "stationary", "pareto"],
    )
    def test_echo_of_every_kind(self, tmp_path, kind, argv, params):
        # synthetic.params holds exactly the kind's parameters, given or
        # defaulted; config.simulate echoes the kind and all nine
        assert _run("simulate", "--kind", kind, *argv, "--outdir", str(tmp_path)) == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["synthetic"]["params"] == params
        defaults = {
            "p": 0.5, "amplitude": 5.0, "c": 0.0, "horizon": 10000.0, "mu": 0.95,
            "tau_min": 1.0, "count": 10000, "rate": 1.0, "round_to_minutes": False,
        }
        assert report["config"]["simulate"] == {"kind": kind, **defaults, **params}

    def test_golden_report(self, tmp_path, monkeypatch, golden_report_path):
        # byte-for-byte reproduction of the first verified synthetic run
        monkeypatch.chdir(tmp_path)
        code = _run(
            "simulate", "--kind", "omori",
            "--p", "0.5", "--amplitude", "5", "--c", "0",
            "--sim-horizon", "10000", "--seed", "42", "--resamples", "100",
            "--outdir", "golden-run",
        )
        assert code == EXIT_OK
        produced = (tmp_path / "golden-run" / "report.json").read_bytes()
        assert produced == golden_report_path.read_bytes()
        assert _csv_digests(tmp_path / "golden-run") == GOLDEN_SIMULATE_CSV

    def test_schema_stable_against_golden(self, tmp_path, golden_report_path):
        # every field path in the golden report shows up in any same-kind run
        code = _run(
            "simulate", "--kind", "omori",
            "--p", "0.6", "--amplitude", "8", "--c", "0",
            "--sim-horizon", "8000", "--seed", "99", "--resamples", "100",
            "--outdir", str(tmp_path),
        )
        assert code == EXIT_OK
        fresh = json.loads((tmp_path / "report.json").read_text())
        golden = json.loads(golden_report_path.read_text())

        def field_paths(obj, prefix=""):
            paths = set()
            if isinstance(obj, dict):
                for key, value in obj.items():
                    if prefix == "thresholds[].correlation.scale_factors":
                        continue  # keys there are data (n_w values), not schema
                    paths.add(f"{prefix}.{key}" if prefix else key)
                    paths |= field_paths(value, f"{prefix}.{key}" if prefix else key)
            elif isinstance(obj, list):
                for value in obj:
                    paths |= field_paths(value, f"{prefix}[]")
            return paths

        missing = field_paths(golden) - field_paths(fresh)
        missing = {p for p in missing if not p.startswith("config")}  # config echoes flags
        assert not missing


@pytest.mark.parametrize("svg", [False, True], ids=["csv", "svg"])
@pytest.mark.parametrize("command", ["analyze", "simulate", "collapse"])
def test_manifest_lists_every_file_with_report_last(minute_bars_path, tmp_path, command, svg):
    flags = ["--svg"] if svg else []
    run = tmp_path / "run"
    if command == "analyze":
        assert _analyze(minute_bars_path, run, "--resamples", "0", *flags) == EXIT_OK
    else:
        sim = run if command == "simulate" else tmp_path / "sim"
        assert _run(
            "simulate", "--kind", "omori", "--sim-horizon", "3000", "--resamples", "0",
            "--outdir", str(sim), *(flags if command == "simulate" else []),
        ) == EXIT_OK
    if command == "collapse":
        assert _run(
            "collapse", "--events", str(tmp_path / "sim" / "events_catalog.csv"), "--n-w", "0,10,20",
            "--n-max", "30", "--outdir", str(run), *flags,
        ) == EXIT_OK
    artifacts = json.loads((run / "report.json").read_text())["artifacts"]
    assert set(artifacts) == {p.name for p in run.iterdir() if p.is_file()}
    assert any(name.endswith(".svg") for name in artifacts) == svg
    assert artifacts == sorted(artifacts[:-1]) + ["report.json"]


class TestCollapseCommand:
    def test_collapse_from_events_csv(self, tmp_path):
        assert _run(
            "simulate", "--kind", "stationary", "--rate", "1", "--sim-horizon", "3000",
            "--seed", "4", "--resamples", "0", "--outdir", str(tmp_path / "sim"),
        ) == EXIT_OK
        code = _run(
            "collapse",
            "--events", str(tmp_path / "sim" / "events_catalog.csv"),
            "--n-w", "0,10,20",
            "--n-max", "30",
            "--outdir", str(tmp_path / "col"),
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "col" / "report.json").read_text())
        factors = report["correlation"]["scale_factors"]
        assert factors["0"] == 1.0
        assert set(factors) == {"0", "10", "20"}
        assert (tmp_path / "col" / "scale_factors_catalog.csv").exists()

    def test_golden_collapse_report(self, tmp_path, monkeypatch, golden_collapse_report_path):
        # byte-for-byte reproduction of a verified collapse run; the law fit
        # fails on this stationary catalog, so the report carries its note
        monkeypatch.chdir(tmp_path)
        assert _run(
            "simulate", "--kind", "stationary", "--rate", "1", "--sim-horizon", "3000",
            "--seed", "4", "--resamples", "0", "--outdir", "sim",
        ) == EXIT_OK
        assert _run(
            "collapse", "--events", "sim/events_catalog.csv", "--n-w", "0,10,20", "--n-max", "30",
            "--svg", "--outdir", "col",
        ) == EXIT_OK
        produced = (tmp_path / "col" / "report.json").read_bytes()
        assert produced == golden_collapse_report_path.read_bytes()
        assert _csv_digests(tmp_path / "col") == GOLDEN_COLLAPSE_CSV

    @pytest.mark.parametrize("row,cell", [(100, "nan"), (199, "inf")])
    def test_non_finite_event_time_is_data_error(self, tmp_path, capsys, row, cell):
        # such a row used to pass the catalog type and end in an unrelated
        # "no overlap with the reference" error
        cells = [str(t) for t in range(200)]
        cells[row] = cell
        events_csv = tmp_path / "events.csv"
        events_csv.write_text("t_minutes\n" + "".join(f"{c}\n" for c in cells))
        assert _run("collapse", "--events", str(events_csv), "--outdir", str(tmp_path / "col")) == EXIT_DATA
        assert capsys.readouterr().err == "data error: event times must be finite\n"
        assert not (tmp_path / "col").exists()

    def test_malformed_event_row_is_data_error(self, tmp_path, capsys):
        events_csv = tmp_path / "events.csv"
        events_csv.write_text("t_minutes\n1\nabc\n3\n")
        assert _run("collapse", "--events", str(events_csv), "--outdir", str(tmp_path / "col")) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {events_csv}: malformed table at line 3 (could not convert string to float: 'abc')\n"
        )
        assert not (tmp_path / "col").exists()

    def test_too_few_events_is_data_error(self, tmp_path, capsys):
        events_csv = tmp_path / "tiny.csv"
        events_csv.write_text("t_minutes\n" + "".join(f"{t}\n" for t in range(40)))
        code = _run("collapse", "--events", str(events_csv), "--outdir", str(tmp_path / "col"))
        assert code == EXIT_DATA
        assert "too short" in capsys.readouterr().err


_INPUT_FLAGS = [
    "--input", "--delimiter", "--date-column", "--time-column", "--price-column",
    "--date-format", "--time-format", "--crash",
]
# analyze only: simulate draws its catalog, with no price window or thresholds
_WINDOW_FLAGS = ["--window-days", "--window-minutes", "--thresholds"]
_FIT_FLAGS = [
    "--grid-step", "--horizon", "--c-search", "--no-c-search", "--bin-size", "--fit-range", "--n-w",
    "--n-max", "--reference", "--resamples",
]
_COMMON_FLAGS = ["--config", "--outdir", "--seed", "--svg", "--no-svg", "-v", "--verbose"]
_SIMULATE_FLAGS = [
    "--kind", "--p", "--amplitude", "--c", "--sim-horizon", "--mu", "--tau-min", "--count",
    "--rate", "--round-minutes",
]


class TestHelp:
    @pytest.mark.parametrize(
        "command,flags",
        [
            # ingest renders no chart and draws nothing; collapse draws nothing
            ("ingest", _INPUT_FLAGS + ["--config", "--outdir", "-v", "--verbose"]),
            ("analyze", _INPUT_FLAGS + _WINDOW_FLAGS + _FIT_FLAGS + _COMMON_FLAGS),
            ("simulate", _SIMULATE_FLAGS + _FIT_FLAGS + _COMMON_FLAGS),
            ("collapse", ["--events", "--n-w", "--n-max", "--reference", "--config", "--outdir", "--svg",
                          "--no-svg", "-v", "--verbose"]),
            ("report", ["--outdir"]),
        ],
    )
    def test_help_lists_every_flag_in_order(self, capsys, command, flags):
        assert _run(command, "--help") == EXIT_OK
        tokens = re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out)
        assert list(dict.fromkeys(t for t in tokens if t in flags)) == flags


class TestReportCommand:
    @pytest.mark.parametrize("command", ["simulate", "collapse"])
    def test_rerender_is_idempotent(self, tmp_path, command):
        sim = tmp_path / "sim"
        assert _run(
            "simulate", "--kind", "omori", "--p", "0.5", "--amplitude", "5",
            "--sim-horizon", "5000", "--seed", "2", "--resamples", "0",
            "--svg", "--outdir", str(sim),
        ) == EXIT_OK
        run = sim
        if command == "collapse":
            run = tmp_path / "col"
            assert _run(
                "collapse", "--events", str(sim / "events_catalog.csv"), "--n-w", "0,10,20",
                "--n-max", "30", "--svg", "--outdir", str(run),
            ) == EXIT_OK
        first = _tree_digest(run)
        svgs = sorted(run.glob("*.svg"))
        assert svgs
        for svg in svgs:
            svg.unlink()
        assert _run("report", "--outdir", str(run)) == EXIT_OK
        assert _tree_digest(run) == first

    def test_missing_report_is_data_error(self, tmp_path):
        assert _run("report", "--outdir", str(tmp_path)) == EXIT_DATA

    def test_table_narrower_than_its_chart_is_data_error(self, tmp_path, capsys):
        # rows as wide as their header, but the header lacks the model column
        run = tmp_path / "sim"
        assert _run("simulate", "--kind", "omori", "--sim-horizon", "2000", "--resamples", "0", "--outdir", str(run)) == EXIT_OK
        (run / "omori_catalog.csv").write_text("t,n_empirical\n0,0\n")
        capsys.readouterr()
        assert _run("report", "--outdir", str(run)) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {run / 'omori_catalog.csv'}: expected header 't,n_empirical,n_model'\n"

    def test_table_wider_than_its_chart_is_charted_without_the_extra_column(self, tmp_path):
        # the aging chart groups three cells a row; a fourth column used to end
        # in "malformed report (ValueError: too many values to unpack)"
        run = tmp_path / "sim"
        argv = ["simulate", "--kind", "stationary", "--sim-horizon", "3000", "--resamples", "0", "--svg"]
        assert _run(*argv, "--outdir", str(run)) == EXIT_OK
        chart = (run / "aging_catalog.svg").read_bytes()
        table = run / "corr_catalog.csv"
        table.write_text("".join(f"{line},extra\n" for line in table.read_text().splitlines()))
        (run / "aging_catalog.svg").unlink()
        assert _run("report", "--outdir", str(run)) == EXIT_OK
        assert (run / "aging_catalog.svg").read_bytes() == chart

    def test_report_json_directory_is_data_error(self, tmp_path, capsys):
        (tmp_path / "report.json").mkdir()
        assert _run("report", "--outdir", str(tmp_path)) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: cannot read {tmp_path / 'report.json'}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize(
        "name,content,message",
        [
            ("report.json", b"{not json", "report.json: not a JSON report"),
            ("report.json", b"\xff\xfe", "report.json: not UTF-8 text (invalid start byte at byte offset 0)"),
            ("report.json", b"[]", "report.json: not a JSON object"),
            ("omori_catalog.csv", None, "cannot read"),
            ("omori_catalog.csv", b"t,n_empirical,n_model\n0,x,0\n", "omori_catalog.csv: malformed table"),
            ("omori_catalog.csv", b"t,n_empirical,n_model\n0,0,0\n1,2\n",
             "omori_catalog.csv: malformed table at line 3 (2 cells under a header of 3)"),
            ("report.json", b'{"thresholds": 5}', "report.json: malformed report (TypeError"),
            ("report.json", b'{"thresholds": [{}]}', "report.json: malformed report (KeyError"),
            ("report.json", b'{"thresholds": [{"label": "x", "omori_csv": 3}]}', "report.json: malformed report (TypeError"),
            (
                "report.json",
                b'{"thresholds": [{"label": "catalog", "waiting": '
                b'{"histogram_csv": "waiting_catalog.csv", "lsq": {"amplitude": "a", "mu": 0.5}}}]}',
                "report.json: malformed report (TypeError",
            ),
            # a label names SVGs and a table name is read: each must stay in the run directory
            (
                "report.json",
                b'{"thresholds": [{"label": "../escaped"}]}',
                "report.json: malformed report (ValueError: '../escaped' is not a plain file name",
            ),
            (
                "report.json",
                b'{"thresholds": [{"label": "catalog", "omori_csv": "/etc/hostname"}]}',
                "report.json: malformed report (ValueError: '/etc/hostname' is not a plain file name",
            ),
        ],
        ids=[
            "not-json", "not-utf8", "not-object", "missing-csv", "bad-cell", "short-row",
            "thresholds-not-list", "section-without-label", "csv-name-not-string", "amplitude-not-number",
            "label-escapes", "csv-name-absolute",
        ],
    )
    def test_malformed_run_directory_is_data_error(self, tmp_path, capsys, name, content, message):
        run = tmp_path / "sim"
        assert _run(
            "simulate", "--kind", "omori", "--sim-horizon", "2000", "--seed", "2",
            "--resamples", "0", "--outdir", str(run),
        ) == EXIT_OK
        capsys.readouterr()
        if content is None:
            (run / name).unlink()
        else:
            (run / name).write_bytes(content)
        assert _run("report", "--outdir", str(run)) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and name in err
