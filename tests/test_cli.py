import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from aftershocks import cli
from aftershocks.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, RunConfig, main

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
    "n_max": "0",
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
        assert re.search(r"must be (positive|nonnegative)", capsys.readouterr().err)
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

    def test_stamp_text_is_numpy_iso_text(self):
        # years 1 to 9999, stamps either side of 1970 and a day's first and last second
        first, last = np.array(["0001-01-01T00:00:00", "9999-12-31T23:59:59"], "datetime64[s]").astype(np.int64)
        seconds = np.random.default_rng(5).integers(first, last, 2000)
        stamps = np.concatenate([seconds, [first, last, -1, 0, 86399, 86400]]).astype("datetime64[s]")
        dates, clocks = cli._iso_date_and_time(stamps)
        assert [f"{d}T{c}" for d, c in zip(dates, clocks)] == np.datetime_as_string(stamps, unit="s").tolist()

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


def test_analyze_does_not_import_numpy_ma(minute_bars_path, tmp_path):
    # a bare np.unique imports numpy.ma on numpy 2.x (about 11 ms and 1 MB per
    # run); the short n_w and n_max let this catalog reach the collapse, and
    # the minute-floored catalog covers gen_omori's rounding
    code = (
        "import sys\n"
        "from aftershocks import OmoriGenSpec, gen_omori\n"
        "from aftershocks.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "gen_omori(OmoriGenSpec(p=0.6, amplitude=8.0, c=0.0, horizon=3000.0, seed=1, round_to_minutes=True))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--resamples", "100", "--n-w", "0,10", "--n-max", "20", "--outdir", str(tmp_path / "out")]
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "correlation" in report["thresholds"][0]


@pytest.mark.parametrize("text", ["-1,", "0,", "nan,5", "inf,"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_fit_range_lower_end_must_be_positive(minute_bars_path, tmp_path, capsys, text, source):
    # the waiting-time MLE takes log(tau / lo); a lower end <= 0 used to end
    # in an internal error (exit 3)
    argv = ["analyze", "--input", str(minute_bars_path), "--delimiter", ";", "--crash", CRASH,
            "--resamples", "0", "--outdir", str(tmp_path / "out")]
    if source == "flag":
        argv.append(f"--fit-range={text}")
    else:
        (tmp_path / "run.cfg").write_text(f"fit_range = {text}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert _run(*argv) == EXIT_USAGE
    assert f"{text!r}: lower end must be finite and positive" in capsys.readouterr().err
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
         "events.csv: malformed event row at line 4 (field larger than field limit (131072))"),
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
    ],
    ids=["omori-p1.5-c0", "stationary-rate0", "pareto-mu0", "pareto-count-5"],
)
def test_bad_generator_parameter_is_usage_error(tmp_path, capsys, argv, message):
    assert _run("simulate", *argv, "--resamples", "0", "--outdir", str(tmp_path / "out")) == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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

    def test_pareto_kind(self, tmp_path):
        code = _run(
            "simulate", "--kind", "pareto",
            "--mu", "0.95", "--count", "5000", "--seed", "3",
            "--outdir", str(tmp_path),
        )
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["synthetic"]["tau_count"] == 5000
        assert report["thresholds"][0]["waiting"]["mle"]["mu"] == pytest.approx(0.95, abs=0.05)

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
            ("omori", ["--p", "0.6", "--sim-horizon", "3000", "--round-minutes"],
             {"amplitude": 5.0, "c": 0.0, "horizon": 3000.0, "p": 0.6, "round_to_minutes": True}),
            ("stationary", ["--sim-horizon", "2000"], {"horizon": 2000.0, "rate": 1.0}),
            ("pareto", ["--mu", "0.8", "--count", "2000"], {"count": 2000, "mu": 0.8, "tau_min": 1.0}),
        ],
        ids=["omori", "stationary", "pareto"],
    )
    def test_echo_of_every_kind(self, tmp_path, kind, argv, params):
        # synthetic.params holds exactly the kind's parameters, given or
        # defaulted; config.simulate echoes the kind and all nine
        assert _run("simulate", "--kind", kind, *argv, "--resamples", "0", "--outdir", str(tmp_path)) == EXIT_OK
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
_ANALYSIS_FLAGS = [
    "--window-days", "--window-minutes", "--thresholds", "--grid-step", "--horizon",
    "--c-search", "--no-c-search", "--bin-size", "--fit-range", "--n-w", "--n-max",
    "--reference", "--resamples",
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
            ("ingest", _INPUT_FLAGS + _COMMON_FLAGS),
            ("analyze", _INPUT_FLAGS + _ANALYSIS_FLAGS + _COMMON_FLAGS),
            ("simulate", _SIMULATE_FLAGS + _ANALYSIS_FLAGS + _COMMON_FLAGS),
            ("collapse", ["--events", "--n-w", "--n-max", "--reference"] + _COMMON_FLAGS),
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

    @pytest.mark.parametrize(
        "name,content,message",
        [
            ("report.json", b"{not json", "report.json: not a JSON report"),
            ("report.json", b"\xff\xfe", "report.json: not a JSON report"),
            ("report.json", b"[]", "report.json: not a JSON object"),
            ("omori_catalog.csv", None, "cannot read"),
            ("omori_catalog.csv", b"t,n_empirical,n_model\n0,x,0\n", "omori_catalog.csv: malformed table"),
        ],
        ids=["not-json", "not-utf8", "not-object", "missing-csv", "bad-cell"],
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
