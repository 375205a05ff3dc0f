import hashlib
import json
from pathlib import Path

import pytest

from aftershocks.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

CRASH = "2014-12-15 13:00"


def _run(*argv):
    return main(list(argv))


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
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

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble = 3\n")
        assert _run("analyze", "--config", str(cfg)) == EXIT_USAGE

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

    def test_too_few_events_is_data_error(self, tmp_path, capsys):
        events_csv = tmp_path / "tiny.csv"
        events_csv.write_text("t_minutes\n" + "".join(f"{t}\n" for t in range(40)))
        code = _run("collapse", "--events", str(events_csv), "--outdir", str(tmp_path / "col"))
        assert code == EXIT_DATA
        assert "too short" in capsys.readouterr().err


class TestReportCommand:
    def test_rerender_is_idempotent(self, tmp_path):
        assert _run(
            "simulate", "--kind", "omori", "--p", "0.5", "--amplitude", "5",
            "--sim-horizon", "5000", "--seed", "2", "--resamples", "0",
            "--svg", "--outdir", str(tmp_path),
        ) == EXIT_OK
        first = _tree_digest(tmp_path)
        assert _run("report", "--outdir", str(tmp_path)) == EXIT_OK
        assert _tree_digest(tmp_path) == first

    def test_missing_report_is_data_error(self, tmp_path):
        assert _run("report", "--outdir", str(tmp_path)) == EXIT_DATA
