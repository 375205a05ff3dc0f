"""Mutated input files end in a usage or data error, never an internal one.

Each case edits one input file of a run that succeeds: the config file of
an ``ingest``, the events CSV of a ``collapse``, or ``report.json`` or one
table of a ``report`` run directory. The edits are byte deletions,
insertions and replacements from a small alphabet of bytes that CSV, the
config format, UTF-8 or a path treat specially, plus digits and letters.
"""

import random
import shutil
from pathlib import Path

from aftershocks.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from aftershocks.events import write_events_csv
from aftershocks.synth import gen_stationary

CASES = 100  # per input kind
_ALPHABET = [b"\0", b"\xff", b'"', b",", b"=", b"\r", b"\n", *(bytes([c]) for c in b"0159aeEnZ")]


def _mutate(body: bytes, rng: random.Random) -> bytes:
    """``body`` with one to three byte deletions, insertions or replacements."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(body) + 1)
        op = rng.choice(("delete", "insert", "replace"))
        byte = b"" if op == "delete" else rng.choice(_ALPHABET)
        body = body[:at] + byte + body[at + (op != "insert") :]
    return body


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _mutated_runs(path: Path, argv: list[str], capsys):
    """Run ``argv`` on ``path`` as it is, then on each of ``CASES`` mutations
    of it; assert each exit code and that a failed run leaves no ``out``."""
    pristine = path.read_bytes()
    rng = random.Random(7)
    for body in [pristine] + [_mutate(pristine, rng) for _ in range(CASES)]:
        path.write_bytes(body)
        code = main(argv + ["--outdir", "out"])
        err = capsys.readouterr().err
        assert code == EXIT_OK if body == pristine else code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), (body, err)
        assert Path("out").exists() == (code == EXIT_OK), (body, err)
        shutil.rmtree("out", ignore_errors=True)


def test_mutated_ingest_config(minute_bars_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bars.csv").write_bytes(minute_bars_path.read_bytes())
    Path("run.cfg").write_bytes(b"input = bars.csv\ndelimiter = ;\ncrash = 2014-12-15 13:00\ndate_column = DATE\n")
    _mutated_runs(Path("run.cfg"), ["ingest", "--config", "run.cfg"], capsys)


def test_mutated_events_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_events_csv(gen_stationary(rate=1.0, horizon=300.0, seed=4), "events.csv")
    _mutated_runs(Path("events.csv"), ["collapse", "--events", "events.csv", "--n-w", "0,10", "--n-max", "20"], capsys)


def test_mutated_run_directory(tmp_path, capsys):
    run = tmp_path / "run"
    assert main([
        "simulate", "--kind", "omori", "--sim-horizon", "2000", "--seed", "2", "--resamples", "0",
        "--svg", "--outdir", str(run),
    ]) == EXIT_OK
    pristine = _tree(run)
    names = sorted(name for name in pristine if not name.endswith(".svg"))
    rng = random.Random(7)
    for _ in range(CASES):
        name = rng.choice(names)
        body = _mutate(pristine[name], rng)
        (run / name).write_bytes(body)
        before = _tree(run)
        code = main(["report", "--outdir", str(run)])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), (name, body, err)
        if code != EXIT_OK:
            assert _tree(run) == before, (name, body)
        shutil.rmtree(run)
        run.mkdir()
        for other, content in pristine.items():
            (run / other).write_bytes(content)
