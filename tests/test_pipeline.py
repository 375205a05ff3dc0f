"""End-to-end analyze-path check against a planted generative truth.

Synthetic minute bars are built so that |r(t)| spikes exactly at the
events of a seeded Omori catalog and stays at a tiny noise floor
everywhere else. The full CLI pipeline must then rediscover the planted
events at both thresholds and recover the planted decay exponent.
"""

import json
from datetime import datetime, timedelta

import numpy as np
import pytest

from aftershocks import gen_omori
from aftershocks.cli import EXIT_OK, main

P_TRUE = 0.6
AMPLITUDE = 8.0
HORIZON = 20_000
PRE_CRASH_MINUTES = 30
SPIKE = 0.05
NOISE = 1e-4


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    catalog = gen_omori(
        p=P_TRUE, amplitude=AMPLITUDE, c=0.0, horizon=float(HORIZON),
        seed=5, round_to_minutes=True,
    )
    planted_minutes = set(catalog.times.astype(int).tolist())

    start = datetime(2020, 1, 1, 0, 0)
    crash = start + timedelta(minutes=PRE_CRASH_MINUTES)
    total = PRE_CRASH_MINUTES + HORIZON + 2
    price = 100.0
    rows = []
    sign = 1.0
    for i in range(total):
        stamp = start + timedelta(minutes=i)
        rows.append((stamp, price))
        t_rel = i - PRE_CRASH_MINUTES
        if t_rel in planted_minutes:
            r = sign * SPIKE
            sign = -sign
        else:
            r = NOISE if i % 2 else -NOISE
        price *= 1.0 + r

    path = tmp_path_factory.mktemp("planted") / "bars.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("DATE,TIME,CLOSE\n")
        for stamp, x in rows:
            fh.write(f"{stamp:%Y%m%d},{stamp:%H%M%S},{x:.8f}\n")
    return path, crash, sorted(planted_minutes)


def test_analyze_recovers_planted_process(planted, tmp_path):
    path, crash, planted_minutes = planted
    code = main([
        "analyze",
        "--input", str(path),
        "--crash", crash.isoformat(sep=" "),
        "--window-minutes", str(HORIZON),
        "--resamples", "0",
        "--outdir", str(tmp_path),
    ])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())

    # sigma is dominated by the planted spikes
    m = len(planted_minutes)
    predicted_sigma = SPIKE * np.sqrt(m / (HORIZON + 1))
    assert report["sigma"]["sigma"] == pytest.approx(predicted_sigma, rel=0.05)

    for section in report["thresholds"]:
        # every planted spike clears both 2 and 3 sigma; nothing else comes close
        assert section["event_count"] == m
        assert section["omori"]["p"] == pytest.approx(P_TRUE, abs=0.05)

    two_sigma_events = (tmp_path / "events_thr2sigma.csv").read_text().splitlines()[1:]
    assert [int(float(v)) for v in two_sigma_events] == planted_minutes
