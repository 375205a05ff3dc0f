"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Estimator-recovery criteria run the seeded generators as oracles; catalogs
whose nominal amplitude cannot physically reach the required event count
are scaled up (superposing k identical inhomogeneous Poisson processes
multiplies the amplitude by k and changes nothing else), and recovery is
asserted relative to the scaled truth.
"""

import hashlib
import os
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from aftershocks import (
    EventSequence,
    aging_curves,
    build_histogram,
    collapse,
    event_corr,
    fit_f,
    fit_mu,
    fit_mu_mle,
    fit_omori,
    gen_omori,
    gen_pareto_waits,
    gen_stationary,
    markov_relation,
    omori_model,
)
from aftershocks.cli import main
from aftershocks.correlation import CorrelationCurve


def _verdict(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


@pytest.mark.parametrize(
    "p_true,a_nominal,c_true,scale,horizon,grid_step",
    [
        (0.46, 6.24, 0.0, 4.0, 200_000.0, 5.0),
        (1.0, 2.0, 10.0, 1000.0, 20_000.0, 1.0),
        (1.5, 5.0, 5.0, 2000.0, 20_000.0, 1.0),
    ],
)
def test_criterion_1_omori_recovery(p_true, a_nominal, c_true, scale, horizon, grid_step):
    a_true = a_nominal * scale
    hits = 0
    slowest = 0.0
    for seed in range(10):
        ev = gen_omori(p=p_true, amplitude=a_true, c=c_true, horizon=horizon, seed=seed)
        assert len(ev) >= 2000
        start = time.perf_counter()
        fit = fit_omori(ev, grid_step=grid_step, horizon=horizon, c_search=True)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        if abs(fit.p - p_true) <= 0.05 and abs(fit.amplitude - a_true) / a_true <= 0.15:
            hits += 1
    ok = hits >= 9 and slowest < 10.0
    _verdict(
        f"1 omori recovery p={p_true} ({hits}/10 seeds, slowest fit {slowest:.2f}s)", ok
    )


@pytest.mark.parametrize("mu_true", [0.94, 0.96, 1.5])
def test_criterion_2_waiting_recovery(mu_true):
    mle_hits = 0
    lsq_hits = 0
    # LSQ range ends where the expected unit-bin count drops to ~20
    lsq_hi = (10_000 * mu_true / 20.0) ** (1.0 / (1.0 + mu_true))
    for seed in range(10):
        waits = gen_pareto_waits(mu=mu_true, tau_min=1.0, count=10_000, seed=seed)
        mle = fit_mu_mle(waits, fit_range=(1.0, None))
        mle_hits += abs(mle.mu - mu_true) <= 0.05
        lsq = fit_mu(build_histogram(waits, 1.0), fit_range=(1.0, lsq_hi))
        lsq_hits += abs(lsq.mu - mu_true) <= 0.10
    ok = mle_hits >= 9 and lsq_hits >= 9
    _verdict(f"2 waiting recovery mu={mu_true} (MLE {mle_hits}/10, LSQ {lsq_hits}/10)", ok)


def test_criterion_3_branch_continuity():
    worst = 0.0
    for t in (1.0, 10.0, 1e3, 1e5):
        base = omori_model(t, 1.0, 1.0, 1.0)
        for eps in (1e-8, -1e-8):
            rel = abs(omori_model(t, 1.0 + eps, 1.0, 1.0) - base) / base
            worst = max(worst, rel)
    _verdict(f"3 branch continuity (worst rel dev {worst:.2e})", worst < 1e-6)


def test_criterion_4_correlation_normalization():
    catalogs = [
        gen_stationary(rate=1.0, horizon=500.0, seed=1),
        gen_omori(p=0.5, amplitude=5.0, c=0.0, horizon=2000.0, seed=2),
        EventSequence(times=np.array([0.0, 1.0, 5.0])),
    ]
    worst = 0.0
    for ev in catalogs:
        for n_w in range(0, len(ev) - 2):
            worst = max(worst, abs(event_corr(ev.times, n_w, n_w) - 1.0))
    _verdict(f"4 correlation normalization (worst |C-1| {worst:.2e})", worst <= 1e-12)


def test_criterion_5_stationarity_null():
    ev = gen_stationary(rate=1.0, horizon=10_500.0, seed=7)
    assert len(ev) >= 10_000
    curves = aging_curves(ev.times, (0, 10, 20, 30, 40, 50), 60)
    worst = 0.0
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            worst = max(worst, float(np.max(np.abs(curves[i].c - curves[j].c))))
    _verdict(f"5 stationarity null (worst pairwise sup-norm {worst:.2e})", worst < 0.05)


def test_criterion_6_collapse_oracle():
    a_true, gamma_true = 0.005, 0.984
    n = np.arange(61)
    curves = []
    for n_w in (0, 10, 20, 30, 40, 50):
        f_star = a_true * n_w**gamma_true + 1.0
        curves.append(CorrelationCurve(n_w=n_w, c=np.exp(-(n / f_star) / 25.0)))
    result = collapse(curves, reference_n_w=0)
    a_hat, gamma_hat = fit_f(result.scale_factors)
    a_err = abs(a_hat - a_true) / a_true
    g_err = abs(gamma_hat - gamma_true) / gamma_true
    _verdict(
        f"6 collapse oracle (a err {a_err:.2%}, gamma err {g_err:.2%})",
        a_err <= 0.05 and g_err <= 0.05,
    )


def test_criterion_7_markov_arithmetic():
    half = 0.39  # any half-width below 0.4 must flag the violation
    check = markov_relation(0.4642, 0.9413, (1.4055 - half, 1.4055 + half))
    ok = (
        check.sum == pytest.approx(1.4055, abs=1e-12)
        and check.verdict == "violated"
        and markov_relation(1.2, 0.5, (1.69, 1.71)).verdict == "not-applicable"
    )
    _verdict(f"7 markov arithmetic (sum {check.sum:.4f}, verdict {check.verdict})", ok)


def test_criterion_8_pipeline_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [
        "simulate", "--kind", "omori",
        "--p", "0.5", "--amplitude", "5", "--c", "0",
        "--sim-horizon", "5000", "--seed", "11", "--resamples", "100",
        "--svg", "--outdir", "run",
    ]

    def digest() -> dict[str, str]:
        root = tmp_path / "run"
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir())
        }

    assert main(list(argv)) == 0
    first = digest()
    assert main(list(argv)) == 0
    ok = digest() == first and len(first) > 0
    _verdict(f"8 pipeline determinism ({len(first)} files byte-identical)", ok)


RUBUSD_ENV = "AFTERSHOCKS_RUBUSD_CSV"


@pytest.mark.skipif(
    not os.environ.get(RUBUSD_ENV),
    reason=f"set {RUBUSD_ENV} to the minute-bar RUB/USD export to enable",
)
def test_criterion_9_reference_dataset():
    from aftershocks.cli import RunConfig, run_pipeline

    config = RunConfig(
        input=Path(os.environ[RUBUSD_ENV]),
        delimiter=os.environ.get("AFTERSHOCKS_RUBUSD_DELIMITER", ";"),
        crash=datetime(2014, 12, 15, 20, 17),
        outdir=Path(os.environ.get("AFTERSHOCKS_OUTDIR", "rubusd-out")),
        resamples=0,
    )
    report = run_pipeline(config)
    sigma = report["sigma"]["sigma"]
    two, three = report["thresholds"][:2]
    checks = [
        abs(sigma - 0.00404) <= 0.0002,
        abs(two["omori"]["p"] - 0.4642) <= 0.05,
        abs(three["omori"]["p"] - 0.4238) <= 0.05,
        abs(two["waiting"]["lsq"]["mu"] - 0.9413) <= 0.1,
        abs(three["waiting"]["lsq"]["mu"] - 0.9625) <= 0.1,
    ]
    _verdict(f"9 reference dataset (sigma {sigma:.5f})", all(checks))
