import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftershocks import (
    DataError,
    EventSequence,
    aging_curves,
    collapse,
    event_corr,
    fit_f,
    gen_stationary,
)
from aftershocks.correlation import (
    CorrelationCurve,
    write_collapsed_csv,
    write_curves_csv,
    write_scale_factors_csv,
)

F_TRUE = {10: 1.0482, 20: 1.0953, 30: 1.1419, 40: 1.1884, 50: 1.2346}


def _master(u):
    return np.exp(-np.asarray(u, dtype=float) / 25.0)


def _constructed_family(a=0.005, gamma=0.984, n_max=60):
    curves = []
    n = np.arange(n_max + 1)
    for n_w in (0, 10, 20, 30, 40, 50):
        f_star = a * n_w**gamma + 1.0
        curves.append(CorrelationCurve(n_w=n_w, n=n, c=_master(n / f_star)))
    return curves


class TestEventCorr:
    def test_equal_indices_give_exactly_one(self):
        times = np.cumsum(np.abs(np.sin(np.arange(1, 80))) + 0.1)
        for m in (0, 3, 17):
            assert event_corr(times, m, m) == 1.0

    def test_arithmetic_sequence_fully_correlated(self):
        times = np.arange(100, dtype=float)
        assert event_corr(times, 7, 2) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.Generator(np.random.PCG64(3))
        times = np.cumsum(rng.random(60) + 0.01)
        assert event_corr(times, 11, 4) == pytest.approx(event_corr(times, 4, 11), abs=1e-14)

    @given(
        alpha=st.floats(0.1, 50.0),
        beta=st.floats(-100.0, 100.0),
        m=st.integers(0, 10),
        n=st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, alpha, beta, m, n):
        rng = np.random.Generator(np.random.PCG64(17))
        times = np.cumsum(rng.random(40) + 0.05)
        base = event_corr(times, m, n)
        mapped = event_corr(alpha * times + beta, m, n)
        assert mapped == pytest.approx(base, abs=1e-9)

    def test_window_too_short(self):
        with pytest.raises(DataError, match="M=1"):
            event_corr(np.array([1.0, 2.0, 3.0]), 2, 1)

    def test_zero_variance_window(self):
        with pytest.raises(DataError, match="variance"):
            event_corr(np.array([5.0, 5.0, 5.0, 5.0]), 1, 0)

    def test_stationary_depends_only_on_lag(self):
        ev = gen_stationary(rate=1.0, horizon=5_000.0, seed=21)
        c1 = event_corr(ev.times, 20, 10)
        c2 = event_corr(ev.times, 30, 20)
        assert c1 == pytest.approx(c2, abs=0.01)


class TestAgingCurves:
    def test_every_curve_starts_at_one(self):
        ev = gen_stationary(rate=1.0, horizon=1_000.0, seed=2)
        for curve in aging_curves(ev, (0, 5, 10), 20):
            assert curve.c[0] == 1.0
            assert curve.n[0] == 0

    def test_ordered_by_n_w(self):
        ev = gen_stationary(rate=1.0, horizon=1_000.0, seed=2)
        curves = aging_curves(ev, (10, 0, 5), 20)
        assert [c.n_w for c in curves] == [0, 5, 10]

    def test_curve_values_bounded(self):
        ev = gen_stationary(rate=0.5, horizon=2_000.0, seed=5)
        for curve in aging_curves(ev, (0, 10), 30):
            assert np.all(np.abs(curve.c) <= 1.0 + 1e-12)

    def test_sequence_too_short(self):
        ev = EventSequence(times=np.arange(50, dtype=float) + 0.5)
        with pytest.raises(DataError, match="too short"):
            aging_curves(ev, (0, 10), 60)

    def test_stationary_curves_coincide(self):
        ev = gen_stationary(rate=1.0, horizon=3_000.0, seed=6)
        curves = aging_curves(ev, (0, 10, 20), 30)
        for other in curves[1:]:
            assert np.max(np.abs(other.c - curves[0].c)) < 0.05


class TestCollapse:
    def test_reference_fixed_at_unity(self):
        result = collapse(_constructed_family())
        assert result.scale_factors[0] == 1.0

    def test_identical_curve_gets_unit_factor(self):
        n = np.arange(61)
        curves = [
            CorrelationCurve(n_w=0, n=n, c=_master(n)),
            CorrelationCurve(n_w=10, n=n, c=_master(n)),
        ]
        result = collapse(curves)
        assert result.scale_factors[10] == 1.0
        assert result.collapse_residual == 0.0

    def test_constructed_family_recovered(self):
        result = collapse(_constructed_family())
        for n_w, f_true in F_TRUE.items():
            assert result.scale_factors[n_w] == pytest.approx(f_true, rel=0.005)

    def test_post_collapse_residual_no_worse_than_unit_scale(self):
        rng = np.random.Generator(np.random.PCG64(44))
        n = np.arange(61)
        curves = [CorrelationCurve(n_w=0, n=n, c=_master(n))]
        for n_w in (10, 20, 30):
            noisy = _master(n / (1.0 + 0.004 * n_w)) + 0.01 * rng.standard_normal(61)
            noisy[0] = 1.0
            curves.append(CorrelationCurve(n_w=n_w, n=n, c=np.clip(noisy, -1.0, 1.0)))
        result = collapse(curves)
        ref = curves[0]
        for curve in curves[1:]:
            f = result.scale_factors[curve.n_w]
            best = np.sum((curve.c - np.interp(curve.n / f, ref.n, ref.c)) ** 2)
            unit = np.sum((curve.c - ref.c) ** 2)
            assert best <= unit + 1e-12

    def test_short_reference_leaves_small_factors_unscored(self):
        # with a reference on n = 0..2, f = 0.2 maps only n = 0 inside its
        # support: too few points to score, so that factor cannot win
        n = np.arange(3)
        curves = [CorrelationCurve(n_w=0, n=n, c=_master(n)), CorrelationCurve(n_w=10, n=n, c=_master(n / 1.5))]
        assert collapse(curves).scale_factors[10] == pytest.approx(1.5, rel=0.01)

    def test_curve_with_one_point_has_no_overlap(self):
        n = np.arange(3)
        curves = [CorrelationCurve(n_w=0, n=n, c=_master(n)), CorrelationCurve(n_w=10, n=[0], c=[1.0])]
        with pytest.raises(DataError, match=r"no overlap with the reference after rescaling \(n_w=10\)"):
            collapse(curves)

    def test_missing_reference(self):
        with pytest.raises(ValueError):
            collapse(_constructed_family(), reference_n_w=5)

    def test_short_reference(self):
        curves = [CorrelationCurve(n_w=0, n=np.arange(2), c=np.ones(2))]
        with pytest.raises(DataError, match="3 points"):
            collapse(curves)


class TestFitF:
    def test_exact_law_to_machine_precision(self):
        factors = {n_w: 0.005 * n_w**0.984 + 1.0 for n_w in (10, 20, 30, 40, 50)}
        factors[0] = 1.0
        a, gamma = fit_f(factors)
        assert a == pytest.approx(0.005, rel=1e-12)
        assert gamma == pytest.approx(0.984, rel=1e-12)

    def test_linear_law(self):
        factors = {n_w: float(n_w + 1) for n_w in (1, 2, 5, 10)}
        a, gamma = fit_f(factors)
        assert a == pytest.approx(1.0, rel=1e-12)
        assert gamma == pytest.approx(1.0, rel=1e-12)

    def test_constructed_collapse_recovers_law(self):
        result = collapse(_constructed_family())
        a, gamma = fit_f(result.scale_factors)
        assert a == pytest.approx(0.005, rel=0.05)
        assert gamma == pytest.approx(0.984, rel=0.05)

    def test_flat_factors_rejected(self):
        with pytest.raises(DataError):
            fit_f({0: 1.0, 10: 1.0, 20: 0.99})


def test_csv_writers(tmp_path):
    curves = _constructed_family()
    result = collapse(curves)
    curves_csv = tmp_path / "curves.csv"
    collapsed_csv = tmp_path / "collapsed.csv"
    factors_csv = tmp_path / "factors.csv"
    write_curves_csv(curves, curves_csv)
    write_collapsed_csv(curves, result.scale_factors, collapsed_csv)
    write_scale_factors_csv(result.scale_factors, factors_csv)

    lines = curves_csv.read_text().splitlines()
    assert lines[0] == "n_w,n,C"
    assert len(lines) == 1 + 6 * 61

    lines = collapsed_csv.read_text().splitlines()
    assert lines[0] == "n_w,n_scaled,C"
    first_scaled = float(lines[1 + 61].split(",")[1])  # n_w=10, n=0
    assert first_scaled == 0.0

    lines = factors_csv.read_text().splitlines()
    assert lines[0] == "n_w,f"
    assert lines[1].startswith("0,1")


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: CorrelationCurve(n_w=0, n=np.arange(3), c=np.ones(2)), "1-d and equally long"),
        (lambda: event_corr(np.arange(10.0), -1, 0), "event indices must be nonnegative"),
        (lambda: aging_curves(EventSequence(times=np.arange(10.0)), (0,), 0), "n_max must be at least 1"),
        (lambda: aging_curves(EventSequence(times=np.arange(10.0)), (-1, 0), 2), "must be nonnegative"),
    ],
    ids=["curve-shape", "negative-index", "n-max", "negative-n-w"],
)
def test_argument_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()
