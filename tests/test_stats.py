import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftershocks import DataError, compute_returns, window_stats
from aftershocks.ingest import PriceSeries
from aftershocks.stats import ReturnSeries, WindowStats


def _series(prices) -> PriceSeries:
    start = int((datetime(2014, 12, 15, 10, 0) - datetime(1970, 1, 1)).total_seconds())
    return PriceSeries(x=prices, wall_clock=range(start, start + 60 * len(prices), 60))


class TestComputeReturns:
    def test_basic_arithmetic(self):
        r = compute_returns(_series([100.0, 101.0]))
        assert r.r.tolist() == pytest.approx([0.01])
        assert list(r.t) == [0]

    def test_constant_prices(self):
        r = compute_returns(_series([5.0, 5.0, 5.0]))
        assert np.all(r.r == 0.0)

    def test_mixed_moves(self):
        r = compute_returns(_series([50.0, 60.0, 30.0]))
        assert r.r.tolist() == pytest.approx([0.2, -0.5])

    def test_length_is_one_less(self):
        r = compute_returns(_series([1.0, 2.0, 3.0, 4.0]))
        assert len(r) == 3

    def test_returns_bounded_below(self):
        # positive prices force r > -1
        r = compute_returns(_series([100.0, 0.001, 50.0]))
        assert np.all(r.r > -1.0)

    def test_too_short(self):
        with pytest.raises(DataError):
            compute_returns(_series([1.0]))

    def test_return_past_float64_is_inf_without_a_warning(self):
        # the suite turns a RuntimeWarning into an error
        r = compute_returns(_series([1e-310, 1.0, 2.0]))
        assert r.r.tolist() == [np.inf, 1.0]


class TestWindowStats:
    def test_identical_values(self):
        rs = ReturnSeries(r=np.ones(3), t_start=0)
        ws = window_stats(rs, 0, 2)
        assert ws.mean == 1.0
        assert ws.variance == 0.0
        assert ws.sigma == 0.0
        assert ws.n_samples == 3

    def test_population_variance(self):
        rs = ReturnSeries(r=np.array([0.0, 2.0]), t_start=0)
        ws = window_stats(rs, 0, 1)
        assert ws.mean == pytest.approx(1.0)
        assert ws.variance == pytest.approx(1.0)
        assert ws.sigma == pytest.approx(1.0)

    def test_window_slicing(self):
        rs = ReturnSeries(r=np.arange(10.0), t_start=0)
        ws = window_stats(rs, 2, 3)
        assert ws.n_samples == 4
        assert ws.mean == pytest.approx(np.mean([2.0, 3.0, 4.0, 5.0]))
        assert ws.window == (2, 5)

    def test_window_outside_series(self):
        rs = ReturnSeries(r=np.zeros(5), t_start=0)
        with pytest.raises(DataError):
            window_stats(rs, 2, 10)
        with pytest.raises(DataError):
            window_stats(rs, -1, 2)

    def test_sigma_squares_to_variance(self):
        rs = ReturnSeries(r=np.array([0.1, -0.2, 0.05, 0.0, 0.3, -0.1]), t_start=0)
        ws = window_stats(rs, 0, 5)
        assert ws.sigma**2 == pytest.approx(ws.variance, abs=1e-15)


@given(
    st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=40),
    st.floats(-10.0, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_variance_translation_invariant(values, shift):
    base = ReturnSeries(r=np.array(values), t_start=0)
    shifted = ReturnSeries(r=np.array(values) + shift, t_start=0)
    v0 = window_stats(base, 0, len(values) - 1).variance
    v1 = window_stats(shifted, 0, len(values) - 1).variance
    assert abs(v0 - v1) < 1e-12


@given(
    st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=40),
    st.floats(0.01, 100.0),
)
@settings(max_examples=60, deadline=None)
def test_sigma_scales_linearly(values, lam):
    base = ReturnSeries(r=np.array(values), t_start=0)
    scaled = ReturnSeries(r=lam * np.array(values), t_start=0)
    s0 = window_stats(base, 0, len(values) - 1).sigma
    s1 = window_stats(scaled, 0, len(values) - 1).sigma
    assert s1 == pytest.approx(lam * s0, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: ReturnSeries(r=np.ones((2, 3)), t_start=0), ValueError, "1-d"),
        (lambda: window_stats(ReturnSeries(r=np.ones(3), t_start=0), 0, -1), ValueError, "nonnegative"),
        (lambda: window_stats(ReturnSeries(r=np.empty(0), t_start=0), 0, 0), DataError, "empty return series"),
        # the mean and variance are taken without a warning, and refused when not finite
        (lambda: window_stats(ReturnSeries(r=np.array([1e300, -1e300, 0.0]), t_start=0), 0, 2), DataError,
         r"returns in the window \[0, 2\] overflow float64 \(mean 0, variance inf\)"),
        (lambda: window_stats(ReturnSeries(r=np.array([1.0, 1.7e308, 1.7e308]), t_start=0), 1, 1), DataError,
         r"returns in the window \[1, 2\] overflow float64 \(mean inf, variance inf\)"),
        (lambda: window_stats(ReturnSeries(r=np.array([np.inf, 0.0]), t_start=0), 0, 1), DataError,
         r"returns in the window \[0, 1\] overflow float64"),
    ],
    ids=["shape", "negative-length", "empty-series", "overflowing-variance", "overflowing-mean", "infinite-return"],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _window_stats_by_mask(t_start, r, t0, length):
    """Reference: window_stats as it was when ReturnSeries stored its index,
    selecting the window with masks over an explicit index array."""
    if length < 0:
        raise ValueError("window length must be nonnegative")
    if not len(r):
        raise DataError("empty return series")
    t = np.arange(t_start, t_start + len(r))
    lo, hi = t0, t0 + length
    if lo < t[0] or hi > t[-1]:
        raise DataError(f"window [{lo}, {hi}] not contained in return series [{t[0]}, {t[-1]}]")
    sample = r[(t >= lo) & (t <= hi)]
    if sample.size == 0:
        raise DataError("window contains no samples")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(sample))
        variance = float(np.var(sample))
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise DataError(f"returns in the window [{lo}, {hi}] overflow float64 (mean {mean:g}, variance {variance:g})")
    return WindowStats(mean, variance, float(np.sqrt(variance)), (int(lo), int(hi)), int(sample.size))


def _outcome(call):
    try:
        return call()
    except (ValueError, DataError) as exc:
        return type(exc), str(exc)


def test_window_stats_matches_the_mask_form():
    # windows that start before the series, end after it, lie wholly outside
    # it or have length 0, on series that start below, at and above t = 0;
    # one series holds an inf, so some windows overflow
    rng = np.random.Generator(np.random.PCG64(34))
    checked = 0
    for t_start in (-5, 0, 3):
        for n in (0, 1, 2, 7):
            for r in (rng.standard_normal(n), np.where(np.arange(n) == 3, np.inf, rng.standard_normal(n))):
                rs = ReturnSeries(r=r, t_start=t_start)
                for t0 in range(t_start - 4, t_start + n + 4):
                    for length in range(-1, n + 4):
                        want = _outcome(lambda: _window_stats_by_mask(t_start, r, t0, length))
                        assert _outcome(lambda: window_stats(rs, t0, length)) == want, (t_start, n, t0, length)
                        checked += not isinstance(want, tuple)
    assert checked > 100
