from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftershocks import DataError, compute_returns, window_stats
from aftershocks.ingest import PriceSeries
from aftershocks.stats import ReturnSeries


def _series(prices) -> PriceSeries:
    start = int((datetime(2014, 12, 15, 10, 0) - datetime(1970, 1, 1)).total_seconds())
    return PriceSeries(x=prices, wall_clock=range(start, start + 60 * len(prices), 60))


class TestComputeReturns:
    def test_basic_arithmetic(self):
        r = compute_returns(_series([100.0, 101.0]))
        assert r.r.tolist() == pytest.approx([0.01])
        assert r.t.tolist() == [0]

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


class TestWindowStats:
    def test_identical_values(self):
        rs = ReturnSeries(t=np.arange(3), r=np.ones(3))
        ws = window_stats(rs, 0, 2)
        assert ws.mean == 1.0
        assert ws.variance == 0.0
        assert ws.sigma == 0.0
        assert ws.n_samples == 3

    def test_population_variance(self):
        rs = ReturnSeries(t=np.arange(2), r=np.array([0.0, 2.0]))
        ws = window_stats(rs, 0, 1)
        assert ws.mean == pytest.approx(1.0)
        assert ws.variance == pytest.approx(1.0)
        assert ws.sigma == pytest.approx(1.0)

    def test_window_slicing(self):
        rs = ReturnSeries(t=np.arange(10), r=np.arange(10.0))
        ws = window_stats(rs, 2, 3)
        assert ws.n_samples == 4
        assert ws.mean == pytest.approx(np.mean([2.0, 3.0, 4.0, 5.0]))
        assert ws.window == (2, 5)

    def test_window_outside_series(self):
        rs = ReturnSeries(t=np.arange(5), r=np.zeros(5))
        with pytest.raises(DataError):
            window_stats(rs, 2, 10)
        with pytest.raises(DataError):
            window_stats(rs, -1, 2)

    def test_sigma_squares_to_variance(self):
        rs = ReturnSeries(t=np.arange(6), r=np.array([0.1, -0.2, 0.05, 0.0, 0.3, -0.1]))
        ws = window_stats(rs, 0, 5)
        assert ws.sigma**2 == pytest.approx(ws.variance, abs=1e-15)


@given(
    st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=40),
    st.floats(-10.0, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_variance_translation_invariant(values, shift):
    base = ReturnSeries(t=np.arange(len(values)), r=np.array(values))
    shifted = ReturnSeries(t=np.arange(len(values)), r=np.array(values) + shift)
    v0 = window_stats(base, 0, len(values) - 1).variance
    v1 = window_stats(shifted, 0, len(values) - 1).variance
    assert abs(v0 - v1) < 1e-12


@given(
    st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=40),
    st.floats(0.01, 100.0),
)
@settings(max_examples=60, deadline=None)
def test_sigma_scales_linearly(values, lam):
    base = ReturnSeries(t=np.arange(len(values)), r=np.array(values))
    scaled = ReturnSeries(t=np.arange(len(values)), r=lam * np.array(values))
    s0 = window_stats(base, 0, len(values) - 1).sigma
    s1 = window_stats(scaled, 0, len(values) - 1).sigma
    assert s1 == pytest.approx(lam * s0, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: ReturnSeries(t=np.arange(2), r=np.ones(3)), ValueError, "1-d and equally long"),
        (lambda: window_stats(ReturnSeries(t=np.arange(3), r=np.ones(3)), 0, -1), ValueError, "nonnegative"),
        (lambda: window_stats(ReturnSeries(t=np.empty(0), r=np.empty(0)), 0, 0), DataError, "empty return series"),
        # a hand-built series may skip minutes, so a contained window can hold none
        (lambda: window_stats(ReturnSeries(t=np.array([0, 10]), r=np.ones(2)), 3, 2), DataError, "no samples"),
    ],
    ids=["shape", "negative-length", "empty-series", "empty-window"],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()
