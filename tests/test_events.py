import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftershocks import (
    DataError,
    EventSequence,
    detect_events,
    gen_pareto_waits,
    read_events_csv,
    waiting_times,
    write_events_csv,
)
from aftershocks.events import WaitingTimes
from aftershocks.stats import ReturnSeries


def _returns(r, t0=0):
    r = np.asarray(r, dtype=float)
    return ReturnSeries(r=r, t_start=t0)


class TestDetectEvents:
    def test_basic_scan(self):
        ev = detect_events(_returns([0.01, 0.0005, -0.02]), 0.008)
        assert ev.times.tolist() == [0.0, 2.0]

    def test_all_below_threshold(self):
        ev = detect_events(_returns([0.001, -0.002, 0.0]), 0.008)
        assert len(ev) == 0

    def test_strict_inequality(self):
        ev = detect_events(_returns([0.008, -0.008, 0.0081]), 0.008)
        assert ev.times.tolist() == [2.0]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            detect_events(_returns([0.1]), 0.0)

    def test_pre_crash_minutes_ignored(self):
        ev = detect_events(_returns([0.5, 0.5, 0.5], t0=-1), 0.1)
        assert ev.times.tolist() == [0.0, 1.0]

    def test_window_restriction(self):
        ev = detect_events(_returns([0.5, 0.5, 0.5, 0.5]), 0.1, window=(1, 2))
        assert ev.times.tolist() == [1.0, 2.0]

    def test_planted_exceedances_recovered(self):
        # oracle: independent brute-force scan over a seeded return array
        rng = np.random.Generator(np.random.PCG64(77))
        r = 0.001 * (2.0 * rng.random(500) - 1.0)
        planted = [3, 17, 99, 100, 101, 250, 499]
        for i in planted:
            r[i] = 0.02 if i % 2 else -0.02
        expected = [t for t in range(500) if abs(r[t]) > 0.005]  # brute force
        assert expected == planted  # plant dominates the noise floor
        ev = detect_events(_returns(r), 0.005)
        assert ev.times.tolist() == [float(t) for t in expected]

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60),
        st.floats(0.01, 0.5),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_threshold_monotonicity(self, values, th1, th2):
        lo, hi = sorted((th1, th2))
        rs = _returns(values)
        at_hi = set(detect_events(rs, hi).times.tolist())
        at_lo = set(detect_events(rs, lo).times.tolist())
        assert at_hi <= at_lo

    def test_detected_events_actually_exceed(self):
        rng = np.random.Generator(np.random.PCG64(5))
        r = 0.01 * rng.standard_normal(300)
        rs = _returns(r)
        ev = detect_events(rs, 0.012)
        for t in ev.times.astype(int):
            assert abs(r[t]) > 0.012


class TestWaitingTimes:
    def test_basic_diffs(self):
        taus = waiting_times(EventSequence(times=np.array([3.0, 5.0, 10.0])))
        assert taus.taus.tolist() == [2.0, 5.0]

    def test_single_event(self):
        assert len(waiting_times(EventSequence(times=np.array([4.0])))) == 0

    def test_empty(self):
        assert len(waiting_times(EventSequence(times=np.empty(0)))) == 0

    def test_sum_equals_span(self):
        times = np.array([1.0, 4.0, 9.0, 16.0, 30.0])
        taus = waiting_times(EventSequence(times=times))
        assert taus.taus.sum() == pytest.approx(times[-1] - times[0])

    def test_generator_round_trip(self):
        # events built by accumulating seeded Pareto gaps give those gaps back
        gaps = gen_pareto_waits(mu=1.1, tau_min=1.0, count=200, seed=13)
        times = np.concatenate([[0.0], np.cumsum(gaps.taus)])
        taus = waiting_times(EventSequence(times=times))
        assert np.allclose(taus.taus, gaps.taus, rtol=1e-12, atol=1e-9)

    def test_unsorted_times_rejected_by_type(self):
        with pytest.raises(DataError):
            EventSequence(times=np.array([5.0, 3.0]))
        with pytest.raises(DataError):
            EventSequence(times=np.array([-1.0, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected_by_type(self, bad):
        # NaN compares false in both order checks, and a trailing inf is in order
        with pytest.raises(DataError, match="event times must be finite"):
            EventSequence(times=np.array([1.0, 2.0, bad]))
        with pytest.raises(DataError, match="waiting times must be finite"):
            WaitingTimes(taus=np.array([1.0, bad]))


class TestEventsCsv:
    def test_round_trip(self, tmp_path):
        ev = EventSequence(times=np.array([0.0, 2.0, 7.5, 100.0]))
        path = tmp_path / "events.csv"
        write_events_csv(ev, path)
        back = read_events_csv(path)
        assert np.allclose(back.times, ev.times)
        assert path.read_text().splitlines()[0] == "t_minutes"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("minutes\n1\n")
        with pytest.raises(DataError):
            read_events_csv(path)

    def test_row_as_wide_as_header(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("t_minutes\n1\n\n2,3\n")
        with pytest.raises(DataError, match=r"wide.csv: malformed table at line 4 \(2 cells under a header of 1\)"):
            read_events_csv(path)


def test_detect_events_on_empty_returns():
    assert len(detect_events(_returns([]), 0.008)) == 0


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: EventSequence(times=np.zeros((2, 2))), ValueError, "times must be 1-d"),
        (lambda: WaitingTimes(taus=np.ones((2, 2))), ValueError, "taus must be 1-d"),
        (lambda: WaitingTimes(taus=np.array([1.0, 0.0])), DataError, "waiting times must be positive"),
    ],
    ids=["events-2d", "waits-2d", "zero-wait"],
)
def test_type_guards(build, error, message):
    with pytest.raises(error, match=message):
        build()


def _detect_events_by_mask(t_start, r, r_th, window=None):
    """Reference: detect_events as it was when ReturnSeries stored its index,
    selecting the events with masks over an explicit index array."""
    if not len(r):
        return np.empty(0)
    t = np.arange(t_start, t_start + len(r))
    lo = 0 if window is None else max(0, int(window[0]))
    hi = int(t[-1]) if window is None else int(window[1])
    return t[(t >= lo) & (t <= hi) & (np.abs(r) > r_th)].astype(float)


def test_detect_events_matches_the_mask_form():
    # windows that start before the series, end after it, lie wholly outside
    # it or have length 0 (or less), on series that start below, at and above
    # t = 0, with thresholds that catch no minute, some and every one
    rng = np.random.Generator(np.random.PCG64(34))
    for t_start in (-5, 0, 3):
        for n in (0, 1, 6, 11):
            r = rng.standard_normal(n)
            size = np.abs(r)
            thresholds = [1.0] if not n else [2 * size.max(), float(np.median(size)), size.min() / 2]
            windows = [None] + [(a, b) for a in range(t_start - 3, t_start + n + 3) for b in range(a - 1, t_start + n + 3)]
            rs = ReturnSeries(r=r, t_start=t_start)
            for r_th in thresholds:
                for window in windows:
                    got = detect_events(rs, r_th, window=window).times
                    want = _detect_events_by_mask(t_start, r, r_th, window)
                    assert got.dtype == want.dtype and got.tolist() == want.tolist(), (t_start, n, r_th, window)
