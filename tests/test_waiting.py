import numpy as np
import pytest

from aftershocks import (
    DataError,
    build_histogram,
    fit_mu,
    fit_mu_mle,
    gen_pareto_waits,
)
from aftershocks.events import WaitingTimes
from aftershocks.waiting import WaitingHistogram, histogram_sampler, write_histogram_csv


class TestBuildHistogram:
    def test_unit_bins(self):
        hist = build_histogram(WaitingTimes(taus=np.array([1.0, 1.0, 2.0])), 1.0)
        np.testing.assert_array_equal(hist.edges, [1.0, 2.0])
        np.testing.assert_array_equal(hist.counts, [2, 1])

    def test_empty(self):
        hist = build_histogram(WaitingTimes(taus=np.empty(0)), 1.0)
        assert hist.edges.size == hist.counts.size == 0

    def test_width_two_bins(self):
        hist = build_histogram(WaitingTimes(taus=np.array([1.0, 2.0, 3.0])), 2.0)
        np.testing.assert_array_equal(hist.edges, [1.0, 3.0])  # bins [1, 2] and [3, 4]
        np.testing.assert_array_equal(hist.counts, [2, 1])
        assert hist.bins()[0].tolist() == [1.5, 3.5]

    def test_total_conserved(self):
        taus = np.array([1.0, 5.0, 5.0, 9.0, 40.0])
        hist = build_histogram(WaitingTimes(taus=taus), 3.0)
        assert hist.bins()[1].sum() == len(taus)

    def test_bad_bin_size(self):
        with pytest.raises(ValueError):
            build_histogram(WaitingTimes(taus=np.array([1.0])), 0.0)

    def test_continuous_data_gets_geometric_centers(self):
        hist = build_histogram(WaitingTimes(taus=np.array([1.5, 2.5])), 1.0)
        assert not hist.integer_data
        assert hist.bins()[0].tolist() == pytest.approx([np.sqrt(2.0), np.sqrt(6.0)])
        # the bin [-1, 1) below tau = 1 has representative sqrt(0 * 1)
        below = build_histogram(WaitingTimes(taus=np.array([0.5, 1.5])), 2.0)
        assert below.bins()[0].tolist() == pytest.approx([0.0, np.sqrt(3.0)])

    def test_integer_data_keeps_minute_coordinates(self):
        hist = build_histogram(WaitingTimes(taus=np.array([1.0, 2.0, 9.0])), 1.0)
        assert hist.integer_data
        assert hist.bins()[0].tolist() == [1.0, 2.0, 9.0]

    @pytest.mark.parametrize("bin_size", [1.0, 2.5])
    def test_sampler_gives_the_histogram_of_each_draw(self, bin_size):
        # the bootstrap's per-resample histograms; three non-integer waits
        # make some draws integer data and some not
        taus = np.concatenate([np.arange(1.0, 40.0), [0.5, 3.25, 7.75]])
        sample = histogram_sampler(taus, bin_size)
        rng = np.random.default_rng(0)
        kinds = set()
        for size in (1, 5, 5, 5, 5, 60):
            idx = rng.integers(0, len(taus), size)
            hist, built = sample(idx), build_histogram(WaitingTimes(taus=taus[idx]), bin_size)
            np.testing.assert_array_equal(hist.edges, built.edges)
            np.testing.assert_array_equal(hist.counts, built.counts)
            assert hist.integer_data == built.integer_data
            assert np.all(np.diff(hist.edges) > 0) and np.all(hist.counts > 0)
            kinds.add(hist.integer_data)
        assert kinds == {True, False}


class TestFitMuLsq:
    def _exact_histogram(self, mu, taus=(1, 2, 3, 5, 8, 13, 21, 40)):
        # unit integer bins: the bin center IS the tau value, so counts can
        # be placed exactly on the power law
        edges = np.array(taus, dtype=float)
        return WaitingHistogram(bin_size=1.0, edges=edges, counts=1e4 * edges ** -(1.0 + mu))

    def test_exact_power_law_recovered_to_machine_precision(self):
        hist = self._exact_histogram(0.9413)
        fit = fit_mu(hist, fit_range=(1.0, 40.0))
        assert fit.mu == pytest.approx(0.9413, abs=1e-12)

    def test_count_scaling_invariance(self):
        hist = self._exact_histogram(1.2)
        scaled = WaitingHistogram(bin_size=1.0, edges=hist.edges, counts=hist.counts * 7.0)
        f1 = fit_mu(hist, fit_range=(1.0, 40.0))
        f2 = fit_mu(scaled, fit_range=(1.0, 40.0))
        assert f1.mu == pytest.approx(f2.mu, abs=1e-12)

    def test_default_range_caps_at_last_heavy_bin(self):
        edges = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 30.0])
        hist = WaitingHistogram(bin_size=1.0, edges=edges, counts=np.array([100, 40, 12, 6, 3, 2, 1]))
        fit = fit_mu(hist)
        assert fit.fit_range == (1.0, 6.0)
        assert fit.n_used == 6

    def test_too_few_bins(self):
        hist = WaitingHistogram(bin_size=1.0, edges=np.array([1.0, 2.0, 3.0]), counts=np.array([5, 3, 2]))
        with pytest.raises(DataError, match="5 nonempty bins"):
            fit_mu(hist, fit_range=(1.0, 3.0))

    def test_rising_counts_rejected(self):
        edges = np.arange(1.0, 9.0)
        hist = WaitingHistogram(bin_size=1.0, edges=edges, counts=edges**2)
        with pytest.raises(DataError, match="nonpositive mu"):
            fit_mu(hist, fit_range=(1.0, 8.0))

    def test_overflowing_bin_midpoints_rejected(self):
        # sqrt(edge * (edge + bin_size)) overflows past edge = 1e154, so the
        # slope is NaN; it used to come back as mu = NaN
        edges = np.array([1.0, 2.0, 3.0, 4.0, 1e200])
        hist = WaitingHistogram(bin_size=1.0, edges=edges, counts=np.array([9, 5, 3, 2, 1]), integer_data=False)
        with pytest.raises(DataError, match="histogram slope nan gives no finite mu"):
            fit_mu(hist, fit_range=(1.0, np.inf))

    def test_seeded_pareto_within_tolerance(self):
        waits = gen_pareto_waits(mu=0.95, tau_min=1.0, count=10_000, seed=0)
        hist = build_histogram(waits, 1.0)
        fit = fit_mu(hist, fit_range=(1.0, 24.0))
        assert fit.mu == pytest.approx(0.95, abs=0.1)
        assert fit.amplitude is not None and fit.amplitude > 0


class TestFitMuMle:
    def test_seeded_pareto_recovery(self):
        waits = gen_pareto_waits(mu=0.95, tau_min=1.0, count=10_000, seed=1)
        fit = fit_mu_mle(waits, fit_range=(1.0, None))
        assert fit.mu == pytest.approx(0.95, abs=0.05)
        assert fit.stderr == pytest.approx(fit.mu / np.sqrt(fit.n_used))

    def test_rescaling_invariance(self):
        waits = gen_pareto_waits(mu=1.3, tau_min=1.0, count=500, seed=9)
        scaled = WaitingTimes(taus=waits.taus * 60.0)
        f1 = fit_mu_mle(waits, fit_range=(1.0, None))
        f2 = fit_mu_mle(scaled, fit_range=(60.0, None))
        assert f1.mu == pytest.approx(f2.mu, rel=1e-12)

    def test_needs_fifty_samples(self):
        with pytest.raises(DataError, match="50"):
            fit_mu_mle(WaitingTimes(taus=np.arange(1.0, 30.0)))

    def test_all_equal_rejected(self):
        with pytest.raises(DataError, match="tau_min"):
            fit_mu_mle(WaitingTimes(taus=np.full(100, 7.0)))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: WaitingHistogram(bin_size=0.0, edges=np.ones(1), counts=np.ones(1)), ValueError, "bin_size"),
        (lambda: WaitingHistogram(bin_size=1.0, edges=np.ones(2), counts=np.ones(1)), ValueError, "same length"),
        (lambda: fit_mu(WaitingHistogram(bin_size=1.0, edges=np.empty(0), counts=np.empty(0))), DataError, "empty"),
        # five distinct waits near 1e16 share one float log, so log tau has no spread
        (
            lambda: fit_mu(build_histogram(WaitingTimes(taus=np.repeat(1e16 + 4 * np.arange(5.0), 2)), 1.0)),
            DataError,
            "zero variance in log tau",
        ),
        # distinct float logs a few ulps apart: the slope is rounding noise
        (
            lambda: fit_mu(
                WaitingHistogram(1.0, 1e15 + 2 * np.arange(5.0), np.array([5, 4, 3, 2, 2])), fit_range=(1.0, np.inf)
            ),
            DataError,
            "zero variance in log tau",
        ),
        (lambda: fit_mu_mle(WaitingTimes(taus=np.empty(0))), DataError, "no waiting times"),
    ],
    ids=["bin-size", "lengths", "empty-histogram", "flat-log-tau", "last-bits-log-tau", "no-waits"],
)
def test_argument_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()

def test_histogram_csv(tmp_path):
    hist = build_histogram(WaitingTimes(taus=np.array([1.0, 1.0, 2.0, 7.0])), 1.0)
    path = tmp_path / "hist.csv"
    write_histogram_csv(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,count"
    assert lines[1] == "1,2"
    assert lines[2] == "2,1"
    assert lines[3] == "7,1"
