import numpy as np
import pytest

from aftershocks import (
    DataError,
    ParetoGenSpec,
    build_histogram,
    fit_mu,
    gen_pareto_waits,
)
from aftershocks.events import WaitingTimes
from aftershocks.waiting import WaitingHistogram, histogram_sampler, write_histogram_csv


class TestBuildHistogram:
    def test_unit_bins(self):
        hist = build_histogram(WaitingTimes(taus=np.array([1.0, 1.0, 2.0])), 1.0)
        assert hist.counts == {1: 2, 2: 1}

    def test_empty(self):
        hist = build_histogram(WaitingTimes(taus=np.empty(0)), 1.0)
        assert hist.counts == {}

    def test_width_two_bins(self):
        hist = build_histogram(WaitingTimes(taus=np.array([1.0, 2.0, 3.0])), 2.0)
        assert hist.counts == {1: 2, 3: 1}  # bins [1, 2] and [3, 4]
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
            hist = sample(idx)
            assert hist == build_histogram(taus[idx], bin_size)
            assert list(hist.counts) == sorted(hist.counts)
            kinds.add(hist.integer_data)
        assert kinds == {True, False}


class TestFitMuLsq:
    def _exact_histogram(self, mu, taus=(1, 2, 3, 5, 8, 13, 21, 40)):
        # unit integer bins: the bin center IS the tau value, so counts can
        # be placed exactly on the power law
        return WaitingHistogram(
            bin_size=1.0,
            counts={float(t): 1e4 * float(t) ** -(1.0 + mu) for t in taus},
        )

    def test_exact_power_law_recovered_to_machine_precision(self):
        hist = self._exact_histogram(0.9413)
        fit = fit_mu(hist, fit_range=(1.0, 40.0), method="lsq")
        assert fit.mu == pytest.approx(0.9413, abs=1e-12)

    def test_count_scaling_invariance(self):
        hist = self._exact_histogram(1.2)
        scaled = WaitingHistogram(
            bin_size=1.0, counts={k: v * 7.0 for k, v in hist.counts.items()}
        )
        f1 = fit_mu(hist, fit_range=(1.0, 40.0), method="lsq")
        f2 = fit_mu(scaled, fit_range=(1.0, 40.0), method="lsq")
        assert f1.mu == pytest.approx(f2.mu, abs=1e-12)

    def test_default_range_caps_at_last_heavy_bin(self):
        counts = {1.0: 100, 2.0: 40, 3.0: 12, 4.0: 6, 5.0: 3, 6.0: 2, 30.0: 1}
        hist = WaitingHistogram(bin_size=1.0, counts=counts)
        fit = fit_mu(hist, method="lsq")
        assert fit.fit_range == (1.0, 6.0)
        assert fit.n_used == 6

    def test_too_few_bins(self):
        hist = WaitingHistogram(bin_size=1.0, counts={1.0: 5, 2.0: 3, 3.0: 2})
        with pytest.raises(DataError, match="5 nonempty bins"):
            fit_mu(hist, fit_range=(1.0, 3.0), method="lsq")

    def test_rising_counts_rejected(self):
        counts = {float(t): float(t**2) for t in range(1, 9)}
        hist = WaitingHistogram(bin_size=1.0, counts=counts)
        with pytest.raises(DataError, match="nonpositive mu"):
            fit_mu(hist, method="lsq", fit_range=(1.0, 8.0))

    def test_needs_histogram(self):
        with pytest.raises(TypeError):
            fit_mu(WaitingTimes(taus=np.ones(10) + np.arange(10)), method="lsq")

    def test_seeded_pareto_within_tolerance(self):
        waits = gen_pareto_waits(ParetoGenSpec(mu=0.95, tau_min=1.0, count=10_000, seed=0))
        hist = build_histogram(waits, 1.0)
        fit = fit_mu(hist, fit_range=(1.0, 24.0), method="lsq")
        assert fit.mu == pytest.approx(0.95, abs=0.1)
        assert fit.amplitude is not None and fit.amplitude > 0


class TestFitMuMle:
    def test_seeded_pareto_recovery(self):
        waits = gen_pareto_waits(ParetoGenSpec(mu=0.95, tau_min=1.0, count=10_000, seed=1))
        fit = fit_mu(waits, fit_range=(1.0, None), method="mle")
        assert fit.mu == pytest.approx(0.95, abs=0.05)
        assert fit.stderr == pytest.approx(fit.mu / np.sqrt(fit.n_used))

    def test_rescaling_invariance(self):
        waits = gen_pareto_waits(ParetoGenSpec(mu=1.3, tau_min=1.0, count=500, seed=9))
        scaled = WaitingTimes(taus=waits.taus * 60.0)
        f1 = fit_mu(waits, fit_range=(1.0, None), method="mle")
        f2 = fit_mu(scaled, fit_range=(60.0, None), method="mle")
        assert f1.mu == pytest.approx(f2.mu, rel=1e-12)

    def test_histogram_input_rejected(self):
        waits = gen_pareto_waits(ParetoGenSpec(mu=1.1, tau_min=1.0, count=500, seed=2))
        with pytest.raises(TypeError):
            fit_mu(build_histogram(waits, 1.0), method="mle")

    def test_needs_fifty_samples(self):
        with pytest.raises(DataError, match="50"):
            fit_mu(WaitingTimes(taus=np.arange(1.0, 30.0)), method="mle")

    def test_all_equal_rejected(self):
        with pytest.raises(DataError, match="tau_min"):
            fit_mu(WaitingTimes(taus=np.full(100, 7.0)), method="mle")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            fit_mu(WaitingTimes(taus=np.ones(100)), method="magic")


def test_histogram_csv(tmp_path):
    hist = build_histogram(WaitingTimes(taus=np.array([1.0, 1.0, 2.0, 7.0])), 1.0)
    path = tmp_path / "hist.csv"
    write_histogram_csv(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,count"
    assert lines[1] == "1,2"
    assert lines[2] == "2,1"
    assert lines[3] == "7,1"
