import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftershocks import (
    DataError,
    EventSequence,
    OmoriGenSpec,
    cumulative_count,
    fit_omori,
    fit_omori_mle,
    gen_omori,
    omori_model,
)


class TestOmoriModel:
    @pytest.mark.parametrize(
        "p,amplitude,c",
        [(0.5, 5.0, 0.0), (0.5, 5.0, 3.0), (1.0, 2.0, 1.0), (1.7, 3.0, 4.0)],
    )
    def test_zero_at_origin(self, p, amplitude, c):
        assert omori_model(0.0, p, amplitude, c) == 0.0

    def test_log_branch_closed_form(self):
        # A*ln(t/c + 1) with t = e - 1, A = 2, c = 1 gives exactly 2
        assert omori_model(math.e - 1.0, 1.0, 2.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_power_branch_closed_form(self):
        # p=0.5, c=0: N(t) = A*sqrt(t)/0.5
        assert omori_model(9.0, 0.5, 2.0, 0.0) == pytest.approx(12.0, rel=1e-14)

    @pytest.mark.parametrize("t", [1.0, 10.0, 1e3, 1e5])
    @pytest.mark.parametrize("eps", [1e-8, -1e-8])
    def test_branch_continuity(self, t, eps):
        base = omori_model(t, 1.0, 1.0, 1.0)
        near = omori_model(t, 1.0 + eps, 1.0, 1.0)
        assert abs(near - base) / base < 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=0.0, amplitude=1.0, c=1.0),
            dict(p=-0.5, amplitude=1.0, c=1.0),
            dict(p=0.5, amplitude=0.0, c=1.0),
            dict(p=0.5, amplitude=-2.0, c=1.0),
            dict(p=0.5, amplitude=1.0, c=-1.0),
            dict(p=1.0, amplitude=1.0, c=0.0),
            dict(p=1.5, amplitude=1.0, c=0.0),
        ],
    )
    def test_domain_violations(self, kwargs):
        with pytest.raises(ValueError):
            omori_model(1.0, **kwargs)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            omori_model(-1.0, 0.5, 1.0, 0.0)

    @given(
        p=st.floats(0.05, 2.5),
        amplitude=st.floats(0.1, 100.0),
        c=st.floats(0.1, 100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_nondecreasing_in_time(self, p, amplitude, c):
        t = np.linspace(0.0, 1000.0, 101)
        n = omori_model(t, p, amplitude, c)
        assert np.all(np.diff(n) >= 0.0)


class TestCumulativeCount:
    def test_basic(self):
        ev = EventSequence(times=np.array([1.0, 2.0, 5.0]))
        assert cumulative_count(ev, [5.0]).tolist() == [3.0]

    def test_before_first_event(self):
        ev = EventSequence(times=np.array([1.0, 2.0, 5.0]))
        assert cumulative_count(ev, [0.5]).tolist() == [0.0]

    def test_boundary_inclusive(self):
        ev = EventSequence(times=np.array([1.0, 2.0, 5.0]))
        assert cumulative_count(ev, [2.0]).tolist() == [2.0]

    def test_unsorted_grid_rejected(self):
        ev = EventSequence(times=np.array([1.0]))
        with pytest.raises(ValueError):
            cumulative_count(ev, [5.0, 1.0])

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(31))
        times = np.unique(np.floor(rng.random(200) * 1000.0))
        ev = EventSequence(times=times)
        grid = np.sort(rng.random(50) * 1100.0)
        counted = cumulative_count(ev, grid)
        oracle = np.array([sum(1 for x in times if x <= g) for g in grid], dtype=float)
        assert np.array_equal(counted, oracle)


class TestFitOmori:
    def test_closed_form_amplitude_is_optimal(self):
        ev = gen_omori(OmoriGenSpec(p=0.6, amplitude=4.0, c=0.0, horizon=5000.0, seed=3))
        fit = fit_omori(ev, grid_step=5.0, horizon=5000.0, c_search=False)
        grid = np.arange(5.0, 5000.0 + 2.5, 5.0)
        y = cumulative_count(ev, grid)
        g = omori_model(grid, fit.p, 1.0, fit.c)

        def rss(amp):
            d = y - amp * g
            return float(d @ d)

        base = rss(fit.amplitude)
        for bump in (0.9, 0.99, 1.01, 1.1):
            assert rss(fit.amplitude * bump) >= base

    def test_grid_duplication_invariance(self):
        ev = gen_omori(OmoriGenSpec(p=0.6, amplitude=4.0, c=0.0, horizon=3000.0, seed=8))
        grid = np.arange(2.0, 3000.0, 2.0)
        fit1 = fit_omori(ev, c_search=False, grid=grid)
        fit2 = fit_omori(ev, c_search=False, grid=np.sort(np.concatenate([grid, grid])))
        assert fit1.p == pytest.approx(fit2.p, abs=1e-12)
        assert fit1.amplitude == pytest.approx(fit2.amplitude, rel=1e-12)
        assert fit1.c == fit2.c

    def test_noise_free_self_consistency(self):
        # invert the exact cumulative law into event times, then refit
        p_true, a_true = 0.7, 4.0
        ks = np.arange(1.0, omori_model(5000.0, p_true, a_true, 0.0))
        q = 1.0 - p_true
        times = (ks * q / a_true) ** (1.0 / q)
        fit = fit_omori(EventSequence(times=times), grid_step=1.0, horizon=5000.0, c_search=False)
        assert fit.p == pytest.approx(p_true, rel=0.02)
        assert fit.amplitude == pytest.approx(a_true, rel=0.02)

    def test_seeded_catalog_recovery(self):
        # >= 2000 events: A=5, p=0.5, horizon 4e4 gives ~2000
        ev = gen_omori(OmoriGenSpec(p=0.5, amplitude=5.0, c=0.0, horizon=40_000.0, seed=123))
        assert len(ev) >= 2000
        start = time.perf_counter()
        fit = fit_omori(ev, grid_step=10.0, horizon=40_000.0, c_search=True)
        assert time.perf_counter() - start < 10.0
        assert fit.p == pytest.approx(0.5, abs=0.05)

    def test_too_few_events(self):
        with pytest.raises(DataError, match="at least 10"):
            fit_omori(EventSequence(times=np.arange(5.0) + 1.0), grid_step=1.0, horizon=10.0)

    def test_c_pinned_when_search_disabled(self):
        ev = gen_omori(OmoriGenSpec(p=0.8, amplitude=5.0, c=0.0, horizon=2000.0, seed=4))
        fit = fit_omori(ev, grid_step=2.0, horizon=2000.0, c_search=False)
        assert fit.c == 0.0

    def test_rate_mle_cross_check(self):
        ev = gen_omori(OmoriGenSpec(p=0.5, amplitude=5.0, c=0.0, horizon=40_000.0, seed=123))
        fit = fit_omori_mle(ev, horizon=40_000.0, c_search=False)
        assert fit.method == "rate-mle"
        assert fit.p == pytest.approx(0.5, abs=0.05)
        assert fit.amplitude == pytest.approx(5.0, rel=0.2)

    @pytest.mark.parametrize(
        "spec,lsq_c0,lsq_c,mle",
        [
            (
                OmoriGenSpec(p=0.6, amplitude=5.0, c=0.0, horizon=20_000.0, seed=3),
                (0.5843123403911193, 0.0, 4.706731257064729, 407651.7160632649),
                (0.5876548282440676, 0.050120471785396775, 4.847858607781691, 426492.79937708715),
                (0.6003032306271558, 0.0, 5.282106944393669, 2604.2373496344753),
            ),
            (
                OmoriGenSpec(
                    p=0.6, amplitude=5.0, c=0.0, horizon=20_000.0, seed=3, round_to_minutes=True
                ),
                (0.5318150824620563, 0.0, 2.9264248435777627, 380660.94218049746),
                (0.5481077793623597, 3.7733144631834126, 3.3823331952232003, 350693.9229546116),
                (0.5642939041222347, 10.0, 3.856661829241118, 2608.9436103735193),
            ),
            (
                OmoriGenSpec(p=1.1, amplitude=30.0, c=5.0, horizon=5000.0, seed=9),
                (0.8422241980696898, 0.0, 5.1195388711559495, 100813.01557391649),
                (1.311098917170174, 29.53629364003784, 133.98963021631988, 15073.743287694215),
                (1.205366208378817, 15.848931924611142, 62.428464506396786, 354.64331101540716),
            ),
        ],
    )
    def test_fits_equal_recorded_values(self, spec, lsq_c0, lsq_c, mle):
        # (p, c, amplitude, rss) recorded before the per-c terms were
        # cached; the searches must visit the same points, so equality is exact
        ev = gen_omori(spec)
        for fit, expected in (
            (fit_omori(ev, c_search=False), lsq_c0),
            (fit_omori(ev, c_search=True), lsq_c),
            (fit_omori_mle(ev), mle),
        ):
            assert (fit.p, fit.c, fit.amplitude, fit.rss) == expected
