import numpy as np
import pytest

from aftershocks import (
    cumulative_count,
    derive_seeds,
    gen_omori,
    gen_pareto_waits,
    gen_stationary,
)
from aftershocks.synth import MAX_EVENTS


class TestGenOmori:
    def test_same_seed_identical(self):
        spec = dict(p=0.5, amplitude=5.0, c=0.0, horizon=5000.0, seed=42)
        assert np.array_equal(gen_omori(**spec).times, gen_omori(**spec).times)

    def test_different_seeds_differ(self):
        a = gen_omori(p=0.5, amplitude=5.0, c=0.0, horizon=5000.0, seed=1)
        b = gen_omori(p=0.5, amplitude=5.0, c=0.0, horizon=5000.0, seed=2)
        assert not np.array_equal(a.times, b.times)

    def test_strictly_increasing_within_horizon(self):
        ev = gen_omori(p=0.9, amplitude=10.0, c=3.0, horizon=2000.0, seed=7)
        assert np.all(np.diff(ev.times) > 0)
        assert ev.times[0] > 0
        assert ev.times[-1] <= 2000.0

    def test_homogeneous_limit_count(self):
        # p = 0 is a constant-rate catalog: count within 3*sqrt(A*T)
        ev = gen_omori(p=0.0, amplitude=2.0, c=0.0, horizon=10_000.0, seed=11)
        expected = 2.0 * 10_000.0
        assert abs(len(ev) - expected) <= 3.0 * np.sqrt(expected)

    def test_integrated_rate_oracle(self):
        # quadrature of the rate, independent of the inversion formulas
        spec = dict(p=0.8, amplitude=3.0, c=2.0, horizon=50_000.0, seed=5)
        ev = gen_omori(**spec)
        for t in np.linspace(5000.0, 50_000.0, 10):
            u = np.linspace(0.0, t, 200_001)
            lam = np.trapezoid(spec["amplitude"] * (u + spec["c"]) ** -spec["p"], u)
            n = float(cumulative_count(ev, [t])[0])
            assert abs(n - lam) <= 3.0 * np.sqrt(lam)

    def test_finite_total_for_steep_decay(self):
        # p > 1: total intensity A*c^(1-p)/(p-1) is finite, stream runs dry
        ev = gen_omori(p=2.0, amplitude=50.0, c=5.0, horizon=1e9, seed=3)
        total = 50.0 * 5.0 ** (1.0 - 2.0) / (2.0 - 1.0)
        assert abs(len(ev) - total) <= 3.0 * np.sqrt(total) + 1.0

    def test_minute_rounding_collapses_ties(self):
        ev = gen_omori(p=0.5, amplitude=50.0, c=0.0, horizon=500.0, seed=9, round_to_minutes=True)
        assert np.all(ev.times == np.floor(ev.times))
        assert np.all(np.diff(ev.times) > 0)
        continuous = gen_omori(p=0.5, amplitude=50.0, c=0.0, horizon=500.0, seed=9)
        assert len(ev) <= len(continuous)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_tiny_c_is_within_the_cap(self, p):
        # horizon / c overflows here, but the catalog holds at most a few
        # hundred events, so the size check must not refuse it
        ev = gen_omori(p=p, amplitude=1.0, c=1e-310, horizon=100.0, seed=0)
        assert 0 < len(ev) < 1000

    def test_draw_that_float64_absorbs_is_empty(self):
        # horizon + c rounds to c, so the expected count is 0; the inverted
        # times used to collide at once, and at c = 1e308 never pass the horizon
        ev = gen_omori(p=0.5, amplitude=5.0, c=1e40, horizon=10_000.0, seed=0)
        assert len(ev) == 0

    def test_coinciding_times_need_c_or_rounding(self):
        # at c = 0 the inversion raises s / 1000 to the power 200, so the
        # earliest times underflow to the same double
        spec = dict(p=0.995, amplitude=5.0, c=0.0, horizon=10_000.0, seed=0)
        with pytest.raises(ValueError, match="coincide in float64; use c > 0 or minute rounding"):
            gen_omori(**spec)
        ev = gen_omori(**spec, round_to_minutes=True)
        assert len(ev) > 0
        assert np.all(np.diff(ev.times) > 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=-0.1, amplitude=1.0, c=0.0, horizon=10.0, seed=0),
            dict(p=0.5, amplitude=0.0, c=0.0, horizon=10.0, seed=0),
            dict(p=1.0, amplitude=1.0, c=0.0, horizon=10.0, seed=0),
            dict(p=1.5, amplitude=1.0, c=0.0, horizon=10.0, seed=0),
            dict(p=0.5, amplitude=1.0, c=-1.0, horizon=10.0, seed=0),
            dict(p=0.5, amplitude=1.0, c=0.0, horizon=0.0, seed=0),
        ],
    )
    def test_domain_violations(self, kwargs):
        with pytest.raises(ValueError):
            gen_omori(**kwargs)


class TestGenParetoWaits:
    def test_same_seed_identical(self):
        spec = dict(mu=0.95, tau_min=1.0, count=1000, seed=5)
        assert np.array_equal(gen_pareto_waits(**spec).taus, gen_pareto_waits(**spec).taus)

    def test_support(self):
        waits = gen_pareto_waits(mu=1.5, tau_min=2.5, count=5000, seed=8)
        assert np.all(waits.taus >= 2.5)

    def test_ccdf_slope_oracle(self):
        # rank-based CCDF regression, independent of the waiting-fit module
        waits = gen_pareto_waits(mu=0.95, tau_min=1.0, count=10_000, seed=3)
        s = np.sort(waits.taus)
        ccdf = 1.0 - np.arange(1, len(s) + 1) / len(s)
        keep = (ccdf > 0) & (s < np.quantile(s, 0.99))
        slope = np.polyfit(np.log(s[keep]), np.log(ccdf[keep]), 1)[0]
        assert slope == pytest.approx(-0.95, abs=0.05)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            gen_pareto_waits(mu=0.0, tau_min=1.0, count=10, seed=0)
        with pytest.raises(ValueError):
            gen_pareto_waits(mu=1.0, tau_min=0.0, count=10, seed=0)
        with pytest.raises(ValueError):
            gen_pareto_waits(mu=1.0, tau_min=1.0, count=-1, seed=0)

    def test_overflowing_draw_is_refused(self):
        # (1 - U)**-1000 overflows float64 for U above about 0.51
        with pytest.raises(ValueError, match="a wait overflows float64: mu = 0.001 is too small for 100 draws"):
            gen_pareto_waits(mu=0.001, tau_min=1.0, count=100, seed=0)


class TestGenStationary:
    def test_same_seed_identical(self):
        assert np.array_equal(
            gen_stationary(rate=1.0, horizon=1000.0, seed=4).times,
            gen_stationary(rate=1.0, horizon=1000.0, seed=4).times,
        )

    def test_mean_gap(self):
        ev = gen_stationary(rate=2.0, horizon=30_000.0, seed=9)
        gaps = np.diff(ev.times)
        assert gaps.mean() == pytest.approx(0.5, abs=3.0 * 0.5 / np.sqrt(len(gaps)))

    def test_count(self):
        ev = gen_stationary(rate=2.0, horizon=30_000.0, seed=9)
        expected = 2.0 * 30_000.0
        assert abs(len(ev) - expected) <= 3.0 * np.sqrt(expected)

    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_is_omori_at_p0(self, rate):
        # dividing the summed gaps by a power of two is exact, so the two
        # draws agree to the bit
        omori = gen_omori(p=0.0, amplitude=rate, c=0.0, horizon=5000.0, seed=4)
        assert np.array_equal(gen_stationary(rate=rate, horizon=5000.0, seed=4).times, omori.times)

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            gen_stationary(rate=0.0, horizon=100.0, seed=0)
        with pytest.raises(ValueError):
            gen_stationary(rate=1.0, horizon=-5.0, seed=0)


_GENERATORS = {
    "omori": (gen_omori, dict(p=0.5, amplitude=1.0, c=1.0, horizon=10.0, seed=0)),
    "pareto": (gen_pareto_waits, dict(mu=1.0, tau_min=1.0, count=10, seed=0)),
    "stationary": (gen_stationary, dict(rate=1.0, horizon=10.0, seed=0)),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "kind,name",
    [
        ("omori", "p"), ("omori", "amplitude"), ("omori", "c"), ("omori", "horizon"),
        ("pareto", "mu"), ("pareto", "tau_min"),
        ("stationary", "rate"), ("stationary", "horizon"),
    ],
)
def test_non_finite_parameter_is_rejected(kind, name, value):
    # such a value would otherwise never end the chunk loop, return an empty
    # catalog or fail later with an unrelated error
    generate, defaults = _GENERATORS[kind]
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        generate(**{**defaults, name: float(value)})


@pytest.mark.parametrize(
    "kind,params,message",
    [
        ("pareto", dict(count=MAX_EVENTS + 1), "a count of 4.194e\\+06"),
        ("stationary", dict(horizon=MAX_EVENTS + 1.0), "an expected event count of 4.194e\\+06"),
        # 2 (sqrt(1 + horizon) - 1) events expected: just over the cap
        ("omori", dict(horizon=4.4e12), "an expected event count of 4.195e\\+06"),
    ],
)
def test_catalog_over_the_cap_is_value_error(kind, params, message):
    # refused before drawing; without the cap these would draw just over
    # MAX_EVENTS, so a regression stays small
    generate, defaults = _GENERATORS[kind]
    with pytest.raises(ValueError, match=f"^{message} exceeds the cap of {MAX_EVENTS}$"):
        generate(**{**defaults, **params})


def test_derive_seeds_deterministic_and_distinct():
    a = derive_seeds(123, 8)
    b = derive_seeds(123, 8)
    assert a == b
    assert len(set(a)) == 8
    assert derive_seeds(124, 8) != a
