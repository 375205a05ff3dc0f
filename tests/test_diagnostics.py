import json

import numpy as np
import pytest

from aftershocks import (
    DataError,
    EventSequence,
    OmoriFit,
    OmoriGenSpec,
    ParetoGenSpec,
    WaitingFit,
    bootstrap_ci,
    build_histogram,
    build_report,
    gen_omori,
    gen_pareto_waits,
    markov_relation,
    serialize_report,
    waiting_times,
)
from aftershocks import diagnostics
from aftershocks.diagnostics import to_jsonable


def _events_from_waits(mu, count, seed):
    waits = gen_pareto_waits(ParetoGenSpec(mu=mu, tau_min=1.0, count=count, seed=seed))
    return EventSequence(times=np.concatenate([[0.0], np.cumsum(waits.taus)]))


def _minute_catalog(amplitude, horizon, seed):
    spec = OmoriGenSpec(
        p=0.6, amplitude=amplitude, c=0.0, horizon=horizon, seed=seed, round_to_minutes=True
    )
    return gen_omori(spec), horizon


def _pipeline_options(horizon):
    # what the analyze pipeline passes for the Markov interval, c pinned
    return {
        "omori": {"grid_step": max(1.0, horizon / 512.0), "horizon": horizon, "c_search": False},
        "mu": {"method": "lsq", "bin_size": 1.0, "fit_range": (None, None)},
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

    def test_accepts_fit_objects(self):
        omori = OmoriFit(p=0.4, amplitude=2.0, c=0.0, rss=1.0, grid_step=1.0, horizon=10.0)
        waiting = WaitingFit(mu=0.9, fit_range=(1.0, 50.0), method="lsq", stderr=0.05, n_used=40)
        check = markov_relation(omori, waiting, None)
        assert check.sum == pytest.approx(1.3)
        assert check.ci == (check.sum, check.sum)
        assert check.verdict == "violated"
        # the zero-width fallback says so in the report itself
        assert check.ci_source == "point"

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
        ev = _events_from_waits(0.95, 300, seed=4)
        opts = {"mu": {"fit_range": (1.0, None)}}
        ci1 = bootstrap_ci(ev, "mu", resamples=120, seed=9, fit_options=opts)
        ci2 = bootstrap_ci(ev, "mu", resamples=120, seed=9, fit_options=opts)
        assert ci1 == ci2

    def test_interval_contains_point_estimate(self):
        from aftershocks import fit_mu, waiting_times

        ev = _events_from_waits(0.95, 300, seed=4)
        point = fit_mu(waiting_times(ev), fit_range=(1.0, None), method="mle").mu
        lo, hi = bootstrap_ci(
            ev, "mu", resamples=200, seed=3, fit_options={"mu": {"fit_range": (1.0, None)}}
        )
        assert lo <= point <= hi

    def test_requires_hundred_resamples(self):
        ev = _events_from_waits(0.95, 300, seed=4)
        with pytest.raises(ValueError):
            bootstrap_ci(ev, "mu", resamples=50, seed=0)

    def test_unknown_estimator(self):
        ev = _events_from_waits(0.95, 300, seed=4)
        with pytest.raises(ValueError):
            bootstrap_ci(ev, "median", resamples=100, seed=0)

    def test_persistent_estimator_failure_is_error(self):
        # 6 events -> every omori resample is below the 10-event floor
        ev = EventSequence(times=np.array([0.0, 1.0, 3.0, 6.0, 10.0, 15.0]))
        with pytest.raises(DataError, match="resamples"):
            bootstrap_ci(ev, "omori", resamples=100, seed=0)

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
                assert fit_mu(hist, method="lsq").mu > 0, "Omori refit of a resample whose mu fit failed"
            state["calls"] += 1
            state["refits"] += len(catalogs)
            return fit_omori(catalogs, **kwargs)

        monkeypatch.setattr(diagnostics, "fit_mu", counted_mu)
        monkeypatch.setattr(diagnostics, "fit_omori", counted_omori)
        with pytest.raises(DataError) as info:
            bootstrap_ci(ev, "sum", resamples=100, seed=1, fit_options=_pipeline_options(horizon))
        assert str(info.value) == "estimator failed on 42/100 resamples"
        assert state["mu_failed"] == 42
        assert state["calls"] == 1
        assert state["refits"] == 58

    @pytest.mark.parametrize(
        "estimator,expected",
        [
            ("sum", (0.5835223004843492, 0.8391262865180411)),
            ("omori", (0.468656191169952, 0.4952204058779478)),
            ("mu", (0.10759713447858192, 0.3380315759137409)),
        ],
    )
    def test_interval_equals_recorded_value(self, estimator, expected):
        # every resample of this catalog fits; the mu interval was recorded
        # when each resample fitted p before mu, the two with p in them when
        # the Omori refinement became Brent's method
        ev, horizon = _minute_catalog(8.0, 3000.0, seed=1)
        ci = bootstrap_ci(ev, estimator, resamples=100, seed=1, fit_options=_pipeline_options(horizon))
        assert ci == expected

    def test_searched_c_interval_equals_recorded_value(self):
        # every resample fits, so all 100 Omori refits (c searched) go through
        # one list fit_omori call; recorded when each resample was refitted
        # with its own coarse scan
        ev, horizon = _minute_catalog(8.0, 3000.0, seed=1)
        opts = _pipeline_options(horizon)
        opts["omori"]["c_search"] = True
        ci = bootstrap_ci(ev, "sum", resamples=100, seed=1, fit_options=opts)
        assert ci == (0.6605995137957372, 1.0454187546415417)

    def test_continuous_catalog_sum_interval_equals_recorded_value(self):
        # non-integer waits use geometric bin midpoints; one of the 100 LSQ mu
        # fits fails. Recorded when every resample rebuilt its event sequence
        # and binned the waits of that sequence
        ev = gen_omori(OmoriGenSpec(p=0.6, amplitude=8.0, c=0.0, horizon=3000.0, seed=1))
        ci = bootstrap_ci(ev, "sum", resamples=100, seed=1, fit_options=_pipeline_options(3000.0))
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
            bootstrap_ci(ev, "sum", resamples=100, seed=1, fit_options=_pipeline_options(horizon))
        assert len(built_catalogs) == len(refitted) == 58

    @pytest.mark.parametrize(
        "estimator,method,rebuilt", [("omori", "lsq", 100), ("mu", "lsq", 0), ("mu", "mle", 100)]
    )
    def test_catalog_rebuilt_only_where_a_fit_needs_it(self, built_catalogs, estimator, method, rebuilt):
        # the Omori refit needs each resampled catalog and the MLE its raw
        # waits; the LSQ mu reads only the resample's bin counts
        ev, horizon = _minute_catalog(8.0, 3000.0, seed=1)
        opts = _pipeline_options(horizon)
        opts["mu"]["method"] = method
        bootstrap_ci(ev, estimator, resamples=100, seed=1, fit_options=opts)
        assert len(built_catalogs) == rebuilt

    def test_coverage_of_nominal_interval(self):
        # 95% interval should cover the true exponent in >= 90 of 100 trials
        mu_true = 0.95
        covered = 0
        for trial in range(100):
            ev = _events_from_waits(mu_true, 400, seed=1000 + trial)
            lo, hi = bootstrap_ci(
                ev,
                "mu",
                resamples=150,
                seed=2000 + trial,
                fit_options={"mu": {"fit_range": (1.0, None)}},
            )
            covered += lo <= mu_true <= hi
        assert covered >= 90


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
            artifacts=["report.json"],
        )
        assert json.loads(serialize_report(report)) == report

    def test_serialization_is_deterministic(self):
        report = build_report(config={"b": 2, "a": 1}, notes=["x"])
        assert serialize_report(report) == serialize_report(dict(reversed(report.items())))


class TestToJsonable:
    def test_numpy_scalars_and_arrays(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float64(0.5)) == 0.5
        assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

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
