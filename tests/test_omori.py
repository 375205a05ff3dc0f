import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aftershocks import (
    DataError,
    EventSequence,
    OmoriFit,
    cumulative_count,
    fit_omori,
    fit_omori_mle,
    gen_omori,
    omori_model,
)
from aftershocks import omori
from aftershocks.omori import C_SEARCH_GRID, LOG_BRANCH_WINDOW, P_SEARCH_RANGE, P_SEARCH_STEP


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

    @pytest.mark.parametrize(
        "grid,message",
        [([[0.0, 1.0]], "grid must be 1-d"), ([-1.0, 2.0], "grid must be nonnegative")],
        ids=["2d", "negative"],
    )
    def test_bad_grid_rejected(self, grid, message):
        ev = EventSequence(times=np.array([1.0]))
        with pytest.raises(ValueError, match=message):
            cumulative_count(ev, grid)

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(31))
        times = np.unique(np.floor(rng.random(200) * 1000.0))
        ev = EventSequence(times=times)
        grid = np.sort(rng.random(50) * 1100.0)
        counted = cumulative_count(ev, grid)
        oracle = np.array([sum(1 for x in times if x <= g) for g in grid], dtype=float)
        assert np.array_equal(counted, oracle)


_SEED3 = dict(p=0.6, amplitude=5.0, c=0.0, horizon=20_000.0, seed=3)
_SEED3_MINUTES = dict(
    p=0.6, amplitude=5.0, c=0.0, horizon=20_000.0, seed=3, round_to_minutes=True
)
_SEED9 = dict(p=1.1, amplitude=30.0, c=5.0, horizon=5000.0, seed=9)

# (spec, c pinned, c searched, rate MLE), each (p, c, amplitude, rss)
_RECORDED = [
    (
        _SEED3,
        (0.5843122927220107, 0.0, 4.7067296990375, 407651.7160586694),
        # c = 0 wins once the c search refines it on the full grid
        (0.5843122927220107, 0.0, 4.7067296990375, 407651.7160586694),
        (0.600303002970182, 0.0, 5.282098053174337, 2604.2373496343816),
    ),
    (
        _SEED3_MINUTES,
        (0.5318150572495012, 0.0, 2.9264243091372926, 380660.9421793951),
        (0.5481080963463413, 3.7734664138013243, 3.382342812949289, 350693.9229525393),
        (0.5642948176477224, 10.0, 3.8566896247805262, 2608.943610375125),
    ),
    (
        _SEED9,
        (0.8422241336009845, 0.0, 5.11953841846103, 100813.01557370974),
        (1.311097588632971, 29.53609654170539, 133.98834730606077, 15073.743287436027),
        (1.2053657901082364, 15.848931924611142, 62.42833205347225, 354.6433110155167),
    ),
]

# the same fits' (p, rss) as the nested golden-section refinement gave them
_GOLDEN_SECTION_RECORDED = [
    (
        _SEED3,
        (0.5843123403911193, 407651.7160632649),
        (0.5843123403911193, 407651.7160632649),
        (0.6003032306271558, 2604.2373496344753),
    ),
    (
        _SEED3_MINUTES,
        (0.5318150824620563, 380660.94218049746),
        (0.5481077793623597, 350693.9229546117),
        (0.5642939041222347, 2608.9436103735193),
    ),
    (
        _SEED9,
        (0.8422241980696898, 100813.01557391649),
        (1.311098917170174, 15073.743287694215),
        (1.205366208378817, 354.64331101540716),
    ),
]


class TestFitOmori:
    def test_bits_do_not_depend_on_blas_threads(self):
        # a 20,000-point grid: OpenBLAS would split each full-grid dot over threads
        code = (
            "from aftershocks import fit_omori, gen_omori\n"
            "ev = gen_omori(p=0.6, amplitude=5.0, c=0.0, horizon=20_000.0, seed=5)\n"
            "f = fit_omori(ev, c_search=True)\n"
            "print(*(x.hex() for x in (f.p, f.c, f.amplitude, f.rss)))\n"
        )
        src = str(Path(omori.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]

    def test_closed_form_amplitude_is_optimal(self):
        ev = gen_omori(p=0.6, amplitude=4.0, c=0.0, horizon=5000.0, seed=3)
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
        ev = gen_omori(p=0.5, amplitude=5.0, c=0.0, horizon=40_000.0, seed=123)
        assert len(ev) >= 2000
        start = time.perf_counter()
        fit = fit_omori(ev, grid_step=10.0, horizon=40_000.0, c_search=True)
        assert time.perf_counter() - start < 10.0
        assert fit.p == pytest.approx(0.5, abs=0.05)

    def test_too_few_events(self):
        with pytest.raises(DataError, match="at least 10"):
            fit_omori(EventSequence(times=np.arange(5.0) + 1.0), grid_step=1.0, horizon=10.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_is_value_error(self, horizon):
        # before the check, inf gave p = 2.5 (the search bound) and nan a
        # misleading "got 0" DataError
        ev = gen_omori(p=0.6, amplitude=5.0, c=0.0, horizon=2000.0, seed=1)
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            fit_omori_mle(ev, horizon=horizon)

    def test_c_pinned_when_search_disabled(self):
        ev = gen_omori(p=0.8, amplitude=5.0, c=0.0, horizon=2000.0, seed=4)
        fit = fit_omori(ev, grid_step=2.0, horizon=2000.0, c_search=False)
        assert fit.c == 0.0

    def test_rate_mle_cross_check(self):
        ev = gen_omori(p=0.5, amplitude=5.0, c=0.0, horizon=40_000.0, seed=123)
        fit = fit_omori_mle(ev, horizon=40_000.0, c_search=False)
        assert fit.method == "rate-mle"
        assert fit.p == pytest.approx(0.5, abs=0.05)
        assert fit.amplitude == pytest.approx(5.0, rel=0.2)

    @pytest.mark.parametrize("spec,lsq_c0,lsq_c,mle", _RECORDED)
    def test_fits_equal_recorded_values(self, spec, lsq_c0, lsq_c, mle):
        # (p, c, amplitude, rss) recorded when the refinement became Brent's
        # method; the searches are deterministic, so equality is exact
        ev = gen_omori(**spec)
        fits = (fit_omori(ev, c_search=False), fit_omori(ev, c_search=True), fit_omori_mle(ev))
        for fit, expected in zip(fits, (lsq_c0, lsq_c, mle)):
            assert (fit.p, fit.c, fit.amplitude, fit.rss) == expected
        # searching c never returns a worse fit than pinning it to 0
        assert fits[1].rss <= fits[0].rss

    @pytest.mark.parametrize("spec,lsq_c0,lsq_c,mle", _GOLDEN_SECTION_RECORDED)
    def test_fits_match_golden_section_values(self, spec, lsq_c0, lsq_c, mle):
        # the (p, rss) the nested golden-section refinement gave: the Brent
        # refinement finds the same minimum, never worse than it by more
        # than 1e-9 relative (rss is the negative log-likelihood for the MLE)
        ev = gen_omori(**spec)
        fits = (fit_omori(ev, c_search=False), fit_omori(ev, c_search=True), fit_omori_mle(ev))
        for fit, (p_old, rss_old) in zip(fits, (lsq_c0, lsq_c, mle)):
            assert abs(fit.p - p_old) <= 1e-5
            assert fit.rss <= rss_old + 1e-9 * abs(rss_old)

    def test_evaluations_count_full_grid_cells(self, monkeypatch):
        ev = gen_omori(**_RECORDED[1][0])
        calls = []
        scored = omori._lsq_cell

        def counted(*args):
            calls.append(args[2:4])
            return scored(*args)

        monkeypatch.setattr(omori, "_lsq_cell", counted)
        pinned = fit_omori(ev, c_search=False)
        assert pinned.evaluations == len(calls) == 18
        calls.clear()
        searched = fit_omori(ev, c_search=True)
        assert searched.evaluations == len(calls) == 99
        # a diagnostic only: fits that differ in it alone compare equal
        assert searched == dataclasses.replace(searched, evaluations=0)
        assert fit_omori_mle(ev).evaluations is None


# Reference kernels: the allocating formulas the in-place kernels replace,
# kept verbatim so the kernels can be held to the same bits.
def _unit_ref(t, p, c, lt=None):
    if abs(p - 1.0) < LOG_BRANCH_WINDOW:
        return np.log1p(t / c) if lt is None else lt
    q = 1.0 - p
    if c > 0:
        if lt is None:
            lt = np.log1p(t / c)
        return c**q * np.expm1(q * lt) / q
    return t**q / q


def _lsq_cell_ref(y, grid, p, c, lt):
    g = _unit_ref(grid, p, c, lt)
    sgg = float(g @ g)
    syg = float(y @ g)
    if sgg <= 0 or syg <= 0:
        return math.inf, 0.0
    a = syg / sgg
    resid = y - a * g
    return float(resid @ resid), a


def _coarse_scan_ref(y, grid, p_values, c_values):
    sy2 = float(y @ y)
    n_p, n_c = len(p_values), len(c_values)
    rss = np.full((n_p, n_c), np.inf)
    q_all = 1.0 - p_values
    log_branch = np.abs(q_all) < LOG_BRANCH_WINDOW
    for j, c in enumerate(c_values):
        lt = np.log1p(grid / c) if c > 0 else np.log(grid)
        cq_pow = None
        for start in range(0, n_p, 64):
            sl = slice(start, min(start + 64, n_p))
            q = q_all[sl]
            m = np.exp(np.outer(q, lt))
            if c > 0:
                if cq_pow is None:
                    cq_pow = np.exp(q_all * math.log(c))
                g = cq_pow[sl, None] * (m - 1.0) / q[:, None]
            else:
                g = m / q[:, None]
            with np.errstate(invalid="ignore", divide="ignore"):
                syg = g @ y
                sgg = np.einsum("ij,ij->i", g, g)
                cell = sy2 - syg**2 / sgg
            bad = (syg <= 0) | (sgg <= 0) | ~np.isfinite(cell)
            cell[bad] = np.inf
            rss[sl, j] = cell
        if c > 0 and np.any(log_branch):
            g = lt
            syg = float(g @ y)
            sgg = float(g @ g)
            val = sy2 - syg**2 / sgg if (syg > 0 and sgg > 0) else np.inf
            rss[log_branch, j] = val
        elif c == 0:
            rss[log_branch | (p_values >= 1.0), j] = np.inf
    i, j = divmod(int(np.argmin(rss)), n_c)
    return float(p_values[i]), float(c_values[j]), float(p_values[int(np.argmin(rss[:, 0]))])


_KERNEL_SPECS = [
    dict(p=0.6, amplitude=5.0, c=0.0, horizon=6000.0, seed=3),
    dict(p=0.6, amplitude=5.0, c=0.0, horizon=6000.0, seed=3, round_to_minutes=True),
    dict(p=1.1, amplitude=30.0, c=5.0, horizon=5000.0, seed=9),
]
# c = 0, c on C_SEARCH_GRID and c off it; p = 0.5 is q = 0.5 exactly, and
# 1 and 1 + 5e-7 take the log branch
_KERNEL_C = (0.0, C_SEARCH_GRID[0], C_SEARCH_GRID[9], 3.7733144631834126, C_SEARCH_GRID[-1])
_KERNEL_P = (0.05, 0.5, 0.5843123403911193, 1.0, 1.0 + 5e-7, 1.311098917170174, 2.5)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("spec", _KERNEL_SPECS)
    def test_lsq_cell_bits(self, spec):
        ev = gen_omori(**spec)
        grid = np.arange(1.0, spec["horizon"] + 0.5)
        y = cumulative_count(ev, grid)
        # one set of buffers for every cell, as within a fit
        lt = np.empty_like(grid)
        work = (np.empty_like(grid), np.empty_like(grid))
        for c in _KERNEL_C:
            if c > 0:
                np.log1p(np.divide(grid, c, out=lt), out=lt)
            for p in _KERNEL_P:
                if c == 0 and p >= 1.0 - LOG_BRANCH_WINDOW:
                    continue  # inadmissible, never scored
                held = lt if c > 0 else None
                expected = _lsq_cell_ref(y, grid, p, c, np.log1p(grid / c) if c > 0 else None)
                assert omori._lsq_cell(y, grid, p, c, held, work) == expected, (p, c)
            if c > 0:
                # the log branch returns the held array itself: it must survive
                assert np.array_equal(lt, np.log1p(grid / c))

    @pytest.mark.parametrize("spec", _KERNEL_SPECS)
    @pytest.mark.parametrize("stride", [1, 3])
    def test_coarse_scan_bits(self, spec, stride):
        ev = gen_omori(**spec)
        grid = np.arange(1.0, spec["horizon"] + 0.5)[::stride]
        y = cumulative_count(ev, grid)
        default_p = np.arange(P_SEARCH_RANGE[0], P_SEARCH_RANGE[1] + P_SEARCH_STEP / 2.0, P_SEARCH_STEP)
        for p_values in (default_p, np.array(_KERNEL_P)):
            for c_values in ([0.0], [0.0, *C_SEARCH_GRID], list(_KERNEL_C)):
                # p = 1 exactly divides by q = 0 in a row the log branch overwrites
                with np.errstate(divide="ignore", invalid="ignore"):
                    expected = _coarse_scan_ref(y, grid, p_values, c_values)
                    assert omori._coarse_scan(y[None], grid, p_values, c_values)[0] == expected

    @pytest.mark.parametrize("stride", [1, 3])
    def test_stacked_coarse_scan_bits(self, stride, monkeypatch):
        # rows as fit_omori passes them: counts on a decimated grid
        grid = np.arange(1.0, 6000.5)[::stride]
        ys = [cumulative_count(gen_omori(**spec), grid) for spec in _KERNEL_SPECS]
        ys.append(np.zeros_like(grid))  # no cell admits an empty count
        stack = np.stack(ys)
        default_p = np.arange(P_SEARCH_RANGE[0], P_SEARCH_RANGE[1] + P_SEARCH_STEP / 2.0, P_SEARCH_STEP)
        # the starts do not depend on how many p rows a block holds: one,
        # the default budget's, or the whole p range
        budgets = (8 * len(grid), omori._BLOCK_BYTES, 8 * len(grid) * len(default_p))
        for p_values in (default_p, np.array(_KERNEL_P)):
            for c_values in ([0.0], [0.0, *C_SEARCH_GRID], list(_KERNEL_C)):
                with np.errstate(divide="ignore", invalid="ignore"):
                    expected = [_coarse_scan_ref(y, grid, p_values, c_values) for y in stack[:-1]]
                for budget in budgets:
                    monkeypatch.setattr(omori, "_BLOCK_BYTES", budget)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        got = omori._coarse_scan(stack, grid, p_values, c_values)
                    assert got[:-1] == expected, budget
                    assert isinstance(got[-1], DataError)
                    assert str(got[-1]) == "no admissible (p, c) cell: cumulative counts do not support the model"

    def test_coarse_scan_memory_is_bounded(self):
        # one block of model rows at a time, whatever the grid's length
        grid = np.arange(1.0, 40_000.5)
        y = cumulative_count(gen_omori(p=0.6, amplitude=5.0, c=0.0, horizon=40_000.0, seed=3), grid)
        ys = np.stack([y, y[::-1]])
        tracemalloc.start()
        try:
            omori._coarse_scan(ys, grid, omori._P_VALUES, omori._C_VALUES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < omori._BLOCK_BYTES + 4 * grid.nbytes

    @pytest.mark.parametrize("spec", _KERNEL_SPECS)
    @pytest.mark.parametrize("c_search", [False, True])
    def test_refinement_scores_each_cell_once(self, spec, c_search, monkeypatch):
        ev = gen_omori(**spec)
        calls = []
        scored = omori._lsq_cell

        def counted(*args):
            calls.append(args[2:4])
            return scored(*args)

        monkeypatch.setattr(omori, "_lsq_cell", counted)
        fit = fit_omori(ev, c_search=c_search)
        # no search revisits a cell, so the running best needs no memo
        assert fit.evaluations == len(calls) == len(set(calls))


def _fit_or_error(ev, **kwargs):
    try:
        return fit_omori(ev, **kwargs)
    except (DataError, ValueError) as exc:
        return exc


class TestFitOmoriList:
    @pytest.mark.parametrize("c_search", [False, True])
    @pytest.mark.parametrize("horizon", [4000.0], ids=["one-grid"])
    def test_list_equals_single_calls(self, c_search, horizon):
        catalogs = [gen_omori(**spec) for spec in _KERNEL_SPECS]
        catalogs[2:2] = [
            EventSequence(times=np.arange(5.0) + 1.0),  # too few events
            EventSequence(times=np.arange(5000.0, 5012.0)),  # none on a 4000-minute grid
        ]
        catalogs.append(catalogs[0])
        kwargs = {"grid_step": 2.0, "horizon": horizon, "c_search": c_search}
        listed = fit_omori(catalogs, **kwargs)
        assert len(listed) == len(catalogs)
        for got, ev in zip(listed, catalogs):
            single = _fit_or_error(ev, **kwargs)
            assert type(got) is type(single)
            if isinstance(single, OmoriFit):
                # evaluations takes no part in ==
                assert dataclasses.astuple(got) == dataclasses.astuple(single)
            else:
                assert str(got) == str(single)
        errors = [str(r) for r in listed if not isinstance(r, OmoriFit)]
        assert errors[0] == "need at least 10 events to fit, got 5"
        assert errors[1].startswith("no admissible (p, c) cell")

    def test_value_errors_are_raised(self):
        ev = gen_omori(**_KERNEL_SPECS[0])
        message = "horizon and grid_step must be finite and positive"
        with pytest.raises(ValueError, match=message):
            fit_omori(ev, horizon=-1.0)
        with pytest.raises(ValueError, match=message):
            fit_omori([ev], horizon=-1.0)
        # a list's catalogs share one grid, so no last event can set its end
        with pytest.raises(ValueError, match="a list of catalogs needs a horizon"):
            fit_omori([ev])
        assert fit_omori([], horizon=10.0) == []

    @pytest.mark.parametrize(
        "kwargs",
        [{"horizon": math.inf}, {"horizon": math.nan}, {"grid_step": math.inf}, {"grid_step": math.nan}],
        ids=["horizon-inf", "horizon-nan", "step-inf", "step-nan"],
    )
    def test_non_finite_grid_is_value_error(self, kwargs):
        # numpy's arange raised unrelated errors for these before the check
        ev = gen_omori(**_KERNEL_SPECS[0])
        message = "horizon and grid_step must be finite and positive"
        with pytest.raises(ValueError, match=message):
            fit_omori(ev, **kwargs)
        with pytest.raises(ValueError, match=message):
            fit_omori([ev], **{"horizon": 4000.0, **kwargs})

    def test_grid_over_the_cap_is_value_error(self):
        # a 1e9-point grid was allocated whole and ran the machine out of memory
        ev = gen_omori(**_KERNEL_SPECS[0])
        message = f"a fitting grid of 1e\\+15 points exceeds the cap of {omori.MAX_GRID_POINTS}"
        with pytest.raises(ValueError, match=message):
            fit_omori([ev], horizon=1e15)
        with pytest.raises(ValueError, match=message):
            fit_omori(ev, horizon=1e12, grid_step=1e-3)
