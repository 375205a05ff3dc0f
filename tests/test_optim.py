import math

import pytest

from aftershocks._optim import brent


def _traced(f):
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


@pytest.mark.parametrize("tol", [1e-4, 1e-5, 1e-6, 1e-7])  # the tolerances the fits use
@pytest.mark.parametrize("centre", [0.3, 0.5843123403911193, 1.7])
def test_quadratic_found_to_tol(centre, tol):
    f, points = _traced(lambda x: 3.0 * (x - centre) ** 2 + 2.0)
    x, fx = brent(f, 0.05, 2.5, tol=tol)
    assert abs(x - centre) <= tol
    # parabolic steps: under half of golden section's log(2.45 / tol) / log(1.618)
    assert len(points) < math.log(2.45 / tol) / math.log((1 + math.sqrt(5)) / 2) / 2
    assert fx == f(x)


@pytest.mark.parametrize("lo,hi,expected", [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (-2.0, 3.0, 3.0)])
def test_minimum_at_bracket_edge(lo, hi, expected):
    slope = 1.0 if expected == min(lo, hi) else -1.0
    f, points = _traced(lambda x: slope * x)
    x, _ = brent(f, lo, hi, tol=1e-6)
    assert abs(x - expected) <= 1e-6
    # never evaluated at or past the bracket ends
    assert all(min(lo, hi) < p < max(lo, hi) for p in points)


@pytest.mark.parametrize("a", [0.1, 0.6180339887, 1.9])
def test_non_smooth_abs_converges(a):
    x, fx = brent(lambda x: abs(x - a), 0.0, 2.0, tol=1e-7)
    assert abs(x - a) <= 1e-7
    assert fx == abs(x - a)


def test_inadmissible_region_is_avoided():
    # inf right of 0.5, as the Omori cells are where the model is not admitted
    x, fx = brent(lambda x: math.inf if x > 0.5 else (x - 0.45) ** 2, 0.0, 1.0, tol=1e-6)
    assert abs(x - 0.45) <= 1e-6 and math.isfinite(fx)


def test_points_visited_are_identical_across_calls():
    def f(x):
        return math.cos(3.0 * x) + 0.1 * x * x

    runs = []
    for _ in range(3):
        g, points = _traced(f)
        result = brent(g, -1.0, 2.0, tol=1e-8)
        runs.append((result, points))
    assert runs[0] == runs[1] == runs[2]
