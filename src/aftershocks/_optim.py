"""Derivative-free 1-d minimization used by the fitting routines.

One minimizer serves every fit: Brent's bounded method (R. P. Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 5). It fits a
parabola through the three best points seen and steps to its vertex when
that step stays inside the bracket and shrinks fast enough; otherwise it
takes a golden-section step into the larger part of the bracket.
"""

from __future__ import annotations

import math
from typing import Callable

_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section step, 0.381966...
_SQRT_EPS = math.sqrt(2.0**-52)  # relative spacing below which f cannot tell points apart
_MAX_ITER = 200


def brent(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Minimize ``f`` on ``[lo, hi]``; returns ``(x, f(x))``.

    ``tol`` is absolute: for a unimodal ``f`` the returned x lies within
    ``tol`` (plus ``sqrt(eps) * |x|``) of the minimizer. ``f`` is only
    evaluated strictly inside the bracket, and x is the best point it saw.
    Deterministic: the same ``f``, bracket and tolerance always evaluate
    the same points. Non-finite values of ``f`` are ranked as usual and
    force golden-section steps. On non-unimodal input it still converges,
    to some local minimum inside the bracket.
    """
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step and the one before it
    for _ in range(_MAX_ITER):
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            # vertex of the parabola through (x, fx), (w, fw), (v, fv) is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept a step that lands inside (a, b) and is under half the
            # step before last, so the bracket keeps shrinking
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
                parabolic = True
        if not parabolic:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx
