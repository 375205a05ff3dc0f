"""Tiny deterministic SVG line charts.

No plotting dependency: output is plain text with fixed-precision
coordinates, so identical inputs give byte-identical files, which the
pipeline's determinism contract relies on.
"""

from __future__ import annotations

import math
from typing import Sequence

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 36.0, 46.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _transform(values, use_log: bool) -> list[float]:
    out = []
    for v in values:
        v = float(v)
        if not math.isfinite(v) or (use_log and v <= 0):
            out.append(math.nan)
        else:
            out.append(math.log10(v) if use_log else v)
    return out


def _ticks(lo: float, hi: float, use_log: bool) -> list[tuple[float, str]]:
    if use_log:
        lo_d, hi_d = math.floor(lo), math.ceil(hi)
        step = max(1, int(math.ceil((hi_d - lo_d) / 6.0)))
        return [(float(d), f"1e{d:d}") for d in range(int(lo_d), int(hi_d) + 1, step)]
    ticks = []
    for i in range(5):
        v = lo + (hi - lo) * i / 4.0
        ticks.append((v, format(float(f"{v:.4g}"), "g")))
    return ticks


def line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    logx: bool = False,
    logy: bool = False,
    markers: bool = False,
) -> str:
    """Render labelled (x, y) series as an SVG document string.

    In log mode, nonpositive values are dropped point-wise. ``markers``
    draws small circles at data points in addition to the polyline (used
    for histogram-style charts).
    """
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    txy = []
    for label, xs, ys in series:
        tx, ty = _transform(xs, logx), _transform(ys, logy)
        pts = [(x, y) for x, y in zip(tx, ty) if math.isfinite(x) and math.isfinite(y)]
        txy.append((label, pts))

    all_x = [p[0] for _, pts in txy for p in pts]
    all_y = [p[1] for _, pts in txy for p in pts]
    if not all_x:
        all_x, all_y = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x, pad_y = 0.03 * (x_hi - x_lo), 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]

    # axes
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0 + plot_w)}" y2="{_fmt(y0)}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(_MARGIN_T)}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for v, label in _ticks(x_lo + pad_x, x_hi - pad_x, logx):
        if not (x_lo <= v <= x_hi):
            continue
        parts.append(
            f'<line x1="{_fmt(sx(v))}" y1="{_fmt(y0)}" x2="{_fmt(sx(v))}" y2="{_fmt(y0 + 4)}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(sx(v))}" y="{_fmt(y0 + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    for v, label in _ticks(y_lo + pad_y, y_hi - pad_y, logy):
        if not (y_lo <= v <= y_hi):
            continue
        parts.append(
            f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(sy(v))}" x2="{_fmt(x0)}" y2="{_fmt(sy(v))}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(sy(v) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{_fmt(x0 + plot_w / 2)}" y="{_fmt(_HEIGHT - 8)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_fmt(_MARGIN_T + plot_h / 2)})">{ylabel}</text>'
    )

    for i, (label, pts) in enumerate(txy):
        color = PALETTE[i % len(PALETTE)]
        if len(pts) >= 2:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if markers or len(pts) < 2:
            for x, y in pts:
                parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.5" fill="{color}"/>')
        ly = _MARGIN_T + 14 + 14 * i
        parts.append(
            f'<line x1="{_fmt(x0 + plot_w - 120)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(x0 + plot_w - 100)}" y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 + plot_w - 94)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
