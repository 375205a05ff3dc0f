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
# the XML escapes (html.escape would load a 2,000-entry entity table)
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tag(name: str, body: str | None = None, **attrs) -> str:
    """One element, the one place that writes markup: ``_`` in an attribute
    name becomes ``-``, a float value is formatted with ``_fmt``, every other
    value and the body are escaped, and an attribute set to None is left out."""
    cells = "".join(
        f' {key.replace("_", "-")}="{_fmt(v) if isinstance(v, float) else str(v).translate(_ESCAPES)}"'
        for key, v in attrs.items() if v is not None
    )
    return f"<{name}{cells}/>" if body is None else f"<{name}{cells}>{body.translate(_ESCAPES)}</{name}>"


def _transform(values, use_log: bool) -> list[float]:
    out = []
    for v in map(float, values):
        kept = math.isfinite(v) and not (use_log and v <= 0)
        out.append((math.log10(v) if use_log else v) if kept else math.nan)
    return out


def _ticks(lo: float, hi: float, use_log: bool) -> list[tuple[float, str]]:
    if use_log:
        lo_d, hi_d = math.floor(lo), math.ceil(hi)
        step = max(1, int(math.ceil((hi_d - lo_d) / 6.0)))
        return [(float(d), f"1e{d:d}") for d in range(int(lo_d), int(hi_d) + 1, step)]
    linear = (lo + (hi - lo) * i / 4.0 for i in range(5))
    return [(v, format(float(f"{v:.4g}"), "g")) for v in linear]


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

    def line(x1, y1, x2, y2, stroke="black", width=1) -> str:
        return _tag("line", x1=x1, y1=y1, x2=x2, y2=y2, stroke=stroke, stroke_width=width)

    def text(x, y, body, size, anchor=None, transform=None) -> str:
        return _tag("text", body, x=x, y=y, text_anchor=anchor, font_family="sans-serif",
                    font_size=size, transform=transform)

    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    mid_y = _MARGIN_T + plot_h / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        _tag("rect", width=_WIDTH, height=_HEIGHT, fill="white"),
        text(_WIDTH / 2, 20, title, 14, "middle"),
        line(x0, y0, x0 + plot_w, y0),  # axes
        line(x0, y0, x0, _MARGIN_T),
    ]
    for v, label in _ticks(x_lo + pad_x, x_hi - pad_x, logx):
        if x_lo <= v <= x_hi:
            parts += [line(sx(v), y0, sx(v), y0 + 4), text(sx(v), y0 + 18, label, 11, "middle")]
    for v, label in _ticks(y_lo + pad_y, y_hi - pad_y, logy):
        if y_lo <= v <= y_hi:
            parts += [line(x0 - 4, sy(v), x0, sy(v)), text(x0 - 8, sy(v) + 4, label, 11, "end")]
    parts.append(text(x0 + plot_w / 2, _HEIGHT - 8.0, xlabel, 12, "middle"))
    parts.append(text(14, mid_y, ylabel, 12, "middle", f"rotate(-90 14 {_fmt(mid_y)})"))
    for i, (label, pts) in enumerate(txy):
        color = PALETTE[i % len(PALETTE)]
        if len(pts) >= 2:
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(_tag("polyline", points=coords, fill="none", stroke=color, stroke_width="1.5"))
        if markers or len(pts) < 2:
            parts += [_tag("circle", cx=sx(x), cy=sy(y), r="2.5", fill=color) for x, y in pts]
        ly = _MARGIN_T + 14 + 14 * i
        parts.append(line(x0 + plot_w - 120, ly - 4, x0 + plot_w - 100, ly - 4, color, 2))
        parts.append(text(x0 + plot_w - 94, ly, label, 11))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
