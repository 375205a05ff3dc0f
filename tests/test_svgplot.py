import re

import pytest

from aftershocks.svgplot import line_chart


@pytest.mark.parametrize(
    "series,logx",
    [
        ([("empty", [], [])], False),
        ([("point", [3.0], [2.0])], False),
        ([("constant", [1.0, 2.0, 3.0], [5.0, 5.0, 5.0])], False),
        # every point is dropped on the log axis, as in the empty chart
        ([("nonpositive", [0.0, -1.0], [1.0, 2.0])], True),
    ],
    ids=["empty", "single-point", "constant", "log-axis-nonpositive"],
)
def test_degenerate_series_render_finite_and_deterministic(series, logx):
    # a zero-width data range is widened before it divides the plot size
    svg = line_chart(series, title="chart", xlabel="x", ylabel="y", logx=logx)
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert not re.search(r"nan|inf", svg, re.IGNORECASE)
    assert line_chart(series, title="chart", xlabel="x", ylabel="y", logx=logx) == svg


def test_single_point_is_a_marker():
    svg = line_chart([("point", [3.0], [2.0])], title="chart", xlabel="x", ylabel="y")
    assert svg.count("<circle") == 1
    assert "<polyline" not in svg
