import re
from xml.etree import ElementTree

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


def test_markup_characters_in_text_are_escaped():
    labels = {"title": 'a & b < "c"', "xlabel": "x > 0 & y", "ylabel": "<y>"}
    series = [('one & "two"', [1.0, 2.0], [1.0, 2.0]), ("<three>", [1.0, 2.0], [2.0, 1.0])]
    root = ElementTree.fromstring(line_chart(series, **labels))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == labels["title"]
    assert texts[-4:] == [labels["xlabel"], labels["ylabel"], 'one & "two"', "<three>"]
