"""SVG output is well-formed XML for any label text, or is refused."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings, strategies as st

from hlmkit import svg
from hlmkit.errors import ValidationError

# any code point, surrogates included, which st.text() leaves out by default
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
LABELS = st.lists(TEXT, min_size=1, max_size=3)


def _well_formed_or_refused(render):
    try:
        text = render()
    except ValidationError:
        return
    ET.fromstring(text)


@settings(max_examples=300, deadline=None)
@given(LABELS, LABELS)
@example(["a\x01b"], ["t"])
@example(["m/c"], ["\ud800"])
def test_heatmap_is_well_formed_or_refused(rows, cols):
    grid = [[0.5] * len(cols) for _ in rows]
    _well_formed_or_refused(lambda: svg.heatmap_svg(rows, cols, grid))


@settings(max_examples=300, deadline=None)
@given(LABELS)
@example(["a\x0bb"])
@example(["\ufffe"])
def test_curves_are_well_formed_or_refused(labels):
    series = [(label, [(0.0, 1.0), (1.0, 2.0)]) for label in labels]
    _well_formed_or_refused(lambda: svg.curves_svg(series))


def test_a_heatmap_without_rows_is_refused():
    with pytest.raises(ValidationError) as refused:
        svg.heatmap_svg([], ["t"], [])
    assert str(refused.value) == "heatmap needs at least one row and one column"


def test_a_one_point_curve_is_refused():
    with pytest.raises(ValidationError) as refused:
        svg.curves_svg([("run", [(0.0, 1.0), (1.0, 2.0)]), ("one", [(0.0, 1.0)])])
    assert str(refused.value) == "each curve needs at least two points"
