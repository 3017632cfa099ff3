"""SVG output is well-formed XML for any label text, or is refused."""

import xml.etree.ElementTree as ET

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
@given(LABELS, LABELS, TEXT)
@example(["a\x01b"], ["t"], "")
@example(["m/c"], ["t"], "\ud800")
def test_heatmap_is_well_formed_or_refused(rows, cols, title):
    grid = [[0.5] * len(cols) for _ in rows]
    _well_formed_or_refused(lambda: svg.heatmap_svg(rows, cols, grid, title=title))


@settings(max_examples=300, deadline=None)
@given(LABELS, TEXT, TEXT, TEXT)
@example(["a\x0bb"], "", "step", "metric")
@example(["run"], "￾", "step", "metric")
def test_curves_are_well_formed_or_refused(labels, title, x_label, y_label):
    series = [(label, [(0.0, 1.0), (1.0, 2.0)]) for label in labels]
    _well_formed_or_refused(lambda: svg.curves_svg(series, title, x_label, y_label))
