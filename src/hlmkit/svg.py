"""Hand-written SVG rendering for heatmaps and learning curves.

No plotting dependency: output is a deterministic string of rectangles,
polylines and text, so rerunning a report on unchanged inputs produces
byte-identical files.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Sequence

from .errors import ValidationError

_CELL = 56
_ROW_H = 26
_MARGIN_L = 130
_MARGIN_T = 56
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MAX_PLOTTED = sys.float_info.max / 4  # beyond it, an axis span or tick may overflow to inf
# the characters outside XML 1.0's Char production, which no escape can spell in a
# document; a pattern string, compiled on first use, so importing hlmkit compiles nothing
_NOT_XML_CHAR = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _f(x: float) -> str:
    return f"{x:.2f}"


def _esc(s: str) -> str:
    bad = re.search(_NOT_XML_CHAR, s)
    if bad:
        raise ValidationError(f"SVG text cannot hold {bad.group()!r}, as in {s!r:.60}")
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _diverging_color(v: float) -> str:
    """Blue for -1, white for 0, red for +1; clamped outside [-1, 1]."""
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        r, g, b = 255, round(255 * (1 - v * 0.75)), round(255 * (1 - v))
    else:
        r, g, b = round(255 * (1 + v)), round(255 * (1 + v * 0.75)), 255
    return f"rgb({r},{g},{b})"


def heatmap_svg(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Sequence[Sequence[float | None]],
) -> str:
    """Grid of colored cells with numeric labels, rows x columns, titled "HLM index";
    ``values[i][j]`` is the cell of row ``i`` and column ``j``, None for an empty cell."""
    if not row_labels or not col_labels:
        raise ValidationError("heatmap needs at least one row and one column")
    width = _MARGIN_L + _CELL * len(col_labels) + 20
    height = _MARGIN_T + _ROW_H * len(row_labels) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="18" font-size="14">HLM index</text>',
    ]
    for j, col in enumerate(col_labels):
        x = _MARGIN_L + j * _CELL + _CELL / 2
        parts.append(
            f'<text x="{_f(x)}" y="{_MARGIN_T - 8}" text-anchor="middle">{_esc(col)}</text>'
        )
    for i, (row, row_values) in enumerate(zip(row_labels, values)):
        y = _MARGIN_T + i * _ROW_H
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{_f(y + _ROW_H / 2 + 4)}" '
            f'text-anchor="end">{_esc(row)}</text>'
        )
        for j, v in enumerate(row_values):
            x = _MARGIN_L + j * _CELL
            if v is None:
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_ROW_H}" '
                    f'fill="#eeeeee" stroke="#999"/>'
                )
                continue
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_ROW_H}" '
                f'fill="{_diverging_color(v)}" stroke="#999"/>'
            )
            parts.append(
                f'<text x="{_f(x + _CELL / 2)}" y="{_f(y + _ROW_H / 2 + 4)}" '
                f'text-anchor="middle">{_f(v)}</text>'
            )
    parts.append("</svg>\n")
    return "\n".join(parts)


def curves_svg(series: Sequence[tuple[str, Sequence[tuple[float, float]]]]) -> str:
    """Polyline chart of one or more (x, y) series with a legend, titled "Learning
    curves", of "dev metric" against "step"."""
    if not series or any(len(points) < 2 for _, points in series):
        raise ValidationError("each curve needs at least two points")
    width, height = 560, 360
    left, right, top, bottom = 64, 150, 40, 48
    plot_w, plot_h = width - left - right, height - top - bottom

    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if max(-x0, x1, -y0, y1) > _MAX_PLOTTED:
        raise ValidationError(f"curve values beyond ±{_MAX_PLOTTED:.4g} cannot be plotted")
    if x1 == x0:  # a flat axis spans 1, or one float step where + 1 rounds away
        x1 = max(x0 + 1, math.nextafter(x0, math.inf))
    if y1 == y0:
        y1 = max(y0 + 1, math.nextafter(y0, math.inf))

    def px(x: float) -> float:
        return left + (x - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y0) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
        f'<text x="{left}" y="24" font-size="14">Learning curves</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(
            f'<text x="{_f(px(xv))}" y="{height - bottom + 16}" '
            f'text-anchor="middle">{_f(xv)}</text>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{_f(py(yv) + 4)}" text-anchor="end">{_f(yv)}</text>'
        )
    parts.append(
        f'<text x="{_f(left + plot_w / 2)}" y="{height - 10}" '
        f'text-anchor="middle">step</text>'
    )
    parts.append(
        f'<text x="16" y="{_f(top + plot_h / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_f(top + plot_h / 2)})">dev metric</text>'
    )
    for idx, (label, points) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{_f(px(x))},{_f(py(y))}" for x, y in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = top + 14 + idx * 16
        parts.append(
            f'<line x1="{width - right + 10}" y1="{ly - 4}" x2="{width - right + 34}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{width - right + 40}" y="{ly}">{_esc(label)}</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)
