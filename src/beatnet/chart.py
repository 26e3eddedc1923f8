"""Static SVG bar chart of MCC with confidence-interval whiskers.

Bars are grouped by subset; within a group, Train and Test get their
own colors. Each bar's whisker spans the bootstrap 90% interval. The
output is plain SVG text with fixed coordinate formatting, so identical
reports render byte-identical charts.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

from .errors import DataError
from .metrics import EvalReport

_WIDTH, _HEIGHT = 840, 480
_MARGIN_LEFT, _MARGIN_RIGHT = 70, 20
_MARGIN_TOP, _MARGIN_BOTTOM = 50, 70
_COLORS = {"Train": "#4878a8", "Test": "#9fc2e0"}
_FONT = "font-family=\"sans-serif\""


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_mcc_chart(reports: list[EvalReport], title: str) -> str:
    """Grouped bar chart of each report's MCC point value and CI."""
    if not reports:
        raise DataError("cannot chart zero reports")
    subsets: list[str] = []
    for r in reports:
        if r.subset_name not in subsets:
            subsets.append(r.subset_name)
    partitions = [p for p in ("Train", "Test")
                  if any(r.partition == p for r in reports)]

    lows = [r.metrics["mcc"].ci_low for r in reports]
    points = [r.metrics["mcc"].point for r in reports]
    y_min = min(0.0, math.floor(min(lows + points) * 10) / 10)
    y_max = 1.0
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def y_px(v: float) -> float:
        return _MARGIN_TOP + (y_max - v) / (y_max - y_min) * plot_h

    group_w = plot_w / len(subsets)
    bar_w = min(60.0, group_w / (len(partitions) + 1))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="28" text-anchor="middle" '
        f'font-size="16" {_FONT}>{escape(title)}</text>',
    ]

    # horizontal grid every 0.1, with y-axis labels
    tick = math.ceil(y_min * 10)
    while tick <= 10:
        v = tick / 10
        py = y_px(v)
        parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(py)}" '
                     f'x2="{_WIDTH - _MARGIN_RIGHT}" y2="{_fmt(py)}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" y="{_fmt(py + 4)}" '
                     f'text-anchor="end" font-size="11" {_FONT}>'
                     f'{v:.1f}</text>')
        tick += 1
    parts.append(f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.0f}" '
                 f'font-size="13" {_FONT} text-anchor="middle" '
                 f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.0f})">'
                 f'MCC</text>')

    for gi, subset in enumerate(subsets):
        group_x = _MARGIN_LEFT + gi * group_w
        present = [(pi, p) for pi, p in enumerate(partitions)
                   if any(r.subset_name == subset and r.partition == p
                          for r in reports)]
        span = len(present) * bar_w
        start_x = group_x + (group_w - span) / 2
        for slot, (pi, partition) in enumerate(present):
            report = next(r for r in reports if r.subset_name == subset
                          and r.partition == partition)
            m = report.metrics["mcc"]
            x0 = start_x + slot * bar_w
            top = y_px(max(m.point, 0.0))
            height = abs(y_px(0.0) - y_px(m.point))
            parts.append(f'<rect x="{_fmt(x0 + 2)}" y="{_fmt(top)}" '
                         f'width="{_fmt(bar_w - 4)}" '
                         f'height="{_fmt(height)}" '
                         f'fill="{_COLORS[partition]}"/>')
            cx = x0 + bar_w / 2
            y_lo, y_hi = y_px(m.ci_low), y_px(m.ci_high)
            parts.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(y_lo)}" '
                         f'x2="{_fmt(cx)}" y2="{_fmt(y_hi)}" '
                         f'stroke="#333333" stroke-width="1.5"/>')
            for wy in (y_lo, y_hi):
                parts.append(f'<line x1="{_fmt(cx - 5)}" y1="{_fmt(wy)}" '
                             f'x2="{_fmt(cx + 5)}" y2="{_fmt(wy)}" '
                             f'stroke="#333333" stroke-width="1.5"/>')
            parts.append(f'<text x="{_fmt(cx)}" '
                         f'y="{_fmt(min(top, y_hi) - 6)}" '
                         f'text-anchor="middle" font-size="10" {_FONT}>'
                         f'{m.point:.3f}</text>')
        parts.append(f'<text x="{_fmt(group_x + group_w / 2)}" '
                     f'y="{_HEIGHT - _MARGIN_BOTTOM + 22}" '
                     f'text-anchor="middle" font-size="11" {_FONT}>'
                     f'{escape(subset)}</text>')

    # axes and legend
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" '
                 f'x2="{_MARGIN_LEFT}" y2="{_fmt(y_px(y_min))}" '
                 f'stroke="#333333" stroke-width="1.5"/>')
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(y_px(0.0))}" '
                 f'x2="{_WIDTH - _MARGIN_RIGHT}" y2="{_fmt(y_px(0.0))}" '
                 f'stroke="#333333" stroke-width="1.5"/>')
    legend_x = _WIDTH - _MARGIN_RIGHT - 150
    for i, partition in enumerate(partitions):
        ly = _MARGIN_TOP + 4 + 18 * i
        parts.append(f'<rect x="{legend_x}" y="{ly}" width="12" height="12" '
                     f'fill="{_COLORS[partition]}"/>')
        parts.append(f'<text x="{legend_x + 18}" y="{ly + 10}" '
                     f'font-size="11" {_FONT}>{partition} partition</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
