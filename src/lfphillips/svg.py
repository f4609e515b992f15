"""Deterministic SVG time and scatter charts.

Charts are emitted as plain SVG text with fixed-precision coordinates, so
identical inputs always produce byte-identical documents and golden-file
diffs stay meaningful. No plotting library is involved. Every chart has the
same size, plot area, pixel scale and document layout; ``ChartStyle`` holds
only what callers set. ``line_chart`` labels its x axis "year" and its y axis
``y_label``. ``scatter_chart`` labels each axis with the label of the series
it plots and draws the regression line it is given (the CLI's is
``estimate.fit``'s); this module solves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .series import AnnualSeries, align

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 720, 440
# plot area in pixels: left, top, right and bottom edges
_FRAME = (64, 32, _WIDTH - 16, _HEIGHT - 48)


@dataclass(frozen=True)
class ChartStyle:
    title: str = ""
    y_label: str = ""  # time charts only
    percent_axis: bool = False  # label y ticks as percent while data stays fractional


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / target
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _tick_label(v: float, percent: bool) -> str:
    if percent:
        return f"{v * 100:g}%"
    return f"{v:g}"


def line_chart(series: Sequence[AnnualSeries], style: ChartStyle | None = None) -> str:
    """Render series as polylines over their years; all share one units tag."""
    if not series:
        raise InputError("no series to plot")
    units = {s.units for s in series}
    if len(units) > 1:
        raise InputError(f"mixed units on one axis: {sorted(units)}")
    style = style or ChartStyle()
    lo_year = min(s.start_year for s in series)
    hi_year = max(s.end_year for s in series)
    lo_v, hi_v = _padded(min(min(s.values) for s in series), max(max(s.values) for s in series))
    sx, sy = _scales(lo_year, max(hi_year - lo_year, 1), lo_v, hi_v - lo_v)
    marks = []
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{_fmt(sx(y))},{_fmt(sy(v))}" for y, v in zip(s.years, s.values))
        marks.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>')
    axes = _axes(style, _year_ticks(lo_year, hi_year), _nice_ticks(lo_v, hi_v), sx, sy,
                 "year", style.y_label)
    return _document(style, axes, marks, [s.label for s in series])


def scatter_chart(x: AnnualSeries, y: AnnualSeries, style: ChartStyle | None = None,
                  regression: tuple[float, float] | None = None) -> str:
    """Render ``y`` against ``x`` as points over their common years, each on
    its own axis; ``regression`` draws an (intercept, slope) line across x."""
    style = style or ChartStyle()
    xs, ys = (v.tolist() for v in align([(x, 0), (y, 0)])[0])
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    if regression is not None:
        a, b = regression
        lo_y = min(lo_y, a + b * lo_x, a + b * hi_x)
        hi_y = max(hi_y, a + b * lo_x, a + b * hi_x)
    lo_x, hi_x = _padded(lo_x, hi_x)
    lo_y, hi_y = _padded(lo_y, hi_y)
    sx, sy = _scales(lo_x, hi_x - lo_x, lo_y, hi_y - lo_y)
    marks = [f'<circle cx="{_fmt(sx(xv))}" cy="{_fmt(sy(yv))}" r="3" fill="{_PALETTE[0]}"/>'
             for xv, yv in zip(xs, ys)]
    if regression is not None:
        marks.append(
            f'<line x1="{_fmt(sx(lo_x))}" y1="{_fmt(sy(a + b * lo_x))}" '
            f'x2="{_fmt(sx(hi_x))}" y2="{_fmt(sy(a + b * hi_x))}" '
            f'stroke="{_PALETTE[1]}" stroke-width="2"/>'
        )
    axes = _axes(style, _nice_ticks(lo_x, hi_x), _nice_ticks(lo_y, hi_y), sx, sy,
                 x.label, y.label, x_percent=style.percent_axis)
    return _document(style, axes, marks, [x.label, y.label])


def _padded(lo: float, hi: float) -> tuple[float, float]:
    """lo..hi widened by 1 each way when flat, then padded by 5% at each end."""
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _scales(x_lo: float, x_span: float, y_lo: float, y_span: float):
    """Pixel maps onto the plot area: x_lo..x_lo + x_span runs left to right
    and y_lo..y_lo + y_span bottom to top."""
    x0, y0, x1, y1 = _FRAME
    return (lambda v: x0 + (v - x_lo) / x_span * (x1 - x0),
            lambda v: y1 - (v - y_lo) / y_span * (y1 - y0))


def _document(style: ChartStyle, axes: list[str], marks: list[str],
              labels: Sequence[str]) -> str:
    """The SVG text: header and title, axes, marks, then a legend entry per label."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if style.title:
        parts.append(
            f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(style.title)}</text>'
        )
    return "\n".join(parts + axes + marks + _legend(labels) + ["</svg>"]) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axes(style: ChartStyle, x_ticks, y_ticks, sx, sy, x_title: str, y_title: str,
          x_percent=False) -> list[str]:
    x0, y0, x1, y1 = _FRAME
    parts = [
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for t in x_ticks:
        px = sx(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y1}" x2="{_fmt(px)}" y2="{y1 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{y1 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t, x_percent)}</text>'
        )
    for t in y_ticks:
        py = sy(t)
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t, style.percent_axis)}</text>'
        )
    if x_title:
        parts.append(
            f'<text x="{(x0 + x1) // 2}" y="{_HEIGHT - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_escape(x_title)}</text>'
        )
    if y_title:
        parts.append(
            f'<text x="14" y="{(y0 + y1) // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {(y0 + y1) // 2})">{_escape(y_title)}</text>'
        )
    return parts


def _legend(labels: Sequence[str]) -> list[str]:
    x0, y0, _, _ = _FRAME
    parts = []
    for i, label in enumerate(labels):
        color = _PALETTE[i % len(_PALETTE)]
        ly = y0 + 14 * i + 6
        parts.append(f'<line x1="{x0 + 8}" y1="{ly}" x2="{x0 + 28}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{x0 + 34}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(label or f"series {i + 1}")}</text>'
        )
    return parts


def _year_ticks(lo: int, hi: int) -> list[float]:
    span = max(hi - lo, 1)
    step = max(1, int(math.ceil(span / 8)))
    # round the step to a calendar-friendly value
    for nice in (1, 2, 5, 10, 20, 25, 50):
        if step <= nice:
            step = nice
            break
    first = int(math.ceil(lo / step)) * step
    return [float(t) for t in range(first, hi + 1, step)]
