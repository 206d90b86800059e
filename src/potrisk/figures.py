"""Static SVG figures for curves, scans, trends, and box plots.

Hand-rolled SVG keeps the output deterministic and audit-friendly: every
data marker carries its original value in ``data-x``/``data-y`` attributes
at full precision, so a figure can be parsed back and checked against the
numbers it claims to show. Screen coordinates are an affine map of data
coordinates; nothing is ever resampled. Polyline points and markers are
mapped to the screen and formatted while the figure is written, a chunk of
points at a time, so a figure of any length holds one chunk's arrays and
text at once.
"""

import itertools
import math
import sys

import numpy as np

from .errors import ValidationError
from .series import CHUNK_ROWS, BoxPlotSummary, format_chunks

__all__ = [
    "box_figure",
    "scatter_figure",
    "trend_figure",
]

_WIDTH = 640
_HEIGHT = 480
_MARGIN_L = 72
_MARGIN_R = 24
_MARGIN_T = 36
_MARGIN_B = 54

_STYLE = (
    "text{font-family:sans-serif;font-size:12px;fill:#222}"
    ".title{font-size:14px}"
    ".axis{stroke:#222;stroke-width:1;fill:none}"
    ".grid{stroke:#ddd;stroke-width:0.5}"
    ".line{stroke:#1f77b4;stroke-width:1.2;fill:none}"
    ".trend{stroke:#d62728;stroke-width:1.2}"
    ".marker{fill:#1f77b4;stroke:none}"
    ".box{stroke:#222;stroke-width:1;fill:#aec7e8}"
    ".whisker{stroke:#222;stroke-width:1}"
)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round ticks k*step over [lo, hi], each from its integer k; the ends alone if a fifth of the width is subnormal."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5  # about five ticks
    if raw < sys.float_info.min:
        return [lo, hi]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(mult * mag for mult in (1.0, 2.0, 5.0, 10.0) if raw <= mult * mag)
    ticks = (k * step for k in range(math.ceil(lo / step), math.floor(hi / step) + 2))
    return [0.0 if abs(t) < 1e-12 * step else t for t in ticks if t - hi <= 1e-9 * step]


def _limits(lo: float, hi: float) -> tuple[float, float]:
    """An axis' ends, ``lo`` and ``hi`` moved apart if they are equal; their width must be finite."""
    if hi <= lo:
        pad = max(abs(lo), 1.0) * 0.05
        lo, hi = lo - pad, hi + pad
    if not math.isfinite(hi - lo):
        raise ValidationError("a figure needs data whose range has a finite width")
    return lo, hi


class _Canvas:
    """Linear data-to-screen mapping plus SVG element accumulation.

    ``parts`` holds the body's elements in order, one per line: strings,
    and for :meth:`polyline` and :meth:`markers` iterators of text that
    is formatted as :meth:`write` reads it.
    """

    def __init__(self, xlim, ylim, title, xlabel, ylabel):
        (self.xlo, self.xhi), (self.ylo, self.yhi) = _limits(*xlim), _limits(*ylim)
        self.parts = []
        self._frame(title, xlabel, ylabel)

    def sx(self, x: float) -> float:
        w = _WIDTH - _MARGIN_L - _MARGIN_R
        return _MARGIN_L + (x - self.xlo) / (self.xhi - self.xlo) * w

    def sy(self, y: float) -> float:
        h = _HEIGHT - _MARGIN_T - _MARGIN_B
        return _MARGIN_T + (self.yhi - y) / (self.yhi - self.ylo) * h

    def _frame(self, title, xlabel, ylabel):
        p = self.parts
        x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
        y0, y1 = _MARGIN_T, _HEIGHT - _MARGIN_B
        for t in _nice_ticks(self.xlo, self.xhi):
            sx = self.sx(t)
            p.append(f'<line class="grid" x1="{_fmt(sx)}" y1="{y0}" x2="{_fmt(sx)}" y2="{y1}"/>')
            p.append(f'<text x="{_fmt(sx)}" y="{y1 + 16}" text-anchor="middle">{_fmt(t)}</text>')
        for t in _nice_ticks(self.ylo, self.yhi):
            sy = self.sy(t)
            p.append(f'<line class="grid" x1="{x0}" y1="{_fmt(sy)}" x2="{x1}" y2="{_fmt(sy)}"/>')
            p.append(f'<text x="{x0 - 6}" y="{_fmt(sy + 4)}" text-anchor="end">{_fmt(t)}</text>')
        p.append(f'<rect class="axis" x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}"/>')
        p.append(f'<text class="title" x="{_WIDTH // 2}" y="{_MARGIN_T - 12}" text-anchor="middle">{title}</text>')
        p.append(f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle">{xlabel}</text>')
        p.append(
            f'<text x="16" y="{_HEIGHT // 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_HEIGHT // 2})">{ylabel}</text>'
        )

    def polyline(self, xs, ys):
        """A polyline through the points of the sequences ``xs`` and ``ys``, read when the figure is written."""
        points = format_chunks("{:.12g},{:.12g}", self._screen(xs, ys, data=False), " ")
        self.parts.append(itertools.chain(['<polyline class="line" points="'], points, ['"/>']))

    def markers(self, xs, ys):
        """One marker per point of the nonempty sequences ``xs`` and ``ys``, read when the figure is written."""
        item = (
            '<circle class="marker" cx="{:.12g}" cy="{:.12g}" '
            'r="3.0" data-x="{:.12g}" data-y="{:.12g}"/>'
        )
        self.parts.append(format_chunks(item, self._screen(xs, ys, data=True), "\n"))

    def _screen(self, xs, ys, data: bool):
        """The points of ``xs`` and ``ys`` as chunks of columns: screen x and y, then with ``data`` x and y.

        Each chunk of CHUNK_ROWS points is taken as float arrays and mapped
        by :meth:`sx` and :meth:`sy`, the same operations as on one float.
        """
        for start in range(0, len(xs), CHUNK_ROWS):
            x = np.array(xs[start : start + CHUNK_ROWS], dtype=float)
            y = np.array(ys[start : start + CHUNK_ROWS], dtype=float)
            columns = [self.sx(x).tolist(), self.sy(y).tolist()]
            yield columns + [x.tolist(), y.tolist()] if data else columns

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
                f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n<style>{_STYLE}</style>\n'
            )
            for i, part in enumerate(self.parts):
                if i:
                    fh.write("\n")
                if isinstance(part, str):
                    fh.write(part)
                else:
                    fh.writelines(part)
            fh.write("\n</svg>\n")


def scatter_figure(xs, ys, path, title, xlabel, ylabel):
    """Markers for a generic x-y curve, joined by a polyline when there are two or more.

    ``xs`` and ``ys`` are sequences of numbers. They are not copied: each
    value is taken as a float as the figure is written.
    """
    if not len(xs) or len(xs) != len(ys):
        raise ValidationError("figure requires matching, nonempty x and y values")
    xlim = min(map(float, xs)), max(map(float, xs))
    ylim = min(map(float, ys)), max(map(float, ys))
    canvas = _Canvas(xlim, ylim, title, xlabel, ylabel)
    if len(xs) > 1:
        canvas.polyline(xs, ys)
    canvas.markers(xs, ys)
    canvas.write(path)


def trend_figure(years, means, slope, intercept, path):
    """Yearly mean returns with their least-squares trend line.

    The trend line's slope and intercept (per year index, first year = 0)
    ride along as data attributes.
    """
    years = [int(y) for y in years]
    means = [float(m) for m in means]
    if not years or len(years) != len(means):
        raise ValidationError("trend figure requires matching, nonempty years and means")
    y_fit = [intercept + slope * i for i in range(len(years))]
    lo = min(means + y_fit)
    hi = max(means + y_fit)
    canvas = _Canvas((years[0], years[-1]), (lo, hi), "Yearly average returns", "year", "mean return")
    canvas.polyline(years, means)
    x1, x2 = years[0], years[-1]
    canvas.parts.append(
        f'<line class="trend" x1="{_fmt(canvas.sx(x1))}" y1="{_fmt(canvas.sy(y_fit[0]))}" '
        f'x2="{_fmt(canvas.sx(x2))}" y2="{_fmt(canvas.sy(y_fit[-1]))}" '
        f'data-slope="{_fmt(slope)}" data-intercept="{_fmt(intercept)}"/>'
    )
    canvas.markers(years, means)
    canvas.write(path)


def box_figure(summary: BoxPlotSummary, path):
    """Single box-and-whisker figure with min/max outlier markers.

    The box group carries the five summary numbers as data attributes.
    """
    values = [summary.whisker_low, summary.whisker_high]
    if summary.min_outlier is not None:
        values.append(summary.min_outlier)
    if summary.max_outlier is not None:
        values.append(summary.max_outlier)
    lo, hi = min(values), max(values)
    canvas = _Canvas((0.0, 2.0), (lo, hi), "Return distribution", "", "return")
    cx, half = 1.0, 0.3
    sx1, sx2 = canvas.sx(cx - half), canvas.sx(cx + half)
    scx = canvas.sx(cx)
    sy = canvas.sy
    canvas.parts.append(
        f'<g class="box-group" data-q1="{_fmt(summary.q1)}" data-median="{_fmt(summary.median)}" '
        f'data-q3="{_fmt(summary.q3)}" data-whisker-low="{_fmt(summary.whisker_low)}" '
        f'data-whisker-high="{_fmt(summary.whisker_high)}">'
    )
    canvas.parts.append(
        f'<rect class="box" x="{_fmt(sx1)}" y="{_fmt(sy(summary.q3))}" '
        f'width="{_fmt(sx2 - sx1)}" height="{_fmt(sy(summary.q1) - sy(summary.q3))}"/>'
    )
    for y in (summary.median,):
        canvas.parts.append(
            f'<line class="whisker" x1="{_fmt(sx1)}" y1="{_fmt(sy(y))}" x2="{_fmt(sx2)}" y2="{_fmt(sy(y))}"/>'
        )
    for y0, y1 in ((summary.q3, summary.whisker_high), (summary.whisker_low, summary.q1)):
        canvas.parts.append(
            f'<line class="whisker" x1="{_fmt(scx)}" y1="{_fmt(sy(y0))}" x2="{_fmt(scx)}" y2="{_fmt(sy(y1))}"/>'
        )
    for y in (summary.whisker_low, summary.whisker_high):
        canvas.parts.append(
            f'<line class="whisker" x1="{_fmt(canvas.sx(cx - half / 2))}" y1="{_fmt(sy(y))}" '
            f'x2="{_fmt(canvas.sx(cx + half / 2))}" y2="{_fmt(sy(y))}"/>'
        )
    canvas.parts.append("</g>")
    outliers = [v for v in (summary.min_outlier, summary.max_outlier) if v is not None]
    if outliers:
        canvas.markers([cx] * len(outliers), outliers)
    canvas.write(path)
