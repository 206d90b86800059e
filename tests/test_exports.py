"""The chunked export writers: the same bytes as one formatted line per row, in bounded memory.

The row exports (returns, mean-excess curves, VaR scans) and the figures
are written a chunk of ``series.CHUNK_ROWS`` rows at a time. The
references below format them the way the writers did before, one line
(or one SVG element) per row, joined into one string; the tests compare
bytes around the chunk boundaries.
"""

import dataclasses
import datetime
import functools
import tracemalloc

import numpy as np
import pytest

from potrisk import figures
from potrisk.excess import MeanExcessCurve
from potrisk.gpd import GpdParams, gpd_sample
from potrisk.report import read_curve_csv, write_curve_csv, write_scan_csv
from potrisk.risk import HEAVY_TAIL, scan_thresholds
from potrisk.series import CHUNK_ROWS, ReturnSeries, box_plot, write_returns_csv

from helpers import weekly_returns

SIZES = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]


def _values(size, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)


def _returns(size):
    start = datetime.date(1900, 1, 1)
    return ReturnSeries(tuple(start + datetime.timedelta(days=i) for i in range(size)), _values(size, 1))


def _curve(size):
    thresholds = np.cumsum(np.abs(_values(size, 2)))
    return MeanExcessCurve(thresholds, np.abs(_values(size, 3)), np.arange(size, 0, -1))


@functools.cache
def _real_scan():
    return scan_thresholds(gpd_sample(GpdParams(0.3, 1.0), 200, seed=4), regime=HEAVY_TAIL)


def _scan(size):
    """A scan of ``size`` estimates, cycling through a real scan's, some without ES or GoF."""
    real = _real_scan()
    u = np.cumsum(np.abs(_values(size, 5)))
    estimates = []
    for i in range(size):
        e = dataclasses.replace(real.estimates[i % len(real.estimates)], u=float(u[i]))
        if i % 3 == 1:
            e = dataclasses.replace(e, es=None)
        if i % 5 == 2:
            e = dataclasses.replace(e, gof=None)
        estimates.append(e)
    return dataclasses.replace(real, estimates=tuple(estimates), selected_index=0)


def _returns_text(returns):
    lines = [f"{d.isoformat()},{v:.15g}\n" for d, v in zip(returns.dates, returns.values.tolist())]
    return "date,return\n" + "".join(lines)


def _curve_text(curve):
    columns = (curve.thresholds.tolist(), curve.mean_excesses.tolist(), curve.counts.tolist())
    return "u,mean_excess,count\n" + "".join(f"{u:.15g},{e:.15g},{int(c)}\n" for u, e, c in zip(*columns))


def _scan_text(scan):
    lines = ["u,xi,sigma,n_u,var,es,w2,a2,accepted_alphas\n"]
    for e in scan.estimates:
        gof = e.gof
        es = "" if e.es is None else f"{e.es:.15g}"
        tests = ",," if gof is None else f"{gof.w2:.15g},{gof.a2:.15g},"
        accepted = "" if gof is None else ";".join(f"{a:g}" for a in gof.accepted_alphas())
        lines.append(
            f"{e.u:.15g},{e.params.shape:.15g},{e.params.scale:.15g},{e.n_u},{e.var:.15g},{es},{tests}{accepted}\n"
        )
    return "".join(lines)


class _JoinedCanvas(figures._Canvas):
    """The canvas with every element formatted when it is added, and the SVG joined into one string."""

    def polyline(self, xs, ys, cls="line"):
        fmt = figures._fmt
        pts = " ".join(f"{fmt(self.sx(x))},{fmt(self.sy(y))}" for x, y in zip(xs, ys))
        self.parts.append(f'<polyline class="{cls}" points="{pts}"/>')

    def markers(self, xs, ys, radius=3.0):
        fmt = figures._fmt
        for x, y in zip(xs, ys):
            self.parts.append(
                f'<circle class="marker" cx="{fmt(self.sx(x))}" cy="{fmt(self.sy(y))}" '
                f'r="{radius}" data-x="{fmt(x)}" data-y="{fmt(y)}"/>'
            )

    def write(self, path):
        body = "\n".join(self.parts)
        w, h = figures._WIDTH, figures._HEIGHT
        svg = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n<style>{figures._STYLE}</style>\n{body}\n</svg>\n'
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)


def _same_figure(monkeypatch, tmp_path, draw):
    """Whether ``draw(path)`` writes the same bytes as with the joined canvas."""
    draw(tmp_path / "chunked.svg")
    with monkeypatch.context() as m:
        m.setattr(figures, "_Canvas", _JoinedCanvas)
        draw(tmp_path / "joined.svg")
    return (tmp_path / "chunked.svg").read_bytes() == (tmp_path / "joined.svg").read_bytes()


@pytest.mark.parametrize("size", SIZES)
def test_the_returns_csv_is_byte_identical(tmp_path, size):
    returns = _returns(size)
    write_returns_csv(returns, tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_bytes() == _returns_text(returns).encode()


@pytest.mark.parametrize("size", SIZES)
def test_the_curve_csv_is_byte_identical(tmp_path, size):
    curve = _curve(size)
    write_curve_csv(curve, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == _curve_text(curve).encode()


@pytest.mark.parametrize("size", SIZES)
def test_the_scan_csv_is_byte_identical(tmp_path, size):
    scan = _scan(size)
    assert len(scan.estimates) == size
    write_scan_csv(scan, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == _scan_text(scan).encode()


@pytest.mark.parametrize("connect", [True, False])
@pytest.mark.parametrize("size", SIZES)
def test_the_scatter_figure_is_byte_identical(monkeypatch, tmp_path, size, connect):
    xs, ys = np.cumsum(np.abs(_values(size, 6))).tolist(), _values(size, 7).tolist()
    assert _same_figure(
        monkeypatch, tmp_path, lambda path: figures.scatter_figure(xs, ys, path, "t", "x", "y", connect)
    )


@pytest.mark.parametrize("size", SIZES)
def test_the_trend_figure_is_byte_identical(monkeypatch, tmp_path, size):
    years = list(range(1000, 1000 + size))
    means = _values(size, 8).tolist()
    assert _same_figure(monkeypatch, tmp_path, lambda path: figures.trend_figure(years, means, 0.01, -0.5, path))


@pytest.mark.parametrize("values", [[1.0, 2.0, 3.0, 4.0, 100.0], [-50.0, 1.0, 2.0, 3.0, 4.0, 100.0], [1.0, 2.0, 3.0, 4.0]])
def test_the_box_figure_is_byte_identical(monkeypatch, tmp_path, values):
    summary = box_plot(weekly_returns(values))
    assert _same_figure(monkeypatch, tmp_path, lambda path: figures.box_figure(summary, path))


def test_a_long_curve_and_its_figure_are_written_in_bounded_memory(tmp_path):
    # Formatted one line or element per row and joined, this CSV took 57 MB
    # of traced memory and its figure 126 MB.
    size = 200_000
    curve = _curve(size)
    write_curve_csv(curve, tmp_path / "warm.csv")
    us, means, _ = read_curve_csv(tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        write_curve_csv(curve, tmp_path / "curve.csv")
        figures.scatter_figure(us, means, tmp_path / "curve.svg", "t", "u", "mean excess")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    assert (tmp_path / "curve.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
