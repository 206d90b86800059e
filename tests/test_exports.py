"""The chunked export writers: the same bytes as one formatted line per row, in bounded memory.

The row exports (returns, mean-excess curves, VaR scans, and the
simulate, gof-table and trend outputs) and the figures are written a
chunk of ``series.CHUNK_ROWS`` rows at a time. The references below
format them the way the writers did before, one line (or one SVG element)
per row, joined into one string, or with csv.writer and json.dump; the
tests compare bytes around the chunk boundaries. The scan JSON is
compared with json.dumps of its estimates as ``_estimate_dict`` gives
them, around the chunk boundaries and on random scans.
"""

import csv
import dataclasses
import datetime
import functools
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potrisk import figures
from potrisk.cli import main
from potrisk.excess import MeanExcessCurve
from potrisk.gof import NOT_COVERED, GofReport, table_rows
from potrisk.gpd import GpdParams, gpd_sample
from potrisk.report import (
    _estimate_dict,
    read_curve_csv,
    trend_coefficients,
    write_curve_csv,
    write_scan_csv,
    write_scan_json,
)
from potrisk.risk import HEAVY_TAIL, RiskEstimate, ScanDiagnostics, ThresholdScan, scan_thresholds
from potrisk.series import CHUNK_ROWS, ReturnSeries, box_plot, read_returns_csv, write_returns_csv

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


def _scans(size):
    """Scans of ``size`` rows, cycling through a real scan's, every third without a shortfall: with GoF and without."""
    real = _real_scan()
    rows = np.arange(size) % real.u.size
    has_es = real.has_es[rows] & (np.arange(size) % 3 != 1)
    cycled = {name: getattr(real, name)[rows] for name in ("shape", "scale", "n_u", "var", "w2", "a2", "codes")}
    scan = dataclasses.replace(
        real, selected_index=0, u=np.cumsum(np.abs(_values(size, 5))), es=np.where(has_es, real.es[rows], np.nan),
        has_es=has_es, **cycled,
    )
    return scan, dataclasses.replace(scan, w2=None, a2=None, codes=None)


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


def _scan_json_text(scan, alpha_filtered):
    doc = {
        "regime": scan.regime,
        "diagnostics": dataclasses.asdict(scan.diagnostics),
        "selected_index": scan.selected_index,
        "estimates": [_estimate_dict(e) for e in scan.estimates],
        "alpha_filtered": None if alpha_filtered is None else _estimate_dict(alpha_filtered),
    }
    return json.dumps(doc, indent=2) + "\n"


class _JoinedCanvas(figures._Canvas):
    """The canvas with every element formatted when it is added, and the SVG joined into one string."""

    def polyline(self, xs, ys):
        fmt = figures._fmt
        pts = " ".join(f"{fmt(self.sx(x))},{fmt(self.sy(y))}" for x, y in zip(xs, ys))
        self.parts.append(f'<polyline class="line" points="{pts}"/>')

    def markers(self, xs, ys):
        fmt = figures._fmt
        for x, y in zip(xs, ys):
            self.parts.append(
                f'<circle class="marker" cx="{fmt(self.sx(x))}" cy="{fmt(self.sy(y))}" '
                f'r="3.0" data-x="{fmt(x)}" data-y="{fmt(y)}"/>'
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
    for scan in _scans(size):
        assert len(scan.estimates) == size
        write_scan_csv(scan, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == _scan_text(scan).encode()


@pytest.mark.parametrize("filtered", [False, True], ids=["alone", "alpha_filtered"])
@pytest.mark.parametrize("size", SIZES)
def test_the_scan_json_is_byte_identical(tmp_path, size, filtered):
    for scan in _scans(size):
        assert len(scan.estimates) == size
        alpha_filtered = scan.estimates[-1] if filtered else None
        write_scan_json(scan, alpha_filtered, tmp_path / "s.json")
        assert (tmp_path / "s.json").read_bytes() == _scan_json_text(scan, alpha_filtered).encode()


# Floats where the .12g text and repr differ or are at their edges: whole
# numbers, [1e12, 1e16) (.12g has an exponent there, repr none), signed
# zeros, the least subnormal and the largest doubles, and texts that round
# up a decade.
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1e-4,
    9.99999999999995e-05, 0.999999999999995, 999999999999.5, 1e12, 123456789012345.6, 1e16, 3.0, -42.0,
    float("nan"), float("inf"), float("-inf"),
]
_floats = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(-(10**17), 10**17).map(float),
    st.floats(1e12, 1e16, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x])),
)
_finite = _floats.filter(lambda x: x == x and abs(x) != float("inf"))
_codes = st.integers(0, NOT_COVERED)
_shapes = _finite
_scales = _finite.filter(lambda x: x > 0.0)
_gofs = st.builds(GofReport, w2=_floats, a2=_floats, shape_used=_floats, code=_codes)
_estimates = st.builds(
    RiskEstimate,
    u=_floats,
    params=st.builds(GpdParams, shape=_shapes, scale=_scales),
    n=st.integers(0, 10**12),
    n_u=st.integers(0, 10**12),
    p=_floats,
    var=_floats,
    es=st.none() | _floats,
    gof=st.none() | _gofs,
)


# A scan's row: u, shape, scale, n_u, var, es, w2, a2 and verdict code.
_rows = st.tuples(
    _floats, _shapes, _scales, st.integers(0, 10**12), _floats, st.none() | _floats, _floats, _floats, _codes
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(_rows, max_size=6),
    n=st.integers(0, 10**12),
    p=_floats,
    gof=st.booleans(),
    alpha_filtered=st.none() | _estimates,
    diagnostics=st.builds(ScanDiagnostics, *[st.integers(0, 10**6)] * 6),
    selected_index=st.integers(0, 5),
)
def test_the_scan_json_is_json_dumps_of_random_estimates(
    tmp_path_factory, rows, n, p, gof, alpha_filtered, diagnostics, selected_index
):
    u, shape, scale, n_u, var, es, w2, a2, codes = (list(c) for c in zip(*rows)) if rows else [[]] * 9
    has_es = np.array([e is not None for e in es], dtype=bool)
    es = np.array([math.nan if e is None else e for e in es], dtype=float)
    gofs = [np.array(w2, dtype=float), np.array(a2, dtype=float), np.array(codes, dtype=np.intp)] if gof else []
    floats = [np.array(c, dtype=float) for c in (u, shape, scale)]
    scan = ThresholdScan(
        HEAVY_TAIL, diagnostics, selected_index, n, p, *floats, np.array(n_u, dtype=np.int64),
        np.array(var, dtype=float), es, has_es, *gofs,
    )
    path = tmp_path_factory.mktemp("scan") / "s.json"
    write_scan_json(scan, alpha_filtered, path)
    assert path.read_bytes() == _scan_json_text(scan, alpha_filtered).encode()


# "-True": the markers are connected, as in every scatter figure.
@pytest.mark.parametrize("size", SIZES, ids=[f"{size}-True" for size in SIZES])
def test_the_scatter_figure_is_byte_identical(monkeypatch, tmp_path, size):
    xs, ys = np.cumsum(np.abs(_values(size, 6))).tolist(), _values(size, 7).tolist()
    assert _same_figure(monkeypatch, tmp_path, lambda path: figures.scatter_figure(xs, ys, path, "t", "x", "y"))


@pytest.mark.parametrize("size", SIZES)
def test_the_trend_figure_is_byte_identical(monkeypatch, tmp_path, size):
    years = list(range(1000, 1000 + size))
    means = _values(size, 8).tolist()
    assert _same_figure(monkeypatch, tmp_path, lambda path: figures.trend_figure(years, means, 0.01, -0.5, path))


@pytest.mark.parametrize("values", [[1.0, 2.0, 3.0, 4.0, 100.0], [-50.0, 1.0, 2.0, 3.0, 4.0, 100.0], [1.0, 2.0, 3.0, 4.0]])
def test_the_box_figure_is_byte_identical(monkeypatch, tmp_path, values):
    summary = box_plot(weekly_returns(values))
    assert _same_figure(monkeypatch, tmp_path, lambda path: figures.box_figure(summary, path))


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("count", [1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_the_simulate_csv_is_byte_identical(tmp_path, count):
    assert main(["simulate", "--shape", "0.2", "--scale", "1.5", "--count", str(count), "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    rows = [["value"]] + [[repr(float(v))] for v in gpd_sample(GpdParams(0.2, 1.5), count, 5)]
    assert (tmp_path / "samples.csv").read_bytes() == _csv_text(rows).encode()


def test_the_gof_table_csv_is_byte_identical(tmp_path):
    assert main(["gof-table", "--out-dir", str(tmp_path)]) == 0
    rows = [["xi", "alpha", "w2", "a2"]] + [[f"{v:g}" for v in row] for row in table_rows()]
    assert (tmp_path / "gof_table.csv").read_bytes() == _csv_text(rows).encode()


@pytest.mark.parametrize("years", [2, CHUNK_ROWS + 1])
def test_the_trend_exports_are_byte_identical(tmp_path, years):
    # two returns a year, from the year 1000 on
    dates = [datetime.date(1000 + i // 2, 1 + 6 * (i % 2), 1) for i in range(2 * years)]
    write_returns_csv(ReturnSeries(tuple(dates), _values(2 * years, 9)), tmp_path / "returns.csv")
    for fmt in ("csv", "json"):
        assert main(["trend", "--input", str(tmp_path / "returns.csv"), "--format", fmt,
                     "--out-dir", str(tmp_path)]) == 0
    slope, intercept, yearly = trend_coefficients(read_returns_csv(tmp_path / "returns.csv"))
    assert len(yearly) == years
    rows = [["year", "mean_return"]] + [[year, f"{mean:.15g}"] for year, mean in yearly]
    assert (tmp_path / "trend.csv").read_bytes() == _csv_text(rows).encode()
    def r12(x):
        return float(f"{x:.12g}")

    doc = {
        "slope": r12(slope),
        "intercept": r12(intercept),
        "yearly_means": [{"year": year, "mean": r12(mean)} for year, mean in yearly],
    }
    assert (tmp_path / "trend.json").read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


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
