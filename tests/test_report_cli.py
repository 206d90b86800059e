import csv
import datetime
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from potrisk import bundled_data_path, cli
from potrisk.cli import main
from potrisk.errors import TooFewObservations, ValidationError
from potrisk.excess import MeanExcessCurve
from potrisk.gof import ALPHA_LEVELS, test_gpd_fit as gof_report
from potrisk.gpd import GpdParams, gpd_sample
from potrisk.report import (
    AnalysisConfig,
    analyze,
    parse_period,
    trend_coefficients,
    write_curve_csv,
    write_scan_csv,
)
from potrisk.risk import (
    HEAVY_TAIL,
    ScanDiagnostics,
    ThresholdScan,
    expected_shortfall,
    value_at_risk,
)
from potrisk.series import ReturnSeries, read_returns_csv, write_returns_csv

from helpers import weekly_returns

GOLDEN = Path(__file__).parent / "golden" / "analysis_report.json"


def _bundled_config(out_dir):
    return AnalysisConfig.from_json(
        bundled_data_path("synthetic_config.json"),
        input_path=bundled_data_path("synthetic_weekends.csv"),
        out_dir=out_dir,
    )


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "potrisk.cli", *args], capture_output=True, text=True
    )


def _dated_returns(dates, values):
    from potrisk.series import ReturnSeries

    return ReturnSeries(dates=tuple(dates), values=np.asarray(values, dtype=float))


class TestTrend:
    def test_identical_yearly_means_zero_slope(self):
        returns = _dated_returns(
            [datetime.date(2001, 3, 1), datetime.date(2001, 9, 1),
             datetime.date(2002, 3, 1), datetime.date(2002, 9, 1)],
            [0.1, 0.3, 0.0, 0.4],
        )
        slope, _, _ = trend_coefficients(returns)
        assert slope == pytest.approx(0.0, abs=1e-15)

    def test_two_years_unit_slope(self):
        returns = _dated_returns(
            [datetime.date(2001, 6, 1), datetime.date(2002, 6, 1)], [0.0, 1.0]
        )
        slope, intercept, yearly = trend_coefficients(returns)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert yearly == [(2001, 0.0), (2002, 1.0)]

    def test_five_point_hand_ols(self):
        means = [0.02, 0.05, 0.01, 0.04, 0.08]
        returns = _dated_returns(
            [datetime.date(2000 + i, 7, 1) for i in range(5)], means
        )
        slope, intercept, _ = trend_coefficients(returns)
        xs = np.arange(5.0)
        ys = np.array(means)
        sxx = np.sum((xs - xs.mean()) ** 2)
        sxy = np.sum((xs - xs.mean()) * (ys - ys.mean()))
        assert slope == pytest.approx(sxy / sxx, abs=1e-10)
        assert intercept == pytest.approx(ys.mean() - (sxy / sxx) * xs.mean(), abs=1e-10)

    def test_single_year_raises(self):
        returns = weekly_returns([0.1, 0.2])
        with pytest.raises(TooFewObservations):
            trend_coefficients(returns)


class TestParsePeriod:
    def test_round_trip(self):
        start, end = parse_period("1982-01-01:1996-01-01")
        assert start == datetime.date(1982, 1, 1)
        assert end == datetime.date(1996, 1, 1)

    @pytest.mark.parametrize("bad", ["1982-01-01", "1996-01-01:1982-01-01", "a:b"])
    def test_rejects(self, bad):
        with pytest.raises(ValidationError):
            parse_period(bad)


class TestAnalyze:
    def test_golden_report_byte_identical(self, tmp_path):
        analyze(_bundled_config(tmp_path))
        assert (tmp_path / "report.json").read_bytes() == GOLDEN.read_bytes()

    @pytest.mark.parametrize("k", [10, -20, 40])
    def test_revenues_times_a_power_of_two_give_the_same_report(self, tmp_path, k):
        # A return is a ratio of revenues, so every bit of the report is the
        # same on the revenues times 2**k (written with repr), apart from the
        # input's name.
        with open(bundled_data_path("synthetic_weekends.csv"), newline="") as fh:
            header, *rows = csv.reader(fh)
        scaled = tmp_path / "scaled.csv"
        with open(scaled, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(f"{date},{math.ldexp(float(revenue), k)!r}\n" for date, revenue in rows)
        analyze(AnalysisConfig.from_json(
            bundled_data_path("synthetic_config.json"), input_path=scaled, out_dir=tmp_path
        ))
        got = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert '"input_file": "scaled.csv",' in got
        assert got.replace('"scaled.csv"', '"synthetic_weekends.csv"', 1).encode() == GOLDEN.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        analyze(_bundled_config(tmp_path / "a"))
        analyze(_bundled_config(tmp_path / "b"))
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_exports_exist(self, tmp_path):
        analyze(_bundled_config(tmp_path))
        for name in ("returns.csv", "mean_excess_p1_positive.csv", "mean_excess_p2_negative.csv",
                     "var_scan_p1_positive.csv", "var_scan_p2_negative.csv"):
            assert (tmp_path / name).exists()

    def test_counts_reconcile(self, tmp_path):
        report = analyze(_bundled_config(tmp_path))
        for period in report["periods"]:
            assert (period["n_positive"] + period["n_negative"] + period["n_zero"]
                    == period["n_returns"])

    def test_every_reported_number_is_traceable(self, tmp_path):
        report = analyze(_bundled_config(tmp_path))
        for period in report["periods"]:
            for tail in period["tails"].values():
                for key in ("selected", "alpha_filtered"):
                    est = tail[key]
                    if est is None:
                        continue
                    params = GpdParams(est["shape"], est["scale"])
                    var = value_at_risk(est["u"], params, est["n"], est["n_u"], est["p"])
                    es = expected_shortfall(var, est["u"], params)
                    assert float(f"{var:.12g}") == pytest.approx(est["var"], rel=1e-9)
                    assert float(f"{es:.12g}") == pytest.approx(est["es"], rel=1e-9)

    def test_box_plot_traceable_from_returns_export(self, tmp_path):
        from potrisk.series import box_plot, split_by_period

        report = analyze(_bundled_config(tmp_path))
        returns = read_returns_csv(tmp_path / "returns.csv")
        for period in report["periods"]:
            bounds = (datetime.date.fromisoformat(period["start"]),
                      datetime.date.fromisoformat(period["end"]))
            (sub,) = split_by_period(returns, [bounds])
            summary = box_plot(sub)
            reported = period["box_plot"]
            for key, value in (("q1", summary.q1), ("median", summary.median),
                               ("q3", summary.q3), ("whisker_low", summary.whisker_low),
                               ("whisker_high", summary.whisker_high)):
                assert reported[key] == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_no_periods_means_single_full_range(self, tmp_path):
        config = _bundled_config(tmp_path)
        config.periods = []
        report = analyze(config)
        assert len(report["periods"]) == 1
        assert report["periods"][0]["n_returns"] == report["n_returns"]
        start, end = report["parameters"]["periods"][0]
        assert start == "1982-01-15"  # date of the first return
        assert end > "2010-12-31"

    def test_validation_before_io(self, tmp_path):
        config = AnalysisConfig(input_path=tmp_path / "missing.csv", p=0.0)
        with pytest.raises(ValidationError):
            analyze(config)

    def test_empty_period_fails(self, tmp_path):
        config = _bundled_config(tmp_path)
        config.periods = [(datetime.date(1880, 1, 1), datetime.date(1881, 1, 1))]
        with pytest.raises(ValidationError, match="1880"):
            analyze(config)

    def test_error_carries_period_and_tail_context(self, tmp_path):
        config = _bundled_config(tmp_path)
        config.min_exceedances = 2
        config.periods = [(datetime.date(1982, 1, 1), datetime.date(1982, 3, 15))]
        with pytest.raises(Exception, match=r"period 1982-01-01\.\.1982-03-15"):
            analyze(config)


class TestCli:
    def test_analyze_golden_and_exit_code(self, tmp_path):
        out = _cli(
            "analyze",
            "--input", str(bundled_data_path("synthetic_weekends.csv")),
            "--config", str(bundled_data_path("synthetic_config.json")),
            "--out-dir", str(tmp_path),
        )
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "report.json").read_bytes() == GOLDEN.read_bytes()

    def test_validation_error_exit_2(self, tmp_path):
        out = _cli(
            "analyze",
            "--input", str(bundled_data_path("synthetic_weekends.csv")),
            "--p", "0.0",
            "--out-dir", str(tmp_path),
        )
        assert out.returncode == 2
        assert "p must lie in" in out.stderr

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_input_exits_without_traceback(self, tmp_path, bad):
        returns = tmp_path / "returns.csv"
        returns.write_text(
            f"date,return\n2001-01-05,0.1\n2001-01-12,{bad}\n2001-01-19,-0.2\n2001-01-26,0.3\n"
        )
        earnings = tmp_path / "earnings.csv"
        earnings.write_text(
            f"date,revenue\n2001-01-05,100\n2001-01-12,{bad}\n2001-01-19,90\n2001-01-26,120\n"
        )
        runs = [
            _cli("scan", "--input", str(returns), "--tail", tail, "--out-dir", str(tmp_path))
            for tail in ("positive", "negative")
        ]
        runs += [_cli("analyze", "--input", str(path), "--out-dir", str(tmp_path))
                 for path in (returns, earnings)]
        for out in runs:
            assert out.returncode in (1, 2), out.stderr
            assert "Traceback" not in out.stderr + out.stdout

    def test_overflowing_tail_exits_without_traceback(self, tmp_path):
        # finite gains whose excess sum overflows: the scan fits them, and
        # analyze gets past their mean-excess curve and scan to the tail of
        # returns of about -1, whose candidates all tie
        gains = gpd_sample(GpdParams(0.2, 1.0), 40, seed=0) * 1e307
        dates = [datetime.date(2001, 1, 5) + datetime.timedelta(weeks=i) for i in range(80)]
        returns = tmp_path / "returns.csv"
        returns.write_text("date,return\n" + "".join(
            f"{d.isoformat()},{float(v)!r}\n"
            for d, v in zip(dates, np.column_stack([gains, np.full(40, -0.5)]).ravel())
        ))
        # revenues alternating 1e-300 and g*1e-300 give returns of about g and -1
        revenues = np.column_stack([np.full(40, 1e-300), gains * 1e-300]).ravel()
        earnings = tmp_path / "earnings.csv"
        earnings.write_text("date,revenue\n" + "".join(
            f"{d.isoformat()},{float(r)!r}\n" for d, r in zip(dates, revenues)
        ))
        scan = _cli("scan", "--input", str(returns), "--tail", "positive", "--out-dir", str(tmp_path))
        full = _cli("analyze", "--input", str(earnings), "--out-dir", str(tmp_path))
        assert (scan.returncode, full.returncode) == (0, 2), scan.stderr + full.stderr
        assert "negative tail" in full.stderr
        for out in (scan, full):
            assert "Traceback" not in out.stderr + out.stdout

    @pytest.mark.parametrize("gains,p", [
        pytest.param(gpd_sample(GpdParams(0.6, 1.0), 40, seed=0) * 1e306, "0.001", id="var_overflows"),
        pytest.param(gpd_sample(GpdParams(2.0, 1.0), 200, seed=0), "1e-300", id="expm1_overflows"),
    ])
    def test_a_var_beyond_the_double_range_exits_2(self, tmp_path, gains, p):
        dates = [datetime.date(2001, 1, 5) + datetime.timedelta(weeks=i) for i in range(2 * gains.size)]
        returns = tmp_path / "returns.csv"
        returns.write_text("date,return\n" + "".join(
            f"{d.isoformat()},{float(v)!r}\n"
            for d, v in zip(dates, np.column_stack([gains, np.full(gains.size, -0.5)]).ravel())
        ))
        out_dir = tmp_path / "out"
        out = _cli("scan", "--input", str(returns), "--tail", "positive", "--p", p,
                   "--format", "json", "--out-dir", str(out_dir))
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr + out.stdout
        assert len(out.stderr.splitlines()) == 1 and f"p={p} is not a finite double" in out.stderr
        assert not any("Infinity" in f.read_text() for f in out_dir.glob("*"))

    def test_missing_input_exit_2(self, tmp_path):
        out = _cli("returns", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path))
        assert out.returncode == 2

    def test_empty_period_exit_2(self, tmp_path):
        out = _cli(
            "analyze",
            "--input", str(bundled_data_path("synthetic_weekends.csv")),
            "--periods", "1880-01-01:1881-01-01",
            "--out-dir", str(tmp_path),
        )
        assert out.returncode == 2

    def test_returns_roundtrip(self, tmp_path):
        out = _cli("returns", "--input", str(bundled_data_path("synthetic_weekends.csv")),
                   "--out-dir", str(tmp_path))
        assert out.returncode == 0
        returns = read_returns_csv(tmp_path / "returns.csv")
        assert len(returns) == 1512

    def test_scan_json(self, tmp_path):
        _cli("returns", "--input", str(bundled_data_path("synthetic_weekends.csv")),
             "--out-dir", str(tmp_path))
        out = _cli("scan", "--input", str(tmp_path / "returns.csv"), "--tail", "negative",
                   "--out-dir", str(tmp_path))
        assert out.returncode == 0, out.stderr
        doc = json.loads((tmp_path / "scan_negative.json").read_text())
        assert doc["regime"] == "short_tail_negative_xi"
        assert doc["estimates"]
        sel = doc["estimates"][doc["selected_index"]]
        assert sel["shape"] < 0
        assert all(e["gof"] is None for e in doc["estimates"])

    def test_scan_json_with_alpha_filter(self, tmp_path):
        _cli("returns", "--input", str(bundled_data_path("synthetic_weekends.csv")),
             "--out-dir", str(tmp_path))
        out = _cli("scan", "--input", str(tmp_path / "returns.csv"), "--tail", "positive",
                   "--alpha", "0.05", "--out-dir", str(tmp_path))
        assert out.returncode == 0, out.stderr
        doc = json.loads((tmp_path / "scan_positive.json").read_text())
        filtered = doc["alpha_filtered"]
        assert filtered is not None
        assert filtered["gof"]["verdicts"]["0.05"] == "accept"

    def test_scan_csv_schema(self, tmp_path):
        _cli("returns", "--input", str(bundled_data_path("synthetic_weekends.csv")),
             "--out-dir", str(tmp_path))
        out = _cli("scan", "--input", str(tmp_path / "returns.csv"), "--tail", "positive",
                   "--format", "csv", "--out-dir", str(tmp_path))
        assert out.returncode == 0, out.stderr
        with open(tmp_path / "scan_positive.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u", "xi", "sigma", "n_u", "var", "es", "w2", "a2", "accepted_alphas"]
        assert len(rows) > 10

    def test_gof_table_export(self, tmp_path):
        out = _cli("gof-table", "--out-dir", str(tmp_path))
        assert out.returncode == 0
        with open(tmp_path / "gof_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 28
        by_key = {(r["xi"], r["alpha"]): (float(r["w2"]), float(r["a2"])) for r in rows}
        assert by_key[("0.1", "0.05")] == (0.144, 0.935)
        assert by_key[("0.3", "0.005")] == (0.22, 1.426)

    def test_simulate_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            out = _cli("simulate", "--shape", "-0.5", "--scale", "1.0",
                       "--count", "500", "--seed", "7", "--out-dir", str(d))
            assert out.returncode == 0
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()
        with open(a / "samples.csv", newline="") as fh:
            values = [float(r["value"]) for r in csv.DictReader(fh)]
        assert max(values) <= 2.0

    def test_simulate_mean_matches_model(self, tmp_path):
        out = _cli("simulate", "--shape", "0.2", "--scale", "1.0",
                   "--count", "100000", "--seed", "11", "--out-dir", str(tmp_path))
        assert out.returncode == 0
        with open(tmp_path / "samples.csv", newline="") as fh:
            values = np.array([float(r["value"]) for r in csv.DictReader(fh)])
        mean_true = 1.0 / 0.8
        se = np.std(values) / np.sqrt(values.size)
        assert abs(values.mean() - mean_true) < 3 * se

    def test_trend_json(self, tmp_path):
        _cli("returns", "--input", str(bundled_data_path("synthetic_weekends.csv")),
             "--out-dir", str(tmp_path))
        out = _cli("trend", "--input", str(tmp_path / "returns.csv"), "--out-dir", str(tmp_path))
        assert out.returncode == 0
        doc = json.loads((tmp_path / "trend.json").read_text())
        assert len(doc["yearly_means"]) == 29
        assert abs(doc["slope"]) < 0.01

    def test_trend_csv(self, tmp_path):
        _cli("returns", "--input", str(bundled_data_path("synthetic_weekends.csv")),
             "--out-dir", str(tmp_path))
        out = _cli("trend", "--input", str(tmp_path / "returns.csv"),
                   "--format", "csv", "--out-dir", str(tmp_path))
        assert out.returncode == 0
        with open(tmp_path / "trend.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 29
        assert rows[0]["year"] == "1982"

    def test_plot_all_kinds(self, tmp_path):
        _cli("returns", "--input", str(bundled_data_path("synthetic_weekends.csv")),
             "--out-dir", str(tmp_path))
        _cli("analyze", "--input", str(bundled_data_path("synthetic_weekends.csv")),
             "--config", str(bundled_data_path("synthetic_config.json")),
             "--out-dir", str(tmp_path))
        for kind, src, name in [
            ("mean-excess", "mean_excess_p1_positive.csv", "mean_excess.svg"),
            ("var-scan", "var_scan_p1_positive.csv", "var_scan.svg"),
            ("trend", "returns.csv", "trend.svg"),
            ("box", "returns.csv", "box.svg"),
        ]:
            out = _cli("plot", "--kind", kind, "--input", str(tmp_path / src),
                       "--out-dir", str(tmp_path))
            assert out.returncode == 0, out.stderr
            assert (tmp_path / name).exists()

    def test_plot_figure_coordinates_match_curve(self, tmp_path):
        import xml.etree.ElementTree as ET

        _cli("analyze", "--input", str(bundled_data_path("synthetic_weekends.csv")),
             "--config", str(bundled_data_path("synthetic_config.json")),
             "--out-dir", str(tmp_path))
        src = tmp_path / "mean_excess_p1_positive.csv"
        _cli("plot", "--kind", "mean-excess", "--input", str(src), "--out-dir", str(tmp_path))
        with open(src, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ns = {"svg": "http://www.w3.org/2000/svg"}
        markers = ET.parse(tmp_path / "mean_excess.svg").getroot().findall(
            ".//svg:circle[@data-x]", ns
        )
        assert len(markers) == len(rows)
        for marker, row in zip(markers, rows):
            assert float(marker.get("data-x")) == pytest.approx(float(row["u"]), rel=5e-7)
            assert float(marker.get("data-y")) == pytest.approx(float(row["mean_excess"]), rel=5e-7)

    def test_plot_malformed_curve_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("u,mean_excess,count\n")
        out = _cli("plot", "--kind", "mean-excess", "--input", str(bad),
                   "--out-dir", str(tmp_path))
        assert out.returncode == 2
        assert not (tmp_path / "mean_excess.svg").exists()


# -- malformed input fuzz ------------------------------------------------------

# Each input-reading command, with the header its input file carries.
_READERS = {
    "returns": (["returns"], "date,revenue"),
    "analyze": (["analyze"], "date,revenue"),
    "scan": (["scan", "--tail", "positive"], "date,return"),
    "trend": (["trend"], "date,return"),
    "plot-trend": (["plot", "--kind", "trend"], "date,return"),
    "plot-box": (["plot", "--kind", "box"], "date,return"),
    "plot-mean-excess": (["plot", "--kind", "mean-excess"], "u,mean_excess,count"),
    "plot-var-scan": (["plot", "--kind", "var-scan"], "u,xi,sigma,n_u,var,es,w2,a2,accepted_alphas"),
}


def _with_bad_row(header, column, value):
    """Twelve well-formed rows under ``header``, with row 6's ``column`` set to ``value``.

    ``column`` is "first" or "value" (the number the command reads, e.g.
    the VaR of a scan export); ``value`` None cuts row 6 to one field.
    """
    rows = []
    for i in range(12):
        day = (datetime.date(2001, 1, 5) + datetime.timedelta(weeks=i)).isoformat()
        x = 0.01 * (i + 1) * (-1) ** i
        if header == "date,revenue":
            rows.append([day, f"{100 + 10 * x:g}"])
        elif header == "date,return":
            rows.append([day, f"{x:g}"])
        elif header == "u,mean_excess,count":
            rows.append([f"{0.01 * i:g}", f"{0.2 - 0.01 * i:g}", str(30 - i)])
        else:
            rows.append([f"{0.01 * i:g}", "0.2", "0.5", str(30 - i), f"{1 + 0.01 * i:g}", "", "", "", ""])
    fields = header.split(",")
    if value is None:
        rows[5] = rows[5][:1]
    elif column == "first":
        rows[5][0] = value
    else:
        rows[5][fields.index("var") if "var" in fields else 1] = value
    return "".join(",".join(row) + "\n" for row in [fields, *rows]).encode()


_MALFORMED = {
    "empty": lambda header: b"",
    "header-only": lambda header: (header + "\n").encode(),
    "bad-date": lambda header: _with_bad_row(header, "first", "2001-13-45"),
    "bad-number": lambda header: _with_bad_row(header, "value", "abc"),
    "short-row": lambda header: _with_bad_row(header, "first", None),
    "non-utf8": lambda header: b"\xff\xfe" + header.encode("utf-16-le") + b"\x00\x80\xfe",
    "nul-bytes": lambda header: header.encode() + b"\n\x00\x01\x02,\x00\n",
    "nan": lambda header: _with_bad_row(header, "value", "nan"),
    "inf": lambda header: _with_bad_row(header, "value", "inf"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_malformed_input_exits_without_traceback(tmp_path, capsys, reader, case):
    """Every input-reading command on every kind of malformed file ends in exit 2, not a traceback."""
    command, header = _READERS[reader]
    path = tmp_path / "input.csv"
    path.write_bytes(_MALFORMED[case](header))
    code = main([*command, "--input", str(path), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    # every case is an input error, so not only an exit code in {0, 1, 2}: 2
    assert code == 2, captured.err
    assert "Traceback" not in captured.err + captured.out


class TestCsvWriters:
    """The exports are the bytes csv.writer gives, row by row, on the same fields."""

    VALUES = [-0.0, 1e-300, 1e300, 0.1, -2.5, 123456789.123456789, 5e-324]

    @staticmethod
    def _csv_writer_bytes(tmp_path, rows) -> bytes:
        path = tmp_path / "want.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in rows:
                writer.writerow(row)
        return path.read_bytes()

    def test_returns(self, tmp_path):
        dates = [datetime.date(2001, 1, 1) + datetime.timedelta(days=7 * i) for i in range(len(self.VALUES))]
        returns = ReturnSeries(dates=tuple(dates), values=np.array(self.VALUES))
        write_returns_csv(returns, tmp_path / "got.csv")
        rows = [["date", "return"]] + [[d.isoformat(), f"{v:.15g}"] for d, v in zip(dates, returns.values)]
        assert (tmp_path / "got.csv").read_bytes() == self._csv_writer_bytes(tmp_path, rows)

    def test_curve(self, tmp_path):
        values = np.array(self.VALUES)
        curve = MeanExcessCurve(thresholds=values, mean_excesses=values[::-1], counts=np.arange(values.size) + 1)
        write_curve_csv(curve, tmp_path / "got.csv")
        rows = [["u", "mean_excess", "count"]] + [
            [f"{u:.15g}", f"{e:.15g}", int(c)] for u, e, c in zip(curve.thresholds, curve.mean_excesses, curve.counts)
        ]
        assert (tmp_path / "got.csv").read_bytes() == self._csv_writer_bytes(tmp_path, rows)

    def test_scan_with_empty_es_and_gof_cells(self, tmp_path):
        params = GpdParams(0.2, 1e300)
        gof = gof_report(gpd_sample(params, 50, seed=1), params)
        rows = [(-0.0, -0.0, 1e300, None), (1e-300, 0.1, -0.0, 1e-300), (1e300, 1.5, 0.5, None), (0.25, -0.3, 2.0, 3.0)]
        u, xi, var = (np.array(c) for c in list(zip(*rows))[:3])
        es = np.array([math.nan if e is None else e for *_, e in rows])
        gof_cells = [f"{gof.w2:.15g}", f"{gof.a2:.15g}", ";".join(f"{a:g}" for a in gof.accepted_alphas())]
        gof_columns = [np.full(4, gof.w2), np.full(4, gof.a2), np.full(4, gof.code)]
        for gofs, cells in [(gof_columns, gof_cells), ([], [""] * 3)]:
            scan = ThresholdScan(
                HEAVY_TAIL, ScanDiagnostics(4, 0, 0, 0, 0, 4), 0, 100, 0.01, u, xi, np.full(4, 1e-300),
                np.arange(10, 14), var, es, ~np.isnan(es), *gofs,
            )
            write_scan_csv(scan, tmp_path / "got.csv")
            want = [["u", "xi", "sigma", "n_u", "var", "es", "w2", "a2", "accepted_alphas"]] + [
                [f"{u:.15g}", f"{xi:.15g}", f"{1e-300:.15g}", 10 + i, f"{var:.15g}", "" if e is None else f"{e:.15g}"]
                + cells
                for i, (u, xi, var, e) in enumerate(rows)
            ]
            assert (tmp_path / "got.csv").read_bytes() == self._csv_writer_bytes(tmp_path, want)


# Malformed --config files, each against the bundled input.
_BAD_CONFIGS = {
    "truncated": b'{"periods": [["1982-01-01", "1996',
    "non-utf8": b'\xff\xfe{}',
    "nested-too-deep": b"[" * 100_000,
    "top-level-list": b"[1, 2]",
    "p-string": b'{"p": "0.01"}',
    "alpha-string": b'{"alpha_filter": "x"}',
    "one-date-period": b'{"periods": [["1982-01-01"]]}',
    "bad-month": b'{"periods": [["1982-13-01", "1996-01-01"]]}',
    "periods-string": b'{"periods": "1982-01-01:1996-01-01"}',
    "min-exceedances-float": b'{"min_exceedances": 2.5}',
    "min-exceedances-bool": b'{"min_exceedances": true}',
}


@pytest.mark.parametrize("case", sorted(_BAD_CONFIGS))
def test_malformed_config_exits_2_naming_the_file(tmp_path, capsys, case):
    config = tmp_path / "config.json"
    config.write_bytes(_BAD_CONFIGS[case])
    code = main(["analyze", "--input", str(bundled_data_path("synthetic_weekends.csv")),
                 "--config", str(config), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith(f"error: {config}: ") and len(captured.err.splitlines()) == 1, captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


def test_a_config_input_must_be_a_path(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"input": 5}')
    with pytest.raises(ValidationError, match="input must be a path, got 5") as info:
        AnalysisConfig.from_json(config)
    assert str(info.value).startswith(f"{config}: ")


def _write_bundled_returns(path):
    from potrisk.series import compute_returns, read_earnings_csv

    write_returns_csv(compute_returns(read_earnings_csv(bundled_data_path("synthetic_weekends.csv"))), path)


@pytest.mark.parametrize("value", ["0", "-3", "1"])
def test_scan_rejects_min_exceedances_below_2_as_analyze_does(tmp_path, capsys, value):
    _write_bundled_returns(tmp_path / "returns.csv")
    out_dir = tmp_path / "out"
    code = main(["scan", "--input", str(tmp_path / "returns.csv"), "--tail", "positive",
                 "--min-exceedances", value, "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err == f"error: min_exceedances must be an integer >= 2, got {value}\n"
    assert not out_dir.exists()
    with pytest.raises(ValidationError, match=f"min_exceedances must be an integer >= 2, got {value}$"):
        AnalysisConfig(input_path=tmp_path / "returns.csv", min_exceedances=int(value)).validate()


@pytest.mark.parametrize("tail", ["positive", "negative"])
def test_scan_rejects_alpha_with_csv_output(tmp_path, capsys, tail):
    _write_bundled_returns(tmp_path / "returns.csv")
    out_dir = tmp_path / "out"
    code = main(["scan", "--input", str(tmp_path / "returns.csv"), "--tail", tail, "--format", "csv",
                 "--alpha", "0.05", "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err == "error: --alpha applies to json output only; drop it or use --format json\n"
    assert "Traceback" not in captured.err + captured.out
    assert not out_dir.exists()


@pytest.mark.parametrize("tail, alpha, message", [
    pytest.param("negative", "0.05", "the critical-value table does not cover negative shapes; "
                 "the short-tail scan has no goodness-of-fit verdicts", id="short_tail"),
    pytest.param("positive", "0.07", f"alpha must be one of {ALPHA_LEVELS}, got 0.07", id="unknown_level"),
    pytest.param("negative", "0.07", f"alpha must be one of {ALPHA_LEVELS}, got 0.07", id="unknown_level_short_tail"),
])
def test_scan_checks_alpha_before_reading_and_scanning(tmp_path, capsys, monkeypatch, tail, alpha, message):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan_thresholds was called")

    monkeypatch.setattr(cli, "scan_thresholds", no_scan)
    out_dir = tmp_path / "out"
    # the input does not exist, so reading it first would fail with another message
    code = main(["scan", "--input", str(tmp_path / "missing.csv"), "--tail", tail, "--alpha", alpha,
                 "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err == f"error: {message}\n"
    assert not out_dir.exists()


_HUGE_RETURNS = "date,return\n2020-01-03,1.5e308\n2020-01-10,1.5e308\n2021-01-08,0.1\n2021-01-15,0.2\n"


@pytest.mark.parametrize("kind, text, drawn", [
    # t + 1 == t at 1e16: a tick loop that adds its step never ends
    pytest.param("mean-excess", "u,mean_excess,count\n1e16,1.0,3\n10000000000000004,2.0,2\n", True, id="1e16"),
    # a fifth of the width underflows to 0
    pytest.param("mean-excess", "u,mean_excess,count\n0,1.0,3\n5e-324,2.0,2\n", True, id="5e-324"),
    # the width overflows
    pytest.param("mean-excess", "u,mean_excess,count\n-1e308,1.0,3\n1e308,2.0,2\n", False, id="2e308"),
    pytest.param("trend", _HUGE_RETURNS, True, id="trend"),
    # the box's fences are beyond the double range, so its whiskers are the data's extremes
    pytest.param("box", _HUGE_RETURNS, True, id="box"),
])
def test_plot_of_extreme_finite_data_draws_or_exits_2(tmp_path, kind, text, drawn):
    (tmp_path / "in.csv").write_text(text)
    done = subprocess.run(
        [sys.executable, "-m", "potrisk.cli", "plot", "--kind", kind, "--input", str(tmp_path / "in.csv"),
         "--out-dir", str(tmp_path)], capture_output=True, text=True, timeout=60,
    )
    if drawn:
        assert done.returncode == 0 and not done.stderr, done.stderr
        svg = next(tmp_path.glob("*.svg")).read_text()
        assert svg.count('class="grid"') < 30 and "nan" not in svg and "inf" not in svg
    else:
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["error: a figure needs data whose range has a finite width"]


@pytest.mark.parametrize("command", ["returns", "analyze"])
@pytest.mark.parametrize("tiny", ["5e-324", "1e-310"])
def test_a_return_beyond_the_double_range_exits_2_naming_its_date(tmp_path, capsys, command, tiny):
    # a normal revenue after a subnormal one: the ratio overflows
    (tmp_path / "in.csv").write_text(f"date,revenue\n2020-01-03,1.0\n2020-01-10,{tiny}\n2020-01-17,2.0\n")
    code = main([command, "--input", str(tmp_path / "in.csv"), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        f"error: return at 2020-01-17 is beyond the double range (revenue 2.0 after {float(tiny)!r})"
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_trend_of_huge_returns_is_finite_or_exits_2(tmp_path, capsys, fmt):
    # np.mean of the two 1.5e308 returns of 2020 overflows; the mean itself does not
    (tmp_path / "in.csv").write_text(_HUGE_RETURNS)
    assert main(["trend", "--input", str(tmp_path / "in.csv"), "--format", fmt, "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / f"trend.{fmt}").read_text()
    assert not any(word in text.lower() for word in ("nan", "inf"))
    if fmt == "csv":
        assert text == "year,mean_return\n2020,1.5e+308\n2021,0.15\n"
    else:
        doc = json.loads(text)
        assert (doc["slope"], doc["intercept"]) == (-1.5e308, 1.5e308)
        assert [m["mean"] for m in doc["yearly_means"]] == [1.5e308, 0.15]
    # a slope of -3e308 is beyond the double range
    (tmp_path / "in.csv").write_text("date,return\n2020-01-03,1.5e308\n2021-01-08,-1.5e308\n")
    capsys.readouterr()
    assert main(["trend", "--input", str(tmp_path / "in.csv"), "--format", fmt, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: the trend of the yearly mean returns is beyond the double range\n"


def test_a_simulated_draw_beyond_the_double_range_exits_2(tmp_path, capsys):
    # sigma/xi overflows, so the draws take the exponential limit, and two of
    # the five quantiles -1.79e308 * log1p(-q) overflow
    out = tmp_path / "out"
    code = main(["simulate", "--shape", "0.75", "--scale", "1.79e308", "--count", "5", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["error: draw 1 of 5 (probability 0.6369616873214543) is beyond the double range"]
    assert not out.exists()
    # the same draws at a finite scale are written
    assert main(["simulate", "--shape", "0.75", "--scale", "1e307", "--count", "5", "--out-dir", str(out)]) == 0
    text = (out / "samples.csv").read_text()
    assert len(text.splitlines()) == 6 and "inf" not in text
