"""End-to-end analysis pipeline and its report/export formats.

``analyze`` runs ingest -> returns -> period split -> sign split -> per-tail
threshold scan and writes a versioned JSON report plus CSV exports. The
report is fully deterministic: floats are rounded to 12 significant digits
before serialization, so reruns produce byte-identical files and every
reported number can be recomputed by the library from the recorded inputs.
"""

import datetime
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    EmptyPeriodError,
    InvalidProbability,
    NoSurvivingCandidates,
    PotriskError,
    TooFewObservations,
    ValidationError,
)
from .excess import MeanExcessCurve, mean_excess_curve
from .gof import require_alpha
from .gpd import DEFAULT_MIN_EXCEEDANCES
from .risk import (
    HEAVY_TAIL,
    SHORT_TAIL,
    RiskEstimate,
    ThresholdScan,
    scan_thresholds,
    scan_with_alpha_filter,
)
from .series import (
    ReturnSeries,
    box_plot,
    compute_returns,
    csv_rows,
    python_values,
    read_earnings_csv,
    split_by_period,
    split_by_sign,
    write_returns_csv,
    write_rows,
)

__all__ = [
    "SCHEMA_VERSION",
    "AnalysisConfig",
    "analyze",
    "parse_period",
    "read_curve_csv",
    "read_scan_csv",
    "scan_dict",
    "trend_coefficients",
    "write_curve_csv",
    "write_scan_csv",
]

SCHEMA_VERSION = 1


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def parse_period(text: str) -> tuple[datetime.date, datetime.date]:
    """Parse 'YYYY-MM-DD:YYYY-MM-DD' into a half-open date range."""
    try:
        start_s, end_s = text.split(":")
        start = datetime.date.fromisoformat(start_s.strip())
        end = datetime.date.fromisoformat(end_s.strip())
    except ValueError as exc:
        raise ValidationError(f"bad period {text!r}: expected START:END ISO dates") from exc
    if start >= end:
        raise ValidationError(f"bad period {text!r}: start must precede end")
    return start, end


@dataclass
class AnalysisConfig:
    input_path: Path
    periods: list[tuple[datetime.date, datetime.date]] = field(default_factory=list)
    p: float = 0.01
    min_exceedances: int = DEFAULT_MIN_EXCEEDANCES
    alpha_filter: float | None = None
    out_dir: Path = Path(".")

    def validate(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise InvalidProbability(f"p must lie in (0, 1), got {self.p}")
        if self.min_exceedances < 2:
            raise ValidationError(
                f"min_exceedances must be >= 2, got {self.min_exceedances}"
            )
        if self.alpha_filter is not None:
            self.alpha_filter = require_alpha(self.alpha_filter)

    @classmethod
    def from_json(cls, path, input_path=None, out_dir=None) -> "AnalysisConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        periods = [
            (datetime.date.fromisoformat(a), datetime.date.fromisoformat(b))
            for a, b in raw.get("periods", [])
        ]
        return cls(
            input_path=Path(input_path if input_path is not None else raw.get("input", "")),
            periods=periods,
            p=raw.get("p", 0.01),
            min_exceedances=raw.get("min_exceedances", DEFAULT_MIN_EXCEEDANCES),
            alpha_filter=raw.get("alpha_filter"),
            out_dir=Path(out_dir if out_dir is not None else "."),
        )


def trend_coefficients(returns: ReturnSeries) -> tuple[float, float, list[tuple[int, float]]]:
    """OLS trend of yearly average returns over the year index.

    Years are calendar years of the return dates; the regressor is the
    zero-based index of the year within the observed range. Returns
    (slope, intercept, [(year, mean), ...]).
    """
    if len(returns) == 0:
        raise TooFewObservations("no returns to aggregate")
    by_year: dict[int, list[float]] = {}
    for d, v in zip(returns.dates, returns.values):
        by_year.setdefault(d.year, []).append(float(v))
    years = sorted(by_year)
    if len(years) < 2:
        raise TooFewObservations("trend needs at least 2 yearly averages")
    means = [float(np.mean(by_year[y])) for y in years]
    xs = np.array([y - years[0] for y in years], dtype=float)
    ys = np.array(means)
    xbar, ybar = xs.mean(), ys.mean()
    slope = float(np.sum((xs - xbar) * (ys - ybar)) / np.sum((xs - xbar) ** 2))
    intercept = float(ybar - slope * xbar)
    return slope, intercept, list(zip(years, means))


# -- CSV exports ---------------------------------------------------------------

def write_curve_csv(curve: MeanExcessCurve, path) -> None:
    columns = (python_values(curve.thresholds), python_values(curve.mean_excesses), python_values(curve.counts))
    rows = ((u, e, int(c)) for u, e, c in zip(*columns))
    write_rows(path, "u,mean_excess,count\n", "{:.15g},{:.15g},{}\n", rows)


def read_curve_csv(path) -> tuple[list[float], list[float], list[int]]:
    reader = csv_rows(path)
    header = next(reader, None)
    if header is None or [c.strip().lower() for c in header] != ["u", "mean_excess", "count"]:
        raise ValidationError(f"{path}: expected header 'u,mean_excess,count', got {header}")
    us, means, counts = _read_columns(path, reader, "curve", [(0, float), (1, float), (2, int)])
    return us, means, counts


def write_scan_csv(scan: ThresholdScan, path) -> None:
    header = "u,xi,sigma,n_u,var,es,w2,a2,accepted_alphas\n"
    write_rows(path, header, "{:.15g},{:.15g},{:.15g},{},{:.15g},{},{}{}\n", map(_scan_row, scan.estimates))


def _scan_row(e: RiskEstimate) -> tuple:
    gof = e.gof
    es = "" if e.es is None else f"{e.es:.15g}"
    tests = ",," if gof is None else f"{gof.w2:.15g},{gof.a2:.15g},"
    accepted = "" if gof is None else ";".join(f"{a:g}" for a in gof.accepted_alphas())
    return e.u, e.params.shape, e.params.scale, e.n_u, e.var, es, tests, accepted


def read_scan_csv(path) -> tuple[list[float], list[float]]:
    """(u, var) pairs from a scan export, e.g. for plotting."""
    reader = csv_rows(path)
    header = next(reader, None)
    if header is None or not header or header[0].strip().lower() != "u":
        raise ValidationError(f"{path}: not a scan export (header {header})")
    try:
        var_idx = [c.strip().lower() for c in header].index("var")
    except ValueError as exc:
        raise ValidationError(f"{path}: scan export lacks a 'var' column") from exc
    us, vars_ = _read_columns(path, reader, "scan", [(0, float), (var_idx, float)])
    return us, vars_


def _read_columns(path, reader, kind: str, columns) -> list[list]:
    """The ``columns`` ((index, type) pairs) of the rows left in ``reader``, one list each.

    Empty rows are skipped. A row that does not parse, or whose first two
    (float) columns are not finite, names the file and line.
    """
    out = [[] for _ in columns]
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            values = [kind_of(row[i]) for i, kind_of in columns]
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"{path}:{lineno}: malformed {kind} row {row}") from exc
        if not all(math.isfinite(v) for v in values[:2]):
            raise ValidationError(f"{path}:{lineno}: non-finite value in {kind} row {row}")
        for column, value in zip(out, values):
            column.append(value)
    return out


# -- report assembly -----------------------------------------------------------

def scan_dict(scan: ThresholdScan, alpha_filtered: RiskEstimate | None = None) -> dict:
    """JSON-ready mirror of a ThresholdScan (estimates ordered by threshold)."""
    return {
        "regime": scan.regime,
        "diagnostics": asdict(scan.diagnostics),
        "selected_index": scan.selected_index,
        "estimates": [_estimate_dict(e) for e in scan.estimates],
        "alpha_filtered": None if alpha_filtered is None else _estimate_dict(alpha_filtered),
    }


def _estimate_dict(est: RiskEstimate) -> dict:
    gof = None
    if est.gof is not None:
        gof = {
            "w2": _round12(est.gof.w2),
            "a2": _round12(est.gof.a2),
            "verdicts": {f"{a:g}": v for a, v in est.gof.verdicts.items()},
        }
    return {
        "u": _round12(est.u),
        "shape": _round12(est.params.shape),
        "scale": _round12(est.params.scale),
        "n": est.n,
        "n_u": est.n_u,
        "p": _round12(est.p),
        "var": _round12(est.var),
        "es": None if est.es is None else _round12(est.es),
        "gof": gof,
    }


def _box_dict(summary) -> dict:
    return {
        "q1": _round12(summary.q1),
        "median": _round12(summary.median),
        "q3": _round12(summary.q3),
        "iqr": _round12(summary.iqr),
        "whisker_low": _round12(summary.whisker_low),
        "whisker_high": _round12(summary.whisker_high),
        "min_outlier": None if summary.min_outlier is None else _round12(summary.min_outlier),
        "max_outlier": None if summary.max_outlier is None else _round12(summary.max_outlier),
    }


def _rescope(exc: PotriskError, context: str) -> PotriskError:
    return type(exc)(f"{context}: {exc}")


def _tail_report(values, regime, config, label, tail_name, out_dir, period_idx):
    context = f"period {label}, {tail_name} tail"
    try:
        curve = mean_excess_curve(values)
        write_curve_csv(curve, out_dir / f"mean_excess_p{period_idx}_{tail_name}.csv")
        scan = scan_thresholds(
            values,
            p=config.p,
            regime=regime,
            min_exceedances=config.min_exceedances,
        )
        write_scan_csv(scan, out_dir / f"var_scan_p{period_idx}_{tail_name}.csv")
    except PotriskError as exc:
        raise _rescope(exc, context) from exc
    alpha_filtered = None
    if config.alpha_filter is not None and regime == HEAVY_TAIL:
        try:
            alpha_filtered = scan_with_alpha_filter(scan, config.alpha_filter)
        except NoSurvivingCandidates as exc:
            raise _rescope(exc, context) from exc
    return {
        "regime": regime,
        "n": int(np.asarray(values).size),
        "diagnostics": asdict(scan.diagnostics),
        "selected": _estimate_dict(scan.selected),
        "alpha_filtered": None if alpha_filtered is None else _estimate_dict(alpha_filtered),
    }


def analyze(config: AnalysisConfig) -> dict:
    """Run the full pipeline; write report.json and CSV exports; return the report."""
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    earnings = read_earnings_csv(config.input_path)
    returns = compute_returns(earnings)
    write_returns_csv(returns, out_dir / "returns.csv")

    if config.periods:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            period_series = split_by_period(returns, config.periods)
        bounds = config.periods
    else:
        period_series = [returns]
        bounds = [(returns.dates[0], returns.dates[-1] + datetime.timedelta(days=1))]

    periods_out = []
    for idx, (series, (start, end)) in enumerate(zip(period_series, bounds), start=1):
        label = f"{start.isoformat()}..{end.isoformat()}"
        if len(series) == 0:
            raise EmptyPeriodError(f"period {label} captured no returns")
        split = split_by_sign(series)
        try:
            box = box_plot(series)
        except PotriskError as exc:
            raise _rescope(exc, f"period {label}") from exc
        periods_out.append({
            "label": label,
            "start": start.isoformat(),
            "end": end.isoformat(),
            "n_returns": len(series),
            "n_positive": len(split.positive),
            "n_negative": len(split.negative),
            "n_zero": split.n_zero,
            "box_plot": _box_dict(box),
            "tails": {
                "positive": _tail_report(
                    split.positive.values, HEAVY_TAIL, config, label, "positive", out_dir, idx
                ),
                "negative": _tail_report(
                    split.negative.values, SHORT_TAIL, config, label, "negative", out_dir, idx
                ),
            },
        })

    report = {
        "schema_version": SCHEMA_VERSION,
        "input_file": Path(config.input_path).name,
        "parameters": {
            "p": _round12(config.p),
            "min_exceedances": config.min_exceedances,
            "alpha_filter": None if config.alpha_filter is None else _round12(config.alpha_filter),
            "periods": [[a.isoformat(), b.isoformat()] for a, b in bounds],
        },
        "n_observations": len(earnings),
        "n_returns": len(returns),
        "periods": periods_out,
    }
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report
