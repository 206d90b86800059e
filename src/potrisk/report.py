"""End-to-end analysis pipeline and its report/export formats.

``analyze`` runs ingest -> returns -> period split -> sign split -> per-tail
threshold scan and writes a versioned JSON report plus CSV exports. The
report is fully deterministic: floats are rounded to 12 significant digits
before serialization, so reruns produce byte-identical files and every
reported number can be recomputed by the library from the recorded inputs.

``report.json`` and ``trend.json`` are written by :func:`write_json`. A
scan's JSON, thousands of estimates, is streamed by :func:`write_scan_json`
from one template per estimate, in the bytes ``write_json`` would give.
The scan writers format the scan's columns a chunk at a time, and take the
text of each row's verdicts from one prebuilt text per verdict code.
"""

import datetime
import json
import math
import numbers
import operator
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
from .gof import ACCEPT, ALPHA_LEVELS, VERDICTS, require_alpha
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
    column_chunks,
    csv_table,
    format_chunks,
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
    "require_min_exceedances",
    "trend_coefficients",
    "trend_dict",
    "write_curve_csv",
    "write_json",
    "write_scan_csv",
    "write_scan_json",
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


def require_min_exceedances(m) -> None:
    """A ValidationError unless ``m`` is an int >= 2 (a bool is not)."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 2:
        raise ValidationError(f"min_exceedances must be an integer >= 2, got {m!r}")


@dataclass
class AnalysisConfig:
    input_path: Path
    periods: list[tuple[datetime.date, datetime.date]] = field(default_factory=list)
    p: float = 0.01
    min_exceedances: int = DEFAULT_MIN_EXCEEDANCES
    alpha_filter: float | None = None
    out_dir: Path = Path(".")

    def validate(self) -> None:
        """A ValidationError unless p is in (0, 1), min_exceedances an int >= 2 and alpha_filter None or a level."""
        if not (isinstance(self.p, numbers.Real) and 0.0 < self.p < 1.0):
            raise InvalidProbability(f"p must lie in (0, 1), got {self.p!r}")
        require_min_exceedances(self.min_exceedances)
        if self.alpha_filter is not None:
            self.alpha_filter = require_alpha(self.alpha_filter)

    @classmethod
    def from_json(cls, path, input_path=None, out_dir=None) -> "AnalysisConfig":
        """The validated config of the JSON object in ``path``; unknown keys are ignored.

        Arguments that are not None take the place of the file's "input" and
        of the out_dir default ".". A file that does not hold such an object
        raises a ValidationError naming it.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to parse
            raise ValidationError(f"{path}: {exc}") from exc
        try:
            if not isinstance(raw, dict):
                raise ValidationError(f"expected a JSON object, got {type(raw).__name__}")
            pairs, source = raw.get("periods", []), raw.get("input", "")
            if not (isinstance(pairs, list) and all(
                isinstance(pair, list) and len(pair) == 2 and all(isinstance(d, str) for d in pair)
                for pair in pairs
            )):
                raise ValidationError(f"periods must be a list of [start, end] ISO date pairs, got {pairs!r}")
            if not isinstance(source, str):
                raise ValidationError(f"input must be a path, got {source!r}")
            config = cls(
                input_path=Path(input_path if input_path is not None else source),
                periods=[parse_period(f"{start}:{end}") for start, end in pairs],
                p=raw.get("p", 0.01),
                min_exceedances=raw.get("min_exceedances", DEFAULT_MIN_EXCEEDANCES),
                alpha_filter=raw.get("alpha_filter"),
                out_dir=Path(out_dir if out_dir is not None else "."),
            )
            config.validate()
        except ValidationError as exc:
            raise _rescope(exc, str(path)) from exc
        return config


def trend_coefficients(returns: ReturnSeries) -> tuple[float, float, list[tuple[int, float]]]:
    """OLS trend of yearly average returns over the year index.

    Years are calendar years of the return dates; the regressor is the
    zero-based index of the year within the observed range, and all sums
    are in units of 2**e, e the largest return's exponent, so none overflows.
    Returns (slope, intercept, [(year, mean), ...]).
    """
    if len(returns) == 0:
        raise TooFewObservations("no returns to aggregate")
    e = math.frexp(float(np.max(np.abs(returns.values))))[1]
    by_year: dict[int, list[float]] = {}
    for d, v in zip(returns.dates, np.ldexp(returns.values, -e).tolist()):
        by_year.setdefault(d.year, []).append(v)
    years = sorted(by_year)
    if len(years) < 2:
        raise TooFewObservations("trend needs at least 2 yearly averages")
    ys = np.array([np.mean(by_year[y]) for y in years])
    xs = np.array([y - years[0] for y in years], dtype=float)
    xbar, ybar = xs.mean(), ys.mean()
    slope = np.sum((xs - xbar) * (ys - ybar)) / np.sum((xs - xbar) ** 2)
    with np.errstate(over="ignore"):
        slope, intercept, *means = np.ldexp([slope, ybar - slope * xbar, *ys], e).tolist()
    if not np.isfinite([slope, intercept, *means]).all():
        raise ValidationError("the trend of the yearly mean returns is beyond the double range")
    return slope, intercept, list(zip(years, means))


def trend_dict(slope: float, intercept: float, yearly) -> dict:
    """JSON-ready form of :func:`trend_coefficients`' result."""
    return {
        "slope": _round12(slope),
        "intercept": _round12(intercept),
        "yearly_means": [{"year": year, "mean": _round12(mean)} for year, mean in yearly],
    }


# -- CSV exports ---------------------------------------------------------------

def write_curve_csv(curve: MeanExcessCurve, path) -> None:
    columns = [curve.thresholds, curve.mean_excesses, curve.counts.astype(np.int64, copy=False)]
    write_rows(path, "u,mean_excess,count\n", "{:.15g},{:.15g},{}\n", column_chunks(columns))


def read_curve_csv(path) -> tuple[list[float], list[float], list[int]]:
    header, chunks = csv_table(path)
    if header is None or [c.strip().lower() for c in header] != ["u", "mean_excess", "count"]:
        raise ValidationError(f"{path}: expected header 'u,mean_excess,count', got {header}")
    us, means, counts = _read_columns(path, chunks, "curve", [(0, float), (1, float), (2, int)])
    return us, means, counts


# Per verdict code (gof.VERDICTS), the scan CSV's accepted alphas and the scan JSON's verdicts, 8 deep.
_ACCEPTED_TEXTS = [";".join(f"{a:g}" for a, v in zip(ALPHA_LEVELS, verdicts) if v == ACCEPT) for verdicts in VERDICTS]
_VERDICT_JSON = [
    json.dumps({f"{a:g}": v for a, v in zip(ALPHA_LEVELS, verdicts)}, indent=2).replace("\n", "\n        ")
    for verdicts in VERDICTS
]


def write_scan_csv(scan: ThresholdScan, path) -> None:
    header = "u,xi,sigma,n_u,var,es,w2,a2,accepted_alphas\n"
    line = "{},{},{},{},{},{}," + (",," if scan.codes is None else "{},{},{}") + "\n"
    write_rows(path, header, line, _scan_texts(scan, "{:.15g}".format, "", _ACCEPTED_TEXTS))


def _scan_texts(scan: ThresholdScan, fmt, missing: str, code_texts):
    """The texts of the scan writers' columns, a chunk at a time, as :func:`~potrisk.series.format_chunks` takes them.

    The columns are u, shape, scale, n_u, var, es, and w2, a2 and the
    verdict codes if the scan has them. A float's text is ``fmt(x)``, a
    None shortfall's ``missing``, and a code's ``code_texts[code]``.
    """
    columns = [scan.u, scan.shape, scan.scale, scan.n_u, scan.var, scan.es, scan.has_es]
    if scan.codes is not None:
        columns += [scan.w2, scan.a2, scan.codes]
    for u, shape, scale, n_u, var, es, has_es, *gof in column_chunks(columns):
        texts = [list(map(fmt, u)), list(map(fmt, shape)), list(map(fmt, scale)), n_u, list(map(fmt, var))]
        texts.append([fmt(e) if ok else missing for e, ok in zip(es, has_es)])
        if gof:
            w2, a2, codes = gof
            texts += [list(map(fmt, w2)), list(map(fmt, a2)), [code_texts[c] for c in codes]]
        yield texts


def read_scan_csv(path) -> tuple[list[float], list[float]]:
    """(u, var) pairs from a scan export, e.g. for plotting."""
    header, chunks = csv_table(path)
    if header is None or not header or header[0].strip().lower() != "u":
        raise ValidationError(f"{path}: not a scan export (header {header})")
    try:
        var_idx = [c.strip().lower() for c in header].index("var")
    except ValueError as exc:
        raise ValidationError(f"{path}: scan export lacks a 'var' column") from exc
    us, vars_ = _read_columns(path, chunks, "scan", [(0, float), (var_idx, float)])
    return us, vars_


def _read_columns(path, chunks, kind: str, columns) -> list[list]:
    """The ``columns`` ((index, type) pairs) of the (line, chunk) pairs ``chunks`` of ``csv_table``, one list each."""
    out = [[] for _ in columns]
    for line, chunk in chunks:
        for column, values in zip(out, _chunk_columns(path, kind, line, chunk, columns)):
            column += values
    return out


def _chunk_columns(path, kind: str, line: int, chunk, columns) -> list[list]:
    """The ``columns`` of ``chunk``, the records of a curve or scan CSV from ``line`` on.

    Each column is converted at once. A chunk where that fails (an empty
    record, a short one, a value that does not parse, or a first or second
    (float) value that is not finite) is walked a record at a time,
    skipping empty records and naming the file and line of the first bad one.
    """
    try:
        if chunk and min(map(len, chunk)) > max(i for i, _ in columns):
            parsed = [list(map(kind_of, map(operator.itemgetter(i), chunk))) for i, kind_of in columns]
            if all(map(math.isfinite, parsed[0])) and all(map(math.isfinite, parsed[1])):
                return parsed
    except ValueError:
        pass
    out = [[] for _ in columns]
    for lineno, row in enumerate(chunk, start=line):
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

def write_json(doc, path) -> None:
    """Write ``doc`` as UTF-8 JSON indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_scan_json(scan: ThresholdScan, alpha_filtered: RiskEstimate | None, path) -> None:
    """Write a ThresholdScan (estimates ordered by threshold) as :func:`write_json` would its mirror.

    The mirror holds the regime, diagnostics and selected index, each
    estimate as :func:`_estimate_dict` gives it, and ``alpha_filtered``.
    The estimates are formatted straight from the scan's columns into their
    text, a chunk of ``series.CHUNK_ROWS`` at a time.
    """
    head = {"regime": scan.regime, "diagnostics": asdict(scan.diagnostics), "selected_index": scan.selected_index}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head, indent=2)[:-2] + ',\n  "estimates": [')  # the head without its "\n}"
        if scan.u.size:
            fh.write("\n    ")
            chunks = _scan_texts(scan, _json12, "null", _VERDICT_JSON)
            fh.writelines(format_chunks(_estimate_line(scan), chunks, sep=",\n    "))
            fh.write("\n  ")
        fh.write('],\n  "alpha_filtered": ')
        if alpha_filtered is None:
            fh.write("null")
        else:  # nested one level deep
            fh.write(json.dumps(_estimate_dict(alpha_filtered), indent=2).replace("\n", "\n  "))
        fh.write("\n}\n")


def _json12(x) -> str:
    """``json.dumps(_round12(x))``: the .12g text itself where it is that already.

    A .12g text with a point and no exponent has |x| >= 1e-4, so it holds
    the shortest digits of its double, in the notation of repr.
    """
    text = f"{x:.12g}"
    return text if "." in text and "e" not in text else json.dumps(float(text))


def _estimate_line(scan: ThresholdScan) -> str:
    """The template of an estimate of ``scan`` in the scan JSON, for the texts of :func:`_scan_texts`.

    Each estimate's text is ``json.dumps(_estimate_dict(e), indent=2)``
    nested 4 deep. The scan's n and p, the same in every row, are in the
    template.
    """
    keys = ("u", "shape", "scale", "n", "n_u", "p", "var", "es", "gof")
    gof = "null" if scan.codes is None else '{{\n        "w2": {},\n        "a2": {},\n        "verdicts": {}\n      }}'
    values = ("{}", "{}", "{}", str(scan.n), "{}", _json12(scan.p), "{}", "{}", gof)
    return "{{" + ",".join(f'\n      "{key}": {value}' for key, value in zip(keys, values)) + "\n    }}"


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
    write_json(report, out_dir / "report.json")
    return report
