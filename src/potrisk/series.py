"""Earnings ingestion, return transform, period/sign splits, box plots.

The return of week i+1 relative to week i is (R_{i+1} - R_i) / R_i and is
dated by the later week. Negative returns are handled as magnitudes by
:func:`split_by_sign` so both tails can be modelled as right tails above a
positive threshold.
"""

import csv
import datetime
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyPeriodWarning,
    OverlappingRanges,
    TooFewObservations,
    ValidationError,
    ZeroDenominator,
)

__all__ = [
    "BoxPlotSummary",
    "EarningsSeries",
    "ReturnSeries",
    "SignSplit",
    "box_plot",
    "compute_returns",
    "read_earnings_csv",
    "split_by_period",
    "split_by_sign",
    "write_returns_csv",
]

# Rows per chunk of an export. Each chunk is formatted by one str.format
# call and written before the next is taken, so an export holds one chunk's
# text at a time (well under 1 MB), however many rows it has.
CHUNK_ROWS = 1024


@dataclass(frozen=True)
class EarningsSeries:
    """Dated nonnegative revenue observations with strictly increasing dates."""

    dates: tuple[datetime.date, ...]
    revenues: np.ndarray

    def __post_init__(self):
        rev = np.asarray(self.revenues, dtype=float)
        if len(self.dates) != rev.size:
            raise ValidationError("dates and revenues must have equal length")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError("dates must be strictly increasing")
        if np.any(rev < 0.0) or np.any(~np.isfinite(rev)):
            raise ValidationError("revenues must be finite and nonnegative")
        rev = rev.copy()
        rev.setflags(write=False)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "revenues", rev)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class ReturnSeries:
    """Dated finite relative returns."""

    dates: tuple[datetime.date, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if len(self.dates) != vals.size:
            raise ValidationError("dates and values must have equal length")
        if np.any(~np.isfinite(vals)):
            raise ValidationError("returns must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class SignSplit:
    """Sign decomposition of a return series.

    ``negative`` holds magnitudes (sign-flipped losses) so the loss tail is
    a right tail; zero returns are dropped but counted.
    """

    positive: ReturnSeries
    negative: ReturnSeries
    n_zero: int


@dataclass(frozen=True)
class BoxPlotSummary:
    q1: float
    median: float
    q3: float
    iqr: float
    whisker_low: float
    whisker_high: float
    min_outlier: float | None
    max_outlier: float | None


def compute_returns(series: EarningsSeries) -> ReturnSeries:
    """Relative week-over-week returns, dated by the later week.

    Raises TooFewObservations for fewer than two revenue rows and
    ZeroDenominator when any revenue other than the last is zero.
    """
    if len(series) < 2:
        raise TooFewObservations("need at least 2 observations to compute returns")
    rev = series.revenues
    denom = rev[:-1]
    if np.any(denom == 0.0):
        idx = int(np.flatnonzero(denom == 0.0)[0])
        raise ZeroDenominator(
            f"revenue at {series.dates[idx].isoformat()} is zero and is used as a denominator"
        )
    values = np.diff(rev) / denom
    return ReturnSeries(dates=series.dates[1:], values=values)


def split_by_period(
    returns: ReturnSeries, boundaries: list[tuple[datetime.date, datetime.date]]
) -> list[ReturnSeries]:
    """Partition a return series into half-open date ranges [start, end).

    Ranges must be valid (start < end) and non-overlapping. A range that
    captures zero returns triggers an EmptyPeriodWarning.
    """
    for start, end in boundaries:
        if start >= end:
            raise ValidationError(f"invalid period range {start}..{end}")
    ordered = sorted(boundaries)
    for (_, prev_end), (next_start, _) in zip(ordered, ordered[1:]):
        if next_start < prev_end:
            raise OverlappingRanges(
                f"period starting {next_start} overlaps a period ending {prev_end}"
            )
    out = []
    for start, end in boundaries:
        keep = [i for i, d in enumerate(returns.dates) if start <= d < end]
        if not keep:
            warnings.warn(
                f"period {start}..{end} captured no returns", EmptyPeriodWarning,
                stacklevel=2,
            )
        out.append(
            ReturnSeries(
                dates=tuple(returns.dates[i] for i in keep),
                values=returns.values[keep],
            )
        )
    return out


def split_by_sign(returns: ReturnSeries) -> SignSplit:
    """Split into positive returns and negative-return magnitudes."""
    vals = returns.values
    pos = vals > 0.0
    neg = vals < 0.0
    positive = ReturnSeries(
        dates=tuple(d for d, m in zip(returns.dates, pos) if m),
        values=vals[pos],
    )
    negative = ReturnSeries(
        dates=tuple(d for d, m in zip(returns.dates, neg) if m),
        values=-vals[neg],
    )
    return SignSplit(
        positive=positive,
        negative=negative,
        n_zero=int(vals.size - positive.values.size - negative.values.size),
    )


def _quartiles(vals: np.ndarray) -> list[float]:
    """The quartiles of ``vals`` (2 or more finite values), bit for bit as np.quantile gives them.

    np.quantile's first call imports numpy.ma (about 13 ms), so its linear
    method is written out: quantile q lies at index (n - 1)*q, between the
    sorted values a at its floor i and b at i + 1, and with t its distance
    from i is a + (b - a)*t, or b - (b - a)*(1 - t) for t >= 0.5. One
    partition at np.quantile's points places even tied zeros of opposite
    sign as there.
    """
    index = (vals.size - 1) * np.array([0.25, 0.5, 0.75])
    i = np.floor(index).astype(np.intp)
    s = vals.copy()
    s.partition(sorted({0, -1, *i.tolist(), *(i + 1).tolist()}))  # np.unique would import numpy.ma
    a, b, t = s[i], s[i + 1], index - i
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t).tolist()


def box_plot(returns: ReturnSeries) -> BoxPlotSummary:
    """Five-number box-plot summary with 1.5*IQR whiskers.

    Quartiles interpolate linearly between the closest order statistics.
    Outlier fields carry the sample min/max only when they fall outside
    the whiskers.
    """
    vals = returns.values
    if vals.size < 4:
        raise TooFewObservations("box plot needs at least 4 data points")
    q1, median, q3 = _quartiles(vals)
    iqr = q3 - q1
    whisker_low = q1 - 1.5 * iqr
    whisker_high = q3 + 1.5 * iqr
    lo, hi = float(vals.min()), float(vals.max())
    return BoxPlotSummary(
        q1=q1,
        median=median,
        q3=q3,
        iqr=iqr,
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        min_outlier=lo if lo < whisker_low else None,
        max_outlier=hi if hi > whisker_high else None,
    )


# -- CSV interfaces -----------------------------------------------------------

def csv_rows(path):
    """The rows of the UTF-8 CSV file at ``path``, read one at a time.

    Raises ValidationError, naming the file, for bytes that are not UTF-8
    or that the csv module cannot parse.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a UTF-8 CSV file: {exc}") from exc


def _read_dated_csv(path, column: str, series):
    """The ``series`` (EarningsSeries or ReturnSeries) of a `date,<column>` CSV.

    A row that does not parse names the file, the line, and the bad date
    or the bad value.
    """
    dates = []
    values = []
    reader = csv_rows(path)
    header = next(reader, None)
    if header is None or [c.strip().lower() for c in header] != ["date", column]:
        raise ValidationError(f"{path}: expected header 'date,{column}', got {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
        try:
            dates.append(datetime.date.fromisoformat(row[0].strip()))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad date {row[0]!r}: {exc}") from exc
        try:
            values.append(float(row[1]))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad {column} {row[1]!r}") from exc
    try:
        return series(tuple(dates), np.asarray(values))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def read_earnings_csv(path) -> EarningsSeries:
    """Read a `date,revenue` CSV (ISO dates, plain decimal revenues)."""
    return _read_dated_csv(path, "revenue", EarningsSeries)


def read_returns_csv(path) -> ReturnSeries:
    """Read a `date,return` CSV produced by :func:`write_returns_csv`."""
    return _read_dated_csv(path, "return", ReturnSeries)


def write_returns_csv(returns: ReturnSeries, path) -> None:
    """Write a `date,return` CSV with 15 significant digits."""
    rows = ((d.isoformat(), v) for d, v in zip(returns.dates, python_values(returns.values)))
    write_rows(path, "date,return\n", "{},{:.15g}\n", rows)


def python_values(values: np.ndarray):
    """The elements of a 1-d array as Python numbers, converted one chunk at a time."""
    for start in range(0, values.size, CHUNK_ROWS):
        yield from values[start : start + CHUNK_ROWS].tolist()


def format_chunks(line: str, rows, sep: str = ""):
    """``line`` formatted with each tuple of ``rows`` and joined by ``sep``, as one string per CHUNK_ROWS rows.

    ``line`` holds one replacement field per value of a row. Each chunk is
    one str.format call of ``line`` repeated, so the text held at once
    does not grow with the number of rows.
    """
    rows = iter(rows)
    lead = ""
    while chunk := list(itertools.islice(rows, CHUNK_ROWS)):
        yield lead + sep.join([line] * len(chunk)).format(*itertools.chain.from_iterable(chunk))
        lead = sep


def write_rows(path, header: str, line: str, rows) -> None:
    """Write ``header``, then ``line`` formatted with each tuple of ``rows``, to a UTF-8 file, a chunk at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(format_chunks(line, rows))
