"""Earnings ingestion, return transform, period/sign splits, box plots.

The return of week i+1 relative to week i is (R_{i+1} - R_i) / R_i and is
dated by the later week. Negative returns are handled as magnitudes by
:func:`split_by_sign` so both tails can be modelled as right tails above a
positive threshold.
"""

import csv
import datetime
import io
import itertools
import math
import operator
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

# Rows per chunk of an export or an input. Each export chunk is formatted by
# one str.format call and written before the next is taken, so an export
# holds one chunk's text at a time (well under 1 MB), however many rows it
# has. Each input chunk is converted a column at a time.
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
        if any(map(operator.le, self.dates[1:], self.dates)):
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

    Raises TooFewObservations for fewer than two revenue rows,
    ZeroDenominator when any revenue other than the last is zero, and
    ValidationError, naming its date, for the first return beyond the
    double range (a revenue far larger than a subnormal one before it).
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
    with np.errstate(over="ignore"):  # an overflowing ratio is inf, reported next
        values = np.diff(rev) / denom
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"return at {series.dates[i + 1].isoformat()} is beyond the double range "
            f"(revenue {float(rev[i + 1])!r} after {float(rev[i])!r})"
        )
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
        dates=tuple(itertools.compress(returns.dates, pos.tolist())),
        values=vals[pos],
    )
    negative = ReturnSeries(
        dates=tuple(itertools.compress(returns.dates, neg.tolist())),
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


def _fence(q: float, iqr: float, extreme: float) -> float:
    """The fence q + 1.5*iqr, or ``extreme`` where it lies beyond the double range.

    Where 1.5*iqr alone overflows, the fence is formed at half scale,
    which rounds as the full-scale sum would.
    """
    fence = q + 1.5 * iqr
    if not math.isfinite(fence):
        fence = 2.0 * (0.5 * q + 0.75 * iqr)
    return fence if math.isfinite(fence) else extreme


def box_plot(returns: ReturnSeries) -> BoxPlotSummary:
    """Five-number box-plot summary with 1.5*IQR whiskers.

    Quartiles interpolate linearly between the closest order statistics.
    Outlier fields carry the sample min/max only when they fall outside
    the whiskers. A whisker whose fence lies beyond the double range is
    the data's extreme on its side, beyond which no value lies. Raises
    ValidationError when the interquartile range itself overflows.
    """
    vals = returns.values
    if vals.size < 4:
        raise TooFewObservations("box plot needs at least 4 data points")
    with np.errstate(over="ignore", invalid="ignore"):  # a quartile between huge values of opposite sign
        q1, median, q3 = _quartiles(vals)
    iqr = q3 - q1
    if not math.isfinite(iqr):
        raise ValidationError("a box plot needs returns whose interquartile range is within the double range")
    lo, hi = float(vals.min()), float(vals.max())
    whisker_low, whisker_high = _fence(q1, -iqr, lo), _fence(q3, iqr, hi)
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
    """The records of the UTF-8 CSV file at ``path``, in lists of up to CHUNK_ROWS.

    Raises ValidationError, naming the file, for a record that the csv
    module cannot parse, and also its line for the first byte that is not
    UTF-8, once the records before it have been handed out. The text
    decoder reads ahead of the records, so that byte is found again in the
    file's bytes.
    """
    handed = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for chunk in _record_chunks(path, csv.reader(fh)):
                handed += len(chunk)
                yield chunk
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as bad:
            start = data.rfind(b"\n", 0, bad.start) + 1  # the bad byte's line starts here
            records = csv.reader(io.StringIO(data[:start].decode("utf-8"), newline=""))
            yield from _record_chunks(path, itertools.islice(records, handed, None))
            error = UnicodeDecodeError(bad.encoding, data[start : bad.end], bad.start - start, bad.end - start, bad.reason)
            line = data.count(b"\n", 0, start) + 1
            raise ValidationError(f"{path}:{line}: not a UTF-8 CSV file: {error}") from bad


def _record_chunks(path, records):
    """The ``records`` in lists of up to CHUNK_ROWS; a csv.Error becomes a ValidationError once the records before it are out."""
    while True:
        chunk, error = [], None
        try:
            chunk.extend(itertools.islice(records, CHUNK_ROWS))  # keeps the records read before an error
        except csv.Error as exc:
            error = exc
        if chunk:
            yield chunk
        if error is not None:
            raise ValidationError(f"{path}: not a UTF-8 CSV file: {error}") from error
        if len(chunk) < CHUNK_ROWS:
            return


def csv_table(path):
    """The header of the UTF-8 CSV file at ``path`` (None if it has no record) and its other records.

    The records come in the chunks of :func:`csv_rows`, as (line, chunk)
    pairs, with the line of the chunk's first record (the header's is 1).
    """
    chunks = csv_rows(path)
    first = next(chunks, [None])

    def numbered():
        line = 2
        for chunk in itertools.chain([first[1:]], chunks):
            yield line, chunk
            line += len(chunk)

    return first[0], numbered()


def _read_dated_csv(path, column: str, series):
    """The ``series`` (EarningsSeries or ReturnSeries) of a `date,<column>` CSV.

    A row that does not parse names the file, the line, and the bad date
    or the bad value.
    """
    dates = []
    values = []
    header, chunks = csv_table(path)
    if header is None or [c.strip().lower() for c in header] != ["date", column]:
        raise ValidationError(f"{path}: expected header 'date,{column}', got {header}")
    for line, chunk in chunks:
        chunk_dates, chunk_values = _dated_columns(path, column, line, chunk)
        dates += chunk_dates
        values += chunk_values
    try:
        return series(tuple(dates), np.asarray(values))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _dated_columns(path, column: str, line: int, chunk) -> tuple[list, list]:
    """The dates and values of ``chunk``, the records of a `date,<column>` CSV from ``line`` on.

    Each column is converted at once. A chunk where that fails (a blank
    record, a record of another width, a bad date or value) is walked a
    record at a time, skipping blank records and naming the first bad one.
    """
    try:
        if set(map(len, chunk)) == {2}:
            texts, numbers = zip(*chunk)
            return list(map(datetime.date.fromisoformat, map(str.strip, texts))), list(map(float, numbers))
    except ValueError:
        pass
    dates, values = [], []
    for lineno, row in enumerate(chunk, start=line):
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
    return dates, values


def read_earnings_csv(path) -> EarningsSeries:
    """Read a `date,revenue` CSV (ISO dates, plain decimal revenues)."""
    return _read_dated_csv(path, "revenue", EarningsSeries)


def read_returns_csv(path) -> ReturnSeries:
    """Read a `date,return` CSV produced by :func:`write_returns_csv`."""
    return _read_dated_csv(path, "return", ReturnSeries)


def write_returns_csv(returns: ReturnSeries, path) -> None:
    """Write a `date,return` CSV with 15 significant digits."""
    dates, values = returns.dates, returns.values
    chunks = (
        [list(map(datetime.date.isoformat, dates[i : i + CHUNK_ROWS])), values[i : i + CHUNK_ROWS].tolist()]
        for i in range(0, len(dates), CHUNK_ROWS)
    )
    write_rows(path, "date,return\n", "{},{:.15g}\n", chunks)


def column_chunks(columns):
    """The equal-length sequences ``columns`` as chunks of CHUNK_ROWS rows, each a list of the columns' slices.

    A numpy array's slice is taken as a list of Python numbers.
    """
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        parts = [column[start : start + CHUNK_ROWS] for column in columns]
        yield [part.tolist() if isinstance(part, np.ndarray) else part for part in parts]


def format_chunks(line: str, chunks, sep: str = ""):
    """``line`` formatted with each row of ``chunks`` and joined by ``sep``, as one string per chunk.

    A chunk is a list of columns, equal-length sequences holding one value
    per row for each replacement field of ``line``. Each chunk is one
    str.format call of ``line`` repeated, on its columns interleaved into
    one list, so the text held at once does not grow with the number of
    chunks.
    """
    lead = ""
    for columns in chunks:
        k, m = len(columns), len(columns[0])
        flat = [None] * (k * m)
        for j, column in enumerate(columns):
            flat[j::k] = column
        yield lead + sep.join([line] * m).format(*flat)
        lead = sep


def write_rows(path, header: str, line: str, chunks) -> None:
    """Write ``header``, then ``line`` formatted with each row of ``chunks``, to a UTF-8 file.

    ``chunks`` are lists of columns, as :func:`format_chunks` takes them.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header)
        fh.writelines(format_chunks(line, chunks))
