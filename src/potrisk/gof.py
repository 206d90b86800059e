"""Goodness-of-fit testing for fitted GPD tails.

Cramér–von Mises W² and Anderson–Darling A² on probability-transformed
excesses, judged against a critical-value table indexed by the fitted
shape (rows 0.0–0.3) and significance level. The table is built for
estimated parameters and covers nonnegative shapes only: fits with a
negative shape, or one above 0.3, yield not_applicable verdicts.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import BoundaryValue, EmptySample, UnknownAlphaLevel
from .gpd import GpdParams, gpd_cdf, gpd_cdf_rows

__all__ = [
    "ALPHA_LEVELS",
    "CRITICAL_VALUE_TABLE",
    "CriticalValueTable",
    "GofReport",
    "anderson_darling",
    "cramer_von_mises",
    "gof_reports",
    "interpolate_criticals",
    "test_gpd_fit",
    "transform_to_uniform",
    "verdicts_for",
]

ACCEPT = "accept"
REJECT = "reject"
NOT_APPLICABLE = "not_applicable"

ALPHA_LEVELS = (0.5, 0.25, 0.1, 0.05, 0.025, 0.01, 0.005)

_Z_CLAMP = 1e-12


@dataclass(frozen=True)
class CriticalValueTable:
    """Critical values per (shape row, alpha level) for W² and A²."""

    shapes: tuple[float, ...]
    alphas: tuple[float, ...]
    w2: tuple[tuple[float, ...], ...]
    a2: tuple[tuple[float, ...], ...]


CRITICAL_VALUE_TABLE = CriticalValueTable(
    shapes=(0.0, 0.1, 0.2, 0.3),
    alphas=ALPHA_LEVELS,
    w2=(
        (0.057, 0.086, 0.124, 0.153, 0.183, 0.224, 0.255),
        (0.055, 0.081, 0.116, 0.144, 0.172, 0.210, 0.240),
        (0.053, 0.078, 0.111, 0.137, 0.164, 0.200, 0.228),
        (0.052, 0.076, 0.108, 0.133, 0.158, 0.193, 0.220),
    ),
    a2=(
        (0.397, 0.569, 0.796, 0.974, 1.158, 1.409, 1.603),
        (0.386, 0.550, 0.766, 0.935, 1.110, 1.348, 1.532),
        (0.376, 0.534, 0.741, 0.903, 1.069, 1.296, 1.471),
        (0.369, 0.522, 0.722, 0.879, 1.039, 1.257, 1.426),
    ),
)


@dataclass(frozen=True)
class GofReport:
    w2: float
    a2: float
    shape_used: float
    verdicts: dict[float, str]
    interpolated_criticals: dict[float, tuple[float, float]]

    @property
    def applicable(self) -> bool:
        return any(v != NOT_APPLICABLE for v in self.verdicts.values())

    def accepted_alphas(self) -> tuple[float, ...]:
        return tuple(a for a in ALPHA_LEVELS if self.verdicts[a] == ACCEPT)


def transform_to_uniform(excesses, params: GpdParams) -> np.ndarray:
    """Probability integral transform of the excesses, sorted ascending."""
    y = np.asarray(excesses, dtype=float)
    if y.size == 0:
        raise EmptySample("cannot transform an empty excess sample")
    z = gpd_cdf(params, y)
    return np.sort(np.atleast_1d(z))


def cramer_von_mises(z) -> float:
    """W² statistic of sorted probabilities z against uniformity."""
    z = np.asarray(z, dtype=float)
    n = z.size
    if n == 0:
        raise EmptySample("W² requires a nonempty sample")
    i = np.arange(1, n + 1)
    return float(np.sum((z - (2.0 * i - 1.0) / (2.0 * n)) ** 2) + 1.0 / (12.0 * n))


def anderson_darling(z) -> float:
    """A² statistic of sorted probabilities z against uniformity.

    Values are clamped into [1e-12, 1 - 1e-12] before the logs; anything
    still at 0 or 1 afterwards (non-finite input) raises BoundaryValue.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if n == 0:
        raise EmptySample("A² requires a nonempty sample")
    z = np.clip(z, _Z_CLAMP, 1.0 - _Z_CLAMP)
    if np.any(~np.isfinite(z)) or np.any(z <= 0.0) or np.any(z >= 1.0):
        raise BoundaryValue("A² input contains values at 0 or 1 after clamping")
    i = np.arange(1, n + 1)
    s = np.sum((2.0 * i - 1.0) * (np.log(z) + np.log(1.0 - z[::-1])))
    return float(-n - s / n)


def interpolate_criticals(shape: float) -> dict[float, tuple[float, float]]:
    """Critical values at ``shape``, linearly interpolated between table rows.

    Defined for shapes within the table's coverage only; extrapolation is
    refused and returns an empty mapping.
    """
    return _verdict_rows([0.0], [0.0], [shape])[0][1]


def verdicts_for(w2: float, a2: float, shape: float) -> tuple[dict[float, str], dict[float, tuple[float, float]]]:
    """Per-alpha verdicts for given statistics at a fitted shape.

    Accept at a level when neither statistic exceeds its interpolated
    critical value; not_applicable at every level outside table coverage.
    """
    return _verdict_rows([w2], [a2], [shape])[0]


def _verdict_rows(w2, a2, shapes) -> list:
    """:func:`verdicts_for` of each (w2[r], a2[r], shapes[r]), with the criticals of all rows interpolated at once.

    Row r interpolates between the first table row at or above its shape
    and the row before it (the same row at the first shape), with the
    same operations, so the criticals are bitwise those of one shape.
    """
    table = CRITICAL_VALUE_TABLE
    rows = np.array(table.shapes)
    xi = np.asarray(shapes, dtype=float)
    covered = (xi >= rows[0]) & (xi <= rows[-1])
    hi = np.minimum(np.searchsorted(rows, xi), rows.size - 1)
    lo = np.maximum(hi - 1, 0)
    step = rows[hi] - rows[lo]
    frac = np.where(step > 0.0, (xi - rows[lo]) / np.where(step > 0.0, step, 1.0), 0.0)[:, None]
    w2t, a2t = np.array(table.w2), np.array(table.a2)
    w2c = w2t[lo] + frac * (w2t[hi] - w2t[lo])
    a2c = a2t[lo] + frac * (a2t[hi] - a2t[lo])
    accept = (np.asarray(w2, dtype=float)[:, None] <= w2c) & (np.asarray(a2, dtype=float)[:, None] <= a2c)
    # an object array, so that every verdict is one of the two constant strings
    verdicts = np.array([REJECT, ACCEPT], dtype=object)[accept.astype(np.intp)]
    out = []
    for ok, texts, w2_row, a2_row in zip(covered.tolist(), verdicts.tolist(), w2c.tolist(), a2c.tolist()):
        if ok:
            out.append((dict(zip(table.alphas, texts)), dict(zip(table.alphas, zip(w2_row, a2_row)))))
        else:
            out.append((dict.fromkeys(ALPHA_LEVELS, NOT_APPLICABLE), {}))
    return out


def test_gpd_fit(excesses, params: GpdParams) -> GofReport:
    """W²/A² report for a fitted GPD on its excess sample.

    Zero-valued transforms are dropped before both statistics. The
    one-sample case of :func:`gof_reports`.
    """
    y = np.sort(np.atleast_1d(np.asarray(excesses, dtype=float)))
    (report,) = gof_reports(y, np.zeros(1, dtype=np.intp), np.zeros(1), [params])
    return report


def gof_reports(xs, starts, thresholds, params) -> list:
    """W²/A² reports of many fits whose excess samples are suffixes of one sorted sample.

    ``xs`` is sorted ascending, and fit r (``params[r]``) was made on the
    excesses ``xs[starts[r]:] - thresholds[r]``, which are sorted too. The
    transforms of sorted excesses come out sorted, since the CDF is
    monotone, and so are the rounded steps that compute it (a product,
    log1p, a quotient and expm1). Each fit is a row of one leading zero
    followed by its excesses, and the rows are taken in the kernels' chunks
    (:func:`~potrisk._kernels.chunks`), laid back to back. A chunk computes
    its transforms, clipping and logs as one 1-d array, and sums each
    statistic's terms of all its rows in one np.add.reduceat, every row's
    sum starting at a zero before its kept terms, which is the order np.sum
    takes over those terms. So each report is bitwise the one that
    :func:`cramer_von_mises` and :func:`anderson_darling` give on the
    sorted, nonzero transforms. The criticals and verdicts of all fits are
    then interpolated at once. Raises, for the first fit that has them, the
    errors those would.
    """
    padded = np.concatenate([[0.0], np.asarray(xs, dtype=float)])  # padded[starts[r]] precedes row r's excesses
    starts = np.asarray(starts, dtype=np.intp)
    thresholds = np.asarray(thresholds, dtype=float)
    widths = padded.size - starts
    w2s, a2s = [], []
    for a, b in _kernels.chunks(widths.tolist()):
        w2, a2 = _gof_block(padded, starts[a:b], widths[a:b], thresholds[a:b], params[a:b])
        w2s.extend(w2.tolist())
        a2s.extend(a2.tolist())
    shapes = [p.shape for p in params]
    return [
        GofReport(w2=w2, a2=a2, shape_used=shape, verdicts=verdicts, interpolated_criticals=criticals)
        for w2, a2, shape, (verdicts, criticals) in zip(w2s, a2s, shapes, _verdict_rows(w2s, a2s, shapes))
    ]


def _gof_block(padded, starts, widths, thresholds, params):
    """W² and A² of the fits on ``padded[starts[r] + 1:] - thresholds[r]``, rows of ``widths`` laid back to back."""
    ends = np.cumsum(widths)
    heads = ends - widths
    at = np.arange(ends[-1])
    y = padded[np.repeat(starts - heads, widths) + at] - np.repeat(thresholds, widths)
    xi, sigma = np.repeat([[p.shape for p in params], [p.scale for p in params]], widths, axis=1)
    z = gpd_cdf_rows(xi, sigma, y)
    # Row r holds padded[starts[r]:] - thresholds[r], its first transform
    # set to the leading zero, so that each fit's kept transforms follow
    # one that is dropped.
    z[heads] = 0.0
    with np.errstate(all="ignore"):
        # Zero transforms (and the leading zero) lead each row; fit r keeps
        # the n = widths[r] - first[r] transforms after its last dropped one.
        first = np.add.reduceat(z == 0.0, heads, dtype=np.intp)
        n = widths - first
        last = heads + first - 1
        i = at - np.repeat(last, widths)  # i = 1..n for the kept transforms
        q = 2.0 * i - 1.0
        w_terms = (z - q / np.repeat(2.0 * n, widths)) ** 2
        clipped = np.clip(z, _Z_CLAMP, 1.0 - _Z_CLAMP)
        log_tail = np.log(1.0 - clipped)
        # log(1 - z) of the kept transforms in reverse order: kept transform
        # i of row r pairs with element ends[r] - i.
        a_terms = q * (np.log(clipped) + log_tail.take(np.repeat(ends, widths) - i, mode="clip"))
    bad = (n == 0) | np.isnan(z[ends - 1])
    if bad.any():
        r = np.argmax(bad)
        if widths[r] == 1:
            raise EmptySample("cannot transform an empty excess sample")
        if n[r] == 0:
            raise EmptySample("all transformed values are zero")
        raise BoundaryValue("A² input contains values at 0 or 1 after clamping")
    # Row r's sum runs from its last dropped term, set to zero, to the row's
    # end: the order np.sum takes over its kept terms alone. Each row's
    # segments are [its head, its last dropped term) and the rest of it.
    w_terms[last] = a_terms[last] = 0.0
    segments = np.stack([heads, last], axis=1).ravel()
    w2 = np.add.reduceat(w_terms, segments)[1::2] + 1.0 / (12.0 * n)
    return w2, -n - np.add.reduceat(a_terms, segments)[1::2] / n


def require_alpha(alpha: float) -> float:
    """Validate that ``alpha`` is one of the tabulated levels."""
    if isinstance(alpha, numbers.Real):
        for level in ALPHA_LEVELS:
            if math.isclose(alpha, level, rel_tol=0.0, abs_tol=1e-12):
                return level
    raise UnknownAlphaLevel(f"alpha must be one of {ALPHA_LEVELS}, got {alpha}")


def table_rows():
    """Iterate the (shape, alpha, w2, a2) rows of the critical-value table, e.g. for CSV export."""
    table = CRITICAL_VALUE_TABLE
    for i, shape in enumerate(table.shapes):
        for j, alpha in enumerate(table.alphas):
            yield shape, alpha, table.w2[i][j], table.a2[i][j]
