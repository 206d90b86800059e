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
    log1p, a quotient and expm1). Fits are taken in blocks of
    consecutive rows: each block computes its transforms, clipping and
    logs as one 2-d array, one row per fit, right-aligned, with the
    statistics' reductions made per row by np.sum over contiguous slices.
    So each report is bitwise the one that :func:`cramer_von_mises` and
    :func:`anderson_darling` give on the sorted, nonzero transforms. The
    criticals and verdicts of all fits are then interpolated at once.
    Raises, for the first fit that has them, the errors those would.
    """
    xs = np.asarray(xs, dtype=float)
    starts = np.asarray(starts, dtype=np.intp)
    thresholds = np.asarray(thresholds, dtype=float)
    w2s, a2s, r = [], [], 0
    while r < len(params):
        # A block takes rows no longer than its first and at least half as
        # long, within BLOCK_ELEMENTS elements, so that its padding stays
        # below half of it.
        width = xs.size - starts[r]
        end = r + 1
        while (
            end < len(params)
            and (end + 1 - r) * width <= _kernels.BLOCK_ELEMENTS
            and width >= xs.size - starts[end] >= width / 2
        ):
            end += 1
        _gof_block(xs[starts[r] :], starts[r:end] - starts[r], thresholds[r:end], params[r:end], w2s, a2s)
        r = end
    shapes = [p.shape for p in params]
    return [
        GofReport(w2=w2, a2=a2, shape_used=shape, verdicts=verdicts, interpolated_criticals=criticals)
        for w2, a2, shape, (verdicts, criticals) in zip(w2s, a2s, shapes, _verdict_rows(w2s, a2s, shapes))
    ]


def _gof_block(tail, offsets, thresholds, params, w2s, a2s) -> None:
    """Append to ``w2s`` and ``a2s`` the statistics of the fits on ``tail[offsets[r]:] - thresholds[r]``.

    The offsets are ascending.
    """
    width = tail.size
    col = np.arange(width)
    xi = np.array([p.shape for p in params])
    sigma = np.array([p.scale for p in params])
    z = gpd_cdf_rows(xi, sigma, tail - thresholds[:, None])
    # a row whose transforms are all zero has n = 0 and raises below
    with np.errstate(all="ignore"):
        z[col < offsets[:, None]] = 0.0
        # Zero transforms (and the padding) lead each row; fit r keeps the
        # n = width - first[r] transforms from first[r] on.
        first = np.count_nonzero(z == 0.0, axis=1)
        n = width - first
        q = 2.0 * (col - first[:, None] + 1) - 1.0  # 2i - 1 for the kept transform i = 1..n
        w_terms = (z - q / (2.0 * n)[:, None]) ** 2
        clipped = np.clip(z, _Z_CLAMP, 1.0 - _Z_CLAMP)
        log_tail = np.log(1.0 - clipped)
        # log(1 - z) of the kept transforms in reverse order: kept column c
        # pairs with first + width - 1 - c.
        reverse = np.minimum((first + (width - 1))[:, None] - col, width - 1)
        a_terms = q * (np.log(clipped) + np.take_along_axis(log_tail, reverse, axis=1))
    for r in range(len(params)):
        a, count = int(first[r]), int(n[r])
        if offsets[r] == width:
            raise EmptySample("cannot transform an empty excess sample")
        if count == 0:
            raise EmptySample("all transformed values are zero")
        w2s.append(float(np.sum(w_terms[r, a:]) + 1.0 / (12.0 * count)))
        if np.isnan(z[r, -1]):
            raise BoundaryValue("A² input contains values at 0 or 1 after clamping")
        a2s.append(float(-count - np.sum(a_terms[r, a:]) / count))


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
