"""Goodness-of-fit testing for fitted GPD tails.

Cramér–von Mises W² and Anderson–Darling A² on probability-transformed
excesses, judged against a critical-value table indexed by the fitted
shape (rows 0.0–0.3) and significance level. The table is built for
estimated parameters and covers nonnegative shapes only: fits with a
negative shape, or one above 0.3, yield not_applicable verdicts.

A fit's verdicts at the seven levels are one code. Every row of the table
rises as the level falls, and interpolating between two rows keeps that,
so a fit accepted at a level is accepted at every smaller one: code k
(0 to 7) accepts at the k smallest levels and rejects at the rest, and
``NOT_COVERED`` marks a shape outside the table. ``VERDICTS[code]`` are
its verdicts, in the order of ``ALPHA_LEVELS``.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import BoundaryValue, EmptySample, UnknownAlphaLevel
from .gpd import GpdParams, by_row, gpd_cdf, gpd_cdf_rows

__all__ = [
    "ALPHA_LEVELS",
    "CRITICAL_VALUE_TABLE",
    "CriticalValueTable",
    "GofReport",
    "NOT_COVERED",
    "VERDICTS",
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

_LEVELS = len(ALPHA_LEVELS)
NOT_COVERED = _LEVELS + 1
VERDICTS = tuple((REJECT,) * (_LEVELS - k) + (ACCEPT,) * k for k in range(_LEVELS + 1)) + ((NOT_APPLICABLE,) * _LEVELS,)

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
    """A fit's W², A² and verdict code; its verdicts and criticals follow from the code and ``shape_used``."""

    w2: float
    a2: float
    shape_used: float
    code: int

    @property
    def verdicts(self) -> dict[float, str]:
        return dict(zip(ALPHA_LEVELS, VERDICTS[self.code]))

    @property
    def interpolated_criticals(self) -> dict[float, tuple[float, float]]:
        return interpolate_criticals(self.shape_used)

    @property
    def applicable(self) -> bool:
        return self.code != NOT_COVERED

    def accepted_alphas(self) -> tuple[float, ...]:
        return tuple(a for a, v in zip(ALPHA_LEVELS, VERDICTS[self.code]) if v == ACCEPT)


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
    codes, w2c, a2c = _verdict_rows([0.0], [0.0], [shape])
    return {} if codes[0] == NOT_COVERED else dict(zip(ALPHA_LEVELS, zip(w2c[0].tolist(), a2c[0].tolist())))


def verdicts_for(w2: float, a2: float, shape: float) -> tuple[dict[float, str], dict[float, tuple[float, float]]]:
    """Per-alpha verdicts for given statistics at a fitted shape.

    Accept at a level when neither statistic exceeds its interpolated
    critical value; not_applicable at every level outside table coverage.
    """
    report = GofReport(w2, a2, shape, int(_verdict_rows([w2], [a2], [shape])[0][0]))
    return report.verdicts, report.interpolated_criticals


def _verdict_rows(w2, a2, shapes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The verdict code of each (w2[r], a2[r], shapes[r]), and each row's criticals of W² and A² at the 7 levels.

    The criticals of all rows are interpolated at once. Row r interpolates
    between the first table row at or above its shape and the row before
    it (the same row at the first shape), with the same operations, so the
    criticals are bitwise those of one shape. A row's code is the number of
    levels that accept it, which are its smallest ones.
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
    return np.where(covered, np.count_nonzero(accept, axis=1), NOT_COVERED), w2c, a2c


def test_gpd_fit(excesses, params: GpdParams) -> GofReport:
    """W²/A² report for a fitted GPD on its excess sample.

    Zero-valued transforms are dropped before both statistics. The
    one-sample case of :func:`gof_reports`.
    """
    y = np.sort(np.atleast_1d(np.asarray(excesses, dtype=float)))
    w2, a2, code = (c.item() for c in gof_reports(y, np.zeros(1, dtype=np.intp), [0.0], [params.shape], [params.scale]))
    return GofReport(w2, a2, params.shape, code)


def gof_reports(xs, starts, thresholds, shapes, scales) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W², A² and verdict codes of many fits whose excess samples are suffixes of one sorted sample.

    ``xs`` is sorted ascending, and fit r (``shapes[r]``, ``scales[r]``) was
    made on the excesses ``xs[starts[r]:] - thresholds[r]``, which are sorted
    too. The transforms of sorted excesses come out sorted, since the CDF is
    monotone, and so are the rounded steps that compute it (a product,
    log1p, a quotient and expm1). Each fit is a row of one leading zero
    followed by its excesses, and the rows are laid back to back in chunks
    of at most ``4 * BLOCK_ELEMENTS`` elements, or one longer row, as a
    kernel pass's (:func:`~potrisk._kernels.chunks`). Every chunk runs
    through three scratch buffers of the largest chunk's size and a table
    of the terms' weights 2i - 1, made once per call, and each of its steps
    writes in place (:func:`_gof_block`). A chunk computes its transforms,
    clipping and logs as one 1-d array, and sums each statistic's terms of
    all its rows in one np.add.reduceat, every row's sum starting at a zero
    before its kept terms, which is the order np.sum takes over those terms.
    So each W² and A² is bitwise the one that :func:`cramer_von_mises` and
    :func:`anderson_darling` give on the sorted, nonzero transforms. The
    verdicts of all fits are then coded at once. Raises, for the first fit
    that has them, the errors those would.

    On the calls of one seed-1 perfbench task, alternated in one process
    with the pass that made about a dozen fresh arrays per chunk of
    ``BLOCK_ELEMENTS``, this pass took 0.47-0.65, 0.29-0.53 and 0.23-0.52
    of its time on paper_analyze, tail_scan and long_history (three runs of
    30 alternations, 2-vCPU VM; the other pass's time moved with the heap's
    state), and 0.77, 0.41 and 0.40 of it within whole tasks, where each
    call's buffers take fresh pages.
    """
    padded = np.concatenate([[0.0], np.asarray(xs, dtype=float)])  # padded[starts[r]] precedes row r's excesses
    starts = np.asarray(starts, dtype=np.intp)
    thresholds, shapes, scales = (np.asarray(c, dtype=float) for c in (thresholds, shapes, scales))
    widths = padded.size - starts
    runs = _kernels.chunks(widths.tolist(), 4 * _kernels.BLOCK_ELEMENTS)
    size = max((int(widths[a:b].sum()) for a, b in runs), default=0)
    scratch = tuple(np.empty(size + 1) for _ in range(3))
    weights = 2.0 * np.arange(size) - 1.0  # 2p - 1 at place p, exact
    w2, a2 = np.empty(starts.size), np.empty(starts.size)
    with np.errstate(all="ignore"):
        for a, b in runs:
            rows = slice(a, b)
            w2[rows], a2[rows] = _gof_block(padded, starts[rows], widths[rows], thresholds[rows], shapes[rows],
                                            scales[rows], scratch, weights)
    return w2, a2, _verdict_rows(w2, a2, shapes)[0]


def _gof_block(padded, starts, widths, thresholds, shapes, scales, scratch, weights):
    """W² and A² of the fits on ``padded[starts[r] + 1:] - thresholds[r]``, rows of ``widths`` laid back to back.

    Every step writes into the three ``scratch`` buffers; the only other
    arrays of a chunk's size are the repeats of the rows' values
    (:func:`~potrisk.gpd.by_row`) where the chunk has several rows. Rows are
    gathered and reversed by concatenating views, one per row, so that no
    index array is made. A row's kept transforms are those after
    its last zero one. Where a row has zero transforms besides its leading
    one, the chunk is compacted so that each row is its last zero followed
    by its kept transforms, as it always is otherwise. The clip to [1e-12,
    1 - 1e-12] runs only where a row's first or last kept transform lies
    near or beyond it (the transforms are sorted; the margin covers a few
    ulps of disorder).
    """
    free, z_buf, weight_buf = scratch
    ends = np.cumsum(widths)
    heads = ends - widths
    size = int(ends[-1])
    y, z = free[:size], z_buf[:size]
    np.concatenate([padded[s:] for s in starts.tolist()], out=y)
    y -= by_row(thresholds, widths)
    y[heads] = 0.0  # the leading zero's transform is set to zero below, whatever its excess
    gpd_cdf_rows(shapes, scales, widths, y, z)
    z[heads] = 0.0
    # Zero transforms lead a row, so a row has more than its leading one
    # where its next transform is zero, or where it has no next one.
    compact = not z.take(heads + 1, mode="clip").all()
    n = widths - (np.add.reduceat(z == 0.0, heads, dtype=np.intp) if compact else 1)
    tops = z[ends - 1]
    bad = (n == 0) | np.isnan(tops)
    if bad.any():
        r = np.argmax(bad)
        if widths[r] == 1:
            raise EmptySample("cannot transform an empty excess sample")
        if n[r] == 0:
            raise EmptySample("all transformed values are zero")
        raise BoundaryValue("A² input contains values at 0 or 1 after clamping")
    if compact:  # each row from its last zero transform on
        size = int(n.sum()) + n.size
        np.concatenate([z[e - m - 1 : e] for e, m in zip(ends.tolist(), n.tolist())], out=free[:size])
        free, z_buf = z_buf, free
        z = z_buf[:size]
        widths = n + 1
        ends = np.cumsum(widths)
        heads = ends - widths
    # Row r is its zero at heads[r] followed by its n[r] kept transforms, of
    # ranks i = 1..n, weighted 2i - 1. Each sum runs from the row's zero term,
    # set to zero, to the row's end: the order np.sum takes over its kept
    # terms alone.
    weight = np.subtract(weights[:size], by_row(2.0 * heads, widths), out=weight_buf[:size])
    terms = np.divide(weight, by_row(2.0 * n, widths), out=free[:size])
    np.subtract(z, terms, out=terms)
    np.square(terms, out=terms)
    terms[heads] = 0.0
    w2 = np.add.reduceat(terms, heads) + 1.0 / (12.0 * n)
    if z[heads + 1].min() < 2.0 * _Z_CLAMP or tops.max() > 1.0 - 2.0 * _Z_CLAMP:
        np.clip(z, _Z_CLAMP, 1.0 - _Z_CLAMP, out=z)
    # z[heads + i] pairs in A² with z[ends - i]: each row reversed, one place
    # to the right.
    backwards = z[::-1]
    np.concatenate([backwards[a:b] for a, b in zip((size - ends).tolist(), (size - heads).tolist())],
                   out=free[1 : size + 1])
    terms = np.subtract(1.0, free[:size], out=free[:size])
    np.log(terms, out=terms)
    np.log(z, out=z)
    terms += z
    terms *= weight
    terms[heads] = 0.0
    return w2, -n - np.add.reduceat(terms, heads) / n


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
