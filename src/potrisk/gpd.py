"""Generalized Pareto distribution kernel.

Density support, distribution/quantile functions, seeded inverse-transform
sampling, and maximum-likelihood fitting of (shape, scale) to excesses over
a threshold. The fit maximizes the log-likelihood

    l(xi, sigma) = -n*ln(sigma) - (1/xi + 1) * sum(ln(1 + xi*y_i/sigma))

over the feasible region sigma > 0, sigma + xi*y_i > 0, with the xi = 0
exponential limit handled continuously. The search runs on the profiled
one-dimensional objective over tau = xi/sigma (see _kernels), as Grimshaw
(1993) does: a coarse grid of 61 points brackets the optimum, and a
bracketed Halley solve finds the root of the analytic derivative (the
profile score) in that bracket, each step from one kernel pass that gives
the score and its two derivatives, until a step is at most 2**-23 of its
point or the bracket is within 4 ulps. It bisects a bracket whose ends
have one sign at their geometric mean, starts at the vertex
of the parabola through the grid's least point and its neighbours, and
never evaluates the bracket's ends, apart from the least point of a row
that has one neighbour only, where it starts. The grid ends at
Grimshaw's bound 2*(mean - y_min)/y_min**2 on the score's positive roots,
so no search looks beyond it. The grid is evaluated lazily, where bounds
from bins of the sorted sample cannot rule a point out, with the minimum
and bracket of the full grid. Where the score does not change sign over
the bracket, the fit is the grid's minimum: a boundary hit at the
feasibility edge, unconverged elsewhere.

:func:`fit_samples` fits many samples at once, as the threshold scan
needs: a block's search state lives in arrays over its rows, and one
step of all their solves is a fixed set of numpy calls and one kernel
pass. Each row takes the IEEE operations of its search alone, in the same
order, so it follows exactly its own iterates. A block's fits come out as
columns (:class:`FitColumns`), which the scan reads through
:func:`fit_columns`; :func:`fit_samples` makes a FitResult of each row.
:func:`fit_mle` is the one-sample call of the same code.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import (
    DegenerateSample,
    EmptySample,
    InvalidParams,
    InvalidProbability,
    NoExceedances,
    NonConvergence,
    PotriskError,
    TooFewExceedances,
    ValidationError,
)

__all__ = [
    "DEFAULT_MIN_EXCEEDANCES",
    "ExcessSample",
    "FitColumns",
    "FitResult",
    "GpdParams",
    "fit_columns",
    "fit_mle",
    "fit_samples",
    "gpd_cdf",
    "gpd_cdf_rows",
    "gpd_log_likelihood",
    "gpd_quantile",
    "gpd_sample",
]

DEFAULT_MIN_EXCEEDANCES = 10

# Feasibility margin: the search keeps sigma + xi*max(y) > 1e-10*sigma, and
# an optimum within 1e-6*sigma of that edge is flagged as boundary_hit.
_FEASIBILITY_EPS = 1e-10
_BOUNDARY_MARGIN = 1e-6

_MAX_ITERATIONS = 500

# FitColumns.error: the sample's excesses are all equal, or its optimum has no valid scale.
DEGENERATE, INVALID_SCALE = 1, 2

# A solve stops after a Halley step of at most this share of its point: the
# error left is about C*step**3 relative, C measured up to 50, so about 1e-19.
_STEP_STOP = 2.0**-23


@dataclass(frozen=True)
class GpdParams:
    """Shape (xi) and scale (sigma) of a Generalized Pareto distribution."""

    shape: float
    scale: float

    def __post_init__(self):
        if not math.isfinite(self.shape) or not math.isfinite(self.scale):
            raise InvalidParams(f"non-finite GPD parameters ({self.shape}, {self.scale})")
        if not self.scale > 0.0:
            raise InvalidParams(f"GPD scale must be positive, got {self.scale}")

    @property
    def support_upper(self) -> float:
        """Upper endpoint of the support: -scale/shape for shape < 0, else inf."""
        if self.shape < 0.0:
            return -self.scale / self.shape
        return math.inf


@dataclass(frozen=True)
class ExcessSample:
    """Excesses y_i = x_i - u above a threshold u.

    ``n`` is the size of the parent tail sample the threshold was applied
    to; ``n_u`` the number of exceedances.
    """

    threshold: float
    excesses: np.ndarray
    n: int

    def __post_init__(self):
        exc = np.asarray(self.excesses, dtype=float)
        if exc.ndim != 1 or exc.size == 0:
            raise ValidationError("excesses must be a nonempty 1-d array")
        if not np.all(exc > 0.0) or not np.all(np.isfinite(exc)):
            raise ValidationError("every excess must be finite and > 0")
        if not self.n >= exc.size:
            raise ValidationError(f"n={self.n} smaller than the exceedance count {exc.size}")
        exc = exc.copy()
        exc.setflags(write=False)
        object.__setattr__(self, "excesses", exc)

    @property
    def n_u(self) -> int:
        return int(self.excesses.size)

    @classmethod
    def from_sample(cls, values, threshold: float) -> "ExcessSample":
        """Build the excess sample of ``values`` strictly above ``threshold``."""
        x = np.asarray(values, dtype=float)
        exc = x[x > threshold] - threshold
        if exc.size == 0:
            raise NoExceedances(f"no observations above threshold {threshold}")
        return cls(threshold=float(threshold), excesses=exc, n=int(x.size))


@dataclass(frozen=True)
class FitResult:
    """A maximum-likelihood fit, and the work of its search, which equality ignores.

    The counts: points of the tau grid where the profile NLL was
    evaluated, and evaluations of the profile score in the solve.
    """

    params: GpdParams
    log_likelihood: float
    converged: bool
    boundary_hit: bool
    grid_points: int = field(default=0, compare=False)
    score_evaluations: int = field(default=0, compare=False)


class FitColumns(NamedTuple):
    """Fits of many samples as columns, one row each: each sample's size, and its fit as in FitResult.

    ``error`` is 0 for a fit, else the error :func:`fit_mle` raises for the
    sample: ``DEGENERATE`` or ``INVALID_SCALE``.
    """

    n: np.ndarray
    shape: np.ndarray
    scale: np.ndarray
    converged: np.ndarray
    boundary_hit: np.ndarray
    grid_points: np.ndarray
    score_evaluations: np.ndarray
    error: np.ndarray


def _validate_probability(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if np.any(~np.isfinite(q)) or np.any(q < 0.0) or np.any(q >= 1.0):
        raise InvalidProbability("probabilities must lie in [0, 1)")
    return q


def gpd_cdf(params: GpdParams, y):
    """GPD distribution function G(y) = 1 - (1 + xi*y/sigma)^(-1/xi).

    Continuous in the shape at 0 (exponential limit). Values beyond the
    upper support endpoint of a negative-shape distribution map to 1;
    negative arguments map to 0. The one-row case of :func:`gpd_cdf_rows`.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    flat = y_arr.ravel()
    out = gpd_cdf_rows(np.array([params.shape]), np.array([params.scale]), [flat.size], flat, np.empty(flat.size))
    return float(out[0]) if np.ndim(y) == 0 else out.reshape(y_arr.shape)


def gpd_cdf_rows(shapes: np.ndarray, scales: np.ndarray, widths, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`gpd_cdf` of rows laid back to back in the 1-d ``y``: ``widths[r]`` elements under ``shapes[r]``, ``scales[r]``.

    Writes into ``out``, an array the size of ``y`` other than ``y``, and
    returns it. Each row's tau = shape/scale and its shape-0 test are formed
    once, and are repeated per element only where there are several rows.
    Every step after tau*y runs in place on ``out``, and the masks (tau*y
    not above -1, y negative or nan) are made only where a minimum over
    ``y`` or tau*y says that some element needs them.
    """
    with np.errstate(all="ignore"):  # the shape-0 and out-of-support entries are set afterwards
        z = np.multiply(y, by_row(shapes / scales, widths), out=out)
        outside = None if z.min(initial=math.inf) > -1.0 else ~(z > -1.0)  # a nan minimum is not above -1 either
        np.log1p(z, out=z)
        np.divide(z, by_row(-shapes, widths), out=z)  # bitwise -log1p(t)/xi: a quotient's sign is either operand's
        np.expm1(z, out=z)
        np.negative(z, out=z)
        if outside is not None:
            z[outside] = 1.0
        ends = np.cumsum(widths)
        for r in np.flatnonzero(shapes == 0.0):
            row = slice(ends[r] - widths[r], ends[r])
            z[row] = -np.expm1(-y[row] / scales[r])
    if not y.min(initial=math.inf) >= 0.0:
        z[y < 0.0] = 0.0
        z[np.isnan(y)] = np.nan
    return z


def by_row(values: np.ndarray, widths):
    """Each row's value for each of its ``widths[r]`` elements: the value itself where there is one row."""
    return values[0] if len(values) == 1 else np.repeat(values, widths)


def gpd_quantile(params: GpdParams, q):
    """Inverse of :func:`gpd_cdf` for q in [0, 1)."""
    q_arr = _validate_probability(q)
    scalar = q_arr.ndim == 0
    q_arr = np.atleast_1d(q_arr)
    xi, sigma = params.shape, params.scale
    m, e = math.frexp(sigma)  # sigma/xi and its product are formed in units of 2**e, scaled back once
    # The exponential limit, also where m/xi overflows for a tiny shape.
    if xi == 0.0 or not math.isfinite(m / xi):
        out = -sigma * np.log1p(-q_arr)
    else:
        out = np.ldexp((m / xi) * np.expm1(-xi * np.log1p(-q_arr)), e)
    return float(out[0]) if scalar else out


def gpd_sample(params: GpdParams, count: int, seed: int) -> np.ndarray:
    """Inverse-transform sample of ``count`` draws, deterministic in ``seed``.

    Raises ValidationError, naming the first, where a draw lies beyond the
    double range.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    q = np.random.default_rng(seed).random(count)
    with np.errstate(over="ignore"):  # an overflowing draw is inf, reported next
        draws = gpd_quantile(params, q)
    beyond = np.flatnonzero(~np.isfinite(draws))
    if beyond.size:
        i = beyond[0]
        raise ValidationError(f"draw {i + 1} of {count} (probability {float(q[i])!r}) is beyond the double range")
    return draws


def gpd_log_likelihood(params: GpdParams, excesses) -> float:
    """Log-likelihood of ``excesses`` under ``params`` (-inf when infeasible)."""
    y = np.asarray(excesses, dtype=float)
    if y.size == 0:
        raise EmptySample("the log-likelihood of an empty sample is undefined")
    xi, sigma = params.shape, params.scale
    with np.errstate(over="ignore"):  # an overflowing product or sum is inf
        if xi == 0.0:
            e = math.frexp(sigma)[1]  # in units of 2**e, sum/sigma overflows only where its value does
            return -(y.size * math.log(sigma) + float(np.ldexp(y, -e).sum()) / math.ldexp(sigma, -e))
        t = (xi / sigma) * y
        if np.min(t) <= -1.0:
            return -math.inf
        return -(y.size * math.log(sigma) + (1.0 + 1.0 / xi) * float(np.log1p(t).sum()))


# -- maximum likelihood fit ---------------------------------------------------

# Points per row of the tau grid: tau_min, 9 near the edge, 25 negative, 0
# and 25 positive.
_GRID_POINTS = 1 + 9 + 25 + 1 + 25


def _tau_grids(means: np.ndarray, y_mins: np.ndarray, y_maxs: np.ndarray) -> np.ndarray:
    """Coarse candidate ratios covering both tail regimes, one sorted row per sample.

    Clusters near the feasibility edge tau_min (short-tail optima pile up
    there), around zero (exponential neighborhood), and sweeps positive
    ratios in 25 points two thirds of a decade apart, from 1e-8/mean to
    1e8/mean, up to the top 2*(mean - y_min)/y_min**2, above which the
    profile score has no root (Grimshaw 1993). The top is clipped to
    [1e-8/mean, 1e28/mean], so it is positive where a rounded mean sits
    below y_min and finite where y_min**2 underflows. The sweep's points
    above the top are clamped to it and its last point is the top, so a
    row can repeat a value, which the grid evaluation skips.
    """
    grid = np.empty((means.size, _GRID_POINTS))
    edge = 1.0 - 10.0 ** -np.arange(1.0, 10.0)
    step = max(1, _kernels.BLOCK_ELEMENTS // _GRID_POINTS)  # rows per chunk, so its temporaries stay in cache
    for i in range(0, means.size, step):
        g, mean, y_min = grid[i : i + step], means[i : i + step], y_mins[i : i + step]
        s, tau_min = 1.0 / mean, -(1.0 - _FEASIBILITY_EPS) / y_maxs[i : i + step]
        g[:, 0] = tau_min
        np.multiply(tau_min[:, None], edge, out=g[:, 1:10])
        np.negative(np.geomspace(1e-8 * s, 0.9 * np.abs(tau_min), 25, axis=1), out=g[:, 10:35])
        g[:, 35] = 0.0
        with np.errstate(divide="ignore", over="ignore"):  # a tiny y_min's top is inf, clipped next
            top = 2.0 * (mean - y_min) / (y_min * y_min)
        np.clip(top, 1e-8 * s, 1e28 * s, out=top)
        np.minimum(np.geomspace(1e-8 * s, 1e8 * s, 25, axis=1), top[:, None], out=g[:, 36:])
        g[:, -1] = top
        g.sort(axis=1)
    return grid


def _solve_score(rows, lo, hi, x_best, f_best, l_best, first, live):
    """Root of the profile NLL's derivative (the score) in each ``live`` row's [lo, hi], in lockstep.

    Comparing objective values cannot localize a minimum better than the
    square root of their rounding noise; the score's sign can, down to
    the last bits. The solve keeps a bracket [a, b] with score(a) < 0 <=
    score(b) and takes Halley steps (Traub 1964) from the point it
    evaluated last, with the score's two derivatives from the same kernel
    pass. It bisects where a step leaves the bracket or the curvature (the
    score's derivative) is not positive: at the bracket's geometric mean
    where its ends have one sign, so that a bracket of many decades halves
    its decades, and at its midpoint where it holds 0. Every point stays a
    tolerance inside it. A row starts at ``first``: its grid
    neighbours' parabola vertex, or the bracket's bisection point where
    that is nan or not inside; or ``x_best`` where that is an end of
    [lo, hi], the row having one grid neighbour only. That first
    evaluation decides whether the score has the end's sign (below 0 at
    lo, at least 0 at hi); a row without it has no root. No other end is
    evaluated: it is taken to have its sign, and a row whose bracket
    closes on it has no root.

    A row stops at x + step once the Halley step from x has a positive
    curvature, lands in the bracket and is at most ``_STEP_STOP * |x|`` or
    the tolerance, with its sum a second-order Taylor step from x's (l has
    the derivatives w/x and -s2/x**2), so no pass follows the step. Any
    other row stops when its bracket is within 4 ulps or its score is exactly
    0, unconverged after ``_MAX_ITERATIONS`` steps, its root the evaluated
    end with the smaller score. A root is kept if the NLL its sum gives is within
    slack of ``f_best``. A row without one (the score does not change sign
    over [lo, hi], is not finite inside it, or the NLL is too far) keeps
    ``x_best`` and its sum ``l_best``.

    The state is arrays over all the block's rows, which never move. A row
    that stops, for whatever reason, leaves the mask ``searching``, and its
    results are set then; its state is still stepped with the others', but
    no result is read from it again. A step computes each row's next point
    by the IEEE operations of its search alone, in the same order, and
    evaluates the searching rows' in one pass, the stopped rows' at tau = 0.
    Returns arrays over the rows: the root or ``x_best``, its sum of
    log1p(tau*y), whether a root was kept and converged, and the score
    evaluations.
    """
    tau_hat, l_hat = x_best.copy(), l_best.copy()
    rooted, converged = np.zeros(rows.count, dtype=bool), np.zeros(rows.count, dtype=bool)
    evaluations = np.zeros(rows.count, dtype=np.intp)
    searching = live.copy()
    at_lo, at_hi = first == lo, first == hi
    # The bracket ends a and b as e[0] and e[1], each its tau, score and
    # sum; an end not yet evaluated has the score -inf (a) or inf (b).
    inf, unknown = np.full(rows.count, math.inf), np.full(rows.count, math.nan)
    e = np.array([[lo, -inf, unknown], [hi, inf, unknown]])
    with np.errstate(all="ignore"):  # a stopped row's state can overflow or be nan
        it, x, c, step = 0, first, first, inf  # steps made; the last point, the next and the step between
        while True:
            (a, fa, _), (b, fb, _) = e
            tol = 2.0 * np.spacing(np.maximum(np.abs(a), np.abs(b)))
            inside = (a <= c) & (c <= b)  # c is x, an end, where the step is below half its ulp
            stopped = searching & inside & (np.abs(step) <= np.maximum(_STEP_STOP * np.abs(x), tol))
            capped = it == _MAX_ITERATIONS
            done = searching if capped else searching & (stopped | (fb == 0.0) | (b - a <= 2.0 * tol))
            if done.any():
                root, l = np.where(-fa < fb, e[0, [0, 2]], e[1, [0, 2]])
                if np.any(stopped):  # at x + step, its sum a second-order Taylor step from x's
                    taylor = lx + step * (w / x) - 0.5 * step * step * (s2 / (x * x))
                    root, l = np.where(stopped, (c, taylor), (root, l))
                f = _kernels.profile_nll_from_sum(rows.n, rows.mean, np.where(done, root, math.nan), l)
                closed = capped | stopped | (fb == 0.0) | (np.isfinite(fa) & np.isfinite(fb))  # or both ends evaluated
                ok = done & closed & np.isfinite(f) & (f <= f_best + 1e-6 * (1.0 + np.abs(f_best)))
                tau_hat, l_hat = np.where(ok, (root, l), (tau_hat, l_hat))
                rooted, converged = rooted | ok, converged | (ok & (stopped | (not capped)))
                searching &= ~done
            if not searching.any():
                break
            mid = np.where(a * b > 0.0, np.copysign(np.sqrt(a * b), a), 0.5 * (a + b))
            c = np.minimum(np.maximum(np.where(inside, c, mid), a + tol), b - tol)
            if not it:  # a start at an end is that end
                c = np.where(at_lo | at_hi, first, c)
            x = np.where(searching, c, 0.0)
            h, lx, g2, g3, w, s2 = rows.profile_nll_deriv(x)  # lx, x's sum, kept apart from a root's l
            it += 1
            evaluations += searching
            neg = h < 0.0
            searching &= np.isfinite(h)
            if it == 1:
                searching &= (~at_lo | neg) & (~at_hi | ~neg)
            # x replaces the end on its score's side
            np.copyto(e, np.array([x, h, lx]), where=np.array([neg, ~neg])[:, None])
            step = -2.0 * h * g2 / (2.0 * g2 * g2 - h * g3)
            c = np.where(g2 > 0.0, x + step, math.nan)  # a Halley step needs a positive curvature
    return tau_hat, l_hat, rooted, converged, evaluations


def _search(rows, grids, values, sums) -> FitColumns:
    """Maximum-likelihood fits of the rows of the loaded block ``rows``, as columns.

    ``grids`` holds each row's tau grid, and ``values`` and ``sums`` the
    profile NLL and its sum where the lazy grid evaluated them, nan
    elsewhere, all in row units; the scales are returned in the samples'.
    """
    n, e, mean, y_max = rows.n, rows.e, rows.mean, rows.y_max
    degenerate = y_max == rows.y_min
    # The least value and its nearest finite neighbours, each as x and f
    # (tau and NLL), one row each. Every row has a least value: tau = 0 is
    # on every grid, and its NLL n*(log(mean) + 1) is finite.
    count, width = values.shape
    best, left, right = _kernels.least_and_neighbours(values, np.isfinite(values))
    has = np.array([left >= 0, right < width])
    at = (np.arange(count), np.array([left, best, right % width]))
    x, f, l_best = grids[at], values[at], sums[np.arange(count), best]
    points = np.count_nonzero(~np.isnan(values), axis=1)
    lo, hi = np.where(has[0], x[0], x[1]), np.where(has[1], x[2], x[1])
    # The solve starts at the convex parabola's vertex, or with one neighbour at the least point.
    d1 = (f[1] - f[0]) / (x[1] - x[0])
    curvature = ((f[2] - f[1]) / (x[2] - x[1]) - d1) / (x[2] - x[0])
    vertex = np.where(curvature > 0.0, 0.5 * (x[0] + x[1]) - d1 / (2.0 * curvature), math.nan)
    first = np.where(has[0] & has[1], vertex, x[1])
    tau, l, rooted, converged, evaluations = _solve_score(rows, lo, hi, x[1], f[1], l_best, first, ~degenerate)
    # Without a root, the fit is the grid's least point: unconverged if
    # that is inside or the grid's top, the feasibility edge (a boundary
    # hit) if it is the first.
    converged = np.where(rooted, converged, ~has[0])
    zero = tau == 0.0
    shape = np.where(zero, 0.0, l / n)
    with np.errstate(over="ignore"):  # a scale above the largest double is inf, an invalid scale below
        scale = np.ldexp(np.divide(shape, tau, out=mean.copy(), where=~zero), e)
    boundary = (1.0 + tau * y_max) < _BOUNDARY_MARGIN
    error = np.where(degenerate, DEGENERATE, np.where((scale > 0.0) & np.isfinite(scale), 0, INVALID_SCALE))
    return FitColumns(n, shape, scale, converged, boundary, points, evaluations, error)


def fit_samples(samples):
    """Maximum-likelihood GPD fits of many excess samples, searched together.

    ``samples`` is an iterable of nonempty 1-d arrays of positive, finite
    excesses, each sorted ascending (not checked; :func:`fit_mle` sorts its
    sample, and a threshold scan cuts each one from its tail sorted once).
    It is consumed one block at a time, and the fits are yielded one block
    at a time, so neither all samples nor all results are in memory at
    once. A block takes up to ``8 * (BLOCK_ELEMENTS // _GRID_POINTS)``
    (1,072) consecutive samples, however long, while their rows, each a
    leading zero and its values, fit in the data buffer's 16 *
    ``BLOCK_ELEMENTS`` elements, which binds first on a scan: its
    candidates shrink a point at a time, so a block holds at most about
    510 of them. A longer sample gets a block of its own. Each sample is
    copied into the block as it arrives (see :class:`_kernels.Rows`), and
    each block is searched in lockstep, so the grid rounds and every step
    of the score solve are paid once per block: once per tail of the
    bundled data. Yields one entry per sample, in order: its FitResult, or
    the error :func:`fit_mle` would raise for it, made from its block's
    columns.
    """
    for fits in _fit_blocks(samples):
        for size, xi, sigma, conv, edge, points, evaluations, error in zip(*(c.tolist() for c in fits)):
            if error == DEGENERATE:
                yield DegenerateSample("all excesses are equal; the GPD likelihood diverges")
            elif error == INVALID_SCALE:
                yield NonConvergence(f"optimizer produced an invalid scale {sigma}")
            else:
                # At (shape, scale) = (k, k/tau) the log-likelihood is minus the profile NLL at tau.
                ll = -size * (math.log(sigma) + xi + 1.0)
                yield FitResult(GpdParams(xi, sigma), ll, conv, edge, points, evaluations)


def fit_columns(samples) -> FitColumns:
    """The fits of :func:`fit_samples` as one FitColumns: its blocks' columns, joined."""
    return FitColumns(*map(np.concatenate, zip(*_fit_blocks(samples), _NO_FITS)))


_NO_FITS = FitColumns(*(np.empty(0, dtype=t) for t in (float, float, float, bool, bool, np.intp, np.intp, np.intp)))


def _fit_blocks(samples):
    """The FitColumns of each block of :func:`fit_samples`."""
    rows = _kernels.Rows()
    # The cap bounds a block's arrays of one value per grid point (8 *
    # BLOCK_ELEMENTS elements each); their temporaries are made in chunks
    # of BLOCK_ELEMENTS // _GRID_POINTS rows.
    max_rows = 8 * (_kernels.BLOCK_ELEMENTS // _GRID_POINTS)
    for y in samples:
        y = np.ascontiguousarray(y, dtype=float)
        if rows.count and (rows.count >= max_rows or not rows.has_room(y.size)):
            yield _fit_block(rows)
        rows.add(y)
    if rows.count:
        yield _fit_block(rows)


def _fit_block(rows) -> FitColumns:
    """Fit one block: the tau grids of all rows at once, then the searches in lockstep."""
    rows.load()
    grids = _tau_grids(rows.mean, rows.y_min, rows.y_max)
    fits = _search(rows, grids, *rows.profile_nll_grid(grids))
    rows.clear()
    return fits


def fit_mle(sample: ExcessSample, min_exceedances: int = DEFAULT_MIN_EXCEEDANCES) -> FitResult:
    """Maximum-likelihood GPD fit to an excess sample.

    Raises TooFewExceedances below ``min_exceedances`` points,
    DegenerateSample when all excesses coincide (the likelihood diverges),
    and NonConvergence when no finite optimum exists.
    """
    if sample.n_u < min_exceedances:
        raise TooFewExceedances(
            f"{sample.n_u} exceedances below the minimum fit size {min_exceedances}"
        )
    (result,) = fit_samples([np.sort(sample.excesses)])
    if isinstance(result, PotriskError):
        raise result
    return result
