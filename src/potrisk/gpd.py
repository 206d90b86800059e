"""Generalized Pareto distribution kernel.

Density support, distribution/quantile functions, seeded inverse-transform
sampling, and maximum-likelihood fitting of (shape, scale) to excesses over
a threshold. The fit maximizes the log-likelihood

    l(xi, sigma) = -n*ln(sigma) - (1/xi + 1) * sum(ln(1 + xi*y_i/sigma))

over the feasible region sigma > 0, sigma + xi*y_i > 0, with the xi = 0
exponential limit handled continuously. The search runs on the profiled
one-dimensional objective over tau = xi/sigma (see _kernels), as Grimshaw
(1993) does: a coarse grid brackets the optimum, and a safeguarded
false-position solve finds the root of the analytic derivative (the
profile score) in that bracket to within 4 ulps. The grid is evaluated
lazily, where bounds from bins of the sorted sample cannot rule a point
out, with the minimum and bracket of the full grid. Where the score does
not change sign over the bracket and the grid's minimum is its
feasibility edge, the fit is that edge, a boundary hit.

:func:`fit_samples` fits many samples at once, as the threshold scan
needs: it searches blocks of samples in lockstep, one search coroutine
per sample, and every sample follows exactly the iterates it would follow
alone. :func:`fit_mle` is the one-sample call of the same code.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import (
    DegenerateSample,
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
    "FitResult",
    "GpdParams",
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
    params: GpdParams
    log_likelihood: float
    converged: bool
    boundary_hit: bool


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
    y_arr = np.asarray(y, dtype=float)
    out = gpd_cdf_rows(np.array([params.shape]), np.array([params.scale]), y_arr.reshape(1, -1))
    return float(out[0, 0]) if y_arr.ndim == 0 else out.reshape(y_arr.shape)


def gpd_cdf_rows(xi: np.ndarray, sigma: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`gpd_cdf` of each row of the 2-d ``y`` under shape ``xi[r]`` and scale ``sigma[r]``.

    The steps after the first run in place on the result, so that a call
    holds two arrays the size of ``y``: the result and tau*y.
    """
    with np.errstate(all="ignore"):  # the shape-0 and out-of-support entries are set afterwards
        t = (xi / sigma)[:, None] * y
        z = np.log1p(t)
        np.negative(z, out=z)
        z /= xi[:, None]
        np.expm1(z, out=z)
        np.negative(z, out=z)
        z[~(t > -1.0)] = 1.0
        exponential = xi == 0.0
        if exponential.any():
            z[exponential] = -np.expm1(-y[exponential] / sigma[exponential, None])
    z[y < 0.0] = 0.0
    z[np.isnan(y)] = np.nan
    return z


def gpd_quantile(params: GpdParams, q):
    """Inverse of :func:`gpd_cdf` for q in [0, 1)."""
    q_arr = _validate_probability(q)
    scalar = q_arr.ndim == 0
    q_arr = np.atleast_1d(q_arr)
    xi, sigma = params.shape, params.scale
    # The exponential limit, also where sigma/xi overflows for a tiny shape.
    if xi == 0.0 or not math.isfinite(sigma / xi):
        out = -sigma * np.log1p(-q_arr)
    else:
        out = (sigma / xi) * np.expm1(-xi * np.log1p(-q_arr))
    return float(out[0]) if scalar else out


def gpd_sample(params: GpdParams, count: int, seed: int) -> np.ndarray:
    """Inverse-transform sample of ``count`` draws, deterministic in ``seed``."""
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return gpd_quantile(params, rng.random(count))


def gpd_log_likelihood(params: GpdParams, excesses) -> float:
    """Log-likelihood of ``excesses`` under ``params`` (-inf when infeasible)."""
    y = np.asarray(excesses, dtype=float)
    xi, sigma = params.shape, params.scale
    with np.errstate(over="ignore"):  # an overflowing product or sum is inf
        if xi == 0.0:
            return -(y.size * math.log(sigma) + float(y.sum()) / sigma)
        t = (xi / sigma) * y
        if np.min(t) <= -1.0:
            return -math.inf
        return -(y.size * math.log(sigma) + (1.0 + 1.0 / xi) * float(np.log1p(t).sum()))


# -- maximum likelihood fit ---------------------------------------------------

# Points per row of the tau grid: tau_min, 9 near the edge, 25 negative, 0
# and 49 positive.
_GRID_POINTS = 1 + 9 + 25 + 1 + 49


def _tau_grids(means: np.ndarray, tau_mins: np.ndarray) -> np.ndarray:
    """Coarse candidate ratios covering both tail regimes, one sorted row per sample.

    Clusters near the feasibility edge tau_min (short-tail optima pile up
    there), around zero (exponential neighborhood), and sweeps positive
    ratios over many decades. A row can repeat a value, which the grid
    evaluation skips. A row whose excess sum overflowed (its search stops)
    gets mean 1.
    """
    # A mean below about 1e-300 makes 1e8*s (or s itself) infinite; those
    # points are non-finite and the search drops them.
    with np.errstate(over="ignore", invalid="ignore"):
        s = 1.0 / np.where(np.isfinite(means), means, 1.0)
        near_edge = tau_mins[:, None] * (1.0 - 10.0 ** -np.arange(1.0, 10.0))
        neg_mid = -np.geomspace(1e-8 * s, 0.9 * np.abs(tau_mins), 25, axis=1)
        pos = np.geomspace(1e-8 * s, 1e8 * s, 49, axis=1)
    zero = np.zeros((means.size, 1))
    grid = np.concatenate([tau_mins[:, None], near_edge, neg_mid, zero, pos], axis=1)
    grid.sort(axis=1)
    return grid


def _solve_score(row, a, b, f_best, first=math.nan):
    """Root of the profile NLL derivative (the score) in [a, b] (a coroutine).

    Comparing objective values cannot localize a minimum better than the
    square root of their rounding noise; the score's sign can, down to
    the last bits. Anderson-Bjorck false position keeps score(a) < 0 <=
    score(b). Each step is a secant step between the endpoints (the first
    is ``first`` if that lies inside), held at least half the stopping
    width inside them; an endpoint kept twice in a row has its score
    scaled down so that it cannot stall the bracket, and a bisection is
    forced when three secant steps have not halved the bracket. Stops when
    the bracket is within 4 ulps or the score is exactly 0.

    Returns (root, l, converged), l the row's sum of log1p(root*y) and
    converged False after ``_MAX_ITERATIONS`` steps, if the profile NLL at
    the root is within slack of ``f_best``; None if it is not, or if the
    score does not change sign over [a, b] (a boundary optimum) or is not
    finite inside it. The root is an endpoint whose score was evaluated,
    so its NLL comes from the sum kept with that score.
    """
    deriv = _kernels.profile_nll_deriv
    fa, la = yield from deriv(row, a)
    fb, lb = yield from deriv(row, b)
    if not (fa < 0.0 <= fb < math.inf):
        return None
    ga, gb = fa, fb  # the scores the secant uses, scaled while an endpoint is kept
    newest = 0  # the endpoint the last step replaced: -1 a, +1 b, 0 neither
    width, steps = b - a, 0  # bracket width at the last check, secant steps since
    converged = False
    for _ in range(_MAX_ITERATIONS):
        tol = 2.0 * math.ulp(max(abs(a), abs(b)))
        if fb == 0.0 or b - a <= 2.0 * tol:
            converged = True
            break
        if steps == 3 and b - a > 0.5 * width:
            c = 0.5 * (a + b)
            width, steps = 0.5 * (b - a), 0
        else:
            if steps == 3:
                width, steps = b - a, 0
            c = first if a < first < b else b - gb * ((b - a) / (gb - ga))
            c = b - tol if not c < b - tol else max(c, a + tol)
            first = math.nan
            steps += 1
        fc, lc = yield from deriv(row, c)
        if not math.isfinite(fc):
            return None
        if fc < 0.0:
            if newest < 0:
                m = 1.0 - fc / fa
                gb *= m if m > 0.0 else 0.5
            a, fa, ga, la, newest = c, fc, fc, lc, -1
        else:
            if newest > 0:
                m = 1.0 - fc / fb
                ga *= m if m > 0.0 else 0.5
            b, fb, gb, lb, newest = c, fc, fc, lc, 1
    root, l = (a, la) if -fa < fb else (b, lb)
    f = _kernels.profile_nll_from_sum(row, root, l)
    if math.isfinite(f) and f <= f_best + 1e-6 * (1.0 + abs(f_best)):
        return root, l, converged
    return None


def _vertex(x0, x1, x2, f0, f1, f2) -> float:
    """Minimum of the parabola through (x0, f0), (x1, f1), (x2, f2); nan unless convex."""
    d1 = (f1 - f0) / (x1 - x0)
    curvature = ((f2 - f1) / (x2 - x1) - d1) / (x2 - x0)
    if not curvature > 0.0:
        return math.nan
    return 0.5 * (x0 + x1) - d1 / (2.0 * curvature)


def _search(row, grid, values):
    """Maximum-likelihood fit of one row (a coroutine returning a FitResult).

    ``grid`` holds the row's tau grid points that the lazy grid evaluated
    and ``values`` the profile NLL there.
    """
    if row.y_max == row.y_min:
        raise DegenerateSample("all excesses are equal; the GPD likelihood diverges")
    if not math.isfinite(row.mean):
        raise NonConvergence("the excess sum overflows; rescale the sample")

    nll = _kernels.profile_nll
    finite = np.isfinite(values)
    if not finite.any():
        raise NonConvergence("profile likelihood is non-finite on the whole search grid")
    grid, values = grid[finite], values[finite]

    # Expand to the right while the best candidate sits on the upper edge.
    best = int(np.argmin(values))
    expansions = 0
    while best == grid.size - 1 and expansions < 20:
        nxt = float(grid[-1]) * 10.0
        val = yield from nll(row, nxt)
        if not math.isfinite(val):
            break
        grid = np.append(grid, nxt)
        values = np.append(values, val)
        best = int(np.argmin(values))
        expansions += 1

    lo = float(grid[best - 1] if best > 0 else grid[0])
    hi = float(grid[best + 1] if best < grid.size - 1 else grid[-1])
    tau_hat, converged = float(grid[best]), True
    first = math.nan
    if 0 < best < grid.size - 1:
        first = _vertex(*grid[best - 1 : best + 2].tolist(), *values[best - 1 : best + 2].tolist())
    root = yield from _solve_score(row, lo, hi, float(values[best]), first)
    if root is not None:
        tau_hat, l, converged = root
    else:
        if best > 0:
            # No acceptable root in the bracket, yet its best point is inside.
            converged = False
        # Otherwise the best point is the grid's left end, its feasibility
        # edge, and the fit is that edge: a boundary hit.
        l = 0.0 if tau_hat == 0.0 else (yield _kernels.SUM, tau_hat)

    if tau_hat == 0.0:
        xi_hat = 0.0
        sigma_hat = row.mean
    else:
        xi_hat = l / row.n
        sigma_hat = xi_hat / tau_hat
    if not (sigma_hat > 0.0) or not math.isfinite(sigma_hat):
        raise NonConvergence(f"optimizer produced an invalid scale {sigma_hat}")

    # At (xi_hat, sigma_hat) = (k, k/tau) the log-likelihood is minus the
    # profile NLL at tau_hat, which the sum l gives without another pass.
    return FitResult(
        params=GpdParams(shape=xi_hat, scale=sigma_hat),
        log_likelihood=-_kernels.profile_nll_from_sum(row, tau_hat, l),
        converged=converged,
        boundary_hit=(1.0 + tau_hat * row.y_max) < _BOUNDARY_MARGIN,
    )


def fit_samples(samples):
    """Maximum-likelihood GPD fits of many excess samples, searched together.

    ``samples`` is an iterable of nonempty 1-d arrays of positive, finite
    excesses. It is consumed one block at a time, and the fits are
    yielded one block at a time, so neither all samples nor all results
    are held at once. A block takes up to ``BLOCK_ELEMENTS //
    _GRID_POINTS`` (96) consecutive samples, however long, while their
    zero-padded rows fit in the data buffer's 8 * ``BLOCK_ELEMENTS``
    elements; a longer sample gets a block of its own. Each sample is
    copied into the block as it arrives (see :class:`_kernels.Rows`),
    and each block is searched in lockstep, so the tau grids, the grid
    rounds and every drive step are paid once per block. Yields one entry
    per sample, in order: its FitResult, or the DegenerateSample or
    NonConvergence that :func:`fit_mle` would raise for it.
    """
    rows = _kernels.Rows()
    # The cap keeps a block's tau grids within BLOCK_ELEMENTS elements.
    max_rows = _kernels.BLOCK_ELEMENTS // _GRID_POINTS
    for y in samples:
        y = np.ascontiguousarray(y, dtype=float)
        if rows.count and (rows.count >= max_rows or not rows.has_room(y.size)):
            yield from _fit_block(rows)
        rows.add(y)
    if rows.count:
        yield from _fit_block(rows)


def _fit_block(rows) -> list:
    """Fit one block: the tau grids of all rows at once, then the searches in lockstep."""
    stats = rows.load()
    y_max = np.array([row.y_max for row in stats])
    with np.errstate(over="ignore"):  # -inf for a subnormal maximum
        tau_mins = -(1.0 - _FEASIBILITY_EPS) / y_max
    grids = _tau_grids(np.array([row.mean for row in stats]), tau_mins)
    values = rows.profile_nll_grid(grids)
    evaluated = ~np.isnan(values)
    searches = [
        _search(row, grid[keep], value[keep])
        for row, grid, value, keep in zip(stats, grids, values, evaluated)
    ]
    results = _kernels.drive(rows, searches)
    rows.clear()
    return results


def fit_mle(sample: ExcessSample, min_exceedances: int = DEFAULT_MIN_EXCEEDANCES) -> FitResult:
    """Maximum-likelihood GPD fit to an excess sample.

    Raises TooFewExceedances below ``min_exceedances`` points,
    DegenerateSample when all excesses coincide (the likelihood diverges),
    and NonConvergence when no finite optimum exists or the excess sum
    overflows.
    """
    if sample.n_u < min_exceedances:
        raise TooFewExceedances(
            f"{sample.n_u} exceedances below the minimum fit size {min_exceedances}"
        )
    (result,) = fit_samples([sample.excesses])
    if isinstance(result, PotriskError):
        raise result
    return result
