"""The scalar profile-likelihood fit that the lockstep search replaced.

Kept verbatim as the test oracle: the kernels evaluate one sample at one
tau, and ``fit_mle`` searches one sample at a time (tau grid, golden
section, then bisection on the derivative). ``scan`` is the threshold
scan's per-candidate loop over it. The batched search evaluates the grid
lazily (with the same minimum and bracket) and solves for the
derivative's root from the grid bracket instead, so it does not follow
these iterates; its fits agree with these to a relative 1e-9 in shape
and scale, with the same flags and scan diagnostics.
"""

import math

import numpy as np

from potrisk.errors import DegenerateSample, NonConvergence, TooFewExceedances
from potrisk.excess import candidate_thresholds
from potrisk.gof import test_gpd_fit
from potrisk.gpd import (
    DEFAULT_MIN_EXCEEDANCES,
    ExcessSample,
    FitResult,
    GpdParams,
    _BOUNDARY_MARGIN,
    _FEASIBILITY_EPS,
    _MAX_ITERATIONS,
)
from potrisk.risk import HEAVY_TAIL, RiskEstimate, ScanDiagnostics, _sign_matches, expected_shortfall, value_at_risk

_LOGLIK_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def profile_nll_numpy(y: np.ndarray, tau: float) -> float:
    n = y.shape[0]
    if tau == 0.0:
        return n * (math.log(y.mean()) + 1.0)
    t = tau * y
    if np.min(t) <= -1.0:
        return math.inf
    k = np.log1p(t).mean()
    r = k / tau
    if not (r > 0.0) or not math.isfinite(r):
        return math.inf
    return n * (math.log(r) + k + 1.0)


def profile_nll_grid_numpy(y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    out = np.empty(taus.shape[0])
    for j in range(taus.shape[0]):
        out[j] = profile_nll_numpy(y, taus[j])
    return out


def profile_nll_deriv_numpy(y: np.ndarray, tau: float) -> float:
    """Derivative of the negative profile log-likelihood in tau.

    Equal to n * (k'/k - 1/tau + k'). The first two terms cancel
    catastrophically near tau = 0, so they are evaluated as
    (tau*k' - k) / (tau*k) with the numerator accumulated per element.
    Each term t/(1+t) - log1p(t) is O(t^2) but is formed as the difference
    of two rounded O(t) values, so it loses about log10(1/|t|) digits near
    tau = 0, as the kernel's does. Returns nan when tau is infeasible.
    """
    n = y.shape[0]
    if tau == 0.0:
        m1 = y.mean()
        m2 = float(np.mean(y * y))
        return n * (m1 - m2 / (2.0 * m1))
    t = tau * y
    if np.min(t) <= -1.0:
        return math.nan
    l = np.log1p(t)
    w = t / (1.0 + t)
    k = l.mean()
    kp = w.mean() / tau
    g = float(np.mean(w - l)) / (tau * k)
    return n * (g + kp)


def gpd_nll_numpy(y: np.ndarray, xi: float, sigma: float) -> float:
    """Negative GPD log-likelihood at (xi, sigma), +inf when infeasible."""
    n = y.shape[0]
    if not (sigma > 0.0):
        return math.inf
    if xi == 0.0:
        return n * math.log(sigma) + float(y.sum()) / sigma
    t = (xi / sigma) * y
    if np.min(t) <= -1.0:
        return math.inf
    return n * math.log(sigma) + (1.0 + 1.0 / xi) * float(np.log1p(t).sum())


profile_nll = profile_nll_numpy
profile_nll_grid = profile_nll_grid_numpy
profile_nll_deriv = profile_nll_deriv_numpy
gpd_nll = gpd_nll_numpy


def gpd_log_likelihood(params: GpdParams, excesses) -> float:
    y = np.ascontiguousarray(excesses, dtype=float)
    return -gpd_nll(y, params.shape, params.scale)


def _tau_grid(y: np.ndarray, tau_min: float) -> np.ndarray:
    """Coarse candidate ratios covering both tail regimes.

    Clusters near the feasibility edge tau_min (short-tail optima pile up
    there), around zero (exponential neighborhood), and sweeps positive
    ratios over many decades.
    """
    s = 1.0 / y.mean()
    near_edge = tau_min * (1.0 - 10.0 ** -np.arange(1.0, 10.0))
    neg_mid = -np.geomspace(1e-8 * s, 0.9 * abs(tau_min), 25)
    pos = np.geomspace(1e-8 * s, 1e8 * s, 49)
    grid = np.concatenate([[tau_min], near_edge, neg_mid, [0.0], pos])
    return np.unique(grid)


def _golden_section(y, a, b, x0, f0, max_iterations, loglik_tol):
    """Golden-section minimize the profile NLL on [a, b].

    (x0, f0) is the best already-evaluated point inside the bracket.
    Stops once an iteration improves the objective by less than
    ``loglik_tol`` (or the bracket collapses). Returns the best point, its
    value, the final bracket, and whether a stopping criterion was met
    before the iteration cap.
    """
    nll = profile_nll
    wtol = 1e-12 * max(abs(a), abs(b))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = nll(y, c)
    fd = nll(y, d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    if f0 < best_f:
        best_x, best_f = x0, f0
    converged = False
    for _ in range(max_iterations):
        if (b - a) <= wtol:
            converged = True
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = nll(y, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = nll(y, d)
        f_new, x_new = (fc, c) if fc <= fd else (fd, d)
        if f_new < best_f:
            improvement = best_f - f_new
            best_x, best_f = x_new, f_new
            if improvement < loglik_tol:
                converged = True
                break
    return best_x, best_f, a, b, converged


def _bisect_deriv(y, a, b):
    """Zero of the profile NLL derivative inside [a, b], by bisection.

    Polishes the golden-section result to machine precision: comparing
    objective values cannot localize a minimum better than the square
    root of the evaluation noise, which leaves the score visibly nonzero.
    Returns None when the derivative does not change sign over the
    bracket (boundary optimum).
    """
    deriv = profile_nll_deriv
    da = deriv(y, a)
    db = deriv(y, b)
    if not (math.isfinite(da) and math.isfinite(db)) or not (da < 0.0 < db):
        return None
    for _ in range(200):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        dm = deriv(y, m)
        if not math.isfinite(dm):
            return None
        if dm < 0.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def fit_mle(
    sample: ExcessSample,
    min_exceedances: int = DEFAULT_MIN_EXCEEDANCES,
    loglik_tol: float = _LOGLIK_TOL,
    max_iterations: int = _MAX_ITERATIONS,
) -> FitResult:
    """Maximum-likelihood GPD fit to an excess sample.

    Raises TooFewExceedances below ``min_exceedances`` points,
    DegenerateSample when all excesses coincide (the likelihood diverges),
    and NonConvergence when no finite optimum exists.
    """
    y = np.ascontiguousarray(sample.excesses, dtype=float)
    n_u = y.size
    if n_u < min_exceedances:
        raise TooFewExceedances(
            f"{n_u} exceedances below the minimum fit size {min_exceedances}"
        )
    y_max = float(y.max())
    if y_max == float(y.min()):
        raise DegenerateSample("all excesses are equal; the GPD likelihood diverges")

    tau_min = -(1.0 - _FEASIBILITY_EPS) / y_max
    grid = _tau_grid(y, tau_min)
    values = profile_nll_grid(y, grid)
    finite = np.isfinite(values)
    if not finite.any():
        raise NonConvergence("profile likelihood is non-finite on the whole search grid")
    grid, values = grid[finite], values[finite]

    # Expand to the right while the best candidate sits on the upper edge.
    best = int(np.argmin(values))
    expansions = 0
    while best == grid.size - 1 and expansions < 20:
        nxt = grid[-1] * 10.0
        val = profile_nll(y, nxt)
        if not math.isfinite(val):
            break
        grid = np.append(grid, nxt)
        values = np.append(values, val)
        best = int(np.argmin(values))
        expansions += 1

    lo = grid[best - 1] if best > 0 else grid[0]
    hi = grid[best + 1] if best < grid.size - 1 else grid[-1]
    tau_hat, nll_hat, g_lo, g_hi, converged = _golden_section(
        y, lo, hi, grid[best], values[best], max_iterations, loglik_tol
    )
    if not math.isfinite(nll_hat):
        raise NonConvergence("golden-section search returned a non-finite objective")

    polished = _bisect_deriv(y, g_lo, g_hi)
    if polished is None and (g_lo > lo or g_hi < hi):
        polished = _bisect_deriv(y, lo, hi)
    if polished is not None:
        nll_pol = profile_nll(y, polished)
        if math.isfinite(nll_pol) and nll_pol <= nll_hat + 1e-6 * (1.0 + abs(nll_hat)):
            tau_hat, nll_hat = polished, nll_pol

    if tau_hat == 0.0:
        xi_hat = 0.0
        sigma_hat = float(y.mean())
    else:
        xi_hat = float(np.log1p(tau_hat * y).mean())
        sigma_hat = xi_hat / tau_hat
    if not (sigma_hat > 0.0) or not math.isfinite(sigma_hat):
        raise NonConvergence(f"optimizer produced an invalid scale {sigma_hat}")

    params = GpdParams(shape=xi_hat, scale=sigma_hat)
    boundary_hit = (1.0 + tau_hat * y_max) < _BOUNDARY_MARGIN
    return FitResult(
        params=params,
        log_likelihood=gpd_log_likelihood(params, y),
        converged=converged,
        boundary_hit=boundary_hit,
    )


def scan(tail, p=0.01, regime=HEAVY_TAIL, min_exceedances=DEFAULT_MIN_EXCEEDANCES):
    """The scan's loop over candidates; returns (estimates, diagnostics, fits).

    ``fits`` holds each candidate's FitResult, or the error its fit raised.
    """
    x = np.asarray(tail, dtype=float)
    candidates = candidate_thresholds(x, min_exceedances)
    estimates = []
    fit_errors = 0
    not_converged = 0
    boundary_hits = 0
    wrong_sign = 0
    fits = []
    for u in candidates:
        sample = ExcessSample.from_sample(x, u)
        try:
            fit = fit_mle(sample, min_exceedances=min_exceedances)
        except (NonConvergence, DegenerateSample) as exc:
            fits.append(exc)
            fit_errors += 1
            continue
        fits.append(fit)
        if not fit.converged:
            not_converged += 1
            continue
        if fit.boundary_hit:
            boundary_hits += 1
            continue
        xi = fit.params.shape
        if not _sign_matches(xi, regime):
            wrong_sign += 1
            continue
        var = value_at_risk(float(u), fit.params, sample.n, sample.n_u, p)
        es = None if xi >= 1.0 else expected_shortfall(var, float(u), fit.params)
        gof = test_gpd_fit(sample.excesses, fit.params) if regime == HEAVY_TAIL else None
        estimates.append(
            RiskEstimate(
                u=float(u), params=fit.params, n=sample.n, n_u=sample.n_u,
                p=p, var=var, es=es, gof=gof,
            )
        )
    diagnostics = ScanDiagnostics(
        candidates_total=int(candidates.size),
        fit_errors=fit_errors,
        not_converged=not_converged,
        boundary_hits=boundary_hits,
        wrong_sign=wrong_sign,
        surviving=len(estimates),
    )
    return estimates, diagnostics, fits
