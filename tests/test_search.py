"""Properties of the maximum-likelihood search, and how many evaluations it makes.

The search evaluates the tau grid lazily (``_kernels.Rows.profile_nll_grid``)
and solves for the root of the profile score from the grid's bracket
(``gpd._solve_score``). Hypothesis draws heavy, short and tied tails and
checks the lazy grid against the full grid, its bounds against the values
they bound, and every candidate fit of a scan against the quantities the
search is meant to optimize; deterministic tests on the bundled data
count the grid points and score evaluations per fit.
"""

import math
import re
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potrisk import _kernels, bundled_data_path, gpd
from potrisk.errors import NoSurvivingCandidates
from potrisk.excess import candidate_thresholds
from potrisk.gpd import ExcessSample, GpdParams, fit_mle, fit_samples, gpd_sample
from potrisk.report import AnalysisConfig
from potrisk.risk import HEAVY_TAIL, SHORT_TAIL, scan_thresholds
from potrisk.series import compute_returns, read_earnings_csv, split_by_period, split_by_sign

import scalar_oracle


@st.composite
def _tails(draw, shapes, tied=False):
    params = GpdParams(draw(shapes), 1.0)
    x = gpd_sample(params, draw(st.integers(12, 300)), draw(st.integers(0, 2**32 - 1)))
    return np.round(x, 1) + 0.05 if tied else x


_FAMILIES = {
    "heavy": (_tails(st.floats(0.05, 0.9)), HEAVY_TAIL),
    "short": (_tails(st.floats(-0.9, -0.05)), SHORT_TAIL),
    "tied": (_tails(st.floats(-0.4, 0.6), tied=True), HEAVY_TAIL),
}


def _candidate_fits(tail, min_exceedances):
    samples = [tail[tail > u] - u for u in candidate_thresholds(tail, min_exceedances)]
    return zip(samples, fit_samples(samples))


def _score(y, tau):
    """The profile NLL's derivative at tau, and the size of the two terms that cancel in it."""
    t = tau * y
    log_terms = np.log1p(t)
    ratio_terms = t / (1.0 + t)
    k = log_terms.mean()
    kp = ratio_terms.mean() / tau
    g = np.mean(ratio_terms - log_terms) / (tau * k)
    return y.size * (g + kp), y.size * (abs(g) + abs(kp))


def _grids(samples):
    """The tau grid of each sample, one row per sample."""
    tau_mins = -(1.0 - gpd._FEASIBILITY_EPS) / np.array([y.max() for y in samples])
    return gpd._tau_grids(np.array([y.mean() for y in samples]), tau_mins)


def _grid_nll(y):
    """Profile NLL at every point of the sample's tau grid."""
    return scalar_oracle.profile_nll_grid_numpy(y, _grids([y])[0])


def _minimum_and_neighbours(grid, values):
    """The tau of the least finite value and of its nearest finite neighbours (None at an end)."""
    finite = np.isfinite(values)
    grid, values = grid[finite], values[finite]
    best = int(np.argmin(values))
    left = grid[best - 1] if best > 0 else None
    right = grid[best + 1] if best < grid.size - 1 else None
    return grid[best], left, right


_BLOCK_FAMILIES = {name: strategy for name, (strategy, _) in _FAMILIES.items()} | {
    "3-point": st.builds(
        lambda xi, seed: gpd_sample(GpdParams(xi, 1.0), 3, seed),
        st.floats(-0.9, 0.9), st.integers(0, 2**32 - 1),
    ),
}


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(_BLOCK_FAMILIES)), data=st.data())
def test_the_lazy_grid_finds_the_full_grids_minimum_and_neighbours(family, data):
    samples = data.draw(st.lists(_BLOCK_FAMILIES[family], min_size=1, max_size=4))
    rows = _kernels.Rows()
    for y in samples:
        rows.add(y)
    rows.load()
    grids = _grids(samples)
    lazy = rows.profile_nll_grid(grids)
    for y, grid, values in zip(samples, grids, lazy):
        first = np.ones(grid.size, dtype=bool)
        first[1:] = grid[1:] != grid[:-1]
        full = scalar_oracle.profile_nll_grid_numpy(y, grid)
        evaluated = ~np.isnan(values)
        assert not (evaluated & ~first).any()  # repeats are not evaluated
        assert values[evaluated].tolist() == full[evaluated].tolist()
        assert _minimum_and_neighbours(grid[evaluated], values[evaluated]) == (
            _minimum_and_neighbours(grid[first], full[first])
        )


def test_the_lazy_grid_does_not_depend_on_its_first_guess(monkeypatch):
    bounds = _kernels._bounds

    def worst_first(taus, bins, n):
        k_lo, k_hi, floor, guess = bounds(taus, bins, n)
        return k_lo, k_hi, floor, -guess  # the first round takes the worst estimate

    monkeypatch.setattr(_kernels, "_bounds", worst_first)
    # The profiles of the last two have two local minima, the grid's edge
    # and an interior point; a walk from a poor first guess stops at one.
    cases = ((0.4, 200, 7), (-1.0, 30, 8), (-1.0, 100, 8))
    samples = [gpd_sample(GpdParams(xi, 1.0), n, seed) for xi, n, seed in cases]
    rows = _kernels.Rows()
    for y in samples:
        rows.add(y)
    rows.load()
    grids = _grids(samples)
    for y, grid, values in zip(samples, grids, rows.profile_nll_grid(grids)):
        evaluated = ~np.isnan(values)
        first = np.unique(grid, return_index=True)[1]
        full = scalar_oracle.profile_nll_grid_numpy(y, grid[first])
        lazy = _minimum_and_neighbours(grid[evaluated], values[evaluated])
        assert lazy == _minimum_and_neighbours(grid[first], full)


def _check_bounds(samples):
    """In one block, the bounds on k hold at every non-zero grid point, and the floor lies under the value."""
    rows = _kernels.Rows()
    for y in samples:
        rows.add(y)
    rows.load()
    grids = _grids(samples)
    n = np.array([[float(y.size)] for y in samples])
    with np.errstate(all="ignore"):
        k_lo, k_hi, floor, _ = _kernels._bounds(grids, rows._order_bins(), n)
    for i, (y, grid) in enumerate(zip(samples, grids)):
        with np.errstate(invalid="ignore"):  # an infinite grid point (mean below ~1e-300) makes k/tau inf/inf
            values = scalar_oracle.profile_nll_grid_numpy(y, grid)
        for j, tau in enumerate(grid):
            with np.errstate(over="ignore"):
                k = math.fsum(np.log1p(tau * y).tolist()) / y.size
            if tau == 0.0 or not math.isfinite(k):
                continue  # tau = 0 is evaluated directly; an overflowing tau has no finite value
            assert k_lo[i, j] <= k <= k_hi[i, j], (y.size, tau, k_lo[i, j], k, k_hi[i, j])
            if math.isfinite(values[j]):
                assert not floor[i, j] > values[j], (y.size, tau, floor[i, j], values[j])


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(_BLOCK_FAMILIES)),
    c=st.sampled_from([1e-300, 1e-100, 1.0, 1e100, 1e300]),
    data=st.data(),
)
def test_the_bin_bounds_hold_at_every_grid_point(family, c, data):
    samples = [y * c for y in data.draw(st.lists(_BLOCK_FAMILIES[family], min_size=1, max_size=4))]
    if all(np.all(y > 0.0) and np.all(np.isfinite(y)) for y in samples):
        _check_bounds(samples)


@pytest.mark.parametrize("y", [
    # after the bin of the leading zero, bins of 1, 1, 1, 2 and 1 values
    pytest.param(np.array([0.05, 0.15, 0.35, 0.35, 0.85]), id="5_tied"),
    pytest.param(np.array([1.0, 1.5, 4.0]) * 1e-100, id="3_small"),
    pytest.param(np.array([1.0, 1.5, 4.0]) * 1e100, id="3_large"),
])
def test_the_bin_bounds_hold_where_every_bin_holds_one_value(y):
    # The bounds equal k and the NLL up to rounding, so only their
    # widening keeps them on the right side.
    rows = _kernels.Rows()
    rows.add(y)
    rows.load()
    c, a, b = rows._order_bins()[:3]
    assert (a == b)[c > 0].all()
    _check_bounds([y])


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(sorted(_FAMILIES)), min_exceedances=st.sampled_from([3, 10]), data=st.data())
def test_every_fit_is_a_score_root_at_least_as_likely_as_the_grid(family, min_exceedances, data):
    tail = data.draw(_FAMILIES[family][0])
    for y, fit in _candidate_fits(tail, min_exceedances):
        if isinstance(fit, Exception):
            continue
        values = _grid_nll(y)
        grid_best = -values[np.isfinite(values)].min()
        assert fit.log_likelihood >= grid_best - 1e-9, (y.size, fit, grid_best)
        tau = fit.params.shape / fit.params.scale
        if tau == 0.0 or fit.boundary_hit:
            # the score need not vanish at the feasibility edge
            continue
        score, scale = _score(y, tau)
        # The score kernel forms each O(t^2) term t/(1+t) - log1p(t) as a
        # difference of two O(t) values, so it can only place the root to
        # about n*eps/|tau|; that matters only for a shape near zero.
        noise = y.size * np.finfo(float).eps / abs(tau)
        assert abs(score) <= 1e-9 * scale + 100.0 * noise, (y.size, fit, score, scale)


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(sorted(_FAMILIES)), data=st.data())
def test_diagnostics_account_for_every_candidate(family, data):
    strategy, regime = _FAMILIES[family]
    tail = data.draw(strategy)
    try:
        diag = scan_thresholds(tail, regime=regime).diagnostics
    except NoSurvivingCandidates as exc:
        total, *dropped = map(int, re.findall(r"(\d+)", str(exc).split("(of ")[1]))
        assert sum(dropped) == total
        return
    dropped = diag.fit_errors + diag.not_converged + diag.boundary_hits + diag.wrong_sign
    assert dropped + diag.surviving == diag.candidates_total


def test_the_iteration_cap_marks_the_fit_unconverged():
    sample = ExcessSample(0.0, gpd_sample(GpdParams(0.2, 1.0), 500, seed=21), 500)
    assert fit_mle(sample).converged
    capped = fit_mle(sample, max_iterations=3)
    assert not capped.converged
    assert capped.params.shape == pytest.approx(fit_mle(sample).params.shape, rel=0.1)


def _bundled_tails():
    config = AnalysisConfig.from_json(bundled_data_path("synthetic_config.json"))
    returns = compute_returns(read_earnings_csv(bundled_data_path("synthetic_weekends.csv")))
    for series in split_by_period(returns, config.periods):
        split = split_by_sign(series)
        yield split.positive.values, config.min_exceedances
        yield split.negative.values, config.min_exceedances


def _plain_bisection_evaluations(lo, hi, root):
    """Score evaluations plain bisection from [lo, hi] needs to bracket ``root`` within 4 ulps."""
    count = 2
    while hi - lo > 4.0 * math.ulp(max(abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid < root else (lo, mid)
        count += 1
    return count


def test_grid_points_evaluated_per_fit_on_the_bundled_data():
    evaluated = []  # per fit: the non-zero grid points whose value was evaluated
    for tail, m in _bundled_tails():
        for u in candidate_thresholds(tail, m):
            y = tail[tail > u] - u
            rows = _kernels.Rows()
            rows.add(y)
            rows.load()
            rows.profile_nll_grid(_grids([y]))
            # one row: each pass of the kernel evaluates one grid point
            assert rows.elements == rows.passes * (y.size + 1)
            evaluated.append(rows.passes)
    assert len(evaluated) == 1416
    # the full grid has 84 non-zero points; an interior minimum needs 3
    assert statistics.mean(evaluated) <= 4
    assert max(evaluated) <= 6


def test_score_evaluations_per_fit_on_the_bundled_data(monkeypatch):
    rows, requests = [], {}  # every loaded Row in fit order; Row -> taus of its score requests
    kinds = {}  # Row -> the kinds of the kernel requests of its search, in order
    load, deriv, search = _kernels.Rows.load, _kernels.profile_nll_deriv, gpd._search

    def recording(self):
        loaded = load(self)
        rows.extend(loaded)
        return loaded

    def counting(row, tau):
        requests.setdefault(row, []).append(tau)
        return (yield from deriv(row, tau))

    def logged(row, *args):
        log, coroutine, value = kinds.setdefault(row, []), search(row, *args), None
        while True:
            try:
                request = coroutine.send(value)
            except StopIteration as stop:
                return stop.value
            log.append(request[0])
            value = yield request

    monkeypatch.setattr(_kernels.Rows, "load", recording)
    monkeypatch.setattr(_kernels, "profile_nll_deriv", counting)
    monkeypatch.setattr(gpd, "_search", logged)
    fits = [fit for tail, m in _bundled_tails() for _, fit in _candidate_fits(tail, m)]
    assert len(fits) == len(rows) == 1416
    counts, plain = [], []
    for row, fit in zip(rows, fits):
        if isinstance(fit, Exception):
            continue
        taus = requests[row]
        counts.append(len(taus))
        # After the score solve a fit with a root makes no kernel pass, and
        # one without a root makes one, for the shape at its grid point.
        after = kinds[row][kinds[row].index(_kernels.DERIV) :].count(_kernels.SUM)
        assert after == (0 if fit.converged and not fit.boundary_hit else 1), (row.n, fit)
        if not fit.boundary_hit:
            # the first two requests are the grid bracket's endpoints
            plain.append(_plain_bisection_evaluations(*taus[:2], fit.params.shape / fit.params.scale))
    assert statistics.median(counts) <= 12
    assert max(counts) <= min(plain)
