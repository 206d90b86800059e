"""Properties of the maximum-likelihood search, and how many evaluations it makes.

The search evaluates the tau grid lazily (``_kernels.Rows.profile_nll_grid``)
and solves for the root of the profile score from the grid's bracket
(``gpd._solve_score``), every row of a block in lockstep. Hypothesis draws
heavy, short and tied tails and checks the lazy grid against the full
grid, its bounds against the values they bound, and every candidate fit of
a scan against the quantities the search is meant to optimize;
deterministic tests on the bundled data count the grid points, score
evaluations and kernel passes per fit.
"""

import itertools
import math
import re
import statistics
import warnings

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
    samples = [np.sort(tail[tail > u] - u) for u in candidate_thresholds(tail, min_exceedances)]
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


def _block(samples):
    """A loaded block of ``samples``, and the samples, sorted, in its row units (times 2**-e, see _kernels)."""
    samples = [np.sort(y) for y in samples]
    rows = _kernels.Rows()
    for y in samples:
        rows.add(y)
    rows.load()
    return rows, [np.ldexp(y, -e) for y, e in zip(samples, rows.e)]


def _grids(samples):
    """The tau grid of each sample, one row per sample; for samples in row units, that of their fits."""
    return gpd._tau_grids(*(np.array([f(y) for y in samples]) for f in (np.mean, np.min, np.max)))


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
    rows, samples = _block(data.draw(st.lists(_BLOCK_FAMILIES[family], min_size=1, max_size=4)))
    grids = _grids(samples)
    lazy, sums = rows.profile_nll_grid(grids)
    for y, grid, values, l in zip(samples, grids, lazy, sums):
        first = np.ones(grid.size, dtype=bool)
        first[1:] = grid[1:] != grid[:-1]
        full = scalar_oracle.profile_nll_grid_numpy(y, grid)
        evaluated = ~np.isnan(values)
        assert not (evaluated & ~first).any()  # repeats are not evaluated
        assert values[evaluated].tolist() == full[evaluated].tolist()
        # each evaluated point keeps the sum its value came from, bit for bit
        assert np.isnan(l[~evaluated]).all()
        with np.errstate(invalid="ignore", divide="ignore"):  # log1p(t) at t <= -1
            want = [np.log1p(tau * y).sum().hex() for tau in grid[evaluated]]
        assert [x.hex() for x in l[evaluated].tolist()] == want
        assert _minimum_and_neighbours(grid[evaluated], values[evaluated]) == (
            _minimum_and_neighbours(grid[first], full[first])
        )


def test_the_lazy_grid_does_not_depend_on_its_first_guess(monkeypatch):
    bounds = _kernels._bounds

    def worst_first(taus, bins, n, scratch):
        k_lo, k_hi, floor, guess = bounds(taus, bins, n, scratch)
        return k_lo, k_hi, floor, -guess  # the first round takes the worst estimate

    monkeypatch.setattr(_kernels, "_bounds", worst_first)
    # The profiles of the last two have two local minima, the grid's edge
    # and an interior point; a walk from a poor first guess stops at one.
    cases = ((0.4, 200, 7), (-1.0, 30, 8), (-1.0, 100, 8))
    rows, samples = _block([gpd_sample(GpdParams(xi, 1.0), n, seed) for xi, n, seed in cases])
    grids = _grids(samples)
    for y, grid, values in zip(samples, grids, rows.profile_nll_grid(grids)[0]):
        evaluated = ~np.isnan(values)
        first = np.unique(grid, return_index=True)[1]
        full = scalar_oracle.profile_nll_grid_numpy(y, grid[first])
        lazy = _minimum_and_neighbours(grid[evaluated], values[evaluated])
        assert lazy == _minimum_and_neighbours(grid[first], full)


def _check_bounds(samples):
    """In one block, the bounds on k hold at every non-zero grid point, and the floor lies under the value."""
    rows, samples = _block(samples)
    grids = _grids(samples)
    n = np.array([[float(y.size)] for y in samples])
    bins = rows._order_bins()
    scratch = np.full(6 * bins.shape[2] * grids.size + 1, np.nan)  # longer than needed; never read
    with np.errstate(all="ignore"):  # at tau = 0, k/tau is 0/0
        k_lo, k_hi, floor, _ = _kernels._bounds(grids, bins, n, scratch)
    for i, (y, grid) in enumerate(zip(samples, grids)):
        values = scalar_oracle.profile_nll_grid_numpy(y, grid)
        for j, tau in enumerate(grid):
            k = math.fsum(np.log1p(tau * y).tolist()) / y.size
            if tau == 0.0:
                continue  # tau = 0 is evaluated directly
            assert k_lo[i, j] <= k <= k_hi[i, j], (y.size, tau, k_lo[i, j], k, k_hi[i, j])
            if math.isfinite(values[j]):
                assert not floor[i, j] > values[j], (y.size, tau, floor[i, j], values[j])


def test_the_floors_do_not_depend_on_the_blocking(monkeypatch):
    # _floors runs _bounds on chunks of rows through one scratch buffer. A
    # row's floors and guesses over a block of N rows are those of the row
    # loaded alone, bit for bit, for N at 1, at one chunk and at one chunk
    # plus one row. The samples have one size, so that each row's bins are
    # those it has alone (bins are cut at the width of a row's group).
    guesses = []
    bounds = _kernels._bounds

    def spy(taus, bins, n, scratch):
        out = bounds(taus, bins, n, scratch)
        guesses.append(out[3])
        return out

    monkeypatch.setattr(_kernels, "_bounds", spy)

    def floors(samples):
        rows = _kernels.Rows()
        for y in samples:
            rows.add(y)
        rows.load()
        grids = gpd._tau_grids(rows.mean, rows.y_min, rows.y_max)
        guesses.clear()
        floor, best = rows._floors(grids, np.ones(grids.shape, dtype=bool))
        return floor, best, np.concatenate(guesses), [g.shape[0] for g in guesses]

    samples = [np.sort(gpd_sample(GpdParams(xi, 1.0), 40, seed))
               for seed, xi in enumerate([0.3, -0.2, 0.05, 0.8, -0.6] * 40)]
    chunk = floors(samples)[3][0]
    assert 1 < chunk < len(samples)
    alone = [floors([y]) for y in samples[: chunk + 1]]
    for count, chunks in ((1, [1]), (chunk, [chunk]), (chunk + 1, [chunk, 1])):
        floor, best, guess, sizes = floors(samples[:count])
        assert sizes == chunks
        for i, (want_floor, want_best, want_guess, _) in enumerate(alone[:count]):
            assert floor[i].tobytes() == want_floor[0].tobytes()
            assert best[i] == want_best[0]
            assert guess[i].tobytes() == want_guess[0].tobytes()


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
    c, a, b = _block([y])[0]._order_bins()[:3]
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


def test_the_iteration_cap_marks_the_fit_unconverged(monkeypatch):
    sample = ExcessSample(0.0, gpd_sample(GpdParams(0.2, 1.0), 500, seed=21), 500)
    assert fit_mle(sample).converged
    with monkeypatch.context() as m:
        m.setattr(gpd, "_MAX_ITERATIONS", 3)
        capped = fit_mle(sample)
    assert not capped.converged
    assert capped.params.shape == pytest.approx(fit_mle(sample).params.shape, rel=0.1)


def _bits(fit):
    """A fit's numbers as bits, its flags and its score evaluations; or the name of the error in its place.

    Not its grid points, which can depend on the rows that share its group.
    """
    if isinstance(fit, Exception):
        return type(fit).__name__
    numbers = (fit.params.shape, fit.params.scale, fit.log_likelihood)
    return tuple(x.hex() for x in numbers), fit.converged, fit.boundary_hit, fit.score_evaluations


def _mixed_block():
    """GPD samples of several shapes and sizes, sorted; sizes fall so that rows share groups."""
    cases = [(0.3, 120), (-0.25, 90), (0.05, 80), (0.7, 60), (-0.45, 45), (0.15, 30), (0.5, 20), (-0.1, 12)]
    return [np.sort(gpd_sample(GpdParams(xi, 1.0), n, seed)) for seed, (xi, n) in enumerate(cases, 40)]


def test_rows_capped_in_a_block_are_their_lone_fits(monkeypatch):
    samples = _mixed_block()
    monkeypatch.setattr(gpd, "_MAX_ITERATIONS", 3)
    fits = list(fit_samples(samples))
    capped = [not f.converged and f.score_evaluations == 3 for f in fits]
    assert any(capped) and not all(capped)
    for y, fit in zip(samples, fits):
        (lone,) = fit_samples([y])
        assert _bits(fit) == _bits(lone)


def test_every_interior_fit_keeps_the_sum_at_its_root():
    # A row stopped by its Halley step is rooted at a point never evaluated,
    # with its sum of log1p(tau*y) a Taylor step from the last pass's.
    fits = [(y, fit) for tail, m in _bundled_tails() for y, fit in _candidate_fits(tail, m)]
    samples = _mixed_block()
    fits += zip(samples, fit_samples(samples))
    checked = 0
    for y, fit in fits:
        if isinstance(fit, Exception) or not fit.converged or fit.boundary_hit:
            continue
        checked += 1
        e = math.frexp(y[-1])[1]
        tau = fit.params.shape / math.ldexp(fit.params.scale, -e)  # in row units
        direct = np.log1p(tau * np.ldexp(y, -e)).sum()
        assert abs(fit.params.shape * y.size - direct) <= 8.0 * math.ulp(direct), (y.size, fit)
        ll = gpd.gpd_log_likelihood(fit.params, y)
        assert fit.log_likelihood == pytest.approx(ll, rel=1e-13, abs=0.0), (y.size, fit)
    assert checked >= 1360


def test_rows_stopped_by_their_step_are_their_lone_fits(monkeypatch):
    solve, sums = gpd._solve_score, _kernels.Rows.sums
    solved, passed = [], []  # the solve's results; the taus of its passes

    def recorded_solve(rows, *args):
        out = solve(rows, *args)
        solved.append(out)
        return out

    def recorded_sums(self, tau, deriv):
        if deriv:
            passed.append(tau.copy())
        return sums(self, tau, deriv)

    monkeypatch.setattr(gpd, "_solve_score", recorded_solve)
    monkeypatch.setattr(_kernels.Rows, "sums", recorded_sums)
    samples = _mixed_block()
    fits = list(fit_samples(samples))
    ((tau, _, rooted, converged, _),) = solved
    # a root that no pass evaluated is a step's
    stepped = [bool(rooted[i] and tau[i] not in taus) for i, taus in enumerate(np.transpose(passed))]
    assert sum(stepped) >= len(samples) // 2 and converged[stepped].all()
    for y, fit in zip(samples, fits):
        (lone,) = fit_samples([y])
        assert _bits(fit) == _bits(lone)


def test_a_row_whose_score_is_not_finite_keeps_its_grid_point(monkeypatch):
    samples = _mixed_block()
    lone = [_bits(fit) for y in samples for fit in fit_samples([y])]
    # a converged row still searching at the 3rd step
    at = row = next(i for i, bits in enumerate(lone) if bits[1] and bits[3] > 3)
    deriv, solve = _kernels.Rows.profile_nll_deriv, gpd._solve_score
    calls, solved = [], []

    def poisoned(self, tau):  # the score of row ``at`` is nan at the solve's 3rd step
        score, *rest = deriv(self, tau)
        calls.append(None)
        if len(calls) == 3:
            score[at] = math.nan
        return score, *rest

    def recorded(rows, lo, hi, x_best, *args):
        out = solve(rows, lo, hi, x_best, *args)
        solved.append((x_best, out))
        return out

    monkeypatch.setattr(_kernels.Rows, "profile_nll_deriv", poisoned)
    monkeypatch.setattr(gpd, "_solve_score", recorded)
    fits = list(fit_samples(samples))
    ((x_best, (tau, _, rooted, converged, evaluations)),) = solved
    assert (tau[row], rooted[row], converged[row], evaluations[row]) == (x_best[row], False, False, 3)
    assert fits[row].score_evaluations == 3
    assert [_bits(f) for i, f in enumerate(fits) if i != row] == [b for i, b in enumerate(lone) if i != row]
    # Alone, the row is the block's last: its solve stops there, with no
    # pass after the one that gave the nan.
    calls.clear()
    at = 0
    (alone,) = fit_samples([samples[row]])
    assert len(calls) == 3
    assert _bits(alone) == _bits(fits[row])


def test_the_solve_leaves_the_block_as_it_was_loaded():
    rows = _kernels.Rows()
    for y in _mixed_block():
        rows.add(y)
    rows.load()
    names = ("n", "e", "mean", "y_max", "y_min", "score0")
    before = rows.count, rows._y[: rows._used].tobytes(), [getattr(rows, name).tobytes() for name in names]
    grids = gpd._tau_grids(rows.mean, rows.y_min, rows.y_max)
    fits = gpd._search(rows, grids, *rows.profile_nll_grid(grids))
    assert len({f.score_evaluations for f in fits}) > 2  # rows stop at different steps
    assert (rows.count, rows._y[: rows._used].tobytes(), [getattr(rows, name).tobytes() for name in names]) == before


def test_the_grid_ends_at_grimshaws_root_bound():
    # rows: a top below 1e8/mean; one above it; a y_min whose square
    # underflows; a rounded mean below y_min
    means = np.array([0.3, 0.3, 0.3, 0.1])
    y_mins = np.array([0.01, 1e-9, 1e-200, np.nextafter(0.1, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grids = gpd._tau_grids(means, y_mins, np.full(4, 0.9))
    tops = [2.0 * (m - a) / (a * a) for m, a in zip(means[:2], y_mins[:2])] + [1e28 * (1.0 / 0.3), 1e-8 * (1.0 / 0.1)]
    assert (np.diff(grids, axis=1) >= 0.0).all()
    # the sweep of 25 positive points, clamped to the top, ends at the top
    assert grids.shape == (4, 1 + 9 + 25 + 1 + 25)
    sweeps = np.geomspace(1e-8 * (1.0 / means), 1e8 * (1.0 / means), 25, axis=1)
    for grid, sweep, top in zip(grids, sweeps, tops):
        assert grid[36:].tolist() == np.minimum(sweep[:-1], top).tolist() + [top]


def _multi_decade_draw(index):
    """Draw ``index`` of the 90 multi-decade samples that scripts/fit_digest.py fits."""
    rng = np.random.default_rng(0)
    draws = (
        np.sort(10.0 ** rng.uniform(-span / 2, span / 2, n))
        for span in (8, 10, 12, 16, 20, 30) for n in (15, 40, 200) for _ in range(5)
    )
    return next(itertools.islice(draws, index, None))


def test_roots_beyond_the_lower_end_of_spots_interval_are_found():
    # At 50 digits (mpmath), the profile scores of draws 60 and 76 have
    # their roots at 1.044 and 1.0048 times 2*(mean - y_min)/(mean*y_min),
    # which Siffer et al. (2017) restate as the lower end of their search
    # interval; that of draw 77 lies at 1.16e28/mean, past the grid's top.
    for index in (60, 76):
        y = _multi_decade_draw(index)
        (fit,) = fit_samples([y])
        assert fit.converged and not fit.boundary_hit, (index, fit)
        assert fit.params.shape / fit.params.scale > 2.0 * (y.mean() - y[0]) / (y.mean() * y[0])
    y = _multi_decade_draw(77)
    (fit,) = fit_samples([y])
    assert not fit.converged and not fit.boundary_hit, fit
    assert fit.params.shape / fit.params.scale == pytest.approx(1e28 / y.mean(), rel=1e-12)


def test_score_evaluations_per_fit_on_the_multi_decade_draws():
    # Each bracket spans up to 30 decades, whose bisections cost the most
    # steps; no fit comes near the solve's cap.
    fits = list(fit_samples(_multi_decade_draw(i) for i in range(90)))  # one block, as fit_digest.py fits them
    evaluations = [fit.score_evaluations for fit in fits]
    assert sum(evaluations) <= 648
    assert max(evaluations) <= 13 < gpd._MAX_ITERATIONS


@pytest.mark.parametrize("shape, seed", [(0.3, 5), (0.8, 11)])
@pytest.mark.parametrize("lo_decades, hi_decades", [(-3, 20), (-10, 12), (-1, 25)])
def test_a_bracket_of_many_decades_closes_in_about_twice_their_log(shape, seed, lo_decades, hi_decades):
    # Both ends positive: a bisection that fails a Halley step splits the
    # bracket at its geometric mean, halving its decades, where the
    # arithmetic midpoint takes about 3.3 evaluations per decade.
    y = np.sort(gpd_sample(GpdParams(shape, 1.0), 200, seed))
    (fit,) = fit_samples([y])
    rows, _ = _block([y])
    root = fit.params.shape / math.ldexp(fit.params.scale, -int(rows.e[0]))  # in row units
    lo, hi = root * 10.0**lo_decades, root * 10.0**hi_decades

    def one(x):
        return np.array([x], dtype=float)

    tau, _, rooted, converged, evaluations = gpd._solve_score(
        rows, one(lo), one(hi), one(lo), one(math.inf), one(0.0), one(math.nan), np.ones(1, dtype=bool)
    )
    assert rooted[0] and converged[0]
    assert tau[0] == pytest.approx(root, rel=1e-14)
    assert evaluations[0] <= 2.0 * math.log2(hi_decades - lo_decades) + 10.0


def test_a_sample_with_a_1e_200_minimum_fits_without_a_warning():
    y = np.sort(np.append(gpd_sample(GpdParams(0.2, 1.0), 30, seed=31), 1e-200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (fit,) = fit_samples([y])
    assert fit.converged and not fit.boundary_hit, fit


def test_no_fit_evaluates_a_tau_outside_its_grid(monkeypatch):
    taus = []  # every tau of every kernel pass
    sums = _kernels.Rows.sums

    def recorded(self, tau, deriv):
        taus.append(tau.copy())
        return sums(self, tau, deriv)

    monkeypatch.setattr(_kernels.Rows, "sums", recorded)
    tail, m = next(_bundled_tails())
    samples = [_multi_decade_draw(i) for i in (*range(0, 90, 3), 76, 77)]
    samples += [np.sort(tail[tail > u] - u) for u in candidate_thresholds(tail, m)[::20]]
    for y in samples:
        taus.clear()
        (fit,) = fit_samples([y])  # one row, so each pass holds its tau
        grid = _grids(_block([y])[1])[0]
        passed = np.concatenate(taus)
        assert ((grid[0] <= passed) & (passed <= grid[-1])).all(), (y.size, fit)


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
            rows, scaled = _block([tail[tail > u] - u])
            rows.profile_nll_grid(_grids(scaled))
            # one row: each pass of the kernel evaluates one grid point
            assert rows.elements == rows.passes * (scaled[0].size + 1)
            evaluated.append(rows.passes)
    assert len(evaluated) == 1416
    # the full grid has 60 non-zero points; an interior minimum needs 3
    assert statistics.mean(evaluated) <= 4
    assert max(evaluated) <= 6


def test_score_evaluations_per_fit_on_the_bundled_data(monkeypatch):
    passes = []  # one entry per call of Rows.sums
    sums = _kernels.Rows.sums

    def counted(self, tau, deriv):
        passes.append(None)
        return sums(self, tau, deriv)

    monkeypatch.setattr(_kernels.Rows, "sums", counted)
    counts, plain, total = [], [], 0  # score evaluations per fit; bisection's from the same bracket
    for tail, m in _bundled_tails():
        for y, fit in _candidate_fits(tail, m):
            total += 1
            if isinstance(fit, Exception):
                continue
            counts.append(fit.score_evaluations)
            # A lone fit makes one kernel pass per grid point but tau = 0 and
            # one per score evaluation, and none after its score solve.
            before = len(passes)
            (lone,) = fit_samples([y])
            assert lone == fit
            assert len(passes) - before == lone.grid_points - 1 + lone.score_evaluations, (y.size, lone)
            if not fit.boundary_hit:
                rows, scaled = _block([y])
                grid = _grids(scaled)[0]
                values = rows.profile_nll_grid(grid[None])[0][0]
                evaluated = ~np.isnan(values)
                # A fit evaluates its grid's points alone, and an interior
                # fit's solve starts from the least value's finite neighbours.
                assert fit.grid_points == np.count_nonzero(evaluated)
                best, left, right = _minimum_and_neighbours(grid[evaluated], values[evaluated])
                # in row units, where the solve ran; a power of two scales ulps alike
                lo, hi = (best if x is None else x for x in (left, right))
                root = fit.params.shape / math.ldexp(fit.params.scale, -int(rows.e[0]))
                plain.append(_plain_bisection_evaluations(lo, hi, root))
    assert total == 1416
    assert statistics.median(counts) <= 12
    assert max(counts) <= min(plain)


def test_the_solve_passes_per_block_on_the_bundled_data(monkeypatch):
    solves = []  # per block: its rows, and the kernel passes of its score solve
    solve = gpd._solve_score

    def counted(rows, *args):
        before = rows.passes
        out = solve(rows, *args)
        solves.append((rows.count, rows.passes - before))
        return out

    monkeypatch.setattr(gpd, "_solve_score", counted)
    counts = []  # score evaluations per fit
    for tail, m in _bundled_tails():
        fits = [fit for _, fit in _candidate_fits(tail, m)]  # one block per tail
        evaluations = [fit.score_evaluations for fit in fits if not isinstance(fit, Exception)]
        counts += evaluations
        # In lockstep a block makes one pass per step, while any row searches:
        # as many as its slowest row's evaluations. No pass evaluates an end.
        assert solves[-1] == (len(fits), max(evaluations)), solves
    assert len(counts) == 1416
    assert statistics.median(counts) <= 4
    assert max(counts) <= 5 < gpd._MAX_ITERATIONS
    # 5, 4, 4 and 4 passes. A row stops on its first negligible Halley step,
    # so the first tail's shapes within 0.001 of zero, whose score's
    # derivatives are noise (ROADMAP item 3), no longer take up to 26; its
    # slowest rows are four shapes near -0.6
    assert sum(passes for _, passes in solves) <= 17, solves
