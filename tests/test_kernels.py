import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest

from potrisk import _kernels, bundled_data_path, gpd
from potrisk.errors import NoSurvivingCandidates
from potrisk.excess import candidate_thresholds
from potrisk.gpd import GpdParams, fit_samples, gpd_log_likelihood, gpd_sample
from potrisk.report import AnalysisConfig, analyze
from potrisk.risk import HEAVY_TAIL, SHORT_TAIL, scan_thresholds

import scalar_oracle


def _loaded(samples):
    """A loaded block holding ``samples``, each sorted as Rows.add takes it."""
    rows = _kernels.Rows()
    for y in samples:
        rows.add(np.sort(np.asarray(y, dtype=float)))
    rows.load()
    return rows


def _profile_nll(rows, tau):
    """Every row's profile NLL at its own tau in one pass, and the sum l it came from, as the lazy grid forms them."""
    with np.errstate(all="ignore"):  # log1p(t) at t <= -1
        l = rows.sums(tau, False)[0]
    return _kernels.profile_nll_from_sum(rows.n, rows.mean, tau, l), l


def _block_values(kernel, cases):
    """``kernel`` (of a block and its taus in row units) of one block holding sample_i at tau_i, for every (sample_i, tau_i).

    Each tau_i is in its sample's units; the kernel gets it in row units.
    """
    rows = _loaded([y for y, _ in cases])
    return kernel(rows, np.ldexp([tau for _, tau in cases], rows.e))


class TestRows:
    def _samples(self):
        """Samples of 1 to 300 points, in mixed size order, that load as one chunk."""
        rng = np.random.default_rng(3)
        return [
            np.sort(rng.exponential(1.0, size)) * 10.0 ** rng.uniform(-3, 3) for size in (1, 7, 300, 129, 300)
        ]

    def _taus(self, samples):
        return np.array([0.7 / y.mean() if i % 2 else -0.9 / y.max() for i, y in enumerate(samples)])

    def test_sums_match_one_sample_numpy_bit_for_bit(self):
        samples = self._samples()
        rows = _loaded(samples)
        taus = self._taus(samples)
        l, w, d, s2, s3 = rows.sums(np.ldexp(taus, rows.e), deriv=True)
        for i, y in enumerate(samples):
            t = taus[i] * y
            lg = np.log1p(t)
            wt = t / (1.0 + t)
            assert l[i] == lg.sum()
            assert w[i] == wt.sum()
            assert d[i] == (wt - lg).sum()
            assert s2[i] == (wt * wt).sum()
            assert s3[i] == (wt * wt * wt).sum()
        assert rows.sums(np.ldexp(taus, rows.e), deriv=False)[0].tolist() == l.tolist()

    def test_rows_whose_taus_are_zero_at_a_chunks_ends_are_not_computed(self):
        samples = self._samples()  # one chunk, of which only row 0 has a tau that is not 0
        rows = _loaded(samples)
        taus = np.array([0.5, 0.0, -0.0, 0.0, -0.0])
        l, w, d, s2, s3 = rows.sums(np.ldexp(taus, rows.e), deriv=True)
        for i, y in enumerate(samples):
            t = taus[i] * np.concatenate([[0.0], y])  # with the row's leading zero
            lg = np.log1p(t)
            wt = t / (1.0 + t)
            # summed in order, as reduceat sums a computed row (the sign of a zero shows)
            for got, terms in ((l[i], lg), (w[i], wt), (d[i], wt - lg), (s2[i], wt * wt), (s3[i], wt * wt * wt)):
                assert got.hex() == functools.reduce(operator.add, terms.tolist()).hex()
        assert (rows.passes, rows.elements) == (1, 2)

    def test_bins_hold_every_value_and_keep_it_apart_from_the_zeros(self):
        samples = self._samples()  # rows 0, 1 and 3 are shorter than their chunk's widest row
        rows = _loaded(samples)
        c, a, b, _, _ = rows._order_bins()
        assert ((a > 0.0) | (b == 0.0))[c > 0].all()
        assert np.where(a > 0.0, c, 0.0).sum(axis=1).tolist() == [y.size for y in samples]
        assert np.ldexp(b.max(axis=1), rows.e).tolist() == [y.max() for y in samples]

    def test_a_pass_computes_no_padding(self):
        # A pass's chunks hold at most 4 * BLOCK_ELEMENTS elements: rows of
        # 301, 130 and 16,385 elements make one, the next 16,385 another,
        # the longer row one of its own, and the rows of 1 and 7 points the last.
        limit = 4 * _kernels.BLOCK_ELEMENTS
        half = limit // 2
        sizes = [300, 129, half, half, limit + 10, 1, 7]
        chunks = [[0, 1, 2], [3], [4], [5, 6]]
        rows = _loaded([np.arange(1.0, size + 1.0) for size in sizes])
        for busy in ([0, 1], list(range(7)), [1], [0, 2], [1, 2, 3, 4, 6], [3, 5], []):
            tau = np.zeros(len(sizes))
            tau[busy] = -0.5
            before = rows.elements
            rows.sums(tau, False)
            # each chunk is computed from its first to its last row whose tau is not 0
            spans = [[row for row in chunk if row in busy] for chunk in chunks]
            want = sum(sizes[row] + 1 for span in spans if span for row in range(span[0], span[-1] + 1))
            assert rows.elements - before == want, busy
        assert rows._chunks == [(chunk[0], chunk[-1] + 1) for chunk in chunks]

    def test_row_constants(self):
        samples = self._samples()
        rows = _loaded(samples)
        for i, y in enumerate(samples):
            e = rows.e[i]  # each row is stored times 2**-e, its maximum in [0.5, 1)
            assert (e, 0.5 <= rows.y_max[i] < 1.0) == (math.frexp(y.max())[1], True)
            assert (rows.n[i], np.ldexp(rows.mean[i], e)) == (y.size, y.mean())
            # the score at tau = 0 in row units is that in the sample's times 2**-e
            assert np.ldexp(rows.score0[i], e) == y.size * (y.mean() - np.mean(y * y) / (2.0 * y.mean()))
            assert np.ldexp([rows.y_max[i], rows.y_min[i]], e).tolist() == [y.max(), y.min()]

    def test_infeasible_tau(self):
        y = np.array([1.0, 2.0, 4.0])
        bad = -0.3  # 1 + tau*4 < 0
        (value,), (l,) = _block_values(_profile_nll, [(y, bad)])
        assert value == math.inf and math.isnan(l)
        (score,), (l,), *_ = _block_values(_kernels.Rows.profile_nll_deriv, [(y, bad)])
        assert math.isnan(score) and math.isnan(l)

    def test_kernels_match_scalar_oracle(self):
        rng = np.random.default_rng(123)
        samples = [np.sort(rng.exponential(1.0, 25)), np.sort(rng.pareto(4.0, 4000) + 0.01)]
        for y in samples:
            tau_min = -(1.0 - 1e-10) / y.max()
            taus = [0.0, 1e-9, -1e-9, 0.5, 5.0, tau_min * 0.5, tau_min * 0.999, tau_min]
            nll, nll_sums = _block_values(_profile_nll, [(y, tau) for tau in taus])
            deriv, sums, *_ = _block_values(_kernels.Rows.profile_nll_deriv, [(y, tau) for tau in taus])
            assert nll_sums.tolist() == sums.tolist()  # a value pass and a score pass keep the same sums
            row = _loaded([y])
            e = int(row.e[0])
            y_row = np.ldexp(y, -e)  # the kernels' values are those of the sample in row units
            for tau, a, b, l in zip(taus, nll.tolist(), deriv.tolist(), sums.tolist()):
                tau_row = math.ldexp(tau, e)
                assert a == scalar_oracle.profile_nll_numpy(y_row, tau_row)
                assert b == scalar_oracle.profile_nll_deriv_numpy(y_row, tau_row)
                # the score's sum gives the NLL at tau, bit for bit
                assert l == (np.log1p(tau * y).sum() if tau else 0.0)
                assert _kernels.profile_nll_from_sum(row.n, row.mean, np.array([tau_row]), np.array([l]))[0] == a
            for xi, sigma in [(0.0, 1.0), (0.3, 0.5), (-0.2, 2.0)]:
                got = -gpd_log_likelihood(GpdParams(xi, sigma), y)
                assert got == scalar_oracle.gpd_nll_numpy(y, xi, sigma)


def test_the_least_values_nearest_finite_neighbours_are_pending():
    nan, inf = math.nan, math.inf
    f = np.array([
        [5.0, nan, inf, 1.0, nan, 4.0],  # an infinite value lies between the least and its neighbour
        [5.0, nan, inf, 1.0, nan, 4.0],  # ... and the point right of it repeats its predecessor
        [nan, 2.0, 1.0, 3.0, nan, nan],  # both neighbours known
        [1.0, nan, nan, nan, nan, nan],  # the least is at the left end
    ])
    skip = np.zeros(f.shape, dtype=bool)
    skip[1, 4] = True
    assert _kernels._neighbours_pending(f, skip).astype(int).tolist() == [
        [0, 1, 0, 0, 1, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
    ]
    # the finite neighbours alone, as gpd._search takes them
    best, left, right = _kernels.least_and_neighbours(f, np.isfinite(f))
    assert (best.tolist(), left.tolist(), right.tolist()) == ([3, 3, 2, 0], [0, 0, 1, -1], [5, 5, 3, 6])


class TestDerivative:
    @pytest.mark.parametrize("tau", [-0.15, -1e-4, 1e-4, 0.3, 2.0])
    def test_matches_finite_differences(self, tau):
        y = np.random.default_rng(5).exponential(1.0, 400)
        other = np.random.default_rng(8).exponential(3.0, 250)
        h = 1e-7 * max(1.0, abs(tau))
        up, down, _ = _block_values(
            _profile_nll, [(y, tau + h), (y, tau - h), (other, 0.1)]
        )[0].tolist()
        deriv = _block_values(_kernels.Rows.profile_nll_deriv, [(y, tau), (other, -0.1)])[0][0]
        # the NLL in row units differs by a constant; d/dtau is 2**e times d/dtau in row units
        deriv = math.ldexp(deriv, math.frexp(y.max())[1])
        assert deriv == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-6)

    def test_zero_tau_limit(self):
        y = np.random.default_rng(6).exponential(1.0, 400)
        left, at0, right = _block_values(
            _kernels.Rows.profile_nll_deriv, [(y, -1e-10), (y, 0.0), (y, 1e-10)]
        )[0].tolist()
        assert left == pytest.approx(at0, rel=1e-5, abs=1e-8)
        assert right == pytest.approx(at0, rel=1e-5, abs=1e-8)


# Seeded tails (values, regime, min_exceedances): heavy, short and tied,
# from 10 to 2,000 points.
TAILS = [
    pytest.param(gpd_sample(GpdParams(0.3, 1.0), 2000, seed=1), HEAVY_TAIL, 10, id="heavy_2000"),
    pytest.param(gpd_sample(GpdParams(-0.4, 0.5), 400, seed=2), SHORT_TAIL, 10, id="short_400"),
    pytest.param(np.round(gpd_sample(GpdParams(0.2, 1.0), 300, seed=3), 1) + 0.05,
                 HEAVY_TAIL, 10, id="tied_300"),
    pytest.param(gpd_sample(GpdParams(0.25, 1.0), 10, seed=4), HEAVY_TAIL, 3, id="heavy_10"),
    pytest.param(gpd_sample(GpdParams(-0.3, 2.0), 60, seed=5), SHORT_TAIL, 5, id="short_60"),
    # log-uniform over 20 decades: 35 of its 55 roots lie past 1e8/mean,
    # where the grid runs on to its top
    pytest.param(10.0 ** np.random.default_rng(11).uniform(-10.0, 10.0, 60), HEAVY_TAIL, 5, id="decades_60"),
]


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("tail,regime,min_exc", TAILS)
    def test_every_candidate_and_the_diagnostics_agree(self, tail, regime, min_exc):
        _, want_diag, want_fits = scalar_oracle.scan(tail, regime=regime, min_exceedances=min_exc)
        candidates = candidate_thresholds(tail, min_exc)
        got_fits = list(fit_samples(np.sort(tail[tail > u] - u) for u in candidates))
        assert len(got_fits) == len(want_fits) == candidates.size
        for u, got, want in zip(candidates, got_fits, want_fits):
            if isinstance(want, Exception):
                assert type(got) is type(want), (u, got, want)
                continue
            assert not isinstance(got, Exception), (u, got)
            assert got.params.shape == pytest.approx(want.params.shape, rel=1e-9, abs=0.0)
            assert got.params.scale == pytest.approx(want.params.scale, rel=1e-9, abs=0.0)
            assert (got.converged, got.boundary_hit) == (want.converged, want.boundary_hit)
        if want_diag.surviving == 0:
            with pytest.raises(NoSurvivingCandidates):
                scan_thresholds(tail, regime=regime, min_exceedances=min_exc)
        else:
            assert scan_thresholds(tail, regime=regime, min_exceedances=min_exc).diagnostics == want_diag


# Scans of one block each: 390 candidates of up to 399 points, and 4
# candidates of about 10,000 points.
MANY = (gpd_sample(GpdParams(0.2, 1.0), 400, seed=9), 10)
LONG = (gpd_sample(GpdParams(0.2, 1.0), 10_009, seed=10), 10_005)


def _block_sizes(monkeypatch) -> list:
    """Record the row count of every block that Rows.load finishes from now on."""
    sizes = []
    load = _kernels.Rows.load

    def spy(self):
        loaded = load(self)
        sizes.append(len(loaded))
        return loaded

    monkeypatch.setattr(_kernels.Rows, "load", spy)
    return sizes


def test_a_block_takes_1072_samples_however_long(monkeypatch):
    sizes = _block_sizes(monkeypatch)
    for (tail, min_exc), want in ((LONG, [4]), (MANY, [390])):
        sizes.clear()
        scan_thresholds(tail, min_exceedances=min_exc)
        assert sizes == want
    # 1072 = 8 * (BLOCK_ELEMENTS // _GRID_POINTS); a scan's candidates fill
    # the data buffer first, so the cap binds on many short samples
    assert 8 * (_kernels.BLOCK_ELEMENTS // gpd._GRID_POINTS) == 1072
    sizes.clear()
    list(fit_samples(np.sort(gpd_sample(GpdParams(0.2, 1.0), 10, seed)) for seed in range(1300)))
    assert sizes == [1072, 228]


def test_the_bundled_tails_load_as_one_block_each(monkeypatch, tmp_path):
    sizes = _block_sizes(monkeypatch)
    analyze(AnalysisConfig.from_json(
        bundled_data_path("synthetic_config.json"),
        input_path=bundled_data_path("synthetic_weekends.csv"),
        out_dir=tmp_path,
    ))
    assert sizes == [394, 285, 379, 358]


def test_the_data_buffer_caps_a_block_of_long_samples():
    rows = _kernels.Rows()
    sample = np.ones(_kernels.BLOCK_ELEMENTS)
    for _ in range(15):
        assert rows.has_room(sample.size)
        rows.add(sample)
    assert not rows.has_room(sample.size)
    rows.clear()
    assert rows.has_room(15 * _kernels.BLOCK_ELEMENTS)


def test_the_tau_grids_are_built_in_chunks():
    # Of the tau grids of a block of 1072 rows, only the result outgrows a
    # chunk of 134 rows: the temporaries do not.
    assert _kernels.BLOCK_ELEMENTS // gpd._GRID_POINTS == 134
    rng = np.random.default_rng(1)
    extra = {}
    for count in (134, 1072):
        means, y_min, y_max = rng.uniform(0.1, 0.5, count), rng.uniform(1e-9, 0.1, count), rng.uniform(0.5, 1.0, count)
        tracemalloc.start()
        try:
            grids = gpd._tau_grids(means, y_min, y_max)
            extra[count] = tracemalloc.get_traced_memory()[1] - grids.nbytes
        finally:
            tracemalloc.stop()
    assert extra[1072] <= 1.1 * extra[134], extra


def _candidate_fits(tail, min_exc) -> list:
    """Each candidate's fit, or its error's type and message."""
    fits = fit_samples(np.sort(tail[tail > u] - u) for u in candidate_thresholds(tail, min_exc))
    return [(type(fit), str(fit)) if isinstance(fit, Exception) else fit for fit in fits]


def test_one_row_blocks_give_the_same_scan(monkeypatch):
    block_sizes = _block_sizes(monkeypatch)
    default = [scan_thresholds(tail, min_exceedances=m) for tail, m in (MANY, LONG)]
    default_fits = [_candidate_fits(tail, m) for tail, m in (MANY, LONG)]
    assert max(block_sizes) > 1
    # the scans drop boundary hits, the fits keep them: MANY's last 7
    # candidates, the last rows of its one block of 390
    hits = [i for i, fit in enumerate(default_fits[0]) if fit.boundary_hit]
    assert hits == list(range(383, 390))
    block_sizes.clear()
    monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", 1)
    one_row = [scan_thresholds(tail, min_exceedances=m) for tail, m in (MANY, LONG)]
    one_row_fits = [_candidate_fits(tail, m) for tail, m in (MANY, LONG)]
    assert set(block_sizes) == {1}
    assert one_row == default
    assert one_row_fits == default_fits


def _columns_and_scan(tail, min_exc):
    """The FitColumns of the candidates of ``tail`` as bytes, grid_points left out, and its scan."""
    fits = gpd.fit_columns(np.sort(tail[tail > u] - u) for u in candidate_thresholds(tail, min_exc))
    columns = [(c.dtype, c.tobytes()) for name, c in zip(fits._fields, fits) if name != "grid_points"]
    return columns, scan_thresholds(tail, min_exceedances=min_exc)


@pytest.mark.parametrize("size", [7, 300])
def test_chunk_sizes_give_the_same_fits_and_scans(monkeypatch, size):
    # pass chunks of 4 * size elements and GoF chunks of size, against the defaults
    default = [_columns_and_scan(*case) for case in (MANY, LONG)]
    monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", size)
    assert [_columns_and_scan(*case) for case in (MANY, LONG)] == default
