import functools
import math
import operator

import numpy as np
import pytest

from potrisk import _kernels
from potrisk.errors import NoSurvivingCandidates
from potrisk.excess import candidate_thresholds
from potrisk.gpd import GpdParams, fit_samples, gpd_sample
from potrisk.risk import HEAVY_TAIL, SHORT_TAIL, scan_thresholds

import scalar_oracle


def _loaded(samples):
    """A block holding ``samples``, and the Rows that load returns for it."""
    rows = _kernels.Rows()
    for y in samples:
        rows.add(np.ascontiguousarray(y, dtype=float))
    return rows, rows.load()


def _block_values(kernel, cases):
    """Drive ``kernel(row_i, *args_i)`` for every (sample_i, args_i) in one block."""
    rows, stats = _loaded([y for y, _ in cases])
    return _kernels.drive(rows, [kernel(row, *args) for row, (_, args) in zip(stats, cases)])


class TestRows:
    def _samples(self):
        rng = np.random.default_rng(3)
        return [rng.exponential(1.0, size) * 10.0 ** rng.uniform(-3, 3) for size in (1, 7, 300, 129, 300)]

    def _taus(self, samples):
        return np.array([0.7 / y.mean() if i % 2 else -0.9 / y.max() for i, y in enumerate(samples)])

    def test_sums_match_one_sample_numpy_bit_for_bit(self):
        samples = self._samples()
        rows, _ = _loaded(samples)
        taus = self._taus(samples)
        l, w, d = rows.sums(taus, deriv=True)
        for i, y in enumerate(samples):
            t = taus[i] * y
            lg = np.log1p(t)
            wt = t / (1.0 + t)
            assert l[i] == lg.sum()
            assert w[i] == wt.sum()
            assert d[i] == (wt - lg).sum()
        assert rows.sums(taus, deriv=False)[0].tolist() == l.tolist()

    def test_groups_whose_taus_are_all_zero_are_not_computed(self):
        samples = self._samples()  # groups: row 0, row 1, rows 2-4
        rows, _ = _loaded(samples)
        taus = np.array([0.5, 0.0, -0.0, 0.0, -0.0])
        l, w, d = rows.sums(taus, deriv=True)
        for i, y in enumerate(samples):
            t = taus[i] * np.concatenate([[0.0], y])  # with the row's leading zero
            lg = np.log1p(t)
            wt = t / (1.0 + t)
            # summed in order, as reduceat sums a computed row (the sign of a zero shows)
            for got, terms in ((l[i], lg), (w[i], wt), (d[i], wt - lg)):
                assert got.hex() == functools.reduce(operator.add, terms.tolist()).hex()
        assert (rows.passes, rows.elements) == (1, 2)

    def test_bins_hold_every_value_and_keep_it_apart_from_the_zeros(self):
        samples = self._samples()  # rows 3 and 4 are shorter than their group's first row
        rows, _ = _loaded(samples)
        c, a, b, _, _ = rows._order_bins()
        assert ((a > 0.0) | (b == 0.0))[c > 0].all()
        assert np.where(a > 0.0, c, 0.0).sum(axis=1).tolist() == [y.size for y in samples]
        assert b.max(axis=1).tolist() == [y.max() for y in samples]

    def test_row_constants(self):
        samples = self._samples()
        _, stats = _loaded(samples)
        for row, y in zip(stats, samples):
            assert (row.n, row.mean, row.m2) == (y.size, y.mean(), np.mean(y * y))
            assert (row.y_max, row.y_min, row.total) == (y.max(), y.min(), y.sum())

    def test_keep_compacts_in_order(self):
        samples = self._samples()
        rows, _ = _loaded(samples)
        taus = self._taus(samples)
        full = rows.sums(taus, deriv=False)[0]
        rows.keep([1, 3, 4])
        assert rows.count == 3
        assert rows.sums(taus[[1, 3, 4]], deriv=False)[0].tolist() == full[[1, 3, 4]].tolist()

    def test_infeasible_tau(self):
        y = np.array([1.0, 2.0, 4.0])
        bad = -0.3  # 1 + tau*4 < 0
        assert _kernels.evaluate(_kernels.profile_nll, y, bad) == math.inf
        assert all(map(math.isnan, _kernels.evaluate(_kernels.profile_nll_deriv, y, bad)))

    def test_kernels_match_scalar_oracle(self):
        rng = np.random.default_rng(123)
        samples = [rng.exponential(1.0, 25), rng.pareto(4.0, 4000) + 0.01]
        for y in samples:
            tau_min = -(1.0 - 1e-10) / y.max()
            taus = [0.0, 1e-9, -1e-9, 0.5, 5.0, tau_min * 0.5, tau_min * 0.999, tau_min]
            nll = _block_values(_kernels.profile_nll, [(y, (tau,)) for tau in taus])
            deriv = _block_values(_kernels.profile_nll_deriv, [(y, (tau,)) for tau in taus])
            (row,) = _loaded([y])[1]
            for tau, a, (b, l) in zip(taus, nll, deriv):
                assert a == scalar_oracle.profile_nll_numpy(y, tau)
                assert b == scalar_oracle.profile_nll_deriv_numpy(y, tau)
                # the score's sum gives the NLL at tau, bit for bit
                assert l == (np.log1p(tau * y).sum() if tau else 0.0)
                assert _kernels.profile_nll_from_sum(row, tau, l) == a
            for xi, sigma in [(0.0, 1.0), (0.3, 0.5), (-0.2, 2.0)]:
                got = _kernels.evaluate(_kernels.gpd_nll, y, xi, sigma)
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


class TestDerivative:
    @pytest.mark.parametrize("tau", [-0.15, -1e-4, 1e-4, 0.3, 2.0])
    def test_matches_finite_differences(self, tau):
        y = np.random.default_rng(5).exponential(1.0, 400)
        other = np.random.default_rng(8).exponential(3.0, 250)
        h = 1e-7 * max(1.0, abs(tau))
        up, down, _ = _block_values(
            _kernels.profile_nll, [(y, (tau + h,)), (y, (tau - h,)), (other, (0.1,))]
        )
        (deriv, _), _ = _block_values(_kernels.profile_nll_deriv, [(y, (tau,)), (other, (-0.1,))])
        assert deriv == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-6)

    def test_zero_tau_limit(self):
        y = np.random.default_rng(6).exponential(1.0, 400)
        left, at0, right = (score for score, _ in _block_values(
            _kernels.profile_nll_deriv, [(y, (-1e-10,)), (y, (0.0,)), (y, (1e-10,))]
        ))
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
]


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("tail,regime,min_exc", TAILS)
    def test_every_candidate_and_the_diagnostics_agree(self, tail, regime, min_exc):
        _, want_diag, want_fits = scalar_oracle.scan(tail, regime=regime, min_exceedances=min_exc)
        candidates = candidate_thresholds(tail, min_exc)
        got_fits = list(fit_samples(tail[tail > u] - u for u in candidates))
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


# Scans whose blocks are cut by the row cap (390 candidates of up to 399
# points) and by nothing (4 candidates of about 10,000 points each).
CAPPED = (gpd_sample(GpdParams(0.2, 1.0), 400, seed=9), 10)
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


def test_a_block_takes_96_candidates_however_long(monkeypatch):
    sizes = _block_sizes(monkeypatch)
    tail, min_exc = LONG
    scan_thresholds(tail, min_exceedances=min_exc)
    assert sizes == [4]
    sizes.clear()
    tail, min_exc = CAPPED
    scan_thresholds(tail, min_exceedances=min_exc)
    assert sizes == [96, 96, 96, 96, 6]


def test_the_data_buffer_caps_a_block_of_long_samples():
    rows = _kernels.Rows()
    sample = np.ones(_kernels.BLOCK_ELEMENTS)
    for _ in range(7):
        assert rows.has_room(sample.size)
        rows.add(sample)
    assert not rows.has_room(sample.size)
    rows.clear()
    assert rows.has_room(7 * _kernels.BLOCK_ELEMENTS)


def test_one_row_blocks_give_the_same_scan(monkeypatch):
    block_sizes = _block_sizes(monkeypatch)
    default = [scan_thresholds(tail, min_exceedances=m) for tail, m in (CAPPED, LONG)]
    assert max(block_sizes) > 1
    block_sizes.clear()
    monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", 1)
    one_row = [scan_thresholds(tail, min_exceedances=m) for tail, m in (CAPPED, LONG)]
    assert set(block_sizes) == {1}
    assert one_row == default
