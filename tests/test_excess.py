import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potrisk.errors import InvalidParams, NoExceedances, TooFewObservations, ValidationError
from potrisk.excess import (
    candidate_thresholds,
    mean_excess_curve,
    mean_excess_empirical,
    mean_excess_theoretical,
)
from potrisk.gpd import GpdParams, gpd_quantile, gpd_sample


class TestEmpirical:
    def test_zero_threshold_is_sample_mean(self):
        assert mean_excess_empirical([1.0, 2.0, 3.0], 0.0) == (2.0, 3)

    def test_hand_evaluation(self):
        mean, count = mean_excess_empirical([1.0, 2.0, 3.0], 1.5)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert count == 2

    def test_single_exceedance(self):
        assert mean_excess_empirical([5.0], 4.0) == (1.0, 1)

    def test_no_exceedances(self):
        with pytest.raises(NoExceedances):
            mean_excess_empirical([1.0, 2.0], 2.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_positive_whenever_defined(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, 50)
        for u in np.linspace(x.min() - 0.1, x.max() - 1e-9, 23):
            mean, count = mean_excess_empirical(x, u)
            assert mean > 0
            assert count >= 1

    def test_piecewise_linear_slope_minus_one(self):
        # between consecutive order statistics the exceedance set is fixed,
        # so e_n(u) = mean(exceedances) - u exactly
        x = np.array([0.5, 1.0, 2.0, 3.5, 6.0])
        for lo, hi in zip(np.sort(x), np.sort(x)[1:]):
            grid = np.linspace(lo + 1e-9, hi - 1e-9, 50)
            fixed = x[x > grid[0]]
            for u in grid:
                mean, count = mean_excess_empirical(x, u)
                assert count == fixed.size
                assert mean == pytest.approx(float(np.mean(fixed)) - u, abs=1e-12)


class TestTheoretical:
    def test_memoryless_exponential(self):
        assert mean_excess_theoretical(GpdParams(0.0, 2.0), 5.0) == 2.0

    def test_heavy_tail(self):
        assert mean_excess_theoretical(GpdParams(0.2, 1.0), 1.0) == pytest.approx(1.5, abs=1e-12)

    def test_short_tail(self):
        assert mean_excess_theoretical(GpdParams(-0.5, 1.0), 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_shape_at_or_above_one(self):
        with pytest.raises(InvalidParams):
            mean_excess_theoretical(GpdParams(1.0, 1.0), 0.5)

    def test_outside_support(self):
        with pytest.raises(InvalidParams):
            mean_excess_theoretical(GpdParams(-0.5, 1.0), 2.5)


class TestCandidates:
    def test_counting(self):
        np.testing.assert_array_equal(
            candidate_thresholds([1.0, 2.0, 3.0, 4.0, 5.0], 2), [1.0, 2.0, 3.0]
        )

    def test_all_equal(self):
        assert candidate_thresholds([4.0, 4.0, 4.0], 1).size == 0

    def test_counting_bound(self):
        rng = np.random.default_rng(0)
        x = rng.exponential(1.0, 358)
        assert candidate_thresholds(x, 10).size <= 348

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            candidate_thresholds([1.0, 2.0], 2)

    def test_ties_counted_per_observation(self):
        out = candidate_thresholds([1.0, 1.0, 2.0, 3.0], 2)
        np.testing.assert_array_equal(out, [1.0])


class TestCurve:
    def test_three_distinct_values(self):
        curve = mean_excess_curve([1.0, 2.0, 3.0])
        assert len(curve) == 2
        np.testing.assert_allclose(curve.thresholds, [1.0, 2.0])

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            mean_excess_curve([1.0, 2.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(seed)
        curve = mean_excess_curve(rng.exponential(1.0, 200))
        assert np.all(np.diff(curve.thresholds) > 0)
        assert np.all(np.diff(curve.counts) <= 0)
        assert np.all(curve.counts >= 1)
        assert np.all(curve.mean_excesses > 0)

    def test_heavy_tail_slope(self):
        # least-squares slope approximates shape/(1-shape) away from the
        # noisy top thresholds
        x = gpd_sample(GpdParams(0.3, 1.0), 5000, seed=12)
        curve = mean_excess_curve(x)
        keep = curve.thresholds <= np.quantile(curve.thresholds, 0.95)
        slope = np.polyfit(curve.thresholds[keep], curve.mean_excesses[keep], 1)[0]
        assert slope == pytest.approx(0.3 / 0.7, abs=0.1)

    def test_short_tail_slope_negative(self):
        x = gpd_sample(GpdParams(-0.4, 1.0), 5000, seed=13)
        curve = mean_excess_curve(x)
        keep = curve.thresholds <= np.quantile(curve.thresholds, 0.95)
        slope = np.polyfit(curve.thresholds[keep], curve.mean_excesses[keep], 1)[0]
        assert slope < 0

    @pytest.mark.parametrize("m", [200, 2000])
    def test_matches_theoretical_on_quantile_grid(self, m):
        # deterministic grid of exact GPD quantiles; discretization error
        # shrinks as the grid densifies
        params = GpdParams(0.2, 1.0)
        grid = gpd_quantile(params, (np.arange(m) + 0.5) / m)
        tol = 0.2 if m == 200 else 0.05
        for u in (0.5, 1.0, 2.0):
            mean, _ = mean_excess_empirical(grid, u)
            theory = mean_excess_theoretical(params, u)
            assert mean == pytest.approx(theory, rel=tol)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_a_validation_error(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            mean_excess_curve([1.0, 2.0, bad, 3.0])

    @pytest.mark.parametrize("k", [-1000, -1, 3, 1019])
    def test_a_power_of_two_scaling_scales_the_curve_bit_for_bit(self, k):
        x = gpd_sample(GpdParams(0.2, 1.0), 40, seed=0) - 1.0
        scaled = np.ldexp(x, k)
        if k == 1019:  # the excess sum past the largest double, but no mean excess
            assert not math.isfinite(sum((scaled - scaled.min()).tolist()))
        want, got = mean_excess_curve(x), mean_excess_curve(scaled)
        assert got.thresholds.tobytes() == np.ldexp(want.thresholds, k).tobytes()
        assert got.mean_excesses.tobytes() == np.ldexp(want.mean_excesses, k).tobytes()
        assert got.counts.tolist() == want.counts.tolist()

    def test_a_range_past_the_largest_double_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="finite range"):
            mean_excess_curve([-1e308, 0.0, 1e308])


@st.composite
def _gpd_samples(draw, shapes, sizes=st.integers(3, 2000)):
    params = GpdParams(draw(shapes), 1.0)
    return gpd_sample(params, draw(sizes), draw(st.integers(0, 2**32 - 1)))


@st.composite
def _near_constant_samples(draw):
    base = draw(st.floats(0.1, 1e6))
    steps = draw(st.lists(st.integers(0, 8), min_size=3, max_size=300))
    return base + np.spacing(base) * np.array(steps, dtype=float)


# Both signs, down to zero and subnormal shapes.
_MIXED_SHAPES = st.floats(-0.5, 0.6)

_SAMPLES = {
    "tied": st.lists(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.25, 7.0]), min_size=3, max_size=300
    ).map(np.array),
    "rounded_gpd": _gpd_samples(_MIXED_SHAPES).map(lambda x: np.round(x, 1)),
    "near_constant": _near_constant_samples(),
    "offset_1e6": _gpd_samples(_MIXED_SHAPES).map(lambda x: x + 1e6),
    "heavy_tail": _gpd_samples(st.floats(0.0, 0.95, exclude_min=True)),
    "short_tail": _gpd_samples(st.floats(-0.95, 0.0, exclude_max=True)),
}


@pytest.mark.parametrize("family", sorted(_SAMPLES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_curve_matches_direct_formula(family, data):
    # every row of the sorted, gap-summed curve against the direct
    # mean(x[x > u] - u): thresholds and counts exactly, means to 1e-12
    x = data.draw(_SAMPLES[family])
    curve = mean_excess_curve(x)
    np.testing.assert_array_equal(curve.thresholds, candidate_thresholds(x, 1))
    for u, mean, count in zip(curve.thresholds, curve.mean_excesses, curve.counts):
        direct, direct_count = mean_excess_empirical(x, u)
        assert count == direct_count
        assert abs(mean - direct) <= 1e-12 * direct, (u, mean, direct)
