import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import genpareto

from potrisk.errors import (
    DegenerateSample,
    InvalidParams,
    InvalidProbability,
    NoExceedances,
    NonConvergence,
    PotriskError,
    TooFewExceedances,
    ValidationError,
)
from potrisk.excess import candidate_thresholds
from potrisk.gpd import (
    ExcessSample,
    GpdParams,
    fit_mle,
    fit_samples,
    gpd_cdf,
    gpd_log_likelihood,
    gpd_quantile,
    gpd_sample,
)
from potrisk.risk import HEAVY_TAIL, SHORT_TAIL, scan_thresholds

from helpers import gpd_logpdf_direct, ks_distance


class TestParams:
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_scale(self, scale):
        with pytest.raises(InvalidParams):
            GpdParams(shape=0.1, scale=scale)

    def test_support_upper(self):
        assert GpdParams(-0.5, 1.0).support_upper == 2.0
        assert GpdParams(0.2, 1.0).support_upper == math.inf


class TestCdf:
    def test_lower_endpoint(self):
        for xi in (-0.4, 0.0, 0.3):
            assert gpd_cdf(GpdParams(xi, 1.0), 0.0) == 0.0

    def test_exponential_special_case(self):
        assert gpd_cdf(GpdParams(0.0, 1.0), 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_direct_evaluation(self):
        # 1 - (1 + 0.2*2/1)^(-1/0.2) computed independently
        expected = 1.0 - 1.4 ** -5.0
        assert gpd_cdf(GpdParams(0.2, 1.0), 2.0) == pytest.approx(expected, abs=1e-12)

    def test_beyond_upper_endpoint(self):
        assert gpd_cdf(GpdParams(-0.5, 1.0), 2.5) == 1.0

    def test_negative_argument_maps_to_zero(self):
        assert gpd_cdf(GpdParams(0.2, 1.0), -0.5) == 0.0

    @pytest.mark.parametrize("xi", [-0.4, 0.0, 0.3])
    def test_nondecreasing_and_zero_at_origin(self, xi):
        params = GpdParams(xi, 1.3)
        hi = params.support_upper if xi < 0 else 20.0
        y = np.linspace(0.0, hi, 500)
        vals = gpd_cdf(params, y)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("xi", [1e-8, -1e-8])
    def test_continuity_at_shape_zero(self, xi):
        sigma = 0.7
        y = np.linspace(0.0, 10.0 * sigma, 1000)
        d = np.abs(gpd_cdf(GpdParams(xi, sigma), y) - gpd_cdf(GpdParams(0.0, sigma), y))
        assert d.max() < 1e-6

    def test_matches_scipy(self):
        y = np.linspace(0.0, 5.0, 100)
        for xi in (-0.3, 0.15, 0.6):
            mine = gpd_cdf(GpdParams(xi, 1.2), y)
            ref = genpareto.cdf(y, xi, scale=1.2)
            np.testing.assert_allclose(mine, ref, atol=1e-12)


class TestQuantile:
    def test_zero(self):
        assert gpd_quantile(GpdParams(0.3, 2.0), 0.0) == 0.0

    def test_exponential_inverse(self):
        q = 1.0 - math.exp(-1.0)
        assert gpd_quantile(GpdParams(0.0, 2.0), q) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("xi", [-0.4, 0.0, 0.3])
    def test_round_trip(self, xi):
        params = GpdParams(xi, 1.0)
        hi = 0.99 * params.support_upper if xi < 0 else 8.0
        for y in np.linspace(0.01, hi, 50):
            assert gpd_quantile(params, gpd_cdf(params, y)) == pytest.approx(y, abs=1e-10)

    @pytest.mark.parametrize("xi", [1e-310, -1e-310, 5e-324, -5e-324])
    def test_tiny_shape_takes_the_exponential_limit(self, xi):
        # sigma/xi overflows here, so the GPD formula would give inf or nan
        params = GpdParams(xi, 1.0)
        assert gpd_quantile(params, 0.5) == pytest.approx(math.log(2.0), rel=1e-15)
        assert gpd_quantile(params, 0.0) == 0.0
        draws = gpd_sample(params, 50, seed=4)
        np.testing.assert_array_equal(draws, gpd_sample(GpdParams(0.0, 1.0), 50, seed=4))

    def test_small_shape_keeps_the_gpd_formula(self):
        # sigma/xi is finite, so the result is the formula's, bit for bit
        xi, sigma, q = 1e-300, 2.0, np.array([0.1, 0.5, 0.99])
        want = (sigma / xi) * np.expm1(-xi * np.log1p(-q))
        np.testing.assert_array_equal(gpd_quantile(GpdParams(xi, sigma), q), want)

    @pytest.mark.parametrize("q", [-0.1, 1.0, 1.5, math.nan])
    def test_invalid_probability(self, q):
        with pytest.raises(InvalidProbability):
            gpd_quantile(GpdParams(0.1, 1.0), q)


class TestSample:
    def test_deterministic(self):
        params = GpdParams(0.2, 1.0)
        a = gpd_sample(params, 100, seed=42)
        b = gpd_sample(params, 100, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_bounded_support(self):
        samples = gpd_sample(GpdParams(-0.5, 1.0), 5000, seed=1)
        assert np.all(samples <= 2.0)

    def test_ks_distance_to_cdf(self):
        params = GpdParams(0.2, 1.0)
        samples = gpd_sample(params, 10_000, seed=7)
        assert ks_distance(samples, lambda y: gpd_cdf(params, y)) < 0.02

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            gpd_sample(GpdParams(0.2, 1.0), 0, seed=1)


class TestExcessSample:
    def test_from_sample(self):
        s = ExcessSample.from_sample([1.0, 2.0, 5.0], threshold=1.5)
        assert s.n == 3
        assert s.n_u == 2
        np.testing.assert_allclose(np.sort(s.excesses), [0.5, 3.5])

    def test_from_sample_no_exceedances(self):
        with pytest.raises(NoExceedances):
            ExcessSample.from_sample([1.0, 2.0], threshold=5.0)

    def test_rejects_nonpositive_excess(self):
        with pytest.raises(ValidationError):
            ExcessSample(threshold=0.0, excesses=np.array([1.0, 0.0]), n=5)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_excess(self, bad):
        with pytest.raises(ValidationError):
            ExcessSample(threshold=0.0, excesses=np.array([1.0, bad]), n=5)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            ExcessSample(threshold=0.0, excesses=np.array([1.0, 2.0]), n=1)


class TestFitMle:
    def _sample(self, xi, sigma, n, seed):
        y = gpd_sample(GpdParams(xi, sigma), n, seed=seed)
        return ExcessSample(threshold=0.0, excesses=y, n=n)

    def test_recovery_heavy(self):
        fit = fit_mle(self._sample(0.2, 1.0, 5000, seed=42))
        assert 0.15 <= fit.params.shape <= 0.25
        assert 0.95 <= fit.params.scale <= 1.05
        assert fit.converged

    def test_recovery_short(self):
        fit = fit_mle(self._sample(-0.35, 0.14, 5000, seed=43))
        assert -0.40 <= fit.params.shape <= -0.30

    def test_grid_oracle_no_larger_likelihood(self):
        sample = self._sample(0.2, 1.0, 2000, seed=11)
        fit = fit_mle(sample)
        xi_hat, sg_hat = fit.params.shape, fit.params.scale
        best = gpd_logpdf_direct(sample.excesses, xi_hat, sg_hat)
        xis = np.linspace(0.9 * xi_hat, 1.1 * xi_hat, 100)
        sgs = np.linspace(0.9 * sg_hat, 1.1 * sg_hat, 100)
        grid_best = max(
            gpd_logpdf_direct(sample.excesses, xi, sg) for xi in xis for sg in sgs
        )
        assert grid_best <= best + 1e-9

    def test_log_likelihood_field_matches_function(self):
        sample = self._sample(0.1, 1.0, 500, seed=3)
        fit = fit_mle(sample)
        assert fit.log_likelihood == pytest.approx(
            gpd_log_likelihood(fit.params, sample.excesses), abs=1e-9
        )

    def test_matches_or_beats_scipy(self):
        for seed, xi in [(1, -0.3), (2, 0.0), (3, 0.4)]:
            sample = self._sample(xi, 1.0, 3000, seed=seed)
            fit = fit_mle(sample)
            c, _, sc = genpareto.fit(sample.excesses, floc=0)
            ll_scipy = gpd_logpdf_direct(sample.excesses, c, sc)
            assert fit.log_likelihood >= ll_scipy - 1e-6

    @pytest.mark.parametrize("xi_true", [-0.4, 0.0, 0.3])
    def test_score_vanishes_at_optimum(self, xi_true):
        # central finite differences with step 1e-6; interior optima only
        sample = self._sample(xi_true, 1.0, 2000, seed=17)
        fit = fit_mle(sample)
        if fit.boundary_hit:
            pytest.skip("boundary optimum")
        xi, sg = fit.params.shape, fit.params.scale
        h = 1e-6
        y = sample.excesses
        g_xi = (gpd_log_likelihood(GpdParams(xi + h, sg), y)
                - gpd_log_likelihood(GpdParams(xi - h, sg), y)) / (2 * h)
        g_sg = (gpd_log_likelihood(GpdParams(xi, sg + h), y)
                - gpd_log_likelihood(GpdParams(xi, sg - h), y)) / (2 * h)
        assert math.hypot(g_xi, g_sg) < 1e-4

    def test_permutation_invariance(self):
        sample = self._sample(0.2, 1.0, 800, seed=5)
        fit1 = fit_mle(sample)
        rng = np.random.default_rng(0)
        shuffled = ExcessSample(0.0, rng.permutation(sample.excesses), n=sample.n)
        fit2 = fit_mle(shuffled)
        assert abs(fit1.params.shape - fit2.params.shape) < 1e-12
        assert abs(fit1.params.scale - fit2.params.scale) < 1e-12

    @pytest.mark.parametrize("c", [0.1, 10.0, 1e-300, 1e-200, 1e-100, 1e100, 1e200, 1e300])
    def test_scale_equivariance(self, c):
        # heavy, short and exponential samples; fitting c*y gives (xi, c*sigma)
        for xi, n, seed in [(0.15, 1500, 9), (-0.3, 400, 7), (0.0, 600, 5)]:
            sample = self._sample(xi, 1.0, n, seed=seed)
            fit1 = fit_mle(sample)
            fit2 = fit_mle(ExcessSample(0.0, c * sample.excesses, n=sample.n))
            assert fit2.params.shape == pytest.approx(fit1.params.shape, rel=1e-12, abs=0.0)
            assert fit2.params.scale / c == pytest.approx(fit1.params.scale, rel=1e-12, abs=0.0)
            assert (fit2.converged, fit2.boundary_hit) == (fit1.converged, fit1.boundary_hit)

    @pytest.mark.parametrize("c", [1e-301, 1e-310])
    def test_a_mean_below_1e_300_fits_without_a_warning(self, c):
        # 1e8/mean overflows in the tau grid, and for a subnormal maximum so
        # does its feasibility edge; the search drops those points as non-finite
        fit = fit_mle(ExcessSample(0.0, gpd_sample(GpdParams(0.0, 1.0), 40, 0) * c, 40))
        assert math.isfinite(fit.params.shape) and math.isfinite(fit.log_likelihood)
        assert 0.1 * c < fit.params.scale < 10.0 * c

    def test_too_few_exceedances(self):
        with pytest.raises(TooFewExceedances):
            fit_mle(ExcessSample(0.0, np.linspace(0.1, 1.0, 9), n=9))

    def test_min_size_configurable(self):
        fit = fit_mle(ExcessSample(0.0, np.linspace(0.1, 1.0, 9), n=9), min_exceedances=5)
        assert fit.converged

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSample):
            fit_mle(ExcessSample(0.0, np.full(20, 0.4), n=20))

    def test_overflowing_excess_sum(self):
        excesses = np.linspace(1.0, 1.7, 20) * 1e308
        assert np.all(np.isfinite(excesses))
        with pytest.raises(NonConvergence, match="overflows"):
            fit_mle(ExcessSample(0.0, excesses, n=20))

    def test_log_likelihood_of_huge_excesses(self):
        # y*y overflows when the sample is loaded; the likelihood does not use it
        y = np.array([1e200, 2e200, 3e200])
        want = -3.0 * math.log(1e200) - 11.0 * float(np.log1p(0.1 * y / 1e200).sum())
        assert gpd_log_likelihood(GpdParams(0.1, 1e200), y) == pytest.approx(want, rel=1e-14)

    def test_feasibility_at_optimum(self):
        sample = self._sample(-0.45, 1.0, 300, seed=21)
        fit = fit_mle(sample)
        if fit.converged:
            assert fit.params.scale + fit.params.shape * sample.excesses.max() > 0

    def test_exponential_data_scale_near_mean(self):
        # at shape zero the ML scale is the sample mean
        sample = self._sample(0.0, 2.0, 5000, seed=30)
        fit = fit_mle(sample)
        assert abs(fit.params.shape) < 0.05
        assert fit.params.scale == pytest.approx(2.0, rel=0.06)


@st.composite
def _tied_or_near_constant(draw):
    """A tail of a few repeated values, or of values within 1e-15 to 1e-6 relative of each other."""
    base = draw(st.floats(1e-6, 1e6))
    size = draw(st.integers(12, 60))
    if draw(st.booleans()):
        levels = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4)))
        which = draw(st.lists(st.integers(0, levels.size - 1), min_size=size, max_size=size))
        return base * (1.0 + levels[which])
    spread = draw(st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6]))
    steps = np.array(draw(st.lists(st.integers(0, 1000), min_size=size, max_size=size)), dtype=float)
    return base * (1.0 + spread * steps)


@settings(max_examples=60, deadline=None)
@given(tail=_tied_or_near_constant())
def test_fits_on_tied_and_near_constant_tails_are_sane(tail):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            candidates = candidate_thresholds(tail, 3)
        except PotriskError:
            return
        for fit in fit_samples(tail[tail > u] - u for u in candidates):
            if isinstance(fit, PotriskError):
                continue
            values = (fit.params.shape, fit.params.scale, fit.log_likelihood)
            assert all(math.isfinite(v) for v in values), fit
            assert fit.converged, fit
        for regime in (HEAVY_TAIL, SHORT_TAIL):
            try:
                scan_thresholds(tail, regime=regime, min_exceedances=3)
            except PotriskError:
                pass
