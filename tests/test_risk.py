import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potrisk.errors import (
    InvalidCounts,
    InvalidProbability,
    NoExceedances,
    NoSurvivingCandidates,
    NotApplicable,
    ShapeAtOrAboveOne,
    UnknownAlphaLevel,
    ValidationError,
)
from potrisk.excess import candidate_thresholds, mean_excess_theoretical
from potrisk.gof import GofReport, interpolate_criticals
from potrisk.gpd import GpdParams, gpd_sample
from potrisk.risk import (
    HEAVY_TAIL,
    SHORT_TAIL,
    RiskEstimate,
    ThresholdScan,
    ScanDiagnostics,
    _argmax_var,
    expected_shortfall,
    scan_thresholds,
    scan_with_alpha_filter,
    value_at_risk,
)

from helpers import grafted_sample, grafted_true_quantile


class TestValueAtRisk:
    @pytest.mark.parametrize("xi", [1e-310, -1e-310, 5e-324, -5e-324])
    def test_tiny_shape_takes_the_exponential_limit(self, xi):
        # sigma/xi overflows here; u + sigma*ln(n_u/(n*p)) is the limit
        var = value_at_risk(0.7, GpdParams(xi, 2.0), n=100, n_u=25, p=0.01)
        assert var == value_at_risk(0.7, GpdParams(0.0, 2.0), n=100, n_u=25, p=0.01)
        assert var == pytest.approx(0.7 + 2.0 * math.log(25.0), rel=1e-15)

    def test_small_shape_keeps_the_gpd_formula(self):
        xi, sigma, ratio = 1e-300, 2.0, (100 / 25) * 0.01
        want = 0.7 + (sigma / xi) * math.expm1(-xi * math.log(ratio))
        assert value_at_risk(0.7, GpdParams(xi, sigma), n=100, n_u=25, p=0.01) == want

    @pytest.mark.parametrize("xi,sigma", [(0.3, 1.0), (-0.3, 0.5), (0.0, 2.0)])
    def test_p_equal_exceedance_rate_gives_threshold(self, xi, sigma):
        var = value_at_risk(0.7, GpdParams(xi, sigma), n=100, n_u=25, p=0.25)
        assert var == pytest.approx(0.7, abs=1e-12)

    def test_exponential_limit(self):
        var = value_at_risk(0.0, GpdParams(0.0, 1.0), n=50, n_u=50, p=math.exp(-1.0))
        assert var == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_quantile_oracle(self):
        # published tail parameters; n_u/n chosen so roughly 85% of the
        # tail sample exceeds the threshold
        u, xi, sigma = 0.04125, 0.1814, 0.1982
        n, n_u = 358, 305
        params = GpdParams(xi, sigma)
        var = value_at_risk(u, params, n=n, n_u=n_u, p=0.01)
        rng = np.random.default_rng(101)
        size = 400_000
        exceed = rng.random(size) < n_u / n
        body = rng.random(size) * u
        tail = u + np.asarray(gpd_sample(params, size, seed=202))
        sim = np.where(exceed, tail, body)
        empirical = float(np.quantile(sim, 0.99))
        assert var == pytest.approx(empirical, rel=0.02)

    @pytest.mark.parametrize("xi", [-0.4, 0.0, 0.5])
    def test_monotone_nonincreasing_in_p(self, xi):
        params = GpdParams(xi, 1.0)
        ps = np.linspace(0.001, 0.5, 40)
        vars_ = [value_at_risk(1.0, params, 100, 50, p) for p in ps]
        assert all(a >= b - 1e-12 for a, b in zip(vars_, vars_[1:]))

    def test_var_at_least_threshold(self):
        for xi in (-0.4, 0.0, 0.4):
            for p in (0.001, 0.01):
                var = value_at_risk(0.5, GpdParams(xi, 0.2), n=400, n_u=100, p=p)
                assert var >= 0.5  # (n/n_u)*p <= 1 here

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            value_at_risk(0.0, GpdParams(0.1, 1.0), 10, 5, 0.0)

    def test_invalid_counts(self):
        with pytest.raises(InvalidCounts):
            value_at_risk(0.0, GpdParams(0.1, 1.0), 10, 11, 0.01)
        with pytest.raises(InvalidCounts):
            value_at_risk(0.0, GpdParams(0.1, 1.0), 10, 0, 0.01)


class TestExpectedShortfall:
    def test_published_positive_tail_value(self):
        es = expected_shortfall(1.3954, 0.04125, GpdParams(0.1814, 0.1982))
        assert es == pytest.approx(1.9376, abs=5e-4)

    def test_published_negative_tail_value(self):
        es = expected_shortfall(0.5130, 0.26423, GpdParams(-0.3586, 0.1374))
        assert es == pytest.approx(0.5485, abs=5e-4)

    def test_memoryless_case(self):
        assert expected_shortfall(2.0, 0.5, GpdParams(0.0, 0.3)) == pytest.approx(2.3, abs=1e-12)

    def test_shape_at_or_above_one(self):
        with pytest.raises(ShapeAtOrAboveOne):
            expected_shortfall(1.0, 0.5, GpdParams(1.0, 1.0))

    def test_identity_with_mean_excess(self):
        # ES - VaR equals the theoretical mean excess at the VaR level
        rng = np.random.default_rng(4)
        for _ in range(200):
            xi = rng.uniform(-0.8, 0.9)
            sigma = rng.uniform(0.05, 3.0)
            u = rng.uniform(0.0, 2.0)
            n_u = rng.integers(1, 500)
            n = n_u + rng.integers(0, 500)
            p = rng.uniform(1e-4, 0.5)
            params = GpdParams(xi, sigma)
            var = value_at_risk(u, params, int(n), int(n_u), p)
            if var < u or sigma + xi * (var - u) <= 0:
                continue
            es = expected_shortfall(var, u, params)
            assert es - var == pytest.approx(
                mean_excess_theoretical(params, var - u), abs=1e-10
            )

    def test_es_at_least_var(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            xi = rng.uniform(0.0, 0.9)
            sigma = rng.uniform(0.05, 2.0)
            u = rng.uniform(0.0, 1.0)
            var = value_at_risk(u, GpdParams(xi, sigma), 1000, 100, 0.01)
            if var >= u:
                assert expected_shortfall(var, u, GpdParams(xi, sigma)) >= var


def _fake_estimate(u, var, verdict="accept"):
    verdicts = {a: verdict for a in (0.5, 0.25, 0.1, 0.05, 0.025, 0.01, 0.005)}
    gof = GofReport(w2=0.01, a2=0.1, shape_used=0.1, verdicts=verdicts,
                    interpolated_criticals=interpolate_criticals(0.1))
    return RiskEstimate(u=u, params=GpdParams(0.1, 1.0), n=100, n_u=50,
                        p=0.01, var=var, es=var + 1.0, gof=gof)


def _fake_scan(estimates, regime=HEAVY_TAIL):
    diag = ScanDiagnostics(len(estimates), 0, 0, 0, 0, len(estimates))
    return ThresholdScan(tuple(estimates), _argmax_var(estimates), regime, diag)


class TestScan:
    def test_generative_oracle(self):
        # seeded instance of the grafted model; the accepted-fit selection
        # lands near the model's true upper quantile
        x = grafted_sample(seed=0)
        scan = scan_thresholds(x, p=0.01, regime=HEAVY_TAIL)
        assert scan.selected.params.shape > 0
        filtered = scan_with_alpha_filter(scan, 0.05)
        true_q = grafted_true_quantile(0.01)
        assert filtered.var == pytest.approx(true_q, rel=0.10)

    def test_short_tail_regime_on_heavy_sample(self):
        # min_exceedances high enough that every candidate fit is stably
        # positive-shaped, so the short-tail filter discards them all
        x = gpd_sample(GpdParams(0.5, 1.0), 400, seed=50)
        with pytest.raises(NoSurvivingCandidates):
            scan_thresholds(x, p=0.01, regime=SHORT_TAIL, min_exceedances=100)

    def test_tie_break_prefers_smaller_threshold(self):
        estimates = [_fake_estimate(0.5, 2.0), _fake_estimate(0.2, 2.0), _fake_estimate(0.9, 1.0)]
        assert _argmax_var(estimates) == 1

    def test_near_zero_shape_belongs_to_neither_regime(self):
        from potrisk.risk import _sign_matches

        for xi in (5e-9, -5e-9, 0.0):
            assert not _sign_matches(xi, HEAVY_TAIL)
            assert not _sign_matches(xi, SHORT_TAIL)
        assert _sign_matches(2e-8, HEAVY_TAIL)
        assert _sign_matches(-2e-8, SHORT_TAIL)

    def test_input_order_irrelevant(self):
        # thresholds are exact data values; fitted numbers may move by
        # summation round-off only
        x = gpd_sample(GpdParams(0.25, 1.0), 300, seed=60)
        a = scan_thresholds(x, p=0.01, regime=HEAVY_TAIL)
        b = scan_thresholds(np.random.default_rng(0).permutation(x), p=0.01, regime=HEAVY_TAIL)
        assert a.selected.u == b.selected.u
        assert a.selected.var == pytest.approx(b.selected.var, rel=1e-12)
        assert [e.u for e in a.estimates] == [e.u for e in b.estimates]

    def test_estimates_ordered_by_threshold(self):
        x = gpd_sample(GpdParams(0.25, 1.0), 300, seed=61)
        scan = scan_thresholds(x, p=0.01, regime=HEAVY_TAIL)
        us = [e.u for e in scan.estimates]
        assert us == sorted(us)

    def test_short_tail_has_no_gof(self):
        x = gpd_sample(GpdParams(-0.3, 1.0), 400, seed=62)
        scan = scan_thresholds(x, p=0.01, regime=SHORT_TAIL)
        assert all(e.gof is None for e in scan.estimates)
        assert all(e.params.shape < 0 for e in scan.estimates)

    def test_bad_probability(self):
        with pytest.raises(InvalidProbability):
            scan_thresholds([1.0, 2.0, 3.0] * 20, p=1.0, regime=HEAVY_TAIL)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_tail_is_a_validation_error(self, bad):
        x = np.append(gpd_sample(GpdParams(0.2, 1.0), 50, seed=63), bad)
        with pytest.raises(ValidationError, match="finite"):
            scan_thresholds(x, p=0.01, regime=HEAVY_TAIL)

    def test_overflowing_excess_sums_are_fit_errors(self):
        # finite values whose excess sum overflows at every candidate: each
        # row stops with NonConvergence, so nothing survives
        x = gpd_sample(GpdParams(0.2, 1.0), 40, seed=0) * 1e307
        with pytest.raises(NoSurvivingCandidates, match="30 fit errors"):
            scan_thresholds(x, p=0.01, regime=HEAVY_TAIL)

    def test_only_the_overflowing_rows_are_dropped(self):
        x = gpd_sample(GpdParams(-0.3, 1.0), 40, seed=0) * 1e307
        candidates = candidate_thresholds(x, 10)
        with np.errstate(over="ignore"):
            overflowing = sum(not np.isfinite(np.sum(x[x > u] - u)) for u in candidates)
        scan = scan_thresholds(x, p=0.01, regime=SHORT_TAIL)
        assert 0 < overflowing < candidates.size
        assert scan.diagnostics.fit_errors == overflowing
        assert scan.diagnostics.surviving > 0

    def test_candidates_without_exceedances_are_rejected(self):
        x = gpd_sample(GpdParams(0.2, 1.0), 50, seed=64)
        with pytest.raises(NoExceedances):
            scan_thresholds(x, p=0.01, regime=HEAVY_TAIL, min_exceedances=0)


class TestAlphaFilter:
    def test_all_rejected(self):
        scan = _fake_scan([_fake_estimate(0.1, 1.0, verdict="reject")])
        with pytest.raises(NoSurvivingCandidates):
            scan_with_alpha_filter(scan, 0.05)

    def test_single_accepted_wins_regardless_of_rank(self):
        estimates = [_fake_estimate(0.1, 5.0, verdict="reject"),
                     _fake_estimate(0.2, 1.0, verdict="accept")]
        scan = _fake_scan(estimates)
        assert scan_with_alpha_filter(scan, 0.05).var == 1.0

    def test_unfiltered_max_rejected_survivor_returned(self):
        estimates = [_fake_estimate(0.1, 5.0, verdict="reject"),
                     _fake_estimate(0.2, 2.0, verdict="accept"),
                     _fake_estimate(0.3, 1.0, verdict="accept")]
        scan = _fake_scan(estimates)
        assert scan.selected.var == 5.0
        assert scan_with_alpha_filter(scan, 0.05).var == 2.0

    def test_short_tail_not_applicable(self):
        x = gpd_sample(GpdParams(-0.3, 1.0), 400, seed=63)
        scan = scan_thresholds(x, p=0.01, regime=SHORT_TAIL)
        with pytest.raises(NotApplicable):
            scan_with_alpha_filter(scan, 0.05)

    def test_unknown_alpha(self):
        scan = _fake_scan([_fake_estimate(0.1, 1.0)])
        with pytest.raises(UnknownAlphaLevel):
            scan_with_alpha_filter(scan, 0.03)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.one_of(st.just(0.0), st.floats(-0.95, 0.95), st.floats(-1e-300, 1e-300)),
    log_scale=st.floats(-300.0, 300.0),
    n=st.integers(1, 10**6),
    data=st.data(),
)
def test_var_does_not_increase_as_p_increases(shape, log_scale, n, data):
    params = GpdParams(shape, 10.0 ** log_scale)
    n_u = data.draw(st.integers(1, n))
    u = data.draw(st.floats(0.0, 10.0))
    p1, p2 = sorted(data.draw(st.lists(st.floats(1e-12, 1.0 - 1e-12), min_size=2, max_size=2)))
    assert value_at_risk(u, params, n, n_u, p2) <= value_at_risk(u, params, n, n_u, p1)
