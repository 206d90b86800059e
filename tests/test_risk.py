import dataclasses
import math
import re
import sys

import mpmath

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
    TooFewObservations,
    UnknownAlphaLevel,
    ValidationError,
)
from potrisk.excess import candidate_thresholds, mean_excess_theoretical
from potrisk import bundled_data_path, risk
from potrisk.gof import ACCEPT
from potrisk.gpd import GpdParams, gpd_quantile, gpd_sample
from potrisk.report import AnalysisConfig
from potrisk.risk import (
    HEAVY_TAIL,
    SHORT_TAIL,
    ThresholdScan,
    ScanDiagnostics,
    expected_shortfall,
    scan_thresholds,
    scan_with_alpha_filter,
    value_at_risk,
)
from potrisk.series import compute_returns, read_earnings_csv, split_by_period, split_by_sign

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

    @pytest.mark.parametrize("u,params,n,n_u,p", [
        pytest.param(0.0, GpdParams(2.0, 1e-300), 10, 10, 1e-300, id="heavy_tail"),
        pytest.param(1.0, GpdParams(-60.0, 1e-100), 10**6, 1, 0.5, id="short_tail"),
        # the exp of the product's log in units of 2**e overflows, the VaR does not
        pytest.param(
            0.0, GpdParams(2.096178345261734, math.ldexp(1.8602441027374532, -994)), 1, 1, 1.8065959017578687e-264,
            id="exp_overflows",
        ),
    ])
    def test_a_var_whose_power_overflows_is_the_40_digit_value(self, u, params, n, n_u, p):
        # ((n/n_u) * p)^(-xi) is past the double range, (sigma/xi) times it is not
        xi, sigma = params.shape, params.scale
        assert abs(xi * math.log((n / n_u) * p)) > math.log(sys.float_info.max)
        with mpmath.workdps(40):
            ratio = mpmath.mpf(n) / n_u * mpmath.mpf(p)
            want = float(u + mpmath.mpf(sigma) / xi * (ratio ** -mpmath.mpf(xi) - 1))
        assert value_at_risk(u, params, n, n_u, p) == pytest.approx(want, rel=1e-12)

    def test_a_var_whose_power_overflows_scales_with_sigma(self):
        xi, sigma, p = 2.096178345261734, math.ldexp(1.8602441027374532, -994), 1.8065959017578687e-264
        var = value_at_risk(0.0, GpdParams(xi, sigma), 1, 1, p)
        assert value_at_risk(0.0, GpdParams(xi, math.ldexp(sigma, -5)), 1, 1, p) == math.ldexp(var, -5)

    def test_a_var_whose_ratio_is_subnormal_is_the_40_digit_value(self):
        # (n/n_u) * p is subnormal, so the product has lost about 7 of its digits
        n, n_u, p = 1000, 7, 1e-320
        assert 0.0 < (n / n_u) * p < sys.float_info.min
        with mpmath.workdps(40):
            want = float(2 * ((mpmath.mpf(n) / n_u * mpmath.mpf(p)) ** -mpmath.mpf(0.5) - 1))
        assert value_at_risk(0.0, GpdParams(0.5, 1.0), n, n_u, p) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("u,params,n,n_u,p,rel", [
        # sigma/xi is past the double range, the VaR is not
        pytest.param(0.0, GpdParams(0.8, 1.5e308), 1000, 100, 0.05, 1e-14, id="heavy_tail"),
        pytest.param(0.0, GpdParams(-0.5, 1e308), 1000, 100, 0.01, 1e-14, id="short_tail"),
        # the power minus one times m/xi, sigma = m * 2**-5, is past the double
        # range; the power's exponent, about 709.8, is good to about 1e-13
        pytest.param(0.0, GpdParams(0.96, 0.99 * 2.0**-5), 10, 10, 163 * 5e-324, 1e-12, id="subnormal_p"),
    ])
    def test_a_var_near_the_top_of_the_double_range_is_the_40_digit_value(self, u, params, n, n_u, p, rel):
        xi, sigma = params.shape, params.scale
        with mpmath.workdps(40):
            ratio = mpmath.mpf(n) / n_u * mpmath.mpf(p)
            want = float(u + mpmath.mpf(sigma) / xi * (ratio ** -mpmath.mpf(xi) - 1))
        assert value_at_risk(u, params, n, n_u, p) == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("u,params,n,n_u,p", [
        pytest.param(0.5, GpdParams(2.0, 1.0), 200, 20, 1e-300, id="expm1_overflows"),
        pytest.param(1e305, GpdParams(0.6, 1e307), 40, 40, 0.001, id="product_overflows"),
        pytest.param(1.0, GpdParams(0.0, 1e308), 100, 10, 1e-300, id="exponential_limit"),
        pytest.param(1.0, GpdParams(-0.5, 1e308), 10**6, 1, 0.5, id="below_the_range"),
        # the power is below one, its product with sigma/xi is past the double range
        pytest.param(0.0, GpdParams(-0.04, 1e308), 10, 10, 1e-31, id="ldexp_overflows"),
    ])
    def test_a_var_beyond_the_double_range_is_a_validation_error(self, u, params, n, n_u, p):
        with pytest.raises(ValidationError, match=re.escape(f"the VaR at u={u}, p={p} is not a finite double")):
            value_at_risk(u, params, n, n_u, p)


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

    @pytest.mark.parametrize("var,u,params", [
        pytest.param(1e308, 0.5, GpdParams(0.9, 1.0), id="above"),
        pytest.param(-1.7e308, 1e308, GpdParams(0.5, 1.0), id="below"),
    ])
    def test_a_shortfall_beyond_the_double_range_is_a_validation_error(self, var, u, params):
        with pytest.raises(ValidationError, match=re.escape(f"at u={u}, VaR {var} is not a finite double")):
            expected_shortfall(var, u, params)

    def test_a_shortfall_whose_numerator_overflows_is_the_40_digit_value(self):
        # var + sigma is past the double range, the shortfall is not
        u, xi, sigma, n, n_u, p = 0.0, -0.5, 0.8e308, 1000, 100, 0.01
        params = GpdParams(xi, sigma)
        var = value_at_risk(u, params, n, n_u, p)
        assert not math.isfinite(var + sigma)
        with mpmath.workdps(40):
            ratio = mpmath.mpf(n) / n_u * mpmath.mpf(p)
            exact_var = u + mpmath.mpf(sigma) / xi * (ratio ** -mpmath.mpf(xi) - 1)
            want = float((exact_var + sigma - u * xi) / (1 - mpmath.mpf(xi)))
        assert expected_shortfall(var, u, params) == pytest.approx(want, rel=1e-14)

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


def _fake_scan(rows, regime=HEAVY_TAIL):
    """A scan of (u, var, accepted) rows, accepted at every level or rejected at every one."""
    u, var, accepted = (np.array(c) for c in zip(*rows))
    size = u.size
    return ThresholdScan(
        regime, ScanDiagnostics(size, 0, 0, 0, 0, size), int(np.argmax(var)), 100, 0.01,
        u=u, shape=np.full(size, 0.1), scale=np.ones(size), n_u=np.full(size, 50), var=var, es=var + 1.0,
        has_es=np.ones(size, dtype=bool), w2=np.full(size, 0.01), a2=np.full(size, 0.1), codes=np.where(accepted, 7, 0),
    )


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

    def test_tie_break_prefers_smaller_threshold(self, monkeypatch):
        # every VaR ties, so the selection and the alpha filter each take their smallest threshold
        monkeypatch.setattr(risk, "_value_at_risk", lambda *args: 2.0)
        scan = scan_thresholds(gpd_sample(GpdParams(0.25, 1.0), 300, seed=61), p=0.01, regime=HEAVY_TAIL)
        us = [e.u for e in scan.estimates]
        accepted = [e.u for e in scan.estimates if e.gof.verdicts[0.05] == ACCEPT]
        assert len(accepted) < len(us)
        assert scan.selected.u == min(us) and scan.selected.var == 2.0
        assert scan_with_alpha_filter(scan, 0.05).u == min(accepted)

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

    @pytest.mark.parametrize("xi,regime", [(0.2, HEAVY_TAIL), (-0.3, SHORT_TAIL)], ids=["heavy", "short"])
    def test_tails_whose_excess_sums_overflow_fit(self, xi, regime):
        # finite values whose excess sum overflows at every candidate (heavy)
        # or at half of them (short); each fit runs in units of its
        # sample's maximum, so the scan is that of the unscaled tail
        x = gpd_sample(GpdParams(xi, 1.0), 40, seed=0)
        big = x * 1e307
        candidates = candidate_thresholds(big, 10)
        overflowing = sum(not math.isfinite(sum((big[big > u] - u).tolist())) for u in candidates)
        assert overflowing == (30 if xi > 0.0 else 15)
        want, got = (scan_thresholds(tail, p=0.01, regime=regime) for tail in (x, big))
        assert (got.diagnostics.candidates_total, got.diagnostics.surviving) == (
            want.diagnostics.candidates_total, want.diagnostics.surviving
        )
        assert got.selected.params.shape == pytest.approx(want.selected.params.shape, rel=1e-9)
        assert got.selected.var == pytest.approx(1e307 * want.selected.var, rel=1e-9)

    def test_a_survivor_without_a_finite_shortfall_has_none(self):
        # the heavy tail above: its maximal VaR is finite, but some of its
        # shortfalls are beyond the double range
        big = gpd_sample(GpdParams(0.2, 1.0), 40, seed=0) * 1e307
        scan = scan_thresholds(big, p=0.01, regime=HEAVY_TAIL)
        missing = [e for e in scan.estimates if e.es is None]
        assert missing and all(e.params.shape < 1.0 for e in missing)
        for e in missing:
            with pytest.raises(ValidationError, match="not a finite double"):
                expected_shortfall(e.var, e.u, e.params)
        assert all(math.isfinite(e.var) for e in scan.estimates)

    @pytest.mark.parametrize("k", [7, -9])
    def test_a_tail_times_a_power_of_two_scales_its_scan_bit_for_bit(self, k):
        # every u, scale, VaR and shortfall times 2**k; every shape, W², A²,
        # verdict code, count and the selection the same
        config = AnalysisConfig.from_json(bundled_data_path("synthetic_config.json"))
        returns = compute_returns(read_earnings_csv(bundled_data_path("synthetic_weekends.csv")))
        gains = split_by_sign(split_by_period(returns, config.periods)[0]).positive.values
        want = scan_thresholds(gains, min_exceedances=config.min_exceedances)
        got = scan_thresholds(np.ldexp(gains, k), min_exceedances=config.min_exceedances)
        scaled = {name: np.ldexp(getattr(want, name), k) for name in ("u", "scale", "var", "es")}
        assert want.u.size > 100
        assert got == dataclasses.replace(want, **scaled)

    def test_candidates_without_exceedances_are_rejected(self):
        x = gpd_sample(GpdParams(0.2, 1.0), 50, seed=64)
        with pytest.raises(NoExceedances):
            scan_thresholds(x, p=0.01, regime=HEAVY_TAIL, min_exceedances=0)

    @pytest.mark.parametrize("min_exceedances", [0, -1])
    def test_an_empty_tail_has_too_few_observations(self, min_exceedances):
        with pytest.raises(TooFewObservations):
            scan_thresholds(np.array([]), min_exceedances=min_exceedances)


class TestAlphaFilter:
    def test_all_rejected(self):
        scan = _fake_scan([(0.1, 1.0, False)])
        with pytest.raises(NoSurvivingCandidates):
            scan_with_alpha_filter(scan, 0.05)

    def test_single_accepted_wins_regardless_of_rank(self):
        scan = _fake_scan([(0.1, 5.0, False), (0.2, 1.0, True)])
        assert scan_with_alpha_filter(scan, 0.05).var == 1.0

    def test_unfiltered_max_rejected_survivor_returned(self):
        scan = _fake_scan([(0.1, 5.0, False), (0.2, 2.0, True), (0.3, 1.0, True)])
        assert scan.selected.var == 5.0
        assert scan_with_alpha_filter(scan, 0.05).var == 2.0

    def test_short_tail_not_applicable(self):
        x = gpd_sample(GpdParams(-0.3, 1.0), 400, seed=63)
        scan = scan_thresholds(x, p=0.01, regime=SHORT_TAIL)
        with pytest.raises(NotApplicable):
            scan_with_alpha_filter(scan, 0.05)

    def test_unknown_alpha(self):
        scan = _fake_scan([(0.1, 1.0, True)])
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
    assert _var_or_infinity(u, params, n, n_u, p2) <= _var_or_infinity(u, params, n, n_u, p1)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.one_of(st.just(0.0), st.floats(-3.0, 3.0), st.floats(-1e-300, 1e-300)),
    mantissa=st.floats(0.5, 1.0, exclude_max=True),
    exponent=st.integers(-1021, 1024),
    n=st.integers(1, 10**6),
    data=st.data(),
)
def test_the_closed_forms_scale_with_sigma_bit_for_bit(shape, mantissa, exponent, n, data):
    """Quantile, VaR (u = 0) and shortfall at sigma * 2**k are those at sigma times 2**k, while all are normal.

    Also where the power ((n/n_u)*p)^-xi is past the double range, and the
    VaR takes its fallback.
    """
    k = data.draw(st.integers(-1021 - exponent, 1024 - exponent))  # so that sigma * 2**k is normal too
    sigma = math.ldexp(mantissa, exponent)
    n_u = data.draw(st.integers(1, n))
    p = data.draw(st.floats(5e-324, 1.0, exclude_max=True))
    q = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    want = [_scaled_normal(x, k) for x in _closed_forms(shape, sigma, n, n_u, p, q)]
    if want[1] is None:  # a shortfall is scaled exactly only from a normal VaR
        want[2] = None
    got = _closed_forms(shape, math.ldexp(sigma, k), n, n_u, p, q)
    assert [g for g, w in zip(got, want) if w is not None] == [w for w in want if w is not None]


def _closed_forms(shape, sigma, n, n_u, p, q):
    """gpd_quantile at q, value_at_risk at u = 0 and its expected_shortfall, each None where it raises."""
    params = GpdParams(shape, sigma)
    with np.errstate(over="ignore"):  # a quantile past the double range is inf, and not checked
        quantile = gpd_quantile(params, q)
    try:
        var = value_at_risk(0.0, params, n, n_u, p)
    except ValidationError:
        return quantile, None, None
    try:
        return quantile, var, expected_shortfall(var, 0.0, params)
    except ValidationError:
        return quantile, var, None


def _scaled_normal(x, k):
    """x * 2**k where x and it are normal doubles, else None."""
    if x is None or not (math.isfinite(x) and abs(x) >= sys.float_info.min):
        return None
    try:
        y = math.ldexp(x, k)
    except OverflowError:
        return None
    return y if abs(y) >= sys.float_info.min else None


def _var_or_infinity(u, params, n, n_u, p):
    """value_at_risk, or the infinity on its side of u where it is beyond the double range."""
    try:
        return value_at_risk(u, params, n, n_u, p)
    except ValidationError:
        # VaR - u has the sign of -log((n/n_u)*p)
        return math.inf if (n / n_u) * p < 1.0 else -math.inf
