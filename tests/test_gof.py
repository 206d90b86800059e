import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potrisk import _kernels
from potrisk.errors import BoundaryValue, EmptySample, PotriskError, UnknownAlphaLevel
from potrisk.gof import (
    ACCEPT,
    ALPHA_LEVELS,
    CRITICAL_VALUE_TABLE,
    NOT_APPLICABLE,
    REJECT,
    VERDICTS,
    GofReport,
    _verdict_rows,
    anderson_darling,
    cramer_von_mises,
    gof_reports,
    interpolate_criticals,
    require_alpha,
    transform_to_uniform,
    verdicts_for,
)
from potrisk.gof import test_gpd_fit as gof_fit_report
from potrisk.gpd import GpdParams, gpd_quantile, gpd_sample


class TestTransform:
    def test_probability_integral_transform(self):
        params = GpdParams(0.2, 1.0)
        excesses = gpd_quantile(params, np.array([0.5, 0.25, 0.75]))
        z = transform_to_uniform(excesses, params)
        np.testing.assert_allclose(z, [0.25, 0.5, 0.75], atol=1e-12)

    def test_single_zero_excess(self):
        z = transform_to_uniform([0.0], GpdParams(0.2, 1.0))
        assert z.tolist() == [0.0]

    def test_exponential_median(self):
        z = transform_to_uniform([math.log(2.0)], GpdParams(0.0, 1.0))
        assert z[0] == pytest.approx(0.5, abs=1e-12)

    def test_sorted_output(self):
        params = GpdParams(0.1, 2.0)
        z = transform_to_uniform([5.0, 0.1, 2.0], params)
        assert np.all(np.diff(z) >= 0)

    def test_empty(self):
        with pytest.raises(EmptySample):
            transform_to_uniform([], GpdParams(0.1, 1.0))


class TestCramerVonMises:
    def test_single_median(self):
        # (0.5 - 0.5)^2 + 1/12
        assert cramer_von_mises([0.5]) == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_perfect_fit_minimum(self):
        for n in (1, 5, 40):
            z = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
            assert cramer_von_mises(z) == pytest.approx(1.0 / (12.0 * n), abs=1e-15)

    def test_two_point_hand_evaluation(self):
        expected = (0.1 - 0.25) ** 2 + (0.9 - 0.75) ** 2 + 1.0 / 24.0
        assert cramer_von_mises([0.1, 0.9]) == pytest.approx(expected, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptySample):
            cramer_von_mises([])

    def test_lower_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = np.sort(rng.random(17))
            assert cramer_von_mises(z) >= 1.0 / (12.0 * 17) - 1e-15


class TestAndersonDarling:
    def test_single_median(self):
        # -1 - (ln 0.5 + ln 0.5) = -1 + 2 ln 2
        assert anderson_darling([0.5]) == pytest.approx(-1.0 + 2.0 * math.log(2.0), abs=1e-12)

    def test_two_point_hand_evaluation(self):
        # -2 - (1/2)[1*(ln .2 + ln .2) + 3*(ln .8 + ln .8)]
        expected = -2.0 - 0.5 * (2.0 * math.log(0.2) + 3.0 * 2.0 * math.log(0.8))
        assert anderson_darling([0.2, 0.8]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.2788685663767297, abs=1e-12)

    def test_median_positions_n3(self):
        assert anderson_darling([0.25, 0.5, 0.75]) == pytest.approx(
            0.2694308433724208, abs=1e-12
        )

    def test_empty(self):
        with pytest.raises(EmptySample):
            anderson_darling([])

    def test_boundary_values_are_clamped(self):
        val = anderson_darling([0.0, 0.5, 1.0])
        assert math.isfinite(val)

    def test_non_finite_raises(self):
        with pytest.raises(BoundaryValue):
            anderson_darling([0.2, math.nan])


class TestCriticalTable:
    def test_rows_increase_as_alpha_decreases(self):
        # so the verdicts at the levels are nested, and one code holds them
        assert CRITICAL_VALUE_TABLE.alphas == ALPHA_LEVELS == tuple(sorted(ALPHA_LEVELS, reverse=True))
        for row in CRITICAL_VALUE_TABLE.w2 + CRITICAL_VALUE_TABLE.a2:
            assert all(a < b for a, b in zip(row, row[1:]))

    def test_columns_decrease_as_the_shape_increases(self):
        assert all(a < b for a, b in zip(CRITICAL_VALUE_TABLE.shapes, CRITICAL_VALUE_TABLE.shapes[1:]))
        for table in (CRITICAL_VALUE_TABLE.w2, CRITICAL_VALUE_TABLE.a2):
            for column in zip(*table):
                assert all(a > b for a, b in zip(column, column[1:]))

    def test_exact_row_lookup(self):
        crit = interpolate_criticals(0.10)
        assert crit[0.05] == (0.144, 0.935)
        assert crit[0.5] == (0.055, 0.386)

    def test_midpoint_interpolation(self):
        crit = interpolate_criticals(0.15)
        assert crit[0.05][0] == pytest.approx((0.144 + 0.137) / 2.0, abs=1e-12)
        assert crit[0.05][1] == pytest.approx((0.935 + 0.903) / 2.0, abs=1e-12)

    def test_interpolation_monotone_in_shape(self):
        shapes = np.linspace(0.0, 0.3, 31)
        for alpha in ALPHA_LEVELS:
            w2 = [interpolate_criticals(s)[alpha][0] for s in shapes]
            a2 = [interpolate_criticals(s)[alpha][1] for s in shapes]
            assert all(a >= b - 1e-12 for a, b in zip(w2, w2[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(a2, a2[1:]))

    def test_outside_coverage_is_empty(self):
        assert interpolate_criticals(-0.36) == {}
        assert interpolate_criticals(0.31) == {}

    def test_require_alpha(self):
        assert require_alpha(0.05) == 0.05
        with pytest.raises(UnknownAlphaLevel):
            require_alpha(0.07)


class TestVerdicts:
    def test_boundary_statistic_accepts(self):
        # at the 0.10 row the alpha=0.05 critical is exactly 0.144
        verdicts, _ = verdicts_for(w2=0.144, a2=0.0, shape=0.10)
        assert verdicts[0.05] == "accept"

    def test_a2_reject_at_smallest_alpha(self):
        verdicts, criticals = verdicts_for(w2=0.0, a2=1.50, shape=0.20)
        assert criticals[0.005][1] == 1.471
        assert verdicts[0.005] == "reject"

    def test_negative_shape_not_applicable(self):
        verdicts, _ = verdicts_for(w2=0.05, a2=0.3, shape=-0.36)
        assert set(verdicts.values()) == {"not_applicable"}

    def test_full_report_on_simulated_fit(self):
        params = GpdParams(0.15, 1.0)
        excesses = gpd_sample(params, 300, seed=8)
        report = gof_fit_report(excesses, params)
        assert report.w2 >= 1.0 / (12.0 * 300)
        assert report.applicable
        assert report.verdicts[0.5] in ("accept", "reject")
        assert 0.5 in report.accepted_alphas() or report.verdicts[0.5] == "reject"

    def test_zero_transforms_dropped(self):
        params = GpdParams(0.2, 1.0)
        excesses = np.concatenate([[0.0], gpd_sample(params, 50, seed=3)])
        report = gof_fit_report(excesses, params)
        direct = cramer_von_mises(transform_to_uniform(gpd_sample(params, 50, seed=3), params))
        assert report.w2 == pytest.approx(direct, abs=1e-12)

    def test_statistics_depend_only_on_z(self):
        # two different parametrizations producing the same z values
        z = np.array([0.1, 0.4, 0.8])
        a = GpdParams(0.2, 1.0)
        b = GpdParams(0.0, 2.0)
        ya = gpd_quantile(a, z)
        yb = gpd_quantile(b, z)
        assert cramer_von_mises(transform_to_uniform(ya, a)) == pytest.approx(
            cramer_von_mises(transform_to_uniform(yb, b)), abs=1e-12
        )
        assert anderson_darling(transform_to_uniform(ya, a)) == pytest.approx(
            anderson_darling(transform_to_uniform(yb, b)), abs=1e-12
        )


def _loop_verdicts(w2, a2, shape):
    """verdicts_for as one shape's loop over the table: the reference for the batched interpolation."""
    table = CRITICAL_VALUE_TABLE
    if shape < table.shapes[0] or shape > table.shapes[-1]:
        return dict.fromkeys(ALPHA_LEVELS, NOT_APPLICABLE), {}
    hi = next(i for i, s in enumerate(table.shapes) if s >= shape)
    lo = max(hi - 1, 0)
    frac = 0.0 if hi == lo else (shape - table.shapes[lo]) / (table.shapes[hi] - table.shapes[lo])
    criticals, verdicts = {}, {}
    for j, alpha in enumerate(table.alphas):
        w2c = table.w2[lo][j] + frac * (table.w2[hi][j] - table.w2[lo][j])
        a2c = table.a2[lo][j] + frac * (table.a2[hi][j] - table.a2[lo][j])
        criticals[alpha] = (w2c, a2c)
        verdicts[alpha] = ACCEPT if (w2 <= w2c and a2 <= a2c) else REJECT
    return verdicts, criticals


def _bits(criticals):
    return [(alpha, w2c.hex(), a2c.hex()) for alpha, (w2c, a2c) in criticals.items()]


# The table's rows, their neighbouring doubles and signed zero.
_EDGE_SHAPES = [0.0, -0.0, 5e-324, -5e-324, 0.1, 0.2, 0.3, 0.30000000000000004, 0.29999999999999993,
                0.09999999999999999, 0.10000000000000002, -0.36, 0.31]


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 2.0), st.floats(-0.1, 0.4) | st.sampled_from(_EDGE_SHAPES)),
    min_size=1, max_size=40,
))
def test_the_batched_verdicts_are_the_table_loop_bit_for_bit(rows):
    w2s, a2s, shapes = map(list, zip(*rows))
    if 0.0 <= shapes[0] <= 0.3:  # statistics at their criticals, which accept
        w2s[0], a2s[0] = _loop_verdicts(0.0, 0.0, shapes[0])[1][0.05]
    codes, w2c, a2c = _verdict_rows(w2s, a2s, shapes)
    for r, (w2, a2, shape) in enumerate(zip(w2s, a2s, shapes)):
        want_verdicts, want_criticals = _loop_verdicts(w2, a2, shape)
        assert list(zip(ALPHA_LEVELS, VERDICTS[codes[r]])) == list(want_verdicts.items())
        if want_criticals:
            assert _bits(dict(zip(ALPHA_LEVELS, zip(w2c[r].tolist(), a2c[r].tolist())))) == _bits(want_criticals)
        verdicts, criticals = verdicts_for(w2, a2, shape)
        assert list(verdicts.items()) == list(want_verdicts.items())
        assert _bits(criticals) == _bits(want_criticals)
        assert _bits(interpolate_criticals(shape)) == _bits(want_criticals)


# The table's rows and their neighbouring doubles within it.
_COVERED_EDGES = [
    s for row in CRITICAL_VALUE_TABLE.shapes
    for s in (np.nextafter(row, -1.0), row, np.nextafter(row, 1.0)) if 0.0 <= s <= 0.3
]


@st.composite
def _coded_rows(draw):
    """A covered shape, and W² and A² at, next to or away from its criticals at some level."""
    shape = draw(st.floats(0.0, 0.3) | st.sampled_from(_COVERED_EDGES))
    criticals = _loop_verdicts(0.0, 0.0, shape)[1]

    def statistic(i):
        c = criticals[draw(st.sampled_from(ALPHA_LEVELS))][i]
        return draw(st.sampled_from([c, np.nextafter(c, 0.0), np.nextafter(c, 2.0)]) | st.floats(0.0, 2.0))

    return statistic(0), statistic(1), float(shape)


@settings(max_examples=200, deadline=None)
@given(st.lists(_coded_rows(), min_size=1, max_size=20))
def test_a_verdict_code_decodes_to_the_comparison_at_each_level(rows):
    w2s, a2s, shapes = map(list, zip(*rows))
    codes = _verdict_rows(w2s, a2s, shapes)[0]
    for code, w2, a2, shape in zip(codes.tolist(), w2s, a2s, shapes):
        criticals = _loop_verdicts(0.0, 0.0, shape)[1]
        want = [ACCEPT if w2 <= w2c and a2 <= a2c else REJECT for w2c, a2c in criticals.values()]
        assert list(VERDICTS[code]) == want
        report = GofReport(w2, a2, shape, code)
        assert report.accepted_alphas() == tuple(a for a, v in zip(ALPHA_LEVELS, want) if v == ACCEPT)


def test_no_fits_have_no_reports():
    assert [c.size for c in gof_reports(np.array([1.0, 2.0]), [], [], [], [])] == [0, 0, 0]


def test_an_empty_sample_has_no_report():
    with pytest.raises(EmptySample, match="cannot transform an empty excess sample"):
        gof_fit_report([], GpdParams(0.1, 1.0))


def _report_from_parts(excesses, params):
    """The report as the statistics define it: sorted nonzero transforms, W², A², verdicts."""
    z = transform_to_uniform(excesses, params)
    z = z[z != 0.0]
    if z.size == 0:
        raise EmptySample("all transformed values are zero")
    w2, a2 = cramer_von_mises(z), anderson_darling(z)
    verdicts, _ = verdicts_for(w2, a2, params.shape)
    return GofReport(w2, a2, params.shape, VERDICTS.index(tuple(verdicts.values())))


@st.composite
def _suffix_fits(draw):
    """A sorted sample and fits on excesses over some of its values, as a scan makes them.

    Or over half those values, so that a row's excesses do not start at
    its first value above the threshold. Tails are heavy, short or tied;
    some hold excesses so small that
    their transforms are zero and are dropped. Shapes include exactly 0
    and negative ones (not_applicable); a scale of 1e300 zeroes more
    transforms, and one of 5e-324 makes shape/scale overflow, so that
    tau*y is nan at y = 0.
    """
    x = gpd_sample(GpdParams(draw(st.floats(-0.5, 0.6)), 1.0), draw(st.integers(2, 300)), draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = np.round(x, 1) + 0.05
    if draw(st.booleans()):
        x = np.concatenate([x, [5e-324, 1e-320, 1e-310]])
    xs = np.sort(x)
    picks = sorted(draw(st.lists(st.integers(-1, xs.size - 2), min_size=1, max_size=10)))
    thresholds = np.array([0.0 if i < 0 else xs[i] for i in picks])
    starts = np.searchsorted(xs, thresholds, side="right")
    if draw(st.booleans()):  # excesses over a lower threshold than the values left out
        thresholds = thresholds * 0.5
    shapes = st.one_of(st.just(0.0), st.floats(-0.6, 0.6), st.floats(0.0, 0.3))
    scales = st.one_of(st.floats(1e-3, 1e3), st.just(1e300), st.just(5e-324))
    params = [GpdParams(draw(shapes), draw(scales)) for _ in picks]
    return xs, starts, thresholds, params


@settings(max_examples=150, deadline=None)
@given(case=_suffix_fits(), block=st.sampled_from([1, 7, 50, 300]))
def test_batched_reports_are_bitwise_those_of_the_statistics(case, block):
    """Also with chunks of at most ``block`` elements (or one longer row), so that one call's rows span several chunks."""
    xs, starts, thresholds, params = case
    shapes_and_scales = [p.shape for p in params], [p.scale for p in params]
    want, error = [], None
    for start, u, p in zip(starts, thresholds, params):
        try:
            want.append(_report_from_parts(xs[start:] - u, p))
        except PotriskError as exc:
            error = exc
            break
    for size in (_kernels.BLOCK_ELEMENTS, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernels, "BLOCK_ELEMENTS", size)
            if error is not None:
                with pytest.raises(type(error), match=str(error)):
                    gof_reports(xs, starts, thresholds, *shapes_and_scales)
                continue
            columns = gof_reports(xs, starts, thresholds, *shapes_and_scales)
        got = [GofReport(w2, a2, p.shape, code) for w2, a2, code, p in zip(*(c.tolist() for c in columns), params)]
        assert got == want
        assert [(r.w2.hex(), r.a2.hex()) for r in got] == [(r.w2.hex(), r.a2.hex()) for r in want]
    if error is not None:
        return
    # the one-sample call, on the excesses in any order
    rng = np.random.default_rng(0)
    for start, u, p, report in zip(starts, thresholds, params, want):
        assert gof_fit_report(rng.permutation(xs[start:] - u), p) == report
