import datetime
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import potrisk

from potrisk.errors import (
    EmptyPeriodWarning,
    OverlappingRanges,
    TooFewObservations,
    ValidationError,
    ZeroDenominator,
)
from potrisk.series import (
    EarningsSeries,
    box_plot,
    compute_returns,
    read_earnings_csv,
    read_returns_csv,
    split_by_period,
    split_by_sign,
    write_returns_csv,
)

from helpers import weekly_returns


def _earnings(revenues, start=datetime.date(1990, 1, 5)):
    dates = tuple(start + datetime.timedelta(weeks=i) for i in range(len(revenues)))
    return EarningsSeries(dates=dates, revenues=np.asarray(revenues, dtype=float))


class TestComputeReturns:
    def test_identity_case(self):
        out = compute_returns(_earnings([100.0, 100.0]))
        assert out.values.tolist() == [0.0]

    def test_single_step_gain(self):
        out = compute_returns(_earnings([100.0, 150.0]))
        assert out.values[0] == pytest.approx(0.5, abs=1e-15)

    def test_hand_evaluation(self):
        out = compute_returns(_earnings([100.0, 150.0, 120.0]))
        np.testing.assert_allclose(out.values, [0.5, -0.2], atol=1e-9)

    def test_dates_are_later_weekend(self):
        earnings = _earnings([100.0, 150.0, 120.0])
        out = compute_returns(earnings)
        assert out.dates == earnings.dates[1:]

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            compute_returns(_earnings([100.0]))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            compute_returns(_earnings([100.0, 0.0, 120.0]))

    @pytest.mark.parametrize("tiny", [5e-324, 1e-310])
    def test_a_return_beyond_the_double_range_names_its_date(self, tiny):
        earnings = _earnings([1.0, tiny, 3.0, 4.0])
        with pytest.raises(ValidationError, match=r"^return at 1990-01-19 is beyond the double range"):
            compute_returns(earnings)

    def test_trailing_zero_revenue_is_fine(self):
        out = compute_returns(_earnings([100.0, 0.0]))
        assert out.values[0] == -1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        revenues = np.exp(rng.normal(4.0, 0.5, size=60))
        earnings = _earnings(revenues)
        returns = compute_returns(earnings)
        assert np.all(returns.values >= -1.0)
        rebuilt = [revenues[0]]
        for v in returns.values:
            rebuilt.append(rebuilt[-1] * (1.0 + v))
        np.testing.assert_allclose(rebuilt, revenues, rtol=1e-12)


class TestSplitByPeriod:
    def _ten_weeks(self):
        return weekly_returns(np.arange(10) / 10.0, start=datetime.date(2001, 1, 5))

    def test_midpoint_partition(self):
        returns = self._ten_weeks()
        mid = returns.dates[5]
        a, b = split_by_period(returns, [(returns.dates[0], mid), (mid, datetime.date(2002, 1, 1))])
        assert len(a) + len(b) == 10

    def test_boundary_date_belongs_to_starting_range(self):
        returns = self._ten_weeks()
        mid = returns.dates[5]
        a, b = split_by_period(returns, [(returns.dates[0], mid), (mid, datetime.date(2002, 1, 1))])
        assert mid not in a.dates
        assert b.dates[0] == mid

    def test_empty_second_range_warns(self):
        returns = self._ten_weeks()
        with pytest.warns(EmptyPeriodWarning):
            a, b = split_by_period(
                returns,
                [(datetime.date(2000, 1, 1), datetime.date(2002, 1, 1)),
                 (datetime.date(2005, 1, 1), datetime.date(2006, 1, 1))],
            )
        assert len(a) == 10
        assert len(b) == 0

    def test_overlapping_ranges(self):
        returns = self._ten_weeks()
        with pytest.raises(OverlappingRanges):
            split_by_period(
                returns,
                [(datetime.date(2001, 1, 1), datetime.date(2001, 2, 1)),
                 (datetime.date(2001, 1, 20), datetime.date(2001, 3, 1))],
            )

    def test_invalid_range(self):
        with pytest.raises(ValidationError):
            split_by_period(self._ten_weeks(), [(datetime.date(2001, 2, 1), datetime.date(2001, 1, 1))])

    def test_order_preserved(self):
        returns = self._ten_weeks()
        (only,) = split_by_period(returns, [(datetime.date(2000, 1, 1), datetime.date(2002, 1, 1))])
        assert only.dates == returns.dates


class TestSplitBySign:
    def test_mixed(self):
        split = split_by_sign(weekly_returns([0.5, -0.2, 0.0, 0.1]))
        assert split.positive.values.tolist() == [0.5, 0.1]
        assert split.negative.values.tolist() == [pytest.approx(0.2)]
        assert split.n_zero == 1

    def test_all_positive(self):
        split = split_by_sign(weekly_returns([0.5, 0.1]))
        assert len(split.negative) == 0

    def test_sign_flip(self):
        split = split_by_sign(weekly_returns([-0.3]))
        assert len(split.positive) == 0
        assert split.negative.values.tolist() == [pytest.approx(0.3)]

    def test_nan_return_is_rejected_not_counted_as_zero(self):
        with pytest.raises(ValidationError, match="finite"):
            split_by_sign(weekly_returns([0.5, float("nan"), 0.0, -0.1]))

    @pytest.mark.parametrize("seed", range(5))
    def test_counts_reconcile(self, seed):
        rng = np.random.default_rng(seed)
        vals = np.round(rng.normal(0, 1, size=200), 1)
        split = split_by_sign(weekly_returns(vals))
        assert len(split.positive) + len(split.negative) + split.n_zero == 200


class TestBoxPlot:
    def test_hand_evaluation(self):
        s = box_plot(weekly_returns([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
        assert (s.whisker_low, s.whisker_high) == (-1.0, 7.0)
        assert s.min_outlier is None and s.max_outlier is None

    def test_constant_sample(self):
        s = box_plot(weekly_returns([1.0, 1.0, 1.0, 1.0]))
        assert s.iqr == 0.0
        assert s.whisker_low == s.whisker_high == 1.0
        assert s.min_outlier is None and s.max_outlier is None

    def test_max_outlier(self):
        s = box_plot(weekly_returns([1.0, 2.0, 3.0, 4.0, 100.0]))
        assert s.max_outlier == 100.0
        assert s.min_outlier is None

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            box_plot(weekly_returns([1.0, 2.0, 3.0]))

    def test_fences_beyond_the_double_range_are_the_data_extremes(self):
        s = box_plot(weekly_returns([1.5e308, 1.5e308, 0.1, 0.2]))
        assert (s.q3, s.iqr) == (1.5e308, 1.5e308 - s.q1) and s.q1 == pytest.approx(0.175)
        assert (s.whisker_low, s.whisker_high) == (0.1, 1.5e308)
        assert s.min_outlier is None and s.max_outlier is None
        # one fence within the range keeps its value
        s = box_plot(weekly_returns([0.0, 0.0, 1e308, 1e308]))
        assert (s.whisker_low, s.whisker_high) == (-1.5e308, 1e308)
        # a fence within the range whose 1.5*IQR alone overflows
        s = box_plot(weekly_returns([-1.7e308, 4e307, 5e307, 1.7e308, 1.7e308]))
        assert (s.q1, s.iqr) == (4e307, 1.7e308 - 4e307)
        assert s.whisker_low == pytest.approx(-1.55e308, rel=1e-15)
        assert (s.whisker_high, s.min_outlier, s.max_outlier) == (1.7e308, -1.7e308, None)

    def test_an_interquartile_range_beyond_the_double_range_is_rejected(self):
        m = 1.7e308
        for values in ([-m, -m, -m, 0.0, m, m, m], [-m, -m, m, m]):  # the second's median overflows too
            with pytest.raises(ValidationError, match="interquartile range"):
                box_plot(weekly_returns(values))

    @pytest.mark.parametrize("seed", range(8))
    def test_outlier_invariants(self, seed):
        rng = np.random.default_rng(seed)
        s = box_plot(weekly_returns(rng.standard_t(2, size=50)))
        assert s.q1 <= s.median <= s.q3
        assert s.iqr == pytest.approx(s.q3 - s.q1)
        if s.min_outlier is not None:
            assert s.min_outlier < s.whisker_low
        if s.max_outlier is not None:
            assert s.max_outlier > s.whisker_high

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 1.0, -1.0])),
        min_size=4, max_size=60,
    ))
    def test_quartiles_are_np_quantiles_bit_for_bit(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.quantile(np.array(values), [0.25, 0.5, 0.75]).tolist()
        if not math.isfinite(want[2] - want[0]):  # no box: its range is beyond the double range
            with pytest.raises(ValidationError, match="interquartile range"):
                box_plot(weekly_returns(values))
            return
        s = box_plot(weekly_returns(values))
        assert [q.hex() for q in (s.q1, s.median, s.q3)] == [q.hex() for q in want]

    def test_leaves_numpy_ma_unloaded(self):
        # np.quantile would import numpy.ma, about 13 ms for a CLI process.
        src = str(Path(potrisk.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import datetime, potrisk.cli; "
            "from potrisk.series import ReturnSeries, box_plot; "
            "days = [datetime.date(2000, 1, d) for d in range(1, 6)]; "
            "box_plot(ReturnSeries(days, [0.1, -0.2, 0.3, 0.0, 0.5])); "
            "print('numpy.ma' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestCsv:
    def test_round_trip(self, tmp_path):
        returns = weekly_returns([0.123456789012345, -0.5, 0.0])
        path = tmp_path / "returns.csv"
        write_returns_csv(returns, path)
        back = read_returns_csv(path)
        assert back.dates == returns.dates
        np.testing.assert_allclose(back.values, returns.values, rtol=1e-14)

    def test_returns_csv_has_15_significant_digits(self, tmp_path):
        returns = weekly_returns([1.0 / 3.0])
        path = tmp_path / "returns.csv"
        write_returns_csv(returns, path)
        assert "0.333333333333333" in path.read_text()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_returns_reader_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "r.csv"
        path.write_text(f"date,return\n2001-01-05,0.1\n2001-01-12,{bad}\n")
        with pytest.raises(ValidationError, match="r.csv: returns must be finite"):
            read_returns_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [("2001-13-12,0.1", "r.csv:3: bad date '2001-13-12'"), ("2001-01-12,abc", "r.csv:3: bad return 'abc'")],
        ids=["date", "value"],
    )
    def test_returns_reader_names_the_bad_date_or_value(self, tmp_path, row, message):
        path = tmp_path / "r.csv"
        path.write_text(f"date,return\n2001-01-05,0.1\n{row}\n")
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_returns_csv(path)

    def test_earnings_reader(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("date,revenue\n2001-01-05,100.0\n2001-01-12,150.0\n")
        earnings = read_earnings_csv(path)
        assert len(earnings) == 2
        assert earnings.revenues.tolist() == [100.0, 150.0]

    def test_earnings_reader_bad_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("week,money\n2001-01-05,100.0\n")
        with pytest.raises(ValidationError):
            read_earnings_csv(path)

    def test_earnings_reader_reports_row_number(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("date,revenue\n2001-01-05,100.0\nnot-a-date,1.0\n")
        with pytest.raises(ValidationError, match=":3"):
            read_earnings_csv(path)

    def test_earnings_reader_rejects_negative_revenue(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("date,revenue\n2001-01-05,100.0\n2001-01-12,-1.0\n")
        with pytest.raises(ValidationError):
            read_earnings_csv(path)

    def test_earnings_reader_rejects_unsorted_dates(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("date,revenue\n2001-01-12,100.0\n2001-01-05,1.0\n")
        with pytest.raises(ValidationError):
            read_earnings_csv(path)
