"""Rolling-median detrending and the default barrier level."""

import numpy as np
import pytest

from gainloss.detrend import (
    FilteredSeries,
    daily_returns,
    detrend,
    rolling_median,
    threshold_from_std,
)
from gainloss.errors import (
    EmptySeriesError,
    NonFiniteError,
    WindowTooLargeError,
    ZeroVarianceError,
)
from gainloss.series import PriceSeries


def make_series(closes, start="2020-01-01"):
    dates = np.datetime64(start) + np.arange(len(closes))
    return PriceSeries(dates=dates, closes=np.asarray(closes, dtype=np.float64))


def sort_oracle(values, window):
    """Median of each trailing window via an explicit per-window sort."""
    out = []
    for i in range(len(values) - window + 1):
        w = sorted(values[i : i + window])
        out.append((w[(window - 1) // 2] + w[window // 2]) / 2.0)
    return np.array(out)


class TestRollingMedian:
    def test_odd_window_hand_case(self):
        got = rolling_median(np.array([1.0, 3.0, 2.0, 5.0, 4.0]), 3)
        assert np.array_equal(got, [2.0, 3.0, 4.0])

    def test_even_window_uses_midpoint(self):
        got = rolling_median(np.array([1.0, 2.0, 4.0, 8.0]), 2)
        assert np.array_equal(got, [1.5, 3.0, 6.0])

    def test_window_one_is_identity(self):
        v = np.array([3.0, 1.0, 2.0])
        assert np.array_equal(rolling_median(v, 1), v)

    def test_constant_input_gives_constant_output(self):
        assert np.array_equal(rolling_median(np.full(10, 7.0), 4), np.full(7, 7.0))

    def test_window_longer_than_series(self):
        with pytest.raises(WindowTooLargeError):
            rolling_median(np.ones(3), 4)

    def test_nonpositive_window(self):
        with pytest.raises(WindowTooLargeError):
            rolling_median(np.ones(3), 0)

    def test_empty_input(self):
        with pytest.raises(EmptySeriesError):
            rolling_median(np.array([]), 1)

    def test_exhaustive_small_cases_match_sort_oracle(self):
        rng = np.random.default_rng(2)
        for n in range(1, 13):
            for window in range(1, n + 1):
                v = rng.standard_normal(n)
                assert np.array_equal(rolling_median(v, window), sort_oracle(v, window))

    def test_ties_match_sort_oracle(self):
        rng = np.random.default_rng(3)
        v = rng.integers(0, 4, size=60).astype(np.float64)
        for window in (2, 3, 5, 8):
            assert np.array_equal(rolling_median(v, window), sort_oracle(v, window))

    def test_block_boundaries_are_seamless(self):
        # the sorted window slides across a 70k-point input without drifting
        rng = np.random.default_rng(4)
        v = rng.standard_normal(70_000)
        got = rolling_median(v, 3)
        assert got.size == 69_998
        idx = rng.integers(0, got.size, size=300)
        for i in idx:
            assert got[i] == sorted(v[i : i + 3])[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, bad):
        # NaN compares false both ways, so it would corrupt the sorted window
        v = np.arange(10.0)
        v[4] = bad
        with pytest.raises(NonFiniteError):
            rolling_median(v, 3)


class TestDetrend:
    def test_output_length_arithmetic(self):
        rng = np.random.default_rng(5)
        for n, f in [(400, 252), (10, 2), (10, 10), (500, 499)]:
            s = make_series(np.exp(rng.standard_normal(n) * 0.01) + 1.0)
            filt = detrend(s, f)
            assert len(filt) == n - f + 1

    def test_dates_align_to_window_end(self):
        s = make_series([1.0, 2.0, 3.0, 4.0, 5.0])
        filt = detrend(s, 3)
        assert filt.dates[0] == s.dates[2]
        assert filt.dates[-1] == s.dates[-1]
        assert filt.filter_size == 3

    def test_constant_prices_detrend_to_zero(self):
        filt = detrend(make_series(np.full(20, 42.0)), 5)
        assert np.array_equal(filt.values, np.zeros(16))

    def test_exponential_ramp_detrends_to_constant(self):
        # log prices are a linear ramp b*t; median of a trailing window of
        # length f sits (f-1)/2 steps behind the window end
        b = 0.01
        s = make_series(np.exp(b * np.arange(30)))
        filt = detrend(s, 7)
        assert np.allclose(filt.values, b * 3.0, atol=1e-12)

    def test_price_rescaling_is_invisible(self):
        rng = np.random.default_rng(6)
        closes = 100.0 * np.exp(np.cumsum(rng.standard_normal(60) * 0.01))
        a = detrend(make_series(closes), 9).values
        b = detrend(make_series(closes * 7.25), 9).values
        assert np.allclose(a, b, atol=1e-12)

    def test_mismatched_date_value_shapes(self):
        with pytest.raises(EmptySeriesError):
            FilteredSeries(
                dates=np.array(["2020-01-01"], dtype="datetime64[D]"),
                values=np.array([1.0, 2.0]),
                filter_size=2,
            )


class TestDailyReturns:
    def test_hand_case(self):
        assert np.array_equal(daily_returns(np.array([0.0, 1.0, 2.0])), [1.0, 1.0])

    def test_constant_gives_zeros(self):
        assert np.array_equal(daily_returns(np.full(5, 3.0)), np.zeros(4))

    def test_returns_telescope(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(100)
        assert daily_returns(v).sum() == pytest.approx(v[-1] - v[0], abs=1e-12)

    def test_too_short(self):
        with pytest.raises(EmptySeriesError):
            daily_returns(np.array([1.0]))


class TestThresholdFromStd:
    def test_matches_sample_std(self):
        v = np.array([0.0, 1.0, 2.0, 3.0])
        assert threshold_from_std(v) == float(np.std(v, ddof=1))

    def test_accepts_filtered_series(self):
        s = make_series(np.exp([0.0, 0.02, -0.01, 0.03, 0.0]))
        filt = detrend(s, 2)
        assert threshold_from_std(filt) == float(np.std(filt.values, ddof=1))

    def test_constant_values_have_no_scale(self):
        with pytest.raises(ZeroVarianceError):
            threshold_from_std(np.zeros(10))

    def test_needs_two_values(self):
        with pytest.raises(EmptySeriesError):
            threshold_from_std(np.array([1.0]))
