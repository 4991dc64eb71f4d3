"""Price CSV ingestion, windowing, and summary statistics."""

import io

import numpy as np
import pytest

from gainloss.errors import (
    DuplicateDateError,
    EmptySeriesError,
    MalformedRowError,
    NonPositivePriceError,
    ZeroVarianceError,
)
from gainloss.series import (
    PriceSeries,
    align_common_dates,
    cross_correlation,
    log_prices,
    parse_csv,
    slice_window,
    summary_stats,
    write_price_csv,
    write_value_csv,
)


def make_series(closes, start="2020-01-01", name="t"):
    dates = np.datetime64(start) + np.arange(len(closes))
    return PriceSeries(dates=dates, closes=np.asarray(closes, dtype=np.float64), name=name)


class TestParseCsv:
    def test_header_row_is_skipped(self):
        text = "date,close\n2020-01-02,100.0\n2020-01-03,101.5\n"
        s = parse_csv(io.StringIO(text), name="x")
        assert len(s) == 2
        assert s.name == "x"
        assert s.closes[1] == 101.5
        assert s.dates[0] == np.datetime64("2020-01-02")

    def test_headerless_file_is_accepted(self):
        s = parse_csv(io.StringIO("2020-01-02,100\n2020-01-03,101\n"))
        assert len(s) == 2

    @pytest.mark.parametrize("text", ["2020-01-02,100\n2020-01-03,101\n2020-01-06,102\n",
                                      "date,close\n2020-01-02,100\n2020-01-03,101\n"
                                      "2020-01-06,102\n"], ids=["headerless", "header"])
    def test_a_byte_order_mark_is_dropped(self, tmp_path, text):
        # the mark once hid the first date, which was then skipped as a header
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for source in (path, io.StringIO("\ufeff" + text)):
            s = parse_csv(source)
            assert len(s) == 3
            assert s.dates[0] == np.datetime64("2020-01-02")

    def test_a_header_after_blank_lines_is_skipped(self):
        s = parse_csv(io.StringIO("\n\ndate,close\n2020-01-02,100\n2020-01-03,101\n"))
        assert len(s) == 2
        assert s.closes[0] == 100.0

    def test_rows_are_sorted_by_date(self):
        text = "2020-01-05,105\n2020-01-02,100\n2020-01-03,101\n"
        s = parse_csv(io.StringIO(text))
        assert list(s.closes) == [100.0, 101.0, 105.0]

    def test_blank_lines_and_extra_columns_are_tolerated(self):
        text = "date,close,volume\n2020-01-02,100,55\n\n2020-01-03,101,66\n\n"
        s = parse_csv(io.StringIO(text))
        assert len(s) == 2

    def test_name_defaults_to_file_stem(self, tmp_path):
        p = tmp_path / "sp500.csv"
        p.write_text("date,close\n2020-01-02,100\n2020-01-03,101\n")
        assert parse_csv(p).name == "sp500"

    def test_missing_column_reports_line_number(self):
        with pytest.raises(MalformedRowError, match="line 3"):
            parse_csv(io.StringIO("date,close\n2020-01-02,100\njunk\n"))

    def test_unparseable_close_is_malformed(self):
        with pytest.raises(MalformedRowError):
            parse_csv(io.StringIO("2020-01-02,abc\n"))

    def test_non_finite_close_is_rejected(self):
        with pytest.raises((MalformedRowError, NonPositivePriceError)):
            parse_csv(io.StringIO("2020-01-02,nan\n"))

    def test_zero_price_is_rejected(self):
        with pytest.raises(NonPositivePriceError):
            parse_csv(io.StringIO("2020-01-02,0\n"))

    def test_negative_price_is_rejected(self):
        with pytest.raises(NonPositivePriceError):
            parse_csv(io.StringIO("2020-01-02,-3.5\n"))

    def test_duplicate_date_is_rejected(self):
        with pytest.raises(DuplicateDateError):
            parse_csv(io.StringIO("2020-01-02,100\n2020-01-02,101\n"))

    def test_empty_input_is_rejected(self):
        with pytest.raises(EmptySeriesError):
            parse_csv(io.StringIO("date,close\n"))


class TestPriceSeries:
    def test_unsorted_dates_rejected_at_construction(self):
        dates = np.array(["2020-01-03", "2020-01-02"], dtype="datetime64[D]")
        with pytest.raises(MalformedRowError):
            PriceSeries(dates=dates, closes=np.array([1.0, 2.0]))

    def test_mismatched_lengths_rejected(self):
        dates = np.array(["2020-01-02"], dtype="datetime64[D]")
        with pytest.raises(MalformedRowError):
            PriceSeries(dates=dates, closes=np.array([1.0, 2.0]))

    def test_single_row_series_is_allowed(self):
        s = make_series([100.0])
        assert len(s) == 1

    def test_log_prices_exact_on_powers_of_e(self):
        s = make_series([1.0, np.e, np.e**2])
        assert np.allclose(log_prices(s), [0.0, 1.0, 2.0], atol=1e-14)

    def test_log_prices_round_trip(self):
        closes = [100.1, 3.14159, 250.25, 7.0]
        s = make_series(closes)
        assert np.allclose(np.exp(log_prices(s)), closes, rtol=1e-14)

    def test_log_prices_single_element(self):
        assert log_prices(make_series([np.e])).shape == (1,)


class TestSliceWindow:
    def test_full_range_returns_everything(self):
        s = make_series([1.0, 2.0, 3.0])
        w = slice_window(s, s.dates[0], s.dates[-1])
        assert np.array_equal(w.closes, s.closes)

    def test_interior_window_is_closed_on_both_ends(self):
        s = make_series([1.0, 2.0, 3.0, 4.0, 5.0])
        w = slice_window(s, s.dates[1], s.dates[3])
        assert list(w.closes) == [2.0, 3.0, 4.0]

    def test_degenerate_window_keeps_one_row(self):
        s = make_series([1.0, 2.0, 3.0])
        w = slice_window(s, s.dates[1], s.dates[1])
        assert len(w) == 1 and w.closes[0] == 2.0

    def test_window_outside_range_is_empty(self):
        s = make_series([1.0, 2.0])
        with pytest.raises(EmptySeriesError):
            slice_window(s, np.datetime64("2030-01-01"), np.datetime64("2030-02-01"))

    def test_inverted_window_is_an_error(self):
        s = make_series([1.0, 2.0])
        with pytest.raises(EmptySeriesError):
            slice_window(s, s.dates[1], s.dates[0])


class TestSummaryStats:
    def test_constant_values(self):
        st = summary_stats(np.array([1.0, 1.0, 1.0]))
        assert (st.count, st.mean, st.std) == (3, 1.0, 0.0)

    def test_two_point_sample(self):
        st = summary_stats(np.array([0.0, 2.0]))
        assert st.mean == 1.0
        assert st.std == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(50)
        a = summary_stats(v)
        b = summary_stats(v[::-1].copy())
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.std == pytest.approx(b.std, rel=1e-12)

    def test_single_value_has_zero_std(self):
        assert summary_stats(np.array([5.0])).std == 0.0

    def test_empty_is_an_error(self):
        with pytest.raises(EmptySeriesError):
            summary_stats(np.array([]))


class TestCrossCorrelation:
    def test_self_correlation_is_one(self):
        v = np.array([1.0, 3.0, 2.0, 5.0])
        assert cross_correlation(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_negated_series_gives_minus_one(self):
        v = np.array([1.0, 3.0, 2.0, 5.0])
        assert cross_correlation(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 200))
        r = cross_correlation(a, b)
        assert r == pytest.approx(cross_correlation(b, a), rel=1e-12)
        assert -1.0 <= r <= 1.0

    def test_constant_input_is_degenerate(self):
        with pytest.raises(ZeroVarianceError):
            cross_correlation(np.ones(10), np.arange(10.0))

    def test_length_mismatch(self):
        with pytest.raises(MalformedRowError):
            cross_correlation(np.ones(3), np.ones(4))

    def test_too_short(self):
        with pytest.raises(EmptySeriesError):
            cross_correlation(np.array([1.0]), np.array([2.0]))


class TestAlignCommonDates:
    def test_keeps_only_shared_dates(self):
        a = make_series([1.0, 2.0, 3.0], start="2020-01-01")
        b = make_series([10.0, 20.0, 30.0], start="2020-01-02")
        aa, bb = align_common_dates(a, b)
        assert np.array_equal(aa.dates, bb.dates)
        assert list(aa.closes) == [2.0, 3.0]
        assert list(bb.closes) == [10.0, 20.0]

    def test_disjoint_dates_is_an_error(self):
        a = make_series([1.0], start="2020-01-01")
        b = make_series([2.0], start="2021-01-01")
        with pytest.raises(EmptySeriesError):
            align_common_dates(a, b)


class TestWriters:
    def test_price_round_trip_is_lossless(self, tmp_path):
        s = make_series([100.1, 3.14159265358979, 250.0 / 3.0], name="rt")
        path = tmp_path / "rt.csv"
        write_price_csv(s, path)
        back = parse_csv(path)
        assert np.array_equal(back.dates, s.dates)
        assert np.array_equal(back.closes, s.closes)

    def test_value_csv_format(self, tmp_path):
        path = tmp_path / "vals.csv"
        dates = np.datetime64("2020-01-01") + np.arange(2)
        write_value_csv(path, dates, np.array([0.125, -1.5]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "date,value"
        assert lines[1] == "2020-01-01,0.125"
        assert lines[2] == "2020-01-02,-1.5"
