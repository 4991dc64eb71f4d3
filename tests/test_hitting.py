"""First hitting times of the +/- rho barriers over all anchor days."""

import numpy as np
import pytest

from gainloss.detrend import detrend, threshold_from_std
from gainloss.errors import (
    EmptySeriesError,
    EmptySideError,
    NonFiniteError,
    NonPositiveRhoError,
)
from gainloss.hitting import hitting_times, log_sample
from gainloss.pipeline import synthetic_gbm_series


def brute_force(values, rho):
    """Per-anchor first passage by explicit double loop; None means censored."""
    n = len(values)
    plus, minus = [], []
    for t in range(n - 1):
        tau_p = tau_m = None
        for d in range(1, n - t):
            change = values[t + d] - values[t]
            if tau_p is None and change >= rho:
                tau_p = d
            if tau_m is None and change <= -rho:
                tau_m = d
            if tau_p is not None and tau_m is not None:
                break
        plus.append(tau_p)
        minus.append(tau_m)
    return plus, minus


def lag_loop(values, rho):
    """Per-anchor (tau_plus, tau_minus) by one vector pass per lag; 0 means censored.

    The quadratic algorithm ``hitting_times`` used before its first-passage
    search: the same floating-point differences, evaluated lag by lag.
    """
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    tau_p = np.zeros(n - 1, dtype=np.int64)
    tau_m = np.zeros(n - 1, dtype=np.int64)
    for delta in range(1, n):
        diff = x[delta:] - x[:-delta]
        head_p = tau_p[: n - delta]
        head_m = tau_m[: n - delta]
        head_p[(diff >= rho) & (head_p == 0)] = delta
        head_m[(diff <= -rho) & (head_m == 0)] = delta
        if tau_p.all() and tau_m.all():
            break
    return tau_p, tau_m


def assert_matches_lag_loop(values, rho):
    s = hitting_times(values, rho)
    tau_p, tau_m = lag_loop(values, rho)
    assert np.array_equal(s.tau_plus, tau_p[tau_p > 0])
    assert np.array_equal(s.tau_minus, tau_m[tau_m > 0])
    assert s.censored_plus == np.count_nonzero(tau_p == 0)
    assert s.censored_minus == np.count_nonzero(tau_m == 0)
    assert s.n_anchors == len(values) - 1


class TestHittingTimes:
    def test_monotone_ramp(self):
        s = hitting_times(np.array([0.0, 0.5, 1.0, 1.5]), 0.4)
        assert np.array_equal(s.tau_plus, [1, 1, 1])
        assert s.tau_minus.size == 0
        assert s.censored_plus == 0
        assert s.censored_minus == 3
        assert s.n_anchors == 3

    def test_hand_case_with_gap(self):
        # anchor 0 falls to -1 first then overshoots; anchor 1 only rises
        s = hitting_times(np.array([0.0, -1.0, 2.0]), 0.5)
        assert np.array_equal(s.tau_plus, [2, 1])
        assert np.array_equal(s.tau_minus, [1])
        assert s.censored_minus == 1

    def test_matches_brute_force_on_random_walks(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            x = np.cumsum(rng.standard_normal(300) * 0.5)
            rho = float(rng.uniform(0.2, 1.5))
            s = hitting_times(x, rho)
            plus, minus = brute_force(x, rho)
            assert np.array_equal(s.tau_plus, [p for p in plus if p is not None])
            assert np.array_equal(s.tau_minus, [m for m in minus if m is not None])
            assert s.censored_plus == sum(p is None for p in plus)
            assert s.censored_minus == sum(m is None for m in minus)

    def test_reflection_swaps_sides(self):
        rng = np.random.default_rng(11)
        x = np.cumsum(rng.standard_normal(200) * 0.3)
        a = hitting_times(x, 0.4)
        b = hitting_times(-x, 0.4)
        assert np.array_equal(a.tau_plus, b.tau_minus)
        assert np.array_equal(a.tau_minus, b.tau_plus)
        assert (a.censored_plus, a.censored_minus) == (b.censored_minus, b.censored_plus)

    def test_raising_the_barrier_delays_every_anchor(self):
        rng = np.random.default_rng(12)
        x = np.cumsum(rng.standard_normal(250) * 0.4)
        lo, hi = brute_force(x, 0.3), brute_force(x, 0.9)
        for side in (0, 1):
            for tau_lo, tau_hi in zip(lo[side], hi[side]):
                if tau_hi is not None:
                    assert tau_lo is not None and tau_lo <= tau_hi

    def test_counts_partition_the_anchors(self):
        rng = np.random.default_rng(13)
        x = np.cumsum(rng.standard_normal(150) * 0.2)
        s = hitting_times(x, 0.5)
        assert s.n_anchors == 149
        assert s.tau_plus.size + s.censored_plus == s.n_anchors
        assert s.tau_minus.size + s.censored_minus == s.n_anchors

    def test_taus_are_positive_integers_within_range(self):
        rng = np.random.default_rng(14)
        x = np.cumsum(rng.standard_normal(100))
        s = hitting_times(x, 0.7)
        for taus in (s.tau_plus, s.tau_minus):
            assert taus.dtype == np.int64
            if taus.size:
                assert taus.min() >= 1 and taus.max() <= 99

    def test_single_anchor(self):
        s = hitting_times(np.array([0.0, 1.0]), 0.5)
        assert np.array_equal(s.tau_plus, [1])
        assert s.tau_minus.size == 0
        assert (s.n_anchors, s.censored_plus, s.censored_minus) == (1, 0, 1)
        s = hitting_times(np.array([0.0, 0.2]), 0.5)
        assert s.tau_plus.size == s.tau_minus.size == 0
        assert (s.censored_plus, s.censored_minus) == (1, 1)

    @pytest.mark.parametrize("values", [[0.4, 0.7], [0.7, 0.4]])
    def test_barrier_test_rounds_like_the_definition(self, values):
        # fl(0.7 - 0.4) < 0.3 although 0.4 + 0.3 == 0.7: the difference decides
        s = hitting_times(np.array(values), 0.3)
        assert s.tau_plus.size == s.tau_minus.size == 0
        assert (s.censored_plus, s.censored_minus) == (1, 1)

    @pytest.mark.parametrize("rho", [0.05, 0.3, 1.0, 4.0, 25.0])
    def test_matches_the_lag_loop_on_long_random_walks(self, rho):
        rng = np.random.default_rng(15)
        assert_matches_lag_loop(np.cumsum(rng.standard_normal(5000)), rho)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_matches_the_lag_loop_on_a_detrended_gbm_series(self, scale):
        filtered = detrend(synthetic_gbm_series(3300, sigma=0.012, lam=3e-4, seed=1), 252)
        assert_matches_lag_loop(filtered.values, scale * threshold_from_std(filtered))

    @pytest.mark.parametrize("rho", [0.1, 0.2, 0.3, 0.7, 1.0, 1.5])
    def test_matches_the_lag_loop_on_rounded_walks_with_ties(self, rho):
        # one-decimal values make many differences fall exactly on (or one
        # rounding step either side of) the barrier
        rng = np.random.default_rng(16)
        for _ in range(20):
            x = np.round(np.cumsum(rng.standard_normal(int(rng.integers(2, 400))) * 0.3), 1)
            assert_matches_lag_loop(x, rho)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_rejected(self, bad):
        # a NaN inside a block maximum would hide a real hit in that block
        with pytest.raises(NonFiniteError):
            hitting_times(np.array([0.0, bad, 2.0]), 0.5)

    @pytest.mark.parametrize("rho", [0.0, -0.5, np.nan, np.inf])
    def test_invalid_barrier(self, rho):
        with pytest.raises(NonPositiveRhoError):
            hitting_times(np.array([0.0, 1.0, 2.0]), rho)

    def test_series_too_short(self):
        with pytest.raises(EmptySeriesError):
            hitting_times(np.array([1.0]), 0.5)


class TestLogSample:
    def test_log_of_unit_times_is_zero(self):
        s = hitting_times(np.array([0.0, 1.0, -1.0, 0.5]), 0.5)
        logs = log_sample(s)
        assert np.all(logs.x_plus >= 0.0)
        assert logs.rho == s.rho

    def test_values_are_exact_logs(self):
        s = hitting_times(np.array([0.0, -1.0, 2.0]), 0.5)
        logs = log_sample(s)
        assert np.array_equal(logs.x_plus, np.log([2.0, 1.0]))
        assert np.array_equal(logs.x_minus, [0.0])
        assert (logs.n_plus, logs.n_minus) == (2, 1)

    def test_empty_side_is_an_error(self):
        s = hitting_times(np.array([0.0, 0.5, 1.0, 1.5]), 0.4)
        with pytest.raises(EmptySideError):
            log_sample(s)
