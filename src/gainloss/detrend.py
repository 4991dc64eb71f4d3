"""Rolling-median detrending of log prices.

The trend of a log-price series is taken to be its trailing rolling median
over ``filter_size`` observations; the detrended series is the difference

    x[t] = ln S[t] - median(ln S[t-f+1 .. t]),

defined from index f-1 on, so a series of length L yields L - f + 1 filtered
points. The barrier level rho used by the hitting-time stage defaults to the
sample standard deviation of the filtered values.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EmptySeriesError, NonFiniteError, WindowTooLargeError, ZeroVarianceError
from .series import PriceSeries, log_prices

__all__ = [
    "DEFAULT_FILTER_SIZE",
    "FilteredSeries",
    "rolling_median",
    "detrend",
    "daily_returns",
    "threshold_from_std",
]

DEFAULT_FILTER_SIZE = 252  # one business year


@dataclass(frozen=True)
class FilteredSeries:
    """Detrended log prices aligned to the last date of each window."""

    dates: np.ndarray
    values: np.ndarray
    filter_size: int
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dates", np.asarray(self.dates, dtype="datetime64[D]"))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.dates.shape != self.values.shape:
            raise EmptySeriesError("dates and values must have equal length")

    def __len__(self) -> int:
        return len(self.values)


def rolling_median(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing rolling median; output has len(values) - window + 1 entries.

    Entry k is the median of ``values[k : k + window]``. For even windows the
    median is the midpoint of the two central order statistics, matching a
    sort-per-window computation exactly. One sorted list of the window slides
    along by bisection; NaN would break its order, so values must be finite.
    """
    arr = np.asarray(values, dtype=np.float64)
    if window < 1:
        raise WindowTooLargeError(f"window must be >= 1, got {window}")
    if arr.size == 0:
        raise EmptySeriesError("cannot filter an empty series")
    if window > arr.size:
        raise WindowTooLargeError(f"window {window} exceeds series length {arr.size}")
    if not np.isfinite(arr).all():
        raise NonFiniteError("a rolling median needs finite values, not NaN or inf")
    vals = arr.tolist()
    ordered, lo, hi = sorted(vals[:window]), (window - 1) // 2, window // 2
    sums = [ordered[lo] + ordered[hi]]
    for leaving, arriving in zip(vals, vals[window:]):
        del ordered[bisect_left(ordered, leaving)]
        insort(ordered, arriving)
        sums.append(ordered[lo] + ordered[hi])
    return np.array(sums) / 2.0


def detrend(series: PriceSeries, filter_size: int = DEFAULT_FILTER_SIZE) -> FilteredSeries:
    """Subtract the trailing rolling median of the log prices."""
    logs = log_prices(series)
    med = rolling_median(logs, filter_size)
    return FilteredSeries(
        dates=series.dates[filter_size - 1:],
        values=logs[filter_size - 1:] - med,
        filter_size=filter_size,
        name=series.name,
    )


def daily_returns(log_values: np.ndarray) -> np.ndarray:
    """One-step differences; sums telescope to last - first."""
    arr = np.asarray(log_values, dtype=np.float64)
    if arr.size < 2:
        raise EmptySeriesError("returns need at least two observations")
    return np.diff(arr)


def threshold_from_std(filtered: Union[FilteredSeries, np.ndarray]) -> float:
    """Default barrier level: sample std of the detrended series values."""
    vals = filtered.values if isinstance(filtered, FilteredSeries) else np.asarray(filtered)
    if vals.size < 2:
        raise EmptySeriesError("need at least two filtered values")
    rho = float(np.std(vals, ddof=1))
    if rho == 0.0:
        raise ZeroVarianceError("filtered series is constant; rho would be 0")
    return rho
