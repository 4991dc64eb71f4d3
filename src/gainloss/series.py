"""Price series ingest and summary statistics.

A series is a (date, close) table. Close prices enter every downstream stage
through their natural logarithm, so non-positive closes are rejected at the
door. Dates are calendar dates (numpy ``datetime64[D]``), strictly increasing.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date as _date
from pathlib import Path
from typing import Iterable, Sequence, TextIO, Union

import numpy as np

from .errors import (
    DuplicateDateError,
    EmptySeriesError,
    MalformedRowError,
    NonPositivePriceError,
    ZeroVarianceError,
)

__all__ = [
    "PriceSeries",
    "SeriesStats",
    "parse_csv",
    "log_prices",
    "slice_window",
    "summary_stats",
    "cross_correlation",
    "align_common_dates",
    "write_price_csv",
]

_EPOCH_ORDINAL = _date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


@dataclass(frozen=True)
class PriceSeries:
    """Daily close prices for one index.

    Attributes
    ----------
    dates : np.ndarray
        ``datetime64[D]``, strictly increasing, no duplicates.
    closes : np.ndarray
        float64, strictly positive and finite, same length as ``dates``.
    name : str
        Free-form identifier (usually the file stem), used in reports.
    """

    dates: np.ndarray
    closes: np.ndarray
    name: str = ""

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        closes = np.asarray(self.closes, dtype=np.float64)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "closes", closes)
        if dates.shape != closes.shape or dates.ndim != 1:
            raise MalformedRowError("dates and closes must be 1-d and equal length")
        if len(dates) == 0:
            raise EmptySeriesError("a price series needs at least one row")
        if not np.all(np.isfinite(closes)):
            raise NonPositivePriceError("close prices must be finite")
        if np.any(closes <= 0.0):
            bad = int(np.argmax(closes <= 0.0))
            raise NonPositivePriceError(
                f"close price {closes[bad]!r} on {dates[bad]} is not positive"
            )
        diffs = np.diff(dates.astype("int64"))
        if np.any(diffs == 0):
            bad = int(np.argmax(diffs == 0))
            raise DuplicateDateError(f"date {dates[bad]} appears more than once")
        if np.any(diffs < 0):
            raise MalformedRowError("dates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class SeriesStats:
    """Count, mean and sample standard deviation of one value column."""

    count: int
    mean: float
    std: float


def _coerce_row(row: Sequence[str], line_no: int) -> tuple[_date, float]:
    if len(row) < 2:
        raise MalformedRowError(f"line {line_no}: expected at least 2 columns, got {len(row)}")
    raw_date, raw_close = row[0].strip(), row[1].strip()
    try:
        day = _date.fromisoformat(raw_date)
    except ValueError as exc:
        raise MalformedRowError(f"line {line_no}: bad date {raw_date!r}") from exc
    try:
        close = float(raw_close)
    except ValueError as exc:
        raise MalformedRowError(f"line {line_no}: bad close {raw_close!r}") from exc
    if not math.isfinite(close):
        raise MalformedRowError(f"line {line_no}: close {raw_close!r} is not finite")
    if close <= 0.0:
        raise NonPositivePriceError(f"line {line_no}: close {close} is not positive")
    return day, close


def parse_csv(source: Union[str, Path, TextIO], name: str = "") -> PriceSeries:
    """Read a (date, close) CSV into a :class:`PriceSeries`.

    The first column must hold ISO dates (YYYY-MM-DD), the second a positive
    close price; extra columns are ignored. A leading UTF-8 byte-order mark
    is dropped. The first non-blank row is skipped as a header if its date
    field does not parse. Rows may arrive in any order; the result is sorted
    by date.

    Raises
    ------
    MalformedRowError, NonPositivePriceError, DuplicateDateError,
    EmptySeriesError
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        text = path.read_text(encoding="utf-8")
        if not name:
            name = path.stem
    else:
        text = source.read()
    text = text.removeprefix("\ufeff")  # a UTF-8 byte-order mark
    reader = csv.reader(io.StringIO(text))
    # plain Python per row; one conversion to numpy at the end
    dates: list[_date] = []
    closes: list[float] = []
    header_checked = False
    for line_no, row in enumerate(reader, start=1):
        if not "".join(row).strip():  # blank: no cells, or only whitespace
            continue
        if not header_checked:
            # Header detection: skip the first non-blank row only if its date
            # field does not parse.
            header_checked = True
            try:
                _date.fromisoformat(row[0].strip())
            except (ValueError, IndexError):
                continue
        day, close = _coerce_row(row, line_no)
        dates.append(day)
        closes.append(close)
    if not dates:
        raise EmptySeriesError("no data rows found")
    # via day numbers: numpy converts date objects one at a time, 20x slower
    days = (np.array([d.toordinal() for d in dates], dtype=np.int64)
            - _EPOCH_ORDINAL).astype("datetime64[D]")
    order = np.argsort(days, kind="stable")
    return PriceSeries(
        dates=days[order],
        closes=np.asarray(closes, dtype=np.float64)[order],
        name=name,
    )


def log_prices(series: PriceSeries) -> np.ndarray:
    """Natural log of the close column (positivity is enforced on construction)."""
    return np.log(series.closes)


def slice_window(
    series: PriceSeries,
    start: Union[str, _date, np.datetime64],
    end: Union[str, _date, np.datetime64],
) -> PriceSeries:
    """Restrict a series to dates in the closed interval [start, end]."""
    lo = np.datetime64(start, "D")
    hi = np.datetime64(end, "D")
    if lo > hi:
        raise EmptySeriesError(f"window [{lo}, {hi}] is empty")
    mask = (series.dates >= lo) & (series.dates <= hi)
    if not mask.any():
        raise EmptySeriesError(f"no observations inside [{lo}, {hi}]")
    return PriceSeries(series.dates[mask], series.closes[mask], series.name)


def summary_stats(values: Iterable[float]) -> SeriesStats:
    """Count, mean and sample (ddof=1) standard deviation of ``values``."""
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=np.float64)
    if arr.size == 0:
        raise EmptySeriesError("cannot summarize an empty value list")
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return SeriesStats(count=int(arr.size), mean=float(np.mean(arr)), std=std)


def cross_correlation(a: Iterable[float], b: Iterable[float]) -> float:
    """Pearson correlation of two equal-length value sequences."""
    xa = np.asarray(list(a) if not isinstance(a, np.ndarray) else a, dtype=np.float64)
    xb = np.asarray(list(b) if not isinstance(b, np.ndarray) else b, dtype=np.float64)
    if xa.size != xb.size:
        raise MalformedRowError(f"length mismatch: {xa.size} vs {xb.size}")
    if xa.size < 2:
        raise EmptySeriesError("correlation needs at least two observations")
    sa, sb = np.std(xa), np.std(xb)
    if sa == 0.0 or sb == 0.0:
        raise ZeroVarianceError("correlation is undefined for a constant series")
    return float(np.corrcoef(xa, xb)[0, 1])


def align_common_dates(a: PriceSeries, b: PriceSeries) -> tuple[PriceSeries, PriceSeries]:
    """Restrict two series to their shared dates (for cross-index correlation)."""
    common = np.intersect1d(a.dates, b.dates)
    if common.size == 0:
        raise EmptySeriesError("the two series share no dates")
    mask_a = np.isin(a.dates, common)
    mask_b = np.isin(b.dates, common)
    return (
        PriceSeries(a.dates[mask_a], a.closes[mask_a], a.name),
        PriceSeries(b.dates[mask_b], b.closes[mask_b], b.name),
    )


def write_price_csv(series: PriceSeries, path: Union[str, Path, None] = None) -> str:
    """Serialize a PriceSeries back to `date,close` text.

    Floats are written with repr (shortest round-tripping form), so
    parse -> write -> parse reproduces dates and closes exactly.
    """
    lines = ["date,close"]
    for day, close in zip(series.dates, series.closes):
        lines.append(f"{day},{float(close)!r}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
