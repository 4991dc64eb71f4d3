"""First-hitting-time extraction from a detrended series.

For every anchor index t (all positions with at least one later observation)
the gain time is the first lead Delta >= 1 whose cumulative increment clears
the barrier:

    tau_plus(t)  = min{ Delta >= 1 : x[t+Delta] - x[t] >= +rho }
    tau_minus(t) = min{ Delta >= 1 : x[t+Delta] - x[t] <= -rho }

Anchors whose barrier is never reached before the series ends are censored:
they are dropped from the sample and only counted. Anchors overlap, so
consecutive hitting times are correlated; the downstream models treat them as
exchangeable draws, matching the construction they were designed for.

Algorithm. Each side is one first-passage search on y = x (gain) or y = -x
(loss; negation is exact, so ``-x[j] - -x[t] >= rho`` is ``x[j] - x[t] <= -rho``
bit for bit). A sparse table holds the running maxima of y over blocks of
2**k steps, one array per level k; each anchor then lifts its candidate
position from the top level down, skipping a block when no value in it clears
the barrier. That costs O(n log n) time and log2(n) arrays of n floats (about
3 MB at 25k observations) for all anchors at once, where a scan over every lag
costs O(n^2), since anchors near the series end are censored and keep it
going to the last lag.

The test is kept in the difference form of the definition,
``fl(block_max - y[t]) >= rho``. Rounded subtraction is monotone, so
``fl(max_j y[j] - y[t]) == max_j fl(y[j] - y[t])`` and the search finds
exactly the lead that evaluating the definition in floating point gives. The
level form ``y[j] >= y[t] + rho`` rounds differently: for x = [0.4, 0.7],
rho = 0.3 the difference 0.7 - 0.4 falls below 0.3, so the anchor is
censored, while 0.4 + 0.3 rounds to 0.7 and would give tau = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySeriesError, EmptySideError, NonFiniteError, NonPositiveRhoError

__all__ = ["HittingSample", "LogHittingSample", "hitting_times", "log_sample"]


@dataclass(frozen=True)
class HittingSample:
    """Uncensored first-hitting times (in observation steps) for both sides."""

    tau_plus: np.ndarray
    tau_minus: np.ndarray
    rho: float
    n_anchors: int
    censored_plus: int
    censored_minus: int

    def __post_init__(self):
        object.__setattr__(self, "tau_plus", np.asarray(self.tau_plus, dtype=np.int64))
        object.__setattr__(self, "tau_minus", np.asarray(self.tau_minus, dtype=np.int64))


@dataclass(frozen=True)
class LogHittingSample:
    """Natural logs of the hitting times; the data both models are fit to."""

    x_plus: np.ndarray
    x_minus: np.ndarray
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "x_plus", np.asarray(self.x_plus, dtype=np.float64))
        object.__setattr__(self, "x_minus", np.asarray(self.x_minus, dtype=np.float64))

    @property
    def n_plus(self) -> int:
        return int(self.x_plus.size)

    @property
    def n_minus(self) -> int:
        return int(self.x_minus.size)


def hitting_times(values: np.ndarray, rho: float) -> HittingSample:
    """Extract tau_plus / tau_minus samples from a detrended series.

    Parameters
    ----------
    values : np.ndarray
        Detrended series x, one value per observation step.
    rho : float
        Barrier level, strictly positive.
    """
    if not np.isfinite(rho) or rho <= 0.0:
        raise NonPositiveRhoError(f"rho must be a positive number, got {rho}")
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n < 2:
        raise EmptySeriesError("hitting times need at least two observations")
    if not np.isfinite(x).all():
        raise NonFiniteError("hitting times need finite values; the series holds NaN or inf")
    tau_p = _first_passage(x, rho)
    tau_m = _first_passage(-x, rho)
    return HittingSample(
        tau_plus=tau_p[tau_p > 0],
        tau_minus=tau_m[tau_m > 0],
        rho=float(rho),
        n_anchors=n - 1,
        censored_plus=int(np.count_nonzero(tau_p == 0)),
        censored_minus=int(np.count_nonzero(tau_m == 0)),
    )


def _first_passage(y: np.ndarray, rho: float) -> np.ndarray:
    """Per anchor t, the least lead d >= 1 with fl(y[t+d] - y[t]) >= rho; 0 if none."""
    n = y.size
    # table[k][i] = max(y[i : i + 2**k]); +inf where that block runs past the
    # end (index n included), so the search never skips beyond the series.
    table = [np.append(y, np.inf)]
    while 2 ** len(table) <= n - 1:
        half = 2 ** (len(table) - 1)
        level = np.full(n + 1, np.inf)
        np.maximum(table[-1][:-half], table[-1][half:], out=level[:-half])
        table.append(level)
    anchors = np.arange(n - 1)
    base = y[:-1]
    pos = anchors + 1  # invariant: no position in (t, pos) clears the barrier
    for k in range(len(table) - 1, -1, -1):
        pos[table[k][pos] - base < rho] += 2 ** k
    # pos is now the first position that clears, or n if the anchor is censored.
    return np.where(pos < n, pos - anchors, 0)


def log_sample(sample: HittingSample) -> LogHittingSample:
    """Map tau to x = ln tau on both sides (x >= 0 because tau >= 1)."""
    if sample.tau_plus.size == 0:
        raise EmptySideError("no uncensored gain times; cannot build a log sample")
    if sample.tau_minus.size == 0:
        raise EmptySideError("no uncensored loss times; cannot build a log sample")
    return LogHittingSample(
        x_plus=np.log(sample.tau_plus.astype(np.float64)),
        x_minus=np.log(sample.tau_minus.astype(np.float64)),
        rho=sample.rho,
    )
