"""First-passage oracle for drifting Brownian log prices.

Under geometric Brownian motion the log price is a Brownian motion with
drift; its first-passage time through a level ``rho`` (starting gap
``rho`` > 0) has the closed-form density

    p(t) = sqrt(rho^2 / (2 pi Sigma^2 t^3)) * exp(-(lam t - rho)^2 / (2 Sigma^2 t)),

with mean rho / lam when lam > 0. The module simulates Euler paths of the
log price, evaluates the density, and checks the two against each other with
a Kolmogorov-Smirnov distance; it is the validation harness for the
hitting-time pipeline, not part of the data path. The one-sided and the
two-sided simulators are thin wrappers over one Euler loop that follows each
path until it has hit every barrier it is given.

Crossings are detected per step by sampling the exact bridge crossing
probability exp(-2 a b / (Sigma^2 dt)) between consecutive grid values
(a, b = distances to the barrier). Checking only grid endpoints would shift
the effective barrier by about 0.58 Sigma sqrt(dt), which at dt = 1/200 is a
visible KS bias (~0.02) against the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ExcessCensoringError,
    NonPositiveRhoError,
    TooFewSamplesError,
)

__all__ = [
    "FHTSample",
    "simulate_fht",
    "simulate_fht_two_sided",
    "fht_density",
    "fht_cdf",
    "fht_mean",
    "ks_statistic",
    "ks_validate",
]

_PATH_CHUNK = 20_000   # paths simulated per RNG stream; fixed for determinism
_STEP_BLOCK = 128      # steps advanced per vectorized block

MAX_CENSORING = 0.01


@dataclass(frozen=True)
class FHTSample:
    """Uncensored simulated first-passage times, in the drift's time unit."""

    taus: np.ndarray
    n_paths: int
    n_censored: int
    lam: float
    sigma: float
    rho: float
    dt: float
    horizon: float
    seed: int

    @property
    def censoring_rate(self) -> float:
        return self.n_censored / self.n_paths if self.n_paths else 0.0


def _check_params(sigma: float, rho: float, dt: float, horizon: float, seed: int):
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if rho <= 0.0:
        raise NonPositiveRhoError(f"rho must be positive, got {rho}")
    if dt <= 0.0 or horizon <= dt:
        raise DomainError(f"need 0 < dt < horizon, got dt={dt}, horizon={horizon}")
    if seed < 0:  # numpy's SeedSequence refuses a negative entropy
        raise DomainError(f"seed must be >= 0, got {seed}")


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
    return np.random.Generator(np.random.Philox(seq))


def _crossing_matrix(x0: np.ndarray, path: np.ndarray, barrier: float,
                     sig2dt: float, uniforms: np.ndarray) -> np.ndarray:
    """Per-(path, step) crossing indicators against one barrier.

    The bridge crossing probability between consecutive grid values v, w on
    the same side of the barrier is exp(-2 (barrier-v)(barrier-w) / sig2dt),
    for upper and lower barriers alike. When a step's endpoint has already
    crossed, the clipped exponent is >= 0 and the probability saturates at 1,
    so endpoint hits and sampled in-step hits come out of one comparison.
    """
    prev = np.concatenate([x0[:, None], path[:, :-1]], axis=1)
    expo = -2.0 * (barrier - prev) * (barrier - path) / sig2dt
    return uniforms < np.exp(np.minimum(expo, 0.0))


def _first_passages(barriers: tuple[float, ...], lam: float, sigma: float,
                    dt: float, n_paths: int, horizon: float,
                    seed: int) -> np.ndarray:
    """Euler first passages of paths from 0 through each barrier.

    Returns a [barrier x path] array of passage times, nan where censored.
    Per block of steps the chunk's generator draws the normals, then one
    uniform array per barrier in the given order; a path retires once every
    barrier is hit. With one barrier this is the one-sided simulation.
    """
    if n_paths < 1:
        raise DomainError("need at least one path")
    n_steps = int(round(horizon / dt))
    taus = np.full((len(barriers), n_paths), np.nan)
    scale = sigma * math.sqrt(dt)
    drift = lam * dt
    sig2dt = sigma * sigma * dt
    for chunk_idx, start in enumerate(range(0, n_paths, _PATH_CHUNK)):
        size = min(_PATH_CHUNK, n_paths - start)
        rng = _chunk_rng(seed, chunk_idx)
        x = np.zeros(size)
        alive = np.arange(size)
        k = 0
        while alive.size and k < n_steps:
            b = min(_STEP_BLOCK, n_steps - k)
            inc = rng.standard_normal((alive.size, b)) * scale + drift
            np.cumsum(inc, axis=1, out=inc)
            inc += x[alive, None]
            rows = start + alive
            for tau, barrier in zip(taus, barriers):
                crossed = _crossing_matrix(x[alive], inc, barrier, sig2dt,
                                           rng.random((alive.size, b)))
                new = crossed.any(axis=1) & np.isnan(tau[rows])
                tau[rows[new]] = (k + crossed.argmax(axis=1)[new] + 1) * dt
            survive = np.isnan(taus[:, rows]).any(axis=0)
            x[alive[survive]] = inc[survive, -1]
            alive = alive[survive]
            k += b
    return taus


def _sample(taus: np.ndarray, lam: float, sigma: float, rho: float, dt: float,
            horizon: float, seed: int) -> FHTSample:
    kept = taus[~np.isnan(taus)]
    return FHTSample(kept, taus.size, int(taus.size - kept.size), lam, sigma,
                     rho, dt, horizon, seed)


def simulate_fht(
    lam: float,
    sigma: float,
    rho: float,
    dt: float,
    n_paths: int,
    horizon: float = 500.0,
    seed: int = 0,
) -> FHTSample:
    """Euler simulation of the first passage of x through +rho.

    Each step adds ``lam * dt + sigma * sqrt(dt) * xi`` to the log price;
    crossings are detected per step with the bridge probability (see module
    docstring) and reported at the end of the crossing step, k * dt. Paths
    still below the barrier at the horizon are censored and only counted.
    Paths are simulated in fixed-size chunks, each driven by a counter-based
    generator keyed on (seed, chunk), so results are reproducible regardless
    of how the chunks are processed.
    """
    _check_params(sigma, rho, dt, horizon, seed)
    taus = _first_passages((rho,), lam, sigma, dt, n_paths, horizon, seed)
    return _sample(taus[0], lam, sigma, rho, dt, horizon, seed)


def simulate_fht_two_sided(
    sigma: float,
    rho: float,
    dt: float,
    n_paths: int,
    horizon: float = 500.0,
    seed: int = 0,
    lam: float = 0.0,
) -> tuple[FHTSample, FHTSample]:
    """First passages through +rho and -rho recorded on the same paths.

    Returns (up, down) samples; for lam = 0 the two are identically
    distributed, which is the symmetry check the asymmetry pipeline is
    validated against. A path is followed until it has hit both barriers.
    """
    _check_params(sigma, rho, dt, horizon, seed)
    up, down = _first_passages((rho, -rho), lam, sigma, dt, n_paths, horizon, seed)
    return (_sample(up, lam, sigma, rho, dt, horizon, seed),
            _sample(down, lam, sigma, rho, dt, horizon, seed))


def fht_density(t, lam: float, sigma: float, rho: float):
    """Closed-form first-passage density of drifted Brownian motion.

    Defined for t > 0 only. ``rho`` may carry either sign (the formula uses
    only rho**2 and (lam*t - rho)**2, so flipping the signs of rho and lam
    together leaves the density unchanged); it must be nonzero.
    """
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if rho == 0.0:
        raise NonPositiveRhoError("rho must be nonzero")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise DomainError("the passage-time density is defined for t > 0 only")
    var = sigma * sigma * t
    out = np.sqrt(rho * rho / (2.0 * math.pi * var * t * t)) \
        * np.exp(-((lam * t - rho) ** 2) / (2.0 * var))
    return out if out.shape else float(out)


def fht_cdf(t, lam: float, sigma: float, rho: float, n_grid: int = 200_001):
    """CDF by trapezoid integration of :func:`fht_density` on a log grid."""
    t = np.asarray(t, dtype=np.float64)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    t_max = float(t.max()) if t.size else 1.0
    if t_max <= 0.0:
        return float(t.squeeze() * 0.0) if scalar else np.zeros_like(t)
    grid = np.geomspace(t_max * 1e-9, t_max, n_grid)
    # Density vanishes as t -> 0+, so anchor the integral with p(0) = 0.
    dens = np.concatenate([[0.0], fht_density(grid, lam, sigma, rho)])
    grid = np.concatenate([[0.0], grid])
    steps = np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * steps)])
    out = np.interp(t, grid, cum)
    return float(out[0]) if scalar else out


def fht_mean(lam: float, rho: float) -> float:
    """Mean first-passage time rho / lam (optional-stopping identity)."""
    if lam <= 0.0:
        raise DomainError("the mean passage time is finite only for lam > 0")
    if rho <= 0.0:
        raise NonPositiveRhoError(f"rho must be positive, got {rho}")
    return rho / lam


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """sup-distance between an empirical CDF and model CDF values.

    ``cdf_values`` are the model CDF evaluated at the *sorted* samples.
    """
    n = samples.size
    if n == 0:
        raise DomainError("empty sample")
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(cdf_values - grid_hi),
                                   np.abs(cdf_values - grid_lo))))


def ks_validate(sample: FHTSample, max_censoring: float = MAX_CENSORING) -> float:
    """KS distance between simulated passage times and the closed-form law.

    Raises :class:`ExcessCensoringError` when more than ``max_censoring`` of
    the paths never crossed, since then the empirical CDF is too distorted
    for the comparison to mean anything.
    """
    if sample.taus.size < 1000:
        raise TooFewSamplesError(
            f"need >= 1000 uncensored passages, got {sample.taus.size}"
        )
    if sample.censoring_rate > max_censoring:
        raise ExcessCensoringError(
            f"censoring rate {sample.censoring_rate:.4f} exceeds {max_censoring}"
        )
    taus = np.sort(sample.taus)
    model = fht_cdf(taus, sample.lam, sample.sigma, sample.rho)
    return ks_statistic(taus, model)
