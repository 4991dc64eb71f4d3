"""Posterior summaries, convergence checks and model comparison.

The headline quantity is the standardized location difference ("effect
size") between the gain and loss sides,

    d = (loc_plus - loc_minus) / s_pooled,
    s_pooled^2 = (scale_plus^2 (N+ - 1) + scale_minus^2 (N- - 1)) / (N+ + N- - 2),

evaluated per posterior draw, so d itself has a posterior. N+ and N- are the
sizes of the two sides of the posterior a trace was drawn from; a report reads
them, and the model, from that posterior. Convergence is
judged with the between/within-chain variance ratio (potential scale
reduction) and a multi-chain autocorrelation effective sample size; model fit
is compared with the widely applicable information criterion, computed after
sampling with one log-likelihood row per distinct value, weighted by count.

A report's memory is O(``LOGLIK_BLOCK``), whatever the number of distinct
values. WAIC reads the log likelihoods as float64 rows, one per distinct
value and one column per draw, a block of rows at a time, from a
:class:`~gainloss.models.LoglikMatrix` that computes only the block asked
for. Each row's lppd and p_waic terms are reductions along its contiguous
draw axis, which numpy sums pairwise within the row, so a row's terms do
not depend on the block it falls in, nor on the worker process that
computes the block: the blocks are :func:`~gainloss.workers.fork_map` tasks.
Held whole, the matrix of the default 4 x 4000 draws would take 1.4 GB for
the 10.9k distinct hitting times of a synthetic 25k-day series at barrier
scale 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import (
    DegenerateChainsError,
    DegenerateSampleSizesError,
    MalformedReportError,
    TooFewSamplesError,
)
from .models import LoglikMatrix, Posterior
from .nuts import Trace
from .workers import fork_map

__all__ = [
    "effect_size_draws",
    "pooled_effect_size",
    "hdi",
    "prob_below",
    "gelman_rubin",
    "ess",
    "WaicResult",
    "waic",
    "FitReport",
    "build_report",
    "REPORT_CSV_HEADER",
]

HDI_MASS = 0.94
MIN_CHAINS = 2            # R^ compares chains
MIN_CHAIN_DRAWS = 4       # per chain, for R^ and ESS
MIN_HDI_SAMPLES = 50      # pooled over chains
_HIST_BINS = 60
# Elements of one [rows x draws] float64 block of WAIC's row loop: 1 MB, so
# its temporaries stay in cache
LOGLIK_BLOCK = 1 << 17


def pooled_effect_size(loc_plus, loc_minus, scale_plus, scale_minus,
                       n_plus: int, n_minus: int):
    """Standardized difference with a pooled scale; vectorized over draws."""
    if n_plus < 2 or n_minus < 2:
        raise DegenerateSampleSizesError(
            f"pooling needs >= 2 observations per side, got {n_plus}, {n_minus}"
        )
    num = (np.asarray(scale_plus) ** 2) * (n_plus - 1) \
        + (np.asarray(scale_minus) ** 2) * (n_minus - 1)
    pooled = np.sqrt(num / (n_plus + n_minus - 2))
    return (np.asarray(loc_plus) - np.asarray(loc_minus)) / pooled


def effect_size_draws(trace: Trace, posterior: Posterior) -> np.ndarray:
    """Effect-size posterior, [n_chains, n_draw], from a trace of ``posterior``.

    The posterior's family names the location and scale parameters, and its
    two sides give the sizes the scale is pooled over.
    """
    family = posterior.family
    (loc_p, loc_m), (sc_p, sc_m) = (
        [trace.chains_for(name) for name in family.side_names(index)]
        for index in (family.loc, family.scale)
    )
    return pooled_effect_size(loc_p, loc_m, sc_p, sc_m,
                              posterior.x_plus.size, posterior.x_minus.size)


def hdi(samples: np.ndarray, mass: float = HDI_MASS) -> tuple[float, float]:
    """Narrowest interval of sorted samples containing ceil(mass * n) of them."""
    if not (0.0 < mass < 1.0):
        raise TooFewSamplesError(f"mass must lie in (0, 1), got {mass}")
    x = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    n = x.size
    if n < MIN_HDI_SAMPLES:
        raise TooFewSamplesError(f"need >= {MIN_HDI_SAMPLES} samples, got {n}")
    n_keep = int(math.ceil(mass * n))
    widths = x[n_keep - 1:] - x[: n - n_keep + 1]
    best = int(np.argmin(widths))
    return float(x[best]), float(x[best + n_keep - 1])


def prob_below(samples: np.ndarray, ref: float = 0.0) -> float:
    """Fraction of samples strictly below the reference value."""
    x = np.asarray(samples).reshape(-1)
    if x.size == 0:
        raise TooFewSamplesError("no samples")
    return float(np.mean(x < ref))


def _check_chains(chains: np.ndarray) -> np.ndarray:
    arr = np.asarray(chains, dtype=np.float64)
    if arr.ndim != 2:
        raise DegenerateChainsError(f"expected [n_chains, n_draw], got shape {arr.shape}")
    if arr.shape[1] < MIN_CHAIN_DRAWS:
        raise TooFewSamplesError(f"need at least {MIN_CHAIN_DRAWS} draws per chain")
    if np.any(np.var(arr, axis=1) == 0.0):
        raise DegenerateChainsError("a chain has zero variance")
    return arr


def gelman_rubin(chains: np.ndarray) -> float:
    """Potential scale reduction factor R_c over chains of equal length.

    B is the between-chain variance of chain means (scaled by n), W the mean
    within-chain sample variance; R_c = sqrt(V / W) with
    V = (n-1)/n W + (m+1)/(m n) B.
    """
    arr = _check_chains(chains)
    m, n = arr.shape
    if m < MIN_CHAINS:
        raise DegenerateChainsError(
            f"potential scale reduction needs >= {MIN_CHAINS} chains")
    means = arr.mean(axis=1)
    w = float(np.mean(np.var(arr, axis=1, ddof=1)))
    b = n / (m - 1.0) * float(np.sum((means - means.mean()) ** 2))
    v = (n - 1.0) / n * w + (m + 1.0) / (m * n) * b
    return math.sqrt(v / w)


def _autocov_fft(arr: np.ndarray) -> np.ndarray:
    """Biased (1/n) autocovariance of each row, all lags, via FFT."""
    m, n = arr.shape
    centered = arr - arr.mean(axis=1, keepdims=True)
    size = 1
    while size < 2 * n:
        size *= 2
    f = np.fft.rfft(centered, size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n].real
    return acov / n


def ess(chains: np.ndarray) -> float:
    """Effective sample size from a multi-chain autocorrelation estimate.

    The combined lag-t autocorrelation is
        rho_t = 1 - (W - mean_m acov_{t,m}) / var_plus,
    summed over Geyer's initial positive sequence of paired sums
    P_t = rho_{2t} + rho_{2t+1}; tau = -1 + 2 sum P_t and
    ESS = m n / tau, capped at m n.
    """
    arr = _check_chains(chains)
    m, n = arr.shape
    w = float(np.mean(np.var(arr, axis=1, ddof=1)))
    if m >= 2:
        var_plus = (n - 1.0) / n * w + float(np.var(arr.mean(axis=1), ddof=1))
    else:
        var_plus = (n - 1.0) / n * w
    acov = _autocov_fft(arr).mean(axis=0)
    rho = 1.0 - (w - acov) / var_plus
    total = 0.0
    t = 0
    while 2 * t + 1 < n:
        pair = rho[2 * t] + rho[2 * t + 1]
        if pair <= 0.0:
            break
        total += pair
        t += 1
    tau = -1.0 + 2.0 * total
    size = float(m * n)
    if tau <= 0.0:
        return size
    return min(size / tau, size)


@dataclass(frozen=True)
class WaicResult:
    waic: float
    se: float
    lppd: float
    p_waic: float
    n_obs: int


def _column_terms(ll) -> tuple[np.ndarray, np.ndarray]:
    """The lppd and p_waic terms of each column of a [draws, n] array, or of
    each row of a :class:`~gainloss.models.LoglikMatrix`.

    Both are read as float64 rows, one per observation or distinct value and
    ``LOGLIK_BLOCK // draws`` at a time, so the temporaries stay cache-sized
    and a :class:`~gainloss.models.LoglikMatrix` is never held whole. Each
    block is one :func:`~gainloss.workers.fork_map` task, so the blocks spread
    over the usable CPUs, and a single block runs in this process.
    """
    if isinstance(ll, LoglikMatrix):
        (n_cols, n_draws), rows = ll.shape, ll.rows
    else:
        ll = np.asarray(ll)
        if ll.ndim != 2:
            raise TooFewSamplesError(f"expected [draws, n_obs], got shape {ll.shape}")
        n_draws, n_cols = ll.shape

        def rows(start, stop):
            return np.ascontiguousarray(ll[:, start:stop].T, dtype=np.float64)
    if n_draws < 2 or n_cols < 1:
        raise TooFewSamplesError("waic needs >= 2 draws and >= 1 observation")
    height = max(1, LOGLIK_BLOCK // n_draws)

    def terms(k: int) -> tuple[np.ndarray, np.ndarray]:
        block = rows(k * height, min((k + 1) * height, n_cols))
        peak = block.max(axis=1, keepdims=True)
        lppd = peak[:, 0] + np.log(np.exp(block - peak).sum(axis=1) / n_draws)
        return lppd, block.var(axis=1, ddof=1)

    lppd_i, p_i = zip(*fork_map(terms, -(-n_cols // height)))
    return np.concatenate(lppd_i), np.concatenate(p_i)


def waic(pointwise_loglik, counts: Optional[np.ndarray] = None) -> WaicResult:
    """Widely applicable information criterion, -2(lppd - p_waic).

    ``pointwise_loglik`` is a [draws, n] array, with one row per retained
    posterior draw and one column per observation, or per distinct value
    when ``counts`` gives how many observations share each column (``None``:
    one each); or it is a :class:`~gainloss.models.LoglikMatrix`, whose rows
    are the distinct values. The effective parameter count is the
    count-weighted sum of per-value sample variances; the standard error
    scales the spread of per-observation contributions by sqrt(n_obs), with
    n_obs the total count. Memory is O(``LOGLIK_BLOCK``) beyond the input,
    whatever the number of values.
    """
    lppd_i, p_i = _column_terms(pointwise_loglik)
    c = np.ones(p_i.size) if counts is None else np.asarray(counts, dtype=np.float64)
    contrib = -2.0 * (lppd_i - p_i)
    # numpy's own summation, not a BLAS dot, whose rounding follows the CPU
    n = float(c.sum())
    total = float((c * contrib).sum())
    spread = float((c * (contrib - total / n) ** 2).sum())
    se = math.sqrt(n * (spread / (n - 1.0))) if n > 1.0 else 0.0
    return WaicResult(
        waic=total,
        se=se,
        lppd=float((c * lppd_i).sum()),
        p_waic=float((c * p_i).sum()),
        n_obs=int(n),
    )


REPORT_CSV_HEADER = "index,rho,d_mean,d_std,ess,waic,waic_se"

_REPORT_SCHEMA = "gainloss-fit-report/1"


def _conforms(value, hint) -> bool:
    """Whether a value loaded from JSON has the annotated type.

    Integers pass as floats, but booleans pass as neither.
    """
    args = get_args(hint)
    if get_origin(hint) is dict:
        return isinstance(value, dict) and all(
            _conforms(k, args[0]) and _conforms(v, args[1]) for k, v in value.items())
    if get_origin(hint) is tuple:
        return isinstance(value, tuple) and all(_conforms(v, args[0]) for v in value)
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass(frozen=True)
class FitReport:
    """Everything a fit produces, ready for serialization and plotting."""

    index_id: str
    model: str
    rho: float
    filter_size: int
    n_plus: int
    n_minus: int
    d_mean: float
    d_std: float
    hdi_low: float
    hdi_high: float
    hdi_mass: float
    prob_below_ref: float
    ref: float
    ess_d: float
    rhat: dict[str, float]
    waic: float
    waic_se: float
    divergence_rate: float
    n_chains: int
    n_draw: int
    n_tune: int
    seed: int
    n_dropped_plus: int = 0
    n_dropped_minus: int = 0
    d_hist_edges: tuple[float, ...] = field(default_factory=tuple)
    d_hist_counts: tuple[int, ...] = field(default_factory=tuple)

    @property
    def max_rhat(self) -> float:
        return max(self.rhat.values())

    def csv_row(self) -> str:
        return (
            f"{self.index_id.replace(',', ';')},{self.rho:.10g},{self.d_mean:.10g},"
            f"{self.d_std:.10g},{self.ess_d:.10g},{self.waic:.10g},"
            f"{self.waic_se:.10g}"
        )

    def to_json(self) -> str:
        payload = asdict(self)
        payload["d_hist_edges"] = list(payload["d_hist_edges"])
        payload["d_hist_counts"] = list(payload["d_hist_counts"])
        payload["schema"] = _REPORT_SCHEMA
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedReportError(f"not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise MalformedReportError("report JSON must be an object")
        payload.pop("schema", None)
        try:
            payload["d_hist_edges"] = tuple(payload.get("d_hist_edges", ()))
            payload["d_hist_counts"] = tuple(payload.get("d_hist_counts", ()))
            report = cls(**payload)
        except TypeError as exc:
            raise MalformedReportError(f"missing or bad report field: {exc}") from exc
        hints = get_type_hints(cls)
        # max_rhat, the convergence gate, needs at least one number
        if not (_conforms(report.rhat, hints["rhat"]) and report.rhat):
            raise MalformedReportError(
                f"rhat must map parameter names to numbers, got {report.rhat!r}")
        for f in fields(cls):
            value, hint = getattr(report, f.name), hints[f.name]
            if not _conforms(value, hint):
                want = hint.__name__ if get_origin(hint) is None else hint
                raise MalformedReportError(
                    f"report field {f.name} must be {want}, got {value!r}")
        return report

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FitReport":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def build_report(
    trace: Trace,
    posterior: Posterior,
    *,
    index_id: str,
    rho: float,
    filter_size: int,
    hdi_mass: float = HDI_MASS,
    n_dropped_plus: int = 0,
    n_dropped_minus: int = 0,
) -> FitReport:
    """Summarize one trace of ``posterior``, which gives the model and the
    side sizes, into a :class:`FitReport`."""
    d = effect_size_draws(trace, posterior)
    flat = d.reshape(-1)
    lo, hi = hdi(flat, hdi_mass)
    rhat = {name: gelman_rubin(trace.chains_for(name)) for name in trace.param_names}
    rhat["d"] = gelman_rubin(d)
    draws = trace.draws.reshape(-1, trace.draws.shape[2])
    w = waic(LoglikMatrix(posterior, draws), posterior.counts)
    counts, edges = np.histogram(flat, bins=_HIST_BINS)
    return FitReport(
        index_id=index_id,
        model=str(posterior.spec.kind),
        rho=float(rho),
        filter_size=int(filter_size),
        n_plus=posterior.x_plus.size,
        n_minus=posterior.x_minus.size,
        d_mean=float(np.mean(flat)),
        d_std=float(np.std(flat, ddof=1)),
        hdi_low=lo,
        hdi_high=hi,
        hdi_mass=float(hdi_mass),
        prob_below_ref=prob_below(flat),
        ref=0.0,
        ess_d=ess(d),
        rhat=rhat,
        waic=w.waic,
        waic_se=w.se,
        divergence_rate=trace.divergence_rate,
        n_chains=trace.n_chains,
        n_draw=trace.n_draw,
        n_tune=trace.config.n_tune,
        seed=trace.config.seed,
        n_dropped_plus=n_dropped_plus,
        n_dropped_minus=n_dropped_minus,
        d_hist_edges=tuple(float(e) for e in edges),
        d_hist_counts=tuple(int(c) for c in counts),
    )
