"""Bayesian gain-loss asymmetry analysis of financial price series.

The package measures how long an index takes to gain a fixed log return
versus losing it. Prices are detrended with a trailing rolling median, first
hitting times of a barrier +/- rho are collected for every anchor day, and
the log hitting times of the two sides are compared through hierarchical
Student-t and Inverse-Gamma models fitted with a built-in No-U-Turn sampler.
The asymmetry is summarized by the posterior of the standardized location
difference d, with highest-density intervals, convergence diagnostics and
WAIC model comparison; a geometric-Brownian first-passage oracle validates
the whole pipeline end to end.

Typical use::

    from gainloss import parse_csv, fit_series, ModelKind, SamplerConfig

    series = parse_csv("sp500.csv")
    reports, _ = fit_series(series, list(ModelKind), SamplerConfig(seed=1))
    for r in reports:
        print(r.model, r.d_mean, (r.hdi_low, r.hdi_high))

The same pipeline is scriptable through the ``gainloss`` command line tool.
"""

from .detrend import (
    DEFAULT_FILTER_SIZE,
    FilteredSeries,
    daily_returns,
    detrend,
    rolling_median,
    threshold_from_std,
)
from .diagnostics import (
    FitReport,
    WaicResult,
    build_report,
    effect_size_draws,
    ess,
    gelman_rubin,
    hdi,
    pooled_effect_size,
    prob_below,
    waic,
)
from .errors import GainLossError
from .gbm import (
    FHTSample,
    fht_cdf,
    fht_density,
    fht_mean,
    ks_validate,
    simulate_fht,
    simulate_fht_two_sided,
)
from .hitting import HittingSample, LogHittingSample, hitting_times, log_sample
from .models import (
    FAMILIES,
    ModelKind,
    ModelSpec,
    Posterior,
    SidePrior,
)
from .nuts import SamplerConfig, Trace, nuts_draw, run_chains, save_trace
from .pipeline import (
    DEFAULT_FILTER_GRID,
    DEFAULT_RHO_SCALES,
    ScanPoint,
    fit_log_sample,
    fit_series,
    prepare_sample,
    scan_filter,
    scan_rho,
    scan_window,
    synthetic_gbm_series,
)
from .series import (
    PriceSeries,
    SeriesStats,
    align_common_dates,
    cross_correlation,
    log_prices,
    parse_csv,
    slice_window,
    summary_stats,
)

__version__ = "0.1.0"
