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

    from gainloss.models import ModelKind
    from gainloss.nuts import SamplerConfig
    from gainloss.pipeline import fit_series
    from gainloss.series import parse_csv

    series = parse_csv("sp500.csv")
    reports, _ = fit_series(series, list(ModelKind), SamplerConfig(seed=1))
    for r in reports:
        print(r.model, r.d_mean, (r.hdi_low, r.hdi_high))

The same pipeline is scriptable through the ``gainloss`` command line tool.
"""

__version__ = "0.1.0"
