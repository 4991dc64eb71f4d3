"""End-to-end orchestration: series -> detrend -> hitting times -> fits.

Every fit runs :func:`fit_log_sample`: one posterior per model, whose spec
holds the model and its side priors, and one report read off it. Its chains
are drawn by :func:`draw_fits`, which draws the chains of every fit it is
given in one set of forked workers, so the CPUs stay busy across fits; the
reports are then built in the calling process, one fit at a time.

Also hosts the three sensitivity scans (filter size, barrier scale, rolling
window) and a synthetic geometric-Brownian price generator used by the
validation suite and the demos. The scans share one loop: each builds a grid
of ``(label, filter_size, rho, logs)`` entries, ``logs`` the entry's
:class:`LogHittingSample` or the :class:`GainLossError` that stopped it, and
:func:`_run_grid` fits every model to each entry. A failed grid point never
aborts a scan; the failure is recorded on its row, whose numbers are NaN:
``nan`` in the scan CSV and ``null`` in its JSON twin.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .detrend import DEFAULT_FILTER_SIZE, FilteredSeries, detrend, threshold_from_std
from .diagnostics import HDI_MASS, FitReport, _conforms, build_report
from .errors import (
    GainLossError,
    MalformedReportError,
    NonPositiveRhoError,
    WindowTooLargeError,
)
from .hitting import HittingSample, LogHittingSample, hitting_times, log_sample
from .models import FAMILIES, ModelKind, ModelSpec, Posterior
from .nuts import SamplerConfig, Trace, run_chains_each
from .series import PriceSeries, SeriesStats, log_prices, slice_window, summary_stats

__all__ = [
    "DEFAULT_FILTER_GRID",
    "DEFAULT_RHO_SCALES",
    "DEFAULT_WINDOW_YEARS",
    "DEFAULT_WINDOW_FILTER",
    "DEFAULT_WINDOW_RHO",
    "RHAT_FAIL",
    "prepare_sample",
    "draw_fits",
    "fit_log_sample",
    "fit_series",
    "ScanPoint",
    "SCAN_CSV_HEADER",
    "scan_points_csv",
    "scan_points_json",
    "scan_filter",
    "scan_rho",
    "scan_window",
    "synthetic_gbm_series",
    "parse_model_choice",
]

# Sensitivity grids used by the published analysis.
DEFAULT_FILTER_GRID = (150, 175, 200, 225, 250, 275, 300, 325)
DEFAULT_RHO_SCALES = (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5)
DEFAULT_WINDOW_YEARS = 5
DEFAULT_WINDOW_FILTER = 100
DEFAULT_WINDOW_RHO = 0.028

RHAT_FAIL = 1.2  # any parameter at or above this marks the fit non-converged


def parse_model_choice(choice: str) -> tuple[ModelKind, ...]:
    """Map a CLI-style model choice onto the concrete kinds to fit."""
    table = {
        "student-t": (ModelKind.STUDENT_T,),
        "inv-gamma": (ModelKind.INV_GAMMA,),
        "both": (ModelKind.STUDENT_T, ModelKind.INV_GAMMA),
    }
    try:
        return table[choice]
    except KeyError as exc:
        raise GainLossError(
            f"unknown model {choice!r}; expected student-t, inv-gamma or both"
        ) from exc


def summarize_series(
    series: PriceSeries, filter_size: int = DEFAULT_FILTER_SIZE
) -> tuple[SeriesStats, SeriesStats]:
    """(raw, filtered) summaries: log prices, then the detrended values."""
    raw = summary_stats(log_prices(series))
    filt = summary_stats(detrend(series, filter_size).values)
    return raw, filt


def prepare_sample(
    series: PriceSeries,
    filter_size: int = DEFAULT_FILTER_SIZE,
    rho: Optional[float] = None,
) -> tuple[FilteredSeries, float, HittingSample, LogHittingSample]:
    """Detrend, pick the barrier level, and extract both hitting-time sides."""
    filtered = detrend(series, filter_size)
    if rho is None:
        rho = threshold_from_std(filtered)
    sample = hitting_times(filtered.values, rho)
    return filtered, rho, sample, log_sample(sample)


def _outcome(make, *args):
    """``make(*args)``, or the :class:`GainLossError` it raises."""
    try:
        return make(*args)
    except GainLossError as exc:
        return exc


def _posterior(logs: LogHittingSample, kind: ModelKind) -> Posterior:
    """The posterior of one model on the observations of a log hitting-time
    sample that lie inside the family's data support."""
    x_low = FAMILIES[kind].data_low
    x_plus, x_minus = logs.x_plus[logs.x_plus > x_low], logs.x_minus[logs.x_minus > x_low]
    return Posterior(ModelSpec.from_data(kind, x_plus, x_minus), x_plus, x_minus)


def draw_fits(fits: Sequence[tuple[LogHittingSample | GainLossError, ModelKind]],
              sampler: SamplerConfig) -> list:
    """Draw the traces of several fits, each a ``(logs, kind)`` pair, before
    any report: the posteriors are built here, then every chain of every fit
    runs in one :func:`run_chains_each`.

    Returns, per fit, its ``(posterior, trace)``, or the
    :class:`GainLossError` that stopped it: its ``logs``, when that is one,
    building its posterior, or its lowest failing chain. Each is the
    ``drawn`` of that fit's :func:`fit_log_sample`.
    """
    posteriors = [logs if isinstance(logs, GainLossError) else _outcome(_posterior, logs, kind)
                  for logs, kind in fits]
    traces = iter(run_chains_each(
        [p for p in posteriors if not isinstance(p, GainLossError)], sampler))
    drawn = []
    for posterior in posteriors:
        trace = posterior if isinstance(posterior, GainLossError) else next(traces)
        drawn.append(trace if isinstance(trace, GainLossError) else (posterior, trace))
    return drawn


def fit_log_sample(
    logs: LogHittingSample,
    kind: ModelKind,
    sampler: SamplerConfig,
    *,
    index_id: str = "",
    filter_size: int = 0,
    hdi_mass: float = HDI_MASS,
    drawn=None,
) -> tuple[FitReport, Trace]:
    """Fit one model to a log hitting-time sample and summarize it.

    Observations outside the family's data support are excluded from the
    fit and counted on the report: the Inverse-Gamma likelihood lives on
    x > 0, so it drops single-step hits (tau = 1, x = 0); the Student-t fit
    uses the full sample. The report records the sample's own barrier.

    ``drawn`` is this fit's entry of :func:`draw_fits`, which draws it here
    when it is None: its posterior and trace, or the error that stopped the
    fit, raised here.
    """
    if drawn is None:
        drawn = draw_fits([(logs, kind)], sampler)[0]
    if isinstance(drawn, GainLossError):
        raise drawn
    posterior, trace = drawn
    report = build_report(
        trace,
        posterior,
        index_id=index_id,
        rho=logs.rho,
        filter_size=filter_size,
        hdi_mass=hdi_mass,
        n_dropped_plus=logs.x_plus.size - posterior.x_plus.size,
        n_dropped_minus=logs.x_minus.size - posterior.x_minus.size,
    )
    return report, trace


def fit_series(
    series: PriceSeries,
    kinds: Sequence[ModelKind],
    sampler: SamplerConfig,
    *,
    filter_size: int = DEFAULT_FILTER_SIZE,
    rho: Optional[float] = None,
    hdi_mass: float = HDI_MASS,
) -> tuple[list[FitReport], list[Trace]]:
    """Full pipeline for one price series; both models share the same sample.

    Returns one report and one trace per kind, in the order of ``kinds``;
    the chains of every kind are drawn by :func:`draw_fits` before any report.
    """
    logs = prepare_sample(series, filter_size, rho)[3]
    drawn = draw_fits([(logs, kind) for kind in kinds], sampler)
    fits = [fit_log_sample(logs, kind, sampler, index_id=series.name,
                           filter_size=filter_size, hdi_mass=hdi_mass, drawn=fit)
            for kind, fit in zip(kinds, drawn)]
    return [report for report, _ in fits], [trace for _, trace in fits]


# ---------------------------------------------------------------------------
# sensitivity scans

SCAN_CSV_HEADER = (
    "scan,label,index,model,filter_size,rho,n_plus,n_minus,d_mean,d_std,"
    "hdi_low,hdi_high,ess,max_rhat,waic,waic_se,divergence_rate,error"
)


@dataclass(frozen=True)
class ScanPoint:
    """One grid point of a sensitivity scan; ``error`` is empty on success."""

    scan: str
    label: str
    index_id: str
    model: str
    filter_size: int
    rho: float
    n_plus: int = 0
    n_minus: int = 0
    d_mean: float = math.nan
    d_std: float = math.nan
    hdi_low: float = math.nan
    hdi_high: float = math.nan
    ess: float = math.nan
    max_rhat: float = math.nan
    waic: float = math.nan
    waic_se: float = math.nan
    divergence_rate: float = math.nan
    error: str = ""

    def csv_row(self) -> str:
        def num(v: float) -> str:
            return "nan" if isinstance(v, float) and math.isnan(v) else f"{v:.10g}"
        fields = [
            self.scan, self.label, self.index_id.replace(",", ";"), self.model,
            str(self.filter_size), num(self.rho), str(self.n_plus),
            str(self.n_minus), num(self.d_mean), num(self.d_std),
            num(self.hdi_low), num(self.hdi_high), num(self.ess),
            num(self.max_rhat), num(self.waic), num(self.waic_se),
            num(self.divergence_rate), self.error.replace(",", ";"),
        ]
        return ",".join(fields)

    @classmethod
    def from_report(cls, scan: str, label: str, report: FitReport) -> "ScanPoint":
        return cls(
            scan=scan, label=label, index_id=report.index_id, model=report.model,
            filter_size=report.filter_size, rho=report.rho,
            n_plus=report.n_plus, n_minus=report.n_minus,
            d_mean=report.d_mean, d_std=report.d_std,
            hdi_low=report.hdi_low, hdi_high=report.hdi_high,
            ess=report.ess_d, max_rhat=report.max_rhat,
            waic=report.waic, waic_se=report.waic_se,
            divergence_rate=report.divergence_rate,
        )


_SCAN_HINTS = get_type_hints(ScanPoint)


def scan_points_csv(points: Sequence[ScanPoint]) -> str:
    return "\n".join([SCAN_CSV_HEADER] + [p.csv_row() for p in points]) + "\n"


def scan_points_json(points: Sequence[ScanPoint]) -> str:
    """The JSON twin of the scan CSV: a list of row objects.

    A number that is not finite, such as the NaN fields of a failed row, is
    written as ``null``; strict JSON parsers refuse the bare ``NaN`` token.
    """
    rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in asdict(p).items()} for p in points]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def _num(value) -> float:
    """A float field of a scan row; JSON ``null`` reads back as NaN."""
    return math.nan if value is None else float(value)


def _point_from_cells(cells: dict) -> ScanPoint:
    """A scan CSV row, from its text cells keyed by the CSV header."""
    cells["index_id"] = cells.pop("index")
    cast = {int: int, float: _num, str: str}
    try:
        return ScanPoint(**{name: cast[_SCAN_HINTS[name]](cell)
                            for name, cell in cells.items()})
    except ValueError as exc:
        raise MalformedReportError(f"bad scan row: {exc}") from exc


def _point_from_json(row) -> ScanPoint:
    """A scan JSON row, which must hold every field with its annotated type,
    as :meth:`FitReport.from_json` checks a report; ``null`` reads as NaN in
    a float field."""
    if not (isinstance(row, dict) and row.keys() == _SCAN_HINTS.keys()):
        raise MalformedReportError(f"bad scan row: want {sorted(_SCAN_HINTS)}, got {row!r}")
    for name, value in row.items():
        hint = _SCAN_HINTS[name]
        if not (_conforms(value, hint) or (value is None and hint is float)):
            raise MalformedReportError(
                f"scan field {name} must be {hint.__name__}, got {value!r}")
    return ScanPoint(**{name: _num(value) if _SCAN_HINTS[name] is float else value
                        for name, value in row.items()})


def scan_points_from_csv(text: str) -> list[ScanPoint]:
    """Parse rows written by :func:`scan_points_csv`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SCAN_CSV_HEADER:
        raise MalformedReportError("not a scan CSV (header mismatch)")
    header = SCAN_CSV_HEADER.split(",")
    points = []
    for line in lines[1:]:
        cells = line.split(",", len(header) - 1)
        if len(cells) != len(header):
            raise MalformedReportError(f"bad scan row: {line!r}")
        points.append(_point_from_cells(dict(zip(header, cells))))
    return points


def scan_points_from_json(text: str) -> list[ScanPoint]:
    """Parse rows written by :func:`scan_points_json`; ``null`` reads as NaN."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedReportError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise MalformedReportError("scan JSON must be a list of rows")
    return [_point_from_json(row) for row in payload]


def _run_grid(scan, index_id, grid, kinds, sampler) -> list[ScanPoint]:
    """Run a scan grid: one row per model for each entry, in grid order.

    Each entry is ``(label, filter_size, rho, logs)``; ``logs`` is the
    entry's :class:`LogHittingSample` or the :class:`GainLossError` that
    stopped it, and ``rho`` is the barrier a failed row records. Every fit's
    chains are drawn by :func:`draw_fits` before any report. This is the only
    place a scan turns a :class:`GainLossError` into a row.
    """
    fits = [(entry, kind) for entry in grid for kind in kinds]
    drawn = draw_fits([(logs, kind) for (*_, logs), kind in fits], sampler)
    points = []
    for ((label, filter_size, rho, logs), kind), fit in zip(fits, drawn):
        try:
            report, _ = fit_log_sample(logs, kind, sampler, index_id=index_id,
                                       filter_size=filter_size, drawn=fit)
        except GainLossError as exc:
            points.append(ScanPoint(
                scan=scan, label=label, index_id=index_id, model=str(kind),
                filter_size=filter_size, rho=rho, error=f"{type(exc).__name__}: {exc}"))
        else:
            points.append(ScanPoint.from_report(scan, label, report))
    return points


def _prepared_logs(series: PriceSeries, filter_size: int,
                   rho: Optional[float]) -> LogHittingSample:
    return prepare_sample(series, filter_size, rho)[3]


def _window_logs(series: PriceSeries, start: np.datetime64, end: np.datetime64,
                 filter_size: int, rho: Optional[float]) -> LogHittingSample:
    return _prepared_logs(slice_window(series, start, end), filter_size, rho)


def _barrier_logs(values: np.ndarray, rho: float) -> LogHittingSample:
    return log_sample(hitting_times(values, rho))


def _refuse_fixed_inputs(filter_sizes: Sequence[int], rho: Optional[float]) -> None:
    """Refuse detrending windows below 1 and a given barrier that is not
    positive, before any grid is built: no fit on any series could use them."""
    bad = [f for f in filter_sizes if f < 1]
    if bad:
        raise WindowTooLargeError(f"filter sizes must be >= 1, got {bad}")
    if rho is not None and not (rho > 0.0):
        raise NonPositiveRhoError(f"rho must be positive, got {rho:g}")


def scan_filter(
    series: PriceSeries,
    kinds: Sequence[ModelKind],
    sampler: SamplerConfig,
    filter_sizes: Sequence[int] = DEFAULT_FILTER_GRID,
    rho: Optional[float] = None,
    reference_filter: int = DEFAULT_FILTER_SIZE,
) -> list[ScanPoint]:
    """Refit across detrending window sizes with the barrier held fixed.

    The barrier defaults to the sample std of the series detrended at the
    reference window, so the grid varies only the filter. When that reference
    fails, for instance on a series shorter than the window, every grid point
    fails with it. A size below 1 or a given ``rho <= 0`` is refused first.
    """
    _refuse_fixed_inputs(filter_sizes, rho)
    failed = None
    if rho is None:
        try:
            rho = threshold_from_std(detrend(series, reference_filter))
        except GainLossError as exc:
            rho, failed = math.nan, exc
    grid = [(str(f), f, rho, failed or _outcome(_prepared_logs, series, f, rho))
            for f in filter_sizes]
    return _run_grid("filter", series.name, grid, kinds, sampler)


def scan_rho(
    series: PriceSeries,
    kinds: Sequence[ModelKind],
    sampler: SamplerConfig,
    scales: Sequence[float] = DEFAULT_RHO_SCALES,
    filter_size: int = DEFAULT_FILTER_SIZE,
) -> list[ScanPoint]:
    """Refit across barrier levels, expressed as multiples of the sample std.

    The series is detrended once; each level reuses it.
    """
    bad = [s for s in scales if not (s > 0.0)]
    if bad:
        raise NonPositiveRhoError(f"barrier scales must be positive, got {bad}")
    filtered = detrend(series, filter_size)
    base = threshold_from_std(filtered)
    grid = [(f"{scale:g}", filter_size, scale * base,
             _outcome(_barrier_logs, filtered.values, scale * base))
            for scale in scales]
    return _run_grid("rho", series.name, grid, kinds, sampler)


def _year(date: np.datetime64) -> int:
    return int(str(np.datetime64(date, "Y")))


def scan_window(
    series: PriceSeries,
    kinds: Sequence[ModelKind],
    sampler: SamplerConfig,
    window_years: int = DEFAULT_WINDOW_YEARS,
    filter_size: int = DEFAULT_WINDOW_FILTER,
    rho: float = DEFAULT_WINDOW_RHO,
) -> list[ScanPoint]:
    """Refit on rolling calendar windows stepped one year at a time.

    A window labeled Y covers the ``window_years`` calendar years up to and
    excluding year Y (so a 13-year span yields labels first+5 .. first+12:
    eight windows for a five-year length). A length below one year, a
    ``filter_size`` below 1 or a ``rho <= 0`` is refused before any window
    is built.
    """
    if window_years < 1:
        raise WindowTooLargeError(f"window_years must be >= 1, got {window_years}")
    _refuse_fixed_inputs([filter_size], rho)
    first = _year(series.dates[0])
    last = _year(series.dates[-1])
    grid = [(str(y), filter_size, rho, _outcome(
                _window_logs, series,
                np.datetime64(f"{y - window_years}-01-01", "D"),
                np.datetime64(f"{y - 1}-12-31", "D"), filter_size, rho))
            for y in range(first + window_years, last + 1)]
    return _run_grid("window", series.name, grid, kinds, sampler)


# ---------------------------------------------------------------------------
# synthetic data

def synthetic_gbm_series(
    n_days: int,
    sigma: float,
    lam: float = 0.0,
    s0: float = 100.0,
    seed: int = 0,
    start: str = "2008-01-01",
    name: str = "gbm",
) -> PriceSeries:
    """Geometric-Brownian price series on consecutive business days.

    The log price takes one Gaussian step per day: drift ``lam``, scale
    ``sigma`` (per square-root day).
    """
    if n_days < 2:
        raise GainLossError("need at least two days")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    steps = rng.standard_normal(n_days - 1) * sigma + lam
    log_price = np.concatenate([[0.0], np.cumsum(steps)]) + math.log(s0)
    dates = np.busday_offset(np.datetime64(start, "D"), np.arange(n_days),
                             roll="forward")
    return PriceSeries(dates=dates.astype("datetime64[D]"),
                       closes=np.exp(log_price), name=name)
