"""Command line driver.

Subcommands
-----------
stats         Table-style summary (raw and filtered count/mean/std) per file
detrend       write the rolling-median detrended series
hittimes      extract first-hitting times at a barrier level
fit           full Bayesian pipeline on one price CSV
scan-filter   sensitivity of the fit to the detrending window
scan-rho      sensitivity to the barrier level (multiples of the sample std)
scan-window   rolling multi-year window refits
gbm-validate  simulate Brownian first passages and check the closed form
plot          render report/scan files to SVG

Exit codes: 0 success, 2 input error, 3 convergence failure,
4 partial scan failure, 141 when a downstream pipe closes early.
Options may also come from a JSON config file
(``--config``) whose keys mirror the long flag names with underscores;
explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .detrend import DEFAULT_FILTER_SIZE, detrend, threshold_from_std
from .diagnostics import (
    HDI_MASS,
    MIN_CHAIN_DRAWS,
    MIN_CHAINS,
    MIN_HDI_SAMPLES,
    REPORT_CSV_HEADER,
    FitReport,
)
from .errors import AdaptationFailedError, GainLossError, InputError, MalformedReportError
from .gbm import ks_validate, simulate_fht, simulate_fht_two_sided
from .hitting import hitting_times
from .nuts import SamplerConfig, save_trace
from .pipeline import (
    DEFAULT_WINDOW_YEARS,
    RHAT_FAIL,
    ScanPoint,
    draw_fits,
    fit_log_sample,
    parse_model_choice,
    prepare_sample,
    scan_filter,
    scan_points_csv,
    scan_points_from_csv,
    scan_points_from_json,
    scan_points_json,
    scan_rho,
    scan_window,
    summarize_series,
)
from .plots import posterior_svg, scan_svg
from .series import (
    PriceSeries,
    align_common_dates,
    cross_correlation,
    log_prices,
    parse_csv,
    write_value_csv,
)
from .detrend import daily_returns

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_PARTIAL = 4


def _read_series(raw: str) -> PriceSeries:
    """Parse a price CSV from a path; '-' reads standard input."""
    if raw == "-":
        return parse_csv(sys.stdin, name="stdin")
    return parse_csv(raw)


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputError("config file must hold a JSON object")
    return payload


def _resolve(args, config: dict, key: str, default, cast):
    """Flag value if given, else config file value, else the default, by ``cast``."""
    value = next((v for v in (getattr(args, key, None), config.get(key), default)
                  if v is not None), None)
    try:
        return None if value is None else cast(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad value for {key}: {value!r} ({exc})") from exc


def _sampler_config(args, config: dict) -> SamplerConfig:
    defaults = SamplerConfig()
    chains = _resolve(args, config, "chains", defaults.n_chains, _int)
    draws = _resolve(args, config, "draws", defaults.n_draw, _int)
    # refuse, before sampling, draws that R^ or the HDI of the report rejects
    if chains < MIN_CHAINS:
        raise InputError(f"--chains must be >= {MIN_CHAINS} for R^, got {chains}")
    if draws < MIN_CHAIN_DRAWS:
        raise InputError(f"--draws must be >= {MIN_CHAIN_DRAWS}, got {draws}")
    if chains * draws < MIN_HDI_SAMPLES:
        raise InputError(f"--chains x --draws must be >= {MIN_HDI_SAMPLES} for the "
                         f"HDI, got {chains} x {draws}")
    return SamplerConfig(
        n_chains=chains,
        n_draw=draws,
        n_tune=_resolve(args, config, "tune", defaults.n_tune, _int),
        seed=_resolve(args, config, "seed", defaults.seed, _int),
    )


def _out_dir(args, config: dict) -> Path:
    out = _resolve(args, config, "out_dir", ".", Path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _int(value) -> int:
    # int(True) is 1 and int(252.9) is 252: a JSON bool or fraction is refused
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError("expected an integer")
    return int(value)


def _float(value) -> float:
    # float(True) is 1.0
    if isinstance(value, bool):
        raise TypeError("expected a number")
    return float(value)


def _int_list(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(_int(v) for v in text)
    return tuple(int(v) for v in str(text).split(",") if v.strip())


def _float_list(text) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(_float(v) for v in text)
    return tuple(float(v) for v in str(text).split(",") if v.strip())


def _bool(value) -> bool:
    # bool("false") is True, so anything but a real true/false is refused
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


# ---------------------------------------------------------------------------
# commands


def _cmd_stats(args, config) -> int:
    f = _resolve(args, config, "filter_size", DEFAULT_FILTER_SIZE, _int)
    print("index,raw_count,raw_mean,raw_std,filtered_count,filtered_mean,filtered_std")
    series_list = []
    for path in args.inputs:
        series = _read_series(path)
        series_list.append(series)
        raw, filt = summarize_series(series, f)
        print(
            f"{series.name},{raw.count},{raw.mean:.6g},{raw.std:.6g},"
            f"{filt.count},{filt.mean:.6g},{filt.std:.6g}"
        )
    if args.correlate:
        if len(series_list) != 2:
            raise InputError("--correlate needs exactly two input files")
        a, b = align_common_dates(series_list[0], series_list[1])
        r = cross_correlation(daily_returns(log_prices(a)),
                              daily_returns(log_prices(b)))
        print(f"correlation,{a.name},{b.name},{r:.4f}")
    return EXIT_OK


def _cmd_detrend(args, config) -> int:
    f = _resolve(args, config, "filter_size", DEFAULT_FILTER_SIZE, _int)
    series = _read_series(args.input)
    filtered = detrend(series, f)
    if args.out:
        write_value_csv(args.out, filtered.dates, filtered.values, ("date", "x"))
    else:
        print("date,x")
        for day, val in zip(filtered.dates, filtered.values):
            print(f"{day},{val:.10g}")
    return EXIT_OK


def _cmd_hittimes(args, config) -> int:
    f = _resolve(args, config, "filter_size", DEFAULT_FILTER_SIZE, _int)
    rho = _resolve(args, config, "rho", None, _float)
    series = _read_series(args.input)
    filtered = detrend(series, f)
    rho = rho if rho is not None else threshold_from_std(filtered)
    sample = hitting_times(filtered.values, rho)
    lines = [
        f"# index={series.name} filter_size={f} rho={rho:.10g}",
        f"# anchors={sample.n_anchors} censored_plus={sample.censored_plus} "
        f"censored_minus={sample.censored_minus}",
        "side,tau",
    ]
    lines += [f"plus,{t}" for t in sample.tau_plus]
    lines += [f"minus,{t}" for t in sample.tau_minus]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _report_line(r: FitReport) -> str:
    return (
        f"index={r.index_id} model={r.model} n+={r.n_plus} n-={r.n_minus} "
        f"d_mean={r.d_mean:.4f} d_std={r.d_std:.4f} "
        f"hdi{r.hdi_mass * 100:.0f}=[{r.hdi_low:.4f},{r.hdi_high:.4f}] "
        f"P(d<{r.ref:g})={r.prob_below_ref * 100:.1f}% "
        f"max_rhat={r.max_rhat:.4f} ess={r.ess_d:.0f} "
        f"waic={r.waic:.2f}+/-{r.waic_se:.2f} div_rate={r.divergence_rate:.4f}"
    )


def _cmd_fit(args, config) -> int:
    f = _resolve(args, config, "filter_size", DEFAULT_FILTER_SIZE, _int)
    rho_opt = _resolve(args, config, "rho", None, _float)
    model = _resolve(args, config, "model", "both", str)
    allow = _resolve(args, config, "allow_nonconverged", False, _bool)
    hdi_mass = _resolve(args, config, "hdi_mass", HDI_MASS, _float)
    save = _resolve(args, config, "save_trace", False, _bool)
    if not 0.0 < hdi_mass < 1.0:
        raise InputError(f"--hdi-mass must lie in (0, 1), got {hdi_mass}")
    sampler = _sampler_config(args, config)
    out = _out_dir(args, config)

    series = _read_series(args.input)
    kinds = parse_model_choice(model)
    _, rho_used, sample, logs = prepare_sample(series, f, rho_opt)
    print(
        f"# {series.name}: anchors={sample.n_anchors} n+={logs.n_plus} "
        f"n-={logs.n_minus} censored+={sample.censored_plus} "
        f"censored-={sample.censored_minus} rho={rho_used:.10g} filter_size={f}"
    )
    reports = []
    for kind, fit in zip(kinds, draw_fits([(logs, k) for k in kinds], sampler)):
        report, trace = fit_log_sample(
            logs, kind, sampler, index_id=series.name, filter_size=f, hdi_mass=hdi_mass,
            drawn=fit,
        )
        reports.append(report)
        report.save(out / f"{series.name}_{report.model}_report.json")
        if save:
            save_trace(trace, out, prefix=f"{series.name}_{report.model}")
        print(_report_line(report))
    csv_path = out / "reports.csv"
    csv_path.write_text(
        "\n".join([REPORT_CSV_HEADER] + [r.csv_row() for r in reports]) + "\n",
        encoding="utf-8",
    )
    worst = max(r.max_rhat for r in reports)
    if worst >= RHAT_FAIL and not allow:
        print(f"error: max rhat {worst:.4f} >= {RHAT_FAIL}; rerun with more tuning "
              "or --allow-nonconverged", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def _finish_scan(points: list[ScanPoint], out: Path, stem: str, allow: bool) -> int:
    flagged = []
    for p in points:
        if not p.error and math.isfinite(p.max_rhat) and p.max_rhat >= RHAT_FAIL \
                and not allow:
            flagged.append(
                ScanPoint(**{**asdict(p), "error": f"NonConverged: max_rhat={p.max_rhat:.4f}"})
            )
        else:
            flagged.append(p)
    (out / f"{stem}.csv").write_text(scan_points_csv(flagged), encoding="utf-8")
    (out / f"{stem}.json").write_text(scan_points_json(flagged), encoding="utf-8")
    n_bad = sum(1 for p in flagged if p.error)
    for p in flagged:
        status = p.error if p.error else (
            f"d_mean={p.d_mean:.4f} hdi=[{p.hdi_low:.4f},{p.hdi_high:.4f}]"
        )
        print(f"{p.scan}={p.label} model={p.model}: {status}")
    print(f"# wrote {out / (stem + '.csv')} ({len(flagged)} rows, {n_bad} failed)")
    return EXIT_PARTIAL if n_bad else EXIT_OK


# Per scan: each config key, in resolution order, with the library keyword it
# feeds and its cast. Unset keys are left out, so the library defaults apply.
_SCAN_KEYS = {
    "filter": {"rho": ("rho", _float), "filter_sizes": ("filter_sizes", _int_list)},
    "rho": {"filter_size": ("filter_size", _int), "rho_scales": ("scales", _float_list)},
    "window": {"filter_size": ("filter_size", _int), "rho": ("rho", _float),
               "window_years": ("window_years", _int)},
}


def _cmd_scan(args, config) -> int:
    sampler = _sampler_config(args, config)
    kwargs = {}
    for key, (kwarg, cast) in _SCAN_KEYS[args.scan].items():
        value = _resolve(args, config, key, None, cast)
        if value == ():
            raise InputError(f"--{key.replace('_', '-')} names no grid point")
        if value is not None:
            kwargs[kwarg] = value
    out = _out_dir(args, config)
    allow = _resolve(args, config, "allow_nonconverged", False, _bool)
    model = _resolve(args, config, "model", "both", str)
    series = _read_series(args.input)
    points = args.scan_fn(series, parse_model_choice(model), sampler, **kwargs)
    if not points:  # only a window grid can be empty; the others are checked above
        years = kwargs.get("window_years", DEFAULT_WINDOW_YEARS)
        print(f"notice: no complete {years}-year window fits inside "
              f"[{series.dates[0]}, {series.dates[-1]}]; nothing to fit",
              file=sys.stderr)
    return _finish_scan(points, out, f"scan_{args.scan}_{series.name}", allow)


def _write_taus(out: str, name: str, sample) -> None:
    out_path = Path(out)
    out_path.mkdir(parents=True, exist_ok=True)
    lines = ["tau"] + [f"{t:.10g}" for t in sample.taus]
    (out_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def _cmd_gbm_validate(args, config) -> int:
    two_sided = _resolve(args, config, "two_sided", False, _bool)
    simulate = simulate_fht_two_sided if two_sided else simulate_fht
    seed = _resolve(args, config, "seed", _default(simulate, "seed"), _int)
    out = _resolve(args, config, "out_dir", None, str)
    # simulate_fht takes no default drift; a positive one gives a finite mean
    lam = _resolve(args, config, "drift",
                   _default(simulate, "lam") if two_sided else 0.05, _float)
    sigma = _resolve(args, config, "sigma", 0.3, _float)
    rho = _resolve(args, config, "rho", 0.3, _float)
    dt = _resolve(args, config, "dt", 1.0 / 200.0, _float)
    paths = _resolve(args, config, "paths", 100_000, _int)
    horizon = _resolve(args, config, "horizon", _default(simulate, "horizon"), _float)
    if two_sided:
        up, down = simulate_fht_two_sided(
            sigma=sigma, rho=rho, dt=dt,
            n_paths=paths, horizon=horizon, seed=seed, lam=lam,
        )
        from scipy.stats import ks_2samp

        result = ks_2samp(up.taus, down.taus)
        print(f"paths={up.n_paths} n_up={up.taus.size} n_down={down.taus.size} "
              f"censored_up={up.n_censored} censored_down={down.n_censored}")
        print(f"ks2={result.statistic:.6g} pvalue={result.pvalue:.6g}")
        if out:
            _write_taus(out, "gbm_taus_up.csv", up)
            _write_taus(out, "gbm_taus_down.csv", down)
        return EXIT_OK
    sample = simulate_fht(
        lam=lam, sigma=sigma, rho=rho, dt=dt,
        n_paths=paths, horizon=horizon, seed=seed,
    )
    ks = ks_validate(sample)
    print(f"paths={sample.n_paths} censored={sample.n_censored} "
          f"censoring_rate={sample.censoring_rate:.6g}")
    print(f"ks={ks:.6g}")
    if out:
        _write_taus(out, "gbm_taus.csv", sample)
    return EXIT_OK


def _cmd_plot(args, config) -> int:
    out = _out_dir(args, config)
    written = []
    for raw in args.inputs:
        path = Path(raw)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        if path.suffix.lower() == ".json":
            try:
                payload = json.loads(text) if text.strip() else None
            except json.JSONDecodeError as exc:
                raise MalformedReportError(f"{path}: not valid JSON: {exc}") from exc
            if isinstance(payload, list):
                svg = scan_svg(scan_points_from_json(text))
            elif isinstance(payload, dict):
                svg = posterior_svg(FitReport.from_json(text))
            else:
                raise MalformedReportError(f"{path}: not a report or scan file")
        else:
            svg = scan_svg(scan_points_from_csv(text))
        target = out / (path.stem + ".svg")
        target.write_text(svg, encoding="utf-8")
        written.append(target)
        print(f"wrote {target}")
    if not written:
        raise InputError("nothing to plot")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_sampler_flags(p: argparse.ArgumentParser):
    p.add_argument("--chains", type=int, default=None, help="number of chains")
    p.add_argument("--draws", type=int, default=None, help="retained draws per chain")
    p.add_argument("--tune", type=int, default=None, help="warmup iterations per chain")
    p.add_argument("--seed", type=int, default=None, help="run seed")
    p.add_argument("--model", default=None,
                   choices=["student-t", "inv-gamma", "both"], help="model(s) to fit")
    p.add_argument("--out-dir", dest="out_dir", default=None, help="output directory")
    p.add_argument("--allow-nonconverged", dest="allow_nonconverged",
                   action="store_const", const=True, default=None,
                   help="do not fail on rhat >= 1.2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainloss",
        description="Bayesian gain-loss asymmetry analysis of price series",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None,
                        help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="summary statistics per input file")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--filter-size", dest="filter_size", type=int, default=None)
    p.add_argument("--correlate", action="store_true",
                   help="also print the daily-return correlation of two inputs")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("detrend", help="write the detrended series")
    p.add_argument("input")
    p.add_argument("--filter-size", dest="filter_size", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_detrend)

    p = sub.add_parser("hittimes", help="extract first-hitting times")
    p.add_argument("input")
    p.add_argument("--filter-size", dest="filter_size", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_hittimes)

    p = sub.add_parser("fit", help="fit the asymmetry models to one series")
    p.add_argument("input")
    p.add_argument("--filter-size", dest="filter_size", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--hdi-mass", dest="hdi_mass", type=float, default=None)
    p.add_argument("--save-trace", dest="save_trace", action="store_const",
                   const=True, default=None)
    _add_sampler_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("scan-filter", help="scan the detrending window size")
    p.add_argument("input")
    p.add_argument("--filter-sizes", dest="filter_sizes", default=None,
                   help="comma-separated window sizes")
    p.add_argument("--rho", type=float, default=None,
                   help="fixed barrier level (default: std at the reference window)")
    _add_sampler_flags(p)
    p.set_defaults(func=_cmd_scan, scan="filter", scan_fn=scan_filter)

    p = sub.add_parser("scan-rho", help="scan the barrier level")
    p.add_argument("input")
    p.add_argument("--rho-scales", dest="rho_scales", default=None,
                   help="comma-separated multiples of the sample std")
    p.add_argument("--filter-size", dest="filter_size", type=int, default=None)
    _add_sampler_flags(p)
    p.set_defaults(func=_cmd_scan, scan="rho", scan_fn=scan_rho)

    p = sub.add_parser("scan-window", help="rolling calendar-window refits")
    p.add_argument("input")
    p.add_argument("--window-years", dest="window_years", type=int, default=None)
    p.add_argument("--filter-size", dest="filter_size", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    _add_sampler_flags(p)
    p.set_defaults(func=_cmd_scan, scan="window", scan_fn=scan_window)

    p = sub.add_parser("gbm-validate",
                       help="check simulated first passages against the density")
    p.add_argument("--drift", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--two-sided", dest="two_sided", action="store_const",
                   const=True, default=None,
                   help="record up and down passages on the same driftless paths")
    p.set_defaults(func=_cmd_gbm_validate)

    p = sub.add_parser("plot", help="render reports or scans to SVG")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except BrokenPipeError:
        # reader closed the pipe (e.g. | head); silence the pending flush
        # and exit with the conventional 128+SIGPIPE status
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except AdaptationFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GainLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
