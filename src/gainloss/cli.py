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

Each option is declared once, in ``_OPTIONS``: its flag, the cast that reads
its value and its help text. ``_COMMANDS`` lists each subcommand's options
with that subcommand's defaults. Every option of the chosen subcommand may
also come from a JSON config file (``--config``) whose keys are the long flag
names with underscores, switches included. ``main`` resolves all of them
before the command runs: an explicit flag wins over the file, and the file
over the default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from . import __version__
from .detrend import DEFAULT_FILTER_SIZE, daily_returns, detrend, threshold_from_std
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
)

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


def _sampler_config(args) -> SamplerConfig:
    # refuse, before sampling, draws that R^ or the HDI of the report rejects
    chains, draws = args.chains, args.draws
    if chains < MIN_CHAINS:
        raise InputError(f"--chains must be >= {MIN_CHAINS} for R^, got {chains}")
    if draws < MIN_CHAIN_DRAWS:
        raise InputError(f"--draws must be >= {MIN_CHAIN_DRAWS}, got {draws}")
    if chains * draws < MIN_HDI_SAMPLES:
        raise InputError(f"--chains x --draws must be >= {MIN_HDI_SAMPLES} for the "
                         f"HDI, got {chains} x {draws}")
    return SamplerConfig(n_chains=chains, n_draw=draws, n_tune=args.tune, seed=args.seed)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(out: Optional[str], text: str) -> None:
    """Write ``text`` to the file ``out``, or to standard output without one."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


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
# commands; each reads its options already resolved on ``args``


def _cmd_stats(args) -> int:
    print("index,raw_count,raw_mean,raw_std,filtered_count,filtered_mean,filtered_std")
    series_list = []
    for path in args.inputs:
        series = _read_series(path)
        series_list.append(series)
        raw, filt = summarize_series(series, args.filter_size)
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


def _cmd_detrend(args) -> int:
    filtered = detrend(_read_series(args.input), args.filter_size)
    lines = ["date,x"] + [f"{day},{val:.10g}"
                          for day, val in zip(filtered.dates, filtered.values)]
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_hittimes(args) -> int:
    f = args.filter_size
    series = _read_series(args.input)
    filtered = detrend(series, f)
    rho = args.rho if args.rho is not None else threshold_from_std(filtered)
    sample = hitting_times(filtered.values, rho)
    lines = [
        f"# index={series.name} filter_size={f} rho={rho:.10g}",
        f"# anchors={sample.n_anchors} censored_plus={sample.censored_plus} "
        f"censored_minus={sample.censored_minus}",
        "side,tau",
    ]
    lines += [f"plus,{t}" for t in sample.tau_plus]
    lines += [f"minus,{t}" for t in sample.tau_minus]
    _write(args.out, "\n".join(lines) + "\n")
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


def _cmd_fit(args) -> int:
    f, hdi_mass = args.filter_size, args.hdi_mass
    if not 0.0 < hdi_mass < 1.0:
        raise InputError(f"--hdi-mass must lie in (0, 1), got {hdi_mass}")
    sampler = _sampler_config(args)
    out = _out_dir(args)

    series = _read_series(args.input)
    kinds = parse_model_choice(args.model)
    _, rho_used, sample, logs = prepare_sample(series, f, args.rho)
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
        if args.save_trace:
            save_trace(trace, out, prefix=f"{series.name}_{report.model}")
        print(_report_line(report))
    csv_path = out / "reports.csv"
    csv_path.write_text(
        "\n".join([REPORT_CSV_HEADER] + [r.csv_row() for r in reports]) + "\n",
        encoding="utf-8",
    )
    worst = max(r.max_rhat for r in reports)
    if worst >= RHAT_FAIL and not args.allow_nonconverged:
        print(f"error: max rhat {worst:.4f} >= {RHAT_FAIL}; rerun with more tuning "
              "or --allow-nonconverged", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def _finish_scan(points: list[ScanPoint], out: Path, stem: str, allow: bool) -> int:
    flagged = [replace(p, error=f"NonConverged: max_rhat={p.max_rhat:.4f}")
               if not (p.error or allow) and math.isfinite(p.max_rhat)
               and p.max_rhat >= RHAT_FAIL else p for p in points]
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


def _cmd_scan(args) -> int:
    scan = args.command.removeprefix("scan-")
    sampler = _sampler_config(args)
    # the scan's own options feed the library keywords of the same name (the
    # scales for --rho-scales); one left unset passes none, so the library
    # default applies
    kwargs = {}
    for key in [k for k in _COMMANDS[args.command].options if k not in _SAMPLING]:
        value = getattr(args, key)
        if value == ():
            raise InputError(f"--{key.replace('_', '-')} names no grid point")
        if value is not None:
            kwargs["scales" if key == "rho_scales" else key] = value
    out = _out_dir(args)
    series = _read_series(args.input)
    run = {"filter": scan_filter, "rho": scan_rho, "window": scan_window}[scan]
    points = run(series, parse_model_choice(args.model), sampler, **kwargs)
    if not points:  # only a window grid can be empty; the others are checked above
        years = kwargs.get("window_years", DEFAULT_WINDOW_YEARS)
        print(f"notice: no complete {years}-year window fits inside "
              f"[{series.dates[0]}, {series.dates[-1]}]; nothing to fit",
              file=sys.stderr)
    return _finish_scan(points, out, f"scan_{scan}_{series.name}", args.allow_nonconverged)


def _write_taus(out: str, name: str, sample) -> None:
    out_path = Path(out)
    out_path.mkdir(parents=True, exist_ok=True)
    lines = ["tau"] + [f"{t:.10g}" for t in sample.taus]
    (out_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_gbm_validate(args) -> int:
    given = {"lam": args.drift, "sigma": args.sigma, "rho": args.rho, "dt": args.dt,
             "n_paths": args.paths, "horizon": args.horizon, "seed": args.seed}
    # an option left unset passes nothing, so the simulator's default applies
    kwargs = {k: v for k, v in given.items() if v is not None}
    if args.two_sided:
        try:
            from scipy.stats import ks_2samp
        except ImportError as exc:
            raise InputError("gbm-validate --two-sided needs scipy") from exc
        up, down = simulate_fht_two_sided(**kwargs)
        result = ks_2samp(up.taus, down.taus)
        print(f"paths={up.n_paths} n_up={up.taus.size} n_down={down.taus.size} "
              f"censored_up={up.n_censored} censored_down={down.n_censored}")
        print(f"ks2={result.statistic:.6g} pvalue={result.pvalue:.6g}")
        if args.out_dir:
            _write_taus(args.out_dir, "gbm_taus_up.csv", up)
            _write_taus(args.out_dir, "gbm_taus_down.csv", down)
        return EXIT_OK
    # simulate_fht takes no default drift; a positive one gives a finite mean
    sample = simulate_fht(**{"lam": 0.05, **kwargs})
    ks = ks_validate(sample)
    print(f"paths={sample.n_paths} censored={sample.n_censored} "
          f"censoring_rate={sample.censoring_rate:.6g}")
    print(f"ks={ks:.6g}")
    if args.out_dir:
        _write_taus(args.out_dir, "gbm_taus.csv", sample)
    return EXIT_OK


def _cmd_plot(args) -> int:
    out = _out_dir(args)
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
# options and parser


class _Option(NamedTuple):
    cast: Callable  # reads a config value and the flag's value alike
    help: Optional[str] = None
    choices: Optional[tuple[str, ...]] = None


# The flag of each option is its key with dashes, and its config key the key
# itself. A ``_bool`` option is a switch, and takes true or false in a config.
_OPTIONS = {
    "filter_size": _Option(_int),
    "filter_sizes": _Option(_int_list, "comma-separated window sizes"),
    "rho": _Option(_float),
    "rho_scales": _Option(_float_list, "comma-separated multiples of the sample std"),
    "window_years": _Option(_int),
    "correlate": _Option(_bool, "also print the daily-return correlation of two inputs"),
    "out": _Option(os.fspath),
    "hdi_mass": _Option(_float),
    "save_trace": _Option(_bool),
    "chains": _Option(_int, "number of chains"),
    "draws": _Option(_int, "retained draws per chain"),
    "tune": _Option(_int, "warmup iterations per chain"),
    "seed": _Option(_int, "run seed"),
    "model": _Option(str, "model(s) to fit", ("student-t", "inv-gamma", "both")),
    "out_dir": _Option(os.fspath, "output directory"),
    "allow_nonconverged": _Option(_bool, "do not fail on rhat >= 1.2"),
    "drift": _Option(_float),
    "sigma": _Option(_float),
    "dt": _Option(_float),
    "paths": _Option(_int),
    "horizon": _Option(_float),
    "two_sided": _Option(_bool, "record up and down passages on the same driftless paths"),
}


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    inputs: Optional[str]  # the positional: "input", or "inputs" for one or more
    options: dict          # each option, in --help order, with this command's default
    helps: dict = {}       # the help of an option where this command's differs


# the options of every command that samples
_SAMPLING = {
    "chains": SamplerConfig.n_chains,
    "draws": SamplerConfig.n_draw,
    "tune": SamplerConfig.n_tune,
    "seed": SamplerConfig.seed,
    "model": "both",
    "out_dir": ".",
    "allow_nonconverged": False,
}

_COMMANDS = {
    "stats": _Command(_cmd_stats, "summary statistics per input file", "inputs",
                      {"filter_size": DEFAULT_FILTER_SIZE, "correlate": False}),
    "detrend": _Command(_cmd_detrend, "write the detrended series", "input",
                        {"filter_size": DEFAULT_FILTER_SIZE, "out": None}),
    "hittimes": _Command(_cmd_hittimes, "extract first-hitting times", "input",
                         {"filter_size": DEFAULT_FILTER_SIZE, "rho": None, "out": None}),
    "fit": _Command(_cmd_fit, "fit the asymmetry models to one series", "input",
                    {"filter_size": DEFAULT_FILTER_SIZE, "rho": None, "hdi_mass": HDI_MASS,
                     "save_trace": False, **_SAMPLING}),
    "scan-filter": _Command(
        _cmd_scan, "scan the detrending window size", "input",
        {"filter_sizes": None, "rho": None, **_SAMPLING},
        {"rho": "fixed barrier level (default: std at the reference window)"}),
    "scan-rho": _Command(_cmd_scan, "scan the barrier level", "input",
                         {"rho_scales": None, "filter_size": None, **_SAMPLING}),
    "scan-window": _Command(
        _cmd_scan, "rolling calendar-window refits", "input",
        {"window_years": None, "filter_size": None, "rho": None, **_SAMPLING}),
    "gbm-validate": _Command(
        _cmd_gbm_validate, "check simulated first passages against the density", None,
        {"drift": None, "sigma": 0.3, "rho": 0.3, "dt": 1.0 / 200.0, "paths": 100_000,
         "horizon": None, "seed": None, "out_dir": None, "two_sided": False},
        {"seed": None, "out_dir": None}),
    "plot": _Command(_cmd_plot, "render reports or scans to SVG", "inputs",
                     {"out_dir": "."}, {"out_dir": None}),
}


def _resolve(args, config: dict, options: dict) -> None:
    """Set each option on ``args``: its flag if given, else its config value,
    else the default in ``options``, read by the option's cast."""
    for key, default in options.items():
        value = next((v for v in (getattr(args, key), config.get(key), default)
                      if v is not None), None)
        try:
            setattr(args, key, None if value is None else _OPTIONS[key].cast(value))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad value for {key}: {value!r} ({exc})") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gainloss",
        description="Bayesian gain-loss asymmetry analysis of price series",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None,
                        help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.inputs:
            p.add_argument(command.inputs, nargs="+" if command.inputs == "inputs" else None)
        for key in command.options:
            option = _OPTIONS[key]
            if option.cast is _bool:
                kind = {"action": "store_const", "const": True}
            else:
                # argparse reads a number as the builtin does, so a bad one
                # is its usage error; the cast then reads the value that wins
                kind = {"type": {_int: int, _float: float}.get(option.cast),
                        "choices": option.choices}
            # default None: a flag left out falls through to the config file
            p.add_argument("--" + key.replace("_", "-"), default=None,
                           help=command.helps.get(key, option.help), **kind)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        _resolve(args, _load_config(args.config), command.options)
        return command.run(args)
    except BrokenPipeError:
        # reader closed the pipe (e.g. | head); silence the pending flush
        # and exit with the conventional 128+SIGPIPE status
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except AdaptationFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (OSError, GainLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
