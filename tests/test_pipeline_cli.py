"""Pipeline orchestration and the command line driver."""

import io
import json
import math
import subprocess
import sys
from dataclasses import asdict, replace
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import source_env
from gainloss import cli, nuts
from gainloss.cli import EXIT_CONVERGENCE, EXIT_INPUT, EXIT_OK, EXIT_PARTIAL, main
from gainloss.detrend import detrend, threshold_from_std
from gainloss.diagnostics import REPORT_CSV_HEADER, FitReport, waic
from gainloss.errors import (
    AdaptationFailedError,
    EmptySideError,
    GainLossError,
    MalformedReportError,
    NonPositiveRhoError,
    ZeroVarianceError,
)
from gainloss.hitting import LogHittingSample, hitting_times, log_sample
from gainloss.models import FAMILIES, ModelKind
from gainloss.nuts import SamplerConfig
from gainloss.pipeline import (
    SCAN_CSV_HEADER,
    ScanPoint,
    _run_grid,
    fit_log_sample,
    fit_series,
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
    synthetic_gbm_series,
)
from gainloss.plots import posterior_svg, scan_svg
from gainloss.series import write_price_csv

QUICK = SamplerConfig(n_chains=2, n_draw=150, n_tune=150, seed=11)


@pytest.fixture(scope="module")
def series():
    return synthetic_gbm_series(800, sigma=0.012, seed=5, name="synth")


@pytest.fixture(scope="module")
def price_file(tmp_path_factory, series):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    write_price_csv(series, path)
    return path


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestParseModelChoice:
    def test_known_choices(self):
        assert parse_model_choice("student-t") == (ModelKind.STUDENT_T,)
        assert parse_model_choice("inv-gamma") == (ModelKind.INV_GAMMA,)
        assert parse_model_choice("both") == (
            ModelKind.STUDENT_T,
            ModelKind.INV_GAMMA,
        )

    def test_unknown_choice(self):
        with pytest.raises(GainLossError, match="unknown model"):
            parse_model_choice("normal")


class TestSyntheticGbm:
    def test_shape_and_calendar(self):
        s = synthetic_gbm_series(300, sigma=0.01, seed=1, start="2015-01-02")
        assert s.dates.size == s.closes.size == 300
        assert s.dates[0] == np.datetime64("2015-01-02")
        assert np.is_busday(s.dates).all()
        assert (np.diff(s.dates).astype(int) > 0).all()
        assert (s.closes > 0).all()
        assert s.closes[0] == pytest.approx(100.0)
        assert s.name == "gbm"

    def test_seed_controls_the_path(self):
        a = synthetic_gbm_series(200, sigma=0.02, seed=7)
        b = synthetic_gbm_series(200, sigma=0.02, seed=7)
        c = synthetic_gbm_series(200, sigma=0.02, seed=8)
        assert np.array_equal(a.closes, b.closes)
        assert not np.array_equal(a.closes, c.closes)

    def test_drift_shows_up_in_the_log_slope(self):
        lam, n = 0.01, 4000
        s = synthetic_gbm_series(n, sigma=0.01, lam=lam, seed=9)
        slope = math.log(s.closes[-1] / s.closes[0]) / (n - 1)
        assert slope == pytest.approx(lam, abs=4 * 0.01 / math.sqrt(n - 1))

    def test_needs_two_days(self):
        with pytest.raises(GainLossError):
            synthetic_gbm_series(1, sigma=0.01)


class TestSummarizeSeries:
    def test_count_arithmetic(self, series):
        raw, filt = summarize_series(series, 100)
        assert raw.count == 800
        assert filt.count == 800 - 100 + 1
        assert filt.std < raw.std


class TestPrepareSample:
    def test_default_barrier_is_the_filtered_std(self, series):
        filtered, rho, sample, logs = prepare_sample(series, 100)
        assert rho == threshold_from_std(detrend(series, 100))
        assert sample.rho == rho
        assert logs.rho == rho
        assert logs.n_plus == sample.tau_plus.size
        assert logs.n_minus == sample.tau_minus.size
        assert filtered.values.size == 701

    def test_explicit_barrier_wins(self, series):
        _, rho, sample, _ = prepare_sample(series, 100, rho=0.05)
        assert rho == 0.05
        assert sample.rho == 0.05


class TestFitLogSample:
    def test_invgamma_drops_single_step_hits(self):
        rng = np.random.default_rng(12)
        walk = np.cumsum(rng.standard_normal(500))
        sample = hitting_times(walk, 0.8)
        logs = log_sample(sample)
        assert np.count_nonzero(logs.x_plus == 0.0) > 0
        report, trace = fit_log_sample(logs, ModelKind.INV_GAMMA, QUICK, index_id="walk")
        assert report.n_dropped_plus == np.count_nonzero(logs.x_plus == 0.0)
        assert report.n_dropped_minus == np.count_nonzero(logs.x_minus == 0.0)
        assert report.n_plus + report.n_dropped_plus == logs.n_plus
        assert report.model == "inv-gamma"
        assert trace.param_names == ("m_plus", "s_plus", "m_minus", "s_minus")

    def test_student_keeps_the_full_sample(self):
        rng = np.random.default_rng(13)
        walk = np.cumsum(rng.standard_normal(400))
        logs = log_sample(hitting_times(walk, 0.8))
        report, _ = fit_log_sample(logs, ModelKind.STUDENT_T, QUICK)
        assert report.n_dropped_plus == report.n_dropped_minus == 0
        assert (report.n_plus, report.n_minus) == (logs.n_plus, logs.n_minus)

    @pytest.mark.parametrize("kind", list(ModelKind), ids=str)
    def test_waic_matches_the_per_observation_oracle(self, kind):
        rng = np.random.default_rng(14)
        logs = log_sample(hitting_times(np.cumsum(rng.standard_normal(500)), 0.8))
        report, trace = fit_log_sample(logs, kind, QUICK)
        family = FAMILIES[kind]
        xp = logs.x_plus[logs.x_plus > family.data_low]
        xm = logs.x_minus[logs.x_minus > family.data_low]
        assert np.unique(xp).size < xp.size and np.unique(xm).size < xm.size
        k = len(family.names)
        ll = np.array([np.concatenate([family.logpdf(xp, theta[:k]),
                                       family.logpdf(xm, theta[k:])])
                       for theta in trace.draws.reshape(-1, 2 * k)])
        want = waic(ll)
        assert want.n_obs == report.n_plus + report.n_minus
        assert report.waic == pytest.approx(want.waic, rel=1e-12)
        assert report.waic_se == pytest.approx(want.se, rel=1e-12)

    def test_invgamma_with_nothing_left_raises(self):
        logs = LogHittingSample(
            x_plus=np.zeros(6), x_minus=np.array([0.7, 1.1, 0.9, 1.4]), rho=0.1
        )
        with pytest.raises(EmptySideError):
            fit_log_sample(logs, ModelKind.INV_GAMMA, QUICK)

    def test_zero_spread_side_is_an_input_error(self):
        logs = LogHittingSample(
            x_plus=np.zeros(40), x_minus=np.log(np.arange(1, 41.0)), rho=0.1
        )
        with pytest.raises(ZeroVarianceError):
            fit_log_sample(logs, ModelKind.STUDENT_T,
                           SamplerConfig(n_chains=2, n_draw=50, n_tune=50))
        [point] = _run_grid("rho", "flat", [("1", 100, 0.1, logs)],
                            (ModelKind.STUDENT_T,), QUICK)
        assert point.error.startswith("ZeroVarianceError")
        assert point.rho == 0.1
        assert math.isnan(point.d_mean)


class TestFitSeries:
    def test_one_report_per_model(self, series):
        kinds = (ModelKind.STUDENT_T, ModelKind.INV_GAMMA)
        reports, traces = fit_series(series, kinds, QUICK, filter_size=100)
        assert [r.model for r in reports] == ["student-t", "inv-gamma"]
        assert all(r.index_id == "synth" for r in reports)
        assert reports[0].rho == reports[1].rho

    def test_one_trace_per_report(self, series):
        reports, traces = fit_series(series, (ModelKind.STUDENT_T,), QUICK, filter_size=100)
        assert len(traces) == len(reports) == 1
        assert traces[0].draws.shape == (2, 150, 6)


def full_point(**over):
    base = dict(
        scan="rho", label="1.5", index_id="synth", model="student-t",
        filter_size=100, rho=0.028, n_plus=410, n_minus=395,
        d_mean=-0.525, d_std=0.0625, hdi_low=-0.75, hdi_high=-0.25,
        ess=812.5, max_rhat=1.0078125, waic=123.25, waic_se=4.5,
        divergence_rate=0.001953125, error="",
    )
    base.update(over)
    return ScanPoint(**base)


class TestScanPointSerialization:
    def test_csv_round_trip_is_exact(self):
        points = [full_point(), full_point(label="2", model="inv-gamma", d_mean=0.5)]
        text = scan_points_csv(points)
        assert text.splitlines()[0] == SCAN_CSV_HEADER
        assert scan_points_from_csv(text) == points

    def test_json_round_trip_is_exact(self):
        points = [full_point()]
        text = json.dumps([asdict(p) for p in points])
        assert scan_points_from_json(text) == points

    def test_json_of_a_failed_row_is_strict_and_round_trips(self):
        failed = ScanPoint(scan="rho", label="40", index_id="synth", model="inv-gamma",
                           filter_size=100, rho=math.nan, error="EmptySideError: none")
        text = scan_points_json([full_point(), failed])

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        rows = json.loads(text, parse_constant=refuse)
        assert rows[1]["rho"] is None and rows[1]["d_mean"] is None
        back = scan_points_from_json(text)
        assert back[0] == full_point()
        assert math.isnan(back[1].rho) and math.isnan(back[1].d_mean)
        assert back[1].error == failed.error
        assert scan_points_json(back) == text

    def test_error_rows_survive_with_commas_softened(self):
        for index_id, read_back in (("x", "x"), ("S&P 500, daily", "S&P 500; daily")):
            p = ScanPoint(
                scan="filter", label="300", index_id=index_id, model="student-t",
                filter_size=300, rho=0.02, error="EmptySideError: no up, crossings",
            )
            back = scan_points_from_csv(scan_points_csv([p]))[0]
            assert back.error == "EmptySideError: no up; crossings"
            assert back.index_id == read_back
            assert math.isnan(back.d_mean)
            assert back.n_plus == 0

    def test_header_mismatch_is_rejected(self):
        with pytest.raises(MalformedReportError):
            scan_points_from_csv("a,b,c\n1,2,3\n")

    def test_short_row_is_rejected(self):
        text = SCAN_CSV_HEADER + "\nrho,1,synth\n"
        with pytest.raises(MalformedReportError):
            scan_points_from_csv(text)

    def test_json_must_be_a_list_of_rows(self):
        with pytest.raises(MalformedReportError):
            scan_points_from_json('{"scan": "rho"}')
        with pytest.raises(MalformedReportError):
            scan_points_from_json("not json")
        with pytest.raises(MalformedReportError):
            scan_points_from_json('[{"scan": "rho"}]')

    @pytest.mark.parametrize("field, value", [
        ("filter_size", True), ("n_plus", 252.9), ("label", 7), ("error", None),
        ("rho", "0.5"), ("d_mean", True),
    ])
    def test_json_field_of_another_type_is_refused(self, field, value):
        # a cast would read true as 1, 252.9 as 252, 7 as "7" and "0.5" as 0.5
        row = {**asdict(full_point()), field: value}
        with pytest.raises(MalformedReportError, match=f"scan field {field} must be"):
            scan_points_from_json(json.dumps([row]))

    def test_json_row_needs_exactly_the_scan_fields(self):
        row = asdict(full_point())
        for bad in ({k: v for k, v in row.items() if k != "error"},
                    {**row, "extra": 1}, [row]):
            with pytest.raises(MalformedReportError, match="bad scan row"):
                scan_points_from_json(json.dumps([bad]))


class TestScans:
    def test_rho_scan_rejects_nonpositive_scales(self, series):
        with pytest.raises(NonPositiveRhoError):
            scan_rho(series, (ModelKind.STUDENT_T,), QUICK, scales=(0.5, -1.0))

    def test_rho_scan_isolates_failed_points(self, series):
        points = scan_rho(
            series, (ModelKind.STUDENT_T,), QUICK, scales=(1.0, 400.0),
            filter_size=100,
        )
        assert [p.label for p in points] == ["1", "400"]
        assert points[0].error == ""
        assert math.isfinite(points[0].d_mean)
        assert points[0].rho == pytest.approx(
            threshold_from_std(detrend(series, 100))
        )
        assert points[1].error.startswith("EmptySideError")

    def test_filter_scan_holds_the_barrier_fixed(self, series):
        points = scan_filter(
            series, (ModelKind.STUDENT_T,), QUICK, filter_sizes=(80, 5000),
            rho=0.03,
        )
        assert [p.label for p in points] == ["80", "5000"]
        assert all(p.rho == 0.03 for p in points)
        assert points[0].error == ""
        assert points[1].error != ""  # window larger than the series

    def test_window_scan_labels_follow_the_calendar(self, series):
        long = synthetic_gbm_series(1830, sigma=0.012, seed=6, name="long",
                                    start="2008-01-02")
        first = int(str(long.dates[0].astype("datetime64[Y]")))
        last = int(str(long.dates[-1].astype("datetime64[Y]")))
        want = [str(y) for y in range(first + 5, last + 1)]
        assert len(want) >= 2
        points = scan_window(long, (ModelKind.STUDENT_T,), QUICK,
                             window_years=5, filter_size=100, rho=0.028)
        assert [p.label for p in points] == want
        assert all(p.scan == "window" for p in points)
        ok = [p for p in points if not p.error]
        assert len(ok) == len(points)
        for p in ok:
            assert p.n_plus > 100 and p.n_minus > 100

    def test_window_scan_on_a_short_series_is_empty(self, series):
        assert scan_window(series, (ModelKind.STUDENT_T,), QUICK) == []

    def test_rows_do_not_depend_on_the_worker_count(self, series, monkeypatch):
        # chains 1 and 2 of the inverse-gamma fit at scale 2 (106 gain times)
        # stall, and a barrier of 400 stds leaves no gain time at all
        real = nuts.run_chain

        def run_chain(target, cfg, start, chain):
            if target.spec.kind is ModelKind.INV_GAMMA and target.x_plus.size < 300 \
                    and chain > 0:
                raise AdaptationFailedError(chain, 0.01 * chain)
            return real(target, cfg, start, chain)

        monkeypatch.setattr(nuts, "run_chain", run_chain)
        cfg = SamplerConfig(n_chains=3, n_draw=100, n_tune=150, seed=13)
        rows = {}
        for cpus in (1, 4):
            monkeypatch.setattr(nuts, "_usable_cpus", lambda: cpus)
            rows[cpus] = scan_rho(series, (ModelKind.STUDENT_T, ModelKind.INV_GAMMA), cfg,
                                  scales=(0.5, 2.0, 400.0), filter_size=100)
        assert scan_points_json(rows[1]) == scan_points_json(rows[4])
        assert [(p.label, p.model) for p in rows[4]] == [
            (label, model) for label in ("0.5", "2", "400")
            for model in ("student-t", "inv-gamma")]
        errors = [p.error for p in rows[4]]
        assert errors[:3] == ["", "", ""]
        assert errors[3] == ("AdaptationFailedError: chain 1: mean acceptance 0.0100 "
                             "stayed below 0.1 during warmup")
        assert all(e.startswith("EmptySideError") for e in errors[4:])


# ---------------------------------------------------------------------------
# command line


class TestCliStats:
    def test_single_file_summary(self, price_file, capsys):
        code, out, _ = run_cli(["stats", str(price_file), "--filter-size", "100"],
                               capsys)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("index,raw_count,raw_mean")
        cells = lines[1].split(",")
        assert cells[0] == "synth"
        assert int(cells[1]) == 800
        assert int(cells[4]) == 701

    def test_correlation_of_two_files(self, price_file, tmp_path, capsys):
        other = synthetic_gbm_series(800, sigma=0.012, seed=6, name="other")
        other_path = tmp_path / "other.csv"
        write_price_csv(other, other_path)
        code, out, _ = run_cli(
            ["stats", str(price_file), str(other_path), "--correlate"], capsys
        )
        assert code == EXIT_OK
        corr_line = out.strip().splitlines()[-1]
        assert corr_line.startswith("correlation,synth,other,")
        assert abs(float(corr_line.split(",")[-1])) < 0.2

    def test_correlation_needs_exactly_two(self, price_file, capsys):
        code, _, err = run_cli(["stats", str(price_file), "--correlate"], capsys)
        assert code == EXIT_INPUT
        assert "exactly two" in err

    def test_reads_standard_input(self, series, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(write_price_csv(series)))
        code, out, _ = run_cli(["stats", "-"], capsys)
        assert code == EXIT_OK
        assert out.strip().splitlines()[1].split(",")[0] == "stdin"


class TestCliDetrendHittimes:
    def test_detrend_to_stdout(self, price_file, capsys):
        code, out, _ = run_cli(
            ["detrend", str(price_file), "--filter-size", "100"], capsys
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "date,x"
        assert len(lines) == 1 + 701

    def test_detrend_to_file(self, price_file, tmp_path, capsys):
        target = tmp_path / "x.csv"
        code, _, _ = run_cli(
            ["detrend", str(price_file), "--filter-size", "100", "--out",
             str(target)], capsys
        )
        assert code == EXIT_OK
        body = target.read_text().strip().splitlines()
        assert body[0] == "date,x"
        assert len(body) == 1 + 701

    def test_hittimes_header_and_rows(self, price_file, capsys):
        code, out, _ = run_cli(
            ["hittimes", str(price_file), "--filter-size", "100", "--rho", "0.02"],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert "rho=0.02" in lines[0] and "filter_size=100" in lines[0]
        assert lines[2] == "side,tau"
        plus = [ln for ln in lines[3:] if ln.startswith("plus,")]
        minus = [ln for ln in lines[3:] if ln.startswith("minus,")]
        assert len(plus) > 0 and len(minus) > 0
        assert all(int(ln.split(",")[1]) >= 1 for ln in plus + minus)

    def test_hittimes_to_file(self, price_file, tmp_path, capsys):
        target = tmp_path / "taus.txt"
        code, _, _ = run_cli(
            ["hittimes", str(price_file), "--out", str(target)], capsys
        )
        assert code == EXIT_OK
        assert target.read_text().startswith("# index=synth")


@pytest.fixture(scope="module")
def fit_out(tmp_path_factory, price_file):
    out = tmp_path_factory.mktemp("fitout")
    code = main([
        "fit", str(price_file), "--out-dir", str(out), "--chains", "2",
        "--draws", "300", "--tune", "300", "--seed", "3",
        "--filter-size", "100", "--save-trace",
    ])
    return code, out


class TestCliFit:
    def test_fit_succeeds_and_writes_reports(self, fit_out):
        code, out = fit_out
        assert code == EXIT_OK
        student = FitReport.load(out / "synth_student-t_report.json")
        ig = FitReport.load(out / "synth_inv-gamma_report.json")
        assert student.index_id == ig.index_id == "synth"
        assert student.max_rhat < 1.2 and ig.max_rhat < 1.2
        assert student.n_tune == 300 and student.seed == 3

    def test_fit_csv_table(self, fit_out):
        _, out = fit_out
        lines = (out / "reports.csv").read_text().strip().splitlines()
        assert lines[0] == REPORT_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("synth,")

    def test_saved_trace_artifacts(self, fit_out):
        _, out = fit_out
        for model in ("student-t", "inv-gamma"):
            assert (out / f"synth_{model}_chain0.csv").exists()
            assert (out / f"synth_{model}_chain1.csv").exists()
            summary = json.loads((out / f"synth_{model}_summary.json").read_text())
            assert summary["seed"] == 3
            assert summary["n_chains"] == 2
            assert summary["init_metric"] == ["laplace", "laplace"]
        header = (out / "synth_student-t_chain0.csv").read_text().splitlines()[0]
        assert header.startswith("chain,draw,mu_plus,")

    def test_one_model_fit_writes_the_report_of_both(self, fit_out, price_file, tmp_path):
        code = main([
            "fit", str(price_file), "--out-dir", str(tmp_path), "--chains", "2",
            "--draws", "300", "--tune", "300", "--seed", "3",
            "--filter-size", "100", "--model", "student-t",
        ])
        assert code == EXIT_OK
        name = "synth_student-t_report.json"
        assert (tmp_path / name).read_bytes() == (fit_out[1] / name).read_bytes()

    def test_convergence_gate_and_override(self, price_file, tmp_path, capsys,
                                           monkeypatch):
        # every rhat exceeds 0.9, so the patched gate must trip
        monkeypatch.setattr(cli, "RHAT_FAIL", 0.9)
        argv = ["fit", str(price_file), "--model", "student-t", "--chains", "2",
                "--draws", "100", "--tune", "150", "--seed", "4",
                "--filter-size", "100", "--out-dir", str(tmp_path)]
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_CONVERGENCE
        assert "rhat" in err
        code, _, _ = run_cli(argv + ["--allow-nonconverged"], capsys)
        assert code == EXIT_OK

    def test_config_file_supplies_defaults_and_flags_win(self, price_file,
                                                         tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filter_size": 60}))
        code, out, _ = run_cli(
            ["--config", str(cfg), "hittimes", str(price_file)], capsys
        )
        assert code == EXIT_OK
        assert "filter_size=60" in out.splitlines()[0]
        code, out, _ = run_cli(
            ["--config", str(cfg), "hittimes", str(price_file),
             "--filter-size", "80"], capsys
        )
        assert "filter_size=80" in out.splitlines()[0]

    def test_config_file_drives_the_sampler(self, price_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "chains": 2, "draws": 100, "tune": 150, "seed": 9,
            "model": "student-t", "filter_size": 100,
            "out_dir": str(out_dir), "allow_nonconverged": True,
        }))
        code, _, _ = run_cli(["--config", str(cfg), "fit", str(price_file)], capsys)
        assert code == EXIT_OK
        report = FitReport.load(out_dir / "synth_student-t_report.json")
        assert (report.n_chains, report.n_draw, report.n_tune) == (2, 100, 150)
        assert report.seed == 9

    def test_config_value_of_the_wrong_type_is_an_input_error(self, price_file,
                                                              tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"draws": "many"}))
        code, _, err = run_cli(
            ["--config", str(cfg), "fit", str(price_file)], capsys
        )
        assert code == EXIT_INPUT
        assert "draws" in err and "many" in err

    @pytest.mark.parametrize("value", ["false", 0])
    def test_non_boolean_override_in_config_is_an_input_error(self, price_file,
                                                             tmp_path, capsys, value):
        # bool("false") would switch the convergence override on
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"allow_nonconverged": value, "chains": 2,
                                   "tune": 30, "draws": 30,
                                   "out_dir": str(tmp_path / "out")}))
        code, _, err = run_cli(
            ["--config", str(cfg), "fit", str(price_file)], capsys
        )
        assert code == EXIT_INPUT
        assert "allow_nonconverged" in err and repr(value) in err

    @pytest.mark.parametrize("chains, draws, seed, option", [
        ("1", "300", "0", "--chains"), ("2", "3", "0", "--draws"),
        ("2", "20", "0", "--chains x --draws"), ("2", "300", "-1", "seed"),
    ])
    def test_unreportable_sampler_settings_are_refused_before_sampling(
            self, price_file, tmp_path, capsys, monkeypatch, chains, draws, seed,
            option):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr("gainloss.pipeline.run_chains_each", no_sampling)
        code, _, err = run_cli(
            ["fit", str(price_file), "--chains", chains, "--draws", draws,
             "--tune", "10", "--seed", seed, "--out-dir", str(tmp_path)], capsys,
        )
        assert code == EXIT_INPUT
        assert f"error: {option} must be" in err

    @pytest.mark.parametrize("mass", ["1.5", "0", "nan"])
    def test_hdi_mass_outside_the_unit_interval_is_refused_before_sampling(
            self, price_file, tmp_path, capsys, monkeypatch, mass):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr("gainloss.pipeline.run_chains_each", no_sampling)
        code, _, err = run_cli(
            ["fit", str(price_file), "--hdi-mass", mass, "--chains", "2",
             "--draws", "100", "--tune", "10", "--out-dir", str(tmp_path)], capsys,
        )
        assert code == EXIT_INPUT
        assert "error: --hdi-mass must lie in (0, 1)" in err

    @pytest.mark.parametrize("command, key, value", [
        ("hittimes", "rho", True),
        ("hittimes", "filter_size", 252.9),
        ("scan-filter", "filter_sizes", [150.7]),
        ("fit", "seed", True),
    ])
    def test_config_bool_or_fraction_for_a_number_is_an_input_error(
            self, price_file, tmp_path, capsys, monkeypatch, command, key, value):
        # int() and float() would take true as 1 and cut 252.9 to 252
        def no_sampling(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr("gainloss.pipeline.run_chains_each", no_sampling)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value, "out_dir": str(tmp_path / "out")}))
        code, _, err = run_cli(["--config", str(cfg), command, str(price_file)], capsys)
        assert code == EXIT_INPUT
        assert f"bad value for {key}" in err

    def test_config_file_turns_on_save_trace(self, price_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "save_trace": True, "chains": 2, "draws": 100, "tune": 100,
            "model": "student-t", "filter_size": 100, "allow_nonconverged": True,
            "out_dir": str(tmp_path / "out"),
        }))
        code, _, _ = run_cli(["--config", str(cfg), "fit", str(price_file)], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "out" / "synth_student-t_chain0.csv").exists()

    def test_bogus_model_in_config_is_an_input_error(self, price_file, tmp_path,
                                                     capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "normal"}))
        code, _, err = run_cli(
            ["--config", str(cfg), "fit", str(price_file)], capsys
        )
        assert code == EXIT_INPUT
        assert "unknown model" in err


class TestCliScan:
    def test_scan_rho_isolates_failures_and_writes_artifacts(self, price_file,
                                                             tmp_path, capsys):
        code, out, _ = run_cli(
            ["scan-rho", str(price_file), "--rho-scales", "1.0,400",
             "--model", "student-t", "--chains", "2", "--draws", "150",
             "--tune", "150", "--seed", "5", "--filter-size", "100",
             "--out-dir", str(tmp_path)], capsys,
        )
        assert code == EXIT_PARTIAL
        csv_path = tmp_path / "scan_rho_synth.csv"
        points = scan_points_from_csv(csv_path.read_text())
        assert len(points) == 2
        assert points[0].error == "" and math.isfinite(points[0].d_mean)
        assert points[1].error.startswith("EmptySideError")
        json_text = (tmp_path / "scan_rho_synth.json").read_text()
        assert "NaN" not in json_text
        json_points = scan_points_from_json(json_text)
        assert len(json_points) == 2
        assert "rho=400" in out

    def test_scan_filter_on_a_series_shorter_than_the_reference_window(
            self, price_csv_factory, tmp_path, capsys):
        # the default barrier needs the series detrended at 252 days; its
        # failure lands on every grid row instead of aborting the scan
        short = price_csv_factory(n_days=200, sigma=0.012, seed=9, name="short")
        code, out, err = run_cli(
            ["scan-filter", str(short), "--filter-sizes", "50,100",
             "--chains", "2", "--draws", "100", "--tune", "100",
             "--out-dir", str(tmp_path)], capsys,
        )
        assert code == EXIT_PARTIAL
        assert err == ""
        want = "WindowTooLargeError: window 252 exceeds series length 200"
        for name, parse in (("scan_filter_short.csv", scan_points_from_csv),
                            ("scan_filter_short.json", scan_points_from_json)):
            points = parse((tmp_path / name).read_text())
            assert [(p.label, p.model) for p in points] == [
                (label, model) for label in ("50", "100")
                for model in ("student-t", "inv-gamma")]
            assert all(p.error == want and math.isnan(p.rho) for p in points)
        assert "(4 rows, 4 failed)" in out

    def test_scan_with_one_chain_is_refused(self, price_file, tmp_path, capsys):
        code, _, err = run_cli(
            ["scan-rho", str(price_file), "--chains", "1", "--draws", "100",
             "--tune", "10", "--out-dir", str(tmp_path)], capsys,
        )
        assert code == EXIT_INPUT
        assert "--chains must be >= 2" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("years", ["0", "-2"])
    def test_scan_window_below_one_year_is_an_input_error(
            self, price_file, tmp_path, capsys, monkeypatch, years):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr("gainloss.pipeline.run_chains_each", no_sampling)
        code, out, err = run_cli(
            ["scan-window", str(price_file), "--window-years", years,
             "--chains", "2", "--draws", "100", "--tune", "100",
             "--out-dir", str(tmp_path)], capsys,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert f"window_years must be >= 1, got {years}" in err

    @pytest.mark.parametrize("argv, message", [
        (["scan-filter", "--filter-sizes", "0,-5"], "filter sizes must be >= 1, got [0, -5]"),
        (["scan-filter", "--rho", "-1"], "rho must be positive, got -1"),
        (["scan-window", "--window-years", "1", "--filter-size", "0"],
         "filter sizes must be >= 1, got [0]"),
        (["scan-window", "--window-years", "1", "--rho", "-1"],
         "rho must be positive, got -1"),
    ])
    def test_out_of_range_fixed_inputs_are_input_errors(
            self, price_file, tmp_path, capsys, monkeypatch, argv, message):
        # refused before any grid point, where every row would fail alike
        def no_sampling(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr("gainloss.pipeline.run_chains_each", no_sampling)
        code, out, err = run_cli(
            [argv[0], str(price_file), *argv[1:], "--chains", "2", "--draws", "100",
             "--tune", "100", "--out-dir", str(tmp_path)], capsys,
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert message in err

    def test_scan_window_with_no_windows_is_a_clean_no_op(self, price_file,
                                                          tmp_path, capsys):
        code, _, err = run_cli(
            ["scan-window", str(price_file), "--out-dir", str(tmp_path),
             "--chains", "2", "--draws", "100", "--tune", "100"], capsys,
        )
        assert code == EXIT_OK
        assert "no complete" in err
        body = (tmp_path / "scan_window_synth.csv").read_text().strip()
        assert body == SCAN_CSV_HEADER


class TestCliScanOptions:
    """How each scan subcommand turns flags and config keys into library calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def fake_scan(name):
            def scan(series, kinds, sampler, **kwargs):
                seen.append((name, kwargs))
                return []
            return scan

        for name in ("scan_filter", "scan_rho", "scan_window"):
            monkeypatch.setattr(cli, name, fake_scan(name))
        return seen

    @pytest.mark.parametrize("command, config, want", [
        ("scan-filter", {"filter_sizes": [80, 90], "rho": 0.03},
         ("scan_filter", {"filter_sizes": (80, 90), "rho": 0.03})),
        ("scan-rho", {"rho_scales": [0.5, 1], "filter_size": 100},
         ("scan_rho", {"scales": (0.5, 1.0), "filter_size": 100})),
        ("scan-window", {"window_years": 3, "filter_size": 60, "rho": 0.02},
         ("scan_window", {"window_years": 3, "filter_size": 60, "rho": 0.02})),
    ])
    def test_config_keys_map_onto_library_keywords(self, price_file, tmp_path,
                                                   capsys, calls, command,
                                                   config, want):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "out_dir": str(tmp_path / "out")}))
        code, _, _ = run_cli(["--config", str(cfg), command, str(price_file)],
                             capsys)
        assert code == EXIT_OK
        assert calls == [want]

    @pytest.mark.parametrize("command", ["scan-filter", "scan-rho", "scan-window"])
    def test_unset_keys_leave_the_library_defaults(self, price_file, tmp_path,
                                                   capsys, calls, command):
        code, _, _ = run_cli([command, str(price_file), "--out-dir", str(tmp_path)],
                             capsys)
        assert code == EXIT_OK
        assert calls == [(command.replace("-", "_"), {})]

    @pytest.mark.parametrize("argv, config, option", [
        (["scan-rho", "--rho-scales", ""], {}, "--rho-scales"),
        (["scan-filter", "--filter-sizes", ""], {}, "--filter-sizes"),
        (["scan-rho"], {"rho_scales": []}, "--rho-scales"),
        (["scan-filter"], {"filter_sizes": []}, "--filter-sizes"),
    ])
    def test_an_empty_grid_is_an_input_error(self, price_file, tmp_path, capsys,
                                             calls, argv, config, option):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**config, "out_dir": str(tmp_path / "out")}))
        code, _, err = run_cli(
            ["--config", str(cfg), argv[0], str(price_file)] + argv[1:], capsys)
        assert code == EXIT_INPUT
        assert f"error: {option} names no grid point" in err
        assert calls == []
        assert not (tmp_path / "out").exists()


class TestCliGbmValidate:
    def test_one_sided_run(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["gbm-validate", "--paths", "1500", "--dt", "0.01", "--horizon",
             "60", "--sigma", "0.3", "--rho", "0.2", "--drift", "0.1",
             "--seed", "2", "--out-dir", str(tmp_path)], capsys,
        )
        assert code == EXIT_OK
        ks_line = [ln for ln in out.splitlines() if ln.startswith("ks=")][0]
        assert float(ks_line.split("=")[1]) < 0.1
        taus = (tmp_path / "gbm_taus.csv").read_text().strip().splitlines()
        assert taus[0] == "tau"
        assert len(taus) > 1000

    def test_two_sided_run(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["gbm-validate", "--two-sided", "--paths", "600", "--dt", "0.02",
             "--horizon", "40", "--sigma", "0.3", "--rho", "0.25",
             "--drift", "0.0", "--seed", "4", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert "ks2=" in out and "pvalue=" in out
        assert (tmp_path / "gbm_taus_up.csv").exists()
        assert (tmp_path / "gbm_taus_down.csv").exists()

    def test_two_sided_run_is_driftless_by_default(self, capsys):
        argv = ["gbm-validate", "--two-sided", "--paths", "400", "--dt", "0.02",
                "--horizon", "40", "--sigma", "0.3", "--rho", "0.25"]
        code, default_out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        code, driftless_out, _ = run_cli(argv + ["--drift", "0"], capsys)
        assert code == EXIT_OK
        assert default_out == driftless_out

    @pytest.mark.parametrize("two_sided", [False, True])
    def test_config_file_drives_the_simulation(self, tmp_path, capsys, two_sided):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "paths": 1500, "horizon": 50.0, "dt": 0.01, "sigma": 0.3, "rho": 0.2,
            "drift": 0.1, "seed": 2, "two_sided": two_sided,
            "out_dir": str(tmp_path),
        }))
        code, out, _ = run_cli(["--config", str(cfg), "gbm-validate"], capsys)
        assert code == EXIT_OK
        assert out.startswith("paths=1500 ")
        assert ("ks2=" in out) == two_sided
        name = "gbm_taus_up.csv" if two_sided else "gbm_taus.csv"
        assert (tmp_path / name).exists()

    def test_flags_win_over_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"paths": 100, "horizon": 40.0, "dt": 0.02,
                                   "two_sided": True}))
        code, out, _ = run_cli(
            ["--config", str(cfg), "gbm-validate", "--paths", "200"], capsys)
        assert code == EXIT_OK
        assert out.startswith("paths=200 n_up=")

    @pytest.mark.parametrize("two_sided", [[], ["--two-sided"]], ids=["one", "two"])
    def test_negative_seed_is_an_input_error(self, tmp_path, capsys, two_sided):
        code, _, err = run_cli(["gbm-validate", "--seed", "-2", "--paths", "10"]
                               + two_sided, capsys)
        assert code == EXIT_INPUT
        assert "seed must be >= 0, got -2" in err

    def test_non_boolean_two_sided_in_config_is_an_input_error(self, tmp_path,
                                                              capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"two_sided": "yes", "paths": 10}))
        code, _, err = run_cli(["--config", str(cfg), "gbm-validate"], capsys)
        assert code == EXIT_INPUT
        assert "two_sided" in err


class TestCliPlot:
    def test_report_plot_is_deterministic(self, fit_out, tmp_path, capsys):
        _, out = fit_out
        report_path = out / "synth_student-t_report.json"
        code, _, _ = run_cli(
            ["plot", str(report_path), "--out-dir", str(tmp_path)], capsys
        )
        assert code == EXIT_OK
        svg_path = tmp_path / "synth_student-t_report.svg"
        first = svg_path.read_text()
        assert first.startswith("<svg") or "<svg" in first
        assert "% &lt;" in first
        assert "HDI" in first
        run_cli(["plot", str(report_path), "--out-dir", str(tmp_path)], capsys)
        assert svg_path.read_text() == first

    def test_svgs_of_a_name_with_markup_are_xml(self, fit_out):
        report = FitReport.load(fit_out[1] / "synth_student-t_report.json")
        title = "{http://www.w3.org/2000/svg}text"
        svg = ElementTree.fromstring(posterior_svg(replace(report, index_id="S&P<500>")))
        assert svg.find(title).text == "S&P<500> / student-t: effect size posterior"
        svg = ElementTree.fromstring(scan_svg([full_point(index_id="S&P<500>")]))
        assert svg.find(title).text == "S&P<500>: effect size across rho grid"

    def test_scan_plot_from_csv_and_json(self, tmp_path, capsys):
        points = [full_point(label="1"), full_point(label="2", d_mean=-0.4)]
        csv_path = tmp_path / "scan.csv"
        csv_path.write_text(scan_points_csv(points))
        json_path = tmp_path / "scanj.json"
        json_path.write_text(json.dumps([asdict(p) for p in points]))
        code, _, _ = run_cli(
            ["plot", str(csv_path), str(json_path), "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert (tmp_path / "scan.svg").exists()
        assert (tmp_path / "scanj.svg").exists()

    def test_scan_json_with_a_mistyped_field_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "scan.json"
        path.write_text(json.dumps([{**asdict(full_point()), "filter_size": 252.9}]))
        code, out, err = run_cli(["plot", str(path), "--out-dir", str(tmp_path)],
                                 capsys)
        assert code == EXIT_INPUT
        assert out == ""
        assert "scan field filter_size must be int, got 252.9" in err
        assert not (tmp_path / "scan.svg").exists()

    def test_malformed_plot_input(self, fit_out, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("hello\nworld\n")
        code, _, err = run_cli(["plot", str(bad), "--out-dir", str(tmp_path)],
                               capsys)
        assert code == EXIT_INPUT
        assert "header mismatch" in err
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{bad")
        code, _, err = run_cli(["plot", str(bad_json), "--out-dir", str(tmp_path)],
                               capsys)
        assert code == EXIT_INPUT
        assert "not valid JSON" in err
        report = json.loads((fit_out[1] / "synth_student-t_report.json").read_text())
        for rhat in ({}, {"d": "1.01"}):
            bad_report = tmp_path / "bad_report.json"
            bad_report.write_text(json.dumps({**report, "rhat": rhat}))
            code, _, err = run_cli(["plot", str(bad_report), "--out-dir", str(tmp_path)],
                                   capsys)
            assert code == EXIT_INPUT
            assert "rhat must map parameter names to numbers" in err
        for field, value, message in (
                ("rhat", ["abc"], "rhat must map parameter names to numbers"),
                ("d_mean", "x", "report field d_mean must be float"),
                ("n_plus", True, "report field n_plus must be int")):
            bad_report = tmp_path / "bad_report.json"
            bad_report.write_text(json.dumps({**report, field: value}))
            code, _, err = run_cli(["plot", str(bad_report), "--out-dir", str(tmp_path)],
                                   capsys)
            assert code == EXIT_INPUT
            assert message in err

    def test_scan_with_only_failures_cannot_be_plotted(self, tmp_path, capsys):
        p = ScanPoint(scan="rho", label="1", index_id="x", model="student-t",
                      filter_size=10, rho=0.1, error="EmptySideError: empty")
        path = tmp_path / "allbad.csv"
        path.write_text(scan_points_csv([p]))
        code, _, err = run_cli(["plot", str(path), "--out-dir", str(tmp_path)],
                               capsys)
        assert code == EXIT_INPUT
        assert "no successful scan points" in err


class TestCliMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["stats", "/no/such/file.csv"], capsys)
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,close\n2020-01-01,abc\n")
        code, _, err = run_cli(["stats", str(bad)], capsys)
        assert code == EXIT_INPUT
        assert "line 2" in err

    def test_unreadable_config(self, price_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(
            ["--config", str(cfg), "stats", str(price_file)], capsys
        )
        assert code == EXIT_INPUT
        assert "config" in err

    def test_config_must_be_an_object(self, price_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, err = run_cli(
            ["--config", str(cfg), "stats", str(price_file)], capsys
        )
        assert code == EXIT_INPUT
        assert "JSON object" in err


# In a fresh interpreter: the scipy modules loaded after importing the CLI and
# after each of a fit and a scan, with the two exit codes, and the process
# pool modules loaded by the import.
FOOTPRINT_SCRIPT = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from gainloss.cli import main
seen = {"import": [0, scipy_modules()],
        "pool": sorted(m for m in sys.modules
                       if m.startswith(("multiprocessing", "concurrent")))}
csv, out = sys.argv[1:]
quick = ["--chains", "2", "--draws", "60", "--tune", "60", "--seed", "3",
         "--filter-size", "100", "--allow-nonconverged", "--out-dir", out]
seen["fit"] = [main(["fit", csv, *quick]), scipy_modules()]
seen["scan-rho"] = [main(["scan-rho", csv, "--rho-scales", "0.5,2", *quick]),
                    scipy_modules()]
print(json.dumps(seen))
"""


class TestCliImportFootprint:
    def test_fits_and_scans_load_no_scipy(self, price_csv_factory, tmp_path):
        csv = price_csv_factory(n_days=600, sigma=0.012, seed=4)
        proc = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_SCRIPT, str(csv), str(tmp_path / "out")],
            env=source_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        # the chain pool's modules load only when a fit runs chains
        assert seen == {"import": [EXIT_OK, []], "pool": [], "fit": [EXIT_OK, []],
                        "scan-rho": [EXIT_OK, []]}
