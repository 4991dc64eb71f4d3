"""Effect sizes, intervals, convergence statistics, WAIC, and fit reports."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import signal, stats

from gainloss import diagnostics, workers
from gainloss.diagnostics import (
    FitReport,
    REPORT_CSV_HEADER,
    build_report,
    effect_size_draws,
    ess,
    gelman_rubin,
    hdi,
    pooled_effect_size,
    prob_below,
    waic,
)
from gainloss.errors import (
    DegenerateChainsError,
    DegenerateSampleSizesError,
    MalformedReportError,
    TooFewSamplesError,
)
from gainloss.models import FAMILIES, LoglikMatrix, ModelKind, ModelSpec, Posterior
from gainloss.nuts import SamplerConfig, Trace, run_chains


def fake_trace(values_by_name, n_chains=2, n_draw=60):
    """Trace with constant draws per parameter; enough for layout tests."""
    names = tuple(values_by_name)
    draws = np.empty((n_chains, n_draw, len(names)))
    for k, name in enumerate(names):
        draws[:, :, k] = values_by_name[name]
    cfg = SamplerConfig(n_chains=n_chains, n_draw=n_draw, n_tune=0, seed=0)
    return Trace(
        draws=draws,
        param_names=names,
        accept_stat=np.full((n_chains, n_draw), 0.9),
        divergent=np.zeros((n_chains, n_draw), dtype=bool),
        tree_depth=np.ones((n_chains, n_draw), dtype=np.int16),
        step_size=np.full(n_chains, 0.5),
        mass_diag=np.ones((n_chains, len(names))),
        n_grad=np.zeros((n_chains, 2), dtype=np.int64),
        init_metric=("unit",) * n_chains,
        config=cfg,
    )


class TestPooledEffectSize:
    def test_equal_locations_give_zero(self):
        assert pooled_effect_size(2.0, 2.0, 1.1, 1.4, 100, 120) == 0.0

    def test_hand_computed_value(self):
        d = pooled_effect_size(3.58, 4.40, 1.28, 1.73, 100_000, 100_000)
        pooled = math.sqrt((1.28**2 + 1.73**2) / 2.0)
        assert d == pytest.approx((3.58 - 4.40) / pooled, rel=1e-9)
        assert round(d, 3) == -0.539

    def test_equal_scales_reduce_to_plain_standardization(self):
        assert pooled_effect_size(3.0, 2.0, 0.5, 0.5, 40, 40) == pytest.approx(2.0)

    def test_swapping_sides_flips_the_sign(self):
        a = pooled_effect_size(3.1, 4.2, 1.3, 0.9, 30, 50)
        b = pooled_effect_size(4.2, 3.1, 0.9, 1.3, 50, 30)
        assert a == -b

    def test_vectorized_over_draws(self):
        loc_p = np.array([3.0, 3.5])
        d = pooled_effect_size(loc_p, 4.0, 1.0, 1.0, 10, 10)
        assert d.shape == (2,)
        assert d[0] == pytest.approx(-1.0)

    def test_unpooled_sample_sizes_weight_the_scales(self):
        # with n_plus >> n_minus the pooled scale approaches scale_plus
        d = pooled_effect_size(1.0, 0.0, 2.0, 5.0, 100_000, 2)
        assert d == pytest.approx(0.5, abs=1e-3)

    def test_degenerate_sizes(self):
        with pytest.raises(DegenerateSampleSizesError):
            pooled_effect_size(1.0, 2.0, 1.0, 1.0, 1, 50)
        with pytest.raises(DegenerateSampleSizesError):
            pooled_effect_size(1.0, 2.0, 1.0, 1.0, 50, 0)


class TestEffectSizeDraws:
    @pytest.mark.parametrize("kind,loc,scale", [
        (ModelKind.STUDENT_T, "mu", "sigma"),
        (ModelKind.INV_GAMMA, "m", "s"),
    ], ids=["student-t", "inv-gamma"])
    def test_parameter_roles(self, kind, loc, scale):
        names = FAMILIES[kind].param_names
        values = dict(zip(names, 1.0 + np.arange(len(names))))
        rng = np.random.default_rng(70)
        xp, xm = rng.lognormal(1.0, 0.4, size=10), rng.lognormal(1.1, 0.4, size=14)
        post = Posterior(ModelSpec.from_data(kind, xp, xm), xp, xm)
        d = effect_size_draws(fake_trace(values), post)
        want = pooled_effect_size(values[f"{loc}_plus"], values[f"{loc}_minus"],
                                  values[f"{scale}_plus"], values[f"{scale}_minus"],
                                  10, 14)
        assert d.shape == (2, 60)
        assert np.allclose(d, want)


class TestHdi:
    def test_uniform_interval_width(self):
        rng = np.random.default_rng(60)
        lo, hi = hdi(rng.uniform(0.0, 1.0, 100_000), 0.94)
        assert hi - lo == pytest.approx(0.94, abs=0.01)

    def test_normal_interval_matches_quantiles(self):
        rng = np.random.default_rng(61)
        lo, hi = hdi(rng.standard_normal(200_000), 0.94)
        edge = stats.norm.ppf(0.97)
        assert lo == pytest.approx(-edge, abs=0.03)
        assert hi == pytest.approx(edge, abs=0.03)

    def test_is_the_narrowest_window(self):
        rng = np.random.default_rng(62)
        x = rng.gumbel(size=300)
        lo, hi = hdi(x, 0.94)
        xs = np.sort(x)
        keep = math.ceil(0.94 * 300)
        widths = xs[keep - 1:] - xs[: 300 - keep + 1]
        assert hi - lo == pytest.approx(float(widths.min()), rel=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(63)
        x = rng.standard_normal(5000)
        lo, hi = hdi(x, 0.9)
        lo2, hi2 = hdi(3.0 * x + 2.0, 0.9)
        assert lo2 == pytest.approx(3.0 * lo + 2.0, rel=1e-12)
        assert hi2 == pytest.approx(3.0 * hi + 2.0, rel=1e-12)

    def test_point_mass_has_zero_width(self):
        lo, hi = hdi(np.full(100, 7.25), 0.94)
        assert lo == hi == 7.25

    def test_multichain_input_is_flattened(self):
        rng = np.random.default_rng(64)
        x = rng.standard_normal((4, 500))
        assert hdi(x, 0.9) == hdi(x.reshape(-1), 0.9)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            hdi(np.ones(49), 0.94)

    @pytest.mark.parametrize("mass", [0.0, 1.0, 1.5, -0.2])
    def test_mass_outside_unit_interval(self, mass):
        with pytest.raises(TooFewSamplesError):
            hdi(np.arange(100.0), mass)


class TestProbBelow:
    def test_all_above_reference(self):
        assert prob_below(np.array([0.5, 1.0, 2.0]), 0.0) == 0.0

    def test_symmetric_sample_splits_evenly(self):
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        assert prob_below(x, 0.0) == 0.5

    def test_comparison_is_strict(self):
        assert prob_below(np.array([0.0, 0.0, 1.0]), 0.0) == 0.0

    def test_reference_shifts(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert prob_below(x, 2.5) == 0.5

    def test_empty_sample(self):
        with pytest.raises(TooFewSamplesError):
            prob_below(np.array([]), 0.0)


class TestGelmanRubin:
    def test_hand_oracle_two_shifted_chains(self):
        chains = np.array([[1.0, 2.0, 3.0, 4.0], [11.0, 12.0, 13.0, 14.0]])
        # W = 5/3, B = 200, V = 0.75 W + (3/8) B = 76.25
        assert gelman_rubin(chains) == pytest.approx(math.sqrt(76.25 / (5.0 / 3.0)), rel=1e-12)

    def test_identical_chains_hit_the_floor(self):
        c = np.array([1.0, 2.0, 3.0, 4.0])
        assert gelman_rubin(np.stack([c, c])) == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_well_mixed_chains_are_near_one(self):
        rng = np.random.default_rng(65)
        assert gelman_rubin(rng.standard_normal((4, 4000))) < 1.01

    def test_separated_chains_flag_trouble(self):
        rng = np.random.default_rng(66)
        a = rng.standard_normal(1000)
        assert gelman_rubin(np.stack([a, a + 10.0])) > 1.2

    def test_single_chain_is_rejected(self):
        with pytest.raises(DegenerateChainsError):
            gelman_rubin(np.ones((1, 100)) + np.arange(100.0))

    def test_zero_variance_chain_is_rejected(self):
        chains = np.stack([np.ones(100), np.arange(100.0)])
        with pytest.raises(DegenerateChainsError):
            gelman_rubin(chains)

    def test_too_few_draws(self):
        with pytest.raises(TooFewSamplesError):
            gelman_rubin(np.random.default_rng(0).standard_normal((2, 3)))

    def test_wrong_shape(self):
        with pytest.raises(DegenerateChainsError):
            gelman_rubin(np.arange(10.0))


class TestEss:
    def test_iid_draws_are_fully_efficient(self):
        rng = np.random.default_rng(67)
        chains = rng.standard_normal((4, 4000))
        e = ess(chains)
        assert 0.8 * 16000 <= e <= 16000

    def test_ar1_matches_the_theoretical_rate(self):
        rng = np.random.default_rng(68)
        phi, n = 0.5, 40_000
        noise = rng.standard_normal(n) * math.sqrt(1 - phi**2)
        chain = signal.lfilter([1.0], [1.0, -phi], noise)
        want = n * (1 - phi) / (1 + phi)
        assert ess(chain[None, :]) == pytest.approx(want, rel=0.15)

    def test_antithetic_chain_is_capped_at_the_sample_count(self):
        rng = np.random.default_rng(69)
        base = rng.standard_normal(2000)
        chain = np.where(np.arange(2000) % 2 == 0, 3.0, -3.0) + 0.01 * base
        assert ess(chain[None, :]) == 2000.0

    def test_single_chain_is_allowed(self):
        rng = np.random.default_rng(70)
        assert ess(rng.standard_normal((1, 1000))) > 100.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(TooFewSamplesError):
            ess(np.random.default_rng(0).standard_normal((2, 3)))
        with pytest.raises(DegenerateChainsError):
            ess(np.ones((2, 100)))


class TestWaic:
    def test_two_by_two_hand_oracle(self):
        ll = np.array([[0.0, -1.0], [-2.0, -1.0]])
        res = waic(ll)
        lppd0 = math.log((1.0 + math.exp(-2.0)) / 2.0)
        assert res.lppd == pytest.approx(lppd0 - 1.0, rel=1e-12)
        assert res.p_waic == pytest.approx(2.0, rel=1e-12)
        assert res.waic == pytest.approx(-2.0 * (lppd0 - 1.0 - 2.0), rel=1e-12)
        contrib = [-2.0 * (lppd0 - 2.0), 2.0]
        assert res.se == pytest.approx(
            math.sqrt(2.0 * np.var(contrib, ddof=1)), rel=1e-12
        )
        assert res.n_obs == 2

    def test_degenerate_posterior_has_no_effective_parameters(self):
        row = np.array([-1.3, -0.4, -2.2])
        res = waic(np.tile(row, (3, 1)))
        assert res.p_waic == pytest.approx(0.0, abs=1e-15)
        assert res.waic == pytest.approx(-2.0 * row.sum(), rel=1e-12)

    def test_uniform_shift_moves_waic_linearly(self):
        rng = np.random.default_rng(71)
        ll = rng.normal(-1.0, 0.3, size=(50, 20))
        base = waic(ll)
        shifted = waic(ll + 0.7)
        assert shifted.waic == pytest.approx(base.waic - 2.0 * 20 * 0.7, rel=1e-9)
        assert shifted.se == pytest.approx(base.se, rel=1e-9)
        assert shifted.p_waic == pytest.approx(base.p_waic, rel=1e-9)

    def test_counts_weight_columns_like_repeated_observations(self):
        rng = np.random.default_rng(74)
        ll_distinct = rng.normal(-1.5, 0.4, size=(200, 7))
        counts = np.array([1, 3, 1, 12, 2, 1, 5])
        ll_expanded = np.repeat(ll_distinct, counts, axis=1)
        got, want = waic(ll_distinct, counts), waic(ll_expanded)
        assert got.n_obs == want.n_obs == counts.sum()
        for name in ("waic", "se", "lppd", "p_waic"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)

    @pytest.mark.parametrize("source", ["array", "float32", "loglik_matrix"])
    def test_block_width_changes_nothing(self, monkeypatch, source):
        # 64 draws: the default block is 2048 rows high, so the last of 2049
        # rows, one per distinct value, is a block of its own
        rng = np.random.default_rng(75)
        xp, xm = rng.normal(3.0, 1.0, 1200), rng.normal(3.3, 1.2, 849)
        post = Posterior(ModelSpec.from_data(ModelKind.STUDENT_T, xp, xm), xp, xm)
        z = post.initial_unconstrained() + rng.normal(0.0, 0.3, (64, post.dim))
        draws = np.array([post.constrain(row) for row in z])
        ll = LoglikMatrix(post, draws)
        assert ll.shape == (2049, 64)
        counts = rng.integers(1, 9, ll.shape[0])
        dense = ll.rows(0, ll.shape[0]).T  # [draws, values], as waic's arrays are
        matrix = {"array": dense * 1.37, "float32": dense.astype(np.float32),
                  "loglik_matrix": ll}[source]
        results, terms = [], []
        for columns in (1, 7, None):
            if columns is not None:
                monkeypatch.setattr(diagnostics, "LOGLIK_BLOCK", 64 * columns)
            results.append(waic(matrix, counts))
            # the totals can hide a last-bit change in one column's terms
            terms.append(np.concatenate(diagnostics._column_terms(matrix)))
        assert results[0] == results[1] == results[2]
        assert np.array_equal(terms[0], terms[1]) and np.array_equal(terms[0], terms[2])
        if source == "loglik_matrix":
            assert results[2] == waic(dense, counts)

    def test_workers_change_nothing(self, monkeypatch):
        # 30 rows of 1000 draws a block: 2049 rows make 69 blocks
        rng = np.random.default_rng(77)
        xp, xm = rng.normal(3.0, 1.0, 1200), rng.normal(3.3, 1.2, 849)
        post = Posterior(ModelSpec.from_data(ModelKind.STUDENT_T, xp, xm), xp, xm)
        z = post.initial_unconstrained() + rng.normal(0.0, 0.3, (1000, post.dim))
        ll = LoglikMatrix(post, np.array([post.constrain(row) for row in z]))
        monkeypatch.setattr(diagnostics, "LOGLIK_BLOCK", 30 * 1000)
        results, terms = [], []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
            results.append(waic(ll, post.counts))
            terms.append(np.concatenate(diagnostics._column_terms(ll)))
        assert results[0] == results[1] == results[2]
        assert np.array_equal(terms[0], terms[1]) and np.array_equal(terms[0], terms[2])

    def test_needs_two_draws_and_one_observation(self):
        with pytest.raises(TooFewSamplesError):
            waic(np.zeros((1, 5)))
        with pytest.raises(TooFewSamplesError):
            waic(np.zeros((5, 0)))
        with pytest.raises(TooFewSamplesError):
            waic(np.zeros(5))


def tiny_student_fit(seed=72):
    rng = np.random.default_rng(seed)
    xp = rng.normal(3.0, 1.0, size=120)
    xm = rng.normal(3.4, 1.0, size=140)
    post = Posterior(ModelSpec.from_data(ModelKind.STUDENT_T, xp, xm), xp, xm)
    cfg = SamplerConfig(n_chains=2, n_draw=150, n_tune=150, seed=seed)
    return run_chains(post, cfg), post


class TestBuildReport:
    def test_report_fields_are_consistent(self, tmp_path):
        trace, post = tiny_student_fit()
        report = build_report(trace, post, index_id="toy", rho=0.025, filter_size=100)
        flat = effect_size_draws(trace, post).reshape(-1)
        assert report.index_id == "toy"
        assert report.model == "student-t"
        assert report.rho == 0.025
        assert report.filter_size == 100
        assert (report.n_plus, report.n_minus) == (120, 140)
        assert report.d_mean == pytest.approx(float(flat.mean()), rel=1e-12)
        assert report.d_std == pytest.approx(float(flat.std(ddof=1)), rel=1e-12)
        assert report.hdi_low < report.d_mean < report.hdi_high
        assert report.hdi_mass == 0.94
        assert 0.0 <= report.prob_below_ref <= 1.0
        assert set(report.rhat) == set(trace.param_names) | {"d"}
        assert report.max_rhat == max(report.rhat.values())
        assert report.ess_d > 50
        assert report.divergence_rate == trace.divergence_rate
        assert (report.n_chains, report.n_draw, report.n_tune) == (2, 150, 150)
        assert report.seed == 72
        assert len(report.d_hist_edges) == len(report.d_hist_counts) + 1
        assert sum(report.d_hist_counts) == flat.size
        assert report.waic_se > 0.0

    def test_json_round_trip_is_exact(self):
        trace, post = tiny_student_fit()
        report = build_report(trace, post, index_id="rt", rho=0.028, filter_size=252)
        again = FitReport.from_json(report.to_json())
        assert again == report

    def test_save_and_load(self, tmp_path):
        trace, post = tiny_student_fit()
        report = build_report(trace, post, index_id="disk", rho=0.02, filter_size=50,
                              n_dropped_plus=3)
        path = tmp_path / "report.json"
        report.save(path)
        assert FitReport.load(path) == report
        assert json.loads(path.read_text())["schema"] == "gainloss-fit-report/1"
        assert report.n_dropped_plus == 3

    def test_csv_row_matches_header(self):
        trace, post = tiny_student_fit()
        report = build_report(trace, post, index_id="csv", rho=0.02, filter_size=50)
        cells = report.csv_row().split(",")
        assert len(cells) == len(REPORT_CSV_HEADER.split(","))
        assert cells[0] == "csv"
        assert float(cells[2]) == pytest.approx(report.d_mean, rel=1e-9)
        cells = replace(report, index_id="S&P 500, daily").csv_row().split(",")
        assert len(cells) == len(REPORT_CSV_HEADER.split(","))
        assert cells[0] == "S&P 500; daily"

    def test_memory_stays_bounded_on_many_distinct_values(self):
        # 4 x 4000 draws of an IG posterior on 2 x 1000 distinct values: the
        # float64 matrix alone would take 256 MB
        rng = np.random.default_rng(76)
        xp, xm = np.log(np.arange(2.0, 1002.0)), np.log(np.arange(3.0, 1003.0))
        post = Posterior(ModelSpec.from_data(ModelKind.INV_GAMMA, xp, xm), xp, xm)
        assert post.counts.size * 16000 * 4 > 100 * 2**20
        z = post.initial_unconstrained() + rng.normal(0.0, 0.05, (4, 4000, post.dim))
        draws = np.array([[post.constrain(row) for row in chain] for chain in z])
        trace = Trace(
            draws=draws, param_names=post.param_names,
            accept_stat=np.full((4, 4000), 0.8), divergent=np.zeros((4, 4000), bool),
            tree_depth=np.ones((4, 4000), np.int16), step_size=np.ones(4),
            mass_diag=np.ones((4, post.dim)), n_grad=np.zeros((4, 2), np.int64),
            init_metric=("unit",) * 4,
            config=SamplerConfig(n_chains=4, n_draw=4000, n_tune=0, seed=0),
        )
        tracemalloc.start()
        try:
            report = build_report(trace, post, index_id="big", rho=0.1, filter_size=252)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(report.waic)
        assert peak < 8 * 2**20, f"build_report peaked at {peak / 2**20:.1f} MB"

    def test_from_json_rejects_garbage(self):
        with pytest.raises(MalformedReportError):
            FitReport.from_json("not json at all")
        with pytest.raises(MalformedReportError):
            FitReport.from_json("[1, 2, 3]")
        with pytest.raises(MalformedReportError):
            FitReport.from_json('{"schema": "gainloss-fit-report/1"}')
