"""First-passage simulation oracle and its closed-form counterparts."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from gainloss.errors import (
    DomainError,
    ExcessCensoringError,
    NonPositiveRhoError,
    TooFewSamplesError,
)
from gainloss.gbm import (
    _PATH_CHUNK,
    _STEP_BLOCK,
    FHTSample,
    _chunk_rng,
    _crossing_matrix,
    fht_cdf,
    fht_density,
    fht_mean,
    ks_statistic,
    ks_validate,
    simulate_fht,
    simulate_fht_two_sided,
)


class TestDensity:
    def test_integrates_to_one_with_drift(self):
        val, _ = integrate.quad(
            lambda t: fht_density(t, 0.05, 0.3, 0.3), 0.0, np.inf, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_integrates_to_one_unit_case(self):
        val, _ = integrate.quad(
            lambda t: fht_density(t, 1.0, 1.0, 1.0), 0.0, np.inf, limit=200
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_matches_inverse_gaussian(self):
        # with lam > 0 the passage time is Wald(mean rho/lam, shape rho^2/sig^2)
        lam, sig, rho = 0.4, 0.7, 1.3
        t = np.linspace(0.05, 30.0, 200)
        mu, shape = rho / lam, rho**2 / sig**2
        want = stats.invgauss.logpdf(t, mu / shape, scale=shape)
        got = np.log(fht_density(t, lam, sig, rho))
        assert np.allclose(got, want, atol=1e-10)

    def test_mode_of_driftless_unit_case(self):
        # for lam=0, sigma=rho=1 the density peaks at t = 1/3
        t = np.linspace(1e-4, 2.0, 200_001)
        dens = fht_density(t, 0.0, 1.0, 1.0)
        assert t[np.argmax(dens)] == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_sign_flip_symmetry(self):
        t = np.array([0.2, 1.0, 4.0])
        a = fht_density(t, 0.05, 0.3, 0.3)
        b = fht_density(t, -0.05, 0.3, -0.3)
        assert np.array_equal(a, b)

    def test_nonpositive_time_is_an_error(self):
        with pytest.raises(DomainError):
            fht_density(0.0, 0.05, 0.3, 0.3)
        with pytest.raises(DomainError):
            fht_density(np.array([1.0, -2.0]), 0.05, 0.3, 0.3)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            fht_density(1.0, 0.05, 0.0, 0.3)
        with pytest.raises(NonPositiveRhoError):
            fht_density(1.0, 0.05, 0.3, 0.0)


class TestCdfAndMean:
    def test_cdf_is_monotone_and_normalized(self):
        t = np.linspace(0.01, 400.0, 300)
        c = fht_cdf(t, 0.05, 0.3, 0.3)
        assert np.all(np.diff(c) >= -1e-12)
        assert c[0] < 0.01
        assert c[-1] == pytest.approx(1.0, abs=2e-4)

    def test_cdf_matches_inverse_gaussian(self):
        lam, sig, rho = 0.4, 0.7, 1.3
        t = np.array([0.5, 2.0, 5.0, 12.0])
        mu, shape = rho / lam, rho**2 / sig**2
        want = stats.invgauss.cdf(t, mu / shape, scale=shape)
        assert np.allclose(fht_cdf(t, lam, sig, rho), want, atol=5e-5)

    def test_scalar_matches_vector(self):
        # quadrature nodes depend on t.max(), so agreement is numerical
        one = fht_cdf(3.0, 0.05, 0.3, 0.3)
        vec = fht_cdf(np.array([3.0, 5.0]), 0.05, 0.3, 0.3)
        assert isinstance(one, float)
        assert one == pytest.approx(vec[0], abs=1e-8)

    def test_mean_is_rho_over_lambda(self):
        assert fht_mean(0.05, 0.3) == pytest.approx(6.0, rel=1e-12)

    def test_mean_requires_positive_drift(self):
        with pytest.raises(DomainError):
            fht_mean(0.0, 0.3)
        with pytest.raises(DomainError):
            fht_mean(-0.1, 0.3)

    def test_mean_requires_positive_barrier(self):
        with pytest.raises(NonPositiveRhoError):
            fht_mean(0.05, -0.3)


class TestSimulateFht:
    def test_sample_bookkeeping(self):
        s = simulate_fht(0.05, 0.3, 0.3, dt=0.05, n_paths=500, horizon=40.0, seed=0)
        assert s.taus.size + s.n_censored == s.n_paths == 500
        assert s.censoring_rate == s.n_censored / 500
        assert np.all(s.taus > 0.0)
        assert np.all(s.taus <= 40.0 + 1e-12)

    def test_same_seed_is_bit_identical(self):
        a = simulate_fht(0.05, 0.3, 0.3, dt=0.05, n_paths=400, horizon=30.0, seed=7)
        b = simulate_fht(0.05, 0.3, 0.3, dt=0.05, n_paths=400, horizon=30.0, seed=7)
        assert np.array_equal(a.taus, b.taus)
        assert a.n_censored == b.n_censored

    def test_different_seeds_differ(self):
        a = simulate_fht(0.05, 0.3, 0.3, dt=0.05, n_paths=400, horizon=30.0, seed=7)
        b = simulate_fht(0.05, 0.3, 0.3, dt=0.05, n_paths=400, horizon=30.0, seed=8)
        assert not np.array_equal(a.taus, b.taus)

    def test_taus_sit_on_the_time_grid(self):
        dt = 0.25
        s = simulate_fht(0.1, 0.4, 0.5, dt=dt, n_paths=300, horizon=60.0, seed=2)
        steps = s.taus / dt
        assert np.allclose(steps, np.round(steps), atol=1e-9)

    def test_vanishing_noise_recovers_the_deterministic_crossing(self):
        # drift 0.05 reaches the 0.3 barrier at t = 6 when sigma ~ 0
        s = simulate_fht(0.05, 1e-5, 0.3, dt=0.01, n_paths=50, horizon=20.0, seed=3)
        assert s.n_censored == 0
        assert np.allclose(s.taus, 6.0, atol=0.05)

    def test_sample_mean_matches_wald_mean(self):
        s = simulate_fht(0.05, 0.3, 0.3, dt=0.02, n_paths=4000, horizon=600.0, seed=1)
        assert s.censoring_rate < 0.001
        se = s.taus.std(ddof=1) / np.sqrt(s.taus.size)
        assert abs(s.taus.mean() - fht_mean(0.05, 0.3)) < 3.0 * se

    @pytest.mark.parametrize(
        "kwargs,err",
        [
            (dict(lam=0.05, sigma=0.0, rho=0.3, dt=0.1, n_paths=10), DomainError),
            (dict(lam=0.05, sigma=0.3, rho=0.0, dt=0.1, n_paths=10), NonPositiveRhoError),
            (dict(lam=0.05, sigma=0.3, rho=-0.2, dt=0.1, n_paths=10), NonPositiveRhoError),
            (dict(lam=0.05, sigma=0.3, rho=0.3, dt=0.0, n_paths=10), DomainError),
            (dict(lam=0.05, sigma=0.3, rho=0.3, dt=0.1, n_paths=10, horizon=0.05), DomainError),
            (dict(lam=0.05, sigma=0.3, rho=0.3, dt=0.1, n_paths=0), DomainError),
            (dict(lam=0.05, sigma=0.3, rho=0.3, dt=0.1, n_paths=10, seed=-1), DomainError),
        ],
    )
    def test_invalid_parameters(self, kwargs, err):
        with pytest.raises(err):
            simulate_fht(**kwargs)


class TestTwoSided:
    def test_bookkeeping_and_balance(self):
        up, down = simulate_fht_two_sided(
            sigma=0.3, rho=0.3, dt=0.05, n_paths=3000, horizon=120.0, seed=5
        )
        for side in (up, down):
            assert side.taus.size + side.n_censored == side.n_paths == 3000
        # driftless crossings are symmetric in distribution
        ks, p = stats.ks_2samp(up.taus, down.taus)
        assert p > 0.01

    def test_deterministic_under_seed(self):
        a = simulate_fht_two_sided(sigma=0.3, rho=0.3, dt=0.1, n_paths=300, horizon=60.0, seed=9)
        b = simulate_fht_two_sided(sigma=0.3, rho=0.3, dt=0.1, n_paths=300, horizon=60.0, seed=9)
        assert np.array_equal(a[0].taus, b[0].taus)
        assert np.array_equal(a[1].taus, b[1].taus)


def oracle_one_sided(lam, sigma, rho, dt, n_paths, horizon, seed):
    """The one-sided Euler loop as it stood before the simulators shared one."""
    n_steps = int(round(horizon / dt))
    taus = np.full(n_paths, np.nan)
    scale = sigma * math.sqrt(dt)
    drift = lam * dt
    sig2dt = sigma * sigma * dt
    for chunk_idx, start in enumerate(range(0, n_paths, _PATH_CHUNK)):
        stop = min(start + _PATH_CHUNK, n_paths)
        size = stop - start
        rng = _chunk_rng(seed, chunk_idx)
        x = np.zeros(size)
        alive = np.arange(size)
        k = 0
        while alive.size and k < n_steps:
            b = min(_STEP_BLOCK, n_steps - k)
            inc = rng.standard_normal((alive.size, b)) * scale + drift
            np.cumsum(inc, axis=1, out=inc)
            inc += x[alive, None]
            uni = rng.random((alive.size, b))
            crossed = _crossing_matrix(x[alive], inc, rho, sig2dt, uni)
            hit = crossed.any(axis=1)
            first = crossed.argmax(axis=1)
            taus[start + alive[hit]] = (k + first[hit] + 1) * dt
            survive = ~hit
            x[alive[survive]] = inc[survive, -1]
            alive = alive[survive]
            k += b
    return taus[~np.isnan(taus)]


def oracle_two_sided(sigma, rho, dt, n_paths, horizon, seed, lam):
    """The two-sided Euler loop as it stood before the simulators shared one."""
    n_steps = int(round(horizon / dt))
    tau_up = np.full(n_paths, np.nan)
    tau_dn = np.full(n_paths, np.nan)
    scale = sigma * math.sqrt(dt)
    drift = lam * dt
    sig2dt = sigma * sigma * dt
    for chunk_idx, start in enumerate(range(0, n_paths, _PATH_CHUNK)):
        stop = min(start + _PATH_CHUNK, n_paths)
        size = stop - start
        rng = _chunk_rng(seed, chunk_idx)
        x = np.zeros(size)
        alive = np.arange(size)
        k = 0
        while alive.size and k < n_steps:
            b = min(_STEP_BLOCK, n_steps - k)
            inc = rng.standard_normal((alive.size, b)) * scale + drift
            np.cumsum(inc, axis=1, out=inc)
            inc += x[alive, None]
            up = _crossing_matrix(x[alive], inc, rho, sig2dt, rng.random((alive.size, b)))
            dn = _crossing_matrix(x[alive], inc, -rho, sig2dt, rng.random((alive.size, b)))
            hit_up = up.any(axis=1)
            hit_dn = dn.any(axis=1)
            rows = start + alive
            need_up = hit_up & np.isnan(tau_up[rows])
            need_dn = hit_dn & np.isnan(tau_dn[rows])
            tau_up[rows[need_up]] = (k + up.argmax(axis=1)[need_up] + 1) * dt
            tau_dn[rows[need_dn]] = (k + dn.argmax(axis=1)[need_dn] + 1) * dt
            done = ~np.isnan(tau_up[rows]) & ~np.isnan(tau_dn[rows])
            survive = ~done
            x[alive[survive]] = inc[survive, -1]
            alive = alive[survive]
            k += b
    return tau_up[~np.isnan(tau_up)], tau_dn[~np.isnan(tau_dn)]


ORACLE_CASES = [
    # censoring, several step blocks, and a second chunk stream
    dict(lam=0.05, sigma=0.3, rho=0.3, dt=0.05, n_paths=500, horizon=40.0, seed=0),
    dict(lam=0.0, sigma=0.4, rho=0.25, dt=0.02, n_paths=300, horizon=9.0, seed=12),
    dict(lam=0.1, sigma=0.3, rho=0.2, dt=0.1, n_paths=_PATH_CHUNK + 50, horizon=3.0,
         seed=4),
]


class TestSharedLoopMatchesTheOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_one_sided_taus_are_bit_identical(self, case):
        s = simulate_fht(**case)
        want = oracle_one_sided(**case)
        assert np.array_equal(s.taus, want)
        assert s.n_censored == case["n_paths"] - want.size

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_two_sided_taus_are_bit_identical(self, case):
        up, down = simulate_fht_two_sided(**case)
        want_up, want_down = oracle_two_sided(**case)
        assert np.array_equal(up.taus, want_up)
        assert np.array_equal(down.taus, want_down)
        assert up.n_censored == case["n_paths"] - want_up.size
        assert down.n_censored == case["n_paths"] - want_down.size
        assert (up.rho, down.rho) == (case["rho"], case["rho"])

    def test_the_big_case_uses_a_second_chunk(self):
        assert ORACLE_CASES[-1]["n_paths"] > _PATH_CHUNK


class TestKolmogorovSmirnov:
    def test_statistic_matches_scipy_on_random_samples(self):
        rng = np.random.default_rng(40)
        x = rng.exponential(2.0, size=500)
        got = ks_statistic(x, stats.expon(scale=2.0).cdf(np.sort(x)))
        want = stats.kstest(x, stats.expon(scale=2.0).cdf).statistic
        assert got == pytest.approx(want, abs=1e-12)

    def test_self_consistency_below_critical_value(self):
        # inverse-CDF draws from the density itself must pass at the 5% level
        lam, sig, rho = 0.05, 0.3, 0.3
        grid = np.geomspace(1e-4, 400.0, 20_001)
        cdf = fht_cdf(grid, lam, sig, rho)
        rng = np.random.default_rng(41)
        n = 5000
        sample = np.interp(rng.uniform(cdf[0], cdf[-1], size=n), cdf, grid)
        ks = ks_statistic(sample, fht_cdf(np.sort(sample), lam, sig, rho))
        assert ks < 1.36 / np.sqrt(n)

    def test_degenerate_sample_scores_near_one(self):
        # a point mass deep in the right tail leaves an ECDF gap of ~1
        sample = np.full(2000, 100.0)
        ks = ks_statistic(sample, fht_cdf(np.sort(sample), 0.05, 0.3, 0.3))
        assert ks > 0.99

    def test_validate_passes_on_faithful_sample(self):
        s = simulate_fht(0.05, 0.3, 0.3, dt=0.02, n_paths=3000, horizon=600.0, seed=6)
        assert ks_validate(s) < 0.05

    def test_validate_rejects_small_samples(self):
        s = simulate_fht(0.05, 0.3, 0.3, dt=0.05, n_paths=500, horizon=200.0, seed=6)
        with pytest.raises(TooFewSamplesError):
            ks_validate(s)

    def test_validate_rejects_heavy_censoring(self):
        s = simulate_fht(0.05, 0.3, 0.3, dt=0.02, n_paths=2000, horizon=600.0, seed=6)
        heavy = FHTSample(
            taus=s.taus,
            n_paths=s.taus.size + 200,
            n_censored=200,
            lam=s.lam, sigma=s.sigma, rho=s.rho, dt=s.dt,
            horizon=s.horizon, seed=s.seed,
        )
        with pytest.raises(ExcessCensoringError):
            ks_validate(heavy)

    def test_refining_dt_improves_the_fit(self):
        # remaining discretization error shrinks as the grid refines
        ks_coarse, ks_fine = [], []
        for seed in (1, 2, 3, 4):
            coarse = simulate_fht(0.3, 0.5, 0.4, dt=0.5, n_paths=5000, horizon=80.0, seed=seed)
            fine = simulate_fht(0.3, 0.5, 0.4, dt=0.05, n_paths=5000, horizon=80.0, seed=seed)
            ks_coarse.append(ks_validate(coarse, max_censoring=0.02))
            ks_fine.append(ks_validate(fine, max_censoring=0.02))
        assert np.mean(ks_fine) < np.mean(ks_coarse)
