"""Model densities, priors, coordinate maps, and analytic gradients."""

import dataclasses
import math
import threading

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats
from scipy.special import expit

from gainloss.errors import DomainError, EmptySideError, NonFiniteError
from gainloss.models import (
    FAMILIES,
    LoglikMatrix,
    ModelKind,
    ModelSpec,
    Posterior,
    SidePrior,
    _digamma,
    _lgamma,
    _loc_scale_prior,
    ig_moments,
    ig_shape_rate,
    invgamma_logpdf,
    student_logpdf,
)
from gainloss.pipeline import prepare_sample, synthetic_gbm_series

NU_RATE = 1.0 / 29.0
NU_SHIFT = 1.0
STUDENT = FAMILIES[ModelKind.STUDENT_T]
IG = FAMILIES[ModelKind.INV_GAMMA]


def student_spec(m_plus=1.0, s_plus=1.3, m_minus=1.4, s_minus=1.2):
    return ModelSpec(ModelKind.STUDENT_T, (SidePrior(m_plus, s_plus),
                                           SidePrior(m_minus, s_minus)))


def side_prior(m=1.0, s=1.3):
    """One side's prior, centered on (m, s)."""
    return SidePrior(m, s)


def log_prior(family, theta, prior):
    """Log prior of one side's parameters; -inf off the support.

    The prior is the side's ``value_grad`` on no data.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(np.isnan(theta)):
        raise NonFiniteError("parameter vector contains NaN")
    low, high = family.support
    if not np.all((np.asarray(low) < theta) & (theta < np.asarray(high))):
        return -math.inf
    stats = family.prepare(np.empty(0), np.empty(0))
    return float(family.value_grad(theta.tolist(), stats, prior)[0])


def log_jacobian(post, z):
    """Log |d theta / d z| of the posterior's constraining map at ``z``.

    The Jacobian is diagonal: its log determinant sums the log slopes.
    """
    dtheta = post._transform(np.asarray(z, dtype=np.float64).tolist())[1]
    return float(np.log(dtheta).sum())


def joint_log_prior(post, theta):
    """Sum of the two sides' family priors at a constrained vector."""
    k = post.dim // 2
    prior_p, prior_m = post.spec.priors
    return (log_prior(post.family, theta[:k], prior_p)
            + log_prior(post.family, theta[k:], prior_m))


def make_posteriors(seed=0, n_plus=30, n_minus=25):
    """One posterior of each kind over the same synthetic draw sizes."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(1.2, 0.8, size=n_plus)
    xm = rng.normal(1.5, 0.9, size=n_minus)
    pos = rng.lognormal(1.0, 0.4, size=n_plus)
    neg = rng.lognormal(1.1, 0.4, size=n_minus)
    st = Posterior(ModelSpec.from_data(ModelKind.STUDENT_T, xs, xm), xs, xm)
    ig = Posterior(ModelSpec.from_data(ModelKind.INV_GAMMA, pos, neg), pos, neg)
    return st, ig


def repeated_posteriors(seed=31):
    """Both families on heavily repeated data, like the logs of integer hitting times."""
    rng = np.random.default_rng(seed)
    xp = np.log(rng.integers(1, 60, 300).astype(np.float64))
    xm = np.log(rng.integers(1, 60, 300).astype(np.float64))
    pos, neg = xp[xp > 0.0], xm[xm > 0.0]
    st = Posterior(ModelSpec.from_data(ModelKind.STUDENT_T, xp, xm), xp, xm)
    ig = Posterior(ModelSpec.from_data(ModelKind.INV_GAMMA, pos, neg), pos, neg)
    return st, ig


class TestStudentLogpdf:
    def test_cauchy_at_center(self):
        assert student_logpdf(0.0, 0.0, 1.0, 1.0) == pytest.approx(
            math.log(1.0 / math.pi), abs=1e-12
        )

    def test_matches_scipy(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            mu, sigma, nu = rng.normal(), rng.uniform(0.3, 3.0), rng.uniform(0.5, 40.0)
            x = rng.normal(mu, 2 * sigma, size=7)
            want = stats.t.logpdf(x, df=nu, loc=mu, scale=sigma)
            assert np.allclose(student_logpdf(x, mu, sigma, nu), want, atol=1e-10)

    def test_large_nu_approaches_normal(self):
        x = np.linspace(-5.0, 5.0, 101)
        heavy = student_logpdf(x, 0.0, 1.0, 1e7)
        normal = stats.norm.logpdf(x)
        assert np.max(np.abs(heavy - normal)) < 1e-4

    def test_symmetry_about_location(self):
        h = np.array([0.1, 0.7, 2.3])
        left = student_logpdf(1.5 - h, 1.5, 0.8, 4.0)
        right = student_logpdf(1.5 + h, 1.5, 0.8, 4.0)
        assert np.allclose(left, right, atol=1e-12)

    def test_density_integrates_to_one(self):
        val, err = integrate.quad(
            lambda x: math.exp(student_logpdf(x, 2.0, 0.5, 4.0)), -np.inf, np.inf
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_scalar_in_scalar_out(self):
        assert isinstance(student_logpdf(0.3, 0.0, 1.0, 5.0), float)

    @pytest.mark.parametrize("sigma,nu", [(0.0, 5.0), (-1.0, 5.0), (1.0, 0.0), (1.0, -2.0)])
    def test_invalid_parameters(self, sigma, nu):
        with pytest.raises(DomainError):
            student_logpdf(0.0, 0.0, sigma, nu)


class TestInvGammaLogpdf:
    def test_hand_value_at_one(self):
        assert invgamma_logpdf(1.0, 1.0, 1.0) == pytest.approx(-1.0, abs=1e-14)

    def test_matches_scipy(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            alpha, beta = rng.uniform(0.5, 10.0), rng.uniform(0.5, 10.0)
            x = rng.uniform(0.05, 8.0, size=7)
            want = stats.invgamma.logpdf(x, a=alpha, scale=beta)
            assert np.allclose(invgamma_logpdf(x, alpha, beta), want, atol=1e-10)

    def test_density_integrates_to_one(self):
        val, err = integrate.quad(
            lambda x: math.exp(invgamma_logpdf(x, 4.0, 2.0)), 0.0, np.inf
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_mode_is_beta_over_alpha_plus_one(self):
        grid = np.linspace(1e-3, 10.0, 100_001)
        dens = invgamma_logpdf(grid, 3.0, 8.0)
        assert grid[np.argmax(dens)] == pytest.approx(8.0 / 4.0, abs=1e-3)

    def test_nonpositive_x(self):
        with pytest.raises(DomainError):
            invgamma_logpdf(0.0, 2.0, 2.0)
        with pytest.raises(DomainError):
            invgamma_logpdf(np.array([1.0, -0.5]), 2.0, 2.0)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            invgamma_logpdf(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            invgamma_logpdf(1.0, 1.0, -1.0)


class TestMomentMaps:
    def test_round_trip_from_moments(self):
        for m, s in [(3.4, 1.1), (0.5, 2.0), (10.0, 0.3)]:
            alpha, beta = ig_shape_rate(m, s)
            m2, s2 = ig_moments(alpha, beta)
            assert m2 == pytest.approx(m, rel=1e-12)
            assert s2 == pytest.approx(s, rel=1e-12)

    def test_round_trip_from_shape_rate(self):
        for alpha, beta in [(2.5, 1.0), (8.0, 12.0)]:
            m, s = ig_moments(alpha, beta)
            a2, b2 = ig_shape_rate(m, s)
            assert a2 == pytest.approx(alpha, rel=1e-12)
            assert b2 == pytest.approx(beta, rel=1e-12)

    def test_moments_match_scipy(self):
        alpha, beta = ig_shape_rate(3.4, 1.1)
        dist = stats.invgamma(a=alpha, scale=beta)
        assert dist.mean() == pytest.approx(3.4, rel=1e-10)
        assert dist.std() == pytest.approx(1.1, rel=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            ig_shape_rate(-1.0, 1.0)
        with pytest.raises(DomainError):
            ig_shape_rate(1.0, 0.0)
        with pytest.raises(DomainError):
            ig_moments(2.0, 1.0)


class TestLogPrior:
    def test_finite_inside_support(self):
        assert np.isfinite(log_prior(STUDENT, np.array([1.0, 5.0, 10.0]), side_prior()))

    def test_scale_immaterial_inside_interval(self):
        for family in FAMILIES.values():
            prior = side_prior()
            a, b = np.array(family.initial(prior)), np.array(family.initial(prior))
            a[family.scale], b[family.scale] = 5.0, 50.0
            assert log_prior(family, a, prior) == pytest.approx(
                log_prior(family, b, prior), abs=1e-12
            )

    @pytest.mark.parametrize("sigma", [0.5, 0.999, 100.5, 200.0])
    def test_scale_outside_interval(self, sigma):
        for family in FAMILIES.values():
            prior = side_prior()
            theta = np.array(family.initial(prior))
            theta[family.scale] = sigma
            assert log_prior(family, theta, prior) == -np.inf

    def test_shape_below_shift(self):
        assert log_prior(STUDENT, np.array([1.0, 5.0, 0.5]), side_prior()) == -np.inf

    def test_shape_prior_is_exponential(self):
        base = np.array([1.0, 5.0, 2.0])
        bumped = base.copy()
        bumped[2] = 2.0 + 14.5
        diff = (log_prior(STUDENT, base, side_prior())
                - log_prior(STUDENT, bumped, side_prior()))
        assert diff == pytest.approx(NU_RATE * 14.5, abs=1e-12)

    def test_location_prior_is_gaussian(self):
        prior = side_prior(m=1.0, s=2.0)
        for family in FAMILIES.values():
            base = np.array(family.initial(prior))
            base[family.loc] = 1.0
            moved = base.copy()
            moved[family.loc] = 1.0 + 3.0
            diff = log_prior(family, base, prior) - log_prior(family, moved, prior)
            assert diff == pytest.approx(3.0**2 / (2.0 * 2.0**2), abs=1e-12)

    def test_ig_mean_must_be_positive(self):
        prior = side_prior(m=3.0, s=1.5)
        assert log_prior(IG, np.array([-0.1, 5.0]), prior) == -np.inf
        assert log_prior(IG, np.array([0.0, 5.0]), prior) == -np.inf
        assert np.isfinite(log_prior(IG, np.array([0.1, 5.0]), prior))

    def test_nan_is_a_caller_bug(self):
        with pytest.raises(NonFiniteError):
            log_prior(STUDENT, np.array([np.nan, 5.0, 10.0]), side_prior())


class TestCoordinateMaps:
    def test_round_trip_from_unconstrained(self):
        st, ig = make_posteriors()
        rng = np.random.default_rng(22)
        for post in (st, ig):
            for _ in range(10):
                z = rng.uniform(-3.0, 3.0, size=post.dim)
                back = post.unconstrain(post.constrain(z))
                assert np.allclose(back, z, atol=1e-10)

    def test_round_trip_from_constrained(self):
        st, _ = make_posteriors()
        theta = np.array([0.7, 12.0, 4.5, 1.1, 33.0, 2.2])
        assert np.allclose(st.constrain(st.unconstrain(theta)), theta, rtol=1e-12)

    def test_interval_midpoint_maps_to_zero(self):
        st, _ = make_posteriors()
        theta = st.constrain(np.zeros(6))
        assert theta[1] == pytest.approx(50.5, abs=1e-12)
        assert theta[4] == pytest.approx(50.5, abs=1e-12)
        z = st.unconstrain(np.array([0.0, 50.5, 4.0, 0.0, 50.5, 4.0]))
        assert z[1] == pytest.approx(0.0, abs=1e-12)

    def test_constrained_points_always_satisfy_support(self):
        st, ig = make_posteriors()
        rng = np.random.default_rng(23)
        for post in (st, ig):
            family = post.family
            scale_at = [post.param_names.index(n) for n in family.side_names(family.scale)]
            for _ in range(20):
                theta = post.constrain(rng.uniform(-20.0, 20.0, size=post.dim))
                assert np.isfinite(joint_log_prior(post, theta))
                scales = theta[scale_at]
                assert np.all((scales > 1.0) & (scales < 100.0))

    def test_unconstrain_rejects_off_support(self):
        st, ig = make_posteriors()
        with pytest.raises(DomainError):
            st.unconstrain(np.array([0.7, 0.5, 4.5, 1.1, 33.0, 2.2]))
        with pytest.raises(DomainError):
            st.unconstrain(np.array([0.7, 12.0, 0.9, 1.1, 33.0, 2.2]))
        with pytest.raises(DomainError):
            ig.unconstrain(np.array([-2.0, 12.0, 1.1, 33.0]))

    def test_log_jacobian_matches_finite_differences(self):
        st, ig = make_posteriors()
        rng = np.random.default_rng(24)
        h = 1e-6
        for post in (st, ig):
            z = rng.uniform(-2.0, 2.0, size=post.dim)
            want = 0.0
            for k in range(post.dim):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                dk = (post.constrain(zp)[k] - post.constrain(zm)[k]) / (2 * h)
                want += math.log(abs(dk))
            assert log_jacobian(post, z) == pytest.approx(want, abs=1e-6)


class TestPosterior:
    def test_dimensions_and_names(self):
        st, ig = make_posteriors()
        assert st.dim == 6
        assert st.param_names == (
            "mu_plus", "sigma_plus", "nu_plus", "mu_minus", "sigma_minus", "nu_minus",
        )
        assert ig.dim == 4
        assert ig.param_names == ("m_plus", "s_plus", "m_minus", "s_minus")

    def test_value_decomposes_into_named_parts(self):
        rng = np.random.default_rng(25)
        for post in (*make_posteriors(), *repeated_posteriors()):
            z = rng.uniform(-1.5, 1.5, size=post.dim)
            theta = post.constrain(z)
            want = (
                float((post.counts * post.pointwise_loglik(theta)).sum())
                + joint_log_prior(post, theta)
                + log_jacobian(post, z)
            )
            assert post.value_and_grad(z)[0] == pytest.approx(want, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        st, ig = make_posteriors()
        rng = np.random.default_rng(26)
        h = 1e-5
        for post in (st, ig):
            for _ in range(10):
                z = rng.uniform(-2.0, 2.0, size=post.dim)
                _, grad = post.value_and_grad(z)
                for k in range(post.dim):
                    zp, zm = z.copy(), z.copy()
                    zp[k] += h
                    zm[k] -= h
                    fd = (post.value_and_grad(zp)[0] - post.value_and_grad(zm)[0]) / (2 * h)
                    denom = max(1.0, abs(grad[k]), abs(fd))
                    assert abs(grad[k] - fd) / denom < 1e-4

    def test_gradient_vanishes_at_interior_optimum(self):
        st, ig = make_posteriors()
        for post in (st, ig):
            res = optimize.minimize(
                lambda z: -post.value_and_grad(z)[0],
                post.initial_unconstrained(),
                jac=lambda z: -np.array(post.value_and_grad(z.tolist())[1]),
                method="BFGS",
                options={"gtol": 1e-8},
            )
            assert np.linalg.norm(post.value_and_grad(res.x)[1]) < 1e-4

    def test_doubling_the_data_doubles_the_likelihood(self):
        st, _ = make_posteriors()
        double = Posterior(st.spec, np.tile(st.x_plus, 2), np.tile(st.x_minus, 2))
        z = st.initial_unconstrained() + 0.1
        theta = st.constrain(z)
        lik_once = (
            st.value_and_grad(z)[0] - joint_log_prior(st, theta) - log_jacobian(st, z)
        )
        lik_twice = (
            double.value_and_grad(z)[0] - joint_log_prior(st, theta) - log_jacobian(double, z)
        )
        assert lik_twice == pytest.approx(2.0 * lik_once, rel=1e-10)

    def test_observation_order_is_immaterial(self):
        st, _ = make_posteriors()
        rng = np.random.default_rng(27)
        shuffled = Posterior(
            st.spec, rng.permutation(st.x_plus), rng.permutation(st.x_minus)
        )
        z = st.initial_unconstrained() + 0.2
        v1, g1 = st.value_and_grad(z)
        v2, g2 = shuffled.value_and_grad(z)
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert np.allclose(g1, g2, rtol=1e-9, atol=1e-9)

    def test_swapping_sides_mirrors_the_posterior(self):
        rng = np.random.default_rng(28)
        xp = rng.normal(1.2, 0.8, size=40)
        xm = rng.normal(1.6, 0.7, size=35)
        spec = ModelSpec.from_data(ModelKind.STUDENT_T, xp, xm)
        spec_sw = ModelSpec.from_data(ModelKind.STUDENT_T, xm, xp)
        post = Posterior(spec, xp, xm)
        swapped = Posterior(spec_sw, xm, xp)
        z = np.array([0.3, -0.4, 0.5, -0.2, 0.6, -0.1])
        z_sw = np.concatenate([z[3:], z[:3]])
        v1, g1 = post.value_and_grad(z)
        v2, g2 = swapped.value_and_grad(z_sw)
        assert v1 == pytest.approx(v2, rel=1e-12)
        assert np.allclose(g1, np.concatenate([g2[3:], g2[:3]]), rtol=1e-10)

    def test_overflowing_point_is_rejected_not_fatal(self):
        st, ig = make_posteriors()
        z_st = np.zeros(6)
        z_st[0] = 1e308  # location prior term overflows
        for post, z in ((st, z_st), (ig, np.full(4, 800.0))):
            value, grad = post.value_and_grad(z.tolist())
            assert value == -np.inf
            assert np.array_equal(grad, np.zeros(post.dim))

    def test_nan_input_raises(self):
        st, _ = make_posteriors()
        z = np.zeros(6)
        z[3] = np.nan
        with pytest.raises(NonFiniteError):
            st.value_and_grad(z)

    def test_initial_point_has_positive_density(self):
        st, ig = make_posteriors()
        for post in (st, ig):
            value, grad = post.value_and_grad(post.initial_unconstrained())
            assert np.isfinite(value)
            assert np.all(np.isfinite(grad))

    def test_pointwise_loglik_layout(self):
        for post in repeated_posteriors():
            theta = post.constrain(post.initial_unconstrained())
            ll = post.pointwise_loglik(theta)
            assert ll.shape == (post.counts.size,)
            assert post.counts.sum() == post.n_obs
            assert post.counts.size < post.n_obs
            assert post.n_obs == post.x_plus.size + post.x_minus.size

    def test_pointwise_loglik_values(self):
        st, _ = make_posteriors()
        theta = np.array([1.0, 2.0, 5.0, 1.5, 2.5, 8.0])
        ll = st.pointwise_loglik(theta)
        assert ll[0] == pytest.approx(student_logpdf(st.x_plus.min(), 1.0, 2.0, 5.0))
        assert ll[-1] == pytest.approx(student_logpdf(st.x_minus.max(), 1.5, 2.5, 8.0))
        for post in repeated_posteriors():
            theta = post.constrain(post.initial_unconstrained())
            k = post.dim // 2
            want = np.concatenate([post.family.logpdf(np.unique(post.x_plus), theta[:k]),
                                   post.family.logpdf(np.unique(post.x_minus), theta[k:])])
            assert np.allclose(post.pointwise_loglik(theta), want, rtol=1e-12, atol=0.0)
            values, counts = np.unique(post.x_plus, return_counts=True)
            assert np.array_equal(post.counts[:values.size], counts)

    def test_loglik_matrix_rounds_each_row_as_pointwise_loglik(self):
        rng = np.random.default_rng(30)
        for post in (*make_posteriors(), *repeated_posteriors()):
            z = post.initial_unconstrained() + rng.normal(0.0, 0.5, (40, post.dim))
            draws = np.array([post.constrain(row) for row in z])
            k = post.dim // 2
            # the reference: one draw at a time through the scalar densities,
            # one row per distinct value
            want = np.array([
                np.concatenate([post.family.logpdf(np.unique(x), theta[sl])
                                for x, sl in ((post.x_plus, slice(0, k)),
                                              (post.x_minus, slice(k, None)))])
                for theta in draws
            ]).T
            ll = LoglikMatrix(post, draws)
            assert ll.shape == want.shape
            n = want.shape[0]
            for a, b in ((0, n), (0, 1), (3, n - 2), (n - 1, n), (5, 5)):
                block = ll.rows(a, b)
                assert block.dtype == np.float64 and block.flags.c_contiguous
                assert np.array_equal(block, want[a:b])
            for theta, column in zip(draws, want.T):
                assert np.array_equal(post.pointwise_loglik(theta), column)

    def test_ig_requires_positive_observations(self):
        rng = np.random.default_rng(29)
        good = rng.lognormal(1.0, 0.3, size=20)
        bad = good.copy()
        bad[3] = 0.0
        spec = ModelSpec.from_data(ModelKind.INV_GAMMA, good, good)
        with pytest.raises(DomainError):
            Posterior(spec, bad, good)

    def test_empty_side_is_rejected(self):
        rng = np.random.default_rng(30)
        x = rng.normal(1.0, 0.5, size=20)
        spec = student_spec()
        with pytest.raises(EmptySideError):
            Posterior(spec, np.array([]), x)


# ---------------------------------------------------------------------------
# the vectorized transform that the scalar one replaced, kept as an oracle


def oracle_forward(post, z):
    """theta(z), d theta / dz, log |d theta / dz| and its gradient, on arrays."""
    low, high = post.family.support
    low, high = np.array(low + low), np.array(high + high)
    bounded_low, bounded_high = np.isfinite(low), np.isfinite(high)
    iv = np.flatnonzero(bounded_low & bounded_high)
    lw = np.flatnonzero(bounded_low & ~bounded_high)
    theta, dtheta, dlog_jac = z.copy(), np.ones(post.dim), np.zeros(post.dim)
    dlog_jac[lw] = 1.0
    z_iv = z[iv]
    sig = expit(z_iv)
    width_sig = (high[iv] - low[iv]) * sig
    theta[iv] = low[iv] + width_sig
    dtheta[iv] = width_sig * expit(-z_iv)
    dlog_jac[iv] = 1.0 - 2.0 * sig
    gap = np.exp(np.minimum(z[lw], 700.0))
    theta[lw] = low[lw] + gap
    dtheta[lw] = gap
    return theta, dtheta, float(np.log(dtheta).sum()), dlog_jac


def oracle_value_and_grad(post, z):
    """Log posterior and gradient through :func:`oracle_forward`."""
    k = post.dim // 2
    sides = []
    for x, sl, prior in zip((post.x_plus, post.x_minus), (slice(0, k), slice(k, None)),
                            post.spec.priors):
        values, counts = np.unique(x, return_counts=True)
        sides.append((sl, post.family.prepare(values, counts.astype(np.float64)), prior))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta, dtheta, value, dlog_jac = oracle_forward(post, z)
        params, grad_theta = theta.tolist(), []
        for sl, stats_, prior in sides:
            side_value, side_grad = post.family.value_grad(params[sl], stats_, prior)
            value += side_value
            grad_theta += side_grad
        grad = np.array(grad_theta) * dtheta + dlog_jac
    if not (math.isfinite(value) and np.isfinite(grad).all()):
        return -math.inf, np.zeros(post.dim)
    return float(value), grad


def hitting_posteriors():
    """Both families on the hitting times of one GBM series at two barrier levels."""
    series = synthetic_gbm_series(1500, 0.012, lam=3e-4, seed=8)
    base = prepare_sample(series, 100)[1]
    posts = []
    for scale in (0.5, 2.0):
        logs = prepare_sample(series, 100, scale * base)[3]
        for kind in ModelKind:
            family = FAMILIES[kind]
            xp = logs.x_plus[logs.x_plus > family.data_low]
            xm = logs.x_minus[logs.x_minus > family.data_low]
            posts.append(Posterior(ModelSpec.from_data(kind, xp, xm), xp, xm))
    return posts


def guard_points(post):
    """Unconstrained points where the transform or a family overflows or rounds
    to a bound: every coordinate at +-800 and +-40, and a 1e308 location."""
    points = [np.full(post.dim, v) for v in (800.0, -800.0, 40.0, -40.0)]
    for k in range(post.dim):
        for v in (800.0, -800.0, 40.0, -40.0, 710.0, -710.0):
            z = np.full(post.dim, 0.3)
            z[k] = v
            points.append(z)
    z = np.zeros(post.dim)
    z[post.family.loc] = 1e308
    points.append(z)
    return points


class TestScalarTransformMatchesVectorOracle:
    """The scalar transform rounds exactly as the vectorized one did."""

    def assert_identical(self, post, z):
        theta, _, log_jac, _ = oracle_forward(post, z)
        value, grad = post.value_and_grad(z.tolist())
        want_value, want_grad = oracle_value_and_grad(post, z)
        assert value == want_value
        assert type(value) is float and all(type(g) is float for g in grad)
        assert grad == want_grad.tolist()
        assert post.constrain(z).tolist() == theta.tolist()
        assert log_jacobian(post, z) == log_jac

    def test_random_points(self):
        rng = np.random.default_rng(40)
        for post in hitting_posteriors():
            for _ in range(120):
                self.assert_identical(post, rng.normal(0.0, 2.0, post.dim))
            for _ in range(80):
                self.assert_identical(post, rng.uniform(-40.0, 40.0, post.dim))

    def test_guard_points(self):
        for post in hitting_posteriors():
            with np.errstate(divide="ignore"):  # log Jacobian of a point on a bound
                for z in guard_points(post):
                    self.assert_identical(post, z)

    def test_guard_points_hit_the_guards(self):
        st, ig = hitting_posteriors()[:2]
        assert st.value_and_grad(guard_points(st)[-1].tolist())[0] == -math.inf  # 1e308 location
        z = np.full(ig.dim, 0.3)
        z[0] = -800.0  # exp underflows: the IG location lands on its bound 0
        assert ig.constrain(z)[0] == 0.0
        assert ig.value_and_grad(z.tolist())[0] == -math.inf
        z = np.full(st.dim, 0.3)
        z[1] = 40.0  # the logit rounds the scale onto its upper bound
        assert st.constrain(z)[1] == 100.0

    def test_unconstrain_matches_vector_inverse(self):
        rng = np.random.default_rng(41)
        for post in hitting_posteriors():
            low, high = post.family.support
            low, high = np.array(low + low), np.array(high + high)
            for _ in range(50):
                theta = post.constrain(rng.normal(0.0, 2.0, post.dim))
                theta = np.where((low < theta) & (theta < high), theta,
                                 post.constrain(np.zeros(post.dim)))
                iv = np.flatnonzero(np.isfinite(low) & np.isfinite(high))
                lw = np.flatnonzero(np.isfinite(low) & ~np.isfinite(high))
                want = theta.copy()
                frac = (theta[iv] - low[iv]) / (high[iv] - low[iv])
                want[iv] = np.log(frac) - np.log1p(-frac)
                want[lw] = np.log(theta[lw] - low[lw])
                assert post.unconstrain(theta).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# the math-module special functions against scipy's


def special_points():
    """Log-gamma and digamma arguments over [0.5, 1e6]: uniform below 12,
    log-uniform across the range, around the digamma root 1.4616 and the
    log-gamma roots 1 and 2, and on the recurrence's switch points."""
    rng = np.random.default_rng(50)
    return np.concatenate([
        rng.uniform(0.5, 12.0, 4000),
        np.exp(rng.uniform(math.log(0.5), math.log(1e6), 4000)),
        1.4616321449683622 + np.linspace(-1e-3, 1e-3, 201),
        1.0 + np.linspace(-1e-3, 1e-3, 201),
        2.0 + np.linspace(-1e-3, 1e-3, 201),
        [0.5, 1.0, 2.0, 8.999999999999998, 9.0, 9.5, 10.0, 10.000000000000002, 1e6],
    ]).tolist()


def returns_promptly(f, x, seconds=5.0):
    """f(x) in a worker thread; fails if it has not returned within the time."""
    out = []
    worker = threading.Thread(target=lambda: out.append(f(x)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert out, f"{f.__name__}({x}) did not return"
    return out[0]


class TestSpecialFunctions:
    def test_digamma_matches_scipy(self):
        xs = special_points()
        got = np.array([_digamma(x) for x in xs])
        assert np.max(np.abs(got - special.digamma(xs))) <= 4e-15

    def test_digamma_root(self):
        assert abs(_digamma(1.4616321449683622)) < 4e-15

    def test_lgamma_matches_scipy(self):
        # below x = 3 math.lgamma is off by up to 8 ulps of 1, which near its
        # roots at 1 and 2 is a large relative error, so the bound is relative
        # to the larger of 1 and the value
        xs = special_points()
        got = np.array([_lgamma(x) for x in xs])
        want = special.gammaln(xs)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 4e-15

    @pytest.mark.parametrize("x", [0.0, -1.0, -math.inf, math.nan])
    def test_off_domain_inputs_return_at_once(self, x):
        assert math.isnan(returns_promptly(_digamma, x))
        value = returns_promptly(_lgamma, x)
        assert math.isnan(value) if math.isnan(x) else value == math.inf

    def test_infinite_and_overflowing_arguments(self):
        assert _digamma(math.inf) == math.inf
        assert _lgamma(math.inf) == math.inf
        assert _lgamma(1e306) == math.inf  # math.lgamma raises OverflowError here
        assert _lgamma(1e305) == pytest.approx(special.gammaln(1e305), rel=1e-15)

    def test_scalar_in_scalar_out(self):
        assert type(_digamma(3.0)) is float and type(_lgamma(3.0)) is float

    def test_overflowing_log_gamma_rejects_the_point(self):
        _, ig = make_posteriors()
        z = np.array([353.0, -5.0, 0.3, 0.3])  # m = 1.8e153, s = 1.7: alpha = 1.2e306
        alpha = ig_shape_rate(*ig.constrain(z)[:2].tolist())[0]
        assert 1e306 < alpha < math.inf
        value, grad = ig.value_and_grad(z)
        assert value == -math.inf
        assert np.array_equal(grad, np.zeros(ig.dim))


# ---------------------------------------------------------------------------
# the scipy-based per-side likelihoods that the math-module ones replaced,
# kept as an oracle


def scipy_student_value_grad(theta, stats, p):
    x, c, n = stats
    mu, sigma, nu = theta
    t = (x - mu) / sigma
    t2 = t * t
    lu = np.log1p(t2 / nu)
    cw = c * (nu + 1.0) / (nu + t2)
    sum_lu, sum_wt, sum_wt2 = (c * lu).sum(), (cw * t).sum(), (cw * t2).sum()
    value = n * (
        special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0)
        - 0.5 * math.log(math.pi * nu) - math.log(sigma)
    ) - 0.5 * (nu + 1.0) * sum_lu
    d_nu = (
        0.5 * n * (special.digamma((nu + 1.0) / 2.0) - special.digamma(nu / 2.0))
        - 0.5 * n / nu - 0.5 * sum_lu + sum_wt2 / (2.0 * nu)
    )
    prior, d_loc = _loc_scale_prior(mu, p)
    value += prior + math.log(NU_RATE) - NU_RATE * (nu - NU_SHIFT)
    return value, [sum_wt / sigma + d_loc, (sum_wt2 - n) / sigma, d_nu - NU_RATE]


def scipy_ig_value_grad(theta, stats, p):
    n, sum_ln, sum_inv = stats
    m, s = theta
    if m <= 0.0:
        return -math.inf, [0.0, 0.0]
    alpha = 2.0 + (m * m) / (s * s)
    beta = m * (alpha - 1.0)
    value = n * (alpha * math.log(beta) - float(special.gammaln(alpha))) \
        - (alpha + 1.0) * sum_ln - beta * sum_inv
    d_alpha = n * (math.log(beta) - float(special.digamma(alpha))) - sum_ln
    d_beta = n * alpha / beta - sum_inv
    da_dm = 2.0 * m / (s * s)
    da_ds = -2.0 * m * m / (s * s * s)
    db_dm = 1.0 + 3.0 * m * m / (s * s)
    db_ds = -2.0 * m * m * m / (s * s * s)
    prior, d_loc = _loc_scale_prior(m, p)
    return value + prior, [d_alpha * da_dm + d_beta * db_dm + d_loc,
                           d_alpha * da_ds + d_beta * db_ds]


SCIPY_VALUE_GRAD = {ModelKind.STUDENT_T: scipy_student_value_grad,
                    ModelKind.INV_GAMMA: scipy_ig_value_grad}


@pytest.fixture(scope="module")
def posterior_pairs():
    """(posterior, scipy-based twin) per family on a 3.3k-day and a 25k-day
    GBM series: filter 252, barrier at the filtered std."""
    pairs = []
    for days in (3300, 25_000):
        series = synthetic_gbm_series(days, 0.012, lam=3e-4, seed=days)
        logs = prepare_sample(series, 252)[3]
        for kind, family in FAMILIES.items():
            xp = logs.x_plus[logs.x_plus > family.data_low]
            xm = logs.x_minus[logs.x_minus > family.data_low]
            spec = ModelSpec.from_data(kind, xp, xm)
            post = Posterior(spec, xp, xm)
            oracle = dataclasses.replace(family, value_grad=SCIPY_VALUE_GRAD[kind])
            FAMILIES[kind] = oracle
            try:
                twin = Posterior(spec, xp, xm)
            finally:
                FAMILIES[kind] = family
            pairs.append((days, post, twin))
    return pairs


class TestPosteriorMatchesScipyOracle:
    """Within rounding of the posterior built on scipy's special functions."""

    def test_value_and_gradient_at_random_points(self, posterior_pairs):
        rng = np.random.default_rng(51)
        for days, post, twin in posterior_pairs:
            z0 = post.initial_unconstrained()
            for _ in range(200):
                z = z0 + rng.normal(0.0, 1.0, post.dim)
                value, grad = post.value_and_grad(z)
                want_value, want_grad = twin.value_and_grad(z)
                assert math.isfinite(want_value), (days, post.spec.kind, z)
                assert abs(value - want_value) <= 1e-12 * abs(want_value)
                assert np.max(np.abs(np.subtract(grad, want_grad))) \
                    <= 1e-9 * np.max(np.abs(want_grad))

    def test_the_twin_reads_scipy(self, posterior_pairs):
        for _, post, twin in posterior_pairs:
            assert twin._value_grad in SCIPY_VALUE_GRAD.values()
            assert post._value_grad is post.family.value_grad
