"""Leapfrog integrator, tree sampler, warmup adaptation, and chain driver."""

import dataclasses
import math
import os
import pickle
import select
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import CorrelatedGaussianTarget, GaussianTarget, StallingTarget, source_env
from gainloss import errors, laplace, nuts, workers
from gainloss.diagnostics import ess, gelman_rubin
from gainloss.errors import AdaptationFailedError, DomainError
from gainloss.laplace import whitening_map
from gainloss.models import FAMILIES, ModelKind, ModelSpec, Posterior
from gainloss.nuts import SamplerConfig, nuts_draw, run_chain, run_chains
from gainloss.pipeline import prepare_sample, synthetic_gbm_series
from nuts_oracle import kinetic, leapfrog, turned

UNIT_1D = GaussianTarget([1.0])


def unit_map(target):
    """The identity map around the origin, in whose coordinates the compiled
    leaf is a leapfrog step on ``target`` itself."""
    return whitening_map(target, search=False)


class TestLeapfrog:
    """The compiled leaf on the identity map."""

    def test_harmonic_oscillator_hand_expansion(self):
        # from rest at q0: q1 = q0 (1 - eps^2/2), p1 = -eps q0 (1 - eps^2/4)
        eps = 0.1
        z0, p0 = [1.0], [0.0]
        grad0 = UNIT_1D.value_and_grad(z0)[1]
        z1, p1, v1, g1, k1 = unit_map(UNIT_1D).leaf(z0, p0, grad0, eps)
        assert z1[0] == 1.0 - eps**2 / 2.0
        assert p1[0] == -eps * (1.0 - eps**2 / 4.0)
        assert v1 == UNIT_1D.value_and_grad(z1)[0]
        assert g1[0] == -z1[0]
        assert k1 == 0.5 * (p1[0] * p1[0])

    def test_single_step_reversibility(self):
        rng = np.random.default_rng(50)
        cov = np.array([[2.0, 0.7, 0.0], [0.7, 1.0, 0.3], [0.0, 0.3, 0.5]])
        target = CorrelatedGaussianTarget(cov)
        leaf = unit_map(target).leaf
        z0 = rng.standard_normal(3).tolist()
        p0 = rng.standard_normal(3).tolist()
        g0 = target.value_and_grad(z0)[1]
        z1, p1, _, g1, _ = leaf(z0, p0, g0, 0.2)
        z2, p2, _, _, _ = leaf(z1, [-v for v in p1], g1, 0.2)
        assert np.allclose(z2, z0, atol=1e-10)
        assert np.allclose(np.negative(p2), p0, atol=1e-10)

    def test_energy_drift_stays_small(self):
        eps = 0.01
        leaf = unit_map(UNIT_1D).leaf
        z, p = [1.0], [0.5]
        value, grad = UNIT_1D.value_and_grad(z)
        h0 = -value + 0.5 * p[0] * p[0]
        for _ in range(100):
            z, p, value, grad, k = leaf(z, p, grad, eps)
        assert abs(-value + k - h0) < 1e-3

    def test_exploding_step_returns_divergent_leaf(self):
        z, p = [1.0], [1.0]
        grad = UNIT_1D.value_and_grad(z)[1]
        z1, p1, value, grad1, _ = unit_map(UNIT_1D).leaf(z, p, grad, 1e200)
        assert value == -np.inf
        assert np.all(np.isfinite(z1)) and np.all(np.isfinite(p1))
        assert np.array_equal(grad1, np.zeros(1))


class TestNutsDraw:
    def test_depth_zero_is_a_metropolis_step(self):
        # replay each transition from a twin generator: the momentum, the
        # direction, one leapfrog step, then the uniform of the pick
        rng, twin = np.random.default_rng(51), np.random.default_rng(51)
        whitening = unit_map(UNIT_1D)
        eps, z = 1.2, [0.3]
        value, grad = UNIT_1D.value_and_grad(z)
        moved = []
        for _ in range(300):
            p0 = twin.standard_normal(1).tolist()
            step = eps if twin.random() < 0.5 else -eps
            z1, p1, v1, g1 = leapfrog(z, p0, grad, step, UNIT_1D.value_and_grad)
            log_ratio = (-value + 0.5 * (p0[0] * p0[0])) - (-v1 + 0.5 * (p1[0] * p1[0]))
            moved.append(math.log(twin.random()) < log_ratio)
            z_new, v_new, g_new, info = nuts_draw(
                z, value, grad, eps, rng, whitening, max_tree_depth=0
            )
            assert info["depth"] == 0
            assert info["accept_stat"] == min(1.0, math.exp(log_ratio))
            assert (z_new, v_new, g_new) == ((z1, v1, g1) if moved[-1] else (z, value, grad))
            z, value, grad = z_new, v_new, g_new
        assert any(moved) and not all(moved)

    def test_info_contract_on_typical_step(self):
        rng = np.random.default_rng(52)
        target = GaussianTarget(np.ones(4))
        z = rng.standard_normal(4).tolist()
        value, grad = target.value_and_grad(z)
        depths, whitening = [], unit_map(target)
        for _ in range(50):
            z, value, grad, info = nuts_draw(z, value, grad, 0.4, rng, whitening)
            assert set(info) == {"accept_stat", "divergent", "depth"}
            assert 0.0 <= info["accept_stat"] <= 1.0
            depths.append(info["depth"])
        assert max(depths) >= 1

    def test_huge_step_size_flags_divergence(self):
        rng = np.random.default_rng(53)
        target = GaussianTarget([1e-6])  # extremely narrow
        z = [0.0]
        value, grad = target.value_and_grad(z)
        flags, whitening = [], unit_map(target)
        for _ in range(20):
            _, _, _, info = nuts_draw(z, value, grad, 50.0, rng, whitening)
            flags.append(info["divergent"])
        assert any(flags)


class TestRunChains:
    def test_standard_normal_moments_and_mixing(self):
        target = GaussianTarget(np.ones(6))
        cfg = SamplerConfig(n_chains=4, n_draw=1500, n_tune=800, seed=3)
        trace = run_chains(target, cfg)
        assert trace.draws.shape == (4, 1500, 6)
        for k in range(6):
            chains = trace.chains_for(f"param_{k}")
            e = ess(chains)
            assert abs(chains.mean()) < 4.0 / np.sqrt(e)
            assert abs(chains.var(ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / e)
            assert gelman_rubin(chains) < 1.01
        assert trace.divergence_rate < 0.01

    def test_adapted_acceptance_near_target(self):
        target = GaussianTarget(np.ones(6))
        cfg = SamplerConfig(n_chains=2, n_draw=1000, n_tune=2000, seed=4)
        trace = run_chains(target, cfg)
        assert 0.75 <= float(trace.accept_stat.mean()) <= 0.85

    def test_correlated_gaussian_covariance_recovery(self):
        cov = np.array([[1.0, 0.8, 0.8], [0.8, 1.0, 0.8], [0.8, 0.8, 1.0]])
        target = CorrelatedGaussianTarget(cov)
        cfg = SamplerConfig(n_chains=4, n_draw=2500, n_tune=1000, seed=5)
        trace = run_chains(target, cfg)
        flat = trace.draws.reshape(-1, 3)
        sample_cov = np.cov(flat.T, ddof=1)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.05

    def test_mass_matrix_learns_ill_conditioned_scales(self):
        target = GaussianTarget([1.0, 1e4])
        cfg = SamplerConfig(n_chains=2, n_draw=200, n_tune=1000, seed=6)
        trace = run_chains(target, cfg)
        for chain in range(2):
            ratio = trace.mass_diag[chain, 1] / trace.mass_diag[chain, 0]
            assert 5e3 < ratio < 2e4

    def test_bit_identical_under_fixed_seed(self):
        target = GaussianTarget(np.ones(3))
        cfg = SamplerConfig(n_chains=2, n_draw=300, n_tune=300, seed=11)
        a = run_chains(target, cfg)
        b = run_chains(target, cfg)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.step_size, b.step_size)
        assert np.array_equal(a.mass_diag, b.mass_diag)

    def test_seed_and_chain_streams_differ(self):
        target = GaussianTarget(np.ones(3))
        a = run_chains(target, SamplerConfig(n_chains=2, n_draw=200, n_tune=200, seed=11))
        c = run_chains(target, SamplerConfig(n_chains=2, n_draw=200, n_tune=200, seed=12))
        assert not np.array_equal(a.draws, c.draws)
        assert not np.array_equal(a.draws[0], a.draws[1])

    def test_zero_tune_runs_without_adaptation(self):
        target = GaussianTarget(np.ones(2))
        cfg = SamplerConfig(n_chains=1, n_draw=150, n_tune=0, seed=13)
        trace = run_chains(target, cfg)
        assert np.all(np.isfinite(trace.draws))
        assert trace.step_size[0] > 0.0
        assert np.array_equal(trace.mass_diag[0], np.ones(2))

    def test_tree_depth_dtype_and_bounds(self):
        target = GaussianTarget(np.ones(2))
        cfg = SamplerConfig(n_chains=1, n_draw=200, n_tune=300, seed=14)
        trace = run_chains(target, cfg)
        assert trace.tree_depth.dtype == np.int16
        assert trace.tree_depth.max() <= nuts.MAX_TREE_DEPTH
        assert trace.divergent.dtype == bool
        # at a step this small no trajectory turns within 2**3 steps, so the cap binds
        rng = np.random.default_rng(14)
        z, value, grad = [0.5, -0.5], *target.value_and_grad([0.5, -0.5])
        whitening = unit_map(target)
        for _ in range(20):
            z, value, grad, info = nuts_draw(z, value, grad, 1e-3, rng, whitening,
                                             max_tree_depth=2)
            assert info["depth"] == 2

    def test_param_name_helpers(self):
        target = GaussianTarget(np.ones(2))
        trace = run_chains(target, SamplerConfig(n_chains=1, n_draw=60, n_tune=150, seed=15))
        assert trace.param_names == ("param_0", "param_1")
        assert trace.chains_for("param_1").shape == (1, 60)
        with pytest.raises(KeyError):
            trace.param_index("nope")

    def test_stalled_warmup_raises_adaptation_error(self):
        cfg = SamplerConfig(n_chains=1, n_draw=10, n_tune=200, seed=16)
        with pytest.raises(AdaptationFailedError) as err:
            run_chains(StallingTarget(), cfg)
        assert err.value.chain == 0
        assert err.value.accept_rate < 0.1

    def test_zero_density_start_is_rejected(self):
        class Hopeless:
            dim = 2

            def value_and_grad(self, z):
                return -np.inf, [0.0, 0.0]

        with pytest.raises(DomainError):
            run_chains(Hopeless(), SamplerConfig(n_chains=1, n_draw=10, n_tune=50, seed=17))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(n_chains=0)
        with pytest.raises(DomainError):
            SamplerConfig(n_draw=0)
        with pytest.raises(DomainError):
            SamplerConfig(n_tune=-1)
        with pytest.raises(DomainError):
            SamplerConfig(seed=-1)


class TestFloatingPointErrors:
    """Overflow on an exploding trajectory is silenced once per transition
    inside the sampler; none of it may escape as a RuntimeWarning."""

    def test_exploding_leapfrog_step_warns_nothing(self):
        z, p = [1.0], [1.0]
        grad = UNIT_1D.value_and_grad(z)[1]
        leaf = unit_map(UNIT_1D).leaf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, value, _, _ = leaf(z, p, grad, 1e200)
        assert value == -np.inf

    @pytest.mark.parametrize("eps", [1e2, 1e5, 1e200])
    def test_run_chains_at_a_huge_step_size_warns_nothing(self, eps, monkeypatch):
        series = synthetic_gbm_series(800, 0.012, lam=3e-4, seed=9)
        logs = prepare_sample(series, 60)[3]
        targets = [GaussianTarget([1e-300, 1.0])]  # gradients overflow in numpy
        for kind in ModelKind:
            low = FAMILIES[kind].data_low
            xp, xm = logs.x_plus[logs.x_plus > low], logs.x_minus[logs.x_minus > low]
            targets.append(Posterior(ModelSpec.from_data(kind, xp, xm), xp, xm))
        # without tuning, the chain runs at half the searched step size
        monkeypatch.setattr(nuts, "_find_reasonable_eps", lambda *args: 2.0 * eps)
        cfg = SamplerConfig(n_chains=1, n_draw=30, n_tune=0, seed=18)
        for target in targets:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trace = run_chains(target, cfg)
            assert trace.step_size[0] == eps
            assert trace.divergent.any()


def running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# Starts two chain workers on a slow target, prints their pids and kills its
# own process, the way a timeout or the out-of-memory killer would. The pids
# are read off os.fork, which fork_map calls.
KILLED_CALLER_SCRIPT = """
import os, threading, time
import numpy as np
from gainloss import nuts, workers

class Slow:
    dim = 1
    def value_and_grad(self, z):
        z = np.asarray(z)
        time.sleep(0.001)
        return -0.5 * float(z @ z), (-z).tolist()

pids = []
fork = os.fork
def recording_fork():
    pid = fork()
    if pid:
        pids.append(pid)
    return pid

def kill_when_started():
    while len(pids) < 2:
        time.sleep(0.01)
    time.sleep(0.5)
    print(*pids, flush=True)
    os.kill(os.getpid(), 9)

os.fork = recording_fork
workers._usable_cpus = lambda: 2
threading.Thread(target=kill_when_started, daemon=True).start()
nuts.run_chains(Slow(), nuts.SamplerConfig(n_chains=2, n_draw=10**6, n_tune=0, seed=1))
"""


def assert_no_children():
    """This process has no child left, running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class CountingGaussian(GaussianTarget):
    def __init__(self, variances):
        super().__init__(variances)
        self.calls = 0

    def value_and_grad(self, z):
        self.calls += 1
        return super().value_and_grad(z)


def posteriors_on_13_years():
    """Student-t and IG posteriors of a 3.3k-day GBM series."""
    series = synthetic_gbm_series(3300, 0.012, lam=3e-4, seed=5)
    logs = prepare_sample(series, 252)[3]
    posts = {}
    for kind in ModelKind:
        low = FAMILIES[kind].data_low
        xp, xm = logs.x_plus[logs.x_plus > low], logs.x_minus[logs.x_minus > low]
        posts[str(kind)] = Posterior(ModelSpec.from_data(kind, xp, xm), xp, xm)
    return posts


@pytest.fixture(scope="module")
def pool_targets():
    return {**posteriors_on_13_years(), "gaussian": GaussianTarget([1.0, 4.0, 0.25])}


@pytest.fixture
def pooled(monkeypatch):
    """Run every multi-chain call in the worker pool, whatever the host's CPUs."""
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 4)


def assert_stacked_types(trace):
    """The types run_chains gives the per-chain fields it stacks."""
    assert trace.n_grad.dtype == np.int64 and trace.step_size.dtype == np.float64
    assert trace.tree_depth.dtype == np.int16 and trace.divergent.dtype == bool
    assert type(trace.init_metric) is tuple
    assert all(type(metric) is str for metric in trace.init_metric)


TRACE_ARRAYS = ("draws", "accept_stat", "divergent", "tree_depth", "step_size", "n_grad")


class TestParallelChains:
    @pytest.mark.parametrize("n_chains", [2, 3, 4])
    @pytest.mark.parametrize("name", ["student-t", "inv-gamma", "gaussian"])
    def test_pool_equals_the_chains_run_in_process(self, pool_targets, pooled,
                                                   name, n_chains):
        target = pool_targets[name]
        cfg = SamplerConfig(n_chains=n_chains, n_draw=30, n_tune=150, seed=21)
        trace = run_chains(target, cfg)
        whitening = whitening_map(target, search=cfg.n_tune > 0)
        for chain in range(n_chains):
            alone = run_chain(target, cfg, whitening, chain)
            for field in TRACE_ARRAYS:
                got = getattr(trace, field)[chain]
                assert np.array_equal(got, np.asarray(getattr(alone, field))), field
            assert np.array_equal(trace.mass_diag[chain], whitening.mass_diag)
            assert trace.init_metric[chain] == whitening.init_metric
        assert trace.n_grad.shape == (n_chains, 2)
        assert_no_children()

    @pytest.mark.parametrize("pool", [False, True], ids=["in-process", "pooled"])
    def test_each_target_finds_its_map_once(self, pool_targets, monkeypatch, request, pool):
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
        if pool:
            request.getfixturevalue("pooled")
        # the caller's pid for each call that reaches the caller's spies
        reached = {"_laplace": [], "_whitening": []}
        for name in reached:
            def spy(*args, real=getattr(laplace, name), calls=reached[name]):
                calls.append(os.getpid())
                return real(*args)

            monkeypatch.setattr(laplace, name, spy)
        targets = [pool_targets["student-t"], pool_targets["gaussian"]]
        cfg = SamplerConfig(n_chains=3, n_draw=20, n_tune=150, seed=31)
        traces = nuts.run_chains_each(targets, cfg)
        assert [trace.n_chains for trace in traces] == [3, 3]
        assert reached == {"_laplace": [os.getpid()] * 2, "_whitening": [os.getpid()] * 2}
        assert_no_children()

    def test_a_target_whose_map_fails_gets_its_error(self, pooled):
        class Undefined(GaussianTarget):
            def value_and_grad(self, z):
                raise DomainError("no density here")

        cfg = SamplerConfig(n_chains=2, n_draw=20, n_tune=150, seed=32)
        failed, drawn = nuts.run_chains_each([Undefined(np.ones(2)), GaussianTarget(np.ones(2))],
                                             cfg)
        assert type(failed) is DomainError and str(failed) == "no density here"
        assert drawn.draws.shape == (2, 20, 2) and np.all(np.isfinite(drawn.draws))
        with pytest.raises(DomainError, match="no density here"):
            run_chains(Undefined(np.ones(2)), cfg)
        assert_no_children()

    def test_an_error_in_place_of_a_target_is_passed_through(self, pool_targets, pooled):
        err = DomainError("stopped before sampling")
        target = pool_targets["gaussian"]
        cfg = SamplerConfig(n_chains=2, n_draw=20, n_tune=150, seed=33)
        passed, drawn = nuts.run_chains_each([err, target], cfg)
        assert passed is err
        alone = run_chains(target, cfg)
        for field in dataclasses.fields(alone):
            want, got = getattr(alone, field.name), getattr(drawn, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), field.name
            else:
                assert got == want, field.name
        assert_no_children()

    def test_a_target_that_cannot_be_pickled_samples(self, pooled):
        class Local(GaussianTarget):  # a local class does not pickle
            pass

        target = Local(np.ones(2))
        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(target)
        trace = run_chains(target, SamplerConfig(n_chains=2, n_draw=50, n_tune=150, seed=22))
        assert trace.draws.shape == (2, 50, 2)
        assert np.all(np.isfinite(trace.draws))

    def test_stalled_warmup_in_a_worker_raises_the_first_chain(self, pooled):
        cfg = SamplerConfig(n_chains=2, n_draw=10, n_tune=200, seed=16)
        with pytest.raises(AdaptationFailedError) as err:
            run_chains(StallingTarget(), cfg)
        assert err.value.chain == 0
        assert err.value.accept_rate < 0.1
        assert_no_children()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the kernel ends the workers on Linux only")
    def test_workers_die_with_a_killed_caller(self):
        # the workers inherit stdout, so read the pids line, not to the end
        proc = subprocess.Popen([sys.executable, "-c", KILLED_CALLER_SCRIPT],
                                env=source_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        pids = []
        try:
            # a caller that never prints fails the test instead of hanging it
            assert select.select([proc.stdout], [], [], 60)[0], "no worker pids in 60 s"
            pids = [int(p) for p in proc.stdout.readline().split()]
            assert proc.wait(timeout=60) == -9
            assert len(pids) == 2
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and any(map(running, pids)):
                time.sleep(0.1)
            assert not any(map(running, pids))
        finally:
            proc.kill()
            proc.stdout.close()
            for pid in filter(running, pids):
                os.kill(pid, 9)

    def test_one_usable_cpu_runs_in_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked a worker")

        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        trace = run_chains(GaussianTarget(np.ones(2)),
                           SamplerConfig(n_chains=2, n_draw=40, n_tune=150, seed=24))
        assert trace.draws.shape == (2, 40, 2)

    def test_a_worker_that_exits_without_results_raises(self, pooled):
        def task(i):
            if i == 2:
                os._exit(3)
            return i

        with pytest.raises(RuntimeError, match="worker 2 .* exit code 3 before sending"):
            workers.fork_map(task, 5)
        assert_no_children()

    def test_the_lowest_failing_task_raises(self, pooled):
        def task(i):
            if i in (3, 6):
                raise DomainError(f"task {i}")
            return i * i

        assert workers.fork_map(lambda i: i * i, 7) == [i * i for i in range(7)]
        with pytest.raises(DomainError, match="task 3"):
            workers.fork_map(task, 7)
        assert_no_children()

    def test_a_worker_runs_nested_calls_in_process(self, pooled):
        pids = workers.fork_map(
            lambda i: (os.getpid(), workers.fork_map(lambda j: os.getpid(), 3)), 2)
        for worker, nested in pids:
            assert worker != os.getpid() and nested == [worker] * 3
        assert_no_children()

    def test_chains_take_no_blas_dot(self, pool_targets, monkeypatch):
        # a BLAS dot or a LAPACK solve sums in an order, and so rounds in a
        # way, that follows the CPU; the sampler's sums must not go through one
        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"numpy.{name} called")
            return call

        monkeypatch.setattr(np, "dot", forbidden("dot"))
        for name in ("solve", "inv", "cholesky"):
            monkeypatch.setattr(np.linalg, name, forbidden(f"linalg.{name}"))
        cfg = SamplerConfig(n_chains=1, n_draw=30, n_tune=150, seed=27)
        for target in pool_targets.values():
            whitening = whitening_map(target, search=cfg.n_tune > 0)
            chain = run_chain(target, cfg, whitening, 0)
            assert np.all(np.isfinite(chain.draws))
            assert whitening.init_metric == "laplace"

    def test_gradient_counts_split_warmup_from_sampling(self, monkeypatch):
        target = CountingGaussian(np.ones(3))
        cfg = SamplerConfig(n_chains=1, n_draw=60, n_tune=150, seed=25)
        trace = run_chains(target, cfg)
        warmup, sampling = trace.n_grad[0]
        assert warmup + sampling == target.calls
        # one leapfrog step per draw at least, one per tuning draw plus the start
        assert sampling >= cfg.n_draw
        assert warmup > cfg.n_tune
        assert nuts.trace_summary(trace)["n_grad"] == [[int(warmup), int(sampling)]]
        assert_stacked_types(trace)
        # chains run in process share the map, whose search counts once
        monkeypatch.setattr(workers, "_usable_cpus", lambda: 1)
        target = CountingGaussian(np.ones(3))
        trace = run_chains(target, SamplerConfig(n_chains=3, n_draw=60, n_tune=150, seed=25))
        assert trace.n_grad.sum() == target.calls


class Saddle:
    """log p = (z1^2 - z0^2) / 2, which rises without bound along z1."""

    dim = 2

    def value_and_grad(self, z):
        return 0.5 * (z[1] * z[1] - z[0] * z[0]), [-z[0], z[1]]


class DoubleWell:
    """log p = -sum (z^2 - 1)^2: the origin, where a search starts, is a
    local minimum; the modes are at +-1."""

    dim = 2

    def value_and_grad(self, z):
        return (-sum((zk * zk - 1.0) ** 2 for zk in z),
                [-4.0 * zk * (zk * zk - 1.0) for zk in z])


class Pinhole:
    """Finite density at the origin only."""

    dim = 2

    def value_and_grad(self, z):
        return (-math.inf if any(z) else 0.0), [0.0] * self.dim


def laplace_covariance(low) -> np.ndarray:
    """L^-T L^-1, the covariance of the Laplace approximation with factor L."""
    inv = np.linalg.inv(np.array(low))
    return inv.T @ inv


class TestLaplaceMetric:
    """The mode search that sets each chain's whitening map."""

    @pytest.mark.parametrize("target", [
        GaussianTarget([1.0, 4.0, 0.25]),
        CorrelatedGaussianTarget([[2.0, 0.9, 0.3], [0.9, 1.0, -0.2], [0.3, -0.2, 0.5]]),
    ], ids=["independent", "correlated"])
    def test_gaussians_give_the_mode_and_the_covariance_diagonal(self, target):
        # the whole Laplace covariance L^-T L^-1, its diagonal included
        cov = target.cov if hasattr(target, "cov") else np.diag(target.var)
        # from the mode, and from a start the search must climb from
        for start in ([0.0, 0.0, 0.0], [0.7, -1.3, 2.0]):
            mode, low = laplace._laplace(target.value_and_grad, start)
            assert np.allclose(mode, 0.0, rtol=0.0, atol=1e-6)
            assert np.allclose(laplace_covariance(low), cov, rtol=1e-6, atol=0.0)

    def test_the_student_t_posterior_converges(self, pool_targets):
        target = pool_targets["student-t"]
        mode, low = laplace._laplace(target.value_and_grad,
                                     target.initial_unconstrained().tolist())
        assert np.allclose(target.value_and_grad(mode)[1], 0.0, atol=1e-3)
        # the location is far narrower than the unit metric assumes
        assert laplace_covariance(low)[0, 0] < 1e-3

    @pytest.mark.parametrize("target, start", [
        (Saddle(), [0.5, 0.5]),   # never converges
        (DoubleWell(), [0.0, 0.0]),  # no Newton step rises
        (Pinhole(), [0.0, 0.0]),  # the Hessian's stencil leaves the support
    ], ids=["saddle", "minimum", "pinhole"])
    def test_falls_back_where_the_hessian_fails(self, target, start):
        assert laplace._laplace(target.value_and_grad, start) is None

    def test_a_fallback_warms_up_from_the_unit_metric(self, monkeypatch):
        # on the identity map around the start
        target = DoubleWell()
        cfg = SamplerConfig(n_chains=1, n_draw=50, n_tune=150, seed=28)
        searched_map = whitening_map(target, search=cfg.n_tune > 0)
        searched = run_chain(target, cfg, searched_map, 0)
        maps = []
        whitening = laplace._whitening

        def spy(value_and_grad, mode, low):
            maps.append((mode, low))
            return whitening(value_and_grad, mode, low)

        monkeypatch.setattr(laplace, "_whitening", spy)
        monkeypatch.setattr(laplace, "_laplace", lambda *args: None)
        unsearched_map = whitening_map(target, search=cfg.n_tune > 0)
        unsearched = run_chain(target, cfg, unsearched_map, 0)
        assert maps == [([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])]
        assert searched_map.init_metric == unsearched_map.init_metric == "unit"
        assert np.array_equal(searched_map.mass_diag, np.ones(2))
        for field in TRACE_ARRAYS:
            if field != "n_grad":
                assert np.array_equal(np.asarray(getattr(searched, field)),
                                      np.asarray(getattr(unsearched, field))), field
        # the failed search's gradients count as warmup
        assert searched_map.n_search > 0 and unsearched_map.n_search == 0
        assert searched.n_grad[0] == unsearched.n_grad[0] + searched_map.n_search
        assert searched.n_grad[1] == unsearched.n_grad[1]

    def test_chains_start_within_a_few_laplace_sds_of_the_mode(self, pool_targets,
                                                              monkeypatch):
        # a unit box around the moment start is hundreds of sds wide on the
        # narrow location coordinates
        target = pool_targets["inv-gamma"]
        mode, low = laplace._laplace(target.value_and_grad,
                                     target.initial_unconstrained().tolist())
        starts = []
        warmup = nuts._warmup_chain

        def spy(whitening, u0, cfg, rng, chain):
            starts.append(u0)
            # the whitened origin is the mode
            assert whitening.pulled_back([0.0] * len(u0))[0] == target.value_and_grad(mode)[0]
            return warmup(whitening, u0, cfg, rng, chain)

        monkeypatch.setattr(nuts, "_warmup_chain", spy)
        cfg = SamplerConfig(n_chains=2, n_draw=10, n_tune=80, seed=30)
        whitening = whitening_map(target, search=cfg.n_tune > 0)
        assert np.allclose(whitening.mass_diag, np.diag(laplace_covariance(low)),
                           rtol=1e-12, atol=0.0)
        for chain in range(2):
            run_chain(target, cfg, whitening, chain)
        assert np.all(np.abs(starts) <= nuts._LAPLACE_JITTER)
        assert not np.array_equal(starts[0], starts[1])

    def test_the_trace_records_which_metric_warmup_started_from(self):
        trace = run_chains(GaussianTarget(np.ones(2)),
                           SamplerConfig(n_chains=2, n_draw=40, n_tune=150, seed=29))
        assert trace.init_metric == ("laplace", "laplace")
        assert nuts.trace_summary(trace)["init_metric"] == ["laplace", "laplace"]
        assert_stacked_types(trace)
        for target, cfg in ((DoubleWell(), SamplerConfig(n_chains=2, n_draw=40,
                                                         n_tune=150, seed=29)),
                            (GaussianTarget(np.ones(2)), SamplerConfig(
                                n_chains=1, n_draw=40, n_tune=0, seed=29))):
            trace = run_chains(target, cfg)
            assert nuts.trace_summary(trace)["init_metric"] == ["unit"] * cfg.n_chains
            assert_stacked_types(trace)

    def test_the_search_cuts_warmup_gradients_on_13_years(self, pool_targets,
                                                          monkeypatch):
        # a deterministic count, not seconds: on the identity map the unit
        # metric runs deep trees on the badly scaled location once sampling
        # starts, which the search's own gradients do not outweigh
        cfg = SamplerConfig(n_chains=1, n_draw=50, n_tune=300, seed=5)
        for name in ("student-t", "inv-gamma"):
            target = pool_targets[name]
            searched = whitening_map(target, search=cfg.n_tune > 0)
            whitened = run_chain(target, cfg, searched, 0)
            with monkeypatch.context() as patch:
                patch.setattr(laplace, "_laplace", lambda *args: None)
                unsearched = whitening_map(target, search=cfg.n_tune > 0)
            unit = run_chain(target, cfg, unsearched, 0)
            assert searched.init_metric == "laplace" and unsearched.init_metric == "unit"
            assert whitened.n_grad.sum() < 0.6 * unit.n_grad.sum(), name

    @pytest.mark.parametrize("name", ["student-t", "inv-gamma"])
    def test_each_tuning_iteration_takes_one_gradient(self, pool_targets, name):
        # one leapfrog Metropolis step per tuning iteration, whatever the
        # tree depth sampling may reach
        target = pool_targets[name]
        warmup = []
        for tune in (150, 300):
            cfg = SamplerConfig(n_chains=1, n_draw=10, n_tune=tune, seed=5)
            whitening = whitening_map(target, search=True)
            warmup.append(run_chain(target, cfg, whitening, 0).n_grad[0])
        assert warmup[1] - warmup[0] == 150


class TestWhitening:
    """Sampling u with z = mode + L^-T u, where L L^T = -H at the mode."""

    @pytest.fixture(scope="class")
    def maps(self, pool_targets):
        out = {}
        for name in ("student-t", "inv-gamma", "gaussian"):
            target = pool_targets[name]
            start = (target.initial_unconstrained().tolist()
                     if hasattr(target, "initial_unconstrained") else [0.5] * target.dim)
            mode, low = laplace._laplace(target.value_and_grad, start)
            position, pulled_back, *_, variances = laplace._whitening(target.value_and_grad,
                                                                      mode, low)
            out[name] = (target, mode, low, position, pulled_back, variances)
        return out

    @pytest.mark.parametrize("name", ["student-t", "inv-gamma", "gaussian"])
    def test_the_map_round_trips(self, maps, name):
        target, mode, low, position, _, variances = maps[name]
        assert position([0.0] * target.dim) == mode
        rng = np.random.default_rng(60)
        for _ in range(5):
            u = rng.standard_normal(target.dim)
            z = np.array(position(u.tolist()))
            # u = L^T (z - mode) inverts z(u)
            assert np.allclose(np.array(low).T @ (z - mode), u, rtol=0.0, atol=1e-9)
        assert np.allclose(variances, np.diag(laplace_covariance(low)), rtol=1e-12)

    @pytest.mark.parametrize("name", ["student-t", "inv-gamma", "gaussian"])
    def test_the_pulled_back_gradient_matches_central_differences(self, maps, name):
        target, _, _, position, pulled_back, _ = maps[name]
        rng = np.random.default_rng(61)
        h = 1e-3  # u is in Laplace sds; a shorter step reads the density's rounding
        for _ in range(3):
            u = rng.uniform(-1.0, 1.0, target.dim).tolist()
            value, grad = pulled_back(u)
            assert value == target.value_and_grad(position(u))[0]
            for k in range(target.dim):
                up, down = list(u), list(u)
                up[k] += h
                down[k] -= h
                numeric = (pulled_back(up)[0] - pulled_back(down)[0]) / (2.0 * h)
                assert grad[k] == pytest.approx(numeric, rel=1e-5, abs=1e-6)

    def test_a_position_that_overflows_is_off_the_support(self):
        # a finite u can map past the largest float where L^-1 has entries above 1
        target = CorrelatedGaussianTarget([[4.0, 3.8], [3.8, 4.0]])
        mode, low = laplace._laplace(target.value_and_grad, [0.0, 0.0])
        position, pulled_back, *_ = laplace._whitening(target.value_and_grad, mode, low)
        huge = [1e308, -1e308]
        assert not all(map(math.isfinite, position(huge)))
        assert pulled_back(huge) == (-math.inf, [0.0, 0.0])

    @pytest.mark.parametrize("name", ["student-t", "inv-gamma"])
    def test_the_factor_is_exactly_zero_across_sides(self, maps, name):
        target, _, low, _, _, _ = maps[name]
        k = target.dim // 2
        for factor in (low, laplace._lower_inverse(low)):
            assert all(factor[i][j] == 0.0 for i in range(k, target.dim) for j in range(k))
            # within a side the map is dense: the location and scale correlate
            assert factor[1][0] != 0.0 and factor[k + 1][k] != 0.0

    def test_a_correlated_gaussian_samples_in_single_steps(self):
        # the parent's diagonal windows read a mean depth of 1.98 and ESS 156-165
        cov = np.full((3, 3), 0.95)
        np.fill_diagonal(cov, 1.0)
        trace = run_chains(CorrelatedGaussianTarget(cov),
                           SamplerConfig(n_chains=2, n_draw=500, n_tune=300, seed=7))
        assert trace.tree_depth.mean() <= 1.5
        for k in range(3):
            assert ess(trace.chains_for(f"param_{k}")) >= 600

    def test_the_ig_posterior_on_13_years_takes_few_gradients(self, pool_targets):
        # a deterministic count: the diagonal windows took 5104
        target = pool_targets["inv-gamma"]
        trace = run_chains(target, SamplerConfig(n_chains=1, n_draw=300, n_tune=300, seed=5))
        assert trace.n_grad.sum() < 3000


def bits(x):
    """``x`` with every float as its hex form, so that == compares floats bit
    for bit, the sign of zero and NaN included."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    return x


def ci_posteriors():
    """The posteriors of CI's gradient-cost step: IG on 25k days at barrier
    scale 2, and Student-t on 3.3k days."""
    posts = {}
    for kind, days, scale in ((ModelKind.INV_GAMMA, 25000, 2.0), (ModelKind.STUDENT_T, 3300, 1.0)):
        series = synthetic_gbm_series(days, 0.012, lam=3e-4, seed=7)
        rho = prepare_sample(series, 252)[1]
        logs = prepare_sample(series, 252, rho=scale * rho)[3]
        low = FAMILIES[kind].data_low
        xp, xm = logs.x_plus[logs.x_plus > low], logs.x_minus[logs.x_minus > low]
        posts[f"{kind}-{days}"] = Posterior(ModelSpec.from_data(kind, xp, xm), xp, xm)
    return posts


class TestCompiledLeaf:
    """Each map's compiled leaf, U-turn test and kinetic energy against the
    generic oracles in ``nuts_oracle``, bit for bit."""

    @pytest.fixture(scope="class")
    def maps(self):
        targets = {**ci_posteriors(),
                   "gaussian": CorrelatedGaussianTarget([[2.0, 0.9, 0.3], [0.9, 1.0, -0.2],
                                                         [0.3, -0.2, 0.5]])}
        return {name: whitening_map(target, search=True) for name, target in targets.items()}

    @staticmethod
    def assert_leaf_matches(whitening, u, p, g, eps):
        """leaf(u, p, g, eps) against leapfrog then kinetic; returns the
        gradient calls the leaf made, which must be the oracle's."""
        calls = whitening.pulled_back.calls
        before = calls[0]
        want = leapfrog(u, p, g, eps, whitening.pulled_back)
        oracle_calls = calls[0] - before
        got = whitening.leaf(u, p, g, eps)
        assert bits(got) == bits([*want, kinetic(want[1])])
        assert calls[0] - before == 2 * oracle_calls
        return oracle_calls

    @pytest.mark.parametrize("name", ["inv-gamma-25000", "student-t-3300", "gaussian"])
    def test_the_leaf_is_leapfrog_then_kinetic(self, maps, name):
        whitening = maps[name]
        dim = whitening.mass_diag.shape[0]
        rng = np.random.default_rng(70)
        for _ in range(200):
            u, p, g = (rng.standard_normal(dim).tolist() for _ in range(3))
            eps = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 2.0))
            # an evaluated leaf calls the target once
            assert self.assert_leaf_matches(whitening, u, p, g, eps) == 1

    @pytest.mark.parametrize("name", ["inv-gamma-25000", "student-t-3300", "gaussian"])
    def test_a_drift_that_overflows_returns_the_start(self, maps, name):
        whitening = maps[name]
        dim = whitening.mass_diag.shape[0]
        u, p, g = [0.5] * dim, [4.0] * dim, [0.0] * dim
        for eps in (1e308, -1e308):
            assert self.assert_leaf_matches(whitening, u, p, g, eps) == 0
            got = whitening.leaf(u, p, g, eps)
            assert got[0] is u and got[1] is p and got[2] == -math.inf

    def test_a_position_that_overflows_has_zero_density(self):
        # a finite u can map past the largest float where L^-1 has entries above 1
        whitening = whitening_map(CorrelatedGaussianTarget([[4.0, 3.8], [3.8, 4.0]]),
                                  search=True)
        u = [1e308, -1e308]
        for p, g in (([0.0, 0.0], [0.0, 0.0]), ([1.0, -2.0], [0.5, 0.25])):
            assert self.assert_leaf_matches(whitening, u, p, g, 1e-3) == 0
            assert whitening.leaf(u, p, g, 1e-3)[2] == -math.inf

    @pytest.mark.parametrize("name", ["inv-gamma-25000", "student-t-3300"])
    def test_a_target_at_minus_inf(self, maps, name):
        # a scale coordinate far out rounds its transform onto the bound
        whitening = maps[name]
        dim = whitening.mass_diag.shape[0]
        for sign in (1.0, -1.0):
            u = [0.0] * dim
            u[1] = sign * 1e6
            assert self.assert_leaf_matches(whitening, u, [0.0] * dim, [0.0] * dim, 1e-3) == 1
            assert whitening.leaf(u, [0.0] * dim, [0.0] * dim, 1e-3)[2] == -math.inf

    @pytest.mark.parametrize("name", ["inv-gamma-25000", "student-t-3300", "gaussian"])
    def test_the_u_turn_test_and_kinetic_energy_match_their_oracles(self, maps, name):
        whitening = maps[name]
        dim = whitening.mass_diag.shape[0]
        rng = np.random.default_rng(71)
        seen = set()
        for _ in range(300):
            left, right = ((rng.standard_normal(dim).tolist(), rng.standard_normal(dim).tolist(),
                            None) for _ in range(2))
            seen.add(turned(left, right))
            assert whitening.turned(left, right) == turned(left, right)
            assert bits(whitening.kinetic(left[1])) == bits(kinetic(left[1]))
        assert seen == {False, True}
        assert whitening.kinetic([1e200] * dim) == kinetic([1e200] * dim) == math.inf

    @pytest.mark.parametrize("name", ["student-t", "inv-gamma"])
    def test_a_warmup_step_replays_a_depth_zero_transition(self, pool_targets, name):
        whitening = whitening_map(pool_targets[name], search=True)
        dim = whitening.mass_diag.shape[0]
        rng, twin = (np.random.Generator(np.random.Philox(72)) for _ in range(2))
        steps = np.random.default_rng(73).uniform(0.2, 2.0, 300).tolist()
        steps[150] = 1e3  # far too long a step: a divergent leaf
        u = [0.2] * dim
        state = (u, *whitening.pulled_back(u))
        moved = []
        # the step leaves silencing floating-point errors to its caller
        with np.errstate(over="ignore", invalid="ignore"):
            for eps in steps:
                *step, accept_stat = nuts._metropolis_step(*state, eps, rng, whitening)
                *draw, info = nuts_draw(*state, eps, twin, whitening, max_tree_depth=0)
                assert bits(step) == bits(draw)
                assert bits(accept_stat) == bits(info["accept_stat"])
                assert info["divergent"] or eps != 1e3
                if info["divergent"]:
                    # neither drew the uniform of the pick
                    assert step[0] is state[0]
                    assert rng.random() == twin.random()
                moved.append(step[0] is not state[0])
                state = tuple(step)
        assert any(moved) and not all(moved)


def package_errors(cls=errors.GainLossError):
    for sub in cls.__subclasses__():
        yield sub
        yield from package_errors(sub)


@pytest.mark.parametrize("cls", [errors.GainLossError, *package_errors()],
                         ids=lambda cls: cls.__name__)
def test_every_package_error_round_trips_through_pickle(cls):
    exc = cls(1, 0.05) if cls is AdaptationFailedError else cls("bad thing")
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)

