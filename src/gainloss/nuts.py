"""No-U-Turn sampler in Laplace-whitened coordinates, with step-size adaptation.

One transition builds a trajectory by repeated binary doubling. Each doubling
builds a subtree of 2^depth leapfrog steps from one end of the trajectory, in
a uniformly random direction. A leaf is one leapfrog step weighted by
exp(-(H - H0)); the step-size search reads its acceptance ratio off the same
leaf. One merge rule extends a tree by a subtree, both for the trajectory
and inside the subtree recursion; only its pick of the proposal differs:
biased toward the fresh subtree, min(1, w_sub / w_tree), at the top level,
and multinomial, w_sub / (w_tree + w_sub), inside a subtree. Doubling stops
when either trajectory end would retrace its path (velocity-based U-turn
test), when the energy error exceeds ``DIVERGENCE_THRESHOLD``, or at
``max_tree_depth`` doublings past the first (so ``max_tree_depth = 0``
degenerates to a single leapfrog Metropolis step); sampling runs at
``MAX_TREE_DEPTH``.

Each chain samples ``u`` with ``z = mode + L^-T u``, where ``L L^T = -H`` is
the Cholesky factor of the negative Hessian of the log posterior at its
mode, and pulls gradients back as ``L^-1 g``. Under the Laplace
approximation ``u`` is standard normal, so the sampler always runs on the
unit metric: the map, not warmup draws, absorbs the posterior's scales and
correlations, and it puts the chain in the typical set. So warmup only tunes
the step size: one step-size search, then one depth-0 transition (a single
leapfrog Metropolis step) per tuning iteration, whose acceptance statistic
min(1, exp(-dH)) drives dual averaging toward ``TARGET_ACCEPT``; the final
step size is its averaged iterate. The mode is found
by damped Newton steps from the unjittered start, with Hessians from central
differences of the gradient (2 * dim calls each); the nonzero entries of
``L^-1`` are listed once per chain (a posterior that factorizes by side has
exact zeros across the sides). The chain starts within ``_LAPLACE_JITTER``
whitened units of the mode: from a unit box around the unjittered start it
would sit hundreds of sds out on a narrow coordinate. The search draws no
random numbers, so every chain finds the same map, and it solves in Python
floats, not by LAPACK, whose rounding follows the CPU. Where it fails (zero
density on its path, a Hessian that is not negative definite, no convergence
within a fixed number of steps), or where there is no tuning, the map is the
identity around the unjittered start, jittered by [-1, 1]. The trace records
which map each chain used.

Chains are independent: chain ``c`` of a run seeded with ``seed`` draws from
a counter-based generator keyed by ``(seed, c)``, so results do not depend on
execution order. ``fork_map`` runs numbered tasks in workers forked with bare
``os.fork``, one per usable CPU up to the task count, and in its own process
when that count is 1 or the platform cannot fork; a worker inherits the tasks
from the fork, so nothing goes out to it, and only its results come back,
pickled through a pipe. ``run_chains`` makes each chain of one target a task,
and ``run_chains_each`` each chain of several targets, so that the chains of
a whole scan share one fork. The trace is bit-identical either way. The
workers have ended before ``fork_map`` returns or raises, and on Linux the
kernel kills them if the calling process is killed. The trace holds draws,
sampler statistics and each chain's gradient count only; what is derived
from the draws, such as WAIC, is computed afterwards.

The target is any object with a ``dim`` attribute and a
``value_and_grad(z) -> (logp, grad)`` method in unconstrained coordinates,
taking a list of ``dim`` Python floats and returning a float and a float list
(off-support points must return ``-inf``, not raise). The sampler calls it
once per leapfrog step, and at each chain's start a few times plus some
tens of times for the mode search, so counting its calls counts gradients,
which each chain does in its own process.
Optional methods ``constrain``, ``param_names`` and
``initial_unconstrained`` refine what the trace records.

Position, momentum and gradient are float lists throughout a chain, so no
ndarray is built per leapfrog step: the kinetic energy, the U-turn test and
the whitening map are summed left to right in Python, which also keeps them
off a BLAS dot, whose summation order, and so whose rounding, follows the
CPU. Only the momentum draw of each transition calls numpy.

An exploding trajectory overflows; its leaves come out divergent. Python
floats overflow without a warning, and numpy's floating-point errors are
silenced once per transition (and once per step-size or mode search), not
once per step; that covers the target's own arithmetic too.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import AdaptationFailedError, DomainError, GainLossError

__all__ = [
    "SamplerConfig",
    "Trace",
    "ChainDraws",
    "DIVERGENCE_THRESHOLD",
    "MAX_TREE_DEPTH",
    "TARGET_ACCEPT",
    "leapfrog",
    "nuts_draw",
    "run_chain",
    "run_chains",
    "run_chains_each",
    "fork_map",
    "trace_to_csv",
    "trace_summary",
]

DIVERGENCE_THRESHOLD = 1000.0
MAX_TREE_DEPTH = 10   # doublings past the first in a sampling transition
TARGET_ACCEPT = 0.8   # mean acceptance statistic that warmup tunes the step size to

# dual-averaging constants
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75

_MIN_ACCEPT = 0.1  # below this after warmup the chain is declared failed

# mode search that sets the whitening map
_MODE_ITERS = 30      # Newton steps before the search gives up
_MODE_HALVINGS = 30   # step halvings before a Newton step gives up
_MODE_TOL = 1e-8      # Newton decrement g^T (-H)^-1 g at which the mode is found
_MODE_MAX_STEP = 1.0  # longest move of one coordinate in one Newton step
_HESSIAN_STEP = 1e-4  # central-difference step of the Hessian in each coordinate
_LAPLACE_JITTER = 2.0  # start radius around the mode, in whitened units

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


@dataclass(frozen=True)
class SamplerConfig:
    n_chains: int = 4
    n_draw: int = 4000
    n_tune: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < 1 or self.n_draw < 1 or self.n_tune < 0:
            raise DomainError("need n_chains >= 1, n_draw >= 1, n_tune >= 0")
        if self.seed < 0:  # numpy's SeedSequence refuses a negative entropy
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Trace:
    """Retained draws of one run; tuning iterations are excluded."""

    draws: np.ndarray                 # [n_chains, n_draw, dim], constrained
    param_names: tuple[str, ...]
    accept_stat: np.ndarray           # [n_chains, n_draw]
    divergent: np.ndarray             # [n_chains, n_draw] bool
    tree_depth: np.ndarray            # [n_chains, n_draw] int16
    step_size: np.ndarray             # [n_chains]
    mass_diag: np.ndarray             # [n_chains, dim] diag of the whitening covariance
    n_grad: np.ndarray                # [n_chains, 2] gradient calls: warmup, sampling
    init_metric: tuple[str, ...]      # [n_chains] "laplace" or "unit"
    config: SamplerConfig

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def n_draw(self) -> int:
        return self.draws.shape[1]

    @property
    def divergence_rate(self) -> float:
        return float(np.mean(self.divergent))

    def param_index(self, name: str) -> int:
        try:
            return self.param_names.index(name)
        except ValueError as exc:
            raise KeyError(f"no parameter named {name!r}") from exc

    def chains_for(self, name: str) -> np.ndarray:
        """Constrained draws of one parameter, shape [n_chains, n_draw]."""
        return self.draws[:, :, self.param_index(name)]


def leapfrog(
    z: list[float],
    p: list[float],
    grad: list[float],
    eps: float,
    value_and_grad: Callable[[list[float]], tuple[float, list[float]]],
) -> tuple[list[float], list[float], float, list[float]]:
    """One unit-metric half-kick / drift / half-kick step; grad is d(logp)/dz at z.

    Every argument and result is a list of Python floats, which overflow to
    inf without a warning and round like numpy's elementwise operations.
    """
    half = 0.5 * eps
    p_half = [pk + half * gk for pk, gk in zip(p, grad)]
    z_new = [zk + eps * pk for zk, pk in zip(z, p_half)]
    if not all(map(math.isfinite, z_new)):
        # Exploding trajectory: surface as a divergent leaf, never as NaN math.
        return z, p, -math.inf, [0.0] * len(z)
    value_new, grad_new = value_and_grad(z_new)
    p_new = [pk + half * gk for pk, gk in zip(p_half, grad_new)]
    return z_new, p_new, value_new, grad_new


def _kinetic(p: list[float]) -> float:
    # Summed left to right: a BLAS dot's order, and so its rounding, follows
    # the CPU. Momenta can blow up on unstable trajectories; report inf so the
    # caller treats the leaf as divergent.
    k = 0.0
    for pk in p:
        k += pk * pk
    k *= 0.5
    return k if math.isfinite(k) else math.inf


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    m = a if a > b else b
    return m + math.log(math.exp(a - m) + math.exp(b - m))


def _turned(left_edge, right_edge) -> bool:
    """U-turn test on velocities: would either end start moving back inward?"""
    (z_left, p_left, _), (z_right, p_right, _) = left_edge, right_edge
    left = right = 0.0
    for zl, pl, zr, pr in zip(z_left, p_left, z_right, p_right):
        dz = zr - zl
        left += dz * pl
        right += dz * pr
    return left < 0.0 or right < 0.0


class _TreeState:
    """A trajectory or subtree: its outermost states ``left`` and ``right``,
    each ``(z, p, grad)``, its proposal ``(z, logp, grad)``, its log weight
    and acceptance sums, and whether it diverged or turned."""

    __slots__ = ("left", "right", "prop", "log_weight", "sum_alpha", "n_alpha",
                 "divergent", "turned")

    def __init__(self, z, p, g, value):
        self.left = self.right = (z, p, g)
        self.prop = (z, value, g)
        self.log_weight = 0.0
        self.sum_alpha = 0.0
        self.n_alpha = 0
        self.divergent = False
        self.turned = False


def _merge(tree, sub, direction, rng, biased):
    """Extend ``tree`` by ``sub``, built from its edge in ``direction``; returns ``tree``.

    The acceptance sums always add up. A divergent or turned ``sub`` stops
    the tree and leaves its proposal and edges as they were. Otherwise the
    proposal becomes ``sub``'s with probability min(1, w_sub / w_tree) when
    ``biased`` (the top level of a transition, favouring the fresh subtree)
    or w_sub / (w_tree + w_sub) (inside a subtree), the uniform drawn only
    where the total weight is positive; the far edge moves to ``sub``'s, and
    the tree has turned if its new ends would move back inward.
    """
    tree.sum_alpha += sub.sum_alpha
    tree.n_alpha += sub.n_alpha
    if sub.divergent or sub.turned:
        tree.divergent = sub.divergent
        tree.turned = sub.turned
        return tree
    total = _logaddexp(tree.log_weight, sub.log_weight)
    rival = tree.log_weight if biased else total
    if total > -math.inf and math.log(rng.random()) < sub.log_weight - rival:
        tree.prop = sub.prop
    tree.log_weight = total
    if direction > 0:
        tree.right = sub.right
    else:
        tree.left = sub.left
    tree.turned = _turned(tree.left, tree.right)
    return tree


def _build_subtree(edge, direction, depth, eps, h0, value_and_grad, rng):
    """Build a subtree of 2**depth leaves from a trajectory edge ``(z, p, grad)``.

    A leaf is one leapfrog step. Its log weight is -(H - H0), its acceptance
    statistic min(1, exp(H0 - H)), and it is divergent where H - H0 exceeds
    ``DIVERGENCE_THRESHOLD``; a non-finite energy error counts as +inf, so
    the log weight is finite or -inf. A leaf draws no random numbers. A
    deeper subtree merges its two halves with a multinomial pick.
    """
    if depth == 0:
        z, p, g = edge
        z1, p1, v1, g1 = leapfrog(z, p, g, direction * eps, value_and_grad)
        h1 = -v1 + _kinetic(p1) if math.isfinite(v1) else math.inf
        delta_h = h1 - h0
        if not math.isfinite(delta_h):
            delta_h = math.inf
        leaf = _TreeState(z1, p1, g1, v1)
        leaf.log_weight = -delta_h
        leaf.sum_alpha = math.exp(-delta_h) if delta_h > 0.0 else 1.0
        leaf.n_alpha = 1
        leaf.divergent = delta_h > DIVERGENCE_THRESHOLD
        return leaf

    tree = _build_subtree(edge, direction, depth - 1, eps, h0, value_and_grad, rng)
    if tree.divergent or tree.turned:
        return tree
    sub = _build_subtree(tree.right if direction > 0 else tree.left, direction,
                         depth - 1, eps, h0, value_and_grad, rng)
    return _merge(tree, sub, direction, rng, False)


def _momentum(rng, dim: int) -> list[float]:
    """A draw p ~ N(0, I): the sampler's one numpy call per transition."""
    return rng.standard_normal(dim).tolist()


def nuts_draw(z, value, grad, eps, rng, value_and_grad, max_tree_depth: int = MAX_TREE_DEPTH):
    """One NUTS transition from (z, value, grad).

    Returns ``(z, value, grad, info)`` where info carries ``accept_stat``
    (mean Metropolis statistic over evaluated leaves, in (0, 1]),
    ``divergent``, and ``depth`` (number of doublings performed).
    """
    # silence overflow on exploding trajectories once for the transition
    with np.errstate(over="ignore", invalid="ignore"):
        p0 = _momentum(rng, len(z))
        h0 = -value + _kinetic(p0)
        tree = _TreeState(z, p0, grad, value)  # the start enters with weight exp(0)
        depth = 0
        for depth in range(max_tree_depth + 1):
            direction = 1 if rng.random() < 0.5 else -1
            sub = _build_subtree(tree.right if direction > 0 else tree.left, direction,
                                 depth, eps, h0, value_and_grad, rng)
            _merge(tree, sub, direction, rng, True)
            if tree.divergent or tree.turned:
                break

    accept_stat = tree.sum_alpha / tree.n_alpha if tree.n_alpha else 0.0
    info = {"accept_stat": accept_stat, "divergent": tree.divergent, "depth": depth}
    return (*tree.prop, info)


class _DualAveraging:
    """Nesterov dual averaging of log(eps) toward a target acceptance."""

    def __init__(self, eps0: float, target: float):
        self.mu = math.log(10.0 * eps0)
        self.target = target
        self.log_eps = math.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.t = 0

    def update(self, alpha: float) -> float:
        self.t += 1
        eta = 1.0 / (self.t + _DA_T0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.target - alpha)
        self.log_eps = self.mu - math.sqrt(self.t) / _DA_GAMMA * self.h_bar
        w = self.t ** (-_DA_KAPPA)
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar
        return math.exp(self.log_eps)

    @property
    def adapted(self) -> float:
        return math.exp(self.log_eps_bar)


def _find_reasonable_eps(z, value, grad, rng, value_and_grad) -> float:
    """Double or halve eps from 1 until one leapfrog step's acceptance ratio
    crosses 1/2, or eps reaches 1e-10 or 1e7."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = _momentum(rng, len(z))
        h0 = -value + _kinetic(p)
        eps, direction = 1.0, 0.0
        while True:
            # a one-leaf subtree's log weight is the step's log acceptance ratio
            log_ratio = _build_subtree((z, p, grad), 1, 0, eps, h0, value_and_grad,
                                       rng).log_weight
            direction = direction or (1.0 if log_ratio > math.log(0.5) else -1.0)
            if direction * log_ratio <= direction * math.log(0.5):
                return eps
            eps *= 2.0 ** direction
            if not (1e-10 < eps < 1e7):
                return min(max(eps, 1e-10), 1e7)


def _cholesky(a: list[list[float]]) -> Union[list[list[float]], None]:
    """Lower Cholesky factor of the symmetric matrix ``a`` (a list of rows),
    or None if ``a`` is not positive definite.

    Python floats, not LAPACK, whose rounding follows the CPU.
    """
    n = len(a)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j]
            for k in range(j):
                s -= low[i][k] * low[j][k]
            if i > j:
                low[i][j] = s / low[j][j]
            elif s > 0.0 and math.isfinite(s):
                low[i][i] = math.sqrt(s)
            else:
                return None
    return low


def _cho_solve(low: list[list[float]], b: list[float]) -> list[float]:
    """x with (low low^T) x = b, by forward and then back substitution."""
    n = len(b)
    y = []
    for i in range(n):
        s = b[i]
        for k in range(i):
            s -= low[i][k] * y[k]
        y.append(s / low[i][i])
    x = [0.0] * n
    for i in reversed(range(n)):
        s = y[i]
        for k in range(i + 1, n):
            s -= low[k][i] * x[k]
        x[i] = s / low[i][i]
    return x


def _neg_hessian(value_and_grad, z: list[float]) -> Union[list[list[float]], None]:
    """-d2 logp / dz2 at z from central differences of the gradient,
    symmetrized; None if the stencil leaves the support."""
    h = _HESSIAN_STEP
    cols = []
    for k in range(len(z)):
        up, down = list(z), list(z)
        up[k] += h
        down[k] -= h
        (v_up, g_up), (v_down, g_down) = value_and_grad(up), value_and_grad(down)
        if not (math.isfinite(v_up) and math.isfinite(v_down)):
            return None
        cols.append([(gd - gu) / (2.0 * h) for gu, gd in zip(g_up, g_down)])
    return [[0.5 * (cols[i][j] + cols[j][i]) for j in range(len(z))]
            for i in range(len(z))]


def _laplace(value_and_grad, z: list[float]) -> Union[tuple[list[float], list[list[float]]], None]:
    """The posterior mode and the lower Cholesky factor L of -H there, H the
    Hessian of the log posterior, so that L^-T L^-1 is the Laplace covariance.

    A damped Newton search climbs from ``z`` to the mode: where the negative
    Hessian is not positive definite, its diagonal is inflated
    (Levenberg-Marquardt) until it is; each step moves no coordinate by more
    than ``_MODE_MAX_STEP`` and is halved until the density rises. Returns
    None where ``z`` has zero density, a step finds no rise, or the search
    does not converge within ``_MODE_ITERS`` Newton steps to a point whose
    Hessian is negative definite. No random numbers are drawn.
    """
    value, grad = value_and_grad(z)
    if not math.isfinite(value):
        return None
    for _ in range(_MODE_ITERS):
        a = _neg_hessian(value_and_grad, z)
        if a is None:
            return None
        low, shift = _cholesky(a), 0.0
        while low is None:
            shift = 4.0 * shift or 1e-3
            if shift > 1e6:
                return None
            low = _cholesky([[a_ij + shift * (abs(a_ij) + 1.0) if i == j else a_ij
                              for j, a_ij in enumerate(row)] for i, row in enumerate(a)])
        step = _cho_solve(low, grad)
        if shift == 0.0 and sum(g * s for g, s in zip(grad, step)) < _MODE_TOL:
            return z, low  # converged, on the unshifted Hessian
        # far from the mode a step can be long enough to pin a bounded
        # coordinate to its bound, where the density is flat
        longest = max(map(abs, step))
        t = 1.0 if longest <= _MODE_MAX_STEP else _MODE_MAX_STEP / longest
        for _ in range(_MODE_HALVINGS):
            trial = [zk + t * sk for zk, sk in zip(z, step)]
            if all(map(math.isfinite, trial)):
                v_trial, g_trial = value_and_grad(trial)
                if v_trial > value:  # False for -inf and NaN alike
                    z, value, grad = trial, v_trial, g_trial
                    break
            t *= 0.5
        else:
            return None
    return None


def _lower_inverse(low: list[list[float]]) -> list[list[float]]:
    """L^-1 of a lower triangular L with a positive diagonal, by forward
    substitution on each unit vector. Where L is exactly 0.0, as across the
    blocks of a block-diagonal L, so is L^-1."""
    n = len(low)
    inv = [[0.0] * n for _ in range(n)]
    for k in range(n):
        inv[k][k] = 1.0 / low[k][k]
        for i in range(k + 1, n):
            s = 0.0
            for j in range(k, i):
                s -= low[i][j] * inv[j][k]
            inv[i][k] = s / low[i][i]
    return inv


def _whitening(value_and_grad, mode: list[float], low: list[list[float]]):
    """The map ``z(u) = mode + L^-T u`` and the target pulled back through it.

    Returns ``(position, pulled_back, variances)``: ``position(u)`` is z(u);
    ``pulled_back(u)`` is ``(logp(z(u)), L^-1 grad)``, the log density in
    ``u`` up to the constant log |det L^-T|; ``variances`` is the diagonal of
    L^-T L^-1. The nonzero entries of L^-1 are listed once, its rows for the
    gradient and its columns for the position, and summed left to right.
    A position that overflows is off the support.
    """
    inv = _lower_inverse(low)
    dim = len(mode)
    rows = [[(j, inv[i][j]) for j in range(i + 1) if inv[i][j] != 0.0]
            for i in range(dim)]
    cols = [[(i, inv[i][k]) for i in range(k, dim) if inv[i][k] != 0.0]
            for k in range(dim)]
    centred = list(zip(mode, cols))

    def position(u):
        z = []
        for mk, col in centred:
            s = 0.0
            for i, w in col:
                s += w * u[i]
            z.append(mk + s)
        return z

    def pulled_back(u):
        z = position(u)
        if not all(map(math.isfinite, z)):
            return -math.inf, [0.0] * dim
        value, g = value_and_grad(z)
        grad = []
        for row in rows:
            s = 0.0
            for j, w in row:
                s += w * g[j]
            grad.append(s)
        return value, grad

    variances = [math.fsum(w * w for _, w in col) for col in cols]
    return position, pulled_back, variances


def _warmup_chain(value_and_grad, u, cfg: SamplerConfig, rng, chain: int):
    """One step-size search from ``u``, then ``cfg.n_tune`` single leapfrog
    Metropolis steps (depth-0 transitions) on the unit metric, each feeding
    its acceptance statistic min(1, exp(-dH)) to dual averaging of the step
    size; returns (u, value, grad, eps)."""
    value, grad = value_and_grad(u)
    if not math.isfinite(value):
        raise DomainError(f"chain {chain}: initial point has zero posterior density")
    eps = _find_reasonable_eps(u, value, grad, rng, value_and_grad)
    if cfg.n_tune == 0:
        return u, value, grad, 0.5 * eps
    da = _DualAveraging(eps, TARGET_ACCEPT)
    alphas = []
    for _ in range(cfg.n_tune):
        u, value, grad, info = nuts_draw(u, value, grad, eps, rng, value_and_grad, 0)
        alphas.append(info["accept_stat"])
        eps = da.update(alphas[-1])
    mean_tail = float(np.mean(alphas[-100:]))
    if mean_tail < _MIN_ACCEPT:
        raise AdaptationFailedError(chain, mean_tail)
    return u, value, grad, da.adapted


class ChainDraws(NamedTuple):
    """What one chain returns: its retained draws, their statistics, and its cost."""

    draws: np.ndarray        # [n_draw, dim], constrained
    accept_stat: np.ndarray  # [n_draw]
    divergent: np.ndarray    # [n_draw] bool
    tree_depth: np.ndarray   # [n_draw] int16
    step_size: float
    mass_diag: np.ndarray    # [dim] Laplace marginal variances, or ones on fallback
    n_grad: np.ndarray       # [2] int64 gradient calls: warmup, sampling
    init_metric: str         # "laplace", or "unit" where the mode search fell back


def run_chain(target, cfg: SamplerConfig, z_center: np.ndarray, chain: int) -> ChainDraws:
    """Warm up and sample chain ``chain`` of ``cfg`` on ``target``.

    The chain samples whitened coordinates ``u`` with ``z = mode + L^-T u``,
    ``L`` the Cholesky factor of the negative Hessian at the posterior mode,
    on the unit metric; it starts at ``u`` uniform on ``[-_LAPLACE_JITTER,
    _LAPLACE_JITTER]`` per coordinate. Where the mode search fails or there
    is no tuning, the map is the identity around ``z_center`` and ``u``
    starts uniform on [-1, 1]. Warmup is one step-size search and dual
    averaging over ``cfg.n_tune`` single leapfrog Metropolis steps, one
    gradient each; sampling runs NUTS at ``MAX_TREE_DEPTH``. Draws are mapped back
    through ``z(u)``, then constrained; ``mass_diag`` is the diagonal of
    ``L^-T L^-1``, the Laplace marginal variances, or ones on fallback. The
    chain is driven by its own counter-based generator keyed on
    ``(cfg.seed, chain)``, so its draws do not depend on which process runs
    it or on what ran before.
    """
    target_value_and_grad = target.value_and_grad
    n_calls = 0

    def value_and_grad(z):
        nonlocal n_calls
        n_calls += 1
        return target_value_and_grad(z)

    dim = z_center.shape[0]
    constrain = getattr(target, "constrain", None)
    # the same for every chain: the search starts from the unjittered centre
    # and draws no random numbers
    laplace = None
    if cfg.n_tune:
        with np.errstate(over="ignore", invalid="ignore"):
            laplace = _laplace(value_and_grad, z_center.tolist())
    if laplace is None:
        identity = [[float(i == j) for j in range(dim)] for i in range(dim)]
        mode, low, spread = z_center.tolist(), identity, 1.0
    else:
        (mode, low), spread = laplace, _LAPLACE_JITTER
    position, pulled_back, variances = _whitening(value_and_grad, mode, low)
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(chain,))
    rng = np.random.Generator(np.random.Philox(seq))
    u0 = spread * rng.uniform(-1.0, 1.0, dim)
    # jittered start may fall off the support; pull it back toward the centre
    for _ in range(30):
        if math.isfinite(pulled_back(u0.tolist())[0]):
            break
        u0 = 0.5 * u0
    u, value, grad, eps = _warmup_chain(pulled_back, u0.tolist(), cfg, rng, chain)
    n_warmup = n_calls

    draws = np.empty((cfg.n_draw, dim))
    accept = np.empty(cfg.n_draw)
    divergent = np.zeros(cfg.n_draw, dtype=bool)
    depth = np.zeros(cfg.n_draw, dtype=np.int16)
    for it in range(cfg.n_draw):
        u, value, grad, info = nuts_draw(u, value, grad, eps, rng, pulled_back)
        z = position(u)
        draws[it] = constrain(z) if constrain is not None else z
        accept[it] = info["accept_stat"]
        divergent[it] = info["divergent"]
        depth[it] = info["depth"]
    return ChainDraws(draws, accept, divergent, depth, eps, np.array(variances),
                      np.array((n_warmup, n_calls - n_warmup), dtype=np.int64),
                      "unit" if laplace is None else "laplace")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# True in a forked fork_map worker, whose own fork_map calls run in-process
_in_worker = False


def _serve(task, indices: range, fd: int, parent: int):
    """Run ``task`` on ``indices`` in a forked worker, write ``(results,
    error)`` pickled to ``fd`` and exit; never returns. The tasks stop at
    the first that raises, whose index and error make up ``error``."""
    global _in_worker
    code = 1
    try:
        _in_worker = True
        # A worker whose caller is killed would run to the end of its tasks
        # for nobody; on Linux the kernel kills it with the caller.
        if sys.platform.startswith("linux"):
            import ctypes
            import signal

            ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the caller died before the prctl
            return
        import pickle

        results, error = [], None
        for i in indices:
            try:
                results.append(task(i))
            except Exception as exc:
                error = (i, exc)
                break
        with open(fd, "wb") as fh:
            pickle.dump((results, error), fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def fork_map(task: Callable[[int], object], n: int) -> list:
    """``[task(0), ..., task(n - 1)]``, computed by forked worker processes.

    ``W = min(n, usable CPUs)`` workers are forked with bare ``os.fork``;
    worker ``w`` runs tasks ``w, w + W, ...`` and sends their results back
    pickled through a pipe. A worker inherits ``task`` from the fork, so the
    task, and whatever it reads, is never pickled. Where ``W`` is 1, where
    the platform cannot fork, or inside a worker, the tasks run in this
    process, in order. Either way the error of the lowest failing task is
    raised; a worker that ends without sending its results raises
    :class:`RuntimeError`. Every worker has ended when ``fork_map`` returns
    or raises, and on Linux the kernel kills the workers if the calling
    process is killed.
    """
    workers = min(n, _usable_cpus())
    if workers <= 1 or _in_worker or not hasattr(os, "fork"):
        return [task(i) for i in range(n)]
    import pickle
    import signal

    parent = os.getpid()
    children = []  # (pid, read end of its pipe), in worker order
    try:
        for w in range(workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _serve(task, range(w, n, workers), write, parent)
            os.close(write)
            children.append((pid, read))
        # errors by task index; a worker that sent nothing fails at its first, w
        results, errors = [None] * n, {}
        for w, (pid, read) in enumerate(children):
            with open(read, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children[w] = (None, read)  # reaped
            if code != 0 or not data:
                errors[w] = RuntimeError(f"fork_map worker {w} (pid {pid}) ended with "
                                         f"exit code {code} before sending its results")
                continue
            done, error = pickle.loads(data)
            results[w:w + workers * len(done):workers] = done
            if error is not None:
                errors[error[0]] = error[1]
        if errors:
            raise errors[min(errors)]
        return results
    finally:
        for pid, read in children:
            os.close(read)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_chains_each(targets, cfg: SamplerConfig) -> list:
    """One :func:`run_chains` trace per target, each of ``cfg.n_chains``
    chains, all drawn by one :func:`fork_map` with a task per (target,
    chain). A target whose chain raises a :class:`GainLossError` gets, in
    place of its trace, the error of its lowest failing chain. The traces
    are the same whatever the number of workers. Chains start from the
    target's preferred initial point, or the origin.
    """
    starts = [np.asarray(target.initial_unconstrained(), dtype=np.float64)
              if hasattr(target, "initial_unconstrained") else np.zeros(target.dim)
              for target in targets]

    def chain(k: int):
        t, c = divmod(k, cfg.n_chains)
        try:
            return run_chain(targets[t], cfg, starts[t], c)
        except GainLossError as exc:
            return exc

    chains = fork_map(chain, len(targets) * cfg.n_chains)
    out = []
    for t, target in enumerate(targets):
        mine = chains[t * cfg.n_chains:(t + 1) * cfg.n_chains]
        failed = [c for c in mine if isinstance(c, GainLossError)]
        out.append(failed[0] if failed else _stack(target, cfg, mine))
    return out


def _stack(target, cfg: SamplerConfig, chains: list) -> Trace:
    """The trace of ``target`` from its chains' :class:`ChainDraws`, in chain order."""
    names = tuple(getattr(target, "param_names",
                          tuple(f"param_{k}" for k in range(target.dim))))
    # one [n_chains, ...] array per ChainDraws field
    columns = dict(zip(ChainDraws._fields, zip(*chains)))
    init_metric = columns.pop("init_metric")
    return Trace(param_names=names, init_metric=init_metric, config=cfg,
                 **{name: np.stack(column) for name, column in columns.items()})


def run_chains(target, cfg: SamplerConfig) -> Trace:
    """Run ``cfg.n_chains`` independent NUTS chains on ``target``.

    Each chain is one :func:`run_chain` call and one :func:`fork_map` task
    (see :func:`run_chains_each`), so the chains run in forked workers, one
    per usable CPU up to the chain count, or in this process; the trace is
    the same either way. Raises the error of the lowest failing chain, such as
    :class:`AdaptationFailedError` if its warmup stalls.
    """
    trace = run_chains_each([target], cfg)[0]
    if isinstance(trace, GainLossError):
        raise trace
    return trace


def trace_to_csv(trace: Trace, out_dir: Union[str, Path], prefix: str = "trace") -> list[Path]:
    """Write one columnar CSV per chain: chain, draw, parameters, stats."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    header = "chain,draw," + ",".join(trace.param_names) + ",accept_stat,divergent"
    for chain in range(trace.n_chains):
        lines = [header]
        for it in range(trace.n_draw):
            vals = ",".join(f"{v:.10g}" for v in trace.draws[chain, it])
            lines.append(
                f"{chain},{it},{vals},{trace.accept_stat[chain, it]:.6g},"
                f"{int(trace.divergent[chain, it])}"
            )
        path = out / f"{prefix}_chain{chain}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def trace_summary(trace: Trace) -> dict:
    """JSON-ready run summary (config, adaptation results, divergences); its
    ``mass_diag`` is each chain's Laplace marginal variances, or ones on fallback."""
    return {
        "n_chains": trace.n_chains,
        "n_draw": trace.n_draw,
        "n_tune": trace.config.n_tune,
        "seed": trace.config.seed,
        "target_accept": TARGET_ACCEPT,
        "max_tree_depth": MAX_TREE_DEPTH,
        "param_names": list(trace.param_names),
        "step_size": [float(s) for s in trace.step_size],
        "mass_diag": [[float(v) for v in row] for row in trace.mass_diag],
        "mean_accept": [float(a) for a in trace.accept_stat.mean(axis=1)],
        "divergences": [int(d) for d in trace.divergent.sum(axis=1)],
        "mean_tree_depth": [float(d) for d in trace.tree_depth.mean(axis=1)],
        "n_grad": [[int(n) for n in row] for row in trace.n_grad],
        "init_metric": list(trace.init_metric),
    }


def save_trace(trace: Trace, out_dir: Union[str, Path], prefix: str = "trace") -> Path:
    """CSV per chain plus a JSON summary; returns the summary path."""
    out = Path(out_dir)
    trace_to_csv(trace, out, prefix)
    summary_path = out / f"{prefix}_summary.json"
    summary_path.write_text(
        json.dumps(trace_summary(trace), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return summary_path
