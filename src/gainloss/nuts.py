"""No-U-Turn sampler in Laplace-whitened coordinates, with step-size adaptation.

One transition builds a trajectory by repeated binary doubling. Each doubling
builds a subtree of 2^depth leapfrog steps from one end of the trajectory, in
a uniformly random direction. A leaf is one leapfrog step, taken by the
map's compiled ``leaf``, weighted by exp(-(H - H0)); the step-size search
and warmup read their acceptance ratios off the same leaf. One merge rule
extends a tree by a subtree, both for the trajectory and inside the subtree
recursion; only its pick of the proposal differs: biased toward the fresh
subtree, min(1, w_sub / w_tree), at the top level, and multinomial, w_sub /
(w_tree + w_sub), inside a subtree. Doubling stops when either trajectory
end would retrace its path (velocity-based U-turn test), when the energy
error exceeds ``DIVERGENCE_THRESHOLD``, or at ``max_tree_depth`` doublings
past the first (so ``max_tree_depth = 0`` degenerates to a single leapfrog
Metropolis step); sampling runs at ``MAX_TREE_DEPTH``.

Each chain samples ``u`` with ``z = mode + L^-T u``, where ``L L^T = -H`` is
the Cholesky factor of the negative Hessian of the log posterior at its
mode, and pulls gradients back as ``L^-1 g``. Under the Laplace
approximation ``u`` is standard normal, so the sampler always runs on the
unit metric: the map, not warmup draws, absorbs the posterior's scales and
correlations, and it puts the chain in the typical set. So warmup only tunes
the step size: one step-size search, then a flat loop of single leapfrog
Metropolis steps, one per tuning iteration, whose acceptance statistic
min(1, exp(-dH)) drives dual averaging toward ``TARGET_ACCEPT``; the final
step size is its averaged iterate. A step draws and returns exactly what a
depth-0 transition would, without building its tree. ``whitening_map``
finds each target's map once, before its chains run; the search draws no
random numbers, so they can share it. It finds the mode by damped Newton steps from the unjittered
start, with Hessians from central differences of the gradient (2 * dim calls
each), solved in Python floats, not by LAPACK, whose rounding follows the
CPU. The map, the gradient pull-back, the leapfrog leaf, the U-turn test and
the kinetic energy are compiled with the map, once per target, as
straight-line float code unrolled over ``dim``, with the mode and the
nonzero entries of ``L^-1`` written in as constants (a posterior that
factorizes by side has exact zeros across the sides), so a leaf runs no
Python loop and the chains inherit the code through the fork. A chain starts
within ``_LAPLACE_JITTER`` whitened units of the mode: from a unit box
around the unjittered start it would sit hundreds of sds out on a narrow
coordinate. Where the search fails (zero density on its path, a Hessian that
is not negative definite, no convergence within a fixed number of steps), or
where there is no tuning, the map is the identity around the unjittered
start, jittered by [-1, 1]. The trace records which map the chains used.

Chains are independent: chain ``c`` of a run seeded with ``seed`` draws from
a counter-based generator keyed by ``(seed, c)``, so results do not depend on
execution order. ``fork_map`` runs numbered tasks in workers forked with bare
``os.fork``, one per usable CPU up to the task count, and in its own process
when that count is 1 or the platform cannot fork; a worker inherits the
tasks, and the maps they read, from the fork, so nothing goes out to it, and
only its results come back, pickled through a pipe. ``run_chains`` makes
each chain of one target a task, and ``run_chains_each`` each chain of
several targets, so that the chains of a whole scan share one fork. The
trace is bit-identical either way. The workers have ended before
``fork_map`` returns or raises, and on Linux the kernel kills them if the
calling process is killed. The trace holds draws, sampler statistics and
each chain's gradient count only; what is derived from the draws, such as
WAIC, is computed afterwards.

The target is any object with a ``dim`` attribute and a
``value_and_grad(z) -> (logp, grad)`` method in unconstrained coordinates,
taking a list of ``dim`` Python floats and returning a float and a float list
(off-support points must return ``-inf``, not raise). The sampler calls it
once per leapfrog step, a few times at each chain's start and some tens of
times in each target's mode search, so counting its calls counts gradients:
the pull-back counts a chain's, in the process that runs it, and a wrapper
the search's, which chain 0's warmup count includes.
Optional methods ``constrain``, ``param_names`` and
``initial_unconstrained`` refine what the trace records.

Position, momentum and gradient are float lists throughout a chain, so no
ndarray is built per leapfrog step: the kinetic energy, the U-turn test and
the whitening map are summed left to right in Python, each sum from 0.0,
which also keeps them off a BLAS dot, whose summation order, and so whose
rounding, follows the CPU. Only the momentum draw of each transition calls
numpy.

An exploding trajectory overflows; its leaves come out divergent. Python
floats overflow without a warning, and numpy's floating-point errors are
silenced once per warmup (its step-size search included), once per sampling
transition and once per mode search, not once per step; that covers the
target's own arithmetic too.
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

from .errors import AdaptationFailedError, DomainError, GainLossError, outcome

__all__ = [
    "SamplerConfig",
    "Trace",
    "ChainDraws",
    "DIVERGENCE_THRESHOLD",
    "MAX_TREE_DEPTH",
    "TARGET_ACCEPT",
    "nuts_draw",
    "whitening_map",
    "run_chain",
    "run_chains",
    "run_chains_each",
    "fork_map",
    "trace_to_csv",
    "trace_summary",
    "save_trace",
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


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    m = a if a > b else b
    return m + math.log(math.exp(a - m) + math.exp(b - m))


def _energy_error(value: float, kinetic: float, h0: float) -> float:
    """H - H0 at a leaf of log density ``value`` and kinetic energy
    ``kinetic``; a non-finite error counts as +inf."""
    delta_h = (-value + kinetic if math.isfinite(value) else math.inf) - h0
    return delta_h if math.isfinite(delta_h) else math.inf


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


def _merge(tree, sub, direction, rng, biased, turned):
    """Extend ``tree`` by ``sub``, built from its edge in ``direction``; returns ``tree``.

    The acceptance sums always add up. A divergent or turned ``sub`` stops
    the tree and leaves its proposal and edges as they were. Otherwise the
    proposal becomes ``sub``'s with probability min(1, w_sub / w_tree) when
    ``biased`` (the top level of a transition, favouring the fresh subtree)
    or w_sub / (w_tree + w_sub) (inside a subtree), the uniform drawn only
    where the total weight is positive; the far edge moves to ``sub``'s, and
    the tree has turned if its new ends would move back inward, by the
    map's compiled U-turn test ``turned``.
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
    tree.turned = turned(tree.left, tree.right)
    return tree


def _build_subtree(edge, direction, depth, eps, h0, whitening, rng):
    """Build a subtree of 2**depth leaves from a trajectory edge ``(u, p, grad)``.

    A leaf is one call of the map's compiled ``leaf``. Its log weight is
    -(H - H0), its acceptance statistic min(1, exp(H0 - H)), and it is
    divergent where H - H0 exceeds ``DIVERGENCE_THRESHOLD``; a non-finite
    energy error counts as +inf, so the log weight is finite or -inf. A leaf
    draws no random numbers. A deeper subtree merges its two halves with a
    multinomial pick.
    """
    if depth == 0:
        u1, p1, v1, g1, k1 = whitening.leaf(*edge, direction * eps)
        delta_h = _energy_error(v1, k1, h0)
        leaf = _TreeState(u1, p1, g1, v1)
        leaf.log_weight = -delta_h
        leaf.sum_alpha = math.exp(-delta_h) if delta_h > 0.0 else 1.0
        leaf.n_alpha = 1
        leaf.divergent = delta_h > DIVERGENCE_THRESHOLD
        return leaf

    tree = _build_subtree(edge, direction, depth - 1, eps, h0, whitening, rng)
    if tree.divergent or tree.turned:
        return tree
    sub = _build_subtree(tree.right if direction > 0 else tree.left, direction,
                         depth - 1, eps, h0, whitening, rng)
    return _merge(tree, sub, direction, rng, False, whitening.turned)


def nuts_draw(u, value, grad, eps, rng, whitening, max_tree_depth: int = MAX_TREE_DEPTH):
    """One NUTS transition from (u, value, grad) in the coordinates of
    ``whitening``, a :func:`whitening_map`, whose ``pulled_back`` gave
    ``value`` and ``grad`` at ``u``.

    Returns ``(u, value, grad, info)`` where info carries ``accept_stat``
    (mean Metropolis statistic over evaluated leaves, in (0, 1]),
    ``divergent``, and ``depth`` (number of doublings performed).
    """
    # silence overflow on exploding trajectories once for the transition
    with np.errstate(over="ignore", invalid="ignore"):
        p0 = rng.standard_normal(len(u)).tolist()
        h0 = -value + whitening.kinetic(p0)
        tree = _TreeState(u, p0, grad, value)  # the start enters with weight exp(0)
        depth = 0
        for depth in range(max_tree_depth + 1):
            direction = 1 if rng.random() < 0.5 else -1
            sub = _build_subtree(tree.right if direction > 0 else tree.left, direction,
                                 depth, eps, h0, whitening, rng)
            _merge(tree, sub, direction, rng, True, whitening.turned)
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


def _find_reasonable_eps(u, value, grad, rng, whitening) -> float:
    """Double or halve eps from 1 until one leaf's acceptance ratio crosses
    1/2, or eps reaches 1e-10 or 1e7."""
    p = rng.standard_normal(len(u)).tolist()
    h0 = -value + whitening.kinetic(p)
    eps, direction = 1.0, 0.0
    while True:
        _, _, v1, _, k1 = whitening.leaf(u, p, grad, eps)
        log_ratio = -_energy_error(v1, k1, h0)
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


def _dot(terms) -> str:
    """Source of ``0.0 + w * x + ...`` over the (weight, name) pairs with a
    nonzero weight, which Python sums left to right from 0.0. A weight is
    its ``repr``, which reads back as the same float."""
    return " + ".join(["0.0"] + [f"{w!r} * {x}" for w, x in terms if w != 0.0])


def _whitening(value_and_grad, mode: list[float], low: list[list[float]]):
    """The map ``z(u) = mode + L^-T u``, the target pulled back through it,
    and the leapfrog leaf, U-turn test and kinetic energy in ``u``.

    Returns ``(position, pulled_back, leaf, turned, kinetic, variances)``:

    - ``position(u)`` is z(u);
    - ``pulled_back(u)`` is ``(logp(z(u)), L^-1 grad)``, the log density in
      ``u`` up to the constant log |det L^-T|;
    - ``leaf(u, p, g, eps)`` is one unit-metric leapfrog step from ``u``,
      momentum ``p`` and pulled-back gradient ``g``: a half-kick, the drift,
      ``pulled_back`` at the new ``u`` and a second half-kick. It returns
      ``(u', p', value, g', kinetic(p'))``; a drift that overflows returns
      ``(u, p, -inf, zeros, kinetic(p))`` and calls nothing;
    - ``turned(left, right)`` is the U-turn test on two trajectory edges
      ``(u, p, g)``: whether either end would move back inward;
    - ``kinetic(p)`` is p.p / 2, or inf where that is not finite;
    - ``variances`` is the diagonal of L^-T L^-1.

    The functions are straight-line float code, compiled here once and
    unrolled over ``dim``, with the mode and the nonzero entries of L^-1
    (its columns for the position, its rows for the gradient) written in as
    constants; each sum starts at 0.0 and adds left to right, so no BLAS
    dot, whose order follows the CPU, rounds it. A position that overflows
    is off the support, has log density -inf and zero gradient, and calls
    nothing; ``pulled_back.calls[0]`` counts the calls of
    ``value_and_grad``, the leaf's included.
    """
    inv = _lower_inverse(low)
    dim = len(mode)
    # u, p, g: the leaf's arguments; q, w: its momentum and position; z, y:
    # the target's position and gradient; r: the pulled-back gradient; a, b
    # and c, e: the position and momentum of the left and right edges
    u, p, g, q, w, z, y, r, a, b, c, e = ([f"{name}{k}" for k in range(dim)]
                                          for name in "upgqwzyrabce")
    names = ", ".join

    def finite(xs):
        return " and ".join(f"-inf < {x} < inf" for x in xs)

    def z_of(xs):  # z(x) = mode + L^-T x
        return [f"{mode[k]!r} + ({_dot((inv[i][k], xs[i]) for i in range(k, dim))})"
                for k in range(dim)]

    def pull_back(xs):  # L^-1 x
        return [_dot((inv[i][j], xs[j]) for j in range(i + 1)) for i in range(dim)]

    def dot(xs, ys):
        return " + ".join(["0.0"] + [f"{x} * {y}" for x, y in zip(xs, ys)])

    dz = [f"({ck} - {ak})" for ak, ck in zip(a, c)]

    source = "\n".join([
        "def position(u):",
        f"    {names(u)}, = u",
        f"    return [{names(z_of(u))}]",
        "def pulled_back(u):",
        f"    {names(u)}, = u",
        *(f"    {zk} = {expr}" for zk, expr in zip(z, z_of(u))),
        f"    if not ({finite(z)}):",
        f"        return -inf, [0.0] * {dim}",
        "    calls[0] += 1",
        f"    value, ({names(g)},) = value_and_grad([{names(z)}])",
        f"    return value, [{names(pull_back(g))}]",
        "def kinetic(p):",
        f"    {names(p)}, = p",
        f"    k = 0.5 * ({dot(p, p)})",
        "    return k if k < inf else inf",
        "def turned(left, right):",
        f"    ({names(a)},), ({names(b)},), _ = left",
        f"    ({names(c)},), ({names(e)},), _ = right",
        f"    return {dot(dz, b)} < 0.0 or {dot(dz, e)} < 0.0",
        "def leaf(u, p, g, eps):",
        f"    {names(u)}, = u",
        f"    {names(p)}, = p",
        f"    {names(g)}, = g",
        "    half = 0.5 * eps",
        *(f"    {qk} = {pk} + half * {gk}" for qk, pk, gk in zip(q, p, g)),
        *(f"    {wk} = {uk} + eps * {qk}" for wk, uk, qk in zip(w, u, q)),
        f"    if not ({finite(w)}):",
        f"        return u, p, -inf, [0.0] * {dim}, kinetic(p)",
        *(f"    {zk} = {expr}" for zk, expr in zip(z, z_of(w))),
        f"    if {finite(z)}:",
        "        calls[0] += 1",
        f"        value, ({names(y)},) = value_and_grad([{names(z)}])",
        *(f"        {rk} = {expr}" for rk, expr in zip(r, pull_back(y))),
        "    else:",
        "        value = -inf",
        f"        {' = '.join(r)} = 0.0",
        *(f"    {qk} = {qk} + half * {rk}" for qk, rk in zip(q, r)),
        f"    k = 0.5 * ({dot(q, q)})",
        f"    return [{names(w)}], [{names(q)}], value, [{names(r)}], k if k < inf else inf",
    ])
    scope = {"value_and_grad": value_and_grad, "calls": [0], "inf": math.inf, "nan": math.nan}
    exec(compile(source, "<whitening>", "exec"), scope)
    scope["pulled_back"].calls = scope["calls"]
    variances = [math.fsum(inv[i][k] * inv[i][k] for i in range(k, dim)) for k in range(dim)]
    return (*(scope[name] for name in ("position", "pulled_back", "leaf", "turned", "kinetic")),
            variances)


def _metropolis_step(u, value, grad, eps, rng, whitening):
    """One leapfrog Metropolis step from (u, value, grad): returns ``(u,
    value, grad, accept_stat)``, as ``nuts_draw(..., max_tree_depth=0)``
    returns them with ``info["accept_stat"]``, without building its tree.

    It draws what that transition draws, in its order: the momentum, the
    direction's uniform, then, unless the leaf is divergent, the uniform
    that accepts it. The caller silences floating-point errors.
    """
    p = rng.standard_normal(len(u)).tolist()
    h0 = -value + whitening.kinetic(p)
    u1, _, v1, g1, k1 = whitening.leaf(u, p, grad, eps if rng.random() < 0.5 else -eps)
    delta_h = _energy_error(v1, k1, h0)
    alpha = math.exp(-delta_h) if delta_h > 0.0 else 1.0
    if delta_h <= DIVERGENCE_THRESHOLD and math.log(rng.random()) < -delta_h:
        return u1, v1, g1, alpha
    return u, value, grad, alpha


def _warmup_chain(whitening, u, cfg: SamplerConfig, rng, chain: int):
    """One step-size search from ``u``, then ``cfg.n_tune`` single leapfrog
    Metropolis steps on the unit metric, each feeding its acceptance
    statistic min(1, exp(-dH)) to dual averaging of the step size; returns
    (u, value, grad, eps)."""
    value, grad = whitening.pulled_back(u)
    if not math.isfinite(value):
        raise DomainError(f"chain {chain}: initial point has zero posterior density")
    # silence overflow on exploding trajectories once for the whole warmup
    with np.errstate(over="ignore", invalid="ignore"):
        eps = _find_reasonable_eps(u, value, grad, rng, whitening)
        if cfg.n_tune == 0:
            return u, value, grad, 0.5 * eps
        da = _DualAveraging(eps, TARGET_ACCEPT)
        alphas = []
        for _ in range(cfg.n_tune):
            u, value, grad, alpha = _metropolis_step(u, value, grad, eps, rng, whitening)
            alphas.append(alpha)
            eps = da.update(alpha)
    mean_tail = float(np.mean(alphas[-100:]))
    if mean_tail < _MIN_ACCEPT:
        raise AdaptationFailedError(chain, mean_tail)
    return u, value, grad, da.adapted


class WhiteningMap(NamedTuple):
    """One target's map ``z(u) = mode + L^-T u``, found once and shared by its
    chains, with the leapfrog step compiled for it (see :func:`_whitening`)."""

    position: Callable[[list[float]], list[float]]  # z(u)
    pulled_back: Callable  # u -> (logp(z(u)), L^-1 grad); its calls[0] counts gradients
    leaf: Callable         # (u, p, g, eps) -> (u', p', logp, g', kinetic): one leapfrog step
    turned: Callable       # (left, right) edges (u, p, g) -> whether the trajectory turned
    kinetic: Callable      # p -> p.p / 2
    mass_diag: np.ndarray  # [dim] Laplace marginal variances, or ones on fallback
    init_metric: str       # "laplace", or "unit" where the mode search fell back
    n_search: int          # gradient calls of the mode search


def whitening_map(target, cfg: SamplerConfig) -> WhiteningMap:
    """The map through which every chain of ``cfg`` on ``target`` samples.

    The mode search climbs from the target's preferred initial point, or the
    origin; where it fails, or with no tuning, the map is the identity
    around that point. The search draws no random numbers, so one map
    serves every chain.
    """
    start = (np.asarray(target.initial_unconstrained(), dtype=np.float64).tolist()
             if hasattr(target, "initial_unconstrained") else [0.0] * target.dim)
    n_search = 0

    def search_value_and_grad(z):
        nonlocal n_search
        n_search += 1
        return target.value_and_grad(z)

    with np.errstate(over="ignore", invalid="ignore"):
        laplace = _laplace(search_value_and_grad, start) if cfg.n_tune else None
    mode, low = laplace or (start, [[float(i == j) for j in range(len(start))]
                                    for i in range(len(start))])
    *compiled, variances = _whitening(target.value_and_grad, mode, low)
    return WhiteningMap(*compiled, np.array(variances),
                        "unit" if laplace is None else "laplace", n_search)


class ChainDraws(NamedTuple):
    """What one chain returns: its retained draws, their statistics, and its cost."""

    draws: np.ndarray        # [n_draw, dim], constrained
    accept_stat: np.ndarray  # [n_draw]
    divergent: np.ndarray    # [n_draw] bool
    tree_depth: np.ndarray   # [n_draw] int16
    step_size: float
    n_grad: np.ndarray       # [2] int64 gradient calls: warmup, sampling


def run_chain(target, cfg: SamplerConfig, whitening: WhiteningMap, chain: int) -> ChainDraws:
    """Warm up and sample chain ``chain`` of ``cfg`` on ``target`` in the
    coordinates ``u`` of ``whitening``, the target's :func:`whitening_map`.

    The chain starts at ``u`` uniform on ``[-_LAPLACE_JITTER,
    _LAPLACE_JITTER]`` per coordinate, or on [-1, 1] on the identity map.
    Warmup is one step-size search and dual averaging over ``cfg.n_tune``
    single leapfrog Metropolis steps, one gradient each; sampling runs NUTS
    at ``MAX_TREE_DEPTH`` on the unit metric. Draws are mapped back through
    ``z(u)``, then constrained. Chain 0's warmup count includes the map's
    search. The chain is driven by its own counter-based generator keyed on
    ``(cfg.seed, chain)``, so its draws do not depend on which process runs
    it or on what ran before.
    """
    pulled_back, calls = whitening.pulled_back, whitening.pulled_back.calls
    counted = calls[0] - (whitening.n_search if chain == 0 else 0)
    dim = whitening.mass_diag.shape[0]
    constrain = getattr(target, "constrain", None)
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(chain,))
    rng = np.random.Generator(np.random.Philox(seq))
    spread = _LAPLACE_JITTER if whitening.init_metric == "laplace" else 1.0
    u0 = spread * rng.uniform(-1.0, 1.0, dim)
    # jittered start may fall off the support; pull it back toward the centre
    for _ in range(30):
        if math.isfinite(pulled_back(u0.tolist())[0]):
            break
        u0 = 0.5 * u0
    u, value, grad, eps = _warmup_chain(whitening, u0.tolist(), cfg, rng, chain)
    n_warmup = calls[0] - counted

    draws = np.empty((cfg.n_draw, dim))
    accept = np.empty(cfg.n_draw)
    divergent = np.zeros(cfg.n_draw, dtype=bool)
    depth = np.zeros(cfg.n_draw, dtype=np.int16)
    for it in range(cfg.n_draw):
        u, value, grad, info = nuts_draw(u, value, grad, eps, rng, whitening)
        z = whitening.position(u)
        draws[it] = constrain(z) if constrain is not None else z
        accept[it] = info["accept_stat"]
        divergent[it] = info["divergent"]
        depth[it] = info["depth"]
    return ChainDraws(draws, accept, divergent, depth, eps,
                      np.array((n_warmup, calls[0] - counted - n_warmup), dtype=np.int64))


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
    chain), after each target's :func:`whitening_map` is found here. A
    target whose map or chain raises a :class:`GainLossError` gets that
    error, or its lowest failing chain's, in place of its trace. The traces
    are the same whatever the number of workers.
    """
    maps = [outcome(whitening_map, target, cfg) for target in targets]
    tasks = [(target, cfg, whitening, c) for target, whitening in zip(targets, maps)
             if not isinstance(whitening, GainLossError) for c in range(cfg.n_chains)]
    chains = iter(fork_map(lambda k: outcome(run_chain, *tasks[k]), len(tasks)))
    traces = []
    for target, whitening in zip(targets, maps):
        if isinstance(whitening, GainLossError):
            traces.append(whitening)
            continue
        mine = [next(chains) for _ in range(cfg.n_chains)]
        failed = [c for c in mine if isinstance(c, GainLossError)]
        traces.append(failed[0] if failed else _stack(target, cfg, whitening, mine))
    return traces


def _stack(target, cfg: SamplerConfig, whitening: WhiteningMap, chains: list) -> Trace:
    """The trace of ``target`` from its chains' :class:`ChainDraws`, in chain order."""
    names = tuple(getattr(target, "param_names",
                          tuple(f"param_{k}" for k in range(target.dim))))
    # one [n_chains, ...] array per ChainDraws field
    columns = zip(ChainDraws._fields, zip(*chains))
    return Trace(param_names=names, config=cfg,
                 mass_diag=np.stack([whitening.mass_diag] * len(chains)),
                 init_metric=(whitening.init_metric,) * len(chains),
                 **{name: np.stack(column) for name, column in columns})


def run_chains(target, cfg: SamplerConfig) -> Trace:
    """Run ``cfg.n_chains`` independent NUTS chains on ``target``.

    The trace is :func:`run_chains_each`'s, whose chains run in forked
    workers, one per usable CPU up to the chain count, or in this process,
    with the same result. Raises the error of the map or of the lowest
    failing chain, such as :class:`AdaptationFailedError` if its warmup stalls.
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
    """JSON-ready run summary (config, adaptation results, divergences); each
    ``mass_diag`` row is the Laplace variances of the chains' map, or ones."""
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
