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

Each chain samples ``u`` through its target's
:func:`~gainloss.laplace.whitening_map`, ``z = mode + L^-T u`` with ``L L^T
= -H`` at the posterior mode. Under the Laplace approximation ``u`` is
standard normal, so the sampler always runs on the unit metric: the map, not
warmup draws, absorbs the posterior's scales and correlations, and it puts
the chain in the typical set. So warmup only tunes the step size: one
step-size search, then a flat loop of single leapfrog Metropolis steps, one
per tuning iteration, whose acceptance statistic min(1, exp(-dH)) drives dual
averaging toward ``TARGET_ACCEPT``; the final step size is its averaged
iterate. A step draws and returns exactly what a depth-0 transition would,
without building its tree. A chain starts within ``_LAPLACE_JITTER``
whitened units of the mode: from a unit box around the unjittered start it
would sit hundreds of sds out on a narrow coordinate. On the identity map,
where the mode search failed or there is no tuning, it starts jittered by
[-1, 1] around the unjittered start. The trace records which map the chains
used.

Chains are independent: chain ``c`` of a run seeded with ``seed`` draws from
a counter-based generator keyed by ``(seed, c)``, so results do not depend on
execution order. ``run_chains`` makes each chain of one target a
:func:`~gainloss.workers.fork_map` task, and ``run_chains_each`` each chain
of several targets, so that the chains of a whole scan share one fork. Each
target's map is found first, once, in the calling process, and the workers
inherit it. The trace is bit-identical however many workers run it. The
trace holds draws, sampler statistics and each chain's gradient count only;
what is derived from the draws, such as WAIC, is computed afterwards.

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
ndarray is built per leapfrog step, and the map's compiled code sums them in
Python, off any BLAS dot. Only the momentum draw of each transition calls
numpy.

An exploding trajectory overflows; its leaves come out divergent. Python
floats overflow without a warning, and numpy's floating-point errors are
silenced once per warmup (its step-size search included) and once per
sampling transition, not once per step; that covers the target's own
arithmetic too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Union

import numpy as np

from .errors import AdaptationFailedError, DomainError, GainLossError, outcome
from .laplace import WhiteningMap, whitening_map
from .workers import fork_map

__all__ = [
    "SamplerConfig",
    "Trace",
    "ChainDraws",
    "DIVERGENCE_THRESHOLD",
    "MAX_TREE_DEPTH",
    "TARGET_ACCEPT",
    "nuts_draw",
    "run_chain",
    "run_chains",
    "run_chains_each",
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
_LAPLACE_JITTER = 2.0  # start radius around the mode, in whitened units


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
    ``whitening``, a :func:`~gainloss.laplace.whitening_map`, whose
    ``pulled_back`` gave ``value`` and ``grad`` at ``u``.

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
    coordinates ``u`` of ``whitening``, the target's
    :func:`~gainloss.laplace.whitening_map`.

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


def run_chains_each(targets, cfg: SamplerConfig) -> list:
    """One :func:`run_chains` trace per target, each of ``cfg.n_chains``
    chains, all drawn by one :func:`~gainloss.workers.fork_map` with a task
    per (target, chain), after each target's
    :func:`~gainloss.laplace.whitening_map` is found here. A target whose
    map or chain raises a :class:`GainLossError` gets that error, or its
    lowest failing chain's, in place of its trace; an entry that already is
    a :class:`GainLossError` is returned as it is. The traces are the same
    whatever the number of workers.
    """
    maps = [target if isinstance(target, GainLossError)
            else outcome(whitening_map, target, search=cfg.n_tune > 0) for target in targets]
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
    """One CSV per chain, a row per draw (chain, draw, parameters, stats),
    and the :func:`trace_summary` as JSON, under ``out_dir``, which is made
    if missing; returns the summary path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = "chain,draw," + ",".join(trace.param_names) + ",accept_stat,divergent"
    for chain in range(trace.n_chains):
        lines = [header]
        for it in range(trace.n_draw):
            vals = ",".join(f"{v:.10g}" for v in trace.draws[chain, it])
            lines.append(
                f"{chain},{it},{vals},{trace.accept_stat[chain, it]:.6g},"
                f"{int(trace.divergent[chain, it])}"
            )
        (out / f"{prefix}_chain{chain}.csv").write_text("\n".join(lines) + "\n",
                                                       encoding="utf-8")
    summary_path = out / f"{prefix}_summary.json"
    summary_path.write_text(
        json.dumps(trace_summary(trace), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return summary_path
