"""The Laplace whitening map of a target, found once and compiled for its chains.

``whitening_map`` finds the mode of the log posterior by damped Newton steps
from the target's unjittered start, with Hessians from central differences of
the gradient (2 * dim calls each), solved in Python floats, not by LAPACK,
whose rounding follows the CPU. With ``L L^T = -H`` the Cholesky factor of
the negative Hessian there, the map is ``z = mode + L^-T u`` and gradients
pull back as ``L^-1 g``; under the Laplace approximation ``u`` is standard
normal. The search draws no random numbers, so one map serves every chain of
a target. Where the search fails (zero density on its path, a Hessian that
is not negative definite, no convergence within a fixed number of steps), or
is not asked for, the map is the identity around the start, and
``init_metric`` records which map it is. numpy's floating-point errors are
silenced once per search, which covers the target's own arithmetic too.

The map, the gradient pull-back, the leapfrog leaf, the U-turn test and the
kinetic energy are compiled with the map, once per target, as straight-line
float code unrolled over ``dim``, with the mode and the nonzero entries of
``L^-1`` written in as constants (a posterior that factorizes by side has
exact zeros across the sides), so a leaf runs no Python loop and chains in
forked workers inherit the code through the fork. Each sum starts at 0.0 and
adds left to right, which keeps it off a BLAS dot, whose summation order,
and so whose rounding, follows the CPU.

The target is the sampler's: a ``dim`` attribute and a ``value_and_grad(z)
-> (logp, grad)`` method on float lists, which returns ``-inf`` off the
support. Its ``initial_unconstrained()``, where it has one, is the start,
and the origin otherwise.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Union

import numpy as np

__all__ = ["WhiteningMap", "whitening_map"]

_MODE_ITERS = 30      # Newton steps before the search gives up
_MODE_HALVINGS = 30   # step halvings before a Newton step gives up
_MODE_TOL = 1e-8      # Newton decrement g^T (-H)^-1 g at which the mode is found
_MODE_MAX_STEP = 1.0  # longest move of one coordinate in one Newton step
_HESSIAN_STEP = 1e-4  # central-difference step of the Hessian in each coordinate


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


def whitening_map(target, *, search: bool) -> WhiteningMap:
    """The map through which every chain on ``target`` samples.

    With ``search``, the mode search climbs from the target's preferred
    initial point, or the origin; where it fails, or without ``search``,
    the map is the identity around that point. The search draws no random
    numbers, so one map serves every chain.
    """
    start = (np.asarray(target.initial_unconstrained(), dtype=np.float64).tolist()
             if hasattr(target, "initial_unconstrained") else [0.0] * target.dim)
    n_search = 0

    def search_value_and_grad(z):
        nonlocal n_search
        n_search += 1
        return target.value_and_grad(z)

    with np.errstate(over="ignore", invalid="ignore"):
        found = _laplace(search_value_and_grad, start) if search else None
    mode, low = found or (start, [[float(i == j) for j in range(len(start))]
                                  for i in range(len(start))])
    *compiled, variances = _whitening(target.value_and_grad, mode, low)
    return WhiteningMap(*compiled, np.array(variances),
                        "unit" if found is None else "laplace", n_search)
