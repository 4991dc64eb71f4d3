"""Generic leapfrog step, kinetic energy and U-turn test: the oracles of the
code that ``gainloss.nuts`` compiles for each target's whitening map.

Each runs a Python loop over the coordinates, in the order and with the
rounding that the compiled code must reproduce bit for bit: every argument
and result is a list of Python floats, and every sum starts at 0.0 and adds
left to right.
"""

import math
from typing import Callable


def leapfrog(
    z: list[float],
    p: list[float],
    grad: list[float],
    eps: float,
    value_and_grad: Callable[[list[float]], tuple[float, list[float]]],
) -> tuple[list[float], list[float], float, list[float]]:
    """One unit-metric half-kick / drift / half-kick step; grad is d(logp)/dz at z.

    Python floats overflow to inf without a warning and round like numpy's
    elementwise operations.
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


def kinetic(p: list[float]) -> float:
    """p.p / 2 summed left to right, or inf where that is not finite (an
    unstable trajectory's momenta can blow up; the leaf is then divergent)."""
    k = 0.0
    for pk in p:
        k += pk * pk
    k *= 0.5
    return k if math.isfinite(k) else math.inf


def turned(left_edge, right_edge) -> bool:
    """U-turn test on velocities: would either end start moving back inward?"""
    (z_left, p_left, _), (z_right, p_right, _) = left_edge, right_edge
    left = right = 0.0
    for zl, pl, zr, pr in zip(z_left, p_left, z_right, p_right):
        dz = zr - zl
        left += dz * pl
        right += dz * pr
    return left < 0.0 or right < 0.0
