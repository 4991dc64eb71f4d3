"""One-draw densities of the two per-side families: the oracles of the
batched log likelihoods that ``gainloss.models`` computes for WAIC.

Each takes one parameter vector and evaluates its density at every value of
``x`` with the per-draw constants in Python floats and the rest elementwise
in numpy, the rounding that each family's ``loglik`` must reproduce bit for
bit.
"""

import math

import numpy as np

from gainloss.errors import DomainError
from gainloss.models import ModelKind, _lgamma


def student_logpdf(x, mu: float, sigma: float, nu: float):
    """Log density of the location-scale Student-t (sigma is the scale)."""
    if sigma <= 0.0 or nu <= 0.0:
        raise DomainError(f"sigma and nu must be positive, got {sigma}, {nu}")
    x = np.asarray(x, dtype=np.float64)
    t2 = ((x - mu) / sigma) ** 2
    out = (
        _lgamma((nu + 1.0) / 2.0)
        - _lgamma(nu / 2.0)
        - 0.5 * math.log(math.pi * nu)
        - math.log(sigma)
        - 0.5 * (nu + 1.0) * np.log1p(t2 / nu)
    )
    return out if out.shape else float(out)


def invgamma_logpdf(x, alpha: float, beta: float):
    """Log density of InverseGamma(shape alpha, rate beta) at x > 0."""
    if alpha <= 0.0 or beta <= 0.0:
        raise DomainError(f"alpha and beta must be positive, got {alpha}, {beta}")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise DomainError("inverse gamma density is defined only for x > 0")
    out = alpha * math.log(beta) - _lgamma(alpha) - (alpha + 1.0) * np.log(x) - beta / x
    return out if out.shape else float(out)


def ig_shape_rate(m: float, s: float) -> tuple[float, float]:
    """Map (mean m, std s) to (shape alpha, rate beta); both moments positive."""
    if m <= 0.0 or s <= 0.0:
        raise DomainError(f"mean and std must be positive, got {m}, {s}")
    alpha = 2.0 + (m * m) / (s * s)
    beta = m * (alpha - 1.0)
    return alpha, beta


def ig_moments(alpha: float, beta: float) -> tuple[float, float]:
    """Inverse of :func:`ig_shape_rate`; needs alpha > 2 for a finite std."""
    if alpha <= 2.0 or beta <= 0.0:
        raise DomainError(f"need alpha > 2 and beta > 0, got {alpha}, {beta}")
    m = beta / (alpha - 1.0)
    s = beta / ((alpha - 1.0) * math.sqrt(alpha - 2.0))
    return m, s


# one side's density at each value of x under that side's parameters theta,
# by model kind
SIDE_LOGPDF = {
    ModelKind.STUDENT_T: lambda x, theta: student_logpdf(x, *theta),
    ModelKind.INV_GAMMA: lambda x, theta: invgamma_logpdf(x, *ig_shape_rate(*theta)),
}
