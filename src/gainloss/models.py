"""Per-side model families for log hitting times, joined into one posterior.

The gain-side and loss-side log hitting times x = ln tau are treated as
exchangeable draws from one parametric family, with an independent parameter
block per side: a two-group comparison in the style of Kruschke's BEST. The
two families are two rows of one table; everything else (coordinate maps,
posterior, effect size, report) is shared.

    family      per-side parameters   data support   location   scale
    student-t   mu, sigma, nu         all x          mu         sigma
    inv-gamma   m, s                  x > 0          m          s

The Student-t block is x ~ StudentT(mu, sigma, nu). The Inverse-Gamma block
is parameterized by its own mean m and standard deviation s through

    alpha = 2 + m^2 / s^2,   beta = m * (alpha - 1),

so that mean(IG(alpha, beta)) = m and std = s. Priors per side, with m_emp
and s_emp the empirical mean and std of that side:

    location ~ Normal(m_emp, s_emp^2)     restricted to m > 0 for inv-gamma
    scale    ~ Uniform(1, 100)
    nu       ~ 1 + Exponential(rate 1/29) mean 30, support nu > 1

The truncation constant of the inv-gamma location prior is dropped, which
only shifts the log posterior by a constant. Only the location prior depends
on the data, so a :class:`ModelSpec` holds the family and one
:class:`SidePrior` (m_emp, s_emp) per side; the scale bounds and the nu prior
are the constants ``SIGMA_LOW``, ``SIGMA_HIGH``, ``NU_RATE`` and ``NU_SHIFT``.

Hitting times are integers, so each side holds few distinct values. A side is
stored once as (distinct value, count) pairs, and a family's ``prepare``
reduces both sides' pairs to what its likelihood reads: for the Student-t,
the pairs of both sides laid end to end with work buffers for the kernel
below; for the Inverse-Gamma, (n, sum c ln x, sum c / x) per side, whose
gradient is then O(1) in the data. A family's ``value_grad`` takes both
sides at once. WAIC reads the same pairs, through a :class:`LoglikMatrix`
and ``counts``.

Log-gamma and digamma are only ever taken of one float, so they come from
the ``math`` module and not from scipy, whose import would take most of the
start-up time of every CLI call. Log-gamma is ``math.lgamma``; the digamma
lifts its argument to 10 or more by recurrence, then sums the asymptotic
series. Both stay within 4e-15 of scipy's ``gammaln`` and ``digamma``
(relative to the larger of 1 and the value), so the posterior differs from a
scipy-based one only in the last bits. Fitting needs numpy alone.

Sampling happens in unconstrained coordinates. The support (low, high) of
each parameter picks its map: identity when unbounded, a scaled logit on an
interval, a shifted log above a lower bound; the log Jacobian of the map is
added to the density. All gradients are analytic.

A posterior has at most six coordinates, so the map runs on Python floats,
one coordinate at a time, from (index, low, width) specs that
``Posterior.__init__`` lists once; the one transform serves
``value_and_grad`` and ``constrain``. ``value_and_grad`` takes and returns
float lists, the sampler's protocol, so a gradient builds no array beyond
the small numpy calls named next and the Student-t kernel. That kernel
fills one [3, k] buffer, k the distinct values of both sides, with
c log(a^2 + s2), q a and q a^2 (a = x - mu, s2 = nu sigma^2 and q =
c / (a^2 + s2)), by ten array calls for both sides, four of them on one
side's columns, where mu and s2 differ; then one ``np.add.reduce`` a side
sums that side's columns, so each sum rounds as on its side alone. The
buffers are allocated once per posterior, which therefore serves one caller
at a time. The map rounds exactly as elementwise numpy does: the logistic
function is 1 / (1 + exp(-z)) with ``math.exp``, as scipy's ``expit``
computes it, while the shifted log's exp and the log Jacobian's sum of logs
stay numpy calls, whose vectorized results can differ from ``math.exp`` and
``math.log`` in the last bit. The exp is one call a coordinate: on a Python
float numpy takes a scalar path that costs less than one array call on two.

The report's log likelihoods are computed per side and vectorized over
draws: a family's ``loglik`` takes each draw's constants (log-gamma and
logs) once, in Python floats, and applies elementwise numpy operations to a
block of values, one float64 row per value and one column per draw, so each
entry equals the one-draw density of the tests' oracle
(``tests/models_oracle.py``) bit for bit. A :class:`LoglikMatrix` hands
those rows out a block at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EmptySideError, NonFiniteError, ZeroVarianceError

__all__ = [
    "ModelKind",
    "SidePrior",
    "ModelSpec",
    "Family",
    "FAMILIES",
    "Posterior",
    "LoglikMatrix",
]

SIGMA_LOW = 1.0
SIGMA_HIGH = 100.0
NU_RATE = 1.0 / 29.0
NU_SHIFT = 1.0
NU_INIT = 30.0


class ModelKind(str, enum.Enum):
    STUDENT_T = "student-t"
    INV_GAMMA = "inv-gamma"

    def __str__(self) -> str:  # keep CLI/report output free of enum repr
        return self.value


@dataclass(frozen=True)
class SidePrior:
    """Center ``m`` and width ``s`` of one side's Normal location prior."""

    m: float
    s: float


@dataclass(frozen=True)
class ModelSpec:
    """A model family and its two side priors, gain side first."""

    kind: ModelKind
    priors: tuple[SidePrior, SidePrior]

    @classmethod
    def from_data(cls, kind: ModelKind, x_plus: np.ndarray,
                  x_minus: np.ndarray) -> "ModelSpec":
        """Center each side's location prior on that side's empirical moments."""
        if x_plus.size < 2 or x_minus.size < 2:
            raise EmptySideError(
                "priors need at least two observations per side, got "
                f"{x_plus.size} and {x_minus.size}"
            )
        s_plus = float(np.std(x_plus, ddof=1))
        s_minus = float(np.std(x_minus, ddof=1))
        for side, s in (("gain", s_plus), ("loss", s_minus)):
            if not (math.isfinite(s) and s > 0.0):
                raise ZeroVarianceError(
                    f"{side}-side log hitting times have std {s}; the location "
                    "prior needs a positive, finite spread"
                )
        return cls(kind, (SidePrior(float(np.mean(x_plus)), s_plus),
                          SidePrior(float(np.mean(x_minus)), s_minus)))


# ---------------------------------------------------------------------------
# special functions of one float


def _lgamma(x: float) -> float:
    """ln |Gamma(x)|; +inf at the poles 0, -1, -2, ... and where it overflows."""
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):
        return math.inf


def _digamma(x: float) -> float:
    """d ln Gamma(x) / dx for x > 0; NaN for x <= 0 and NaN.

    The recurrence psi(x) = psi(x + 1) - 1/x lifts x to 10 or more, where the
    asymptotic series in the Bernoulli numbers, summed through the x^-14
    term, leaves a truncation error below 1e-16.
    """
    if not x > 0.0:
        return math.nan
    shift = 0.0
    while x < 9.0:  # two steps at once: 1/x + 1/(x+1) = (2x+1) / (x(x+1))
        y = x + 1.0
        shift += (x + y) / (x * y)
        x = y + 1.0
    if x < 10.0:
        shift += 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    return (math.log(x) - 0.5 / x - shift
            - r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * (
                1 / 132 - r * (691 / 32760 - r / 12)))))))


# ---------------------------------------------------------------------------
# per-side families


def _loc_scale_prior(loc: float, p: SidePrior):
    """Normal location plus flat scale prior: value and d/d loc."""
    dev = loc - p.m
    value = (-0.5 * math.log(2.0 * math.pi * p.s * p.s)
             - dev * dev / (2.0 * p.s * p.s)
             - math.log(SIGMA_HIGH - SIGMA_LOW))
    return value, -dev / (p.s * p.s)


def _initial_scale(p: SidePrior) -> float:
    return float(np.clip(p.s, SIGMA_LOW * 1.05, SIGMA_HIGH * 0.95))


def _student_prepare(sides):
    """Both sides' (value, count) pairs laid end to end, and the kernel over them.

    Returns ``(sums, n)``: ``n`` holds each side's observation count, and
    ``sums(mu_plus, s2_plus, mu_minus, s2_minus)`` returns, per side, the
    sums of c log(a^2 + s2), q a and q a^2 over its pairs, with a = x - mu
    and q = c / (a^2 + s2). The work buffers are allocated here, once, and
    overwritten by every call. Each side is reduced by its own
    ``np.add.reduce`` over its own pairs, so every sum rounds as on that
    side alone.
    """
    k = sides[0][0].size
    x = np.concatenate([values for values, _ in sides])
    c = np.concatenate([counts for _, counts in sides])
    a, q, rows = np.empty(x.size), np.empty(x.size), np.empty((3, x.size))
    log, qa, qa2 = rows
    (x_p, a_p, log_p, qa2_p, rows_p), (x_m, a_m, log_m, qa2_m, rows_m) = (
        (x[cut], a[cut], log[cut], qa2[cut], rows[:, cut])
        for cut in (slice(0, k), slice(k, None)))

    def sums(mu_p, s2_p, mu_m, s2_m):
        np.subtract(x_p, mu_p, out=a_p)
        np.subtract(x_m, mu_m, out=a_m)
        np.multiply(a, a, out=qa2)
        np.add(qa2_p, s2_p, out=log_p)
        np.add(qa2_m, s2_m, out=log_m)
        np.divide(c, log, out=q)
        np.multiply(np.log(log, out=log), c, out=log)
        np.multiply(q, a, out=qa)
        np.multiply(q, qa2, out=qa2)
        # numpy's own summation, not a BLAS dot, whose rounding follows the CPU
        return np.add.reduce(rows_p, axis=1).tolist(), np.add.reduce(rows_m, axis=1).tolist()

    return sums, tuple(float(counts.sum()) for _, counts in sides)


def _student_value_grad(theta, data, priors):
    sums, n_sides = data
    mu_p, sigma_p, nu_p, mu_m, sigma_m, nu_m = theta
    s2_sides = nu_p * sigma_p * sigma_p, nu_m * sigma_m * sigma_m
    # the only array arithmetic of a gradient: far out, it overflows
    with np.errstate(over="ignore", invalid="ignore"):
        kernel = sums(mu_p, s2_sides[0], mu_m, s2_sides[1])
    values, grad = [], []
    for side in 0, 1:  # indexing, not zip, which costs more for two items
        mu, sigma, nu = theta[3 * side:3 * side + 3]
        sum_log, sum_qa, sum_qa2 = kernel[side]
        s2, n, p = s2_sides[side], n_sides[side], priors[side]
        # sum c log1p(t^2 / nu) and sum c (nu + 1) t^2 / (nu + t^2), t = a / sigma
        sum_lu, sum_wt2 = sum_log - n * math.log(s2), (nu + 1.0) * sum_qa2
        value = n * (
            _lgamma((nu + 1.0) / 2.0) - _lgamma(nu / 2.0)
            - 0.5 * math.log(math.pi * nu) - math.log(sigma)
        ) - 0.5 * (nu + 1.0) * sum_lu
        d_nu = (
            0.5 * n * (_digamma((nu + 1.0) / 2.0) - _digamma(nu / 2.0))
            - 0.5 * n / nu - 0.5 * sum_lu + sum_wt2 / (2.0 * nu)
        )
        prior, d_loc = _loc_scale_prior(mu, p)
        values.append(value + (prior + math.log(NU_RATE) - NU_RATE * (nu - NU_SHIFT)))
        grad += [(nu + 1.0) * sum_qa + d_loc, (sum_wt2 - n) / sigma, d_nu - NU_RATE]
    return values, grad


def _student_loglik(theta: np.ndarray):
    """Per-draw constants of the Student-t density under each row (mu, sigma,
    nu) of ``theta``, and the map from values x [k] to log densities [k, draws].

    Each entry rounds exactly as ``student_logpdf`` of the tests' density
    oracle, ``tests/models_oracle.py``, at that row.
    """
    mu, sigma, nu = np.array(theta.T)
    const = np.array([
        _lgamma((v + 1.0) / 2.0) - _lgamma(v / 2.0) - 0.5 * math.log(math.pi * v)
        - math.log(s)
        for s, v in zip(sigma.tolist(), nu.tolist())
    ])
    half_nu1 = 0.5 * (nu + 1.0)
    return lambda x: const - half_nu1 * np.log1p(((x[:, None] - mu) / sigma) ** 2 / nu)


def _ig_prepare(sides):
    return tuple((float(counts.sum()), float((counts * np.log(values)).sum()),
                  float((counts / values).sum())) for values, counts in sides)


def _ig_value_grad(theta, data, priors):
    values, grad = [], []
    for side in 0, 1:  # indexing, not zip, which costs more for two items
        m, s = theta[2 * side:2 * side + 2]
        n, sum_ln, sum_inv = data[side]
        p = priors[side]
        if m <= 0.0:  # the location map can underflow to the bound
            return [-math.inf, -math.inf], [0.0] * 4
        s2 = s * s
        alpha = 2.0 + (m * m) / s2
        beta = m * (alpha - 1.0)
        log_beta = math.log(beta)
        # Python floats from here on: numpy scalar arithmetic rounds the same
        # but costs several times more per operation
        value = n * (alpha * log_beta - _lgamma(alpha)) \
            - (alpha + 1.0) * sum_ln - beta * sum_inv
        d_alpha = n * (log_beta - _digamma(alpha)) - sum_ln
        d_beta = n * alpha / beta - sum_inv
        da_dm = 2.0 * m / s2
        da_ds = -2.0 * m * m / (s2 * s)
        db_dm = 1.0 + 3.0 * m * m / s2
        db_ds = -2.0 * m * m * m / (s2 * s)
        prior, d_loc = _loc_scale_prior(m, p)
        values.append(value + prior)
        grad += [d_alpha * da_dm + d_beta * db_dm + d_loc, d_alpha * da_ds + d_beta * db_ds]
    return values, grad


def _ig_loglik(theta: np.ndarray):
    """Per-draw constants of the Inverse-Gamma density under each row (m, s)
    of ``theta``, and the map from values x [k] to log densities [k, draws].

    Each entry rounds exactly as ``invgamma_logpdf`` of ``ig_shape_rate``
    in the tests' density oracle, ``tests/models_oracle.py``, at that row.
    """
    m, s = np.array(theta.T)
    alpha = 2.0 + (m * m) / (s * s)
    beta = m * (alpha - 1.0)
    const = np.array([a * math.log(b) - _lgamma(a)
                      for a, b in zip(alpha.tolist(), beta.tolist())])
    alpha1 = alpha + 1.0
    return lambda x: const - alpha1 * np.log(x)[:, None] - beta / x[:, None]


@dataclass(frozen=True)
class Family:
    """One per-side model family; :data:`FAMILIES` holds the two instances.

    ``names`` lists the per-side parameters, the location first and the scale
    second. ``support`` holds the (low, high) bounds of each per-side
    parameter, the same for every data set. ``prepare(sides)`` reduces both
    sides' (distinct value, count) pairs, gain side first, to what the
    likelihood reads; ``value_grad(theta, data, priors)`` takes both sides'
    parameters as one list of floats, gain side first, and returns each side's
    log likelihood of the prepared data plus its log prior, as a list of two
    floats, and the gradient as one list; the two side values are returned
    apart so that the posterior adds them in the order it always has.
    ``loglik(thetas)`` is one side's density, batched over the rows of a
    [draws, p] array: it computes the per-draw constants once and returns the
    map from values x [k] to the [k, draws] log densities.
    """

    names: tuple[str, ...]
    data_low: float  # observations must exceed this
    support: tuple[tuple[float, ...], tuple[float, ...]]
    prepare: Callable[[list[tuple[np.ndarray, np.ndarray]]], object]
    value_grad: Callable[[list[float], object, tuple[SidePrior, SidePrior]],
                         tuple[list[float], list[float]]]
    loglik: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
    initial: Callable[[SidePrior], tuple[float, ...]]

    @property
    def param_names(self) -> tuple[str, ...]:
        """Gain-side parameters first, then loss-side."""
        return tuple(f"{n}_{side}" for side in ("plus", "minus") for n in self.names)


FAMILIES: dict[ModelKind, Family] = {
    ModelKind.STUDENT_T: Family(
        names=("mu", "sigma", "nu"), data_low=-math.inf,
        support=((-math.inf, SIGMA_LOW, NU_SHIFT), (math.inf, SIGMA_HIGH, math.inf)),
        prepare=_student_prepare,
        value_grad=_student_value_grad,
        loglik=_student_loglik,
        initial=lambda p: (p.m, _initial_scale(p), NU_INIT),
    ),
    ModelKind.INV_GAMMA: Family(
        names=("m", "s"), data_low=0.0,
        support=((0.0, SIGMA_LOW), (math.inf, SIGMA_HIGH)),
        prepare=_ig_prepare,
        value_grad=_ig_value_grad,
        loglik=_ig_loglik,
        initial=lambda p: (max(p.m, 1e-3), _initial_scale(p)),
    ),
}


# ---------------------------------------------------------------------------
# posterior


def _expit(x: float) -> float:
    """Logistic function of one float, equal to scipy's ``expit`` bit for bit."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # x < -709.78, where expit(x) rounds to 0
        return 0.0


class Posterior:
    """Joint unconstrained log posterior of one family on one data set.

    The object bundles its ``spec`` (family and side priors), the per-side
    data, the coordinate transform and analytic gradients; it is the target
    handed to the sampler, and a fit report reads the model and the side
    sizes from it.
    Log likelihoods of each distinct value (gain side first, then loss side)
    and their counts are exposed for information-criterion computations.
    """

    def __init__(self, spec: ModelSpec, x_plus: np.ndarray, x_minus: np.ndarray):
        self.spec = spec
        family = self.family
        self.x_plus = np.asarray(x_plus, dtype=np.float64)
        self.x_minus = np.asarray(x_minus, dtype=np.float64)
        if self.x_plus.size == 0 or self.x_minus.size == 0:
            raise EmptySideError("both sides need at least one observation")
        if not (np.all(self.x_plus > family.data_low)
                and np.all(self.x_minus > family.data_low)):
            raise DomainError(
                f"{spec.kind} support is x > {family.data_low:g}; drop the "
                "observations outside it before fitting"
            )
        self.param_names = family.param_names
        self.dim = len(self.param_names)
        # each side as (distinct value, count)
        unique = [np.unique(x, return_counts=True) for x in (self.x_plus, self.x_minus)]
        self._values = tuple(values for values, _ in unique)
        self.counts = np.concatenate([counts for _, counts in unique])
        self._data = family.prepare([(values, counts.astype(np.float64))
                                     for values, counts in unique])

        low, high = family.support
        self._low, self._high = low + low, high + high
        # (index, low, width) of each bounded coordinate; an infinite width
        # marks a lower bound only
        self._bounded = tuple((k, low, high - low) for k, (low, high)
                              in enumerate(zip(self._low, self._high))
                              if math.isfinite(low))
        self._value_grad = family.value_grad

    @property
    def family(self) -> Family:
        return FAMILIES[self.spec.kind]

    # -- coordinate maps ----------------------------------------------------

    def _transform(self, z: list[float]):
        """theta(z), d theta / dz and d log|d theta / dz| / dz, as float lists."""
        theta, dtheta, dlog_jac = list(z), [1.0] * self.dim, [0.0] * self.dim
        for k, low, width in self._bounded:
            zk = z[k]
            if width == math.inf:  # shifted log above the bound
                gap = float(np.exp(min(zk, 700.0)))
                theta[k], dtheta[k], dlog_jac[k] = low + gap, gap, 1.0
            else:  # scaled logit on the interval
                sig = _expit(zk)
                width_sig = width * sig
                theta[k] = low + width_sig
                dtheta[k] = width_sig * _expit(-zk)
                dlog_jac[k] = 1.0 - 2.0 * sig
        return theta, dtheta, dlog_jac

    def constrain(self, z: np.ndarray) -> np.ndarray:
        """Map an unconstrained vector to model parameters."""
        return np.array(self._transform(np.asarray(z, dtype=np.float64).tolist())[0])

    def unconstrain(self, theta: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`constrain`; raises DomainError off the support."""
        z = np.asarray(theta, dtype=np.float64).tolist()
        for name, value, low, high in zip(self.param_names, z, self._low, self._high):
            if not low < value < high:
                raise DomainError(f"{name}={value} outside ({low}, {high})")
        for k, low, width in self._bounded:
            if width == math.inf:
                z[k] = float(np.log(z[k] - low))
            else:
                frac = (z[k] - low) / width
                z[k] = float(np.log(frac) - np.log1p(-frac))
        return np.array(z)

    # -- densities ----------------------------------------------------------

    def value_and_grad(self, z: list[float]) -> tuple[float, list[float]]:
        """Unconstrained log posterior and its gradient in one pass.

        ``z`` is a list of ``dim`` floats and the gradient comes back as one,
        the sampler's protocol. Off-support or overflowing points return
        (-inf, zeros); NaN input is a caller bug and raises
        :class:`NonFiniteError`.
        """
        if any(map(math.isnan, z)):
            raise NonFiniteError("unconstrained vector contains NaN")
        theta, dtheta, dlog_jac = self._transform(z)
        if 0.0 in dtheta:  # a map rounded onto its bound: the log slope is -inf
            return -math.inf, [0.0] * self.dim
        (value_plus, value_minus), grad_theta = self._value_grad(theta, self._data,
                                                                 self.spec.priors)
        value = float(np.add.reduce(np.log(dtheta))) + value_plus + value_minus
        # chain rule through the transform, plus the Jacobian term
        grad = [g * d + j for g, d, j in zip(grad_theta, dtheta, dlog_jac)]
        if not (math.isfinite(value) and all(map(math.isfinite, grad))):
            return -math.inf, [0.0] * self.dim
        return float(value), grad

    # -- per-value likelihood -------------------------------------------------

    def pointwise_loglik(self, theta: np.ndarray) -> np.ndarray:
        """Log likelihood of one observation at each distinct value (gain side
        first), the one-draw case of :class:`LoglikMatrix`; ``counts`` holds
        how many observations share each value."""
        matrix = LoglikMatrix(self, np.asarray(theta, dtype=np.float64)[None, :])
        return matrix.rows(0, matrix.shape[0])[:, 0]

    def initial_unconstrained(self) -> np.ndarray:
        """Empirical-moment starting point, mapped to unconstrained space."""
        theta = [v for p in self.spec.priors for v in self.family.initial(p)]
        return self.unconstrain(np.array(theta))


class LoglikMatrix:
    """The [distinct values, draws] log likelihood matrix of ``posterior``
    under each row of ``draws`` [n, dim].

    Row j holds :meth:`Posterior.pointwise_loglik` at distinct value j for
    every draw. Only the rows asked of :meth:`rows` are computed; the
    per-draw constants of each side's density are computed once, here, so a
    caller that walks the rows in blocks holds O(block x draws) memory, never
    the whole matrix.
    """

    def __init__(self, posterior: Posterior, draws: np.ndarray):
        draws = np.asarray(draws, dtype=np.float64)
        family = posterior.family
        self._sides, offset, k = [], 0, posterior.dim // 2
        for values, sl in zip(posterior._values, (slice(0, k), slice(k, None))):
            self._sides.append((offset, values, family.loglik(draws[:, sl])))
            offset += values.size
        self.shape = (offset, draws.shape[0])

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start`` to ``stop``: a C-contiguous float64 block of
        [stop - start, draws]."""
        return np.concatenate([
            loglik(values[max(start - offset, 0):max(stop - offset, 0)])
            for offset, values, loglik in self._sides
        ])
