"""Independent reference results for the benchmark's output checks.

Nothing here imports ``gainloss``: the detrend, the hitting times and the
posterior mode are recomputed from their definitions, so a change that makes
the program fast but wrong cannot also move the reference.

* Detrend: log price minus the trailing rolling median of ``filter_size``
  days; the barrier is ``scale`` times the sample std of that series.
* Hitting times: for every anchor t, the first lead D >= 1 with
  x[t+D] - x[t] >= rho (gain) or <= -rho (loss); anchors never hit are
  censored. Found with a sparse table of running max/min and binary
  lifting, an O(n log n) algorithm unlike the program's lag loop.
* Reference ``d``: the effect size at the posterior mode, each side fit on
  its own (the likelihood and the priors factor by side). For samples of
  thousands of hitting times the posterior mean lies close to the mode.
* Its scale ``d_se``: the large-sample standard error of a standardised mean
  difference, sqrt(1/n+ + 1/n- + d^2 / (2 (n+ + n-))). It depends on the
  sample sizes only, so the check's tolerance is not set by the program's
  own posterior width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

SIGMA_LOW, SIGMA_HIGH = 1.0, 100.0   # Uniform prior on the scale parameters
NU_RATE, NU_SHIFT = 1.0 / 29.0, 1.0  # nu - 1 ~ Exponential(rate 1/29)
NU_MAX = 1e4


def detrended(log_price: np.ndarray, filter_size: int) -> np.ndarray:
    """log price minus its trailing rolling median (first value at f - 1)."""
    view = np.lib.stride_tricks.sliding_window_view(log_price, filter_size)
    med = np.concatenate([np.median(view[i:i + 2000], axis=1)
                          for i in range(0, view.shape[0], 2000)])
    return log_price[filter_size - 1:] - med


def _first_reach(x: np.ndarray, level: np.ndarray, up: bool) -> np.ndarray:
    """Smallest j > t with x[j] >= level[t] (up) or <= level[t]; -1 if none."""
    n = x.size
    sign = 1.0 if up else -1.0
    y = sign * x
    target = sign * level
    table = [y]  # table[k][i] = max(y[i : i + 2**k])
    while 2 ** len(table) <= n:
        prev, half = table[-1], 2 ** (len(table) - 1)
        table.append(np.maximum(prev[:-half], prev[half:]))
    pos = np.arange(1, n)  # first candidate index for anchor t = pos - 1
    for k in range(len(table) - 1, -1, -1):
        block = table[k]
        ok = pos < block.size
        safe = np.where(ok, pos, 0)
        skip = ok & (block[safe] < target)
        pos = np.where(skip, pos + 2 ** k, pos)
    inside = pos < n
    hit = np.zeros(n - 1, dtype=bool)
    hit[inside] = y[pos[inside]] >= target[inside]
    return np.where(hit, pos, -1)


@dataclass(frozen=True)
class HittingReference:
    rho: float
    tau_plus: np.ndarray
    tau_minus: np.ndarray
    n_anchors: int

    @property
    def properties(self) -> dict:
        """Input properties later likelihood and censoring work depends on."""
        out = {"rho": self.rho, "anchors": self.n_anchors}
        for side, tau in (("plus", self.tau_plus), ("minus", self.tau_minus)):
            out[f"tau_count_{side}"] = int(tau.size)
            out[f"distinct_share_{side}"] = np.unique(tau).size / max(tau.size, 1)
            out[f"censored_share_{side}"] = 1.0 - tau.size / self.n_anchors
        return out


def hitting_reference(x: np.ndarray, rho: float) -> HittingReference:
    anchors = np.arange(x.size - 1)
    taus = []
    for up, level in ((True, x[:-1] + rho), (False, x[:-1] - rho)):
        j = _first_reach(x, level, up)
        taus.append((j - anchors)[j >= 0])
    return HittingReference(rho=float(rho), tau_plus=taus[0], tau_minus=taus[1],
                            n_anchors=x.size - 1)


def _student_side(x: np.ndarray) -> tuple[float, float]:
    """(mu, sigma) at the mode of one Student-t side."""
    values, counts = np.unique(x, return_counts=True)
    m0, s0 = float(np.mean(x)), float(np.std(x, ddof=1))

    def neg(theta):
        mu, sigma, nu = theta
        t = (values - mu) / sigma
        ll = (special.gammaln((nu + 1) / 2) - special.gammaln(nu / 2)
              - 0.5 * math.log(math.pi * nu) - math.log(sigma)
              - 0.5 * (nu + 1) * np.log1p(t * t / nu))
        prior = -0.5 * ((mu - m0) / s0) ** 2 - NU_RATE * (nu - NU_SHIFT)
        return -(float(counts @ ll) + prior)

    start = (m0, min(max(s0, SIGMA_LOW * 1.05), SIGMA_HIGH * 0.95), 30.0)
    res = optimize.minimize(neg, start, method="L-BFGS-B",
                            bounds=[(None, None), (SIGMA_LOW, SIGMA_HIGH),
                                    (NU_SHIFT + 1e-6, NU_MAX)])
    return float(res.x[0]), float(res.x[1])


def _inv_gamma_side(x: np.ndarray) -> tuple[float, float]:
    """(m, s), the mean and std of the inverse gamma, at the mode of one side."""
    n = x.size
    sum_ln, sum_inv = float(np.sum(np.log(x))), float(np.sum(1.0 / x))
    m0, s0 = float(np.mean(x)), float(np.std(x, ddof=1))

    def neg(theta):
        m, s = theta
        alpha = 2.0 + (m / s) ** 2
        beta = m * (alpha - 1.0)
        ll = (n * (alpha * math.log(beta) - special.gammaln(alpha))
              - (alpha + 1.0) * sum_ln - beta * sum_inv)
        return -(ll - 0.5 * ((m - m0) / s0) ** 2)

    start = (m0, min(max(s0, SIGMA_LOW * 1.05), SIGMA_HIGH * 0.95))
    res = optimize.minimize(neg, start, method="L-BFGS-B",
                            bounds=[(1e-6, None), (SIGMA_LOW, SIGMA_HIGH)])
    return float(res.x[0]), float(res.x[1])


def mode_effect_size(ref: HittingReference, model: str) -> dict:
    """Reference d and sample sizes of one fit, as the program should see them."""
    x_plus = np.log(ref.tau_plus.astype(np.float64))
    x_minus = np.log(ref.tau_minus.astype(np.float64))
    if model == "inv-gamma":  # the inverse gamma lives on x > 0
        x_plus, x_minus = x_plus[x_plus > 0], x_minus[x_minus > 0]
        side = _inv_gamma_side
    else:
        side = _student_side
    (loc_p, sc_p), (loc_m, sc_m) = side(x_plus), side(x_minus)
    n_p, n_m = x_plus.size, x_minus.size
    pooled = math.sqrt((sc_p ** 2 * (n_p - 1) + sc_m ** 2 * (n_m - 1)) / (n_p + n_m - 2))
    d = (loc_p - loc_m) / pooled
    d_se = math.sqrt(1.0 / n_p + 1.0 / n_m + d * d / (2.0 * (n_p + n_m)))
    return {"model": model, "rho": ref.rho, "n_plus": n_p, "n_minus": n_m,
            "d": d, "d_se": d_se}
