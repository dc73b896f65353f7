"""Poissonian uncertainty of the measured photon number, pushed to the bounds.

The total photon count over k trials is modeled as Poisson(k * n_avg); the
hull bound is averaged exactly over that distribution and each curve is
normalized so the noiseless bound equals 1 at n_avg = 0. The counts kept are
0..n_hi, n_hi the first count whose upper tail is at most 1 - POISSON_MASS
and at least 1 (the count that carries the std at tiny means); their weights
come from math.lgamma and numpy. A distribution whose support needs more than
bounds.MAX_GRID_POINTS counts is refused. The bound at each count is the
bounded minimization of qng.bounds (_minimized_bound), as in the tabulated
bound curves, so the recorded error bars keep their values. `qng error-bars`
calls normalized_bound_stats once per (s, n_avg); it checks s, k and n_avg.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .bounds import MAX_GRID_POINTS, _minimized_bound, bound_at_zero
from .quasiprob import _coerce_s

POISSON_MASS = 1.0 - 1e-12


def _support_refused(lam: float) -> ValueError:
    return ValueError(f"Poisson mean k*n_avg = {lam:g} needs over "
                      f"{MAX_GRID_POINTS} counts")


def _poisson_weights(lam: float) -> np.ndarray:
    """Poisson(lam) pmf of the counts 0..n_hi, n_hi the first count whose
    upper tail sum_{j > n_hi} p_j is at most 1 - POISSON_MASS, and at least 1,
    so the smallest means keep their first-order std.

    The tail is a reversed cumulative sum of the pmf, so the 1e-12 tail is not
    lost to roundoff as in 1 - cdf. The pmf is taken out to 15 standard
    deviations and 30 counts past lam, where what is left is below 1e-40.
    """
    if not lam < MAX_GRID_POINTS:  # NaN fails this too
        raise _support_refused(lam)
    top = math.ceil(lam + 15 * math.sqrt(lam)) + 30
    log_fact = np.fromiter(map(math.lgamma, range(1, top + 2)), float, top + 1)
    pmf = np.exp(np.arange(top + 1) * math.log(lam) - log_fact - lam)
    upper = np.cumsum(pmf[::-1])[-2::-1]  # upper[n] = sum_{j > n} p_j
    n_hi = max(1, int(np.argmax(upper <= 1.0 - POISSON_MASS)))
    if n_hi >= MAX_GRID_POINTS:
        raise _support_refused(lam)
    return pmf[:n_hi + 1]


def normalized_bound_stats(s, n_avg: float, k: int) -> tuple[float, float]:
    """Mean and std of the normalized bound under Poisson(k * n_avg) counts."""
    sv = _coerce_s(s)
    if not (isinstance(k, numbers.Integral) and k >= 1):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    if not 0 <= n_avg < math.inf:  # NaN fails this too
        raise ValueError(f"n_avg must be finite and >= 0, got {n_avg}")
    scale = bound_at_zero(sv)
    if n_avg == 0:
        return 1.0, 0.0
    weights = _poisson_weights(k * n_avg)
    size = len(weights)
    values = np.fromiter((_minimized_bound(c / k, sv)[0] for c in range(size)),
                         float, size) / scale
    total = weights.sum()
    mean = float(np.dot(weights, values) / total)
    # centered, so a std far below the mean does not cancel
    std = math.sqrt(float(np.dot(weights, (values - mean) ** 2) / total))
    return mean, std
