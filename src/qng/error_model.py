"""Poissonian uncertainty of the measured photon number, pushed to the bounds.

The total photon count over k trials is modeled as Poisson(k * n_avg); the
hull bound is averaged exactly over that distribution and each curve is
normalized so the noiseless bound equals 1 at n_avg = 0. A distribution whose
support needs more than bounds.MAX_GRID_POINTS counts is refused. The bound at
each count is the bounded minimization of qng.bounds (_minimized_bound), as in
the tabulated bound curves, so the recorded error bars keep their values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import MAX_GRID_POINTS, _minimized_bound, bound_at_zero
from .quasiprob import _coerce_s

POISSON_MASS = 1.0 - 1e-12


@dataclass(frozen=True)
class ErrorSpec:
    k: int
    n_avg_grid: list[float]
    s_list: list[float]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        grid = list(self.n_avg_grid)
        if any(v < 0 for v in grid) or grid != sorted(grid):
            raise ValueError("n_avg_grid must be sorted and nonnegative")


@dataclass(frozen=True)
class BoundErrorRow:
    s: float
    n_avg: float
    mean: float
    std: float


def normalized_bound_stats(s, n_avg: float, k: int) -> tuple[float, float]:
    """Mean and std of the normalized bound under Poisson(k * n_avg) counts."""
    sv = _coerce_s(s)
    scale = bound_at_zero(sv)
    if n_avg == 0:
        return 1.0, 0.0
    # Poisson quantile and pmf in the form of scipy.stats.poisson's _ppf and
    # _pmf, without importing scipy.stats; scipy loads on the first call only
    from scipy.special import gammaln, pdtr, pdtrik, xlogy

    lam = k * n_avg
    quantile = pdtrik(POISSON_MASS, lam)
    if not quantile < MAX_GRID_POINTS:  # NaN fails this too
        raise ValueError(f"Poisson mean k*n_avg = {lam:g} needs over "
                         f"{MAX_GRID_POINTS} counts")
    n_hi = math.ceil(quantile)
    if n_hi > 0 and pdtr(n_hi - 1, lam) >= POISSON_MASS:
        n_hi -= 1
    counts = np.arange(n_hi + 1)
    weights = np.exp(xlogy(counts, lam) - gammaln(counts + 1) - lam)
    values = np.array([_minimized_bound(c / k, sv)[0] for c in counts]) / scale
    total = weights.sum()
    mean = float(np.dot(weights, values) / total)
    second = float(np.dot(weights, values**2) / total)
    var = max(second - mean**2, 0.0)
    return mean, float(np.sqrt(var))


def bound_error_curve(spec: ErrorSpec) -> list[BoundErrorRow]:
    rows = []
    for s in spec.s_list:
        for n_avg in spec.n_avg_grid:
            mean, std = normalized_bound_stats(s, n_avg, spec.k)
            rows.append(BoundErrorRow(s=_coerce_s(s), n_avg=n_avg,
                                      mean=mean, std=std))
    return rows
