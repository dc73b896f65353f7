"""Checks of the paper's claims about the Gaussian-hull bound.

qng ships one thing of the hull: the pure-state bound qng.bounds.pure_bound.
The claims the paper makes about it are checked here, against independent
computations: its closed forms at s = 0 (wigner_bound_closed) and at s = -1
(m_minus1_closed), a brute-force argmin of its objective (grid_argmin), the
search of rank-2 mixtures that cannot undercut it (rank2_search), its
convexity and strict decrease on a grid (convexity_check), and the pure
Gaussian origin value at any phases that it minimizes (qs_pure_gaussian).
Acceptance criteria 02-05 and 07 and the unit tests import them.

The searches call pure_bound through qng.bounds, so a test that patches it
there patches them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import qng.bounds
from qng.bounds import N_MAX, _N_RANGE, _grid, bound_objective
from qng.quasiprob import _coerce_s, _pure_gaussian_origin


def wigner_bound_closed(n: float) -> float:
    """Closed-form Wigner (s = 0) hull bound: (2/pi) exp(-2n(1+n))."""
    if not 0 <= n < math.inf:  # NaN fails this too
        raise ValueError("n must be finite and >= 0")
    return 2.0 / np.pi * np.exp(-2.0 * n * (1.0 + n))


def m_minus1_closed(n: float) -> float:
    """Closed-form optimal squeezing fraction for the Husimi (s = -1) bound.

    At s = -1, P(x) = -(x + 1)(x^3 + x^2 - (4n+3) x + 1), and in y = x - 1
    the cubic is y^3 + 4y^2 - (4n-2) y - 4n: one root in [0, 2n] and two
    below -1/2, all three from the trigonometric form. Below y = 1 (n = 7/8)
    the wanted root is 4n over the product of the other two (Vieta), with
    nothing to cancel at small n; from there on it is the form's own largest
    root, since the root near -1 loses about 2 sqrt(n) ulps as n grows. One
    Newton step polishes it. m = y^2 / (4(1+y)), clamped to [0, n].
    """
    if not 0 <= n <= N_MAX:  # NaN fails this too
        raise ValueError(f"{_N_RANGE}, got {n}")
    p, q = -(4.0 * n + 10.0 / 3.0), 56.0 / 27.0 + 4.0 * n / 3.0  # of z = y + 4/3
    r = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * r)))) / 3.0
    y1, y2, y3 = (r * math.cos(phi + k * 2.0 * math.pi / 3.0) - 4.0 / 3.0
                  for k in (0, 1, -1))
    y = y1 if y1 >= 1.0 else 4.0 * n / (y2 * y3)
    y -= ((((y + 4.0) * y - (4.0 * n - 2.0)) * y - 4.0 * n)
          / ((3.0 * y + 8.0) * y - (4.0 * n - 2.0)))
    return float(min(max(y * y / (4.0 * (1.0 + y)), 0.0), n))


def grid_argmin(n, s, coarse=1e-4, fine=1e-8):
    """Brute-force argmin over the squeezing fraction, two-stage grid."""
    m = np.arange(0.0, n + coarse / 2, coarse)
    vals = bound_objective(m, n, s)
    best = m[np.argmin(vals)]
    lo, hi = max(0.0, best - 2 * coarse), min(n, best + 2 * coarse)
    m = np.arange(lo, hi + fine / 2, fine)
    vals = bound_objective(m, n, s)
    return float(m[np.argmin(vals)]), float(vals.min())


@dataclass(frozen=True)
class Rank2Candidate:
    """Best two-component Gaussian mixture found for a bound query."""

    n1: float
    n2: float
    p: float
    value: float


RANK2_POINTS = 60  # grid points per axis
RANK2_REFINE_ROUNDS = 3


def rank2_search(n: float, s) -> Rank2Candidate:
    """Search rank-2 mixtures p B(n1) + (1-p) B(n2) with p n1 + (1-p) n2 = n.

    n1 runs over [0, n] linearly, n2 over [n, 50n + 10] with logarithmic
    spacing above n; the best cell is refined locally. The degenerate
    candidate (n, n, p = 1) is always included.
    """
    sv = _coerce_s(s)
    if not 0 <= n <= N_MAX / 100:  # n2 runs past 50 n; NaN fails this too
        raise ValueError(f"n must be finite and >= 0, at most N_MAX / 100, got {n}")
    b_n = qng.bounds.pure_bound(n, sv)[0]
    best = Rank2Candidate(n1=n, n2=n, p=1.0, value=b_n)
    if n == 0:
        return best

    lo1, hi1 = 0.0, n
    lo2, hi2 = n, 50.0 * n + 10.0
    for round_idx in range(RANK2_REFINE_ROUNDS + 1):
        n1g = np.linspace(lo1, hi1, RANK2_POINTS)
        span = hi2 - lo2
        if round_idx == 0:
            n2g = lo2 + np.geomspace(1e-6 * span, span, RANK2_POINTS)
        else:
            n2g = np.linspace(lo2, hi2, RANK2_POINTS)
        b1 = qng.bounds.pure_bound(n1g, sv)[0]
        b2 = qng.bounds.pure_bound(n2g, sv)[0]
        diff = n2g[None, :] - n1g[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(diff > 0, (n2g[None, :] - n) / diff, np.nan)
        vals = p * b1[:, None] + (1.0 - p) * b2[None, :]
        vals = np.where((p >= 0) & (p <= 1), vals, np.inf)
        i, j = np.unravel_index(np.nanargmin(vals), vals.shape)
        if vals[i, j] < best.value:
            best = Rank2Candidate(n1=float(n1g[i]), n2=float(n2g[j]),
                                  p=float(p[i, j]), value=float(vals[i, j]))
        # shrink both ranges around the current best cell
        w1, w2 = (hi1 - lo1) / RANK2_POINTS, (hi2 - lo2) / RANK2_POINTS
        lo1 = max(0.0, n1g[i] - 2 * w1)
        hi1 = min(n, n1g[i] + 2 * w1)
        lo2 = max(n, n2g[j] - 2 * w2)
        hi2 = n2g[j] + 2 * w2
    return best


@dataclass(frozen=True)
class ConvexityReport:
    """Result of convexity_check on a grid of B_s(n): passed when convex within
    tol and strictly_decreasing (above the underflow floor); first_violation,
    the grid points around the first second difference below -tol, if any;
    max_second_difference_deficit, how far the most negative second
    difference is below 0."""

    passed: bool
    first_violation: tuple[float, float, float] | None
    max_second_difference_deficit: float
    strictly_decreasing: bool


def convexity_check(s, n_max: float, step: float,
                    tol: float = 1e-10) -> ConvexityReport:
    """Check convexity (second differences) and strict decrease on a grid."""
    sv = _coerce_s(s)
    if not tol >= 0:  # NaN fails this too
        raise ValueError(f"tol must be >= 0, got {tol}")
    grid = _grid(n_max, step)
    b = qng.bounds.pure_bound(grid, sv)[0]
    second = b[:-2] - 2.0 * b[1:-1] + b[2:]
    deficit = float(-second.min()) if second.size else 0.0
    # strict decrease is only meaningful above the underflow floor: at s = 0
    # the bound reaches exp(-2n(1+n)) and becomes exactly 0.0 near n = 19
    representable = b[:-1] > 1e-300
    decreasing = bool(np.all((np.diff(b) < 0) | ~representable))
    below = np.flatnonzero(second < -tol)
    violation = None
    if below.size:
        i = int(below[0])
        violation = (float(grid[i]), float(grid[i + 1]), float(grid[i + 2]))
    passed = violation is None and decreasing
    return ConvexityReport(passed=passed, first_violation=violation,
                           max_second_difference_deficit=max(0.0, deficit),
                           strictly_decreasing=decreasing)


def qs_pure_gaussian(n: float, m: float, s, theta: float = 0.0,
                     phi: float = 0.0) -> float:
    """Origin quasiprobability of the pure Gaussian state with mean photon
    number n, of which m = sinh^2(r) is the squeezed share (so n - m =
    |alpha|^2), displacement phase theta and squeezing phase phi."""
    if n < 0 or not 0 <= m <= n:  # NaN fails this too
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return float(_pure_gaussian_origin(n, m, _coerce_s(s), np.cos(2.0 * theta - phi)))
