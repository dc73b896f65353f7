"""Lower bounds of origin quasiprobabilities on the Gaussian convex hull.

The pure-state bound at mean photon number n minimizes, over the squeezing
fraction m in [0, n], the worst-case pure Gaussian origin value (the closed
form of qng.quasiprob) with the phases at their extremal relation 2 theta - phi
= pi. With x = e^(2r), m = (x-1)^2 / (4x), the log of that value is rational in
x and its stationary points are the roots of the quartic

    P(x) = s x^4 - 2 x^3 + (4n+2) x^2 - s (4n+2) x + s.

P(0) = s <= 0 < P(1) = 4n(1-s) and P(2n+1) = s (4n(n+1))^2 <= 0, and by
Descartes' rule P has at most two positive roots, so exactly one root lies in
(1, 2n+1]: the minimum. pure_bound finds it by Newton's method from 2n+1, for
a float or an array of n. At s = 0 the root is 2n+1 (wigner_bound_closed); at
s = -1 it is the root of the cubic behind m_minus1_closed. At n = 0 the hull
holds only the vacuum, and every bound here is its origin value 2/(pi(1-s))
(bound_at_zero), through the quasiprob._vacuum_origin of every
photon-number series, so the vacuum's witness is exactly 0. Each public
function checks its own s and n where they enter; n runs up to N_MAX = 1e70.

build_bound_curve (the (n, bound, m_opt) rows of `qng bound-curve`) and the
error bars of qng.error_model still tabulate the bounded minimization of the
objective (_minimized_bound, on the n and s its callers have checked), whose
m_opt is off by up to about 5e-7: their recorded outputs carry it. Where the
bound is below the smallest normal float, the objective has underflowed and
cannot steer the search, so pure_bound gives the row. Rank-2 mixtures are
searched separately to confirm they cannot undercut the pure-state bound at
working precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .quasiprob import _coerce_s, _pure_gaussian_origin, _vacuum_origin

# Largest mean photon number accepted. Up to it the |s| (2n)^4 terms of the
# quartic stay finite for every s >= quasiprob.S_MIN, as does the Husimi cubic.
N_MAX = 1e70
# The descent from 2n+1 takes at most 17 steps on n <= 60, s >= -4; where the
# quartic term leads it shrinks y by about 3/4 a step, and up to N_MAX it
# takes at most 310 (at s = S_MIN).
NEWTON_MAX_STEPS = 400
_N_RANGE = f"n must be finite and >= 0, at most N_MAX = {N_MAX:g}"


def bound_at_zero(s) -> float:
    """Closed-form bound at n = 0, the vacuum's origin value 2/(pi(1-s)).

    The objective's 2/(pi sqrt(1+s(s-2))) is the same number for s <= 0, but
    only quasiprob._vacuum_origin rounds the way the vacuum's series does,
    so the vacuum's delta is exactly 0."""
    return _vacuum_origin(_coerce_s(s))


def wigner_bound_closed(n: float) -> float:
    """Closed-form Wigner (s = 0) hull bound: (2/pi) exp(-2n(1+n))."""
    if not 0 <= n < math.inf:  # NaN fails this too
        raise ValueError("n must be finite and >= 0")
    return 2.0 / np.pi * np.exp(-2.0 * n * (1.0 + n))


def bound_objective(m: float, n: float, s: float) -> float:
    """Origin value of the extremal-phase pure Gaussian at split m (arrays too)."""
    return _pure_gaussian_origin(n, m, s, -1.0)


def _stationary_split(n, sv: float):
    """Squeezing fraction m at the root of P in (1, 2n+1], for a float or an
    array n.

    Newton's method runs on P(1 + y), y = x - 1, so that m = y^2 / (4(1+y))
    keeps its relative precision near the coherent end y = 0. From y = 2n it
    falls monotonically onto the root in exact arithmetic; it stops at the
    first step that does not lower y (the roundoff floor), or after
    NEWTON_MAX_STEPS steps.
    """
    c3, c2 = 4.0 * sv - 2.0, 4.0 * n - 4.0 + 6.0 * sv
    c1, c0 = 8.0 * n - 2.0 + 2.0 * sv - 4.0 * n * sv, 4.0 * n * (1.0 - sv)
    y, batch = 2.0 * n, np.ndim(n) > 0
    for _ in range(NEWTON_MAX_STEPS):
        p = (((sv * y + c3) * y + c2) * y + c1) * y + c0
        dp = ((4.0 * sv * y + 3.0 * c3) * y + 2.0 * c2) * y + c1
        lower = y - p / dp
        if batch:
            falls = lower < y
            if not falls.any():
                break
            y = np.where(falls, lower, y)
        elif lower < y:
            y = lower
        else:
            break
    return y * y / (4.0 * (1.0 + y))


def pure_bound(n, s):
    """Minimum of the pure Gaussian origin value at mean photon number n.

    Returns (bound, m_opt): floats for a float n, arrays for an array of n.
    The constraint is saturated: the minimizer uses exactly n mean photons.
    At n = 0 the bound is bound_at_zero(s).
    """
    sv = _coerce_s(s)
    if np.ndim(n):
        n = np.asarray(n, dtype=float)
        if not np.all((n >= 0) & (n <= N_MAX)):  # NaN fails this too
            raise ValueError(_N_RANGE)
        m = _stationary_split(n, sv)
        return np.where(n == 0, bound_at_zero(sv), bound_objective(m, n, sv)), m
    n = float(n)
    if not 0.0 <= n <= N_MAX:
        raise ValueError(f"{_N_RANGE}, got {n}")
    if n == 0:
        return bound_at_zero(sv), 0.0
    m = _stationary_split(n, sv)
    return float(bound_objective(m, n, sv)), m


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_BRENT_MAX_EVALS = 500  # scipy's default maxiter


def _fminbound(func, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Bounded Brent minimization of func on [lo, hi]: returns (x, func(x)).

    The iteration of scipy.optimize.minimize_scalar(method="bounded"), step
    for step, so both give the same x and value.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = x = fulc
    rat = e = 0.0
    fx = func(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAX_EVALS:
            break
    return xf, fx


def _minimized_bound(n: float, sv: float) -> tuple[float, float]:
    """pure_bound by bounded minimization of the objective over m in [0, n],
    for a checked n and s, which overestimates the bound by up to about 3e-13
    relative and m_opt by up to about 5e-7. The tabulated bound curves and
    error bars read it. Below the smallest normal float the objective has no
    precision left to steer by (0.0 everywhere once it underflows), so
    pure_bound answers there."""
    if n == 0:
        return bound_at_zero(sv), 0.0
    x, fun = _fminbound(lambda m: bound_objective(m, n, sv), 0.0, n,
                        xatol=1e-13 * max(1.0, n))
    best = min((bound_objective(0.0, n, sv), 0.0),
               (bound_objective(n, n, sv), n),
               (float(fun), float(x)))
    if best[0] < sys.float_info.min:
        return pure_bound(n, sv)
    return best


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
    b_n = pure_bound(n, sv)[0]
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
        b1, b2 = pure_bound(n1g, sv)[0], pure_bound(n2g, sv)[0]
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


MAX_GRID_POINTS = 1_000_000  # longest grid a bound table or a CLI range may hold


def _grid(n_max: float, step: float) -> np.ndarray:
    """0, step, 2 step, ... up to n_max, for a finite step > 0 and an n_max
    in [0, N_MAX], refused above MAX_GRID_POINTS values."""
    if not 0 < step < math.inf:  # NaN fails this too
        raise ValueError(f"step must be finite and > 0, got {step}")
    if not 0 <= n_max <= N_MAX:
        raise ValueError(f"n_max must be finite and >= 0, at most N_MAX = {N_MAX:g}, "
                         f"got {n_max}")
    if (n_max + step / 2) / step > MAX_GRID_POINTS:
        raise ValueError(f"n_max / step exceeds {MAX_GRID_POINTS} grid points")
    return np.arange(0.0, n_max + step / 2, step)


def build_bound_curve(s, n_max: float, step: float) -> list[tuple]:
    """Rows (n, bound, m_opt) of _minimized_bound on the grid 0, step, ... n_max."""
    sv = _coerce_s(s)
    return [(n, *_minimized_bound(n, sv)) for n in _grid(n_max, step).tolist()]


@dataclass(frozen=True)
class ConvexityReport:
    """Result of convexity_check on a grid of B_s(n): passed when convex within
    tol and strictly_decreasing (above the underflow floor); first_violation,
    the grid points around the most negative second difference if it is below
    -tol; max_second_difference_deficit, how far that difference is below 0."""

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
    b = pure_bound(grid, sv)[0]
    second = b[:-2] - 2.0 * b[1:-1] + b[2:]
    deficit = float(-second.min()) if second.size else 0.0
    # strict decrease is only meaningful above the underflow floor: at s = 0
    # the bound reaches exp(-2n(1+n)) and becomes exactly 0.0 near n = 19
    representable = b[:-1] > 1e-300
    decreasing = bool(np.all((np.diff(b) < 0) | ~representable))
    violation = None
    if second.size and second.min() < -tol:
        i = int(np.argmin(second))
        violation = (float(grid[i]), float(grid[i + 1]), float(grid[i + 2]))
    passed = violation is None and decreasing
    return ConvexityReport(passed=passed, first_violation=violation,
                           max_second_difference_deficit=max(0.0, deficit),
                           strictly_decreasing=decreasing)
