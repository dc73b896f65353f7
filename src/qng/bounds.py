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
a float or an array of n. At s = 0 the root is 2n+1; at s = -1 it is the
root of a cubic. At n = 0 the hull holds only the vacuum, and every bound
here is its origin value 2/(pi(1-s)) (bound_at_zero), through the
quasiprob._vacuum_origin of every photon-number series, so the vacuum's
witness is exactly 0. Each public function checks its own s and n where they
enter; n runs up to N_MAX = 1e70.

build_bound_curve (the (n, bound, m_opt) rows of `qng bound-curve`) and the
error bars of qng.error_model still tabulate the bounded minimization of the
objective (_minimized_bound, on the n and s its callers have checked), whose
m_opt is off by up to about 5e-7: their recorded outputs carry it. Where the
bound is below the smallest normal float, the objective has underflowed and
cannot steer the search, so pure_bound gives the row.

The checks of the paper's claims about the bound (its closed forms at s = 0
and -1, rank-2 mixtures that cannot undercut it, its convexity and strict
decrease) are in tests/oracles.py.
"""

from __future__ import annotations

import math
import sys

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

