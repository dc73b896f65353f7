"""Lower bounds of origin quasiprobabilities on the Gaussian convex hull.

The pure-state bound at mean photon number n minimizes, over the squeezing
fraction m in [0, n], the worst-case pure Gaussian origin value (the closed
form of qng.quasiprob) with the phases at their extremal relation 2 theta - phi
= pi. Rank-2 mixtures are searched separately to confirm they cannot undercut
the pure-state bound at working precision.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .quasiprob import _coerce_s, _pure_gaussian_origin


def bound_at_zero(s) -> float:
    """Closed-form bound at n = 0 (only the vacuum is available)."""
    sv = _coerce_s(s)
    return 2.0 / (np.pi * np.sqrt(1.0 + sv * (sv - 2.0)))


def wigner_bound_closed(n: float) -> float:
    """Closed-form Wigner (s = 0) hull bound: (2/pi) exp(-2n(1+n))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return 2.0 / np.pi * np.exp(-2.0 * n * (1.0 + n))


def bound_objective(m: float, n: float, s: float) -> float:
    """Origin value of the extremal-phase pure Gaussian at split m (arrays too)."""
    return _pure_gaussian_origin(n, m, s, -1.0)


def pure_bound(n: float, s) -> tuple[float, float]:
    """Minimize the pure Gaussian origin value at mean photon number n.

    Returns (bound, m_opt). The constraint is saturated: the minimizer uses
    exactly n mean photons.
    """
    sv = _coerce_s(s)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return bound_at_zero(sv), 0.0
    res = minimize_scalar(bound_objective, bounds=(0.0, n), args=(n, sv),
                          method="bounded",
                          options={"xatol": 1e-13 * max(1.0, n), "maxiter": 500})
    candidates = [(bound_objective(0.0, n, sv), 0.0),
                  (bound_objective(n, n, sv), n),
                  (float(res.fun), float(res.x))]
    return min(candidates)


def m_minus1_closed(n: float) -> float:
    """Closed-form optimal squeezing fraction for the Husimi (s = -1) bound.

    Uses the principal complex cube root; the result is clamped to [0, n].
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    root = np.sqrt(6.0 + 3.0 * n * (24.0 + n * (37.0 + 16.0 * n)))
    g = complex(-17.0 - 21.0 * n + 3.0 * n**2 + 8.0 * n**3,
                3.0 * (1.0 + n) * root) ** (1.0 / 3.0)
    m = (2.0 * (n - 1.0) + np.sqrt(3.0) * g.imag - g.real) / 6.0
    return float(min(max(m, 0.0), n))


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
    if n < 0:
        raise ValueError("n must be >= 0")
    b_n = pure_bound(n, sv)[0]
    best = Rank2Candidate(n1=n, n2=n, p=1.0, value=b_n)
    if n == 0:
        return best

    lo1, hi1 = 0.0, n
    lo2, hi2 = n, 50.0 * n + 10.0
    for round_idx in range(RANK2_REFINE_ROUNDS + 1):
        n1g = np.linspace(lo1, hi1, RANK2_POINTS)
        span = hi2 - lo2
        if span <= 0:
            n2g = np.array([lo2])
        elif round_idx == 0:
            n2g = lo2 + np.geomspace(1e-6 * span, span, RANK2_POINTS)
        else:
            n2g = np.linspace(lo2, hi2, RANK2_POINTS)
        b1 = np.array([pure_bound(v, sv)[0] for v in n1g])
        b2 = np.array([pure_bound(v, sv)[0] for v in n2g])
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
class BoundCurve:
    """Tabulated pure-state bound samples (n, bound, m_opt) for one s."""

    s: float
    samples: list[tuple[float, float, float]] = field(repr=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,bound,m_opt\n")
        for n, b, m in self.samples:
            buf.write(f"{n:.17g},{b:.17g},{m:.17g}\n")
        return buf.getvalue()


MAX_GRID_POINTS = 1_000_000  # longest grid a bound table or a CLI range may hold


def _grid(n_max: float, step: float) -> np.ndarray:
    """0, step, 2 step, ... up to n_max, refused above MAX_GRID_POINTS values."""
    if (n_max + step / 2) / step > MAX_GRID_POINTS:
        raise ValueError(f"n_max / step exceeds {MAX_GRID_POINTS} grid points")
    return np.arange(0.0, n_max + step / 2, step)


def build_bound_curve(s, n_max: float, step: float) -> BoundCurve:
    sv = _coerce_s(s)
    if step <= 0 or n_max < 0:
        raise ValueError("need step > 0 and n_max >= 0")
    grid = _grid(n_max, step)
    samples = []
    for n in grid:
        b, m = pure_bound(float(n), sv)
        samples.append((float(n), b, m))
    return BoundCurve(s=sv, samples=samples)


@dataclass(frozen=True)
class ConvexityReport:
    s: float
    n_max: float
    step: float
    passed: bool
    first_violation: tuple[float, float, float] | None
    max_second_difference_deficit: float
    strictly_decreasing: bool


def convexity_check(s, n_max: float, step: float,
                    tol: float = 1e-10) -> ConvexityReport:
    """Check convexity (second differences) and strict decrease on a grid."""
    sv = _coerce_s(s)
    if step <= 0:
        raise ValueError("step must be > 0")
    grid = _grid(n_max, step)
    b = np.array([pure_bound(float(n), sv)[0] for n in grid])
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
    return ConvexityReport(s=sv, n_max=n_max, step=step, passed=passed,
                           first_violation=violation,
                           max_second_difference_deficit=max(deficit, 0.0),
                           strictly_decreasing=decreasing)
