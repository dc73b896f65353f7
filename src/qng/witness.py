"""Non-Gaussianity witnesses, optimized Gaussian maps and loss thresholds.

A witness compares the origin quasiprobability of a state against the
Gaussian-hull bound at the state's mean photon number; a negative difference
certifies the state lies outside the hull. Both criteria need only photon
numbers p_m. Criterion b applies a Gaussian unitary (displacement or squeezing)
chosen to make the comparison most favourable and reads the mapped p_m. For
criterion a, pure loss eps maps G(z) = sum_m p_m z^m to G(eps + eta z),
eta = 1 - eps, so Q_s(0) = 2/(pi(1-s)) G(eps - eta (1+s)/(1-s)), n_bar = eta n_bar_0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .bounds import pure_bound
from .fock import (ChannelSpec, GaussianMapSpec, TruncatedState, TruncationError,
                   apply_loss, make_fock, make_pac, make_pss, mapped_photon_probs,
                   photon_probs)
from .quasiprob import _coerce_s


@dataclass(frozen=True)
class WitnessReport:
    s: float
    q_value: float
    n_bar: float
    bound: float
    delta: float
    conclusive: bool
    map: GaussianMapSpec | None = None


@dataclass(frozen=True)
class StateFamily:
    """One-parameter input family: Fock |m>, PAC(alpha) or PSS(r)."""

    kind: str  # "fock" | "pac" | "pss"
    param: float

    def __post_init__(self):
        if self.kind not in ("fock", "pac", "pss"):
            raise ValueError(f"unknown family kind {self.kind!r}")

    def build(self, cutoff: int) -> TruncatedState:
        if self.kind == "fock":
            return make_fock(int(self.param), cutoff)
        if self.kind == "pac":
            return make_pac(self.param, cutoff)
        return make_pss(self.param, cutoff)


@dataclass(frozen=True)
class ThresholdResult:
    s: float
    family: StateFamily
    criterion: str  # "a" | "b"
    epsilon_star: float | str  # value in [0,1] or sentinel "none" / "one"
    bisection_tol: float


def _criterion_a(p, s, epsilon: float, nbar_slack: float) -> WitnessReport:
    """First-criterion witness of photon numbers p after loss epsilon."""
    sv = _coerce_s(s)
    eps = ChannelSpec(epsilon).epsilon
    eta, m = 1.0 - eps, np.arange(p.size)
    x = eps - eta * (1.0 + sv) / (1.0 - sv)
    q_value = float(2.0 / (np.pi * (1.0 - sv)) * np.dot(x ** m, p))
    nbar = eta * float(np.dot(m, p)) + nbar_slack
    bound = pure_bound(nbar, sv)[0]
    delta = q_value - bound
    return WitnessReport(s=sv, q_value=q_value, n_bar=nbar, bound=bound,
                         delta=delta, conclusive=delta < 0)


def delta_a(state: TruncatedState, s, nbar_slack: float = 0.0) -> WitnessReport:
    """First-criterion witness: origin value minus hull bound at n_bar."""
    return _criterion_a(photon_probs(state), s, 0.0, nbar_slack)


def delta_b(state: TruncatedState, s, gmap: GaussianMapSpec,
            nbar_slack: float = 0.0) -> WitnessReport:
    """Second-criterion witness: first-criterion witness of the mapped state."""
    report = _criterion_a(mapped_photon_probs(state, gmap), s, 0.0, nbar_slack)
    return replace(report, map=gmap)


def beta_opt(alpha: float, epsilon: float) -> complex:
    """Approximate optimal re-centering displacement for a lossy PAC state."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return complex(-alpha * np.sqrt(1.0 - epsilon))


def q_opt(r: float, epsilon: float) -> float:
    """Analytic squeezing that minimizes the photon number of a lossy PSS state."""
    if r < 0 or not 0.0 <= epsilon <= 1.0:
        raise ValueError("need r >= 0 and epsilon in [0, 1]")
    mu_r2 = np.cosh(r) ** 2
    disc = (4.0 * epsilon - 3.0) ** 2 + 12.0 * (1.0 - epsilon) * epsilon * mu_r2
    mu = np.sqrt(0.5 * (1.0 + (6.0 * (1.0 - epsilon) * mu_r2 + 4.0 * epsilon - 3.0)
                        / np.sqrt(disc)))
    mu = max(mu, 1.0)  # numerical guard near the vacuum limit
    return float(-np.arccosh(mu))


def refine_map(state: TruncatedState, s, seed: GaussianMapSpec,
               which: str = "displacement") -> GaussianMapSpec:
    """Locally improve the one-parameter map family around a seed.

    Minimizes the second-criterion witness over a real displacement or a real
    squeeze, whichever is selected, within 1 of the seed; never returns a map
    worse than the seed.
    """
    if which not in ("displacement", "squeeze"):
        raise ValueError(f"unknown parameter family {which!r}")
    sv = _coerce_s(s)

    def make(t: float) -> GaussianMapSpec:
        if which == "displacement":
            return replace(seed, displacement=complex(t))
        return replace(seed, squeeze=t)

    def objective(t: float) -> float:
        try:
            return delta_b(state, sv, make(t)).delta
        except TruncationError:
            return np.inf

    t0 = seed.displacement.real if which == "displacement" else seed.squeeze
    res = minimize_scalar(objective, bounds=(t0 - 1.0, t0 + 1.0),
                          method="bounded", options={"xatol": 1e-6})
    seed_val = objective(t0)
    # demand improvement beyond roundoff so noise never displaces the seed
    if np.isfinite(res.fun) and res.fun < seed_val - 1e-12:
        return make(float(res.x))
    return seed


def _seed_map(family: StateFamily, epsilon: float) -> tuple[GaussianMapSpec, str]:
    if family.kind == "pac":
        return GaussianMapSpec(displacement=beta_opt(family.param, epsilon)), \
            "displacement"
    if family.kind == "pss":
        return GaussianMapSpec(squeeze=q_opt(family.param, epsilon)), "squeeze"
    return GaussianMapSpec(), "displacement"


def _witness(base: TruncatedState, family: StateFamily, s, epsilon: float,
             criterion: str, nbar_slack: float) -> WitnessReport:
    """Witness of the built family state base after loss epsilon."""
    if criterion == "a":
        return _criterion_a(photon_probs(base), s, epsilon, nbar_slack)
    if criterion != "b":
        raise ValueError(f"criterion must be 'a' or 'b', got {criterion!r}")
    lossy = apply_loss(base, ChannelSpec(epsilon))
    seed, which = _seed_map(family, epsilon)
    gmap = seed if seed.is_identity else refine_map(lossy, s, seed, which=which)
    return delta_b(lossy, s, gmap, nbar_slack=nbar_slack)


def witness_at_loss(family: StateFamily, s, epsilon: float, criterion: str,
                    cutoff: int = 80, nbar_slack: float = 0.0) -> WitnessReport:
    """Witness value of a family member after loss, map-optimized for 'b'."""
    return _witness(family.build(cutoff), family, s, epsilon, criterion, nbar_slack)


def epsilon_threshold(family: StateFamily, s, criterion: str = "a",
                      tol: float = 1e-5, cutoff: int = 80,
                      nbar_slack: float = 0.0,
                      scan_points: int = 200) -> ThresholdResult:
    """Largest loss at which the witness stays conclusive.

    Returns sentinel "one" when still conclusive at epsilon = 1 - tol and
    "none" when inconclusive everywhere on the scan grid. The conclusive
    region can start away from epsilon = 0 (even Fock states have a positive
    parity at zero loss), so the scan walks down from high loss and bisects
    the topmost sign change.
    """
    sv = _coerce_s(s)
    if tol < 1e-6:
        raise ValueError("tol must be >= 1e-6")
    base = family.build(cutoff)

    def delta(eps: float) -> float:
        return _witness(base, family, sv, eps, criterion, nbar_slack).delta

    hi = 1.0 - tol
    if delta(hi) <= 0:
        return ThresholdResult(s=sv, family=family, criterion=criterion,
                               epsilon_star="one", bisection_tol=tol)
    grid = np.linspace(tol, hi, scan_points)
    star: float | str = "none"
    for eps in grid[-2::-1]:
        if delta(eps) <= 0:
            lo = eps
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if delta(mid) <= 0:
                    lo = mid
                else:
                    hi = mid
            star = 0.5 * (lo + hi)
            break
        hi = eps
    return ThresholdResult(s=sv, family=family, criterion=criterion,
                           epsilon_star=star, bisection_tol=tol)
