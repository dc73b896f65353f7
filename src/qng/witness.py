"""Non-Gaussianity witnesses, optimized Gaussian maps and loss thresholds.

A witness compares the origin quasiprobability of a state against the
Gaussian-hull bound at the state's mean photon number; a negative difference
certifies the state lies outside the hull. Criterion b applies a Gaussian
unitary (displacement or squeezing) chosen to make the comparison most
favourable.

One evaluator, _lossy_witness, gives every family witness (Fock, PAC and
PSS after loss, both criteria) in closed form, from one identity: loss plus
s-ordering is another ordering behind another Gaussian unitary (Cahill &
Glauber, Phys. Rev. 177, 1882 (1969)). For U = D(beta) S(q), eta = 1 - eps
and sigma+- = (eps - s e^(-+2q)) / eta,

    Q_s(0)[U L_eps(rho) U^dag] = Q_s2(0)[U' rho U'^dag] / eta,

s2 = -sqrt(sigma+ sigma-), q2 = ln(sigma+ / sigma-) / 4, U' = D(beta') S(-q2),
beta' = (e^(-q-q2) Re beta + i e^(q+q2) Im beta) / sqrt(eta), and the origin
value of U' psi is quasiprob._family_origin, with no cutoff. Criterion a is
the identity map: U' = 1 and s2 = -(eps - s)/eta, on an array of losses
too; for |m> the value is 2/(pi(1-s)) x^m, x = eps - eta (1+s)/(1-s), and
at full loss every state is the vacuum, 2/(pi(1-s)). n_bar comes from the
closed moments (StateFamily.moments).

Photon numbers serve only a caller's state (delta_a, delta_b): the origin
series of quasiprob._origin_series and its truncation tail, 2/(pi(1-s))
times a missing mass. That mass is 1 - sum p for delta_a and the identity
map; a map other than the identity mixes in the levels that a d x d matrix
of trace T left out, so delta_b counts m + 2 sqrt(m T) + |T - sum p'|,
m = max(1 - T, d 2^-52) (_mapped_photons). Every verdict is _report's,
delta + tail < 0, where tail is 0 for a closed form, so truncation never
makes a witness conclusive. A public function checks its inputs once, then
guards the cutoff, which refuses only what make_<kind>(param, cutoff)
refuses, from the member's amplitudes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from .bounds import _fminbound, pure_bound
from .fock import (ChannelSpec, GaussianMapSpec, TruncatedState, TruncationError,
                   _check_fits, _member_vector, mapped_photon_probs, photon_probs)
from .quasiprob import _coerce_s, _family_origin, _origin_series, _vacuum_origin

SCAN_POINTS = 200  # loss grid of the threshold scan
DEFAULT_CUTOFF = 80  # the cutoff a family member is guarded at


@dataclass(frozen=True)
class WitnessReport:
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
        name = {"fock": "Fock number m", "pac": "PAC alpha", "pss": "PSS r"}[self.kind]
        if not (math.isfinite(self.param) and self.param >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {self.param}")
        if self.kind == "fock" and self.param != int(self.param):
            raise ValueError(f"{name} must be an integer, got {self.param}")

    def moments(self) -> tuple[float, complex, complex]:
        """Closed-form (mean photon number, <a>, <a^2>), with no cutoff."""
        p, a2 = self.param, self.param ** 2
        if self.kind == "pac":
            return ((a2 * a2 + 3.0 * a2 + 1.0) / (1.0 + a2),
                    complex(p * (a2 + 2.0) / (1.0 + a2)),
                    complex(a2 * (a2 + 3.0) / (1.0 + a2)))
        if self.kind == "pss":  # n_bar = 3 sinh^2 r + 1, one rounding of cosh 2r
            return ((3.0 * math.cosh(2.0 * p) - 1.0) / 2.0, 0j,
                    complex(1.5 * math.sinh(2.0 * p)))
        return float(p), 0j, 0j


def _guard(family: StateFamily, cutoff: int) -> None:
    """Refuse what make_<kind>(param, cutoff) refuses, with the same exception
    and message: the same amplitudes and checks, with no density matrix."""
    param = int(family.param) if family.kind == "fock" else family.param
    _check_fits(*_member_vector(family.kind, param, cutoff))


@dataclass(frozen=True)
class ThresholdResult:
    s: float
    family: StateFamily
    criterion: str  # "a" | "b"
    epsilon_star: float | str  # value in [0,1] or sentinel "none" / "one"
    bisection_tol: float


def _report(sv: float, q_value: float, nbar: float, tail: float,
            gmap: GaussianMapSpec | None = None) -> WitnessReport:
    """Witness of an origin value q_value against the hull bound at nbar.

    The one verdict rule: conclusive when delta + tail < 0, where tail is
    the most that levels past the cutoff can add to q_value (0 for a closed
    form), so truncation can only make a witness less conclusive."""
    bound = pure_bound(nbar, sv)[0]
    delta = q_value - bound
    return WitnessReport(q_value=q_value, n_bar=nbar, bound=bound, delta=delta,
                         conclusive=delta + tail < 0, map=gmap)


def _photon_witness(p, s, nbar_slack: float, gmap: GaussianMapSpec | None = None,
                    missing: float | None = None) -> WitnessReport:
    """First-criterion witness of the photon numbers p of a caller's state,
    with the truncation tail of its origin series: missing times the
    vacuum's value, missing 1 - sum p unless given."""
    if not (math.isfinite(nbar_slack) and nbar_slack >= 0):
        raise ValueError(f"nbar_slack must be finite and >= 0, got {nbar_slack}")
    sv = _coerce_s(s)
    q_value, tail = _origin_series(p, sv, missing)
    nbar = float(np.dot(np.arange(p.size), p)) + nbar_slack
    return _report(sv, q_value, nbar, tail, gmap)


def _checked(s, criterion: str) -> float:
    """The ordering s as a float, once s and criterion are valid."""
    if criterion not in ("a", "b"):
        raise ValueError(f"criterion must be 'a' or 'b', got {criterion!r}")
    return _coerce_s(s)


def delta_a(state: TruncatedState, s, nbar_slack: float = 0.0) -> WitnessReport:
    """First-criterion witness: origin value minus hull bound at n_bar.

    n_bar is the state's mean photon number plus nbar_slack, the caller's
    allowance for the mean photon number that the truncated state leaves
    out. The truncation tail counted in the verdict bounds only the origin
    value: a tail mass tau past the cutoff can carry any mean photon number,
    so only the caller can bound it."""
    return _photon_witness(photon_probs(state), s, nbar_slack)


def _mapped_photons(state: TruncatedState, gmap: GaussianMapSpec):
    """Photon numbers p' of the mapped state and the mass their origin series
    misses (None for 1 - sum p').

    A map other than the identity mixes the kept levels with the ones the
    caller's matrix of trace T leaves out. The matrix is one block of any
    state it was cut from; the rest has trace norm at most m + 2 sqrt(m T),
    m = 1 - T (an off-diagonal block B of a PSD matrix has |B|_1 <=
    sqrt(T m)), and p' misses |T - sum p'| of the trace (an overshoot too,
    which _map_core accepts up to MAP_TRUNCATION_LIMIT). So the missing mass
    is m + 2 sqrt(m T) + |T - sum p'|, with m at least d 2^-52, the
    roundoff of a trace of d levels. The identity misses 1 - sum p only."""
    p = mapped_photon_probs(state, gmap)
    if gmap.is_identity:
        return p, None
    trace = float(np.trace(state.matrix).real)
    m = max(1.0 - trace, state.dim * 2.0 ** -52)
    return p, m + 2.0 * math.sqrt(m * trace) + abs(trace - float(p.sum()))


def delta_b(state: TruncatedState, s, gmap: GaussianMapSpec,
            nbar_slack: float = 0.0) -> WitnessReport:
    """Second-criterion witness: first-criterion witness of the mapped state
    (nbar_slack as for delta_a). Its tail is 2/(pi(1-s)) times the mass of
    _mapped_photons: under a map other than the identity, m + 2 sqrt(m T) +
    |T - sum p'| for a matrix of trace T, m = max(1 - T, d 2^-52)."""
    p, missing = _mapped_photons(state, gmap)
    return _photon_witness(p, s, nbar_slack, gmap, missing)


def beta_opt(alpha: float, epsilon: float) -> complex:
    """Approximate optimal re-centering displacement for a lossy PAC state."""
    if not alpha >= 0:  # NaN fails this too
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    return complex(-alpha * np.sqrt(1.0 - epsilon))


def q_opt(r: float, epsilon: float) -> float:
    """Analytic squeezing that minimizes the photon number of a lossy PSS state."""
    if not (r >= 0 and 0.0 <= epsilon <= 1.0):  # NaN fails this too
        raise ValueError(f"need r >= 0 and epsilon in [0, 1], got {r}, {epsilon}")
    mu_r2 = np.cosh(r) ** 2
    disc = (4.0 * epsilon - 3.0) ** 2 + 12.0 * (1.0 - epsilon) * epsilon * mu_r2
    mu = np.sqrt(0.5 * (1.0 + (6.0 * (1.0 - epsilon) * mu_r2 + 4.0 * epsilon - 3.0)
                        / np.sqrt(disc)))
    mu = max(mu, 1.0)  # numerical guard near the vacuum limit
    return float(-np.arccosh(mu))


def _refine(witness, seed: GaussianMapSpec) -> GaussianMapSpec:
    """Locally improve the one-parameter map family around a seed.

    Minimizes witness(map).delta over a real squeeze if the seed squeezes,
    else over a real displacement, within 1 of the seed; returns the seed
    itself unless a map beats it.
    """
    squeeze = seed.squeeze != 0

    def make(t: float) -> GaussianMapSpec:
        if squeeze:
            return replace(seed, squeeze=t)
        return replace(seed, displacement=complex(t))

    def objective(gmap: GaussianMapSpec) -> float:
        try:
            return witness(gmap).delta
        except TruncationError:
            return np.inf

    t0 = seed.squeeze if squeeze else seed.displacement.real
    t, value = _fminbound(lambda t: objective(make(t)), t0 - 1.0, t0 + 1.0,
                          xatol=1e-6)
    seed_val = objective(seed)
    # demand improvement beyond roundoff so noise never displaces the seed
    if np.isfinite(value) and value < seed_val - 1e-12:
        return make(float(t))
    return seed


def refine_map(state: TruncatedState, s, seed: GaussianMapSpec) -> GaussianMapSpec:
    """Map near seed that minimizes the second-criterion witness
    delta_b(state, s, map); see _refine."""
    return _refine(partial(delta_b, state, s), seed)


def _seed_map(family: StateFamily, epsilon: float) -> GaussianMapSpec:
    if family.kind == "pac":
        return GaussianMapSpec(displacement=beta_opt(family.param, epsilon))
    if family.kind == "pss":
        return GaussianMapSpec(squeeze=q_opt(family.param, epsilon))
    return GaussianMapSpec()


def _lossy_witness(family: StateFamily, eps, sv: float, moments,
                   gmap: GaussianMapSpec | None = None) -> WitnessReport:
    """Witness of a family member, with closed moments, after checked loss
    eps and the map gmap (None for no map), by the identity of the module
    docstring. With no map or the identity eps may be an array of losses;
    under any other map it is a float and the member is PAC or PSS."""
    eta = 1.0 - eps
    n0, a1, a2 = moments
    if gmap is None or gmap.is_identity:  # sigma+ = sigma-, U' = 1
        scale = _vacuum_origin(sv)
        if family.kind == "fock":  # Q_s2(0)[|m>] / eta = scale x^m
            q_value = scale * (eps - eta * (1.0 + sv) / (1.0 - sv)) ** int(family.param)
        elif np.ndim(eps):
            full = eta == 0.0
            kept = np.where(full, 1.0, eta)
            origin = _family_origin(family.kind, family.param, 0j, 0.0,
                                    -(eps - sv) / kept) / kept
            q_value = np.where(full, scale, origin)
        elif eta == 0.0:  # full loss leaves the vacuum
            q_value = scale
        else:
            q_value = _family_origin(family.kind, family.param, 0j, 0.0,
                                     -(eps - sv) / eta) / eta
        return _report(sv, q_value, eta * n0, 0.0, gmap)
    beta, q = complex(gmap.displacement), float(gmap.squeeze)
    if eps == 0.0:  # no loss: U' = U (at s = 0 sigma+- would be 0/0)
        s2, q2 = sv, -q
    else:
        sigma_p = (eps - sv * math.exp(-2.0 * q)) / eta
        sigma_m = (eps - sv * math.exp(2.0 * q)) / eta
        s2 = -math.sqrt(sigma_p * sigma_m)
        q2 = 0.25 * math.log(sigma_p / sigma_m)
    beta2 = complex(math.exp(-q - q2) * beta.real,
                    math.exp(q + q2) * beta.imag) / math.sqrt(eta)
    q_value = _family_origin(family.kind, family.param, beta2, -q2, s2) / eta
    mu, nu = math.cosh(q), math.sinh(q)
    shift = beta.conjugate() * (mu * a1 + nu * a1.conjugate())
    nbar = (eta * (math.cosh(2.0 * q) * n0 + math.sinh(2.0 * q) * a2.real)
            + nu * nu + abs(beta) ** 2 + 2.0 * math.sqrt(eta) * shift.real)
    return _report(sv, q_value, nbar, 0.0, gmap)


def _witness(family: StateFamily, sv: float, eps, criterion: str) -> WitnessReport:
    """Witness of a family member after loss eps, all inputs checked. With a
    seed map to refine, the witness is cached per map, so the refined map's
    report is reused; criterion a also takes an array of losses."""
    witness = partial(_lossy_witness, family, eps, sv, family.moments())
    seed = _seed_map(family, eps) if criterion == "b" else None
    if seed is not None and not seed.is_identity:
        witness = cache(witness)
        seed = _refine(witness, seed)
    return witness(seed)


def witness_at_loss(family: StateFamily, s, epsilon: float, criterion: str,
                    cutoff: int = DEFAULT_CUTOFF) -> WitnessReport:
    """Witness value of a family member after loss, map-optimized for 'b'.

    The value is a closed form; cutoff only refuses (TruncationError) a
    family member that does not fit it, as make_<kind>(param, cutoff) would."""
    sv, eps = _checked(s, criterion), float(ChannelSpec(epsilon).epsilon)
    _guard(family, cutoff)
    return _witness(family, sv, eps, criterion)


def witness_curve(family: StateFamily, s_values, eps_values, criterion: str,
                  cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Deltas of witness_at_loss at every (eps_values[i], s_values[j]), as an
    array indexed [i, j], with the inputs checked and the cutoff guarded once.

    As in epsilon_threshold, the loss grid is one array per s under
    criterion a and for a Fock state; otherwise criterion b refines a map
    at each point."""
    s_checked = [_checked(s, criterion) for s in s_values]
    eps = [float(ChannelSpec(e).epsilon) for e in eps_values]
    _guard(family, cutoff)
    deltas = np.empty((len(eps), len(s_checked)))
    for j, sv in enumerate(s_checked):
        if criterion == "a" or family.kind == "fock":
            deltas[:, j] = _witness(family, sv, np.array(eps), "a").delta
        else:
            deltas[:, j] = [_witness(family, sv, e, "b").delta for e in eps]
    return deltas


def epsilon_threshold(family: StateFamily, s, criterion: str = "a",
                      tol: float = 1e-5,
                      cutoff: int = DEFAULT_CUTOFF) -> ThresholdResult:
    """Largest loss at which the witness stays conclusive.

    Returns sentinel "one" when still conclusive at epsilon = 1 - tol and
    "none" when inconclusive at every scanned loss: the SCAN_POINTS grid and,
    for a Fock state, eps0 = (1+s)/2 where it lies inside the grid. The
    conclusive region can start away from epsilon = 0 (even Fock states have
    a positive parity at zero loss), so the scan walks down from high loss
    and bisects the topmost sign change. A Fock state's origin value is 0 at
    eps0 (x = 0), and from |10> on its window around eps0 can fall between
    two grid points, so eps0 is scanned too. Under criterion a, and
    criterion b of a Fock state (whose seed map is the identity), the scan
    is one array evaluation.
    """
    sv = _checked(s, criterion)
    # above 0.5 the grid tol..1-tol would run from high loss to low loss
    if not 1e-6 <= tol <= 0.5:  # NaN fails this too
        raise ValueError(f"tol must be in [1e-6, 0.5], got {tol}")
    _guard(family, cutoff)
    grid = np.linspace(tol, 1.0 - tol, SCAN_POINTS)
    eps0 = (1.0 + sv) / 2.0
    if family.kind == "fock" and tol < eps0 < 1.0 - tol:
        grid = np.sort(np.append(grid, eps0))
    batch = criterion == "a" or family.kind == "fock"  # a Fock seed is the identity
    scan_criterion = "a" if batch else criterion

    def holds(eps):
        return _witness(family, sv, eps, scan_criterion).conclusive

    # conclusive or not at each scan point, from the top down
    conclusive = iter(holds(grid[::-1])) if batch else map(holds, grid[::-1])
    star: float | str = "one"
    if not next(conclusive):  # at the top, hi = 1 - tol
        star = "none"
        for i, below in zip(range(grid.size - 2, -1, -1), conclusive):
            if below:
                lo, hi = grid[i], grid[i + 1]
                while hi - lo > tol:
                    mid = 0.5 * (lo + hi)
                    if holds(mid):
                        lo = mid
                    else:
                        hi = mid
                star = 0.5 * (lo + hi)
                break
    return ThresholdResult(s=sv, family=family, criterion=criterion,
                           epsilon_star=star, bisection_tol=tol)
