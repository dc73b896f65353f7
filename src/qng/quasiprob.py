"""s-parametrized quasiprobability values at (and around) the phase-space origin.

Only orderings s <= 0 are supported: s = 0 is the Wigner function (parity
average), s = -1 the Husimi Q-function (vacuum projection / pi). For s < -1
the value corresponds to an inefficient vacuum detection with efficiency
2/(1-s); the exact heterodyne rescaling constant is not modeled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import GaussianMapSpec, TruncatedState, apply_map, photon_probs


@dataclass(frozen=True)
class SParam:
    """Ordering parameter of the quasiprobability family, s <= 0."""

    s: float

    def __post_init__(self):
        if not np.isfinite(self.s) or self.s > 0:
            raise ValueError(f"ordering parameter must be <= 0, got {self.s}")


@dataclass(frozen=True)
class PureGaussianParam:
    """Pure Gaussian state by mean photon number and squeezing split.

    n is the total mean photon number, m = sinh^2(r) the squeezed share
    (so n - m = |alpha|^2), theta the displacement phase and phi the
    squeezing phase.
    """

    n: float
    m: float
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if self.n < 0 or not 0 <= self.m <= self.n:
            raise ValueError(f"need 0 <= m <= n, got m={self.m}, n={self.n}")


def _coerce_s(s) -> float:
    return s.s if isinstance(s, SParam) else float(SParam(float(s)).s)


def qs_fock(m: int, s) -> float:
    """Closed-form quasiprobability of |m><m| at the origin."""
    sv = _coerce_s(s)
    if m < 0:
        raise ValueError("m must be >= 0")
    return 2.0 / (np.pi * (1.0 - sv)) * (-1.0) ** m * ((1.0 + sv) / (1.0 - sv)) ** m


def qs_origin(state: TruncatedState, s) -> float:
    """Quasiprobability at the origin from the photon-number distribution.

    Alternating series 2/(pi(1-s)) sum_m (-1)^m ((1+s)/(1-s))^m p_m; the
    truncation error is at most tail_bound * 2/(pi(1-s)).
    """
    sv = _coerce_s(s)
    p = photon_probs(state)
    m = np.arange(p.size)
    ratio = (1.0 + sv) / (1.0 - sv)
    return float(2.0 / (np.pi * (1.0 - sv)) * np.dot((-ratio) ** m, p))


def qs_origin_error(state: TruncatedState, s) -> float:
    """Upper estimate of the truncation error of qs_origin."""
    sv = _coerce_s(s)
    return state.tail_bound * 2.0 / (np.pi * (1.0 - sv))


def qs_pure_gaussian(p: PureGaussianParam, s) -> float:
    """Origin quasiprobability of the pure Gaussian state given by p.

    2 exp(-2(n-m)(1 + 2m - 2 sqrt(m(1+m)) cos(2 theta - phi) - s)/d)
    / (pi sqrt(d)) with d = 1 + s(s - 2 - 4m).
    """
    sv = _coerce_s(s)
    d = 1.0 + sv * (sv - 2.0 - 4.0 * p.m)
    num = (p.n - p.m) * (1.0 + 2.0 * p.m
                         - 2.0 * np.sqrt(p.m * (1.0 + p.m)) * np.cos(2.0 * p.theta - p.phi)
                         - sv)
    return float(2.0 * np.exp(-2.0 * num / d) / (np.pi * np.sqrt(d)))


def qs_at(state: TruncatedState, s, alpha: complex) -> float:
    """Quasiprobability at phase-space point alpha via displacement covariance.

    Q_s[rho](alpha) equals the origin value of the state displaced by -alpha.
    """
    return qs_origin(apply_map(state, GaussianMapSpec(displacement=-alpha)), s)
