"""s-parametrized quasiprobability values at (and around) the phase-space origin.

Only orderings s <= 0 are supported: s = 0 is the Wigner function (parity
average), s = -1 the Husimi Q-function (vacuum projection / pi). For s < -1
the value corresponds to an inefficient vacuum detection with efficiency
2/(1-s); the exact heterodyne rescaling constant is not modeled here. The
witnesses and the hull bound share the photon-number series and the pure-Gaussian
closed form written here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import GaussianMapSpec, TruncatedState, mapped_photon_probs, photon_probs


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


def _origin_series(p: np.ndarray, sv: float, epsilon: float = 0.0) -> float:
    """Origin value 2/(pi(1-s)) sum_m x^m p_m of photon numbers p after pure
    loss epsilon, x = eps - (1-eps)(1+s)/(1-s) (from G(z) -> G(eps + (1-eps) z))."""
    x = epsilon - (1.0 - epsilon) * (1.0 + sv) / (1.0 - sv)
    return float(2.0 / (np.pi * (1.0 - sv)) * np.dot(x ** np.arange(p.size), p))


def qs_origin(state: TruncatedState, s) -> float:
    """Quasiprobability at the origin from the photon-number distribution.

    Alternating series 2/(pi(1-s)) sum_m (-1)^m ((1+s)/(1-s))^m p_m; the
    truncation error is at most tail_bound * 2/(pi(1-s)).
    """
    return _origin_series(photon_probs(state), _coerce_s(s))


def qs_origin_error(state: TruncatedState, s) -> float:
    """Upper estimate of the truncation error of qs_origin."""
    sv = _coerce_s(s)
    return state.tail_bound * 2.0 / (np.pi * (1.0 - sv))


def _pure_gaussian_origin(n, m, sv: float, cos_phase):
    """Pure Gaussian origin value, on arrays too: 2 exp(-2 num/d) / (pi sqrt(d)),
    num = (n-m)(1 + 2m - 2 sqrt(m(1+m)) cos(2 theta - phi) - s), d = 1 + s(s-2-4m)."""
    d = 1.0 + sv * (sv - 2.0 - 4.0 * m)
    num = (n - m) * (1.0 + 2.0 * m - 2.0 * np.sqrt(m * (1.0 + m)) * cos_phase - sv)
    return 2.0 * np.exp(-2.0 * num / d) / (np.pi * np.sqrt(d))


def qs_pure_gaussian(p: PureGaussianParam, s) -> float:
    """Origin quasiprobability of the pure Gaussian state given by p."""
    return float(_pure_gaussian_origin(p.n, p.m, _coerce_s(s),
                                       np.cos(2.0 * p.theta - p.phi)))


def qs_at(state: TruncatedState, s, alpha: complex) -> float:
    """Quasiprobability at phase-space point alpha via displacement covariance.

    Q_s[rho](alpha) is the origin value of the state displaced by -alpha,
    read from its photon numbers."""
    p = mapped_photon_probs(state, GaussianMapSpec(displacement=-alpha))
    return _origin_series(p, _coerce_s(s))
