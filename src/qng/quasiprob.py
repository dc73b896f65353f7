"""s-parametrized quasiprobability values at the phase-space origin.

Only orderings s <= 0 are supported: s = 0 is the Wigner function (parity
average), s = -1 the Husimi Q-function (vacuum projection / pi). For s < -1
the value corresponds to an inefficient vacuum detection with efficiency
2/(1-s); the exact heterodyne rescaling constant is not modeled here. The
witnesses and the hull bound share the photon-number series and the pure-Gaussian
closed form written here; the PAC and PSS states under any Gaussian unitary
have a closed form too (_family_origin).
"""

from __future__ import annotations

import math

import numpy as np

from .fock import TruncatedState, _family_ladder, _family_param, photon_probs


# Lowest ordering parameter accepted. From S_MIN up to 0 every origin formula
# stays finite: d = 1 + s(s-2-4m) below mean photon numbers of 1e70, the
# sigma+- = (eps - s e^(-+2q)) / eta of criterion b and their product for
# squeezes |q| <= 100 at any loss eps < 1 (eta >= 2^-53), and the hull-bound
# quartic of qng.bounds (|s| (2n)^4 terms) up to its n limit, bounds.N_MAX = 1e70.
S_MIN = -1e6


def _coerce_s(s) -> float:
    """The ordering parameter as a float, once S_MIN <= s <= 0."""
    sv = float(s)
    if not S_MIN <= sv <= 0:  # NaN fails this too
        raise ValueError(f"ordering parameter must be in [{S_MIN:g}, 0], got {sv}")
    return sv


def _vacuum_origin(sv: float) -> float:
    """The vacuum's origin value 2/(pi(1-s)): the prefactor of every
    photon-number series and the hull bound at n = 0. It is written once, so
    they round alike and the vacuum's delta is exactly 0."""
    return 2.0 / (np.pi * (1.0 - sv))


def qs_fock(m: int, s) -> float:
    """Closed-form quasiprobability of |m><m| at the origin."""
    sv, m = _coerce_s(s), _family_param("fock", m)
    return _vacuum_origin(sv) * (-1.0) ** m * ((1.0 + sv) / (1.0 - sv)) ** m


def _origin_series(p: np.ndarray, sv: float,
                   missing: float | None = None) -> tuple[float, float]:
    """Origin value 2/(pi(1-s)) sum_m x^m p_m of photon numbers p, with
    x = -(1+s)/(1-s), and its truncation tail missing * 2/(pi(1-s)), where
    missing defaults to |1 - sum p|: as |x| <= 1 for s <= 0, a mass moves the
    value by no more than that wherever it sits, past the last level, at low
    levels (lost before a channel), or as an excess over 1: qs_origin_error."""
    scale = _vacuum_origin(sv)
    value = scale * float((-(1.0 + sv) / (1.0 - sv)) ** np.arange(p.size) @ p)
    if missing is None:
        missing = abs(1.0 - float(p.sum()))
    return value, scale * missing


def qs_origin(state: TruncatedState, s) -> float:
    """Quasiprobability at the origin from the photon-number distribution.

    Alternating series 2/(pi(1-s)) sum_m (-1)^m ((1+s)/(1-s))^m p_m; the
    truncation error is at most qs_origin_error(state, s), what the trace
    misses of 1, either way, times 2/(pi(1-s)).
    """
    return _origin_series(photon_probs(state), _coerce_s(s))[0]


def qs_origin_error(state: TruncatedState, s) -> float:
    """Upper estimate of the truncation error of qs_origin: the tail that
    the verdicts of delta_a count."""
    return _origin_series(photon_probs(state), _coerce_s(s))[1]


def _pure_gaussian_origin(n, m, sv: float, cos_phase):
    """Pure Gaussian origin value, on arrays too: 2 exp(-2 num/d) / (pi sqrt(d)),
    num = (n-m)(1 + 2m - 2 sqrt(m(1+m)) cos(2 theta - phi) - s), d = 1 + s(s-2-4m)."""
    d = 1.0 + sv * (sv - 2.0 - 4.0 * m)
    num = (n - m) * (1.0 + 2.0 * m - 2.0 * np.sqrt(m * (1.0 + m)) * cos_phase - sv)
    return 2.0 * np.exp(-2.0 * num / d) / (np.pi * np.sqrt(d))


def _family_origin(kind: str, param: float, beta: complex, q: float, s):
    """Q_s(0) of D(beta) S(q) psi for the PAC or PSS state psi, in closed form,
    at one ordering s (a float, through math) or at an array of them.

    D(beta) S(q) psi = (A + B a^dag)|G> / norm: fock._family_ladder gives
    (lam a + kap a^dag + c)|G> on |G> = D(gamma) S(r)|0>, and a|G> =
    (delta + t a^dag)|G> with t = tanh r, delta = gamma - t gamma*, so
    A = lam delta + c and B = lam t + kap. With x = -(1+s)/(1-s),
    Q_s(0) = 2/(pi(1-s)) <x^n>, and for f(x) = <G|x^n|G>

        <x^n> norm^2 = |A|^2 f + 2 Re(A* B h) + |B|^2 x (f + x f'),

    from a x^n a^dag = x^(n+1) (n+1), where h = <G|x^n a^dag|G> solves
    h = x conj(delta f + t h) (x^n a^dag = x a^dag x^n): h = x f (delta* +
    t x delta) / (1 - t^2 x^2). In s, with a+- = e^(+-2r) - s > 0,
    2/(pi(1-s)) f = 2 exp(-2 (Re^2 gamma / a+ + Im^2 gamma / a-)) /
    (pi sqrt(a+ a-)), x f'/f = sinh^2 r (1+s)^2 / (a+ a-) - (1-s^2)
    (Re^2 gamma / a+^2 + Im^2 gamma / a-^2) and 1 - t^2 x^2 =
    a+ a- / ((1-s) cosh r)^2 (sech^2 r at s = 0), so nothing cancels at
    large |s| or large r.
    """
    lam, kap, c, gamma, r, norm = _family_ladder(kind, param, beta, q)
    gamma = complex(gamma)
    t, re2, im2 = math.tanh(r), gamma.real ** 2, gamma.imag ** 2
    delta = gamma - t * gamma.conjugate()
    a, b = lam * delta + c, lam * t + kap
    x = -(1.0 + s) / (1.0 - s)
    a_p, a_m = math.exp(2.0 * r) - s, math.exp(-2.0 * r) - s
    d = a_p * a_m
    ops = math if isinstance(s, float) else np
    gauss = 2.0 * ops.exp(-2.0 * (re2 / a_p + im2 / a_m)) / (math.pi * ops.sqrt(d))
    h = x * (delta.conjugate() + t * x * delta) * ((1.0 - s) * math.cosh(r)) ** 2 / d
    x_df = (math.sinh(r) ** 2 * (1.0 + s) ** 2 / d
            - (1.0 - s * s) * (re2 / a_p ** 2 + im2 / a_m ** 2))
    return gauss * (abs(a) ** 2 + 2.0 * b * (a.conjugate() * h).real
                    + b * b * x * (1.0 + x_df)) / norm ** 2

