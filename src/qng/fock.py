"""Truncated Fock-basis states and Gaussian operations on them.

States are density matrices on the span of |0>..|cutoff|, stored together
with an upper estimate of the probability mass lost to truncation.
Conventions: D(beta) = exp(beta a^dag - beta* a) and, for real q,
S(q) = exp(q/2 (a^dag^2 - a^2)), so that S^dag a S = a cosh q + a^dag sinh q.

Every Gaussian object comes from one annihilator recurrence. The amplitudes
of D(beta)S(q)|0> (coherent and squeezed vacua included) follow a three-term
recurrence in the photon number, and the matrix elements <m|D(beta)S(q)|n>
follow a recurrence in n seeded by that vector (Miatto & Quesada, Quantum 4,
366 (2020)). Both are exact at any cutoff: no element depends on levels
past it, so a Gaussian map needs no enlarged basis and the trace it pushes
past the cutoff is known exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_TOL = 1e-8
TRUNCATION_LIMIT = 1e-6
MAP_TRUNCATION_LIMIT = 1e-8
RESCALE_AT = 2.0 ** 500  # a power of two, so rescaling is exact


class TruncationError(Exception):
    """Raised when the chosen cutoff cannot hold the requested state."""


@dataclass(frozen=True)
class ChannelSpec:
    """Pure-loss channel, parametrized by the lost fraction epsilon."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class GaussianMapSpec:
    """Squeeze-then-displace unitary map: D(displacement) S(squeeze)."""

    displacement: complex = 0.0
    squeeze: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.displacement) and np.isfinite(self.squeeze)):
            raise ValueError("map parameters must be finite")

    @property
    def is_identity(self) -> bool:
        return self.displacement == 0 and self.squeeze == 0


@dataclass(frozen=True)
class TruncatedState:
    """Density matrix on Fock levels 0..cutoff with declared tail mass."""

    cutoff: int
    matrix: np.ndarray = field(repr=False)
    tail_bound: float = 0.0

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if rho.shape != (self.cutoff + 1, self.cutoff + 1):
            raise ValueError(
                f"matrix shape {rho.shape} does not match cutoff {self.cutoff}"
            )
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be >= 0")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian (deviation {herm:.3e})")
        tr = float(np.real(np.trace(rho)))
        if not (1.0 - self.tail_bound - TRACE_TOL <= tr <= 1.0 + TRACE_TOL):
            raise ValueError(
                f"trace {tr} incompatible with tail_bound {self.tail_bound}"
            )
        lam_min = float(np.linalg.eigvalsh(rho)[0])
        if lam_min < -EIGVAL_TOL:
            raise ValueError(f"matrix not positive semidefinite ({lam_min:.3e})")
        object.__setattr__(self, "matrix", rho)

    @property
    def dim(self) -> int:
        return self.cutoff + 1


def _state_from_vector(psi: np.ndarray, cutoff: int, what: str) -> TruncatedState:
    """Pure state |psi><psi|; the norm missing from psi is its tail."""
    tail = max(0.0, 1.0 - float(np.sum(np.abs(psi) ** 2)))
    if tail >= TRUNCATION_LIMIT:
        raise TruncationError(f"cutoff {cutoff} leaves tail {tail:.3e} for {what}")
    return TruncatedState(cutoff=cutoff, matrix=np.outer(psi, psi.conj()),
                          tail_bound=tail)


def make_fock(m: int, cutoff: int) -> TruncatedState:
    """Fock state |m><m|."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m > cutoff:
        raise TruncationError(f"cutoff {cutoff} too small for Fock state |{m}>")
    psi = np.zeros(cutoff + 1, dtype=complex)
    psi[m] = 1.0
    return _state_from_vector(psi, cutoff, f"Fock state |{m}>")


def make_coherent(alpha: complex, cutoff: int) -> TruncatedState:
    """Coherent state |alpha>, truncated at the given cutoff."""
    return _state_from_vector(displaced_squeezed_vector(alpha, 0.0, cutoff),
                              cutoff, f"|alpha|={abs(alpha):.3g}")


def make_pac(alpha: float, cutoff: int) -> TruncatedState:
    """Photon-added coherent state, normalized a^dag |alpha>."""
    c = displaced_squeezed_vector(alpha, 0.0, cutoff)
    psi = np.zeros(cutoff + 1, dtype=complex)
    psi[1:] = c[:-1] * np.sqrt(np.arange(1, cutoff + 1))
    # exact norm of a^dag|alpha> is sqrt(1 + |alpha|^2)
    psi /= np.sqrt(1.0 + abs(alpha) ** 2)
    return _state_from_vector(psi, cutoff, f"PAC alpha={alpha:.3g}")


def make_squeezed(r: float, cutoff: int) -> TruncatedState:
    """Squeezed vacuum S(r)|0>."""
    return _state_from_vector(displaced_squeezed_vector(0.0, r, cutoff),
                              cutoff, f"squeezed vacuum r={r:.3g}")


def make_pss(r: float, cutoff: int) -> TruncatedState:
    """Photon-subtracted squeezed state, normalized a S(r)|0>.

    The r -> 0 limit |1> is returned directly once r * r underflows to 0.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if r * r == 0.0:
        return make_fock(1, cutoff)
    c = displaced_squeezed_vector(0.0, r, cutoff + 1)
    n = np.arange(1, cutoff + 2)
    psi = c[1:] * np.sqrt(n)  # (a psi)_n = sqrt(n+1) c_{n+1}
    psi = psi / np.sinh(r)    # exact norm of a S(r)|0> is sinh r
    return _state_from_vector(psi, cutoff, f"PSS r={r:.3g}")


def make_displaced_squeezed(beta: complex, q: float, cutoff: int) -> TruncatedState:
    """Pure Gaussian state D(beta) S(q) |0> on the truncated basis."""
    return _state_from_vector(displaced_squeezed_vector(beta, q, cutoff),
                              cutoff, f"beta={beta}, q={q}")


def displaced_squeezed_vector(beta: complex, q: float, cutoff: int) -> np.ndarray:
    """Amplitudes of D(beta)S(q)|0> for n = 0..cutoff.

    The state is annihilated by mu (a - beta) - nu (a^dag - beta*), which
    gives an exact three-term recurrence seeded by the closed-form vacuum
    overlap; every returned amplitude is exact at the cutoff. The seed's
    magnitude (0.0 past |beta| ~ 38) and exact rescalings enter per term as logs.
    """
    beta = complex(beta)
    mu, nu = math.cosh(q), math.sinh(q)
    exponent = -0.5 * abs(beta) ** 2 + 0.5 * math.tanh(q) * beta.conjugate() ** 2
    c = cmath.exp(1j * exponent.imag) / math.sqrt(mu)
    drive = mu * beta - nu * beta.conjugate()
    log_scale = np.full(cutoff + 1, exponent.real)
    amps = [c]
    prev = 0.0  # sqrt(n) c[n-1]
    for n in range(cutoff):
        root = math.sqrt(n + 1)
        c, prev = (drive * c + nu * prev) / (mu * root), root * c
        if abs(c) > RESCALE_AT:
            c, prev = c / RESCALE_AT, prev / RESCALE_AT
            log_scale[n + 1:] += math.log(RESCALE_AT)
        amps.append(c)
    return np.array(amps, dtype=complex) * np.exp(log_scale)


def apply_loss(state: TruncatedState, channel: ChannelSpec) -> TruncatedState:
    """Pure-loss (amplitude damping) channel with lost fraction epsilon.

    Operator-sum form: the Kraus operator removing l photons has elements
    K_l[m-l, m] = sqrt(C(m, l) (1-eps)^{m-l} eps^l).
    """
    eps = channel.epsilon
    if eps == 0:
        return state
    d = state.dim
    rho = state.matrix
    eta = 1.0 - eps
    out = np.zeros_like(rho)
    for loss in range(d):
        keep = np.arange(d - loss)
        # log of C(m, l) (1-eps)^{m-l} eps^l for m = keep + loss
        logc = (gammaln(keep + loss + 1) - gammaln(keep + 1) - gammaln(loss + 1))
        with np.errstate(divide="ignore"):
            logw = logc + keep * np.log(eta) if eta > 0 else np.where(
                keep == 0, logc, -np.inf)
            logw = logw + (loss * np.log(eps) if eps > 0 else 0.0)
        w = np.sqrt(np.exp(logw))
        block = rho[loss:, loss:]
        out[: d - loss, : d - loss] += (w[:, None] * block) * w[None, :]
    out = 0.5 * (out + out.conj().T)
    return TruncatedState(cutoff=state.cutoff, matrix=out,
                          tail_bound=state.tail_bound)


def apply_map(state: TruncatedState, gmap: GaussianMapSpec) -> TruncatedState:
    """Apply the unitary U = D(beta) S(q) to a state, with truncation control.

    The block G[m, n] = <m|U|n> on the state's levels is built exactly, one
    column at a time. Column 0 is U|0>; a^dag U = U (a^dag cosh q + a sinh q
    + beta*) gives the rest,

        sqrt(n+1) G[m, n+1] = (sqrt(m) G[m-1, n] - beta* G[m, n]) / cosh q
                              - tanh q sqrt(n) G[m, n-1],

    which reads no level past the cutoff. The mapped state is G rho G^dag.
    Since U is unitary, Tr rho - Tr(G rho G^dag) is exactly the trace pushed
    past the cutoff; it is added to tail_bound.
    """
    if gmap.is_identity:
        return state
    beta, q = complex(gmap.displacement), float(gmap.squeeze)
    d = state.dim
    root = np.sqrt(np.arange(d))
    inv_mu, t = 1.0 / math.cosh(q), math.tanh(q)
    cols = np.empty((d, d), dtype=complex)  # cols[n] = G[:, n]
    cols[0] = displaced_squeezed_vector(beta, q, d - 1)
    for n in range(d - 1):
        col = -beta.conjugate() * cols[n]
        col[1:] += root[1:] * cols[n, :-1]
        col *= inv_mu
        if n > 0:
            col -= (t * root[n]) * cols[n - 1]
        cols[n + 1] = col / root[n + 1]
    g = cols.T
    rho = state.matrix
    sub = g @ rho @ g.conj().T
    lost = float(np.real(np.trace(rho) - np.trace(sub)))
    if lost > MAP_TRUNCATION_LIMIT:
        raise TruncationError(
            f"map loses trace {lost:.3e} past cutoff {state.cutoff}"
        )
    sub = 0.5 * (sub + sub.conj().T)
    return TruncatedState(cutoff=state.cutoff, matrix=sub,
                          tail_bound=state.tail_bound + max(lost, 0.0))


def mix(states: list[TruncatedState], weights: list[float]) -> TruncatedState:
    """Convex mixture of states sharing one cutoff."""
    if len(states) != len(weights) or not states:
        raise ValueError("states and weights must be nonempty and equal-length")
    if abs(sum(weights) - 1.0) > 1e-12 or min(weights) < 0:
        raise ValueError("weights must be a probability vector")
    cutoff = states[0].cutoff
    if any(s.cutoff != cutoff for s in states):
        raise ValueError("all states must share the same cutoff")
    rho = sum(w * s.matrix for w, s in zip(weights, states))
    tail = sum(w * s.tail_bound for w, s in zip(weights, states))
    return TruncatedState(cutoff=cutoff, matrix=rho, tail_bound=tail)


def photon_probs(state: TruncatedState) -> np.ndarray:
    """Diagonal photon-number probabilities p_m."""
    return np.real(np.diag(state.matrix)).copy()


def moments(state: TruncatedState) -> tuple[float, complex, complex]:
    """Return (mean photon number, <a>, <a^2>) from the truncated matrix.

    All three only touch matrix diagonals: Tr(rho a^k) picks the k-th
    subdiagonal rho[n+k, n] weighted by the ladder factors.
    """
    rho = state.matrix
    d = state.dim
    n = np.arange(d)
    nbar = float(np.dot(n, np.real(np.diagonal(rho))))
    a1 = complex(np.dot(np.sqrt(n[1:]), np.diagonal(rho, offset=-1)))
    k = n[: d - 2]
    a2 = complex(np.dot(np.sqrt((k + 1) * (k + 2)), np.diagonal(rho, offset=-2)))
    return nbar, a1, a2
