"""Truncated Fock-basis states and Gaussian operations on them.

States are density matrices on the span of |0>..|cutoff>, the matrix alone:
the probability mass lost to truncation is what its trace misses of 1.
Conventions: D(beta) = exp(beta a^dag - beta* a) and, for real q,
S(q) = exp(q/2 (a^dag^2 - a^2)), so that S^dag a S = a cosh q + a^dag sinh q.

Every Gaussian object comes from one annihilator recurrence. The amplitudes
of D(beta)S(q)|0> (coherent and squeezed vacua included) follow a three-term
recurrence in the photon number, and the matrix elements <m|D(beta)S(q)|n>
follow a recurrence in n seeded by that vector (Miatto & Quesada, Quantum 4,
366 (2020)). Both are exact at any cutoff: no element depends on levels
past it, so a Gaussian map needs no enlarged basis, the trace it pushes past
the cutoff is known exactly, and its photon numbers need no mapped matrix.
The PAC and PSS states are one ladder combination on a Gaussian vector, and
so is their image under any U = D(beta) S(q): U psi = L D(gamma) S(r)|0>,
L = lam a + kap a^dag + c. One helper (_family_ladder) works out lam, kap,
c, gamma and r. _family_vector builds psi from them in O(cutoff), and
qng.quasiprob gives the origin value of U psi from them in closed form, which
is how every family witness evaluates these states, with no vector.

Validation runs at the boundary only: a TruncatedState built from a caller's
matrix is checked in full (shape, finite entries, Hermitian, trace, positive
semidefinite), while the states this module builds (pure states, loss, maps,
mixtures) are positive semidefinite by construction, have their truncation
checked where it happens, and only have their trace checked against 1.
Real states stay real: a matrix with real entries is stored as float64, and
loss and real maps act on it in real arithmetic; complex inputs run the same
code in complex128. A cutoff that is not an integer >= 1 is one ValueError
where amplitudes start (_check_cutoff), a family parameter has one rule
(_family_param: a whole Fock m >= 0, a finite PAC alpha or PSS r >= 0), and
a non-finite beta or q is refused by name. A pure state that leaves
TRUNCATION_LIMIT of its norm past the cutoff (or a NaN norm), a PAC alpha or
PSS r too large for floating point, and a map that moves more than
MAP_TRUNCATION_LIMIT of the trace across it either way, raise TruncationError.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGVAL_TOL = 1e-8
TRUNCATION_LIMIT = 1e-6
MAP_TRUNCATION_LIMIT = 1e-8
RESCALE_AT = 2.0 ** 500  # a power of two, so rescaling is exact
_PARAM_NAMES = {"fock": "Fock number m", "pac": "PAC alpha", "pss": "PSS r"}


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
    """Density matrix on Fock levels 0..cutoff, cutoff its size - 1.

    Construction validates the matrix in full and accepts a trace in
    (1 - TRUNCATION_LIMIT, 1 + TRACE_TOL]; a real matrix stays real. The
    mass missing from the trace is the truncation tail.
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.matrix)
        rho = rho.astype(float if rho.dtype.kind in "biuf" else complex, copy=False)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
            raise ValueError(f"matrix must be square and at least 2x2, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("matrix entries must be finite")
        herm = np.max(np.abs(rho - rho.conj().T))
        if not herm <= HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian (deviation {herm:.3e})")
        tr = _check_trace(rho)
        if not tr > 1.0 - TRUNCATION_LIMIT:
            raise ValueError(f"trace {tr} misses {TRUNCATION_LIMIT:g} or more of 1")
        lam_min = float(np.linalg.eigvalsh(rho)[0])
        if not lam_min >= -EIGVAL_TOL:
            raise ValueError(f"matrix not positive semidefinite ({lam_min:.3e})")
        object.__setattr__(self, "matrix", rho)

    @property
    def cutoff(self) -> int:
        return self.dim - 1

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def tail_bound(self) -> float:
        """The mass missing from the trace, max(0, 1 - Tr rho)."""
        return max(0.0, 1.0 - float(np.trace(self.matrix).real))


def _check_trace(rho: np.ndarray) -> float:
    """Tr rho, once it is at most 1 + TRACE_TOL (NaN fails this too)."""
    tr = float(np.real(np.trace(rho)))
    if not tr <= 1.0 + TRACE_TOL:
        raise ValueError(f"trace {tr} exceeds 1")
    return tr


def _trusted_state(rho: np.ndarray) -> TruncatedState:
    """State from a matrix that is Hermitian and PSD by construction.

    Only the trace is checked; __post_init__ and its eigendecomposition are
    skipped.
    """
    _check_trace(rho)
    state = object.__new__(TruncatedState)
    object.__setattr__(state, "matrix", rho)
    return state


def _check_cutoff(cutoff) -> None:
    """Refuse a cutoff that is not an integer >= 1, before any amplitude."""
    if not (isinstance(cutoff, numbers.Integral) and cutoff >= 1):
        raise ValueError(f"cutoff must be an integer >= 1, got {cutoff!r}")


def _check_fits(psi: np.ndarray, what: str) -> None:
    """Refuse psi unless its levels 0..psi.size - 1 keep all but TRUNCATION_LIMIT
    of its norm: a kept norm above 1 means the amplitudes cancelled in floating
    point (a PSS r of about 100 or more), and no cutoff holds that state either;
    a NaN norm (a PAC alpha of about 1e154) is refused as a tail."""
    cutoff = psi.size - 1
    norm = float(np.sum(np.abs(psi) ** 2))
    if norm > 1.0 + TRACE_TOL:
        raise TruncationError(f"cutoff {cutoff} keeps norm {norm:.3e} > 1 for {what}")
    tail = 1.0 - norm
    if not tail < TRUNCATION_LIMIT:  # NaN fails this too
        raise TruncationError(f"cutoff {cutoff} leaves tail {tail:.3e} for {what}")


def _state_from_vector(psi: np.ndarray, what: str) -> TruncatedState:
    """Pure state |psi><psi|, once psi fits its cutoff."""
    _check_fits(psi, what)
    return _trusted_state(np.outer(psi, psi.conj()))


def _family_param(kind: str, param):
    """A family member's parameter once valid: a Fock m as an int, once a whole
    number >= 0; a PAC alpha or PSS r as given, once finite and >= 0."""
    if kind not in _PARAM_NAMES:
        raise ValueError(f"unknown family kind {kind!r}")
    if not (param >= 0 and math.isfinite(param)  # NaN fails this too
            and (kind != "fock" or param == math.floor(param))):
        rule = "an integer" if kind == "fock" else "finite and"
        raise ValueError(f"{_PARAM_NAMES[kind]} must be {rule} >= 0, got {param!r}")
    return int(param) if kind == "fock" else param


def _member_vector(kind: str, param, cutoff: int) -> tuple[np.ndarray, str]:
    """Amplitudes on levels 0..cutoff of the Fock state |param> or of the PAC
    or PSS state of _family_ladder, and the state's name for error messages;
    a Fock state past the cutoff raises TruncationError."""
    param = _family_param(kind, param)
    _check_cutoff(cutoff)
    if kind == "fock":
        if param > cutoff:
            raise TruncationError(
                f"cutoff {cutoff} too small for Fock state |{param}>")
        psi = np.zeros(cutoff + 1)
        psi[param] = 1.0
        return psi, f"Fock state |{param}>"
    what = f"{_PARAM_NAMES[kind]}={param:.3g}"
    try:
        return _family_vector(kind, param, cutoff), what
    except OverflowError:  # alpha^2 past about 1.3e154, sinh r past r = 710
        raise TruncationError(f"{what} is too large for floating point") from None


def make_fock(m: int, cutoff: int) -> TruncatedState:
    """Fock state |m><m|."""
    return _state_from_vector(*_member_vector("fock", m, cutoff))


def make_coherent(alpha: complex, cutoff: int) -> TruncatedState:
    """Coherent state |alpha>, truncated at the given cutoff."""
    return _state_from_vector(displaced_squeezed_vector(alpha, 0.0, cutoff),
                              f"|alpha|={abs(alpha):.3g}")


def make_pac(alpha: float, cutoff: int) -> TruncatedState:
    """Photon-added coherent state a^dag|alpha>, normalized; alpha finite, >= 0."""
    return _state_from_vector(*_member_vector("pac", alpha, cutoff))


def make_squeezed(r: float, cutoff: int) -> TruncatedState:
    """Squeezed vacuum S(r)|0>."""
    return _state_from_vector(displaced_squeezed_vector(0.0, r, cutoff),
                              f"squeezed vacuum r={r:.3g}")


def make_pss(r: float, cutoff: int) -> TruncatedState:
    """Photon-subtracted squeezed state a S(r)|0> / sinh r = S(r)|1>; r finite, >= 0."""
    return _state_from_vector(*_member_vector("pss", r, cutoff))


def _family_ladder(kind: str, param: float, beta: complex, q: float):
    """Ladder form of U psi for U = D(beta) S(q): (lam, kap, c, gamma, r, norm)
    with U psi = (lam a + kap a^dag + c) D(gamma) S(r)|0> / norm, up to a phase.

    psi is the PAC state a^dag D(alpha)|0> / sqrt(1 + |alpha|^2) (kind "pac")
    or the PSS state a S(r)|0> / sinh r = S(r)|1> = (a^dag cosh r - a sinh r)
    S(r)|0> (kind "pss"; this form has no 1/sinh r to cancel at small r):
    a ladder combination lam0 a + kap0 a^dag on a Gaussian vector
    D(b0) S(r0)|0>. U a U^dag = (a - beta) cosh q - (a^dag - beta*) sinh q
    moves the ladder, and U D(b0) S(r0)|0> = D(beta + b0 cosh q + b0* sinh q)
    S(r0 + q)|0> up to a phase. c is real when beta is real.
    """
    if kind == "pac":
        lam0, kap0, b0, r0 = 0.0, 1.0, complex(param), 0.0
        norm = math.sqrt(1.0 + param ** 2)
    else:
        lam0, kap0, b0, r0 = -math.sinh(param), math.cosh(param), 0j, param
        norm = 1.0
    mu, nu = math.cosh(q), math.sinh(q)
    lam, kap = lam0 * mu - kap0 * nu, kap0 * mu - lam0 * nu
    shift = beta.real if beta.imag == 0 else beta  # a real map keeps psi real
    c = -lam * shift - kap * shift.conjugate()
    gamma = beta + b0 * mu + b0.conjugate() * nu
    return lam, kap, c, gamma, r0 + q, norm


def _family_vector(kind: str, param: float, cutoff: int) -> np.ndarray:
    """Amplitudes on levels 0..cutoff of the PAC or PSS state psi of
    _family_ladder.

    One Gaussian vector (one level past the cutoff, so every amplitude is
    exact) and two shifted multiplies. The norm missing from the result is
    the probability psi puts past the cutoff.
    """
    lam, kap, c, gamma, r, norm = _family_ladder(kind, param, 0j, 0.0)
    g = displaced_squeezed_vector(gamma, r, cutoff + 1)
    root = np.sqrt(np.arange(1, cutoff + 2))
    lower = root * g[1:]  # (a g)_n = sqrt(n+1) g_{n+1}
    upper = np.zeros_like(lower)
    upper[1:] = root[:-1] * g[:-2]  # (a^dag g)_n = sqrt(n) g_{n-1}
    return (lam * lower + kap * upper + c * g[:-1]) / norm


def make_displaced_squeezed(beta: complex, q: float, cutoff: int) -> TruncatedState:
    """Pure Gaussian state D(beta) S(q) |0> on the truncated basis."""
    return _state_from_vector(displaced_squeezed_vector(beta, q, cutoff),
                              f"beta={beta}, q={q}")


def displaced_squeezed_vector(beta: complex, q: float, cutoff: int) -> np.ndarray:
    """Amplitudes of D(beta)S(q)|0> for n = 0..cutoff.

    The state is annihilated by mu (a - beta) - nu (a^dag - beta*), which
    gives an exact three-term recurrence seeded by the closed-form vacuum
    overlap; every returned amplitude is exact at the cutoff. The seed's
    magnitude (0.0 past |beta| ~ 38) and exact rescalings enter per term as logs.
    The amplitudes are real, and returned as float64, when beta is real.
    """
    _check_cutoff(cutoff)
    beta = complex(beta)
    if not (cmath.isfinite(beta) and math.isfinite(q)):
        raise ValueError(f"beta and q must be finite, got beta={beta}, q={q}")
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
    amps = np.array(amps, dtype=complex) * np.exp(log_scale)
    # a real beta leaves every imaginary part exactly 0
    return np.ascontiguousarray(amps.real) if beta.imag == 0 else amps


def apply_loss(state: TruncatedState, channel: ChannelSpec) -> TruncatedState:
    """Pure-loss (amplitude damping) channel with lost fraction epsilon.

    Operator-sum form: the Kraus operator removing l photons has elements
    K_l[m-l, m] = sqrt(C(m, l) (1-eps)^{m-l} eps^l). All weights come from
    one table of log factorials (math.lgamma); each l is then one update of
    the output.
    """
    eps = channel.epsilon
    if eps == 0:
        return state
    d = state.dim
    rho = state.matrix
    eta = 1.0 - eps
    kept = np.arange(d)
    lost = kept[:, None]
    # log m! for m = 0..2d-2
    log_fact = np.fromiter(map(math.lgamma, range(1, 2 * d)), float, 2 * d - 1)
    # w[l, k] = sqrt(C(k + l, l) eta^k eps^l), the weight of K_l[k, k + l]
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = (log_fact[kept + lost] - log_fact[kept] - log_fact[lost]
                + np.where(kept > 0, kept * np.log(eta), 0.0)) + lost * np.log(eps)
    w = np.sqrt(np.exp(logw))
    out = np.zeros_like(rho)
    for n, wn in enumerate(w):  # n photons lost
        k = d - n
        out[:k, :k] += (wn[:k, None] * rho[n:, n:]) * wn[:k]
    out = 0.5 * (out + out.conj().T)
    return _trusted_state(out)


def _map_core(state: TruncatedState, gmap: GaussianMapSpec):
    """G, G rho and mapped photon numbers p' for U = D(beta) S(q).

    G[m, n] = <m|U|n> is built exactly, one column at a time: column 0 is
    U|0>, and a^dag U = U (a^dag cosh q + a sinh q + beta*) gives

        sqrt(n+1) G[m, n+1] = (sqrt(m) G[m-1, n] - beta* G[m, n]) / cosh q
                              - tanh q sqrt(n) G[m, n-1],

    which reads no level past the cutoff. p'_m = Re sum_n (G rho)[m, n]
    conj(G[m, n]) is the diagonal of G rho G^dag, and since U is unitary
    Tr rho - sum p' is exactly the trace pushed past the cutoff. A negative
    loss means the recurrence diverged (strong squeezing at a large cutoff),
    so a loss beyond MAP_TRUNCATION_LIMIT either way raises; a smaller
    overshoot is accepted, and the tail of witness.delta_b counts it. G is
    real when beta is real, so a real state is mapped in real arithmetic.
    """
    beta, q = complex(gmap.displacement), float(gmap.squeeze)
    beta_conj = beta.real if beta.imag == 0 else beta.conjugate()
    d = state.dim
    root = np.sqrt(np.arange(d))
    scale = 1.0 / (math.cosh(q) * root[1:])
    lift = np.outer(scale, root[1:])
    shift = (beta_conj * scale).tolist()
    back = (math.tanh(q) * root[:-1] / root[1:]).tolist()
    first = displaced_squeezed_vector(beta, q, d - 1)
    rows = np.zeros((d + 1, d), dtype=first.dtype)  # rows[n + 1] = G[:, n]
    rows[1] = first
    rho = state.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises below
        for n, (up, c, b) in enumerate(zip(lift, shift, back)):
            y, nxt = rows[n + 1], rows[n + 2]
            np.multiply(up, y[:-1], out=nxt[1:])
            nxt -= c * y
            nxt -= b * rows[n]
        g = rows[1:].T
        g_rho = g @ rho
        probs = (g_rho * g.conj()).real.sum(axis=1)
    lost = float(np.trace(rho).real) - float(np.sum(probs))
    if not abs(lost) <= MAP_TRUNCATION_LIMIT:  # NaN fails this too
        raise TruncationError(f"map loses trace {lost:.3e} past cutoff {state.cutoff}")
    return g, g_rho, probs


def mapped_photon_probs(state: TruncatedState, gmap: GaussianMapSpec) -> np.ndarray:
    """Photon-number probabilities of the mapped state: the diagonal of apply_map."""
    return photon_probs(state) if gmap.is_identity else _map_core(state, gmap)[2]


def apply_map(state: TruncatedState, gmap: GaussianMapSpec) -> TruncatedState:
    """Apply U = D(beta) S(q) as (G rho) G^dag with the exact block G of
    _map_core; the trace pushed past the cutoff joins the tail."""
    if gmap.is_identity:
        return state
    g, g_rho, _ = _map_core(state, gmap)
    sub = g_rho @ g.conj().T
    return _trusted_state(0.5 * (sub + sub.conj().T))


def mix(states: list[TruncatedState], weights: list[float]) -> TruncatedState:
    """Convex mixture of states sharing one cutoff."""
    if len(states) != len(weights) or not states:
        raise ValueError("states and weights must be nonempty and equal-length")
    if not all(map(math.isfinite, weights)):
        raise ValueError(f"weights must be finite, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-12 or min(weights) < 0:
        raise ValueError("weights must be a probability vector")
    if any(s.matrix.shape != states[0].matrix.shape for s in states):
        raise ValueError("all states must share the same cutoff")
    return _trusted_state(sum(w * s.matrix for w, s in zip(weights, states)))


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
