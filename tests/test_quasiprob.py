import numpy as np
import pytest

import qng.fock
import qng.quasiprob
import qng.witness
from qng.fock import (ChannelSpec, GaussianMapSpec, TruncatedState, apply_loss,
                      apply_map, make_coherent, make_displaced_squeezed,
                      make_fock, make_pac, make_pss, mix, photon_probs)
from qng.bounds import pure_bound
from qng.quasiprob import (S_MIN, qs_fock, qs_origin, qs_origin_error,
                           qs_pure_gaussian)
from qng.witness import StateFamily, delta_a, delta_b, witness_at_loss

S_VALUES = [0.0, -0.25, -0.5, -1.0, -2.0, -3.0]


def test_ordering_rejects_positive():
    with pytest.raises(ValueError, match=r"ordering parameter .* got 0.5"):
        qs_fock(0, 0.5)


def test_ordering_floor():
    # at the floor the origin formulas stay finite; just past it s is refused
    assert qs_fock(0, S_MIN) == 2 / (np.pi * (1 - S_MIN))
    for s in [np.nextafter(S_MIN, -np.inf), -1e200, -np.inf, np.nan]:
        with pytest.raises(ValueError, match="ordering parameter"):
            qs_fock(0, s)
    for family in [StateFamily("pac", 2.0), StateFamily("pss", 0.5)]:
        for eps in [0.0, 0.5, 1.0 - 2.0**-53]:
            rep = witness_at_loss(family, S_MIN, eps, "b")
            assert np.isfinite(rep.delta) and rep.bound > 0
    assert np.all(pure_bound(np.array([0.0, 1.0, 1e70]), S_MIN)[0] >= 0)


def test_vacuum_husimi():
    assert qs_origin(make_fock(0, 10), -1) == pytest.approx(1 / np.pi, rel=1e-14)


def test_single_photon_wigner():
    assert qs_origin(make_fock(1, 10), 0) == pytest.approx(-2 / np.pi, rel=1e-14)


def test_lossy_single_photon_wigner_zero():
    st = apply_loss(make_fock(1, 10), ChannelSpec(0.5))
    assert abs(qs_origin(st, 0)) < 1e-14


@pytest.mark.parametrize("m", [1.5, -1, np.nan, np.inf])
def test_fock_number_must_be_an_integer(m):
    # qs_fock(1.5, -1) used to return -0j
    with pytest.raises(ValueError, match="must be an integer >= 0"):
        qs_fock(m, -1)


def test_fock_closed_form_values():
    assert qs_fock(0, -2) == pytest.approx(2 / (3 * np.pi), rel=1e-14)
    assert qs_fock(1, -1) == 0.0
    assert qs_fock(2, -0.5) == pytest.approx((4 / (3 * np.pi)) / 9, rel=1e-14)


@pytest.mark.parametrize("s", S_VALUES[:5])
def test_fock_matrix_equivalence(s):
    for m in range(21):
        closed = qs_fock(m, s)
        series = qs_origin(make_fock(m, 25), s)
        assert abs(closed - series) < 1e-12


def test_pure_gaussian_vacuum():
    assert qs_pure_gaussian(0, 0, -1) == pytest.approx(1 / np.pi, rel=1e-14)


def test_pure_gaussian_full_squeezing():
    # exponent vanishes at n = m
    s = -0.7
    expected = 2 / (np.pi * np.sqrt(1 + s * (s - 2 - 8)))
    assert qs_pure_gaussian(2, 2, s) == pytest.approx(expected, rel=1e-14)


def test_pure_gaussian_displaced_only():
    assert qs_pure_gaussian(1, 0, 0, theta=np.pi / 2, phi=0) == pytest.approx(
        2 / np.pi * np.exp(-2), rel=1e-12)


def test_pure_gaussian_matrix_equivalence_grid():
    # matrix route at phi = 0: real squeeze with the displacement phase free
    for n in [0.5, 1.0, 2.0, 4.0]:
        for frac in [0.0, 0.5, 1.0]:
            m = frac * n
            q = np.arcsinh(np.sqrt(m))
            for theta in [0.0, 1.1, np.pi / 2]:
                alpha = np.sqrt(n - m) * np.exp(1j * theta)
                st = make_displaced_squeezed(alpha, q, 140)
                for s in [0, -0.5, -1, -2]:
                    assert qs_origin(st, s) == pytest.approx(
                        qs_pure_gaussian(n, m, s, theta=theta, phi=0), abs=1e-7)


@pytest.mark.parametrize("n,m", [(1, 1.5), (1, -0.5), (-1, -1), (1, np.nan),
                                 (np.nan, 0.5), (np.nan, np.nan)])
def test_pure_gaussian_invariant_bounds(n, m):
    # the squeezed share m must lie in [0, n]; NaN is refused as well
    with pytest.raises(ValueError, match=r"need 0 <= m <= n"):
        qs_pure_gaussian(n, m, -1)


def test_husimi_positivity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        alpha = rng.normal() + 1j * rng.normal()
        st = make_coherent(alpha * 0.8, 60)
        st = apply_loss(st, ChannelSpec(rng.uniform(0, 1)))
        assert qs_origin(st, -1) >= -1e-10


def test_husimi_is_vacuum_projection():
    st = apply_loss(make_fock(2, 20), ChannelSpec(0.35))
    p0 = np.real(st.matrix[0, 0])
    assert qs_origin(st, -1) == pytest.approx(p0 / np.pi, abs=1e-12)


def test_truncation_error_estimate():
    st = make_coherent(2.5, 40)
    assert qs_origin_error(st, -1) <= st.tail_bound * 2 / (np.pi * 2) + 1e-18
    assert qs_origin_error(st, -1) >= 0


def displaced_origin(state, s, alpha):
    """Q_s[rho](alpha): the origin value of the state displaced by -alpha,
    read from its photon numbers."""
    return delta_b(state, s, GaussianMapSpec(displacement=-alpha)).q_value


class TestDisplacedOrigin:
    def test_origin_matches(self):
        st = make_fock(1, 30)
        assert displaced_origin(st, -0.5, 0) == qs_origin(st, -0.5)

    def test_vacuum_husimi_gaussian(self):
        st = make_fock(0, 50)
        for alpha in [0.5, 1.0, 1.0 + 0.5j]:
            expected = np.exp(-abs(alpha) ** 2) / np.pi
            assert displaced_origin(st, -1, alpha) == pytest.approx(expected, abs=1e-9)

    def test_coherent_at_own_amplitude(self):
        st = make_coherent(1.0, 50)
        assert displaced_origin(st, -1, 1.0) == pytest.approx(1 / np.pi, abs=1e-9)

    @pytest.mark.parametrize("state", [
        pytest.param(make_pac(1.5, 60), id="pac"),
        pytest.param(apply_loss(make_pss(0.5, 60), ChannelSpec(0.3)), id="lossy-pss"),
        pytest.param(make_displaced_squeezed(0.3 - 0.4j, 0.2, 60), id="complex"),
    ])
    @pytest.mark.parametrize("alpha", [0.7, -0.4, 0.5 + 0.6j, -0.2j])
    @pytest.mark.parametrize("s", [0, -1, -2])
    def test_matches_displaced_matrix(self, state, alpha, s, apply_map_calls):
        # the displaced density matrix is the oracle of the photon-number path
        oracle = qs_origin(apply_map(state, GaussianMapSpec(displacement=-alpha)), s)
        assert abs(displaced_origin(state, s, alpha) - oracle) <= 1e-12
        assert apply_map_calls == []


@pytest.fixture
def apply_map_calls(monkeypatch):
    """Counts the apply_map calls made through any qng namespace that binds it."""
    calls = []
    real = qng.fock.apply_map

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (qng.fock, qng.quasiprob, qng.witness):
        if hasattr(module, "apply_map"):
            monkeypatch.setattr(module, "apply_map", counted)
    return calls


@pytest.mark.parametrize("state", [
    pytest.param(make_fock(3, 20), id="fock"),
    pytest.param(apply_loss(make_pac(2.0, 60), ChannelSpec(0.4)), id="lossy-pac"),
    pytest.param(make_displaced_squeezed(0.5j, -0.3, 60), id="complex"),
    # 1.6e-9 past cutoff 80, and 1.8e-9 more pushed past it by the map
    pytest.param(make_pss(1.0, 80), id="built-tail"),
    pytest.param(apply_map(apply_loss(make_pac(1.5, 80), ChannelSpec(0.3)),
                           GaussianMapSpec(displacement=-3.0, squeeze=1.0)),
                 id="mapped"),
    pytest.param(mix([make_pss(1.0, 80), make_coherent(1 + 1j, 80)], [0.4, 0.6]),
                 id="mixed"),
    pytest.param(TruncatedState(np.diag([0.6, 0.4 - 5e-7, 0.0, 0.0])),
                 id="caller-tail"),
    pytest.param(TruncatedState(apply_loss(make_fock(1, 10),
                                           ChannelSpec(0.5)).matrix),
                 id="caller-lossy-fock"),
])
@pytest.mark.parametrize("s", S_VALUES)
def test_qs_origin_is_criterion_a_value(state, s):
    # one series serves both: the origin value and the witness's q_value,
    # and its truncation tail, the mass missing from the trace, is the one
    # the verdict counts
    rep = delta_a(state, s)
    assert qs_origin(state, s) == rep.q_value
    tail = qs_origin_error(state, s)
    assert tail == qng.quasiprob._origin_series(photon_probs(state), s)[1]
    assert tail == pytest.approx(state.tail_bound * 2 / (np.pi * (1 - s)),
                                 rel=1e-6, abs=1e-15)
    assert rep.conclusive == (rep.delta + tail < 0)
