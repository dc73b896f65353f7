import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from scipy.linalg import expm
from scipy.special import gammaln

from qng.fock import (MAP_TRUNCATION_LIMIT, ChannelSpec, GaussianMapSpec,
                      TruncatedState, TruncationError, apply_loss, apply_map,
                      displaced_squeezed_vector, make_coherent,
                      make_displaced_squeezed, make_fock, make_pac, make_pss,
                      make_squeezed, mapped_photon_probs, mix, moments,
                      photon_probs)


class TestConstructors:
    def test_fock_vacuum(self):
        st = make_fock(0, 10)
        assert photon_probs(st)[0] == 1.0
        assert st.tail_bound == 0.0

    def test_fock_three(self):
        st = make_fock(3, 10)
        p = photon_probs(st)
        assert p[3] == 1.0
        assert moments(st)[0] == 3.0

    def test_fock_above_cutoff(self):
        with pytest.raises(TruncationError):
            make_fock(11, 10)

    def test_coherent_zero_is_vacuum(self):
        st = make_coherent(0, 10)
        assert photon_probs(st)[0] == pytest.approx(1.0, abs=1e-14)

    def test_coherent_mean_photon(self):
        st = make_coherent(1, 40)
        assert moments(st)[0] == pytest.approx(1.0, abs=1e-10)

    def test_coherent_poisson_ground_probability(self):
        st = make_coherent(2, 40)
        assert photon_probs(st)[0] == pytest.approx(np.exp(-4), rel=1e-12)

    def test_coherent_poisson_weights(self):
        # full Poisson(4) distribution, independent closed form
        st = make_coherent(2, 40)
        p = photon_probs(st)
        n = np.arange(41)
        from scipy.stats import poisson
        np.testing.assert_allclose(p, poisson.pmf(n, 4.0), atol=1e-12)

    def test_coherent_truncation_error(self):
        with pytest.raises(TruncationError):
            make_coherent(4, 10)

    def test_large_amplitude_matches_log_space_poisson(self):
        # exp(-|beta|^2/2) underflows at |beta| = 39; the amplitudes must not
        beta = 39 * np.exp(0.3j)
        c = displaced_squeezed_vector(beta, 0.0, 2400)
        n = np.arange(2401)
        ref = np.exp(-0.5 * abs(beta) ** 2 + n * np.log(abs(beta))
                     - 0.5 * gammaln(n + 1) + 0.3j * n)
        assert np.max(np.abs(c - ref)) < 1e-12
        assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("r", [0.0, 5e-324, 1e-200])
    def test_pss_tiny_squeezing_is_single_photon(self, r):
        st = make_pss(r, 10)
        assert photon_probs(st)[1] == pytest.approx(1.0, abs=1e-14)

    def test_pac_zero_is_single_photon(self):
        st = make_pac(0, 10)
        assert photon_probs(st)[1] == pytest.approx(1.0, abs=1e-14)

    def test_pac_mean_photon(self):
        st = make_pac(1, 40)
        assert moments(st)[0] == pytest.approx(2.5, abs=1e-9)

    def test_pac_field_amplitude(self):
        st = make_pac(1, 40)
        assert moments(st)[1] == pytest.approx(1.5, abs=1e-9)

    def test_pss_mean_photon(self):
        st = make_pss(0.5, 60)
        nbar = moments(st)[0]
        assert nbar == pytest.approx(3 * np.sinh(0.5) ** 2 + 1, abs=1e-9)

    def test_pss_squared_amplitude(self):
        st = make_pss(0.5, 60)
        a2 = moments(st)[2]
        assert a2 == pytest.approx(3 * np.cosh(0.5) * np.sinh(0.5), abs=1e-9)

    def test_pss_small_r_limit(self):
        st = make_pss(1e-4, 60)
        assert photon_probs(st)[1] == pytest.approx(1.0, abs=1e-6)

    def test_pss_huge_squeezing_is_truncation(self):
        # the cosh r and sinh r terms cancel in floating point: the kept norm
        # reads 1.1e13, and no cutoff could hold the state anyway
        with pytest.raises(TruncationError, match="norm"):
            make_pss(100, 80)

    def test_squeezed_vacuum_photon_number(self):
        st = make_squeezed(0.3, 40)
        assert moments(st)[0] == pytest.approx(np.sinh(0.3) ** 2, abs=1e-10)


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        rho[0, 1] = 0.1
        with pytest.raises(ValueError):
            TruncatedState(rho)

    def test_rejects_bad_trace(self):
        rho = np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            TruncatedState(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.5, -0.5, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            TruncatedState(rho)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_entries(self, bad):
        # an infinite coherence passed the Hermitian check (inf - inf is NaN)
        # and delta_a certified the state; a NaN one failed inside eigvalsh
        rho = np.diag([0.5, 0.5, 0.0])
        rho[0, 1] = rho[1, 0] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            TruncatedState(rho)

    @pytest.mark.parametrize("matrix", [np.full((2, 3), 0.5), np.eye(1),
                                        np.array([1.0, 0.0])],
                             ids=["not-square", "1x1", "vector"])
    def test_rejects_bad_shape(self, matrix):
        with pytest.raises(ValueError, match="square and at least 2x2"):
            TruncatedState(matrix)

    def test_cutoff_and_tail_read_from_the_matrix(self):
        # a caller's matrix may miss less than TRUNCATION_LIMIT of its trace,
        # and what it misses is its tail
        st = TruncatedState(np.diag([0.6, 0.4 - 5e-7, 0.0, 0.0]))
        assert (st.cutoff, st.dim) == (3, 4)
        assert st.tail_bound == pytest.approx(5e-7, rel=1e-9)

    @pytest.mark.parametrize("missing", [1.01e-6, 1e-3, 0.5])
    def test_rejects_a_trace_missing_the_truncation_limit(self, missing):
        with pytest.raises(ValueError, match="misses 1e-06 or more"):
            TruncatedState(np.diag([0.6, 0.4 - missing, 0.0]))

    def test_caller_matrix_is_decomposed_once(self, eigvalsh_calls):
        TruncatedState(np.diag([0.5, 0.5, 0.0]))
        assert eigvalsh_calls == [(3, 3)]

    def test_built_states_are_not_decomposed(self, eigvalsh_calls):
        st = mix([make_pss(0.5, 40), make_coherent(1 + 1j, 40)], [0.3, 0.7])
        st = apply_loss(st, ChannelSpec(0.4))
        apply_map(st, GaussianMapSpec(displacement=0.3, squeeze=-0.2))
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("matrix,dtype", [
        (np.diag([0.5, 0.5, 0.0]), np.float64),
        (np.diag([1, 0, 0]), np.float64),
        (np.diag([0.5, 0.5, 0.0]).astype(complex), np.complex128),
        (np.array([[0.5, 0.5j, 0], [-0.5j, 0.5, 0], [0, 0, 0]], dtype=object),
         np.complex128),
    ])
    def test_real_matrix_stays_real(self, matrix, dtype):
        assert TruncatedState(matrix).matrix.dtype == dtype

    def test_cutoff_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_fock(0, 0)

    @pytest.mark.parametrize("m", [1.5, -1, np.nan, np.inf])
    def test_fock_number_must_be_an_integer(self, m):
        # make_fock(1.5, 4) used to raise IndexError
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            make_fock(m, 4)

    def test_integral_fock_numbers_accepted(self):
        for m in (np.int64(2), 2.0):
            assert np.array_equal(make_fock(m, 4).matrix, make_fock(2, 4).matrix)

    @pytest.mark.parametrize("build", [
        lambda: make_coherent(np.inf, 10), lambda: make_pac(np.nan, 10),
        lambda: make_pss(np.inf, 10), lambda: make_squeezed(np.nan, 10),
        lambda: make_displaced_squeezed(complex(0, np.inf), 0.1, 10),
    ], ids=["coherent-inf", "pac-nan", "pss-inf", "squeezed-nan", "gaussian-inf"])
    def test_non_finite_parameters_refused_by_name(self, build):
        # these used to end in a RuntimeWarning and a NaN trace
        with pytest.raises(ValueError, match="beta and q must be finite"):
            build()


class TestLoss:
    def test_single_photon(self):
        st = apply_loss(make_fock(1, 10), ChannelSpec(0.3))
        p = photon_probs(st)
        assert p[0] == pytest.approx(0.3, abs=1e-14)
        assert p[1] == pytest.approx(0.7, abs=1e-14)

    def test_zero_loss_is_identity(self):
        st = make_pac(1, 40)
        out = apply_loss(st, ChannelSpec(0.0))
        np.testing.assert_array_equal(out.matrix, st.matrix)

    def test_fock3_half_loss_binomial(self):
        from math import comb
        st = apply_loss(make_fock(3, 10), ChannelSpec(0.5))
        p = photon_probs(st)
        for l in range(4):
            assert p[l] == pytest.approx(comb(3, l) / 8, abs=1e-13)

    @pytest.mark.parametrize("m", range(7))
    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_fock_binomial_closed_form(self, m, eps):
        from math import comb
        st = apply_loss(make_fock(m, 12), ChannelSpec(eps))
        p = photon_probs(st)
        expected = [comb(m, l) * (1 - eps) ** l * eps ** (m - l)
                    for l in range(m + 1)]
        np.testing.assert_allclose(p[: m + 1], expected, atol=1e-12)

    def test_composition(self):
        st = make_pac(1.2, 50)
        e1, e2 = 0.2, 0.35
        twice = apply_loss(apply_loss(st, ChannelSpec(e1)), ChannelSpec(e2))
        once = apply_loss(st, ChannelSpec(1 - (1 - e1) * (1 - e2)))
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-8

    def test_moment_covariance(self):
        st = make_pac(1.5, 60)
        n0, a10, a20 = moments(st)
        eps = 0.4
        n1, a11, a21 = moments(apply_loss(st, ChannelSpec(eps)))
        assert n1 == pytest.approx((1 - eps) * n0, abs=1e-8)
        assert a11 == pytest.approx(np.sqrt(1 - eps) * a10, abs=1e-8)
        assert a21 == pytest.approx((1 - eps) * a20, abs=1e-8)

    def test_full_loss_gives_vacuum(self):
        st = apply_loss(make_fock(4, 10), ChannelSpec(1.0))
        assert photon_probs(st)[0] == pytest.approx(1.0, abs=1e-12)

    def test_trace_preserved(self):
        st = make_pss(0.4, 60)
        out = apply_loss(st, ChannelSpec(0.6))
        assert np.trace(out.matrix).real == pytest.approx(
            np.trace(st.matrix).real, abs=1e-8)


def loss_oracle(rho, eps):
    """The operator sum of apply_loss, one Kraus operator at a time."""
    d = rho.shape[0]
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
    return 0.5 * (out + out.conj().T)


FAMILY_STATES = {
    "coherent": lambda cutoff, x: make_coherent(x * np.exp(0.7j), cutoff),
    "pss": lambda cutoff, x: make_pss(x / 4, cutoff),
    "pac": lambda cutoff, x: make_pac(x, cutoff),
}


class TestLossWeightsInOneArray:
    @pytest.mark.parametrize("kind", sorted(FAMILY_STATES))
    @pytest.mark.parametrize("eps", [1e-12, 0.3, 0.999, 1.0])
    @pytest.mark.parametrize("cutoff", [1, 2, 80])
    def test_matches_kraus_loop(self, kind, eps, cutoff):
        # small amplitudes where the cutoff is small, so the state fits
        st = FAMILY_STATES[kind](cutoff, 2.0 if cutoff == 80 else 1e-4)
        out = apply_loss(st, ChannelSpec(eps))
        ref = loss_oracle(st.matrix, eps)
        assert out.matrix.dtype == st.matrix.dtype
        assert np.max(np.abs(out.matrix - ref)) <= 1e-15
        assert out.tail_bound == pytest.approx(st.tail_bound, abs=1e-15)


class TestRealStatesStayReal:
    @pytest.mark.parametrize("st", [make_fock(2, 30), make_pss(0.5, 60),
                                    make_pac(1.5, 60),
                                    make_displaced_squeezed(0.4, -0.3, 60)],
                             ids=["fock", "pss", "pac", "gaussian"])
    def test_real_families_are_real(self, st):
        assert st.matrix.dtype == np.float64

    def test_complex_coherent_is_complex(self):
        assert make_coherent(1 + 1j, 40).matrix.dtype == np.complex128

    @pytest.mark.parametrize("gmap", [
        GaussianMapSpec(displacement=-1.2),
        GaussianMapSpec(squeeze=-0.4),
        GaussianMapSpec(displacement=complex(0.3), squeeze=0.2),
        GaussianMapSpec(displacement=0.4 - 0.3j, squeeze=0.2),
    ], ids=["displace", "squeeze", "both", "complex"])
    @pytest.mark.parametrize("family", [lambda: make_pss(0.5, 80),
                                        lambda: make_pac(1.5, 80)],
                             ids=["pss", "pac"])
    def test_real_matches_complex(self, family, gmap):
        real = family()
        cplx = TruncatedState(real.matrix.astype(complex))
        lossy_r = apply_loss(real, ChannelSpec(0.3))
        lossy_c = apply_loss(cplx, ChannelSpec(0.3))
        assert lossy_r.matrix.dtype == np.float64
        assert lossy_c.matrix.dtype == np.complex128
        assert np.max(np.abs(lossy_r.matrix - lossy_c.matrix)) <= 1e-13
        p_r = mapped_photon_probs(lossy_r, gmap)
        p_c = mapped_photon_probs(lossy_c, gmap)
        assert np.max(np.abs(p_r - p_c)) <= 1e-13
        out_r, out_c = apply_map(lossy_r, gmap), apply_map(lossy_c, gmap)
        real_map = gmap.displacement.imag == 0
        assert out_r.matrix.dtype == (np.float64 if real_map else np.complex128)
        assert np.max(np.abs(out_r.matrix - out_c.matrix)) <= 1e-13
        assert out_r.tail_bound == pytest.approx(out_c.tail_bound, abs=1e-13)


class TestGaussianMap:
    def test_identity(self):
        st = make_pac(1, 40)
        assert apply_map(st, GaussianMapSpec()) is st

    def test_displaced_vacuum_is_coherent(self):
        out = apply_map(make_fock(0, 50), GaussianMapSpec(displacement=1.0))
        # Poisson amplitudes e^{-1/2} / sqrt(n!) of |alpha = 1>
        ref = np.array([math.exp(-0.5) / math.sqrt(math.factorial(n))
                        for n in range(51)])
        assert np.max(np.abs(out.matrix - np.outer(ref, ref))) < 1e-8

    def test_squeezed_vacuum_photon_number(self):
        out = apply_map(make_fock(0, 50), GaussianMapSpec(squeeze=0.3))
        assert moments(out)[0] == pytest.approx(np.sinh(0.3) ** 2, abs=1e-8)

    def test_squeezed_vacuum_matches_series(self):
        r = 0.3
        out = apply_map(make_fock(0, 50), GaussianMapSpec(squeeze=r))
        # c_2k = (tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r)), odd levels empty
        ref = np.zeros(51)
        for k in range(26):
            ref[2 * k] = (math.tanh(r) ** k * math.sqrt(math.factorial(2 * k))
                          / (2 ** k * math.factorial(k) * math.sqrt(math.cosh(r))))
        assert np.max(np.abs(out.matrix - np.outer(ref, ref))) < 1e-10

    def test_displacement_moment_rule(self):
        st = make_pac(0.8, 70)
        n0, a10, _ = moments(st)
        beta = 0.5 - 0.2j
        out = apply_map(st, GaussianMapSpec(displacement=beta))
        expected = n0 + abs(beta) ** 2 + 2 * np.real(np.conj(beta) * a10)
        assert moments(out)[0] == pytest.approx(expected, abs=1e-8)

    def test_squeeze_moment_rule(self):
        st = make_pss(0.4, 80)
        n0, _, a20 = moments(st)
        q = -0.25
        mu, nu = np.cosh(q), np.sinh(q)
        out = apply_map(st, GaussianMapSpec(squeeze=q))
        expected = nu**2 + (mu**2 + nu**2) * n0 + mu * nu * 2 * np.real(a20)
        assert moments(out)[0] == pytest.approx(expected, abs=1e-7)

    def test_trace_preserved(self):
        st = make_pss(0.3, 60)
        out = apply_map(st, GaussianMapSpec(displacement=0.3, squeeze=-0.2))
        assert np.trace(out.matrix).real == pytest.approx(
            np.trace(st.matrix).real, abs=1e-8)

    def test_excessive_displacement_raises(self):
        with pytest.raises(TruncationError):
            apply_map(make_fock(0, 4), GaussianMapSpec(displacement=3.0))

    def test_mapped_photon_probs_excessive_displacement_raises(self):
        # the same lost-trace check as apply_map
        with pytest.raises(TruncationError):
            mapped_photon_probs(make_fock(0, 4), GaussianMapSpec(displacement=3.0))

    @pytest.mark.parametrize("cutoff", [160, 200])
    def test_diverged_recurrence_raises(self, cutoff):
        # strong squeezing at a large cutoff: the column recurrence blows up
        # and the mapped photon numbers sum to more than the trace
        with pytest.raises(TruncationError, match="loses trace -"):
            mapped_photon_probs(make_pss(1.0, cutoff), GaussianMapSpec(squeeze=-1.0))

    def test_strong_squeeze_fits_below_divergence(self):
        p = mapped_photon_probs(make_pss(1.0, 120), GaussianMapSpec(squeeze=-1.0))
        assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_mapped_photon_probs_identity(self):
        st = apply_loss(make_pac(1.5, 40), ChannelSpec(0.3))
        p = mapped_photon_probs(st, GaussianMapSpec())
        assert np.array_equal(p, photon_probs(st))

    @pytest.mark.parametrize("cutoff,beta,q,state", [
        (40, 1 - 1j, -0.5, "pac"),
        # lossy PAC 1.5 pushes 1.8e-9 past cutoff 80: must fit, not raise
        pytest.param(80, -3.0, 1.0, "pac", id="lossy-pac-strong-map"),
        (170, 0.3, 1.0, "pss"),
    ])
    def test_matches_expm_on_enlarged_basis(self, cutoff, beta, q, state):
        if state == "pac":
            st = apply_loss(make_pac(1.5, cutoff), ChannelSpec(0.3))
        else:
            st = apply_loss(make_pss(0.5, cutoff), ChannelSpec(0.4))
        # oracle: exponentiated generators on 500 extra levels, then projected
        work = st.dim + 500
        a = np.diag(np.sqrt(np.arange(1.0, work)), 1)
        u = expm(0.5 * q * (a.T @ a.T - a @ a))[:, : st.dim]
        u = expm(beta * a.T - np.conj(beta) * a) @ u
        big = u @ st.matrix @ u.conj().T
        ref = big[: st.dim, : st.dim]
        lost = np.trace(big).real - np.trace(ref).real
        gmap = GaussianMapSpec(displacement=beta, squeeze=q)
        out = apply_map(st, gmap)
        assert np.max(np.abs(out.matrix - ref)) < 1e-12
        assert out.tail_bound - st.tail_bound == pytest.approx(lost, abs=1e-12)
        p = mapped_photon_probs(st, gmap)
        assert np.max(np.abs(p - np.diag(ref).real)) < 1e-12
        assert np.trace(st.matrix).real - p.sum() == pytest.approx(lost, abs=1e-12)

    def test_displaced_squeezed_constructor(self):
        st = make_displaced_squeezed(0.7 + 0.1j, -0.3, 60)
        n_exp = abs(0.7 + 0.1j) ** 2 + np.sinh(0.3) ** 2
        assert moments(st)[0] == pytest.approx(n_exp, abs=1e-8)


def test_mix():
    a = make_fock(0, 10)
    b = make_fock(2, 10)
    st = mix([a, b], [0.25, 0.75])
    p = photon_probs(st)
    assert p[0] == pytest.approx(0.25)
    assert p[2] == pytest.approx(0.75)


def test_mix_rejects_bad_weights():
    a = make_fock(0, 10)
    with pytest.raises(ValueError):
        mix([a, a], [0.6, 0.6])


@pytest.mark.parametrize("w", [math.nan, math.inf])
def test_mix_rejects_non_finite_weight(w):
    # a NaN weight passed the sum and sign checks and failed later, with
    # "trace nan exceeds 1"
    a = make_fock(0, 10)
    with pytest.raises(ValueError, match="weights must be finite"):
        mix([a, a], [w, 1.0])


START_STATES = [make_fock(2, 60), make_pac(1.0, 60), make_pss(0.4, 60),
                make_coherent(0.5 + 0.5j, 60)]
CHANNELS = hst.one_of(
    hst.builds(ChannelSpec, hst.floats(0, 1)),
    hst.builds(GaussianMapSpec,
               hst.complex_numbers(max_magnitude=0.6, allow_nan=False,
                                   allow_infinity=False),
               hst.floats(-0.3, 0.3)))


@settings(max_examples=40, deadline=None)
@given(state=hst.sampled_from(START_STATES),
       ops=hst.lists(CHANNELS, min_size=1, max_size=3))
def test_loss_and_map_compositions_keep_trace_and_positivity(state, ops):
    # loss keeps the trace; a map loses only what it pushes past the cutoff
    for op in ops:
        before = float(np.trace(state.matrix).real)
        try:
            if isinstance(op, ChannelSpec):
                state = apply_loss(state, op)
                kept = before
            else:
                kept = float(mapped_photon_probs(state, op).sum())
                state = apply_map(state, op)
        except TruncationError:
            assume(False)
        assert -1e-12 <= before - kept <= MAP_TRUNCATION_LIMIT
        assert float(np.trace(state.matrix).real) == pytest.approx(kept, abs=1e-12)
    rho = state.matrix
    trace = float(np.trace(rho).real)
    assert trace <= 1.0 + 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12
