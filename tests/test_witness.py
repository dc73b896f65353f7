import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.optimize import brentq, minimize_scalar

import qng.fock
import qng.witness
from qng.bounds import bound_objective, pure_bound
from qng.fock import (ChannelSpec, GaussianMapSpec, TruncatedState, apply_loss,
                      apply_map, make_coherent, make_fock, make_pac, make_pss,
                      mix, moments)
from qng.witness import (StateFamily, beta_opt, delta_a, delta_b,
                         epsilon_threshold, q_opt, refine_map, witness_at_loss)


class TestDeltaA:
    def test_single_photon_wigner(self):
        rep = delta_a(make_fock(1, 10), 0)
        expected = -2 / np.pi - 2 / np.pi * np.exp(-4)
        assert rep.delta == pytest.approx(expected, abs=1e-12)
        assert rep.conclusive

    def test_vacuum_saturates(self):
        for s in [0, -0.5, -1, -2]:
            rep = delta_a(make_fock(0, 10), s)
            assert rep.delta == pytest.approx(0.0, abs=1e-12)
            assert not rep.conclusive

    def test_half_lossy_photon_still_conclusive(self):
        # Wigner negativity is gone at half loss, yet the witness still fires
        # because the bound at n_bar = 1/2 is strictly positive
        st = apply_loss(make_fock(1, 10), ChannelSpec(0.5))
        rep = delta_a(st, 0)
        assert rep.q_value == pytest.approx(0.0, abs=1e-14)
        assert rep.bound > 0.1
        assert rep.conclusive

    def test_nbar_slack_raises_delta(self):
        st = make_fock(1, 10)
        loose = delta_a(st, -1, nbar_slack=0.5)
        tight = delta_a(st, -1)
        assert loose.delta >= tight.delta

    def test_report_consistency(self):
        rep = delta_a(make_fock(2, 10), -1)
        assert rep.delta == rep.q_value - rep.bound
        assert rep.conclusive == (rep.delta < 0)


FAMILIES = [StateFamily("fock", 3), StateFamily("pac", 2.0),
            StateFamily("pss", 0.45)]


def assert_matches_lossy_matrix(family, s, eps, nbar_slack):
    # the lossy density matrix is the oracle of the generating-function path
    fast = witness_at_loss(family, s, eps, "a", nbar_slack=nbar_slack)
    lossy = apply_loss(family.build(80), ChannelSpec(eps))
    oracle = delta_a(lossy, s, nbar_slack=nbar_slack)
    assert abs(fast.delta - oracle.delta) <= 1e-12
    assert abs(fast.q_value - oracle.q_value) <= 1e-12
    assert abs(fast.n_bar - oracle.n_bar) <= 1e-12
    assert fast.conclusive == (fast.delta < 0)


class TestCriterionAFromPhotonNumbers:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("s", [0, -0.25, -1, -2, -3])
    @pytest.mark.parametrize("eps", [0, 0.1, 0.5, 0.9, 1])
    def test_matches_lossy_matrix(self, family, s, eps):
        assert_matches_lossy_matrix(family, s, eps, 0.0)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    def test_matches_lossy_matrix_with_nbar_slack(self, family):
        assert_matches_lossy_matrix(family, -1, 0.3, 0.25)

    @settings(max_examples=40, deadline=None)
    @given(family=hst.one_of(
               hst.builds(StateFamily, hst.just("fock"), hst.integers(0, 8)),
               hst.builds(StateFamily, hst.just("pac"), hst.floats(0, 3)),
               hst.builds(StateFamily, hst.just("pss"), hst.floats(0, 0.8))),
           s=hst.floats(-3, 0), eps=hst.floats(0, 1),
           nbar_slack=hst.floats(0, 1))
    def test_matches_lossy_matrix_property(self, family, s, eps, nbar_slack):
        assert_matches_lossy_matrix(family, s, eps, nbar_slack)

    @pytest.mark.parametrize("family,criterion,lossy_matrix", [
        pytest.param(StateFamily("fock", 2), "a", False, id="a"),
        # a Fock seed map is the identity, so criterion b is criterion a
        pytest.param(StateFamily("fock", 2), "b", False, id="b"),
        pytest.param(StateFamily("pss", 0.5), "b", True, id="b-pss"),
    ])
    def test_threshold_builds_once(self, monkeypatch, family, criterion,
                                   lossy_matrix):
        builds, losses = [], []
        build, loss = StateFamily.build, qng.witness.apply_loss

        def counted_build(self, cutoff):
            builds.append(cutoff)
            return build(self, cutoff)

        def counted_loss(*args):
            losses.append(args)
            return loss(*args)

        monkeypatch.setattr(StateFamily, "build", counted_build)
        monkeypatch.setattr(qng.witness, "apply_loss", counted_loss)
        res = epsilon_threshold(family, 0, criterion, tol=1e-3)
        assert isinstance(res.epsilon_star, float)  # a scan and a bisection
        assert builds == [80]
        assert bool(losses) == lossy_matrix

    @pytest.mark.parametrize("criterion", ["a", "b"])
    @pytest.mark.parametrize("eps", [-0.1, 1.5])
    def test_epsilon_out_of_range_rejected(self, criterion, eps):
        with pytest.raises(ValueError):
            witness_at_loss(StateFamily("fock", 1), 0, eps, criterion)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            witness_at_loss(StateFamily("fock", 1), 0, 0.5, "c")
        with pytest.raises(ValueError):
            epsilon_threshold(StateFamily("fock", 1), 0, "c")


class TestDeltaB:
    def test_identity_map_equals_delta_a(self):
        st = apply_loss(make_fock(1, 20), ChannelSpec(0.2))
        a = delta_a(st, -1)
        b = delta_b(st, -1, GaussianMapSpec())
        assert b.delta == a.delta

    def test_lossy_pac_with_displacement_conclusive(self):
        st = apply_loss(make_pac(2.0, 80), ChannelSpec(0.6))
        gmap = GaussianMapSpec(displacement=beta_opt(2.0, 0.6))
        rep = delta_b(st, -1, gmap)
        assert rep.conclusive


@pytest.fixture
def states_built(monkeypatch):
    """Cutoffs of the TruncatedState objects constructed while it is active,
    both validated from a caller's matrix and built on the trusted path."""
    built = []
    post_init = TruncatedState.__post_init__
    trusted = qng.fock._trusted_state

    def counted(self):
        built.append(self.cutoff)
        post_init(self)

    def counted_trusted(cutoff, rho, tail_bound):
        built.append(cutoff)
        return trusted(cutoff, rho, tail_bound)

    monkeypatch.setattr(TruncatedState, "__post_init__", counted)
    monkeypatch.setattr(qng.fock, "_trusted_state", counted_trusted)
    return built


LOSSY_MAPPED = [
    pytest.param(StateFamily("pac", 2.0), 0.6,
                 GaussianMapSpec(displacement=-1.2), id="pac-displace"),
    pytest.param(StateFamily("pac", 1.5), 0.3,
                 GaussianMapSpec(displacement=0.4 - 0.3j, squeeze=0.2),
                 id="pac-both"),
    pytest.param(StateFamily("pss", 0.5), 0.8,
                 GaussianMapSpec(squeeze=q_opt(0.5, 0.8)), id="pss-squeeze"),
    pytest.param(StateFamily("pss", 1.0), 0.4,
                 GaussianMapSpec(displacement=0.1, squeeze=-0.3), id="pss-both"),
]


class TestCriterionBFromPhotonNumbers:
    @pytest.mark.parametrize("family,eps,gmap", LOSSY_MAPPED)
    @pytest.mark.parametrize("s", [0, -1, -2])
    def test_matches_mapped_matrix(self, family, eps, gmap, s):
        # the mapped density matrix is the oracle of the photon-number path
        lossy = apply_loss(family.build(80), ChannelSpec(eps))
        fast = delta_b(lossy, s, gmap, nbar_slack=0.1)
        oracle = delta_a(apply_map(lossy, gmap), s, nbar_slack=0.1)
        assert abs(fast.delta - oracle.delta) <= 1e-12
        assert abs(fast.q_value - oracle.q_value) <= 1e-12
        assert abs(fast.n_bar - oracle.n_bar) <= 1e-12
        assert fast.map == gmap

    @pytest.mark.parametrize("family,eps,gmap", LOSSY_MAPPED)
    def test_delta_b_builds_no_state(self, family, eps, gmap, states_built):
        lossy = apply_loss(family.build(80), ChannelSpec(eps))
        del states_built[:]
        delta_b(lossy, -1, gmap)
        assert states_built == []

    @pytest.mark.parametrize("family", [StateFamily("pac", 2.0),
                                        StateFamily("pss", 0.5)],
                             ids=lambda f: f.kind)
    def test_witness_at_loss_builds_family_and_lossy_state(self, family,
                                                           states_built):
        rep = witness_at_loss(family, -1, 0.6, "b")
        assert not rep.map.is_identity
        assert states_built == [80, 80]

    @pytest.mark.parametrize("family", [StateFamily("pac", 2.0),
                                        StateFamily("pss", 0.5)],
                             ids=lambda f: f.kind)
    def test_no_eigendecomposition(self, family, eigvalsh_calls):
        witness_at_loss(family, -1, 0.6, "b")
        epsilon_threshold(family, -1, "b", tol=1e-2)
        assert eigvalsh_calls == []


class TestIdentitySeedIsCriterionA:
    @pytest.mark.parametrize("family,eps", [
        *[pytest.param(StateFamily("fock", m), eps, id=f"fock{m}-{eps}")
          for m in (0, 1, 3) for eps in (0, 0.3, 0.9, 1)],
        # at full loss the PAC and PSS seeds are the identity too
        pytest.param(StateFamily("pac", 2.0), 1, id="pac-1"),
        pytest.param(StateFamily("pss", 0.5), 1, id="pss-1"),
    ])
    @pytest.mark.parametrize("s", [0, -1, -2])
    def test_equals_criterion_a_without_lossy_matrix(self, monkeypatch, family,
                                                     eps, s):
        losses = []
        loss = qng.witness.apply_loss

        def counted_loss(*args):
            losses.append(args)
            return loss(*args)

        monkeypatch.setattr(qng.witness, "apply_loss", counted_loss)
        a = witness_at_loss(family, s, eps, "a", nbar_slack=0.1)
        b = witness_at_loss(family, s, eps, "b", nbar_slack=0.1)
        assert (b.delta, b.q_value, b.n_bar) == (a.delta, a.q_value, a.n_bar)
        assert b.map == GaussianMapSpec()
        assert losses == []


class TestSeeds:
    def test_beta_opt_values(self):
        assert beta_opt(2.0, 1.0) == 0
        assert beta_opt(2.0, 0.75) == pytest.approx(-1.0)
        assert beta_opt(3.0, 0.96) == pytest.approx(-0.6)

    def test_beta_opt_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            beta_opt(-1.0, 0.5)

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("eps", [0.2, 0.5, 0.8])
    def test_q_opt_minimizes_matrix_photon_number(self, r, eps):
        st = apply_loss(make_pss(r, 80), ChannelSpec(eps))

        def nbar(q):
            return moments(apply_map(st, GaussianMapSpec(squeeze=q)))[0]

        res = minimize_scalar(nbar, bounds=(-1.5, 0.5), method="bounded",
                              options={"xatol": 1e-9})
        assert abs(q_opt(r, eps) - res.x) < 1e-6

    def test_q_opt_full_loss_is_zero(self):
        assert q_opt(0.7, 1.0) == 0.0


class TestRefineMap:
    def test_never_worse_than_seed(self):
        st = apply_loss(make_pac(2.0, 80), ChannelSpec(0.6))
        seed = GaussianMapSpec(displacement=beta_opt(2.0, 0.6))
        refined = refine_map(st, 0, seed)
        assert (delta_b(st, 0, refined).delta
                <= delta_b(st, 0, seed).delta + 1e-15)

    def test_wigner_squeeze_refinement_recovers_q_opt(self):
        # the origin Wigner value is squeeze-invariant, so refining over q at
        # s = 0 must land on the photon-number minimizer
        r, eps = 0.5, 0.8
        st = apply_loss(make_pss(r, 80), ChannelSpec(eps))
        seed = GaussianMapSpec(squeeze=q_opt(r, eps))
        refined = refine_map(st, 0, seed)
        assert abs(refined.squeeze - q_opt(r, eps)) <= 1e-3

    def test_vacuum_keeps_identity(self):
        st = make_fock(0, 40)
        seed = GaussianMapSpec()
        refined = refine_map(st, -1, seed)
        assert refined == seed


class TestThresholds:
    def test_fock1_wigner_conclusive_up_to_full_loss(self):
        # closed-form oracle: (2e-1) - exp(-2(1-e)(2-e)) stays <= 0 on [0,1]
        eps = np.linspace(0, 1, 1001)
        f = (2 * eps - 1) - np.exp(-2 * (1 - eps) * (2 - eps))
        assert np.all(f <= 1e-12)
        res = epsilon_threshold(StateFamily("fock", 1), 0, "a", tol=1e-5)
        assert res.epsilon_star == "one"

    def test_fock2_wigner_threshold_matches_closed_form_root(self):
        def f(e):
            q = 2 / np.pi * (2 * e - 1) ** 2
            return q - pure_bound(2 * (1 - e), 0)[0]

        root = brentq(f, 0.6, 0.99, xtol=1e-10)
        res = epsilon_threshold(StateFamily("fock", 2), 0, "a", tol=1e-5)
        assert res.epsilon_star == pytest.approx(root, abs=2e-5)

    def test_threshold_bracketing(self):
        res = epsilon_threshold(StateFamily("fock", 3), -1, "a", tol=1e-5)
        star, tol = res.epsilon_star, res.bisection_tol
        below = witness_at_loss(StateFamily("fock", 3), -1, star - 2 * tol, "a")
        above = witness_at_loss(StateFamily("fock", 3), -1, star + 2 * tol, "a")
        assert below.delta <= 0 < above.delta

    def test_inconclusive_everywhere_beyond_threshold(self):
        # delta is not monotone past the threshold (it decays back toward
        # zero at full loss) but it must stay positive
        res = epsilon_threshold(StateFamily("fock", 2), 0, "a", tol=1e-5)
        star = res.epsilon_star
        grid = np.linspace(star + 1e-3, 0.999, 25)
        deltas = [witness_at_loss(StateFamily("fock", 2), 0, e, "a").delta
                  for e in grid]
        assert all(d > 0 for d in deltas)

    def test_pac_criterion_b_sentinel_one(self):
        res = epsilon_threshold(StateFamily("pac", 2.0), -1, "b", tol=1e-3)
        assert res.epsilon_star == "one"

    def test_pss_sentinel_none(self):
        res = epsilon_threshold(StateFamily("pss", 1.0), -2, "a", tol=1e-4,
                                cutoff=100)
        assert res.epsilon_star == "none"

    def test_criterion_b_with_identity_family_matches_delta_a(self):
        a = witness_at_loss(StateFamily("fock", 1), -1, 0.3, "a")
        b = witness_at_loss(StateFamily("fock", 1), -1, 0.3, "b")
        assert b.delta <= a.delta + 1e-12

    def test_tol_floor(self):
        with pytest.raises(ValueError):
            epsilon_threshold(StateFamily("fock", 1), 0, "a", tol=1e-8)


def test_soundness_on_hull_samples():
    # small-sample version of the full randomized soundness run
    rng = np.random.default_rng(42)
    for _ in range(25):
        states = []
        for _ in range(2):
            alpha = (rng.normal() + 1j * rng.normal()) * 0.6
            states.append(make_coherent(alpha, 60))
        w = rng.uniform(0.2, 0.8)
        st = mix(states, [w, 1 - w])
        for s in [0, -0.5, -1, -2]:
            assert delta_a(st, s).delta >= -1e-7


def test_family_validation():
    with pytest.raises(ValueError):
        StateFamily("thermal", 1.0)
