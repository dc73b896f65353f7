from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from scipy.optimize import brentq, minimize_scalar

import qng.fock
import qng.witness
from qng.bounds import bound_objective, pure_bound
from qng.fock import (ChannelSpec, GaussianMapSpec, TruncatedState,
                      TruncationError, apply_loss, apply_map,
                      make_coherent, make_displaced_squeezed, make_fock,
                      make_pac, make_pss, make_squeezed, mapped_photon_probs,
                      mix, moments)
from qng.quasiprob import _family_origin, _origin_series, qs_origin_error
from qng.witness import (StateFamily, _lossy_witness, _mapped_photons, _refine,
                         beta_opt, delta_a, delta_b, epsilon_threshold, q_opt,
                         refine_map, witness_at_loss, witness_curve)


def member_state(family, cutoff):
    """The family member as a truncated state, from make_fock, make_pac or
    make_pss."""
    make = {"fock": make_fock, "pac": make_pac, "pss": make_pss}[family.kind]
    return make(family.param, cutoff)


@pytest.fixture
def loss_calls(monkeypatch):
    """Arguments of the apply_loss calls made while it is active, through
    qng.fock or through any qng module that imports the name."""
    calls = []
    loss = qng.fock.apply_loss

    def counted(*args):
        calls.append(args)
        return loss(*args)

    for module in (qng.fock, qng.witness):
        if hasattr(module, "apply_loss"):
            monkeypatch.setattr(module, "apply_loss", counted)
    return calls


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


def assert_matches_lossy_matrix(family, s, eps):
    # the lossy density matrix is the oracle of the closed form; it is built
    # at twice the cutoff, because the witness's n_bar is the closed-form
    # mean and at cutoff 80 the matrix drops up to 2.7e-12 of it (PSS
    # r = 0.8); a closed form has no truncation tail to count
    fast = witness_at_loss(family, s, eps, "a")
    lossy = apply_loss(member_state(family, 160), ChannelSpec(eps))
    oracle = delta_a(lossy, s)
    assert abs(fast.delta - oracle.delta) <= 1e-12
    assert abs(fast.q_value - oracle.q_value) <= 1e-12
    assert abs(fast.n_bar - oracle.n_bar) <= 1e-12
    assert fast.conclusive == (fast.delta < 0)


class TestCriterionAFromPhotonNumbers:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("s", [0, -0.25, -1, -2, -3])
    @pytest.mark.parametrize("eps", [0, 0.1, 0.5, 0.9, 1])
    def test_matches_lossy_matrix(self, family, s, eps):
        assert_matches_lossy_matrix(family, s, eps)

    @settings(max_examples=40, deadline=None)
    @given(family=hst.one_of(
               hst.builds(StateFamily, hst.just("fock"), hst.integers(0, 8)),
               hst.builds(StateFamily, hst.just("pac"), hst.floats(0, 3)),
               hst.builds(StateFamily, hst.just("pss"), hst.floats(0, 0.8))),
           s=hst.floats(-3, 0), eps=hst.floats(0, 1))
    def test_matches_lossy_matrix_property(self, family, s, eps):
        assert_matches_lossy_matrix(family, s, eps)

    @pytest.mark.parametrize("family,criterion,lossy_matrix", [
        pytest.param(StateFamily("fock", 2), "a", False, id="a"),
        # a Fock seed map is the identity, so criterion b is criterion a
        pytest.param(StateFamily("fock", 2), "b", False, id="b"),
        # PSS maps are evaluated in closed form
        pytest.param(StateFamily("pss", 0.5), "b", False, id="b-pss"),
    ])
    def test_threshold_guards_cutoff_once(self, monkeypatch, loss_calls, family,
                                          criterion, lossy_matrix):
        guarded = []
        guard = qng.witness._guard

        def counted_guard(family, cutoff):
            guarded.append(cutoff)
            return guard(family, cutoff)

        monkeypatch.setattr(qng.witness, "_guard", counted_guard)
        res = epsilon_threshold(family, 0, criterion, tol=1e-3)
        assert isinstance(res.epsilon_star, float)  # a scan and a bisection
        assert guarded == [80]
        assert bool(loss_calls) == lossy_matrix

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


CLOSED_FORM_FAMILIES = [StateFamily(kind, param) for kind, params in (
    ("fock", (0, 1, 2, 5, 8)), ("pac", (0.0, 0.1, 1.0, 2.0, 3.0)),
    ("pss", (0.0, 0.05, 0.3, 0.6, 1.0))) for param in params]
CLOSED_FORM_S = [0, -0.25, -1, -2, -5]
CLOSED_FORM_EPS = [0, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9, 1]


def mp_photon_numbers(mp, family, levels):
    """Photon numbers of a lossless family member at mp's precision: |m>,
    a^dag D(alpha)|0> / sqrt(1 + alpha^2) (Poisson shifted up by one, times
    m / (1 + alpha^2)) and S(r)|1> (odd levels, sech^3 r tanh^(2k) r
    (2k+1)! / (4^k k!^2) at level 2k + 1)."""
    x = mp.mpf(family.param)
    if family.kind == "fock":
        return [mp.mpf(m == family.param) for m in range(levels)]
    if family.kind == "pac":
        return [mp.mpf(0)] + [mp.exp(-x * x) * x ** (2 * m - 2) * m
                              / (mp.factorial(m - 1) * (1 + x * x))
                              for m in range(1, levels)]
    return [mp.mpf(0) if m % 2 == 0 else
            mp.sech(x) ** 3 * mp.tanh(x) ** (m - 1) * mp.factorial(m)
            / (4 ** (m // 2) * mp.factorial(m // 2) ** 2)
            for m in range(levels)]


class TestFamilyClosedForm:
    """Every family witness is a closed form (criterion a of every family,
    criterion b of Fock states): the s2-ordered value of the lossless state
    over eta, with no photon numbers."""

    @pytest.fixture(scope="class")
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        return mp

    @pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES,
                             ids=lambda f: f"{f.kind}{f.param}")
    def test_matches_doubled_cutoff_and_50_digit_series(self, mp, family):
        # 300 levels hold PAC alpha = 3 and PSS r = 1 to far below 1e-40
        probs = mp_photon_numbers(mp, family, 300)
        mp_nbar0 = mp.fsum(m * p for m, p in enumerate(probs))
        p160 = qng.fock.photon_probs(member_state(family, 160))
        eps_grid = np.array(CLOSED_FORM_EPS)
        for s in CLOSED_FORM_S:
            sv = float(s)
            scan = qng.witness._witness(family, sv, eps_grid, "a")
            x = eps_grid - (1 - eps_grid) * (1 + sv) / (1 - sv)
            series = 2 / (np.pi * (1 - sv)) * (
                x[:, None] ** np.arange(p160.size) @ p160)
            for i, eps in enumerate(CLOSED_FORM_EPS):
                rep = witness_at_loss(family, s, eps, "a")
                eps_mp, s_mp = mp.mpf(eps), mp.mpf(sv)
                x = eps_mp - (1 - eps_mp) * (1 + s_mp) / (1 - s_mp)
                q_mp = 2 / (mp.pi * (1 - s_mp)) * mp.fsum(
                    p * x ** m for m, p in enumerate(probs))
                assert abs(rep.q_value - q_mp) <= 1e-15
                assert abs(rep.q_value - series[i]) <= 1e-15
                assert abs(rep.n_bar - (1 - eps_mp) * mp_nbar0) <= 1e-15 * max(
                    1.0, rep.n_bar)
                assert abs(scan.q_value[i] - rep.q_value) <= 1e-15
                assert scan.n_bar[i] == rep.n_bar
                assert rep.conclusive == (rep.delta < 0)

    @pytest.mark.parametrize("family", [StateFamily("pac", 2.0),
                                        StateFamily("pss", 1.0)],
                             ids=lambda f: f.kind)
    @pytest.mark.parametrize("s", [0, -2])
    def test_full_loss_leaves_the_vacuum(self, family, s):
        vacuum = witness_at_loss(StateFamily("fock", 0), s, 1.0, "a")
        for criterion in "ab":
            rep = witness_at_loss(family, s, 1.0, criterion)
            assert (rep.q_value, rep.n_bar, rep.delta) == (
                vacuum.q_value, vacuum.n_bar, vacuum.delta)
        scan = qng.witness._witness(family, float(s), np.array([0.5, 1.0]),
                                    "a")
        assert (scan.q_value[1], scan.n_bar[1]) == (vacuum.q_value,
                                                    vacuum.n_bar)

    @pytest.mark.parametrize("criterion", ["a", "b"])
    def test_family_witnesses_read_no_photon_numbers(self, monkeypatch,
                                                     criterion):
        def refused(*args, **kwargs):
            raise AssertionError("a family witness read photon numbers")

        for name in ("_origin_series", "photon_probs", "mapped_photon_probs"):
            monkeypatch.setattr(qng.witness, name, refused)
        for family in (StateFamily("fock", 0), StateFamily("fock", 3),
                       StateFamily("pac", 0.0), StateFamily("pac", 2.0),
                       StateFamily("pss", 0.5), StateFamily("pss", 1.0)):
            for s in (0, -1, -2):
                epsilon_threshold(family, s, criterion, tol=1e-3)
                for eps in (0, 0.3, 0.95, 1):
                    witness_at_loss(family, s, eps, criterion)
            witness_curve(family, [0, -1], [0, 0.5, 1], criterion)

    @pytest.mark.parametrize("family,criterion", [
        (StateFamily("fock", 3), "a"), (StateFamily("fock", 3), "b"),
        (StateFamily("pss", 0.5), "a")])
    def test_curve_is_one_bound_call_per_s(self, monkeypatch, family,
                                           criterion):
        # as in a threshold scan, a Fock state's criterion b has no map to
        # refine; the array evaluation moves a delta by a few ulps at most
        sizes, bound = [], qng.witness.pure_bound

        def counted(n, s):
            sizes.append(np.size(n))
            return bound(n, s)

        eps_grid = [0.0, 0.2, 0.5, 0.9, 1.0]
        monkeypatch.setattr(qng.witness, "pure_bound", counted)
        deltas = witness_curve(family, [0, -1], eps_grid, criterion)
        monkeypatch.undo()
        assert sizes == [len(eps_grid)] * 2
        for i, eps in enumerate(eps_grid):
            for j, s in enumerate([0, -1]):
                rep = witness_at_loss(family, s, eps, criterion)
                assert abs(deltas[i, j] - rep.delta) <= 1e-16

    def test_family_that_does_not_fit_is_refused(self):
        # the closed form needs no cutoff; the built state still guards it
        family = StateFamily("pac", 2.0)
        for criterion in "ab":
            with pytest.raises(TruncationError):
                witness_at_loss(family, -1, 0.5, criterion, cutoff=5)
            with pytest.raises(TruncationError):
                epsilon_threshold(family, -1, criterion, cutoff=5)
            with pytest.raises(TruncationError):
                witness_curve(family, [-1], [0.5], criterion, cutoff=5)

    @pytest.mark.parametrize("family", [
        *(StateFamily("fock", m) for m in (0, 1, 5, 80, 81, 200, 201)),
        *(StateFamily("pac", a) for a in (0.0, 0.5, 2.0, 6.0, 10.0, 13.0)),
        # r = 400 cancels in floating point: a kept norm above 1
        *(StateFamily("pss", r) for r in (0.0, 1.0, 2.0, 3.0, 100.0, 400.0))],
        ids=lambda f: f"{f.kind}{f.param}")
    def test_guard_refuses_what_build_refuses(self, family):
        # the guard reads the amplitudes that make_<kind> squares into a
        # matrix: at every cutoff both pass, or both raise the same error
        def outcome(call, cutoff):
            try:
                call(cutoff)
            except (TruncationError, ValueError) as exc:
                return type(exc), str(exc)
            return None

        cutoffs = range(201)
        built = [outcome(partial(member_state, family), c) for c in cutoffs]
        assert built[0][0] is ValueError  # cutoff 0 is no cutoff
        assert [outcome(partial(qng.witness._guard, family), c)
                for c in cutoffs] == built

    def test_entry_points_build_no_state(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a family entry point built a state")

        monkeypatch.setattr(qng.fock, "_trusted_state", refused)
        monkeypatch.setattr(TruncatedState, "__post_init__", refused)
        for family in (StateFamily("fock", 3), StateFamily("pac", 2.0),
                       StateFamily("pss", 0.5)):
            for criterion in "ab":
                epsilon_threshold(family, -1, criterion, tol=1e-3)
                witness_at_loss(family, -1, 0.5, criterion)
                witness_curve(family, [0, -1], [0, 0.5, 1], criterion)
        with pytest.raises(TruncationError):  # the guard still refuses
            witness_at_loss(StateFamily("pac", 2.0), -1, 0.5, "a", cutoff=5)
        with pytest.raises(AssertionError, match="built a state"):
            make_pac(2.0, 80)  # the patches are live


BAD_CUTOFF_ENTRY_POINTS = {
    "make_fock": lambda c: make_fock(1, c),
    "make_coherent": lambda c: make_coherent(0.5, c),
    "make_pac": lambda c: make_pac(0.5, c),
    "make_squeezed": lambda c: make_squeezed(0.5, c),
    "make_pss": lambda c: make_pss(0.5, c),
    "make_displaced_squeezed": lambda c: make_displaced_squeezed(0.5, 0.2, c),
    "witness_at_loss": lambda c: witness_at_loss(
        StateFamily("pac", 0.5), -1, 0.5, "b", cutoff=c),
    "witness_curve": lambda c: witness_curve(
        StateFamily("pss", 0.5), [-1], [0.5], "a", cutoff=c),
    "epsilon_threshold": lambda c: epsilon_threshold(
        StateFamily("pss", 0.5), -1, "b", tol=1e-3, cutoff=c),
}


@pytest.mark.parametrize("cutoff", [-3, -1, 0, 1.5, 2.0])
@pytest.mark.parametrize("entry", BAD_CUTOFF_ENTRY_POINTS)
def test_bad_cutoff_refused_before_any_amplitude(monkeypatch, entry, cutoff):
    # one check refuses every bad cutoff, ahead of numpy (negative sizes,
    # float indices) and of the truncation tail that a cutoff of 0 leaves
    def built(*args):
        raise AssertionError("amplitudes built or fitted for a bad cutoff")

    for module in (qng.fock, qng.witness):
        monkeypatch.setattr(module, "_check_fits", built)
    if entry not in ("make_coherent", "make_squeezed", "make_displaced_squeezed"):
        # those three refuse in displaced_squeezed_vector's first statement
        monkeypatch.setattr(qng.fock, "displaced_squeezed_vector", built)
    with pytest.raises(ValueError) as refused:
        BAD_CUTOFF_ENTRY_POINTS[entry](cutoff)
    assert str(refused.value) == f"cutoff must be an integer >= 1, got {cutoff!r}"


class TestClosedMoments:
    @pytest.mark.parametrize("family", [
        StateFamily("fock", 4), StateFamily("pac", 0.0), StateFamily("pac", 1.3),
        StateFamily("pac", 3.0), StateFamily("pss", 0.0), StateFamily("pss", 0.7),
        StateFamily("pss", 1.0)], ids=lambda f: f"{f.kind}{f.param}")
    def test_match_a_converged_matrix(self, family):
        n_bar, a1, a2 = family.moments()
        oracle = moments(member_state(family, 200))
        assert abs(n_bar - oracle[0]) <= 1e-13 * max(1.0, n_bar)
        assert abs(a1 - oracle[1]) <= 1e-13 * max(1.0, n_bar)
        assert abs(a2 - oracle[2]) <= 1e-13 * max(1.0, n_bar)

    def test_pss_mean_not_lowered_by_the_cutoff(self):
        # PSS r = 1 puts mean photon number past cutoff 80 (1.4e-7 of it); a
        # lower n_bar would raise the bound, a less conservative verdict
        rep = witness_at_loss(StateFamily("pss", 1.0), -1, 0.0, "a", cutoff=80)
        assert abs(rep.n_bar - (3 * np.sinh(1.0) ** 2 + 1)) <= 1e-15
        converged = moments(make_pss(1.0, 160))[0]
        assert rep.n_bar >= converged - 1e-15 * converged  # roundoff only
        assert rep.n_bar > moments(make_pss(1.0, 80))[0] + 1e-8


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

    def test_mapped_gaussian_state_not_certified(self):
        # a pure Gaussian state, whose bound here is 9.9e-68: the map mixes
        # the levels past cutoff 80 into the kept ones, and a tail of only
        # 1 - sum p' certified it with q_value -4.8e-6
        st = make_displaced_squeezed(-1.22 + 1.56j, -1.0, 80)
        rep = delta_b(st, 0, GaussianMapSpec(displacement=0.66 + 1.39j,
                                             squeeze=0.75))
        assert rep.q_value < 0 < rep.bound
        assert not rep.conclusive

    def test_seeded_gaussian_draws_never_certified(self):
        # 22 of these 642 verdicts were conclusive under the tail 1 - sum p'
        rng = np.random.default_rng(5)
        verdicts = []
        for _ in range(600):
            alpha, r = complex(*rng.uniform(-2.5, 2.5, 2)), rng.uniform(-1, 1)
            gmap = GaussianMapSpec(displacement=complex(*rng.uniform(-2.5, 2.5, 2)),
                                   squeeze=rng.uniform(-1.2, 1.2))
            try:
                st = make_displaced_squeezed(alpha, r, 80)
            except TruncationError:
                continue
            for s in (0.0, -0.5):
                try:
                    verdicts.append(delta_b(st, s, gmap).conclusive)
                except TruncationError:
                    pass
        assert len(verdicts) == 642 and not any(verdicts)

    @pytest.mark.parametrize("kind,make,params", [
        ("pac", make_pac, (0.5, 2.0, 3.0)), ("pss", make_pss, (0.1, 0.5, 1.0))])
    def test_tail_covers_the_closed_form(self, kind, make, params):
        # the untruncated member's origin value lies within the tail of the
        # mapped series; under D(1+i)S(-0.6) at cutoff 80 and s = 0 the PSS
        # r = 1 series is off by 8.0e-7, where 1 - sum p' gave a tail of 1.2e-9
        maps = [GaussianMapSpec(1 + 1j, -0.6), GaussianMapSpec(0.5),
                GaussianMapSpec(squeeze=0.4), GaussianMapSpec(-1.5j),
                GaussianMapSpec(0.8 - 0.3j, 0.3), GaussianMapSpec(squeeze=-0.9)]
        points = 0
        for param in params:
            for cutoff in (20, 40, 80, 120, 200):
                try:
                    st = make(param, cutoff)
                except TruncationError:
                    continue
                for gmap in maps:
                    try:
                        p, missing = _mapped_photons(st, gmap)
                    except TruncationError:
                        continue
                    for s in (0.0, -0.5, -1.0, -2.0):
                        q_value, tail = _origin_series(p, s, missing)
                        assert q_value == delta_b(st, s, gmap).q_value
                        exact = _family_origin(kind, param, complex(gmap.displacement),
                                               gmap.squeeze, s)
                        assert abs(q_value - exact) <= tail + 1e-15
                        points += 1
        assert points >= 200


@pytest.fixture
def states_built(monkeypatch):
    """Cutoffs of the TruncatedState objects constructed while it is active,
    both validated from a caller's matrix and built on the trusted path."""
    built = []
    post_init = TruncatedState.__post_init__
    trusted = qng.fock._trusted_state

    def counted(self):
        post_init(self)
        built.append(self.cutoff)

    def counted_trusted(rho):
        state = trusted(rho)
        built.append(state.cutoff)
        return state

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
        lossy = apply_loss(member_state(family, 80), ChannelSpec(eps))
        fast = delta_b(lossy, s, gmap, nbar_slack=0.1)
        oracle = delta_a(apply_map(lossy, gmap), s, nbar_slack=0.1)
        assert abs(fast.delta - oracle.delta) <= 1e-12
        assert abs(fast.q_value - oracle.q_value) <= 1e-12
        assert abs(fast.n_bar - oracle.n_bar) <= 1e-12
        assert fast.map == gmap

    @pytest.mark.parametrize("family,eps,gmap", LOSSY_MAPPED)
    def test_delta_b_builds_no_state(self, family, eps, gmap, states_built):
        lossy = apply_loss(member_state(family, 80), ChannelSpec(eps))
        del states_built[:]
        delta_b(lossy, -1, gmap)
        assert states_built == []

    @pytest.mark.parametrize("family", [StateFamily("pac", 2.0),
                                        StateFamily("pss", 0.5)],
                             ids=lambda f: f.kind)
    def test_witness_at_loss_builds_no_state(self, family, states_built):
        # the cutoff guard reads the family's amplitudes, with no state
        rep = witness_at_loss(family, -1, 0.6, "b")
        assert not rep.map.is_identity
        assert states_built == []

    @pytest.mark.parametrize("family", [StateFamily("pac", 2.0),
                                        StateFamily("pss", 0.5)],
                             ids=lambda f: f.kind)
    def test_no_eigendecomposition(self, family, eigvalsh_calls):
        witness_at_loss(family, -1, 0.6, "b")
        epsilon_threshold(family, -1, "b", tol=1e-2)
        assert eigvalsh_calls == []


def lossy_family(family, s, eps):
    """The family witness after loss eps as a function of the map."""
    return partial(_lossy_witness, family, eps, float(s), family.moments())


def direct_oracle(family, s, eps, gmap, cutoff=80):
    lossy = apply_loss(member_state(family, cutoff), ChannelSpec(eps))
    return delta_b(lossy, s, gmap)


EXACT_BASE = LOSSY_MAPPED[:3]  # cutoff 80 holds these states to roundoff


class TestCriterionBFromLosslessVector:
    @pytest.mark.parametrize("family,_,gmap", EXACT_BASE)
    @pytest.mark.parametrize("s", [0, -1, -2])
    @pytest.mark.parametrize("eps", [0, 0.3, 0.8, 0.999])  # eps = s = 0 is 0/0
    def test_matches_lossy_matrix(self, family, _, gmap, s, eps):
        fast = lossy_family(family, s, eps)(gmap)
        oracle = direct_oracle(family, s, eps, gmap)
        assert abs(fast.delta - oracle.delta) <= 1e-12
        assert abs(fast.q_value - oracle.q_value) <= 1e-12
        assert abs(fast.n_bar - oracle.n_bar) <= 1e-12
        assert fast.map == gmap

    @pytest.mark.parametrize("s", [0, -1, -2])
    @pytest.mark.parametrize("eps", [0, 0.3, 0.8, 0.999])
    def test_truncated_base_within_oracle_error(self, s, eps):
        # PSS r = 1.0 leaves 1.6e-9 past cutoff 80; the lossless vector is
        # exact, so the gap is bounded by the oracle's own truncation error
        family, _, gmap = LOSSY_MAPPED[3].values
        fast = lossy_family(family, s, eps)(gmap)
        oracle = direct_oracle(family, s, eps, gmap)
        converged = direct_oracle(family, s, eps, gmap, cutoff=160)
        oracle_err = abs(oracle.delta - converged.delta)
        assert abs(fast.delta - oracle.delta) <= 1e-9 + oracle_err
        assert fast.n_bar >= oracle.n_bar - 1e-12  # the untruncated mean

    @settings(max_examples=60, deadline=None)
    @given(family=hst.one_of(
               hst.builds(StateFamily, hst.just("pac"), hst.floats(0, 3)),
               hst.builds(StateFamily, hst.just("pss"), hst.floats(0, 0.5))),
           s=hst.floats(-3, 0), eps=hst.floats(0, 0.999),
           re=hst.floats(-1.5, 1.5), im=hst.floats(-1.5, 1.5),
           q=hst.floats(-1, 1))
    def test_matches_lossy_matrix_property(self, family, s, eps, re, im, q):
        # the closed form drops nothing; the oracle drops what its mapped
        # state puts past the cutoff, which moves an origin value by at most
        # 2/(pi(1-s)) times it, and by no more than the truncation tail of
        # its mapped photon numbers
        gmap = GaussianMapSpec(displacement=complex(re, im), squeeze=q)
        origins = []
        family_origin = qng.witness._family_origin

        def counted(*args):
            origins.append(args)
            return family_origin(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qng.witness, "_family_origin", counted)
            fast = lossy_family(family, s, eps)(gmap)
        assert len(origins) == 1
        assert fast.delta == fast.q_value - fast.bound
        try:
            oracle = direct_oracle(family, s, eps, gmap)
        except TruncationError:
            assert np.isfinite(fast.delta)
            return
        lossy = apply_loss(member_state(family, 80), ChannelSpec(eps))
        mapped = mapped_photon_probs(lossy, gmap)
        lost = np.trace(lossy.matrix).real - np.sum(mapped)
        budget = 2 / (np.pi * (1 - s)) * lost
        assert abs(fast.q_value - oracle.q_value) <= budget + 1e-12
        tail = _origin_series(mapped, s)[1]
        assert abs(fast.q_value - oracle.q_value) <= tail + 1e-12
        assert fast.n_bar >= oracle.n_bar - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(kind=hst.sampled_from(["pac", "pss"]), param=hst.floats(0, 1),
           re=hst.floats(-1.5, 1.5), im=hst.floats(-1.5, 1.5),
           q=hst.floats(-0.8, 0.8), s=hst.floats(-10, 0))
    def test_closed_form_matches_vector_series(self, kind, param, re, im, q, s):
        # PAC alpha <= 2, PSS r <= 1; the cutoff-150 series misses its tail
        param *= 2.0 if kind == "pac" else 1.0
        # the oracle is the matrix recurrence of apply_map, which shares no
        # ladder algebra with the closed form; where that recurrence starts
        # to diverge its photon numbers sum past 1, which the tail refuses too
        beta = complex(re, im)
        make = make_pac if kind == "pac" else make_pss
        try:
            probs = mapped_photon_probs(make(param, 150), GaussianMapSpec(beta, q))
        except TruncationError:
            assume(False)
        tail = abs(1.0 - float(np.sum(probs)))
        assume(tail < 1e-12)
        closed = _family_origin(kind, param, beta, q, s)
        assert (abs(closed - _origin_series(probs, s)[0])
                <= 2 / (np.pi * (1 - s)) * (tail + 1e-12))

    def test_fallback_is_the_direct_path(self, loss_calls):
        # beta' grows as 1/sqrt(eta): at eps = 0.999 a step of 0.3 past the
        # seed puts the PAC image U' psi far past cutoff 80, where a vector
        # would need the lossy matrix as a fallback; the closed form has no
        # cutoff and needs none, and agrees with that direct path
        family, eps = StateFamily("pac", 2.0), 0.999
        gmap = GaussianMapSpec(displacement=beta_opt(2.0, eps) + 0.3)
        fast = lossy_family(family, -1, eps)(gmap)
        assert loss_calls == []
        assert np.isfinite(fast.delta)
        oracle = direct_oracle(family, -1, eps, gmap, cutoff=400)
        assert abs(fast.delta - oracle.delta) <= 1e-12
        assert abs(fast.q_value - oracle.q_value) <= 1e-12
        assert abs(fast.n_bar - oracle.n_bar) <= 1e-12

    @pytest.mark.parametrize("family", [StateFamily("pac", 2.0),
                                        StateFamily("pss", 0.5)],
                             ids=lambda f: f.kind)
    def test_no_loss_wigner_is_finite(self, family):
        # sigma+- = 0/0 at eps = s = 0: the map is used as it is
        rep = witness_at_loss(family, 0, 0.0, "b")
        oracle = delta_b(member_state(family, 80), 0, rep.map)
        assert np.isfinite(rep.delta)
        assert abs(rep.delta - oracle.delta) <= 1e-12

    @pytest.mark.parametrize("family,eps", [
        pytest.param(StateFamily("pac", 2.0), 0.6, id="pac"),
        # the loss at which maps past the seed left the cutoff of a vector
        pytest.param(StateFamily("pac", 2.0), 0.999, id="pac-fallback"),
        pytest.param(StateFamily("pss", 0.5), 0.6, id="pss"),
    ])
    def test_each_map_evaluated_once(self, monkeypatch, family, eps):
        # every evaluation is one closed-form origin value; the witness that
        # _refine searches caches one report per map, and the refined map's
        # report is reused
        witnesses, after_refine, origins = [], [], []
        refine, family_origin = qng.witness._refine, qng.witness._family_origin

        def refined(witness, seed):
            gmap = refine(witness, seed)
            witnesses.append(witness)
            after_refine.append(witness.cache_info())
            return gmap

        def counted(*args):
            origins.append(args)
            return family_origin(*args)

        monkeypatch.setattr(qng.witness, "_refine", refined)
        monkeypatch.setattr(qng.witness, "_family_origin", counted)
        rep = witness_at_loss(family, -1, eps, "b")
        before, info = after_refine[0], witnesses[0].cache_info()
        assert len(origins) == info.misses == info.currsize
        assert (info.hits, info.misses) == (before.hits + 1, before.misses)
        assert witnesses[0](rep.map) is rep

    def test_refine_returns_kept_seed_itself(self):
        # at s = 0 only n_bar depends on the squeeze, and q_opt minimizes it
        view = lossy_family(StateFamily("pss", 0.5), 0, 0.6)
        seed = GaussianMapSpec(squeeze=q_opt(0.5, 0.6))
        assert _refine(view, seed) is seed


class TestInputValidation:
    @pytest.mark.parametrize("slack", [-0.6, np.nan, np.inf])
    def test_nbar_slack_must_be_finite_nonnegative(self, slack):
        # only a caller's truncated state takes a slack
        state = make_fock(2, 10)
        with pytest.raises(ValueError, match="nbar_slack"):
            delta_a(state, 0, nbar_slack=slack)
        with pytest.raises(ValueError, match="nbar_slack"):
            delta_b(state, 0, GaussianMapSpec(squeeze=0.1), nbar_slack=slack)

    @pytest.mark.parametrize("kind", ["pac", "pss"])
    @pytest.mark.parametrize("bad,match", [
        ({"epsilon": 1.5}, "epsilon"), ({"epsilon": np.nan}, "epsilon"),
        ({"criterion": "c"}, "criterion"), ({"s": 0.5}, "ordering"),
        ({"s": np.nan}, "ordering")])
    def test_checked_before_the_cutoff_is_guarded(self, monkeypatch, kind, bad,
                                                  match):
        def guard(family, cutoff):
            raise AssertionError("cutoff guarded before the inputs were checked")

        monkeypatch.setattr(qng.witness, "_guard", guard)
        args = {"s": -1, "epsilon": 0.3, "criterion": "b"}
        with pytest.raises(ValueError, match=match):
            witness_at_loss(StateFamily(kind, 0.5), **{**args, **bad})
        if "epsilon" not in bad:
            del args["epsilon"]
            with pytest.raises(ValueError, match=match):
                epsilon_threshold(StateFamily(kind, 0.5), **{**args, **bad})

    @pytest.mark.parametrize("kind,param,name", [
        ("fock", 1.5, "m"), ("fock", -1, "m"), ("fock", np.nan, "m"),
        ("pac", -2.0, "alpha"), ("pac", np.nan, "alpha"),
        ("pss", -0.1, "r"), ("pss", np.inf, "r"),
    ])
    def test_family_parameter_in_range(self, kind, param, name):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            StateFamily(kind, param)


@pytest.mark.parametrize("criterion", ["a", "b"])
def test_reports_hold_python_scalars(criterion):
    # numpy inputs too: a report is floats and a bool, which json writes
    for family in (StateFamily("fock", 3), StateFamily("pac", 2.0),
                   StateFamily("pss", 0.5)):
        for eps in (np.float64(0.0), np.float64(0.6), np.float64(1.0), 0.3):
            rep = witness_at_loss(family, np.float64(-1), eps, criterion)
            assert type(rep.conclusive) is bool
            assert {type(v) for v in (rep.q_value, rep.n_bar, rep.bound,
                                      rep.delta)} == {float}


class TestIdentitySeedIsCriterionA:
    @pytest.mark.parametrize("family,eps", [
        *[pytest.param(StateFamily("fock", m), eps, id=f"fock{m}-{eps}")
          for m in (0, 1, 3) for eps in (0, 0.3, 0.9, 1)],
        # at full loss the PAC and PSS seeds are the identity too
        pytest.param(StateFamily("pac", 2.0), 1, id="pac-1"),
        pytest.param(StateFamily("pss", 0.5), 1, id="pss-1"),
    ])
    @pytest.mark.parametrize("s", [0, -1, -2])
    def test_equals_criterion_a_without_lossy_matrix(self, loss_calls, family,
                                                     eps, s):
        a = witness_at_loss(family, s, eps, "a")
        b = witness_at_loss(family, s, eps, "b")
        assert (b.delta, b.q_value, b.n_bar) == (a.delta, a.q_value, a.n_bar)
        assert b.map == GaussianMapSpec()
        assert loss_calls == []


class TestSeeds:
    def test_beta_opt_values(self):
        assert beta_opt(2.0, 1.0) == 0
        assert beta_opt(2.0, 0.75) == pytest.approx(-1.0)
        assert beta_opt(3.0, 0.96) == pytest.approx(-0.6)

    def test_beta_opt_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            beta_opt(-1.0, 0.5)

    def test_seeds_reject_nan(self):
        # NaN passed the old range checks and came back as a nan seed
        with pytest.raises(ValueError, match="alpha"):
            beta_opt(np.nan, 0.5)
        for r, eps in [(np.nan, 0.5), (0.5, np.nan)]:
            with pytest.raises(ValueError, match="need r >= 0"):
                q_opt(r, eps)

    @pytest.mark.parametrize("eps", [2.0, -0.5, np.nan])
    def test_beta_opt_rejects_loss_outside_unit_interval(self, eps):
        # beta_opt(1.0, 2.0) took the square root of -1 and beta_opt(1.0, -0.5)
        # returned -1.22, as q_opt refuses both
        with pytest.raises(ValueError, match="epsilon must be in"):
            beta_opt(1.0, eps)

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

    def test_keeps_seed_itself_when_no_map_fits(self, monkeypatch):
        # D(t)|0> for t in [2, 4] leaves the cutoff-4 basis: every map raises
        fitted = []
        delta = qng.witness.delta_b

        def counted(*args):
            fitted.append(False)
            report = delta(*args)
            fitted[-1] = True
            return report

        monkeypatch.setattr(qng.witness, "delta_b", counted)
        seed = GaussianMapSpec(displacement=3.0)
        assert refine_map(make_fock(0, 4), 0, seed) is seed
        assert len(fitted) > 1 and not any(fitted)  # the seed and every map

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

    @staticmethod
    def assert_matches_fine_grid(family, s, fine, tol=1e-5):
        # on a grid that holds the scan grid and fine, the threshold lies
        # within tol of the bracket around the topmost conclusive loss, and
        # a sentinel says that loss is the top of the grid or that none is
        grid = np.linspace(tol, 1.0 - tol, qng.witness.SCAN_POINTS)
        grid = np.union1d(grid, fine[(fine >= tol) & (fine <= 1.0 - tol)])
        held = np.flatnonzero(witness_curve(family, [s], grid, "a")[:, 0] < 0)
        star = epsilon_threshold(family, s, "a", tol=tol).epsilon_star
        if held.size == 0:
            assert star == "none"
        elif held[-1] == grid.size - 1:
            assert star == "one"
        else:
            top = held[-1]
            assert grid[top] - tol <= star <= grid[top + 1] + tol

    @pytest.mark.parametrize("s", [0, -0.01, -0.05, -0.5])
    @pytest.mark.parametrize("m", range(21))
    def test_fock_threshold_never_misses_its_window(self, m, s):
        # even |m> is conclusive only near eps0 = (1+s)/2, where x = 0: from
        # |10> on that window can fall between two of the 200 scan points
        eps0 = (1.0 + s) / 2.0
        fine = np.linspace(eps0 - 0.01, eps0 + 0.01, 8001)  # spacing 2.5e-6
        self.assert_matches_fine_grid(StateFamily("fock", m), s, fine)

    @pytest.mark.parametrize("family", [
        *(StateFamily("pac", a) for a in (0.1, 0.5, 1.0, 2.0, 3.0, 4.0)),
        *(StateFamily("pss", r) for r in (0.05, 0.3, 0.6, 1.0, 1.1))],
        ids=lambda f: f"{f.kind}{f.param}")
    def test_pac_pss_thresholds_match_a_fine_grid(self, family):
        fine = np.linspace(0.0, 1.0, 40001)
        for s in (0, -0.01, -0.05, -0.2, -0.5, -1, -2, -3):
            self.assert_matches_fine_grid(family, s, fine)

    def test_criterion_b_with_identity_family_matches_delta_a(self):
        a = witness_at_loss(StateFamily("fock", 1), -1, 0.3, "a")
        b = witness_at_loss(StateFamily("fock", 1), -1, 0.3, "b")
        assert b.delta <= a.delta + 1e-12

    def test_tol_floor(self):
        with pytest.raises(ValueError):
            epsilon_threshold(StateFamily("fock", 1), 0, "a", tol=1e-8)

    @pytest.mark.parametrize("tol", [0.6, 0.9, 1.0])
    def test_tol_above_half_rejected(self, tol):
        # the grid tol..1-tol would run backwards, and the scan answer "one"
        # for a Fock state that is inconclusive at loss 0.6
        with pytest.raises(ValueError, match=r"tol must be in \[1e-6, 0.5\]"):
            epsilon_threshold(StateFamily("fock", 3), 0, "a", tol=tol)

    def test_tol_half_accepted(self):
        res = epsilon_threshold(StateFamily("fock", 3), 0, "a", tol=0.5)
        assert res.epsilon_star == "one"  # conclusive at the one grid point

    @pytest.mark.parametrize("tol", [1.5, np.nan])
    def test_tol_above_one_rejected(self, tol):
        # the array scan evaluates no ChannelSpec, so the range is checked here
        with pytest.raises(ValueError, match="tol"):
            epsilon_threshold(StateFamily("fock", 1), 0, "a", tol=tol)

    @pytest.mark.parametrize("family,criterion", [
        (StateFamily("fock", 3), "a"), (StateFamily("fock", 3), "b"),
        (StateFamily("pss", 0.5), "a")])
    def test_scan_is_one_bound_call(self, monkeypatch, family, criterion):
        sizes = []
        bound = qng.witness.pure_bound

        def counted(n, s):
            sizes.append(np.size(n))
            return bound(n, s)

        monkeypatch.setattr(qng.witness, "pure_bound", counted)
        epsilon_threshold(family, -1, criterion, tol=1e-3)
        assert sizes[0] == qng.witness.SCAN_POINTS
        assert all(size == 1 for size in sizes[1:])  # the bisection

    @pytest.mark.parametrize("family,s,tol", [
        (StateFamily("fock", 2), 0.0, 1e-5), (StateFamily("fock", 5), -2.0, 1e-5),
        (StateFamily("pac", 2.0), -0.5, 1e-4), (StateFamily("pss", 0.5), -1.0, 1e-3),
        (StateFamily("fock", 1), -1.0, 1e-5)])
    def test_array_scan_matches_pointwise_scan(self, family, s, tol):
        # the scan as it ran before: one witness per grid point from the top
        def delta(eps):
            return qng.witness._witness(family, float(s), eps, "a").delta

        grid = np.linspace(tol, 1.0 - tol, qng.witness.SCAN_POINTS)
        star = "one" if delta(grid[-1]) <= 0 else "none"
        for i in range(grid.size - 2, -1, -1) if star == "none" else ():
            if delta(grid[i]) <= 0:
                lo, hi = grid[i], grid[i + 1]
                while hi - lo > tol:
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if delta(mid) <= 0 else (lo, mid)
                star = 0.5 * (lo + hi)
                break
        assert epsilon_threshold(family, s, "a", tol=tol).epsilon_star == star

    @pytest.mark.parametrize("family,s,criterion", [
        (StateFamily("fock", 2), 0.0, "a"), (StateFamily("fock", 5), -2.0, "a"),
        (StateFamily("fock", 3), -1.0, "b"), (StateFamily("pac", 2.0), -0.5, "a"),
        (StateFamily("pss", 0.5), -1.0, "a")])
    def test_bisection_verdicts_match_witness_at_loss(self, monkeypatch, family,
                                                      s, criterion):
        # each step of a criterion-a bisection (criterion a, or identity
        # seeds) gives the verdict of a witness checked and built from scratch
        steps, evaluate = [], qng.witness._witness

        def kept(family, sv, eps, *args):
            rep = evaluate(family, sv, eps, *args)
            if np.ndim(eps) == 0:
                steps.append((eps, rep.conclusive))
            return rep

        monkeypatch.setattr(qng.witness, "_witness", kept)
        star = epsilon_threshold(family, s, criterion, tol=1e-4).epsilon_star
        monkeypatch.undo()
        assert isinstance(star, float) and len(steps) > 5
        for eps, verdict in steps:
            assert witness_at_loss(family, s, eps, criterion).conclusive == verdict

    @pytest.mark.parametrize("criterion", ["a", "b"])
    def test_vacuum_never_conclusive(self, criterion):
        # the vacuum lies on the hull: its origin value and the bound at
        # n = 0 are one expression, so its delta is exactly 0, and only
        # delta < 0 certifies
        vacuum, certified = StateFamily("fock", 0), []
        for s in np.arange(-300, 1) / 100:
            if epsilon_threshold(vacuum, s, criterion).epsilon_star != "none":
                certified.append((s, "threshold"))
            for eps in (0, 0.3, 1):
                if witness_at_loss(vacuum, s, eps, criterion).conclusive:
                    certified.append((s, eps))
        assert certified == []

    @pytest.mark.parametrize("criterion", ["a", "b"])
    def test_scan_reads_the_reports_verdict(self, monkeypatch, criterion):
        # with delta <= 0 as _report's rule the vacuum passes everywhere:
        # the scan has no comparison of its own
        report = qng.witness._report

        def at_or_below(*args):
            rep = report(*args)
            return replace(rep, conclusive=rep.delta <= 0)

        monkeypatch.setattr(qng.witness, "_report", at_or_below)
        res = epsilon_threshold(StateFamily("fock", 0), 0, criterion)
        assert res.epsilon_star == "one"

    def test_bisection_reads_the_reports_verdict(self, monkeypatch):
        # a margin moved into _report's rule moves a criterion-b threshold
        # (per-point scan and bisection) to where delta crosses the margin
        family, s, tol, margin = StateFamily("pss", 0.5), -1, 1e-3, -1e-3
        report = qng.witness._report

        def within_margin(*args):
            rep = report(*args)
            return replace(rep, conclusive=rep.delta < margin)

        monkeypatch.setattr(qng.witness, "_report", within_margin)
        star = epsilon_threshold(family, s, "b", tol=tol).epsilon_star
        monkeypatch.undo()
        plain = epsilon_threshold(family, s, "b", tol=tol).epsilon_star
        assert isinstance(star, float) and star < plain
        assert witness_at_loss(family, s, star - tol, "b").delta < margin
        assert witness_at_loss(family, s, star + tol, "b").delta >= margin

    def test_truncation_tail_counted_conservatively(self):
        # PSS r = 1 keeps all but 1.6e-9 of its mass at cutoff 80. Read at
        # s2 = -(eps - s)/eta, its photon numbers sum the series of the
        # family witness at s = -2 and eps = 1 - 1e-5 (over eta), where the
        # witness is smaller than the tail: delta is negative at cutoff 80
        # and positive at larger cutoffs, so the tail must decide
        s, eps = -2.0, 1 - 1e-5
        s2 = -(eps - s) / (1 - eps)
        assert delta_a(make_pss(1.0, 80), s2).delta < 0
        for cutoff in (80, 120, 200):
            assert not delta_a(make_pss(1.0, cutoff), s2).conclusive
        # the family witness is the closed form: +1.9e-10 at any cutoff
        family = StateFamily("pss", 1.0)
        for cutoff in (80, 120, 200):
            rep = witness_at_loss(family, s, eps, "a", cutoff=cutoff)
            assert rep.delta == pytest.approx(1.935e-10, rel=1e-3)
            assert not rep.conclusive
        res = epsilon_threshold(family, s, "a")
        assert res.epsilon_star == "none"

    @pytest.mark.parametrize("s", [0, -0.5, -1, -3])
    @pytest.mark.parametrize("eps", [0, 0.5, 0.9, 1 - 1e-5])
    def test_truncation_tail_bounds_the_dropped_levels(self, s, eps):
        # dropping levels 41.. of PSS r = 1 after loss moves the origin value
        # by no more than the tail reported for the kept levels
        lossy = apply_loss(make_pss(1.0, 200), ChannelSpec(eps))
        p = qng.fock.photon_probs(lossy)
        q_full, _ = _origin_series(p, s)
        q_cut, tail = _origin_series(p[:41], s)
        assert tail == pytest.approx((1 - p[:41].sum()) * 2 / (np.pi * (1 - s)),
                                     rel=1e-12, abs=0)
        assert abs(q_full - q_cut) <= tail + 1e-15

    def test_tail_covers_mass_lost_before_a_channel(self):
        # PSS r = 1 at cutoff 80 leaves 1.6e-9 of its mass out, and loss
        # moves the kept mass down: the missing mass no longer sits past the
        # cutoff. The tail counts it at the most any level can carry, which
        # is qs_origin_error's bound, so the state is not certified
        s, channel = -2.0, ChannelSpec(1 - 1e-5)
        state = apply_loss(make_pss(1.0, 80), channel)
        rep = delta_a(state, s)
        assert rep.delta == pytest.approx(-1.54e-10, rel=1e-2)
        tail = _origin_series(qng.fock.photon_probs(state), s)[1]
        assert tail == pytest.approx(qs_origin_error(state, s), rel=1e-6)
        assert tail == pytest.approx(3.47e-10, rel=1e-2)
        assert not rep.conclusive
        for cutoff in (120, 200):  # the same state, held in full
            converged = delta_a(apply_loss(make_pss(1.0, cutoff), channel), s)
            assert converged.delta == pytest.approx(1.94e-10, rel=1e-2)
            assert not converged.conclusive


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


@pytest.mark.parametrize("family", [
    *(StateFamily("fock", m) for m in range(7)),
    # a PAC alpha = 0 seed is the identity too, scanned point by point
    StateFamily("pac", 0.0)], ids=lambda f: f"{f.kind}{f.param}")
@pytest.mark.parametrize("s", [0, -0.25, -0.5, -1, -2, -5])
@pytest.mark.parametrize("tol", [1e-3, 1e-5])
def test_identity_seed_threshold_is_criterion_a(monkeypatch, family, s, tol):
    a = epsilon_threshold(family, s, "a", tol=tol)
    if family.kind == "fock":  # the kind says the seed is the identity
        def no_seed(*args):
            raise AssertionError("a Fock threshold built a seed map")

        monkeypatch.setattr(qng.witness, "_seed_map", no_seed)
    b = epsilon_threshold(family, s, "b", tol=tol)
    assert b.epsilon_star == a.epsilon_star


def test_family_validation():
    with pytest.raises(ValueError):
        StateFamily("thermal", 1.0)
