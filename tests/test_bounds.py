import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import qng.bounds
from oracles import (convexity_check, grid_argmin, m_minus1_closed,
                     qs_pure_gaussian, rank2_search, wigner_bound_closed)
from qng.bounds import (N_MAX, _fminbound, _minimized_bound, bound_at_zero,
                        bound_objective, build_bound_curve, pure_bound)
from qng.quasiprob import S_MIN, _origin_series
from qng.witness import StateFamily, witness_at_loss

S_VALUES = [-0.25, -0.5, -1.0, -2.0, -3.0]


def test_bound_at_zero_closed_forms():
    for s in [0.0] + S_VALUES:
        expected = 2 / (np.pi * np.sqrt(1 + s * (s - 2)))
        assert pure_bound(0, s)[0] == pytest.approx(expected, abs=1e-15)
    assert bound_at_zero(-1) == pytest.approx(1 / np.pi, rel=1e-15)


@pytest.mark.parametrize("s", [0.0, -0.5, -1.0, -2.0, -2.69, -3.0])
def test_bound_at_zero_is_the_vacuum_origin_value(s):
    # the same expression as the photon-number series' prefactor, for a float
    # n and inside an array; the objective's 2/(pi sqrt(1+s(s-2))) is one ulp
    # above it at s = -2.69
    vacuum = _origin_series(np.array([1.0]), s)[0]
    assert bound_at_zero(s) == vacuum == pure_bound(0.0, s)[0]
    bound = pure_bound(np.array([0.0, 1.0, 0.0]), s)[0]
    assert (bound[0], bound[2]) == (vacuum, vacuum)
    # full loss leaves every family member the vacuum, under both criteria
    for family in (StateFamily("fock", 3), StateFamily("pac", 2.0),
                   StateFamily("pss", 0.5)):
        for criterion in ("a", "b"):
            assert witness_at_loss(family, s, 1.0, criterion).q_value == vacuum


@pytest.mark.parametrize("closed", [wigner_bound_closed, m_minus1_closed])
@pytest.mark.parametrize("n", [np.nan, np.inf, -1.0])
def test_closed_forms_reject_bad_n(closed, n):
    # NaN and infinite n used to come back as nan, where pure_bound raises
    with pytest.raises(ValueError, match="n must be finite and >= 0"):
        closed(n)


def test_wigner_bound_closed_values():
    assert wigner_bound_closed(0) == pytest.approx(2 / np.pi, rel=1e-15)
    assert wigner_bound_closed(1) == pytest.approx(2 / np.pi * np.exp(-4),
                                                   rel=1e-15)
    assert wigner_bound_closed(0.5) == pytest.approx(2 / np.pi * np.exp(-1.5),
                                                     rel=1e-15)


def test_pure_bound_matches_wigner_closed_form():
    for n in np.linspace(0, 10, 101):
        assert abs(pure_bound(n, 0)[0] - wigner_bound_closed(n)) < 1e-9


@pytest.mark.parametrize("n", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_m_minus1_closed_matches_grid_argmin(n):
    m_grid, _ = grid_argmin(n, -1.0)
    assert abs(m_minus1_closed(n) - m_grid) < 1e-6


def test_m_minus1_closed_matches_optimizer_argmin():
    for n in [0.5, 1.0, 2.0, 5.0]:
        assert abs(m_minus1_closed(n) - pure_bound(n, -1)[1]) < 1e-6


def test_m_minus1_vacuum():
    assert m_minus1_closed(0) == 0.0


def quartic_root_split(n: float, s: float):
    """Oracle: m = y^2 / (4(1+y)) at the root in (0, 2n] of the quartic
    P(1 + y) of pure_bound, by bisection at 60 digits (P(1) > 0 >= P(1+2n))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        nm, sm = mpmath.mpf(n), mpmath.mpf(s)
        c3, c2 = 4 * sm - 2, 4 * nm - 4 + 6 * sm
        c1, c0 = 8 * nm - 2 + 2 * sm - 4 * nm * sm, 4 * nm * (1 - sm)
        lo, hi = mpmath.mpf(0), 2 * nm
        while hi - lo > mpmath.mpf(10) ** -52 * hi:
            y = (lo + hi) / 2
            if (((sm * y + c3) * y + c2) * y + c1) * y + c0 > 0:
                lo = y
            else:
                hi = y
        y = (lo + hi) / 2
        return y * y / (4 * (1 + y))


HUGE_N = np.concatenate([np.logspace(1, 70, 24), [N_MAX]])


def test_m_minus1_closed_to_working_precision():
    # oracle: the root in [0, 2n] of y^3 + 4y^2 - (4n-2)y - 4n at 60 digits,
    # which is the quartic's root at s = -1; the cube-root formula was off by
    # 1e-4 relative at n = 1e-6, and Vieta's form by a factor 4 at n = 1e30
    for n in np.concatenate([np.logspace(-6, np.log10(60), 200),
                             [0.0078125, 1e-3, 0.875], HUGE_N]):
        m = quartic_root_split(float(n), -1.0)
        assert abs(m_minus1_closed(float(n)) - m) <= 1e-15 * m


@pytest.mark.parametrize("s", [S_MIN, -1e3, -4.0, -1.0, -0.3, -1e-3, -1e-9, 0.0])
def test_newton_root_to_working_precision_up_to_the_n_limit(s):
    # 64 Newton steps gave m_opt 6.20e7 at n = 1e16, s = -1 (root 5.00e7);
    # the descent needs about 1.74 ln n steps, 310 at N_MAX and S_MIN
    n = np.concatenate([np.logspace(-6, np.log10(60), 12), HUGE_N])
    m_opt = pure_bound(n, s)[1]
    for i, v in enumerate(n.tolist()):
        m = quartic_root_split(v, s)
        assert abs(m_opt[i] - m) <= 2e-15 * m
        assert pure_bound(v, s)[1] == m_opt[i]


@pytest.mark.parametrize("table", [
    lambda n: pure_bound(n, -1), lambda n: pure_bound(np.array([1.0, n]), -1),
    m_minus1_closed])
@pytest.mark.parametrize("n", [np.nextafter(N_MAX, np.inf), 1e80, 1e300])
def test_n_above_the_limit_refused(table, n):
    # past about 1e77 the (2n)^4 term overflowed: pure_bound(1e80, -1) was
    # (nan, nan) with no warning, and m_minus1_closed(1e80) was 0.333
    with pytest.raises(ValueError, match="n must be finite and >= 0, at most N_MAX"):
        table(n)


def test_n_limit_refused_by_the_tables():
    # convexity_check reported a NaN deficit and rank2_search raised numpy's
    # "All-NaN slice encountered"; a bound curve is refused before any row
    for table in (convexity_check, build_bound_curve):
        with pytest.raises(ValueError, match="^n_max must be .* at most N_MAX"):
            table(-1, 1e80, 1e78)
    for n in (1e69, 1e79):  # n2 runs past 50 n
        with pytest.raises(ValueError, match="^n must be .* at most N_MAX / 100"):
            rank2_search(n, -1)


def test_pure_bound_against_dense_grid():
    for s in [-0.5, -1.0, -2.0]:
        for n in [0.3, 1.0, 2.0, 4.0]:
            _, val = grid_argmin(n, s)
            assert pure_bound(n, s)[0] == pytest.approx(val, abs=1e-12)


def test_pure_bound_below_random_feasible_states():
    # minimizer property: no pure Gaussian state with the same photon number
    # may fall below the bound (1e4 draws per s)
    rng = np.random.default_rng(11)
    for s in S_VALUES:
        n = rng.uniform(0, 8, 10_000)
        m = n * rng.uniform(0, 1, n.size)
        theta = rng.uniform(0, 2 * np.pi, n.size)
        phi = rng.uniform(0, 2 * np.pi, n.size)
        d = 1 + s * (s - 2 - 4 * m)
        vals = (2 * np.exp(-2 * (n - m) * (1 + 2 * m
                - 2 * np.sqrt(m * (1 + m)) * np.cos(2 * theta - phi) - s) / d)
                / (np.pi * np.sqrt(d)))
        bounds = np.array([pure_bound(v, s)[0] for v in n])
        assert np.all(vals >= bounds - 1e-10)


def test_extremal_phase_choice_by_sampling():
    # the locked phase relation must be the worst case over random phases
    rng = np.random.default_rng(5)
    for s in [-0.5, -1.0, -2.0]:
        for _ in range(200):
            n = rng.uniform(0, 5)
            m = rng.uniform(0, n)
            worst = bound_objective(m, n, s)
            theta, phi = rng.uniform(0, 2 * np.pi, 2)
            assert qs_pure_gaussian(n, m, s, theta, phi) >= worst - 1e-12


class TestRank2:
    def test_degenerate_at_zero(self):
        c = rank2_search(0, -1)
        assert c.value == pytest.approx(bound_at_zero(-1), rel=1e-12)
        assert c.p == 1.0

    @pytest.mark.parametrize("s", [-0.5, -1.0, -2.0])
    @pytest.mark.parametrize("n", [0.5, 1.0, 3.0])
    def test_mixtures_cannot_undercut_pure_bound(self, s, n):
        c = rank2_search(n, s)
        gap = c.value - pure_bound(n, s)[0]
        assert abs(gap) <= max(1e-10, 1e-10 * n)

    def test_constraint_satisfied(self):
        c = rank2_search(2.0, -1)
        assert c.p * c.n1 + (1 - c.p) * c.n2 <= 2.0 + 1e-9


def _bumped_bound(n, s):
    """A non-convex stand-in for pure_bound: exp(-n) with a bump at n = 2."""
    n = np.asarray(n, dtype=float)
    return np.exp(-n) + 0.5 * np.exp(-100.0 * (n - 2.0) ** 2), np.zeros_like(n)


def test_rank2_search_finds_the_mixture_under_a_bump(monkeypatch):
    # pure_bound is convex, so only a non-convex stand-in makes a mixture win
    monkeypatch.setattr(qng.bounds, "pure_bound", _bumped_bound)
    c = rank2_search(2.0, -1)
    assert c.p < 1 and c.n1 < 2.0 < c.n2
    assert c.p * c.n1 + (1 - c.p) * c.n2 == pytest.approx(2.0, abs=1e-9)
    assert c.value < float(_bumped_bound(2.0, -1)[0]) - 0.4


def test_convexity_check_reports_a_violation(monkeypatch):
    monkeypatch.setattr(qng.bounds, "pure_bound", _bumped_bound)
    report = convexity_check(-1, 4, 1)  # bound values at n = 0, 1, 2, 3, 4
    assert not report.passed
    assert report.first_violation == (1.0, 2.0, 3.0)
    b = _bumped_bound(np.arange(5.0), -1)[0]
    assert report.max_second_difference_deficit == pytest.approx(
        -(b[1] - 2 * b[2] + b[3]))
    assert not report.strictly_decreasing  # the bump rises from n = 1 to 2


def _two_bumps(n, s):
    """exp(-n) with a small bump at n = 2 and a larger one at n = 5."""
    n = np.asarray(n, dtype=float)
    return (np.exp(-n) + 0.1 * np.exp(-100.0 * (n - 2.0) ** 2)
            + 0.5 * np.exp(-100.0 * (n - 5.0) ** 2)), np.zeros_like(n)


def test_convexity_check_reports_the_first_violation(monkeypatch):
    # the most negative second difference is around n = 5; first_violation
    # used to report it instead of the first one, around n = 2
    monkeypatch.setattr(qng.bounds, "pure_bound", _two_bumps)
    report = convexity_check(-1, 7, 1)  # bound values at n = 0, 1, ..., 7
    assert report.first_violation == (1.0, 2.0, 3.0)
    b = _two_bumps(np.arange(8.0), -1)[0]
    assert report.max_second_difference_deficit == pytest.approx(
        -(b[4] - 2 * b[5] + b[6]))


class TestConvexity:
    @pytest.mark.parametrize("s", [0.0, -1.0, -3.0])
    def test_grid_convex_and_decreasing(self, s):
        n_max = 20 if s == 0 else 50
        report = convexity_check(s, n_max, 0.1)
        assert report.passed
        assert report.strictly_decreasing
        assert report.first_violation is None

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            convexity_check(-1, 10, 0)

    def test_deficit_is_positive_zero(self):
        # the grid reaches the underflowed bound, so the smallest second
        # difference is exactly 0 and the deficit, its negation, is -0.0
        deficit = convexity_check(0, 30, 0.1).max_second_difference_deficit
        assert deficit == 0.0 and math.copysign(1.0, deficit) == 1.0

    @pytest.mark.parametrize("tol", [np.nan, -1.0])
    def test_bad_tol_rejected(self, tol):
        # a NaN tol used to pass every grid
        with pytest.raises(ValueError, match="tol must be >= 0"):
            convexity_check(-1, 5, 0.1, tol=tol)

    @pytest.mark.parametrize("n_max,step,name", [
        (np.nan, 0.1, "n_max"), (np.inf, 0.1, "n_max"), (-1.0, 0.1, "n_max"),
        (10.0, np.nan, "step"), (10.0, np.inf, "step"), (10.0, -0.1, "step")])
    def test_bad_grid_named_as_in_bound_curve(self, n_max, step, name):
        # NaN used to reach numpy's arange, and an infinite n_max was
        # reported as a grid-size error
        for table in (convexity_check, build_bound_curve):
            with pytest.raises(ValueError, match=rf"^{name} must be finite"):
                table(-1, n_max, step)


class TestBoundCurve:
    def test_rows_and_first_row(self):
        rows = build_bound_curve(-1, 1.0, 0.5)
        assert [row[0] for row in rows] == [0.0, 0.5, 1.0]
        assert rows[0] == (0.0, pytest.approx(1 / np.pi, abs=1e-12), 0.0)

    def test_monotone_decreasing_samples(self):
        b = [row[1] for row in build_bound_curve(-2, 5.0, 0.25)]
        assert all(x > y for x, y in zip(b, b[1:]))
        assert all(x > 0 for x in b)


@pytest.mark.parametrize("table", [build_bound_curve, convexity_check])
def test_huge_grid_rejected(table):
    # 1e17 points would need an array of 711 PiB
    with pytest.raises(ValueError, match="grid points"):
        table(0, 1e17, 1)
    with pytest.raises(ValueError, match="grid points"):
        table(0, 1.0, 1e-300)


def test_bound_objective_is_extremal_phase_pure_gaussian():
    # one closed form: the bound objective is the pure Gaussian origin value
    # at 2 theta - phi = pi
    for s in [0.0, -0.5, -1.0, -3.0]:
        for n in [0.0, 0.3, 1.0, 4.5, 20.0]:
            for m in np.linspace(0.0, n, 9):
                assert bound_objective(m, n, s) == \
                    qs_pure_gaussian(n, m, s, np.pi / 2, 0.0)


@settings(max_examples=400, deadline=None)
@given(n=hst.floats(0, 10), s=hst.floats(-3, 0))
def test_pure_bound_convex_and_strictly_decreasing_property(n, s):
    h = 0.05
    b0, b1, b2 = (pure_bound(n + k * h, s)[0] for k in range(3))
    assert b1 < b0 and b2 < b1
    assert b0 - 2.0 * b1 + b2 >= -1e-10


def assert_near_minimizer(n, s):
    """pure_bound against the bounded minimization, within 1e-12 relative
    (the absolute floor covers bounds that underflow at s near 0), and its
    m_opt within 1e-6 max(1, n) (where the bound underflows, the minimizer
    hands over to pure_bound: before, its search stopped anywhere)."""
    bound, m_opt = pure_bound(n, s)
    oracle, oracle_m = _minimized_bound(n, s)
    assert abs(bound - oracle) <= 1e-12 * oracle + 1e-300
    assert abs(m_opt - oracle_m) <= 1e-6 * max(1.0, n)
    assert 0.0 <= m_opt <= n


# Inputs on which a Newton loop on P(x) stopped only by |dx| <= 4e-16 x can
# cycle forever, at |dx| / x of about 4.1e-16 to 4.5e-16, depending on how P
# is evaluated.
@pytest.mark.parametrize("n,s", [(0.016940485882474217, -0.13948505429128877)])
def test_pure_bound_returns_on_roundoff_cycle_inputs(n, s):
    assert_near_minimizer(n, s)


def test_pure_bound_matches_minimizer_on_random_points():
    rng = np.random.default_rng(3)
    for n, s in zip(rng.uniform(0, 60, 3000), rng.uniform(-4, 0, 3000)):
        assert_near_minimizer(n, s)


@settings(max_examples=300, deadline=None)
@given(n=hst.floats(0, 60), s=hst.floats(-4, 0))
@example(n=48.79, s=-0.012)  # underflowed: the minimizer gave m_opt 37.28, not 16.91
@example(n=18.8, s=0.0)  # subnormal: 8.845, not 9.156
def test_pure_bound_exact_property(n, s):
    assert_near_minimizer(n, s)
    bound, m_opt = pure_bound(n, s)
    if s == -1.0:  # the cube-root closed form cancels to ~1e-16 at small n
        assert m_opt == pytest.approx(m_minus1_closed(n), rel=1e-12, abs=1e-14)
    if s == 0.0:
        assert bound == pytest.approx(wigner_bound_closed(n), rel=1e-12,
                                      abs=1e-300)


@settings(max_examples=100, deadline=None)
@given(n=hst.lists(hst.floats(0, 60), min_size=1, max_size=20),
       s=hst.floats(-4, 0))
def test_pure_bound_array_equals_scalar_property(n, s):
    bounds, m_opt = pure_bound(np.array(n), s)
    assert bounds.shape == m_opt.shape == (len(n),)
    for i, v in enumerate(n):
        assert (bounds[i], m_opt[i]) == pure_bound(v, s)


@pytest.mark.parametrize("n", [0.1, 0.5, 1.0, 2.3, 5.0, 20.0, 60.0])
def test_pure_bound_exact_at_closed_forms(n):
    # the minimizer's m_opt is off by up to 5e-7; the quartic root is not
    assert pure_bound(n, -1)[1] == pytest.approx(m_minus1_closed(n), rel=1e-12)
    assert pure_bound(n, 0)[1] == n * n / (2 * n + 1)


@pytest.mark.parametrize("n", [-1.0, np.inf, np.nan, [0.5, -1.0], [1.0, np.nan]])
def test_pure_bound_rejects_bad_photon_numbers(n):
    with pytest.raises(ValueError):
        pure_bound(np.array(n) if isinstance(n, list) else n, -1)


def scipy_bounded(func, lo, hi, xatol):
    from scipy.optimize import minimize_scalar

    # scipy's iterate is a numpy float, so 0 * inf next to an infinite value
    # warns there; the port computes with Python floats and does not
    with np.errstate(invalid="ignore"):
        res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol, "maxiter": 500})
    return float(res.x), float(res.fun)


def test_fminbound_equals_scipy_on_bound_objectives():
    rng = np.random.default_rng(17)
    for n, s in zip(rng.uniform(0, 60, 300), rng.uniform(-4, 0, 300)):
        def objective(m):
            return float(bound_objective(m, n, s))

        xatol = 1e-13 * max(1.0, n)
        assert _fminbound(objective, 0.0, n, xatol) == \
            scipy_bounded(objective, 0.0, n, xatol)


def test_fminbound_equals_scipy_on_refine_objectives():
    # refine_map's objectives: a witness over a map parameter t within 1 of
    # its seed, inf where the mapped state leaves the cutoff
    rng = np.random.default_rng(19)
    for _ in range(300):
        t0, c, w = rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(0.1, 5)
        edge = c + rng.uniform(0.2, 1.5)

        def objective(t):
            return float(w * (t - c) ** 2 + math.sin(3 * t)) if t < edge else math.inf

        assert _fminbound(objective, t0 - 1, t0 + 1, 1e-6) == \
            scipy_bounded(objective, t0 - 1, t0 + 1, 1e-6)


def test_fminbound_with_infinite_objective():
    def objective(t):
        return math.inf if t > 1.5 else float((t - 0.25) ** 2)

    x, value = _fminbound(objective, 0.0, 2.0, 1e-6)
    assert (x, value) == scipy_bounded(objective, 0.0, 2.0, 1e-6)
    assert x == pytest.approx(0.25, abs=1e-5) and math.isfinite(value)
