import numpy as np
import pytest

from qng.bounds import (bound_at_zero, bound_objective, build_bound_curve,
                        convexity_check, m_minus1_closed, pure_bound,
                        rank2_search, wigner_bound_closed)
from qng.quasiprob import PureGaussianParam, qs_pure_gaussian

S_VALUES = [-0.25, -0.5, -1.0, -2.0, -3.0]


def grid_argmin(n, s, coarse=1e-4, fine=1e-8):
    """Brute-force argmin over the squeezing fraction, two-stage grid."""
    m = np.arange(0.0, n + coarse / 2, coarse)
    vals = bound_objective(m, n, s)
    best = m[np.argmin(vals)]
    lo, hi = max(0.0, best - 2 * coarse), min(n, best + 2 * coarse)
    m = np.arange(lo, hi + fine / 2, fine)
    vals = bound_objective(m, n, s)
    return float(m[np.argmin(vals)]), float(vals.min())


def test_bound_at_zero_closed_forms():
    for s in [0.0] + S_VALUES:
        expected = 2 / (np.pi * np.sqrt(1 + s * (s - 2)))
        assert pure_bound(0, s)[0] == pytest.approx(expected, abs=1e-15)
    assert bound_at_zero(-1) == pytest.approx(1 / np.pi, rel=1e-15)


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
            p = PureGaussianParam(n=n, m=m, theta=theta, phi=phi)
            assert qs_pure_gaussian(p, s) >= worst - 1e-12


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


class TestBoundCurve:
    def test_csv_header_and_first_row(self):
        curve = build_bound_curve(-1, 1.0, 0.5)
        text = curve.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "n,bound,m_opt"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1 / np.pi, abs=1e-12)

    def test_monotone_decreasing_samples(self):
        curve = build_bound_curve(-2, 5.0, 0.25)
        b = [row[1] for row in curve.samples]
        assert all(x > y for x, y in zip(b, b[1:]))
        assert all(x > 0 for x in b)


@pytest.mark.parametrize("table", [build_bound_curve, convexity_check])
def test_huge_grid_rejected(table):
    # 1e17 points would need an array of 711 PiB
    with pytest.raises(ValueError, match="grid points"):
        table(0, 1e17, 1)
    with pytest.raises(ValueError, match="grid points"):
        table(0, 1.0, 1e-300)
