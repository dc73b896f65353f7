"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Each test prints "criterion NN <label>: PASS|FAIL" before asserting, so a
verbose run gives a scannable scoreboard. Tolerances and grids are part of
the contract and must not be loosened.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qng.bounds import (bound_at_zero, convexity_check, m_minus1_closed,
                        pure_bound, rank2_search, wigner_bound_closed)
from qng.error_model import normalized_bound_stats
from qng.fock import (ChannelSpec, GaussianMapSpec, apply_loss, apply_map,
                      make_displaced_squeezed, make_fock, make_pss, mix,
                      moments)
from qng.quasiprob import qs_fock, qs_origin, qs_pure_gaussian
from qng.witness import StateFamily, delta_a, epsilon_threshold, q_opt, \
    witness_at_loss

S_FIVE = [0.0, -0.25, -0.5, -1.0, -2.0]
S_SIX = [0.0, -0.25, -0.5, -1.0, -2.0, -3.0]


def verdict(num, label, ok):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {label}"


def test_criterion_01_vacuum_bound_closed_form():
    t0 = time.perf_counter()
    ok = all(abs(pure_bound(0, s)[0] - 2 / (np.pi * np.sqrt(1 + s * (s - 2))))
             < 1e-12 for s in S_SIX)
    ok = ok and (time.perf_counter() - t0) < 1.0
    verdict(1, "vacuum bound closed form", ok)


def test_criterion_02_wigner_bound_equivalence():
    t0 = time.perf_counter()
    grid = np.arange(0.0, 10.0 + 0.005, 0.01)
    err = max(abs(pure_bound(float(n), 0)[0] - wigner_bound_closed(float(n)))
              for n in grid)
    ok = err < 1e-9 and (time.perf_counter() - t0) < 10.0
    verdict(2, "optimized Wigner bound matches closed form", ok)


def test_criterion_03_husimi_argmin_closed_form():
    t0 = time.perf_counter()
    ok = True
    for n in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
        from qng.bounds import bound_objective
        m = np.arange(0.0, n + 5e-5, 1e-4)
        best = m[np.argmin(bound_objective(m, n, -1.0))]
        lo, hi = max(0.0, best - 2e-4), min(n, best + 2e-4)
        m = np.arange(lo, hi + 5e-9, 1e-8)
        best = float(m[np.argmin(bound_objective(m, n, -1.0))])
        ok = ok and abs(m_minus1_closed(n) - best) < 1e-6
    ok = ok and (time.perf_counter() - t0) < 10.0
    verdict(3, "cubic-root squeezing fraction at s=-1", ok)


def test_criterion_04_rank2_near_optimality():
    t0 = time.perf_counter()
    ok = True
    for s in [-0.5, -1.0, -2.0]:
        for n in [0.5, 1.0, 3.0]:
            gap = rank2_search(n, s).value - pure_bound(n, s)[0]
            ok = ok and abs(gap) <= max(1e-10, 1e-10 * n)
    ok = ok and (time.perf_counter() - t0) < 120.0
    verdict(4, "two-component mixtures cannot undercut pure bound", ok)


def test_criterion_05_convexity_and_monotonicity():
    ok = True
    for s in S_FIVE:
        rep = convexity_check(s, 50.0, 0.1, tol=1e-10)
        ok = ok and rep.passed and rep.strictly_decreasing
    verdict(5, "bound curves convex and strictly decreasing", ok)


def test_criterion_06_fock_loss_binomial():
    from math import comb
    ok = True
    for m in range(7):
        for eps in [0.1, 0.5, 0.9]:
            st = apply_loss(make_fock(m, 20), ChannelSpec(eps))
            diag = np.real(np.diag(st.matrix))
            for j in range(m + 1):
                expect = comb(m, j) * (1 - eps) ** j * eps ** (m - j)
                ok = ok and abs(diag[j] - expect) < 1e-12
            ok = ok and np.all(np.abs(diag[m + 1:]) < 1e-12)
    verdict(6, "lossy Fock diagonal is binomial", ok)


def test_criterion_07_quasiprob_equivalence():
    ok = True
    for s in S_FIVE:
        for m in range(21):
            ok = ok and abs(qs_fock(m, s) - qs_origin(make_fock(m, 25), s)) < 1e-12
    for n in [0.5, 1.0, 2.0, 3.0, 4.0]:
        for frac in [0.0, 0.25, 0.5, 0.75, 1.0]:
            msq = frac * n
            q = float(np.arcsinh(np.sqrt(msq)))
            theta = 0.7
            alpha = np.sqrt(n - msq) * np.exp(1j * theta)
            st = make_displaced_squeezed(alpha, q, 140)
            for s in [0.0, -0.5, -1.0, -2.0]:
                pure = qs_pure_gaussian(n, msq, s, theta=theta, phi=0.0)
                ok = ok and abs(qs_origin(st, s) - pure) < 1e-7
    verdict(7, "closed forms agree with matrix quasiprobabilities", ok)


def test_criterion_08_wigner_zero_at_half_loss():
    st = apply_loss(make_fock(1, 10), ChannelSpec(0.5))
    verdict(8, "single photon Wigner origin vanishes at half loss",
            abs(qs_origin(st, 0)) < 1e-12)


def test_criterion_09_fock_threshold_ordering():
    t0 = time.perf_counter()
    chain = [0.0, -0.5, -1.0, -2.0]
    tol = 1e-5
    ok = True
    for m in range(1, 6):
        stars = []
        for s in chain:
            res = epsilon_threshold(StateFamily("fock", m), s, "a", tol=tol)
            star = res.epsilon_star
            stars.append(1.0 if star == "one" else 0.0 if star == "none"
                         else star)
        mono = all(b >= a - 2 * tol for a, b in zip(stars, stars[1:]))
        if not mono:
            print(f"  ordering breaks for photon number {m}: {stars}")
        ok = ok and mono
    ok = ok and (time.perf_counter() - t0) < 300.0
    verdict(9, "loss thresholds grow as s decreases", ok)


def test_criterion_10_one_vs_three_photon_tradeoff():
    chain = [0.0, -0.5, -1.0, -2.0]
    d1 = [abs(delta_a(make_fock(1, 20), s).delta) for s in chain]
    d3 = [abs(delta_a(make_fock(3, 20), s).delta) for s in chain]
    decreasing1 = all(x > y for x, y in zip(d1, d1[1:]))
    inversion3 = any(x < y for x, y in zip(d3, d3[1:]))
    verdict(10, "witness magnitude ordering differs between |1> and |3>",
            decreasing1 and inversion3)


def test_criterion_11_photon_added_coherent_near_unit_threshold():
    ok = True
    for alpha in [1.5, 2.0, 3.0]:
        fam = StateFamily("pac", alpha)
        for s in [0.0, -1.0]:
            rep = witness_at_loss(fam, s, 0.95, "b")
            ok = ok and rep.conclusive
            res = epsilon_threshold(fam, s, "b", tol=1e-3)
            ok = ok and res.epsilon_star == "one"
    verdict(11, "displaced witness for photon-added coherent states "
                "survives near-total loss", ok)


def test_criterion_12_photon_subtracted_squeezed():
    ok = True
    for r in [0.3, 0.5, 1.0]:
        for eps in [0.2, 0.5, 0.8]:
            lossy = apply_loss(make_pss(r, 80), ChannelSpec(eps))

            def nbar(q):
                return moments(apply_map(lossy, GaussianMapSpec(squeeze=q)))[0]

            res = minimize_scalar(nbar, bounds=(-2.0, 0.5), method="bounded",
                                  options={"xatol": 1e-9})
            ok = ok and abs(q_opt(r, eps) - res.x) < 1e-6
    for r in [0.3, 1.0, 0.5]:
        rep = witness_at_loss(StateFamily("pss", r), -1.0, 0.95, "b")
        if not rep.conclusive:
            print(f"  squeeze-optimized witness inconclusive at r={r}: "
                  f"delta={rep.delta:.3e}")
        ok = ok and rep.conclusive
    verdict(12, "analytic squeeze is optimal and certifies at 95% loss", ok)


def test_criterion_13_no_false_positives_on_hull():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    cutoff = 170
    worst = np.inf
    ok = True
    for _ in range(10_000):
        k = int(rng.integers(1, 3))
        comps = []
        for _ in range(k):
            n = rng.uniform(0.0, 5.0)
            msq = n * rng.uniform(0.0, 1.0)
            theta = rng.uniform(0.0, 2 * np.pi)
            alpha = np.sqrt(n - msq) * np.exp(1j * theta)
            q = float(np.arcsinh(np.sqrt(msq)))
            comps.append(make_displaced_squeezed(alpha, q, cutoff))
        if k == 1:
            st = comps[0]
        else:
            w = rng.uniform(0.05, 0.95)
            st = mix(comps, [w, 1 - w])
        for s in S_FIVE:
            d = delta_a(st, s).delta
            worst = min(worst, d)
            ok = ok and d >= -1e-7
    elapsed = time.perf_counter() - t0
    print(f"  worst hull delta {worst:.3e} in {elapsed:.0f}s")
    ok = ok and elapsed < 600.0
    verdict(13, "no Gaussian-hull state triggers the witness", ok)


def test_criterion_14_error_model_matches_monte_carlo():
    rng = np.random.default_rng(7)
    k = 100
    ok = True
    for s in [0.0, -1.0, -2.0]:
        mean0, std0 = normalized_bound_stats(s, 0.0, k)
        ok = ok and mean0 == 1.0 and std0 == 0.0
        for n_avg in [0.5, 1.0, 2.0]:
            mean, std = normalized_bound_stats(s, n_avg, k)
            counts = rng.poisson(k * n_avg, 1_000_000)
            uniq, mult = np.unique(counts, return_counts=True)
            vals = np.array([pure_bound(u / k, s)[0] for u in uniq])
            vals /= bound_at_zero(s)
            total = mult.sum()
            mc_mean = np.dot(mult, vals) / total
            mc_var = np.dot(mult, vals ** 2) / total - mc_mean ** 2
            mc_std = np.sqrt(max(mc_var, 0.0))
            mu4 = np.dot(mult, (vals - mc_mean) ** 4) / total
            se_mean = mc_std / np.sqrt(total)
            # skew-robust standard error of the sample std (delta method)
            se_std = np.sqrt(max(mu4 - mc_var ** 2, 0.0)) / (2 * mc_std
                                                             * np.sqrt(total))
            ok = ok and abs(mean - mc_mean) <= 3 * se_mean
            ok = ok and abs(std - mc_std) <= 3 * se_std
    verdict(14, "exact repetition statistics match Monte Carlo", ok)
