import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qng
import qng.error_model
from qng.bounds import (MAX_GRID_POINTS, _minimized_bound, bound_at_zero,
                        pure_bound)
from qng.error_model import (POISSON_MASS, _poisson_weights,
                             normalized_bound_stats)

SRC = Path(qng.__file__).resolve().parents[1]


@pytest.mark.parametrize("k", [0, -1, 2.5, 100.0, "3"])
def test_k_must_be_an_integer_at_least_one(k):
    # k = -1 raised "math domain error", and k = 2.5 returned a value
    with pytest.raises(ValueError, match=r"k must be an integer >= 1"):
        normalized_bound_stats(-1, 0.5, k)


def test_numpy_integer_k_accepted():
    assert normalized_bound_stats(-1, 0.5, np.int64(20)) == \
        normalized_bound_stats(-1, 0.5, 20)


@pytest.mark.parametrize("n_avg", [np.nan, np.inf, -0.5])
def test_n_avg_must_be_finite_nonnegative(n_avg):
    with pytest.raises(ValueError, match="n_avg must be finite and >= 0"):
        normalized_bound_stats(-1, n_avg, 10)


def test_point_mass_at_zero():
    for s in [0, -1, -2]:
        mean, std = normalized_bound_stats(s, 0.0, 100)
        assert mean == 1.0
        assert std == 0.0


def test_exact_sum_matches_monte_carlo():
    rng = np.random.default_rng(123)
    k = 100
    for s in [0, -1, -2]:
        for n_avg in [0.5, 1.0]:
            mean, std = normalized_bound_stats(s, n_avg, k)
            samples = rng.poisson(k * n_avg, 100_000)
            uniq, counts = np.unique(samples, return_counts=True)
            vals = np.array([pure_bound(u / k, s)[0] for u in uniq])
            vals /= bound_at_zero(s)
            mc_mean = np.dot(counts, vals) / counts.sum()
            mc_var = np.dot(counts, vals**2) / counts.sum() - mc_mean**2
            se = np.sqrt(mc_var / counts.sum())
            assert abs(mean - mc_mean) <= 3 * se


def test_mean_bounded_and_decreasing():
    means = [normalized_bound_stats(-1, n_avg, 100)[0]
             for n_avg in (0, 0.5, 1, 2)]
    assert all(m <= 1 + 1e-12 for m in means)
    assert all(x > y for x, y in zip(means, means[1:]))


def test_jensen_direction():
    # convexity puts the Poisson average above the bound at the mean count
    k = 100
    for s in [0, -1, -2]:
        for n_avg in [0.5, 1.0, 2.0]:
            mean, _ = normalized_bound_stats(s, n_avg, k)
            at_mean = pure_bound(n_avg, s)[0] / bound_at_zero(s)
            assert mean >= at_mean - 1e-10


def test_std_shrinks_with_trials():
    stds = [normalized_bound_stats(-1, 1.0, k)[1]
            for k in (10, 100, 1000, 10_000)]
    assert all(x > y for x, y in zip(stds, stds[1:]))
    assert stds[-1] < 0.01


def test_comparable_spread_across_s():
    _, std1 = normalized_bound_stats(-1, 1.0, 100)
    _, std2 = normalized_bound_stats(-2, 1.0, 100)
    ratio = std1 / std2
    assert 1 / 3 <= ratio <= 3


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize",
                                    "scipy.special"])
def test_import_leaves_scipy_stats_unloaded(module):
    code = f"import sys, qng.cli; print({module!r} in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


NO_SCIPY_RUN = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())

from qng import (ChannelSpec, StateFamily, apply_loss, delta_a,
                 epsilon_threshold, make_fock, witness_at_loss)
import qng.cli

state = apply_loss(make_fock(1, cutoff=40), ChannelSpec(epsilon=0.5))
assert delta_a(state, s=0).conclusive
epsilon_threshold(StateFamily("fock", 2), s=0, criterion="a", tol=1e-5)
witness_at_loss(StateFamily("pac", 2.0), s=-1, epsilon=0.95, criterion="b")
for argv in (
        "bound-curve --s -1 --n-max 5 --step 0.1",
        "threshold --family fock --m 1..5 --s 0,-0.5,-1,-2 --criterion a",
        "threshold --family pss --r 0.5 --s -1 --criterion b --tol 1e-3",
        "witness-curve --family pac --alpha 2 --s -1 --eps 0..0.99 "
        "--eps-step 0.01",
        "error-bars --s 0,-1 --n-avg 0..2 --step 0.25 --k 100"):
    assert qng.cli.main(argv.split()) == 0, argv
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_readme_runs_without_scipy():
    # the README quick start and CLI commands with scipy made unimportable
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_package_imports_no_scipy():
    pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
    for path in sorted((SRC / "qng").glob("*.py")):
        assert not pattern.search(path.read_text()), path.name


@pytest.mark.parametrize("k", [1, 7, 100, 1000])
def test_matches_scipy_stats_poisson(k):
    from scipy.special import gammaln
    from scipy.stats import poisson

    for s in [0, -1]:
        scale = bound_at_zero(s)
        for n_avg in [1e-6, 0.01, 0.25, 1.0, 2.5]:
            lam = k * n_avg
            counts = np.arange(int(poisson.ppf(POISSON_MASS, lam)) + 1)
            pmf = poisson.pmf(counts, lam)
            weights = _poisson_weights(lam)
            assert len(weights) == len(counts)
            # both take exp(c log lam - log c! - lam), and log c! differs
            # between math.lgamma and scipy's gammaln by an ulp or two of
            # the largest term: 1e-14 relative while those terms are O(1)
            terms = lam + counts * abs(np.log(lam)) + gammaln(counts + 1)
            rel = 1e-14 + 8 * np.finfo(float).eps * terms
            kept = pmf > 0
            assert np.all(np.abs(weights[kept] / pmf[kept] - 1) <= rel[kept])
            assert np.all(weights[~kept] < 1e-300)
            values = np.array([_minimized_bound(c / k, s)[0]
                               for c in counts]) / scale
            mean = np.dot(pmf, values) / pmf.sum()
            std = np.sqrt(np.dot(pmf, (values - mean) ** 2) / pmf.sum())
            got_mean, got_std = normalized_bound_stats(s, n_avg, k)
            # weights known to rel shift the mean by at most 2 rel std and
            # the std by at most rel std
            spread = rel[kept].max() * std
            assert abs(got_mean - mean) <= 1e-13 * abs(mean) + 2 * spread
            assert abs(got_std - std) <= 1e-13 * std + spread


@pytest.mark.parametrize("n_avg,k", [(1.0, 10**7), (1e12, 100), (2e4, 50)],
                         ids=["huge-k", "nan-quantile", "huge-n-avg"])
def test_poisson_support_capped(monkeypatch, n_avg, k):
    # refused before the counts are built or any bound is evaluated
    def no_bound(*args):
        raise AssertionError("pure_bound called past the support cap")

    monkeypatch.setattr(qng.error_model, "_minimized_bound", no_bound)
    with pytest.raises(ValueError, match=str(MAX_GRID_POINTS)):
        normalized_bound_stats(-1, n_avg, k)


def _oracle_stats(mp, s, lam, tail):
    """Mean and std of the normalized bound at 50 digits over the Poisson
    counts 0..n_hi, n_hi >= 1 the first count whose upper tail is at most
    tail; the bound values are the same floats as the library's."""
    lam_mp = mp.mpf(lam)
    pmf = [mp.exp(-lam_mp)]
    upper = 1 - pmf[0]
    while upper > tail or len(pmf) < 2:
        pmf.append(pmf[-1] * lam_mp / len(pmf))
        upper -= pmf[-1]
    scale = bound_at_zero(s)
    values = [mp.mpf(_minimized_bound(c, s)[0]) / mp.mpf(scale)
              for c in range(len(pmf))]
    total = mp.fsum(pmf)
    mean = mp.fsum(w * v for w, v in zip(pmf, values)) / total
    std = mp.sqrt(mp.fsum(w * (v - mean) ** 2
                          for w, v in zip(pmf, values)) / total)
    return len(pmf), mean, std


@pytest.mark.parametrize("lam", [1e-16, 1e-14, 1e-12, 1e-6, 0.25, 25.0])
@pytest.mark.parametrize("s", [0, -1])
def test_matches_50_digit_oracle(s, lam):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    size, mean, std = _oracle_stats(mp, s, lam, mp.mpf(1.0 - POISSON_MASS))
    assert len(_poisson_weights(lam)) == size
    got_mean, got_std = normalized_bound_stats(s, lam, 1)
    assert abs(got_mean - mean) <= 1e-12 * abs(mean)
    assert abs(got_std - std) <= 1e-12 * std


@pytest.mark.parametrize("s", [0, -1])
def test_tiny_mean_keeps_first_order_std(s):
    # at k n_avg = 1e-14 all but 1e-14 of the mass is at count 0, but the
    # std comes from count 1: about 7.07e-8 at s = -1, not 0
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    _, mean, std = _oracle_stats(mp, s, 1e-14, mp.mpf("1e-45"))  # untruncated
    got_mean, got_std = normalized_bound_stats(s, 1e-14, 1)
    assert abs(got_mean - mean) <= 1e-12 * abs(mean)
    assert abs(got_std - std) <= 1e-12 * std
    if s == -1:
        assert got_std == pytest.approx(7.07e-8, rel=1e-3)


def test_refusal_edge_matches_scipy(monkeypatch):
    # scipy's quantile crosses MAX_GRID_POINTS at lam_star; 10 either side
    # moves the tail at that count by about 7%, far past either's roundoff
    from scipy.stats import poisson

    def n_hi(lam):
        return int(poisson.ppf(POISSON_MASS, lam))

    lo, hi = MAX_GRID_POINTS - 10_000.0, float(MAX_GRID_POINTS)
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if n_hi(mid) < MAX_GRID_POINTS else (lo, mid)
    below, above = lo - 10, hi + 10
    assert n_hi(below) < MAX_GRID_POINTS <= n_hi(above)

    flat = bound_at_zero(-1)
    monkeypatch.setattr(qng.error_model, "_minimized_bound",
                        lambda n, s: (flat, 0.0))
    assert len(_poisson_weights(below)) == n_hi(below) + 1
    mean, std = normalized_bound_stats(-1, below, 1)
    assert mean == pytest.approx(1.0, abs=1e-12) and std < 1e-12
    with pytest.raises(ValueError, match=str(MAX_GRID_POINTS)):
        normalized_bound_stats(-1, above, 1)
