import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qng
import qng.error_model
from qng.bounds import MAX_GRID_POINTS, bound_at_zero, pure_bound
from qng.error_model import (POISSON_MASS, BoundErrorRow, ErrorSpec,
                             bound_error_curve, normalized_bound_stats)


def test_spec_validation():
    with pytest.raises(ValueError):
        ErrorSpec(k=0, n_avg_grid=[0.0], s_list=[-1])
    with pytest.raises(ValueError):
        ErrorSpec(k=10, n_avg_grid=[1.0, 0.5], s_list=[-1])


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
    rows = bound_error_curve(ErrorSpec(k=100, n_avg_grid=[0, 0.5, 1, 2],
                                       s_list=[-1]))
    means = [r.mean for r in rows]
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


def test_curve_rows_structure():
    rows = bound_error_curve(ErrorSpec(k=50, n_avg_grid=[0, 1],
                                       s_list=[0, -1]))
    assert len(rows) == 4
    assert isinstance(rows[0], BoundErrorRow)
    assert rows[0].n_avg == 0 and rows[0].mean == 1.0


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, qng.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(qng.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("k", [1, 7, 100, 1000])
def test_matches_scipy_stats_poisson(k):
    from scipy.stats import poisson

    for s in [0, -1]:
        scale = bound_at_zero(s)
        for n_avg in [1e-6, 0.01, 0.25, 1.0, 2.5]:
            lam = k * n_avg
            counts = np.arange(int(poisson.ppf(POISSON_MASS, lam)) + 1)
            weights = poisson.pmf(counts, lam)
            values = np.array([pure_bound(c / k, s)[0] for c in counts]) / scale
            mean = float(np.dot(weights, values) / weights.sum())
            second = float(np.dot(weights, values**2) / weights.sum())
            std = float(np.sqrt(max(second - mean**2, 0.0)))
            assert normalized_bound_stats(s, n_avg, k) == (mean, std)


@pytest.mark.parametrize("n_avg,k", [(1.0, 10**7), (1e12, 100), (2e4, 50)],
                         ids=["huge-k", "nan-quantile", "huge-n-avg"])
def test_poisson_support_capped(monkeypatch, n_avg, k):
    # refused before the counts are built or any bound is evaluated
    def no_bound(*args):
        raise AssertionError("pure_bound called past the support cap")

    monkeypatch.setattr(qng.error_model, "pure_bound", no_bound)
    with pytest.raises(ValueError, match=str(MAX_GRID_POINTS)):
        normalized_bound_stats(-1, n_avg, k)
