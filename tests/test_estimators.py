"""Series, ensemble estimates, covariance probes, extremes."""

import math

import numpy as np
import pytest

from percolab import (
    PercolationConfig,
    covariance_experiment,
    covariance_from_paths,
    discrepancy_rate,
    ensemble_mean_porosity,
    path_average_bracket,
    porosity_extremes,
    running_mean,
    sample_qpath,
)
from percolab.estimators import ensemble_from_sweep
from percolab.experiments import ensemble_sweep_parallel
from percolab.qsampler import WeightedMean


def test_running_mean_basics():
    assert np.allclose(running_mean([1, 0, 1, 1]), [1, 0.5, 2 / 3, 0.75])
    assert running_mean(np.zeros(5)).tolist() == [0] * 5


def _paths(n_paths=6, n=8, seed=2, p=0.8, r=4, g=3, epss=(1e-2,)):
    cfg = PercolationConfig(2, 2, p, seed=seed)
    return [sample_qpath(cfg, n=n, r=r, g=g, eps_grid=epss, replica=i) for i in range(n_paths)]


def test_mean_porosity_series_structure():
    # the running hole frequencies N_i / i of one path, as a bracket pair
    path = _paths(n_paths=1)[0]
    lower = running_mean(path.set_hole_lower(0.25))
    upper = running_mean(path.set_hole_upper(0.25))
    assert lower.shape == upper.shape == (path.n,)
    assert np.all(lower <= upper + 1e-15)
    assert lower[-1] * path.n == pytest.approx(path.set_hole_lower(0.25).sum())
    measure = running_mean(path.measure_hole(0.25, 1e-2))
    assert measure.shape == (path.n,)


def test_series_values_are_frequencies():
    path = _paths(n_paths=1)[0]
    for series in (path.set_hole_lower(0.5), path.set_hole_upper(0.5)):
        s = running_mean(series)
        assert np.all((0 <= s) & (s <= 1))


def test_ensemble_bracket_order_and_interval():
    cfg = PercolationConfig(2, 2, 0.8, seed=5)
    lower, upper = ensemble_mean_porosity(cfg, 0.5, r=4, g=3, replicas=300)
    assert lower.estimate <= upper.estimate + 1e-12
    assert lower.kind == upper.kind == "importance-weighted"
    assert lower.replicas == 300
    assert lower.ci_low <= upper.ci_high


def test_ensemble_shared_sweep_consistency():
    cfg = PercolationConfig(2, 2, 0.8, seed=5)
    weights, blocks = ensemble_sweep_parallel(cfg, r=4, g=3, replicas=100)
    pairs = ensemble_from_sweep(cfg, (0.25, 0.5, 1.0), 4, 3, weights, blocks)
    single = ensemble_mean_porosity(cfg, 0.5, r=4, g=3, replicas=100)
    assert pairs[1][0].estimate == pytest.approx(single[0].estimate)
    assert pairs[1][1].estimate == pytest.approx(single[1].estimate)
    # alpha = 1 lower estimate collapses to exactly zero: a full-side empty
    # block forces a zero deep weight
    assert pairs[2][0].estimate == 0.0 and pairs[2][0].se == 0.0


def test_ensemble_estimates_monotone_in_alpha():
    cfg = PercolationConfig(2, 2, 0.8, seed=9)
    weights, blocks = ensemble_sweep_parallel(cfg, r=4, g=3, replicas=200)
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    pairs = ensemble_from_sweep(cfg, alphas, 4, 3, weights, blocks)
    lows = [lo.estimate for lo, _ in pairs]
    ups = [up.estimate for _, up in pairs]
    assert all(a >= b - 1e-12 for a, b in zip(lows, lows[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(ups, ups[1:]))
    for i in range(len(alphas)):
        for j in range(i, len(alphas)):
            assert pairs[j][0].estimate <= pairs[i][1].estimate + 1e-12


def test_p_one_ensemble_all_zero_above_one_cell():
    cfg = PercolationConfig(2, 2, 1.0, seed=0)
    lower, upper = ensemble_mean_porosity(cfg, 0.25, r=4, g=2, replicas=50)
    assert lower.estimate == 0.0 and upper.estimate == 0.0


def test_path_average_bracket():
    paths = _paths()
    lower, upper = path_average_bracket(paths, 0.25)
    assert lower.kind == upper.kind == "path-average"
    assert lower.estimate <= upper.estimate + 1e-12
    assert lower.replicas == len(paths)
    finals = [running_mean(p.set_hole_lower(0.25))[-1] for p in paths]
    assert lower.estimate == pytest.approx(float(np.mean(finals)))


def test_covariance_lag_zero_is_bernoulli_variance():
    paths = _paths(n_paths=40, n=2, epss=())
    est = covariance_from_paths(paths, 0.5, 0)
    q = est.mean_first
    assert est.covariance == pytest.approx(q * (1 - q), rel=1e-12)
    assert est.mean_second == q


def test_covariance_validation():
    paths = _paths(n_paths=3, n=2, epss=())
    with pytest.raises(ValueError):
        covariance_from_paths(paths, 0.5, -1)
    with pytest.raises(ValueError):
        covariance_from_paths(paths, 0.5, 5)  # paths record only 2 scales


def test_covariance_probe_end_to_end():
    cfg = PercolationConfig(2, 2, 0.8, seed=77)
    (est,) = covariance_experiment(cfg, alpha=0.5, r=3, g=3, lags=(1,), replicas=30)
    assert est.replicas == 30
    assert est.lag == 1 and est.r == 3
    assert est.ci_low <= est.covariance <= est.ci_high


def test_discrepancy_rate_running_mean():
    path = _paths(n_paths=1, epss=(1e-3,))[0]
    rate = discrepancy_rate(path, 0.3, 1e-3, 0.1)
    assert np.allclose(rate, running_mean(path.discrepancy(0.3, 1e-3, 0.1)))
    assert np.all((0 <= rate) & (rate <= 1))


def test_porosity_extremes_structure():
    path = _paths(n_paths=1, n=12)[0]
    ext = porosity_extremes(path)
    assert np.all(np.diff(ext.set_min) <= 0)
    assert np.all(np.diff(ext.set_max) >= 0)
    assert np.all(np.diff(ext.meas_max, axis=0) >= 0)
    assert ext.set_min[-1] == path.set_por.min()
    assert ext.set_max[-1] == path.set_por.max()
    # structural cap: a <= R + 1 once the center is forced occupied
    assert np.all(ext.set_max <= 0.5 + 2.0**-path.r + 1e-12)
    lo, hi = ext.for_eps(1e-2)
    assert np.array_equal(hi, ext.meas_max[:, 0])


def test_weighted_mean_from_values():
    rng = np.random.default_rng(0)
    values = rng.normal(2.0, 1.0, size=500)
    wm = WeightedMean.from_values(values)
    assert wm.estimate == pytest.approx(values.mean())
    assert wm.se == pytest.approx(values.std(ddof=1) / math.sqrt(500))
    assert wm.ci_low < wm.estimate < wm.ci_high
    assert wm.replicas == 500


def test_ci_width_shrinks_as_root_n():
    rng = np.random.default_rng(3)
    values = rng.normal(0.0, 1.0, size=4096)
    ns = [256, 1024, 4096]
    widths = [
        WeightedMean.from_values(values[:n]).ci_high
        - WeightedMean.from_values(values[:n]).ci_low
        for n in ns
    ]
    slopes = np.polyfit(np.log(ns), np.log(widths), 1)
    assert slopes[0] == pytest.approx(-0.5, abs=0.1)
