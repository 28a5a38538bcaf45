"""Batch drivers: worker-count invariance, partial batches, diagnostics."""

import pickle

import numpy as np
import pytest

from percolab import (
    MemoryBudgetError,
    PercolationConfig,
    RejectionLimitError,
    dimension,
    dimension_slope,
    run_path_batch,
    run_path_batch_partial,
    slice_decay,
)
from percolab.experiments import covariance_experiment, ensemble_sweep_parallel
from percolab.qsampler import ensemble_view


def _same_paths(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.digits == pb.digits
        assert pa.tree_config == pb.tree_config
        assert np.array_equal(pa.x_hat, pb.x_hat)
        assert np.array_equal(pa.a_star, pb.a_star)
        assert np.array_equal(pa.window_sweep, pb.window_sweep)
        assert np.array_equal(pa.meas_por, pb.meas_por)


def test_path_batch_worker_count_invariant():
    cfg = PercolationConfig(2, 2, 0.8, seed=4)
    serial = run_path_batch(cfg, paths=6, n=3, r=3, g=2, workers=1)
    pooled = run_path_batch(cfg, paths=6, n=3, r=3, g=2, workers=3)
    _same_paths(serial, pooled)
    assert [p.replica for p in serial] == list(range(6))


def test_pool_never_outnumbers_the_tasks(monkeypatch):
    from percolab import experiments

    requested = []

    class SerialPool:  # stands in for multiprocessing.Pool, starts no process
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, argses, chunksize=1):
            return map(fn, argses)

    cfg = PercolationConfig(2, 2, 0.8, seed=4)
    serial = ensemble_sweep_parallel(cfg, r=2, g=1, replicas=3, workers=1)
    monkeypatch.setattr(experiments, "Pool", SerialPool)
    pooled = ensemble_sweep_parallel(cfg, r=2, g=1, replicas=3, workers=64)
    assert requested == [3]
    assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))


def test_path_batch_partial_success_is_complete():
    cfg = PercolationConfig(2, 2, 0.8, seed=4)
    full = run_path_batch(cfg, paths=5, n=2, r=3, g=2)
    partial, err = run_path_batch_partial(cfg, paths=5, n=2, r=3, g=2)
    assert err is None
    _same_paths(full, partial)


def test_path_batch_partial_keeps_prefix_on_failure():
    cfg = PercolationConfig(2, 2, 0.3, seed=11)
    kept, err = run_path_batch_partial(
        cfg, paths=8, n=25, r=3, g=6, workers=1, max_attempts=2
    )
    assert isinstance(err, RejectionLimitError)
    assert len(kept) < 8
    assert [p.replica for p in kept] == list(range(len(kept)))


def test_ensemble_sweep_parallel_matches_serial():
    cfg = PercolationConfig(2, 2, 0.8, seed=2)
    views = [ensemble_view(cfg, 3, 3, i) for i in range(40)]
    w1 = np.array([float(v.word_weights.sum()) for v in views])
    b1 = np.array([v.a_star for v in views], dtype=np.int64)
    w2, b2 = ensemble_sweep_parallel(cfg, r=3, g=3, replicas=40, workers=3)
    assert np.array_equal(w1, w2)
    assert np.array_equal(b1, b2)


def test_covariance_experiment_orders_lags():
    cfg = PercolationConfig(2, 2, 0.8, seed=6)
    ests = covariance_experiment(
        cfg, alpha=0.5, r=3, g=2, lags=(2, 0, 2, 1), replicas=20, workers=1
    )
    assert [e.lag for e in ests] == [0, 1, 2]
    assert all(e.replicas == 20 for e in ests)


def test_dimension_slope_deterministic_across_workers():
    cfg = PercolationConfig(2, 2, 0.7, seed=1)
    a = dimension_slope(cfg, depths=(3, 4, 5, 6), trees=40, workers=1)
    b = dimension_slope(cfg, depths=(3, 4, 5, 6), trees=40, workers=3)
    assert a.slope == b.slope
    assert np.array_equal(a.mean_counts, b.mean_counts)
    assert a.candidates == b.candidates
    assert a.trees == 40
    # crude sanity at desk scale; the pinned check is in the acceptance suite
    assert abs(a.slope - a.dimension_value) < 0.3


def test_dimension_slope_survivors_only():
    cfg = PercolationConfig(2, 2, 0.7, seed=1)
    res = dimension_slope(cfg, depths=(3, 4, 5), trees=30)
    assert np.all(res.mean_counts > 0)
    assert res.candidates >= res.trees


def test_slice_decay_matches_exact_symmetry():
    """Any fixed slab position carries exactly k^-r of the mean mass.

    Relabeling the k child branches along the slab axis is a symmetry of
    the construction, so conditioned on survival the expected one-slab
    fraction is exactly k^-r -- a sharp oracle for the slab bookkeeping.
    """
    cfg = PercolationConfig(2, 2, 0.8, seed=3)
    res = slice_decay(cfg, resolutions=(2, 3), trees=400, g=2, workers=2)
    assert res.resolutions == (2, 3)
    for i, r in enumerate(res.resolutions):
        want = 2.0**-r
        assert abs(res.mean_fraction[i] - want) < 4 * res.se[i]
    assert res.surviving[0] > 300
    # ratio bookkeeping: observed vs heuristic-decay prediction
    d = dimension(cfg)
    assert res.theory_ratios[0] == pytest.approx(2.0 ** ((3 - 2) * (d - 1)))
    assert res.observed_ratios[0] == pytest.approx(
        res.mean_fraction[0] / res.mean_fraction[1]
    )


def test_slice_decay_position_and_axis_checked():
    cfg = PercolationConfig(2, 2, 0.8, seed=3)
    with pytest.raises(ValueError):
        slice_decay(cfg, resolutions=(2, 3), trees=10, axis=5)
    with pytest.raises(ValueError):
        slice_decay(cfg, resolutions=(2, 3), trees=10, position=100)


@pytest.mark.parametrize(
    "error", [RejectionLimitError(2, "no luck"), RejectionLimitError(7), MemoryBudgetError(10, 5)]
)
def test_errors_survive_a_pickle_round_trip(error):
    # a pool worker's exception reaches the parent only through pickle
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error) and vars(back) == vars(error)
