"""Batch drivers: worker-count invariance, partial batches, diagnostics."""

import pickle

import numpy as np
import pytest

from percolab import (
    LazyTree,
    MemoryBudgetError,
    PercolationConfig,
    RejectionLimitError,
    dimension,
    dimension_slope,
    run_path_batch_partial,
    sample_qpath,
    slice_decay,
)
from percolab.experiments import _slice_worker, ensemble_sweep_parallel
from percolab.percolation import descendant_counts, grid_from_digit_order
from percolab.qsampler import ensemble_config, ensemble_view


def _same_paths(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.digits == pb.digits
        assert pa.tree_config == pb.tree_config
        assert np.array_equal(pa.x_hat, pb.x_hat)
        assert np.array_equal(pa.a_star, pb.a_star)
        assert np.array_equal(pa.window_sweep, pb.window_sweep)
        assert np.array_equal(pa.ball_sweep, pb.ball_sweep)
        assert np.array_equal(pa.ball_count, pb.ball_count)


def test_path_batch_worker_count_invariant():
    cfg = PercolationConfig(2, 2, 0.8, seed=4)
    serial, err1 = run_path_batch_partial(cfg, paths=6, n=3, r=3, g=2, workers=1)
    pooled, err3 = run_path_batch_partial(cfg, paths=6, n=3, r=3, g=2, workers=3)
    assert err1 is None and err3 is None
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
            stacks.extend(args[3:] for args in argses)
            return map(fn, argses)

    stacks = []
    cfg = PercolationConfig(2, 2, 0.8, seed=4)
    monkeypatch.setattr(experiments, "Pool", SerialPool)
    # (r, workers, stacks): 64 x 64 grids stack at most 8 to a task, and a
    # stack holds at most a workers-th of the replicas, so at small r or many
    # workers every worker still gets a task
    cases = [
        (6, 2, [(0, 8), (8, 16), (16, 20)]),
        (6, 64, [(i, i + 1) for i in range(20)]),
        (2, 3, [(0, 7), (7, 14), (14, 20)]),
    ]
    for r, workers, expected in cases:
        serial = ensemble_sweep_parallel(cfg, r=r, g=1, replicas=20, workers=1)
        stacks.clear()
        pooled = ensemble_sweep_parallel(cfg, r=r, g=1, replicas=20, workers=workers)
        assert stacks == expected
        assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))
    assert requested == [2, 20, 3]


def test_path_batch_partial_success_is_complete():
    cfg = PercolationConfig(2, 2, 0.8, seed=4)
    full = [sample_qpath(cfg, n=2, r=3, g=2, replica=i) for i in range(5)]
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
    # (seed, r, g, replicas, workers): 40 replicas of 8 x 8 grids make three
    # stacks on three workers; 20 replicas of 64 x 64 grids make stacks of
    # 8, 8 and 4, the last partial, in process and on a pool
    for seed, r, g, replicas, workers in [(2, 3, 3, 40, 3), (6, 6, 2, 20, 1), (6, 6, 2, 20, 2)]:
        cfg = PercolationConfig(2, 2, 0.8, seed=seed)
        views = [ensemble_view(cfg, r, g, i) for i in range(replicas)]
        weights, blocks = ensemble_sweep_parallel(cfg, r=r, g=g, replicas=replicas, workers=workers)
        assert np.array_equal(weights, [float(v.word_weights.sum()) for v in views])
        assert np.array_equal(blocks, [v.a_star for v in views])
        assert blocks.dtype == np.int64
        assert len(set(blocks.tolist())) > 1  # the blocks tell the replicas apart


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


@pytest.mark.parametrize("depths", [(), (5,), (5, 5)])
def test_dimension_slope_refuses_fewer_than_two_depths(depths):
    with pytest.raises(ValueError, match="two or more distinct depths"):
        dimension_slope(PercolationConfig(1, 2, 0.6), depths=depths, trees=2)


def test_dimension_slope_refuses_depth_below_one():
    with pytest.raises(ValueError, match="depths must be >= 1"):
        dimension_slope(PercolationConfig(2, 2, 0.7), depths=(3, 0), trees=2)


@pytest.mark.parametrize("trees", [0, -1])
def test_dimension_slope_refuses_fewer_than_one_tree(trees):
    # refused before any profile: no mean of an empty slice, no failed fit
    with pytest.raises(ValueError, match="trees must be >= 1"):
        dimension_slope(PercolationConfig(2, 2, 0.7), depths=(2, 3), trees=trees, workers=2)


def test_dimension_slope_computes_no_unread_profile(monkeypatch):
    from percolab import experiments

    replicas = []
    worker = experiments._profile_worker

    def counted(args):
        replicas.append(args[2])
        return worker(args)

    monkeypatch.setattr(experiments, "_profile_worker", counted)
    cfg = PercolationConfig(2, 2, 0.4, seed=1)
    res = dimension_slope(cfg, depths=(2, 4, 6), trees=20)
    # every candidate computed is read, in replica order, and none past the last survivor
    assert replicas == list(range(res.candidates))


def test_dimension_slope_opens_one_pool(monkeypatch):
    from percolab import experiments

    built = []
    pool = experiments.Pool

    def counted(*args, **kwargs):
        built.append(kwargs.get("processes"))
        return pool(*args, **kwargs)

    cfg = PercolationConfig(2, 2, 0.3, seed=2)
    serial = dimension_slope(cfg, depths=(4, 8, 14), trees=100, workers=1)
    monkeypatch.setattr(experiments, "Pool", counted)
    pooled = dimension_slope(cfg, depths=(4, 8, 14), trees=100, workers=2)
    # low survival needs several blocks of candidates; all run on one pool
    assert serial.candidates > 2 * serial.trees
    assert built == [2]
    assert serial.slope == pooled.slope and serial.candidates == pooled.candidates
    assert np.array_equal(serial.mean_counts, pooled.mean_counts)
    assert np.array_equal(serial.log_means, pooled.log_means)


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


def test_slice_decay_without_survivors_raises():
    # no tree survives past depth 6 here: every slab fraction would be 0/0
    cfg = PercolationConfig(2, 2, 0.2, seed=0)
    with pytest.raises(RejectionLimitError, match="no tree of 2 survived at resolution 2$"):
        slice_decay(cfg, resolutions=(2, 4), trees=2, g=4)


@pytest.mark.parametrize(
    "error", [RejectionLimitError(2, "no luck"), RejectionLimitError(7), MemoryBudgetError(10, 5)]
)
def test_errors_survive_a_pickle_round_trip(error):
    # a pool worker's exception reaches the parent only through pickle
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error) and vars(back) == vars(error)


@pytest.mark.parametrize("m,axis,position", [(2, 1, 3), (3, 2, 1), (3, 1, 2)])
def test_slice_worker_reads_the_slab_on_its_axis(m, axis, position):
    # each slab count is the sum of the grid cells whose coordinate on
    # ``axis`` is ``position``, found cell by cell rather than by slicing
    cfg = PercolationConfig(m, 2, 0.8, seed=5)
    resolutions, g = (2, 3), 1
    for replica in range(4):
        rows = _slice_worker((cfg, resolutions, g, axis, position, replica))
        tree = LazyTree(ensemble_config(cfg, replica))
        for r, (total, slab) in zip(resolutions, rows):
            counts = descendant_counts(tree, (), r, g)
            grid = grid_from_digit_order(counts, m, 2, r)
            on_slab = np.indices(grid.shape)[axis] == position
            assert total == counts.sum()
            assert slab == grid[on_slab].sum()
