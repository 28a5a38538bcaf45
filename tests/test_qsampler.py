"""Mass-biased path sampler: replay, determinism, invariants, weights."""

import numpy as np
import pytest

from percolab import (
    LazyTree,
    MissingParameterError,
    PercolationConfig,
    RejectionLimitError,
    Word,
    dimension,
    expand_occupancy,
    mass_grid,
)
from percolab.holes import restricted_max_empty_block
from percolab.percolation import STREAM_PATH
from percolab.qsampler import (
    ReplicaView,
    ensemble_view,
    importance_functional,
    replica_config,
    sample_qpath,
    sample_step,
    _pick_child,
)
from percolab.rng import child_key, substream, unit_draw


def test_pick_child_threshold_layout():
    counts = np.array([3, 1, 0, 4])
    # cumulative thresholds at 3, 4, 4, 8 over u * 8
    assert _pick_child(counts, 0.0) == 0
    assert _pick_child(counts, 3 / 8 - 1e-12) == 0
    assert _pick_child(counts, 3 / 8 + 1e-12) == 1
    assert _pick_child(counts, 0.5 + 1e-12) == 3  # dead child 2 is unreachable
    assert _pick_child(counts, 1.0 - 1e-12) == 3


def test_pick_child_dead_total_raises():
    from percolab.errors import DeadSubtreeError

    with pytest.raises(DeadSubtreeError):
        _pick_child(np.array([0, 0, 0, 0]), 0.5)


def test_sample_step_uses_descendant_counts():
    cfg = PercolationConfig(2, 2, 0.8, seed=15)
    t = LazyTree(cfg)
    root = Word.root(2, 2)
    levels = t.expand_retained(root, 4)
    counts = levels[4].reshape(4, -1).sum(axis=1)
    total = counts.sum()
    # u placed in the middle of child c's band must select c
    cum = np.cumsum(counts)
    for c in range(4):
        if counts[c] == 0:
            continue
        u = (cum[c] - counts[c] / 2) / total
        assert sample_step(t, root, 3, float(u)) == c


def test_path_walk_replays_by_hand():
    """Reconstruct the sampled digits with raw RNG primitives."""
    cfg = PercolationConfig(2, 2, 0.85, seed=33)
    n, r, g = 3, 2, 3
    path = sample_qpath(cfg, n=n, r=r, g=g, alpha_grid=(0.5,), eps_grid=(), replica=2)
    tcfg = replica_config(cfg, 2, attempt=path.attempts - 1)
    assert path.tree_config == tcfg
    tree = LazyTree(tcfg)
    key = substream(tcfg.seed, STREAM_PATH)
    word = Word.root(2, 2)
    digits = []
    for step in range(n + r):
        u = unit_draw(child_key(key, step))
        digit = sample_step(tree, word, g, u)
        digits.append(digit)
        word = word.child(digit)
    assert tuple(digits) == path.digits


def test_sample_qpath_deterministic():
    cfg = PercolationConfig(2, 2, 0.8, seed=1)
    a = sample_qpath(cfg, n=4, r=3, g=3, replica=5)
    b = sample_qpath(cfg, n=4, r=3, g=3, replica=5)
    assert a.digits == b.digits
    assert np.array_equal(a.x_hat, b.x_hat)
    assert np.array_equal(a.a_star, b.a_star)
    assert np.array_equal(a.meas_por, b.meas_por)
    c = sample_qpath(cfg, n=4, r=3, g=3, replica=6)
    assert c.digits != a.digits or not np.array_equal(c.x_hat, a.x_hat)


def test_rejection_limit_raises_with_stats():
    cfg = PercolationConfig(2, 2, 0.3, seed=0)  # barely supercritical
    with pytest.raises(RejectionLimitError) as err:
        sample_qpath(cfg, n=30, r=3, g=6, replica=0, max_attempts=2)
    assert err.value.attempts == 2


def test_recorded_grids_match_fresh_expansion():
    cfg = PercolationConfig(2, 2, 0.8, seed=44)
    n, r, g = 5, 4, 3
    path = sample_qpath(cfg, n=n, r=r, g=g, replica=0)
    tree = LazyTree(path.tree_config)
    d = dimension(cfg)
    side = 2**r
    for j in range(1, n + 1):
        word = Word(2, 2, path.digits[:j])
        occ = expand_occupancy(tree, word, r, g)
        # center cell is the path's continuation and must be alive
        center = tuple(path.centers[j - 1])
        assert occ.cells[center]
        # recorded block statistics agree with a fresh computation
        from percolab.holes import max_empty_block, window_min_sweep

        assert path.a_star[j - 1] == max_empty_block(occ.cells)
        # the center being occupied makes the restricted statistic equal
        assert path.restricted_a_star[j - 1] == path.a_star[j - 1]
        assert path.a_star[j - 1] < side  # grid is never fully empty
        grid = mass_grid(tree, word, r, g)
        assert path.total_mass[j - 1] == pytest.approx(grid.total, rel=1e-12)
        assert np.allclose(path.window_sweep[j - 1], window_min_sweep(grid.cells))


@pytest.mark.parametrize("m,p,r,g", [(2, 0.8, 3, 0), (2, 0.6, 4, 2), (3, 0.5, 2, 1)])
def test_recorded_restricted_block_needs_no_forcing(m, p, r, g):
    """Every recorded center cell is occupied, so forcing it changes no block.

    The descent only enters children alive g levels down, so the path's own
    cell is never empty; the recorded restricted statistic (copied from
    a_star) must match the forced-center reference on every scale.
    """
    cfg = PercolationConfig(m, 2, p, seed=3)
    for replica in range(3):
        path = sample_qpath(cfg, n=6, r=r, g=g, alpha_grid=(0.5,), eps_grid=(), replica=replica)
        tree = LazyTree(path.tree_config)
        for j in range(path.n):
            occ = expand_occupancy(tree, Word(m, 2, path.digits[: j + 1]), r, g)
            reference = restricted_max_empty_block(occ.cells, path.centers[j])
            assert path.restricted_a_star[j] == path.a_star[j] == reference


def test_path_weight_is_root_estimate():
    cfg = PercolationConfig(2, 2, 0.8, seed=19)
    g = 4
    path = sample_qpath(cfg, n=3, r=3, g=g, replica=1)
    tree = LazyTree(path.tree_config)
    d = dimension(cfg)
    count = tree.count_profile(Word.root(2, 2), g)[g]
    assert path.weight == pytest.approx(count * 2.0 ** (-g * d), rel=1e-12)


def test_qpath_accessors_match_grid_columns():
    cfg = PercolationConfig(2, 2, 0.8, seed=3)
    alphas, epss = (0.25, 0.5), (1e-2, 1e-1)
    path = sample_qpath(cfg, n=4, r=4, g=3, alpha_grid=alphas, eps_grid=epss, replica=0)
    assert np.array_equal(path.set_hole_lower(0.25), path.lower[:, 0])
    assert np.array_equal(path.set_hole_upper(0.5), path.upper[:, 1])
    assert np.array_equal(path.measure_hole(0.5, 1e-1), path.measure_ind[:, 1, 1])
    assert np.array_equal(path.measure_porosity(1e-2), path.meas_por[:, 0])
    # off-grid parameters are either recomputed (..._at) or rejected
    assert np.array_equal(path.lower_at(0.25), path.lower[:, 0])
    assert np.array_equal(path.upper_at(0.5), path.upper[:, 1])
    assert np.array_equal(path.measure_hole_at(0.5, 1e-1), path.measure_ind[:, 1, 1])
    with pytest.raises(MissingParameterError):
        path.set_hole_lower(0.33)
    with pytest.raises(MissingParameterError):
        path.measure_porosity(5e-3)
    with pytest.raises(ValueError):
        path.measure_hole_at(1.5, 1e-2)


def test_path_indicator_structure():
    cfg = PercolationConfig(2, 2, 0.8, seed=8)
    alphas = tuple(0.05 * t for t in range(1, 20)) + (1.0,)
    path = sample_qpath(cfg, n=6, r=4, g=3, alpha_grid=alphas, eps_grid=(1e-3,), replica=0)
    assert np.all(path.lower <= path.upper)
    assert np.all(np.diff(path.lower.astype(np.int8), axis=1) <= 0)
    assert np.all(np.diff(path.upper.astype(np.int8), axis=1) <= 0)
    # certified set holes imply measure holes at every eps
    assert np.all(path.lower[:, :, None] <= path.measure_ind)


def test_p_one_walk_visits_uniformly_and_sees_no_holes():
    cfg = PercolationConfig(2, 2, 1.0, seed=0)
    path = sample_qpath(cfg, n=3, r=4, g=2, alpha_grid=(0.25, 1.0), eps_grid=(1e-2,), replica=0)
    assert np.array_equal(path.a_star, np.zeros(3, dtype=np.int64))
    assert np.all(path.lower == 0) and np.all(path.upper == 0)
    assert np.all(path.measure_ind == 0)
    assert np.all(path.set_por == 0.0)
    assert path.weight == pytest.approx(1.0)
    assert np.allclose(path.x_hat, 1.0)


def test_replica_view_consistency():
    cfg = PercolationConfig(2, 2, 0.8, seed=77)
    view = ensemble_view(cfg, r=3, g=3, replica=4)
    d = dimension(cfg)
    assert view.word_weights.shape == (64,)
    assert view.word_weights.sum() == pytest.approx(
        view.counts.sum() * 2.0 ** (-(3 + 3) * d)
    )
    occ = view.occupancy
    assert np.array_equal(occ.cells.reshape(-1), (view.counts > 0)[_perm_inv(3)])
    assert np.array_equal(view.mass.cells > 0, occ.cells)
    from percolab.holes import max_empty_block

    assert view.a_star == max_empty_block(occ.cells)


def _perm_inv(r):
    # identity helper: occupancy cells come from grid_from_digit_order(counts)
    from percolab.percolation import grid_from_digit_order

    idx = grid_from_digit_order(np.arange(4**r), 2, 2, r).reshape(-1)
    return idx


def test_importance_functional_unit_mean():
    cfg = PercolationConfig(2, 2, 0.8, seed=101)
    est_word = importance_functional(
        cfg, r=3, g=3, replicas=400, f=lambda v: np.ones(64), mode="word"
    )
    assert abs(est_word.estimate - 1.0) < 4 * est_word.se
    est_global = importance_functional(
        cfg, r=3, g=3, replicas=400, f=lambda v: 1.0, mode="global"
    )
    assert abs(est_global.estimate - 1.0) < 4 * est_global.se


def test_importance_functional_validates():
    cfg = PercolationConfig(2, 2, 0.8, seed=0)
    with pytest.raises(ValueError):
        importance_functional(cfg, 2, 2, replicas=1, f=lambda v: 1.0, mode="global")
    with pytest.raises(ValueError):
        importance_functional(cfg, 2, 2, replicas=4, f=lambda v: 1.0, mode="nope")
    with pytest.raises(ValueError):
        importance_functional(
            cfg, 2, 2, replicas=4, f=lambda v: np.ones(3), mode="word"
        )
