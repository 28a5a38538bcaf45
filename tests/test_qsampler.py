"""Mass-biased path sampler: replay, determinism, invariants, weights."""

import numpy as np
import pytest

from percolab import (
    LazyTree,
    PercolationConfig,
    RejectionLimitError,
    Word,
    dimension,
    x_estimate,
)
from percolab.holes import restricted_max_empty_block
from percolab.percolation import (
    STREAM_ENSEMBLE,
    STREAM_PATH,
    descendant_counts,
    grid_from_digit_order,
)
from percolab.qsampler import (
    ReplicaView,
    ensemble_config,
    ensemble_view,
    importance_functional,
    replica_config,
    sample_qpath,
    sample_step,
)
from percolab.rng import child_key, substream, unit_draw

from helpers import brute_min_window_sum, hole_bracket


def test_sample_step_threshold_layout():
    counts = np.array([3, 1, 0, 4])
    # cumulative thresholds at 3, 4, 4, 8 over u * 8
    assert sample_step(counts, 0.0) == 0
    assert sample_step(counts, 3 / 8 - 1e-12) == 0
    assert sample_step(counts, 3 / 8 + 1e-12) == 1
    assert sample_step(counts, 0.5 + 1e-12) == 3  # dead child 2 is unreachable
    assert sample_step(counts, 1.0 - 1e-12) == 3


def test_sample_step_dead_total_raises():
    from percolab.errors import DeadSubtreeError

    with pytest.raises(DeadSubtreeError):
        sample_step(np.array([0, 0, 0, 0]), 0.5)


def test_sample_step_uses_descendant_counts():
    cfg = PercolationConfig(2, 2, 0.8, seed=15)
    t = LazyTree(cfg)
    root = Word.root(2, 2)
    counts = descendant_counts(t, root, 1, 3)
    assert counts.tolist() == [t.count_profile(root.child(c), 3)[3] for c in range(4)]
    total = counts.sum()
    # u placed in the middle of child c's band must select c
    cum = np.cumsum(counts)
    for c in range(4):
        if counts[c] == 0:
            continue
        u = (cum[c] - counts[c] / 2) / total
        assert sample_step(counts, float(u)) == c


@pytest.mark.parametrize(
    "m,k,r,g",
    [(2, 2, 2, 3), (2, 2, 1, 0), (2, 2, 1, 3), (1, 3, 3, 2), (2, 3, 1, 2), (3, 2, 2, 1)],
)
def test_path_walk_replays_by_hand(m, k, r, g):
    """Reconstruct the digits with raw RNG primitives and a per-word walk.

    The oracle expands every visited word on its own, one level plus the
    probe below it; the sampler reads the same counts off its scale grids.
    """
    cfg = PercolationConfig(m, k, 0.85, seed=33)
    n = 4
    path = sample_qpath(cfg, n=n, r=r, g=g, eps_grid=(), replica=2)
    tcfg = replica_config(cfg, 2, attempt=path.attempts - 1)
    assert path.tree_config == tcfg
    tree = LazyTree(tcfg)
    key = substream(tcfg.seed, STREAM_PATH)
    word = Word.root(m, k)
    digits = []
    for step in range(n + r):
        u = unit_draw(child_key(key, step))
        digit = sample_step(descendant_counts(tree, word, 1, g), u)
        digits.append(digit)
        word = word.child(digit)
    assert tuple(digits) == path.digits
    for j in range(1, n + 1):
        assert path.x_hat[j - 1] == x_estimate(tree, Word(m, k, path.digits[:j]), g)


def test_accepted_path_expands_each_word_once(monkeypatch):
    # r one-level steps, one grid per scale that also drives a step, and
    # the root weight: n + r + 1 expansions when the first attempt survives
    calls = []
    expand = LazyTree.expand_retained

    def counted(self, word, depth):
        calls.append((word.level, depth))
        return expand(self, word, depth)

    monkeypatch.setattr(LazyTree, "expand_retained", counted)
    n, r, g = 5, 3, 2
    path = sample_qpath(PercolationConfig(2, 2, 1.0, seed=0), n=n, r=r, g=g)
    assert path.attempts == 1
    assert len(calls) == n + r + 1
    assert calls[:r] == [(i, 1 + g) for i in range(r)]
    assert calls[r:-1] == [(j, r + g) for j in range(1, n + 1)]
    assert calls[-1] == (0, g)


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
        counts = grid_from_digit_order(descendant_counts(tree, word, r, g), 2, 2, r)
        occ = counts > 0
        # center cell is the path's continuation and must be alive
        center = tuple(path.centers[j - 1])
        assert occ[center]
        # recorded block statistics agree with a fresh computation
        from percolab.holes import max_empty_block, window_min_sweep

        assert path.a_star[j - 1] == max_empty_block(occ)
        # the center being occupied makes the restricted statistic equal
        assert restricted_max_empty_block(occ, center) == path.a_star[j - 1]
        assert path.a_star[j - 1] < side  # grid is never fully empty
        # the grid total is the word's deeper martingale estimate, scaled
        total = 2.0 ** (-j * d) * x_estimate(tree, word, r + g)
        assert path.total_mass[j - 1] == pytest.approx(total, rel=1e-12)
        assert np.array_equal(path.window_sweep[j - 1], window_min_sweep(counts))


@pytest.mark.parametrize("m,p,r,g", [(2, 0.8, 3, 0), (2, 0.6, 4, 2), (3, 0.5, 2, 1)])
def test_recorded_restricted_block_needs_no_forcing(m, p, r, g):
    """Every recorded center cell is occupied, so forcing it changes no block.

    The descent only enters children alive g levels down, so the path's own
    cell is never empty; the recorded a_star, which the certified lower
    indicator reads, must match the forced-center reference on every scale.
    """
    cfg = PercolationConfig(m, 2, p, seed=3)
    for replica in range(3):
        path = sample_qpath(cfg, n=6, r=r, g=g, eps_grid=(), replica=replica)
        tree = LazyTree(path.tree_config)
        for j in range(path.n):
            counts = descendant_counts(tree, Word(m, 2, path.digits[: j + 1]), r, g)
            occ = grid_from_digit_order(counts, m, 2, r) > 0
            reference = restricted_max_empty_block(occ, path.centers[j])
            assert path.a_star[j] == reference


def test_path_weight_is_root_estimate():
    cfg = PercolationConfig(2, 2, 0.8, seed=19)
    g = 4
    path = sample_qpath(cfg, n=3, r=3, g=g, replica=1)
    tree = LazyTree(path.tree_config)
    d = dimension(cfg)
    count = tree.count_profile(Word.root(2, 2), g)[g]
    assert path.weight == pytest.approx(count * 2.0 ** (-g * d), rel=1e-12)


def test_qpath_accessors_match_oracles_off_grid():
    """Any alpha and eps, read off the recorded a* and sweep, match brute force.

    The parameters lie off every grid the path was sampled with, and the
    alphas (t + 1/2) / side reach every cell threshold 1..side; the oracles
    see only a fresh count grid of each scale and its center.
    """
    cfg = PercolationConfig(2, 2, 0.8, seed=3)
    r, g = 4, 3
    path = sample_qpath(cfg, n=4, r=r, g=g, eps_grid=(1e-1,), replica=0)
    tree = LazyTree(path.tree_config)
    grids = [
        grid_from_digit_order(descendant_counts(tree, Word(2, 2, path.digits[:j]), r, g), 2, 2, r)
        for j in range(1, path.n + 1)
    ]
    for alpha in (0.33,) + tuple((t + 0.5) / 2**r for t in range(2**r)):
        lower, upper = path.set_hole_lower(alpha), path.set_hole_upper(alpha)
        need = int(np.ceil(alpha * 2**r - 1e-9))
        for eps in (5e-3, 0.07, 0.3, 2.0):
            measure = path.measure_hole(alpha, eps)
            for j, grid in enumerate(grids):
                assert (lower[j], upper[j]) == hole_bracket(grid > 0, alpha, path.centers[j])
                light = brute_min_window_sum(grid, need) <= eps * grid.sum()
                assert measure[j] == int(light)
    # an eps sequence appends its axis
    sheet = path.measure_hole(0.33, (5e-3, 0.3))
    assert sheet.shape == (path.n, 2)
    assert np.array_equal(sheet[:, 1], path.measure_hole(0.33, 0.3))
    for bad in (0.0, -0.1, 1.5):
        for accessor in (path.set_hole_lower, path.set_hole_upper):
            with pytest.raises(ValueError):
                accessor(bad)
        with pytest.raises(ValueError):
            path.measure_hole(bad, 1e-2)


def test_path_indicator_structure():
    cfg = PercolationConfig(2, 2, 0.8, seed=8)
    alphas = tuple(0.05 * t for t in range(1, 20)) + (1.0,)
    path = sample_qpath(cfg, n=6, r=4, g=3, eps_grid=(1e-3,), replica=0)
    lower = np.stack([path.set_hole_lower(a) for a in alphas], axis=1)
    upper = np.stack([path.set_hole_upper(a) for a in alphas], axis=1)
    measure_ind = np.stack([path.measure_hole(a, path.eps_grid) for a in alphas], axis=1)
    assert np.all(lower <= upper)
    assert np.all(np.diff(lower.astype(np.int8), axis=1) <= 0)
    assert np.all(np.diff(upper.astype(np.int8), axis=1) <= 0)
    # certified set holes imply measure holes at every eps
    assert np.all(lower[:, :, None] <= measure_ind)


def test_p_one_walk_visits_uniformly_and_sees_no_holes():
    cfg = PercolationConfig(2, 2, 1.0, seed=0)
    path = sample_qpath(cfg, n=3, r=4, g=2, eps_grid=(1e-2,), replica=0)
    assert np.array_equal(path.a_star, np.zeros(3, dtype=np.int64))
    for alpha in (0.25, 1.0):
        assert np.all(path.set_hole_lower(alpha) == 0)
        assert np.all(path.set_hole_upper(alpha) == 0)
        assert np.all(path.measure_hole(alpha, 1e-2) == 0)
    assert np.all(path.set_por == 0.0)
    assert path.weight == pytest.approx(1.0)
    assert np.allclose(path.x_hat, 1.0)


def test_ensemble_config_is_the_plain_ensemble_stream():
    cfg = PercolationConfig(2, 2, 0.8, seed=77)
    for i in range(4):
        seed = ensemble_config(cfg, i).seed
        assert seed == substream(77, STREAM_ENSEMBLE, i)
        assert ensemble_view(cfg, r=2, g=1, replica=i).config.seed == seed
        assert seed != replica_config(cfg, i).seed  # disjoint from path replicas


def test_replica_view_consistency():
    cfg = PercolationConfig(2, 2, 0.8, seed=77)
    view = ensemble_view(cfg, r=3, g=3, replica=4)
    d = dimension(cfg)
    assert view.word_weights.shape == (64,)
    assert view.word_weights.sum() == pytest.approx(
        view.counts.sum() * 2.0 ** (-(3 + 3) * d)
    )
    assert view.grid.dtype == np.int64
    assert np.array_equal(view.grid.reshape(-1), view.counts[_perm_inv(3)])
    from percolab.holes import max_empty_block

    assert view.a_star == max_empty_block(view.grid > 0)


def _perm_inv(r):
    # identity helper: grid cells come from grid_from_digit_order(counts)
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
