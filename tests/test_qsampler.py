"""Mass-biased path sampler: replay, determinism, invariants, weights."""

from itertools import product

import numpy as np
import pytest

from helpers import x_estimate
from percolab import (
    LazyTree,
    PercolationConfig,
    RejectionLimitError,
    dimension,
)
from percolab import qsampler, rng
from percolab.estimators import ensemble_from_sweep
from percolab.experiments import ensemble_sweep_parallel
from percolab.holes import (
    cells_threshold,
    max_empty_block,
    restricted_max_empty_block,
    window_min_sweep,
)
from percolab.percolation import (
    STREAM_ENSEMBLE,
    STREAM_PATH,
    cell_of_digits,
    descendant_counts,
    grid_from_digit_order,
    labels_fit,
)
from percolab.qsampler import (
    ensemble_config,
    ensemble_view,
    importance_functional,
    replica_config,
    sample_qpath,
    sample_step,
)
from percolab.rng import child_key, substream, unit_draw

from helpers import (
    ball_box_sweep,
    ball_measure_porosity,
    ball_set_porosity,
    brute_min_window_sum,
    hole_bracket,
)


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
    counts = descendant_counts(t, (), 1, 3)
    assert counts.tolist() == [t.count_profile((c,), 3)[3] for c in range(4)]
    total = counts.sum()
    # u placed in the middle of child c's band must select c
    cum = np.cumsum(counts)
    for c in range(4):
        if counts[c] == 0:
            continue
        u = (cum[c] - counts[c] / 2) / total
        assert sample_step(counts, float(u)) == c


def _assert_records_match_fresh(path):
    """Every scale record of ``path`` equals the one read off a fresh
    ``descendant_counts`` grid of that scale's word, one grid at a time: the
    path sweeps its scales in stacks, the check sweeps each grid alone and
    slices each ball's box out of it."""
    m, k, r, g = path.config.m, path.config.k, path.r, path.g
    tree = LazyTree(path.tree_config)
    for j in range(1, path.n + 1):
        cells = descendant_counts(tree, path.digits[:j], r, g)
        grid = grid_from_digit_order(cells, m, k, r)
        center = cell_of_digits(path.digits[j : j + r], m, k)
        sweep, count = ball_box_sweep(grid, center)
        assert path.centers[j - 1].tolist() == list(center)
        assert path.a_star[j - 1] == max_empty_block(grid)
        assert path.window_sweep[j - 1].tolist() == window_min_sweep(grid).tolist()
        assert path.ball_sweep[j - 1, : sweep.size].tolist() == sweep.tolist()
        assert np.all(path.ball_sweep[j - 1, sweep.size :] == np.iinfo(np.int64).max)
        assert path.ball_count[j - 1] == count


@pytest.mark.parametrize("scales", [1, 2, 3])
@pytest.mark.parametrize("m,r", [(2, 3), (3, 2)])
def test_stacked_scales_match_fresh(monkeypatch, m, r, scales):
    """Stacks of 1, 2 and 3 scales end mid-path, and the last one of a
    7-scale path is partial unless it holds one scale; every record still
    matches its scale's fresh grid."""
    monkeypatch.setattr(qsampler, "_STACK_CELLS", scales * 2 ** (m * r))
    path = sample_qpath(PercolationConfig(m, 2, 0.75, seed=21), n=7, r=r, g=2, replica=1)
    _assert_records_match_fresh(path)


def test_full_cells_fit_the_stack():
    """At p = 1 every cell holds fanout^g = 256 nodes, one past uint8."""
    path = sample_qpath(PercolationConfig(2, 2, 1.0, seed=4), n=3, r=2, g=4)
    _assert_records_match_fresh(path)
    assert path.window_sweep[:, -1].tolist() == [16 * 256] * 3


def test_one_cell_ball_boxes_match_fresh():
    """At r = 1 the grid side is 2 and each ball's box is its center cell."""
    path = sample_qpath(PercolationConfig(2, 2, 0.8, seed=8), n=7, r=1, g=3, replica=0)
    _assert_records_match_fresh(path)
    assert path.ball_sweep.shape == (7, 2)
    tree = LazyTree(path.tree_config)
    for j in range(path.n):
        cell = path.digits[: j + 2]
        assert path.ball_count[j] == path.ball_sweep[j, 1] == tree.count_profile(cell, 3)[3]


@pytest.mark.parametrize(
    "m,k,r,g",
    [(2, 2, 2, 3), (2, 2, 1, 0), (2, 2, 1, 3), (1, 3, 3, 2), (2, 3, 1, 2), (3, 2, 2, 1),
     (2, 2, 3, 0)],
)
def test_path_walk_replays_by_hand(m, k, r, g):
    """Reconstruct the digits with raw RNG primitives and a per-word walk.

    The oracle expands every visited word on its own, one level plus the
    probe below it; the sampler reads the same counts off its scale grids,
    and every scale's records match a fresh count grid of its word.  The
    cases cover r = 1, where a step stores all it hashes, g = 0, where the
    cells sit at full labels, m = 3 and k = 3.
    """
    cfg = PercolationConfig(m, k, 0.85, seed=33)
    n = 4
    path = sample_qpath(cfg, n=n, r=r, g=g, replica=2)
    tcfg = replica_config(cfg, 2, attempt=path.attempts - 1)
    assert path.tree_config == tcfg
    tree = LazyTree(tcfg)
    key = substream(tcfg.seed, STREAM_PATH)
    word = ()
    for step in range(n + r):
        u = unit_draw(child_key(key, step))
        word += (sample_step(descendant_counts(tree, word, 1, g), u),)
    assert word == path.digits
    for j in range(1, n + 1):
        assert path.x_hat[j - 1] == x_estimate(tree, path.digits[:j], g)
    _assert_records_match_fresh(path)


def test_accepted_path_expands_each_word_once(monkeypatch):
    # The root's g levels and step 0's, word_1's levels g .. r + g - 1, then one
    # level per later scale: those parents' children, in that order, are
    # every key an accepted attempt hashes, and no parent is hashed twice.
    # A parent is hashed by child_keys or, on a counted level, by the count
    # step, which counts the parents before and after the stored ones.
    from percolab import percolation

    parents = []
    hash_children, count_children = percolation.child_keys, percolation.count_children

    def recorded(keys, fanout, *buffers):
        parents.extend(keys.tolist())
        return hash_children(keys, fanout, *buffers)

    def counted(keys, *args):
        parents.extend(keys.tolist())
        return count_children(keys, *args)

    monkeypatch.setattr(percolation, "child_keys", recorded)
    monkeypatch.setattr(percolation, "count_children", counted)
    n, r, g = 4, 3, 2
    path = sample_qpath(PercolationConfig(2, 2, 0.8, seed=0), n=n, r=r, g=g)
    assert path.attempts == 1
    tree = LazyTree(path.tree_config)

    def retained(digits, depth):
        found = (tree._lookup(digits + tail) for tail in product(range(4), repeat=depth))
        return [key for key in found if key is not None]

    expected = [key for depth in range(g + 1) for key in retained((), depth)]
    expected += [key for depth in range(g, r + g) for key in retained(path.digits[:1], depth)]
    for j in range(2, n + 1):
        expected += retained(path.digits[:j], r + g - 1)
    assert parents == expected
    assert len(set(parents)) == len(parents)


def test_accepted_path_expands_each_word_once_under_the_numpy_body(monkeypatch):
    # the count step's numpy body hashes each parent once, in order, too
    monkeypatch.setattr(rng, "_loops", lambda: None)
    test_accepted_path_expands_each_word_once(monkeypatch)


@pytest.mark.parametrize("m,p,r,g", [(2, 0.8, 3, 2), (2, 0.7, 1, 0), (3, 0.6, 2, 1)])
def test_paths_past_int64_labels_match_streamed(monkeypatch, m, p, r, g):
    # where r + g digits overflow int64, each step counts its cells afresh
    from percolab import qsampler

    cfg = PercolationConfig(m, 2, p, seed=9)
    streamed = [sample_qpath(cfg, n=4, r=r, g=g, replica=i) for i in range(3)]
    monkeypatch.setattr(qsampler, "labels_fit", lambda fanout, digits: False)
    for i, path in enumerate(streamed):
        fresh = sample_qpath(cfg, n=4, r=r, g=g, replica=i)
        assert fresh.digits == path.digits and fresh.weight == path.weight
        for name in ("x_hat", "a_star", "window_sweep", "total_mass", "ball_sweep", "ball_count"):
            assert np.array_equal(getattr(fresh, name), getattr(path, name)), name


def test_labels_fit_int64():
    assert labels_fit(4, 31) and labels_fit(8, 20) and labels_fit(2, 62)
    assert not (labels_fit(8, 21) or labels_fit(2, 63) or labels_fit(27, 14))
    tree = LazyTree(PercolationConfig(3, 2, 0.5))
    with pytest.raises(ValueError):
        with tree.frontier((), 21):
            pass


def test_a_star_counts_the_empty_window_sizes():
    # a_star is the count of zeros in window_sweep[1:], on every recorded
    # path scale and every ensemble view, dead ones included
    for m, p, r, g in [(2, 0.8, 4, 2), (2, 0.5, 3, 3), (3, 0.6, 2, 2)]:
        cfg = PercolationConfig(m, 2, p, seed=7)
        for replica in range(3):
            path = sample_qpath(cfg, n=5, r=r, g=g, replica=replica)
            zeros = np.count_nonzero(path.window_sweep[:, 1:] == 0, axis=1)
            assert path.a_star.tolist() == zeros.tolist()
        views = [ensemble_view(cfg, r, g, i) for i in range(20)]
        assert any(v.counts.sum() == 0 for v in views) == (p == 0.5)
        for view in views:
            sweep = window_min_sweep(view.grid)
            assert view.a_star == np.count_nonzero(sweep[1:] == 0)


def test_sample_qpath_deterministic():
    cfg = PercolationConfig(2, 2, 0.8, seed=1)
    a = sample_qpath(cfg, n=4, r=3, g=3, replica=5)
    b = sample_qpath(cfg, n=4, r=3, g=3, replica=5)
    assert a.digits == b.digits
    assert np.array_equal(a.x_hat, b.x_hat)
    assert np.array_equal(a.a_star, b.a_star)
    assert np.array_equal(a.ball_sweep, b.ball_sweep)
    assert np.array_equal(a.ball_count, b.ball_count)
    c = sample_qpath(cfg, n=4, r=3, g=3, replica=6)
    assert c.digits != a.digits or not np.array_equal(c.x_hat, a.x_hat)


@pytest.mark.parametrize("n,r,g", [(0, 3, 2), (4, 0, 2), (4, 3, -1)])
def test_sample_qpath_refuses_a_bad_shape(n, r, g):
    with pytest.raises(ValueError, match="need n >= 1, r >= 1, g >= 0"):
        sample_qpath(PercolationConfig(2, 2, 0.8), n=n, r=r, g=g)


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
        word = path.digits[:j]
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


@pytest.mark.parametrize(
    "m,p,r,g", [(2, 0.8, 3, 0), (2, 0.6, 4, 2), (3, 0.5, 2, 1), (2, 0.45, 3, 2)]
)
def test_recorded_restricted_block_needs_no_forcing(m, p, r, g):
    """Every recorded center cell is occupied, so forcing it changes no block.

    The descent only enters children alive g levels down, so the path's own
    cell is never empty; the recorded a_star, which the certified lower
    indicator reads, must match the forced-center reference on every scale.
    Every record matches a fresh count grid, also on a path accepted after
    rejected attempts (p = 0.45, replica 0).
    """
    cfg = PercolationConfig(m, 2, p, seed=3)
    attempts = []
    for replica in range(3):
        path = sample_qpath(cfg, n=6, r=r, g=g, replica=replica)
        attempts.append(path.attempts)
        _assert_records_match_fresh(path)
        tree = LazyTree(path.tree_config)
        for j in range(path.n):
            counts = descendant_counts(tree, path.digits[: j + 1], r, g)
            occ = grid_from_digit_order(counts, m, 2, r) > 0
            reference = restricted_max_empty_block(occ, path.centers[j])
            assert path.a_star[j] == reference
    assert (max(attempts) > 1) == (p == 0.45)


def test_path_weight_is_root_estimate():
    cfg = PercolationConfig(2, 2, 0.8, seed=19)
    g = 4
    path = sample_qpath(cfg, n=3, r=3, g=g, replica=1)
    tree = LazyTree(path.tree_config)
    d = dimension(cfg)
    count = tree.count_profile((), g)[g]
    assert path.weight == pytest.approx(count * 2.0 ** (-g * d), rel=1e-12)


def test_qpath_accessors_match_oracles_off_grid():
    """Any alpha and eps, read off the recorded a* and sweep, match brute force.

    The parameters lie off the default grids, and the
    alphas (t + 1/2) / side reach every cell threshold 1..side; the oracles
    see only a fresh count grid of each scale and its center.
    """
    cfg = PercolationConfig(2, 2, 0.8, seed=3)
    r, g = 4, 3
    path = sample_qpath(cfg, n=4, r=r, g=g, replica=0)
    tree = LazyTree(path.tree_config)
    grids = [
        grid_from_digit_order(descendant_counts(tree, path.digits[:j], r, g), 2, 2, r)
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


@pytest.mark.parametrize("m,r,g,p", [(2, 4, 3, 0.8), (3, 3, 2, 0.6)])
def test_qpath_porosities_match_ball_oracles_off_grid(m, r, g, p):
    """Both ball porosities, read off the recorded sweeps, match brute force.

    The eps values lie off any grid, one past 1; the oracles see only a
    fresh count grid of each scale and its center, and some of the balls
    are clipped by a face of their cube.
    """
    cfg = PercolationConfig(m, 2, p, seed=5)
    side, epss = 2**r, (3.7e-3, 0.05, 0.5, 2.0)
    radius = side / 4.0
    clipped = 0
    for replica in range(2):
        path = sample_qpath(cfg, n=6, r=r, g=g, replica=replica)
        tree = LazyTree(path.tree_config)
        sheet = path.measure_porosity(epss)
        assert sheet.shape == (path.n, len(epss))
        for j in range(path.n):
            counts = descendant_counts(tree, path.digits[: j + 1], r, g)
            grid = grid_from_digit_order(counts, m, 2, r)
            center = tuple(path.centers[j])
            clipped += any(c + 0.5 - radius < 0 or c + 0.5 + radius > side for c in center)
            assert path.set_porosity[j] == ball_set_porosity(grid > 0, center, radius)
            for ie, eps in enumerate(epss):
                want = ball_measure_porosity(grid, center, radius, eps)
                assert sheet[j, ie] == want
                assert path.measure_porosity(eps)[j] == want
    assert clipped
    # past 1 every window is light, and no limit reaches the padding
    assert np.array_equal(path.measure_porosity(1e30), path.measure_porosity(1.0))
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            path.measure_porosity(bad)
        with pytest.raises(ValueError):
            path.measure_hole(0.05, bad)


def test_path_indicator_structure():
    cfg = PercolationConfig(2, 2, 0.8, seed=8)
    alphas = tuple(0.05 * t for t in range(1, 20)) + (1.0,)
    path = sample_qpath(cfg, n=6, r=4, g=3, replica=0)
    lower = np.stack([path.set_hole_lower(a) for a in alphas], axis=1)
    upper = np.stack([path.set_hole_upper(a) for a in alphas], axis=1)
    measure_ind = np.stack([path.measure_hole(a, (1e-3,)) for a in alphas], axis=1)
    assert np.all(lower <= upper)
    assert np.all(np.diff(lower.astype(np.int8), axis=1) <= 0)
    assert np.all(np.diff(upper.astype(np.int8), axis=1) <= 0)
    # certified set holes imply measure holes at every eps
    assert np.all(lower[:, :, None] <= measure_ind)


def test_p_one_walk_visits_uniformly_and_sees_no_holes():
    cfg = PercolationConfig(2, 2, 1.0, seed=0)
    path = sample_qpath(cfg, n=3, r=4, g=2, replica=0)
    assert np.array_equal(path.a_star, np.zeros(3, dtype=np.int64))
    for alpha in (0.25, 1.0):
        assert np.all(path.set_hole_lower(alpha) == 0)
        assert np.all(path.set_hole_upper(alpha) == 0)
        assert np.all(path.measure_hole(alpha, 1e-2) == 0)
    assert np.all(path.set_porosity == 0.0)
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
    est_word = importance_functional(cfg, r=3, g=3, replicas=400, f=lambda v: np.ones(64))
    assert abs(est_word.estimate - 1.0) < 4 * est_word.se
    est_global = importance_functional(cfg, r=3, g=3, replicas=400, f=lambda v: 1.0)
    assert abs(est_global.estimate - 1.0) < 4 * est_global.se


def test_importance_functional_validates():
    cfg = PercolationConfig(2, 2, 0.8, seed=0)
    with pytest.raises(ValueError):
        importance_functional(cfg, 2, 2, replicas=1, f=lambda v: 1.0)
    with pytest.raises(ValueError, match="shape"):
        importance_functional(cfg, 2, 2, replicas=4, f=lambda v: np.ones(3))


def test_one_number_is_weighed_by_the_word_weights():
    # a replica with any word weight survives, so the survival indicator
    # and the constant 1 must give the same estimate, replica for replica
    cfg = PercolationConfig(2, 2, 0.35, seed=3)
    alive = importance_functional(cfg, 3, 1, 200, f=lambda v: float(v.counts.sum() > 0))
    ones = importance_functional(cfg, 3, 1, 200, f=lambda v: 1.0)
    assert alive == ones


def test_ensemble_driver_is_the_importance_functional_of_its_hole_indicator():
    cfg = PercolationConfig(2, 2, 0.8, seed=0)
    r, g, replicas, alpha = 3, 2, 100, 0.25
    weights, blocks = ensemble_sweep_parallel(cfg, r, g, replicas)
    lower, _ = ensemble_from_sweep(cfg, [alpha], r, weights, blocks)[0]
    threshold = cells_threshold(alpha, 2**r)
    direct = importance_functional(cfg, r, g, replicas, f=lambda v: float(v.a_star >= threshold))
    assert 0 < lower.estimate
    assert direct.estimate == pytest.approx(lower.estimate, rel=1e-12)
    assert direct.se == pytest.approx(lower.se, rel=1e-12)
