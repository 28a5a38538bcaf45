"""Lazy tree: determinism, hereditary pruning, budgets, retention law."""

import numpy as np
import pytest

from percolab import LazyTree, MemoryBudgetError, PercolationConfig, Word
from percolab.measure import expand_occupancy
from percolab.percolation import descendant_counts, grid_from_digit_order


def tree(p=0.8, seed=0, m=2, k=2, **kw):
    return LazyTree(PercolationConfig(m=m, k=k, p=p, seed=seed), **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        PercolationConfig(m=0, k=2, p=0.5)
    with pytest.raises(ValueError):
        PercolationConfig(m=2, k=1, p=0.5)
    with pytest.raises(ValueError):
        PercolationConfig(m=2, k=2, p=0.0)
    with pytest.raises(ValueError):
        PercolationConfig(m=2, k=2, p=1.2)


def test_config_derived_quantities():
    cfg = PercolationConfig(m=2, k=2, p=0.7)
    assert cfg.branching == 4
    assert cfg.critical_probability == pytest.approx(0.25)
    assert cfg.supercritical
    assert not PercolationConfig(m=2, k=2, p=0.25).supercritical


def test_subcritical_config_warns_on_tree_build():
    with pytest.warns(UserWarning):
        LazyTree(PercolationConfig(m=2, k=2, p=0.2))


def test_root_always_retained():
    for seed in range(20):
        assert tree(seed=seed).is_retained(Word.root(2, 2))


def test_retention_is_deterministic_and_order_free():
    t1, t2 = tree(seed=3), tree(seed=3)
    words = [Word(2, 2, tuple(d)) for d in [(0,), (3, 2), (1, 1, 1), (2,), (0, 0)]]
    # query in different orders; lazy caching must not change answers
    a = [t1.is_retained(w) for w in words]
    b = [t2.is_retained(w) for w in reversed(words)][::-1]
    assert a == b


def test_pruning_is_hereditary():
    t = tree(p=0.55, seed=9)
    rng = np.random.default_rng(0)
    dead_children = 0
    for _ in range(300):
        digits = tuple(int(d) for d in rng.integers(0, 4, size=4))
        w = Word(2, 2, digits)
        if not t.is_retained(w):
            child = w.child(int(rng.integers(0, 4)))
            assert not t.is_retained(child)
            dead_children += 1
    assert dead_children > 10  # the sample actually exercised dead nodes


def test_expand_matches_pointwise_queries():
    t = tree(p=0.7, seed=5)
    root = Word.root(2, 2)
    levels = t.expand_retained(root, 3)
    assert [lv.shape for lv in levels] == [(1,), (4,), (16,), (64,)]
    # digit order: flat index encodes the digit path, most significant first
    for flat in range(64):
        digits = (flat >> 4) & 3, (flat >> 2) & 3, flat & 3
        assert bool(levels[3][flat]) == t.is_retained(Word(2, 2, digits))


def test_expand_below_pruned_word_is_all_dead():
    t = tree(p=0.4, seed=2)
    pruned = next(
        Word(2, 2, (a, b))
        for a in range(4)
        for b in range(4)
        if not t.is_retained(Word(2, 2, (a, b)))
    )
    levels = t.expand_retained(pruned, 2)
    assert all(not lv.any() for lv in levels)


def test_count_profile_matches_expand():
    t = tree(p=0.7, seed=11)
    root = Word.root(2, 2)
    prof = t.count_profile(root, 6)
    levels = t.expand_retained(root, 6)
    assert prof == [int(lv.sum()) for lv in levels]


def test_count_profile_zero_fills_after_extinction():
    with pytest.warns(UserWarning):
        t = tree(p=0.26, seed=1, m=1, k=2)
    prof = t.count_profile(Word.root(1, 2), 40)
    assert len(prof) == 41
    died = [i for i, c in enumerate(prof) if c == 0]
    if died:
        assert all(prof[i] == 0 for i in range(died[0], 41))


def test_p_one_retains_everything():
    t = tree(p=1.0, seed=0)
    assert t.count_profile(Word.root(2, 2), 5)[5] == 4**5
    occ = expand_occupancy(t, Word.root(2, 2), 3, 2)
    assert occ.cells.all()


def test_retention_frequency_matches_p():
    # one draw per child over many independent roots: binomial check at 4 sigma
    p = 0.63
    hits = total = 0
    for seed in range(2500):
        t = tree(p=p, seed=seed)
        for digit in range(4):
            hits += t.is_retained(Word(2, 2, (digit,)))
            total += 1
    se = np.sqrt(p * (1 - p) / total)
    assert abs(hits / total - p) < 4 * se


def test_memory_budget_enforced():
    t = tree(p=0.9, seed=0, max_nodes=1000)
    with pytest.raises(MemoryBudgetError):
        t.expand_retained(Word.root(2, 2), 6)  # needs 4**6 > 1000 at the frontier
    # sparse profile walks are budgeted by live frontier, not dense size
    assert len(t.count_profile(Word.root(2, 2), 3)) == 4


def test_word_geometry_must_match_tree():
    t = tree()
    with pytest.raises(ValueError):
        t.is_retained(Word(3, 2, ()))
    with pytest.raises(ValueError):
        t.is_retained(Word(2, 3, ()))


def test_descendant_counts_and_occupancy_agree():
    t = tree(p=0.75, seed=8)
    root = Word.root(2, 2)
    counts = descendant_counts(t, root, resolution=3, probe_depth=2)
    occ = expand_occupancy(t, root, resolution=3, probe_depth=2)
    assert counts.shape == (64,)
    grid = grid_from_digit_order(counts > 0, 2, 2, 3)
    assert np.array_equal(grid, occ.cells)
    assert occ.side == 8 and occ.resolution == 3 and occ.probe_depth == 2


def test_grid_from_digit_order_layout():
    # digit order flat -> spatial grid: digit offsets compose positionally
    values = np.arange(16)
    grid = grid_from_digit_order(values, 2, 2, 2)
    assert grid.shape == (4, 4)
    # flat index 0b0110 = digits (1, 2): offsets (0,1) then (1,0) -> cell (1, 2)
    assert grid[1, 2] == 0b0110
    assert grid[0, 0] == 0
    assert grid[3, 3] == 15


def test_different_seeds_differ():
    a = tree(seed=0).expand_retained(Word.root(2, 2), 4)[4]
    b = tree(seed=1).expand_retained(Word.root(2, 2), 4)[4]
    assert not np.array_equal(a, b)
