"""Lazy tree: determinism, hereditary pruning, budgets, retention law."""

import itertools

import numpy as np
import pytest

from percolab import LazyTree, MemoryBudgetError, PercolationConfig, Word
from percolab.percolation import STREAM_RETENTION, descendant_counts, grid_from_digit_order
from percolab.rng import child_keys, substream, unit_draws
from percolab.words import cell_of_digits


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


def test_root_always_retained():
    for seed in range(20):
        assert tree(seed=seed).is_retained(Word.root(2, 2))


def test_retention_is_deterministic_and_order_free():
    t1, t2 = tree(seed=3), tree(seed=3)
    words = [Word(2, 2, tuple(d)) for d in [(0,), (3, 2), (1, 1, 1), (2,), (0, 0)]]
    # query in different orders; the answers must not depend on it
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
    assert len(levels) == 4 and levels[0].tolist() == [0]
    # each entry is parent position * 4 + digit: rebuild the digit paths
    paths = [()]
    for level in levels[1:]:
        paths = [paths[v // 4] + (v % 4,) for v in level.tolist()]
    assert paths == sorted(paths)  # digit-path order
    retained = [d for d in itertools.product(range(4), repeat=3) if t.is_retained(Word(2, 2, d))]
    assert paths == retained


def test_expand_below_pruned_word_is_all_dead():
    t = tree(p=0.4, seed=2)
    pruned = next(
        Word(2, 2, (a, b))
        for a in range(4)
        for b in range(4)
        if not t.is_retained(Word(2, 2, (a, b)))
    )
    levels = t.expand_retained(pruned, 2)
    assert len(levels) == 3 and all(lv.size == 0 for lv in levels)


def test_expand_hashes_nothing_after_extinction(monkeypatch):
    from percolab import percolation

    hashed = []
    child_keys = percolation.child_keys

    def counted(keys, fanout):
        hashed.append(keys.size)
        return child_keys(keys, fanout)

    monkeypatch.setattr(percolation, "child_keys", counted)
    t = tree(p=0.4, seed=2)
    pruned = next(Word(2, 2, (a,)) for a in range(4) if not t.is_retained(Word(2, 2, (a,))))
    levels = t.expand_retained(pruned, 8000)
    assert hashed == []
    assert len(levels) == 8001
    assert all(lv.dtype == np.int64 and lv.size == 0 for lv in levels)
    # a root whose line dies at depth 7 hashes the seven levels that had nodes
    prof = tree(p=0.6, seed=5, m=1).count_profile(Word.root(1, 2), 40)
    assert prof[:8] == [1, 1, 2, 2, 3, 1, 1, 0] and prof[8:] == [0] * 33
    assert hashed == [1, 1, 2, 2, 3, 1, 1]


def _one_shot_levels(t, depth):
    """Reference expansion from the root: each level hashed in one call."""
    fanout, p = t.config.branching, t.config.p
    keys = np.array([substream(t.config.seed, STREAM_RETENTION)], dtype=np.uint64)
    levels = [np.zeros(1, dtype=np.int64)]
    for _ in range(depth):
        children = child_keys(keys, fanout).reshape(-1)
        (alive,) = np.nonzero(unit_draws(children) < p)
        keys = children[alive]
        levels.append(alive)
    return levels


def _same_levels(a, b):
    return len(a) == len(b) and all(
        x.dtype == np.int64 and np.array_equal(x, y) for x, y in zip(a, b)
    )


@pytest.mark.parametrize("m", [2, 3])
def test_chunked_levels_match_one_shot(monkeypatch, m):
    # golden specs never hash a level past one chunk, so shrink the chunk
    # until every level of a small tree crosses several slice boundaries
    from percolab import percolation

    t = tree(p=0.8, seed=3, m=m)
    root = Word.root(m, 2)
    levels = t.expand_retained(root, 6)
    counts = descendant_counts(t, root, 3, 3)
    assert levels[5].size > 5  # the deepest hashed level spans several chunks
    assert _same_levels(levels, _one_shot_levels(t, 6))
    for chunk in (1, 3, 5):
        monkeypatch.setattr(percolation, "_CHUNK", chunk)
        assert _same_levels(t.expand_retained(root, 6), levels)
        assert np.array_equal(descendant_counts(t, root, 3, 3), counts)


def test_count_profile_matches_expand():
    t = tree(p=0.7, seed=11)
    root = Word.root(2, 2)
    prof = t.count_profile(root, 6)
    levels = t.expand_retained(root, 6)
    assert prof == [int(lv.size) for lv in levels]


def test_count_profile_deep_3d_matches_pointwise_walk():
    # 8^25 overflows int64: the frontier must not index the full lattice
    t = tree(p=0.15, seed=6, m=3, k=2)
    prof = t.count_profile(Word.root(3, 2), 25)
    alive, walked = [Word.root(3, 2)], [1]
    for _ in range(25):
        alive = [w.child(d) for w in alive for d in range(8) if t.is_retained(w.child(d))]
        walked.append(len(alive))
    assert prof == walked and prof[25] > 0


def test_count_profile_zero_fills_after_extinction():
    t = tree(p=0.26, seed=1, m=1, k=2)
    prof = t.count_profile(Word.root(1, 2), 40)
    assert len(prof) == 41
    died = [i for i, c in enumerate(prof) if c == 0]
    if died:
        assert all(prof[i] == 0 for i in range(died[0], 41))


def test_p_one_retains_everything():
    t = tree(p=1.0, seed=0)
    assert t.count_profile(Word.root(2, 2), 5)[5] == 4**5
    counts = descendant_counts(t, Word.root(2, 2), 3, 2)
    assert (grid_from_digit_order(counts, 2, 2, 3) > 0).all()


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
        t.expand_retained(Word.root(2, 2), 6)  # 387 nodes at depth 5 have 1548 children
    # the budget bounds the retained frontier's children, not the 4**depth lattice
    assert len(t.count_profile(Word.root(2, 2), 3)) == 4
    # a count grid past the budget fails before 4**resolution is ever built
    with pytest.raises(MemoryBudgetError):
        descendant_counts(t, Word.root(2, 2), 10**8, 0)


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
    assert counts.shape == (64,)
    occ = grid_from_digit_order(counts, 2, 2, 3) > 0
    assert occ.shape == (8, 8)
    # a cell is occupied iff some line survives 2 levels below its word
    for digits in itertools.product(range(4), repeat=3):
        alive = t.count_profile(Word(2, 2, digits), 2)[2] > 0
        assert occ[cell_of_digits(digits, 2, 2)] == alive


@pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("p", [0.7, 1.0])
def test_descendant_counts_match_pointwise_oracle(m, k, p):
    t = tree(p=p, seed=4, m=m, k=k)
    fanout = k**m
    r, g = (2, 1) if fanout > 4 else (2, 2)
    starts = [Word.root(m, k), Word(m, k, (1,))]
    dead = [Word(m, k, (d,)) for d in range(fanout) if not t.is_retained(Word(m, k, (d,)))]
    starts += dead[:1]
    assert bool(dead) == (p < 1)
    for start in starts:
        oracle = [
            sum(
                t.is_retained(Word(m, k, start.digits + cell + probe))
                for probe in itertools.product(range(fanout), repeat=g)
            )
            for cell in itertools.product(range(fanout), repeat=r)
        ]
        assert descendant_counts(t, start, r, g).tolist() == oracle


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
