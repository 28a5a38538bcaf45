"""Lazy tree: determinism, hereditary pruning, budgets, retention law."""

import itertools
import time

import numpy as np
import pytest

from helpers import x_estimate
from percolab import LazyTree, MemoryBudgetError, PercolationConfig, rng
from percolab.percolation import (
    STREAM_RETENTION,
    capped_power,
    cell_of_digits,
    descendant_counts,
    grid_from_digit_order,
)
from percolab.qsampler import sample_qpath
from percolab.rng import child_keys, substream, unit_draws


def tree(p=0.8, seed=0, m=2, k=2):
    return LazyTree(PercolationConfig(m=m, k=k, p=p, seed=seed))


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
        assert tree(seed=seed).is_retained(())


def test_retention_is_deterministic_and_order_free():
    t1, t2 = tree(seed=3), tree(seed=3)
    words = [(0,), (3, 2), (1, 1, 1), (2,), (0, 0)]
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
        if not t.is_retained(digits):
            child = digits + (int(rng.integers(0, 4)),)
            assert not t.is_retained(child)
            dead_children += 1
    assert dead_children > 10  # the sample actually exercised dead nodes


def _retained_paths(t, start, depth):
    """Pointwise oracle: (digit path, key) of each retained node ``depth`` below ``start``."""
    fanout = t.config.branching
    found = []
    for tail in itertools.product(range(fanout), repeat=depth):
        key = t._lookup(start + tail)
        if key is not None:
            found.append((tail, key))
    return found


def _label(digits, fanout):
    label = 0
    for d in digits:
        label = label * fanout + d
    return label


def test_expand_matches_pointwise_queries():
    t = tree(p=0.7, seed=5)
    for start in ((), (2, 3)):
        assert t.is_retained(start)
        with t.frontier(start, 3) as front:
            profile = t.expand_retained(front, 3)
            keys, labels = front.keys.tolist(), front.labels.tolist()
        oracle = _retained_paths(t, start, 3)
        assert profile == [len(_retained_paths(t, start, j)) for j in range(4)]
        # each label is the node's digit path below the word, in digit-path order
        assert labels == [_label(tail, 4) for tail, _ in oracle] == sorted(labels)
        assert keys == [key for _, key in oracle]


def test_expand_below_pruned_word_is_all_dead():
    t = tree(p=0.4, seed=2)
    pruned = next(w for w in itertools.product(range(4), repeat=2) if not t.is_retained(w))
    with t.frontier(pruned, 2) as front:
        assert t.expand_retained(front, 2) == [0, 0, 0]
        assert front.keys.size == 0 and front.labels.size == 0


def test_expand_hashes_nothing_after_extinction(monkeypatch):
    from percolab import percolation

    hashed = []
    child_keys = percolation.child_keys

    def counted(keys, fanout, *buffers):
        hashed.append(keys.size)
        return child_keys(keys, fanout, *buffers)

    monkeypatch.setattr(percolation, "child_keys", counted)
    t = tree(p=0.4, seed=2)
    pruned = next((a,) for a in range(4) if not t.is_retained((a,)))
    with t.frontier(pruned) as front:
        assert t.expand_retained(front, 8000) == [0] * 8001
    assert hashed == []
    # a root whose line dies at depth 7 hashes the seven levels that had nodes
    prof = tree(p=0.6, seed=5, m=1).count_profile((), 40)
    assert prof[:8] == [1, 1, 2, 2, 3, 1, 1, 0] and prof[8:] == [0] * 33
    assert hashed == [1, 1, 2, 2, 3, 1, 1]


def test_counted_level_is_hashed_by_the_count_step(monkeypatch, hash_body):
    # under either body, count_profile hashes the parents of its counted
    # level only through the count step, and each of them once
    from percolab import percolation

    hashed, counted = [], []
    child_keys, count_children = percolation.child_keys, percolation.count_children

    def recorded(keys, fanout, *buffers):
        hashed.extend(keys.tolist())
        return child_keys(keys, fanout, *buffers)

    def counting(keys, *args):
        counted.extend(keys.tolist())
        return count_children(keys, *args)

    monkeypatch.setattr(percolation, "child_keys", recorded)
    monkeypatch.setattr(percolation, "count_children", counting)
    t = tree(p=0.8, seed=3)
    depth = 6
    profile = t.count_profile((), depth)
    assert profile == _one_shot(t, depth)[0]
    last = sorted(_one_shot(t, depth - 1)[1].tolist())
    assert sorted(counted) == last and not set(last) & set(hashed)
    assert len(hashed) == sum(profile[: depth - 1])


def _one_shot(t, depth):
    """Reference expansion from the root: each level hashed in one call.

    Returns the profile and the deepest level's keys and digit-path labels,
    each label carried down by parent position.
    """
    fanout, p = t.config.branching, t.config.p
    keys = np.array([substream(t.config.seed, STREAM_RETENTION)], dtype=np.uint64)
    labels = np.zeros(1, dtype=np.int64)
    profile = [1]
    for _ in range(depth):
        children = child_keys(keys, fanout).reshape(-1)
        (alive,) = np.nonzero(unit_draws(children) < p)
        keys = children[alive]
        labels = labels[alive // fanout] * fanout + alive % fanout
        profile.append(keys.size)
    return profile, keys, labels


def _same_path(a, b):
    assert a.digits == b.digits and a.attempts == b.attempts and a.weight == b.weight
    for name in ("centers", "x_hat", "a_star", "window_sweep", "total_mass", "ball_sweep", "ball_count"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _stored(t, word, r, g):
    """Profile and cell counts from a fully stored expansion: every level,
    the deepest too, compacted into the frontier and its labels bincounted."""
    with t.frontier(word, r) as front:
        profile = t.expand_retained(front, r + g)
        labels = front.labels if r else np.zeros(front.size, dtype=np.int64)
        return profile, np.bincount(labels, minlength=t.config.branching**r).tolist()


def _pointwise(t, word, r, g):
    """The same, from the ``_lookup`` oracle."""
    fanout = t.config.branching
    profile = [len(_retained_paths(t, word, j)) for j in range(r + g + 1)]
    cells = [0] * fanout**r
    for tail, _ in _retained_paths(t, word, r + g):
        cells[_label(tail[:r], fanout)] += 1
    return profile, cells


def _counted_cases(m):
    """(tree, word, r, g) cases whose deepest level is counted, not stored:
    probe depths 0, 1 and 3, resolution 0 (one cell, the word), a pruned
    word, and a tree that dies exactly at the counted level."""
    r = 3 if m == 2 else 2
    live = tree(p=0.8, seed=3, m=m)
    root = ()
    cases = [(live, root, r, g) for g in (0, 1, 3)] + [(live, root, 0, 0), (live, root, 0, 2)]
    sparse = tree(p=0.4, seed=2, m=m)
    pruned = next(w for w in ((d,) for d in range(2**m)) if not sparse.is_retained(w))
    cases.append((sparse, pruned, r, 1))
    for seed in range(500):
        dying = tree(p=0.3 if m == 2 else 0.15, seed=seed, m=m)
        profile = _stored(dying, root, 2, 1)[0]
        if profile[2] > 1 and profile[3] == 0:
            cases.append((dying, root, 2, 1))
            break
    assert len(cases) == 7
    return cases


@pytest.mark.parametrize("m", [2, 3])
def test_chunked_levels_match_one_shot(monkeypatch, m):
    # golden specs never hash a level past one chunk, so shrink the chunk
    # until every level of a small tree crosses several slice boundaries;
    # trees of fanout 4 and 8 take turns (dimension m first), and a path
    # meets other expansions between its scales, so no result may alias a
    # reused buffer
    from percolab import percolation, qsampler

    trees = [tree(p=0.8, seed=3, m=dim) for dim in (m, 5 - m)]

    def expansions(t):
        root = ()
        with t.frontier(root, 6) as front:
            profile = t.expand_retained(front, 6)
            keys, labels = front.keys.copy(), front.labels.copy()
        return profile, keys, labels, t.count_profile(root, 6), descendant_counts(t, root, 3, 3)

    def paths():
        return [
            sample_qpath(PercolationConfig(dim, 2, 0.8, seed=3), n=3, r=2, g=2)
            for dim in (m, 5 - m)
        ]

    expected = [expansions(t) for t in trees]
    weights = [x_estimate(t, (), 3) for t in trees]
    for t, (profile, keys, labels, counts, cells) in zip(trees, expected):
        fanout = t.config.branching
        one_shot = _one_shot(t, 6)
        assert profile[5] > 5  # the deepest hashed level spans several chunks
        assert profile == counts == one_shot[0]
        assert np.array_equal(keys, one_shot[1]) and np.array_equal(labels, one_shot[2])
        assert cells.tolist() == np.bincount(labels // fanout**3, minlength=fanout**3).tolist()
    recorded = paths()
    # levels that are counted, not stored, against stored levels and the oracle
    counted = [(case, _pointwise(*case)) for case in _counted_cases(m)]
    step = qsampler.sample_step

    def interleaved(counts, u):
        for t, weight in zip(trees, weights):
            assert x_estimate(t, (), 3) == weight
        return step(counts, u)

    monkeypatch.setattr(qsampler, "sample_step", interleaved)
    for chunk in (1, 3, 5):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        # fresh buffers grow mid-level
        monkeypatch.setattr(rng, "_SCRATCH", [a[:0] for a in rng._SCRATCH])
        monkeypatch.setattr(percolation, "_SPARES", [])
        for t, (profile, keys, labels, counts, cells) in zip(trees, expected):
            again = expansions(t)
            assert again[0] == profile and again[3] == counts
            assert np.array_equal(again[1], keys) and np.array_equal(again[2], labels)
            assert np.array_equal(again[4], cells)
        for a, b in zip(paths(), recorded):
            _same_path(a, b)
        for (t, word, r, g), (profile, cells) in counted:
            assert t.count_profile(word, r + g) == profile
            assert descendant_counts(t, word, r, g).tolist() == cells
            assert _stored(t, word, r, g) == (profile, cells)


@pytest.mark.parametrize("m", [2, 3])
def test_chunked_levels_match_one_shot_under_the_numpy_body(monkeypatch, m):
    # the counted levels' parents outside the stored range reach the numpy
    # count body, in slices of the same size
    monkeypatch.setattr(rng, "_loops", lambda: None)
    test_chunked_levels_match_one_shot(monkeypatch, m)


@pytest.mark.parametrize("chunk", [None, 3])
def test_deepest_counted_level_is_never_stored(monkeypatch, chunk):
    from percolab import percolation

    if chunk:
        monkeypatch.setattr(rng, "_CHUNK", chunk)
    monkeypatch.setattr(percolation, "_SPARES", [])  # fresh buffers must grow
    asked = []
    reserve = percolation._Level.reserve

    def recorded(level, size, keep, labelled):
        asked.append(size)
        return reserve(level, size, keep, labelled)

    monkeypatch.setattr(percolation._Level, "reserve", recorded)
    t = tree(p=0.8, seed=3)
    root = ()
    profile = t.count_profile(root, 6)
    assert profile[6] > profile[5] > 5  # the deepest level is the largest
    assert asked and max(asked) <= profile[5]
    asked.clear()
    for r, g in ((3, 3), (6, 0)):
        cells = descendant_counts(t, root, r, g)
        assert cells.sum() == profile[6]
        assert asked and max(asked) <= profile[5]
        asked.clear()


@pytest.mark.parametrize("chunk", [None, 3])
def test_path_stores_only_the_next_word(monkeypatch, chunk):
    # the root's g + 1 levels and word_1's deepening store everything; from
    # step r on, a step stores only the nodes under the digit that the next
    # step descends into, and the last step stores nothing, so its frontier
    # stays where it was
    from percolab import percolation

    if chunk:
        monkeypatch.setattr(rng, "_CHUNK", chunk)
    stored = []
    swap = percolation.Frontier._swap

    def recorded(front, size):
        swap(front, size)
        stored.append((front.depth, front.labels // front.fanout ** (front.depth - 1)))

    monkeypatch.setattr(percolation.Frontier, "_swap", recorded)
    n, r, g = 6, 3, 2
    path = sample_qpath(PercolationConfig(2, 2, 0.8, seed=5), n=n, r=r, g=g)
    assert path.attempts == 1
    steady = stored[g + r :]  # after step r - 1
    assert len(steady) == n - 1
    for j, (depth, first) in enumerate(steady, start=1):
        assert depth == r + g and first.size
        assert set(first.tolist()) == {path.digits[j]}


def test_count_profile_matches_expand():
    t = tree(p=0.7, seed=11)
    root = ()
    prof = t.count_profile(root, 6)
    with t.frontier(root, 6) as front:
        assert t.expand_retained(front, 6) == prof
    assert prof == [len(_retained_paths(t, root, j)) for j in range(7)]


def test_count_profile_matches_expand_under_the_numpy_body(monkeypatch):
    monkeypatch.setattr(rng, "_loops", lambda: None)
    test_count_profile_matches_expand()


def test_count_profile_deep_3d_matches_pointwise_walk():
    # 8^25 overflows int64: the frontier must not index the full lattice
    t = tree(p=0.15, seed=6, m=3, k=2)
    prof = t.count_profile((), 25)
    alive, walked = [()], [1]
    for _ in range(25):
        alive = [w + (d,) for w in alive for d in range(8) if t.is_retained(w + (d,))]
        walked.append(len(alive))
    assert prof == walked and prof[25] > 0


def test_count_profile_zero_fills_after_extinction():
    t = tree(p=0.26, seed=1, m=1, k=2)
    prof = t.count_profile((), 40)
    assert len(prof) == 41
    died = [i for i, c in enumerate(prof) if c == 0]
    if died:
        assert all(prof[i] == 0 for i in range(died[0], 41))


def test_p_one_retains_everything():
    t = tree(p=1.0, seed=0)
    assert t.count_profile((), 5)[5] == 4**5
    counts = descendant_counts(t, (), 3, 2)
    assert (grid_from_digit_order(counts, 2, 2, 3) > 0).all()


def test_retention_frequency_matches_p():
    # one draw per child over many independent roots: binomial check at 4 sigma
    p = 0.63
    hits = total = 0
    for seed in range(2500):
        t = tree(p=p, seed=seed)
        for digit in range(4):
            hits += t.is_retained((digit,))
            total += 1
    se = np.sqrt(p * (1 - p) / total)
    assert abs(hits / total - p) < 4 * se


def test_memory_budget_enforced(monkeypatch):
    monkeypatch.setenv("PERCOLAB_MAX_NODES", "1000")
    t = tree(p=0.9, seed=0)
    with pytest.raises(MemoryBudgetError):
        t.count_profile((), 6)  # 387 nodes at depth 5 have 1548 children
    # the budget bounds the retained frontier's children, not the 4**depth lattice
    assert len(t.count_profile((), 3)) == 4
    # a count grid past the budget fails before 4**resolution is ever built
    with pytest.raises(MemoryBudgetError):
        descendant_counts(t, (), 10**8, 0)
    # its 2^(2 * 5) cells count on both axes, though no frontier reaches 1000
    with pytest.raises(MemoryBudgetError, match="needs at least 1024 nodes"):
        descendant_counts(t, (), 5, 0)


def test_count_profile_budgets_its_counts_before_hashing(monkeypatch):
    # a pruned word's frontier is empty at once, so only the depth + 1
    # counts of the profile stand between the call and a 2^24-entry list
    monkeypatch.delenv("PERCOLAB_MAX_NODES", raising=False)
    sparse = tree(p=0.4, seed=2)
    pruned = next(w for w in ((d,) for d in range(4)) if not sparse.is_retained(w))
    assert sparse.count_profile(pruned, 3) == [0, 0, 0, 0]
    start = time.perf_counter()
    with pytest.raises(MemoryBudgetError, match="needs at least 16777217 nodes"):
        sparse.count_profile(pruned, 1 << 24)
    assert time.perf_counter() - start < 1.0


def test_capped_power_is_exact_up_to_its_bound():
    assert capped_power(3, 5, 243) == 243  # at the bound
    assert capped_power(3, 5, 242) == 243  # just past it: bound + 1
    assert capped_power(2, 63, 1 << 63) == 1 << 63
    assert capped_power(2, 64, 1 << 63) == (1 << 63) + 1
    assert capped_power(5, 0, 0) == 1
    start = time.perf_counter()
    for base in (2, 3, 10**6):  # 3^(10^9) alone would take hours to build
        assert capped_power(base, 10**9, 1 << 63) == (1 << 63) + 1
    assert time.perf_counter() - start < 1.0


def test_non_integer_max_nodes_warns_and_keeps_the_default(monkeypatch):
    monkeypatch.setenv("PERCOLAB_MAX_NODES", "lots")
    with pytest.warns(UserWarning, match="non-integer PERCOLAB_MAX_NODES='lots'"):
        t = LazyTree(PercolationConfig(2, 2, 0.8))
    assert t.max_nodes == 1 << 24


@pytest.mark.parametrize("digit", [-1, 4])
def test_digits_outside_the_fanout_are_refused(digit):
    # every entry point checks every digit, also past a pruned one, where
    # the walk down the keys stops
    t = tree(p=0.4, seed=2)
    assert not t.is_retained((0,)) and t.is_retained((1,))

    def open_frontier(digits):
        with t.frontier(digits, 1):
            pass

    entries = (
        t.is_retained,
        open_frontier,
        lambda digits: t.count_profile(digits, 2),
        lambda digits: descendant_counts(t, digits, 1, 1),
    )
    for digits in ((digit,), (0, digit), (1, 2, digit)):
        for entry in entries:
            with pytest.raises(ValueError, match=rf"digit {digit} out of range \[0, 4\)"):
                entry(digits)


def test_descendant_counts_and_occupancy_agree():
    t = tree(p=0.75, seed=8)
    root = ()
    counts = descendant_counts(t, root, resolution=3, probe_depth=2)
    assert counts.shape == (64,)
    occ = grid_from_digit_order(counts, 2, 2, 3) > 0
    assert occ.shape == (8, 8)
    # a cell is occupied iff some line survives 2 levels below its word
    for digits in itertools.product(range(4), repeat=3):
        alive = t.count_profile(digits, 2)[2] > 0
        assert occ[cell_of_digits(digits, 2, 2)] == alive


@pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("p", [0.7, 1.0])
def test_descendant_counts_match_pointwise_oracle(m, k, p):
    t = tree(p=p, seed=4, m=m, k=k)
    fanout = k**m
    r, g = (2, 1) if fanout > 4 else (2, 2)
    starts = [(), (1,)]
    dead = [(d,) for d in range(fanout) if not t.is_retained((d,))]
    starts += dead[:1]
    assert bool(dead) == (p < 1)
    for start in starts:
        oracle = [
            sum(
                t.is_retained(start + cell + probe)
                for probe in itertools.product(range(fanout), repeat=g)
            )
            for cell in itertools.product(range(fanout), repeat=r)
        ]
        assert descendant_counts(t, start, r, g).tolist() == oracle


@pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("p", [0.7, 1.0])
def test_descendant_counts_match_pointwise_oracle_under_the_numpy_body(monkeypatch, m, k, p):
    monkeypatch.setattr(rng, "_loops", lambda: None)
    test_descendant_counts_match_pointwise_oracle(m, k, p)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
@pytest.mark.parametrize("m,k,r", [(1, 2, 5), (2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 4, 1)])
def test_grid_from_digit_order_layout(m, k, r, dtype):
    # digit order flat -> spatial grid: every digit string's entry lands on
    # the cell its digits address, offsets composing positionally
    fanout = k**m
    values = np.arange(fanout**r, dtype=dtype)  # at most 81 distinct entries
    grid = grid_from_digit_order(values, m, k, r)
    assert grid.shape == (k**r,) * m
    assert grid.dtype == dtype and grid.flags.c_contiguous
    for i, digits in enumerate(itertools.product(range(fanout), repeat=r)):
        assert grid[cell_of_digits(digits, m, k)] == values[i]


def test_different_seeds_differ():
    a, b = (descendant_counts(tree(seed=s), (), 4, 0) for s in (0, 1))
    assert not np.array_equal(a, b)


def test_descend_needs_a_labelled_frontier():
    t = tree(p=0.8, seed=1)
    with t.frontier(()) as front:
        t.expand_retained(front, 2)
        with pytest.raises(ValueError, match="needs a labelled frontier"):
            front.descend(1)
