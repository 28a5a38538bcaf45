"""Dimension arithmetic, martingale recursion, mass grids and slices."""

import math

import numpy as np
import pytest

from percolab import (
    LazyTree,
    PercolationConfig,
    Word,
    ZeroMassError,
    dimension,
    mass_grid,
    slice_mass,
    x_estimate,
)


def test_dimension_reference_values():
    assert dimension(PercolationConfig(2, 2, 0.7)) == pytest.approx(1.485427, abs=1e-6)
    assert dimension(PercolationConfig(2, 2, 0.8)) == pytest.approx(
        2 + math.log(0.8) / math.log(2), abs=0
    )
    assert dimension(PercolationConfig(2, 2, 1.0)) == pytest.approx(2.0)
    assert dimension(PercolationConfig(3, 2, 0.5)) == pytest.approx(2.0)


def test_x_estimate_mean_one_shape():
    cfg = PercolationConfig(2, 2, 0.8, seed=4)
    t = LazyTree(cfg)
    est = x_estimate(t, Word.root(2, 2), 5)
    d = dimension(cfg)
    count = t.count_profile(Word.root(2, 2), 5)[5]
    assert est == pytest.approx(count * 2.0 ** (-5 * d))


def test_x_estimate_rejects_pruned_word():
    t = LazyTree(PercolationConfig(2, 2, 0.4, seed=2))
    pruned = next(
        Word(2, 2, (a,)) for a in range(4) if not t.is_retained(Word(2, 2, (a,)))
    )
    with pytest.raises(ValueError):
        x_estimate(t, pruned, 3)


def test_martingale_recursion_is_exact():
    """X(word, t) == sum over children of k^-d X(child, t-1), residual < 1e-12.

    The identity is an integer statement (counts add up) divided by a common
    power, so the float residual must sit at rounding noise.
    """
    worst = 0.0
    for seed in range(30):
        cfg = PercolationConfig(2, 2, 0.75, seed=seed)
        t = LazyTree(cfg)
        d = dimension(cfg)
        factor = 2.0 ** (-d)
        for digits in [(), (0,), (3,), (1, 2)]:
            w = Word(2, 2, digits)
            if not t.is_retained(w):
                continue
            parent = x_estimate(t, w, 4)
            kids = 0.0
            for c in range(4):
                child = w.child(c)
                if t.is_retained(child):
                    kids += factor * x_estimate(t, child, 3)
            worst = max(worst, abs(parent - kids))
    assert worst < 1e-12


def test_mass_grid_total_matches_root_estimate():
    cfg = PercolationConfig(2, 2, 0.8, seed=6)
    t = LazyTree(cfg)
    root = Word.root(2, 2)
    grid = mass_grid(t, root, 4, 3)
    d = dimension(cfg)
    # total = X estimate at depth r+g, scaled to the root cube
    est = x_estimate(t, root, 7)
    assert grid.total == pytest.approx(est, rel=1e-12)
    assert float(grid.cells.sum()) == pytest.approx(grid.total, rel=1e-12)
    assert grid.side == 16


def test_mass_cells_support_equals_occupancy():
    from percolab import expand_occupancy

    cfg = PercolationConfig(2, 2, 0.7, seed=9)
    t = LazyTree(cfg)
    root = Word.root(2, 2)
    grid = mass_grid(t, root, 4, 2)
    occ = expand_occupancy(t, root, 4, 2)
    assert np.array_equal(grid.cells > 0, occ.cells)


def test_mass_grid_below_subword_scales_by_level():
    cfg = PercolationConfig(2, 2, 0.9, seed=3)
    t = LazyTree(cfg)
    w = next(
        Word(2, 2, (a,)) for a in range(4) if t.count_profile(Word(2, 2, (a,)), 5)[5]
    )
    grid = mass_grid(t, w, 3, 2)
    d = dimension(cfg)
    # each cell is count * k^-(level + r + g) d
    counts_total = t.count_profile(w, 5)[5]
    assert grid.total == pytest.approx(counts_total * 2.0 ** (-(1 + 3 + 2) * d))


def test_slice_mass_partitions_total():
    cfg = PercolationConfig(2, 2, 0.8, seed=12)
    t = LazyTree(cfg)
    grid = mass_grid(t, Word.root(2, 2), 3, 3)
    parts = [slice_mass(grid, axis=0, bounds=(i, i + 1)) for i in range(8)]
    assert sum(parts) == pytest.approx(grid.total, rel=1e-12)
    assert slice_mass(grid, axis=1, bounds=(0, 8)) == pytest.approx(grid.total)


def test_slice_mass_validates_bounds():
    cfg = PercolationConfig(2, 2, 0.8, seed=12)
    grid = mass_grid(LazyTree(cfg), Word.root(2, 2), 3, 1)
    with pytest.raises(ValueError):
        slice_mass(grid, axis=2, bounds=(0, 1))
    with pytest.raises(ValueError):
        slice_mass(grid, axis=0, bounds=(3, 2))
    with pytest.raises(ValueError):
        slice_mass(grid, axis=0, bounds=(0, 9))
