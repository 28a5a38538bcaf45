"""Dimension arithmetic, martingale recursion, mass grids and slices."""

import itertools
import math

import pytest

from helpers import x_estimate
from percolab import LazyTree, PercolationConfig, dimension
from percolab.experiments import _slice_worker
from percolab.percolation import (
    cell_of_digits,
    descendant_counts,
    grid_from_digit_order,
    mass_factor,
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
    est = x_estimate(t, (), 5)
    d = dimension(cfg)
    count = t.count_profile((), 5)[5]
    assert est == pytest.approx(count * 2.0 ** (-5 * d))


def test_x_estimate_rejects_pruned_word():
    t = LazyTree(PercolationConfig(2, 2, 0.4, seed=2))
    pruned = next((a,) for a in range(4) if not t.is_retained((a,)))
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
        for w in [(), (0,), (3,), (1, 2)]:
            if not t.is_retained(w):
                continue
            parent = x_estimate(t, w, 4)
            kids = 0.0
            for c in range(4):
                child = w + (c,)
                if t.is_retained(child):
                    kids += factor * x_estimate(t, child, 3)
            worst = max(worst, abs(parent - kids))
    assert worst < 1e-12


def _mass_grid(tree, root, r, g):
    """Per-cell mass estimates under ``root`` and their total."""
    cfg = tree.config
    counts = descendant_counts(tree, root, r, g)
    factor = mass_factor(cfg, len(root) + r + g)
    return grid_from_digit_order(counts, cfg.m, cfg.k, r) * factor, counts.sum() * factor


def test_mass_grid_total_matches_root_estimate():
    cfg = PercolationConfig(2, 2, 0.8, seed=6)
    t = LazyTree(cfg)
    root = ()
    cells, total = _mass_grid(t, root, 4, 3)
    # total = X estimate at depth r+g, scaled to the root cube
    est = x_estimate(t, root, 7)
    assert total == pytest.approx(est, rel=1e-12)
    assert float(cells.sum()) == pytest.approx(total, rel=1e-12)
    assert cells.shape == (16, 16)


def test_mass_cells_support_equals_occupancy():
    cfg = PercolationConfig(2, 2, 0.7, seed=9)
    t = LazyTree(cfg)
    root = ()
    cells, _ = _mass_grid(t, root, 4, 2)
    # a cell carries mass iff some line survives 2 levels below its word
    for digits in itertools.product(range(4), repeat=4):
        alive = t.count_profile(digits, 2)[2] > 0
        assert (cells[cell_of_digits(digits, 2, 2)] > 0) == alive


def test_mass_grid_below_subword_scales_by_level():
    cfg = PercolationConfig(2, 2, 0.9, seed=3)
    t = LazyTree(cfg)
    w = next((a,) for a in range(4) if t.count_profile((a,), 5)[5])
    _, total = _mass_grid(t, w, 3, 2)
    d = dimension(cfg)
    # each cell is count * k^-(level + r + g) d
    counts_total = t.count_profile(w, 5)[5]
    assert total == pytest.approx(counts_total * 2.0 ** (-(1 + 3 + 2) * d))


def test_slice_mass_partitions_total():
    cfg = PercolationConfig(2, 2, 0.8, seed=12)
    # the slab counts of slice_decay's replica 0 at resolution 3, probe depth 3
    for axis in (0, 1):
        rows = [_slice_worker((cfg, (3,), 3, axis, i, 0))[0] for i in range(8)]
        total = rows[0][0]
        assert total > 0 and all(t == total for t, _ in rows)
        assert sum(slab for _, slab in rows) == total
