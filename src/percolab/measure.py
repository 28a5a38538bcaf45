"""The natural mass carried by a percolation tree.

Conditioned on survival, the limit set has Hausdorff dimension
d = m + log(p)/log(k), and the branching process attaches to every retained
depth-j cube the mass k^(-j d) X, where X is the cube's martingale limit.
We estimate X for a cube by counting retained descendants g levels below it
and rescaling:

    x_hat(cube, g) = (retained count at depth g below cube) * k^(-g d).

The estimator has mean 1 for retained cubes, and it satisfies the same
additive recursion as the limit: the parent's estimate at depth t equals
k^(-d) times the sum of the children's estimates at depth t - 1, exactly
(the underlying identity is an integer one, so only float rounding of the
common rescale factor remains).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .grids import MassGrid, OccupancyGrid
from .percolation import LazyTree, PercolationConfig, descendant_counts, grid_from_digit_order
from .words import Word


def dimension(config: PercolationConfig) -> float:
    """Almost-sure dimension of the limit set given survival."""
    return config.m + math.log(config.p) / math.log(config.k)


def x_estimate(tree: LazyTree, word: Word, probe_depth: int) -> float:
    """Depth-``probe_depth`` martingale estimate at ``word``.

    Raises ValueError on a pruned word: a discarded cube carries no mass and
    has no martingale to estimate.
    """
    if not tree.is_retained(word):
        raise ValueError(f"{word} is pruned; x_estimate needs a retained word")
    count = tree.count_profile(word, probe_depth)[probe_depth]
    d = dimension(tree.config)
    return count * float(tree.config.k) ** (-probe_depth * d)


def count_grids(
    config: PercolationConfig,
    counts: np.ndarray,
    root: Word,
    resolution: int,
    probe_depth: int,
) -> Tuple[OccupancyGrid, MassGrid]:
    """Occupancy and mass grids from per-cell retained counts.

    ``counts`` holds, in digit order, the retained descendants
    ``probe_depth`` levels below each depth-``resolution`` cell under
    ``root``.  A cell is occupied when its count is positive, and its mass
    is its count times the common factor k^(-(|root| + resolution +
    probe_depth) d).
    """
    m, k = config.m, config.k
    d = dimension(config)
    factor = float(k) ** (-(root.level + resolution + probe_depth) * d)
    occupancy = OccupancyGrid(
        cells=grid_from_digit_order(counts > 0, m, k, resolution),
        root=root,
        resolution=resolution,
        probe_depth=probe_depth,
    )
    mass = MassGrid(
        cells=grid_from_digit_order(counts.astype(np.float64) * factor, m, k, resolution),
        root=root,
        resolution=resolution,
        probe_depth=probe_depth,
        total=float(counts.sum()) * factor,
    )
    return occupancy, mass


def expand_occupancy(
    tree: LazyTree, root: Word, resolution: int, probe_depth: int
) -> OccupancyGrid:
    """Grid of cells that still have retained lines probe_depth levels down.

    A False cell is conclusive: hereditary pruning means no limit-set point
    can sit over it.  A True cell may still die later, so the grid shrinks
    (cellwise) as probe_depth grows.
    """
    counts = descendant_counts(tree, root, resolution, probe_depth)
    return count_grids(tree.config, counts, root, resolution, probe_depth)[0]


def mass_grid(
    tree: LazyTree, root: Word, resolution: int, probe_depth: int
) -> MassGrid:
    """Mass estimates for every depth-``resolution`` cell under ``root``.

    Cell tau gets k^(-(|tau|) d) x_hat(tau, probe_depth), which works out to
    (retained count below tau) times one common factor, so the grid total
    equals the root's own deeper estimate k^(-|root| d) x_hat(root,
    resolution + probe_depth) exactly.
    """
    counts = descendant_counts(tree, root, resolution, probe_depth)
    return count_grids(tree.config, counts, root, resolution, probe_depth)[1]


def slice_mass(grid: MassGrid, axis: int, bounds: Tuple[int, int]) -> float:
    """Total mass of the slab bounds[0] <= index < bounds[1] along an axis."""
    lo, hi = bounds
    if not 0 <= axis < grid.m:
        raise ValueError(f"axis {axis} out of range for an {grid.m}-d grid")
    if not 0 <= lo <= hi <= grid.side:
        raise ValueError(f"slab bounds {bounds} out of range [0, {grid.side}]")
    index = [slice(None)] * grid.m
    index[axis] = slice(lo, hi)
    return float(grid.cells[tuple(index)].sum())
