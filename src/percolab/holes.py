"""Exact grid kernels for holes, window masses, and ball porosities.

Everything here is deterministic geometry on dense grids, and every window
sum is read off one summed-area table per grid (Crow, SIGGRAPH 1984; exact
int64 for integer and boolean grids):

* largest empty axis-aligned blocks (windows of sum 0, any dimension),
* minimum window sums of a count or mass grid, for every window side,
* porosities of k-adic balls around a marked center cell.

Conventions.  A "block" of side a is a cube of a^m cells.  A cell with no
retained count is conclusively dead (pruning is hereditary), so an empty
block certifies a genuine gap of the limit set; an occupied cell may still
die deeper down, which is why set holes come as lower/upper pairs.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ZeroMassError

# -- summed-area table -------------------------------------------------------


def _summed_table(cells: np.ndarray, spatial: int) -> np.ndarray:
    """The grid zero-padded on its low side, cumsummed over ``spatial`` axes.

    Entry [i, j, ...] is the sum of cells[:i, :j, ...]; axes beyond
    ``spatial`` are batch axes.  int64 for boolean or integer cells.
    """
    shape = tuple(n + 1 for n in cells.shape[:spatial]) + cells.shape[spatial:]
    table = np.zeros(shape, dtype=np.int64 if cells.dtype.kind in "biu" else np.float64)
    table[(slice(1, None),) * spatial] = cells
    for axis in range(spatial):
        np.add.accumulate(table, axis=axis, out=table)  # in-place cumsum
    return table


def _window_sums(table: np.ndarray, a: int, spatial: int) -> np.ndarray:
    """Sums over every side-``a`` window, entry [i, j, ...] at its lowest cell.

    Differencing the table at lag a along one axis at a time is the
    inclusion-exclusion formula over the window's 2^spatial corners.
    """
    for axis in range(spatial):
        lead = (slice(None),) * axis
        table = table[lead + (slice(a, None),)] - table[lead + (slice(None, -a),)]
    return table


# -- largest empty block -----------------------------------------------------


def empty_block_sides(occupied: np.ndarray, spatial: Optional[int] = None) -> np.ndarray:
    """Per-cell map: side of the largest empty block ending at each cell.

    "Ending at" means the cell is the block's highest corner along every
    spatial axis.  Trailing axes beyond ``spatial`` are independent batch
    problems.  An empty block contains the empty block of every smaller side
    ending at the same cell, so counting the empty windows of side 1, 2, ...
    that end at a cell gives its side; the count stops at the first side
    with no empty window anywhere.
    """
    occ = np.asarray(occupied, dtype=bool)
    if spatial is None:
        spatial = occ.ndim
    if spatial < 1 or spatial > occ.ndim:
        raise ValueError(f"spatial axis count {spatial} out of range")
    sides = np.zeros(occ.shape, dtype=np.int64)
    table = _summed_table(occ, spatial)
    for a in range(1, min(occ.shape[:spatial]) + 1):
        empty = _window_sums(table, a, spatial) == 0
        if not empty.any():
            break
        sides[(slice(a - 1, None),) * spatial] += empty
    return sides


def max_empty_block(occupied, spatial: Optional[int] = None):
    """Side of the largest fully empty block in the grid.

    With batch axes present, returns one maximum per batch element;
    otherwise a plain int.
    """
    occ = np.asarray(occupied, dtype=bool)
    if spatial is None:
        spatial = occ.ndim
    sides = empty_block_sides(occ, spatial)
    if spatial == occ.ndim:
        return int(sides.max()) if sides.size else 0
    return sides.max(axis=tuple(range(spatial)))


def restricted_max_empty_block(occupied, center: Sequence[int]) -> int:
    """Largest empty block when the center cell is forced occupied.

    This is the certificate relevant to holes of a ball around a set point:
    the point's own cell can never belong to the gap.  When the center cell
    is already occupied this equals ``max_empty_block`` exactly.
    """
    occ = np.array(occupied, dtype=bool, copy=True)
    occ[tuple(int(c) for c in center)] = True
    return max_empty_block(occ)


# -- window sums -------------------------------------------------------------


def window_min_sweep(cells) -> np.ndarray:
    """Minimum window sums for every size at once.

    Entry [a] is the minimum over windows of side a, for a up to the
    smallest grid extent; entry [0] is 0 (the empty window).  The sequence
    is nondecreasing, since every window contains one of each smaller size.
    Integer cells give exact int64 sums, anything else float64.
    """
    arr = np.asarray(cells)
    table = _summed_table(arr, arr.ndim)
    width = min(arr.shape)
    out = np.zeros(width + 1, dtype=table.dtype)
    for a in range(1, width + 1):
        out[a] = _window_sums(table, a, arr.ndim).min()
    return out


# -- hole certificates -------------------------------------------------------


def cells_threshold(alpha: float, side: int) -> int:
    """Cells needed so a block spans at least an ``alpha`` fraction of the side.

    Computed as ceil(alpha * side) with a 1e-9 absolute back-off so that
    products that are integers up to float noise (0.05 * 5 * 64, say) do
    not get bumped to the next integer.
    """
    return max(0, math.ceil(alpha * side - 1e-9))


def set_hole_indicators(a_star, thresholds) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper) set-hole indicators from block sides and cell thresholds.

    lower = [a_star >= thr] (an empty block at least thr cells wide);
    upper = [a_star >= thr - 1], one cell less to absorb the half-open slack
    of the discretization.  The certified lower needs a block avoiding the
    center cell: pass ``restricted_max_empty_block`` when the center may be
    empty, or ``a_star`` itself when it is occupied, as on every path scale
    and every alive ensemble word.  The arguments broadcast against each
    other, so one call serves a single grid, a ladder of thresholds, or a
    stack of scales; results are int8.
    """
    thresholds = np.asarray(thresholds)
    lower = (np.asarray(a_star) >= thresholds).astype(np.int8)
    upper = (np.asarray(a_star) >= thresholds - 1).astype(np.int8)
    return lower, upper


def measure_hole_indicators(sweep, thresholds, eps) -> np.ndarray:
    """Measure-hole indicators from a window sweep and cell thresholds.

    ``sweep[..., a]`` is the minimum sum over side-a windows and its last
    entry is the grid total, as ``window_min_sweep`` gives for a cube grid;
    leading axes are batch axes.  The indicator is [sweep[thr] <= eps *
    total]: some window thr cells wide carries at most eps of the mass.
    Entry 0 of a sweep is 0, so thr = 0 gives 1 for every eps >= 0.
    ``thresholds`` and ``eps`` broadcast against each other and append
    their shape to the batch axes; results are int8.
    """
    sweep = np.asarray(sweep)
    thresholds, eps = np.broadcast_arrays(thresholds, eps)
    total = sweep[..., -1].reshape(sweep.shape[:-1] + (1,) * thresholds.ndim)
    if np.any(total <= 0):
        raise ZeroMassError("measure holes are undefined on a zero-mass grid")
    return (sweep[..., thresholds] <= eps * total).astype(np.int8)


# -- ball porosities ---------------------------------------------------------


def ball_box(
    center: Sequence[int], shape: Sequence[int], radius_cells: float
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Largest cell box inside the sup-metric ball around a cell's midpoint.

    The ball has radius ``radius_cells`` (cell units) around the center
    cell's midpoint c + 1/2; a cell [t, t+1) lies inside iff
    t >= c + 1/2 - radius and t + 1 <= c + 1/2 + radius.  Bounds are clipped
    to the grid, so balls near the boundary lose their outside part.
    Returns inclusive (lo, hi) index tuples; hi < lo on an axis means the
    ball is too small to contain any whole cell.
    """
    lo = []
    hi = []
    for c, n in zip(center, shape):
        lo.append(max(0, math.ceil(c + 0.5 - radius_cells)))
        hi.append(min(n - 1, math.floor(c + 0.5 + radius_cells) - 1))
    return tuple(lo), tuple(hi)


def _gap_porosity(sweep: np.ndarray, limit: float, radius_cells: float) -> float:
    """(a/2) / radius_cells for the largest side a whose minimum is <= limit.

    A gap of side a contains a sub-ball of radius a/2 cells; capped at 1.
    Size 0 always qualifies.
    """
    a = int(np.searchsorted(sweep, limit, side="right")) - 1
    return min(1.0, 0.5 * a / radius_cells)


def porosity_from_sweep(
    sweep: np.ndarray, ball_mass: float, eps: float, radius_cells: float
) -> float:
    """Measure porosity from a precomputed window sweep.

    The largest window size whose minimal mass is at most eps * ball_mass
    plays the role of the gap side; size 0 always qualifies, so the result
    is 0 when no window is light enough.
    """
    if ball_mass <= 0.0:
        raise ZeroMassError("measure porosity is undefined for a massless ball")
    return _gap_porosity(sweep, eps * ball_mass, radius_cells)


def ball_porosities(
    counts: np.ndarray,
    center: Sequence[int],
    eps_values: Sequence[float],
) -> Tuple[float, np.ndarray]:
    """Set porosity and measure porosities (one per eps) of one ball.

    ``counts`` is a grid of retained counts (mass is proportional to them,
    and a cell is occupied iff its count is positive), so one integer sweep
    of the ball's box answers both: the set gap is the largest window side
    whose minimum count is 0, the measure gap the largest whose minimum is
    at most eps times the box count.  The center cell must have a positive
    count -- the marked point belongs to the set -- so no forcing is needed.

    The radius is a quarter of the grid side: at scale i the grid
    covers a cube of side k^-i, so this is the ball of radius k^-i / 4
    around the marked point.  The ball is not guaranteed to stay inside the
    cube: a center within a quarter side of a face puts part of it outside,
    and that part is clipped away (see ``ball_box``), so both porosities
    are taken over the ball's intersection with the cube.
    """
    counts = np.asarray(counts)
    radius_cells = counts.shape[0] / 4.0
    if not counts[tuple(int(c) for c in center)] > 0:
        raise ValueError(f"center cell {tuple(center)} has no retained count")
    lo, hi = ball_box(center, counts.shape, radius_cells)
    box = counts[tuple(slice(l, h + 1) for l, h in zip(lo, hi))]
    sweep, total = window_min_sweep(box), box.sum()
    meas = np.array(
        [porosity_from_sweep(sweep, total, e, radius_cells) for e in eps_values],
        dtype=np.float64,
    )
    return _gap_porosity(sweep, 0, radius_cells), meas
