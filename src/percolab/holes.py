"""Exact grid kernels for holes, window masses, and ball porosities.

Everything here is deterministic geometry on dense grids, and every window
sum is read off a summed-area table (Crow, SIGGRAPH 1984; exact integers
for integer and boolean grids):

* largest empty axis-aligned blocks (windows of sum 0, any dimension),
* minimum window sums of a count or mass grid, for every window side,
* porosities of k-adic balls around a marked center cell.

Batch axes lead.  Every kernel reads a grid's spatial axes last and any
axes before them as a batch of independent grids, so a batch is
``np.stack(grids)``.  A path stacks its scales' count grids that way and
``stack_geometry`` sweeps the whole stack off one table: one pass over the
window sides gives every grid's window sweep and every ball box's sweep.
``window_min_sweep`` and ``ball_porosities`` are that sweep on a stack of
one grid.

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

_PAD = np.iinfo(np.int64).max  # fills each ball sweep past its box's width

# -- summed-area table -------------------------------------------------------


def _summed_table(cells: np.ndarray, axes: range) -> np.ndarray:
    """The grid zero-padded on its low side, cumsummed over the spatial ``axes``.

    Entry [i, j, ...] of the spatial axes is the sum of cells[:i, :j, ...];
    every other axis is a batch axis.  Boolean or integer cells give exact
    integers in the narrowest of int16, int32 and int64 that holds a grid's
    cell count times its largest absolute cell: no entry and no window sum
    can then overflow, and a narrower table means less memory for every
    window sum to read.  Anything else gives float64.
    """
    pad = tuple(slice(1, None) if axis in axes else slice(None) for axis in range(cells.ndim))
    shape = tuple(n + (axis in axes) for axis, n in enumerate(cells.shape))
    dtype = np.float64
    if cells.dtype.kind in "biu":
        reach = max(int(cells.max(initial=0)), -int(cells.min(initial=0)))
        bound = reach * math.prod(cells.shape[axis] for axis in axes)
        dtype = next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    table = np.zeros(shape, dtype=dtype)
    table[pad] = cells
    for axis in axes:
        np.add.accumulate(table, axis=axis, out=table)  # in-place cumsum
    return table


def _window_sums(table: np.ndarray, a: int, axes: range, scratch) -> np.ndarray:
    """Sums over every side-``a`` window, entry [i, j, ...] at its lowest cell.

    Differencing the table at lag a along one spatial axis at a time is the
    inclusion-exclusion formula over the window's 2^m corners.  The
    differences alternate between the two rows of ``scratch`` (2 x the
    table's size, of its dtype), so a sweep over every side allocates
    nothing; the result is a view into one of them.
    """
    for i, axis in enumerate(axes):
        lead = (slice(None),) * axis
        high, low = table[lead + (slice(a, None),)], table[lead + (slice(None, -a),)]
        table = np.subtract(high, low, out=scratch[i % 2][: high.size].reshape(high.shape))
    return table


# -- largest empty block -----------------------------------------------------


def empty_block_sides(occupied: np.ndarray, spatial: Optional[int] = None) -> np.ndarray:
    """Per-cell map: side of the largest empty block ending at each cell.

    "Ending at" means the cell is the block's highest corner along every
    spatial axis.  The last ``spatial`` axes are spatial and any leading
    axes are independent batch problems.  An empty block contains the empty
    block of every smaller side ending at the same cell, so counting the
    empty windows of side 1, 2, ... that end at a cell gives its side; the
    count stops at the first side with no empty window anywhere.  The count
    runs in the narrowest unsigned type that holds the smallest extent; the
    map is int64.
    """
    occ = np.asarray(occupied, dtype=bool)
    if spatial is None:
        spatial = occ.ndim
    if spatial < 1 or spatial > occ.ndim:
        raise ValueError(f"spatial axis count {spatial} out of range")
    axes = range(occ.ndim - spatial, occ.ndim)
    width = min(occ.shape[axes.start :])
    sides = np.zeros(occ.shape, dtype=np.min_scalar_type(width))
    table = _summed_table(occ, axes)
    scratch = np.empty((2, table.size), table.dtype)
    for a in range(1, width + 1):
        empty = _window_sums(table, a, axes, scratch) == 0
        if not empty.any():
            break
        sides[(Ellipsis,) + (slice(a - 1, None),) * spatial] += empty
    return sides.astype(np.int64)


def max_empty_block(occupied, spatial: Optional[int] = None):
    """Side of the largest fully empty block in the grid.

    With leading batch axes before the last ``spatial`` axes, returns one
    maximum per batch element; otherwise a plain int.
    """
    sides = empty_block_sides(occupied, spatial)
    if spatial in (None, sides.ndim):
        return int(sides.max()) if sides.size else 0
    return sides.max(axis=tuple(range(sides.ndim - spatial, sides.ndim)))


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
    Integer cells give exact int64 sums, anything else float64.  This is
    ``stack_geometry``'s sweep on a stack of one grid.
    """
    return _stack_sweeps(np.asarray(cells)[None])[0][0]


def _stack_sweeps(stack: np.ndarray, centers: Sequence = ()) -> Tuple[np.ndarray, ...]:
    """Window sweeps of a stack of grids, and of the ball box in each, off one table.

    ``stack`` holds its grids along axis 0, and ``centers`` is empty or
    holds one center cell per grid.  Returns each grid's window sweep (as
    ``window_min_sweep``), each ball box's sweep, padded with ``_PAD`` past
    the box's narrowest extent to min(width, side // 2) + 1 entries, and
    each box's count (see ``ball_porosities``).  One loop over the window
    side a serves them all: a box's side-a windows are the grid's side-a
    windows whose lowest cell lies in lo .. hi - a (hi exclusive), and a
    box's count is the sum of the box sliced out of the stack, exact for
    integer stacks.  The stack axis comes first, so each grid's minimum
    reduces one contiguous run.
    """
    n, shape = stack.shape[0], stack.shape[1:]
    axes = range(1, stack.ndim)
    table = _summed_table(stack, axes)
    scratch = np.empty((2, table.size), table.dtype)
    width = min(shape)
    boxes = []  # (lo, hi) per axis, hi exclusive; an empty box has no window
    for center in np.asarray(centers).tolist():
        lo, hi = ball_box(center, shape, shape[0] / 4.0)
        boxes.append([(l, max(l, h + 1)) for l, h in zip(lo, hi)])
    extents = [min(h - l for l, h in box) for box in boxes]
    dtype = np.float64 if table.dtype.kind == "f" else np.int64
    sweeps = np.zeros((n, width + 1), dtype=dtype)
    balls = np.full((len(boxes), min(width, shape[0] // 2) + 1), _PAD, dtype=dtype)
    balls[:, 0] = 0
    for a in range(1, width + 1):
        sums = _window_sums(table, a, axes, scratch)
        sweeps[:, a] = sums.reshape(n, -1).min(axis=1)
        for j, (box, extent) in enumerate(zip(boxes, extents)):
            if extent >= a:
                balls[j, a] = sums[(j,) + tuple(slice(l, h + 1 - a) for l, h in box)].min()
    boxed = [grid[tuple(slice(l, h) for l, h in box)] for grid, box in zip(stack, boxes)]
    counts = np.array([cells.sum() for cells in boxed], dtype=dtype)
    return sweeps, balls, counts


def stack_geometry(stack: np.ndarray, centers) -> Tuple[np.ndarray, ...]:
    """Every per-scale geometry record of a stack of cube count grids.

    ``stack`` holds n count grids along axis 0 and ``centers`` (n, m) their
    marked cells.  Returns, per grid, the largest empty block (from one
    ``max_empty_block`` call on the stack), the window sweep, and the ball
    box's sweep, padded with ``_PAD`` to side // 2 + 1 entries, and count.
    """
    return (max_empty_block(stack, stack.ndim - 1),) + _stack_sweeps(stack, centers)


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


def gap_porosity(sweep, limit, radius_cells: float) -> np.ndarray:
    """(a/2) / radius_cells for the largest side a whose minimum is <= limit.

    ``sweep`` holds nondecreasing window minima along its last axis (right
    padding with larger values changes nothing); it and ``limit`` broadcast
    over the other axes, with ``limit`` carrying a trailing length-1 axis
    when it has batch axes of its own.  A gap of side a contains a sub-ball
    of radius a/2 cells; capped at 1.  Size 0 always qualifies.
    """
    a = (np.asarray(sweep) <= limit).sum(axis=-1) - 1
    return np.minimum(1.0, 0.5 * a / radius_cells)


def ball_porosities(counts: np.ndarray, center: Sequence[int]) -> Tuple[np.ndarray, float]:
    """Window sweep and retained count of one ball's box, which hold both its porosities.

    ``counts`` is a grid of retained counts (mass is proportional to them,
    and a cell is occupied iff its count is positive), so one integer sweep
    of the ball's box answers both through ``gap_porosity``: the set gap is
    the largest window side whose minimum count is 0, the measure gap the
    largest whose minimum is at most eps times the box count.  The center
    cell must have a positive count -- the marked point belongs to the set
    -- so no forcing is needed, and the box count is positive.

    The radius is a quarter of the grid side: at scale i the grid
    covers a cube of side k^-i, so this is the ball of radius k^-i / 4
    around the marked point.  The ball is not guaranteed to stay inside the
    cube: a center within a quarter side of a face puts part of it outside,
    and that part is clipped away (see ``ball_box``), so both porosities
    are taken over the ball's intersection with the cube.  The box is at
    most side // 2 cells wide, so its sweep has at most side // 2 + 1
    entries: one per side up to the box's narrowest extent.  This is
    ``stack_geometry``'s ball sweep on a stack of one grid.  The box count
    keeps the grid's kind: an int for integer cells, a float for mass cells.
    """
    counts = np.asarray(counts)
    if not counts[tuple(int(c) for c in center)] > 0:
        raise ValueError(f"center cell {tuple(center)} has no retained count")
    _, balls, total = _stack_sweeps(counts[None], [center])
    return balls[0][balls[0] != _PAD], total[0].item()
