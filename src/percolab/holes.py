"""Exact grid kernels for holes, window masses, and ball porosities.

Everything here is deterministic geometry on dense grids:

* largest empty axis-aligned block (dynamic program, any dimension),
* minimum window sums of a mass grid (sliding cumsum windows),
* certified hole brackets at a fraction alpha of the grid side,
* measure-hole indicators (windows of negligible mass),
* porosities of k-adic balls around a marked center cell.

Conventions.  A "block" of side a is a cube of a^m cells.  An occupancy
grid's False cells are conclusively dead (pruning is hereditary), so an
empty block certifies a genuine gap of the limit set; a True cell may still
die deeper down, which is why set holes come as lower/upper pairs.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ZeroMassError
from .grids import MassGrid, OccupancyGrid

# -- largest empty block -----------------------------------------------------


def _neighbor_min(prev: np.ndarray, spatial: int) -> np.ndarray:
    """Elementwise min of ``prev`` over all low-side unit shifts.

    Covers every subset of the first ``spatial`` axes (identity included);
    cells shifted in from outside count as zero.
    """
    res = prev
    for mask in range(1, 1 << spatial):
        shifted = np.zeros_like(prev)
        dst = [slice(None)] * prev.ndim
        src = [slice(None)] * prev.ndim
        for axis in range(spatial):
            if (mask >> axis) & 1:
                dst[axis] = slice(1, None)
                src[axis] = slice(None, -1)
        shifted[tuple(dst)] = prev[tuple(src)]
        res = np.minimum(res, shifted)
    return res


def _dp_empty_side(occupied: np.ndarray, ext: np.ndarray, spatial: int) -> np.ndarray:
    """Capped empty-block dynamic program.

    Returns s with s[c] = 0 on occupied cells and otherwise
    min(ext[c], 1 + min over the 2^spatial - 1 backward neighbors of s),
    zero outside the grid.  Axes beyond ``spatial`` are batch axes.

    The recursion peels off axis 0: scanning row i, the usual backward
    neighborhood splits into same-row neighbors (handled by the
    (spatial-1)-dimensional subproblem) and row i-1 neighbors, whose
    contribution only enters as a per-cell cap min(ext, 1 + neighbor-min).
    The one-dimensional base case s[j] = min(b[j], 1 + s[j-1]) (with
    b[t] = 0 on occupied cells, ext[t] elsewhere, s[-1] = 0) unrolls to the
    prefix-scan closed form s[j] = (j + 1) + min(0, min_{t <= j} (b[t] - t - 1)).
    """
    n = occupied.shape[0]
    if spatial == 1:
        j = np.arange(n).reshape((n,) + (1,) * (occupied.ndim - 1))
        b = np.where(occupied, 0, ext)
        run = np.minimum.accumulate(b - j - 1, axis=0)
        return (j + 1) + np.minimum(0, run)
    out = np.empty(occupied.shape, dtype=np.int64)
    prev = np.zeros(occupied.shape[1:], dtype=np.int64)
    for i in range(n):
        cap = np.minimum(ext[i], 1 + _neighbor_min(prev, spatial - 1))
        prev = _dp_empty_side(occupied[i], cap, spatial - 1)
        out[i] = prev
    return out


def empty_block_sides(occupied: np.ndarray, spatial: Optional[int] = None) -> np.ndarray:
    """Per-cell DP map: side of the largest empty block ending at each cell.

    "Ending at" means the cell is the block's highest corner along every
    spatial axis.  Trailing axes beyond ``spatial`` are independent batch
    problems.
    """
    occ = np.asarray(occupied, dtype=bool)
    if spatial is None:
        spatial = occ.ndim
    if spatial < 1 or spatial > occ.ndim:
        raise ValueError(f"spatial axis count {spatial} out of range")
    if 0 in occ.shape[:spatial]:
        return np.zeros(occ.shape, dtype=np.int64)
    big = max(occ.shape[:spatial]) + 1
    ext = np.full(occ.shape, big, dtype=np.int64)
    return _dp_empty_side(occ, ext, spatial)


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


def window_sums(cells: np.ndarray, a: int) -> np.ndarray:
    """Sums over every a x ... x a window fully inside the grid."""
    if a < 1:
        raise ValueError("window size must be >= 1")
    arr = np.asarray(cells, dtype=np.float64)
    for axis in range(arr.ndim):
        if a > arr.shape[axis]:
            raise ValueError(
                f"window size {a} exceeds grid extent {arr.shape[axis]} on axis {axis}"
            )
        c = np.cumsum(arr, axis=axis)
        pad_shape = list(c.shape)
        pad_shape[axis] = 1
        padded = np.concatenate([np.zeros(pad_shape), c], axis=axis)
        lead = [slice(None)] * arr.ndim
        trail = [slice(None)] * arr.ndim
        lead[axis] = slice(a, None)
        trail[axis] = slice(None, padded.shape[axis] - a)
        arr = padded[tuple(lead)] - padded[tuple(trail)]
    return arr


def min_window_sum(cells, a: int) -> float:
    """Smallest total mass among all windows of side ``a``."""
    return float(window_sums(cells, a).min())


def window_min_sweep(cells) -> np.ndarray:
    """Minimum window sums for every size at once.

    Entry [a] is the minimum over windows of side a, for a up to the
    smallest grid extent; entry [0] is 0 (the empty window).  The sequence
    is nondecreasing, since every window contains one of each smaller size.
    """
    arr = np.asarray(cells, dtype=np.float64)
    width = min(arr.shape)
    out = np.zeros(width + 1, dtype=np.float64)
    for a in range(1, width + 1):
        out[a] = window_sums(arr, a).min()
    return out


# -- hole certificates -------------------------------------------------------


def cells_threshold(alpha: float, side: int) -> int:
    """Cells needed so a block spans at least an ``alpha`` fraction of the side.

    Computed as ceil(alpha * side) with a 1e-9 absolute back-off so that
    products that are integers up to float noise (0.05 * 5 * 64, say) do
    not get bumped to the next integer.
    """
    return max(0, math.ceil(alpha * side - 1e-9))


def set_hole_indicators(a_star, restricted, thresholds) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper) set-hole indicators from block sides and cell thresholds.

    lower = [restricted >= thr] (an empty block avoiding the center cell is
    at least thr cells wide); upper = [a_star >= thr - 1].  The arguments
    broadcast against each other, so one call serves a single grid, a
    ladder of thresholds, or a stack of scales; results are int8.
    """
    thresholds = np.asarray(thresholds)
    lower = (np.asarray(restricted) >= thresholds).astype(np.int8)
    upper = (np.asarray(a_star) >= thresholds - 1).astype(np.int8)
    return lower, upper


def hole_bracket(
    grid: OccupancyGrid, alpha: float, center: Optional[Sequence[int]] = None
) -> Tuple[int, int]:
    """(lower, upper) indicators that the grid has an alpha-scale hole.

    lower = 1 certifies a gap: an empty block of at least ceil(alpha * side)
    cells avoiding the center cell exists, and empty cells are conclusive.
    upper = 1 merely fails to rule the hole out at this probe depth; it asks
    for one cell less, absorbing the half-open slack of the discretization
    (ceil(alpha k^r) - 1 = ceil((alpha - k^-r) k^r) for non-degenerate
    alpha).  Always lower <= upper.  Deeper probes shrink the occupancy
    (alive cells may die, dead cells stay dead), so both indicators are
    nondecreasing in the probe depth.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    side = grid.side
    if center is None:
        center = (side // 2,) * grid.m
    lower, upper = set_hole_indicators(
        max_empty_block(grid.cells),
        restricted_max_empty_block(grid.cells, center),
        cells_threshold(alpha, side),
    )
    return int(lower), int(upper)


def measure_hole_indicator(grid: MassGrid, alpha: float, eps: float) -> int:
    """1 iff some alpha-scale window carries at most ``eps`` of the total mass."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    if grid.total <= 0.0:
        raise ZeroMassError("measure holes are undefined on a zero-mass grid")
    thr = cells_threshold(alpha, grid.side)
    if thr == 0:
        return 1
    return 1 if min_window_sum(grid.cells, thr) <= eps * grid.total else 0


def discrepancy_indicator(
    occupancy: OccupancyGrid,
    mass: MassGrid,
    alpha: float,
    eps: float,
    delta: float,
    center: Optional[Sequence[int]] = None,
) -> int:
    """1 when a measure hole at alpha is not even loosely visible as a set hole.

    The probe compares the measure hole at scale alpha against the upper set
    indicator at the slightly smaller scale alpha - delta; the product
    v * (1 - upper) isolates events where mass vanishes on a window that the
    occupancy pattern cannot explain yet.  Pointwise, measure_hole <=
    upper + discrepancy by construction.
    """
    if not 0.0 < delta < alpha:
        raise ValueError("delta must lie strictly between 0 and alpha")
    v = measure_hole_indicator(mass, alpha, eps)
    if v == 0:
        return 0
    _, upper = hole_bracket(occupancy, alpha - delta, center)
    return v * (1 - upper)


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
        lo.append(max(0, math.floor(c + 0.5 - radius_cells) + 1))
        hi.append(min(n - 1, math.ceil(c + 0.5 + radius_cells) - 2))
    return tuple(lo), tuple(hi)


def _box_view(cells: np.ndarray, lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
    index = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
    return cells[index]


def ball_set_porosity(
    occupancy: np.ndarray, center: Sequence[int], radius_cells: float
) -> float:
    """Normalized size of the largest certified gap inside the ball.

    An empty block of side a (the center cell is forced occupied: the
    marked point itself belongs to the set) contains a sub-ball of radius
    a/2 cells, so the porosity estimate is (a/2) / radius_cells, capped at
    1.  With radius side/4 this is the familiar 2a/side.
    """
    occ = np.asarray(occupancy, dtype=bool)
    lo, hi = ball_box(center, occ.shape, radius_cells)
    if any(h < l for l, h in zip(lo, hi)):
        return 0.0
    box = np.array(_box_view(occ, lo, hi), copy=True)
    box[tuple(int(c) - l for c, l in zip(center, lo))] = True
    a = max_empty_block(box)
    return min(1.0, 0.5 * a / radius_cells)


def ball_mass_sweep(
    mass_cells: np.ndarray, center: Sequence[int], radius_cells: float
) -> Tuple[float, np.ndarray]:
    """Ball mass and the minimum-window-sum sweep inside the ball's box.

    Returns (total mass of the box, sweep) with sweep[a] the smallest mass
    among size-a windows of the box; sweep has length min(box extents) + 1
    and is nondecreasing.
    """
    arr = np.asarray(mass_cells, dtype=np.float64)
    lo, hi = ball_box(center, arr.shape, radius_cells)
    if any(h < l for l, h in zip(lo, hi)):
        return 0.0, np.zeros(1, dtype=np.float64)
    box = _box_view(arr, lo, hi)
    return float(box.sum()), window_min_sweep(box)


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
    a = int(np.searchsorted(sweep, eps * ball_mass, side="right")) - 1
    return min(1.0, 0.5 * a / radius_cells)


def ball_measure_porosity(
    mass_cells: np.ndarray, center: Sequence[int], radius_cells: float, eps: float
) -> float:
    """Normalized size of the largest eps-light window inside the ball."""
    ball_mass, sweep = ball_mass_sweep(mass_cells, center, radius_cells)
    return porosity_from_sweep(sweep, ball_mass, eps, radius_cells)


def ball_porosities(
    occupancy: OccupancyGrid,
    mass: MassGrid,
    center: Sequence[int],
    eps_values: Sequence[float],
    radius_cells: Optional[float] = None,
) -> Tuple[float, np.ndarray]:
    """Set porosity and measure porosities (one per eps) of one ball.

    The default radius is a quarter of the grid side: at scale i the grid
    covers a cube of side k^-i, so this is the ball of radius k^-i / 4
    around the marked point.  The ball is not guaranteed to stay inside the
    cube: a center within a quarter side of a face puts part of it outside,
    and that part is clipped away (see ``ball_box``), so both porosities
    are taken over the ball's intersection with the cube.
    """
    if radius_cells is None:
        radius_cells = occupancy.side / 4.0
    set_por = ball_set_porosity(occupancy.cells, center, radius_cells)
    ball_mass, sweep = ball_mass_sweep(mass.cells, center, radius_cells)
    meas = np.array(
        [porosity_from_sweep(sweep, ball_mass, e, radius_cells) for e in eps_values],
        dtype=np.float64,
    )
    return set_por, meas


def por_conversion(value: float) -> float:
    """Map a porosity of the doubled ball onto the standard normalization.

    v -> v / (1 - v); defined for v in [0, 1), 1/2 maps to 1.
    """
    if not 0.0 <= value < 1.0:
        raise ValueError("conversion needs a value in [0, 1)")
    return value / (1.0 - value)
