"""Brute-force oracles that pin the fast kernels, and test-side statistics.

The oracles are written directly from the definitions (enumerate all
windows / blocks), deliberately sharing no code with the package kernels.
The statistics at the end (a cube's mass estimate, running means, the
discrepancy indicators) are composed from the package's public pieces;
only tests read them.
"""

import math
import shutil

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from percolab import _native, rng
from percolab.percolation import mass_factor


def brute_max_empty_block(occ: np.ndarray) -> int:
    """Largest a such that some a x ... x a window is entirely empty."""
    occ = np.asarray(occ, dtype=bool)
    best = 0
    for a in range(1, min(occ.shape) + 1):
        windows = sliding_window_view(occ, (a,) * occ.ndim)
        flat = windows.reshape(windows.shape[: occ.ndim] + (-1,))
        if (~flat.any(axis=-1)).any():
            best = a
    return best


def brute_empty_block_sides(occ: np.ndarray) -> np.ndarray:
    """Per-cell oracle for the empty-block map (block's highest corner at the cell)."""
    occ = np.asarray(occ, dtype=bool)
    out = np.zeros(occ.shape, dtype=np.int64)
    for idx in np.ndindex(*occ.shape):
        best = 0
        cap = min(idx) + 1  # block must fit inside the grid
        for a in range(1, cap + 1):
            block = occ[tuple(slice(i - a + 1, i + 1) for i in idx)]
            if block.any():
                break
            best = a
        out[idx] = best
    return out


def brute_min_window_sum(cells: np.ndarray, a: int) -> float:
    cells = np.asarray(cells, dtype=np.float64)
    windows = sliding_window_view(cells, (a,) * cells.ndim)
    flat = windows.reshape(windows.shape[: cells.ndim] + (-1,))
    return float(flat.sum(axis=-1).min())


def hole_bracket(occ: np.ndarray, alpha: float, center=None):
    """(lower, upper) set-hole indicators of one grid at relative scale alpha.

    lower: an empty block at least ceil(alpha * side) cells wide exists with
    the center cell (default: the grid's middle) counted as occupied; upper:
    an empty block one cell narrower exists anywhere.
    """
    occ = np.asarray(occ, dtype=bool)
    side = occ.shape[0]
    center = (side // 2,) * occ.ndim if center is None else tuple(center)
    need = math.ceil(alpha * side - 1e-9)
    forced = occ.copy()
    forced[center] = True
    return int(brute_max_empty_block(forced) >= need), int(brute_max_empty_block(occ) >= need - 1)


def _ball_cells(grid: np.ndarray, center, radius_cells: float) -> np.ndarray:
    """The cells [t, t+1) inside the sup-metric ball of radius ``radius_cells``
    around the center cell's midpoint, clipped to the grid."""
    r = radius_cells
    return grid[
        tuple(
            slice(max(0, math.ceil(c + 0.5 - r)), min(n, math.floor(c + 0.5 + r)))
            for c, n in zip(center, grid.shape)
        )
    ]


def ball_box_sweep(counts: np.ndarray, center):
    """The ball box's minimum window count for every side, and its count.

    The box is sliced out of the grid (radius a quarter of the grid's first
    extent) and every window of every side in it is summed directly; entry
    0 of the sweep is 0 and the sweep runs to the box's narrowest extent.
    """
    counts = np.asarray(counts, dtype=np.int64)
    box = _ball_cells(counts, center, counts.shape[0] / 4.0)
    sweep = [0] + [int(brute_min_window_sum(box, a)) for a in range(1, min(box.shape) + 1)]
    return np.array(sweep, dtype=np.int64), int(box.sum())


def ball_set_porosity(occ: np.ndarray, center, radius_cells: float) -> float:
    """Set porosity of the ball, its center cell counted as occupied.

    An empty block of side a in the ball's box holds a sub-ball of radius a/2.
    """
    occ = np.array(occ, dtype=bool)
    occ[tuple(center)] = True
    box = _ball_cells(occ, center, radius_cells)
    return min(1.0, 0.5 * brute_max_empty_block(box) / radius_cells)


def ball_measure_porosity(counts: np.ndarray, center, radius_cells: float, eps: float) -> float:
    """Measure porosity of the ball: its widest window of at most eps of its mass.

    Every window of every side in the ball's box is summed directly; a
    window of side a holds a sub-ball of radius a/2.
    """
    box = _ball_cells(np.asarray(counts, dtype=np.int64), center, radius_cells)
    limit = eps * int(box.sum())
    best = 0
    for a in range(1, min(box.shape) + 1):
        windows = sliding_window_view(box, (a,) * box.ndim)
        sums = windows.reshape(windows.shape[: box.ndim] + (-1,)).sum(axis=-1)
        if (sums <= limit).any():
            best = a
    return min(1.0, 0.5 * best / radius_cells)


def pack_all_grids(side: int) -> np.ndarray:
    """All 2^(side*side) binary side x side grids, batch axis first.

    Grid i holds bit j of i at cell divmod(j, side).
    """
    n = side * side
    codes = np.arange(1 << n, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1
    return bits.reshape(1 << n, side, side).astype(bool)


def require_compiler():
    """Skip the calling test where no C compiler can build the compiled body."""
    if shutil.which(_native._COMPILE[0]) is None:
        pytest.skip("no C compiler: the compiled body cannot be built")


def native_loops(tmp_path):
    """The compiled loops, which must build, load and pass their check
    wherever a C compiler is on the PATH, so that a broken ``_splitmix.c``
    fails here instead of falling back to numpy; without a compiler the
    test is skipped."""
    loops = rng._loops() or _native._load(tmp_path)  # the package's cache may be read-only
    if loops is None:
        require_compiler()
    assert loops is not None, "the compiled body did not build, load or pass its check"
    return loops


def unmix64(y: int) -> int:
    """Inverse of the splitmix64 finalizer: mix64(unmix64(y)) == y.

    Each xorshift x ^ (x >> s) is undone by iterating x = y ^ (x >> s), which
    fixes s more top bits per round, and each odd multiplier by its inverse
    mod 2^64.
    """
    mask = (1 << 64) - 1

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    y = unshift(y & mask, 31)
    y = (y * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    y = unshift(y, 27)
    y = (y * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    return unshift(y, 30)


# -- test-side statistics --------------------------------------------------------


def x_estimate(tree, digits, probe_depth: int) -> float:
    """Depth-``probe_depth`` martingale estimate at the cell at ``digits``:
    its retained count ``probe_depth`` levels below, times ``mass_factor``.

    Raises ValueError on a pruned cell: a discarded cube carries no mass and
    has no martingale to estimate.
    """
    profile = tree.count_profile(digits, probe_depth)
    if profile[0] == 0:
        raise ValueError(f"cell {digits} is pruned; x_estimate needs a retained cell")
    return profile[probe_depth] * mass_factor(tree.config, probe_depth)


def running_mean(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.cumsum(values) / np.arange(1, len(values) + 1)


def discrepancy(path, alpha: float, eps: float, delta: float) -> np.ndarray:
    """Per-scale indicators of measure holes invisible to the set bracket:
    a measure hole at alpha where no set hole at alpha - delta is unrefuted.
    """
    if not 0.0 < delta < alpha:
        raise ValueError("delta must lie strictly between 0 and alpha")
    v = path.measure_hole(alpha, eps)
    up = path.set_hole_upper(alpha - delta)
    return (v & (1 - up)).astype(np.int8)
