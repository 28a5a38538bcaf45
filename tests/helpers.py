"""Independent brute-force oracles used to pin the fast kernels.

Everything here is written directly from the definitions (enumerate all
windows / blocks), deliberately sharing no code with the package kernels.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def pack_all_grids(side: int) -> np.ndarray:
    """All 2^(side*side) binary side x side grids, batch axis last."""
    n = side * side
    codes = np.arange(1 << n, dtype=np.uint32)
    bits = (codes[None, :] >> np.arange(n, dtype=np.uint32)[:, None]) & 1
    return bits.reshape(side, side, 1 << n).astype(bool)
