"""Dense grid snapshots extracted from a sampled tree.

Both grids describe the k-adic subdivision of one base cell (``root``) into
``k**resolution`` cells per axis.  Occupancy is an approximation from above
that sharpens as ``probe_depth`` grows; mass cells hold the natural-measure
estimate carried by each subcell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import Word


@dataclass
class _Grid:
    cells: np.ndarray  # shape (side,) * m with side = k**resolution
    root: Word
    resolution: int
    probe_depth: int

    @property
    def side(self) -> int:
        return self.cells.shape[0]

    @property
    def m(self) -> int:
        return self.cells.ndim


@dataclass
class OccupancyGrid(_Grid):
    """Boolean grid: which cells still have live descendants probe_depth below."""


@dataclass
class MassGrid(_Grid):
    """Float grid of natural-measure estimates per cell, plus their sum."""

    total: float
