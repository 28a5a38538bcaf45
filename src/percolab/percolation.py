"""Lazily sampled fractal percolation trees.

The model: start from [0, 1]^m, split every cube into k^m congruent
subcubes, and keep each subcube independently with probability p given that
its parent was kept.  The root is always kept.  Pruning is hereditary --
once a cube is discarded, so is its entire subtree -- and the limit set is
the intersection over levels of the kept cubes.

A ``LazyTree`` materializes retention decisions on demand.  Each node's
decision is a pure function of (seed, digit path) through a keyed hash, so
any two expansions of overlapping regions agree exactly, regardless of the
order in which they were asked for.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .errors import MemoryBudgetError
from .rng import child_key, child_keys, substream, unit_draw, unit_draws
from .words import Word, _offset_table

_DEFAULT_MAX_NODES = 1 << 24

# Parents hashed per slice of a frontier level: a slice's keys, children and
# draws stay in cache, where one pass over a whole large level would not.
_CHUNK = 1 << 14

# Stream indices under a seed.  Retention draws, path-choice draws, path
# replicas, and plain ensemble replicas live in disjoint key subtrees, so
# changing how many of one kind a run needs never perturbs the others.
STREAM_RETENTION = 0
STREAM_PATH = 1
STREAM_REPLICA = 2
STREAM_ENSEMBLE = 3


@dataclass(frozen=True)
class PercolationConfig:
    """Model parameters: ambient dimension, base, retention probability, seed."""

    m: int
    k: int
    p: float
    seed: int = 0

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ValueError("m must be an integer >= 1")
        if int(self.k) != self.k or self.k < 2:
            raise ValueError("k must be an integer >= 2")
        if not (0.0 < self.p <= 1.0):
            raise ValueError("p must lie in (0, 1]")

    @property
    def branching(self) -> int:
        """Number of children per node, k^m."""
        return self.k ** self.m

    @property
    def critical_probability(self) -> float:
        return float(self.k) ** (-self.m)

    @property
    def supercritical(self) -> bool:
        """True when the mean offspring count p k^m exceeds one."""
        return self.p * self.branching > 1.0

    def root_word(self) -> Word:
        return Word.root(self.m, self.k)


def _max_nodes_default() -> int:
    raw = os.environ.get("PERCOLAB_MAX_NODES", "")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            warnings.warn(
                f"ignoring non-integer PERCOLAB_MAX_NODES={raw!r}", stacklevel=3
            )
    return _DEFAULT_MAX_NODES


@lru_cache(maxsize=None)
def _cell_perm(m: int, k: int, r: int) -> np.ndarray:
    """Flat C-order grid index of each depth-r digit path, in path order."""
    fanout = k ** m
    n = fanout ** r
    idx = np.arange(n)
    table = _offset_table(m, k)
    coords = np.zeros((n, m), dtype=np.int64)
    for i in range(r):
        digit = (idx // fanout ** (r - 1 - i)) % fanout
        coords = coords * k + table[digit]
    side = k ** r
    return np.ravel_multi_index(tuple(coords.T), (side,) * m)


def grid_from_digit_order(values: np.ndarray, m: int, k: int, r: int) -> np.ndarray:
    """Rearrange a length-(k^m)^r digit-order vector into a (side,)*m grid."""
    side = k ** r
    out = np.empty(side ** m, dtype=values.dtype)
    out[_cell_perm(m, k, r)] = values
    return out.reshape((side,) * m)


class LazyTree:
    """On-demand view of one realization of the percolation process.

    Nothing is cached: a scalar query walks the keys down from the root, and
    ``expand_retained`` walks a retained-only frontier.  Both hash the same
    counter-based keys, so they always agree.  ``max_nodes`` caps the
    children one frontier level or count grid may hold; it defaults to the
    ``PERCOLAB_MAX_NODES`` environment variable, else 2^24.
    """

    def __init__(self, config: PercolationConfig, max_nodes: Optional[int] = None):
        self.config = config
        self.max_nodes = int(max_nodes) if max_nodes else _max_nodes_default()
        self._root_key = substream(config.seed, STREAM_RETENTION)

    # -- scalar queries ---------------------------------------------------

    def _lookup(self, digits: Tuple[int, ...]) -> Optional[int]:
        """Stream key of the node at ``digits``, or None if it is pruned."""
        key = self._root_key
        p = self.config.p
        for digit in digits:
            key = child_key(key, digit)
            if unit_draw(key) >= p:
                return None  # hereditary: the rest of the path is dead too
        return key

    def _check_word(self, word: Word):
        if word.m != self.config.m or word.k != self.config.k:
            raise ValueError(
                f"word geometry (m={word.m}, k={word.k}) does not match the "
                f"tree (m={self.config.m}, k={self.config.k})"
            )

    def is_retained(self, word: Word) -> bool:
        self._check_word(word)
        return self._lookup(word.digits) is not None

    # -- bulk expansion ---------------------------------------------------

    def _budget(self, n_nodes: int):
        if n_nodes > self.max_nodes:
            raise MemoryBudgetError(n_nodes, self.max_nodes)

    def expand_retained(self, word: Word, depth: int) -> List[np.ndarray]:
        """Retained descendants of ``word``, level by level.

        Returns ``depth + 1`` int64 arrays.  Level j lists the retained
        nodes at relative depth j in digit-path order, each stored as
        ``parent_position * k^m + digit`` where ``parent_position`` indexes
        level j-1.  Level 0 is ``[0]``, or empty if ``word`` is pruned.
        Only the children of retained nodes are hashed, so memory tracks the
        surviving population rather than the (k^m)^depth lattice; once a
        level is empty, hashing stops and the rest are empty levels.  A
        level is hashed in slices of ``_CHUNK`` parents, which changes no
        key, draw or entry.
        """
        self._check_word(word)
        fanout = self.config.branching
        key = self._lookup(word.digits)
        keys = np.array([] if key is None else [key], dtype=np.uint64)
        levels = [np.zeros(keys.size, dtype=np.int64)]
        while len(levels) <= depth and keys.size:
            self._budget(keys.size * fanout)
            if keys.size <= _CHUNK:
                keys, alive = self._retained_children(keys)
            else:
                parts = [
                    self._retained_children(keys[start : start + _CHUNK], start * fanout)
                    for start in range(0, keys.size, _CHUNK)
                ]
                keys, alive = (np.concatenate(column) for column in zip(*parts))
            levels.append(alive)
        levels.extend(np.zeros(0, dtype=np.int64) for _ in range(depth + 1 - len(levels)))
        return levels

    def _retained_children(self, keys: np.ndarray, offset: int = 0):
        """Retained child keys of ``keys``, and their level entries plus ``offset``."""
        children = child_keys(keys, self.config.branching).reshape(-1)
        (alive,) = np.nonzero(unit_draws(children) < self.config.p)
        return children[alive], alive.astype(np.int64, copy=False) + offset

    def count_profile(self, word: Word, depth: int) -> List[int]:
        """Retained descendant counts at every relative depth 0..depth."""
        return [int(level.size) for level in self.expand_retained(word, depth)]


def descendant_counts(
    tree: LazyTree, root: Word, resolution: int, probe_depth: int
) -> np.ndarray:
    """Retained descendant counts, probe_depth below each depth-resolution cell.

    Digit-path order, length (k^m)^resolution.
    """
    fanout = tree.config.branching
    # past the budget's bit length the grid is over budget for any fanout,
    # so the check caps the exponent there and never builds a huge k^(m r)
    tree._budget(fanout ** min(resolution, tree.max_nodes.bit_length()))
    cells = fanout ** resolution
    levels = tree.expand_retained(root, resolution + probe_depth)
    # carry each node's depth-resolution cell down the frontier
    cell = np.zeros(levels[0].size, dtype=np.int64)
    for j, level in enumerate(levels[1:], start=1):
        parent, digit = np.divmod(level, fanout)
        cell = cell[parent] * fanout + digit if j <= resolution else cell[parent]
    return np.bincount(cell, minlength=cells)
