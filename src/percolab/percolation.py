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

    Node retention is cached sparsely (dict keyed by digit path) for scalar
    queries, and recomputed in bulk for dense region expansions; both routes
    hash the same keys, so they always agree.
    """

    def __init__(self, config: PercolationConfig, max_nodes: Optional[int] = None):
        self.config = config
        self.max_nodes = int(max_nodes) if max_nodes else _max_nodes_default()
        if not config.supercritical:
            warnings.warn(
                f"p={config.p} is at or below the critical value "
                f"{config.critical_probability:g}; the limit set dies out "
                f"almost surely",
                stacklevel=2,
            )
        self._root_key = substream(config.seed, STREAM_RETENTION)
        # digit path -> (stream key, retained flag); root is always retained
        self._nodes = {(): (self._root_key, True)}

    # -- scalar queries ---------------------------------------------------

    def _lookup(self, digits: Tuple[int, ...]) -> Tuple[int, bool]:
        cached = self._nodes.get(digits)
        if cached is not None:
            return cached
        # walk down from the longest cached ancestor
        depth = len(digits)
        start = depth - 1
        while start > 0 and digits[:start] not in self._nodes:
            start -= 1
        key, retained = self._nodes[digits[:start]]
        p = self.config.p
        for i in range(start, depth):
            key = child_key(key, digits[i])
            retained = retained and (unit_draw(key) < p)
            self._nodes[digits[: i + 1]] = (key, retained)
        return key, retained

    def _check_word(self, word: Word):
        if word.m != self.config.m or word.k != self.config.k:
            raise ValueError(
                f"word geometry (m={word.m}, k={word.k}) does not match the "
                f"tree (m={self.config.m}, k={self.config.k})"
            )

    def is_retained(self, word: Word) -> bool:
        self._check_word(word)
        return self._lookup(word.digits)[1]

    # -- bulk expansion ---------------------------------------------------

    def _budget(self, n_nodes: int):
        if n_nodes > self.max_nodes:
            raise MemoryBudgetError(n_nodes, self.max_nodes)

    def expand_retained(self, word: Word, depth: int) -> List[np.ndarray]:
        """Dense retention flags for all descendants of ``word``.

        Returns ``depth + 1`` flat boolean arrays; level j has length
        (k^m)^j and is indexed by digit path with the first digit most
        significant.  If ``word`` itself is pruned every level is all-False
        (hereditary pruning makes the descendants' draws irrelevant).
        """
        self._check_word(word)
        fanout = self.config.branching
        key, retained = self._lookup(word.digits)
        levels = [np.array([retained])]
        p = self.config.p
        keys = np.array([key], dtype=np.uint64)
        alive = levels[0]
        for j in range(1, depth + 1):
            self._budget(fanout ** j)
            keys = child_keys(keys, fanout).reshape(-1)
            draws = unit_draws(keys)
            alive = np.repeat(alive, fanout) & (draws < p)
            levels.append(alive)
        return levels

    def count_profile(self, word: Word, depth: int) -> List[int]:
        """Retained descendant counts at every relative depth 0..depth.

        Walks a retained-only frontier, so memory tracks the surviving
        population rather than the full (k^m)^depth lattice, recording the
        population size level by level; once the frontier dies the remaining
        entries are zero.
        """
        self._check_word(word)
        key, retained = self._lookup(word.digits)
        counts = [1 if retained else 0]
        fanout = self.config.branching
        p = self.config.p
        keys = np.array([key] if retained else [], dtype=np.uint64)
        for _ in range(depth):
            self._budget(len(keys) * fanout)
            ck = child_keys(keys, fanout).reshape(-1)
            keys = ck[unit_draws(ck) < p]
            counts.append(int(keys.size))
            if keys.size == 0:
                break
        counts.extend([0] * (depth + 1 - len(counts)))
        return counts


def descendant_counts(
    tree: LazyTree, root: Word, resolution: int, probe_depth: int
) -> np.ndarray:
    """Retained descendant counts, probe_depth below each depth-resolution cell.

    Digit-path order, length (k^m)^resolution.
    """
    levels = tree.expand_retained(root, resolution + probe_depth)
    deep = levels[resolution + probe_depth]
    fanout = tree.config.branching
    return deep.reshape(fanout ** resolution, -1).sum(axis=1)
