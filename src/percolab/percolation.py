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

Counts come out in digit-path order; ``grid_from_digit_order`` reshapes
them into the spatial grid that the ``holes`` kernels read.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .errors import MemoryBudgetError
from .rng import (
    child_key, child_keys, count_alive, count_children, slices, substream, unit_draw, unit_draws,
)

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
        """True when the mean offspring count p k^m exceeds one, read as
        p > k^-m: a huge k^m is slow to build and past the float range."""
        return self.p > self.critical_probability


def dimension(config: PercolationConfig) -> float:
    """Almost-sure dimension of the limit set given survival."""
    return config.m + math.log(config.p) / math.log(config.k)


def mass_factor(config: PercolationConfig, level: int) -> float:
    """k^(-level d), the mass each retained node at depth ``level`` carries.

    A retained depth-j cube carries mass k^(-j d) X, where X is its
    martingale limit.  Its retained count g levels below has mean
    (p k^m)^g = k^(g d) and sums over its children as X does, so that count
    times k^(-g d) estimates X, and a count times this factor is a mass.
    """
    return float(config.k) ** (-level * dimension(config))


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


def cell_of_digits(digits: Tuple[int, ...], m: int, k: int) -> Tuple[int, ...]:
    """Integer coordinates of the cell a digit tuple addresses.

    A cell is the tuple of its digits in {0, ..., k^m - 1}, one per level
    below the root ``()``: each digit picks one of the k^m subcubes of the
    current cube, and holds one base-k offset per axis in mixed radix with
    axis 0 most significant,

        offset along axis a  =  (digit // k**(m - 1 - a)) % k.

    The result lives on the side-``k**len(digits)`` grid; coordinate ``a``
    is the base-k number whose digits are the axis-``a`` offsets, most
    significant first.
    """
    coords = [0] * m
    for d in digits:
        for a in range(m):
            coords[a] = coords[a] * k + (d // k ** (m - 1 - a)) % k
    return tuple(coords)


def grid_from_digit_order(values: np.ndarray, m: int, k: int, r: int) -> np.ndarray:
    """Rearrange a length-(k^m)^r digit-order vector into a (side,)*m grid.

    Digit i holds one base-k offset per axis (see ``cell_of_digits``), so
    the vector is m * r base-k axes in (level, axis) order; one transpose to
    (axis, level) order gives the grid.  The dtype is kept; where m = 1 or
    r <= 1 nothing moves and the grid is a view of ``values``.
    """
    order = [i * m + a for a in range(m) for i in range(r)]
    return values.reshape((k,) * (m * r)).transpose(order).reshape((k**r,) * m)


def capped_power(base: int, exp: int, bound: int) -> int:
    """``base ** exp`` when that is at most ``bound``, else ``bound + 1``.

    Every size a spec implies (k^m, a grid's k^(m r) cells, fanout^g) is
    checked through it before it is built: a base >= 2 passes the bound
    once the exponent reaches the bound's bit length, so the exponent stops
    there and no integer much wider than the bound is made.
    """
    return min(base ** min(exp, bound.bit_length()), bound + 1)


def labels_fit(fanout: int, digits: int) -> bool:
    """Whether base-``fanout`` labels of ``digits`` digits, and fanout^digits
    itself, fit int64."""
    return capped_power(fanout, digits, 1 << 63) < 1 << 63


class _Level:
    """Growable key and label arrays holding one frontier level."""

    def __init__(self):
        self.keys = np.empty(0, dtype=np.uint64)
        self.labels = np.empty(0, dtype=np.int64)

    def reserve(self, size: int, keep: int, labelled: bool):
        """Make room for ``size`` nodes, keeping the first ``keep``."""
        names = ("keys", "labels") if labelled else ("keys",)
        for name in names:
            old = getattr(self, name)
            if size > old.size:
                new = np.empty(max(size, 2 * old.size), dtype=old.dtype)
                new[:keep] = old[:keep]
                setattr(self, name, new)


# This process's level buffers that no open frontier holds; the next frontier
# takes them.
_SPARES: List[_Level] = []


class Frontier:
    """Retained nodes at one depth below a word, in digit-path order.

    The frontier holds every retained node at its depth, except after a
    counted level (``LazyTree.expand_retained`` with ``cells``), where it
    holds only the nodes under the word's children that the expansion
    kept: at most the nodes under one child once a walk knows its next
    digit.  ``keys`` holds their stream keys.  ``labels`` (None when
    ``label_depth`` is 0) holds each node's first ``label_depth`` digits
    below the word as one base-k^m integer, so the labels are sorted; a
    node at most ``label_depth`` levels down is labelled with its whole
    digit path below the word.  Both are views into buffers the frontier
    holds until the ``with`` block of ``LazyTree.frontier`` ends: read them
    inside it and copy what must outlive it.
    """

    def __init__(self, fanout: int, key: Optional[int], label_depth: int, levels: List[_Level]):
        self.fanout = fanout
        self.label_depth = label_depth
        self.depth = 0
        self._levels = levels  # the current level's buffers, then the spare
        levels[0].reserve(1, 0, label_depth > 0)
        if key is not None:
            levels[0].keys[0] = key
            if label_depth:
                levels[0].labels[0] = 0
        self._show(0 if key is None else 1)

    @property
    def size(self) -> int:
        return self.keys.size

    def _show(self, size: int):
        current = self._levels[0]
        self.keys = current.keys[:size]
        self.labels = current.labels[:size] if self.label_depth else None

    def _swap(self, size: int):
        """Make the spare buffers, filled with ``size`` nodes one level down, current."""
        self._levels.reverse()
        self.depth += 1
        self._show(size)

    def _under(self, digits: range) -> Tuple[int, int]:
        """Index range of the nodes under the word's children ``digits``."""
        if not digits:
            return 0, 0
        if digits == range(self.fanout):
            return 0, self.size
        if not 0 < self.depth <= self.label_depth:
            raise ValueError("selecting by digit needs a labelled frontier below its word")
        unit = self.fanout ** (self.depth - 1)
        lo, hi = np.searchsorted(self.labels, (digits.start * unit, digits.stop * unit))
        return int(lo), int(hi)

    def _nodes(self, lo: int, hi: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The keys and labels (None when unlabelled) of nodes ``lo`` .. ``hi``."""
        return self.keys[lo:hi], None if self.labels is None else self.labels[lo:hi]

    def descend(self, digit: int):
        """Keep the nodes under child ``digit`` of the word; that child becomes the word."""
        lo, hi = self._under(range(digit, digit + 1))
        self.keys, self.labels = self._nodes(lo, hi)
        self.labels -= digit * self.fanout ** (self.depth - 1)
        self.depth -= 1


class LazyTree:
    """On-demand view of one realization of the percolation process.

    Buffers are reused; no result is.  A scalar query walks the keys down
    from the root, and ``expand_retained`` hashes a retained-only frontier
    whose level buffers, and ``rng``'s slice scratch, each process keeps for
    every tree; both hash the same counter-based keys, so they always agree.
    ``max_nodes`` caps the children one frontier level or count grid may
    hold, and the counts one expansion returns; it is read from the
    ``PERCOLAB_MAX_NODES`` environment variable, else 2^24.
    """

    def __init__(self, config: PercolationConfig):
        self.config = config
        self.max_nodes = _max_nodes_default()
        self._root_key = substream(config.seed, STREAM_RETENTION)

    # -- scalar queries ---------------------------------------------------

    def _lookup(self, digits: Tuple[int, ...]) -> Optional[int]:
        """Stream key of the node at ``digits``, or None if it is pruned.

        Raises ValueError on a digit outside [0, k^m).
        """
        fanout = self.config.branching if digits else 0  # the root reads no digit
        for digit in digits:
            if not 0 <= digit < fanout:
                raise ValueError(f"digit {digit} out of range [0, {fanout})")
        key = self._root_key
        p = self.config.p
        for digit in digits:
            key = child_key(key, digit)
            if unit_draw(key) >= p:
                return None  # hereditary: the rest of the path is dead too
        return key

    def is_retained(self, digits: Tuple[int, ...]) -> bool:
        return self._lookup(digits) is not None

    # -- bulk expansion ---------------------------------------------------

    def _budget(self, n_nodes: int):
        if n_nodes > self.max_nodes:
            raise MemoryBudgetError(n_nodes, self.max_nodes)

    def _budget_grid(self, r: int):
        """Check a count grid of (k^m)^r cells, r levels below a word, against the budget."""
        self._budget(capped_power(self.config.k, self.config.m * r, 1 << 63))

    @contextmanager
    def frontier(self, digits: Tuple[int, ...], label_depth: int = 0) -> Iterator[Frontier]:
        """A frontier holding the cell at ``digits`` alone (none if it is
        pruned), for one ``with`` block.

        ``label_depth`` must pass ``labels_fit``.
        """
        self._budget_grid(1)  # one level of children
        fanout = self.config.branching
        if not labels_fit(fanout, label_depth):
            raise ValueError(f"{label_depth}-digit labels overflow int64 at fanout {fanout}")
        levels = [_SPARES.pop() if _SPARES else _Level() for _ in range(2)]
        try:
            yield Frontier(fanout, self._lookup(digits), label_depth, levels)
        finally:
            _SPARES.extend(levels)

    def expand_retained(
        self,
        frontier: Frontier,
        levels: int,
        cells: Optional[np.ndarray] = None,
        keep: range = range(0),
    ) -> List[int]:
        """Hash ``levels`` more levels below ``frontier``, in place.

        Returns the retained counts before and after each level,
        ``levels + 1`` ints.  Only the children of retained nodes are hashed,
        so memory tracks the surviving population rather than the
        (k^m)^depth lattice; once the frontier is empty, hashing stops and
        the remaining counts are 0.  A level is hashed in slices of at most
        ``rng._CHUNK`` parents (``rng.slices``).  Each slice is compacted
        through one index array of its alive children straight into the
        frontier's spare level buffer, which changes no key, draw, node or
        label.

        With ``cells`` (int64, (k^m)^c entries), the deepest level is
        counted as it is hashed: each of its nodes adds one to ``cells`` at
        its label truncated to its first c digits (at 0 in an unlabelled
        frontier).  Of that level only the nodes under the word's children
        ``keep`` are stored, and they become the frontier: the children of
        the one contiguous range of parents under them, found by
        ``searchsorted`` on the parents' labels.  With nothing to keep (the
        default), the frontier stays one level above the counted level.
        The deepest count returned is the counted total.  Only that range
        is hashed in slices; ``rng.count_children`` counts the parents
        before it in one call and those after it in another, without
        storing a key or a draw.  Each parent is hashed once, in digit
        order.
        """
        self._budget(levels + 1)  # the counts returned, 0 once the frontier dies
        fanout, p = self.config.branching, self.config.p
        sizes = [frontier.size]
        while len(sizes) <= levels and frontier.size:
            self._budget(frontier.size * fanout)
            counted = cells is not None and len(sizes) == levels
            keys, labels = frontier.keys, frontier.labels
            extend = frontier.depth < frontier.label_depth
            digits = min(frontier.depth, frontier.label_depth)  # of each parent's label
            unit = _cell_unit(fanout, digits, cells) if counted else 0
            lo, hi = frontier._under(keep) if counted else (0, keys.size)  # parents stored
            out = frontier._levels[1]
            filled = hashed = 0
            if counted:  # nothing of the parents before [lo, hi) is stored
                hashed = count_children(*frontier._nodes(0, lo), fanout, p, unit, cells)
            for a, b, (children, bits, draws, alive) in slices(lo, hi, fanout):
                part, parent = frontier._nodes(a, b)
                child_keys(part, fanout, children.reshape(-1, fanout), bits.reshape(-1, fanout))
                np.less(unit_draws(children, draws, bits), p, out=alive)
                if counted:
                    hashed += count_alive(alive.reshape(-1, fanout), parent, unit, cells)
                nz = np.flatnonzero(alive)
                count = nz.size
                out.reserve(filled + count, filled, labels is not None)
                np.take(children, nz, mode="clip", out=out.keys[filled : filled + count])
                if parent is not None:
                    child_labels = out.labels[filled : filled + count]
                    owner = nz // fanout  # each child's parent in the slice
                    np.take(parent, owner, mode="clip", out=child_labels)
                    if extend:  # append the child's digit nz - owner * fanout
                        child_labels -= owner
                        child_labels *= fanout
                        child_labels += nz
                filled += count
            if counted:  # nor of those after it
                hashed += count_children(*frontier._nodes(hi, keys.size), fanout, p, unit, cells)
            sizes.append(hashed if counted else filled)
            if keep or not counted:
                frontier._swap(filled)
        sizes.extend([0] * (levels + 1 - len(sizes)))
        return sizes

    def count_profile(self, digits: Tuple[int, ...], depth: int) -> List[int]:
        """Retained descendant counts of the cell at ``digits``, at every
        relative depth 0..depth.

        The deepest level is counted, not stored.
        """
        with self.frontier(digits) as front:
            return self.expand_retained(front, depth, np.zeros(1, dtype=np.int64))


def _cell_unit(fanout: int, digits: int, cells: np.ndarray) -> int:
    """Parent labels of ``digits`` digits per cell of ``cells``, or 0 where
    the cells resolve each child's own digit.

    A child's label is its parent's, with the child's digit appended when
    the frontier labels that deep.  A grid of (k^m)^c cells with c >
    ``digits`` resolves that digit; a coarser one puts each child in its
    parent's cell, the parent's label cut to c digits.
    """
    labels = fanout**digits
    return 0 if labels < cells.size else labels // cells.size


def descendant_counts(
    tree: LazyTree, digits: Tuple[int, ...], resolution: int, probe_depth: int
) -> np.ndarray:
    """Retained descendant counts, probe_depth below each depth-resolution cell.

    Digit-path order, length (k^m)^resolution.  Nodes are labelled down to
    their depth-resolution cell, and the deepest level is counted into the
    cells without being stored.
    """
    tree._budget_grid(resolution)
    cells = np.zeros(tree.config.branching**resolution, dtype=np.int64)
    with tree.frontier(digits, resolution) as front:
        tree.expand_retained(front, resolution + probe_depth, cells)
        if resolution + probe_depth == 0:  # no level below: the word is its own cell
            cells[0] = front.size
    return cells
