"""Counter-based splittable random numbers.

Every random decision in the package is a pure function of an integer key.
Keys are derived from a user seed by repeatedly hashing (seed, index) pairs
with a 64-bit finalizer, so a node's draw depends only on its digit path --
never on evaluation order, worker count, or how much of the tree was
expanded before it.  That property is what makes parallel runs byte-stable.

The finalizer is the splitmix64 output function.  Its constants are part of
the package's reproducibility contract: changing them silently changes every
sampled tree, so they must stay fixed across versions.

``child_keys``, ``unit_draws`` and ``count_children`` have two bodies that
write the same bits.  The numpy body is the reference and the fallback; the
compiled body is one of the three hashing loops of ``_native.c``, which
``_native`` builds, binds and checks against the numpy body.  ``_loops()``
holds every compiled loop of the process, the geometry of ``holes`` too.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

import numpy as np

MASK64 = (1 << 64) - 1

GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Salt applied before the finalizer when turning a key into a uniform draw,
# so that a node's draw and its child keys come from distinct points of the
# hash space.  Any fixed odd constant works.
_DRAW_SALT = 0x5851F42D4C957F2D

_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)
_DRAW_SALT_U64 = np.uint64(_DRAW_SALT)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)

_INV_2_53 = 2.0 ** -53

# Parents hashed per slice of a frontier level: a slice's children, draws and
# index array stay in cache, where one pass over a whole large level would
# not.  On a 2-CPU x86-64 machine 1 << 13 hashed as fast as 1 << 14 with
# 1.7 MB less peak memory, and 1 << 12 was slower by its per-call costs.
_CHUNK = 1 << 13

# One slice's children: their keys, hashed bits, draws and alive mask.
_DTYPES = (np.uint64, np.uint64, np.float64, bool)
# This process's slice arrays, grown on demand by ``slices``.
_SCRATCH = [np.empty(0, dtype) for dtype in _DTYPES]

# The unsigned word one alive row fills, one byte per child, at the fanouts
# that have one; other fanouts weigh their rows by a product instead.
_ROW_WORDS = {2: np.uint16, 4: np.uint32, 8: np.uint64}


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (pure Python, masked)."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX1) & MASK64
    x ^= x >> 27
    x = (x * _MIX2) & MASK64
    x ^= x >> 31
    return x


def _mix64_inplace(x: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array; returns it.

    ``scratch``, a uint64 array of ``x``'s shape, takes the shifted words,
    so that no temporary is allocated.
    """
    tmp = np.empty_like(x) if scratch is None else scratch
    for shift, mult in ((_SHIFT_30, _MIX1_U64), (_SHIFT_27, _MIX2_U64)):
        x ^= np.right_shift(x, shift, out=tmp)
        x *= mult
    x ^= np.right_shift(x, _SHIFT_31, out=tmp)
    return x


def seed_key(seed: int) -> int:
    """Root key for a user seed.

    The offset keeps seed 0 away from the finalizer's fixed point
    (mix64(0) == 0), which would otherwise make all of seed 0's streams
    collide with the zero key.
    """
    return mix64((int(seed) + GOLDEN) & MASK64)


def child_key(key: int, index: int) -> int:
    """Key of the ``index``-th child stream of ``key``."""
    return mix64((key + GOLDEN * (int(index) + 1)) & MASK64)


def child_keys(
    keys: np.ndarray,
    fanout: int,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Child keys for a whole frontier at once: (n,) uint64 -> (n, fanout).

    ``out`` receives the keys and ``scratch`` is the numpy body's work
    array, both uint64 of shape (n, fanout); without them both are allocated.
    """
    children = np.empty((keys.size, fanout), dtype=np.uint64) if out is None else out
    loops = _loops()
    if loops is None or not _in_place(keys, None, children, (keys.size, fanout), np.uint64):
        return _numpy_child_keys(keys, fanout, children, scratch)
    loops["child_keys"](keys, fanout, children)
    return children


def _numpy_child_keys(
    keys: np.ndarray, fanout: int, children: np.ndarray, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """The numpy body of ``child_keys``, into ``children``."""
    # one pass per column: a broadcast add would loop fanout entries at a time
    for index in range(fanout):
        np.add(keys, np.uint64(GOLDEN * (index + 1) & MASK64), out=children[:, index])
    return _mix64_inplace(children, scratch)


def unit_draw(key: int) -> float:
    """Uniform draw in [0, 1) attached to ``key``."""
    return (mix64(key ^ _DRAW_SALT) >> 11) * _INV_2_53


def unit_draws(
    keys: np.ndarray,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized uniform draws in [0, 1) for a uint64 key array.

    ``out`` (float64) receives the draws and ``scratch`` (uint64) holds the
    numpy body's hashed bits, both of ``keys``' shape; without them both are
    allocated.
    """
    if out is None:
        out = np.empty(keys.shape, dtype=np.float64)
    loops = _loops()
    if loops is None or not _in_place(keys, None, out, keys.shape, np.float64):
        return _numpy_unit_draws(keys, out, scratch)
    loops["unit_draws"](keys, out)
    return out


def _numpy_unit_draws(
    keys: np.ndarray, out: np.ndarray, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """The numpy body of ``unit_draws``, into ``out``.

    ``out`` doubles as the finalizer's work array before it is written.
    """
    bits = np.bitwise_xor(keys, _DRAW_SALT_U64, out=scratch)
    _mix64_inplace(bits, out.view(np.uint64))
    bits >>= _SHIFT_11
    # bits < 2^53 convert exactly, and the power-of-two scale is exact too;
    # they read the same as int64, which converts faster than uint64
    return np.multiply(bits.view(np.int64), _INV_2_53, out=out)


def slices(start: int, stop: int, fanout: int) -> Iterator[Tuple[int, int, List[np.ndarray]]]:
    """The parents ``start`` .. ``stop`` in slices of at most ``_CHUNK``:
    each slice's bounds, and arrays for its children's keys, hashed bits,
    draws and alive mask.

    The arrays are views of one scratch that every slice of every caller
    reuses, so a slice is read before the next one is asked for.
    """
    for a in range(start, stop, _CHUNK):
        b = min(a + _CHUNK, stop)
        n = (b - a) * fanout
        if n > _SCRATCH[0].size:
            _SCRATCH[:] = [np.empty(n, dtype) for dtype in _DTYPES]
        yield a, b, [array[:n] for array in _SCRATCH]


def count_alive(
    alive: np.ndarray, parent: Optional[np.ndarray], unit: int, cells: np.ndarray
) -> int:
    """Add each alive child of an (parents, fanout) mask to ``cells``; returns
    the number of alive children.

    ``parent`` holds the parents' labels (None: every child goes to cell 0).
    With a ``unit`` a child goes to its parent's cell ``parent // unit``;
    with ``unit`` 0, to its full label ``parent * fanout + j``.  The labels
    are not checked against ``cells``.
    """
    count = int(np.count_nonzero(alive))
    fanout = alive.shape[1]
    if parent is None:
        cells[0] += count
    elif not unit:  # cells at full labels: the parent's, then the digit
        cells.reshape(-1, fanout)[parent] += alive
    else:  # a child lies in its parent's cell: weigh each parent by its alive children
        word = _ROW_WORDS.get(fanout)
        if word is None:
            ones = np.ones(fanout, np.uint8 if fanout < 256 else np.int64)
            per_parent = alive.view(np.uint8) @ ones
        else:  # times 0x01..01, the row's top byte sums its 0/1 bytes with no carry
            ones = word(int.from_bytes(b"\x01" * fanout, "little"))
            per_parent = (alive.view(word)[:, 0] * ones) >> word(8 * (fanout - 1))
        added = np.bincount(parent // unit, weights=per_parent)  # exact: each sum is below 2^53
        np.add(cells[: added.size], added, out=cells[: added.size], casting="unsafe")
    return count


def count_children(
    keys: np.ndarray,
    labels: Optional[np.ndarray],
    fanout: int,
    p: float,
    unit: int,
    cells: np.ndarray,
) -> int:
    """Count the alive children of ``keys`` into ``cells``; returns how many
    there are.

    A child is alive when its draw is below ``p``.  Without ``labels`` every
    child counts at ``cells[0]``; with a ``unit``, at its parent's cell
    ``labels[i] // unit``; with ``unit`` 0, at its full label
    ``labels[i] * fanout + j``.  ``labels`` (one per key) must be sorted:
    IndexError is raised, before anything is counted, where the first or
    the last key's cells, or cell 0 without labels, fall outside
    ``cells``.  Nothing is stored.  The compiled step counts where it can
    read and write the arrays in place, the numpy body anywhere else.
    """
    low = high = top = 0  # without labels, every child counts at cell 0
    if labels is not None and labels.size:
        low, high = int(labels[0]), int(labels[-1])
        top = high * fanout + fanout - 1 if unit == 0 else high // unit
    if low < 0 or top >= cells.size:
        raise IndexError(f"labels {low} to {high} reach cell {top}, outside {cells.size} cells")
    loops = _loops()
    if loops is None or not _in_place(keys, labels, cells, cells.shape, np.int64):
        return _numpy_count_children(keys, labels, fanout, p, unit, cells)
    return loops["count_children"](keys, labels, fanout, p, unit, cells)


def _numpy_count_children(
    keys: np.ndarray,
    labels: Optional[np.ndarray],
    fanout: int,
    p: float,
    unit: int,
    cells: np.ndarray,
) -> int:
    """The numpy body of ``count_children``: it hashes ``_CHUNK`` parents at
    a time and counts each slice through ``count_alive``."""
    total = 0
    for a, b, (children, bits, draws, alive) in slices(0, keys.size, fanout):
        _numpy_child_keys(keys[a:b], fanout, children.reshape(-1, fanout), bits.reshape(-1, fanout))
        np.less(_numpy_unit_draws(children, draws, bits), p, out=alive)
        parent = None if labels is None else labels[a:b]
        total += count_alive(alive.reshape(-1, fanout), parent, unit, cells)
    return total


def substream(seed: int, *indices: int) -> int:
    """Derive an independent seed by folding indices into the key chain.

    ``substream(s, a, b, c)`` is the deterministic analogue of seeding a
    fresh generator for the (a, b, c) slot of a nested experiment.
    """
    key = seed_key(seed)
    for index in indices:
        key = child_key(key, index)
    return key


# -- the compiled body ---------------------------------------------------------


def _in_place(keys: np.ndarray, labels, out: np.ndarray, shape, dtype) -> bool:
    """Whether a compiled loop may read ``keys`` and ``labels`` (None: none)
    and write ``out`` in place: some uint64 keys, no labels or int64 labels
    one per key, and an ``out`` of ``shape`` and ``dtype``, each aligned,
    contiguous and writable (the loops read only writable buffers), with
    ``out`` apart from the others (a loop may read a key it has already
    overwritten; numpy buffers an overlapping operand)."""
    return (
        keys.dtype == np.uint64 and keys.size > 0 and keys.flags.carray
        and out.shape == shape and out.dtype == dtype and out.flags.carray
        and not np.may_share_memory(keys, out)
        and (labels is None or labels.dtype == np.int64 and labels.shape == keys.shape
             and labels.flags.carray and not np.may_share_memory(labels, out))
    )


@lru_cache(maxsize=None)
def _loops():
    """This process's compiled loops, by the name of the function that calls
    each, from the package's ``__pycache__``; or None, and then every caller,
    in ``holes`` too, runs its numpy body."""
    return _native._load()


def hash_kernel() -> str:
    """Which body hashes in this process: "native" (compiled) or "numpy"."""
    return "numpy" if _loops() is None else "native"


# last: the loader binds the numpy bodies above as its references
from . import _native  # noqa: E402
