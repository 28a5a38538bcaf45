"""Counter-based splittable random numbers.

Every random decision in the package is a pure function of an integer key.
Keys are derived from a user seed by repeatedly hashing (seed, index) pairs
with a 64-bit finalizer, so a node's draw depends only on its digit path --
never on evaluation order, worker count, or how much of the tree was
expanded before it.  That property is what makes parallel runs byte-stable.

The finalizer is the splitmix64 output function.  Its constants are part of
the package's reproducibility contract: changing them silently changes every
sampled tree, so they must stay fixed across versions.
"""

from __future__ import annotations

from typing import Optional

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

    ``out`` receives the keys and ``scratch`` is the finalizer's work array,
    both uint64 of shape (n, fanout); without them both are allocated.
    """
    children = np.empty((keys.size, fanout), dtype=np.uint64) if out is None else out
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
    hashed bits, both of ``keys``' shape; without them both are allocated.
    ``out`` doubles as the finalizer's work array before it is written.
    """
    if out is None:
        out = np.empty(keys.shape, dtype=np.float64)
    bits = np.bitwise_xor(keys, _DRAW_SALT_U64, out=scratch)
    _mix64_inplace(bits, out.view(np.uint64))
    bits >>= _SHIFT_11
    # bits < 2^53 convert exactly, and the power-of-two scale is exact too;
    # they read the same as int64, which converts faster than uint64
    return np.multiply(bits.view(np.int64), _INV_2_53, out=out)


def substream(seed: int, *indices: int) -> int:
    """Derive an independent seed by folding indices into the key chain.

    ``substream(s, a, b, c)`` is the deterministic analogue of seeding a
    fresh generator for the (a, b, c) slot of a nested experiment.
    """
    key = seed_key(seed)
    for index in indices:
        key = child_key(key, index)
    return key
